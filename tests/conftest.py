"""Suite-wide fixtures.

The runtime sanitizer (repro.check.sanitizer) is enabled for every test,
so each existing simulator test doubles as a conservation test: any
cycle-simulator, memory-model, O-CSR, or energy-composition invariant
violation surfaces as a SanitizerViolation in whichever test triggered
it.
"""

import pytest

from repro.adaptive import AdaptiveConfig, AdaptivePlanner, KernelChoice
from repro.check.sanitizer import sanitized


@pytest.fixture(autouse=True)
def _repro_sanitizer():
    """Run every test under the runtime sanitizer."""
    with sanitized():
        yield


@pytest.fixture(scope="session")
def forced_planner():
    """Factory for a planner that always picks ``kernel`` and never
    tunes thresholds (observed latencies rig the argmin; exploration is
    disabled).  Session-scoped — it is a pure function — so hypothesis
    tests may take it."""

    def make(kernel: KernelChoice) -> AdaptivePlanner:
        planner = AdaptivePlanner(
            AdaptiveConfig(explore_min_obs=0, tune_thresholds=False)
        )
        for k in KernelChoice:
            planner.cost_model.observe(k, 1e-9 if k is kernel else 1e3)
        return planner

    return make
