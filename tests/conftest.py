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


class _ForcedPlanner(AdaptivePlanner):
    """A planner whose kernel rule always answers ``kernel``."""

    def __init__(self, kernel: KernelChoice):
        # a zero drift budget pins the default thresholds
        super().__init__(AdaptiveConfig(drift_budget=0.0))
        self.kernel = kernel

    def kernel_for(self, profile) -> KernelChoice:
        return self.kernel


@pytest.fixture(scope="session")
def forced_planner():
    """Factory for a planner that always picks ``kernel`` and never
    leaves the default thresholds.  Session-scoped — it is a pure
    function — so hypothesis tests may take it."""
    return _ForcedPlanner
