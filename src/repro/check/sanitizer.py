"""Runtime sanitizer: conservation invariants checked during execution.

The static pass proves structural properties; this half watches the
numbers while they are produced.  Enable it with the ``REPRO_SANITIZE=1``
environment variable or the :func:`sanitized` context manager, and the
instrumented hot spots — :mod:`repro.accel.cyclesim`,
:mod:`repro.hardware.memory`, :mod:`repro.formats.ocsr`, and the TaGNN
energy composition — verify, per run:

* per-unit busy cycles never exceed ``total_cycles x unit count`` and
  utilisations stay in [0, 1];
* Task-FIFO occupancy stays within the configured capacity and loader
  stalls are non-negative and bounded by the span;
* O-CSR ``sindex`` is strictly increasing, offsets are monotone and
  consistent with ``enum``/``tindex``, and every target/timestamp is in
  range;
* buffer counters and HBM requests are non-negative;
* the reported energy equals the sum of its breakdown components.

Violations raise a structured :class:`SanitizerViolation` naming the
invariant, the offending quantity, its value, and the bound it broke.
When disabled the hooks cost one truthiness test.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SanitizerViolation",
    "SanitizerStats",
    "sanitized",
    "sanitizer_enabled",
    "sanitizer_stats",
    "reset_sanitizer_stats",
    "require",
    "check_cyclesim_result",
    "check_ocsr",
    "check_buffer",
    "check_hbm_request",
    "check_energy_composition",
    "REL_TOL",
]

#: relative slack for floating-point conservation comparisons
REL_TOL = 1e-9


class SanitizerViolation(RuntimeError):
    """A conservation invariant failed, with the failing quantity."""

    def __init__(
        self,
        invariant: str,
        quantity: str,
        value,
        bound,
        where: str = "",
    ):
        self.invariant = invariant
        self.quantity = quantity
        self.value = value
        self.bound = bound
        self.where = where
        msg = (
            f"[{invariant}] {quantity}={value!r} violates bound {bound!r}"
        )
        if where:
            msg += f" in {where}"
        super().__init__(msg)

    @property
    def component(self) -> str:
        """Subsystem that raised (leading segment of ``where``)."""
        return self.where.split(".")[0] if self.where else ""

    def as_dict(self) -> dict:
        """Structured incident context (what/where/how far out of bounds)
        — the resilience supervisor logs this instead of the bare
        message string."""
        return {
            "invariant": self.invariant,
            "quantity": self.quantity,
            "value": self.value,
            "bound": self.bound,
            "where": self.where,
            "component": self.component,
        }


@dataclass
class SanitizerStats:
    """How many invariant checks ran (so tests can assert coverage)."""

    checks: int = 0
    by_invariant: dict[str, int] = field(default_factory=dict)

    def record(self, invariant: str) -> None:
        self.checks += 1
        self.by_invariant[invariant] = (
            self.by_invariant.get(invariant, 0) + 1
        )


_STATS = SanitizerStats()
_DEPTH = 0

# The flag is read from the dict behind ``os.environ`` (CPython's
# private ``_data``, which every write to ``os.environ`` updates, keyed
# and valued in the platform's encoding): one dict lookup.
# ``os.environ.get`` on an unset variable raises and catches a KeyError
# inside ``Mapping.get``, 2 µs on every ``@contract`` call.
# tests/check/test_sanitizer.py fails by name if the private moves.
_ENV = os.environ._data
_FLAG = os.environ.encodekey("REPRO_SANITIZE")
_OFF = tuple(map(os.environ.encodevalue, ("0", "")))


def sanitizer_enabled() -> bool:
    """Whether conservation checks are active (env flag or context)."""
    return _DEPTH > 0 or _ENV.get(_FLAG, _OFF[0]) not in _OFF


@contextmanager
def sanitized():
    """Enable the sanitizer for the duration of the block."""
    global _DEPTH
    _DEPTH += 1
    try:
        yield _STATS
    finally:
        _DEPTH -= 1


def sanitizer_stats() -> SanitizerStats:
    return _STATS


def reset_sanitizer_stats() -> None:
    _STATS.checks = 0
    _STATS.by_invariant.clear()


def require(
    condition: bool,
    invariant: str,
    quantity: str,
    value,
    bound,
    where: str = "",
) -> None:
    """Record one check; raise :class:`SanitizerViolation` on failure."""
    _STATS.record(invariant)
    if not condition:
        raise SanitizerViolation(invariant, quantity, value, bound, where)


# ----------------------------------------------------------------------
# invariant bundles for the instrumented subsystems
# ----------------------------------------------------------------------
def check_cyclesim_result(
    result,
    *,
    n_dcu: int,
    n_aru: int,
    fifo_capacity: int,
    dcu_busy: float,
    aru_busy: float,
) -> None:
    """Conservation checks over one :class:`CycleSimResult`."""
    where = "CycleSimulator.run"
    total = result.total_cycles
    require(total >= 0.0, "cyclesim-span", "cycles", total, ">= 0", where)
    require(
        0.0 <= result.loader_stall_cycles <= total * (1 + REL_TOL),
        "cyclesim-stall", "cycles", result.loader_stall_cycles,
        f"[0, {total}]", where,
    )
    span = total * (1 + REL_TOL)
    require(
        dcu_busy <= span * n_dcu,
        "cyclesim-busy-conservation", "cycles", dcu_busy,
        f"<= total*n_dcu = {total * n_dcu}", where,
    )
    require(
        aru_busy <= span * n_aru,
        "cyclesim-busy-conservation", "cycles", aru_busy,
        f"<= total*n_aru = {total * n_aru}", where,
    )
    for name in ("dcu_utilization", "aru_utilization"):
        u = getattr(result, name)
        require(
            -REL_TOL <= u <= 1.0 + REL_TOL,
            "cyclesim-utilization", name, u, "[0, 1]", where,
        )
    require(
        0 <= result.max_fifo_occupancy <= fifo_capacity,
        "cyclesim-fifo-bound", "tasks", result.max_fifo_occupancy,
        f"[0, {fifo_capacity}]", where,
    )
    require(result.tasks >= 0, "cyclesim-task-count", "tasks",
            result.tasks, ">= 0", where)


def check_ocsr(storage) -> None:
    """Structural invariants of one :class:`OCSRStorage` instance."""
    where = "OCSRStorage"
    sindex = storage.sindex
    offsets = storage.offsets
    n = storage.selection.window.num_vertices
    k = storage.selection.num_snapshots
    require(
        bool(np.all(np.diff(sindex) > 0)) if sindex.size else True,
        "ocsr-sindex-monotone", "sindex", sindex[: 16].tolist(),
        "strictly increasing", where,
    )
    require(
        sindex.size == 0
        or (0 <= int(sindex[0]) and int(sindex[-1]) < n),
        "ocsr-sindex-range", "sindex",
        [int(sindex[0]), int(sindex[-1])] if sindex.size else [],
        f"[0, {n})", where,
    )
    require(
        offsets.size == sindex.size + 1 and int(offsets[0]) == 0,
        "ocsr-offsets-shape", "offsets", offsets.size,
        f"== len(sindex)+1 = {sindex.size + 1}, starting at 0", where,
    )
    require(
        bool(np.all(np.diff(offsets) >= 0)),
        "ocsr-offsets-monotone", "offsets", offsets[: 16].tolist(),
        "non-decreasing", where,
    )
    require(
        int(offsets[-1]) == storage.tindex.size,
        "ocsr-offsets-extent", "entries", int(offsets[-1]),
        f"== len(tindex) = {storage.tindex.size}", where,
    )
    require(
        bool(np.array_equal(np.diff(offsets), storage.enum)),
        "ocsr-enum-consistency", "enum", storage.enum[: 16].tolist(),
        "== diff(offsets)", where,
    )
    require(
        storage.tindex.size == 0
        or bool(
            (storage.tindex >= 0).all() and (storage.tindex < n).all()
        ),
        "ocsr-tindex-range", "tindex",
        [int(storage.tindex.min()), int(storage.tindex.max())]
        if storage.tindex.size
        else [],
        f"[0, {n})", where,
    )
    require(
        storage.timestamp.size == 0
        or bool(
            (storage.timestamp >= 0).all()
            and (storage.timestamp < k).all()
        ),
        "ocsr-timestamp-range", "timestamp",
        [int(storage.timestamp.min()), int(storage.timestamp.max())]
        if storage.timestamp.size
        else [],
        f"[0, {k})", where,
    )
    require(
        bool(np.all(np.diff(storage.fv_vertex) >= 0)),
        "ocsr-feature-index-monotone", "fv_vertex",
        storage.fv_vertex[: 16].tolist(), "non-decreasing", where,
    )
    require(
        storage.fv_start.size == 0
        or bool(
            (storage.fv_start >= 0).all() and (storage.fv_start < k).all()
        ),
        "ocsr-feature-version-range", "fv_start",
        [int(storage.fv_start.min()), int(storage.fv_start.max())]
        if storage.fv_start.size
        else [],
        f"[0, {k})", where,
    )


def check_buffer(buf) -> None:
    """Counter sanity of one :class:`OnChipBuffer`."""
    where = f"OnChipBuffer({buf.name})"
    for quantity in ("reads", "writes", "spill_words"):
        value = getattr(buf, quantity)
        require(value >= 0, "buffer-counters",
                "words", value, ">= 0", where)
    require(buf.capacity_bytes >= 1, "buffer-capacity", "bytes",
            buf.capacity_bytes, ">= 1", where)


def check_hbm_request(words: float, randoms: float) -> None:
    require(words >= 0, "hbm-request", "words", words, ">= 0",
            "HBMModel.cycles")
    require(randoms >= 0, "hbm-request", "randoms", randoms, ">= 0",
            "HBMModel.cycles")


def check_energy_composition(total_joules: float, parts: dict) -> None:
    """The reported energy must equal the sum of its components."""
    where = "TaGNNSimulator.simulate"
    for name, value in parts.items():
        require(value >= 0.0, "energy-composition", name, value, ">= 0",
                where)
    total_parts = sum(parts.values())
    slack = REL_TOL * max(abs(total_joules), abs(total_parts), 1e-30)
    require(
        abs(total_joules - total_parts) <= slack,
        "energy-composition", "joules", total_joules,
        f"== sum(components) = {total_parts}", where,
    )
