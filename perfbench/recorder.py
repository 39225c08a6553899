"""The per-round recorder: timed operations and the canaries between them.

Every operation is timed on the wall clock and kept as measured.  This
sandbox also runs in a slow and a fast state that last seconds to
minutes and differ by 1.3x in both wall and CPU time: ten runs of every
workload on ten seeds spread by 11-31 % as measured, and a second set's
medians were up to 18 % from the first's, which no bound could gate.
The slowdown is multiplicative and hits fixed kernels the same way it
hits the program, so every operation is also timed next to a *canary* —
three fixed seeded kernels of about 1.3 ms each — and the gated metrics
are reported in reference time::

    reference time = measured time / slowdown of the canaries around it

The same runs spread by 2-7.5 % in reference time, the two sets' medians
within 3.1 %.  A canary's slowdown is 1.0 in this sandbox's usual (slow)
state, so there the two coincide; on another host reference time is the
time on a machine whose canary takes :data:`CANARY_REF_S`, comparable
between two commits measured on that host and to nothing else.  Measured
times are kept next to reference times in every result.
"""

from __future__ import annotations

import statistics
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CANARY_MAX_AGE_S", "CANARY_REF_S", "Canary", "Round"]

#: what each canary kernel (scatter-add, elementwise chain, deflate)
#: takes in the usual state of the 2-core 2.1 GHz Xeon sandbox the
#: benchmark was calibrated on
CANARY_REF_S = (0.00135, 0.00119, 0.00136)
#: a canary older than this is retaken before the next operation
CANARY_MAX_AGE_S = 0.040


class Canary:
    """Fixed pieces of work of the program's own kinds: a scatter-add
    (``np.add.at``, the engine's accumulation), a chain of gathers and
    elementwise maths on (1000, 32) float32 rows (the cell updates), and
    a deflate (the checkpoint writer).

    Its slowdown is the *median* of the three kernels' slowdowns, each
    against its own reference time.  All three follow the machine's
    state within 1-2 % of each other; the median is there because one
    kernel can sit in a pathology of its own for the life of a process
    (one run in sixty saw the scatter-add at 2.3x with the program at
    full speed), and a lone kernel then misscales every number of the
    run.

    The working sets are deliberately small (under 1 MB): canaries of
    0.1, 0.5, 2 and 8 MB were tried beside every window of
    ``cluster-serve`` and ``stream-lowchurn``; all track the stream
    equally, and the smallest tracks the serving path (zlib and Python
    as much as numpy) best — bigger ones slow down more than it does in
    a slow phase and over-correct.  In the box's turbulent phases the
    program slows 3-7 % more than these kernels do; kernels with 2 MB
    and 8 MB working sets, logged beside four workloads through such a
    phase, did not track it better, alone or mixed in.

    A canary also shares the caches with the program.  One taken right
    after 128 MB were streamed through them runs 1.0-1.8 % longer than
    one taken warm: that is the most a change that evicts everything
    can gain in reference time over one that evicts nothing.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._x = rng.standard_normal((1000, 32)).astype(np.float32)
        self._rows = rng.integers(0, 1000, size=1000)
        self._values = self._x[rng.integers(0, 1000, size=5000)]
        self._into = rng.integers(0, 1000, size=5000)
        self._out = np.zeros_like(self._x)
        self._blob = self._x[:384].tobytes()

    def __call__(self) -> tuple[float, float, float]:
        """Run once: ``(start, end, slowdown)``, the times on the
        ``perf_counter`` clock."""
        t0 = time.perf_counter()
        self._out.fill(0.0)
        np.add.at(self._out, self._into, self._values)
        t1 = time.perf_counter()
        y = self._x
        for _ in range(30):
            y = np.tanh(self._x[self._rows] * 0.5 + y)
        t2 = time.perf_counter()
        zlib.compress(self._blob, 6)
        t3 = time.perf_counter()
        slowdown = statistics.median(
            took / ref
            for took, ref in zip((t1 - t0, t2 - t1, t3 - t2), CANARY_REF_S)
        )
        return t0, t3, slowdown


@dataclass
class Round:
    """Measurements of one round's timed phase."""

    canary: Canary
    tracer: object = None
    op_start: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # wall seconds of every call
    op_cpu_s: list = field(default_factory=list)  # CPU seconds of every call
    canaries: list = field(default_factory=list)  # (start, end, slowdown)
    window_ops: list = field(default_factory=list)  # indices into op_s
    recovery_ops: dict = field(default_factory=dict)  # fault kind -> indices
    failed: int = 0
    errors: list = field(default_factory=list)
    released: dict = field(default_factory=dict)  # key -> ndarray
    snapshots: int = 0  # timestamps whose embeddings were handed back
    windows: int = 0  # windows whose embeddings were handed back
    backlog_max: int = 0

    @property
    def ops(self) -> int:
        return len(self.op_s)

    def call(self, fn, *args):
        """One timed operation; a raise is a failed operation, recorded
        and survived (the result is then ``None``)."""
        if (
            not self.canaries
            or time.perf_counter() - self.canaries[-1][1] > CANARY_MAX_AGE_S
        ):
            self.canaries.append(self.canary())
        tracer = self.tracer
        if tracer is not None:
            tracer.request = len(self.op_s)
            span = tracer.begin("driver.op", "driver")
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the boundary that must keep measuring
            result = None
            self.fail(traceback.format_exc(limit=8))
        dt = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end(span)
        self.op_start.append(t0)
        self.op_s.append(dt)
        self.op_cpu_s.append(cpu)
        return result

    def close(self) -> None:
        """End of the timed phase: the last operations get a canary after
        them like every other."""
        self.canaries.append(self.canary())

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def release(self, pairs, *, window: bool = False) -> None:
        """File the embeddings the last call handed back, one matrix per
        timestamp; ``window`` marks the call as a window-completion
        latency sample."""
        got = 0
        for key, matrix in pairs:
            self.released[key] = matrix
            got += 1
        self.snapshots += got
        if window and got:
            self.window_ops.append(len(self.op_s) - 1)
            self.windows += 1

    def recovered(self, kind: str) -> None:
        """Mark the last call as the one a shard recovered in."""
        self.recovery_ops.setdefault(kind, []).append(len(self.op_s) - 1)

    # ------------------------------------------------------------------
    def scale(self) -> np.ndarray:
        """Per operation: one over the mean slowdown of the last canary
        before it and the first one after it."""
        starts = np.array([c[0] for c in self.canaries])
        slowdown = np.array([c[2] for c in self.canaries])
        begun = np.asarray(self.op_start)
        before = np.searchsorted(starts, begun) - 1
        after = np.searchsorted(starts, begun + np.asarray(self.op_s))
        return 2.0 / (slowdown[before] + slowdown[after])

    def canary_s(self) -> float:
        """Median duration of the round's canaries (all three kernels)."""
        return float(np.median([end - start for start, end, _ in self.canaries]))
