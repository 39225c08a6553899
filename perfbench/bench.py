"""One benchmark run: rounds, verification, and the metrics they yield.

Noise design.  A run holds one generated input and plays whole *rounds*
over it, as many as bring the timed phases nearest to ``--seconds`` and
at least three.  Each round builds a fresh pipeline and runs its warm-up
untimed.  Every operation is timed beside a canary and reported in
reference time, with the time as measured next to it (see
:mod:`perfbench.recorder`).  Rate metrics are the median over rounds;
the median latency is taken over the pooled window-completing
operations of all rounds.  ``setup_s`` is imports + input generation +
the median per-round build-and-warm-up.

End-to-end numbers are taken with tracing off.  A traced run
(``trace=True``) alternates untraced and traced rounds: the traced ones
give the per-layer numbers, the untraced ones the base the tracing
overhead is measured against.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .host import blas_threads
from .layers import PER_LAYER, SEAMS, layer_metrics
from .recorder import Canary, Round
from .tracer import Span, Tracer

__all__ = ["END_TO_END", "RunResult", "run_workload"]

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("snapshots_per_s", "1/s", "higher"),
    ("release_p50_ms", "ms", "lower"),
    ("cpu_s_per_snapshot", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("output_agreement", "ratio", "higher"),
)


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _digest(released: dict) -> str:
    sha = hashlib.sha256()
    for key in sorted(released, key=repr):
        sha.update(repr(key).encode())
        sha.update(np.ascontiguousarray(released[key]).tobytes())
    return sha.hexdigest()


def _beside(canary: Canary, fn):
    """``fn()`` between canaries: ``(result, raw seconds, scale)``.  The
    phases timed this way are long and few, so each side is the median
    of three canaries."""

    def slowdown() -> float:
        return statistics.median(canary()[2] for _ in range(3))

    before = slowdown()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, 2.0 / (before + slowdown())


@dataclass
class _Measured:
    """One round: its recorder plus what surrounded the timed phase."""

    rnd: Round
    pipe: object
    counters: dict
    setup_s: float  # build + warm-up, as measured
    setup_scale: float
    phase_s: float  # wall of the timed phase as measured, canaries included
    scale: np.ndarray  # per operation
    children_cpu_s: float
    digest: str
    spans: list = field(default_factory=list)

    def seconds(self, what: str, reference: bool) -> np.ndarray:
        """Wall (``op_s``) or CPU (``op_cpu_s``) seconds of every
        operation, in reference time or as measured."""
        measured = np.asarray(getattr(self.rnd, what))
        return measured * self.scale if reference else measured

    def windows(self, reference: bool = True) -> np.ndarray:
        return self.seconds("op_s", reference)[self.rnd.window_ops]

    def cpu_s_per_snapshot(self, reference: bool = True) -> float:
        # a child's CPU cannot be pinned to one operation: scale it by
        # the round's overall factor
        overall = self.seconds("op_s", reference).sum() / sum(self.rnd.op_s)
        total = (
            self.seconds("op_cpu_s", reference).sum()
            + self.children_cpu_s * overall
        )
        return float(total) / self.rnd.snapshots

    def shed(self) -> None:
        """Drop the pipeline and the released matrices: only round 0's
        are verified, and a run's peak memory must not grow with the
        number of rounds it happened to fit."""
        self.pipe = None
        self.rnd.released = {}


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}
    detail: dict
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def contract_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _play(
    workload, inp, canary: Canary, *, traced: bool, shards: int | None = None
) -> _Measured:
    gc.collect()  # the last round's pipeline: freed now, not mid-measurement
    args = (inp,) if shards is None else (inp, shards)
    pipe, setup_raw, setup_scale = _beside(
        canary, lambda: workload.build(*args)
    )
    tracer = Tracer() if traced else None
    rnd = Round(canary, tracer)
    if tracer is not None:
        tracer.install(SEAMS)
    try:
        children0 = _children_cpu_seconds()
        t0 = time.perf_counter()
        workload.drive(pipe, inp, rnd)
        rnd.close()
        phase_s = time.perf_counter() - t0
        children_cpu_s = _children_cpu_seconds() - children0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return _Measured(
        rnd, pipe, workload.counters(pipe, rnd), setup_raw, setup_scale,
        phase_s, rnd.scale(), children_cpu_s, _digest(rnd.released),
        tracer.spans if tracer is not None else [],
    )


def _percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _verify(workload, inp, rounds: list[_Measured]) -> tuple[int, int, list[str]]:
    """Outputs of round 0 against the verification run, every round's
    digest against round 0's: ``(attempted, failed, reasons)``."""
    first = rounds[0]
    attempted = failed = 0
    reasons: list[str] = []
    expected = workload.expected(inp, first.pipe)
    for key, want in expected.items():
        attempted += 1
        got = first.rnd.released.get(key)
        if got is None or not np.array_equal(got, want):
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"released {key!r} differs from verification run")
    for why in workload.invariants(inp, first.pipe, first.rnd):
        attempted += 1
        failed += 1
        reasons.append(why)
    for i, other in enumerate(rounds[1:], start=1):
        attempted += 1
        if other.digest != first.digest or other.rnd.ops != first.rnd.ops:
            failed += 1
            reasons.append(f"round {i} output digest differs from round 0")
    return attempted, failed, reasons


def run_workload(
    workload,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
    import_s: float = 0.0,
) -> RunResult:
    """Measure ``workload`` for about ``seconds`` of timed phases."""
    canary = Canary()
    inp, input_raw, once_scale = _beside(
        canary, lambda: workload.make_input(seed)
    )
    once_s = import_s + input_raw

    plain: list[_Measured] = []
    traced: list[_Measured] = []
    timed = 0.0
    enough = False
    while not (enough and plain and (traced or not trace)):
        want_traced = trace and len(traced) < len(plain)
        played = _play(workload, inp, canary, traced=want_traced)
        if plain:
            played.shed()
        (traced if want_traced else plain).append(played)
        timed += played.phase_s
        # whole rounds only: stop at the count whose timed phases come
        # nearest to ``seconds``, but not before a median over rounds has
        # three of them (a traced run: two rounds, so that the outputs
        # are seen to repeat)
        enough = smoke or (
            timed + 0.5 * played.phase_s >= seconds
            and len(plain) + len(traced) >= (2 if trace else 3)
        )
    rounds = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, reasons = _verify(workload, inp, rounds)
    for played in rounds:
        attempted += played.rnd.ops
        failed += played.rnd.failed
        reasons.extend(played.rnd.errors)

    detail = {
        "seconds": seconds,
        "smoke": smoke,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "window_samples": sum(len(p.rnd.window_ops) for p in plain),
        "canary_ms": [1e3 * p.rnd.canary_s() for p in rounds],
        "as_measured": _times(plain, once_s, reference=False),
        "digest": rounds[0].digest,
        "failures": reasons[:10],
    }
    if trace:
        metrics = _per_layer(workload, inp, canary, plain, traced)
    else:
        values = _times(plain, once_s * once_scale, reference=True)
        values["peak_rss_mb"] = peak_rss_mb
        values["output_agreement"] = 1.0 - workload.drift(
            inp, plain[0].pipe, plain[0].rnd
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    return RunResult(
        workload.name, seed, trace, attempted, failed, metrics, detail,
        traced[0].spans if traced else [],
    )


def _times(rounds: list[_Measured], once_s: float, *, reference: bool) -> dict:
    """The end-to-end metrics that are times, from the untraced rounds, in
    reference time or as measured: rates are the median over rounds, the
    latency is taken over the pooled window samples of all rounds."""
    return {
        "setup_s": once_s
        + statistics.median(
            p.setup_s * (p.setup_scale if reference else 1.0) for p in rounds
        ),
        "snapshots_per_s": statistics.median(
            p.rnd.snapshots / float(p.seconds("op_s", reference).sum())
            for p in rounds
        ),
        "release_p50_ms": 1e3
        * _percentile(np.concatenate([p.windows(reference) for p in rounds]), 50),
        "cpu_s_per_snapshot": statistics.median(
            p.cpu_s_per_snapshot(reference) for p in rounds
        ),
    }


def _reference_spans(played: _Measured) -> list[Span]:
    """The round's spans in reference time: every span of an operation
    shares that operation's canary factor, so nesting is preserved."""
    return [
        Span(
            s.name, s.layer, s.start * played.scale[s.request],
            s.end * played.scale[s.request], s.parent, s.request, s.count,
        )
        for s in played.spans
    ]


def _pooled(rounds: list[_Measured], recovery: str | None = None) -> list[float]:
    """Reference seconds of the window-completing calls of ``rounds`` —
    or, given a fault kind, of the calls a shard recovered in."""
    return [
        float(w)
        for p in rounds
        for w in (
            p.windows() if recovery is None
            else p.seconds("op_s", True)[p.rnd.recovery_ops.get(recovery, [])]
        )
    ]


def _per_layer(workload, inp, canary, plain, traced) -> dict:
    shared = {
        "blas_threads": blas_threads(),
        "overhead_share": (
            _percentile(_pooled(traced), 50) / _percentile(_pooled(plain), 50)
            - 1.0
        ),
        "window_p90_s": _percentile(_pooled(plain), 90),
        "recovery_s": _pooled(plain, "crash"),
        "recovery_torn_s": _pooled(plain, "torn"),
        "canary_s": statistics.median(p.rnd.canary_s() for p in plain + traced),
    }
    if workload.replicated:
        # the same input through one shard: what replication costs
        single = _play(workload, inp, canary, traced=False, shards=1)
        shared["replication_factor"] = (
            statistics.median(p.cpu_s_per_snapshot() for p in plain)
            / single.cpu_s_per_snapshot()
        )
    per_round = []
    for played in traced:
        counters = dict(shared)
        counters.update(played.counters)
        counters["windows"] = played.rnd.windows
        counters["snapshots"] = played.rnd.snapshots
        per_round.append(layer_metrics(_reference_spans(played), counters))
    return {
        name: {
            "value": statistics.median(r[name] for r in per_round),
            "unit": unit,
        }
        for name, unit, _ in PER_LAYER
    }
