"""Verdicts and refusals of ``perfbench compare``."""

import copy

import pytest

from perfbench.compare import Refused, compare, quartiles, spread

BENCH = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "output_agreement", "unit": "ratio", "better": "higher",
         "bound": 0.10},
    ],
}
HOST = {"cpu": "x", "nproc": 2, "blas_threads": 1, "canary_ref_ms": [1.0]}


def _doc(latency, rate, agreement=0.9, measured=None, **changes):
    """A result file: ``latency`` in reference time, ``measured`` (the
    same unless given) on the wall clock."""
    doc = {
        "schema": "perfbench/2",
        "host": dict(HOST, git_commit="abc"),
        "seed": 3,
        "trace": False,
        "smoke": False,
        "runs": [
            {
                "workload": "w", "failed": 0, "attempted": 10,
                "metrics": {
                    "latency_ms": {"value": lat, "unit": "ms"},
                    "rate": {"value": r, "unit": "1/s"},
                    "output_agreement": {"value": agreement, "unit": "ratio"},
                },
                "detail": {"as_measured": {"latency_ms": raw}},
            }
            for lat, r, raw in zip(latency, rate, measured or latency)
        ],
    }
    doc.update(changes)
    return doc


def _verdicts(a, b, *metrics):
    return {
        row.metric: row.verdict
        for row in compare(a, b, BENCH)
        if row.metric in (metrics or ("latency_ms", "rate"))
    }


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert quartiles(values) == (10.5, 12.0, 13.5)
    assert spread(values) == pytest.approx(3.0 / 12.0)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_same_better_worse_follow_the_direction_of_the_metric():
    tight = [100.0, 100.5, 101.0, 100.2, 100.8]
    a = _doc(tight, tight)
    assert _verdicts(a, copy.deepcopy(a)) == {
        "latency_ms": "same", "rate": "same"
    }
    up = _doc([v * 1.2 for v in tight], [v * 1.2 for v in tight])
    assert _verdicts(a, up) == {"latency_ms": "worse", "rate": "better"}
    down = _doc([v * 0.8 for v in tight], [v * 0.8 for v in tight])
    assert _verdicts(a, down) == {"latency_ms": "better", "rate": "worse"}
    row = compare(a, up, BENCH)[0]
    assert row.change == pytest.approx(0.2)  # of A's median


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    noisy = [80.0, 95.0, 100.0, 105.0, 125.0]
    a = _doc(noisy, noisy)
    b = _doc([v * 1.02 for v in noisy], [v * 1.02 for v in noisy])
    assert _verdicts(a, b) == {
        "latency_ms": "unresolved", "rate": "unresolved"
    }
    # ... unless every run of one side beats every run of the other
    far = _doc([v * 2 for v in noisy], [v * 2 for v in noisy])
    assert _verdicts(a, far) == {"latency_ms": "worse", "rate": "better"}


def test_the_wall_clock_is_judged_beside_reference_time():
    tight = [100.0, 100.5, 101.0, 100.2, 100.8]
    noisy = [80.0, 95.0, 100.0, 105.0, 125.0]
    a = _doc(tight, tight, measured=noisy)
    # the canary resolves what the machine's noise leaves open ...
    b = _doc(tight, tight, measured=[v * 1.02 for v in noisy])
    assert _verdicts(a, b, "latency_ms", "latency_ms (as measured)") == {
        "latency_ms": "same", "latency_ms (as measured)": "unresolved"
    }
    # ... but cannot hide a regression the wall clock shows
    b = _doc(tight, tight, measured=[v * 2 for v in noisy])
    assert _verdicts(a, b, "latency_ms (as measured)") == {
        "latency_ms (as measured)": "worse"
    }


def test_agreement_has_an_absolute_bound():
    flat = [1.0, 1.0, 1.0]
    a = _doc(flat, flat, agreement=0.9000)
    # -0.0009 is within 0.001 although runs on another seed differ by far
    # more; -0.002 is not
    b = _doc(flat, flat, agreement=0.8991)
    assert _verdicts(a, b, "output_agreement") == {"output_agreement": "same"}
    row = compare(a, _doc(flat, flat, agreement=0.898), BENCH)[-1]
    assert (row.metric, row.verdict) == ("output_agreement", "worse")
    assert row.absolute and row.bound == 0.001
    assert row.change == pytest.approx(-0.002)  # in the metric's unit


@pytest.mark.parametrize(
    "changes, why",
    [
        ({"smoke": True}, "smoke"),
        ({"seed": 4}, "seeds"),
        ({"host": dict(HOST, blas_threads=2)}, "host.blas_threads"),
        ({"host": dict(HOST, cpu="y")}, "host.cpu"),
        ({"host": dict(HOST, canary_ref_ms=[2.0])}, "host.canary_ref_ms"),
        ({"trace": True}, "traced"),
        ({"schema": "repro-perf/2"}, "perfbench/2"),
    ],
)
def test_refusals(changes, why):
    a = _doc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    b = _doc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], **changes)
    with pytest.raises(Refused, match=why):
        compare(a, b, BENCH)


def test_another_commit_on_the_same_host_is_comparable():
    a = _doc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    b = _doc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
             host=dict(HOST, git_commit="def"))
    assert compare(a, b, BENCH)
