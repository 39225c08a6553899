"""The recorder: which canaries an operation is scaled by and when a
canary is taken."""

import time

import pytest

from perfbench.recorder import CANARY_MAX_AGE_S, CANARY_REF_S, Canary, Round


def test_a_canary_reports_the_median_slowdown_of_its_three_kernels():
    start, end, slowdown = Canary()()
    assert len(CANARY_REF_S) == 3
    # no kernel can have been slower against its reference than the whole
    # canary against the fastest kernel's reference
    assert 0 < slowdown < (end - start) / min(CANARY_REF_S)


def test_scale_uses_the_canaries_before_and_after_an_operation():
    rnd = Round(canary=None)
    # canaries at the reference speed, at half of it, at it again
    rnd.canaries = [(0.0, 0.004, 1.0), (1.0, 1.008, 2.0), (1.2, 1.204, 1.0)]
    rnd.op_start = [0.010, 0.020, 1.010]
    rnd.op_s = [0.005, 0.9795, 0.1895]
    # ops 0 and 1: quiet canary before, slow one after; op 2: the reverse
    assert rnd.scale().tolist() == pytest.approx([1 / 1.5] * 3)
    rnd.canaries[1] = (1.0, 1.008, 1.0)
    assert rnd.scale().tolist() == pytest.approx([1.0] * 3)


def test_call_takes_a_canary_first_and_again_only_when_it_is_stale():
    taken = []

    def fake():
        taken.append(time.perf_counter())
        return taken[-1], taken[-1] + 0.004, 1.0

    rnd = Round(fake)
    assert rnd.call(lambda x: x + 1, 1) == 2
    rnd.call(lambda: None)
    assert len(taken) == 1, "a fresh canary was retaken"
    time.sleep(CANARY_MAX_AGE_S * 1.5)
    rnd.call(lambda: None)
    assert len(taken) == 2
    rnd.close()
    assert len(taken) == 3 and rnd.ops == 3
    assert len(rnd.scale()) == 3


def test_a_raising_operation_is_a_failed_one_and_the_round_goes_on():
    rnd = Round(Canary())

    def boom():
        raise RuntimeError("no")

    assert rnd.call(boom) is None
    assert rnd.call(lambda: 7) == 7
    assert (rnd.ops, rnd.failed) == (2, 1)
    assert "RuntimeError: no" in rnd.errors[0]


def test_release_and_recovered_mark_the_last_operation():
    rnd = Round(Canary())
    rnd.call(lambda: None)
    rnd.release([])  # nothing handed back: not a window
    rnd.call(lambda: None)
    rnd.release([(0, "a"), (1, "b")], window=True)
    rnd.recovered("crash")
    assert rnd.window_ops == [1] and rnd.recovery_ops == {"crash": [1]}
    assert (rnd.snapshots, rnd.windows) == (2, 1)
