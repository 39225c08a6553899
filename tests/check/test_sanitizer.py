"""Runtime-sanitizer tests: corrupted invariants must raise, clean runs
must not, and the hooks must actually fire inside the instrumented
subsystems."""

import os

import numpy as np
import pytest

from repro.accel import CycleSimulator
from repro.accel.cyclesim import CycleSimResult
from repro.check import (
    SanitizerViolation,
    check_buffer,
    check_cyclesim_result,
    check_energy_composition,
    check_hbm_request,
    check_ocsr,
    sanitized,
    sanitizer_enabled,
    sanitizer_stats,
)
from repro.check import sanitizer as _san
from repro.formats import OCSRStorage, WindowSelection
from repro.graphs import CSRSnapshot, DynamicGraph
from repro.hardware import OnChipBuffer


def tiny_window(n=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    snaps = []
    for t in range(k):
        edges = rng.integers(0, n, size=(8, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        feats = rng.standard_normal((n, 2)).astype(np.float32)
        snaps.append(
            CSRSnapshot.from_edges(n, edges, feats, undirected=False)
        )
    return DynamicGraph(snaps)


def make_store():
    return OCSRStorage(WindowSelection(tiny_window(), np.arange(8)))


def good_result(**overrides):
    base = dict(
        total_cycles=100.0,
        loader_stall_cycles=10.0,
        dcu_utilization=0.5,
        aru_utilization=0.25,
        max_fifo_occupancy=4,
        tasks=20,
    )
    base.update(overrides)
    return CycleSimResult(**base)


def check_result(result, **overrides):
    kwargs = dict(n_dcu=8, n_aru=2, fifo_capacity=16, dcu_busy=400.0,
                  aru_busy=50.0)
    kwargs.update(overrides)
    check_cyclesim_result(result, **kwargs)


class TestCycleSimInvariants:
    def test_clean_result_passes(self):
        check_result(good_result())

    def test_corrupted_fifo_bound_caught(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_result(good_result(max_fifo_occupancy=17))
        assert exc.value.invariant == "cyclesim-fifo-bound"
        assert exc.value.value == 17

    def test_stall_exceeding_span_caught(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_result(good_result(loader_stall_cycles=101.0))
        assert exc.value.invariant == "cyclesim-stall"

    def test_busy_conservation_caught(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_result(good_result(), dcu_busy=900.0)
        assert exc.value.invariant == "cyclesim-busy-conservation"

    def test_utilization_out_of_range_caught(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_result(good_result(aru_utilization=1.2))
        assert exc.value.invariant == "cyclesim-utilization"

    def test_violation_message_is_structured(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_result(good_result(max_fifo_occupancy=-1))
        msg = str(exc.value)
        assert "cyclesim-fifo-bound" in msg
        assert "CycleSimulator.run" in msg


class TestOCSRInvariants:
    def test_fresh_store_passes(self):
        check_ocsr(make_store())

    def test_corrupted_tindex_caught(self):
        store = make_store()
        assert store.tindex.size > 0
        store.tindex[0] = 10**6  # out of [0, num_vertices)
        with pytest.raises(SanitizerViolation) as exc:
            check_ocsr(store)
        assert exc.value.invariant == "ocsr-tindex-range"

    def test_non_monotone_sindex_caught(self):
        store = make_store()
        assert store.sindex.size >= 2
        store.sindex[-1] = store.sindex[0]
        with pytest.raises(SanitizerViolation) as exc:
            check_ocsr(store)
        assert exc.value.invariant == "ocsr-sindex-monotone"

    def test_offsets_enum_mismatch_caught(self):
        store = make_store()
        store.enum[0] += 1
        with pytest.raises(SanitizerViolation) as exc:
            check_ocsr(store)
        assert exc.value.invariant == "ocsr-enum-consistency"

    def test_maintenance_runs_under_sanitizer(self):
        # insert/delete/update call check_ocsr internally when enabled.
        store = make_store()
        before = sanitizer_stats().checks
        store.insert_edge(0, 5, 1)
        store.delete_edge(0, 5, 1)
        store.update_feature(2, 1, np.zeros(2, dtype=np.float32))
        assert sanitizer_stats().checks > before


class TestOtherInvariants:
    def test_energy_composition_mismatch_caught(self):
        with pytest.raises(SanitizerViolation) as exc:
            check_energy_composition(1.0, {"sram": 0.3, "hbm": 0.3})
        assert exc.value.invariant == "energy-composition"

    def test_negative_energy_component_caught(self):
        with pytest.raises(SanitizerViolation):
            check_energy_composition(0.0, {"sram": -0.5, "hbm": 0.5})

    def test_energy_composition_tolerates_float_noise(self):
        parts = {"a": 0.1, "b": 0.2, "c": 0.3}
        check_energy_composition(sum(parts.values()), parts)

    def test_negative_hbm_request_caught(self):
        with pytest.raises(SanitizerViolation):
            check_hbm_request(-1.0, 0.0)

    def test_corrupted_buffer_counter_caught(self):
        buf = OnChipBuffer(name="fifo", capacity_bytes=1024)
        buf.reads = -3
        with pytest.raises(SanitizerViolation) as exc:
            check_buffer(buf)
        assert exc.value.invariant == "buffer-counters"


class TestEnablement:
    def test_context_manager_enables(self):
        with sanitized():
            assert sanitizer_enabled()

    def test_env_flag_enables(self, monkeypatch):
        # Neutralise the autouse test fixture's context to probe the
        # environment-variable path on its own.
        monkeypatch.setattr(_san, "_DEPTH", 0)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer_enabled()

    def test_the_flag_is_read_from_the_dict_behind_os_environ(
        self, monkeypatch
    ):
        """The one-lookup read rests on CPython's private
        ``os.environ._data``: an interpreter that moves or stops
        updating it fails here, by name."""
        assert isinstance(os.environ._data, dict)
        assert _san._ENV is os.environ._data
        monkeypatch.setattr(_san, "_DEPTH", 0)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert _san._ENV[_san._FLAG] == os.environ.encodevalue("1")
        assert sanitizer_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "")
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "yes")
        assert sanitizer_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert _san._FLAG not in _san._ENV
        assert not sanitizer_enabled()

    def test_hooks_inert_when_disabled(self, monkeypatch):
        monkeypatch.setattr(_san, "_DEPTH", 0)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        store = make_store()
        store.tindex[0] = 10**6  # corrupt, but hooks must stay silent
        store.insert_edge(1, 2, 0)

    def test_cyclesim_run_checks_counted(self):
        from tests.accel.test_cyclesim import uniform_tasks

        with sanitized() as stats:
            before = stats.checks
            CycleSimulator().run(uniform_tasks(n=50))
            assert stats.checks > before
            assert stats.by_invariant.get("cyclesim-fifo-bound", 0) > 0
