"""Tests for the execution-metrics counters."""

from dataclasses import fields

import pytest

from repro.engine import ExecutionMetrics


class TestExecutionMetrics:
    def test_totals(self):
        m = ExecutionMetrics(
            feature_words=100, structure_words=50, weight_words=25, output_words=25
        )
        assert m.total_words == 200
        assert m.total_bytes == 800

    def test_useful_ratio(self):
        m = ExecutionMetrics(feature_words=100, redundant_words=25)
        assert m.useful_ratio() == pytest.approx(0.75)

    def test_useful_ratio_empty(self):
        assert ExecutionMetrics().useful_ratio() == 1.0

    def test_skip_ratio(self):
        m = ExecutionMetrics(cells_full=5, cells_delta=3, cells_skipped=2)
        assert m.skip_ratio() == pytest.approx(0.2)
        assert ExecutionMetrics().skip_ratio() == 0.0

    def test_total_macs(self):
        m = ExecutionMetrics(
            aggregation_macs=10, combination_macs=20, cell_macs=30
        )
        assert m.total_macs == 60

    def test_merge(self):
        a = ExecutionMetrics(feature_words=10, cells_full=1)
        b = ExecutionMetrics(feature_words=5, cells_skipped=2)
        c = a.merge(b)
        assert c.feature_words == 15
        assert c.cells_full == 1
        assert c.cells_skipped == 2
        # originals untouched
        assert a.feature_words == 10

    def test_breakdown_keys(self):
        bd = ExecutionMetrics().breakdown()
        assert set(bd) == {"aggregation", "combination", "cell_update", "overhead"}

    def test_as_dict_roundtrip(self):
        m = ExecutionMetrics(feature_words=7)
        d = m.as_dict()
        assert d["feature_words"] == 7
        assert ExecutionMetrics(**d).feature_words == 7

    def test_every_field_is_an_int(self):
        """A flat record: every counter is an integer that ``merge``
        sums, so nothing grows with the number of windows."""
        m = ExecutionMetrics()
        for f in fields(ExecutionMetrics):
            assert f.type == "int", f.name
            assert type(getattr(m, f.name)) is int, f.name
        ones = ExecutionMetrics(**{f.name: 1 for f in fields(ExecutionMetrics)})
        assert set(ones.merge(ones).as_dict().values()) == {2}
