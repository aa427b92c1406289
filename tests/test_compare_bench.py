"""The bench-regression gate (``benchmarks/compare_bench.py``).

Regression tests for the zero-as-missing bug: a candidate row whose
gated throughput is 0.0 (bench collapse, crashed run writing zeros)
used to be skipped as "missing" and the gate passed vacuously.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_bench", _ROOT / "benchmarks" / "compare_bench.py")
cb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cb)


def _payload(**overrides):
    """A minimal well-formed bench payload covering every gated metric."""
    results = {
        "end_to_end": {"cycles_per_s": 1_000_000.0},
        "timing_replay": {"cycles_per_s": 2_000_000.0},
        "functional": {"ops_per_s": 500_000.0},
        "trace_generation_fast": {"ops_per_s": 6_000_000.0,
                                  "speedup_vs_reference": 12.0},
    }
    for key, row in overrides.items():
        results[key] = row
    return {"benchmark": "simulator_speed", "results": results}


class TestMetric:
    def test_zero_is_a_value_not_missing(self):
        p = _payload(end_to_end={"cycles_per_s": 0.0})
        assert cb._metric(p, "end_to_end", "cycles_per_s") == 0.0

    def test_absent_row_and_absent_metric_are_missing(self):
        p = _payload()
        del p["results"]["functional"]
        assert cb._metric(p, "functional", "ops_per_s") is None
        assert cb._metric(p, "end_to_end", "nope") is None
        assert cb._metric(p, "end_to_end",
                          "cycles_per_s") == 1_000_000.0


class TestGate:
    def test_identical_payloads_pass(self):
        lines, failures = cb.compare(_payload(), _payload(), 0.30)
        assert not failures
        # every row present in the payload gates OK; rows from other
        # bench families (the service throughput file) are skipped
        assert all("OK" in ln or "skipped" in ln for ln in lines)
        assert sum("OK" in ln for ln in lines) == 4

    def test_zero_candidate_fails_the_gate(self):
        cand = _payload(timing_replay={"cycles_per_s": 0.0})
        _, failures = cb.compare(_payload(), cand, 0.30)
        assert len(failures) == 1
        assert "not a positive finite throughput" in failures[0]
        assert "timing_replay" in failures[0]

    def test_nonfinite_candidate_fails_the_gate(self):
        for bad in (math.nan, math.inf, -1.0):
            cand = _payload(end_to_end={"cycles_per_s": bad})
            _, failures = cb.compare(_payload(), cand, 0.30)
            assert failures, bad

    def test_unusable_baseline_is_skipped_not_failed(self):
        # a zero in the *baseline* means the checked-in file is bad;
        # that must not mask itself as a candidate failure
        base = _payload(functional={"ops_per_s": 0.0})
        lines, failures = cb.compare(base, _payload(), 0.30)
        assert not failures
        assert any("unusable" in ln for ln in lines)

    def test_regression_beyond_threshold_fails(self):
        cand = _payload(timing_replay={"cycles_per_s": 1_000_000.0})
        _, failures = cb.compare(_payload(), cand, 0.30)
        assert len(failures) == 1
        assert "timing_replay" in failures[0]

    def test_fast_trace_generation_row_is_gated(self):
        assert ("trace_generation_fast", "ops_per_s") in cb._GATED

    def test_main_exit_codes(self, tmp_path, capsys):
        import json
        b = tmp_path / "base.json"
        c = tmp_path / "cand.json"
        b.write_text(json.dumps(_payload()))
        c.write_text(json.dumps(_payload()))
        assert cb.main([str(b), str(c)]) == 0
        c.write_text(json.dumps(
            _payload(end_to_end={"cycles_per_s": 0.0})))
        assert cb.main([str(b), str(c)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out


class TestMinSpeedup:
    def test_passing_speedup(self):
        lines, failures = cb.check_min_speedups(
            _payload(), [("trace_generation_fast", 5.0)])
        assert not failures
        assert any("speedup_vs_reference" in ln and "OK" in ln
                   for ln in lines)

    def test_below_factor_fails(self):
        cand = _payload(trace_generation_fast={
            "ops_per_s": 6_000_000.0, "speedup_vs_reference": 3.0})
        _, failures = cb.check_min_speedups(
            cand, [("trace_generation_fast", 5.0)])
        assert len(failures) == 1
        assert "below required 5x" in failures[0]

    def test_missing_speedup_field_fails(self):
        cand = _payload(trace_generation_fast={"ops_per_s": 1.0})
        _, failures = cb.check_min_speedups(
            cand, [("trace_generation_fast", 5.0)])
        assert failures and "no speedup_vs_*" in failures[0]
        _, failures = cb.check_min_speedups(
            _payload(), [("nosuchrow", 2.0)])
        assert failures

    def test_cli_flag(self, tmp_path, capsys):
        import json
        b = tmp_path / "base.json"
        c = tmp_path / "cand.json"
        b.write_text(json.dumps(_payload()))
        c.write_text(json.dumps(_payload()))
        assert cb.main([str(b), str(c),
                        "--min-speedup", "trace_generation_fast:5"]) == 0
        assert "engine speedup gates:" in capsys.readouterr().out
        assert cb.main([str(b), str(c),
                        "--min-speedup",
                        "trace_generation_fast:50"]) == 1
        out = capsys.readouterr().out
        assert "below required 50x" in out

    def test_cli_flag_rejects_malformed(self, tmp_path, capsys):
        import json
        b = tmp_path / "base.json"
        b.write_text(json.dumps(_payload()))
        with pytest.raises(SystemExit):
            cb.main([str(b), str(b), "--min-speedup", "nocolon"])
        with pytest.raises(SystemExit):
            cb.main([str(b), str(b), "--min-speedup", "key:abc"])


def _service_payload(**overrides):
    results = {
        "duplicate_burst": {"jobs": 100, "jobs_per_s": 120.0,
                            "simulated_runs": 1,
                            "dedupe_fraction": 0.99},
        "mixed_load": {"jobs": 40, "jobs_per_s": 15.0,
                       "simulated_runs": 4},
    }
    results.update(overrides)
    return {"benchmark": "service_throughput", "results": results}


class TestMinMetric:
    def test_floor_met(self):
        lines, failures = cb.check_min_metrics(
            _service_payload(),
            [("duplicate_burst", "dedupe_fraction", 0.9)])
        assert not failures
        assert any("OK" in ln for ln in lines)

    def test_below_floor_fails(self):
        cand = _service_payload(
            duplicate_burst={"jobs_per_s": 120.0,
                             "dedupe_fraction": 0.5})
        _, failures = cb.check_min_metrics(
            cand, [("duplicate_burst", "dedupe_fraction", 0.9)])
        assert len(failures) == 1
        assert "below required 0.9" in failures[0]

    def test_missing_metric_fails(self):
        _, failures = cb.check_min_metrics(
            _service_payload(), [("duplicate_burst", "nosuch", 1.0),
                                 ("nosuchrow", "x", 1.0)])
        assert len(failures) == 2
        assert all("missing" in f for f in failures)

    def test_service_rows_share_the_regression_gate(self):
        """The service throughput rows ride the same --max-regression
        comparison; simulator-only rows are skipped, not failed."""
        assert ("duplicate_burst", "jobs_per_s") in cb._GATED
        assert ("mixed_load", "jobs_per_s") in cb._GATED
        lines, failures = cb.compare(_service_payload(),
                                     _service_payload(), 0.30)
        assert not failures
        assert any("duplicate_burst.jobs_per_s" in ln and "OK" in ln
                   for ln in lines)
        assert any("end_to_end" in ln and "skipped" in ln
                   for ln in lines)
        slow = _service_payload(
            duplicate_burst={"jobs_per_s": 10.0,
                             "dedupe_fraction": 0.99})
        _, failures = cb.compare(_service_payload(), slow, 0.30)
        assert failures and "duplicate_burst" in failures[0]

    def test_cli_flag(self, tmp_path, capsys):
        import json
        b = tmp_path / "base.json"
        b.write_text(json.dumps(_service_payload()))
        assert cb.main([str(b), str(b), "--min-metric",
                        "duplicate_burst:dedupe_fraction:0.9"]) == 0
        assert "metric floor gates:" in capsys.readouterr().out
        assert cb.main([str(b), str(b), "--min-metric",
                        "duplicate_burst:dedupe_fraction:0.999"]) == 1
        assert "below required" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cb.main([str(b), str(b), "--min-metric", "a:b"])
        with pytest.raises(SystemExit):
            cb.main([str(b), str(b), "--min-metric", "a:b:xyz"])
