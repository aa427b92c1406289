"""Fleet telemetry: spans, run ledger, aggregation, bench trend.

The load-bearing guarantees:

* telemetry cannot perturb results -- cycle counts are bit-identical
  with telemetry on and off, and jobs=1 vs jobs=4 sweeps agree on every
  aggregated non-timing metric;
* the ledger schema is stable (golden record) and every attempt --
  retries and worker crashes included -- lands as one valid record;
* spans nest correctly within a process and survive the merge across
  process boundaries;
* the ledger survives a worker crash mid-sweep with no torn lines.
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner, RunSpec
from repro.obs.hostprof import PhaseProfiler
from repro.obs.telemetry import (JsonlWriter, SpanCollector, Telemetry,
                                 TelemetryReader, append_bench_history,
                                 bench_trend_report, get_span_collector,
                                 read_jsonl, set_span_collector, span,
                                 validate_run_record)
from repro.timing.run import set_trace_cache_dir

_SPECS = [RunSpec("mpenc", "base", 1),
          RunSpec("mpenc", "V2-CMP", 2),
          RunSpec("mpenc", "V4-CMP", 4)]

_GOLDEN = Path(__file__).parent / "data" / "telemetry_golden_record.json"


@pytest.fixture(autouse=True)
def _clean_ambient_state():
    """No disk cache, no leaked ambient span collector."""
    set_trace_cache_dir(None)
    prev = set_span_collector(None)
    yield
    set_span_collector(prev)
    set_trace_cache_dir(None)


def _cycles(outcomes):
    return {s: o.result.cycles for s, o in outcomes.items() if o.ok}


# --------------------------------------------------------------------------
# Span primitive
# --------------------------------------------------------------------------

class TestSpans:
    def test_nesting_single_process(self):
        col = SpanCollector(worker="t")
        set_span_collector(col)
        with span("outer", kind="test"):
            with span("inner"):
                pass
            with span("inner2"):
                pass
        assert [s["name"] for s in col.spans] == ["outer", "inner",
                                                  "inner2"]
        outer, inner, inner2 = col.spans
        assert outer["parent"] is None
        assert inner["parent"] == 0
        assert inner2["parent"] == 0
        assert outer["attrs"] == {"kind": "test"}
        assert outer["dur_s"] >= inner["dur_s"] + inner2["dur_s"]

    def test_disabled_span_still_measures(self):
        assert get_span_collector() is None
        with span("anything") as handle:
            sum(range(1000))
        assert handle.dur_s > 0.0

    def test_exception_closes_span(self):
        col = SpanCollector(worker="t")
        set_span_collector(col)
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("boom"):
                    raise RuntimeError("x")
        assert all(s["dur_s"] > 0.0 for s in col.spans)
        # the stack fully unwound: a new span is top-level again
        with span("after"):
            pass
        assert col.spans[-1]["parent"] is None

    def test_phase_profiler_emits_spans(self):
        col = SpanCollector(worker="t")
        set_span_collector(col)
        prof = PhaseProfiler()
        with prof.phase("replay"):
            pass
        with prof.phase("replay"):
            pass
        assert [s["name"] for s in col.spans] == ["replay", "replay"]
        # ...and the profiler numbers are the span numbers
        assert prof.phases["replay"].calls == 2
        assert prof.phases["replay"].wall_s == pytest.approx(
            sum(s["dur_s"] for s in col.spans))
        assert set(prof.as_dict()["replay"]) == {"wall_s", "calls"}


# --------------------------------------------------------------------------
# JSONL ledger mechanics
# --------------------------------------------------------------------------

class TestJsonl:
    def test_round_trip_and_corrupt_line_dropped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JsonlWriter(path) as w:
            w.append({"a": 1})
            w.append({"b": [1, 2]})
        # simulate a torn tail from a killed writer
        with open(path, "a") as fh:
            fh.write('{"c": tru')
        assert read_jsonl(path) == [{"a": 1}, {"b": [1, 2]}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == []
        r = TelemetryReader.from_path(tmp_path / "nope.jsonl")
        assert "no ledger records" in r.report()

    def test_validate_rejects_malformed(self):
        golden = json.loads(_GOLDEN.read_text())
        assert validate_run_record(golden) == []
        bad = dict(golden, outcome="maybe", attempt=0)
        bad.pop("cycles")
        bad["surprise"] = 1
        problems = "\n".join(validate_run_record(bad))
        assert "outcome" in problems
        assert "attempt" in problems
        assert "missing" in problems
        assert "unknown" in problems


# --------------------------------------------------------------------------
# Ledger schema stability + equivalence
# --------------------------------------------------------------------------

class TestLedger:
    def test_golden_schema(self, tmp_path):
        """Every record carries exactly the golden field set, with the
        golden types -- schema drift must be a conscious bump."""
        golden = json.loads(_GOLDEN.read_text())
        r = ExperimentRunner(jobs=1, telemetry=tmp_path / "tele")
        r.run([_SPECS[0]])
        recs = read_jsonl(tmp_path / "tele" / "ledger.jsonl")
        assert len(recs) == 1
        rec = recs[0]
        assert validate_run_record(rec) == []
        assert sorted(rec) == sorted(golden)
        for key, want in golden.items():
            got = rec[key]
            if want is None or got is None:
                continue
            assert isinstance(got, type(want)), \
                f"{key}: {type(got).__name__} != {type(want).__name__}"

    def test_func_engine_recorded(self, tmp_path):
        r = ExperimentRunner(jobs=1, telemetry=tmp_path / "tele")
        r.run([_SPECS[0]])
        recs = read_jsonl(tmp_path / "tele" / "ledger.jsonl")
        assert [rec["func_engine"] for rec in recs] == ["fast"]
        assert all(validate_run_record(rec) == [] for rec in recs)
        reader = TelemetryReader(recs)
        assert reader.fleet_metrics()["func_engine_mix"] == {"fast": 1}
        assert "functional fast x1" in reader.report()
        assert "timing event x1" in reader.report()

    def test_every_attempt_is_a_record(self, tmp_path):
        r = ExperimentRunner(jobs=1, retries=1,
                             telemetry=tmp_path / "tele")
        out = r.run([RunSpec("nosuchapp", "base", 1), _SPECS[0]])
        recs = read_jsonl(tmp_path / "tele" / "ledger.jsonl")
        # 2 failed attempts (initial + retry) + 1 ok
        assert len(recs) == 3
        assert all(validate_run_record(rec) == [] for rec in recs)
        errors = [rec for rec in recs if rec["outcome"] == "error"]
        assert [rec["attempt"] for rec in errors] == [1, 2]
        assert all(rec["error_type"] == "KeyError" for rec in errors)
        m = TelemetryReader(recs).fleet_metrics()
        assert m["attempts"] == 3
        assert m["retried_attempts"] == 1
        assert m["failure_classes"] == {"KeyError": 2}
        assert not out[RunSpec("nosuchapp", "base", 1)].ok

    def test_serial_vs_parallel_metrics_agree(self, tmp_path):
        serial = ExperimentRunner(jobs=1, telemetry=tmp_path / "t1")
        par = ExperimentRunner(jobs=4, telemetry=tmp_path / "t4",
                               cache_dir=tmp_path / "cache")
        s_out = serial.run(_SPECS)
        p_out = par.run(_SPECS)
        assert _cycles(s_out) == _cycles(p_out)
        ms = serial.telemetry.reader().fleet_metrics()
        mp = par.telemetry.reader().fleet_metrics()
        # every non-timing aggregate agrees (cache effects aside: the
        # serial path ran without a disk cache here)
        for key in ("attempts", "runs", "ok", "ok_runs", "errors",
                    "crashes", "retried_attempts", "total_cycles"):
            assert ms[key] == mp[key], key
        assert len(mp["workers"]) >= 2   # it really fanned out
        assert mp["worker_utilization"] is not None
        assert 0.0 < mp["worker_utilization"] <= 1.0
        assert mp["queue_wait_p50_s"] is not None
        assert mp["queue_wait_p95_s"] >= mp["queue_wait_p50_s"]

    def test_skewed_queue_waits_clamped_and_flagged(self, tmp_path):
        """Cross-process clock skew can stamp t_start before t_submit,
        yielding a negative queue wait.  The reader must clamp to 0 (a
        wait cannot be negative) and say how many records it touched
        rather than silently producing nonsense percentiles."""
        r = ExperimentRunner(jobs=1, telemetry=tmp_path / "tele")
        r.run([_SPECS[0]])
        base = read_jsonl(tmp_path / "tele" / "ledger.jsonl")[0]
        skewed = dict(base, queue_wait_s=-0.75)
        honest = dict(base, queue_wait_s=0.25)
        recs = [skewed, honest, dict(base, queue_wait_s=-0.01)]
        assert all(validate_run_record(rec) == [] for rec in recs)
        m = TelemetryReader(recs).fleet_metrics()
        assert m["queue_wait_clamped"] == 2
        assert m["queue_wait_p50_s"] >= 0.0
        assert m["queue_wait_p95_s"] >= m["queue_wait_p50_s"]
        report = TelemetryReader(recs).report()
        assert "clamped" in report
        # an unskewed ledger reports no clamping (and no flag line)
        clean = TelemetryReader([honest])
        assert clean.fleet_metrics()["queue_wait_clamped"] == 0
        assert "clamped" not in clean.report()

    def test_telemetry_off_is_bit_identical(self, tmp_path):
        bare = ExperimentRunner(jobs=1).run(_SPECS)
        instrumented = ExperimentRunner(
            jobs=1, telemetry=tmp_path / "tele", progress=True).run(_SPECS)
        assert _cycles(bare) == _cycles(instrumented)

    def test_crash_safe_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VLT_RUNNER_TEST_CRASH", "mpenc:V2-CMP")
        r = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache",
                             retries=1, telemetry=tmp_path / "tele")
        out = r.run(_SPECS)
        assert not out[RunSpec("mpenc", "V2-CMP", 2)].ok
        # every line parses and validates -- no torn records
        raw = (tmp_path / "tele" / "ledger.jsonl").read_text()
        recs = [json.loads(line) for line in raw.splitlines() if line]
        assert all(validate_run_record(rec) == [] for rec in recs)
        crashes = [rec for rec in recs if rec["outcome"] == "crash"]
        assert crashes, "worker death must land in the ledger"
        assert all(rec["error_type"] == "WorkerCrash" for rec in crashes)
        m = TelemetryReader(recs).fleet_metrics()
        assert m["crashes"] == len(crashes)
        assert m["ok"] == 2   # survivors still recorded


# --------------------------------------------------------------------------
# Span merge across processes + timeline export
# --------------------------------------------------------------------------

class TestSpanMerge:
    def test_spans_merge_across_processes(self, tmp_path):
        r = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache",
                             telemetry=tmp_path / "tele")
        r.run(_SPECS)
        spans = read_jsonl(tmp_path / "tele" / "spans.jsonl")
        workers = {s["worker"] for s in spans}
        assert "parent" in workers
        assert len(workers - {"parent"}) >= 2   # 3 specs over 2 workers
        by_id = {s["id"]: s for s in spans}
        assert len(by_id) == len(spans)   # global ids stayed unique
        # nesting survived the merge: a replay span's ancestry reaches
        # the run_attempt root recorded by the same worker
        replay = next(s for s in spans if s["name"] == "replay")
        chain = [replay["name"]]
        cur = replay
        while cur["parent"] is not None:
            cur = by_id[cur["parent"]]
            chain.append(cur["name"])
            assert cur["worker"] == replay["worker"]
        assert chain[-1] == "run_attempt"
        # the parent recorded the sweep-level span
        assert any(s["name"] == "sweep" and s["worker"] == "parent"
                   for s in spans)

    def test_timeline_export(self, tmp_path):
        r = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache",
                             telemetry=tmp_path / "tele")
        r.run(_SPECS[:2])
        doc = json.loads((tmp_path / "tele" / "timeline.json").read_text())
        events = doc["traceEvents"]
        tracks = {e["args"]["name"] for e in events
                  if e.get("name") == "thread_name"}
        assert "parent" in tracks and len(tracks) >= 3
        slices = [e for e in events if e["ph"] == "X"]
        assert slices
        assert all(e["ts"] >= 0 and e["dur"] >= 1.0 for e in slices)
        assert "t0_epoch_s" in doc["otherData"]


# --------------------------------------------------------------------------
# Cache accounting + provenance
# --------------------------------------------------------------------------

class TestCacheAccounting:
    def test_worker_counters_accumulate_in_parent(self, tmp_path):
        cold = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
        cold.run(_SPECS)
        # per-process counters alone would show nothing in the parent;
        # the payload deltas must reflect what the workers did
        assert cold.cache_counters["result_misses"] >= len(_SPECS)
        assert cold.cache_counters["result_stores"] == len(_SPECS)
        assert cold.cache_counters["result_hits"] == 0
        warm = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
        out = warm.run(_SPECS)
        assert warm.cache_counters["result_hits"] == len(_SPECS)
        assert all(o.result_cached for o in out.values())

    def test_trace_cached_provenance(self, tmp_path):
        import shutil
        first = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        out = first.run([_SPECS[0]])
        assert out[_SPECS[0]].provenance() == "simulated"
        assert out[_SPECS[0]].trace_cached is False
        # drop the result cache but keep the traces: the rerun must
        # replay, served by the cached functional trace
        shutil.rmtree(tmp_path / "cache" / "results")
        again = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        out2 = again.run([_SPECS[0]])
        o = out2[_SPECS[0]]
        assert not o.result_cached
        assert o.trace_cached is True
        assert o.provenance() == "trace cache"
        third = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        out3 = third.run([_SPECS[0]])
        assert out3[_SPECS[0]].provenance() == "result cache"

    def test_report_carries_provenance(self, tmp_path):
        r = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        r.run([_SPECS[0]])
        rep = r.report()
        assert "simulated" in rep
        assert "1 attempt" in rep
        assert "cycles in" in rep
        warm = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        warm.run([_SPECS[0]])
        assert "result cache" in warm.report()


# --------------------------------------------------------------------------
# Bench-trend history
# --------------------------------------------------------------------------

def _bench_payload(cps):
    return {"benchmark": "simulator_speed",
            "results": {"end_to_end": {"cycles_per_s": cps},
                        "timing_replay": {"cycles_per_s": 2 * cps},
                        "functional": {"ops_per_s": cps / 2}}}


class TestBenchHistory:
    def test_append_and_trend(self, tmp_path):
        hist = tmp_path / "history"
        for i, cps in enumerate((50_000.0, 60_000.0)):
            src = tmp_path / f"bench{i}.json"
            src.write_text(json.dumps(_bench_payload(cps)))
            out = append_bench_history(src, hist)
            assert out.name == f"simulator_speed-{i:04d}.json"
            entry = json.loads(out.read_text())
            assert entry["seq"] == i
            assert "recorded_at" in entry
        report = bench_trend_report(hist, last=5)
        assert "2 of 2 entries" in report
        assert "end_to_end.cycles_per_s" in report
        assert "+20%" in report   # 50k -> 60k over the window

    def test_compare_bench_appends_history(self, tmp_path):
        import importlib.util
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "compare_bench", root / "benchmarks" / "compare_bench.py")
        cb = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cb)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_bench_payload(50_000.0)))
        cand.write_text(json.dumps(_bench_payload(55_000.0)))
        hist = tmp_path / "history"
        assert cb.main([str(base), str(cand),
                        "--append-history", str(hist)]) == 0
        assert (hist / "simulator_speed-0000.json").is_file()

    def test_checked_in_history_seed_is_valid(self):
        hist = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "history"
        report = bench_trend_report(hist)
        assert "no history entries" not in report


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------

class TestTeleCli:
    def test_tele_report_and_timeline(self, tmp_path, capsys):
        from repro.harness.cli import main
        tele = tmp_path / "tele"
        ExperimentRunner(jobs=1, telemetry=tele).run([_SPECS[0]])
        assert main(["tele", "report", "--telemetry", str(tele)]) == 0
        out = capsys.readouterr().out
        assert "fleet telemetry:" in out
        assert "utilization" in out
        assert main(["tele", "timeline", "--telemetry", str(tele)]) == 0
        assert "span records" in capsys.readouterr().out
        assert (tele / "timeline.json").is_file()

    def test_tele_trend(self, tmp_path, capsys):
        from repro.harness.cli import main
        src = tmp_path / "bench.json"
        src.write_text(json.dumps(_bench_payload(50_000.0)))
        hist = tmp_path / "history"
        append_bench_history(src, hist)
        assert main(["tele", "trend", "--history", str(hist)]) == 0
        assert "bench trend" in capsys.readouterr().out

    def test_sweep_with_telemetry_flag(self, tmp_path, capsys):
        from repro.harness.cli import main
        tele = tmp_path / "tele"
        rc = main(["fig3", "--apps", "mpenc",
                   "--telemetry", str(tele), "--progress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet telemetry:" in out
        recs = read_jsonl(tele / "ledger.jsonl")
        assert recs and all(validate_run_record(r) == [] for r in recs)
        assert (tele / "timeline.json").is_file()
