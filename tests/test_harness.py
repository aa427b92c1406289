"""Experiment harness: drivers, report rendering, CLI, docgen."""

import pytest

from repro.harness import experiments as E
from repro.harness import report as R


class TestAreaAndTables:
    def test_area_tables(self):
        res = E.area_tables()
        assert len(res.table1) == 6
        assert len(res.table2) == 7
        text = R.render_area(res)
        assert "V4-CMT" in text and "13.8" in text

    def test_table3(self):
        rows = E.table3_parameters()
        text = R.render_table3(rows)
        assert "4-way out-of-order" in text
        assert "16-way banked" in text

    def test_table4_subset(self):
        chars = E.table4_characteristics(["bt"])
        text = R.render_table4(chars)
        assert "bt" in text and "(46)" in text


class TestTable4FromRunMap:
    """Table 4's opportunity column is a lookup in the run matrix."""

    def test_rows_equal_inline(self):
        from repro.harness.runner import ExperimentRunner
        apps = ["trfd", "mxm", "ocean"]
        runner = ExperimentRunner(jobs=1)
        runner.run(E.matrix_for(["table4"], apps=apps))
        assert E.table4_characteristics(apps, runs=runner.results) == \
            E.table4_characteristics(apps)

    def test_missing_run_fails_the_section(self, count_simulations):
        from repro.harness.docgen import generate_experiments_md
        from repro.harness.runner import (ExperimentRunner,
                                          MissingRunError, RunSpec)
        runner = ExperimentRunner(jobs=1)
        runner.run([RunSpec("mpenc", "base", 1)])
        count_simulations.clear()
        with pytest.raises(MissingRunError) as exc:
            E.table4_characteristics(["mpenc", "trfd"],
                                     runs=runner.results)
        assert exc.value.spec == RunSpec("trfd", "base", 1)
        doc = generate_experiments_md(runs=runner.results)
        table4 = doc.split("## Table 4")[1].split("## ")[0]
        assert "SECTION FAILED: required run unavailable: " \
               "trfd on base (1 thr)" in table4
        assert count_simulations == []   # nothing re-simulated

    def test_warm_cli_rerun_replays_nothing(self, tmp_path, capsys):
        from repro.harness.cli import main
        from repro.timing.run import set_trace_cache_dir
        argv = ["fig1", "table4", "--apps", "trfd", "--lanes", "1,8",
                "--cache-dir", str(tmp_path)]
        try:
            assert main(argv) == 0
            capsys.readouterr()
            assert main(argv) == 0
        finally:
            set_trace_cache_dir(None)
        out = capsys.readouterr().out
        assert "runner: 2/2 runs succeeded (2 served from result cache" \
            in out
        assert "result hits 2, misses 0" in out
        profile = out.split("host-side phase profile:")[1]
        phases = {line.split()[0] for line in
                  profile.split("\n  total")[0].strip().splitlines()}
        assert "result_cache_load" in phases
        assert not phases & {"setup", "replay"}
        assert "trfd" in out.split("[table4:")[0].split("Table 4")[1]


class TestFigureDrivers:
    def test_fig1_reduced(self):
        res = E.fig1_lane_scaling(apps=["trfd"], lanes=(1, 8))
        sp = res.speedups("trfd")
        assert sp[0] == 1.0
        assert sp[1] >= 1.0
        text = R.render_fig1(res)
        assert "trfd" in text

    def test_fig3_reduced(self):
        res = E.fig3_vlt_speedup(apps=["trfd"])
        assert res.speedup("trfd", 2) > 1.0
        assert res.speedup("trfd", 4) >= res.speedup("trfd", 2) * 0.9
        text = R.render_fig3(res)
        assert "VLT-2" in text

    def test_fig4_reduced(self):
        res = E.fig4_utilization(apps=["trfd"])
        bars = res.normalized_bars("trfd")
        assert bars["base"]["busy"] > 0
        # base bar is normalised to 1.0 by construction
        assert sum(bars["base"].values()) == pytest.approx(1.0)
        # VLT compresses execution: the total bar shrinks
        assert sum(bars["VLT-4"].values()) < 1.0
        text = R.render_fig4(res)
        assert "VLT-4" in text

    def test_fig5_reduced(self):
        res = E.fig5_design_space(apps=["trfd"])
        row = res.speedups["trfd"]
        assert set(row) == {"V2-SMT", "V2-CMP", "V4-SMT", "V4-CMT",
                            "V4-CMP", "V4-CMP-h"}
        # paper shapes: V4-CMT close to V4-CMP; V4-SMT behind V4-CMT
        assert row["V4-CMT"] >= row["V4-CMP"] * 0.85
        assert row["V4-SMT"] <= row["V4-CMT"] * 1.05
        text = R.render_fig5(res)
        assert "V4-CMP-h" in text

    def test_fig6_reduced(self):
        res = E.fig6_scalar_threads(apps=["ocean"])
        assert res.speedup("ocean") > 1.0
        text = R.render_fig6(res)
        assert "ocean" in text


class TestCli:
    def test_run_experiment_dispatch(self):
        from repro.harness.cli import run_experiment
        out = run_experiment("table1")
        assert "Table 1" in out
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cli_main_table(self, capsys):
        from repro.harness.cli import main
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_cli_apps_filter(self, capsys):
        from repro.harness.cli import main
        assert main(["fig1", "--apps", "trfd", "--lanes", "1,8"]) == 0
        out = capsys.readouterr().out
        assert "trfd" in out and "mxm" not in out

    def test_cli_failed_run_exits_nonzero(self, capsys):
        # the section degrades, but the exit status reports the failure
        from repro.harness.cli import main
        assert main(["fig1", "--apps", "typo", "--lanes", "8"]) == 1
        out = capsys.readouterr().out
        assert "fig1: SECTION FAILED -- required run unavailable: " \
               "typo on base (1 thr)" in out
        assert "KeyError" in out

    def test_cli_zero_timeout_rejected(self, capsys):
        # `--timeout 0` is falsy: it used to silently skip the runner
        # path (and with it the limit), instead of erroring out
        from repro.harness.cli import main
        with pytest.raises(SystemExit):
            main(["fig3", "--apps", "mxm", "--timeout", "0"])
        assert "--timeout must be > 0" in capsys.readouterr().err


class TestObservabilityCli:
    def test_trace_verb_writes_chrome_json(self, tmp_path, capsys):
        import json
        from repro.harness.cli import main
        out = tmp_path / "trace.json"
        assert main(["trace", "sage", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stall attribution" in text
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["app"] == "sage"

    def test_profile_verb(self, tmp_path, capsys):
        import json
        from repro.harness.cli import main
        jpath = tmp_path / "prof.json"
        assert main(["profile", "sage", "--json", str(jpath)]) == 0
        text = capsys.readouterr().out
        assert "host-side phase profile" in text and "replay" in text
        payload = json.loads(jpath.read_text())
        assert payload["app"] == "sage"
        assert "replay" in payload["phases"]

    def test_determinism_verb(self, capsys):
        from repro.harness.cli import main
        assert main(["determinism", "sage"]) == 0
        assert "determinism OK" in capsys.readouterr().out

    def test_determinism_verb_runs_the_requested_flavour(self, monkeypatch):
        """--scalar-only and --strategy pick the program `determinism`
        simulates, as they do for `run`: radix's scalar flavour on CMT
        (no vector unit) and trfd's peeled code.  The four runs are
        stubbed; the program handed to them is what counts."""
        import dataclasses
        from types import SimpleNamespace
        import repro.timing as T
        from repro.harness.cli import main
        from repro.workloads import get_workload

        @dataclasses.dataclass
        class Result:
            cycles: int = 1
            metrics: object = None

        seen = []

        def simulate(prog, cfg, num_threads=1, **kwargs):
            seen.append((prog.digest(), cfg.name, num_threads))
            return Result()

        monkeypatch.setattr(T, "simulate", simulate)
        monkeypatch.setattr(T, "simulate_traced", lambda *a, **kw:
                            SimpleNamespace(result=simulate(*a, **kw)))
        radix = get_workload("radix")
        scalar = radix.program(scalar_only=True).digest()
        assert scalar != radix.program().digest()
        assert main(["determinism", "radix", "--config", "CMT",
                     "--threads", "4", "--scalar-only"]) == 0
        assert seen == [(scalar, "CMT", 4)] * 4
        seen.clear()
        trfd = get_workload("trfd")
        peeled = trfd.program(strategy="peeling").digest()
        assert peeled != trfd.program().digest()
        assert main(["determinism", "trfd", "--strategy", "peeling"]) == 0
        assert seen == [(peeled, "base", 1)] * 4


class TestRenderHelpers:
    def test_bar_scaling(self):
        assert R.bar(0, 10) == ""
        assert len(R.bar(10, 10)) == R.BAR_WIDTH
        assert len(R.bar(5, 10)) == R.BAR_WIDTH // 2

    def test_table_alignment(self):
        text = R.table(["a", "bbb"], [["1", "2"], ["333", "4"]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) >= 6 for l in lines[1:])
