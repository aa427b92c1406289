"""Self-tests of the reproduction benchmark.

Run with ``python -m pytest benchmarks/reproduce -q``.  The last test is
a ~15 s smoke of the real benchmark on the warm workload.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

RUNNER_TEXT = """\
runner: 28/28 runs succeeded (0 served from result cache, jobs=1)
  mpenc on base (1 thr): 28862 cycles in 0.71s (1 attempt, simulated)
[runner: 28 specs, 14.7s]
"""
CACHE_TEXT = ("cache out/c: 12 traces / 28 results on disk; sweep: "
              "trace hits 0, misses 12; result hits 3, misses 25\n")


# -- statistics -------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert bench.tail_percentile(19) is None
    assert bench.tail_percentile(20) == 50
    assert bench.tail_percentile(39) == 50
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(100) == 90


def test_p75_null_below_forty_samples():
    assert bench.p75([1.0, 2.0, 3.0]) is None
    assert bench.p75([float(i) for i in range(20)]) is None
    samples = [float(i) for i in range(40)]
    assert bench.p75(samples) == pytest.approx(29.75)


# -- bound check ------------------------------------------------------------

def _result(**metrics):
    samples = {"wall_s": [1.0, 1.0, 1.0], "cpu_s": [1.0, 1.0, 1.0],
               "peak_rss_mb": [100.0] * 3, "setup_s": [0.3] * 10}
    samples.update(metrics.pop("samples", {}))
    base = {"wall_s": 1.0, "wall_s_p75": None, "cpu_s": 1.0,
            "peak_rss_mb": 100.0, "setup_s": 0.3, "failed_fraction": 0.0}
    base.update(metrics)
    return {"workloads": {"vlt_cold": {"metrics": base,
                                       "samples": samples}}}


def _status(a, b, metric):
    return {m: s for _, m, _, _, s in bench.compare_rows(a, b)}[metric]


def test_bounds_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    recorded = {m["name"]: (m["unit"], m["bound"])
                for m in spec["end_to_end"]}
    assert recorded == {k: bench.E2E_METRICS[k] for k in bench.REPORTED_E2E}
    assert [m["name"] for m in spec["per_layer"]] == \
        list(bench.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_bound_check_relative():
    a = _result()
    assert _status(a, _result(wall_s=1.19), "wall_s") == "ok"
    assert _status(a, _result(wall_s=1.21), "wall_s") == "FAIL"
    assert _status(a, _result(wall_s=0.79), "wall_s") == "FAIL"
    assert _status(a, _result(setup_s=0.37), "setup_s") == "ok"
    assert _status(a, _result(setup_s=0.38), "setup_s") == "FAIL"


def test_bound_check_unresolved_when_spread_exceeds_bound():
    noisy = _result(wall_s=1.0, samples={"wall_s": [0.7, 1.0, 1.4]})
    assert _status(_result(), noisy, "wall_s") == "unresolved"


def test_failed_fraction_bound_is_absolute_zero():
    a = _result()
    assert _status(a, _result(), "failed_fraction") == "ok"
    assert _status(a, _result(failed_fraction=0.01),
                   "failed_fraction") == "FAIL"


def test_compare_exit_code(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(_result(cpu_s=1.5)))
    assert bench.main(["--compare", str(a), str(a)]) == 0
    assert bench.main(["--compare", str(a), str(b)]) == 1


# -- golden comparator ------------------------------------------------------

def test_golden_diff_identical_is_clean():
    golden = bench.load_golden("vlt")
    assert bench.golden_diff(golden, copy.deepcopy(golden)) == []


def test_golden_diff_flags_perturbed_cycle_count():
    golden = bench.load_golden("vlt")
    actual = copy.deepcopy(golden)
    actual["fig3"]["cycles"]["mpenc"]["base"] += 1
    assert bench.golden_diff(golden, actual) == [
        "fig3.cycles.mpenc.base: expected 28862, got 28863"]


def test_golden_diff_flags_missing_figure():
    golden = bench.load_golden("vlt")
    actual = copy.deepcopy(golden)
    del actual["fig4"]
    assert bench.golden_diff(golden, actual) == ["fig4: missing"]


def test_output_problems_catches_failed_section(tmp_path):
    path = tmp_path / "out.json"
    golden = bench.load_golden("lanes")
    path.write_text(json.dumps(golden))
    assert bench.output_problems(0, RUNNER_TEXT, path, golden) == []
    text = RUNNER_TEXT + "fig6: SECTION FAILED -- required run unavailable\n"
    assert bench.output_problems(0, text, path, golden) == [
        "fig6: SECTION FAILED -- required run unavailable"]


# -- parsers ----------------------------------------------------------------

def test_parse_runner_line():
    assert bench.parse_runner_line(RUNNER_TEXT) == {
        "ok": 28, "total": 28, "result_cached": 0, "jobs": 1}
    assert bench.parse_runner_line("no runner here") is None


def test_parse_cache_line():
    assert bench.parse_cache_line(RUNNER_TEXT + CACHE_TEXT) == {
        "trace_hits": 0, "trace_misses": 12, "result_hits": 3,
        "result_misses": 25}
    assert bench.parse_cache_line(RUNNER_TEXT) is None


# -- goldens against the checked-in EXPERIMENTS.md ---------------------------

def _section(title: str) -> str:
    text = (bench.ROOT / "EXPERIMENTS.md").read_text()
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _rows(section: str, apps):
    rows = {}
    for line in section.splitlines():
        cells = line.split()
        if cells and cells[0] in apps and re.match(r"^[\d.]+$", cells[1]):
            rows[cells[0]] = cells[1:]
    return rows


def test_goldens_match_experiments_md():
    vlt, lanes = bench.load_golden("vlt"), bench.load_golden("lanes")
    fig3 = _rows(_section("Figure 3"), vlt["fig3"]["cycles"])
    for app, cyc in vlt["fig3"]["cycles"].items():
        assert [int(fig3[app][0]), int(fig3[app][1]), int(fig3[app][3])] \
            == [cyc["base"], cyc["2"], cyc["4"]]
    fig5 = _rows(_section("Figure 5"), vlt["fig5"]["speedups"])
    for app, speedups in vlt["fig5"]["speedups"].items():
        assert fig5[app] == [f"{s:.2f}" for s in speedups.values()]
        assert vlt["fig5"]["base_cycles"][app] == \
            vlt["fig3"]["cycles"][app]["base"]
    fig6 = _rows(_section("Figure 6"), lanes["fig6"]["cycles"])
    for app, cyc in lanes["fig6"]["cycles"].items():
        assert [int(fig6[app][0]), int(fig6[app][1])] == \
            [cyc["CMT"], cyc["VLT"]]


# -- end-to-end smoke -------------------------------------------------------

def test_vlt_warm_smoke(tmp_path):
    out = tmp_path / "warm.json"
    proc = subprocess.run(
        [sys.executable, str(Path(bench.__file__)), "--workload", "vlt_warm",
         "--reps", "2", "--trace", "0", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # one cache fill, two measured reps, ten set-up probes
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (True, 13, 0)
    assert set(line["metrics"]) == set(bench.REPORTED_E2E)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    saved = json.loads(out.read_text())["workloads"]["vlt_warm"]
    assert saved["metrics"]["samples"] == 2
