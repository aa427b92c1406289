#!/usr/bin/env python3
"""Layered end-to-end benchmark of the paper's figure/table sweep.

Each workload is a real ``vlt-repro`` invocation, launched as a
subprocess in a closed loop: one invocation at a time from this one
process, each using at most two pool workers.  Every invocation's
``--json`` output is checked against a pinned golden file (the CLI exits
0 even when a report section FAILED, so the exit code alone proves
nothing).  A separate in-process traced pass then times each layer's
public functions from here, the benchmark side, and writes the spans as
a Perfetto file under ``out/``.

Run every workload, end to end and traced (about six minutes on two
cores)::

    python3 benchmarks/reproduce/bench.py --seed 0 --out a.json

One workload; the last line of stdout is a JSON object with
``correct``/``attempted``/``failed``/``metrics``::

    python3 benchmarks/reproduce/bench.py --workload vlt_warm \\
        --seed 3 --seconds 20 --trace 0

Check that two result files agree within the metric bounds::

    python3 benchmarks/reproduce/bench.py --compare a.json b.json

``--seed`` only shuffles the order of workloads, repetitions and set-up
probes: the inputs are the paper's fixed programs.  ``--engine`` and
``--func-engine`` are forwarded to every CLI call and traced-pass call;
by default neither is passed, so the program's defaults are measured.
See README.md in this directory for the metrics and what each layer
should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

#: wall-clock limit on one CLI invocation; the slowest takes ~30 s
INVOCATION_TIMEOUT_S = 170.0
#: set-up probes (``vlt-repro table3``) per workload
PROBES = 10
#: fresh-interpreter imports timed by the traced pass (median reported)
IMPORTS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    jobs: int
    reps: int
    golden: str
    #: the first invocation fills the cache and is not measured
    warm: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # fig3/4/5 in-process (no pool): 28 runs from 12 traces
    Workload("vlt_cold", ("fig3", "fig4", "fig5"), 1, 3, "vlt"),
    # 8-thread scalar traces on lane cores; wall set by one radix run
    Workload("lanes_cold", ("fig6",), 2, 3, "lanes"),
    # 36 single-thread lane-scaling runs plus the uncached Table 4
    Workload("scaling_cold", ("fig1", "table4"), 2, 3, "scaling"),
    # 28/28 result-cache hits: start-up, imports, pool, IPC, rendering
    Workload("vlt_warm", ("fig3", "fig4", "fig5"), 2, 40, "vlt",
             warm=True),
)}

#: end-to-end metric -> (unit, tolerated worsening of the median).
#: ``failed_fraction`` is compared absolutely, everything else relatively.
#: The timing bounds sit above this host's own speed drift (README.md).
E2E_METRICS: Dict[str, Tuple[str, float]] = {
    "wall_s": ("s", 0.20),
    "wall_s_p75": ("s", 0.25),
    "cpu_s": ("s", 0.20),
    "peak_rss_mb": ("MB", 0.10),
    "setup_s": ("s", 0.25),
    "failed_fraction": ("ratio", 0.0),
}
ABSOLUTE_BOUND = {"failed_fraction"}
#: the end-to-end metrics every workload defines, as BENCHMARK.json lists
#: them: wall_s_p75 needs 40 samples (vlt_warm only), and failed_fraction
#: is 0 on a good run, so the result line carries ``failed``/``attempted``
REPORTED_E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")

#: per-layer metric -> unit
LAYER_METRICS: Dict[str, str] = {
    "workloads.build_s": "s", "workloads.programs": "count",
    "verify.lint_s": "s", "verify.findings": "count",
    "functional.trace_gen_s": "s", "functional.traces": "count",
    "functional.ops": "count", "functional.ops_per_s": "ops/s",
    "trace_cache.encode_s": "s", "trace_cache.decode_s": "s",
    "trace_cache.store_s": "s", "trace_cache.load_s": "s",
    "trace_cache.trace_mb": "MB",
    "trace_cache.result_store_s": "s", "trace_cache.result_load_s": "s",
    "trace_cache.trace_hit_ratio": "ratio",
    "trace_cache.trace_lookups": "count",
    "trace_cache.result_hit_ratio": "ratio",
    "trace_cache.result_lookups": "count",
    "timing.replay_s": "s", "timing.replay_max_s": "s",
    "timing.specs": "count", "timing.sim_cycles": "count",
    "timing.cycles_per_s": "cycles/s",
    "harness.result_pickle_s": "s", "harness.report_s": "s",
    "harness.table4_s": "s", "harness.import_s": "s",
    "harness.parallel_efficiency": "ratio",
    "trace.coverage": "ratio", "trace.cpu_ratio": "ratio",
}

#: traced-pass spans whose layers an invocation of each kind actually
#: runs (encode/decode repeat the codec work inside store/load)
COLD_LAYERS = ("workloads.build", "verify.lint", "functional.trace_gen",
               "trace_cache.store", "timing.replay",
               "trace_cache.result_store", "harness.result_pickle",
               "harness.report")
WARM_LAYERS = ("workloads.build", "verify.lint", "trace_cache.result_load",
               "harness.result_pickle", "harness.report")


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def tail_percentile(n: int) -> Optional[int]:
    """Highest reportable percentile for ``n`` samples: the highest of
    p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return p
    return None


def p75(samples: Sequence[float]) -> Optional[float]:
    """The 75th percentile, or None when fewer than ten samples lie
    beyond it."""
    p = tail_percentile(len(samples))
    if p is None or p < 75:
        return None
    return statistics.quantiles(samples, n=4)[2]


def spread(samples: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None below two
    samples)."""
    if len(samples) < 2:
        return None
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / med if med else None


# --------------------------------------------------------------------------
# Output checks and parsers
# --------------------------------------------------------------------------

def golden_diff(expected, actual, path: str = "") -> List[str]:
    """Every difference between two parsed JSON documents, by path."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out: List[str] = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}{key}: missing")
            else:
                out += golden_diff(value, actual[key], f"{path}{key}.")
        out += [f"{path}{key}: unexpected" for key in actual
                if key not in expected]
        return out
    if isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += golden_diff(e, a, f"{path}{i}.")
        return out
    if expected != actual:
        return [f"{path.rstrip('.')}: expected {expected!r}, "
                f"got {actual!r}"]
    return []


_RUNNER_RE = re.compile(r"^runner: (\d+)/(\d+) runs succeeded "
                        r"\((\d+) served from result cache, jobs=(\d+)\)",
                        re.MULTILINE)
_CACHE_RE = re.compile(r"^cache .*: trace hits (\d+), misses (\d+); "
                       r"result hits (\d+), misses (\d+)\s*$", re.MULTILINE)


def parse_runner_line(text: str) -> Optional[Dict[str, int]]:
    """The CLI's ``runner: ok/total runs succeeded ...`` summary."""
    m = _RUNNER_RE.search(text)
    if m is None:
        return None
    return dict(zip(("ok", "total", "result_cached", "jobs"),
                    map(int, m.groups())))


def parse_cache_line(text: str) -> Optional[Dict[str, int]]:
    """The CLI's closing ``cache ...`` line: on-disk lookups only."""
    m = _CACHE_RE.search(text)
    if m is None:
        return None
    return dict(zip(("trace_hits", "trace_misses", "result_hits",
                     "result_misses"), map(int, m.groups())))


def output_problems(exit_code: int, stdout: str, json_path: Path,
                    golden) -> List[str]:
    """Why one workload invocation failed; empty when it succeeded."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    problems += [line.strip() for line in stdout.splitlines()
                 if "FAILED" in line]
    runner = parse_runner_line(stdout)
    if runner is None or runner["ok"] != runner["total"]:
        problems.append(f"runner summary: {runner}")
    try:
        actual = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"no --json output: {exc}")
    else:
        problems += golden_diff(golden, actual)
    return problems


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


# --------------------------------------------------------------------------
# Subprocess invocation with rusage
# --------------------------------------------------------------------------

@dataclasses.dataclass
class Invocation:
    wall_s: float
    #: user + sys CPU of the process and every child it reaped
    cpu_s: float
    #: the largest peak RSS among the process and its reaped children
    peak_rss_mb: float
    exit_code: int
    stdout: str


def _stop_group(pgid: int) -> None:
    """SIGKILL a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def invoke(python_args: Sequence[str], log: Path) -> Invocation:
    """Run ``python <python_args>`` against this checkout's ``src``.

    The child leads its own process group, so a timeout or an interrupt
    kills it together with its pool workers.  ``os.wait4`` reports the
    CPU and peak RSS of the child and of every worker it reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log, "w+") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _stop_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:   # killed: take its workers down too
            _stop_group(proc.pid)
        fh.seek(0)
        stdout = fh.read()
    return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      exit_code=proc.returncode, stdout=stdout)


# --------------------------------------------------------------------------
# End-to-end measurement
# --------------------------------------------------------------------------

@dataclasses.dataclass
class Tally:
    """Invocations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def check(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


@dataclasses.dataclass
class E2EResult:
    samples: Dict[str, List[float]]
    tally: Tally
    #: parsed ``cache ...`` line of the last measured invocation
    cache: Optional[Dict[str, int]]

    def metrics(self) -> Dict[str, Optional[float]]:
        s = self.samples
        med = {k: statistics.median(v) if v else None for k, v in s.items()}
        return {"wall_s": med["wall_s"], "wall_s_p75": p75(s["wall_s"]),
                "samples": len(s["wall_s"]), "cpu_s": med["cpu_s"],
                "peak_rss_mb": med["peak_rss_mb"], "setup_s": med["setup_s"],
                "failed_fraction": self.tally.failed / self.tally.attempted}


def measure(w: Workload, rng: random.Random, reps: int,
            seconds: Optional[float], probes: int, cli_extra: Sequence[str],
            work: Path) -> E2EResult:
    """Time ``w``'s command ``reps`` times (fewer when the next rep would
    end past ``seconds``), interleaved in seeded order with ``probes``
    set-up probes."""
    golden = load_golden(w.golden)
    cache = work / f"{w.name}.cache"
    json_path = work / f"{w.name}.json"
    tally = Tally()
    samples: Dict[str, List[float]] = {
        "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    last_cache = None

    def run_command(label: str) -> Invocation:
        json_path.unlink(missing_ok=True)
        inv = invoke(["-m", "repro.harness.cli", *w.experiments,
                      "--jobs", str(w.jobs), "--cache-dir", str(cache),
                      "--json", str(json_path), *cli_extra],
                     work / f"{label}.log")
        tally.check(label, output_problems(inv.exit_code, inv.stdout,
                                           json_path, golden))
        return inv

    if w.warm:
        run_command(f"{w.name}-fill")
    schedule = ["rep"] * reps + ["probe"] * probes
    rng.shuffle(schedule)
    spent = longest = 0.0
    for item in schedule:
        done = len(samples["wall_s"])
        if item == "rep":
            if done and seconds is not None and spent + longest > seconds:
                continue
            if not w.warm:
                shutil.rmtree(cache, ignore_errors=True)
        # flush earlier cache writes and deletes so their disk traffic
        # does not land inside the next timed invocation
        os.sync()
        if item == "probe":
            inv = invoke(["-m", "repro.harness.cli", "table3", *cli_extra],
                         work / "probe.log")
            ok = inv.exit_code == 0 and "Memory System" in inv.stdout
            tally.check("setup probe",
                        [] if ok else [f"exit code {inv.exit_code}"])
            samples["setup_s"].append(inv.wall_s)
            continue
        inv = run_command(f"{w.name}-{done}")
        samples["wall_s"].append(inv.wall_s)
        samples["cpu_s"].append(inv.cpu_s)
        samples["peak_rss_mb"].append(inv.peak_rss_mb)
        last_cache = parse_cache_line(inv.stdout)
        spent += inv.wall_s
        longest = max(longest, inv.wall_s)
    shutil.rmtree(cache, ignore_errors=True)
    return E2EResult(samples=samples, tally=tally, cache=last_cache)


# --------------------------------------------------------------------------
# Traced pass: the same work in-process, one span per layer call
# --------------------------------------------------------------------------

def _plain(obj):
    """A result object as the JSON data the CLI's ``--json`` writes."""
    return json.loads(json.dumps(obj, default=dataclasses.asdict))


def traced_pass(w: Workload, engine: Optional[str],
                func_engine: Optional[str], work: Path, tally: Tally
                ) -> Tuple[Dict[str, float], Dict[str, float], list]:
    """Run ``w``'s matrix layer by layer with an empty cache, then the
    reloads a warm invocation does; returns (span sums, counts, spans).

    Every public call is wrapped in a span recorded in memory.  Traces
    are generated once per (program, threads) and replayed on each of
    their configurations, as the CLI's trace memo does.  Table 4 is
    characterised over the workload's applications, with traces served
    from the pass's disk cache like the CLI parent serves them.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.functional.trace import trace_from_bytes, trace_to_bytes
    from repro.functional.trace_cache import TraceCache, result_key
    from repro.harness.cli import run_experiment, run_experiment_data
    from repro.harness.experiments import matrix_for, table4_characteristics
    from repro.harness.runner import DEFAULT_MAX_CYCLES
    from repro.obs.telemetry import SpanCollector, set_span_collector, span
    from repro.timing.config import get_config
    from repro.timing.run import (clear_trace_cache, set_trace_cache_dir,
                                  simulate, trace_for)
    from repro.verify import lint
    from repro.workloads import get_workload

    sim_kw = {} if engine is None else {"engine": engine}
    gen_kw = {} if func_engine is None else {"func_engine": func_engine}
    figures = [n for n in w.experiments if n != "table4"]
    specs = matrix_for(w.experiments)
    apps = list(dict.fromkeys(s.app for s in specs))
    counts = dict.fromkeys(("programs", "findings", "traces", "ops",
                            "trace_bytes", "specs", "sim_cycles"), 0)
    import_walls: List[float] = []
    replay_max = 0.0
    runs = {}
    cache = TraceCache(work / f"{w.name}.traced-cache")
    set_trace_cache_dir(None)
    clear_trace_cache()
    col = SpanCollector(worker="parent")
    prev = set_span_collector(col)
    try:
        with span("traced_pass", workload=w.name):
            for _ in range(IMPORTS):
                with span("harness.import"):
                    inv = invoke(["-c", "import repro.harness.cli"],
                                 work / "import.log")
                import_walls.append(inv.wall_s)
                tally.check("import", [] if inv.exit_code == 0
                            else [f"exit code {inv.exit_code}"])
            programs = {}
            for spec in specs:
                key = (spec.app, spec.scalar_only)
                if key in programs:
                    continue
                with span("workloads.build", app=spec.app):
                    prog = get_workload(spec.app).build(
                        scalar_only=spec.scalar_only)
                with span("verify.lint", app=spec.app):
                    counts["findings"] += len(lint(prog))
                programs[key] = prog
            counts["programs"] = len(programs)
            groups: Dict[Tuple[str, int], tuple] = {}
            for spec in specs:
                prog = programs[(spec.app, spec.scalar_only)]
                groups.setdefault((prog.digest(), spec.threads),
                                  (prog, []))[1].append(spec)
            for (digest, threads), (prog, group) in groups.items():
                clear_trace_cache()
                with span("functional.trace_gen", program=prog.name,
                          threads=threads):
                    trace = trace_for(prog, threads, **gen_kw)
                counts["traces"] += 1
                counts["ops"] += trace.total_ops()
                # CLI order: the first store also builds the trace's
                # columns; encode/decode then time the codec alone
                with span("trace_cache.store"):
                    cache.store_trace(digest, threads, trace)
                with span("trace_cache.load"):
                    cache.load_trace(digest, threads)
                with span("trace_cache.encode"):
                    blob = trace_to_bytes(trace)
                counts["trace_bytes"] += len(blob)
                with span("trace_cache.decode"):
                    trace_from_bytes(blob)
                del blob
                for spec in group:
                    cfg = get_config(spec.config)
                    with span("timing.replay", spec=str(spec)) as h:
                        result = simulate(prog, cfg, num_threads=threads,
                                          trace=trace, **sim_kw)
                    replay_max = max(replay_max, h.dur_s)
                    key = result_key(digest, cfg.digest(), threads,
                                     DEFAULT_MAX_CYCLES,
                                     engine=engine or "event")
                    with span("trace_cache.result_store"):
                        cache.store_result(key, result)
                    with span("trace_cache.result_load"):
                        cache.load_result(key)
                    with span("harness.result_pickle"):
                        pickle.loads(pickle.dumps(result))
                    runs[spec] = result
                    counts["specs"] += 1
                    counts["sim_cycles"] += result.cycles
                del trace
            clear_trace_cache()
            with span("harness.report"):
                for name in figures:
                    run_experiment(name, runs=runs)
            set_trace_cache_dir(cache.root)
            with span("harness.table4"):
                table4 = table4_characteristics(apps)
    finally:
        set_span_collector(prev)
        set_trace_cache_dir(None)
        clear_trace_cache()

    golden = load_golden(w.golden)
    expected = {n: golden[n] for n in figures}
    expected["table4"] = [row for row in load_golden("scaling")["table4"]
                          if row["name"] in apps]
    actual = {n: _plain(run_experiment_data(n, runs=runs)) for n in figures}
    actual["table4"] = _plain(table4)
    problems = golden_diff(expected, actual)
    if counts["findings"]:
        problems.append(f"{counts['findings']} lint findings")
    tally.check("traced pass", problems)

    spans = col.spans
    sums: Dict[str, float] = {"pass": spans[0]["dur_s"]}
    for sp in spans:
        if sp["parent"] == 0:
            sums[sp["name"]] = sums.get(sp["name"], 0.0) + sp["dur_s"]
    sums["harness.import_median"] = statistics.median(import_walls)
    sums["timing.replay_max"] = replay_max
    return sums, counts, spans


def layer_metrics(w: Workload, sums: Dict[str, float],
                  counts: Dict[str, float], e2e: E2EResult
                  ) -> Dict[str, float]:
    """Per-layer metrics from a traced pass and the untraced runs."""
    def s(name: str) -> float:
        return sums.get(name, 0.0)

    paid_layers = WARM_LAYERS if w.warm else COLD_LAYERS
    if "table4" in w.experiments:
        paid_layers += ("harness.table4",)
    paid = sum(s(n) for n in paid_layers) + s("harness.import_median")
    spans_total = sum(v for k, v in sums.items()
                      if k not in ("pass", "harness.import_median",
                                   "timing.replay_max"))
    e2e_m = e2e.metrics()
    c = e2e.cache or dict.fromkeys(("trace_hits", "trace_misses",
                                    "result_hits", "result_misses"), 0)
    trace_lookups = c["trace_hits"] + c["trace_misses"]
    result_lookups = c["result_hits"] + c["result_misses"]
    return {
        "workloads.build_s": s("workloads.build"),
        "workloads.programs": counts["programs"],
        "verify.lint_s": s("verify.lint"),
        "verify.findings": counts["findings"],
        "functional.trace_gen_s": s("functional.trace_gen"),
        "functional.traces": counts["traces"],
        "functional.ops": counts["ops"],
        "functional.ops_per_s": counts["ops"] / s("functional.trace_gen"),
        "trace_cache.encode_s": s("trace_cache.encode"),
        "trace_cache.decode_s": s("trace_cache.decode"),
        "trace_cache.store_s": s("trace_cache.store"),
        "trace_cache.load_s": s("trace_cache.load"),
        "trace_cache.trace_mb": counts["trace_bytes"] / 2 ** 20,
        "trace_cache.result_store_s": s("trace_cache.result_store"),
        "trace_cache.result_load_s": s("trace_cache.result_load"),
        "trace_cache.trace_hit_ratio":
            c["trace_hits"] / trace_lookups if trace_lookups else 0.0,
        "trace_cache.trace_lookups": trace_lookups,
        "trace_cache.result_hit_ratio":
            c["result_hits"] / result_lookups if result_lookups else 0.0,
        "trace_cache.result_lookups": result_lookups,
        "timing.replay_s": s("timing.replay"),
        "timing.replay_max_s": s("timing.replay_max"),
        "timing.specs": counts["specs"],
        "timing.sim_cycles": counts["sim_cycles"],
        "timing.cycles_per_s": counts["sim_cycles"] / s("timing.replay"),
        "harness.result_pickle_s": s("harness.result_pickle"),
        "harness.report_s": s("harness.report"),
        "harness.table4_s": s("harness.table4"),
        "harness.import_s": s("harness.import_median"),
        "harness.parallel_efficiency": paid / (w.jobs * e2e_m["wall_s"]),
        "trace.coverage": spans_total / s("pass"),
        "trace.cpu_ratio": paid / e2e_m["cpu_s"],
    }


def write_perfetto(w: Workload, spans: list) -> Path:
    from repro.obs.telemetry import spans_to_chrome_trace
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{w.name}.json"
    doc = spans_to_chrome_trace({"parent": spans},
                                process_name=f"bench:{w.name}")
    path.write_text(json.dumps(doc))
    return path


# --------------------------------------------------------------------------
# Agreement check between two result files
# --------------------------------------------------------------------------

def compare_rows(a: dict, b: dict) -> List[Tuple[str, str, object, object,
                                                 str]]:
    """One ``(workload, metric, median A, median B, status)`` row per
    workload x end-to-end metric present in both result files.

    ``FAIL``: the medians are further apart than the metric's bound.
    ``unresolved``: a set's own spread is wider than the bound, or has
    too few samples to tell.
    """
    rows = []
    for wname in a["workloads"]:
        if wname not in b["workloads"]:
            continue
        ra, rb = a["workloads"][wname], b["workloads"][wname]
        for metric, (_unit, bound) in E2E_METRICS.items():
            va, vb = ra["metrics"].get(metric), rb["metrics"].get(metric)
            if va is None or vb is None:
                continue
            if metric in ABSOLUTE_BOUND:
                status = "ok" if abs(vb - va) <= bound else "FAIL"
                rows.append((wname, metric, va, vb, status))
                continue
            sample_key = "wall_s" if metric == "wall_s_p75" else metric
            spreads = [spread(r["samples"][sample_key]) for r in (ra, rb)]
            if any(sp is None or sp > bound for sp in spreads):
                status = "unresolved"
            elif abs(vb - va) > bound * va:
                status = "FAIL"
            else:
                status = "ok"
            rows.append((wname, metric, va, vb, status))
    return rows


def run_compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = compare_rows(a, b)
    print(f"{'workload':<13} {'metric':<16} {'A':>10} {'B':>10} "
          f"{'change':>8} {'bound':>6}  status")
    for wname, metric, va, vb, status in rows:
        unit, bound = E2E_METRICS[metric]
        if metric in ABSOLUTE_BOUND:
            change, bnd = f"{vb - va:+.3f}", f"+{bound:g}"
        else:
            change, bnd = f"{(vb - va) / va:+.1%}", f"{bound:.0%}"
        print(f"{wname:<13} {metric:<16} {va:>10.4g} {vb:>10.4g} "
              f"{change:>8} {bnd:>6}  {status}")
    fails = sum(r[4] == "FAIL" for r in rows)
    unresolved = sum(r[4] == "unresolved" for r in rows)
    print(f"{len(rows)} rows: {len(rows) - fails - unresolved} ok, "
          f"{fails} failed, {unresolved} unresolved")
    return 1 if fails else 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles workloads, reps and set-up probes")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per-workload time budget: start no rep that "
                             "would end past it (at least one rep runs)")
    parser.add_argument("--reps", type=int, default=None,
                        help="override every workload's rep count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the traced per-layer pass")
    parser.add_argument("--engine", default=None,
                        help="forwarded as --engine to every CLI call and "
                             "as engine= to the traced pass")
    parser.add_argument("--func-engine", default=None,
                        help="forwarded as --func-engine / func_engine=")
    parser.add_argument("--out", default=None,
                        help="result file (default out/<scope>-seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="check two result files agree within bounds")
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(*args.compare)
    if not (SRC / "repro" / "harness" / "cli.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2

    cli_extra: List[str] = []
    if args.engine is not None:
        cli_extra += ["--engine", args.engine]
    if args.func_engine is not None:
        cli_extra += ["--func-engine", args.func_engine]
    rng = random.Random(args.seed)
    names = [args.workload] if args.workload else list(WORKLOADS)
    rng.shuffle(names)
    # a lone traced workload reports layers only, so needs no probes
    probes = 0 if (args.workload and args.trace) else PROBES

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    results: Dict[str, dict] = {}
    total = Tally()
    try:
        e2e: Dict[str, E2EResult] = {}
        for name in names:
            w = WORKLOADS[name]
            reps = args.reps if args.reps is not None else w.reps
            print(f"[{name}] {reps} reps of vlt-repro "
                  f"{' '.join(w.experiments)} --jobs {w.jobs}", flush=True)
            e2e[name] = measure(w, rng, reps, args.seconds, probes,
                                cli_extra, work)
        for name in names:
            w = WORKLOADS[name]
            res = e2e[name]
            entry = {}
            if args.trace:
                print(f"[{name}] traced pass", flush=True)
                sums, counts, spans = traced_pass(
                    w, args.engine, args.func_engine, work, res.tally)
                entry["layers"] = layer_metrics(w, sums, counts, res)
                entry["perfetto"] = str(write_perfetto(w, spans)
                                        .relative_to(ROOT))
            entry.update(metrics=res.metrics(), samples=res.samples,
                         attempted=res.tally.attempted,
                         failed=res.tally.failed,
                         problems=res.tally.problems)
            results[name] = entry
            total.attempted += res.tally.attempted
            total.failed += res.tally.failed
            total.problems += res.tally.problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, entry in results.items():
        m = entry["metrics"]
        print(f"\n{name} (samples={m['samples']}, "
              f"attempted={entry['attempted']}, failed={entry['failed']})")
        for metric, (unit, bound) in E2E_METRICS.items():
            bnd = f"+{bound:g} abs" if metric in ABSOLUTE_BOUND \
                else f"{bound:.0%}"
            print(f"  {metric:<30} {_fmt(m[metric]):>12} {unit:<8} "
                  f"bound {bnd}")
        for metric, value in entry.get("layers", {}).items():
            print(f"  {metric:<30} {_fmt(value):>12} "
                  f"{LAYER_METRICS[metric]}")
        if "perfetto" in entry:
            print(f"  spans: {entry['perfetto']} (open in ui.perfetto.dev)")
    for problem in total.problems:
        print(f"FAILED {problem}")

    out = Path(args.out) if args.out else \
        OUT / f"{args.workload or 'all'}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "engine": args.engine,
                               "func_engine": args.func_engine,
                               "workloads": results}, indent=2))
    print(f"wrote {out}")

    metrics: Dict[str, dict] = {}
    for name, entry in results.items():
        prefix = "" if args.workload else f"{name}."
        if args.workload and args.trace:
            values = entry["layers"]
            units = LAYER_METRICS
        else:
            values = {k: entry["metrics"][k] for k in REPORTED_E2E}
            units = {k: E2E_METRICS[k][0] for k in REPORTED_E2E}
            if args.trace:
                values.update(entry["layers"])
                units = {**units, **LAYER_METRICS}
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value,
                                        "unit": units[metric]}
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
