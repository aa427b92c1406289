"""Command-line driver: regenerate any table/figure of the paper.

Usage::

    vlt-repro table1 table2 table3 table4
    vlt-repro fig1 fig3 fig4 fig5 fig6
    vlt-repro all
    vlt-repro all --experiments-md EXPERIMENTS.md   # rewrite the doc
    vlt-repro all --jobs 4 --cache-dir ~/.vlt-cache # parallel + cached
    vlt-repro fig1 --apps mpenc,trfd --lanes 1,8    # narrower/faster
    vlt-repro run mxm --config base --threads 4     # one run, full stats
    vlt-repro run trfd --strategy peeling           # pick a vectorization
                                                    # strategy (compiled
                                                    # apps)
    vlt-repro compiler-tradeoff --jobs 4            # every compiled app x
                                                    # every strategy; report
                                                    # + BENCH json
    vlt-repro compiler-tradeoff --apps mxm,trfd --jobs 2   # CI smoke matrix
    vlt-repro trace mxm --out trace.json            # Perfetto trace +
                                                    # stall attribution
    vlt-repro profile mxm --threads 4               # host-side phase
                                                    # profile
    vlt-repro determinism                           # tracing on/off
                                                    # result-identity check
    vlt-repro determinism radix --config CMT --threads 4 --scalar-only
                                                    # ... of one flavour
    vlt-repro cache stats --cache-dir ~/.vlt-cache  # cache census
    vlt-repro cache clear --cache-dir ~/.vlt-cache
    vlt-repro lint                                  # static verifier over
                                                    # workloads + examples
    vlt-repro lint prog.s                           # lint an assembly file
    vlt-repro diff                                  # fast engine vs the
                                                    # reference oracle and
                                                    # functional vs timing,
                                                    # fig3/5/6 matrix
    vlt-repro diff mxm --config V2-CMP --threads 2  # one differential run
    vlt-repro diff radix --config VLT-scalar --threads 8 --scalar-only
                                                    # ... on the lane cores
    vlt-repro fig3 --verify --jobs 4                # differentially
                                                    # validated experiments
    vlt-repro fig3 --jobs 4 --telemetry tele-out    # fleet telemetry:
                                                    # run ledger + spans
    vlt-repro tele report --telemetry tele-out      # fleet metrics from
                                                    # the run ledger
    vlt-repro tele timeline --telemetry tele-out    # per-worker Perfetto
                                                    # timeline
    vlt-repro tele trend                            # bench-history trend
                                                    # report

See docs/harness.md for the parallel runner and cache design,
docs/observability.md for fleet telemetry, and docs/verification.md for
the lint rules and the differential checker.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import experiments as E
from . import report as R
from .runner import RunSpec

EXPERIMENT_NAMES = ["table1", "table2", "table3", "table4",
                    "fig1", "fig3", "fig4", "fig5", "fig6"]

#: every verb the CLI accepts in argv[1] position; the repo-consistency
#: test asserts each one is documented somewhere under docs/ or README
CLI_VERBS = tuple(EXPERIMENT_NAMES) + (
    "all", "verify", "mix", "run", "trace", "profile", "determinism",
    "cache", "lint", "diff", "tele", "compiler-tradeoff")

#: the one-run verbs and their usage lines; each runs one RunSpec built
#: from <app>, --config, --threads, --scalar-only and --strategy
_RUN_USAGE = {
    "run": "vlt-repro run <app> [--config C] [--threads N]",
    "trace": "vlt-repro trace <app> [--out trace.json] [--config C] "
             "[--threads N] [--max-events M]",
    "profile": "vlt-repro profile <app> [--config C] [--threads N] "
               "[--json path]",
    "determinism": "vlt-repro determinism [app] [--config C] "
                   "[--threads N]",
    "diff": "vlt-repro diff [app] [--config C] [--threads N] "
            "[--scalar-only] [--apps a,b]",
}


def verify_workloads(apps: Optional[List[str]] = None) -> str:
    """Run every workload's functional self-check at every supported
    thread count (plus the scalar flavours); returns a report."""
    from ..workloads import all_workload_names, get_workload
    rows = []
    for name in (apps or all_workload_names()):
        w = get_workload(name)
        checked = []
        for nt in w.thread_counts:
            w.run_and_verify(num_threads=nt)
            checked.append(str(nt))
        flavours = "vector"
        if name in ("radix", "ocean", "barnes"):
            w.run_and_verify(num_threads=8, scalar_only=True)
            flavours += "+scalar"
        rows.append((name, ",".join(checked), flavours, "OK"))
    return R.table(["app", "thread counts", "flavours", "status"], rows,
                   "Workload verification (against NumPy references)")


def instruction_mix(apps: Optional[List[str]] = None,
                    top: int = 12) -> str:
    """Dynamic instruction-mix report per workload (single thread)."""
    from ..timing.run import trace_for
    from ..workloads import all_workload_names, get_workload
    sections: List[str] = []
    for name in (apps or all_workload_names()):
        prog = get_workload(name).program()
        trace = trace_for(prog, 1)
        hist = trace.merged_opcode_histogram()
        total = sum(hist.values())
        rows = [(op, n, f"{100 * n / total:.1f}%")
                for op, n in sorted(hist.items(), key=lambda kv: -kv[1])
                [:top]]
        sections.append(R.table(
            ["opcode", "count", "share"], rows,
            f"{name}: {total} dynamic instructions (top {top})"))
    return "\n\n".join(sections)


def run_single(spec: RunSpec) -> str:
    """Run one spec on its machine configuration; report the stats."""
    from ..timing import simulate
    from ..timing.config import get_config
    r = simulate(spec.program(), get_config(spec.config),
                 num_threads=spec.threads)
    lines = [r.summary()]   # includes L2 bank-conflict cycles
    if r.phase_release_cycles:
        lines.append(f"  phases: {r.phase_durations()}")
    lines.append(f"  thread finish times: {r.thread_finish}")
    for i, s in enumerate(r.scalar_units):
        if s.fetched:
            lines.append(
                f"  SU{i}: mispredicts {s.branch_mispredicts}/"
                f"{s.branch_lookups} branches; L1D misses "
                f"{s.l1d_misses}/{s.l1d_accesses}; VIQ dispatch stalls "
                f"{s.dispatch_stall_viq}")
    return "\n".join(lines)


def run_trace(spec: RunSpec, out: Optional[str] = None,
              max_events: int = 1_000_000) -> str:
    """Run one spec fully instrumented; write a Chrome trace-event
    JSON (loads in Perfetto) and return the stall-attribution report."""
    from ..obs import render_stall_report, write_chrome_trace
    from ..timing import simulate_traced
    from ..timing.config import get_config
    tr = simulate_traced(spec.program(), get_config(spec.config),
                         num_threads=spec.threads, max_events=max_events)
    lines = []
    if out:
        n = write_chrome_trace(
            out, tr.events.events,
            process_name=f"vlt-sim:{spec.app}@{spec.config}",
            metadata={"app": spec.app, "config": spec.config,
                      "threads": spec.threads,
                      "cycles": tr.result.cycles,
                      "truncated": tr.events.truncated,
                      "dropped_events": tr.events.dropped})
        lines.append(f"wrote {n} trace records to {out}"
                     + (" (event log truncated)" if tr.events.truncated
                        else ""))
    lines.append(render_stall_report(tr.result, events=tr.events))
    vl = tr.metrics.histograms().get("vl")
    if vl is not None and vl.count:
        lines.append(
            f"  VL distribution: n={vl.count}, mean={vl.mean:.1f}, "
            f"p50={vl.percentile(50)}, p90={vl.percentile(90)}, "
            f"max={max(vl.buckets)}")
    timeline = tr.metrics_sink.conflict_timeline()
    if timeline:
        worst = max(timeline, key=lambda bw: bw[1])
        lines.append(
            f"  L2 bank-conflict timeline: {len(timeline)} hot buckets, "
            f"worst {worst[1]} conflict cycles @ cycle {worst[0]}")
    if tr.events.truncated:
        lines.append(
            f"  event log: TRUNCATED at {len(tr.events.events)} events; "
            f"{tr.events.dropped} further events dropped (raise "
            f"--max-events for full coverage)")
    return "\n".join(lines)


def run_profile(spec: RunSpec, json_path: Optional[str] = None) -> str:
    """Host-side self-profiling: wall time per simulation phase."""
    from ..timing import clear_trace_cache
    from ..timing.run import simulate, trace_for
    from ..timing.config import get_config
    from ..obs.hostprof import PhaseProfiler
    prog = spec.program()
    clear_trace_cache()   # so trace_generation is actually measured
    prof = PhaseProfiler()
    r = simulate(prog, get_config(spec.config), num_threads=spec.threads,
                 profiler=prof)
    ops = trace_for(prog, spec.threads).total_ops()
    total = prof.total_wall_s
    lines = [
        f"profile {spec.app} on {spec.config} ({spec.threads} threads): "
        f"{r.cycles} cycles, {ops} dynamic instructions",
        prof.report(),
        f"  simulated throughput: "
        f"{r.cycles / total if total else 0:,.0f} cycles/s host, "
        f"{ops / total if total else 0:,.0f} ops/s host",
    ]
    if json_path:
        payload = {"app": spec.app, "config": spec.config,
                   "threads": spec.threads,
                   "cycles": r.cycles, "dynamic_ops": ops,
                   "phases": prof.as_dict(),
                   "total_wall_s": total}
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        lines.append(f"wrote {json_path}")
    return "\n".join(lines)


def check_determinism(spec: RunSpec) -> str:
    """Four runs of ``spec`` -- tracing off and on, fresh functional
    traces each time -- must produce identical :class:`RunResult`s (the
    observability ``metrics`` aside).  Raises on drift."""
    from ..timing import clear_trace_cache, simulate, simulate_traced
    from ..timing.config import get_config
    prog = spec.program()
    cfg = get_config(spec.config)
    runs = []
    for label in ("off-1", "off-2", "on-1", "on-2"):
        clear_trace_cache()
        if label.startswith("off"):
            r = simulate(prog, cfg, num_threads=spec.threads)
        else:
            r = simulate_traced(prog, cfg, num_threads=spec.threads,
                                max_events=100_000).result
        runs.append((label, dataclasses.replace(r, metrics=None)))
    detail = ", ".join(f"{lbl}={r.cycles}" for lbl, r in runs)
    drift = [lbl for lbl, r in runs[1:] if r != runs[0][1]]
    if drift:
        raise AssertionError(
            f"non-deterministic results for {spec}: "
            f"{', '.join(drift)} differ from {runs[0][0]} ({detail})")
    return (f"determinism OK: {spec} -> {runs[0][1].cycles} cycles and "
            f"identical results across tracing on/off re-runs ({detail})")


def _example_programs():
    """Yield ``(label, Program)`` for every program the examples build.

    The adapter table below names each example's program constructors;
    it is what lets ``vlt-repro lint`` (and the CI ``lint-programs``
    job) cover hand-written demo assembly that never flows through the
    workload registry.  Missing examples/ (installed package) yields
    nothing.
    """
    import importlib
    from pathlib import Path
    ex_dir = Path(__file__).resolve().parents[3] / "examples"
    if not ex_dir.is_dir():
        return
    sys.path.insert(0, str(ex_dir))
    try:
        from ..isa.assembler import assemble
        quickstart = importlib.import_module("quickstart")
        yield "examples/quickstart", assemble(quickstart.SRC,
                                              name="quickstart")
        tradeoff = importlib.import_module("compiler_tradeoff")
        for policy in ("maxvl", "unitstride", "innermost"):
            for threads in (False, True):
                prog, _ = tradeoff.build(policy, threads=threads)
                yield (f"examples/compiler_tradeoff[{policy}"
                       f"{',threads' if threads else ''}]", prog)
        from ..compiler import STRATEGY_NAMES
        for strat in STRATEGY_NAMES:
            prog, _ = tradeoff.build_strategy(strat)
            yield f"examples/compiler_tradeoff[{strat}]", prog
        reconf = importlib.import_module("dynamic_reconfiguration")
        for parts in (1, 4):
            yield (f"examples/dynamic_reconfiguration[{parts}]",
                   reconf.program(parts))
        shortvec = importlib.import_module("vlt_short_vectors")
        yield "examples/vlt_short_vectors", shortvec.build_program()[0]
    finally:
        sys.path.remove(str(ex_dir))


def lint_programs(apps: Optional[List[str]] = None,
                  paths: Optional[List[str]] = None,
                  examples: bool = True) -> Tuple[str, int]:
    """Static-verify programs; returns (report, total finding count).

    With ``paths`` (assembly files), lints exactly those.  Otherwise
    lints every workload program -- both flavours where the workload
    has two, plus every vectorization strategy that produces distinct
    code for compiled workloads -- plus (with ``examples``) each
    program the examples/ directory builds.
    """
    from ..compiler import STRATEGY_NAMES
    from ..isa.assembler import assemble
    from ..verify import lint
    from ..workloads import all_workload_names, get_workload

    programs: List[Tuple[str, object]] = []
    if paths:
        for path in paths:
            with open(path) as fh:
                src = fh.read()
            programs.append((path, assemble(src, name=path)))
    else:
        for name in (apps or all_workload_names()):
            w = get_workload(name)
            seen_digests = set()
            for so in (False, True):
                try:
                    prog = w.build(scalar_only=so)
                except ValueError:
                    continue  # long-vector app without a scalar flavour
                if prog.digest() in seen_digests:
                    continue  # flavours alias for non-vectorizable apps
                seen_digests.add(prog.digest())
                flavour = "scalar" if so else "vector"
                programs.append((f"{name}/{flavour}", prog))
            if w.compiled:
                for strat in STRATEGY_NAMES:
                    if strat == "auto":
                        continue   # the vector flavour above
                    prog = w.build(strategy=strat)
                    if prog.digest() in seen_digests:
                        continue   # strategy fell back to auto's code
                    seen_digests.add(prog.digest())
                    programs.append((f"{name}/{strat}", prog))
        if examples:
            programs.extend(_example_programs())

    rows = []
    details: List[str] = []
    total = 0
    for label, prog in programs:
        findings = lint(prog)
        total += len(findings)
        errors = sum(1 for f in findings if f.severity == "error")
        status = "OK" if not findings else (
            f"{errors} error(s), {len(findings) - errors} warning(s)")
        rows.append((label, len(prog.instrs), status))
        details.extend("  " + f.render(label) for f in findings)
    text = R.table(["program", "instrs", "lint"], rows,
                   f"Static verification ({len(programs)} programs, "
                   f"{total} findings)")
    if details:
        text += "\n" + "\n".join(details)
    return text, total


def diff_runs(spec: Optional[RunSpec] = None,
              apps: Optional[List[str]] = None) -> Tuple[str, int]:
    """Differentially validate runs; returns (report, mismatch count).

    With ``spec``, checks that single run.  Without, sweeps the full
    Figure-3/5/6 run matrix (narrowed to ``apps``) -- every (app x
    config x threads) point behind the paper's headline figures --
    proving the timing machine replays exactly what the functional
    executor computed.  The trace under test (and the state-comparison
    run) come from the fast block-compiled engine, so the sweep is a
    fast-vs-reference functional equivalence check as well.
    """
    from ..timing.config import get_config
    from ..verify import differential_check

    specs = ([spec] if spec is not None
             else E.matrix_for(["fig3", "fig5", "fig6"], apps=apps))
    rows = []
    details: List[str] = []
    bad = 0
    for spec in specs:
        report = differential_check(spec.program(), get_config(spec.config),
                                    num_threads=spec.threads)
        if report.ok:
            status = f"OK ({report.ops_checked} ops, {report.cycles} cyc)"
        else:
            bad += len(report.mismatches)
            status = f"{len(report.mismatches)} MISMATCH(ES)"
            details.append(report.render())
        rows.append((str(spec), status))
    text = R.table(["run", "functional vs timing"], rows,
                   f"Differential validation ({len(specs)} runs, "
                   f"{bad} mismatches)")
    if details:
        text += "\n" + "\n".join(details)
    return text, bad


def run_experiment_data(name: str, apps: Optional[List[str]] = None,
                        lanes: Optional[List[int]] = None,
                        runs: "E.RunMap" = None) -> Any:
    """Run one experiment and return its raw result object.

    ``runs`` (spec -> result, from the runner) makes the drivers look
    their runs up instead of simulating inline; a missing run raises
    :class:`~repro.harness.runner.MissingRunError`.
    """
    if name in ("table1", "table2"):
        return E.area_tables()
    if name == "table3":
        return E.table3_parameters()
    if name == "table4":
        return E.table4_characteristics(apps or E.ALL_APPS, runs=runs)
    if name == "fig1":
        return E.fig1_lane_scaling(apps or E.ALL_APPS, lanes or (1, 2, 4, 8),
                                   runs=runs)
    if name == "fig3":
        return E.fig3_vlt_speedup(apps or E.VLT_VECTOR_APPS, runs=runs)
    if name == "fig4":
        return E.fig4_utilization(apps or E.VLT_VECTOR_APPS, runs=runs)
    if name == "fig5":
        return E.fig5_design_space(apps or E.VLT_VECTOR_APPS, runs=runs)
    if name == "fig6":
        return E.fig6_scalar_threads(apps or E.SCALAR_APPS, runs=runs)
    raise KeyError(f"unknown experiment {name!r}; known: {EXPERIMENT_NAMES}")


def _jsonable(obj: Any) -> Any:
    """Recursively convert result objects to JSON-compatible data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


_RENDERERS = {
    "table1": R.render_area, "table2": R.render_area,
    "table3": R.render_table3, "table4": R.render_table4,
    "fig1": R.render_fig1, "fig3": R.render_fig3, "fig4": R.render_fig4,
    "fig5": R.render_fig5, "fig6": R.render_fig6,
}


def _render(name: str, data: Any) -> str:
    return _RENDERERS[name](data)


def run_experiment(name: str, apps: Optional[List[str]] = None,
                   lanes: Optional[List[int]] = None,
                   runs: "E.RunMap" = None) -> str:
    """Run one experiment and return its rendered report."""
    return _render(name, run_experiment_data(name, apps=apps, lanes=lanes,
                                             runs=runs))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlt-repro",
        description="Reproduce tables/figures of 'Vector Lane Threading' "
                    "(ICPP 2006)")
    parser.add_argument("experiments", nargs="+",
                        help=f"experiments to run: {EXPERIMENT_NAMES}, "
                             f"'verify' (workload self-checks), "
                             f"'mix' (instruction-mix report) or 'all'")
    parser.add_argument("--apps", type=str, default=None,
                        help="comma-separated application subset")
    parser.add_argument("--lanes", type=str, default=None,
                        help="comma-separated lane counts for fig1")
    parser.add_argument("--experiments-md", type=str, default=None,
                        help="also write the combined report to this file")
    parser.add_argument("--json", type=str, default=None,
                        help="write raw experiment data as JSON to this file")
    parser.add_argument("--config", type=str, default="base",
                        help="machine configuration for the one-run verbs "
                             "('run'/'trace'/'profile'/'determinism'/"
                             "'diff') and 'compiler-tradeoff'")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread count for the one-run verbs and "
                             "'compiler-tradeoff'")
    parser.add_argument("--scalar-only", action="store_true",
                        help="use the scalar program flavour "
                             "('run'/'trace'/'profile'/'determinism'/"
                             "'diff' verbs)")
    parser.add_argument("--strategy", type=str, default="auto",
                        help="vectorization strategy for compiled apps: "
                             "auto | padding | peeling | unroll_jam "
                             "('run'/'trace'/'profile'/'determinism'/"
                             "'diff' verbs; see docs/compiler.md)")
    parser.add_argument("--strategies", type=str, default=None,
                        help="comma-separated strategy subset for the "
                             "'compiler-tradeoff' sweep (default: all)")
    parser.add_argument("--out", type=str, default=None,
                        help="Chrome trace-event JSON output path "
                             "('trace' verb)")
    parser.add_argument("--max-events", type=int, default=1_000_000,
                        help="event-log bound for the 'trace' verb")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment sweep "
                             "(1 = serial in-process reference path)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="content-addressed trace/result cache root "
                             "(shared across processes and invocations)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock limit in seconds "
                             "(runner path only)")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts after a run fails "
                             "(runner path only)")
    parser.add_argument("--verify", action="store_true",
                        help="differentially validate every experiment "
                             "run against the functional executor "
                             "(runner path; see docs/verification.md)")
    parser.add_argument("--telemetry", type=str, default=None,
                        help="fleet-telemetry directory: JSONL run ledger "
                             "+ per-worker spans + Perfetto timeline "
                             "(runner path; also the input of the 'tele' "
                             "verb)")
    parser.add_argument("--progress", action="store_true",
                        help="live completed/failed/cached/ETA line on "
                             "stderr while the sweep runs (runner path)")
    parser.add_argument("--history", type=str,
                        default="benchmarks/history",
                        help="bench-trend history directory "
                             "('tele trend' verb)")
    parser.add_argument("--last", type=int, default=5,
                        help="history entries in the trend report "
                             "('tele trend' verb)")
    args = parser.parse_args(argv)

    # the runner flags, checked once for every verb that reads them
    if args.timeout is not None and not args.timeout > 0:
        # don't let a `--timeout 0` typo silently disable the limit
        parser.error("--timeout must be > 0 seconds")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")

    if args.experiments[0] == "lint":
        apps = args.apps.split(",") if args.apps else None
        paths = args.experiments[1:] or None
        text, findings = lint_programs(apps=apps, paths=paths)
        print(text)
        return 1 if findings else 0

    verb = args.experiments[0]
    if verb in _RUN_USAGE:
        operands = args.experiments[1:]
        if len(operands) > 1 or (
                not operands and verb not in ("determinism", "diff")):
            parser.error("usage: " + _RUN_USAGE[verb])
        app = operands[0] if operands else (
            "mxm" if verb == "determinism" else None)
        spec = None
        if app is not None:
            from ..timing.config import get_config
            spec = RunSpec(app, get_config(args.config).name, args.threads,
                           scalar_only=args.scalar_only,
                           strategy=args.strategy)
        if verb == "diff":
            apps = args.apps.split(",") if args.apps else None
            text, mismatches = diff_runs(spec, apps=apps)
            print(text)
            return 1 if mismatches else 0
        if verb == "run":
            print(run_single(spec))
        elif verb == "trace":
            print(run_trace(spec, out=args.out, max_events=args.max_events))
        elif verb == "profile":
            print(run_profile(spec, json_path=args.json))
        else:
            print(check_determinism(spec))
        return 0

    if args.experiments[0] == "compiler-tradeoff":
        if len(args.experiments) != 1:
            parser.error("usage: vlt-repro compiler-tradeoff "
                         "[--apps a,b] [--strategies s1,s2] [--config C] "
                         "[--threads N] [--jobs N] [--json path]")
        from ..compiler import STRATEGY_NAMES, VectStrategy
        from .runner import ExperimentRunner
        from .tradeoff import (bench_payload, compiler_tradeoff,
                               render_tradeoff, tradeoff_matrix)
        apps = args.apps.split(",") if args.apps else None
        strategies = ([VectStrategy.parse(s).value
                       for s in args.strategies.split(",")]
                      if args.strategies else list(STRATEGY_NAMES))
        runs = None
        runner = None
        if (args.jobs > 1 or args.cache_dir or args.timeout is not None
                or args.verify or args.telemetry or args.progress):
            specs = tradeoff_matrix(apps, strategies, config=args.config,
                                    threads=args.threads)
            runner = ExperimentRunner(jobs=args.jobs,
                                      cache_dir=args.cache_dir,
                                      timeout=args.timeout,
                                      retries=args.retries,
                                      verify=args.verify,
                                      telemetry=args.telemetry,
                                      progress=args.progress)
            t0 = time.time()
            runner.run(specs)
            runs = runner.results
            print(runner.report())
            print(f"[runner: {len(specs)} specs, "
                  f"{time.time() - t0:.1f}s]\n")
        try:
            res = compiler_tradeoff(apps, strategies, config=args.config,
                                    threads=args.threads, runs=runs)
        except E.MissingRunError as exc:
            print(f"compiler-tradeoff: SECTION FAILED -- required run "
                  f"unavailable: {exc.spec} (see runner failures above)")
            return 1
        print(render_tradeoff(res))
        # the default file is the full sweep's baseline (CI compares
        # against it); a narrowed sweep must not replace it
        full = (args.apps is None and args.strategies is None
                and args.config == "base" and args.threads == 1)
        out = args.json or ("BENCH_compiler_tradeoff.json" if full
                            else None)
        if out is None:
            print("\nwrote no file: a narrowed sweep (--apps, "
                  "--strategies, --config or --threads) writes only to "
                  "--json, never to BENCH_compiler_tradeoff.json")
        else:
            with open(out, "w") as fh:
                json.dump(bench_payload(res), fh, indent=2)
            print(f"\nwrote {out}")
        return 1 if (runner is not None and runner.failures) else 0

    if args.experiments[0] == "tele":
        if len(args.experiments) != 2 or \
                args.experiments[1] not in ("report", "timeline", "trend"):
            parser.error("usage: vlt-repro tele {report|timeline|trend} "
                         "[--telemetry DIR] [--out path] "
                         "[--history DIR --last K]")
        sub = args.experiments[1]
        if sub == "trend":
            from ..obs.telemetry import bench_trend_report
            print(bench_trend_report(args.history, last=args.last))
            return 0
        if not args.telemetry:
            parser.error(f"'tele {sub}' requires --telemetry DIR "
                         "(a directory a telemetry sweep wrote)")
        from pathlib import Path
        from ..obs.telemetry import TelemetryReader, write_timeline
        if sub == "report":
            reader = TelemetryReader.from_path(
                Path(args.telemetry) / "ledger.jsonl")
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(reader.fleet_metrics(), fh, indent=2)
                print(f"wrote {args.json}")
            print(reader.report())
            return 0
        n = write_timeline(args.telemetry, args.out)
        out = args.out or str(Path(args.telemetry) / "timeline.json")
        print(f"wrote {n} span records to {out}")
        return 0

    if args.experiments[0] == "cache":
        if len(args.experiments) != 2 or \
                args.experiments[1] not in ("stats", "clear"):
            parser.error("usage: vlt-repro cache {stats|clear} "
                         "--cache-dir DIR")
        if not args.cache_dir:
            parser.error("the cache verb requires --cache-dir")
        from ..functional.trace_cache import TraceCache
        # CLI maintenance entry point: keep the historic startup sweep
        cache = TraceCache(args.cache_dir, sweep_on_init=True)
        if args.experiments[1] == "stats":
            print(json.dumps(cache.stats(), indent=2))
        else:
            removed = cache.clear()
            print(f"removed {removed} cache entries under {args.cache_dir}")
        return 0

    names = args.experiments
    if names == ["all"]:
        names = list(EXPERIMENT_NAMES)
    # check every name before the sweep, so a typo cannot run it first
    for name in names:
        if name not in EXPERIMENT_NAMES + ["verify", "mix"]:
            parser.error(f"unknown verb or experiment {name!r}; valid "
                         f"verbs: {', '.join(CLI_VERBS)} ('all' alone)")
    # table1/table2 render together; drop the duplicate
    if "table1" in names and "table2" in names:
        names.remove("table2")
    apps = args.apps.split(",") if args.apps else None
    lanes = [int(x) for x in args.lanes.split(",")] if args.lanes else None

    # Every simulated number below is a lookup in one deduplicated run
    # matrix, executed by the runner first: in-process and serial with
    # --jobs 1, over worker processes otherwise, through the result
    # cache when --cache-dir is given.
    specs = E.matrix_for(names, apps=apps, lanes=lanes)
    if args.experiments_md:
        # the written document covers every section over its default
        # sweep (it ignores --apps/--lanes); widen the matrix to match
        specs = list(dict.fromkeys(specs + E.doc_matrix()))
    runs = None
    failures = None
    runner = None
    if specs:
        from ..timing.run import set_default_profiler, set_trace_cache_dir
        from .runner import ExperimentRunner
        runner = ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                                  timeout=args.timeout,
                                  retries=args.retries,
                                  verify=args.verify,
                                  telemetry=args.telemetry,
                                  progress=args.progress)
        if args.cache_dir:
            # one sweep in the CLI parent; pool workers attach sweepless
            set_trace_cache_dir(args.cache_dir, sweep=True)
        # parent-side work (Table 4's trace reads, the doc's phased
        # kernels) counts in the same profile
        set_default_profiler(runner.profiler)
        t0 = time.time()
        runner.run(specs)
        runs = runner.results
        failures = runner.failures
        print(runner.report())
        print(f"[runner: {len(specs)} specs, "
              f"{time.time() - t0:.1f}s]\n")
        if runner.telemetry is not None:
            print(runner.telemetry.reader().report())
            print(f"[telemetry: ledger + timeline under "
                  f"{runner.telemetry.dir}]\n")

    sections: List[str] = []
    json_data: Dict[str, Any] = {}
    for name in names:
        t0 = time.time()
        try:
            if name == "verify":
                text = verify_workloads(apps)
            elif name == "mix":
                text = instruction_mix(apps)
            elif args.json:
                data = run_experiment_data(name, apps=apps, lanes=lanes,
                                           runs=runs)
                json_data[name] = _jsonable(data)
                text = _render(name, data)
            else:
                text = run_experiment(name, apps=apps, lanes=lanes,
                                      runs=runs)
        except E.MissingRunError as exc:
            text = (f"{name}: SECTION FAILED -- required run unavailable: "
                    f"{exc.spec} (see runner failures above)")
        sections.append(text)
        print(text)
        print(f"\n[{name}: {time.time() - t0:.1f}s]\n")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(json_data, fh, indent=2)
        print(f"wrote {args.json}")

    if args.experiments_md:
        from .docgen import write_experiments_md
        write_experiments_md(args.experiments_md, runs=runs,
                             failures=failures)
        print(f"wrote {args.experiments_md}")

    if runner is not None:
        from ..timing.run import get_trace_cache, set_default_profiler
        set_default_profiler(None)
        print(runner.profiler.report())
        cache = get_trace_cache()
        if cache is not None:
            s = cache.stats()
            # sweep-wide counters (workers included) when the runner
            # accumulated them; this process's own otherwise
            if runner.cache_counters:
                c = runner.cache_counters
                scope = "sweep"
            else:
                c = s["counters"]
                scope = "this process"
            print(f"cache {s['root']}: {s['traces']['entries']} traces / "
                  f"{s['results']['entries']} results on disk; "
                  f"{scope}: trace hits {c['trace_hits']}, misses "
                  f"{c['trace_misses']}; result hits {c['result_hits']}, "
                  f"misses {c['result_misses']}")
    # degraded sections are still printed/written, but a failed run
    # must not look like a clean reproduction to a script or CI step
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
