"""Compiler-tradeoff sweep: every compiled workload x every strategy.

The ``vlt-repro compiler-tradeoff`` verb drives this module.  It runs
each mini-compiler workload (``compiled = True`` in the registry) under
every :class:`~repro.compiler.VectStrategy` on one machine
configuration, then reports -- Figure-4 style, one section per app --
how the strategy reshaped the program:

* simulated cycles and speedup over the ``auto`` baseline (the
  strategies change *code shape*, not the machine, so any delta is pure
  compiler effect),
* the dynamic vector-length histogram and its delta vs. ``auto``
  (padding converts short strips into full-MVL ones; peeling converts
  masked tails into scalar epilogues; unroll-and-jam multiplies the
  work per strip), and
* whether the strategy actually produced a distinct program.  The
  legality rules make strategies *fall back* rather than miscompile
  (see docs/compiler.md); a fallen-back strategy emits byte-identical
  code and its row is marked ``= auto``.  The content-digest cache
  makes those rows free: traces and results are keyed by
  :meth:`~repro.isa.program.Program.digest`, so aliased programs share
  one simulation.

Like the figure drivers in :mod:`repro.harness.experiments`, the sweep
is expressed as a :class:`~repro.harness.runner.RunSpec` matrix
(:func:`tradeoff_matrix`) so the parallel runner can fan it out with
``--jobs N``; :func:`compiler_tradeoff` then consumes the run map (or
simulates inline, memoised by program digest).  :func:`bench_payload`
shapes the result into the ``BENCH_compiler_tradeoff.json`` schema the
CI smoke job gates with ``benchmarks/compare_bench.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler import STRATEGY_NAMES
from ..isa.program import Program
from ..isa.registers import MVL
from ..timing.config import get_config
from ..timing.run import simulate, trace_for
from ..workloads import compiled_workload_names
from . import report as R
from .runner import MissingRunError, RunSpec
from .experiments import RunMap

#: the sweep's default machine point: strategies reshape single-thread
#: code, so the base machine isolates the compiler effect
DEFAULT_CONFIG = "base"
DEFAULT_THREADS = 1


@dataclass
class StrategyCell:
    """One (app, strategy) point of the sweep."""

    app: str
    strategy: str
    #: content digest of the compiled program (aliasing witness)
    digest: str
    #: simulated cycles on the sweep's machine configuration
    cycles: int
    #: static program size in instructions
    instrs: int
    #: dynamic VL -> vector-instruction count
    vl_hist: Dict[int, int] = field(default_factory=dict)
    #: dynamic instruction counts (total / scalar / vector)
    counts: Dict[str, int] = field(default_factory=dict)
    #: strategy whose program this one is byte-identical to (fallback
    #: or no-op), or None when the strategy produced distinct code
    aliases: Optional[str] = None

    @property
    def vector_ops(self) -> int:
        return sum(self.vl_hist.values())

    @property
    def mean_vl(self) -> float:
        n = self.vector_ops
        if not n:
            return 0.0
        return sum(vl * c for vl, c in self.vl_hist.items()) / n

    @property
    def short_vl_ops(self) -> int:
        """Vector instructions below full MVL (the VLT opportunity)."""
        return sum(c for vl, c in self.vl_hist.items() if vl < MVL)


@dataclass
class TradeoffResult:
    """The full sweep: apps x strategies on one machine point."""

    config: str
    threads: int
    apps: Tuple[str, ...]
    strategies: Tuple[str, ...]
    #: (app, strategy) -> cell
    cells: Dict[Tuple[str, str], StrategyCell]

    def cell(self, app: str, strategy: str) -> StrategyCell:
        return self.cells[(app, strategy)]

    def speedup(self, app: str, strategy: str) -> float:
        """Speedup of ``strategy`` over ``auto`` for one app (>1 means
        the strategy's code ran in fewer simulated cycles)."""
        return (self.cell(app, "auto").cycles
                / self.cell(app, strategy).cycles)

    def total_cycles(self, strategy: str) -> int:
        return sum(self.cell(a, strategy).cycles for a in self.apps)

    def aggregate_speedup(self, strategy: str) -> float:
        return self.total_cycles("auto") / self.total_cycles(strategy)

    def hist_delta(self, app: str, strategy: str) -> Dict[int, int]:
        """Per-VL vector-instruction count delta vs. ``auto`` (only
        VLs whose count changed)."""
        base = self.cell(app, "auto").vl_hist
        cand = self.cell(app, strategy).vl_hist
        out: Dict[int, int] = {}
        for vl in sorted(set(base) | set(cand)):
            d = cand.get(vl, 0) - base.get(vl, 0)
            if d:
                out[vl] = d
        return out


def tradeoff_matrix(apps: Optional[Sequence[str]] = None,
                    strategies: Sequence[str] = STRATEGY_NAMES,
                    config: str = DEFAULT_CONFIG,
                    threads: int = DEFAULT_THREADS) -> List[RunSpec]:
    """The sweep as a run matrix for the parallel runner."""
    cfg = get_config(config)   # fail fast on unknown names
    return [RunSpec(app, cfg.name, threads, strategy=s)
            for app in (apps or compiled_workload_names())
            for s in strategies]


def compiler_tradeoff(apps: Optional[Sequence[str]] = None,
                      strategies: Sequence[str] = STRATEGY_NAMES,
                      config: str = DEFAULT_CONFIG,
                      threads: int = DEFAULT_THREADS,
                      runs: RunMap = None) -> TradeoffResult:
    """Run the sweep; ``runs`` supplies precomputed runner results.

    Every requested app must be a compiled workload -- hand-written
    programs cannot honour a strategy, so sweeping them would silently
    report four copies of the same number.
    """
    apps = list(apps or compiled_workload_names())
    compiled = set(compiled_workload_names())
    unknown = [a for a in apps if a not in compiled]
    if unknown:
        raise ValueError(
            f"compiler-tradeoff sweeps mini-compiler workloads only; "
            f"{unknown} are not compiled (known: {sorted(compiled)})")
    strategies = list(strategies)
    if "auto" not in strategies:
        strategies = ["auto"] + strategies   # the speedup baseline
    cfg = get_config(config)

    #: inline-simulation memo: aliased programs share one replay,
    #: mirroring what the runner's content-addressed result cache does
    inline_cycles: Dict[str, int] = {}

    def _cycles(spec: RunSpec, prog: Program) -> int:
        if runs is not None:
            result = runs.get(spec)
            if result is None:
                raise MissingRunError(spec)
            return result.cycles
        digest = prog.digest()
        if digest not in inline_cycles:
            inline_cycles[digest] = simulate(
                prog, cfg, num_threads=spec.threads).cycles
        return inline_cycles[digest]

    cells: Dict[Tuple[str, str], StrategyCell] = {}
    for app in apps:
        digests: Dict[str, str] = {}
        for strat in strategies:
            spec = RunSpec(app, cfg.name, threads, strategy=strat)
            prog = spec.program()
            digest = prog.digest()
            aliases = next((s for s, d in digests.items() if d == digest),
                           None)
            digests[strat] = digest
            # trace_for is memoised by digest: aliased strategies and
            # the differential checker all share one functional trace
            trace = trace_for(prog, threads)
            vls = np.concatenate(
                [t.vector_lengths() for t in trace.threads]
                or [np.zeros(0, dtype=np.int64)])
            uniq, cnt = np.unique(vls, return_counts=True)
            cells[(app, strat)] = StrategyCell(
                app=app, strategy=strat, digest=digest,
                cycles=_cycles(spec, prog),
                instrs=len(prog.instrs),
                vl_hist={int(v): int(c) for v, c in zip(uniq, cnt)},
                counts=trace.merged_counts(),
                aliases=aliases)
    return TradeoffResult(config=cfg.name, threads=threads,
                          apps=tuple(apps), strategies=tuple(strategies),
                          cells=cells)


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _fmt_hist(hist: Dict[int, int], top: int = 4) -> str:
    items = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    s = ", ".join(f"{vl}x{c}" for vl, c in sorted(items))
    more = len(hist) - len(items)
    return s + (f", +{more} more" if more > 0 else "")


def _fmt_delta(delta: Dict[int, int]) -> str:
    if not delta:
        return "unchanged"
    return ", ".join(f"VL{vl}:{c:+d}" for vl, c in delta.items())


def render_tradeoff(res: TradeoffResult) -> str:
    """Figure-4-style report: one section per app, bars per strategy."""
    rows = []
    for app in res.apps:
        for strat in res.strategies:
            c = res.cell(app, strat)
            note = f"= {c.aliases} (fell back)" if c.aliases else "distinct"
            rows.append([
                app, strat, c.cycles, f"{res.speedup(app, strat):.3f}",
                c.instrs, f"{c.mean_vl:.1f}",
                _fmt_hist(c.vl_hist), note])
    out = [R.table(
        ["app", "strategy", "cycles", "speedup", "instrs", "mean VL",
         "VL histogram (VLxcount)", "program"],
        rows,
        f"Compiler tradeoff: vectorization strategies on {res.config} "
        f"({res.threads} thread{'s' if res.threads != 1 else ''})")]

    for app in res.apps:
        out.append(f"\n{app}:")
        vmax = max(res.speedup(app, s) for s in res.strategies)
        for strat in res.strategies:
            s = res.speedup(app, strat)
            out.append(f"  {strat:11s} |{R.bar(s, vmax)} {s:.3f}")
        for strat in res.strategies:
            if strat == "auto" or res.cell(app, strat).aliases:
                continue
            out.append(f"  {strat} VL delta vs auto: "
                       f"{_fmt_delta(res.hist_delta(app, strat))}")

    agg = [[s, res.total_cycles(s), f"{res.aggregate_speedup(s):.3f}",
            sum(1 for a in res.apps if res.cell(a, s).aliases is None)]
           for s in res.strategies]
    out.append("")
    out.append(R.table(
        ["strategy", "total cycles", "speedup vs auto",
         "distinct programs"],
        agg, "Aggregate (sum of cycles across apps)"))
    out.append(
        "\nnote: a fallen-back strategy emits byte-identical code "
        "(legality rules refuse unsafe transforms; see "
        "docs/compiler.md), so its rows alias auto's cached "
        "trace/result rather than re-simulating.")
    return "\n".join(out)


# --------------------------------------------------------------------------
# bench payload (BENCH_compiler_tradeoff.json)
# --------------------------------------------------------------------------

def bench_payload(res: TradeoffResult) -> Dict[str, object]:
    """The ``BENCH_compiler_tradeoff.json`` schema.

    Simulated cycles are deterministic, so unlike the wall-clock bench
    families every metric here is host-independent and CI can gate
    ``speedup_vs_auto`` with exact floors (``compare_bench.py
    --min-metric``).
    """
    import platform
    results: Dict[str, Dict[str, object]] = {}
    for strat in res.strategies:
        mean_num = sum(res.cell(a, strat).mean_vl
                       * res.cell(a, strat).vector_ops for a in res.apps)
        vops = sum(res.cell(a, strat).vector_ops for a in res.apps)
        results[f"strategy_{strat}"] = {
            "total_cycles": res.total_cycles(strat),
            "speedup_vs_auto": round(res.aggregate_speedup(strat), 6),
            "mean_vl": round(mean_num / vops, 3) if vops else 0.0,
            "vector_ops": vops,
            "short_vl_ops": sum(res.cell(a, strat).short_vl_ops
                                for a in res.apps),
            "distinct_programs": sum(
                1 for a in res.apps if res.cell(a, strat).aliases is None),
        }
    for app in res.apps:
        for strat in res.strategies:
            c = res.cell(app, strat)
            results[f"{app}@{strat}"] = {
                "cycles": c.cycles,
                "speedup_vs_auto": round(res.speedup(app, strat), 6),
                "mean_vl": round(c.mean_vl, 3),
                "vector_ops": c.vector_ops,
                "short_vl_ops": c.short_vl_ops,
                "aliased": 0 if c.aliases is None else 1,
            }
    return {
        "benchmark": "compiler_tradeoff",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "config": res.config,
        "threads": res.threads,
        "results": results,
    }
