"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure."""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from ..timing.config import V4_CMP, V4_CMP_REPVCL
from ..timing.run import simulate
from ..timing.stats import RunResult
from . import experiments as E
from . import report as R
from .runner import MissingRunError, RunFailure, RunSpec

_HEADER = """\
# EXPERIMENTS -- paper vs. measured

Reproduction of every evaluation table and figure of *Vector Lane
Threading* (Rivoire, Schultz, Okuda, Kozyrakis -- ICPP 2006) on the
`repro` simulator.  Absolute cycle counts are not comparable to the
paper's (scaled workloads, reconstructed microarchitecture); the claims
under test are the *shapes*: who wins, by roughly what factor, and where
the crossovers fall.  See DESIGN.md section 4 for the per-experiment
acceptance criteria.

Regenerate this file with:

    python -m repro.harness.cli all --experiments-md EXPERIMENTS.md
"""


def generate_experiments_md(runs: Mapping[RunSpec, RunResult],
                            failures: Optional[Sequence[RunFailure]] = None
                            ) -> str:
    """Render the full report.

    ``runs`` maps the specs of :func:`~repro.harness.experiments.doc_matrix`
    to their results; the only simulations here are the two phased
    kernels of the extensions section.  A section whose runs include a
    failed or missing one degrades to a FAILED section instead of
    aborting the document, and a non-empty ``failures`` list adds an
    appendix describing what broke.
    """
    sections: List[str] = [_HEADER]

    def add(title: str, body: str, commentary: str = "") -> None:
        sections.append(f"\n## {title}\n\n```\n{body}\n```\n")
        if commentary:
            sections.append(commentary + "\n")

    def add_section(title: str, driver: Callable[[], object],
                    render: Callable[[object], str],
                    commentary: Callable[[object], str]) -> None:
        try:
            data = driver()
        except MissingRunError as exc:
            add(title, f"SECTION FAILED: required run unavailable: "
                       f"{exc.spec}",
                "This section could not be rendered because a run in its "
                "matrix failed; see the run-failure appendix below.")
            return
        add(title, render(data), commentary(data))

    add("Tables 1-2: area model", R.render_area(E.area_tables()),
        "Measured values are exact arithmetic over the paper's Table 1 "
        "component areas; every entry matches the paper within rounding "
        "except V4-CMP, where the paper's own prose (37%) agrees with our "
        "recomputation (36.8%) rather than its table (26.9%).")

    add("Table 3: base machine parameters",
        R.render_table3(E.table3_parameters()),
        "Configuration dump of the simulated base machine -- matches the "
        "paper's Table 3 by construction.")

    add_section("Table 4: application characteristics",
                lambda: E.table4_characteristics(runs=runs),
                R.render_table4,
                lambda _data: (
                    "Workload generators were tuned to land in the paper's "
                    "bands; the table shows measured values with the "
                    "paper's in parentheses. Opportunity is measured from "
                    "base-machine phase timings (parallel phases / total)."))

    add_section("Figure 1: lane scaling",
                lambda: E.fig1_lane_scaling(runs=runs),
                R.render_fig1, _fig1_commentary)

    add_section("Figure 3: VLT speedup (vector threads)",
                lambda: E.fig3_vlt_speedup(runs=runs),
                R.render_fig3, _fig3_commentary)

    add_section("Figure 4: datapath utilization",
                lambda: E.fig4_utilization(runs=runs),
                R.render_fig4,
                lambda _data: (
                    "As in the paper: VLT compresses execution (total bar "
                    "shrinks vs. base = 1.0), busy datapath-cycles grow as "
                    "a share, and stall/idle cycles shrink, while a residue "
                    "of stall/idle remains from sequential portions and "
                    "functional-unit imbalance."))

    add_section("Figure 5: scalar-unit design space",
                lambda: E.fig5_design_space(runs=runs),
                R.render_fig5, _fig5_commentary)

    add_section("Figure 6: scalar threads on the lanes",
                lambda: E.fig6_scalar_threads(runs=runs),
                R.render_fig6, _fig6_commentary)

    add_section("Extensions (paper Sections 3.2/3.3 and 6)",
                lambda: _extensions_report(runs),
                str,
                lambda _data: (
                    "Dynamic reconfiguration, the multiplexed-vs-replicated "
                    "VCL claim, and the more-lanes trend; see benchmarks/"
                    "bench_extensions.py for the asserted versions."))

    if failures:
        lines = ["The runner could not complete every run; the sections "
                 "above that depended on a missing run are marked FAILED.",
                 ""]
        for f in failures:
            lines.append(f"* `{f.spec}` -- {f.error_type}: {f.message} "
                         f"(after {f.attempts} attempt"
                         f"{'s' if f.attempts != 1 else ''})")
        sections.append("\n## Appendix: run failures\n\n"
                        + "\n".join(lines) + "\n")

    return "\n".join(sections)


def _extensions_report(runs: Mapping[RunSpec, RunResult]) -> str:
    lines = ["multiplexed vs replicated VCL (V4, 4 threads):"]
    for name in E.VLT_VECTOR_APPS:
        mux = E._run(name, V4_CMP, 4, runs=runs).cycles
        rep = E._run(name, V4_CMP_REPVCL, 4, runs=runs).cycles
        lines.append(f"  {name:10s} mux={mux:>7}  rep={rep:>7}  "
                     f"overhead {100 * (mux / rep - 1):.1f}%")

    # more lanes increase VLT usefulness (Sections 1/6)
    lines.append("")
    lines.append("trfd VLT-4 speedup vs lane count:")
    for lanes, (base_m, vlt_m) in E.EXT_LANE_MACHINES.items():
        s = E._run("trfd", base_m, 1, runs=runs).cycles / \
            E._run("trfd", vlt_m, 4, runs=runs).cycles
        lines.append(f"  {lanes:2d} lanes: {s:.2f}x")

    # dynamic reconfiguration (Section 3.3): not a workload, so inline
    dyn = simulate(E.phased_kernel(1), V4_CMP, num_threads=4).cycles
    static = simulate(E.phased_kernel(4), V4_CMP, num_threads=4).cycles
    lines.append("")
    lines.append(f"dynamic vltcfg on a two-phase kernel: dynamic={dyn} "
                 f"cycles vs static={static} ({static / dyn:.2f}x)")
    return "\n".join(lines)


def _fig1_commentary(fig1: E.Fig1Result) -> str:
    long_ok = all(fig1.speedups(a)[-1] >= 4.0 for a in ("mxm", "sage")
                  if a in fig1.cycles)
    short = [a for a in ("mpenc", "trfd", "multprec", "bt")
             if a in fig1.cycles]
    short_ok = all(fig1.speedups(a)[-1] <= 3.0 for a in short)
    flat = [a for a in ("radix", "ocean", "barnes") if a in fig1.cycles]
    flat_ok = all(fig1.speedups(a)[-1] <= 1.2 for a in flat)
    return (f"Shape check: long-vector apps scale (>=4x at 8 lanes): "
            f"{'PASS' if long_ok else 'FAIL'}; short-vector apps saturate "
            f"(<=3x): {'PASS' if short_ok else 'FAIL'}; scalar apps flat "
            f"(<=1.2x): {'PASS' if flat_ok else 'FAIL'}.")


def _fig3_commentary(fig3: E.Fig3Result) -> str:
    s2 = [fig3.speedup(a, 2) for a in fig3.cycles]
    s4 = [fig3.speedup(a, 4) for a in fig3.cycles]
    mono = all(fig3.speedup(a, 4) >= fig3.speedup(a, 2) * 0.95
               for a in fig3.cycles)
    return (f"Measured ranges: 2 threads {min(s2):.2f}-{max(s2):.2f} "
            f"(paper 1.14-2.15); 4 threads {min(s4):.2f}-{max(s4):.2f} "
            f"(paper 1.40-2.3); 4-thread >= 2-thread for every app: "
            f"{'PASS' if mono else 'FAIL'}.")


def _fig5_commentary(fig5: E.Fig5Result) -> str:
    checks = []
    for app, row in fig5.speedups.items():
        checks.append(abs(row["V2-SMT"] - row["V2-CMP"])
                      <= 0.15 * row["V2-CMP"])
        checks.append(row["V4-CMT"] >= 0.9 * row["V4-CMP"])
        checks.append(row["V4-SMT"] <= row["V4-CMT"] + 0.05)
    ok = all(checks)
    return ("Expected shape (paper Section 7.1): V2-SMT ~ V2-CMP (a "
            "multiplexed SU suffices for 2 threads); V4-SMT falls behind "
            "(4 instructions/cycle cannot feed 4 threads); V4-CMT matches "
            "the fully-replicated V4-CMP at a fraction of the area; "
            "V4-CMP-h trails the other replicated points. Shape check: "
            f"{'PASS' if ok else 'PARTIAL'}.")


def _fig6_commentary(fig6: E.Fig6Result) -> str:
    r = {a: fig6.speedup(a) for a in fig6.cycles}
    ok = (r.get("radix", 0) >= 1.5 and r.get("ocean", 0) >= 1.5
          and 0.8 <= r.get("barnes", 1.0) <= 1.4)
    return (f"Paper: ~2x for radix and ocean (low per-thread ILP: better "
            f"to run 8 threads on 8 simple lane-cores), parity for barnes "
            f"(enough ILP that two wide OOO cores keep up). Shape check: "
            f"{'PASS' if ok else 'PARTIAL'}. We reproduce the direction "
            f"(ocean clearly ahead on the lanes, radix/barnes at parity) "
            f"but not the full 2x: our out-of-order CMT baseline tolerates "
            f"L2 latency better than the paper's, and at our scaled "
            f"working-set sizes its L1s stay effective -- see DESIGN.md "
            f"section 8 for the analysis and "
            f"bench_ablations.py::test_ablation_decoupling_depth for the "
            f"sensitivity of the lane side to the access-decoupling model.")


def write_experiments_md(path: str, runs: Mapping[RunSpec, RunResult],
                         failures: Optional[Sequence[RunFailure]] = None
                         ) -> None:
    with open(path, "w") as fh:
        fh.write(generate_experiments_md(runs=runs, failures=failures))
