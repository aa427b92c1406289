"""Experiment drivers: one function per paper table/figure.

Every driver returns a plain-data result object that the report module
renders; nothing here prints.  Results carry the paper's published
values alongside the measured ones so EXPERIMENTS.md can show both.

Run-matrix conventions (Sections 6-7 of the paper):

* Figure 1: base machine, single thread, lanes swept over 1/2/4/8.
* Figure 3: V2-CMP with 2 threads and V4-CMP with 4 threads (the
  maximum-performance replicated configurations), speedup over BASE.
* Figure 4: datapath-utilization breakdown for BASE / VLT-2 / VLT-4.
* Figure 5: the SU design space -- V2-SMT, V2-CMP (2 threads);
  V4-SMT, V4-CMT, V4-CMP, V4-CMP-h (4 threads).
* Figure 6: 8 scalar threads on the lanes (VLT-scalar) vs. 4 threads on
  the CMT machine (two 4-way 2-way-SMT SUs, no vector unit).
* Table 4: the opportunity column reads the single-thread BASE run --
  the same spec as Figure 1's 8-lane point and the Figure 3/5 baselines.
* Extensions: replicated-VCL V4 and the 16-lane machines
  (:func:`extensions_matrix`), plus two phased kernels that are not
  workloads and always run inline.

:func:`doc_matrix` is the union of every run EXPERIMENTS.md reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..area.model import table1_rows, table2_rows
from ..isa import Program, assemble
from ..timing.config import (BASE, CMT, V2_CMP, V2_SMT, V4_CMP, V4_CMP_16LANE,
                             V4_CMP_H, V4_CMP_REPVCL, V4_CMT, V4_SMT,
                             VLT_SCALAR, MachineConfig, base_config)
from ..timing.run import simulate
from ..timing.stats import DatapathUtilization, RunResult
from ..workloads import AppCharacteristics, characterize
from ..workloads.characteristics import NO_OPPORTUNITY
from .runner import MissingRunError, RunSpec

#: precomputed results keyed by run spec (what the parallel runner hands
#: the drivers); ``None`` means "simulate inline, serially".
RunMap = Optional[Mapping[RunSpec, RunResult]]

#: application groups (Table 4 structure)
LONG_VECTOR_APPS = ("mxm", "sage")
VLT_VECTOR_APPS = ("mpenc", "trfd", "multprec", "bt")
SCALAR_APPS = ("radix", "ocean", "barnes")
ALL_APPS = LONG_VECTOR_APPS + VLT_VECTOR_APPS + SCALAR_APPS

#: paper Figure 1 speedups at 8 lanes, eyeballed from the plot, used
#: only for shape context in the report (not assertions).
PAPER_FIG1_8LANE = {
    "mxm": 6.5, "sage": 7.0, "mpenc": 2.2, "trfd": 1.3, "multprec": 2.2,
    "bt": 1.2, "radix": 1.0, "ocean": 1.0, "barnes": 1.0,
}

#: paper Figure 3 speedup bands
PAPER_FIG3_BANDS = {2: (1.14, 2.15), 4: (1.40, 2.3)}

#: paper Figure 6 speedups of VLT scalar threads over CMT
PAPER_FIG6 = {"radix": 2.0, "ocean": 2.2, "barnes": 1.1}


def _run(app: str, cfg: MachineConfig, threads: int,
         scalar_only: bool = False, runs: RunMap = None) -> RunResult:
    """One timing run -- inline, or looked up in a precomputed run map.

    When ``runs`` is given (the parallel-runner path), a missing or
    failed spec raises :class:`MissingRunError` so the report section
    that needed it can degrade instead of the whole sweep dying.
    """
    spec = RunSpec(app=app, config=cfg.name, threads=threads,
                   scalar_only=scalar_only)
    if runs is None:
        return simulate(spec.program(), cfg, num_threads=threads)
    result = runs.get(spec)
    if result is None:
        raise MissingRunError(spec)
    return result


# --------------------------------------------------------------------------
# Run matrices: each figure's runs as data (for the parallel runner)
# --------------------------------------------------------------------------

def fig1_matrix(apps: Sequence[str] = ALL_APPS,
                lanes: Sequence[int] = (1, 2, 4, 8)) -> List[RunSpec]:
    return [RunSpec(app, base_config(lanes=n).name, 1)
            for app in apps for n in lanes]


def fig3_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        RunSpec(app, BASE.name, 1),
        RunSpec(app, V2_CMP.name, 2),
        RunSpec(app, V4_CMP.name, 4))]


def fig4_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return fig3_matrix(apps)


def fig5_matrix(apps: Sequence[str] = VLT_VECTOR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        [RunSpec(app, BASE.name, 1)]
        + [RunSpec(app, cfg.name, threads) for cfg, threads in FIG5_POINTS])]


def fig6_matrix(apps: Sequence[str] = SCALAR_APPS) -> List[RunSpec]:
    return [spec for app in apps for spec in (
        RunSpec(app, CMT.name, 4, scalar_only=True),
        RunSpec(app, VLT_SCALAR.name, 8, scalar_only=True))]


def table4_matrix(apps: Sequence[str] = ALL_APPS) -> List[RunSpec]:
    """The BASE runs behind Table 4's opportunity column."""
    return [RunSpec(app, BASE.name, 1) for app in apps
            if app not in NO_OPPORTUNITY]


def matrix_for(names: Sequence[str],
               apps: Optional[Sequence[str]] = None,
               lanes: Optional[Sequence[int]] = None) -> List[RunSpec]:
    """Deduplicated union of the run matrices for ``names``.

    Table 4 contributes its BASE runs, which Figure 1's 8-lane point
    already holds; Tables 1-3 and non-experiment names contribute no
    specs.  ``apps``/``lanes`` override each sweep exactly the way the
    driver arguments do -- verbatim, NOT intersected with the default
    set, so the matrix always covers precisely the runs the drivers
    will look up.
    """
    def pick(defaults: Sequence[str]) -> Sequence[str]:
        return apps if apps else defaults

    specs: List[RunSpec] = []
    for name in names:
        if name == "table4":
            specs += table4_matrix(pick(ALL_APPS))
        elif name == "fig1":
            specs += fig1_matrix(pick(ALL_APPS), lanes or (1, 2, 4, 8))
        elif name == "fig3":
            specs += fig3_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig4":
            specs += fig4_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig5":
            specs += fig5_matrix(pick(VLT_VECTOR_APPS))
        elif name == "fig6":
            specs += fig6_matrix(pick(SCALAR_APPS))
    return list(dict.fromkeys(specs))


def doc_matrix() -> List[RunSpec]:
    """Every run EXPERIMENTS.md reads: each figure and Table 4 over its
    default sweep, then the extension runs (72 distinct specs)."""
    return list(dict.fromkeys(
        matrix_for(["fig1", "fig3", "fig4", "fig5", "fig6", "table4"])
        + extensions_matrix()))


# --------------------------------------------------------------------------
# Figure 1 -- lane scaling
# --------------------------------------------------------------------------

@dataclass
class Fig1Result:
    lanes: Tuple[int, ...]
    #: app -> cycles per lane count
    cycles: Dict[str, List[int]]

    def speedups(self, app: str) -> List[float]:
        c = self.cycles[app]
        return [c[0] / x for x in c]


def fig1_lane_scaling(apps: Sequence[str] = ALL_APPS,
                      lanes: Sequence[int] = (1, 2, 4, 8),
                      runs: RunMap = None) -> Fig1Result:
    """Single-thread speedup vs. number of vector lanes (paper Fig. 1)."""
    cycles: Dict[str, List[int]] = {}
    for app in apps:
        row: List[int] = []
        for n in lanes:
            row.append(_run(app, base_config(lanes=n), 1, runs=runs).cycles)
        cycles[app] = row
    return Fig1Result(lanes=tuple(lanes), cycles=cycles)


# --------------------------------------------------------------------------
# Tables 1-3 -- area model and machine parameters
# --------------------------------------------------------------------------

@dataclass
class AreaResult:
    table1: List[Tuple[str, float]]
    #: (config, recomputed %, paper %)
    table2: List[Tuple[str, float, float]]


def area_tables() -> AreaResult:
    return AreaResult(table1=table1_rows(), table2=table2_rows())


def table3_parameters() -> List[Tuple[str, str]]:
    """The base machine parameters as (component, description) rows."""
    su = BASE.scalar_units[0]
    vu = BASE.vu
    l2 = BASE.l2
    return [
        ("Scalar Unit", f"{su.width}-way out-of-order superscalar; "
         f"{su.window}-entry window/ROB; {su.arith_units} arithmetic "
         f"units, {su.mem_ports} memory ports; {su.l1i_kib}-KB "
         f"{su.l1_assoc}-way L1 caches"),
        ("Vector Control", f"{vu.issue_width}-way issue, "
         f"{vu.viq_entries}-entry VIQ"),
        ("Vector Lanes", f"{vu.lanes} lanes; {vu.arith_fus} arithmetic "
         f"datapaths + {vu.mem_ports} memory ports per lane; "
         f"64 elements/register distributed 8 per lane"),
        ("Memory System", f"{l2.size_kib // 1024}-MB L2, {l2.assoc}-way, "
         f"{l2.banks}-way banked; {l2.hit_latency}-cycle hit, "
         f"{l2.miss_latency}-cycle miss penalty"),
    ]


# --------------------------------------------------------------------------
# Table 4 -- application characteristics
# --------------------------------------------------------------------------

def table4_characteristics(apps: Sequence[str] = ALL_APPS,
                           runs: RunMap = None) -> List[AppCharacteristics]:
    """One Table 4 row per app.

    The opportunity comes from the BASE runs of :func:`table4_matrix`,
    all fetched through :func:`_run` before any trace is read, so a
    run missing from ``runs`` raises :class:`MissingRunError` at once.
    """
    base_runs = {s.app: _run(s.app, BASE, 1, runs=runs)
                 for s in table4_matrix(apps)}
    return [characterize(a, base_run=base_runs.get(a)) for a in apps]


# --------------------------------------------------------------------------
# Figure 3 -- VLT speedup with vector threads
# --------------------------------------------------------------------------

@dataclass
class Fig3Result:
    #: app -> {"base": cycles, 2: cycles, 4: cycles}
    cycles: Dict[str, Dict[object, int]]

    def speedup(self, app: str, threads: int) -> float:
        return self.cycles[app]["base"] / self.cycles[app][threads]


def fig3_vlt_speedup(apps: Sequence[str] = VLT_VECTOR_APPS,
                     runs: RunMap = None) -> Fig3Result:
    """VLT speedup over base: V2-CMP (2 threads), V4-CMP (4 threads)."""
    out: Dict[str, Dict[object, int]] = {}
    for app in apps:
        out[app] = {
            "base": _run(app, BASE, 1, runs=runs).cycles,
            2: _run(app, V2_CMP, 2, runs=runs).cycles,
            4: _run(app, V4_CMP, 4, runs=runs).cycles,
        }
    return Fig3Result(cycles=out)


# --------------------------------------------------------------------------
# Figure 4 -- datapath utilization
# --------------------------------------------------------------------------

@dataclass
class Fig4Result:
    #: app -> label -> (utilization, cycles)
    data: Dict[str, Dict[str, Tuple[DatapathUtilization, int]]]

    def normalized_bars(self, app: str) -> Dict[str, Dict[str, float]]:
        """Per-config datapath-cycle buckets normalised to the *base*
        run's total datapath-cycles (paper Fig. 4: lower bar = faster)."""
        base_total = self.data[app]["base"][0].total
        bars = {}
        for label, (util, _cycles) in self.data[app].items():
            bars[label] = {k: v / base_total
                           for k, v in (("busy", util.busy),
                                        ("stalled", util.stalled),
                                        ("all_idle", util.all_idle),
                                        ("partly_idle", util.partly_idle))}
        return bars


def fig4_utilization(apps: Sequence[str] = VLT_VECTOR_APPS,
                     runs: RunMap = None) -> Fig4Result:
    data: Dict[str, Dict[str, Tuple[DatapathUtilization, int]]] = {}
    for app in apps:
        base = _run(app, BASE, 1, runs=runs)
        r2 = _run(app, V2_CMP, 2, runs=runs)
        r4 = _run(app, V4_CMP, 4, runs=runs)
        data[app] = {
            "base": (base.utilization, base.cycles),
            "VLT-2": (r2.utilization, r2.cycles),
            "VLT-4": (r4.utilization, r4.cycles),
        }
    return Fig4Result(data=data)


# --------------------------------------------------------------------------
# Figure 5 -- scalar-unit design space
# --------------------------------------------------------------------------

#: (config, thread count) points of Figure 5, in the paper's legend order.
FIG5_POINTS: Tuple[Tuple[MachineConfig, int], ...] = (
    (V2_SMT, 2), (V2_CMP, 2), (V4_SMT, 4), (V4_CMT, 4), (V4_CMP, 4),
    (V4_CMP_H, 4),
)


@dataclass
class Fig5Result:
    #: app -> config name -> speedup over base
    speedups: Dict[str, Dict[str, float]]
    base_cycles: Dict[str, int]


def fig5_design_space(apps: Sequence[str] = VLT_VECTOR_APPS,
                      runs: RunMap = None) -> Fig5Result:
    speedups: Dict[str, Dict[str, float]] = {}
    base_cycles: Dict[str, int] = {}
    for app in apps:
        base = _run(app, BASE, 1, runs=runs).cycles
        base_cycles[app] = base
        row: Dict[str, float] = {}
        for cfg, threads in FIG5_POINTS:
            row[cfg.name] = base / _run(app, cfg, threads, runs=runs).cycles
        speedups[app] = row
    return Fig5Result(speedups=speedups, base_cycles=base_cycles)


# --------------------------------------------------------------------------
# Figure 6 -- scalar threads on the lanes vs CMT
# --------------------------------------------------------------------------

@dataclass
class Fig6Result:
    #: app -> {"CMT": cycles, "VLT": cycles}
    cycles: Dict[str, Dict[str, int]]

    def speedup(self, app: str) -> float:
        return self.cycles[app]["CMT"] / self.cycles[app]["VLT"]


def fig6_scalar_threads(apps: Sequence[str] = SCALAR_APPS,
                        runs: RunMap = None) -> Fig6Result:
    """8 VLT scalar threads on the lanes vs 4 threads on the CMT machine.

    Both run the ``scalar_only`` program flavour: lane cores cannot
    execute vector instructions, and the comparison must hold the
    program constant.
    """
    out: Dict[str, Dict[str, int]] = {}
    for app in apps:
        out[app] = {
            "CMT": _run(app, CMT, 4, scalar_only=True, runs=runs).cycles,
            "VLT": _run(app, VLT_SCALAR, 8, scalar_only=True,
                        runs=runs).cycles,
        }
    return Fig6Result(cycles=out)


# --------------------------------------------------------------------------
# Extensions -- claims of Sections 3.2/3.3 and 6 beyond the figures
# --------------------------------------------------------------------------

#: the more-lanes trend: lane count -> (base machine, VLT-4 machine)
EXT_LANE_MACHINES: Dict[int, Tuple[MachineConfig, MachineConfig]] = {
    8: (BASE, V4_CMP),
    16: (base_config(lanes=16), V4_CMP_16LANE),
}


def extensions_matrix() -> List[RunSpec]:
    """The workload runs of the extensions report: multiplexed vs
    replicated VCL on the VLT apps, then trfd on the base and VLT-4
    machines of each lane count.  The phased kernels are not workloads
    and run inline."""
    specs = [RunSpec(app, cfg.name, 4) for app in VLT_VECTOR_APPS
             for cfg in (V4_CMP, V4_CMP_REPVCL)]
    for base, vlt in EXT_LANE_MACHINES.values():
        specs += [RunSpec("trfd", base.name, 1), RunSpec("trfd", vlt.name, 4)]
    return specs


def phased_kernel(first_phase_parts: int) -> Program:
    """Section 3.3's two-phase kernel: thread 0 runs long vectors under
    ``vltcfg first_phase_parts``, then four threads run short vectors
    under ``vltcfg 4``."""
    return assemble(f"""
        tid s1
        vltcfg {first_phase_parts}
        bne s1, s0, skip
        li s10, 0
        li s11, 80
        rep:
        li s2, 64
        setvl s3, s2
        vfadd.vv v1, v2, v3
        vfmul.vv v4, v1, v2
        vfadd.vv v5, v4, v1
        addi s10, s10, 1
        blt s10, s11, rep
        skip:
        barrier
        vltcfg 4
        li s10, 0
        li s11, 60
        rep2:
        li s2, 8
        setvl s3, s2
        vfadd.vv v1, v2, v3
        vfmul.vv v4, v1, v2
        addi s10, s10, 1
        blt s10, s11, rep2
        barrier
        halt
        """)
