"""Extension/claim benches beyond the main tables and figures.

* **Multiplexed vs replicated VCL** -- Section 3.2's claim: "a
  multiplexed VCL with statically partitioned resources performs as
  fast as a replicated one".
* **16 lanes** -- Sections 1/6: future designs use more lanes, which
  "would increase the usefulness of VLT for low-DLP applications":
  short-vector apps gain *more* from VLT on a 16-lane machine.
* **Dynamic reconfiguration** -- Section 3.3: switching the thread
  count at region boundaries beats a static partitioning when phases
  differ in DLP.
"""

from dataclasses import replace

from repro.harness.experiments import EXT_LANE_MACHINES, phased_kernel
from repro.timing import simulate
from repro.timing.config import BASE, V4_CMP, V4_CMP_REPVCL
from repro.workloads import get_workload

from .conftest import run_once


def test_multiplexed_vcl_matches_replicated(benchmark, capsys):
    def sweep():
        out = {}
        for name in ("mpenc", "trfd", "multprec", "bt"):
            prog = get_workload(name).program()
            mux = simulate(prog, V4_CMP, num_threads=4).cycles
            rep = simulate(prog, V4_CMP_REPVCL, num_threads=4).cycles
            out[name] = (mux, rep)
        return out

    res = run_once(benchmark, sweep)
    with capsys.disabled():
        print("\nmultiplexed vs replicated VCL (V4, 4 threads):")
        for name, (mux, rep) in res.items():
            print(f"  {name:10s} mux={mux:>7}  rep={rep:>7}  "
                  f"overhead {100 * (mux / rep - 1):.1f}%")
    # the paper's Section 3.2 claim: within a few percent
    for name, (mux, rep) in res.items():
        assert mux <= rep * 1.08, name


def test_sixteen_lanes_increase_vlt_usefulness(benchmark, capsys):
    """At 16 lanes a short-vector app underutilises the machine even
    more, so the VLT speedup grows relative to 8 lanes."""
    def sweep():
        out = {}
        prog = get_workload("trfd").program()
        for lanes, (base_m, vlt_m) in EXT_LANE_MACHINES.items():
            base = simulate(prog, base_m, num_threads=1).cycles
            vlt = simulate(prog, vlt_m, num_threads=4).cycles
            out[lanes] = base / vlt
        return out

    speedups = run_once(benchmark, sweep)
    with capsys.disabled():
        print("\ntrfd VLT-4 speedup vs lane count:")
        for lanes, s in speedups.items():
            print(f"  {lanes:2d} lanes: {s:.2f}x")
    assert speedups[16] >= speedups[8] * 0.95
    assert speedups[16] > 1.3


def test_vlt_vs_smt_vector_processor(benchmark, capsys):
    """VLT vs an SMT vector processor (the paper's citation [11]).

    Section 3.1 argues the two are orthogonal: SMT shares whole-width
    FUs across thread contexts (attacking ILP-idle FUs), VLT partitions
    the lanes (attacking DLP-idle lanes).  In pure *timing* terms the
    two organisations land within ~15% of each other on these
    workloads, because the dominant win is the replicated scalar units
    either way.  What the timing model cannot charge is SMT's register
    cost: an SMT vector unit needs register-file capacity for every
    context, while VLT reuses the register-file slices of the idle
    lanes "with no need for additional registers" (Section 3.2) -- the
    paper's actual argument for VLT.
    """
    vsmt_cfg = replace(V4_CMP, name="V4-VSMT",
                       vu=replace(V4_CMP.vu, vu_smt=True))

    def sweep():
        out = {}
        for name in ("mpenc", "trfd", "multprec", "bt"):
            prog = get_workload(name).program()
            base = simulate(prog, BASE, num_threads=1).cycles
            vlt = simulate(prog, V4_CMP, num_threads=4).cycles
            vsmt = simulate(prog, vsmt_cfg, num_threads=4).cycles
            out[name] = (base / vlt, base / vsmt)
        return out

    res = run_once(benchmark, sweep)
    with capsys.disabled():
        print("\nVLT vs SMT vector unit (4 threads, same SUs):")
        for name, (vlt, vsmt) in res.items():
            print(f"  {name:10s} VLT {vlt:4.2f}x   vector-SMT {vsmt:4.2f}x")
    for name, (vlt, vsmt) in res.items():
        assert vlt > 1.0 and vsmt > 1.0, name
        assert abs(vlt - vsmt) <= 0.30 * max(vlt, vsmt), name


def test_dynamic_reconfiguration_beats_static(benchmark, capsys):
    """A program with a long-vector phase and a short-vector phase:
    vltcfg 1 -> 4 beats running the whole program at 4 partitions."""
    def sweep():
        dyn = simulate(phased_kernel(1), V4_CMP, num_threads=4).cycles
        static = simulate(phased_kernel(4), V4_CMP, num_threads=4).cycles
        return {"dynamic": dyn, "static": static}

    res = run_once(benchmark, sweep)
    with capsys.disabled():
        print(f"\nphased kernel: dynamic vltcfg={res['dynamic']} cycles, "
              f"static 4-way={res['static']} cycles "
              f"({res['static'] / res['dynamic']:.2f}x)")
    assert res["dynamic"] < res["static"]
