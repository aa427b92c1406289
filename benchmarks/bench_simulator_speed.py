"""Simulator-throughput benchmarks (the one suite where repeated timing
measurements, pytest-benchmark's real job, make sense).

Besides the pytest-benchmark numbers, this module writes a
machine-readable ``BENCH_simulator_speed.json`` next to the repo root:
simulated ops/sec and cycles/sec per machine configuration, plus the
host-side phase profile (trace generation / setup / replay / stats)
from :class:`repro.obs.PhaseProfiler`.  Future PRs diff that file to
catch simulator-speed regressions.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.functional import Executor
from repro.isa import assemble
from repro.obs import PhaseProfiler
from repro.timing import clear_trace_cache, simulate
from repro.timing.config import BASE, get_config
from repro.timing.run import trace_for

_SRC = """
.space x 8192
li s5, 0
li s6, 40
rep:
li s1, 64
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfmul.vs v2, v1, f1
vfadd.vv v3, v2, v1
vst v3, 0(s3)
li s4, 0
inner:
addi s4, s4, 1
slti s7, s4, 20
bne s7, s0, inner
addi s5, s5, 1
blt s5, s6, rep
halt
"""

#: configs swept by the per-config throughput bench; thread count is
#: the natural occupancy of each machine (1 SW thread per HW context).
_SWEEP = (("base", 1), ("V2-SMT", 2), ("V2-CMP", 2), ("V4-CMP", 4))

#: VLT_BENCH_JSON redirects the output (CI's bench-smoke job writes a
#: candidate file and diffs it against the checked-in baseline).
_JSON_PATH = Path(os.environ.get(
    "VLT_BENCH_JSON",
    Path(__file__).resolve().parent.parent / "BENCH_simulator_speed.json"))

#: accumulated across the tests in this module, flushed by the
#: module-scoped fixture below.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    yield
    if not _RESULTS:  # pragma: no cover - only when the module is filtered
        return
    payload = {
        "benchmark": "simulator_speed",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": _RESULTS,
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def _record(name: str, **fields) -> None:
    _RESULTS[name] = fields


def _timed(fn, walls):
    """Wrap ``fn`` so each call also appends its own wall time.

    pytest-benchmark's timer is authoritative when it ran, but with
    ``--benchmark-disable`` (plain test runs, CI) ``benchmark.stats`` is
    ``None`` -- the self-measured walls are the fallback."""
    def run():
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
        return out
    return run


def _min_wall(benchmark, walls):
    if benchmark.stats is not None:
        return benchmark.stats.stats.min
    return min(walls)


def test_functional_simulation_speed(benchmark):
    prog = assemble(_SRC)
    walls: list = []

    trace = benchmark(_timed(lambda: Executor(prog, num_threads=1).run(),
                             walls))
    assert trace.total_ops() > 2000
    wall = _min_wall(benchmark, walls)
    _record("functional", wall_s=wall, ops=trace.total_ops(),
            ops_per_s=trace.total_ops() / wall if wall else None)


def test_timing_simulation_speed(benchmark):
    prog = assemble(_SRC)
    trace = trace_for(prog, 1)
    ops = trace.total_ops()
    walls: list = []

    result = benchmark(_timed(lambda: simulate(prog, BASE, trace=trace),
                              walls))
    assert result.cycles > 1000
    wall = _min_wall(benchmark, walls)
    _record("timing_replay", wall_s=wall, cycles=result.cycles, ops=ops,
            ops_per_s=ops / wall if wall else None,
            cycles_per_s=result.cycles / wall if wall else None)


#: the replay-speed workload with a long steady-state phase: identical
#: loop body, enough iterations that warm-loop behaviour dominates the
#: measurement (the regime the paper's figures are drawn from).
_SRC_STEADY = _SRC.replace("li s6, 40", "li s6, 600")


def test_fast_trace_generation_speed(benchmark):
    """Fast vs reference trace-generation throughput on the steady-state
    workload (the regime the harness sweeps live in: warm decode cache,
    loop-dominated traces).

    Both engines generate the same trace; the serialized bytes must be
    identical and the fast block-compiled engine at least 10x faster in
    ops/sec.
    """
    from repro.functional import trace_to_bytes
    prog = assemble(_SRC_STEADY)

    ref_walls: list = []
    run_ref = _timed(lambda: Executor(prog, num_threads=1).run(), ref_walls)
    for _ in range(3):
        ref_trace = run_ref()
    ref_wall = min(ref_walls)
    ops = ref_trace.total_ops()

    walls: list = []

    def run():
        clear_trace_cache()
        return trace_for(prog, 1)

    run_fast = _timed(run, walls)
    for _ in range(3):   # warm runs (block compile + expansion cache)
        run_fast()
    trace = benchmark(run_fast)
    assert trace_to_bytes(trace) == trace_to_bytes(ref_trace)
    wall = _min_wall(benchmark, walls)
    speedup = ref_wall / wall if wall else None
    _record("trace_generation_fast", wall_s=wall, ops=ops,
            ops_per_s=ops / wall if wall else None,
            reference_wall_s=ref_wall,
            reference_ops_per_s=ops / ref_wall if ref_wall else None,
            speedup_vs_reference=speedup)
    assert speedup and speedup >= 10.0, \
        f"fast trace generation only {speedup:.1f}x faster than reference"


def test_end_to_end_speed(benchmark):
    prog = assemble(_SRC)
    walls: list = []

    def run():
        clear_trace_cache()
        return simulate(prog, BASE)

    result = benchmark(_timed(run, walls))
    assert result.cycles > 1000
    wall = _min_wall(benchmark, walls)
    _record("end_to_end", wall_s=wall, cycles=result.cycles,
            cycles_per_s=result.cycles / wall if wall else None)


def test_per_config_throughput(benchmark, capsys):
    """Ops/sec for each machine configuration, with the host-side phase
    profile attached -- the rows that land in BENCH_simulator_speed.json."""
    prog = assemble(_SRC)

    def sweep():
        rows = {}
        for name, threads in _SWEEP:
            cfg = get_config(name)
            clear_trace_cache()
            prof = PhaseProfiler()
            t0 = time.perf_counter()
            result = simulate(prog, cfg, num_threads=threads,
                              profiler=prof)
            wall = time.perf_counter() - t0
            ops = trace_for(prog, threads).total_ops()
            phases = prof.as_dict()
            tg_wall = phases.get("trace_generation", {}).get("wall_s")
            rows[name] = {
                "threads": threads,
                "cycles": result.cycles,
                "ops": ops,
                "wall_s": wall,
                "ops_per_s": ops / wall if wall else None,
                "cycles_per_s": result.cycles / wall if wall else None,
                "trace_generation_wall_s": tg_wall,
                "trace_generation_ops_per_s": (ops / tg_wall
                                               if tg_wall else None),
                "phases": phases,
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1,
                              warmup_rounds=0)
    _record("per_config", **rows)
    with capsys.disabled():
        print()
        print(f"{'config':<10}{'thr':>4}{'cycles':>10}{'ops/s':>14}"
              f"{'trace-gen ops/s':>18}")
        for name, row in rows.items():
            tg = row["trace_generation_ops_per_s"]
            print(f"{name:<10}{row['threads']:>4}{row['cycles']:>10}"
                  f"{row['ops_per_s']:>14,.0f}"
                  + (f"{tg:>18,.0f}" if tg else f"{'n/a':>18}"))
    for name, row in rows.items():
        assert row["cycles"] > 1000, name
        assert row["ops_per_s"] and row["ops_per_s"] > 0, name
        assert row["trace_generation_ops_per_s"], name
