"""Property-based timing invariants (hypothesis).

For randomly generated straight-line programs:

* simulation is deterministic;
* cycle count is bounded below by issue-width and dependence-chain
  lower bounds, and above by a full-serialisation upper bound;
* adding lanes never slows down a vector program (monotonicity);
* every instruction is issued exactly once;
* no unit issues or commits more ops in a cycle than its configured
  width (and pool limits), checked on the event stream.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ProgramBuilder, S, V
from repro.obs import COMMIT, ISSUE, VISSUE
from repro.timing import clear_trace_cache, simulate, simulate_traced
from repro.timing.config import BASE, V2_SMT, base_config, get_config
from repro.workloads import get_workload

_SCALAR_OPS = ["add", "sub", "mul", "and", "or", "xor", "min", "max"]
_VECTOR_OPS = ["vfadd.vv", "vfsub.vv", "vfmul.vv", "vfmin.vv", "vfmax.vv"]
_MEM_OPS = ["ld", "st"]
#: the prologue's ops: vl, setvl, a constant and the memory base
_PROLOGUE = 4
#: scalar loads and stores address 8-byte words of this 64 KiB region
_MEM_BYTES = 64 * 1024


@st.composite
def random_program(draw):
    """A straight-line mixed scalar/vector program; its scalar ops
    include loads and stores into the program's 64 KiB memory."""
    n_ops = draw(st.integers(min_value=5, max_value=60))
    vl = draw(st.integers(min_value=1, max_value=64))
    b = ProgramBuilder("rand", memory_kib=64)
    b.op("li", S(1), vl)
    b.op("setvl", S(2), S(1))
    b.op("li", S(3), 7)
    b.op("li", S(13), 0)   # memory base, never overwritten
    n_scalar = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(("scalar", "mem", "vector")))
        if kind == "scalar":
            op = draw(st.sampled_from(_SCALAR_OPS))
            d = draw(st.integers(min_value=4, max_value=12))
            a = draw(st.integers(min_value=1, max_value=12))
            c = draw(st.integers(min_value=1, max_value=12))
            b.op(op, S(d), S(a), S(c))
            n_scalar += 1
        elif kind == "mem":
            op = draw(st.sampled_from(_MEM_OPS))
            r = draw(st.integers(min_value=4, max_value=12))
            off = 8 * draw(st.integers(min_value=0,
                                       max_value=_MEM_BYTES // 8 - 1))
            b.op(op, S(r), (off, S(13)))
            n_scalar += 1
        else:
            op = draw(st.sampled_from(_VECTOR_OPS))
            d = draw(st.integers(min_value=1, max_value=8))
            a = draw(st.integers(min_value=1, max_value=8))
            c = draw(st.integers(min_value=1, max_value=8))
            b.op(op, V(d), V(a), V(c))
    b.op("halt")
    return b.build(), n_ops, vl, n_scalar


class TestRandomPrograms:
    @settings(max_examples=25, deadline=None)
    @given(data=random_program())
    def test_deterministic(self, data):
        prog, *_ = data
        clear_trace_cache()
        a = simulate(prog, base_config()).cycles
        clear_trace_cache()
        b = simulate(prog, base_config()).cycles
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(data=random_program())
    def test_cycle_bounds(self, data):
        prog, n_ops, vl, n_scalar = data
        clear_trace_cache()
        r = simulate(prog, base_config())
        n_total = n_ops + _PROLOGUE
        # lower bound: frontend width 4
        assert r.cycles >= n_total / 4
        # upper bound: full serialisation with generous per-op cost
        occupancy = max(1, -(-vl // 8))
        assert r.cycles <= n_total * (20 + occupancy) + 500

    @settings(max_examples=25, deadline=None)
    @given(data=random_program())
    def test_everything_issues_exactly_once(self, data):
        prog, n_ops, vl, n_scalar = data
        clear_trace_cache()
        r = simulate(prog, base_config())
        n_vector = n_ops - n_scalar
        assert r.vector_unit.issued == n_vector
        assert r.vector_unit.element_ops == n_vector * vl
        # scalar issued = scalar and memory ops + the prologue
        assert r.scalar_units[0].issued == n_scalar + _PROLOGUE

    @settings(max_examples=15, deadline=None)
    @given(data=random_program())
    def test_lane_monotonicity(self, data):
        prog, *_ = data
        clear_trace_cache()
        prev = None
        for lanes in (1, 2, 4, 8):
            c = simulate(prog, base_config(lanes=lanes)).cycles
            if prev is not None:
                # more lanes never slower (allow tiny jitter from bank
                # mapping differences)
                assert c <= prev * 1.05 + 4
            prev = c

    @settings(max_examples=15, deadline=None)
    @given(data=random_program())
    def test_utilization_conservation(self, data):
        """Busy datapath-cycles == total vector element operations."""
        prog, n_ops, vl, n_scalar = data
        clear_trace_cache()
        r = simulate(prog, base_config())
        n_vector = n_ops - n_scalar
        assert r.utilization.busy == n_vector * vl
        assert r.utilization.total == 3 * 8 * r.cycles


def _unit_index(unit: str) -> int:
    """``SU2.c1`` -> 2, ``VU.p3`` -> 3."""
    head, tail = unit.split(".")
    return int(head[2:]) if head.startswith("SU") else int(tail[1:])


def assert_issue_widths(events, cfg) -> None:
    """No unit issues or commits more ops in one cycle than it may.

    Per scalar unit and cycle: at most ``width`` issues, at most
    ``mem_ports`` of them memory ops and ``arith_units`` of them other
    ops, and at most ``width`` commits.  Per cycle, the VCL issues at
    most ``issue_width`` vector ops (per partition when it is
    replicated).
    """
    issues, pools, commits, vissues = Counter(), Counter(), Counter(), \
        Counter()
    replicated = cfg.vu is not None and cfg.vu.replicated_vcl
    for e in events:
        if e.kind == ISSUE:
            su = _unit_index(e.unit)
            issues[e.cycle, su] += 1
            pools[e.cycle, su, e.dynop.spec.pool == "mem"] += 1
        elif e.kind == COMMIT:
            commits[e.cycle, _unit_index(e.unit)] += 1
        elif e.kind == VISSUE:
            vissues[e.cycle, _unit_index(e.unit) if replicated else 0] += 1
    for (cycle, su), n in issues.items():
        assert n <= cfg.scalar_units[su].width, (cycle, su, n)
    for (cycle, su, is_mem), n in pools.items():
        su_cfg = cfg.scalar_units[su]
        cap = su_cfg.mem_ports if is_mem else su_cfg.arith_units
        assert n <= cap, (cycle, su, is_mem, n)
    for (cycle, su), n in commits.items():
        assert n <= cfg.scalar_units[su].width, (cycle, su, n)
    for key, n in vissues.items():
        assert n <= cfg.vu.issue_width, (key, n)


class TestIssueWidths:
    """The per-unit issue-width property, on random programs and on the
    workloads whose SU/VCL mixes differ most."""

    @settings(max_examples=20, deadline=None)
    @given(data=random_program())
    def test_random_programs(self, data):
        prog, *_ = data
        for cfg, threads in ((BASE, 1), (V2_SMT, 2)):
            clear_trace_cache()
            tr = simulate_traced(prog, cfg, num_threads=threads)
            assert tr.events.dropped == 0
            assert_issue_widths(tr.events.events, cfg)

    @pytest.mark.parametrize("app,config", [
        ("trfd", "V4-CMT"), ("mpenc", "V4-SMT"), ("multprec", "V4-CMP-h"),
        ("barnes", "CMT")])
    def test_workloads(self, app, config):
        cfg = get_config(config)
        prog = get_workload(app).program(scalar_only=cfg.vu is None)
        tr = simulate_traced(prog, cfg, num_threads=4, max_events=2_000_000)
        assert tr.events.dropped == 0
        assert_issue_widths(tr.events.events, cfg)
