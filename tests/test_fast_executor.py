"""Fast functional engine: bit-identity against the reference executor.

The fast engine (:mod:`repro.functional.fast`) pre-compiles basic
blocks into specialized handlers and emits trace columns directly.  Its
contract is exact equivalence: identical serialized trace bytes,
identical final architectural state (registers, memory), and identical
error behaviour, across the full figure-3/5/6 run matrix.  The
``func-diff`` CI job runs the CLI's differential sweep over that
matrix.
"""

import numpy as np
import pytest

from repro.functional import (ExecutionError, Executor, FastExecutor,
                              trace_from_bytes, trace_to_bytes)
from repro.harness import experiments as E
from repro.isa import ProgramBuilder, S, V, assemble
from repro.isa.registers import MVL
from repro.timing.config import BASE
from repro.timing.run import clear_trace_cache, simulate
from repro.verify import differential_check
from repro.workloads import get_workload

_I64_MAX = 0x7FFFFFFFFFFFFFFF
_I64_MIN = -0x8000000000000000


def _run_both(prog, threads=1):
    ref = Executor(prog, num_threads=threads)
    ref_trace = ref.run()
    fast = FastExecutor(prog, num_threads=threads)
    fast_trace = fast.run()
    return ref, ref_trace, fast, fast_trace


def _assert_identical(ref, ref_trace, fast, fast_trace):
    assert trace_to_bytes(fast_trace) == trace_to_bytes(ref_trace)
    assert bytes(fast.mem.u8) == bytes(ref.mem.u8)
    for sr, sf in zip(ref.states, fast.states):
        assert sr.s == sf.s
        assert sr.f == sf.f
        assert np.array_equal(sr.v_i, sf.v_i)
        assert np.array_equal(
            sr.v_f.view(np.int64), sf.v_f.view(np.int64))
        assert np.array_equal(sr.vm, sf.vm)
        assert sr.vl == sf.vl
        assert sr.pc == sf.pc


# --------------------------------------------------------------------------
# The fast engine's traces against the oracle's, end to end
# --------------------------------------------------------------------------

class TestEngineSelection:
    def test_simulate_accepts_fast(self):
        """The oracle's trace, replayed, times like the default run of
        the fast engine's trace."""
        prog = get_workload("mpenc").program()
        reference = Executor(prog, num_threads=1).run()
        clear_trace_cache()
        assert simulate(prog, BASE, trace=reference) == simulate(prog, BASE)

    def test_differential_check_fast(self):
        prog = get_workload("mpenc").program()
        report = differential_check(prog, BASE)
        assert report.ok, report.render()


# --------------------------------------------------------------------------
# Full-matrix bit-identity (the tentpole's acceptance bar)
# --------------------------------------------------------------------------

def _matrix_combos():
    seen = set()
    combos = []
    for spec in E.matrix_for(["fig3", "fig5", "fig6"]):
        key = (spec.app, spec.threads, spec.scalar_only)
        if key not in seen:
            seen.add(key)
            combos.append(key)
    return combos


class TestMatrixBitIdentity:
    @pytest.mark.parametrize("app,threads,scalar_only", _matrix_combos())
    def test_trace_and_state_identical(self, app, threads, scalar_only):
        prog = get_workload(app).program(scalar_only=scalar_only)
        ref, ref_trace, fast, fast_trace = _run_both(prog, threads)
        _assert_identical(ref, ref_trace, fast, fast_trace)

    def test_second_run_hits_expansion_cache(self):
        """A rerun of the same program reuses the decoded program and
        its cross-run expansion cache -- and must stay bit-identical."""
        prog = get_workload("mpenc").program()
        ref_trace = Executor(prog, num_threads=2).run()
        first = FastExecutor(prog, num_threads=2)
        assert trace_to_bytes(first.run()) == trace_to_bytes(ref_trace)
        second = FastExecutor(prog, num_threads=2)
        assert second._dp is first._dp   # shared decode
        assert trace_to_bytes(second.run()) == trace_to_bytes(ref_trace)

    def test_trace_round_trips(self):
        prog = get_workload("trfd").program()
        trace = FastExecutor(prog, num_threads=2).run()
        again = trace_from_bytes(trace_to_bytes(trace))
        assert trace_to_bytes(again) == trace_to_bytes(trace)
        assert again.total_ops() == trace.total_ops()


# --------------------------------------------------------------------------
# Control-flow shapes the block compiler specializes
# --------------------------------------------------------------------------

class TestControlFlowParity:
    def test_computed_jump(self):
        src = """
        .space out 64
        li s2, &out
        jal s10, target
        li s3, 1
        st s3, 0(s2)
        halt
        target:
        li s3, 42
        st s3, 8(s2)
        jr s10
        """
        prog = assemble(src)
        _assert_identical(*_run_both(prog))

    def test_tid_divergent_branches(self):
        src = """
        .space out 256
        tid s1
        slli s2, s1, 3
        li s3, &out
        add s3, s3, s2
        andi s4, s1, 1
        bne s4, s0, odd
        li s5, 100
        st s5, 0(s3)
        j done
        odd:
        li s5, 200
        st s5, 0(s3)
        done:
        barrier
        halt
        """
        prog = assemble(src)
        _assert_identical(*_run_both(prog, threads=4))

    def test_tight_self_loop_rep_block(self):
        """A self-looping block takes the rep-specialized path; the
        expanded trace must match the reference op for op."""
        src = """
        .space out 64
        li s1, 0
        li s2, 10000
        loop:
        addi s1, s1, 1
        blt s1, s2, loop
        li s3, &out
        st s1, 0(s3)
        halt
        """
        prog = assemble(src)
        ref, ref_trace, fast, fast_trace = _run_both(prog)
        _assert_identical(ref, ref_trace, fast, fast_trace)
        assert ref.states[0].s[1] == 10000

    def test_vltcfg_and_masked_loop(self):
        src = """
        .space x 2048
        li s5, 0
        li s6, 6
        vltcfg 2
        rep:
        li s1, 64
        setvl s2, s1
        li s3, &x
        vld v1, 0(s3)
        vslt.vs v1, s5
        vadd.vs.m v2, v1, s6
        vst v2, 0(s3)
        addi s5, s5, 1
        blt s5, s6, rep
        halt
        """
        prog = assemble(src)
        _assert_identical(*_run_both(prog, threads=2))


# --------------------------------------------------------------------------
# Error parity
# --------------------------------------------------------------------------

class TestErrorParity:
    def _both_raise(self, prog, match, threads=1):
        with pytest.raises(ExecutionError, match=match):
            Executor(prog, num_threads=threads, max_ops=50_000).run()
        with pytest.raises(ExecutionError, match=match):
            FastExecutor(prog, num_threads=threads, max_ops=50_000).run()

    def test_runaway_self_loop(self):
        b = ProgramBuilder("spin", memory_kib=64)
        b.label("loop")
        b.op("addi", S(1), S(1), 1)
        b.op("blt", S(0), S(1), "loop")
        b.op("halt")
        self._both_raise(b.build(), "dynamic instructions")

    def test_runaway_multi_block_loop(self):
        src = """
        top:
        addi s1, s1, 1
        j top
        halt
        """
        self._both_raise(assemble(src), "dynamic instructions")

    def test_invalid_jump_target(self):
        b = ProgramBuilder("bad", memory_kib=64)
        b.op("li", S(1), 9999)
        b.op("jr", S(1))
        b.op("halt")
        self._both_raise(b.build(), "invalid pc")

    def test_barrier_deadlock(self):
        src = """
        tid s1
        bne s1, s0, skip
        barrier
        skip:
        halt
        """
        self._both_raise(assemble(src), "deadlock|barrier", threads=2)

    def test_memory_fault_parity(self):
        b = ProgramBuilder("oob", memory_kib=64)
        b.op("li", S(1), 1 << 40)
        b.op("ld", S(2), (0, S(1)))
        b.op("halt")
        prog = b.build()
        with pytest.raises(Exception) as ref_exc:
            Executor(prog).run()
        with pytest.raises(Exception) as fast_exc:
            FastExecutor(prog).run()
        assert type(fast_exc.value) is type(ref_exc.value)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_vector_fault_parity(self):
        src = """
        .space x 512
        li s1, 64
        setvl s2, s1
        li s3, &x
        addi s3, s3, 4
        vld v1, 0(s3)
        halt
        """
        prog = assemble(src)
        with pytest.raises(Exception) as ref_exc:
            Executor(prog).run()
        with pytest.raises(Exception) as fast_exc:
            FastExecutor(prog).run()
        assert type(fast_exc.value) is type(ref_exc.value)
        assert str(fast_exc.value) == str(ref_exc.value)


# --------------------------------------------------------------------------
# Semantic corners (reference semantics, asserted on both engines)
# --------------------------------------------------------------------------

def _executor_for(engine):
    return FastExecutor if engine == "fast" else Executor


@pytest.mark.parametrize("engine", ("reference", "fast"))
class TestSemanticCorners:
    def _run(self, engine, setup, n=8, xi=None):
        rng = np.random.default_rng(7)
        if xi is None:
            xi = rng.integers(-1000, 1000, size=n, dtype=np.int64)
        b = ProgramBuilder("corner", memory_kib=64)
        b.data_i64("x", xi)
        b.space("out", max(n, MVL) * 8)
        b.op("li", S(1), n)
        b.op("setvl", S(2), S(1))
        b.la(S(3), "x")
        b.la(S(7), "out")
        b.op("vld", V(1), (0, S(3)))
        setup(b)
        b.op("halt")
        prog = b.build()
        ex = _executor_for(engine)(prog, num_threads=1)
        ex.run()
        return ex, prog, xi

    def test_scalar_shift_amount_masked_low6(self, engine):
        b = ProgramBuilder("shift", memory_kib=64)
        b.op("li", S(1), 1)
        b.op("li", S(2), 67)            # 67 & 63 == 3
        b.op("sll", S(3), S(1), S(2))
        b.op("li", S(4), -8)
        b.op("sra", S(5), S(4), S(2))
        b.op("srl", S(6), S(4), S(2))
        b.op("halt")
        ex = _executor_for(engine)(b.build())
        ex.run()
        st = ex.states[0]
        assert st.s[3] == 1 << 3
        assert st.s[5] == -1
        assert st.s[6] == ((-8) & 0xFFFFFFFFFFFFFFFF) >> 3

    def test_vector_shift_amount_masked_low6(self, engine):
        xi = np.arange(1, 9, dtype=np.int64)
        def body(b):
            b.op("li", S(4), 65)        # 65 & 63 == 1
            b.op("vsll.vs", V(2), V(1), S(4))
            b.op("vst", V(2), (0, S(7)))
        ex, prog, xi = self._run(engine, body, xi=xi)
        got = ex.mem.read_i64_array(prog.symbol_addr("out"), 8)
        assert np.array_equal(got, xi << 1)

    def test_scalar_div_rem_by_zero(self, engine):
        b = ProgramBuilder("divz", memory_kib=64)
        b.op("li", S(1), 37)
        b.op("div", S(2), S(1), S(0))
        b.op("rem", S(3), S(1), S(0))
        b.op("li", S(4), -37)
        b.op("div", S(5), S(4), S(0))
        b.op("halt")
        ex = _executor_for(engine)(b.build())
        ex.run()
        st = ex.states[0]
        assert st.s[2] == 0 and st.s[3] == 0 and st.s[5] == 0

    def test_vector_div_rem_by_zero(self, engine):
        xi = np.array([7, -7, 0, 5, -5, 9, -9, 1], dtype=np.int64)
        def body(b):
            b.op("vdiv.vs", V(2), V(1), S(0))
            b.op("vrem.vs", V(3), V(1), S(0))
            b.op("vadd.vv", V(4), V(2), V(3))
            b.op("vst", V(4), (0, S(7)))
        ex, prog, _ = self._run(engine, body, xi=xi)
        got = ex.mem.read_i64_array(prog.symbol_addr("out"), 8)
        assert np.array_equal(got, np.zeros(8, dtype=np.int64))

    def test_scalar_wraparound(self, engine):
        b = ProgramBuilder("wrap", memory_kib=64)
        b.op("li", S(1), _I64_MAX)
        b.op("addi", S(2), S(1), 1)     # wraps to I64_MIN
        b.op("mul", S(3), S(1), S(1))   # wraps, stays in 64 bits
        b.op("halt")
        ex = _executor_for(engine)(b.build())
        ex.run()
        st = ex.states[0]
        assert st.s[2] == _I64_MIN
        assert st.s[3] == ((_I64_MAX * _I64_MAX + (1 << 63))
                           % (1 << 64)) - (1 << 63)

    def test_vector_wraparound(self, engine):
        xi = np.full(8, _I64_MAX, dtype=np.int64)
        def body(b):
            b.op("li", S(4), 1)
            b.op("vadd.vs", V(2), V(1), S(4))
            b.op("vst", V(2), (0, S(7)))
        ex, prog, _ = self._run(engine, body, xi=xi)
        got = ex.mem.read_i64_array(prog.symbol_addr("out"), 8)
        assert np.array_equal(got, np.full(8, _I64_MIN, dtype=np.int64))

    def test_masked_lanes_not_written(self, engine):
        xi = np.array([-4, 3, -2, 1, -8, 5, -6, 7], dtype=np.int64)
        def body(b):
            b.op("li", S(4), 1000)
            b.op("vadd.vs", V(2), V(1), S(4))   # prefill dst
            b.op("vslt.vs", V(1), S(0))         # mask = x < 0
            b.op("li", S(5), 0)
            b.op("vmul.vs", V(2), V(1), S(5), masked=True)
            b.op("vst", V(2), (0, S(7)))
        ex, prog, _ = self._run(engine, body, xi=xi)
        got = ex.mem.read_i64_array(prog.symbol_addr("out"), 8)
        want = np.where(xi < 0, 0, xi + 1000)
        assert np.array_equal(got, want)

    def test_masked_store_leaves_memory(self, engine):
        xi = np.array([-4, 3, -2, 1, -8, 5, -6, 7], dtype=np.int64)
        def body(b):
            b.op("li", S(4), 111)
            b.op("vadd.vs", V(2), V(1), S(4))
            b.op("vst", V(2), (0, S(7)))        # baseline out = x + 111
            b.op("vslt.vs", V(1), S(0))         # mask = x < 0
            b.op("vst", V(1), (0, S(7)), masked=True)
        ex, prog, _ = self._run(engine, body, xi=xi)
        got = ex.mem.read_i64_array(prog.symbol_addr("out"), 8)
        want = np.where(xi < 0, xi, xi + 111)
        assert np.array_equal(got, want)
