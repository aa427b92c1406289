"""Program content digests and the columnar trace (de)serialization."""

import numpy as np
import pytest

from repro.functional import (TRACE_FORMAT_VERSION, Executor, FastExecutor,
                              trace_from_bytes, trace_to_bytes)
from repro.isa import assemble

_SRC = """
.space x 1024
tid s9
vltcfg 2
li s1, 16
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfadd.vv v2, v1, v1
vst v2, 0(s3)
li s4, 0
li s5, 3
loop:
addi s4, s4, 1
blt s4, s5, loop
barrier
halt
"""


def _trace(src=_SRC, num_threads=2):
    prog = assemble(src)
    return Executor(prog, num_threads=num_threads, record_trace=True).run()


class TestProgramDigest:
    def test_stable_across_rebuilds(self):
        d1 = assemble(_SRC).digest()
        d2 = assemble(_SRC).digest()
        assert d1 == d2
        assert len(d1) == 64  # hex sha256

    def test_differs_on_content_change(self):
        other = _SRC.replace("li s1, 16", "li s1, 32")
        assert assemble(_SRC).digest() != assemble(other).digest()

    def test_differs_on_data_image_change(self):
        a = assemble(".i64 w 7\nhalt\n")
        b = assemble(".i64 w 8\nhalt\n")
        assert a.digest() != b.digest()

    def test_requires_finalized(self):
        from repro.isa.program import Program
        with pytest.raises(ValueError):
            Program(name="p", memory_bytes=1024).digest()

    def test_memoised(self):
        prog = assemble(_SRC)
        assert prog.digest() is prog.digest()


class TestTraceRoundtrip:
    def _assert_equal(self, a, b):
        assert a.program_name == b.program_name
        assert a.num_threads == b.num_threads
        assert len(a.threads) == len(b.threads)
        for ta, tb in zip(a.threads, b.threads):
            assert ta.tid == tb.tid
            assert len(ta.ops) == len(tb.ops)
            for oa, ob in zip(ta.ops, tb.ops):
                assert oa.pc == ob.pc
                assert oa.op == ob.op
                assert oa.spec is ob.spec  # interned OpSpec identity
                assert oa.reads == ob.reads
                assert oa.writes == ob.writes
                assert oa.vl == ob.vl
                assert oa.taken == ob.taken
                assert oa.tgt == ob.tgt
                assert oa.imm == ob.imm
                if oa.addrs is None:
                    assert ob.addrs is None
                else:
                    assert np.array_equal(oa.addrs, ob.addrs)

    def test_bytes_roundtrip_field_exact(self):
        trace = _trace()
        self._assert_equal(trace, trace_from_bytes(trace_to_bytes(trace)))

    def test_roundtrip_replays_to_identical_cycles(self):
        from repro.timing import simulate
        from repro.timing.config import V2_CMP
        prog = assemble(_SRC)
        trace = _trace()
        direct = simulate(prog, V2_CMP, num_threads=2, trace=trace)
        loaded = trace_from_bytes(trace_to_bytes(trace))
        # decoding attaches the arrays; DynOps are built only on demand
        assert all(t._cols is not None for t in loaded.threads)
        replayed = simulate(prog, V2_CMP, num_threads=2, trace=loaded)
        assert replayed == direct

    def test_version_mismatch_rejected(self, monkeypatch):
        from repro.functional import trace as T
        data = trace_to_bytes(_trace())
        monkeypatch.setattr(T, "TRACE_FORMAT_VERSION",
                            TRACE_FORMAT_VERSION + 1)
        with pytest.raises(ValueError):
            T.trace_from_bytes(data)

    def test_scalar_only_trace(self):
        trace = _trace("li s1, 5\nli s2, 7\nadd s3, s1, s2\nhalt\n",
                       num_threads=1)
        self._assert_equal(trace, trace_from_bytes(trace_to_bytes(trace)))


_SRC_JR = _SRC.replace("barrier\n", "ld s6, 8(s3)\njal s7, sub\nbarrier\n") \
    + "sub:\njr s7\n"


class TestLayout:
    """The trace layout stores each static field once per pc, each op's
    pc once, and each dynamic field once per op that has one."""

    @pytest.mark.parametrize("engine", [Executor, FastExecutor],
                             ids=["reference", "fast"])
    def test_one_entry_per_op_and_per_op_of_its_kind(self, engine):
        prog = assemble(_SRC_JR)
        trace = engine(prog, num_threads=2).run()
        for t in trace.threads:
            cols = t.columns()
            ins = [prog.instrs[pc] for pc in cols["pcs"].tolist()]
            assert len(ins) == len(t) > 0
            rows = sorted({i.pc for i in ins})
            assert cols["row_pcs"].tolist() == rows
            for name in ("row_ops", "row_imms", "row_tgts",
                         "row_has_addrs"):
                assert cols[name].size == len(rows)
            for kind in "rw":
                assert cols[f"row_{kind}_off"].size == len(rows) + 1
            mem = [i for i in ins if i.mem is not None]
            assert cols["vls"].size == sum(i.spec.is_vector for i in ins)
            assert cols["takens"].size == sum(i.spec.is_branch for i in ins)
            assert cols["jr_tgts"].size == sum(i.op == "jr" for i in ins) > 0
            assert cols["addr_counts"].size == len(mem)
            assert cols["addrs"].size == sum(cols["addr_counts"].tolist())
            assert all(n == 1 for i, n in zip(mem, cols["addr_counts"])
                       if not i.spec.is_vector)
