"""Program content digests and the columnar trace (de)serialization."""

import numpy as np
import pytest

from repro.functional import (TRACE_FORMAT_VERSION, Executor,
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
