"""L1/L2 coherence (paper Section 2) and the lsync memory fence."""

import pytest

from repro.isa import assemble, spec
from repro.timing import clear_trace_cache, simulate
from repro.timing.config import BASE, V2_CMP
from repro.timing.machine import Machine
from repro.timing.run import trace_for


def machine_for(src, cfg=BASE, nt=1):
    prog = assemble(src)
    tr = trace_for(prog, nt)
    return Machine(cfg, tr.threads)


class TestVectorStoreInvalidatesL1:
    def test_scalar_reload_misses_after_vector_store(self):
        # scalar load warms the L1 line; a vector store to the same line
        # must invalidate it, so the scalar reload misses again
        src = """
        .space x 512
        li s1, &x
        ld s2, 0(s1)          # warm the line
        li s3, 8
        setvl s4, s3
        vmv.s v1, s3
        vst v1, 0(s1)         # vector store hits the same line
        lsync
        ld s5, 0(s1)          # must miss (invalidated)
        halt
        """
        m = machine_for(src)
        m.run()
        su = m.sus[0]
        assert su.stats.l1d_accesses == 2
        assert su.stats.l1d_misses == 2

    def test_no_spurious_invalidation_of_other_lines(self):
        src = """
        .space x 512
        .space y 512
        li s1, &x
        li s6, &y
        ld s2, 0(s6)          # warm y's line
        li s3, 8
        setvl s4, s3
        vmv.s v1, s3
        vst v1, 0(s1)         # store to x only
        lsync
        ld s5, 0(s6)          # y still cached: hit
        halt
        """
        m = machine_for(src)
        m.run()
        su = m.sus[0]
        assert su.stats.l1d_misses == 1


class TestPeerStoreInvalidation:
    def test_peer_su_store_invalidates(self):
        # thread 0 (SU0) warms a line; thread 1 (SU1) stores to it;
        # thread 0's reload must miss
        src = """
        .space x 512
        tid s1
        li s2, &x
        bne s1, s0, writer
        ld s3, 0(s2)          # t0 warms SU0's L1
        barrier
        barrier
        ld s4, 0(s2)          # must miss: SU1 wrote the line
        halt
        writer:
        barrier
        li s5, 7
        st s5, 0(s2)
        barrier
        halt
        """
        m = machine_for(src, cfg=V2_CMP, nt=2)
        m.run()
        su0 = m.sus[0]
        assert su0.stats.l1d_accesses == 2
        assert su0.stats.l1d_misses == 2

    def test_own_store_keeps_line(self):
        src = """
        .space x 512
        li s1, &x
        li s2, 7
        st s2, 0(s1)
        ld s3, 0(s1)          # own store allocated the line: hit
        halt
        """
        m = machine_for(src)
        m.run()
        su = m.sus[0]
        assert su.stats.l1d_misses == 1  # only the store's cold miss


class TestLsync:
    def test_opcode_registered(self):
        s = spec("lsync")
        assert s.is_lsync and s.sig == ()

    def test_lsync_orders_after_vector_completion(self):
        # without lsync the trailing scalar work ends immediately; with
        # it, fetch holds until the (slow, strided) vector store drains
        body = """
        .space x 65536
        li s1, 64
        setvl s2, s1
        li s3, &x
        li s4, 1024
        vmv.s v1, s1
        vsts v1, 0(s3), s4
        {fence}
        li s5, 1
        halt
        """
        clear_trace_cache()
        without = simulate(assemble(body.format(fence="nop"),
                                    memory_kib=128), BASE)
        clear_trace_cache()
        withf = simulate(assemble(body.format(fence="lsync"),
                                  memory_kib=128), BASE)
        # both runs end after the store drains (machine waits for the
        # VU), but the fenced version must not be *faster*
        assert withf.cycles >= without.cycles

    def test_lsync_noop_without_vector_work(self):
        prog = assemble("lsync\nlsync\nli s1, 1\nhalt")
        r = simulate(prog, BASE)
        assert r.cycles < 40
