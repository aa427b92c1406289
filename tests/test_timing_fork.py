"""Shared replay prefixes: ``Machine.fork`` and ``SharedPrefix``.

Configurations that differ only in the vector unit replay one prefix:
the first run stops at the start of the first cycle in which a thread
could reach the vector unit, keeps a fork of its machine, and every
later run finishes from its own fork.  Each shared result must equal
an unshared replay of the same configuration, field by field.
"""

from dataclasses import replace

import pytest

from repro.isa import assemble
from repro.obs import EventBus, EventLog
from repro.timing import Machine, SharedPrefix, simulate, trace_for
from repro.timing.config import (BASE, CMT, V2_CMP, VectorUnitConfig,
                                 base_config)
from repro.timing.scalar_unit import first_vu_op
from repro.timing.vcl import VectorUnit
from repro.workloads import get_workload
from tests import goldens
from tests.test_obs_events import _UNIT_STREAMS

#: the lane sweep the tests share prefixes across
LANES = [base_config(1), base_config(2), BASE]

_SCALAR_LOOP = """
    li   s10, 0
    li   s11, 150
    li   s2, &buf
scalar:
    ld   s3, 0(s2)
    addi s3, s3, 1
    st   s3, 0(s2)
    addi s2, s2, 8
    addi s10, s10, 1
    blt  s10, s11, scalar
"""

_VECTOR_LOOP = """
    li   s1, 200
    li   s2, &x
    li   s3, &y
    fli  f1, 2.0
strip:
    setvl s4, s1
    vld  v1, 0(s2)
    vfmul.vs v2, v1, f1
    vst  v2, 0(s3)
    sub  s1, s1, s4
    slli s5, s4, 3
    add  s2, s2, s5
    add  s3, s3, s5
    bne  s1, s0, strip
"""

_DATA = """
.space buf 1200
.space x 1600
.space y 1600
"""

#: no vector op: every configuration's result comes from one final state
SCALAR = _DATA + _SCALAR_LOOP + "    barrier\n    halt\n"
#: a scalar loop, then vector work
SCALAR_THEN_VECTOR = _DATA + _SCALAR_LOOP + _VECTOR_LOOP + "    halt\n"
#: a no-op vltcfg, a scalar loop, then a vltcfg that repartitions before
#: the first vector op
REPARTITION_FIRST = (_DATA + "    vltcfg 0\n" + _SCALAR_LOOP
                     + "    vltcfg 2\n" + _VECTOR_LOOP
                     + "    vltcfg 0\n    halt\n")


def _records(results):
    return [goldens.record(r) for r in results]


def _shared_and_alone(src, configs=LANES):
    prog = assemble(src, memory_kib=64)
    trace = trace_for(prog, 1)
    share = SharedPrefix()
    shared = [simulate(prog, c, trace=trace, share=share) for c in configs]
    alone = [simulate(prog, c, trace=trace) for c in configs]
    return shared, alone, share


class TestSharedEqualsAlone:
    def test_no_vector_op_results_come_from_the_final_state(self):
        shared, alone, share = _shared_and_alone(SCALAR)
        assert share.snapshot.done
        assert share.snapshot.cycle == shared[0].cycles
        assert _records(shared) == _records(alone)
        # the vector-unit fields still follow each configuration
        assert [r.partition_lanes for r in shared] == [[1], [2], [8]]
        assert [r.utilization.all_idle for r in shared] == [
            3 * n * shared[0].cycles for n in (1, 2, 8)]

    def test_stop_comes_before_the_first_dispatch(self, monkeypatch):
        dispatches = []
        real = VectorUnit.dispatch

        def spy(self, tid, sentry, cycle, *args):
            dispatches.append(cycle)
            return real(self, tid, sentry, cycle, *args)

        monkeypatch.setattr(VectorUnit, "dispatch", spy)
        shared, alone, share = _shared_and_alone(SCALAR_THEN_VECTOR)
        snap = share.snapshot
        assert not snap.done and snap.vu.dispatched == 0
        # the 150-iteration scalar loop ran inside the shared prefix
        assert 150 < snap.cycle <= min(dispatches)
        assert _records(shared) == _records(alone)
        assert len({r.cycles for r in shared}) == 3

    def test_repartitioning_vltcfg_reaches_the_vector_unit(self):
        prog = assemble(REPARTITION_FIRST, memory_kib=64)
        trace = trace_for(prog, 1)
        replay = trace.threads[0].replay()
        first = first_vu_op(replay, 1, 1)
        assert replay.ops[first].op == "vltcfg"
        assert replay.imms[first] == 2     # not the leading no-op vltcfg
        share = SharedPrefix()
        # one lane cannot be split in two: both replays fail alike, and
        # the shared one only after it kept its snapshot
        for s in (share, None):
            with pytest.raises(ValueError, match="cannot split 1 lanes"):
                simulate(prog, LANES[0], trace=trace, share=s)
        snap = share.snapshot
        assert snap.vu.repartitions == 0
        assert snap.sus[0].contexts[0].fetch_idx <= first
        shared = [simulate(prog, c, trace=trace, share=share)
                  for c in LANES[1:]]
        alone = [simulate(prog, c, trace=trace) for c in LANES[1:]]
        assert _records(shared) == _records(alone)

    def test_later_runs_replay_alone_when_the_first_fails_early(self):
        # two threads on V2-CMP: one lane cannot host two partitions
        one, *rest = [replace(V2_CMP, name=f"V2-CMP-{n}lane",
                              vu=VectorUnitConfig(lanes=n))
                      for n in (1, 2, 8)]
        prog = assemble(SCALAR_THEN_VECTOR, memory_kib=64)
        trace = trace_for(prog, 2)
        share = SharedPrefix()
        with pytest.raises(ValueError, match="more threads than lanes"):
            simulate(prog, one, num_threads=2, trace=trace, share=share)
        shared = [simulate(prog, c, num_threads=2, trace=trace, share=share)
                  for c in rest]
        assert share.claimed and share.snapshot is None
        alone = [simulate(prog, c, num_threads=2, trace=trace)
                 for c in rest]
        assert _records(shared) == _records(alone)


class TestFork:
    @pytest.fixture(scope="class")
    def trace(self):
        return trace_for(assemble(SCALAR_THEN_VECTOR, memory_kib=64), 1)

    def test_two_forks_of_one_snapshot_agree(self, trace):
        snap = Machine(LANES[0], trace.threads)
        snap.run_loop(stop=True)
        a, b = snap.fork(BASE), snap.fork(BASE)
        assert a.sus[0] is not b.sus[0] and a.l2 is not b.l2
        alone = Machine(BASE, trace.threads).run()
        assert _records([a.run(), b.run()]) == _records([alone, alone])
        # the snapshot itself never moved
        assert snap.vu.dispatched == 0 and not snap.done

    def test_fork_refuses_other_scalar_units(self, trace):
        m = Machine(BASE, trace.threads)
        su = BASE.scalar_units[0]
        for cfg in (replace(BASE, scalar_units=(su.halved(),)),
                    replace(BASE, barrier_overhead=31),
                    replace(CMT, scalar_units=BASE.scalar_units)):
            with pytest.raises(ValueError, match="more than the vector"):
                m.fork(cfg)
        m.fork(replace(base_config(2), name="renamed"))   # name and vu only

    def test_fork_refuses_a_used_vector_unit(self, trace):
        m = Machine(BASE, trace.threads)
        m.run_loop()
        assert m.vu.dispatched
        with pytest.raises(RuntimeError, match="has been used"):
            m.fork(base_config(2))


class TestTracedRunsDoNotShare:
    def test_pinned_stream_unchanged_next_to_a_share(self):
        """A traced run ignores its group's snapshot: trfd base/1 keeps
        its pinned SU/VCL event stream."""
        events, digest = _UNIT_STREAMS["trfd", "base", 1]
        prog = get_workload("trfd").program()
        trace = trace_for(prog, 1)
        share = SharedPrefix()
        simulate(prog, base_config(2), trace=trace, share=share)
        assert share.snapshot is not None
        bus = EventBus()
        log = EventLog(max_events=2_000_000)
        bus.attach(log)
        simulate(prog, BASE, trace=trace, obs=bus, share=share)
        assert log.dropped == 0 and len(log.events) == events
        assert goldens.events_digest(log) == digest
        # and a traced first member does not claim the share
        fresh = SharedPrefix()
        bus = EventBus()
        bus.attach(EventLog(max_events=10))
        simulate(prog, BASE, trace=trace, obs=bus, share=fresh)
        assert not fresh.claimed and fresh.snapshot is None
