"""Event bus semantics and the zero-overhead-when-disabled contract."""

import json

import pytest

from repro.harness.runner import RunSpec
from repro.isa import assemble
from repro.obs import (BANK_CONFLICT, CACHE_MISS, COMMIT, EVENT_KINDS, Event,
                       EventBus, EventLog, ISSUE, LANE_ISSUE, NULL_BUS, STALL,
                       StallReason, VISSUE)
from repro.timing import Machine, simulate, simulate_traced, trace_for
from repro.timing.config import BASE, V2_CMP, VLT_SCALAR, get_config
from repro.workloads import get_workload
from tests import goldens

_VEC_SRC = """
.space x 1024
li s1, 16
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfadd.vv v2, v1, v1
vst v2, 0(s3)
li s4, 0
li s5, 6
loop:
addi s4, s4, 1
blt s4, s5, loop
halt
"""


class _Collector:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestEventBus:
    def test_disabled_until_first_sink(self):
        bus = EventBus()
        assert not bus.enabled
        c = _Collector()
        bus.attach(c)
        assert bus.enabled
        bus.detach(c)
        assert not bus.enabled

    def test_attach_requires_on_event(self):
        with pytest.raises(TypeError):
            EventBus().attach(object())

    def test_emit_reaches_all_sinks_in_order(self):
        bus = EventBus()
        a, b = _Collector(), _Collector()
        bus.attach(a)
        bus.attach(b)
        ev = Event(5, ISSUE, "SU0.c0")
        bus.emit(ev)
        assert a.events == [ev] and b.events == [ev]

    def test_suppress_nests(self):
        bus = EventBus()
        bus.attach(_Collector())
        bus.suppress()
        bus.suppress()
        assert not bus.enabled
        bus.unsuppress()
        assert not bus.enabled
        bus.unsuppress()
        assert bus.enabled

    def test_attach_during_suppression_stays_muted(self):
        bus = EventBus()
        bus.suppress()
        bus.attach(_Collector())
        assert not bus.enabled
        bus.unsuppress()
        assert bus.enabled

    def test_null_bus_is_disabled(self):
        assert NULL_BUS.enabled is False
        assert NULL_BUS.sinks == ()


class TestEvent:
    def test_kind_constants_are_registered(self):
        assert {ISSUE, VISSUE, LANE_ISSUE, COMMIT, STALL, CACHE_MISS,
                BANK_CONFLICT} <= EVENT_KINDS

    def test_dynop_accessors_default(self):
        ev = Event(0, STALL, "SU0", reason=StallReason.L1I_MISS, dur=3)
        assert ev.op == "" and ev.pc == -1 and ev.vl == 0
        assert ev.reason is StallReason.L1I_MISS and ev.dur == 3

    def test_hot_objects_have_no_dict(self):
        # the instrumentation must not fatten per-event / per-bus objects
        # with dynamic attribute storage
        assert not hasattr(Event(0, ISSUE, "u"), "__dict__")
        assert not hasattr(EventBus(), "__dict__")
        with pytest.raises(AttributeError):
            Event(0, ISSUE, "u").bogus = 1


class TestEventLog:
    def _ev(self, cycle, kind=ISSUE):
        return Event(cycle, kind, "u")

    def test_bounded_and_truncated(self):
        log = EventLog(max_events=2)
        for c in range(5):
            log.on_event(self._ev(c))
        assert len(log) == 2 and log.truncated

    def test_kind_filter(self):
        log = EventLog(kinds=frozenset({STALL}))
        log.on_event(self._ev(0, ISSUE))
        log.on_event(self._ev(1, STALL))
        assert [e.kind for e in log.events] == [STALL]

    def test_start_cycle_filter(self):
        log = EventLog(start_cycle=10)
        log.on_event(self._ev(5))
        log.on_event(self._ev(10))
        assert [e.cycle for e in log.events] == [10]

    def test_by_kind(self):
        log = EventLog()
        log.on_event(self._ev(0, ISSUE))
        log.on_event(self._ev(1, COMMIT))
        assert len(log.by_kind(COMMIT)) == 1


class TestDisabledModeIsInert:
    def test_plain_run_attaches_nothing(self):
        prog = assemble(_VEC_SRC)
        trace = trace_for(prog, 1)
        m = Machine(BASE, trace.threads)
        assert m.obs.enabled is False
        assert m.obs.sinks == ()
        m.run()
        assert m.obs.enabled is False

    def test_cycle_counts_identical_with_and_without_tracing(self):
        prog = assemble(_VEC_SRC)
        plain = simulate(prog, BASE)
        traced = simulate_traced(prog, BASE)
        assert traced.result.cycles == plain.cycles
        assert traced.result.utilization == plain.utilization
        assert traced.result.l2_bank_conflict_cycles == \
            plain.l2_bank_conflict_cycles


class TestEnabledModeCountsMatchStats:
    """Traced event counts must reconcile *exactly* with the always-on
    per-unit stats -- the cross-check that keeps both honest."""

    @pytest.mark.parametrize("cfg,threads", [(BASE, 1), (V2_CMP, 2)])
    def test_issue_commit_counts(self, cfg, threads):
        prog = assemble(_VEC_SRC)
        tr = simulate_traced(prog, cfg, num_threads=threads)
        r = tr.result
        counters = tr.metrics.counters()
        assert counters["issued.scalar"] == \
            sum(s.issued for s in r.scalar_units)
        assert counters["issued.vector"] == r.vector_unit.issued
        assert counters["committed.scalar"] == \
            sum(s.committed for s in r.scalar_units)
        assert len(tr.events.by_kind(VISSUE)) == r.vector_unit.issued

    def test_vl_histogram_matches_trace(self):
        prog = assemble(_VEC_SRC)
        tr = simulate_traced(prog, BASE)
        h = tr.metrics.histogram("vl")
        assert h.count == tr.result.vector_unit.issued
        assert set(h.buckets) == {16}

    def test_lane_issue_counts_lane_scalar_mode(self):
        prog = assemble("""
        li s1, 0
        li s2, 30
        loop:
        addi s1, s1, 1
        blt s1, s2, loop
        halt
        """)
        tr = simulate_traced(prog, VLT_SCALAR, num_threads=2)
        issued = sum(s.issued for s in tr.result.lane_cores)
        assert issued > 0
        assert tr.metrics.counters()["issued.lane"] == issued


#: (app, config, threads) -> (events, digest) of the traced run's
#: scalar-unit and vector-unit event stream (:func:`goldens.events_digest`).
#: A configuration without a vector unit runs the app's scalar flavour,
#: as Figure 6 does.
_UNIT_STREAMS = {
    ("trfd", "base", 1): (8_605, "1b0246f9283a968e0e68a7a0ad4ab442"
                                 "ad908aadbb2c0f274dfa60039d62da9d"),
    ("trfd", "V4-CMT", 4): (11_912, "3c9751a16aafc0d25aeba3f3bbf0a498"
                                    "5b5e32da628b13024fa9cab39c7e0734"),
    # SMT contexts sharing one scalar unit
    ("mpenc", "V4-SMT", 4): (65_797, "7681d43e7ea53bd552e7d996f4e6ce94"
                                     "aeab2c9e20d6a54d03dccd22c003d5a4"),
    # four SUs of widths 4 and 2 behind a 4-way multiplexed VCL
    ("trfd", "V4-CMP-h", 4): (11_857, "f8e17aec1300728ecb53fdd493df22b1"
                                      "1ec39576e815b5aded9c58c804ea79ac"),
    # SMT SUs without a vector unit; scalar stores invalidate the peer L1D
    ("barnes", "CMT", 4): (208_451, "bdba8b15e44f3271dd5d4fa7dbbbac89"
                                    "ee8198deff6eb9322098c998c1f54242"),
}


class TestUnitEventStreams:
    """SU/VCL event streams pinned as digests, the counterpart of the
    ocean lane-core digest in ``test_timing_lane_core.py``.  Every
    pinned run is also a Figure 3/5/6 point, so the traced run's result
    must equal its untraced golden as well."""

    @pytest.mark.parametrize("app,config,threads", list(_UNIT_STREAMS))
    def test_stream_matches_golden(self, app, config, threads):
        events, digest = _UNIT_STREAMS[app, config, threads]
        cfg = get_config(config)
        scalar_only = cfg.vu is None
        prog = get_workload(app).program(scalar_only=scalar_only)
        traced = simulate_traced(prog, cfg, num_threads=threads,
                                 max_events=2_000_000)
        log = traced.events
        assert log.dropped == 0
        assert len(log.events) == events
        assert goldens.events_digest(log) == digest
        spec = RunSpec(app, config, threads, scalar_only=scalar_only)
        golden = json.loads(goldens.GOLDEN_PATH.read_text())
        assert goldens.record(traced.result) == golden[str(spec)]
