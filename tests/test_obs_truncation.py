"""Event-log truncation must be loud: dropped counts and report headers."""

from repro.isa import assemble
from repro.obs import EventLog
from repro.obs.events import Event
from repro.obs.stall_report import render_stall_report, stall_attribution
from repro.timing import simulate_traced
from repro.timing.config import BASE

_SRC = """
.space x 1024
li s1, 16
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfadd.vv v2, v1, v1
vst v2, 0(s3)
li s4, 0
li s5, 20
loop:
addi s4, s4, 1
blt s4, s5, loop
halt
"""


class TestEventLogDropCounter:
    def test_counts_dropped_events(self):
        log = EventLog(max_events=2)
        for c in range(5):
            log.on_event(Event(cycle=c, kind="issue", unit="SU0"))
        assert log.truncated
        assert len(log.events) == 2
        assert log.dropped == 3

    def test_filtered_events_not_counted_as_dropped(self):
        log = EventLog(max_events=1, kinds=frozenset({"issue"}))
        log.on_event(Event(cycle=0, kind="issue", unit="SU0"))
        assert log.truncated
        log.on_event(Event(cycle=1, kind="stall", unit="SU0"))   # filtered
        log.on_event(Event(cycle=2, kind="issue", unit="SU0"))   # dropped
        assert log.dropped == 1

    def test_untruncated_log_has_zero_dropped(self):
        log = EventLog(max_events=100)
        log.on_event(Event(cycle=0, kind="issue", unit="SU0"))
        assert not log.truncated
        assert log.dropped == 0


class TestTruncationSurfacing:
    def _traced(self, max_events):
        return simulate_traced(assemble(_SRC), BASE, max_events=max_events)

    def test_attribution_carries_event_log_census(self):
        tr = self._traced(max_events=10)
        attr = stall_attribution(tr.result, events=tr.events)
        assert attr["event_log"]["truncated"] is True
        assert attr["event_log"]["recorded"] == 10
        assert attr["event_log"]["dropped"] > 0

    def test_report_header_warns_with_dropped_count(self):
        tr = self._traced(max_events=10)
        report = render_stall_report(tr.result, events=tr.events)
        assert "WARNING: event log truncated" in report
        assert f"{tr.events.dropped} dropped" in report

    def test_no_warning_when_not_truncated(self):
        tr = self._traced(max_events=1_000_000)
        assert not tr.events.truncated
        report = render_stall_report(tr.result, events=tr.events)
        assert "WARNING" not in report

    def test_cli_metrics_summary_mentions_truncation(self):
        from repro.harness.cli import run_trace
        from repro.harness.runner import RunSpec
        text = run_trace(RunSpec("mpenc", "base"), max_events=50)
        assert "event log: TRUNCATED at 50 events" in text
        assert "dropped" in text
