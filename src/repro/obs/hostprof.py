"""Host-side self-profiling: wall time per simulation phase.

The ROADMAP north-star ("as fast as the hardware allows") needs a perf
trajectory we can regress against.  :class:`PhaseProfiler` is a tiny
deterministic-overhead phase timer: callers bracket work with
``with prof.phase("replay"):`` and the profiler accumulates wall time
and call counts per phase name.  :func:`repro.timing.run.simulate`
threads one through the canonical phases:

* ``trace_generation`` -- functional execution producing the trace,
  including its layout check and row decode (skipped on a
  memoised-trace hit);
* ``setup`` -- machine construction (building the trace's replay form
  on its first replay) and code pre-touch;
* ``replay`` -- the cycle-level main loop;
* ``stats`` -- end-of-run result assembly.

``benchmarks/bench_simulator_speed.py`` writes these numbers into
``BENCH_simulator_speed.json`` so future PRs can diff them.

Phases are timed *through* the fleet-telemetry span primitive
(:func:`repro.obs.telemetry.span`): when an ambient
:class:`~repro.obs.telemetry.SpanCollector` is installed (a telemetry
sweep), every phase also lands on the host-side timeline as a nested
span -- one measurement, two consumers.  Without a collector the span
is a bare ``perf_counter`` pair, so this file's numbers (and the
``BENCH_simulator_speed.json`` they feed) are unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from .telemetry import span


@dataclass
class PhaseTiming:
    """Accumulated wall time for one named phase."""

    name: str
    wall_s: float = 0.0
    calls: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"wall_s": self.wall_s, "calls": self.calls}


@dataclass
class PhaseProfiler:
    """Accumulates wall time per named phase (re-entrant per name)."""

    phases: Dict[str, PhaseTiming] = field(default_factory=dict)
    #: insertion order of first appearance, for stable reports
    _order: List[str] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        try:
            with span(name) as handle:
                yield
        finally:
            pt = self.phases.get(name)
            if pt is None:
                pt = self.phases[name] = PhaseTiming(name)
                self._order.append(name)
            pt.wall_s += handle.dur_s
            pt.calls += 1

    @property
    def total_wall_s(self) -> float:
        return sum(p.wall_s for p in self.phases.values())

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {name: self.phases[name].as_dict() for name in self._order}

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulations into this one."""
        for name in other._order:
            pt = other.phases[name]
            mine = self.phases.get(name)
            if mine is None:
                mine = self.phases[name] = PhaseTiming(name)
                self._order.append(name)
            mine.wall_s += pt.wall_s
            mine.calls += pt.calls

    def merge_dict(self, phases: Dict[str, Dict[str, object]]) -> None:
        """Fold an :meth:`as_dict` dump (e.g. shipped back from a worker
        process) into this profiler."""
        for name, fields in phases.items():
            mine = self.phases.get(name)
            if mine is None:
                mine = self.phases[name] = PhaseTiming(name)
                self._order.append(name)
            mine.wall_s += float(fields["wall_s"])
            mine.calls += int(fields["calls"])

    def report(self) -> str:
        """Human-readable phase breakdown."""
        total = self.total_wall_s
        lines = ["host-side phase profile:"]
        if not self._order:
            lines.append("  (no phases recorded)")
            return "\n".join(lines)
        width = max(len(n) for n in self._order)
        for name in self._order:
            pt = self.phases[name]
            share = pt.wall_s / total if total else 0.0
            lines.append(
                f"  {name:<{width}}  {pt.wall_s * 1e3:9.2f} ms  "
                f"{share:6.1%}  ({pt.calls} call"
                f"{'s' if pt.calls != 1 else ''})")
        lines.append(f"  {'total':<{width}}  {total * 1e3:9.2f} ms")
        return "\n".join(lines)
