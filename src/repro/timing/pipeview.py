"""Pipeline-event viewer: see what the machine issues, cycle by cycle.

:class:`PipeView` is one consumer of the observability event bus
(:mod:`repro.obs.events`): it subscribes to the instruction-issue event
kinds and renders them as a chronological listing or a per-unit
occupancy strip -- handy for debugging kernels and for teaching what the
timing model does::

    from repro.timing.pipeview import PipeView, simulate_with_pipeview

    view, result = simulate_with_pipeview(prog, BASE, num_threads=1,
                                          max_events=200)
    print(view.listing())
    print(view.strip(width=64))

For richer consumers (Chrome/Perfetto traces, metrics, stall
attribution) attach the sinks in :mod:`repro.obs` to the same bus --
see :func:`repro.timing.run.simulate_traced`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.program import Program
from ..obs.events import Event, EventBus, ISSUE, LANE_ISSUE, VISSUE
from .config import MachineConfig
from .machine import Machine
from .run import trace_for
from .stats import RunResult


@dataclass
class PipeEvent:
    cycle: int
    unit: str
    kind: str     # "issue" (scalar/lane) or "vissue" (vector)
    op: str
    pc: int
    vl: int


class PipeView:
    """Bounded collector of pipeline issue events (an event-bus sink).

    Attach it to an :class:`~repro.obs.events.EventBus`, as
    :func:`simulate_with_pipeview` does.
    """

    #: kind labels of the renderings; lane issues read as "issue"
    _KIND = {ISSUE: "issue", VISSUE: "vissue", LANE_ISSUE: "issue"}

    def __init__(self, max_events: int = 1000,
                 start_cycle: int = 0):
        self.max_events = max_events
        self.start_cycle = start_cycle
        self.events: List[PipeEvent] = []
        self._full = False

    # event-bus sink interface
    def on_event(self, event: Event) -> None:
        kind = self._KIND.get(event.kind)
        if kind is None or self._full or event.cycle < self.start_cycle:
            return
        op = event.dynop
        self.events.append(PipeEvent(event.cycle, event.unit, kind, op.op,
                                     op.pc, op.vl))
        if len(self.events) >= self.max_events:
            self._full = True

    @property
    def truncated(self) -> bool:
        return self._full

    def units(self) -> List[str]:
        seen: Dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.unit)
        return sorted(seen)

    # -- renderings ----------------------------------------------------------

    def listing(self, limit: Optional[int] = None) -> str:
        """Chronological event log."""
        rows = ["cycle  unit        event   op"]
        for e in self.events[:limit]:
            extra = f" vl={e.vl}" if e.kind == "vissue" else ""
            rows.append(f"{e.cycle:>5}  {e.unit:<10}  {e.kind:<6}  "
                        f"{e.op}{extra} (pc {e.pc})")
        if self.truncated:
            rows.append(f"... truncated at {self.max_events} events")
        return "\n".join(rows)

    def strip(self, width: int = 72) -> str:
        """Per-unit occupancy strip: one character per cycle.

        ``#`` = at least one issue that cycle, ``.`` = none.  The window
        starts at the first recorded event.
        """
        if not self.events:
            return "(no events)"
        t0 = self.events[0].cycle
        issued: Dict[str, set] = {}
        for e in self.events:
            issued.setdefault(e.unit, set()).add(e.cycle - t0)
        out = [f"cycles {t0}..{t0 + width - 1} (one column per cycle)"]
        for unit in self.units():
            cells = issued.get(unit, set())
            row = "".join("#" if c in cells else "."
                          for c in range(width))
            out.append(f"{unit:<10} |{row}|")
        return "\n".join(out)

    def issues_per_cycle(self) -> Dict[int, int]:
        """Issue-count histogram keyed by cycle."""
        hist: Dict[int, int] = {}
        for e in self.events:
            hist[e.cycle] = hist.get(e.cycle, 0) + 1
        return hist


def simulate_with_pipeview(
        program: Program, cfg: MachineConfig, num_threads: int = 1,
        max_events: int = 1000, start_cycle: int = 0,
        max_cycles: int = 50_000_000) -> Tuple[PipeView, RunResult]:
    """Run a simulation with an attached :class:`PipeView`."""
    view = PipeView(max_events=max_events, start_cycle=start_cycle)
    bus = EventBus()
    bus.attach(view)
    trace = trace_for(program, num_threads)
    machine = Machine(cfg, trace.threads, max_cycles=max_cycles, obs=bus)
    result = machine.run()
    result.program_name = trace.program_name
    return view, result
