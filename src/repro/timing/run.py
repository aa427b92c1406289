"""High-level simulation API: program -> functional trace -> timing result.

This is the entry point most callers (examples, harness, tests) use::

    from repro.timing import simulate
    from repro.timing.config import BASE

    result = simulate(program, BASE, num_threads=1)
    print(result.cycles)

Functional traces are deterministic for a given ``(program, num_threads)``
pair, so :func:`trace_for` memoises them -- the experiment harness replays
the same trace against many machine configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..functional.fast import FastExecutor
from ..functional.trace import ProgramTrace
from ..functional.trace_cache import TraceCache
from ..isa.program import Program
from ..obs.events import EventBus, EventLog
from ..obs.hostprof import PhaseProfiler
from ..obs.metrics import MetricsRegistry, MetricsSink
from .config import MachineConfig
from .machine import run_traces
from .stats import RunResult

#: in-process memo: (program content digest, num_threads) -> trace.
#: Keying by content rather than ``id(program)`` is load-bearing: a
#: garbage-collected Program's id can be reused by a *different* program,
#: silently aliasing two programs to one trace -- and an identity key
#: cannot back a persistent or cross-process cache at all.
_trace_cache: Dict[Tuple[str, int], ProgramTrace] = {}

#: optional on-disk cache shared across processes and invocations
_disk_cache: Optional[TraceCache] = None

#: fallback profiler used when a call site passes none (lets a sweep
#: driver account for every trace generation in one place)
_default_profiler: Optional[PhaseProfiler] = None


def set_trace_cache_dir(path, sweep: bool = False) -> Optional[TraceCache]:
    """Enable (or, with ``None``, disable) the on-disk trace cache.

    Returns the active :class:`TraceCache`.  The disk cache is keyed by
    program content digest, so it is shared safely between concurrent
    worker processes and survives across ``vlt-repro`` invocations.

    ``sweep=True`` additionally removes stale orphaned ``.tmp`` files at
    attach time; leave it off in fan-out workers (N processes opening
    one shared root must not each stat-walk the whole tree).
    """
    global _disk_cache
    _disk_cache = None if path is None \
        else TraceCache(path, sweep_on_init=sweep)
    return _disk_cache


def get_trace_cache() -> Optional[TraceCache]:
    """The active on-disk trace cache, if any."""
    return _disk_cache


def set_default_profiler(profiler: Optional[PhaseProfiler]) -> None:
    """Install a fallback :class:`PhaseProfiler` for unprofiled calls."""
    global _default_profiler
    _default_profiler = profiler


def trace_for(program: Program, num_threads: int,
              max_ops: int = 20_000_000,
              profiler: Optional[PhaseProfiler] = None) -> ProgramTrace:
    """Functional trace of ``program`` with ``num_threads`` (memoised).

    The cache key is the program's *content digest*
    (:meth:`~repro.isa.program.Program.digest`), so two structurally
    identical programs share one trace, a rebuilt program hits the
    cache, and -- when :func:`set_trace_cache_dir` enabled one -- traces
    are also served from / stored to the on-disk cache.

    A miss runs the block-compiled :class:`FastExecutor`.  Its traces are
    byte-identical to the reference interpreter's, which stays the
    oracle (:func:`repro.verify.differential_check`).
    """
    if profiler is None:
        profiler = _default_profiler
    key = (program.digest(), num_threads)
    cached = _trace_cache.get(key)
    if cached is not None:
        return cached
    disk = _disk_cache
    if disk is not None:
        if profiler is None:
            trace = disk.load_trace(key[0], num_threads)
        else:
            with profiler.phase("trace_cache_load"):
                trace = disk.load_trace(key[0], num_threads)
        if trace is not None:
            _trace_cache[key] = trace
            return trace
    ex = FastExecutor(program, num_threads=num_threads, record_trace=True,
                      max_ops=max_ops)
    if profiler is None:
        trace = ex.run()
    else:
        with profiler.phase("trace_generation"):
            trace = ex.run()
    _trace_cache[key] = trace
    if disk is not None:
        if profiler is None:
            disk.store_trace(key[0], num_threads, trace)
        else:
            with profiler.phase("trace_cache_store"):
                disk.store_trace(key[0], num_threads, trace)
    return trace


def clear_trace_cache() -> None:
    """Drop memoised functional traces (tests / memory hygiene).

    Only the in-process memo is dropped; an on-disk cache enabled via
    :func:`set_trace_cache_dir` keeps its entries (use
    :meth:`TraceCache.clear` for that).
    """
    _trace_cache.clear()


def simulate(program: Program, cfg: MachineConfig, num_threads: int = 1,
             max_cycles: int = 50_000_000,
             trace: Optional[ProgramTrace] = None,
             obs: Optional[EventBus] = None,
             profiler: Optional[PhaseProfiler] = None) -> RunResult:
    """Run ``program`` on machine ``cfg`` and return timing results.

    ``obs`` attaches an observability event bus (see :mod:`repro.obs`);
    ``profiler`` records host-side wall time per simulation phase.
    Neither affects simulated cycle counts.
    """
    if profiler is None:
        profiler = _default_profiler
    if trace is None:
        trace = trace_for(program, num_threads, profiler=profiler)
    elif trace.num_threads != num_threads:
        raise ValueError("supplied trace has a different thread count")
    return run_traces(cfg, trace, max_cycles=max_cycles, obs=obs,
                      profiler=profiler)


@dataclass
class TracedRun:
    """Everything a fully-instrumented simulation run produces."""

    result: RunResult
    events: EventLog
    metrics: MetricsRegistry
    metrics_sink: MetricsSink
    profiler: PhaseProfiler


def simulate_traced(program: Program, cfg: MachineConfig,
                    num_threads: int = 1,
                    max_cycles: int = 50_000_000,
                    trace: Optional[ProgramTrace] = None,
                    max_events: int = 1_000_000,
                    kinds: Optional[frozenset] = None,
                    start_cycle: int = 0) -> TracedRun:
    """Run with the full observability stack attached.

    Wires an :class:`EventLog` (for exporters), a :class:`MetricsSink`
    (VL distribution, stall breakdown, bank-conflict timeline) and a
    :class:`PhaseProfiler` onto one event bus, runs the simulation, and
    returns a :class:`TracedRun`.  ``result.metrics`` is populated with
    the collected registry.
    """
    bus = EventBus()
    log = EventLog(max_events=max_events, kinds=kinds,
                   start_cycle=start_cycle)
    sink = MetricsSink()
    bus.attach(log)
    bus.attach(sink)
    prof = PhaseProfiler()
    result = simulate(program, cfg, num_threads=num_threads,
                      max_cycles=max_cycles, trace=trace, obs=bus,
                      profiler=prof)
    result.metrics = sink.registry
    return TracedRun(result=result, events=log, metrics=sink.registry,
                     metrics_sink=sink, profiler=prof)
