"""Top-level machine model: wiring, barriers, and the simulation loop.

:class:`Machine` instantiates the configured scalar units, the vector
unit (statically partitioned across the software threads for VLT runs)
or the lanes-as-scalar-cores, and the shared banked L2, then replays the
per-thread dynamic traces cycle by cycle.  Barrier synchronisation is
enforced here: a thread arriving at a ``barrier`` stops fetching; when
the last thread arrives, every waiter resumes after the configured
barrier overhead (the paper's "thread API overhead").

The loop skips ahead over globally-idle stretches (all units waiting on
a known future time), which makes barrier-imbalanced and memory-bound
phases cheap to simulate.

Configurations that differ only in the vector unit replay the same
cycles until a thread first reaches it, so a :class:`SharedPrefix`
lets a group of them replay that prefix once (:meth:`Machine.fork`).
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..functional.trace import ProgramTrace, ThreadTrace
from ..obs.events import (BARRIER_ARRIVE, BARRIER_RELEASE, Event, EventBus,
                          VLCFG)
from .config import MachineConfig
from .l2 import BankedL2
from .lane_core import LaneCore
from .scalar_unit import ScalarUnit, first_vu_op
from .stats import DatapathUtilization, RunResult
from .vcl import VectorUnit

_FAR_FUTURE = 1 << 62


class SimulationError(Exception):
    """Raised when a run exceeds its cycle budget (likely a model bug)."""


class Machine:
    """A configured machine replaying one multi-threaded program trace.

    ``threads`` holds one :class:`~repro.functional.trace.ThreadTrace`
    per software thread (a ``ProgramTrace``'s ``threads``).  The units
    read each thread's replay form (:meth:`ThreadTrace.replay`).  Its
    per-op list holds the shared per-pc records; with the event bus
    enabled the units carry the trace's own ``ThreadTrace.ops``
    instead, so event payloads are the DynOps that diff, pipeview and
    the metric sinks know.
    """

    # Slots here and on the SU, L2 and caches keep a fork's attribute
    # reads as fast as a built machine's: deepcopy fills a plain
    # instance through its __dict__, and replay ran ~10 % slower on
    # such copies (CPython 3.11).
    __slots__ = ("cfg", "num_threads", "max_cycles", "obs", "l2", "sus",
                 "lane_cores", "vu", "_threads", "_finish", "_halted_count",
                 "_barrier_arrived", "_barrier_latest", "barrier_count",
                 "barrier_release_cycles", "cycle", "done", "_active_sus")

    def __init__(self, cfg: MachineConfig, threads: List[ThreadTrace],
                 max_cycles: int = 50_000_000,
                 obs: Optional[EventBus] = None):
        self.cfg = cfg
        self.num_threads = len(threads)
        self.max_cycles = max_cycles
        #: observability event bus; a fresh disabled bus (the null-sink
        #: fast path) unless the caller supplies one with sinks attached
        self.obs = obs if obs is not None else EventBus()
        self.l2 = BankedL2(cfg.l2, bus=self.obs)
        self.sus: List[ScalarUnit] = [
            ScalarUnit(self, i, su_cfg, self.l2)
            for i, su_cfg in enumerate(cfg.scalar_units)]
        self.lane_cores: List[LaneCore] = []
        self.vu: Optional[VectorUnit] = None
        #: tid -> ("su", ScalarUnit, Context) or ("lane", LaneCore, None)
        self._threads: Dict[int, Tuple] = {}
        self._finish: List[Optional[int]] = [None] * self.num_threads
        self._halted_count = 0
        self._barrier_arrived = 0
        self._barrier_latest = 0
        self.barrier_count = 0
        self.barrier_release_cycles: List[int] = []
        #: where :meth:`run_loop` resumes, and whether it has finished
        self.cycle = 0
        self.done = False

        replays = [t.replay() for t in threads]
        if self.obs.enabled:
            ops = [t.ops for t in threads]
        else:
            ops = [r.ops for r in replays]

        # Code is loader-resident in the L2: pre-touch its lines so
        # I-cache refills cost an L2 hit, not a cold main-memory miss
        # (the paper measures steady-state regions).  Setup noise is
        # suppressed on the event bus -- these are not simulated misses.
        max_pc = max((r.records[-1].pc for r in replays if r.records),
                     default=0)
        from .scalar_unit import CODE_BASE, INSTR_BYTES
        line = cfg.l2.line
        self.obs.suppress()
        try:
            for addr in range(CODE_BASE,
                              CODE_BASE + (max_pc + 1) * INSTR_BYTES + line,
                              line):
                self.l2.tags.access(addr)
        finally:
            self.obs.unsuppress()

        if cfg.lane_scalar_mode:
            self.lane_cores = [
                LaneCore(self, i, cfg.lane_core, self.l2)
                for i in range(cfg.vu.lanes)]
            for tid, (lane, _) in enumerate(cfg.placement(self.num_threads)):
                core = self.lane_cores[lane]
                core.add_thread(tid, replays[tid], ops[tid])
                self._threads[tid] = ("lane", core, None)
        else:
            if cfg.vu is not None:
                self.vu = self._vector_unit()
            for tid, (u, _ctx) in enumerate(cfg.placement(self.num_threads)):
                ctx = self.sus[u].add_thread(tid, replays[tid], ops[tid])
                self._threads[tid] = ("su", self.sus[u], ctx)
        #: the SUs that hold a context: any other never steps, so its
        #: L1s stay empty (every SU of a lane-core run)
        self._active_sus = [su for su in self.sus if su.contexts]

    def _vector_unit(self) -> VectorUnit:
        """A fresh vector unit for this machine's configuration."""
        line = self.cfg.l2.line
        return VectorUnit(
            self.cfg.vu, self.l2, self.cfg.lane_partitions(self.num_threads),
            bus=self.obs,
            invalidate=lambda lines: self.l1d_invalidate_lines(lines, line))

    def fork(self, cfg: MachineConfig) -> "Machine":
        """A copy of this machine that goes on as ``cfg``, with a fresh
        vector unit built for ``cfg``.

        ``cfg`` may differ from this machine's configuration only in
        ``name`` and ``vu``, and the vector unit must be untouched: no
        op dispatched to it and no repartition.  Until then nothing
        another unit or the loop asks it depends on its configuration
        (docs/timing-model.md), so the copy goes on exactly as a replay
        of ``cfg`` from cycle 0 would.  Every mutable unit is copied;
        the replay forms, the per-op lists and per-pc records, the
        configurations and the (disabled) event bus are shared.
        """
        vu = self.vu
        if (vu is None or cfg.vu is None or cfg.lane_scalar_mode
                or replace(cfg, name=self.cfg.name, vu=self.cfg.vu)
                != self.cfg):
            raise ValueError(
                f"cannot fork {self.cfg.name} as {cfg.name}: they differ "
                f"in more than the vector unit")
        if vu.dispatched or vu.repartitions:
            raise RuntimeError(
                f"cannot fork {self.cfg.name}: its vector unit has been "
                f"used")
        if self.obs.enabled:
            raise RuntimeError(
                f"cannot fork {self.cfg.name}: a traced machine's event "
                f"stream is its own")
        memo = {id(self.cfg): cfg, id(vu): None, id(self.obs): self.obs,
                id(self.l2.cfg): self.l2.cfg}
        for su in self.sus:
            memo[id(su.cfg)] = su.cfg
        for _, _, ctx in self._threads.values():
            for shared in (ctx.replay, ctx.trace, ctx.vlines,
                           *ctx.replay.records):
                memo[id(shared)] = shared
        twin = copy.deepcopy(self, memo)
        twin.vu = twin._vector_unit()
        return twin

    # -- barrier / completion callbacks -----------------------------------------

    def barrier_arrive(self, tid: int, time: int) -> None:
        self._barrier_arrived += 1
        obs = self.obs
        if obs.enabled:
            obs.emit(Event(time, BARRIER_ARRIVE, f"t{tid}",
                           arg=self.barrier_count))
        if time > self._barrier_latest:
            self._barrier_latest = time
        if self._barrier_arrived == self.num_threads:
            release = self._barrier_latest + self.cfg.barrier_overhead
            self._barrier_arrived = 0
            self._barrier_latest = 0
            self.barrier_count += 1
            self.barrier_release_cycles.append(release)
            if obs.enabled:
                obs.emit(Event(time, BARRIER_RELEASE, f"t{tid}",
                               dur=max(0, release - time),
                               arg=self.barrier_count - 1))
            for kind, unit, ctx in self._threads.values():
                if kind == "su":
                    if ctx.waiting_barrier:
                        ctx.waiting_barrier = False
                        if release > ctx.fetch_stalled_until:
                            ctx.fetch_stalled_until = release
                else:
                    if unit.waiting_barrier:
                        unit.resume(release)

    def thread_halted(self, tid: int, time: int) -> None:
        if self._finish[tid] is None:
            self._finish[tid] = time
            self._halted_count += 1

    def l1d_invalidate(self, addr: int, except_su=None) -> None:
        """Coherence: drop the L1D line holding ``addr`` everywhere but
        the writing SU (the hardware L1/L2 coherence of Section 2)."""
        for su in self._active_sus:
            if su is not except_su:
                su.l1d.invalidate(addr)

    def l1d_invalidate_lines(self, lines, line: int) -> None:
        """Vector-store coherence: invalidate every touched line (the
        distinct ``line``-byte line numbers ``lines``) in all SU L1Ds
        (vector stores write the L2 directly)."""
        for su in self._active_sus:
            invalidate = su.l1d.invalidate
            for ln in lines:
                invalidate(ln * line)

    def vltcfg_request(self, tid: int, n: int, cycle: int) -> None:
        """Dynamic VLT reconfiguration (``vltcfg n``; Section 3.3).

        ``n = 0`` means "one partition per software thread" (the static
        default).  All threads of an SPMD program execute the same
        ``vltcfg`` in the same barrier-delimited phase; the first
        arrival repartitions, the rest are no-ops.
        """
        if self.vu is None:
            return
        if n == 0:
            n = self.num_threads
        self.vu.repartition(n, cycle)
        obs = self.obs
        if obs.enabled:
            obs.emit(Event(cycle, VLCFG, f"t{tid}", arg=n))

    # -- main loop ------------------------------------------------------------------

    def run(self) -> RunResult:
        return self._result(self.run_loop())

    def run_loop(self, stop: bool = False) -> int:
        """Advance the machine from :attr:`cycle` until every thread has
        finished and set :attr:`done`; returns the final cycle.

        With ``stop`` the loop instead returns at the start of the first
        cycle in which some SU context could fetch an op that reaches
        the vector unit (:func:`~.scalar_unit.first_vu_op`): a context
        fetches at most its SU's width per cycle.  Then :attr:`cycle`
        is that cycle, :attr:`done` stays False, and a later call
        resumes there.

        Split out from :meth:`run` so callers (host-side profiling, the
        ``profile`` CLI verb) can time the replay loop separately from
        result assembly.
        """
        cycle = self.cycle
        if self.done:
            return cycle
        watch = self._vu_horizon() if stop else None
        sus = self._active_sus
        vu = self.vu
        cores = self.lane_cores
        obs = self.obs
        obs_on = obs.enabled
        # vu_busy: may the VU hold work?  After a VU step it stays True,
        # and vu.busy is asked again only where the answer matters.  An
        # idle VU stays idle until an SU dispatches to it, which moves
        # its dispatch count, so then it is False without asking.
        vu_busy = vu is not None
        while True:
            if watch:
                for ctx, last in watch:
                    if ctx.fetch_idx > last:
                        self.cycle = cycle
                        return cycle
            if obs_on:
                obs.now = cycle
            if vu_busy:
                vu_busy = vu.busy(cycle)
                dispatched = vu.dispatched
            for su in sus:
                su.step(cycle)
            if vu_busy:
                vu.step(cycle)
            elif vu is not None:
                vu_busy = vu.dispatched != dispatched
                dispatched = vu.dispatched
            for core in cores:
                if core.due <= cycle:
                    core.step(cycle)

            if self._halted_count == self.num_threads:
                if all(su.all_done for su in sus) and not (
                        vu_busy and vu.busy(cycle)):
                    break

            nxt = cycle + 1
            best = _FAR_FUTURE
            for su in sus:
                t = su.next_event(cycle)
                if t < best:
                    best = t
            for core in cores:
                t = core.due
                if t <= cycle:   # stepped, or resumed by a barrier
                    t = core.due = core.next_event(cycle)
                if t < best:
                    best = t
            if best > nxt and vu_busy and vu.busy(cycle):
                best = nxt
            if best > nxt and best < _FAR_FUTURE:
                cycle = best
            elif best >= _FAR_FUTURE and self._halted_count < self.num_threads:
                raise SimulationError(
                    f"{self.cfg.name}: no unit can make progress at cycle "
                    f"{cycle} with {self.num_threads - self._halted_count} "
                    f"threads unfinished (model deadlock)")
            else:
                cycle = nxt
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"{self.cfg.name}: exceeded {self.max_cycles} cycles")

        self.cycle = cycle
        self.done = True
        return cycle

    def _vu_horizon(self) -> List[Tuple[object, int]]:
        """``(context, last)`` for each SU context that reaches the
        vector unit: it may fetch in a cycle that starts with its fetch
        index at most ``last`` without reaching it."""
        if self.vu is None:
            return []
        parts = len(self.vu.partitions)
        watch = []
        for kind, su, ctx in self._threads.values():
            if kind == "su":
                first = first_vu_op(ctx.replay, parts, self.num_threads)
                if first is not None:
                    watch.append((ctx, first - su.cfg.width))
        return watch

    # -- result assembly ---------------------------------------------------------------

    def _result(self, cycles: int) -> RunResult:
        util = DatapathUtilization()
        vu_stats = None
        part_utils: List[DatapathUtilization] = []
        part_lanes: List[int] = []
        if self.vu is not None:
            vu_stats = self.vu.stats
            u = self.vu.util
            total = self.cfg.vu.arith_fus * self.cfg.vu.lanes * cycles
            util = DatapathUtilization(
                busy=u.busy, partly_idle=u.partly_idle, stalled=u.stalled,
                all_idle=max(0, total - u.busy - u.partly_idle - u.stalled))
            part_utils, part_lanes = self.vu.partition_utils(cycles)
        su_stats = []
        for su in self.sus:
            s = su.stats
            s.branch_lookups = su.bpred.lookups
            s.branch_mispredicts = su.bpred.mispredicts
            s.l1i_accesses = su.l1i.stats.accesses
            s.l1i_misses = su.l1i.stats.misses
            s.l1d_accesses = su.l1d.stats.accesses
            s.l1d_misses = su.l1d.stats.misses
            su_stats.append(s)
        return RunResult(
            config_name=self.cfg.name,
            program_name="",
            num_threads=self.num_threads,
            cycles=cycles,
            utilization=util,
            scalar_units=su_stats,
            vector_unit=vu_stats,
            lane_cores=[c.stats for c in self.lane_cores],
            thread_finish=[f if f is not None else cycles
                           for f in self._finish],
            barrier_count=self.barrier_count,
            l2_bank_conflict_cycles=self.l2.stats.bank_conflict_cycles,
            phase_release_cycles=list(self.barrier_release_cycles),
            partition_utilization=part_utils,
            partition_lanes=part_lanes,
        )


class SharedPrefix:
    """One replay prefix shared by a group of runs of one trace whose
    configurations differ only in the vector unit.

    The caller makes one per group and hands it to each member's
    :func:`run_traces`.  The first member replays up to the start of
    the first cycle in which a thread could reach the vector unit,
    keeps a fork of that machine as :attr:`snapshot` and finishes; each
    later member finishes from its own fork of the snapshot.  If the
    first member fails before the snapshot is kept, the later ones
    replay unshared.
    """

    def __init__(self) -> None:
        self.claimed = False
        self.snapshot: Optional[Machine] = None
        self.trace: Optional[ProgramTrace] = None

    def machine(self, cfg: MachineConfig, trace: ProgramTrace,
                max_cycles: int) -> Machine:
        """A later member's machine: a fork of the snapshot as ``cfg``."""
        snap = self.snapshot
        if snap is None:
            return Machine(cfg, trace.threads, max_cycles=max_cycles)
        if trace is not self.trace or max_cycles != snap.max_cycles:
            raise ValueError("a SharedPrefix serves one trace and one "
                             "cycle budget")
        return snap.fork(cfg)


def run_traces(cfg: MachineConfig, trace: ProgramTrace,
               max_cycles: int = 50_000_000,
               obs: Optional[EventBus] = None,
               profiler=None,
               share: Optional[SharedPrefix] = None) -> RunResult:
    """Replay a functional :class:`ProgramTrace` on configuration ``cfg``.

    ``obs`` attaches an observability event bus; ``profiler`` (a
    :class:`repro.obs.hostprof.PhaseProfiler`) records host wall-time
    for the ``setup`` / ``replay`` / ``stats`` simulation phases; the
    copy of a shared prefix counts as ``setup``.  ``share`` is the
    :class:`SharedPrefix` of this run's group.  A traced run, or one
    without a vector unit or on the lanes, does not share.
    """
    phase = profiler.phase if profiler is not None else nullcontext
    if share is not None and ((obs is not None and obs.enabled)
                              or cfg.vu is None or cfg.lane_scalar_mode):
        share = None
    lead = share is not None and not share.claimed
    if lead:
        share.claimed = True
    with phase("setup"):
        if share is None or lead:
            machine = Machine(cfg, trace.threads, max_cycles=max_cycles,
                              obs=obs)
        else:
            machine = share.machine(cfg, trace, max_cycles)
    if lead:
        with phase("replay"):
            machine.run_loop(stop=True)
        with phase("setup"):
            share.snapshot = machine.fork(cfg)
            share.trace = trace
    with phase("replay"):
        cycle = machine.run_loop()
    with phase("stats"):
        result = machine._result(cycle)
    result.program_name = trace.program_name
    return result
