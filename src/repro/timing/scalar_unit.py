"""Out-of-order superscalar scalar-unit (SU) timing model, with SMT.

The SU is trace-driven: each hardware context replays one software
thread's :class:`~repro.functional.trace.DynOp` stream.  The model
implements, per cycle:

* **frontend** -- ``width`` instructions per cycle shared round-robin
  across SMT contexts; L1 I-cache modelling at line granularity; a
  bimodal predictor gating fetch past conditional branches (on a
  mispredict, fetch stops until the branch executes, plus a redirect
  penalty -- the standard trace-driven approximation, since wrong-path
  instructions are not in the trace);
* **dispatch** -- into the ROB/window, shared dynamically across SMT
  contexts; renaming is implicit (the trace is data-race-free per thread
  and the model tracks only true dependences, i.e. perfect renaming,
  which the physical register files of such designs approximate);
* **issue** -- up to ``width`` ready instructions per cycle, oldest
  first, limited by ``arith_units`` and ``mem_ports``; loads probe the
  L1D and fall through to the shared banked L2;
* **commit** -- in-order per context, ``width`` per cycle shared.

Vector instructions flow through the frontend and are handed to the
vector unit (VCL) once dispatched, holding a reserved VIQ slot as
backpressure; they retire from the SU's ROB without waiting for vector
completion (they can no longer fault -- Tarantula-style early retirement)
except when they produce a scalar result, in which case the consuming
side waits for the VCL's completion callback.

Wake-up is event-driven (producer-issue notifications and a ready-time
heap), so per-cycle cost is O(issue width), not O(window).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, TYPE_CHECKING

from ..functional.trace import DynOp
from ..isa.registers import NUM_REG_UIDS, uid_is_scalar
from ..obs.events import COMMIT, Event, ISSUE, STALL, StallReason
from .branch import BimodalPredictor
from .caches import Cache
from .config import ScalarUnitConfig
from .l2 import BankedL2
from .stats import ScalarUnitStats

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: Instruction memory is disjoint from data memory at this base address.
CODE_BASE = 0x4000_0000
#: Architectural instruction size in bytes (for I-cache line behaviour).
INSTR_BYTES = 4


class SEntry:
    """An in-flight scalar-unit instruction (ROB entry)."""

    __slots__ = ("dynop", "ctx", "seq", "unmet", "ready_time", "issued",
                 "done_time", "subscribers", "mispredicted", "is_vector")

    def __init__(self, dynop: DynOp, ctx: "Context", seq: int, cycle: int):
        self.dynop = dynop
        self.ctx = ctx
        self.seq = seq
        self.unmet = 0
        self.ready_time = cycle + 1
        self.issued = False
        self.done_time: Optional[int] = None
        self.subscribers: Optional[list] = None
        self.mispredicted = False
        self.is_vector = dynop.spec.is_vector

    def notify(self, time: int) -> None:
        """A producer announced its completion time."""
        if time > self.ready_time:
            self.ready_time = time
        self.unmet -= 1
        if self.unmet == 0:
            self.ctx.su.schedule_ready(self)

    def subscribe(self, consumer) -> None:
        if self.subscribers is None:
            self.subscribers = [consumer]
        else:
            self.subscribers.append(consumer)

    def announce(self, time: int) -> None:
        """Publish this entry's completion time to register consumers."""
        ctx = self.ctx
        for uid in self.dynop.writes:
            if ctx.last_writer[uid] is self:
                ctx.last_writer[uid] = time
        subs = self.subscribers
        if subs:
            self.subscribers = None
            for c in subs:
                c.notify(time)

    def vu_complete(self, time: int) -> None:
        """Callback from the vector unit for scalar-result vector ops."""
        self.done_time = time
        self.announce(time)


class Context:
    """One SMT hardware context replaying one software thread."""

    __slots__ = ("su", "ctx_idx", "tid", "trace", "fetch_idx", "rob",
                 "last_writer", "fetch_stalled_until", "blocked_on_branch",
                 "waiting_barrier", "halted", "finish_time", "last_iline",
                 "window_limit")

    def __init__(self, su: "ScalarUnit", ctx_idx: int, tid: int,
                 trace: List[DynOp], window_limit: int):
        self.su = su
        self.ctx_idx = ctx_idx
        self.tid = tid
        self.trace = trace
        self.fetch_idx = 0
        self.rob: List[SEntry] = []          # used as a FIFO (pop from front)
        self.last_writer: List = [0] * NUM_REG_UIDS
        self.fetch_stalled_until = 0
        self.blocked_on_branch: Optional[SEntry] = None
        self.waiting_barrier = False
        self.halted = False
        self.finish_time: Optional[int] = None
        self.last_iline = -1
        self.window_limit = window_limit

    @property
    def done_fetching(self) -> bool:
        return self.fetch_idx >= len(self.trace)

    def can_fetch(self, cycle: int) -> bool:
        return (not self.halted and not self.waiting_barrier
                and self.blocked_on_branch is None
                and self.fetch_stalled_until <= cycle
                and not self.done_fetching
                and len(self.rob) < self.window_limit
                and self.su.rob_occupancy < self.su.cfg.window)


class ScalarUnit:
    """One SU instance (possibly multi-context) inside a machine."""

    def __init__(self, machine: "Machine", index: int,
                 cfg: ScalarUnitConfig, l2: BankedL2):
        self.machine = machine
        self.index = index
        self.cfg = cfg
        self.l2 = l2
        self.obs = machine.obs
        self.stats = ScalarUnitStats()
        self.l1i = Cache(cfg.l1i_kib * 1024, cfg.l1_assoc, cfg.l1_line,
                         name=f"SU{index}-L1I", bus=self.obs)
        self.l1d = Cache(cfg.l1d_kib * 1024, cfg.l1_assoc, cfg.l1_line,
                         name=f"SU{index}-L1D", bus=self.obs)
        self.bpred = BimodalPredictor(cfg.bpred_entries)
        self.contexts: List[Context] = []
        #: total in-flight entries across contexts (the shared ROB --
        #: SMT contexts share the window dynamically, per-context capped
        #: only by the full window size)
        self.rob_occupancy = 0
        self._seq = 0
        self._ready_heap: list = []     # (ready_time, seq, entry)
        self._issueq_arith: list = []   # (seq, entry)
        self._issueq_mem: list = []
        self._fetch_rr = 0
        self._commit_rr = 0

    # -- setup ---------------------------------------------------------------

    def add_thread(self, tid: int, trace: List[DynOp]) -> Context:
        ctx = Context(self, len(self.contexts), tid, trace, self.cfg.window)
        self.contexts.append(ctx)
        return ctx

    # -- event plumbing --------------------------------------------------------

    def schedule_ready(self, entry: SEntry) -> None:
        heapq.heappush(self._ready_heap,
                       (entry.ready_time, entry.seq, entry))

    # -- main per-cycle step ---------------------------------------------------

    def step(self, cycle: int) -> None:
        if not self.contexts:
            return  # no thread placed here (e.g. lane-core runs)
        self._commit(cycle)
        self._wakeup(cycle)
        self._issue(cycle)
        self._frontend(cycle)

    # -- commit ----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        budget = self.cfg.width
        nctx = len(self.contexts)
        if nctx == 0:
            return
        start = self._commit_rr
        self._commit_rr = (start + 1) % nctx
        obs = self.obs
        obs_on = obs.enabled
        for k in range(nctx):
            ctx = self.contexts[(start + k) % nctx]
            rob = ctx.rob
            while budget and rob:
                head = rob[0]
                if head.done_time is None or head.done_time > cycle:
                    break
                rob.pop(0)
                self.rob_occupancy -= 1
                self.stats.committed += 1
                budget -= 1
                if obs_on:
                    obs.emit(Event(cycle, COMMIT,
                                   f"SU{self.index}.c{ctx.ctx_idx}",
                                   head.dynop))
            if budget == 0:
                return

    # -- wakeup / issue ----------------------------------------------------------

    def _wakeup(self, cycle: int) -> None:
        heap = self._ready_heap
        while heap and heap[0][0] <= cycle:
            _, seq, entry = heapq.heappop(heap)
            if entry.dynop.spec.pool == "mem":
                heapq.heappush(self._issueq_mem, (seq, entry))
            else:
                heapq.heappush(self._issueq_arith, (seq, entry))

    def _issue(self, cycle: int) -> None:
        budget = self.cfg.width
        arith_slots = self.cfg.arith_units
        mem_slots = self.cfg.mem_ports
        qa, qm = self._issueq_arith, self._issueq_mem
        while budget:
            pick_arith: Optional[bool] = None
            if qa and arith_slots:
                if qm and mem_slots:
                    pick_arith = qa[0][0] < qm[0][0]
                else:
                    pick_arith = True
            elif qm and mem_slots:
                pick_arith = False
            if pick_arith is None:
                return
            if pick_arith:
                _, entry = heapq.heappop(qa)
                arith_slots -= 1
            else:
                _, entry = heapq.heappop(qm)
                mem_slots -= 1
            self._execute(entry, cycle)
            budget -= 1

    def _execute(self, entry: SEntry, cycle: int) -> None:
        dynop = entry.dynop
        spec = dynop.spec
        entry.issued = True
        self.stats.issued += 1
        if spec.is_load:
            addr = int(dynop.addrs[0])
            self.stats.l1d_accesses += 1
            if self.l1d.access(addr):
                done = cycle + spec.latency + self.cfg.l1_hit_latency
            else:
                self.stats.l1d_misses += 1
                done = self.l2.access(addr, cycle + spec.latency
                                      + self.cfg.l1_hit_latency)
        elif spec.is_store:
            addr = int(dynop.addrs[0])
            self.stats.l1d_accesses += 1
            if not self.l1d.access(addr):
                self.stats.l1d_misses += 1
                self.l2.access(addr, cycle + spec.latency)  # fill bandwidth
            # coherence: peer L1s drop their copy of this line
            self.machine.l1d_invalidate(addr, except_su=self)
            done = cycle + spec.latency
        else:
            done = cycle + spec.latency
        entry.done_time = done
        entry.announce(done)
        obs = self.obs
        if obs.enabled:
            obs.emit(Event(cycle, ISSUE,
                           f"SU{self.index}.c{entry.ctx.ctx_idx}", dynop,
                           dur=done - cycle))
        if entry.mispredicted:
            ctx = entry.ctx
            ctx.fetch_stalled_until = max(ctx.fetch_stalled_until,
                                          done + self.cfg.mispredict_penalty)
            self.stats.fetch_stall_cycles += \
                max(0, ctx.fetch_stalled_until - cycle)
            if obs.enabled and ctx.fetch_stalled_until > cycle:
                obs.emit(Event(
                    cycle, STALL, f"SU{self.index}.c{ctx.ctx_idx}", dynop,
                    dur=ctx.fetch_stalled_until - cycle,
                    reason=StallReason.BRANCH_MISPREDICT))
            if ctx.blocked_on_branch is entry:
                ctx.blocked_on_branch = None

    # -- frontend (fetch + dispatch) ------------------------------------------------

    def _frontend(self, cycle: int) -> None:
        nctx = len(self.contexts)
        if nctx == 0:
            return
        budget = self.cfg.width
        start = self._fetch_rr
        self._fetch_rr = (start + 1) % nctx
        for k in range(nctx):
            if budget == 0:
                return
            ctx = self.contexts[(start + k) % nctx]
            budget = self._fetch_ctx(ctx, cycle, budget)

    def _fetch_ctx(self, ctx: Context, cycle: int, budget: int) -> int:
        while budget and ctx.can_fetch(cycle):
            dynop = ctx.trace[ctx.fetch_idx]
            spec = dynop.spec

            # I-cache at line granularity.
            iline = (CODE_BASE + dynop.pc * INSTR_BYTES) // self.cfg.l1_line
            if iline != ctx.last_iline:
                self.stats.l1i_accesses += 1
                ctx.last_iline = iline
                if not self.l1i.access(iline * self.cfg.l1_line):
                    self.stats.l1i_misses += 1
                    ctx.fetch_stalled_until = self.l2.access(
                        iline * self.cfg.l1_line, cycle)
                    self.stats.fetch_stall_cycles += \
                        ctx.fetch_stalled_until - cycle
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(
                            cycle, STALL,
                            f"SU{self.index}.c{ctx.ctx_idx}", dynop,
                            dur=ctx.fetch_stalled_until - cycle,
                            reason=StallReason.L1I_MISS))
                    return budget

            if spec.is_barrier or spec.is_halt:
                # memory-synchronisation semantics: all prior scalar work
                # committed AND this thread's vector work drained
                vu = self.machine.vu
                if ctx.rob or (vu is not None
                               and not vu.partition_idle(ctx.tid, cycle)):
                    return budget
                ctx.fetch_idx += 1
                if spec.is_barrier:
                    ctx.waiting_barrier = True
                    self.machine.barrier_arrive(ctx.tid, cycle)
                else:
                    ctx.halted = True
                    ctx.finish_time = cycle
                    self.machine.thread_halted(ctx.tid, cycle)
                return budget
            if spec.is_lsync:
                # memory-ordering fence: hold fetch until this thread's
                # vector accesses have drained (paper Section 2's
                # compiler-generated memory barriers)
                vu = self.machine.vu
                if vu is not None and not vu.partition_idle(ctx.tid, cycle):
                    return budget
                ctx.fetch_idx += 1
                budget -= 1
                continue
            if spec.is_vltcfg:
                vu = self.machine.vu
                n = dynop.imm or self.machine.num_threads
                if vu is None or n == len(vu.partitions):
                    # no change: a cheap configuration check
                    ctx.fetch_idx += 1
                    budget -= 1
                    continue
                # an actual repartition quiesces the whole vector unit
                # (the paper switches at region boundaries, Section 3.3)
                if ctx.rob or vu.busy(cycle):
                    return budget
                ctx.fetch_idx += 1
                self.machine.vltcfg_request(ctx.tid, n, cycle)
                ctx.fetch_stalled_until = cycle + self.machine.cfg.vltcfg_overhead
                return budget

            if spec.is_vector:
                vu = self.machine.vu
                if vu is None:
                    raise RuntimeError(
                        f"vector instruction {dynop.op!r} on machine "
                        f"{self.machine.cfg.name!r} without a vector unit")
                if not vu.can_accept(ctx.tid, cycle):
                    self.stats.dispatch_stall_viq += 1
                    return budget
                entry, scalar_ready, pending = self._dispatch_vector(
                    ctx, dynop, cycle)
                vu.dispatch(ctx.tid, entry, cycle, scalar_ready, pending)
                ctx.fetch_idx += 1
                budget -= 1
                self.stats.fetched += 1
                continue

            entry = self._dispatch(ctx, dynop, cycle)
            ctx.fetch_idx += 1
            budget -= 1
            self.stats.fetched += 1

            if spec.is_branch and not spec.is_uncond:
                self.stats.branch_lookups += 1
                correct = self.bpred.predict_and_update(dynop.pc, dynop.taken)
                if not correct:
                    self.stats.branch_mispredicts += 1
                    entry.mispredicted = True
                    ctx.blocked_on_branch = entry
                    return budget
        return budget

    def _dispatch(self, ctx: Context, dynop: DynOp, cycle: int) -> SEntry:
        """Allocate a ROB entry for a scalar op and wire true dependences."""
        self._seq += 1
        entry = SEntry(dynop, ctx, self._seq, cycle)
        lw = ctx.last_writer
        unmet = 0
        ready = cycle + 1
        for uid in dynop.reads:
            w = lw[uid]
            if isinstance(w, int):
                if w > ready:
                    ready = w
            else:
                w.subscribe(entry)
                unmet += 1
        entry.ready_time = ready
        entry.unmet = unmet
        for uid in dynop.writes:
            lw[uid] = entry
        if unmet == 0:
            self.schedule_ready(entry)
        ctx.rob.append(entry)
        self.rob_occupancy += 1
        return entry

    def _dispatch_vector(self, ctx: Context, dynop: DynOp, cycle: int):
        """Allocate a ROB entry for a vector op.

        Returns ``(entry, scalar_ready, pending)``: the known lower bound
        on scalar-operand readiness and the list of in-flight scalar
        producers the VCL entry must subscribe to.  Vector-register
        dependences are the VCL's business.  The entry retires from the
        SU ROB immediately (it can no longer fault) unless it produces a
        scalar result, in which case it completes via the VCL callback.
        """
        self._seq += 1
        entry = SEntry(dynop, ctx, self._seq, cycle)
        lw = ctx.last_writer
        scalar_ready = cycle + 1
        pending: List[SEntry] = []
        for uid in dynop.reads:
            if not uid_is_scalar(uid):
                continue
            w = lw[uid]
            if isinstance(w, int):
                if w > scalar_ready:
                    scalar_ready = w
            else:
                pending.append(w)
        writes_scalar = False
        for uid in dynop.writes:
            if uid_is_scalar(uid):
                lw[uid] = entry
                writes_scalar = True
        if not writes_scalar:
            entry.done_time = cycle + 1
        ctx.rob.append(entry)
        self.rob_occupancy += 1
        return entry, scalar_ready, pending

    # -- idle detection ---------------------------------------------------------

    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this SU can make progress."""
        if self._issueq_arith or self._issueq_mem:
            return cycle + 1
        best = 1 << 62
        for ctx in self.contexts:
            if ctx.halted or ctx.waiting_barrier:
                continue
            if ctx.can_fetch(cycle):
                return cycle + 1
            if ctx.rob:
                t = ctx.rob[0].done_time
                if t is not None and t < best:
                    best = t if t > cycle else cycle + 1
            if ctx.fetch_stalled_until > cycle and ctx.blocked_on_branch is None:
                if ctx.fetch_stalled_until < best:
                    best = ctx.fetch_stalled_until
        if self._ready_heap:
            t = self._ready_heap[0][0]
            if t < best:
                best = t if t > cycle else cycle + 1
        return best

    @property
    def all_done(self) -> bool:
        return all(ctx.halted and not ctx.rob for ctx in self.contexts)
