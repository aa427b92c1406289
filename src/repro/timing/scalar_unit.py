"""Out-of-order superscalar scalar-unit (SU) timing model, with SMT.

The SU is trace-driven: each hardware context replays one software
thread's trace in its replay form
(:class:`~repro.functional.trace.ReplayTrace`): the static fields of
op *i* (its ``vltcfg`` immediate included) from its per-op record, the
dynamic ones (branch outcome, memory address, vector length) from the
replay form's lists at index *i*.  The model implements, per cycle:

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
heap), so per-cycle cost is O(issue width), not O(window).  An op whose
sources are ready next cycle skips the heap and goes straight to its
issue queue at dispatch.  Each op is walked through one pass per stage:
the frontend tests fetch gating once per context and cycle, then
fetches and dispatches inline; the issue stage executes inline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional, TYPE_CHECKING

import numpy as np

from ..functional.trace import ReplayTrace
from ..isa.opcodes import OPCODES
from ..isa.registers import NUM_REG_UIDS
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

#: the ``done_time`` of an entry that has not completed: later than any
#: cycle, so one comparison tells whether the ROB head may commit
_NOT_DONE = 1 << 62

#: what the frontend does with an op (see :data:`FETCH_CLASS`); the
#: first three are scalar ops that take a ROB entry
_ARITH, _MEM, _BRANCH, _VECTOR, _LSYNC, _VLTCFG, _BARRIER, _HALT = range(8)


def _fetch_class(spec) -> int:
    if spec.is_barrier:
        return _BARRIER
    if spec.is_halt:
        return _HALT
    if spec.is_lsync:
        return _LSYNC
    if spec.is_vltcfg:
        return _VLTCFG
    if spec.is_vector:
        return _VECTOR
    if spec.is_branch and not spec.is_uncond:
        return _BRANCH   # an arith-pool op the predictor sees
    return _MEM if spec.pool == "mem" else _ARITH


#: each opcode's fetch class, by mnemonic
FETCH_CLASS = {name: _fetch_class(sp) for name, sp in OPCODES.items()}


def first_vu_op(replay: ReplayTrace, partitions: int,
                num_threads: int) -> Optional[int]:
    """Index of the first op of ``replay`` the frontend takes to the
    vector unit: a vector op, or a ``vltcfg`` whose thread count is not
    the unit's ``partitions``.  ``None`` if the trace has neither."""
    classes = np.array([FETCH_CLASS[r.op] for r in replay.records],
                       dtype=np.int8)[replay.index]
    vector = np.flatnonzero(classes == _VECTOR)
    first = int(vector[0]) if vector.size else None
    for i in np.flatnonzero(classes == _VLTCFG).tolist():
        if first is not None and i > first:
            break
        if (replay.ops[i].imm or num_threads) != partitions:
            return i
    return first


class SEntry:
    """An in-flight scalar-unit instruction (ROB entry).

    ``dynop`` is the op's entry in its context's per-op list (a shared
    per-pc record, or the trace's DynOp when events are on); ``idx`` is
    its trace index, which locates its dynamic fields.
    """

    __slots__ = ("dynop", "ctx", "seq", "idx", "unmet", "ready_time",
                 "done_time", "subscribers")

    def __init__(self, dynop, ctx: "Context", seq: int, idx: int,
                 ready_time: int):
        self.dynop = dynop
        self.ctx = ctx
        self.seq = seq
        self.idx = idx
        self.unmet = 0
        self.ready_time = ready_time
        self.done_time = _NOT_DONE
        self.subscribers: Optional[list] = None

    def notify(self, time: int) -> None:
        """A producer announced its completion time."""
        if time > self.ready_time:
            self.ready_time = time
        self.unmet -= 1
        if self.unmet == 0:
            heapq.heappush(self.ctx.su._ready_heap,
                           (self.ready_time, self.seq, self))

    def subscribe(self, consumer) -> None:
        if self.subscribers is None:
            self.subscribers = [consumer]
        else:
            self.subscribers.append(consumer)

    def announce(self, time: int) -> None:
        """Publish this entry's completion time to register consumers."""
        lw = self.ctx.last_writer
        for uid in self.dynop.writes:
            if lw[uid] is self:
                lw[uid] = time
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

    __slots__ = ("su", "ctx_idx", "tid", "replay", "trace", "vlines",
                 "vmem_next", "fetch_idx", "rob", "last_writer",
                 "fetch_stalled_until", "blocked_on_branch",
                 "waiting_barrier", "halted", "finish_time", "last_iline")

    def __init__(self, su: "ScalarUnit", ctx_idx: int, tid: int,
                 replay: ReplayTrace, ops: list):
        self.su = su
        self.ctx_idx = ctx_idx
        self.tid = tid
        self.replay = replay
        #: the per-op list: op i's static fields (and event payload)
        self.trace = ops
        #: each vector memory op's distinct L2 lines, in trace order
        #: (built on first use), and the ordinal of the next one to
        #: dispatch -- ops dispatch in trace order, each exactly once
        self.vlines: Optional[list] = None
        self.vmem_next = 0
        self.fetch_idx = 0
        self.rob: Deque[SEntry] = deque()
        self.last_writer: List = [0] * NUM_REG_UIDS
        self.fetch_stalled_until = 0
        self.blocked_on_branch: Optional[SEntry] = None
        self.waiting_barrier = False
        self.halted = False
        self.finish_time: Optional[int] = None
        self.last_iline = -1


class ScalarUnit:
    """One SU instance (possibly multi-context) inside a machine.

    :meth:`step` is called only for a unit that holds a context.  The
    L1 and branch-predictor counters of :attr:`stats` are filled in from
    the caches and the predictor when the run's result is assembled.
    """

    __slots__ = ("machine", "index", "cfg", "l2", "obs", "stats", "l1i",
                 "l1d", "bpred", "contexts", "rob_occupancy", "_seq",
                 "_ready_heap", "_issueq_arith", "_issueq_mem", "_fetch_rr",
                 "_commit_rr", "_rotations")

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
        #: the contexts in round-robin order from each starting context
        self._rotations: List[List[Context]] = []

    # -- setup ---------------------------------------------------------------

    def add_thread(self, tid: int, replay: ReplayTrace,
                   ops: list) -> Context:
        ctx = Context(self, len(self.contexts), tid, replay, ops)
        ctxs = self.contexts
        ctxs.append(ctx)
        self._rotations = [ctxs[k:] + ctxs[:k] for k in range(len(ctxs))]
        return ctx

    # -- main per-cycle step ---------------------------------------------------

    def step(self, cycle: int) -> None:
        self._commit(cycle)
        self._issue(cycle)
        self._frontend(cycle)

    # -- commit ----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        order = self._rotations[self._commit_rr]
        self._commit_rr = (self._commit_rr + 1) % len(order)
        budget = self.cfg.width
        obs = self.obs
        obs_on = obs.enabled
        for ctx in order:
            rob = ctx.rob
            while rob and rob[0].done_time <= cycle:
                head = rob.popleft()
                budget -= 1
                if obs_on:
                    obs.emit(Event(cycle, COMMIT,
                                   f"SU{self.index}.c{ctx.ctx_idx}",
                                   head.dynop))
                if not budget:
                    break
            if not budget:
                break
        committed = self.cfg.width - budget
        if committed:
            self.rob_occupancy -= committed
            self.stats.committed += committed

    # -- wakeup / issue / execute --------------------------------------------------

    def _issue(self, cycle: int) -> None:
        qa, qm = self._issueq_arith, self._issueq_mem
        heap = self._ready_heap
        while heap and heap[0][0] <= cycle:
            _, seq, entry = heapq.heappop(heap)
            heapq.heappush(qm if entry.dynop.spec.pool == "mem" else qa,
                           (seq, entry))
        if not (qa or qm):
            return
        cfg = self.cfg
        budget = cfg.width
        arith_slots = cfg.arith_units
        mem_slots = cfg.mem_ports
        obs = self.obs
        while budget:
            if qa and arith_slots:
                if qm and mem_slots and qm[0][0] < qa[0][0]:
                    entry = heapq.heappop(qm)[1]
                    mem_slots -= 1
                else:
                    entry = heapq.heappop(qa)[1]
                    arith_slots -= 1
            elif qm and mem_slots:
                entry = heapq.heappop(qm)[1]
                mem_slots -= 1
            else:
                break
            budget -= 1
            dynop = entry.dynop
            spec = dynop.spec
            ctx = entry.ctx
            if spec.is_load:
                addr = ctx.replay.addrs[entry.idx]
                if self.l1d.access(addr):
                    done = cycle + spec.latency + cfg.l1_hit_latency
                else:
                    done = self.l2.access(addr, cycle + spec.latency
                                          + cfg.l1_hit_latency)
            elif spec.is_store:
                addr = ctx.replay.addrs[entry.idx]
                if not self.l1d.access(addr):
                    self.l2.access(addr, cycle + spec.latency)  # fill bandwidth
                # coherence: peer L1s drop their copy of this line
                self.machine.l1d_invalidate(addr, except_su=self)
                done = cycle + spec.latency
            else:
                done = cycle + spec.latency
            entry.done_time = done
            entry.announce(done)
            if obs.enabled:
                obs.emit(Event(cycle, ISSUE, f"SU{self.index}.c{ctx.ctx_idx}",
                               dynop, dur=done - cycle))
            if ctx.blocked_on_branch is entry:
                # a mispredicted branch resolves: fetch resumes after
                # the redirect penalty
                ctx.blocked_on_branch = None
                stall = done + cfg.mispredict_penalty
                if stall > ctx.fetch_stalled_until:
                    ctx.fetch_stalled_until = stall
                self.stats.fetch_stall_cycles += \
                    max(0, ctx.fetch_stalled_until - cycle)
                if obs.enabled and ctx.fetch_stalled_until > cycle:
                    obs.emit(Event(
                        cycle, STALL, f"SU{self.index}.c{ctx.ctx_idx}", dynop,
                        dur=ctx.fetch_stalled_until - cycle,
                        reason=StallReason.BRANCH_MISPREDICT))
        self.stats.issued += cfg.width - budget

    # -- frontend (fetch + dispatch) ------------------------------------------------

    def _frontend(self, cycle: int) -> None:
        order = self._rotations[self._fetch_rr]
        self._fetch_rr = (self._fetch_rr + 1) % len(order)
        budget = self.cfg.width
        for ctx in order:
            # fetch gating, once per context: the ROB-room and
            # end-of-trace tests are the only ones fetching itself moves
            if (ctx.halted or ctx.waiting_barrier
                    or ctx.blocked_on_branch is not None
                    or ctx.fetch_stalled_until > cycle):
                continue
            budget = self._fetch_ctx(ctx, cycle, budget)
            if budget == 0:
                return

    def _fetch_ctx(self, ctx: Context, cycle: int, budget: int) -> int:
        """Fetch and dispatch up to ``budget`` ops of one context."""
        cfg = self.cfg
        line = cfg.l1_line
        trace = ctx.trace
        n = len(trace)
        rob = ctx.rob
        lw = ctx.last_writer
        obs = self.obs
        fetch_class = FETCH_CLASS
        i = ctx.fetch_idx
        # the shared ROB's free entries; a context's own ROB is never
        # larger than the shared occupancy, so this is its limit too
        room = cfg.window - self.rob_occupancy
        seq = self._seq
        while budget and i < n and room > 0:
            dynop = trace[i]

            # I-cache at line granularity.
            iline = (CODE_BASE + dynop.pc * INSTR_BYTES) // line
            if iline != ctx.last_iline:
                ctx.last_iline = iline
                if not self.l1i.access(iline * line):
                    ctx.fetch_stalled_until = self.l2.access(iline * line,
                                                             cycle)
                    self.stats.fetch_stall_cycles += \
                        ctx.fetch_stalled_until - cycle
                    if obs.enabled:
                        obs.emit(Event(
                            cycle, STALL,
                            f"SU{self.index}.c{ctx.ctx_idx}", dynop,
                            dur=ctx.fetch_stalled_until - cycle,
                            reason=StallReason.L1I_MISS))
                    break

            fclass = fetch_class[dynop.op]
            if fclass <= _BRANCH:
                # a scalar op: allocate a ROB entry, wire true dependences
                ready = cycle + 1
                producers = None
                for uid in dynop.reads:
                    w = lw[uid]
                    if w.__class__ is int:
                        if w > ready:
                            ready = w
                    elif producers is None:
                        producers = [w]
                    else:
                        producers.append(w)
                seq += 1
                entry = SEntry(dynop, ctx, seq, i, ready)
                for uid in dynop.writes:
                    lw[uid] = entry
                if producers is not None:
                    entry.unmet = len(producers)
                    for w in producers:
                        w.subscribe(entry)
                elif ready == cycle + 1:
                    # ready next cycle: the next wake-up would move it
                    # to its issue queue before anything issues
                    heapq.heappush(
                        self._issueq_mem if fclass == _MEM
                        else self._issueq_arith, (seq, entry))
                else:
                    heapq.heappush(self._ready_heap, (ready, seq, entry))
                rob.append(entry)
                room -= 1
                i += 1
                budget -= 1
                if fclass == _BRANCH and not self.bpred.predict_and_update(
                        dynop.pc, ctx.replay.takens[i - 1]):
                    ctx.blocked_on_branch = entry
                    break
                continue

            vu = self.machine.vu
            if fclass == _VECTOR:
                if vu is None:
                    raise RuntimeError(
                        f"vector instruction {dynop.op!r} on machine "
                        f"{self.machine.cfg.name!r} without a vector unit")
                if not vu.can_accept(ctx.tid, cycle):
                    self.stats.dispatch_stall_viq += 1
                    break
                # The ROB entry retires at once (it can no longer fault)
                # unless the op produces a scalar result, which the VCL
                # completes.  The VCL entry gets the known lower bound on
                # scalar-operand readiness and the in-flight scalar
                # producers it must subscribe to; vector-register
                # dependences are the VCL's business.
                regs = ctx.replay.vregs[dynop.pc]
                scalar_ready = cycle + 1
                pending: List[SEntry] = []
                for uid in regs.sreads:
                    w = lw[uid]
                    if w.__class__ is int:
                        if w > scalar_ready:
                            scalar_ready = w
                    else:
                        pending.append(w)
                seq += 1
                entry = SEntry(dynop, ctx, seq, i, cycle + 1)
                if regs.swrites:
                    for uid in regs.swrites:
                        lw[uid] = entry
                else:
                    entry.done_time = cycle + 1
                rob.append(entry)
                room -= 1
                if regs.is_mem:
                    if ctx.vlines is None:
                        ctx.vlines = ctx.replay.vlines(self.l2.cfg.line)
                    k = ctx.vmem_next
                    addrs = ctx.replay.vaddrs(k)
                    lines = ctx.vlines[k]
                    ctx.vmem_next = k + 1
                else:
                    addrs = lines = None
                vu.dispatch(ctx.tid, entry, cycle, scalar_ready, pending,
                            ctx.replay.vls[i], regs, addrs, lines)
                i += 1
                budget -= 1
                continue
            if fclass == _LSYNC:
                # memory-ordering fence: hold fetch until this thread's
                # vector accesses have drained (paper Section 2's
                # compiler-generated memory barriers)
                if vu is not None and not vu.partition_idle(ctx.tid, cycle):
                    break
                i += 1
                budget -= 1
                continue
            if fclass == _VLTCFG:
                nthr = dynop.imm or self.machine.num_threads
                if vu is None or nthr == len(vu.partitions):
                    # no change: a cheap configuration check
                    i += 1
                    budget -= 1
                    continue
                # an actual repartition quiesces the whole vector unit
                # (the paper switches at region boundaries, Section 3.3)
                if rob or vu.busy(cycle):
                    break
                i += 1
                ctx.fetch_idx = i
                self.machine.vltcfg_request(ctx.tid, nthr, cycle)
                ctx.fetch_stalled_until = \
                    cycle + self.machine.cfg.vltcfg_overhead
                break
            # barrier or halt: memory-synchronisation semantics -- all
            # prior scalar work committed AND this thread's vector work
            # drained
            if rob or (vu is not None
                       and not vu.partition_idle(ctx.tid, cycle)):
                break
            i += 1
            ctx.fetch_idx = i
            if fclass == _BARRIER:
                ctx.waiting_barrier = True
                self.machine.barrier_arrive(ctx.tid, cycle)
            else:
                ctx.halted = True
                ctx.finish_time = cycle
                self.machine.thread_halted(ctx.tid, cycle)
            break
        dispatched = seq - self._seq
        if dispatched:
            self._seq = seq
            self.rob_occupancy += dispatched
            self.stats.fetched += dispatched
        ctx.fetch_idx = i
        return budget

    # -- idle detection ---------------------------------------------------------

    def next_event(self, cycle: int) -> int:
        """Earliest future cycle at which this SU can make progress."""
        if self._issueq_arith or self._issueq_mem:
            return cycle + 1
        best = _NOT_DONE
        room = self.rob_occupancy < self.cfg.window
        for ctx in self.contexts:
            if ctx.halted or ctx.waiting_barrier:
                continue
            stalled = ctx.fetch_stalled_until
            if ctx.blocked_on_branch is None:
                if stalled <= cycle:
                    if room and ctx.fetch_idx < len(ctx.trace):
                        return cycle + 1
                elif stalled < best:
                    best = stalled
            if ctx.rob:
                t = ctx.rob[0].done_time
                if t < best:
                    best = t if t > cycle else cycle + 1
        if self._ready_heap:
            t = self._ready_heap[0][0]
            if t < best:
                best = t if t > cycle else cycle + 1
        return best

    @property
    def all_done(self) -> bool:
        return all(ctx.halted and not ctx.rob for ctx in self.contexts)
