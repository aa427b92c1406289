"""Vector lanes re-engineered as scalar cores (paper Section 5).

For parallel-but-not-vectorizable code, each lane is augmented with a
4 KB instruction cache and sequencing logic and runs one scalar thread
as a **2-way in-order** processor.  Key modelling points, following the
paper:

* no per-lane data cache: every load/store goes to the banked L2 (the
  10-cycle hit latency is tolerable because the lanes already have
  queueing resources for access decoupling -- modelled as scoreboarded
  loads plus *decoupled slip*: while the in-order execute stream is
  stalled on an operand, later loads whose addresses are ready may issue
  ahead, up to ``decouple_depth`` instructions and subject to
  register-hazard checks -- the access/execute decoupling of [14] that
  the paper leans on);
* lane I-cache misses are forwarded to the scalar unit for service,
  modelled as an L2 access plus a fixed forwarding overhead;
* out-of-order execution within a lane is not possible: issue stops at
  the first instruction whose operands are not ready;
* a small bimodal predictor with a shallow-pipeline mispredict penalty.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..functional.trace import ReplayTrace
from ..isa.registers import NUM_REG_UIDS
from ..obs.events import Event, LANE_ISSUE, STALL, StallReason
from .branch import BimodalPredictor
from .caches import Cache
from .config import LaneCoreConfig
from .l2 import BankedL2
from .stats import LaneCoreStats

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

from .scalar_unit import CODE_BASE, INSTR_BYTES

_FAR_FUTURE = 1 << 62

#: slip-scan classes of a per-pc record; ``_SLIPPED`` is the class of
#: :data:`_ISSUED`, the entry of an op a scan has already issued
_OTHER, _LOAD, _ADDR, _BOUNDARY, _SLIPPED = range(5)
#: in-order classes: which issue path :meth:`LaneCore.step` takes
_ALU, _BRANCH, _LD, _ST, _VECTOR, _BARRIER, _HALT, _VLTCFG = range(8)
_ISSUED = (_SLIPPED,)


def _record(op, icache_line: int) -> tuple:
    """``(kind, rmask, wmask, rwmask, dbit, dst, reads, writes, cls,
    latency, iline, pc)`` of one per-pc op.

    ``kind`` says what the slip scan does with the op: stop at a control
    boundary, try to issue a load or an integer address op, or only
    note its registers.  The masks carry one bit per register uid
    (``dbit`` is the destination ``dst``'s).  ``cls`` is the in-order
    class and ``iline`` the op's I-cache line.
    """
    spec, reads, writes = op.spec, op.reads, op.writes
    if spec.pool == "mem":
        cls = _LD if spec.is_load else _ST
    elif spec.is_branch and not spec.is_uncond:
        cls = _BRANCH
    else:
        cls = (_VECTOR if spec.is_vector else _BARRIER if spec.is_barrier
               else _HALT if spec.is_halt else _VLTCFG if spec.is_vltcfg
               else _ALU)
    if cls > _ST:
        kind = _BOUNDARY
    elif writes and spec.is_load:
        kind = _LOAD
    elif (writes and spec.pool == "arith" and not spec.is_branch
          and all(u < 32 for u in writes)):
        kind = _ADDR
    else:
        kind = _OTHER   # no destination, or not a load or integer op
    rmask = 0
    for u in reads:
        rmask |= 1 << u
    wmask = 0
    for u in writes:
        wmask |= 1 << u
    dst = writes[0] if writes else None
    return (kind, rmask, wmask, rmask | wmask,
            0 if dst is None else 1 << dst, dst, reads, writes, cls,
            spec.latency, (CODE_BASE + op.pc * INSTR_BYTES) // icache_line,
            op.pc)


class LaneCore:
    """One lane operating as an independent 2-way in-order scalar core."""

    def __init__(self, machine: "Machine", lane_idx: int,
                 cfg: LaneCoreConfig, l2: BankedL2):
        self.machine = machine
        self.lane_idx = lane_idx
        self.cfg = cfg
        self.l2 = l2
        self.obs = machine.obs
        self.stats = LaneCoreStats()
        self.icache = Cache(cfg.icache_kib * 1024, 1, cfg.icache_line,
                            name=f"lane{lane_idx}-I$", bus=self.obs)
        self.bpred = BimodalPredictor(cfg.bpred_entries)
        self.tid: Optional[int] = None
        #: the per-op list: op i's static fields (and event payload)
        self.trace: list = []
        #: op i's per-pc :func:`_record`, or :data:`_ISSUED` once a
        #: slip scan has issued it
        self.recs: list = []
        #: op i's first memory address and branch outcome
        self.addrs: List[int] = []
        self.takens: List[int] = []
        self.idx = 0
        self.reg_ready = [0] * NUM_REG_UIDS
        self.stall_until = 0
        self.last_done = 0
        self.last_iline = -1
        self.waiting_barrier = False
        self.halted = True  # no thread assigned yet
        self.finish_time: Optional[int] = None
        #: slip memo: no scan can issue before this cycle (0: unknown)
        self.slip_wake = 0
        #: the machine steps the core from this cycle on: its last
        #: :meth:`next_event` answer, or 0 when that must be asked again
        self.due = 0

    def add_thread(self, tid: int, replay: ReplayTrace, ops: list) -> None:
        self.tid = tid
        self.trace = ops
        self.addrs = replay.addrs
        self.takens = replay.takens
        self.halted = False
        self.recs = replay.per_op([_record(r, self.cfg.icache_line)
                                   for r in replay.records])

    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        if self.halted or self.waiting_barrier:
            return
        if self.stall_until > cycle:
            # execute stream stalled: the access stream keeps running
            self._slip(cycle, 2)
            return
        self.slip_wake = 0   # the in-order path changes what a scan sees
        budget = self.cfg.width
        mem_slots = 2  # two memory ports per lane (Table 3)
        recs = self.recs
        reg_ready = self.reg_ready
        i = self.idx   # written back to self.idx at every exit

        while budget:
            rec = recs[i]
            if rec is _ISSUED:
                i += 1   # a load or address op decoupled slip issued
                continue
            _, _, _, _, _, _, reads, writes, cls, latency, iline, pc = rec

            if iline != self.last_iline:
                self.stats.icache_accesses += 1
                self.last_iline = iline
                iaddr = iline * self.cfg.icache_line
                if not self.icache.access(iaddr):
                    self.stats.icache_misses += 1
                    self.idx = i
                    self.stall_until = self.l2.access(iaddr, cycle) \
                        + self.cfg.imiss_extra
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(cycle, STALL,
                                       f"lane{self.lane_idx}", self.trace[i],
                                       dur=self.stall_until - cycle,
                                       reason=StallReason.LANE_IMISS))
                    return

            if cls > _ST:
                if cls == _VECTOR:
                    raise RuntimeError(
                        "vector instruction in a scalar lane-core thread "
                        f"(pc {pc}, op {self.trace[i].op!r})")
                self.idx = i + 1
                if cls == _BARRIER:
                    self.waiting_barrier = True
                    self.machine.barrier_arrive(
                        self.tid, max(cycle, self.last_done))
                elif cls == _HALT:
                    self.halted = True
                    self.finish_time = max(cycle, self.last_done)
                    self.machine.thread_halted(self.tid, self.finish_time)
                else:   # vltcfg
                    self.stall_until = \
                        cycle + self.machine.cfg.vltcfg_overhead
                return

            # In-order: block on the first not-ready instruction (but let
            # ready loads slip ahead through the decoupling queue).
            ready = cycle
            for uid in reads:
                t = reg_ready[uid]
                if t > ready:
                    ready = t
            if ready > cycle:
                self.idx = i
                self.stall_until = ready
                self.stats.load_stall_cycles += ready - cycle
                obs = self.obs
                if obs.enabled:
                    obs.emit(Event(cycle, STALL, f"lane{self.lane_idx}",
                                   self.trace[i], dur=ready - cycle,
                                   reason=StallReason.OPERAND))
                self._slip(cycle, mem_slots)
                return

            if cls >= _LD:
                if mem_slots == 0:
                    self.idx = i
                    return
                mem_slots -= 1
                addr = self.addrs[i]
                if cls == _LD:
                    done = self.l2.access(addr, cycle + latency)
                else:
                    self.l2.access(addr, cycle + latency)
                    # lane stores write the L2; SU L1 copies go stale
                    self.machine.l1d_invalidate(addr)
                    done = cycle + latency
            else:
                done = cycle + latency

            for uid in writes:
                reg_ready[uid] = done
            if done > self.last_done:
                self.last_done = done
            self.stats.issued += 1
            obs = self.obs
            if obs.enabled:
                obs.emit(Event(cycle, LANE_ISSUE, f"lane{self.lane_idx}",
                               self.trace[i], dur=done - cycle))
            i += 1
            budget -= 1

            if cls == _BRANCH:
                correct = self.bpred.predict_and_update(pc,
                                                        self.takens[i - 1])
                if not correct:
                    self.stats.branch_mispredicts += 1
                    self.idx = i
                    self.stall_until = done + self.cfg.mispredict_penalty
                    if obs.enabled:
                        obs.emit(Event(
                            cycle, STALL, f"lane{self.lane_idx}",
                            self.trace[i - 1],
                            dur=self.stall_until - cycle,
                            reason=StallReason.LANE_MISPREDICT))
                    return
        self.idx = i

    # ------------------------------------------------------------------

    def _slip(self, cycle: int, budget: int) -> None:
        """Decoupled access-stream slip.

        While the in-order execute stream is stalled on an operand, the
        lane's access resources keep running: later *loads* and the
        *integer ops that feed their addresses* may issue if their
        operands are ready -- the access/execute decoupling of the
        paper's citation [14], which the lanes implement with their
        vector-memory queuing resources (Sections 2 and 5).

        Hazard rules (register-level, conservative): an instruction may
        slip only if no unissued earlier instruction writes any of its
        sources (true dependence) and none reads or writes its
        destination (anti/output dependence).  FP instructions never
        slip (they are the execute stream); stores never slip; slip
        stops at control boundaries and is bounded by
        ``decouple_depth`` instructions and ``budget`` issues per cycle
        (the lane is still a 2-wide machine).  Memory-order hazards are
        not modelled, as in the rest of the timing simulator.

        The scan accumulates the registers the unissued ops after
        ``idx`` write and read, seeded from ``idx``'s per-pc record even
        if ``idx`` slipped; an op it issues becomes :data:`_ISSUED`.

        Slip memo: a scan reads only ``idx``, :attr:`recs` and
        ``reg_ready``.  Lane registers are private to the lane and the
        L2 is touched only on issue, so nothing outside the lane changes
        what the next scan sees.  Ops a scan issues are skipped by later
        scans, and the ops it leaves keep their hazard status and ready
        times: an issued op was never in the hazard sets, and it cannot
        write a register an earlier unissued op reads (that is an
        anti-dependence hazard).  So a scan that examines its whole
        window records in :attr:`slip_wake` the earliest cycle at which
        a hazard-free candidate's sources are ready, and every scan
        before that cycle returns at once.  The in-order path and a scan
        that uses up its issue budget clear the memo.
        """
        if cycle < self.slip_wake or budget == 0:
            return
        recs = self.recs
        reg_ready = self.reg_ready
        mem_slots = 2
        i = self.idx
        head = recs[i]
        if head is _ISSUED:     # idx itself slipped: decode it again
            head = _record(self.trace[i], self.cfg.icache_line)
        acc_w = head[2]     # registers the unissued ops write
        acc_rw = head[3]    # ... and read or write
        wake = _FAR_FUTURE
        for j, rec in enumerate(recs[i + 1:i + 1 + self.cfg.decouple_depth],
                                i + 1):
            kind = rec[0]
            if not kind:    # _OTHER
                acc_w |= rec[2]
                acc_rw |= rec[3]
                continue
            if kind > _ADDR:
                if kind == _BOUNDARY:
                    break
                continue    # _ISSUED
            # candidates: loads, and scalar-integer address arithmetic
            if (kind == _ADDR or mem_slots) \
                    and not (rec[4] & acc_rw or rec[1] & acc_w):
                ready = 0
                for u in rec[6]:
                    t = reg_ready[u]
                    if t > ready:
                        ready = t
                if ready <= cycle:
                    if kind == _LOAD:
                        done = self.l2.access(self.addrs[j], cycle + rec[9])
                        mem_slots -= 1
                    else:
                        done = cycle + rec[9]
                    reg_ready[rec[5]] = done
                    if done > self.last_done:
                        self.last_done = done
                    recs[j] = _ISSUED
                    self.stats.issued += 1
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(cycle, LANE_ISSUE,
                                       f"lane{self.lane_idx}", self.trace[j],
                                       dur=done - cycle, arg="slip"))
                    budget -= 1
                    if budget == 0:
                        wake = 0    # later candidates were not examined
                        break
                    continue
                if ready < wake:
                    wake = ready
            acc_w |= rec[2]
            acc_rw |= rec[3]
        self.slip_wake = wake

    def resume(self, at: int) -> None:
        """Barrier release: resume fetching at cycle ``at``."""
        self.waiting_barrier = False
        self.stall_until = max(self.stall_until, at)
        self.due = 0

    def next_event(self, cycle: int) -> int:
        if self.halted or self.waiting_barrier:
            return _FAR_FUTURE
        # a stalled lane changes no state before its execute stream
        # resumes or its slip memo expires (0 when no memo is held)
        t = min(self.stall_until, self.slip_wake)
        return t if t > cycle else cycle + 1
