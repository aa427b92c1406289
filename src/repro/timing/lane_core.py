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

#: hazard-record classes for the decoupled-slip scan
_OTHER, _LOAD, _ADDR, _BOUNDARY = range(4)


def _hazard_record(spec, reads, writes) -> tuple:
    """``(class, read mask, write mask, dst, reads)`` of one op.

    The class says what the slip scan does with the op: stop at a
    control boundary, try to issue a load or an integer address op, or
    only note its registers.  The masks carry one bit per register uid.
    """
    if spec.is_barrier or spec.is_halt or spec.is_vltcfg or spec.is_vector:
        kind = _BOUNDARY
    elif not writes:
        kind = _OTHER   # no destination: always a hazard, never slips
    elif spec.is_load:
        kind = _LOAD
    elif (spec.pool == "arith" and not spec.is_branch
          and all(u < 32 for u in writes)):
        kind = _ADDR
    else:
        kind = _OTHER
    rmask = 0
    for u in reads:
        rmask |= 1 << u
    wmask = 0
    for u in writes:
        wmask |= 1 << u
    return (kind, rmask, wmask, writes[0] if writes else None, reads)


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
        #: trace indices of loads issued early by decoupled slip
        self.pre_issued: set = set()
        #: one :func:`_hazard_record` per trace op
        self.hazards: List[tuple] = []
        #: slip memo: no scan can issue before this cycle (0: unknown)
        self.slip_wake = 0

    def add_thread(self, tid: int, replay: ReplayTrace, ops: list) -> None:
        self.tid = tid
        self.trace = ops
        self.addrs = replay.addrs
        self.takens = replay.takens
        self.halted = False
        self.hazards = replay.per_op([
            _hazard_record(r.spec, r.reads, r.writes)
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
        trace = self.trace
        reg_ready = self.reg_ready

        while budget:
            if self.idx in self.pre_issued:
                # load already issued by decoupled slip
                self.pre_issued.discard(self.idx)
                self.idx += 1
                continue
            i = self.idx
            dynop = trace[i]
            spec = dynop.spec

            iline = (CODE_BASE + dynop.pc * INSTR_BYTES) // self.cfg.icache_line
            if iline != self.last_iline:
                self.stats.icache_accesses += 1
                self.last_iline = iline
                if not self.icache.access(iline * self.cfg.icache_line):
                    self.stats.icache_misses += 1
                    self.stall_until = self.l2.access(
                        iline * self.cfg.icache_line, cycle) \
                        + self.cfg.imiss_extra
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(cycle, STALL,
                                       f"lane{self.lane_idx}", dynop,
                                       dur=self.stall_until - cycle,
                                       reason=StallReason.LANE_IMISS))
                    return

            if spec.is_vector:
                raise RuntimeError(
                    "vector instruction in a scalar lane-core thread "
                    f"(pc {dynop.pc}, op {dynop.op!r})")
            if spec.is_barrier:
                self.idx += 1
                self.waiting_barrier = True
                self.machine.barrier_arrive(
                    self.tid, max(cycle, self.last_done))
                return
            if spec.is_halt:
                self.idx += 1
                self.halted = True
                self.finish_time = max(cycle, self.last_done)
                self.machine.thread_halted(self.tid, self.finish_time)
                return
            if spec.is_vltcfg:
                self.idx += 1
                self.stall_until = cycle + self.machine.cfg.vltcfg_overhead
                return

            # In-order: block on the first not-ready instruction (but let
            # ready loads slip ahead through the decoupling queue).
            ready = cycle
            for uid in dynop.reads:
                t = reg_ready[uid]
                if t > ready:
                    ready = t
            if ready > cycle:
                self.stall_until = ready
                self.stats.load_stall_cycles += ready - cycle
                obs = self.obs
                if obs.enabled:
                    obs.emit(Event(cycle, STALL, f"lane{self.lane_idx}",
                                   dynop, dur=ready - cycle,
                                   reason=StallReason.OPERAND))
                self._slip(cycle, mem_slots)
                return

            if spec.pool == "mem":
                if mem_slots == 0:
                    return
                mem_slots -= 1
                addr = self.addrs[i]
                if spec.is_load:
                    done = self.l2.access(addr, cycle + spec.latency)
                else:
                    self.l2.access(addr, cycle + spec.latency)
                    # lane stores write the L2; SU L1 copies go stale
                    self.machine.l1d_invalidate(addr)
                    done = cycle + spec.latency
            else:
                done = cycle + spec.latency

            for uid in dynop.writes:
                reg_ready[uid] = done
            if done > self.last_done:
                self.last_done = done
            self.stats.issued += 1
            obs = self.obs
            if obs.enabled:
                obs.emit(Event(cycle, LANE_ISSUE, f"lane{self.lane_idx}",
                               dynop, dur=done - cycle))
            self.idx += 1
            budget -= 1

            if spec.is_branch and not spec.is_uncond:
                correct = self.bpred.predict_and_update(dynop.pc,
                                                        self.takens[i])
                if not correct:
                    self.stats.branch_mispredicts += 1
                    self.stall_until = done + self.cfg.mispredict_penalty
                    if obs.enabled:
                        obs.emit(Event(
                            cycle, STALL, f"lane{self.lane_idx}", dynop,
                            dur=self.stall_until - cycle,
                            reason=StallReason.LANE_MISPREDICT))
                    return

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

        Slip memo: a scan reads only ``idx``, ``pre_issued`` and
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
        trace = self.trace
        hazards = self.hazards
        reg_ready = self.reg_ready
        pre_issued = self.pre_issued
        mem_slots = 2
        _, read, written, _, _ = hazards[self.idx]
        wake = _FAR_FUTURE
        limit = min(len(trace), self.idx + 1 + self.cfg.decouple_depth)
        for j in range(self.idx + 1, limit):
            if j in pre_issued:
                continue
            kind, rmask, wmask, dst, reads = hazards[j]
            if kind == _BOUNDARY:
                break
            # candidates: loads, and scalar-integer address arithmetic
            if (kind == _ADDR or (kind == _LOAD and mem_slots > 0)) \
                    and not ((1 << dst) & (written | read)
                             or rmask & written):
                ready = 0
                for u in reads:
                    t = reg_ready[u]
                    if t > ready:
                        ready = t
                if ready <= cycle:
                    op = trace[j]
                    spec = op.spec
                    if kind == _LOAD:
                        done = self.l2.access(self.addrs[j],
                                              cycle + spec.latency)
                        mem_slots -= 1
                    else:
                        done = cycle + spec.latency
                    reg_ready[dst] = done
                    if done > self.last_done:
                        self.last_done = done
                    pre_issued.add(j)
                    self.stats.issued += 1
                    obs = self.obs
                    if obs.enabled:
                        obs.emit(Event(cycle, LANE_ISSUE,
                                       f"lane{self.lane_idx}", op,
                                       dur=done - cycle, arg="slip"))
                    budget -= 1
                    if budget == 0:
                        wake = 0    # later candidates were not examined
                        break
                    continue
                if ready < wake:
                    wake = ready
            written |= wmask
            read |= rmask
        self.slip_wake = wake

    def resume(self, at: int) -> None:
        """Barrier release: resume fetching at cycle ``at``."""
        self.waiting_barrier = False
        self.stall_until = max(self.stall_until, at)

    def next_event(self, cycle: int) -> int:
        if self.halted or self.waiting_barrier:
            return _FAR_FUTURE
        # a stalled lane changes no state before its execute stream
        # resumes or its slip memo expires (0 when no memo is held)
        t = min(self.stall_until, self.slip_wake)
        return t if t > cycle else cycle + 1
