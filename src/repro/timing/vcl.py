"""Vector unit timing model: control logic (VCL) + multi-lane datapaths.

The vector unit owns the lanes.  Under VLT the lanes are statically
partitioned across the software threads (Section 3.2): partition *p*
serves thread *p* with ``k = lanes / num_threads`` lanes, its own slice
of the VIQ, and per-partition functional-unit state (each of the 3
vector arithmetic FUs and 2 vector memory ports has a datapath per lane,
so a k-lane partition owns a k-lane-wide slice of every FU).

The VCL is *multiplexed*: its total issue bandwidth (2 instructions per
cycle in the base machine) is shared round-robin across partitions --
the paper found a multiplexed VCL with statically-partitioned resources
performs as well as a replicated one (Section 3.2).

Timing rules:

* a vector instruction occupies its FU for ``ceil(VL / k)`` cycles;
* *chaining*: a dependent vector arithmetic/store instruction may issue
  ``chain_delay`` cycles after its producer issues (element-wise
  forwarding); loads do not forward element-wise, so consumers of a
  loaded register wait for the load's completion;
* scalar operands arrive from the SU with a ``su_transfer`` delay, and
  scalar results (reductions, ``vext``, ``vmpop``) return with the same
  delay;
* vector memory instructions occupy a vector memory port for the
  address-generation occupancy and route element accesses through the
  banked L2 (unit-stride coalesced by line; strided/indexed per element).

Datapath-utilization accounting matches Figure 4: per cycle, each of the
``arith_fus * k`` datapaths of a partition is busy (executing an element
operation), partly idle (its FU is active but the instruction's VL does
not cover this lane-slot this cycle), or stalled (FU idle while vector
work is pending in the partition).  Fully-idle datapath-cycles are
derived at end of run.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from ..obs.events import (Event, EventBus, NULL_BUS, STALL, VISSUE,
                          StallReason)
from .config import VectorUnitConfig
from .l2 import BankedL2
from .stats import DatapathUtilization, VectorUnitStats


#: Size of the vector-side register-uid namespace (v0..v31 + vm).
_NUM_VSIDE = 33


class VEntry:
    """An in-flight vector instruction inside the VCL.

    ``dynop`` supplies the op's static fields (and is the event
    payload); ``regs`` is its pc's :class:`~repro.functional.trace.
    VectorRegs`; the dispatching SU hands over its dynamic fields.
    """

    __slots__ = ("dynop", "seq", "sentry", "scalar_unmet", "vec_unmet",
                 "ready", "subscribers", "transfer", "regs", "vl", "addrs",
                 "lines")

    def __init__(self, dynop, seq: int, sentry, ready: int, transfer: int,
                 vl: int, regs, addrs: Optional[np.ndarray], lines):
        self.dynop = dynop
        self.seq = seq
        self.sentry = sentry
        self.scalar_unmet = 0
        self.vec_unmet = 0
        self.ready = ready
        self.subscribers: Optional[list] = None
        self.transfer = transfer
        self.regs = regs
        self.vl = vl
        #: element addresses and distinct L2 lines of a vector memory
        #: op (None otherwise)
        self.addrs = addrs
        self.lines = lines

    def notify(self, time: int) -> None:
        """A scalar producer (SEntry) announced; add the SU->VCL hop."""
        t = time + self.transfer
        if t > self.ready:
            self.ready = t
        self.scalar_unmet -= 1

    def vec_notify(self, time: int) -> None:
        if time > self.ready:
            self.ready = time
        self.vec_unmet -= 1

    def vec_subscribe(self, consumer: "VEntry") -> None:
        if self.subscribers is None:
            self.subscribers = [consumer]
        else:
            self.subscribers.append(consumer)


class _FU:
    """One partition-slice of a vector functional unit."""

    __slots__ = ("busy_until", "start", "occ", "vl")

    def __init__(self) -> None:
        self.busy_until = 0
        self.start = 0
        self.occ = 0
        self.vl = 0


class Partition:
    """The per-thread slice of the vector unit."""

    __slots__ = ("idx", "k", "viq_capacity", "reserved", "arrivals", "viq",
                 "last_writer", "fus", "ports", "last_completion",
                 "rename_budget", "rename_pending", "rename_queued", "util")

    def __init__(self, idx: int, k: int, viq_capacity: int,
                 arith_fus: int, mem_ports: int, rename_budget: int = 32):
        self.idx = idx
        self.k = k
        self.viq_capacity = viq_capacity
        self.reserved = 0
        self.arrivals: list = []    # heap of (arrive_time, seq, VEntry)
        self.viq: List[VEntry] = []
        # vector-side last writer: (chain_time, full_time) or VEntry
        self.last_writer: List = [(0, 0)] * _NUM_VSIDE
        self.fus = [_FU() for _ in range(arith_fus)]
        self.ports = [_FU() for _ in range(mem_ports)]
        self.last_completion = 0
        #: physical-register renaming: spare registers beyond the 32
        #: architectural ones (Table 3: 64 physical).  Each in-flight
        #: vector-register writer holds one from dispatch to completion.
        self.rename_budget = rename_budget
        self.rename_pending: list = []   # heap of completion times
        #: vector-register writers dispatched but not yet issued
        #: (arriving or in the VIQ)
        self.rename_queued = 0
        #: per-partition datapath accounting (Figure 4 buckets); summed
        #: across partitions it is exactly the vector unit's utilization
        self.util = DatapathUtilization()

    def rename_in_use(self, cycle: int) -> int:
        """Physical registers currently held by in-flight writers."""
        pend = self.rename_pending
        while pend and pend[0] <= cycle:
            heapq.heappop(pend)
        return len(pend) + self.rename_queued

    @property
    def pending(self) -> bool:
        return bool(self.arrivals or self.viq)

    def in_flight(self, cycle: int) -> bool:
        if self.arrivals or self.viq:
            return True
        for f in self.fus:
            if f.busy_until > cycle:
                return True
        for p in self.ports:
            if p.busy_until > cycle:
                return True
        return False


class VectorUnit:
    """The whole vector unit: VCL + lanes, partitioned for VLT."""

    def __init__(self, cfg: VectorUnitConfig, l2: BankedL2,
                 lane_split: List[int], bus: Optional[EventBus] = None,
                 invalidate=None):
        self.cfg = cfg
        self.l2 = l2
        self.obs = bus if bus is not None else NULL_BUS
        #: optional coherence callback for vector stores (addrs array)
        self._invalidate = invalidate
        self.stats = VectorUnitStats()
        #: utilization folded from partitions retired by repartition()
        self._folded_util = DatapathUtilization()
        self.partitions: List[Partition] = []
        self._build_partitions(lane_split)
        #: vector instructions dispatched so far (each VEntry's seq)
        self.dispatched = 0
        #: repartitions that changed the partition count
        self.repartitions = 0
        self._rr = 0
        self.last_completion = 0

    @property
    def util(self) -> DatapathUtilization:
        """Aggregate datapath accounting (Figure 4): the bucket-wise sum
        of every partition -- current and repartitioned-away."""
        u = self._folded_util
        if self.cfg.vu_smt:
            # shared-FU accounting lands on partition 0 only
            return u.merged(self.partitions[0].util) if self.partitions \
                else u
        for part in self.partitions:
            u = u.merged(part.util)
        return u

    def _build_partitions(self, lane_split: List[int]) -> None:
        cfg = self.cfg
        nparts = len(lane_split)
        cap = max(2, cfg.viq_entries // nparts)
        rename = max(1, cfg.phys_vregs - 32)
        if cfg.vu_smt:
            # SMT vector processor: every thread sees all lanes; the
            # physical FUs/ports are shared across thread contexts
            self.partitions = [
                Partition(i, cfg.lanes, cap, cfg.arith_fus, cfg.mem_ports,
                          rename_budget=rename)
                for i in range(nparts)]
            shared_fus = self.partitions[0].fus
            shared_ports = self.partitions[0].ports
            for p in self.partitions[1:]:
                p.fus = shared_fus
                p.ports = shared_ports
            return
        self.partitions = [
            Partition(i, k, cap, cfg.arith_fus, cfg.mem_ports,
                      rename_budget=rename)
            for i, k in enumerate(lane_split)]

    def repartition(self, num_parts: int, cycle: int) -> None:
        """Dynamic VLT reconfiguration (paper Section 3.3).

        Splits the lanes across ``num_parts`` threads.  Must be called
        at a quiesced point (the paper switches at the boundaries of
        large parallel regions where vector registers hold no live
        values); vector-register state is architecturally discarded --
        the functional simulator retains values, but a timing
        repartition while vector work is in flight is a program error.
        """
        if num_parts == len(self.partitions):
            return
        lanes = self.cfg.lanes
        if num_parts < 1 or lanes % num_parts:
            raise ValueError(
                f"cannot split {lanes} lanes across {num_parts} threads")
        if self.busy(cycle):
            raise RuntimeError(
                "vltcfg while vector work is in flight: reconfiguration "
                "is only legal at quiesced region boundaries (Sec. 3.3)")
        # fold the retiring partitions' datapath accounting so the
        # aggregate (Figure 4) survives the reconfiguration
        if self.cfg.vu_smt:
            if self.partitions:
                self._folded_util = \
                    self._folded_util.merged(self.partitions[0].util)
        else:
            for part in self.partitions:
                self._folded_util = self._folded_util.merged(part.util)
        self._build_partitions([lanes // num_parts] * num_parts)
        self._rr = 0
        self.repartitions += 1

    # -- SU-side interface ------------------------------------------------------

    def can_accept(self, tid: int, cycle: int) -> bool:
        if tid >= len(self.partitions):
            raise RuntimeError(
                f"thread {tid} issued a vector instruction but the lanes "
                f"are partitioned for {len(self.partitions)} threads "
                f"(vltcfg mismatch -- see paper Section 3.3)")
        part = self.partitions[tid]
        if part.reserved >= part.viq_capacity:
            self.stats.viq_full_events += 1
            obs = self.obs
            if obs.enabled:
                obs.emit(Event(cycle, STALL, f"VU.p{part.idx}", dur=1,
                               reason=StallReason.VIQ_FULL))
            return False
        if part.rename_in_use(cycle) >= part.rename_budget:
            self.stats.viq_full_events += 1
            obs = self.obs
            if obs.enabled:
                obs.emit(Event(cycle, STALL, f"VU.p{part.idx}", dur=1,
                               reason=StallReason.VRENAME_FULL))
            return False
        return True

    def partition_idle(self, tid: int, cycle: int) -> bool:
        """True when this thread's vector work has fully drained (used
        by barrier/halt/vltcfg memory-synchronisation semantics).

        A thread with no partition under the current configuration is
        trivially idle.
        """
        if tid >= len(self.partitions):
            return True
        part = self.partitions[tid]
        return not part.in_flight(cycle) and part.last_completion <= cycle

    def dispatch(self, tid: int, sentry, cycle: int,
                 scalar_ready: int, pending: list, vl: int, regs,
                 addrs: Optional[np.ndarray], lines) -> VEntry:
        """Accept a vector instruction from the SU at dispatch time.

        ``vl`` is the op's dynamic vector length and ``regs`` its
        register split (:class:`~repro.functional.trace.VectorRegs`);
        a memory op also brings its element addresses and their sorted
        distinct L2 lines.
        """
        part = self.partitions[tid]
        transfer = self.cfg.su_transfer
        self.dispatched += 1
        arrival = cycle + transfer
        ventry = VEntry(sentry.dynop, self.dispatched, sentry,
                        max(arrival, scalar_ready + transfer), transfer,
                        vl, regs, addrs, lines)
        ventry.scalar_unmet = len(pending)
        for producer in pending:
            producer.subscribe(ventry)
        part.reserved += 1
        if regs.writes_vreg:
            part.rename_queued += 1
        heapq.heappush(part.arrivals, (arrival, ventry.seq, ventry))
        return ventry

    # -- per-cycle step -----------------------------------------------------------

    def step(self, cycle: int) -> None:
        for part in self.partitions:
            arr = part.arrivals
            if arr and arr[0][0] <= cycle:
                self._admit(part, cycle)
        self._issue(cycle)
        self._account(cycle)

    def _admit(self, part: Partition, cycle: int) -> None:
        """Move arrived instructions into the VIQ and wire vector deps."""
        arr = part.arrivals
        lw = part.last_writer
        while arr and arr[0][0] <= cycle:
            ventry = heapq.heappop(arr)[2]
            regs = ventry.regs
            for v in regs.vreads:
                w = lw[v]
                if w.__class__ is tuple:
                    # Consumers use the producer's chain time; values that
                    # cannot be chained (loaded from memory) are encoded by
                    # the producer publishing chain == full completion.
                    t = w[0]
                    if t > ventry.ready:
                        ventry.ready = t
                else:
                    w.vec_subscribe(ventry)
                    ventry.vec_unmet += 1
            for v in regs.vwrites:
                lw[v] = ventry
            part.viq.append(ventry)

    def _issue(self, cycle: int) -> None:
        nparts = len(self.partitions)
        if self.cfg.replicated_vcl:
            # one VCL per thread: full issue width per partition
            for part in self.partitions:
                if part.viq:
                    self._issue_partition(part, cycle, self.cfg.issue_width)
            return
        # multiplexed VCL: the issue width is shared round-robin
        budget = self.cfg.issue_width
        start = self._rr
        self._rr = (start + 1) % nparts
        for k in range(nparts):
            part = self.partitions[(start + k) % nparts]
            if part.viq:
                budget = self._issue_partition(part, cycle, budget)
                if budget == 0:
                    return

    def _issue_partition(self, part: Partition, cycle: int,
                         budget: int) -> int:
        viq = part.viq
        i = 0
        while i < len(viq) and budget:
            ventry = viq[i]
            if (ventry.scalar_unmet or ventry.vec_unmet
                    or ventry.ready > cycle):
                i += 1
                continue
            regs = ventry.regs
            for fu_idx, fu in enumerate(part.ports if regs.is_mem
                                        else part.fus):
                if fu.busy_until <= cycle:
                    break
            else:
                i += 1
                continue
            viq.pop(i)
            part.reserved -= 1
            if regs.writes_vreg:
                part.rename_queued -= 1
            self._execute(part, ventry, fu, fu_idx, regs.is_mem, cycle)
            budget -= 1
        return budget

    def _execute(self, part: Partition, ventry: VEntry, fu: _FU,
                 fu_idx: int, is_mem: bool, cycle: int) -> None:
        dynop = ventry.dynop
        spec = dynop.spec
        k = part.k
        vl = ventry.vl
        occ = max(1, -(-vl // k))
        stats = self.stats
        stats.issued += 1
        stats.element_ops += vl
        obs = self.obs
        if obs.enabled:
            label = f"port{fu_idx}" if is_mem else f"fu{fu_idx}"
            obs.emit(Event(cycle, VISSUE, f"VU.p{part.idx}", dynop,
                           dur=occ, arg=label))

        fu.busy_until = cycle + occ
        fu.start = cycle
        fu.occ = occ
        fu.vl = vl

        if is_mem:
            addrs = ventry.addrs
            lines = ventry.lines
            completion = self.l2.vector_access(
                addrs, cycle + 1, addrs_per_cycle=k,
                unit_stride=not (spec.mem_stride or spec.mem_indexed),
                lines=lines)
            if spec.is_store and lines and self._invalidate is not None:
                # vector stores write the L2 directly; SU L1 copies of
                # the touched lines go stale (Section 2 coherence)
                self._invalidate(lines)
            stats.mem_instrs += 1
            stats.mem_elements += addrs.size
            chain = full = completion
        else:
            completion = cycle + occ + spec.latency
            chain = cycle + self.cfg.chain_delay
            full = completion
            if spec.is_load or spec.is_store:  # pragma: no cover
                raise AssertionError("memory op in arithmetic pool")

        if full > self.last_completion:
            self.last_completion = full
        if full > part.last_completion:
            part.last_completion = full
        regs = ventry.regs
        if regs.writes_vreg:
            heapq.heappush(part.rename_pending, full)
        lw = part.last_writer
        for v in regs.vwrites:
            if lw[v] is ventry:
                lw[v] = (chain, full)
        subs = ventry.subscribers
        if subs:
            ventry.subscribers = None
            for c in subs:
                c.vec_notify(chain)

        # Scalar results travel back to the SU.
        if regs.swrites:
            ventry.sentry.vu_complete(full + self.cfg.su_transfer)

    # -- utilization accounting (Figure 4) ---------------------------------------

    def _account(self, cycle: int) -> None:
        if self.cfg.vu_smt:
            # shared FUs: account once, "pending" if any context has work
            part = self.partitions[0]
            util = part.util
            pending = any(p.pending for p in self.partitions)
            k = part.k
            for fu in part.fus:
                if fu.busy_until > cycle:
                    i = cycle - fu.start
                    active = k if i < fu.occ - 1 else \
                        max(0, min(k, fu.vl - k * (fu.occ - 1)))
                    util.busy += active
                    util.partly_idle += k - active
                elif pending:
                    util.stalled += k
            return
        for part in self.partitions:
            util = part.util
            k = part.k
            pending = part.pending
            for fu in part.fus:
                if fu.busy_until > cycle:
                    i = cycle - fu.start
                    if i < fu.occ - 1:
                        active = k
                    else:
                        active = fu.vl - k * (fu.occ - 1)
                        if active < 0:
                            active = 0
                        elif active > k:
                            active = k
                    util.busy += active
                    util.partly_idle += k - active
                elif pending:
                    util.stalled += k
                # fully-idle datapath-cycles are derived at end of run

    def partition_utils(self, cycles: int):
        """Per-partition Figure-4 accounting with derived all-idle.

        Returns ``(utils, lanes)`` where ``utils[i]`` is the
        :class:`DatapathUtilization` of partition *i* (all-idle derived
        against ``arith_fus * k * cycles``) and ``lanes[i]`` is its lane
        count.  For an SMT vector unit the FUs are shared, so a single
        row covering all lanes is returned.  Partitions retired by a
        dynamic repartition are not included; their cycles appear only
        in the aggregate :attr:`util` (the stall-attribution report
        shows the difference as an explicit residual row).
        """
        fus = self.cfg.arith_fus
        if self.cfg.vu_smt:
            parts = self.partitions[:1]
        else:
            parts = self.partitions
        utils: List[DatapathUtilization] = []
        lanes: List[int] = []
        for part in parts:
            u = part.util
            total = fus * part.k * cycles
            utils.append(DatapathUtilization(
                busy=u.busy, partly_idle=u.partly_idle, stalled=u.stalled,
                all_idle=max(0, total - u.busy - u.partly_idle - u.stalled)))
            lanes.append(part.k)
        return utils, lanes

    # -- idle detection -----------------------------------------------------------

    def busy(self, cycle: int) -> bool:
        """True while any partition has work (the VU must be stepped)."""
        if self.last_completion > cycle:
            return True
        for p in self.partitions:
            if p.in_flight(cycle):
                return True
        return False
