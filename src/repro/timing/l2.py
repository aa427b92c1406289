"""Banked L2 cache + main-memory timing model.

The L2 is the vector unit's first memory level (vector accesses bypass
the small L1s, Section 2) and the backing store for SU L1 misses and
lane-core accesses.  It is modelled as:

* one logical set-associative tag array (hit/miss classification), and
* ``banks`` independent bank servers, line-interleaved, each occupied
  ``bank_busy`` cycles per access -- the source of stride/conflict
  behaviour for vector memory instructions.

``access`` handles one scalar-side line access; ``vector_access``
handles an element-address vector, issuing ``addrs_per_cycle`` addresses
per cycle (the lane address generators of one vector memory port) and
returning both the completion time of the slowest element and the
element-level hit statistics.  Unit-stride accesses are coalesced to one
bank transaction per distinct line, which is what gives unit-stride its
paper-described advantage over large-stride/indexed accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..obs.events import BANK_CONFLICT, Event, EventBus, NULL_BUS
from .caches import Cache
from .config import L2Config


@dataclass
class L2Stats:
    scalar_accesses: int = 0
    vector_elements: int = 0
    vector_line_txns: int = 0
    bank_conflict_cycles: int = 0


class BankedL2:
    """Shared multi-banked L2 with per-bank occupancy."""

    __slots__ = ("cfg", "bus", "tags", "bank_free", "stats")

    def __init__(self, cfg: L2Config, bus: Optional[EventBus] = None):
        self.cfg = cfg
        self.bus = bus if bus is not None else NULL_BUS
        self.tags = Cache(cfg.size_kib * 1024, cfg.assoc, cfg.line, name="L2",
                          bus=self.bus)
        self.bank_free: List[int] = [0] * cfg.banks
        self.stats = L2Stats()

    # -- scalar / line-granular ------------------------------------------------

    def access(self, addr: int, now: int) -> int:
        """One line access (SU L1 miss or lane-core access); returns done time."""
        cfg = self.cfg
        bank = (addr // cfg.line) % cfg.banks
        start = max(now, self.bank_free[bank])
        self.bank_free[bank] = start + cfg.bank_busy
        self.stats.scalar_accesses += 1
        self.stats.bank_conflict_cycles += start - now
        if start > now and self.bus.enabled:
            self.bus.emit(Event(now, BANK_CONFLICT, f"L2.bank{bank}",
                                dur=start - now, arg=bank))
        hit = self.tags.access(addr)
        return start + (cfg.hit_latency if hit else cfg.miss_latency)

    # -- vector ------------------------------------------------------------------

    def vector_access(self, addrs: np.ndarray, now: int,
                      addrs_per_cycle: int, unit_stride: bool,
                      lines=None) -> int:
        """Service a vector memory instruction's element addresses.

        ``addrs_per_cycle`` is the number of addresses the issuing
        partition generates per cycle (lanes in the partition, per port).
        ``lines`` is the sorted distinct line numbers of ``addrs`` when
        the caller has them (the replay form decodes them once per
        trace); a unit-stride access is served from them.  Returns the
        cycle at which the *last* element completes.
        """
        cfg = self.cfg
        n = int(addrs.size)
        if n == 0:
            return now + cfg.hit_latency
        stats = self.stats
        stats.vector_elements += n

        line = cfg.line
        if unit_stride:
            # Coalesce: one bank transaction per distinct line; the whole
            # group of elements in a line completes with that transaction.
            if lines is None:
                lines = np.unique(addrs // line).tolist()
            elems_per_line = max(1, line // 8)
            banks, busy = cfg.banks, cfg.bank_busy
            hit_lat, miss_lat = cfg.hit_latency, cfg.miss_latency
            bank_free = self.bank_free
            tags_access = self.tags.access
            bus = self.bus
            done = now
            for j, ln in enumerate(lines):
                t = now + (j * elems_per_line) // addrs_per_cycle
                bank = ln % banks
                start = bank_free[bank]
                if start > t:
                    stats.bank_conflict_cycles += start - t
                    if bus.enabled:
                        bus.emit(Event(t, BANK_CONFLICT, f"L2.bank{bank}",
                                       dur=start - t, arg=bank))
                else:
                    start = t
                bank_free[bank] = start + busy
                fin = start + (hit_lat if tags_access(ln * line)
                               else miss_lat)
                if fin > done:
                    done = fin
            stats.vector_line_txns += len(lines)
            return done

        # Strided / indexed: every element is its own bank transaction.
        banks = ((addrs // line) % cfg.banks).astype(np.int64)
        issue_times = now + np.arange(n) // addrs_per_cycle
        done = now
        bank_free = self.bank_free
        tags_access = self.tags.access
        hit_lat, miss_lat, busy = cfg.hit_latency, cfg.miss_latency, cfg.bank_busy
        addrs_list = addrs.tolist()
        banks_list = banks.tolist()
        times_list = issue_times.tolist()
        bus = self.bus
        for i in range(n):
            b = banks_list[i]
            t = times_list[i]
            start = bank_free[b] if bank_free[b] > t else t
            bank_free[b] = start + busy
            self.stats.bank_conflict_cycles += start - t
            if start > t and bus.enabled:
                bus.emit(Event(t, BANK_CONFLICT, f"L2.bank{b}",
                               dur=start - t, arg=b))
            fin = start + (hit_lat if tags_access(addrs_list[i]) else miss_lat)
            if fin > done:
                done = fin
        self.stats.vector_line_txns += n
        return done
