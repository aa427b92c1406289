"""Set-associative cache timing model (tags only, true-LRU).

The timing simulator never moves data -- the functional simulator already
produced correct values -- so caches here track only tags and replacement
state to classify accesses as hits or misses.  Write policy is
write-allocate; write-back traffic is not modelled (the L2's banked
occupancy model dominates vector-store timing, and the paper does not
report writeback effects).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

from ..obs.events import CACHE_MISS, Event, EventBus, NULL_BUS


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A single-level set-associative tag array with LRU replacement."""

    __slots__ = ("name", "bus", "line_bytes", "assoc", "num_sets", "_sets",
                 "stats")

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int,
                 name: str = "cache", bus: Optional[EventBus] = None):
        if size_bytes % (assoc * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line = {assoc * line_bytes}")
        self.name = name
        #: observability event bus; misses are emitted as ``CACHE_MISS``
        #: events timestamped with ``bus.now`` (maintained by the
        #: machine's main loop while tracing is enabled)
        self.bus = bus if bus is not None else NULL_BUS
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_bytes)
        # Per-set MRU-ordered tag lists (index 0 = most recent), each
        # made on its set's first fill: None is an empty set.
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets
        self.stats = CacheStats()

    def __deepcopy__(self, memo) -> "Cache":
        """A copy with its own tags and stats (a machine fork), made
        without deepcopy's per-tag walk; the event bus is shared."""
        twin = copy.copy(self)
        twin._sets = [s if s is None else s[:] for s in self._sets]
        twin.stats = copy.copy(self.stats)
        return twin

    def _locate(self, addr: int):
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int) -> bool:
        """Access one address; returns True on hit.  Allocates on miss."""
        line = addr // self.line_bytes
        tag = line // self.num_sets
        ways = self._sets[line % self.num_sets]
        if ways is None:
            ways = self._sets[line % self.num_sets] = []
        self.stats.accesses += 1
        try:
            pos = ways.index(tag)
        except ValueError:
            self.stats.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.assoc:
                ways.pop()
            bus = self.bus
            if bus.enabled:
                bus.emit(Event(bus.now, CACHE_MISS, self.name,
                               arg=self.name))
            return False
        if pos:
            ways.insert(0, ways.pop(pos))
        return True

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or stats."""
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        return ways is not None and tag in ways

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr`` if present (coherence).

        Returns True if a line was invalidated.
        """
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        if ways is None:
            return False
        try:
            ways.remove(tag)
            return True
        except ValueError:
            return False

    def flush(self) -> None:
        """Invalidate all lines (stats retained)."""
        self._sets = [None] * self.num_sets
