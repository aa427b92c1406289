"""Bimodal (2-bit saturating counter) branch predictor.

Conditional branches index a table of 2-bit counters by pc.
Unconditional control transfers (``j``/``jal``/``jr``) are treated as
always predicted (a BTB is assumed); the trace supplies actual outcomes,
so the predictor only decides *whether the frontend stalls* -- wrong-path
fetch cannot be modelled from a correct-path trace, and the resulting
redirect-stall approximation is standard for trace-driven simulators.
"""

from __future__ import annotations

from typing import List


class BimodalPredictor:
    """Array of 2-bit saturating counters, initialised weakly taken."""

    __slots__ = ("_table", "_mask", "lookups", "mispredicts")

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self._table: List[int] = [2] * entries  # 0..3; >=2 predicts taken
        self._mask = entries - 1
        self.lookups = 0
        self.mispredicts = 0

    def __deepcopy__(self, memo) -> "BimodalPredictor":
        """A copy with its own counters (a machine fork), made without
        deepcopy's per-entry walk."""
        twin = BimodalPredictor.__new__(BimodalPredictor)
        twin._table = self._table[:]
        twin._mask = self._mask
        twin.lookups = self.lookups
        twin.mispredicts = self.mispredicts
        return twin

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, train on ``taken``; True if correct."""
        idx = pc & self._mask
        ctr = self._table[idx]
        predicted = ctr >= 2
        if taken and ctr < 3:
            self._table[idx] = ctr + 1
        elif not taken and ctr > 0:
            self._table[idx] = ctr - 1
        self.lookups += 1
        correct = predicted == taken
        if not correct:
            self.mispredicts += 1
        return correct

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups
