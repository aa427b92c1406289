"""Workload characterisation -- reproduces the paper's Table 4.

For each application we measure, from a single-thread functional trace
and a base-machine timing run:

* **% Vect** -- percentage of vectorization measured in operations:
  vector element operations / (element operations + scalar instructions);
* **Avg VL** -- mean dynamic vector length over vector instructions;
* **Common VLs** -- the most frequent dynamic vector lengths;
* **% Opportunity** -- percentage of base-machine execution time spent
  in barrier-delimited phases the workload declares parallel (the time
  VLT multithreading can attack).  The base run is the experiment
  harness's ``(app, base, 1)`` spec when the caller has it; otherwise
  it is simulated here.

The paper's published values are kept alongside for the harness to print
paper-vs-measured rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..timing.config import BASE
from ..timing.run import simulate, trace_for
from ..timing.stats import RunResult
from .base import Workload, get_workload


@dataclass
class AppCharacteristics:
    """One row of Table 4."""

    name: str
    pct_vect: float
    avg_vl: float
    common_vls: Tuple[int, ...]
    pct_opportunity: Optional[float]
    total_instructions: int

    def row(self) -> Tuple[str, str, str, str, str]:
        opp = "-" if self.pct_opportunity is None else \
            f"{self.pct_opportunity:.0f}"
        avl = "-" if not self.avg_vl else f"{self.avg_vl:.1f}"
        cvl = ", ".join(str(v) for v in self.common_vls) or "-"
        return (self.name, f"{self.pct_vect:.0f}", avl, cvl, opp)


#: Paper Table 4 values: (%vect, avg VL, common VLs, %opportunity).
PAPER_TABLE4: Dict[str, Tuple[Optional[float], Optional[float],
                              Tuple[int, ...], Optional[float]]] = {
    "mxm": (96, 64.0, (64,), None),
    "sage": (94, 63.8, (64,), None),
    "mpenc": (76, 11.2, (8, 16, 64), 78),
    "trfd": (73, 22.7, (4, 20, 30, 35), 99),
    "multprec": (71, 25.2, (23, 24, 64), 81),
    "bt": (46, 7.0, (5, 10, 12), 70),
    "radix": (6, 62.3, (24, 52, 64), 90),
    "ocean": (None, None, (), 96),
    "barnes": (None, None, (), 98),
}

#: Applications with no VLT opportunity column in the paper (long vectors).
NO_OPPORTUNITY = ("mxm", "sage")


def characterize(name: str, measure_opportunity: bool = True,
                 base_run: Optional[RunResult] = None
                 ) -> AppCharacteristics:
    """Measure one application's Table 4 row.

    %vect and the vector lengths come from the single-thread trace.
    The opportunity comes from ``base_run``, the app's single-thread
    BASE result, which is simulated here when not given.
    """
    w = get_workload(name)
    prog = w.program()
    trace = trace_for(prog, 1)
    counts = trace.merged_counts()
    elem = counts["element_ops"]
    scal = counts["scalar"]
    pct_vect = 100.0 * elem / (elem + scal) if (elem + scal) else 0.0

    vls = np.concatenate([t.vector_lengths() for t in trace.threads]) \
        if counts["vector"] else np.empty(0, dtype=np.int64)
    avg_vl = float(vls.mean()) if vls.size else 0.0
    freq = Counter(vls.tolist())
    common = tuple(sorted(v for v, _ in freq.most_common(4)))

    opportunity: Optional[float] = None
    if measure_opportunity and name not in NO_OPPORTUNITY:
        result = base_run if base_run is not None else \
            simulate(prog, BASE, num_threads=1, trace=trace)
        durations = result.phase_durations()
        mask = w.phase_parallel_mask(len(durations))
        par = sum(d for d, m in zip(durations, mask) if m)
        opportunity = 100.0 * par / result.cycles if result.cycles else 0.0

    return AppCharacteristics(
        name=name, pct_vect=pct_vect, avg_vl=avg_vl, common_vls=common,
        pct_opportunity=opportunity,
        total_instructions=counts["total"])


def characterize_all(names: Optional[List[str]] = None,
                     measure_opportunity: bool = True
                     ) -> List[AppCharacteristics]:
    from .base import all_workload_names
    return [characterize(n, measure_opportunity)
            for n in (names or all_workload_names())]
