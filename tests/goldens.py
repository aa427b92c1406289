"""Pinned simulation outputs that timing-model changes must reproduce.

``data/runresults_golden.json`` holds every Figure 1/3/5/6
:class:`~repro.timing.stats.RunResult` (as ``dataclasses.asdict``,
without the observability ``metrics``), keyed by ``str(spec)``.  Both
timing engines share the lane cores, so comparing the engines with each
other cannot catch a change that moves them together; comparing each
against this file can.

Regenerate only for a change that is meant to move simulated numbers:

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

GOLDEN_PATH = Path(__file__).parent / "data" / "runresults_golden.json"

#: the figures whose runs are pinned (fig4 reuses fig3's runs)
FIGS = ("fig1", "fig3", "fig5", "fig6")


def record(result) -> dict:
    """The JSON form of a run result, without ``metrics``."""
    d = dataclasses.asdict(dataclasses.replace(result, metrics=None))
    del d["metrics"]
    return json.loads(json.dumps(d))


def mismatches(results: Dict[object, object]) -> List[str]:
    """Specs in ``{spec: RunResult}`` whose result differs from the golden."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return sorted(str(s) for s, r in results.items()
                  if record(r) != golden.get(str(s)))


def norm_events(log) -> List[tuple]:
    """An event log as comparable tuples (the live DynOp as pc + op)."""
    return [(e.cycle, e.kind, e.unit, e.dur, e.arg, e.reason,
             None if e.dynop is None else (e.dynop.pc, e.dynop.op))
            for e in log.events]


def events_digest(log) -> str:
    """sha256 over :func:`norm_events`, one ``|``-joined line per event.

    Fields are rendered with ``str`` so the digest does not depend on
    the ``repr`` of NumPy scalars.
    """
    h = hashlib.sha256()
    for ev in norm_events(log):
        h.update("|".join(map(str, ev)).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    from repro.harness import experiments as E
    from repro.timing import simulate
    from repro.timing.config import get_config
    from repro.timing.run import trace_for
    from repro.workloads import get_workload

    out = {}
    for spec in E.matrix_for(FIGS):
        prog = get_workload(spec.app).program(scalar_only=spec.scalar_only)
        trace = trace_for(prog, spec.threads)
        result = simulate(prog, get_config(spec.config),
                          num_threads=spec.threads, trace=trace)
        out[str(spec)] = record(result)
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} run results to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
