"""Compare two BENCH_simulator_speed.json files; fail on regression.

CI's bench-smoke job runs ``bench_simulator_speed.py`` on the PR head
with ``VLT_BENCH_JSON`` pointing at a candidate file, then invokes::

    python benchmarks/compare_bench.py BENCH_simulator_speed.json \
        candidate.json --max-regression 0.30

Exit status 1 if any compared throughput metric dropped by more than
``--max-regression`` (default 30%) relative to the baseline.  With
``--append-history DIR`` the candidate snapshot is also appended to the
bench-trend history (``vlt-repro tele trend`` reads it back), pass or
fail, so the trend records regressions too.  The
headline gate is end-to-end cycles/s; functional ops/s and trace-replay
cycles/s are compared with the same threshold.  ``--min-speedup
KEY:FACTOR`` additionally requires the candidate's KEY row to record a
``speedup_vs_*`` of at least FACTOR (e.g.
``--min-speedup trace_generation_fast:5`` gates the fast functional
engine against its reference).  ``--min-metric KEY:METRIC:MIN``
requires an absolute floor on any candidate metric, baseline-free
(e.g. ``--min-metric duplicate_burst:dedupe_fraction:0.9`` gates the
service bench's dedupe collapse); the same gates also serve
``BENCH_service_throughput.json`` in the service-smoke job and
``BENCH_compiler_tradeoff.json`` in the compiler-tradeoff job (there
the gated ``speedup_vs_auto`` values are deterministic simulated-cycle
ratios, so exact floors like
``--min-metric strategy_unroll_jam:speedup_vs_auto:0.99`` hold on any
host).  Speedups and small
regressions just print.  Absolute numbers differ across hosts, so this
is only meaningful when both files come from the same machine (as in
one CI job) -- it is a smoke gate against order-of-magnitude slowdowns,
not a precision benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Tuple

#: (result key, metric) pairs gated by --max-regression; keys absent
#: from both files are skipped, so the same gate list serves every
#: BENCH_*.json family (simulator speed, service throughput and the
#: compiler-tradeoff sweep).  The strategy rows are simulated-cycle
#: ratios -- deterministic, host-independent -- so any movement at all
#: means the compiler's emitted code changed shape
_GATED: Tuple[Tuple[str, str], ...] = (
    ("end_to_end", "cycles_per_s"),
    ("timing_replay", "cycles_per_s"),
    ("functional", "ops_per_s"),
    ("trace_generation_fast", "ops_per_s"),
    ("duplicate_burst", "jobs_per_s"),
    ("mixed_load", "jobs_per_s"),
    ("strategy_padding", "speedup_vs_auto"),
    ("strategy_peeling", "speedup_vs_auto"),
    ("strategy_unroll_jam", "speedup_vs_auto"),
)


def _metric(payload: dict, key: str, metric: str) -> Optional[float]:
    row = payload.get("results", {}).get(key)
    if not isinstance(row, dict):
        return None
    value = row.get(metric)
    if value is None:
        return None
    # A present-but-zero (or otherwise unusable) value is NOT "missing":
    # 0.0 cycles/s means the bench collapsed or a crashed run wrote
    # zeros, and must reach the gate below rather than being skipped.
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def compare(baseline: dict, candidate: dict,
            max_regression: float) -> Tuple[List[str], List[str]]:
    """Returns (report lines, failure lines)."""
    lines: List[str] = []
    failures: List[str] = []
    for key, metric in _GATED:
        base = _metric(baseline, key, metric)
        cand = _metric(candidate, key, metric)
        label = f"{key}.{metric}"
        if base is None or cand is None:
            lines.append(f"  {label:<28} missing in "
                         f"{'baseline' if base is None else 'candidate'}; "
                         f"skipped")
            continue
        if not math.isfinite(cand) or cand <= 0.0:
            failures.append(
                f"{label}: candidate value {cand!r} is not a positive "
                f"finite throughput (bench collapse or corrupt run)")
            lines.append(f"  {label:<28} cand={cand!r}  INVALID")
            continue
        if not math.isfinite(base) or base <= 0.0:
            lines.append(f"  {label:<28} baseline value {base!r} "
                         f"unusable; skipped")
            continue
        ratio = cand / base
        verdict = "OK"
        if ratio < 1.0 - max_regression:
            verdict = "REGRESSION"
            failures.append(
                f"{label}: {cand:,.0f} vs baseline {base:,.0f} "
                f"({1 - ratio:.0%} slower, limit {max_regression:.0%})")
        lines.append(f"  {label:<28} base={base:>12,.0f}  "
                     f"cand={cand:>12,.0f}  ({ratio:.2f}x)  {verdict}")
    return lines, failures


def check_min_speedups(candidate: dict,
                       specs: List[Tuple[str, float]]
                       ) -> Tuple[List[str], List[str]]:
    """Gate candidate rows on their recorded engine speedup.

    Each spec is ``(result key, factor)``; the row must carry a
    ``speedup_vs_*`` field (e.g. ``speedup_vs_reference`` for the fast
    trace-generation row) of at least ``factor``.  A missing row or
    field fails: a bench that silently stopped measuring the speedup
    must not pass the gate.
    """
    lines: List[str] = []
    failures: List[str] = []
    for key, factor in specs:
        row = candidate.get("results", {}).get(key)
        field = None
        if isinstance(row, dict):
            for name in sorted(row):
                if name.startswith("speedup_vs_"):
                    field = name
        if field is None:
            failures.append(f"{key}: no speedup_vs_* field in candidate "
                            f"(min-speedup {factor:g}x requested)")
            lines.append(f"  {key:<28} speedup missing  FAIL")
            continue
        try:
            speedup = float(row[field])
        except (TypeError, ValueError):
            speedup = float("nan")
        label = f"{key}.{field}"
        if not math.isfinite(speedup) or speedup < factor:
            failures.append(f"{label}: {speedup:.2f}x below required "
                            f"{factor:g}x")
            lines.append(f"  {label:<28} {speedup:.2f}x  "
                         f"(need {factor:g}x)  FAIL")
        else:
            lines.append(f"  {label:<28} {speedup:.2f}x  "
                         f"(need {factor:g}x)  OK")
    return lines, failures


def check_min_metrics(candidate: dict,
                      specs: List[Tuple[str, str, float]]
                      ) -> Tuple[List[str], List[str]]:
    """Gate candidate rows on an absolute metric floor.

    Each spec is ``(result key, metric, minimum)``: the candidate's KEY
    row must carry METRIC >= MINIMUM.  Unlike --max-regression this
    needs no baseline, so it suits host-independent invariants -- e.g.
    ``duplicate_burst:dedupe_fraction:0.9`` requires the service bench
    to show at least 90% of a duplicate burst served without
    re-simulation.  A missing row or field fails: a bench that silently
    stopped measuring the invariant must not pass the gate.
    """
    lines: List[str] = []
    failures: List[str] = []
    for key, metric, minimum in specs:
        value = _metric(candidate, key, metric)
        label = f"{key}.{metric}"
        if value is None:
            failures.append(f"{label}: missing from candidate "
                            f"(min {minimum:g} requested)")
            lines.append(f"  {label:<28} missing  FAIL")
            continue
        if not math.isfinite(value) or value < minimum:
            failures.append(f"{label}: {value:g} below required "
                            f"{minimum:g}")
            lines.append(f"  {label:<28} {value:g}  "
                         f"(need >= {minimum:g})  FAIL")
        else:
            lines.append(f"  {label:<28} {value:g}  "
                         f"(need >= {minimum:g})  OK")
    return lines, failures


def _parse_min_metric(text: str) -> Tuple[str, str, float]:
    parts = text.split(":")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(
            f"expected KEY:METRIC:MIN, got {text!r}")
    try:
        return parts[0], parts[1], float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"MIN in {text!r} is not a number")


def _parse_min_speedup(text: str) -> Tuple[str, float]:
    key, sep, factor = text.partition(":")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY:FACTOR, got {text!r}")
    try:
        return key, float(factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"FACTOR in {text!r} is not a number")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate simulator-speed regressions between two "
                    "BENCH_simulator_speed.json files")
    parser.add_argument("baseline", help="baseline JSON (checked in)")
    parser.add_argument("candidate", help="candidate JSON (fresh run)")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="maximum tolerated fractional slowdown "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--min-speedup", metavar="KEY:FACTOR",
                        type=_parse_min_speedup, action="append",
                        default=[],
                        help="require the candidate's KEY row to record a "
                             "speedup_vs_* of at least FACTOR (repeatable; "
                             "e.g. trace_generation_fast:5)")
    parser.add_argument("--min-metric", metavar="KEY:METRIC:MIN",
                        type=_parse_min_metric, action="append",
                        default=[],
                        help="require the candidate's KEY row to carry "
                             "METRIC >= MIN (repeatable; e.g. "
                             "duplicate_burst:dedupe_fraction:0.9)")
    parser.add_argument("--append-history", metavar="DIR", default=None,
                        help="also append the candidate snapshot to this "
                             "bench-trend history directory "
                             "(see repro.obs.telemetry)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.candidate) as fh:
        candidate = json.load(fh)

    if args.append_history:
        from repro.obs.telemetry import append_bench_history
        dest = append_bench_history(args.candidate, args.append_history)
        print(f"appended candidate to bench history: {dest}")

    lines, failures = compare(baseline, candidate, args.max_regression)
    print(f"simulator-speed comparison "
          f"(max regression {args.max_regression:.0%}):")
    for line in lines:
        print(line)
    if args.min_speedup:
        sp_lines, sp_failures = check_min_speedups(candidate,
                                                   args.min_speedup)
        print("engine speedup gates:")
        for line in sp_lines:
            print(line)
        failures.extend(sp_failures)
    if args.min_metric:
        mm_lines, mm_failures = check_min_metrics(candidate,
                                                  args.min_metric)
        print("metric floor gates:")
        for line in mm_lines:
            print(line)
        failures.extend(mm_failures)
    if failures:
        print("FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
