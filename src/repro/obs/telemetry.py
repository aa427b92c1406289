"""Host-side fleet telemetry for the experiment harness.

PR 1 made the *simulated machine* observable; this module does the same
for the *host-side fleet* that executes it -- the parallel
:class:`~repro.harness.runner.ExperimentRunner`, its worker processes,
the content-addressed :class:`~repro.functional.trace_cache.TraceCache`
and the timing replay.  Four pieces, all host-wall-clock:

* **Spans** -- lightweight nested intervals
  (``with span("run_attempt", app="mpenc"):``) recorded into an
  ambient per-process :class:`SpanCollector`.  When no collector is
  installed (the default) a span is a bare ``perf_counter`` pair and
  records nothing.  :class:`~repro.obs.hostprof.PhaseProfiler` times its
  phases *through* this primitive, so every already-instrumented
  simulation phase (``program_build``, cache load/store,
  ``trace_generation``, ``setup``, ``replay``, ``stats``, the
  differential check) doubles as a span for free.

* **Run ledger** -- one structured JSONL record per run *attempt*
  (schema :data:`LEDGER_SCHEMA`), written by the parent process through
  :class:`JsonlWriter` -- one ``os.write`` per line on an ``O_APPEND``
  descriptor, so a crashing worker can never leave a torn record.

* **Aggregation** -- :class:`TelemetryReader` folds ledgers into fleet
  metrics: throughput (cycles/s), worker utilization, queue-wait
  percentiles, cache hit rates, retry/quarantine counts, per-phase
  totals and failure classes.

* **Timeline** -- :func:`spans_to_chrome_trace` renders the merged span
  store as Chrome trace-event JSON (one track per worker process), so a
  ``--jobs N`` sweep loads in Perfetto as a visual fleet schedule, the
  host-side twin of :mod:`repro.obs.chrome_trace`.

Bench trend tracking rides along: :func:`append_bench_history` files
``BENCH_*.json`` snapshots under ``benchmarks/history/`` and
:func:`bench_trend_report` compares the last K entries
(``vlt-repro tele trend``).

Span times use ``time.time()`` for start stamps (comparable across the
processes of one host) and ``time.perf_counter()`` for durations.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .chrome_trace import track_metadata

#: run-ledger record schema version (bump on breaking field changes).
#: Schema 3 added the job-service provenance fields ``tenant`` and
#: ``job_id`` (both None for CLI/runner sweeps).
LEDGER_SCHEMA = 3

#: every field of a schema-3 run record, in canonical order; the golden
#: ledger test asserts records carry exactly these keys.  ``engine`` is
#: always ``"event"`` now that there is one timing engine; it stays so
#: older ledgers (which may say ``"columnar"``) share the schema.
RUN_RECORD_FIELDS = (
    "schema", "app", "config", "threads", "scalar_only", "engine",
    "func_engine", "attempt", "worker", "tenant", "job_id",
    "outcome", "error_type",
    "cycles", "wall_s",
    "queue_wait_s", "t_start", "t_end", "result_cached", "trace_cached",
    "program_digest", "config_digest", "phases", "cache",
)

#: run-attempt outcomes a ledger record may carry
RUN_OUTCOMES = ("ok", "error", "crash")


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

class SpanHandle:
    """What :func:`span` yields: the measured duration, collector or not."""

    __slots__ = ("dur_s",)

    def __init__(self) -> None:
        self.dur_s = 0.0


class SpanCollector:
    """Per-process recorder of nested spans (merged in the parent).

    Spans are plain dicts (``name``/``t0``/``dur_s``/``parent``/
    ``attrs``); ``parent`` is the index of the enclosing span within
    this collector's list, ``None`` at top level.  ``t0`` is an epoch
    timestamp so spans from different processes align on one timeline.
    """

    def __init__(self, worker: Optional[str] = None) -> None:
        self.worker = worker if worker is not None else f"w{os.getpid()}"
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def open(self, name: str, attrs: Optional[Dict[str, object]]) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name, "t0": time.time(), "dur_s": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": dict(attrs) if attrs else {}})
        self._stack.append(idx)
        return idx

    def close(self, idx: int, dur_s: float) -> None:
        self.spans[idx]["dur_s"] = dur_s
        # pop down to (and including) idx -- robust against a child
        # span leaked open by an exception path
        while self._stack:
            top = self._stack.pop()
            if top == idx:
                break


#: the ambient collector :func:`span` records into (None = disabled)
_ACTIVE: Optional[SpanCollector] = None


def set_span_collector(
        collector: Optional[SpanCollector]) -> Optional[SpanCollector]:
    """Install the ambient span collector; returns the previous one."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = collector
    return prev


def get_span_collector() -> Optional[SpanCollector]:
    """The ambient span collector, if any."""
    return _ACTIVE


@contextmanager
def span(name: str, **attrs: object) -> Iterator[SpanHandle]:
    """Record one nested host-side span (no-op timing when disabled).

    Always yields a :class:`SpanHandle` whose ``dur_s`` is valid after
    the block -- :class:`~repro.obs.hostprof.PhaseProfiler` reuses that
    measurement so phases and spans cannot disagree.
    """
    col = _ACTIVE
    handle = SpanHandle()
    idx = col.open(name, attrs) if col is not None else None
    t0 = time.perf_counter()
    try:
        yield handle
    finally:
        handle.dur_s = time.perf_counter() - t0
        if col is not None:
            col.close(idx, handle.dur_s)


# --------------------------------------------------------------------------
# JSONL ledger
# --------------------------------------------------------------------------

class JsonlWriter:
    """Append-only JSONL writer with atomic whole-line appends.

    The file descriptor is opened ``O_APPEND`` and every record goes out
    as exactly one ``os.write`` of one ``\\n``-terminated line, so the
    file never contains a torn record even if the process dies mid-sweep
    -- at worst the final line is missing entirely.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def append(self, record: Mapping[str, object]) -> None:
        if self._fd is None:
            raise ValueError(f"writer for {self.path} is closed")
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except OSError:
            pass


def read_jsonl(path) -> List[Dict[str, object]]:
    """Parse a JSONL file; silently drops corrupt/partial lines.

    A missing file reads as empty -- callers treat "no telemetry yet"
    and "empty telemetry" the same way.
    """
    records: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue   # torn tail from a killed writer
                if isinstance(rec, dict):
                    records.append(rec)
    except FileNotFoundError:
        pass
    return records


def validate_run_record(record: Mapping[str, object]) -> List[str]:
    """Schema check for one ledger record; returns problem strings."""
    problems: List[str] = []
    keys = set(record)
    missing = set(RUN_RECORD_FIELDS) - keys
    extra = keys - set(RUN_RECORD_FIELDS)
    if missing:
        problems.append(f"missing fields: {sorted(missing)}")
    if extra:
        problems.append(f"unknown fields: {sorted(extra)}")
    if record.get("schema") != LEDGER_SCHEMA:
        problems.append(f"schema {record.get('schema')!r} != "
                        f"{LEDGER_SCHEMA}")
    if record.get("outcome") not in RUN_OUTCOMES:
        problems.append(f"outcome {record.get('outcome')!r} not in "
                        f"{RUN_OUTCOMES}")
    if not isinstance(record.get("attempt"), int) \
            or record.get("attempt", 0) < 1:
        problems.append(f"attempt {record.get('attempt')!r} is not a "
                        f"positive int")
    if record.get("outcome") == "ok" \
            and not isinstance(record.get("cycles"), int):
        problems.append("ok record without integer cycles")
    return problems


# --------------------------------------------------------------------------
# Telemetry session (what ExperimentRunner writes into)
# --------------------------------------------------------------------------

class Telemetry:
    """One sweep's telemetry sink: run ledger + span store + timeline.

    Everything lands under one directory::

        <dir>/ledger.jsonl     one record per run attempt (schema above)
        <dir>/spans.jsonl      merged spans, one per line, with globally
                               remapped ``id``/``parent`` and a
                               ``worker`` track label
        <dir>/timeline.json    Chrome trace-event export of the spans
                               (:func:`write_timeline`)

    Only the parent process writes; workers ship their spans back inside
    the run payloads.
    """

    def __init__(self, directory) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ledger_path = self.dir / "ledger.jsonl"
        self.spans_path = self.dir / "spans.jsonl"
        self._ledger = JsonlWriter(self.ledger_path)
        self._spans = JsonlWriter(self.spans_path)
        self._span_seq = len(read_jsonl(self.spans_path))

    def record(self, record: Mapping[str, object]) -> None:
        """Append one run-attempt record to the ledger."""
        self._ledger.append(record)

    def add_spans(self, worker: str,
                  spans: Sequence[Mapping[str, object]]) -> None:
        """Merge one process's span batch into the global span store.

        Collector-local ``parent`` indices are remapped to globally
        unique ``id``s so nesting survives the merge across batches and
        process boundaries.
        """
        base = self._span_seq
        for i, sp in enumerate(spans):
            parent = sp.get("parent")
            self._spans.append({
                "id": base + i,
                "parent": base + parent if parent is not None else None,
                "worker": worker, "name": sp.get("name"),
                "t0": sp.get("t0"), "dur_s": sp.get("dur_s"),
                "attrs": sp.get("attrs") or {}})
        self._span_seq = base + len(spans)

    def reader(self) -> "TelemetryReader":
        return TelemetryReader.from_path(self.ledger_path)

    def close(self) -> None:
        self._ledger.close()
        self._spans.close()


def _group_spans(spans: Sequence[Mapping[str, object]]
                 ) -> Dict[str, List[Mapping[str, object]]]:
    groups: Dict[str, List[Mapping[str, object]]] = {}
    for sp in spans:
        groups.setdefault(str(sp.get("worker", "?")), []).append(sp)
    return groups


def spans_to_chrome_trace(spans_by_worker: Mapping[
        str, Sequence[Mapping[str, object]]],
        process_name: str = "vlt-fleet",
        t0: Optional[float] = None) -> dict:
    """Chrome trace-event JSON for host-side spans, one track per worker.

    ``ts`` is microseconds since ``t0`` (default: the earliest span), so
    wall time reads directly in Perfetto; worker tracks sort with the
    parent first, then by label.
    """
    all_spans = [sp for spans in spans_by_worker.values() for sp in spans]
    if t0 is None:
        t0 = min((float(sp["t0"]) for sp in all_spans
                  if sp.get("t0") is not None), default=0.0)
    tids = {worker: i + 1
            for i, worker in enumerate(sorted(
                spans_by_worker,
                key=lambda w: (w != "parent", w)))}
    records: List[dict] = []
    for worker, spans in spans_by_worker.items():
        tid = tids[worker]
        for sp in spans:
            if sp.get("t0") is None:
                continue
            args = dict(sp.get("attrs") or {})
            records.append({
                "name": str(sp.get("name")), "cat": "host", "ph": "X",
                "ts": (float(sp["t0"]) - t0) * 1e6,
                "dur": max(1.0, float(sp.get("dur_s") or 0.0) * 1e6),
                "pid": 1, "tid": tid, "args": args})
    meta = track_metadata(tids, process_name=process_name,
                          sort_tracks=False)
    return {
        "traceEvents": meta + records,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "1 ts = 1 host microsecond",
                      "t0_epoch_s": t0},
    }


def write_timeline(telemetry_dir, out_path=None) -> int:
    """Export a telemetry directory's span store as Chrome trace JSON
    (default ``<dir>/timeline.json``: what a sweep writes at its end and
    the ``vlt-repro tele timeline`` verb rebuilds); returns the number of
    span records written."""
    tele_dir = Path(telemetry_dir)
    spans = read_jsonl(tele_dir / "spans.jsonl")
    doc = spans_to_chrome_trace(_group_spans(spans))
    out = Path(out_path) if out_path is not None \
        else tele_dir / "timeline.json"
    with open(out, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for r in doc["traceEvents"] if r["ph"] != "M")


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

def _percentile(values: Sequence[float], pct: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    idx = min(len(ordered) - 1,
              max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[idx]


class TelemetryReader:
    """Aggregates run-ledger records into fleet-level metrics."""

    def __init__(self, records: Sequence[Mapping[str, object]]) -> None:
        self.records = [r for r in records
                        if r.get("schema") == LEDGER_SCHEMA]

    @classmethod
    def from_path(cls, path) -> "TelemetryReader":
        return cls(read_jsonl(path))

    def fleet_metrics(self) -> Dict[str, object]:
        """One dict of sweep-level aggregates (see keys below)."""
        recs = self.records
        ok = [r for r in recs if r.get("outcome") == "ok"]
        errors = [r for r in recs if r.get("outcome") == "error"]
        crashes = [r for r in recs if r.get("outcome") == "crash"]
        def run_key(r):
            return (r.get("app"), r.get("config"), r.get("threads"),
                    r.get("scalar_only"))

        runs = {run_key(r) for r in recs}
        ok_runs = {run_key(r) for r in ok}
        cached = [r for r in ok if r.get("result_cached")]
        trace_cached = [r for r in ok if r.get("trace_cached")]

        t_starts = [float(r["t_start"]) for r in recs
                    if r.get("t_start") is not None]
        t_ends = [float(r["t_end"]) for r in recs
                  if r.get("t_end") is not None]
        span_s = (max(t_ends) - min(t_starts)) \
            if t_starts and t_ends else 0.0
        busy_s = sum(float(r["wall_s"]) for r in recs
                     if r.get("wall_s") is not None)
        workers = sorted({str(r["worker"]) for r in recs
                          if r.get("worker") is not None})
        utilization = (busy_s / (len(workers) * span_s)
                       if workers and span_s > 0 else None)

        # Queue-wait stamps cross process boundaries (submit in the
        # parent, start in a worker): clock skew between them can make
        # the difference negative, which would corrupt the percentiles.
        # Clamp each record at >= 0 and surface how many were clamped.
        raw_waits = [float(r["queue_wait_s"]) for r in recs
                     if r.get("queue_wait_s") is not None]
        waits_clamped = sum(1 for w in raw_waits if w < 0.0)
        waits = [max(0.0, w) for w in raw_waits]
        cycles = sum(int(r["cycles"]) for r in ok
                     if r.get("cycles") is not None)

        cache_totals: Dict[str, int] = {}
        for r in recs:
            for k, v in (r.get("cache") or {}).items():
                cache_totals[k] = cache_totals.get(k, 0) + int(v)

        def hit_rate(kind: str) -> Optional[float]:
            hits = cache_totals.get(f"{kind}_hits", 0)
            misses = cache_totals.get(f"{kind}_misses", 0)
            return hits / (hits + misses) if hits + misses else None

        phase_totals: Dict[str, Dict[str, float]] = {}
        for r in recs:
            for name, row in (r.get("phases") or {}).items():
                agg = phase_totals.setdefault(
                    name, {"wall_s": 0.0, "calls": 0})
                agg["wall_s"] += float(row.get("wall_s", 0.0))
                agg["calls"] += int(row.get("calls", 0))

        failure_classes: Dict[str, int] = {}
        for r in errors + crashes:
            key = str(r.get("error_type") or "unknown")
            failure_classes[key] = failure_classes.get(key, 0) + 1

        engine_mix: Dict[str, int] = {}
        func_engine_mix: Dict[str, int] = {}
        tenant_mix: Dict[str, int] = {}
        for r in recs:
            eng = str(r.get("engine") or "unknown")
            engine_mix[eng] = engine_mix.get(eng, 0) + 1
            feng = str(r.get("func_engine") or "unknown")
            func_engine_mix[feng] = func_engine_mix.get(feng, 0) + 1
            if r.get("tenant") is not None:   # service-submitted runs
                ten = str(r["tenant"])
                tenant_mix[ten] = tenant_mix.get(ten, 0) + 1

        return {
            "attempts": len(recs),
            "runs": len(runs),
            "ok": len(ok),
            "ok_runs": len(ok_runs),
            "errors": len(errors),
            "crashes": len(crashes),
            "retried_attempts": sum(1 for r in recs
                                    if int(r.get("attempt") or 1) > 1),
            "result_cache_served": len(cached),
            "trace_cache_served": len(trace_cached),
            "workers": workers,
            "sweep_wall_s": span_s,
            "busy_wall_s": busy_s,
            "worker_utilization": utilization,
            "queue_wait_p50_s": _percentile(waits, 50),
            "queue_wait_p95_s": _percentile(waits, 95),
            "queue_wait_clamped": waits_clamped,
            "total_cycles": cycles,
            "throughput_cycles_per_s": (cycles / span_s
                                        if span_s > 0 else None),
            "engine_mix": engine_mix,
            "func_engine_mix": func_engine_mix,
            "tenant_mix": tenant_mix,
            "cache_counters": cache_totals,
            "trace_cache_hit_rate": hit_rate("trace"),
            "result_cache_hit_rate": hit_rate("result"),
            "phase_totals": phase_totals,
            "failure_classes": failure_classes,
        }

    def report(self) -> str:
        """Human-readable fleet report of the aggregated ledger."""
        if not self.records:
            return "fleet telemetry: no ledger records"
        m = self.fleet_metrics()

        def pct(x: Optional[float]) -> str:
            return f"{x:.1%}" if x is not None else "n/a"

        def secs(x: Optional[float]) -> str:
            return f"{x * 1e3:.1f} ms" if x is not None else "n/a"

        lines = [
            f"fleet telemetry: {m['ok_runs']}/{m['runs']} runs ok over "
            f"{m['attempts']} attempts "
            f"({m['errors']} errors, {m['crashes']} crashes, "
            f"{m['retried_attempts']} retried attempts)",
            f"  workers: {len(m['workers'])}  sweep wall "
            f"{m['sweep_wall_s']:.2f} s  busy {m['busy_wall_s']:.2f} s  "
            f"utilization {pct(m['worker_utilization'])}",
            f"  throughput: {m['total_cycles']:,} simulated cycles"
            + (f" ({m['throughput_cycles_per_s']:,.0f} cycles/s)"
               if m["throughput_cycles_per_s"] is not None else ""),
            f"  queue wait: p50 {secs(m['queue_wait_p50_s'])}, "
            f"p95 {secs(m['queue_wait_p95_s'])}"
            + (f"  [{m['queue_wait_clamped']} record(s) clamped to 0 "
               f"-- negative cross-process stamps]"
               if m["queue_wait_clamped"] else ""),
            f"  cache: result hit rate {pct(m['result_cache_hit_rate'])} "
            f"({m['result_cache_served']} runs served), trace hit rate "
            f"{pct(m['trace_cache_hit_rate'])}",
            "  engines: timing " + ", ".join(
                f"{k} x{v}" for k, v in sorted(m["engine_mix"].items()))
            + "; functional " + ", ".join(
                f"{k} x{v}"
                for k, v in sorted(m["func_engine_mix"].items())),
        ]
        if m["tenant_mix"]:
            lines.append("  tenants: " + ", ".join(
                f"{k} x{v}" for k, v in sorted(m["tenant_mix"].items())))
        if m["phase_totals"]:
            total = sum(p["wall_s"] for p in m["phase_totals"].values())
            top = sorted(m["phase_totals"].items(),
                         key=lambda kv: -kv[1]["wall_s"])[:6]
            lines.append("  hottest phases: " + ", ".join(
                f"{name} {row['wall_s']:.2f}s"
                f" ({row['wall_s'] / total:.0%})" if total else name
                for name, row in top))
        if m["failure_classes"]:
            lines.append("  failure classes: " + ", ".join(
                f"{k} x{v}"
                for k, v in sorted(m["failure_classes"].items())))
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Bench-trend history
# --------------------------------------------------------------------------

#: (result key, metric) pairs tracked by the trend report -- mirrors the
#: gate list in benchmarks/compare_bench.py
TREND_METRICS = (
    ("end_to_end", "cycles_per_s"),
    ("timing_replay", "cycles_per_s"),
    ("functional", "ops_per_s"),
    ("trace_generation_fast", "ops_per_s"),
    ("duplicate_burst", "jobs_per_s"),
    ("duplicate_burst", "dedupe_fraction"),
    ("mixed_load", "jobs_per_s"),
    ("strategy_padding", "speedup_vs_auto"),
    ("strategy_peeling", "speedup_vs_auto"),
    ("strategy_unroll_jam", "speedup_vs_auto"),
)


def append_bench_history(bench_json_path, history_dir) -> Path:
    """File a ``BENCH_*.json`` snapshot into the bench history series.

    The snapshot is copied to ``<history_dir>/<benchmark>-<seq>.json``
    with ``seq`` (monotonic) and ``recorded_at`` (UTC) stamped into the
    payload, turning one-off bench files into an ordered time series.
    """
    payload = json.loads(Path(bench_json_path).read_text())
    name = str(payload.get("benchmark", "bench"))
    hist = Path(history_dir)
    hist.mkdir(parents=True, exist_ok=True)
    seqs = []
    for p in hist.glob(f"{name}-*.json"):
        m = re.match(re.escape(name) + r"-(\d+)$", p.stem)
        if m:
            seqs.append(int(m.group(1)))
    seq = max(seqs) + 1 if seqs else 0
    entry = dict(payload)
    entry["seq"] = seq
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())
    out = hist / f"{name}-{seq:04d}.json"
    out.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return out


def bench_history_entries(history_dir) -> List[Dict[str, object]]:
    """Load every history snapshot, oldest first (by sequence name)."""
    hist = Path(history_dir)
    entries: List[Dict[str, object]] = []
    if not hist.is_dir():
        return entries
    for p in sorted(hist.glob("*.json")):
        try:
            payload = json.loads(p.read_text())
        except ValueError:
            continue
        if isinstance(payload, dict):
            payload.setdefault("_file", p.name)
            entries.append(payload)
    return entries


def bench_trend_report(history_dir, last: int = 5) -> str:
    """Trend table over the last ``last`` bench-history entries."""
    entries = bench_history_entries(history_dir)
    if not entries:
        return f"bench trend: no history entries under {history_dir}"
    window = entries[-last:]
    labels = [f"{key}.{metric}" for key, metric in TREND_METRICS]
    width = max(len(lbl) for lbl in labels)

    def value(entry, key, metric) -> Optional[float]:
        row = entry.get("results", {}).get(key)
        if not isinstance(row, dict):
            return None
        try:
            v = float(row.get(metric))
        except (TypeError, ValueError):
            return None
        return v

    lines = [f"bench trend ({len(window)} of {len(entries)} entries, "
             f"newest last):"]
    header = f"  {'metric':<{width}}"
    for entry in window:
        header += f"  #{entry.get('seq', '?'):>4}"
    lines.append(header)
    for (key, metric), label in zip(TREND_METRICS, labels):
        row = f"  {label:<{width}}"
        series = [value(e, key, metric) for e in window]
        for v in series:
            if v is None:
                row += "      -"
            elif v >= 10_000:            # throughput-scale values
                row += f"  {v / 1e3:>5,.0f}k"
            else:                        # jobs/s, fractions, ...
                row += f"  {v:>6,.2f}"
        present = [v for v in series if v is not None]
        if len(present) >= 2 and present[0]:
            row += f"   {present[-1] / present[0] - 1.0:+.0%} over window"
        lines.append(row)
    stamps = [str(e.get("recorded_at", "?")) for e in window]
    lines.append(f"  recorded: {stamps[0]} .. {stamps[-1]}")
    return "\n".join(lines)
