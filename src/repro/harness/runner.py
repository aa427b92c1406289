"""Fault-tolerant parallel experiment runner.

The experiment drivers (:mod:`repro.harness.experiments`) declare their
run matrix as data -- a list of :class:`RunSpec` -- and this module fans
it out over a :class:`~concurrent.futures.ProcessPoolExecutor`, backed
by the content-addressed trace/result cache
(:mod:`repro.functional.trace_cache`).  Everything a worker needs to
reproduce a run travels as plain picklable data: the application *name*,
the configuration *name* (resolved via
:func:`repro.timing.config.get_config`) and the thread count.  Workers
rebuild the program locally; the program's *content digest* -- not its
object identity -- keys the shared cache, so every process (and every
later invocation) converges on the same trace files.

Fault tolerance: each run gets a wall-clock timeout and a bounded number
of retries, and any exception is captured as a structured
:class:`RunFailure` rather than propagated -- one diverging
configuration degrades the report instead of killing the whole sweep.
A worker process dying outright (the pool breaks) triggers a fallback
pass that re-runs each remaining spec in its own single-worker pool, so
one poisoned spec cannot take healthy ones down with it.

Fleet telemetry (:mod:`repro.obs.telemetry`): with a
:class:`~repro.obs.telemetry.Telemetry` sink attached, every run
*attempt* -- including retries and worker crashes -- lands as one JSONL
ledger record, every worker's host-side spans merge into a per-worker
Perfetto timeline, and worker cache hit/miss counters accumulate into
:attr:`ExperimentRunner.cache_counters` (per-process counters silently
reset in pool workers; the payload deltas do not).  ``progress=True``
additionally draws a live completed/failed/cached/ETA line on stderr.
None of this can perturb results: telemetry only observes the payloads
that already travel parent-ward, and cycle counts are asserted
bit-identical with telemetry on and off.

Set ``VLT_RUNNER_TEST_CRASH=<app>:<config>`` to make the worker for that
spec die with ``os._exit`` -- test hook for the crash-recovery path.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import threading
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

from ..functional.trace_cache import result_key
from ..isa.program import Program
from ..obs.hostprof import PhaseProfiler
from ..obs.telemetry import (LEDGER_SCHEMA, SpanCollector, Telemetry,
                             set_span_collector, span, write_timeline)
from ..timing import run as timing_run
from ..timing.config import get_config
from ..timing.stats import RunResult

#: test hook: crash the worker executing ``<app>:<config>``
_CRASH_ENV = "VLT_RUNNER_TEST_CRASH"

DEFAULT_MAX_CYCLES = 50_000_000


@dataclass(frozen=True)
class RunSpec:
    """One point of the experiment run matrix, as plain data."""

    app: str
    config: str            # configuration *name*, see get_config()
    threads: int = 1
    scalar_only: bool = False
    #: vectorization strategy for compiled apps ("auto" | "padding" |
    #: "peeling" | "unroll_jam"); hand-written apps alias it to "auto"
    strategy: str = "auto"

    def __str__(self) -> str:
        flavour = ", scalar" if self.scalar_only else ""
        strat = (f", {self.strategy}" if self.strategy != "auto" else "")
        return (f"{self.app} on {self.config} "
                f"({self.threads} thr{flavour}{strat})")

    def program(self) -> Program:
        """The workload program this spec runs: the app's cached build
        for its flavour and vectorization strategy."""
        from ..workloads import get_workload
        return get_workload(self.app).program(scalar_only=self.scalar_only,
                                              strategy=self.strategy)


@dataclass
class RunFailure:
    """Structured capture of a run that exhausted its retries."""

    spec: RunSpec
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    #: partial host-side phase profile up to the failure point
    phases: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.spec}: {self.error_type}: {self.message} "
                f"(after {self.attempts} attempt"
                f"{'s' if self.attempts != 1 else ''})")


@dataclass
class RunOutcome:
    """Result of executing one :class:`RunSpec` (success or failure)."""

    spec: RunSpec
    result: Optional[RunResult] = None
    failure: Optional[RunFailure] = None
    attempts: int = 1
    wall_s: float = 0.0
    #: served from the on-disk result cache (no timing replay happened)
    result_cached: bool = False
    #: functional trace served from cache/memo (no regeneration);
    #: ``None`` when the trace was never consulted (result-cache hit)
    #: or the run failed before it was known
    trace_cached: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def provenance(self) -> str:
        """Where the numbers came from: ``result cache`` / ``trace
        cache`` / ``simulated``."""
        if self.result_cached:
            return "result cache"
        if self.trace_cached:
            return "trace cache"
        return "simulated"


class MissingRunError(KeyError):
    """A driver needed a run the runner did not (successfully) produce."""

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        super().__init__(str(spec))

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return str(self.spec)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

class RunTimeout(Exception):
    """A single run exceeded the per-run wall-clock timeout."""


#: one-time flag for the off-main-thread `_alarm` downgrade warning
_ALARM_THREAD_WARNED = False


@contextmanager
def _alarm(timeout_s: Optional[float]) -> Iterator[None]:
    """Raise :class:`RunTimeout` after ``timeout_s`` wall seconds.

    Uses ``SIGALRM``; the simulator main loop is pure Python so the
    signal is serviced promptly.  No-op when ``timeout_s`` is None or
    the platform lacks ``SIGALRM``.

    Signal handlers can only be installed from the main thread --
    ``signal.signal`` raises ``ValueError`` anywhere else, which is
    exactly where the job service's executor threads run specs.  Off
    the main thread this degrades to a no-op with a one-time warning;
    callers in that position (the service) enforce their own
    wall-clock limits.
    """
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        global _ALARM_THREAD_WARNED
        if not _ALARM_THREAD_WARNED:
            _ALARM_THREAD_WARNED = True
            warnings.warn(
                "per-run SIGALRM timeout is unavailable off the main "
                "thread; relying on the caller's own timeout handling",
                RuntimeWarning, stacklevel=3)
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {timeout_s:g}s wall-clock limit")

    prev = signal.signal(signal.SIGALRM, _on_alarm)
    # Re-arm while over the limit: a raise from a signal handler is
    # *discarded* if it lands in a context where Python suppresses
    # exceptions (a GC callback, a __del__) -- with a one-shot timer
    # the timeout would be silently lost.  The interval gives it
    # another chance until the run is actually interrupted.
    signal.setitimer(signal.ITIMER_REAL, timeout_s, min(timeout_s, 0.05))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


def _worker_init(cache_dir: Optional[str]) -> None:
    """Pool initializer: point the worker at the shared on-disk cache."""
    timing_run.set_trace_cache_dir(cache_dir)


def _spec_payload(spec: RunSpec, timeout_s: Optional[float],
                  max_cycles: int, verify: bool, prof: PhaseProfiler,
                  ctx: Dict[str, object]) -> Dict[str, object]:
    """The run body: returns a success payload or raises.

    ``ctx`` collects facts known before a potential failure (the cache
    handle and its counter snapshot, the content digests) so
    :func:`_execute_spec` can attach them to error payloads too.
    """
    from ..timing.run import simulate

    with _alarm(timeout_s):
        cache = timing_run.get_trace_cache()
        if cache is not None:
            ctx["cache"] = cache
            ctx["cache0"] = dict(cache.counters())
        with prof.phase("program_build"):
            prog = spec.program()
        cfg = get_config(spec.config)
        ctx["program_digest"] = prog.digest()
        ctx["config_digest"] = cfg.digest()
        key = None
        if cache is not None:
            key = result_key(ctx["program_digest"], ctx["config_digest"],
                             spec.threads, max_cycles)
            with prof.phase("result_cache_load"):
                hit = cache.load_result(key)
            if hit is not None and not verify:
                return {"result": hit, "result_cached": True,
                        "trace_cached": None}
        with span("simulate"):
            result = simulate(prog, cfg, num_threads=spec.threads,
                              max_cycles=max_cycles, profiler=prof)
        # the profiler only records trace_generation when the functional
        # executor actually ran; absence means cache/memo served it
        trace_cached = "trace_generation" not in prof.phases
        if verify:
            from ..verify.diff import (DifferentialMismatch,
                                       differential_check)
            with prof.phase("differential_check"):
                report = differential_check(
                    prog, cfg, num_threads=spec.threads,
                    max_cycles=max_cycles)
            if not report.ok:
                raise DifferentialMismatch(report)
        if cache is not None:
            with prof.phase("result_cache_store"):
                cache.store_result(key, result)
        return {"result": result, "result_cached": False,
                "trace_cached": trace_cached}


def _execute_spec(spec: RunSpec, timeout_s: Optional[float],
                  max_cycles: int,
                  verify: bool = False,
                  telemetry: bool = False) -> Dict[str, object]:
    """Execute one spec; never raises (failures come back as data).

    Runs in a worker process (or inline for ``jobs=1``).  The payload is
    either ``{"result": RunResult, ...}`` or ``{"error": {...}, ...}``;
    both carry the phase profile, wall time, epoch start/end stamps,
    content digests and (cache enabled) this attempt's cache-counter
    deltas, so the parent can merge host-side accounting even for
    failed runs.  With ``telemetry=True`` the attempt also records
    nested host-side spans into a fresh
    :class:`~repro.obs.telemetry.SpanCollector` and ships them back
    under ``payload["spans"]`` with the worker's track label.

    ``verify=True`` additionally replays the run through the
    functional/timing differential checker
    (:func:`repro.verify.differential_check`); a mismatch surfaces as a
    structured ``DifferentialMismatch`` failure.  Verified runs skip
    the result-cache fast path -- a cached number is exactly what an
    unvalidated bug would hide behind.
    """
    crash = os.environ.get(_CRASH_ENV)
    if crash and crash == f"{spec.app}:{spec.config}":
        os._exit(42)   # simulate a hard worker death (segfault/OOM-kill)

    col = prev_col = None
    if telemetry:
        col = SpanCollector()
        prev_col = set_span_collector(col)
    prof = PhaseProfiler()
    ctx: Dict[str, object] = {}
    t_start = time.time()
    t0 = time.perf_counter()
    try:
        try:
            with span("run_attempt", app=spec.app, config=spec.config,
                      threads=spec.threads):
                payload = _spec_payload(spec, timeout_s, max_cycles,
                                        verify, prof, ctx)
        except Exception as exc:
            payload = {"error": {"type": type(exc).__name__,
                                 "message": str(exc),
                                 "traceback": traceback.format_exc()}}
    finally:
        if col is not None:
            set_span_collector(prev_col)
    payload["phases"] = prof.as_dict()
    payload["wall_s"] = time.perf_counter() - t0
    payload["t_start"] = t_start
    payload["t_end"] = time.time()
    payload["program_digest"] = ctx.get("program_digest")
    payload["config_digest"] = ctx.get("config_digest")
    cache = ctx.get("cache")
    if cache is not None:
        now = cache.counters()
        before = ctx.get("cache0", {})
        payload["cache"] = {k: v - before.get(k, 0)
                            for k, v in now.items()}
    if col is not None:
        payload["spans"] = col.spans
        payload["worker"] = col.worker
    return payload


# --------------------------------------------------------------------------
# Ledger record shapes (shared with repro.service)
# --------------------------------------------------------------------------

def run_record(spec: RunSpec, payload: Dict[str, object], attempts: int,
               t_submit: Optional[float] = None,
               tenant: Optional[str] = None,
               job_id: Optional[str] = None) -> Dict[str, object]:
    """One schema-:data:`LEDGER_SCHEMA` ledger record for an observed
    run-attempt payload.  The :class:`ExperimentRunner` and the job
    service (:mod:`repro.service`) both build their records here so the
    schema lives in exactly one place; ``tenant``/``job_id`` stay None
    for CLI/runner sweeps.  ``queue_wait_s`` is the time from
    ``t_submit`` to the attempt's start, when both are known.  ``engine``
    is always ``"event"`` and ``func_engine`` always ``"fast"``, the only
    timing and trace-generation engines; the fields stay so schema-3
    ledgers keep one shape."""
    err = payload.get("error")
    result = payload.get("result")
    t_start = payload.get("t_start")
    queue_wait = None
    if t_submit is not None and t_start is not None:
        queue_wait = max(0.0, float(t_start) - t_submit)
    return {
        "schema": LEDGER_SCHEMA,
        "app": spec.app, "config": spec.config,
        "threads": spec.threads, "scalar_only": spec.scalar_only,
        "engine": "event",
        "func_engine": "fast",
        "attempt": attempts,
        "worker": payload.get("worker"),
        "tenant": tenant,
        "job_id": job_id,
        "outcome": "ok" if err is None else "error",
        "error_type": str(err["type"]) if err else None,
        "cycles": int(result.cycles) if result is not None else None,
        "wall_s": payload.get("wall_s"),
        "queue_wait_s": queue_wait,
        "t_start": t_start,
        "t_end": payload.get("t_end"),
        "result_cached": bool(payload.get("result_cached")),
        "trace_cached": payload.get("trace_cached"),
        "program_digest": payload.get("program_digest"),
        "config_digest": payload.get("config_digest"),
        "phases": payload.get("phases") or {},
        "cache": payload.get("cache"),
    }


def crash_record(spec: RunSpec, attempts: int,
                 t_submit: Optional[float] = None) -> Dict[str, object]:
    """Ledger record for a run whose worker process died outright: no
    result, no worker facts, spanning submission to now."""
    payload = {"error": {"type": "WorkerCrash"}, "t_start": t_submit,
               "t_end": time.time()}
    return dict(run_record(spec, payload, attempts), outcome="crash")


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

class ExperimentRunner:
    """Execute a run matrix, optionally in parallel, with caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs everything in-process (no pool),
        which is the bit-for-bit reference path.
    cache_dir:
        Root of the shared on-disk trace/result cache.  With ``jobs > 1``
        and no ``cache_dir``, an ephemeral directory is used for the
        duration of :meth:`run` so workers still share traces.
    timeout:
        Per-run wall-clock limit in seconds (None = unlimited).
    retries:
        Extra attempts after the first failure of a spec.
    telemetry:
        A :class:`~repro.obs.telemetry.Telemetry` sink (or a directory
        path one is created at).  Enables the per-attempt run ledger,
        worker span collection and the fleet timeline export.
    progress:
        Draw a live ``completed/failed/cached/in-flight/ETA`` line on
        stderr as outcomes arrive.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 verify: bool = False,
                 telemetry: Union[Telemetry, str, None] = None,
                 progress: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and not timeout > 0:
            # `if not timeout_s` in _alarm() treats 0 as "no alarm", so
            # a `--timeout 0` typo would silently disable the limit.
            raise ValueError(
                "timeout must be > 0 seconds; use None for no limit")
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.timeout = timeout
        self.retries = retries
        self.max_cycles = max_cycles
        #: differentially validate every run (functional vs timing); a
        #: mismatch is a structured, non-retryable failure
        self.verify = verify
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            telemetry = Telemetry(telemetry)
        #: fleet-telemetry sink: run ledger + spans + timeline
        self.telemetry: Optional[Telemetry] = telemetry
        self.progress = bool(progress)
        #: merged host-side phase profile across all workers + parent
        self.profiler = PhaseProfiler()
        self.outcomes: Dict[RunSpec, RunOutcome] = {}
        #: sweep-wide TraceCache hit/miss/store counters, accumulated
        #: from every attempt's worker-side delta (workers' own counters
        #: die with the worker; these do not)
        self.cache_counters: Dict[str, int] = {}
        self._submit_t: Dict[RunSpec, float] = {}
        self._total = 0
        self._resolved = 0
        self._run_t0 = 0.0

    # -- public API ----------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> Dict[RunSpec, RunOutcome]:
        """Execute every distinct spec; returns spec -> outcome."""
        ordered: List[RunSpec] = []
        seen = set()
        for s in specs:
            if s not in seen:
                seen.add(s)
                ordered.append(s)

        self._total = len(ordered)
        self._resolved = 0
        self._run_t0 = time.time()

        ephemeral = None
        cache_dir = self.cache_dir
        if cache_dir is None and self.jobs > 1:
            ephemeral = tempfile.mkdtemp(prefix="vlt-cache-")
            cache_dir = ephemeral
        prev_cache = timing_run.get_trace_cache()
        timing_run.set_trace_cache_dir(cache_dir)
        prev_col = None
        if self.telemetry is not None:
            prev_col = set_span_collector(SpanCollector(worker="parent"))
        try:
            with span("sweep", jobs=self.jobs, specs=len(ordered)):
                if self.jobs == 1:
                    self._run_serial(ordered)
                else:
                    self._run_parallel(ordered, cache_dir)
        finally:
            if self.telemetry is not None:
                col = set_span_collector(prev_col)
                if col is not None:
                    self.telemetry.add_spans("parent", col.spans)
                write_timeline(self.telemetry.dir)
            if self.progress and ordered:
                sys.stderr.write("\n")
                sys.stderr.flush()
            if ephemeral is not None:
                # drop the throwaway cache and restore the previous one
                import shutil
                shutil.rmtree(ephemeral, ignore_errors=True)
                timing_run.set_trace_cache_dir(
                    str(prev_cache.root) if prev_cache is not None else None)
        return dict(self.outcomes)

    @property
    def results(self) -> Dict[RunSpec, RunResult]:
        """Successful results only -- the mapping drivers consume."""
        return {s: o.result for s, o in self.outcomes.items() if o.ok}

    @property
    def failures(self) -> List[RunFailure]:
        return [o.failure for o in self.outcomes.values()
                if o.failure is not None]

    # -- internals -----------------------------------------------------------

    def _record(self, spec: RunSpec, payload: Dict[str, object],
                attempts: int) -> bool:
        """Fold a worker payload into outcomes; True on success."""
        self.profiler.merge_dict(payload.get("phases", {}))
        wall = float(payload.get("wall_s", 0.0))
        err = payload.get("error")
        if err is None:
            self.outcomes[spec] = RunOutcome(
                spec=spec, result=payload["result"], attempts=attempts,
                wall_s=wall,
                result_cached=bool(payload.get("result_cached")),
                trace_cached=payload.get("trace_cached"))
            return True
        self.outcomes[spec] = RunOutcome(
            spec=spec, attempts=attempts, wall_s=wall,
            failure=RunFailure(
                spec=spec, error_type=str(err["type"]),
                message=str(err["message"]),
                traceback=str(err.get("traceback", "")),
                attempts=attempts,
                phases=dict(payload.get("phases", {}))))
        return False

    def _record_crash(self, spec: RunSpec, attempts: int) -> None:
        self.outcomes[spec] = RunOutcome(
            spec=spec, attempts=attempts,
            failure=RunFailure(
                spec=spec, error_type="WorkerCrash",
                message="worker process died (killed or crashed) while "
                        "executing this run", attempts=attempts))
        if self.telemetry is not None:
            self.telemetry.record(crash_record(
                spec, attempts, t_submit=self._submit_t.get(spec)))

    # -- telemetry plumbing --------------------------------------------------

    def _note_attempt(self, spec: RunSpec, payload: Dict[str, object],
                      attempts: int) -> None:
        """Fold one attempt's telemetry: cache deltas, ledger, spans.

        Called once per observed payload -- every attempt, not just the
        final one -- so retries are first-class ledger records.
        """
        for k, v in (payload.get("cache") or {}).items():
            self.cache_counters[k] = self.cache_counters.get(k, 0) + int(v)
        if self.telemetry is None:
            return
        self.telemetry.record(run_record(
            spec, payload, attempts, t_submit=self._submit_t.get(spec)))
        spans = payload.get("spans")
        if spans:
            self.telemetry.add_spans(
                str(payload.get("worker", "?")), spans)

    def _progress_tick(self, final: bool) -> None:
        if final:
            self._resolved += 1
        if not self.progress:
            return
        failed = sum(1 for o in self.outcomes.values()
                     if o.failure is not None)
        cached = sum(1 for o in self.outcomes.values() if o.result_cached)
        in_flight = self._total - self._resolved
        msg = (f"[runner] {self._resolved}/{self._total} done "
               f"({failed} failed, {cached} cached, "
               f"{in_flight} in flight")
        if 0 < self._resolved < self._total:
            elapsed = time.time() - self._run_t0
            eta = elapsed / self._resolved * in_flight
            msg += f", ETA {eta:.0f}s"
        msg += ")"
        sys.stderr.write("\r" + msg.ljust(72))
        sys.stderr.flush()

    # -- execution strategies ------------------------------------------------

    @staticmethod
    def _retryable(payload: Dict[str, object]) -> bool:
        """Differential mismatches are deterministic; retrying burns
        attempts without new information."""
        err = payload.get("error")
        return not (isinstance(err, dict)
                    and err.get("type") == "DifferentialMismatch")

    def _run_serial(self, specs: Sequence[RunSpec]) -> None:
        for spec in specs:
            for attempt in range(1, self.retries + 2):
                self._submit_t[spec] = time.time()
                payload = _execute_spec(spec, self.timeout, self.max_cycles,
                                        self.verify,
                                        self.telemetry is not None)
                self._note_attempt(spec, payload, attempt)
                done = self._record(spec, payload, attempt) \
                    or not self._retryable(payload)
                self._progress_tick(done or attempt == self.retries + 1)
                if done:
                    break

    def _run_parallel(self, specs: Sequence[RunSpec],
                      cache_dir: Optional[str]) -> None:
        pending: Dict[RunSpec, int] = {s: 0 for s in specs}  # attempts used
        while pending:
            crashed = self._pool_round(list(pending), pending, cache_dir)
            if crashed:
                # The pool broke: some spec kills its worker.  We cannot
                # tell which future was the culprit, so quarantine --
                # every remaining spec runs in its own disposable pool.
                for spec in list(pending):
                    attempts = pending.pop(spec)
                    self._run_isolated(spec, attempts, cache_dir)
                return
            # specs that failed with a plain exception and still have
            # retries left stay in `pending` for another round

    def _pool_round(self, specs: List[RunSpec],
                    pending: Dict[RunSpec, int],
                    cache_dir: Optional[str]) -> bool:
        """One pool pass over ``specs``; returns True if the pool broke.

        Successes and retry-exhausted failures leave ``pending``;
        retryable failures stay with their attempt count bumped.
        """
        futs: Dict[object, RunSpec] = {}
        observed: Set[object] = set()   # futures already folded in
        telemetry = self.telemetry is not None
        try:
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(specs)),
                    initializer=_worker_init,
                    initargs=(cache_dir,)) as pool:
                for s in specs:
                    self._submit_t[s] = time.time()
                    futs[pool.submit(_execute_spec, s, self.timeout,
                                     self.max_cycles, self.verify,
                                     telemetry)] = s
                not_done = set(futs)
                while not_done:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for fut in done:
                        spec = futs[fut]
                        exc = fut.exception()
                        if isinstance(exc, BrokenProcessPool):
                            raise exc
                        attempts = pending[spec] + 1
                        if exc is not None:   # pragma: no cover - defensive
                            payload = {"error": {
                                "type": type(exc).__name__,
                                "message": str(exc), "traceback": ""}}
                        else:
                            payload = fut.result()
                        observed.add(fut)
                        self._note_attempt(spec, payload, attempts)
                        ok = (payload.get("error") is None)
                        if ok or attempts > self.retries \
                                or not self._retryable(payload):
                            self._record(spec, payload, attempts)
                            del pending[spec]
                            self._progress_tick(True)
                        else:
                            pending[spec] = attempts
                            self._progress_tick(False)
            return False
        except BrokenProcessPool:
            # Sweep up futures that genuinely completed before the break
            # so their results are not lost to the quarantine pass.
            for fut, spec in futs.items():
                if spec in pending and fut.done() \
                        and fut.exception() is None:
                    payload = fut.result()
                    if fut not in observed:
                        self._note_attempt(spec, payload,
                                           pending[spec] + 1)
                    if self._record(spec, payload, pending[spec] + 1):
                        del pending[spec]
                        self._progress_tick(True)
            return True

    def _run_isolated(self, spec: RunSpec, attempts_used: int,
                      cache_dir: Optional[str]) -> None:
        """Run one spec in disposable single-worker pools until it
        succeeds, exhausts its retries, or keeps crashing."""
        attempts = attempts_used
        while attempts <= self.retries:
            attempts += 1
            self._submit_t[spec] = time.time()
            try:
                with ProcessPoolExecutor(
                        max_workers=1, initializer=_worker_init,
                        initargs=(cache_dir,)) as pool:
                    payload = pool.submit(
                        _execute_spec, spec, self.timeout,
                        self.max_cycles, self.verify,
                        self.telemetry is not None).result()
            except BrokenProcessPool:
                self._record_crash(spec, attempts)
                self._progress_tick(attempts > self.retries)
                continue
            self._note_attempt(spec, payload, attempts)
            done = self._record(spec, payload, attempts) \
                or not self._retryable(payload)
            self._progress_tick(done or attempts > self.retries)
            if done:
                return
        # the last _record/_record_crash above left the final failure

    # -- reporting -----------------------------------------------------------

    def report(self) -> str:
        """Per-run summary of the sweep: cycles, wall time, attempts and
        cache provenance per spec, failures last."""
        ok = sum(1 for o in self.outcomes.values() if o.ok)
        cached = sum(1 for o in self.outcomes.values() if o.result_cached)
        lines = [f"runner: {ok}/{len(self.outcomes)} runs succeeded "
                 f"({cached} served from result cache, jobs={self.jobs})"]
        for spec, o in self.outcomes.items():
            if o.ok:
                attempts = (f"{o.attempts} attempt"
                            f"{'s' if o.attempts != 1 else ''}")
                lines.append(
                    f"  {spec}: {o.result.cycles} cycles in "
                    f"{o.wall_s:.2f}s ({attempts}, {o.provenance()})")
        for f in self.failures:
            lines.append(f"  FAILED {f.summary()}")
        return "\n".join(lines)
