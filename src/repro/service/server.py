"""The asyncio job server: HTTP/JSON endpoints over the harness.

Architecture (one process, one event loop)::

    clients --HTTP--> asyncio loop --+-- admission (TenantGovernor)
                                     +-- single-flight map  key -> Flight
                                     +-- pending deque --> N worker tasks
                                                            |  (batching)
                                             ThreadPoolExecutor threads
                                             running _execute_spec()
                                                            |
                                     TraceCache (shared, LRU budget)
                                     Telemetry run ledger + /metrics

* **Single-flight dedupe**: jobs are keyed by the content digests
  (:func:`repro.service.jobs.job_key`); a submission whose key is
  already in flight attaches to that flight and shares its one result.
  Submissions arriving *after* the flight resolved still execute -- but
  hit the result cache, so nothing re-simulates either way.
* **Batching**: a worker that dequeues a flight also drains queued
  flights with the same ``(program digest, threads)`` -- they replay
  the same functional trace, so running them back-to-back on one worker
  turns N trace generations into one memo hit.
* **Admission**: per-tenant token bucket (submissions/s) and in-flight
  quota; rejections are HTTP 429 and never reach the queue.
* **Eviction**: with a cache budget configured, the shared on-disk
  :class:`~repro.functional.trace_cache.TraceCache` is re-bounded
  (LRU by mtime) after every executed flight.
* **Telemetry**: every executed run attempt lands in the schema-3 run
  ledger (``tenant`` + ``job_id`` set); ``/metrics`` serves the service
  counters plus :meth:`TelemetryReader.fleet_metrics`.

The HTTP layer is a deliberately small HTTP/1.1 subset (stdlib only,
``Connection: close``); see ``docs/service.md`` for the endpoints.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..harness.runner import RunSpec, _execute_spec, run_record
from ..obs.telemetry import Telemetry, TelemetryReader, write_timeline
from ..timing import run as timing_run
from .jobs import BadRequest, Job, JobRequest, job_key
from .ratelimit import TenantGovernor

#: tenant used when a submission names none
DEFAULT_TENANT = "anonymous"


@dataclass
class ServiceConfig:
    """Everything ``vlt-repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8373
    #: executor threads simulating jobs (and worker tasks feeding them)
    workers: int = 2
    #: shared on-disk trace/result cache root (None = in-memory only)
    cache_dir: Optional[str] = None
    #: fleet-telemetry directory (run ledger + /metrics source)
    telemetry_dir: Optional[str] = None
    #: per-job wall-clock limit, enforced loop-side (seconds)
    timeout: Optional[float] = None
    #: extra attempts after a failed (non-timeout) execution
    retries: int = 1
    #: token-bucket refill, submissions/s/tenant
    rate: float = 50.0
    #: token-bucket capacity (burst) per tenant
    burst: float = 100.0
    #: max unfinished jobs per tenant
    max_inflight: int = 256
    #: on-disk cache size budget in bytes (None = unbounded)
    cache_budget_bytes: Optional[int] = None
    #: max flights one worker drains as a single compatible batch
    max_batch: int = 16

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError("timeout must be > 0 seconds, or None")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.cache_budget_bytes is not None \
                and self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")


class _Flight:
    """One actual execution; any number of identical jobs ride it."""

    __slots__ = ("key", "request", "jobs", "program_digest",
                 "config_digest", "enqueued_at", "started")

    def __init__(self, key: str, request: JobRequest,
                 program_digest: str, config_digest: str) -> None:
        self.key = key
        self.request = request
        self.program_digest = program_digest
        self.config_digest = config_digest
        self.jobs: List[Job] = []
        self.enqueued_at = time.time()
        self.started = False


class SimulationService:
    """The embeddable server; :meth:`start` binds and spawns workers."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServiceConfig or kwargs")
        self.config = config
        self.governor = TenantGovernor(rate=config.rate,
                                       burst=config.burst,
                                       max_inflight=config.max_inflight)
        self.telemetry: Optional[Telemetry] = (
            Telemetry(config.telemetry_dir)
            if config.telemetry_dir is not None else None)
        self.cache = None            # set in start() (shared global)
        self.port: Optional[int] = None
        self.started_at: Optional[float] = None
        self.counters: Dict[str, int] = {
            "submitted": 0,          # accepted jobs (HTTP 202)
            "rejected": 0,           # admission rejections (HTTP 429)
            "bad_requests": 0,       # invalid submissions (HTTP 400)
            "deduped": 0,            # jobs attached to an in-flight key
            "flights": 0,            # executions (incl. cache-served)
            "simulated_runs": 0,     # flights that actually simulated
            "result_cache_served": 0,
            "timeouts": 0,
            "completed": 0,          # jobs that reached `done`
            "failed": 0,             # jobs that reached `failed`
            "evictions": 0,          # cache entries removed by budget
        }
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, _Flight] = {}
        self._pending: Deque[_Flight] = deque()
        self._digest_memo: Dict[Tuple[str, bool], str] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._cond: Optional[asyncio.Condition] = None
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        if cfg.cache_dir is not None:
            # one sweep at service startup; executor threads share this
            # process-global handle and never re-walk the tree
            self.cache = timing_run.set_trace_cache_dir(cfg.cache_dir,
                                                        sweep=True)
        self._cond = asyncio.Condition()
        self._pool = ThreadPoolExecutor(max_workers=cfg.workers,
                                        thread_name_prefix="svc-sim")
        self._workers = [
            asyncio.create_task(self._worker(f"svc-w{i}"))
            for i in range(cfg.workers)]
        self._server = await asyncio.start_server(
            self._handle_conn, host=cfg.host, port=cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def stop(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        async with self._cond:
            self._cond.notify_all()
        for t in self._workers:
            t.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self.telemetry is not None:
            write_timeline(self.telemetry.dir)
            self.telemetry.close()

    # -- submission path -----------------------------------------------------

    async def _digests(self, request: JobRequest) -> Tuple[str, str]:
        """Content digests for a request; raises BadRequest on unknown
        app/config names.  Program builds run in the executor (they can
        take tens of ms) and memoise by (app, scalar_only)."""
        from ..timing.config import get_config
        try:
            config_digest = get_config(request.config).digest()
        except KeyError as exc:
            raise BadRequest(f"unknown config: {exc}") from None
        memo_key = (request.app, request.scalar_only)
        program_digest = self._digest_memo.get(memo_key)
        if program_digest is None:
            try:
                program_digest = await asyncio.get_running_loop() \
                    .run_in_executor(
                        self._pool, lambda: request.spec().program().digest())
            except KeyError as exc:
                raise BadRequest(f"unknown app: {exc}") from None
            except ValueError as exc:   # e.g. no scalar flavour
                raise BadRequest(str(exc)) from None
            self._digest_memo[memo_key] = program_digest
        return program_digest, config_digest

    async def submit(self, body: Dict[str, Any],
                     tenant: Optional[str] = None) -> Tuple[int, Dict]:
        """Admission + dedupe; returns (HTTP status, response JSON)."""
        if tenant is None:
            tenant = str(body.get("tenant") or DEFAULT_TENANT) \
                if isinstance(body, dict) else DEFAULT_TENANT
        reason = self.governor.admit(tenant)
        if reason is not None:
            self.counters["rejected"] += 1
            return 429, {"error": "rate limited", "reason": reason}
        try:
            request = JobRequest.from_json(body)
            program_digest, config_digest = await self._digests(request)
        except BadRequest as exc:
            self.governor.release(tenant)
            self.counters["bad_requests"] += 1
            return 400, {"error": "bad request", "reason": str(exc)}
        key = job_key(request, program_digest, config_digest)
        job = Job(request=request, tenant=tenant, key=key,
                  program_digest=program_digest,
                  config_digest=config_digest)
        self._jobs[job.id] = job
        self.counters["submitted"] += 1
        flight = self._inflight.get(key)
        if flight is not None:
            # single-flight: identical in-flight submission -- share it
            job.deduped = True
            self.counters["deduped"] += 1
            flight.jobs.append(job)
            if flight.started:
                job.mark("running")
        else:
            flight = _Flight(key, request, program_digest, config_digest)
            flight.jobs.append(job)
            self._inflight[key] = flight
            self._pending.append(flight)
        async with self._cond:
            self._cond.notify_all()
        return 202, {"id": job.id, "state": job.state, "key": key,
                     "deduped": job.deduped}

    # -- execution path ------------------------------------------------------

    def _take_batch(self) -> List[_Flight]:
        """Pop the next flight plus queued trace-compatible ones."""
        first = self._pending.popleft()
        compat = (first.program_digest, first.request.threads)
        batch = [first]
        rest: Deque[_Flight] = deque()
        while self._pending:
            f = self._pending.popleft()
            if len(batch) < self.config.max_batch and \
                    (f.program_digest, f.request.threads) == compat:
                batch.append(f)
            else:
                rest.append(f)
        self._pending = rest
        return batch

    async def _worker(self, label: str) -> None:
        try:
            while True:
                async with self._cond:
                    while not self._pending and not self._closing:
                        await self._cond.wait()
                    if self._closing and not self._pending:
                        return
                    batch = self._take_batch()
                for flight in batch:
                    await self._run_flight(flight, label)
        except asyncio.CancelledError:
            return

    async def _run_flight(self, flight: _Flight, label: str) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        spec: RunSpec = flight.request.spec()
        flight.started = True
        for job in flight.jobs:
            job.mark("running")
        async with self._cond:
            self._cond.notify_all()   # wake stream watchers: "running"
        self.counters["flights"] += 1
        primary = flight.jobs[0]
        attempts = 0
        payload: Dict[str, Any] = {}
        while True:
            attempts += 1
            fut = loop.run_in_executor(
                self._pool, _execute_spec, spec, cfg.timeout,
                flight.request.max_cycles, False, False)
            try:
                if cfg.timeout is not None:
                    payload = await asyncio.wait_for(
                        asyncio.shield(fut), cfg.timeout)
                else:
                    payload = await fut
            except asyncio.TimeoutError:
                # SIGALRM cannot fire in an executor thread (see
                # _alarm), so the loop enforces the wall-clock limit;
                # the stuck thread finishes (and is discarded) later.
                self.counters["timeouts"] += 1
                payload = {"error": {
                    "type": "RunTimeout",
                    "message": f"job exceeded the service's "
                               f"{cfg.timeout:g}s wall-clock limit",
                    "traceback": ""},
                    "wall_s": cfg.timeout, "t_start": flight.enqueued_at,
                    "t_end": time.time(), "phases": {},
                    "program_digest": flight.program_digest,
                    "config_digest": flight.config_digest}
                fut.add_done_callback(lambda f: f.exception())
                self._record_attempt(flight, payload, attempts, label,
                                     primary)
                break
            err = payload.get("error")
            self._record_attempt(flight, payload, attempts, label,
                                 primary)
            if err is None or attempts > cfg.retries \
                    or err.get("type") == "DifferentialMismatch":
                break
        self._finish_flight(flight, payload)
        async with self._cond:
            self._cond.notify_all()
        if cfg.cache_budget_bytes is not None and self.cache is not None:
            evicted = await loop.run_in_executor(
                None, self.cache.enforce_budget, cfg.cache_budget_bytes)
            self.counters["evictions"] += evicted

    def _record_attempt(self, flight: _Flight, payload: Dict[str, Any],
                        attempts: int, label: str, primary: Job) -> None:
        if payload.get("error") is None:
            if payload.get("result_cached"):
                self.counters["result_cache_served"] += 1
            else:
                self.counters["simulated_runs"] += 1
        if self.telemetry is None:
            return
        rec = run_record(flight.request.spec(), payload, attempts,
                         t_submit=flight.enqueued_at,
                         tenant=primary.tenant, job_id=primary.id)
        rec["worker"] = label
        self.telemetry.record(rec)

    def _finish_flight(self, flight: _Flight,
                       payload: Dict[str, Any]) -> None:
        # drop the in-flight entry *first*: identical submissions from
        # here on start a fresh flight (and hit the result cache)
        self._inflight.pop(flight.key, None)
        err = payload.get("error")
        for job in flight.jobs:
            if err is None:
                job.result = _result_payload(payload["result"])
                if job.deduped:
                    job.provenance = "dedupe"
                elif payload.get("result_cached"):
                    job.provenance = "result cache"
                elif payload.get("trace_cached"):
                    job.provenance = "trace cache"
                else:
                    job.provenance = "simulated"
                job.mark("done")
                self.counters["completed"] += 1
            else:
                job.error = {"type": str(err.get("type")),
                             "message": str(err.get("message"))}
                job.provenance = "failed"
                job.mark("failed")
                self.counters["failed"] += 1
            self.governor.release(job.tenant)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        service: Dict[str, Any] = dict(self.counters)
        service["queued_flights"] = len(self._pending)
        service["inflight_flights"] = len(self._inflight)
        service["jobs_tracked"] = len(self._jobs)
        service["workers"] = self.config.workers
        if self.started_at is not None:
            service["uptime_s"] = time.time() - self.started_at
        submitted = self.counters["submitted"]
        if submitted:
            service["dedupe_rate"] = \
                1.0 - self.counters["simulated_runs"] / submitted
        out: Dict[str, Any] = {"service": service}
        if self.cache is not None:
            out["cache"] = self.cache.stats()
            if self.config.cache_budget_bytes is not None:
                out["cache"]["budget_bytes"] = \
                    self.config.cache_budget_bytes
        if self.telemetry is not None:
            out["fleet"] = TelemetryReader.from_path(
                self.telemetry.ledger_path).fleet_metrics()
        return out

    # -- HTTP layer ----------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            parts = line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                hline = await reader.readline()
                if hline in (b"\r\n", b"\n", b""):
                    break
                name, _, value = hline.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or 0)
            body = await reader.readexactly(length) if length else b""
            await self._route(method, path, headers, body, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except Exception as exc:   # pragma: no cover - defensive
            try:
                _write_json(writer, 500, {"error": "internal error",
                                          "reason": str(exc)})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/healthz":
            _write_json(writer, 200, {"ok": True,
                                      "uptime_s": time.time() -
                                      (self.started_at or time.time())})
            return
        if path == "/metrics":
            _write_json(writer, 200, self.metrics())
            return
        if path == "/jobs" and method == "POST":
            try:
                parsed = json.loads(body.decode("utf-8")) if body else {}
            except ValueError:
                self.counters["bad_requests"] += 1
                _write_json(writer, 400, {"error": "bad request",
                                          "reason": "body is not JSON"})
                return
            status, doc = await self.submit(parsed,
                                            tenant=headers.get("x-tenant"))
            _write_json(writer, status, doc)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, sub = rest.partition("/")
            job = self._jobs.get(job_id)
            if job is None:
                _write_json(writer, 404, {"error": "unknown job",
                                          "id": job_id})
                return
            if method != "GET":
                _write_json(writer, 405, {"error": "method not allowed"})
                return
            if sub == "":
                _write_json(writer, 200, job.status())
                return
            if sub == "result":
                if not job.finished:
                    _write_json(writer, 202, {"id": job.id,
                                              "state": job.state})
                    return
                doc = job.status()
                if job.result is not None:
                    doc["result"] = job.result
                _write_json(writer, 200, doc)
                return
            if sub == "stream":
                await self._stream_job(job, writer)
                return
        _write_json(writer, 404, {"error": "no such endpoint",
                                  "path": path})

    async def _stream_job(self, job: Job,
                          writer: asyncio.StreamWriter) -> None:
        """Newline-delimited JSON: every state transition as it
        happens, closing with the full final status."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Cache-Control: no-store\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            while sent < len(job.events):
                event = dict(job.events[sent], id=job.id)
                writer.write(json.dumps(event, sort_keys=True)
                             .encode("utf-8") + b"\n")
                sent += 1
            await writer.drain()
            if job.finished:
                doc = job.status()
                if job.result is not None:
                    doc["result"] = job.result
                writer.write(json.dumps({"final": doc}, sort_keys=True)
                             .encode("utf-8") + b"\n")
                await writer.drain()
                return
            async with self._cond:
                await self._cond.wait()


def _result_payload(result) -> Dict[str, Any]:
    """The JSON view of a :class:`~repro.timing.stats.RunResult`."""
    return {
        "program": result.program_name,
        "config": result.config_name,
        "num_threads": result.num_threads,
        "cycles": result.cycles,
        "thread_finish": list(result.thread_finish),
        "barrier_count": result.barrier_count,
        "l2_bank_conflict_cycles": result.l2_bank_conflict_cycles,
        "phase_release_cycles": list(result.phase_release_cycles),
    }


def _write_json(writer: asyncio.StreamWriter, status: int,
                doc: Dict[str, Any]) -> None:
    reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
              404: "Not Found", 405: "Method Not Allowed",
              429: "Too Many Requests",
              500: "Internal Server Error"}.get(status, "OK")
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1") + body)


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

class ServiceThread:
    """Run a :class:`SimulationService` on a background thread with its
    own event loop -- the harness tests and the load-generator bench
    drive the real HTTP surface this way."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 **overrides: Any) -> None:
        self.config = config if config is not None \
            else ServiceConfig(**overrides)
        self.service: Optional[SimulationService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="vlt-service")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self.service = SimulationService(self.config)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
            self._loop.run_until_complete(self.service.stop())
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(config: ServiceConfig) -> int:
    """Blocking driver behind ``vlt-repro serve``; ^C stops cleanly."""
    async def _main() -> None:
        svc = SimulationService(config)
        await svc.start()
        budget = (f", cache budget "
                  f"{config.cache_budget_bytes / 1e6:.0f} MB"
                  if config.cache_budget_bytes is not None else "")
        print(f"vlt-repro service on http://{config.host}:{svc.port} "
              f"({config.workers} workers, cache="
              f"{config.cache_dir or 'memory-only'}{budget}); "
              f"POST /jobs to submit, GET /metrics for fleet state")
        stop = asyncio.Event()
        try:
            await stop.wait()
        except asyncio.CancelledError:
            pass
        finally:
            await svc.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nservice stopped")
    return 0
