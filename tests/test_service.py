"""The simulation service: dedupe, admission, eviction, lifecycle.

The end-to-end tests drive a real :class:`SimulationService` over real
HTTP (loopback, ephemeral port) through the stdlib
:class:`ServiceClient` -- the same path the CI smoke job and the
load-generator bench exercise.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.telemetry import TelemetryReader, validate_run_record
from repro.service import JobRequest, TenantGovernor, TokenBucket
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import BadRequest, job_key
from repro.service.server import ServiceConfig, ServiceThread
from repro.timing.run import set_trace_cache_dir


@pytest.fixture(autouse=True)
def _no_ambient_disk_cache():
    """The service points the process-global cache at its own dir;
    isolate every test from that global state."""
    set_trace_cache_dir(None)
    yield
    set_trace_cache_dir(None)


def _service(tmp_path, **overrides):
    kwargs = dict(port=0, workers=2,
                  cache_dir=str(tmp_path / "cache"),
                  telemetry_dir=str(tmp_path / "tele"),
                  rate=10_000.0, burst=10_000.0)
    kwargs.update(overrides)
    return ServiceThread(ServiceConfig(**kwargs))


# --------------------------------------------------------------------------
# Admission control units (injectable clock: fully deterministic)
# --------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_throttle_then_refill(self):
        now = [0.0]
        b = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert [b.try_acquire() for _ in range(4)] == \
            [True, True, True, False]
        now[0] += 0.5                       # refills 1 token
        assert b.try_acquire()
        assert not b.try_acquire()
        now[0] += 100.0                     # caps at burst, not rate*t
        assert b.tokens == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestTenantGovernor:
    def test_rate_rejection_names_the_tenant(self):
        now = [0.0]
        g = TenantGovernor(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert g.admit("alice") is None
        assert g.admit("alice") is None
        reason = g.admit("alice")
        assert reason is not None and "alice" in reason
        assert g.admit("bob") is None       # per-tenant buckets

    def test_inflight_quota_and_release(self):
        g = TenantGovernor(rate=1000.0, burst=1000.0, max_inflight=2)
        assert g.admit("t") is None
        assert g.admit("t") is None
        reason = g.admit("t")
        assert reason is not None and "unfinished" in reason
        g.release("t")
        assert g.inflight("t") == 1
        assert g.admit("t") is None         # slot freed


# --------------------------------------------------------------------------
# Request validation
# --------------------------------------------------------------------------

class TestJobRequest:
    def test_round_trip_and_key(self):
        req = JobRequest.from_json({"app": "mpenc", "config": "base",
                                    "threads": 2})
        assert req.spec().threads == 2
        k1 = job_key(req, "p" * 64, "c" * 64)
        k2 = job_key(req, "p" * 64, "c" * 64)
        assert k1 == k2
        other = JobRequest.from_json({"app": "mpenc", "config": "base",
                                      "threads": 4})
        assert job_key(other, "p" * 64, "c" * 64) != k1

    @pytest.mark.parametrize("body", [
        "not an object",
        {},                                          # missing app/config
        {"app": "mpenc"},                            # missing config
        {"app": "mpenc", "config": "base", "threads": True},
        {"app": "mpenc", "config": "base", "threads": 0},
        {"app": "mpenc", "config": "base", "max_cycles": -5},
        {"app": "mpenc", "config": "base", "engine": "quantum"},
        {"app": "mpenc", "config": "base", "func_engine": "psychic"},
        {"app": "mpenc", "config": "base", "frobnicate": 1},
        {"app": "mpenc", "config": "base", "engine": "event"},  # no choice
        {"app": "mpenc", "config": "base", "func_engine": "fast"},  # ditto
    ])
    def test_rejected_bodies(self, body):
        with pytest.raises(BadRequest):
            JobRequest.from_json(body)


# --------------------------------------------------------------------------
# End-to-end over real HTTP
# --------------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_concurrent_identical_burst_simulates_once(self, tmp_path):
        """The headline property: N identical concurrent submissions
        collapse onto ONE simulation (single-flight dedupe), verified
        through the run ledger -- and every client still gets the same
        numbers."""
        n = 16
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            with ThreadPoolExecutor(max_workers=8) as pool:
                docs = list(pool.map(
                    lambda _: c.submit("mpenc", "base", threads=1,
                                       tenant="burst"), range(n)))
            results = [c.wait(d["id"]) for d in docs]
            metrics = c.metrics()
        assert all(r["state"] == "done" for r in results)
        cycles = {r["result"]["cycles"] for r in results}
        assert len(cycles) == 1             # N identical results
        assert metrics["service"]["submitted"] == n
        assert metrics["service"]["simulated_runs"] == 1
        # the ledger is the ground truth: exactly one simulate attempt
        recs = [json.loads(line) for line in
                (tmp_path / "tele" / "ledger.jsonl").read_text()
                .splitlines() if line]
        assert all(validate_run_record(r) == [] for r in recs)
        simulated = [r for r in recs
                     if r["outcome"] == "ok" and not r["result_cached"]]
        assert len(simulated) == 1
        assert simulated[0]["tenant"] == "burst"
        assert simulated[0]["job_id"]
        # fleet metrics ride along on /metrics
        assert metrics["fleet"]["ok"] >= 1

    def test_sequential_resubmission_hits_result_cache(self, tmp_path):
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            first = c.wait(c.submit("mpenc", "base")["id"])
            second = c.wait(c.submit("mpenc", "base")["id"])
            metrics = c.metrics()
        assert first["provenance"] in ("simulated", "trace cache")
        assert second["provenance"] == "result cache"
        assert first["result"]["cycles"] == second["result"]["cycles"]
        assert metrics["service"]["result_cache_served"] == 1
        assert metrics["service"]["simulated_runs"] == 1

    def test_rate_limit_is_http_429(self, tmp_path):
        with _service(tmp_path, rate=0.001, burst=2.0) as st:
            c = ServiceClient(port=st.port)
            c.submit("mpenc", "base", tenant="greedy")
            c.submit("mpenc", "base", tenant="greedy")
            with pytest.raises(ServiceError) as err:
                c.submit("mpenc", "base", tenant="greedy")
            # other tenants are unaffected
            ok = c.submit("mpenc", "base", tenant="polite")
            metrics = c.metrics()
        assert err.value.status == 429
        assert "greedy" in err.value.body["reason"]
        assert ok["state"] in ("queued", "running")
        assert metrics["service"]["rejected"] == 1

    def test_cache_budget_evicts_after_flights(self, tmp_path):
        with _service(tmp_path, cache_budget_bytes=0) as st:
            c = ServiceClient(port=st.port)
            c.wait(c.submit("mpenc", "base")["id"])
            deadline = time.monotonic() + 10.0
            while True:
                m = c.metrics()
                if m["service"]["evictions"] >= 1:
                    break
                assert time.monotonic() < deadline, m["service"]
                time.sleep(0.05)
        assert m["cache"]["budget_bytes"] == 0
        assert m["cache"]["traces"]["bytes"] == 0
        assert m["cache"]["results"]["bytes"] == 0

    def test_bad_requests_are_http_400(self, tmp_path):
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            for body in ({"app": "nosuchapp", "config": "base"},
                         {"app": "mpenc", "config": "nosuchcfg"},
                         {"app": "mpenc", "config": "base", "bogus": 1}):
                extra = {k: v for k, v in body.items()
                         if k not in ("app", "config")}
                with pytest.raises(ServiceError) as err:
                    c.submit(body["app"], body["config"], **extra)
                assert err.value.status == 400, body
            metrics = c.metrics()
        assert metrics["service"]["bad_requests"] == 3
        assert metrics["service"]["submitted"] == 0

    def test_unknown_job_is_http_404(self, tmp_path):
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            with pytest.raises(ServiceError) as err:
                c.status("job-999999")
        assert err.value.status == 404

    def test_simulation_failure_is_a_failed_job(self, tmp_path):
        # base has one thread context; threads=2 cannot execute
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            doc = c.wait(c.submit("mpenc", "base", threads=2)["id"])
        assert doc["state"] == "failed"
        assert doc["error"]["type"] == "ValueError"
        assert "contexts" in doc["error"]["message"]

    def test_stream_replays_lifecycle(self, tmp_path):
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            job_id = c.submit("mpenc", "base")["id"]
            lines = list(c.stream(job_id))
        states = [ln["state"] for ln in lines if "state" in ln]
        assert states[0] == "queued"
        assert states[-1] == "done"
        final = lines[-1]["final"]
        assert final["state"] == "done"
        assert final["result"]["cycles"] > 0

    def test_status_document_shape(self, tmp_path):
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            accepted = c.submit("mpenc", "base", threads=1,
                                tenant="shape")
            doc = c.wait(accepted["id"])
            status = c.status(accepted["id"])
            assert c.healthz()["ok"] is True
        assert accepted["key"] == status["key"]
        assert len(status["program_digest"]) == 64
        assert len(status["config_digest"]) == 64
        assert status["tenant"] == "shape"
        assert status["request"]["app"] == "mpenc"
        assert doc["provenance"] in ("simulated", "trace cache",
                                     "result cache", "dedupe")

    def test_ledger_readable_by_tele_report(self, tmp_path):
        """Service ledgers feed the same `vlt-repro tele report` path
        as runner sweeps (tenant mix included)."""
        with _service(tmp_path) as st:
            c = ServiceClient(port=st.port)
            c.wait(c.submit("mpenc", "base", tenant="acme")["id"])
        reader = TelemetryReader.from_path(
            tmp_path / "tele" / "ledger.jsonl")
        metrics = reader.fleet_metrics()
        assert metrics["ok"] >= 1
        assert metrics["tenant_mix"].get("acme", 0) >= 1
        assert "acme" in reader.report()


class TestServeCliVerb:
    def test_serve_verb_wired(self):
        """`vlt-repro serve` parses its flags and refuses operands."""
        from repro.harness.cli import CLI_VERBS, main
        assert "serve" in CLI_VERBS
        with pytest.raises(SystemExit):
            main(["serve", "extra-operand"])
