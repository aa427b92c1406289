"""Job model for the simulation service.

A *job* is one client submission; a *flight* (see
:mod:`repro.service.server`) is one actual execution that any number of
identical jobs share.  Identity is content-addressed: the job key is
the :func:`~repro.functional.trace_cache.result_key` over the program
and config digests, so "identical submission" means *identical
simulation* -- same program bytes, same machine, same thread count,
same cycle budget -- not merely the same request strings.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..functional.trace_cache import result_key
from ..harness.runner import DEFAULT_MAX_CYCLES, RunSpec

#: every state a job can be observed in (terminal: done / failed)
JOB_STATES = ("queued", "running", "done", "failed")

_ids = itertools.count(1)


class BadRequest(ValueError):
    """A submission that can never execute (unknown app/config, bad
    types); reported as HTTP 400, never retried."""


@dataclass(frozen=True)
class JobRequest:
    """What a client submits: one point of the simulation space."""

    app: str
    config: str
    threads: int = 1
    scalar_only: bool = False
    max_cycles: int = DEFAULT_MAX_CYCLES

    @classmethod
    def from_json(cls, body: Mapping[str, Any]) -> "JobRequest":
        """Validate an untrusted JSON body into a request.

        Only shape/type validation happens here; app and config *names*
        are resolved (and rejected) when the digests are computed, so
        the error message can carry the registry's own wording.
        """
        if not isinstance(body, Mapping):
            raise BadRequest("request body must be a JSON object")
        unknown = set(body) - {"app", "config", "threads", "scalar_only",
                               "max_cycles", "tenant"}
        if unknown:
            raise BadRequest(f"unknown fields: {sorted(unknown)}")
        app = body.get("app")
        config = body.get("config")
        if not isinstance(app, str) or not app:
            raise BadRequest("'app' (workload name) is required")
        if not isinstance(config, str) or not config:
            raise BadRequest("'config' (machine configuration name) is "
                             "required")
        threads = body.get("threads", 1)
        if not isinstance(threads, int) or isinstance(threads, bool) \
                or threads < 1:
            raise BadRequest("'threads' must be a positive integer")
        max_cycles = body.get("max_cycles", DEFAULT_MAX_CYCLES)
        if not isinstance(max_cycles, int) or isinstance(max_cycles, bool) \
                or max_cycles < 1:
            raise BadRequest("'max_cycles' must be a positive integer")
        return cls(app=app, config=config, threads=threads,
                   scalar_only=bool(body.get("scalar_only", False)),
                   max_cycles=max_cycles)

    def spec(self) -> RunSpec:
        return RunSpec(self.app, self.config, self.threads,
                       scalar_only=self.scalar_only)


def job_key(request: JobRequest, program_digest: str,
            config_digest: str) -> str:
    """Content identity of the simulation a request asks for."""
    return result_key(program_digest, config_digest, request.threads,
                      request.max_cycles)


@dataclass
class Job:
    """One accepted submission and its observable lifecycle."""

    request: JobRequest
    tenant: str
    key: str
    program_digest: str
    config_digest: str
    id: str = field(default_factory=lambda: f"job-{next(_ids)}")
    state: str = "queued"
    #: attached to an already in-flight identical submission
    deduped: bool = False
    submitted_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    #: where the numbers came from: simulated / result cache / dedupe
    provenance: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    #: state transitions as ``{"state": ..., "t": ...}`` (stream feed)
    events: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events.append({"state": self.state, "t": self.submitted_at})

    def mark(self, state: str) -> None:
        assert state in JOB_STATES, state
        self.state = state
        now = time.time()
        if state in ("done", "failed"):
            self.finished_at = now
        self.events.append({"state": state, "t": now})

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def status(self) -> Dict[str, Any]:
        """The JSON the status endpoint serves."""
        out: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "tenant": self.tenant,
            "key": self.key,
            "program_digest": self.program_digest,
            "config_digest": self.config_digest,
            "deduped": self.deduped,
            "submitted_at": self.submitted_at,
            "request": {
                "app": self.request.app, "config": self.request.config,
                "threads": self.request.threads,
                "scalar_only": self.request.scalar_only,
                "max_cycles": self.request.max_cycles,
            },
        }
        if self.finished:
            out["finished_at"] = self.finished_at
            out["provenance"] = self.provenance
        if self.error is not None:
            out["error"] = self.error
        return out
