"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.functional import Executor
from repro.isa import ProgramBuilder, assemble
from repro.timing import simulate
from repro.timing.config import base_config


def run_asm(src: str, num_threads: int = 1, memory_kib: int = 64):
    """Assemble and functionally execute; returns (trace, executor, program)."""
    prog = assemble(src, memory_kib=memory_kib)
    ex = Executor(prog, num_threads=num_threads)
    trace = ex.run()
    return trace, ex, prog


def time_asm(src: str, lanes: int = 8, num_threads: int = 1,
             memory_kib: int = 64):
    """Assemble and run through the timing simulator; returns RunResult."""
    prog = assemble(src, memory_kib=memory_kib)
    return simulate(prog, base_config(lanes=lanes), num_threads=num_threads)


def warm_cycles(body: str, lanes: int = 8, memory_kib: int = 64,
                cfg=None, data: str = "") -> int:
    """Cycles of a warm (second) execution of ``body``.

    The body runs twice through the same pcs with a barrier after each
    pass, warming caches and predictors; returns the second phase's
    duration.  ``data`` holds assembler data directives.  ``s20``/``s21``
    are reserved for the harness loop.
    """
    src = f"""
    {data}
    li s20, 0
    li s21, 2
    top:
    {body}
    barrier
    addi s20, s20, 1
    blt s20, s21, top
    halt
    """
    from repro.isa import assemble
    prog = assemble(src, memory_kib=memory_kib)
    r = simulate(prog, cfg if cfg is not None else base_config())
    return r.phase_durations()[1]


@pytest.fixture
def builder() -> ProgramBuilder:
    return ProgramBuilder("test", memory_kib=64)


@pytest.fixture
def count_simulations(monkeypatch):
    """Record ``(program name, config name)`` for every timing replay
    in this process from here on; the list may be cleared mid-test."""
    import repro.timing.run as timing_run
    calls = []
    real = timing_run.run_traces

    def counting(cfg, trace, **kwargs):
        calls.append((trace.program_name, cfg.name))
        return real(cfg, trace, **kwargs)

    monkeypatch.setattr(timing_run, "run_traces", counting)
    return calls


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    """Drop content-digest-keyed trace memos between tests (hermetic)."""
    from repro.timing import clear_trace_cache
    clear_trace_cache()
    yield
    clear_trace_cache()
