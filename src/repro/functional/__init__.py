"""Functional (architectural) simulation: memory, state, interpreter, traces."""

from .executor import ExecutionError, Executor, run_program
from .fast import FastExecutor, run_program_fast
from .memory import Memory, MemoryFault, MisalignedAccess
from .state import ThreadState
from .trace import (TRACE_FORMAT_VERSION, DynOp, ProgramTrace, ThreadTrace,
                    TraceInvariantError, load_trace, save_trace,
                    trace_from_bytes, trace_to_bytes)
from .trace_cache import TraceCache

__all__ = [
    "ExecutionError", "Executor", "run_program",
    "FastExecutor", "run_program_fast",
    "Memory", "MemoryFault", "MisalignedAccess",
    "ThreadState", "DynOp", "ProgramTrace", "ThreadTrace",
    "TraceInvariantError",
    "TRACE_FORMAT_VERSION", "load_trace", "save_trace",
    "trace_from_bytes", "trace_to_bytes", "TraceCache",
]
