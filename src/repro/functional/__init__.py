"""Functional (architectural) simulation: memory, state, interpreter, traces."""

from .executor import ExecutionError, Executor
from .fast import FastExecutor
from .memory import Memory, MemoryFault, MisalignedAccess
from .state import ThreadState
from .trace import (TRACE_FORMAT_VERSION, DynOp, ProgramTrace, ThreadTrace,
                    TraceInvariantError, trace_from_bytes, trace_to_bytes)
from .trace_cache import TraceCache

__all__ = [
    "ExecutionError", "Executor", "FastExecutor",
    "Memory", "MemoryFault", "MisalignedAccess",
    "ThreadState", "DynOp", "ProgramTrace", "ThreadTrace",
    "TraceInvariantError", "TRACE_FORMAT_VERSION",
    "trace_from_bytes", "trace_to_bytes", "TraceCache",
]
