"""Cycle-level timing simulation of the VLT vector processor."""

from .branch import BimodalPredictor
from .caches import Cache, CacheStats
from .config import (BASE, CMT, CONFIGS, V2_CMP, V2_CMP_H, V2_SMT, V4_CMP,
                     V4_CMP_H, V4_CMT, V4_SMT, VLT_SCALAR, L2Config,
                     LaneCoreConfig, MachineConfig, ScalarUnitConfig,
                     VectorUnitConfig, base_config, get_config)
from .l2 import BankedL2, L2Stats
from .lane_core import LaneCore
from .machine import Machine, SimulationError, run_traces
from .pipeview import PipeView, simulate_with_pipeview
from .run import (TracedRun, clear_trace_cache, simulate, simulate_traced,
                  trace_for)
from .scalar_unit import ScalarUnit
from .stats import (DatapathUtilization, LaneCoreStats, RunResult,
                    ScalarUnitStats, VectorUnitStats)
from .vcl import VectorUnit

__all__ = [
    "BimodalPredictor", "Cache", "CacheStats",
    "BASE", "CMT", "CONFIGS", "V2_CMP", "V2_CMP_H", "V2_SMT", "V4_CMP",
    "V4_CMP_H", "V4_CMT", "V4_SMT", "VLT_SCALAR", "L2Config",
    "LaneCoreConfig", "MachineConfig", "ScalarUnitConfig",
    "VectorUnitConfig", "base_config", "get_config",
    "BankedL2", "L2Stats", "LaneCore", "Machine", "SimulationError",
    "PipeView", "simulate_with_pipeview",
    "run_traces", "clear_trace_cache", "simulate", "simulate_traced",
    "TracedRun", "trace_for",
    "ScalarUnit", "DatapathUtilization", "LaneCoreStats", "RunResult",
    "ScalarUnitStats", "VectorUnitStats", "VectorUnit",
]
