"""Machine configurations (paper Table 3 plus the VLT design space).

The base machine mirrors Table 3 of the paper:

* Scalar unit: 4-way out-of-order superscalar, 64-entry window/ROB,
  4 arithmetic units, 2 memory ports, 16 KB 2-way L1 I/D caches.
* Vector control: 2-way issue, 32-entry VIQ, 32-entry window.
* 8 vector lanes, 3 arithmetic datapaths + 2 memory ports per lane,
  64 physical vector registers (8 elements per lane).
* Memory: 4 MB 4-way 16-bank L2, 10-cycle hit, 100-cycle miss.

The named VLT configurations follow Section 4.1/Table 2 notation:
``V{n}-{SMT,CMP,CMT}{-h}`` for *n* vector threads with multiplexed,
replicated, or hybrid scalar units (``-h`` = heterogeneous: first SU
4-way, the rest 2-way).  ``CMT`` (no suffix digits) is the pure-CMP
comparison machine of Section 7.2: two 4-way 2-way-SMT scalar units
*without* the vector unit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ScalarUnitConfig:
    """One superscalar scalar unit (SU), possibly SMT."""

    width: int = 4              # fetch/issue/retire width
    window: int = 64            # instruction window / ROB entries
    arith_units: int = 4
    mem_ports: int = 2
    smt_contexts: int = 1
    l1_line: int = 64
    l1i_kib: int = 16
    l1d_kib: int = 16
    l1_assoc: int = 2
    l1_hit_latency: int = 2
    mispredict_penalty: int = 8
    bpred_entries: int = 4096

    def __post_init__(self):
        if self.width < 1 or self.window < 1:
            raise ValueError("SU width/window must be >= 1")
        if self.arith_units < 1 or self.mem_ports < 1:
            raise ValueError("SU needs at least one ALU and one mem port")
        if self.smt_contexts < 1:
            raise ValueError("smt_contexts must be >= 1")
        if self.bpred_entries & (self.bpred_entries - 1):
            raise ValueError("bpred_entries must be a power of two")

    def halved(self) -> "ScalarUnitConfig":
        """The paper's 2-way SU: identical caches, half the resources."""
        return replace(self, width=2, window=32, arith_units=2, mem_ports=1)


@dataclass(frozen=True)
class VectorUnitConfig:
    """The vector unit: control logic (VCL) + lanes."""

    lanes: int = 8
    issue_width: int = 2        # VCL instructions issued per cycle (shared)
    viq_entries: int = 32       # vector instruction queue (statically split)
    arith_fus: int = 3          # vector arithmetic FUs (datapath per lane each)
    mem_ports: int = 2          # vector memory ports (address per lane each)
    chain_delay: int = 2        # producer-issue to consumer-issue chain slack
    phys_vregs: int = 64
    su_transfer: int = 2        # SU<->VCL scalar communication latency
    #: replicate the VCL per VLT thread (each partition gets the full
    #: issue width) instead of multiplexing one VCL across partitions.
    #: The paper found multiplexing performs as well as replication at
    #: negligible area (Section 3.2); this knob reproduces that claim.
    replicated_vcl: bool = False
    #: model an *SMT vector processor* (Espasa et al., the paper's
    #: citation [11]) instead of VLT: every thread sees all lanes and
    #: the threads share the physical vector FUs/ports.  The paper
    #: argues this attacks idle FUs (low ILP) while VLT attacks idle
    #: lanes (low DLP) -- an orthogonal problem (Section 3.1); the
    #: comparison bench quantifies that orthogonality.
    vu_smt: bool = False

    def __post_init__(self):
        if self.lanes < 1:
            raise ValueError("vector unit needs at least one lane")
        if self.issue_width < 1 or self.viq_entries < 1:
            raise ValueError("VCL issue width / VIQ size must be >= 1")
        if self.arith_fus < 1 or self.mem_ports < 1:
            raise ValueError("lanes need arithmetic FUs and memory ports")
        if self.phys_vregs < 33:
            raise ValueError(
                "need more physical than architectural (32) vector regs")


@dataclass(frozen=True)
class L2Config:
    """Shared multi-banked L2 cache."""

    size_kib: int = 4096
    assoc: int = 4
    banks: int = 16
    line: int = 64
    hit_latency: int = 10
    miss_latency: int = 100
    # Bank occupancy per access: the X1-class L2 sustains one access per
    # bank per cycle (16 banks serve the 16 addresses/cycle the lanes
    # can generate, Section 2).
    bank_busy: int = 1

    def __post_init__(self):
        if self.banks < 1 or self.bank_busy < 1:
            raise ValueError("L2 needs >= 1 bank with >= 1 cycle occupancy")
        if self.line < 8 or self.line & (self.line - 1):
            raise ValueError("L2 line size must be a power of two >= 8")
        if self.size_kib * 1024 % (self.assoc * self.line):
            raise ValueError("L2 size must divide into assoc * line sets")
        if self.miss_latency < self.hit_latency:
            raise ValueError("miss latency below hit latency")


@dataclass(frozen=True)
class LaneCoreConfig:
    """A vector lane re-engineered as a scalar core (paper Section 5)."""

    width: int = 2              # 2-way in-order
    icache_kib: int = 4
    icache_line: int = 64
    mispredict_penalty: int = 3
    bpred_entries: int = 512
    imiss_extra: int = 4        # forward-to-SU overhead on lane I$ misses
    #: access-decoupling depth: loads may slip ahead of a stalled
    #: consumer by up to this many instructions.  The lanes reuse their
    #: vector-memory queuing resources (64 elements deep per port,
    #: paper Sections 2 and 5), so a deep run-ahead window is faithful.
    decouple_depth: int = 48


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: scalar units + vector unit + memory system."""

    name: str
    scalar_units: Tuple[ScalarUnitConfig, ...] = (ScalarUnitConfig(),)
    vu: Optional[VectorUnitConfig] = VectorUnitConfig()
    l2: L2Config = L2Config()
    lane_core: LaneCoreConfig = LaneCoreConfig()
    #: Software threads execute on the lanes-as-scalar-cores instead of SUs.
    lane_scalar_mode: bool = False
    #: Barrier release overhead in cycles (the paper's "thread API overhead").
    barrier_overhead: int = 30
    #: One-time lane-repartitioning overhead applied at ``vltcfg``.
    vltcfg_overhead: int = 16

    @property
    def total_contexts(self) -> int:
        """Hardware thread contexts available for software threads."""
        if self.lane_scalar_mode:
            return self.vu.lanes
        return sum(su.smt_contexts for su in self.scalar_units)

    def placement(self, num_threads: int) -> List[Tuple[int, int]]:
        """Map software threads to hardware contexts.

        Returns a list of ``(unit_index, context_index)``; in lane-scalar
        mode ``unit_index`` is the lane index and ``context_index`` 0.
        Threads fill units breadth-first (one per SU before doubling up)
        so that replicated configurations spread load, then SMT contexts,
        matching the paper's placements (e.g. V4-CMT: threads 0,1 on
        SU0's two contexts, threads 2,3 on SU1's).
        """
        if self.lane_scalar_mode:
            if num_threads > self.vu.lanes:
                raise ValueError(
                    f"{self.name}: {num_threads} threads > {self.vu.lanes} lanes")
            return [(t, 0) for t in range(num_threads)]
        # Contexts fill depth-first within an SU, keeping sibling threads on
        # the same SU (the paper's V4-CMT pairs threads per SU).
        ordered: List[Tuple[int, int]] = []
        for u, su in enumerate(self.scalar_units):
            for ctx in range(su.smt_contexts):
                ordered.append((u, ctx))
        if num_threads > len(ordered):
            raise ValueError(
                f"{self.name}: {num_threads} threads > {len(ordered)} contexts")
        return ordered[:num_threads]

    def digest(self) -> str:
        """Stable content digest of every machine parameter (hex SHA-256).

        Used (with the program digest) to key the on-disk result cache:
        editing any configuration field invalidates cached results.
        """
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True,
                             default=str)
        return hashlib.sha256(
            b"vlt-config-v1\0" + payload.encode("utf-8")).hexdigest()

    def lane_partitions(self, num_threads: int) -> List[int]:
        """Lanes assigned to each VLT thread (equal static split)."""
        if self.vu is None:
            return []
        lanes = self.vu.lanes
        if num_threads > lanes:
            raise ValueError("more threads than lanes")
        base = lanes // num_threads
        if base * num_threads != lanes:
            raise ValueError(
                f"lanes ({lanes}) not divisible by threads ({num_threads})")
        return [base] * num_threads


# --------------------------------------------------------------------------
# Named configurations
# --------------------------------------------------------------------------

_SU4 = ScalarUnitConfig()
_SU2 = _SU4.halved()


def base_config(lanes: int = 8, name: Optional[str] = None) -> MachineConfig:
    """The base vector processor of Table 3 (``lanes`` sweepable, Fig. 1)."""
    return MachineConfig(
        name=name or (f"base-{lanes}lane" if lanes != 8 else "base"),
        scalar_units=(_SU4,),
        vu=VectorUnitConfig(lanes=lanes),
    )


def _smt(su: ScalarUnitConfig, contexts: int) -> ScalarUnitConfig:
    return replace(su, smt_contexts=contexts)


#: The named design-space points of Sections 4 and 7.
CONFIGS: Dict[str, MachineConfig] = {}


def _register(cfg: MachineConfig) -> MachineConfig:
    CONFIGS[cfg.name] = cfg
    return cfg


BASE = _register(base_config())

# -- 2 vector threads -------------------------------------------------------
V2_SMT = _register(MachineConfig(
    name="V2-SMT", scalar_units=(_smt(_SU4, 2),)))
V2_CMP = _register(MachineConfig(
    name="V2-CMP", scalar_units=(_SU4, _SU4)))
V2_CMP_H = _register(MachineConfig(
    name="V2-CMP-h", scalar_units=(_SU4, _SU2)))

# -- 4 vector threads -------------------------------------------------------
V4_SMT = _register(MachineConfig(
    name="V4-SMT", scalar_units=(_smt(_SU4, 4),)))
V4_CMT = _register(MachineConfig(
    name="V4-CMT", scalar_units=(_smt(_SU4, 2), _smt(_SU4, 2))))
V4_CMP = _register(MachineConfig(
    name="V4-CMP", scalar_units=(_SU4, _SU4, _SU4, _SU4)))
V4_CMP_H = _register(MachineConfig(
    name="V4-CMP-h", scalar_units=(_SU4, _SU2, _SU2, _SU2)))

# -- scalar-thread machines (Section 7.2) ------------------------------------
#: V4-CMT running 8 scalar threads on the lanes (lanes as 2-way cores).
VLT_SCALAR = _register(MachineConfig(
    name="VLT-scalar", scalar_units=(_smt(_SU4, 2), _smt(_SU4, 2)),
    lane_scalar_mode=True))
#: The CMP comparison point: V4-CMT's scalar units without the vector unit.
CMT = _register(MachineConfig(
    name="CMT", scalar_units=(_smt(_SU4, 2), _smt(_SU4, 2)), vu=None))

# -- extension machines (Sections 3.2 and 6) --------------------------------
#: V4-CMP with one VCL per VLT thread instead of one multiplexed VCL.
V4_CMP_REPVCL = _register(replace(
    V4_CMP, name="V4-CMP-repVCL", vu=replace(V4_CMP.vu, replicated_vcl=True)))
#: V4-CMP on a 16-lane vector unit (the more-lanes trend).
V4_CMP_16LANE = _register(replace(
    V4_CMP, name="V4-CMP-16lane", vu=VectorUnitConfig(lanes=16)))


#: lane-swept base machines (Figure 1) resolve by name too, so a run
#: spec can reference any configuration as plain data.
_BASE_LANES_RE = re.compile(r"^base-(\d+)lane$")


def get_config(name: str) -> MachineConfig:
    """Look up a configuration by name.

    Besides the registered design-space points (:data:`CONFIGS`), the
    lane-swept base machines named ``base-<n>lane`` (as produced by
    :func:`base_config`) resolve here, so every configuration the
    experiment harness sweeps is addressable as a plain string.
    """
    try:
        return CONFIGS[name]
    except KeyError:
        m = _BASE_LANES_RE.match(name)
        if m and int(m.group(1)) >= 1:
            return base_config(lanes=int(m.group(1)))
        raise KeyError(f"unknown machine configuration {name!r}; "
                       f"known: {sorted(CONFIGS)} or 'base-<n>lane'") from None
