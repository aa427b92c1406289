"""Physical-vector-register renaming limits (Table 3: 64 physical)."""

from dataclasses import replace

import pytest

from repro.isa import assemble
from repro.isa.registers import V_BASE
from repro.timing import clear_trace_cache, simulate
from repro.timing.config import BASE, V4_CMP, get_config
from repro.timing.vcl import VectorUnit
from repro.workloads import get_workload


def many_independent_vops(n=40):
    ops = "\n".join(f"vfadd.vv v{1 + i % 8}, v9, v10" for i in range(n))
    return assemble(f"""
    li s9, 0
    li s10, 3
    rep:
    li s1, 64
    setvl s2, s1
    {ops}
    addi s9, s9, 1
    blt s9, s10, rep
    halt
    """)


def with_phys(n):
    return replace(BASE, name=f"base-p{n}", vu=replace(BASE.vu,
                                                       phys_vregs=n))


class TestRenaming:
    def test_default_budget_never_binds(self):
        """64 physical - 32 architectural = 32 spares >= the whole VIQ."""
        prog = many_independent_vops()
        clear_trace_cache()
        c64 = simulate(prog, with_phys(64)).cycles
        clear_trace_cache()
        c256 = simulate(prog, with_phys(256)).cycles
        assert c64 == c256

    def test_small_register_file_throttles(self):
        prog = many_independent_vops()
        clear_trace_cache()
        cfull = simulate(prog, with_phys(64)).cycles
        clear_trace_cache()
        ctiny = simulate(prog, with_phys(34)).cycles  # 2 spare registers
        assert ctiny > cfull

    def test_monotone_in_registers(self):
        prog = many_independent_vops()
        prev = None
        for n in (33, 36, 40, 64):
            clear_trace_cache()
            c = simulate(prog, with_phys(n)).cycles
            if prev is not None:
                assert c <= prev
            prev = c


class TestRenameCounter:
    """``rename_in_use`` keeps a running count of queued and arriving
    vector-register writers; it must equal a full recount at every
    dispatch attempt, including while the budget never binds."""

    @pytest.mark.parametrize("app,cfg", [
        ("trfd", get_config("V4-CMP")),
        ("mpenc", get_config("V4-SMT")),   # four contexts share one SU
        ("trfd", replace(V4_CMP, name="V4-CMP-vsmt",
                         vu=replace(V4_CMP.vu, vu_smt=True))),
    ], ids=["trfd-V4-CMP", "mpenc-V4-SMT", "trfd-V4-CMP-vsmt"])
    def test_counter_matches_full_recount(self, monkeypatch, app, cfg):
        can_accept = VectorUnit.can_accept
        seen = []

        def checked(vu, tid, cycle):
            part = vu.partitions[tid]
            in_use = part.rename_in_use(cycle)
            waiting = part.viq + [v for _, _, v in part.arrivals]
            recount = (len(part.rename_pending)
                       + sum(1 for v in waiting
                             if any(u >= V_BASE for u in v.dynop.writes)))
            assert in_use == recount
            seen.append(in_use)
            return can_accept(vu, tid, cycle)

        monkeypatch.setattr(VectorUnit, "can_accept", checked)
        simulate(get_workload(app).program(), cfg, num_threads=4)
        assert seen and max(seen) > 1
