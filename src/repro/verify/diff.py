"""Functional/timing differential checker.

The timing simulator is trace-driven: it never computes data values, it
only replays per-thread functional traces against the
microarchitecture model.  That split is what this checker exploits --
for any (program, config, threads) run it independently re-derives what
the timing machine *should* have replayed and diffs four surfaces:

1. **trace** -- a fresh reference execution against the trace the
   timing machine consumes (generated afresh by the fast engine, or
   supplied by the caller, e.g. a cached one): catches engine
   disagreement, stale or corrupt cache entries and trace
   (de)serialization bugs, column by column, naming the ops that differ;
2. **state / memory** -- the reference and the fast engine, each run
   independently, must produce bit-identical final registers, vector
   state, and memory: catches engine disagreement and nondeterminism;
3. **commit** -- every dispatchable op of every thread must be observed
   exactly once in the timing machine's committed-op event streams
   (in program order for scalar-unit ROB commits; set-semantics for
   lane cores, whose decoupled access streams legally slip ahead, and
   for vector-unit issue): catches dropped, duplicated, or reordered
   work in the timing model;
4. **invariants** -- per-thread finish times bounded by total cycles,
   barrier release count equal to the per-thread barrier count in the
   functional trace.

Which ops are *dispatchable* depends on the machine mode: barriers,
``halt`` and ``vltcfg`` never enter an execution stream (they are
handled at fetch); ``lsync`` is a fetch-side fence on scalar units but
occupies an issue slot on lane cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..functional.executor import Executor
from ..functional.fast import FastExecutor
from ..functional.trace import COLUMN_NAMES, DynOp, ProgramTrace
from ..isa.program import Program
from ..obs.events import COMMIT, EventBus, LANE_ISSUE, VISSUE
from ..timing.config import MachineConfig
from ..timing.machine import run_traces
from ..timing.stats import RunResult


@dataclass(frozen=True)
class Mismatch:
    """One point of disagreement between functional and timing views."""

    kind: str     #: "trace" | "state" | "memory" | "commit" | "invariant"
    thread: int   #: software thread id (-1 when not thread-specific)
    index: int    #: trace index / register uid / byte address, per kind
    detail: str

    def render(self) -> str:
        where = f"t{self.thread}" if self.thread >= 0 else "global"
        return f"[{self.kind}] {where}@{self.index}: {self.detail}"


@dataclass
class DiffReport:
    """Result of one differential check."""

    program_name: str
    config_name: str
    num_threads: int
    cycles: int = 0
    ops_checked: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    truncated: bool = False   #: mismatch list hit its cap

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        head = (f"diff {self.program_name} on {self.config_name} "
                f"({self.num_threads} threads): ")
        if self.ok:
            return (head + f"OK -- {self.ops_checked} ops agree, "
                    f"{self.cycles} cycles")
        lines = [head + f"{len(self.mismatches)} mismatch(es)"
                 + (" (truncated)" if self.truncated else "")]
        lines += ["  " + m.render() for m in self.mismatches]
        return "\n".join(lines)


#: per-run mismatch cap -- a broken run disagrees everywhere and a
#: bounded report is far more useful than a million-line one
MAX_MISMATCHES = 25


class DifferentialMismatch(AssertionError):
    """Raised by callers that treat a non-ok :class:`DiffReport` as
    fatal (the experiment runner's ``verify`` mode)."""

    def __init__(self, report: DiffReport):
        self.report = report
        super().__init__(report.render())


def _run_timing(cfg: MachineConfig, trace: ProgramTrace, max_cycles: int,
                bus: EventBus) -> RunResult:
    """Seam for the timing replay (tests monkeypatch this to inject
    timing bugs and exercise the checker + shrinker)."""
    return run_traces(cfg, trace, max_cycles=max_cycles, obs=bus)


class _CommitCollector:
    """Event-bus sink recording which DynOps the timing machine retired."""

    def __init__(self) -> None:
        self.commits: List[DynOp] = []     # SU ROB commits, in order
        self.lane_issues: List[DynOp] = []  # lane-core issues (may slip)
        self.vissues: List[DynOp] = []      # vector-unit issues

    def on_event(self, event) -> None:
        if event.kind == COMMIT:
            self.commits.append(event.dynop)
        elif event.kind == LANE_ISSUE:
            self.lane_issues.append(event.dynop)
        elif event.kind == VISSUE:
            self.vissues.append(event.dynop)


def _op_fields(op: DynOp) -> Tuple:
    return (op.pc, op.op, op.vl, op.taken, op.tgt, op.imm, op.reads,
            op.writes)


def _columns_equal(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return a["op_table"] == b["op_table"] and all(
        np.array_equal(a[name], b[name]) for name in COLUMN_NAMES)


def _diff_traces(ref: ProgramTrace, tut: ProgramTrace,
                 report: DiffReport) -> None:
    """Compare the reference functional trace with the trace under test
    (the one the timing machine replays), thread by thread on every
    array of their layouts (rows, pcs and sparse fields) and their op
    tables; the ops of a thread whose layouts differ are compared one by
    one to name the mismatching ones."""
    add = _Adder(report)
    if ref.num_threads != tut.num_threads:
        add("trace", -1, 0, f"thread counts differ: reference "
            f"{ref.num_threads}, under-test {tut.num_threads}")
        return
    for t, (rt, ut) in enumerate(zip(ref.threads, tut.threads)):
        report.ops_checked += min(len(rt), len(ut))
        if _columns_equal(rt.columns(), ut.columns()):
            continue
        if len(rt) != len(ut):
            add("trace", t, min(len(rt), len(ut)),
                f"trace lengths differ: reference {len(rt)} ops, "
                f"under-test {len(ut)}")
        for i, (a, b) in enumerate(zip(rt.ops, ut.ops)):
            if _op_fields(a) != _op_fields(b):
                add("trace", t, i,
                    f"op differs: reference {a.op}@pc{a.pc} "
                    f"{_op_fields(a)}, under-test {b.op}@pc{b.pc} "
                    f"{_op_fields(b)}")
            elif not _addrs_equal(a.addrs, b.addrs):
                add("trace", t, i,
                    f"{a.op}@pc{a.pc}: memory addresses differ")


def _addrs_equal(a, b) -> bool:
    if a is None or b is None:
        return (a is None) == (b is None)
    return bool(np.array_equal(a, b))


def _diff_final_state(ex1: Executor, ex2: Executor,
                      report: DiffReport) -> None:
    """Two independent functional runs must agree bit-for-bit."""
    add = _Adder(report)
    for t, (s1, s2) in enumerate(zip(ex1.states, ex2.states)):
        for i, (a, b) in enumerate(zip(s1.s, s2.s)):
            if a != b:
                add("state", t, i, f"s{i}: {a} != {b}")
        for i, (a, b) in enumerate(zip(s1.f, s2.f)):
            if a != b and not (np.isnan(a) and np.isnan(b)):
                add("state", t, i, f"f{i}: {a} != {b}")
        if s1.vl != s2.vl:
            add("state", t, -1, f"vl: {s1.vl} != {s2.vl}")
        if not np.array_equal(s1.vm, s2.vm):
            add("state", t, -1, "vector mask differs")
        if s1.v_i.tobytes() != s2.v_i.tobytes():
            bad = np.nonzero((s1.v_i != s2.v_i).any(axis=1))[0]
            add("state", t, int(bad[0]) if len(bad) else -1,
                f"vector registers differ: {['v%d' % v for v in bad[:4]]}")
    if ex1.mem.u8.tobytes() != ex2.mem.u8.tobytes():
        bad = np.nonzero(ex1.mem.u8 != ex2.mem.u8)[0]
        add("memory", -1, int(bad[0]),
            f"{len(bad)} byte(s) differ, first at address {int(bad[0])}")


class _Adder:
    """Capped append helper for :class:`DiffReport`."""

    def __init__(self, report: DiffReport):
        self.report = report

    def __call__(self, kind: str, thread: int, index: int,
                 detail: str) -> None:
        r = self.report
        if len(r.mismatches) >= MAX_MISMATCHES:
            r.truncated = True
            return
        r.mismatches.append(Mismatch(kind, thread, index, detail))


def _diff_committed(trace: ProgramTrace, collector: _CommitCollector,
                    lane_mode: bool, report: DiffReport) -> None:
    """Every dispatchable op retired exactly once, scalar commits in
    program order."""
    add = _Adder(report)
    idmap: Dict[int, Tuple[int, int]] = {}
    for t, tt in enumerate(trace.threads):
        for i, op in enumerate(tt.ops):
            idmap[id(op)] = (t, i)

    def classify(events: List[DynOp], label: str):
        per_thread: Dict[int, List[int]] = {t: [] for t in
                                            range(trace.num_threads)}
        for op in events:
            loc = idmap.get(id(op))
            if loc is None:
                add("commit", -1, -1,
                    f"{label}: retired op {op.op}@pc{op.pc} is not in the "
                    f"functional trace")
                continue
            per_thread[loc[0]].append(loc[1])
        return per_thread

    su_committed = classify(collector.commits, "SU commit")
    lane_issued = classify(collector.lane_issues, "lane issue")
    vu_issued = classify(collector.vissues, "VU issue")

    for t, tt in enumerate(trace.threads):
        ops = tt.ops
        if lane_mode:
            expected = [i for i, op in enumerate(ops)
                        if not (op.spec.is_barrier or op.spec.is_halt
                                or op.spec.is_vltcfg)]
            # decoupled slip may legally reorder: set semantics
            got = lane_issued[t]
            _expect_once(expected, got, ops, t, "lane issue", add)
            for stream, label in ((su_committed[t], "SU commit"),
                                  (vu_issued[t], "VU issue")):
                for i in stream:
                    add("commit", t, i,
                        f"{label} of {ops[i].op}@pc{ops[i].pc} on a "
                        f"lane-mode machine")
        else:
            # vector ops occupy the SU ROB (committing in program order)
            # AND must each be issued exactly once by the vector unit
            exp_commit = [i for i, op in enumerate(ops)
                          if not (op.spec.is_barrier or op.spec.is_halt
                                  or op.spec.is_lsync
                                  or op.spec.is_vltcfg)]
            exp_vector = [i for i, op in enumerate(ops)
                          if op.spec.is_vector]
            got = su_committed[t]
            if got != exp_commit:
                _expect_once(exp_commit, got, ops, t, "SU commit", add)
                if sorted(got) == sorted(exp_commit) and got != exp_commit:
                    first = next(i for i, (a, b)
                                 in enumerate(zip(got, exp_commit))
                                 if a != b)
                    add("commit", t, got[first],
                        f"SU commits out of program order from trace "
                        f"index {exp_commit[first]}")
            _expect_once(exp_vector, vu_issued[t], ops, t, "VU issue", add)
            for i in lane_issued[t]:
                add("commit", t, i,
                    f"lane issue of {ops[i].op}@pc{ops[i].pc} on an "
                    f"SU-mode machine")
        report.ops_checked += len(ops)


def _expect_once(expected: List[int], got: List[int], ops,
                 t: int, label: str, add: "_Adder") -> None:
    exp_set, got_counts = set(expected), {}
    for i in got:
        got_counts[i] = got_counts.get(i, 0) + 1
    for i in expected:
        c = got_counts.get(i, 0)
        if c != 1:
            add("commit", t, i,
                f"{label}: {ops[i].op}@pc{ops[i].pc} (trace index {i}) "
                f"retired {c} times, expected once")
    for i, c in got_counts.items():
        if i not in exp_set:
            add("commit", t, i,
                f"{label}: {ops[i].op}@pc{ops[i].pc} (trace index {i}) "
                f"retired but is not dispatchable in this mode")


def differential_check(program: Program, cfg: MachineConfig,
                       num_threads: int = 1,
                       max_cycles: int = 50_000_000,
                       trace: Optional[ProgramTrace] = None) -> DiffReport:
    """Cross-check one timing run against the functional executor.

    The engine under test is :class:`FastExecutor`, the one that
    generates every production trace.  It generates the trace under
    test -- always afresh, bypassing the trace memo and the disk cache,
    so it really runs -- and the second functional execution of the
    state diff, so the trace, final-state and memory diffs are
    fast-vs-reference comparisons against the reference
    :class:`Executor`, the oracle.  ``trace`` overrides the trace under
    test (e.g. a cached one).  Returns a :class:`DiffReport`;
    ``report.ok`` means full agreement.
    """
    report = DiffReport(program_name=program.name, config_name=cfg.name,
                        num_threads=num_threads)
    if trace is not None:
        tut = trace
    else:
        tut = FastExecutor(program, num_threads=num_threads,
                           record_trace=True).run()

    # 1/2: independent functional executions -- trace + state agreement
    ex1 = Executor(program, num_threads=num_threads, record_trace=True)
    ref_trace = ex1.run()
    ex2 = FastExecutor(program, num_threads=num_threads, record_trace=False)
    ex2.run()
    _diff_traces(ref_trace, tut, report)
    _diff_final_state(ex1, ex2, report)

    # 3: timing replay with a committed-op collector attached
    bus = EventBus()
    collector = _CommitCollector()
    bus.attach(collector)
    result = _run_timing(cfg, tut, max_cycles, bus)
    report.cycles = result.cycles
    _diff_committed(tut, collector, cfg.lane_scalar_mode, report)

    # 4: cheap structural invariants
    add = _Adder(report)
    for t, fin in enumerate(result.thread_finish):
        if fin > result.cycles:
            add("invariant", t, fin,
                f"thread finish time {fin} exceeds total cycles "
                f"{result.cycles}")
    per_thread_barriers = [tt.opcode_histogram().get("barrier", 0)
                           for tt in tut.threads]
    if len(set(per_thread_barriers)) > 1:
        add("invariant", -1, 0,
            f"threads disagree on barrier count: {per_thread_barriers}")
    elif per_thread_barriers and \
            result.barrier_count != per_thread_barriers[0]:
        add("invariant", -1, result.barrier_count,
            f"timing released {result.barrier_count} barriers, trace has "
            f"{per_thread_barriers[0]} per thread")
    return report
