"""Differential checker + shrinker: agreement on healthy runs, detection
of injected timing bugs, and minimization of the failing program."""

import io

import numpy as np
import pytest

import repro.verify.diff as D
from repro.functional.executor import Executor
from repro.functional.trace import trace_from_bytes, trace_to_bytes
from repro.isa.assembler import assemble
from repro.isa.registers import reg_uid
from repro.timing.config import get_config
from repro.verify import differential_check, shrink_on_diff, shrink_program

# small SPMD kernel: scalar loop with muls plus a vector tail; exercises
# SU commit, VU issue, and (on CMT) lane-core issue streams
SRC = """
.program difftarget
.f64 x 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0
.space out 64
    tid s1
    ntid s2
    li s3, 4
    li s4, 0
loop:
    mul s5, s4, s3
    addi s5, s5, 1
    add s4, s4, s2
    blt s4, s3, loop
    barrier
    li s6, 8
    setvl s7, s6
    li s8, &x
    li s9, &out
    vld v1, 0(s8)
    vfadd.vv v2, v1, v1
    vst v2, 0(s9)
    halt
"""


def _prog():
    return assemble(SRC, name="difftarget")


def _drop_op(trace, i):
    """``trace`` with op ``i`` of thread 0 cut from its layout, as a
    corrupt cached entry could hold it: well formed, one op short.  The
    op must carry no sparse field (VL, outcome or addresses)."""
    op = trace.threads[0].ops[i]
    assert not (op.spec.is_vector or op.spec.is_branch or op.addrs is not None)
    with np.load(io.BytesIO(trace_to_bytes(trace)),
                 allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["t0.pcs"] = np.delete(arrays["t0.pcs"], i)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return trace_from_bytes(buf.getvalue())


def _with_row_read(trace, pc, uid):
    """``trace`` with the first read uid of pc ``pc``'s row in thread 0
    set to ``uid``: every op at that pc now reads it."""
    with np.load(io.BytesIO(trace_to_bytes(trace)),
                 allow_pickle=False) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    row = int(np.flatnonzero(arrays["t0.row_pcs"] == pc)[0])
    arrays["t0.row_r_flat"][arrays["t0.row_r_off"][row]] = uid
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return trace_from_bytes(buf.getvalue())


def _inject_dropped_mul_commits(monkeypatch):
    """Timing bug: the machine 'forgets' to commit every mul."""
    real = D._run_timing

    class _Filter:
        def __init__(self, inner):
            self.inner = inner

        def on_event(self, e):
            if e.kind == D.COMMIT and e.dynop.op == "mul":
                return
            self.inner.on_event(e)

    def buggy(cfg, trace, max_cycles, bus):
        filtered = D.EventBus()
        for sink in bus.sinks:
            filtered.attach(_Filter(sink))
        return real(cfg, trace, max_cycles, filtered)

    monkeypatch.setattr(D, "_run_timing", buggy)


class TestAgreement:
    @pytest.mark.parametrize("config,threads", [
        ("base", 1), ("V2-SMT", 2), ("V2-CMP", 2)])
    def test_healthy_run_agrees(self, config, threads):
        report = differential_check(_prog(), get_config(config),
                                    num_threads=threads)
        assert report.ok, report.render()
        assert report.ops_checked > 0 and report.cycles > 0
        assert "OK" in report.render()

    def test_lane_scalar_mode_agrees(self):
        # CMT places threads on lane cores (no vector code allowed there)
        src = SRC.replace(".program difftarget", ".program scalartarget")
        head, _, _ = src.partition("    barrier")
        report = differential_check(
            assemble(head + "    halt\n", name="scalartarget"),
            get_config("CMT"), num_threads=4)
        assert report.ok, report.render()

    def test_explicit_trace_override(self):
        prog = _prog()
        tut = Executor(prog, num_threads=1, record_trace=True).run()
        report = differential_check(prog, get_config("base"), trace=tut)
        assert report.ok, report.render()


class TestEngineUnderTest:
    """The checker generates the trace under test with the fast engine,
    whatever the trace memo already holds."""

    @staticmethod
    def _count_engines(monkeypatch):
        made = {"reference": 0, "fast": 0}
        for name, key in (("Executor", "reference"),
                          ("FastExecutor", "fast")):
            real = getattr(D, name)

            def spy(*args, _real=real, _key=key, **kwargs):
                made[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(D, name, spy)
        return made

    def test_engine_under_test_runs_despite_memo(self, monkeypatch):
        from repro.timing.run import trace_for
        prog = _prog()
        trace_for(prog, 1)   # memo holds a fast trace
        made = self._count_engines(monkeypatch)
        report = differential_check(prog, get_config("base"))
        assert report.ok, report.render()
        # the fast engine's trace under test and the state diff's
        # second execution, and the reference trace
        assert made == {"reference": 1, "fast": 2}


class TestInjectedBug:
    def test_dropped_commits_are_caught(self, monkeypatch):
        _inject_dropped_mul_commits(monkeypatch)
        report = differential_check(_prog(), get_config("base"))
        assert not report.ok
        assert all(m.kind == "commit" for m in report.mismatches)
        assert "mul" in report.mismatches[0].detail
        assert "mismatch" in report.render()

    def test_corrupt_trace_is_caught(self):
        prog = _prog()
        tut = _drop_op(Executor(prog, num_threads=1).run(), 3)
        report = differential_check(prog, get_config("base"), trace=tut)
        assert not report.ok
        assert any(m.kind == "trace" for m in report.mismatches)

    def test_changed_row_uid_names_its_ops(self):
        """One read uid changed in one pc's row is a trace mismatch at
        each op of that pc, and only there."""
        prog = _prog()
        ops = Executor(prog, num_threads=1).run().threads[0].ops
        mul = next(op for op in ops if op.op == "mul")
        tut = _with_row_read(Executor(prog, num_threads=1).run(), mul.pc,
                             reg_uid(("s", 9)))
        report = differential_check(prog, get_config("base"), trace=tut)
        assert not report.ok
        found = [m for m in report.mismatches if m.kind == "trace"]
        assert [m.index for m in found] == [
            i for i, op in enumerate(ops) if op.pc == mul.pc]
        assert len(found) == 4
        assert all(m.thread == 0 and f"mul@pc{mul.pc}" in m.detail
                   for m in found)

    def test_mismatch_list_is_capped(self, monkeypatch):
        _inject_dropped_mul_commits(monkeypatch)
        # many muls -> many dropped commits -> the report must stay bounded
        body = "\n".join(f"    mul s{4 + i % 3}, s3, s3"
                         for i in range(3 * D.MAX_MISMATCHES))
        src = f".program manymul\n    li s3, 7\n{body}\n    halt\n"
        report = differential_check(assemble(src, name="manymul"),
                                    get_config("base"))
        assert len(report.mismatches) == D.MAX_MISMATCHES
        assert report.truncated

    def test_runner_verify_hook_reports_nonretryable_failure(
            self, monkeypatch):
        from repro.harness.runner import (ExperimentRunner, RunSpec,
                                          _execute_spec)
        from repro.workloads import get_workload
        get_workload("trfd").program()   # pre-build outside the clock
        spec = RunSpec("trfd", "base", 1)
        payload = _execute_spec(spec, None, 50_000_000, verify=True)
        assert "result" in payload
        assert "differential_check" in payload["phases"]

        _inject_dropped_mul_commits(monkeypatch)
        payload = _execute_spec(spec, None, 50_000_000, verify=True)
        assert payload["error"]["type"] == "DifferentialMismatch"
        # deterministic failures must not burn retry attempts
        assert not ExperimentRunner._retryable(payload)


class TestShrinking:
    def test_shrink_requires_a_failing_program(self):
        with pytest.raises(ValueError, match="does not exhibit"):
            shrink_program(_prog(), lambda p: False)

    def test_shrink_with_synthetic_predicate(self):
        # "bug" = program still contains a mul; minimal repro is mul+halt
        res = shrink_program(
            _prog(), lambda p: any(i.op == "mul" for i in p.instrs))
        assert res.final_len <= 2
        assert any(i.op == "mul" for i in res.program.instrs)
        assert res.program.finalized
        assert "shrunk" in res.render()

    def test_shrink_preserves_branch_targets(self):
        # the loop must survive shrinking when the predicate needs it
        res = shrink_program(
            _prog(), lambda p: any(i.op == "blt" for i in p.instrs))
        blt = next(i for i in res.program.instrs if i.op == "blt")
        assert 0 <= blt.target < len(res.program.instrs)

    def test_injected_bug_shrinks_to_small_repro(self, monkeypatch):
        _inject_dropped_mul_commits(monkeypatch)
        prog = _prog()
        assert not differential_check(prog, get_config("base")).ok
        res = shrink_on_diff(prog, get_config("base"))
        assert res.final_len <= 20       # acceptance bar from the issue
        assert res.final_len < res.original_len
        assert any(i.op == "mul" for i in res.program.instrs)
        # the minimized program still fails the differential check
        tut = Executor(res.program, num_threads=1, record_trace=True).run()
        assert not differential_check(res.program, get_config("base"),
                                      trace=tut).ok
