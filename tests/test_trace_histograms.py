"""Trace histogram helpers and the CLI mix/verify verbs."""

import pytest

from repro.functional import Executor, FastExecutor, ThreadTrace
from repro.functional.trace import trace_from_bytes, trace_to_bytes
from repro.isa import assemble
from repro.workloads import get_workload


def _trace(src, nt=1):
    return Executor(assemble(src), num_threads=nt).run()


class TestHistograms:
    SRC = """
    li s1, 8
    setvl s2, s1
    vadd.vv v1, v2, v3
    vadd.vv v4, v5, v6
    add s3, s1, s1
    halt
    """

    def test_opcode_histogram(self):
        t = _trace(self.SRC)
        hist = t.threads[0].opcode_histogram()
        assert hist["vadd.vv"] == 2
        assert hist["li"] == 1
        assert hist["halt"] == 1

    def test_pool_histogram(self):
        t = _trace(self.SRC)
        hist = t.threads[0].pool_histogram()
        assert hist["varith"] == 2
        assert hist["arith"] == 3  # li, setvl, add

    def test_merged_across_threads(self):
        t = _trace("tid s1\nadd s2, s1, s1\nbarrier\nhalt", nt=4)
        hist = t.merged_opcode_histogram()
        assert hist["add"] == 4
        assert hist["barrier"] == 4


def _summaries(t):
    return (t.counts(), t.vector_lengths().tolist(), t.opcode_histogram(),
            t.pool_histogram())


class TestColumnarSummaries:
    """A columnar trace summarises itself from its columns: the values
    equal the DynOp-based ones, and no DynOp is built."""

    @pytest.mark.parametrize("app,scalar_only,threads", [
        ("mpenc", False, 4), ("radix", True, 8)])
    def test_match_dynop_values(self, app, scalar_only, threads):
        prog = get_workload(app).program(scalar_only=scalar_only)
        trace = FastExecutor(prog, num_threads=threads).run()
        # DynOp-only copies of the same threads (no columns attached)
        copies = [ThreadTrace(t.tid, t.ops) for t in
                  trace_from_bytes(trace_to_bytes(trace)).threads]
        for t, ops_only in zip(trace.threads, copies):
            assert ops_only._cols is None
            assert _summaries(t) == _summaries(ops_only)
            assert list(t.opcode_histogram()) == \
                list(ops_only.opcode_histogram())
        assert trace.merged_counts()["total"] == trace.total_ops() == \
            sum(len(c) for c in copies)
        assert all(t._ops is None for t in trace.threads)


class TestCliVerbs:
    def test_mix_verb(self, capsys):
        from repro.harness.cli import main
        assert main(["mix", "--apps", "trfd"]) == 0
        out = capsys.readouterr().out
        assert "dynamic instructions" in out
        assert "setvl" in out

    def test_verify_verb(self, capsys):
        from repro.harness.cli import main
        assert main(["verify", "--apps", "sage"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "sage" in out

    def test_run_verb(self, capsys):
        from repro.harness.cli import main
        assert main(["run", "trfd", "--config", "V2-CMP",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "V2-CMP" in out

    def test_run_verb_scalar_only(self, capsys):
        from repro.harness.cli import main
        assert main(["run", "ocean", "--config", "VLT-scalar",
                     "--threads", "8", "--scalar-only"]) == 0
        out = capsys.readouterr().out
        assert "VLT-scalar" in out
