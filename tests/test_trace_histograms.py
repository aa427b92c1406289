"""Trace histogram helpers and the CLI mix/verify verbs."""

import pytest

from repro.functional import Executor, FastExecutor
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


def _recount(ops):
    """:func:`_summaries` counted one DynOp at a time."""
    vector = [o for o in ops if o.spec.is_vector]
    counts = {"total": len(ops), "scalar": len(ops) - len(vector),
              "vector": len(vector),
              "element_ops": sum(o.vl for o in vector)}
    hist, pools = {}, {}
    for o in ops:
        hist[o.op] = hist.get(o.op, 0) + 1
        pools[o.spec.pool] = pools.get(o.spec.pool, 0) + 1
    return counts, [o.vl for o in vector], hist, pools


class TestColumnarSummaries:
    """A trace summarises itself from its columns: the values equal
    those counted over its DynOps, and no DynOp is built."""

    @pytest.mark.parametrize("app,scalar_only,threads", [
        ("mpenc", False, 4), ("radix", True, 8)])
    def test_match_dynop_values(self, app, scalar_only, threads):
        prog = get_workload(app).program(scalar_only=scalar_only)
        trace = FastExecutor(prog, num_threads=threads).run()
        summaries = [_summaries(t) for t in trace.threads]
        total = trace.total_ops()
        assert trace.merged_counts()["total"] == total
        assert all(t._ops is None for t in trace.threads)
        for t, summary in zip(trace.threads, summaries):
            recount = _recount(t.ops)
            assert summary == recount
            # the histogram keeps the order of first appearance
            assert list(summary[2]) == list(recount[2])
        assert total == sum(len(t.ops) for t in trace.threads)


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
