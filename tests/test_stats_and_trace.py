"""RunResult/utilization stats and functional trace records."""

import numpy as np
import pytest

from repro.functional import Executor
from repro.functional.trace import ProgramTrace, ThreadTrace
from repro.isa.opcodes import spec
from repro.timing.stats import DatapathUtilization, RunResult
from repro.workloads import get_workload


class TestDatapathUtilization:
    def test_total_and_fractions(self):
        u = DatapathUtilization(busy=10, partly_idle=5, stalled=25,
                                all_idle=60)
        assert u.total == 100
        f = u.fractions()
        assert f["busy"] == pytest.approx(0.10)
        assert sum(f.values()) == pytest.approx(1.0)

    def test_empty_fractions_explicit(self):
        # an empty run has no denominator: the honest answer is "no
        # fractions", not a row of zeros that sums to 0 instead of 1
        assert DatapathUtilization().fractions() == {}

    def test_nonempty_fractions_sum_to_one(self):
        u = DatapathUtilization(busy=1)
        f = u.fractions()
        assert sum(f.values()) == pytest.approx(1.0)
        assert set(f) == {"busy", "partly_idle", "stalled", "all_idle"}

    def test_merged(self):
        a = DatapathUtilization(busy=1, partly_idle=2, stalled=3, all_idle=4)
        b = DatapathUtilization(busy=10, partly_idle=20, stalled=30,
                                all_idle=40)
        m = a.merged(b)
        assert (m.busy, m.partly_idle, m.stalled, m.all_idle) == \
            (11, 22, 33, 44)

    def test_merged_empty_is_identity(self):
        a = DatapathUtilization(busy=1, partly_idle=2, stalled=3, all_idle=4)
        empty = DatapathUtilization()
        assert a.merged(empty) == a
        assert empty.merged(a) == a
        assert empty.merged(empty).total == 0
        assert empty.merged(empty).fractions() == {}


class TestRunResultPhases:
    def _rr(self, cycles, releases):
        return RunResult(config_name="c", program_name="p", num_threads=1,
                         cycles=cycles, phase_release_cycles=releases)

    def test_no_barriers_single_phase(self):
        assert self._rr(100, []).phase_durations() == [100]

    def test_phases_partition_cycles(self):
        durs = self._rr(100, [30, 70]).phase_durations()
        assert durs == [30, 40, 30]
        assert sum(durs) == 100

    def test_trailing_barrier(self):
        assert self._rr(50, [50]).phase_durations() == [50, 0]


def _thread(tid, *ops):
    """A trace of ``ops``, (mnemonic, vl) pairs at pcs 0, 1, ...; none
    of them is a branch or a memory op, and none reads or writes a
    register."""
    n = len(ops)
    table = list(dict.fromkeys(op for op, _ in ops))
    none = np.full(n, -1, dtype=np.int64)
    no_offsets = np.zeros(n + 1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    cols = {
        "row_pcs": np.arange(n, dtype=np.int64),
        "row_ops": np.array([table.index(op) for op, _ in ops],
                            dtype=np.int64),
        "row_imms": none, "row_tgts": none,
        "row_has_addrs": np.zeros(n, dtype=np.int8),
        "row_r_off": no_offsets, "row_r_flat": empty,
        "row_w_off": no_offsets, "row_w_flat": empty,
        "pcs": np.arange(n, dtype=np.int32),
        "vls": np.array([vl for op, vl in ops if spec(op).is_vector],
                        dtype=np.int16),
        "takens": np.zeros(0, dtype=np.int8),
        "jr_tgts": np.zeros(0, dtype=np.int32),
        "addr_counts": np.zeros(0, dtype=np.int16), "addrs": empty,
    }
    return ThreadTrace(tid, cols, table)


class TestThreadTrace:
    def test_counts(self):
        t = _thread(0, ("add", 0), ("vadd.vv", 8), ("vfmul.vs", 16))
        c = t.counts()
        assert c == {"total": 3, "scalar": 1, "vector": 2,
                     "element_ops": 24}

    def test_vector_lengths(self):
        t = _thread(0, ("vadd.vv", 5), ("add", 0), ("vadd.vv", 7))
        assert t.vector_lengths().tolist() == [5, 7]

    def test_len(self):
        assert len(_thread(0)) == 0
        assert len(_thread(0, ("nop", 0))) == 1

    def test_reference_executor_records_columns(self):
        """The oracle records columns, as the fast engine does: its run
        builds no DynOp, and a trace cannot be appended to."""
        prog = get_workload("mpenc").program()
        trace = Executor(prog, num_threads=4).run()
        assert len(trace.threads) == 4
        assert all(t._ops is None for t in trace.threads)
        assert not hasattr(ThreadTrace, "append")


class TestProgramTrace:
    def test_merged_counts(self):
        p = ProgramTrace("prog", 2, [_thread(0, ("add", 0)),
                                     _thread(1, ("vadd.vv", 4))])
        assert p.total_ops() == 2
        m = p.merged_counts()
        assert m["scalar"] == 1 and m["vector"] == 1
        assert m["element_ops"] == 4
