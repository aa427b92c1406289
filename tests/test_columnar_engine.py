"""Columnar replay engine: bit-identity against the event-machine oracle.

The columnar engine (:mod:`repro.timing.columnar`) replays the flat
trace arrays with cycle-window batching and steady-state memoisation.
Its contract is exact equivalence: every :class:`RunResult` field equal
to the event machine's, across the full figure-3/5/6 run matrix, with
and without the steady-state skip, and with observability attached.
The two engines share the lane cores, so the matrix is also checked
against pinned goldens (:mod:`tests.goldens`).
"""

import pytest

from repro.harness import experiments as E
from repro.timing import ColumnarMachine, ENGINES, TimingMachine, simulate
from repro.timing.config import BASE, get_config
from repro.timing.machine import Machine, validate_engine
from repro.timing.run import simulate_traced, trace_for
from repro.verify import differential_check
from repro.workloads import get_workload
from tests import goldens

#: a short but steady-state-heavy workload: vector loop body plus a
#: tight scalar inner loop, enough iterations for the period-skip to arm
_PERIODIC = """
.space x 8192
li s5, 0
li s6, 25
rep:
li s1, 64
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfmul.vs v2, v1, f1
vfadd.vv v3, v2, v1
vst v3, 0(s3)
li s4, 0
inner:
addi s4, s4, 1
slti s7, s4, 12
bne s7, s0, inner
addi s5, s5, 1
blt s5, s6, rep
halt
"""


def _run_both(app, config, threads, scalar_only=False):
    prog = get_workload(app).program(scalar_only=scalar_only)
    cfg = get_config(config)
    trace = trace_for(prog, threads)
    r_ev = simulate(prog, cfg, num_threads=threads, trace=trace)
    r_col = simulate(prog, cfg, num_threads=threads, trace=trace,
                     engine="columnar")
    return r_ev, r_col


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("event", "columnar")

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown timing engine"):
            validate_engine("vectorised")

    def test_factory_picks_machine_class(self):
        prog = get_workload("trfd").program()
        trace = trace_for(prog, 1)
        threads = [t.ops for t in trace.threads]
        m_ev = TimingMachine(BASE, threads)
        m_col = TimingMachine(BASE, threads, engine="columnar")
        assert isinstance(m_ev, Machine)
        assert isinstance(m_col, ColumnarMachine)

    def test_simulate_rejects_unknown_engine(self):
        prog = get_workload("trfd").program()
        with pytest.raises(ValueError, match="unknown timing engine"):
            simulate(prog, BASE, engine="nope")


class TestFullMatrixIdentity:
    """The acceptance bar: the full fig3/5/6 matrix, field for field."""

    def test_full_matrix_bit_identity(self):
        """Both engines equal each other and ``runresults_golden.json``.

        Regenerate the golden (only for a change meant to move cycles)
        with ``PYTHONPATH=src python -m tests.goldens``.
        """
        specs = E.matrix_for(["fig3", "fig5", "fig6"])
        assert len(specs) >= 30
        mismatches = []
        ev, col = {}, {}
        for spec in specs:
            ev[spec], col[spec] = _run_both(spec.app, spec.config,
                                            spec.threads,
                                            scalar_only=spec.scalar_only)
            if ev[spec] != col[spec]:
                mismatches.append(str(spec))
        assert not mismatches, f"engines diverge on: {mismatches}"
        off = goldens.mismatches(ev) + goldens.mismatches(col)
        assert not off, f"moved off the golden: {off}"


class TestDifferentialCheck:
    """The committed-op stream check, run through the columnar engine."""

    @pytest.mark.parametrize("app,config,threads", [
        ("trfd", "base", 1),
        ("trfd", "V2-SMT", 2),       # SMT contexts share one SU
        ("multprec", "V4-CMT", 4),   # two SMT SUs
        ("ocean", "CMT", 4),         # no vector unit
    ])
    def test_columnar_commit_stream_matches_functional(self, app, config,
                                                       threads):
        prog = get_workload(app).program(
            scalar_only=config in ("CMT", "VLT-scalar"))
        report = differential_check(prog, get_config(config),
                                    num_threads=threads, engine="columnar")
        assert report.ok, report.render()


class TestSteadySkip:
    def test_skip_vs_noskip_identity(self):
        from repro.isa import assemble
        prog = assemble(_PERIODIC)
        trace = trace_for(prog, 1)
        threads = [t.ops for t in trace.threads]
        cols = [t.columns() for t in trace.threads]
        r_skip = ColumnarMachine(BASE, threads, columns=cols).run()
        r_noskip = ColumnarMachine(BASE, threads, columns=cols,
                                   steady_skip=False).run()
        r_ev = Machine(BASE, threads).run()
        assert r_skip == r_noskip == r_ev

    def test_skip_actually_fires_on_periodic_code(self):
        from repro.isa import assemble
        prog = assemble(_PERIODIC)
        trace = trace_for(prog, 1)
        cols = [t.columns() for t in trace.threads]
        m = ColumnarMachine(BASE, [t.ops for t in trace.threads],
                            columns=cols)
        jumps = []
        orig = m._ss_jump

        def spy(armed, C, k, deltas, live):
            jumps.append(k)
            return orig(armed, C, k, deltas, live)

        m._ss_jump = spy
        m.run()
        assert jumps and max(jumps) > 1


class TestObservability:
    """With an event bus attached the engines must emit identical
    streams (the columnar engine disables the steady-state skip but
    keeps window batching, which is event-invisible)."""

    @pytest.mark.parametrize("app,config,threads", [
        ("trfd", "base", 1),
        ("trfd", "V4-CMT", 4),
    ])
    def test_event_streams_identical(self, app, config, threads):
        prog = get_workload(app).program()
        cfg = get_config(config)
        trace = trace_for(prog, threads)
        tr_ev = simulate_traced(prog, cfg, num_threads=threads,
                                trace=trace, max_events=2_000_000)
        tr_col = simulate_traced(prog, cfg, num_threads=threads,
                                 trace=trace, max_events=2_000_000,
                                 engine="columnar")
        import dataclasses
        assert (dataclasses.replace(tr_ev.result, metrics=None)
                == dataclasses.replace(tr_col.result, metrics=None))
        assert (goldens.norm_events(tr_ev.events)
                == goldens.norm_events(tr_col.events))


class TestNpzColumns:
    def test_decoded_trace_drives_columnar_engine(self):
        from repro.functional.trace import trace_from_bytes, trace_to_bytes
        prog = get_workload("trfd").program()
        trace = trace_for(prog, 2)
        rt = trace_from_bytes(trace_to_bytes(trace))
        # decode attaches the columnar view: no re-encode needed
        assert all(t._cols is not None for t in rt.threads)
        cfg = get_config("V2-CMP")
        r_ev = simulate(prog, cfg, num_threads=2, trace=trace)
        r_col = simulate(prog, cfg, num_threads=2, trace=rt,
                         engine="columnar")
        assert r_ev == r_col
