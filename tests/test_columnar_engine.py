"""The timing engine driven by columnar (npz-decoded) traces.

A trace decoded from the npz cache format carries only its parallel
arrays; the DynOp list the engine replays is materialised from them on
first access.  Its contract is exact equivalence with the executor's
own DynOps: every :class:`RunResult` field equal, across the full
figure-3/5/6 run matrix, checked against the pinned goldens
(:mod:`tests.goldens`), which were recorded from in-memory traces.
"""

import itertools

from repro.functional.trace import trace_from_bytes, trace_to_bytes
from repro.harness import experiments as E
from repro.timing import simulate
from repro.timing.config import get_config
from repro.timing.run import trace_for
from repro.workloads import get_workload
from tests import goldens


def _trace_key(spec):
    return spec.app, spec.scalar_only, spec.threads


def _decoded(app, scalar_only, threads):
    prog = get_workload(app).program(scalar_only=scalar_only)
    trace = trace_for(prog, threads)
    return prog, trace, trace_from_bytes(trace_to_bytes(trace))


class TestFullMatrixIdentity:
    """The acceptance bar: the full fig3/5/6 matrix, field for field."""

    def test_full_matrix_bit_identity(self):
        """Decoded-trace replays equal ``runresults_golden.json``.

        Each distinct trace is decoded once and replayed on every
        configuration that uses it.  Regenerate the golden (only for a
        change meant to move cycles) with
        ``PYTHONPATH=src python -m tests.goldens``.
        """
        specs = E.matrix_for(["fig3", "fig5", "fig6"])
        assert len(specs) >= 30
        results = {}
        for key, group in itertools.groupby(sorted(specs, key=_trace_key),
                                            key=_trace_key):
            prog, _, decoded = _decoded(*key)
            assert all(t._ops is None for t in decoded.threads)
            for spec in group:
                results[spec] = simulate(prog, get_config(spec.config),
                                         num_threads=spec.threads,
                                         trace=decoded)
        assert set(results) == set(specs)
        off = goldens.mismatches(results)
        assert not off, f"moved off the golden: {off}"


class TestNpzColumns:
    def test_decoded_trace_drives_columnar_engine(self):
        prog, trace, rt = _decoded("trfd", False, 2)
        # decode attaches the columnar view; DynOps wait for the engine
        assert all(t._cols is not None and t._ops is None
                   for t in rt.threads)
        cfg = get_config("V2-CMP")
        r_direct = simulate(prog, cfg, num_threads=2, trace=trace)
        r_decoded = simulate(prog, cfg, num_threads=2, trace=rt)
        assert r_decoded == r_direct
        assert all(len(t.ops) == len(d.ops)
                   for t, d in zip(trace.threads, rt.threads))
