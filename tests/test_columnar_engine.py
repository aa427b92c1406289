"""The timing engine driven by columnar (npz-decoded) traces.

A trace decoded from the npz cache format carries only its parallel
arrays, decoded once per pc with a check.  The timing units replay that
form directly; DynOps are built only when a tool asks for them.  Its
contract is exact equivalence with the executor's own DynOps: every
:class:`RunResult` field equal, across the full figure-3/5/6 run
matrix, checked against the pinned goldens (:mod:`tests.goldens`).
"""

import io
import itertools

import numpy as np
import pytest

from repro.functional import Executor
from repro.functional.trace import (MAX_PC, TraceInvariantError,
                                    trace_from_bytes, trace_to_bytes)
from repro.functional.trace_cache import TraceCache
from repro.harness import experiments as E
from repro.harness.runner import RunSpec
from repro.isa import ProgramBuilder, S, V
from repro.isa.registers import NUM_REG_UIDS
from repro.timing import simulate
from repro.timing.config import get_config
from repro.timing.run import (clear_trace_cache, get_trace_cache,
                              set_trace_cache_dir, trace_for)
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
            # untraced replays read the replay form: no DynOp was built
            assert all(t._ops is None for t in decoded.threads)
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


def _rewrite(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit(arrays)`` applied to thread 0's columns."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    edit({name[3:]: a for name, a in arrays.items()
          if name.startswith("t0.")})
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _break_repeated_pc(cols) -> None:
    """Alter one read uid at the last op of a pc that repeats: still well
    formed, but no longer constant per pc."""
    pcs, r_off, r_flat = cols["pcs"], cols["r_off"], cols["r_flat"]
    repeats = np.bincount(pcs)[pcs] > 1
    i = max(i for i in range(pcs.size)
            if repeats[i] and r_off[i + 1] > r_off[i])
    r_flat[r_off[i]] = (r_flat[r_off[i]] + 1) % NUM_REG_UIDS


class TestReplayForm:
    SPEC = RunSpec("trfd", "V2-CMP", 2)

    def _prog(self):
        return get_workload(self.SPEC.app).program()

    def test_op_varying_within_a_pc_is_rejected(self):
        blob = trace_to_bytes(trace_for(self._prog(), self.SPEC.threads))
        trace_from_bytes(blob)   # the intact entry decodes
        with pytest.raises(TraceInvariantError, match="reads differ"):
            trace_from_bytes(_rewrite(blob, _break_repeated_pc))

    @pytest.mark.parametrize("edit,match", [
        (lambda c: c["pcs"].__setitem__(-1, MAX_PC), "out of range"),
        (lambda c: c["w_flat"].__setitem__(0, NUM_REG_UIDS), "out of range"),
        (lambda c: c["r_off"].__setitem__(-1, 0), "do not tile"),
        (lambda c: c["takens"].__setitem__(0, 2), "branch outcome"),
    ], ids=["pc", "uid", "offsets", "outcome"])
    def test_malformed_columns_are_rejected(self, edit, match):
        blob = trace_to_bytes(trace_for(self._prog(), self.SPEC.threads))
        with pytest.raises(TraceInvariantError, match=match):
            trace_from_bytes(_rewrite(blob, edit))

    def test_corrupt_cache_entry_is_a_miss_and_regenerated(self, tmp_path):
        prog = self._prog()
        threads = self.SPEC.threads
        good = trace_to_bytes(trace_for(prog, threads))
        clear_trace_cache()
        cache = TraceCache(tmp_path)
        path = cache.trace_path(prog.digest(), threads)
        path.parent.mkdir(parents=True)
        path.write_bytes(_rewrite(good, _break_repeated_pc))
        assert cache.load_trace(prog.digest(), threads) is None
        assert cache.trace_misses == 1
        set_trace_cache_dir(tmp_path)
        try:
            result = simulate(prog, get_config(self.SPEC.config),
                              num_threads=threads)
            counters = get_trace_cache().counters()
        finally:
            set_trace_cache_dir(None)
        assert counters["trace_misses"] == 1
        assert counters["trace_stores"] == 1
        assert path.read_bytes() == good
        assert not goldens.mismatches({self.SPEC: result})

    def test_vector_lines_match_per_op_unique(self):
        """The per-trace line table equals ``np.unique`` of each vector
        memory op's addresses, the per-access computation it replaced,
        for unit-stride, strided, indexed and masked accesses."""
        b = ProgramBuilder("lines", memory_kib=64)
        b.data_i64("x", np.arange(512, dtype=np.int64))
        b.data_i64("idx", np.array([40, 0, 8, 200, 8, 4000, 64, 3],
                                   dtype=np.int64) * 8)
        b.op("li", S(1), 8)
        b.op("setvl", S(2), S(1))
        b.la(S(3), "x")
        b.la(S(4), "idx")
        b.op("vld", V(2), (0, S(4)))                 # unit stride
        b.op("li", S(5), 520)
        b.op("vlds", V(1), (8, S(3)), S(5))          # strided
        b.op("vldx", V(3), (0, S(3)), V(2))          # unordered, repeats
        b.op("li", S(6), 400)
        b.op("vslt.vs", V(2), S(6))
        b.op("vst", V(3), (56, S(3)), masked=True)   # inactive gaps
        b.op("halt")
        replay = trace_for(b.build(), 1).threads[0].replay()
        ops = [i for i, op in enumerate(replay.ops)
               if op.spec.pool == "vmem"]
        assert len(ops) == 4
        for line in (8, 64, 4096):
            expect = [np.unique(replay.vaddrs(i) // line).tolist()
                      for i in ops]
            assert [list(x) for x in replay.vlines(line)] == expect
        assert any(isinstance(x, tuple) and len(x) > 1
                   for x in replay.vlines(64))

    @pytest.mark.parametrize("spec", [
        RunSpec("trfd", "V2-CMP", 2),                      # scalar units
        RunSpec("ocean", "VLT-scalar", 8, scalar_only=True),  # lane cores
    ], ids=str)
    def test_reference_engine_matches_default(self, spec):
        prog = get_workload(spec.app).program(scalar_only=spec.scalar_only)
        cfg = get_config(spec.config)
        default = simulate(prog, cfg, num_threads=spec.threads)
        oracle = Executor(prog, num_threads=spec.threads).run()
        reference = simulate(prog, cfg, num_threads=spec.threads,
                             trace=oracle)
        assert reference == default
        assert not goldens.mismatches({spec: default})
