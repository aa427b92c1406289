"""The timing engine driven by columnar (npz-decoded) traces.

A trace decoded from the npz cache format carries only its layout
arrays (one row per pc, each op's pc, the sparse dynamic fields),
checked at load.  The timing units replay that form directly; DynOps
are built only when a tool asks for them.  Its contract is exact
equivalence with the executor's own DynOps: every
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
from repro.isa.registers import MVL, NUM_REG_UIDS
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
    t0 = {name[3:]: a for name, a in arrays.items()
          if name.startswith("t0.")}
    edit(t0)
    arrays.update((f"t0.{name}", a) for name, a in t0.items())
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _pc_without_a_row(cols) -> None:
    """Point op 0 (a ``vltcfg``, which carries no sparse field) at a pc
    past the last row."""
    cols["pcs"][0] = cols["row_pcs"][-1] + 1


def _resize(name, delta):
    """An edit that drops (``delta < 0``) or repeats the last entries
    of sparse column ``name``."""
    def edit(cols):
        a = cols[name]
        cols[name] = a[:delta] if delta < 0 else np.append(a, a[-delta:])
    return edit


def _two_addresses(cols) -> None:
    """Give the first memory op with one address (in trfd a scalar
    load) two; the counts still tile the addresses."""
    counts, addrs = cols["addr_counts"], cols["addrs"]
    k = int(np.flatnonzero(counts == 1)[0])
    start = int(counts[:k].sum())
    counts[k] = 2
    cols["addrs"] = np.insert(addrs, start, addrs[start])


#: one doctored thread-0 layout per loader check, and the error it gives
LAYOUT_EDITS = {
    "pc": (lambda c: c["pcs"].__setitem__(-1, MAX_PC), "out of range"),
    "uid": (lambda c: c["row_w_flat"].__setitem__(0, NUM_REG_UIDS),
            "out of range"),
    "offsets": (lambda c: c["row_r_off"].__setitem__(-1, 0), "do not tile"),
    "outcome": (lambda c: c["takens"].__setitem__(0, 2), "branch outcome"),
    "no-row": (_pc_without_a_row, "has no row"),
    "op-id": (lambda c: c["row_ops"].__setitem__(0, 10_000),
              "out of range"),
    "vl": (lambda c: c["vls"].__setitem__(0, MVL + 1), "vector length"),
    "fewer-vls": (_resize("vls", -1), "entries for"),
    "more-takens": (_resize("takens", 1), "entries for"),
    "fewer-addr-counts": (_resize("addr_counts", -1), "entries for"),
    "address-counts": (lambda c: c["addr_counts"].__setitem__(0, 5),
                       "do not tile"),
    "scalar-address": (_two_addresses, "exactly one address"),
}


class TestReplayForm:
    SPEC = RunSpec("trfd", "V2-CMP", 2)

    def _prog(self):
        return get_workload(self.SPEC.app).program()

    @pytest.mark.parametrize("edit,match", list(LAYOUT_EDITS.values()),
                             ids=list(LAYOUT_EDITS))
    def test_malformed_columns_are_rejected(self, edit, match, tmp_path):
        """Each loader check rejects one doctored entry, and the cache
        counts that entry as a miss."""
        prog = self._prog()
        threads = self.SPEC.threads
        blob = trace_to_bytes(trace_for(prog, threads))
        trace_from_bytes(blob)   # the intact entry decodes
        bad = _rewrite(blob, edit)
        with pytest.raises(TraceInvariantError, match=match):
            trace_from_bytes(bad)
        cache = TraceCache(tmp_path)
        path = cache.trace_path(prog.digest(), threads)
        path.parent.mkdir(parents=True)
        path.write_bytes(bad)
        assert cache.load_trace(prog.digest(), threads) is None
        assert (cache.trace_hits, cache.trace_misses) == (0, 1)

    def test_corrupt_cache_entry_is_a_miss_and_regenerated(self, tmp_path):
        prog = self._prog()
        threads = self.SPEC.threads
        good = trace_to_bytes(trace_for(prog, threads))
        clear_trace_cache()
        cache = TraceCache(tmp_path)
        path = cache.trace_path(prog.digest(), threads)
        path.parent.mkdir(parents=True)
        path.write_bytes(_rewrite(good, _pc_without_a_row))
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
        ops = [op for op in replay.ops if op.spec.pool == "vmem"]
        assert len(ops) == 4
        for line in (8, 64, 4096):
            expect = [np.unique(replay.vaddrs(k) // line).tolist()
                      for k in range(len(ops))]
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
