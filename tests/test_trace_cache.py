"""Content-keyed trace memoisation and the on-disk cache."""

import gc
import json

import numpy as np
import pytest

import repro.functional.trace_cache as trace_cache
from repro.functional import (TRACE_FORMAT_VERSION, ProgramTrace, TraceCache,
                              trace_to_bytes)
from repro.functional.trace_cache import result_key
from repro.isa import assemble
from repro.obs.hostprof import PhaseProfiler
from repro.timing import clear_trace_cache, simulate, trace_for
from repro.timing.config import BASE, V2_CMP
from repro.timing.run import (get_trace_cache, set_trace_cache_dir)
from repro.workloads import get_workload

_SRC_A = """
.space x 512
li s1, 8
setvl s2, s1
li s3, &x
vld v1, 0(s3)
vfadd.vv v2, v1, v1
vst v2, 0(s3)
halt
"""

_SRC_B = _SRC_A.replace("vfadd.vv", "vfmul.vv")

#: two threads with every sparse field: VLs, branch outcomes, a ``jr``
#: target and scalar and vector addresses
_SRC_FLIP = """
.space x 512
tid s5
li s1, 4
setvl s2, s1
li s3, &x
vld v1, 0(s3)
ld s4, 8(s3)
jal s6, sub
blt s5, s1, done
done:
halt
sub:
jr s6
"""


@pytest.fixture(autouse=True)
def _no_disk_cache():
    """These tests manage the disk cache explicitly."""
    set_trace_cache_dir(None)
    yield
    set_trace_cache_dir(None)


class TestContentKeyedMemo:
    def test_equal_content_shares_one_trace(self):
        t1 = trace_for(assemble(_SRC_A), 1)
        t2 = trace_for(assemble(_SRC_A), 1)
        assert t1 is t2

    def test_different_content_distinct_traces(self):
        assert trace_for(assemble(_SRC_A), 1) is not \
            trace_for(assemble(_SRC_B), 1)

    def test_build_drop_rebuild_no_aliasing(self):
        """Regression for the id(program) memo key: dropping a program
        and building a *different* one (whose id may be reused) must not
        serve the old program's trace."""
        histograms = []
        for src in (_SRC_A, _SRC_B, _SRC_A, _SRC_B):
            prog = assemble(src)
            trace = trace_for(prog, 1)
            histograms.append(trace.merged_opcode_histogram())
            del prog, trace
            gc.collect()   # maximise id reuse under the old scheme
        assert histograms[0] == histograms[2]
        assert histograms[1] == histograms[3]
        assert "vfadd.vv" in histograms[0]
        assert "vfadd.vv" not in histograms[1]
        assert "vfmul.vv" in histograms[1]

    def test_thread_count_part_of_key(self):
        prog = assemble(_SRC_A + "\n")   # identical content, new object
        assert trace_for(prog, 1) is not trace_for(prog, 2)


class TestDiskCache:
    def test_cold_store_warm_load(self, tmp_path):
        cache = set_trace_cache_dir(tmp_path)
        prof = PhaseProfiler()
        trace_for(assemble(_SRC_A), 1, profiler=prof)
        assert cache.trace_stores == 1
        assert prof.phases["trace_generation"].calls == 1

        # a fresh process is simulated by dropping the in-process memo
        clear_trace_cache()
        prof2 = PhaseProfiler()
        trace = trace_for(assemble(_SRC_A), 1, profiler=prof2)
        assert cache.trace_hits == 1
        assert "trace_generation" not in prof2.phases
        assert prof2.phases["trace_cache_load"].calls == 1
        assert trace.merged_opcode_histogram()["vfadd.vv"] > 0

    def test_disk_trace_replays_identically(self, tmp_path):
        set_trace_cache_dir(tmp_path)
        prog = assemble(_SRC_A)
        cold = simulate(prog, BASE).cycles
        clear_trace_cache()
        warm = simulate(assemble(_SRC_A), BASE).cycles
        assert cold == warm

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = set_trace_cache_dir(tmp_path)
        prog = assemble(_SRC_A)
        trace_for(prog, 1)
        path = cache.trace_path(prog.digest(), 1)
        path.write_bytes(b"not an npz file")
        clear_trace_cache()
        trace = trace_for(assemble(_SRC_A), 1)
        assert cache.trace_misses >= 1
        assert trace.total_ops() > 0
        # the regenerated trace was re-stored over the corrupt entry
        assert cache.trace_stores == 2

    def test_entry_missing_a_thread_is_a_miss(self, tmp_path):
        """An entry whose manifest lists fewer threads than its
        ``num_threads`` must not replay as a smaller machine load."""
        prog = get_workload("mpenc").program()
        fresh = simulate(prog, V2_CMP, num_threads=2)
        cache = set_trace_cache_dir(tmp_path)
        full = trace_for(prog, 2)
        cache.store_trace(prog.digest(), 2, ProgramTrace(
            full.program_name, full.num_threads, full.threads[:1]))
        clear_trace_cache()
        assert simulate(prog, V2_CMP, num_threads=2) == fresh
        assert cache.trace_misses == 1
        assert cache.trace_hits == 0

    def test_failed_store_leaves_no_file(self, tmp_path, monkeypatch):
        """A writer that fails part-way removes its temp file and
        leaves no entry; the streamed store writes the encoded bytes."""
        def failing_writer(trace, fh):
            fh.write(b"PK\x03\x04 a partial archive")
            raise OSError("disk full")

        cache = TraceCache(tmp_path)
        prog = assemble(_SRC_A)
        trace = trace_for(prog, 2)
        monkeypatch.setattr(trace_cache, "write_trace", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            cache.store_trace(prog.digest(), 2, trace)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert cache.trace_stores == 0
        assert cache.load_trace(prog.digest(), 2) is None
        monkeypatch.undo()
        path = cache.store_trace(prog.digest(), 2, trace)
        assert path.read_bytes() == trace_to_bytes(trace)

    def test_stored_trace_size(self, tmp_path):
        """A stored mpenc/4 trace takes at most 16 B per op plus 8 B per
        address."""
        prog = get_workload("mpenc").program()
        trace = trace_for(prog, 4)
        path = TraceCache(tmp_path).store_trace(prog.digest(), 4, trace)
        addrs = sum(t.columns()["addrs"].size for t in trace.threads)
        assert path.stat().st_size <= 16 * trace.total_ops() + 8 * addrs

    def test_version_1_entry_is_replaced(self, tmp_path):
        """An entry of the previous layout version is a miss, and the
        regenerated trace is stored over it."""
        prog = assemble(_SRC_A)
        cache = TraceCache(tmp_path)
        path = cache.store_trace(prog.digest(), 2, trace_for(prog, 2))
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        manifest = json.loads(bytes(arrays["manifest"]))
        manifest["version"] = 1
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(),
                                           dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert cache.load_trace(prog.digest(), 2) is None
        assert cache.trace_misses == 1
        clear_trace_cache()
        cache = set_trace_cache_dir(tmp_path)
        trace = trace_for(assemble(_SRC_A), 2)
        assert (cache.trace_misses, cache.trace_stores) == (1, 1)
        with np.load(path, allow_pickle=False) as npz:
            manifest = json.loads(bytes(npz["manifest"]))
        assert manifest["version"] == TRACE_FORMAT_VERSION == 2
        assert path.read_bytes() == trace_to_bytes(trace)

    def test_every_flipped_byte_is_a_miss_or_the_same_trace(self, tmp_path):
        """Flip each byte of a stored two-thread trace in turn: each
        load is a miss or re-encodes to the stored bytes, never a
        different trace."""
        prog = assemble(_SRC_FLIP)
        good = trace_to_bytes(trace_for(prog, 2))
        cache = TraceCache(tmp_path)
        path = cache.trace_path(prog.digest(), 2)
        path.parent.mkdir(parents=True)
        for k in range(len(good)):
            bad = bytearray(good)
            bad[k] ^= 0xFF
            path.write_bytes(bad)
            trace = cache.load_trace(prog.digest(), 2)
            if trace is not None:
                assert trace_to_bytes(trace) == good, f"byte {k}"
        assert cache.trace_hits + cache.trace_misses == len(good)

    def test_result_cache_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path)
        prog = assemble(_SRC_A)
        result = simulate(prog, BASE)
        key = result_key(prog.digest(), BASE.digest(), 1, 50_000_000)
        cache.store_result(key, result)
        loaded = cache.load_result(key)
        assert loaded.cycles == result.cycles
        assert cache.load_result("0" * 64) is None
        assert cache.result_misses == 1

    def test_orphan_tmp_files_counted_and_swept(self, tmp_path):
        # a writer killed mid-`_atomic_write` leaves `<name>.tmpXXXX`
        # behind; the census must not count it as an entry, and the
        # sweep must remove stale ones while sparing fresh ones
        import os
        import time
        cache = TraceCache(tmp_path)
        prog = assemble(_SRC_A)
        cache.store_trace(prog.digest(), 1, trace_for(prog, 1))
        tdir = tmp_path / "traces" / prog.digest()[:2]
        stale = tdir / "deadbeef.trace.npz.tmpk3j2"
        stale.write_bytes(b"partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = tmp_path / "results" / "aa" / "bb.result.pkl.tmpq8x1"
        fresh.parent.mkdir(parents=True)
        fresh.write_bytes(b"in flight")

        s = cache.stats()
        assert s["traces"]["entries"] == 1          # tmp is not an entry
        assert s["traces"]["orphan_tmp_files"] == 1
        assert s["results"]["orphan_tmp_files"] == 1

        assert cache.sweep_orphans(min_age_s=3600) == 1
        assert not stale.exists()
        assert fresh.exists()                       # may be a live writer
        assert cache.stats()["traces"]["orphan_tmp_files"] == 0

    def test_stats_and_clear(self, tmp_path):
        cache = set_trace_cache_dir(tmp_path)
        trace_for(assemble(_SRC_A), 1)
        trace_for(assemble(_SRC_B), 1)
        s = cache.stats()
        assert s["traces"]["entries"] == 2
        assert s["traces"]["bytes"] > 0
        assert s["counters"]["trace_stores"] == 2
        assert cache.clear() == 2
        assert cache.stats()["traces"]["entries"] == 0


class TestLazySweep:
    def test_init_does_no_sweep_io(self, tmp_path):
        """Opening a cache must not walk/mutate the tree: pool workers
        would otherwise each re-sweep a huge shared cache on startup."""
        import os
        import time
        first = TraceCache(tmp_path)
        prog = assemble(_SRC_A)
        first.store_trace(prog.digest(), 1, trace_for(prog, 1))
        stale = tmp_path / "traces" / "aa" / "dead.trace.npz.tmpzz"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(b"partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))

        TraceCache(tmp_path)                      # default: lazy
        assert stale.exists()                     # no sweep I/O happened

        TraceCache(tmp_path, sweep_on_init=True)  # CLI entry points
        assert not stale.exists()

    def test_cli_cache_dir_keeps_startup_sweep(self, tmp_path):
        """`set_trace_cache_dir(..., sweep=True)` is the CLI's historic
        behaviour; the default stays lazy for embedded users."""
        import os
        import time
        stale = tmp_path / "results" / "aa" / "x.result.pkl.tmpq1"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        set_trace_cache_dir(tmp_path)             # embedded: lazy
        assert stale.exists()
        set_trace_cache_dir(tmp_path, sweep=True)
        assert not stale.exists()


class TestDefaultProfiler:
    def test_fallback_profiler_counts_unprofiled_calls(self):
        from repro.timing.run import set_default_profiler
        prof = PhaseProfiler()
        set_default_profiler(prof)
        try:
            simulate(assemble(_SRC_A), BASE)   # no profiler argument
        finally:
            set_default_profiler(None)
        assert prof.phases["trace_generation"].calls == 1
        assert prof.phases["replay"].calls == 1
