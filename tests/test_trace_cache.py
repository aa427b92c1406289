"""Content-keyed trace memoisation and the on-disk cache."""

import gc

import pytest

from repro.functional import TraceCache
from repro.functional.trace_cache import result_key
from repro.isa import assemble
from repro.obs.hostprof import PhaseProfiler
from repro.timing import clear_trace_cache, simulate, trace_for
from repro.timing.config import BASE
from repro.timing.run import (get_trace_cache, set_trace_cache_dir)

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
