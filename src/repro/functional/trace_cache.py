"""Content-addressed on-disk cache for functional traces and run results.

Functional traces are deterministic for a given ``(program, num_threads)``
pair, and :meth:`repro.isa.program.Program.digest` gives a stable content
identity for a program -- together they make traces cacheable *across
processes and invocations*: the parallel experiment runner's workers
share one cache directory, and a warm ``vlt-repro all`` rerun replays
every machine configuration with zero trace regenerations.

Layout (everything under one user-chosen root)::

    <root>/traces/<d2>/<digest>-t<threads>.trace.npz   columnar DynOp
                                                       arrays (see
                                                       repro.functional
                                                       .trace)
    <root>/results/<d2>/<key>.result.pkl               pickled RunResult
                                                       keyed by
                                                       (program digest,
                                                       config digest,
                                                       threads,
                                                       max_cycles)

``<d2>`` is the first two hex digits of the digest (git-style fan-out).
Writes go through a same-directory temp file and ``os.replace`` so that
concurrent workers racing on the same key are safe: last writer wins and
readers never observe a partial file.  Any unreadable/corrupt entry is
treated as a miss, including a trace that fails the per-pc decode check
(:class:`~repro.functional.trace.TraceInvariantError`).

Results use pickle (they are internal machine-generated artifacts keyed
by content digest); traces use the explicit ``allow_pickle=False``
columnar format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

#: tmp files from :meth:`TraceCache._atomic_write` older than this are
#: considered abandoned (their writer is long dead) and safe to sweep
_ORPHAN_TMP_AGE_S = 3600.0

from .trace import ProgramTrace, trace_from_bytes, trace_to_bytes


def result_key(program_digest: str, config_digest: str, num_threads: int,
               max_cycles: int, engine: str = "event") -> str:
    """Content key for one timing-simulation result.

    There is one timing engine, so callers leave ``engine`` at its
    default.  The parameter stays because the reproduction benchmark
    (``benchmarks/reproduce/bench.py``) still passes ``engine=``.
    ``"event"`` keeps the historic key, so existing caches stay warm;
    any other name gets a distinct key.
    """
    raw = (f"vlt-result-v1:{program_digest}:{config_digest}:"
           f"{num_threads}:{max_cycles}")
    if engine != "event":
        raw += f":engine={engine}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class TraceCache:
    """Content-addressed trace/result store rooted at a directory.

    Hit/miss/store counters accumulate per instance (i.e. per process);
    :meth:`stats` combines them with an on-disk census.

    ``sweep_on_init=True`` stat-walks the tree at construction to remove
    stale ``.tmp`` files (a worker killed between mkstemp and
    ``os.replace`` leaves one behind).  It is opt-in: N pool workers
    opening one shared root must not each pay a full tree walk, so only
    the CLI process sweeps -- see :meth:`sweep_orphans` for on-demand
    use.
    """

    def __init__(self, root, sweep_on_init: bool = False) -> None:
        self.root = Path(root)
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_stores = 0
        self.result_hits = 0
        self.result_misses = 0
        self.result_stores = 0
        if sweep_on_init:
            self.sweep_orphans()

    # -- paths ---------------------------------------------------------------

    def trace_path(self, program_digest: str, num_threads: int) -> Path:
        return (self.root / "traces" / program_digest[:2]
                / f"{program_digest}-t{num_threads}.trace.npz")

    def result_path(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.result.pkl"

    # -- atomic write helper -------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=path.name + ".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- traces --------------------------------------------------------------

    def load_trace(self, program_digest: str,
                   num_threads: int) -> Optional[ProgramTrace]:
        path = self.trace_path(program_digest, num_threads)
        try:
            data = path.read_bytes()
            trace = trace_from_bytes(data)
        except FileNotFoundError:
            self.trace_misses += 1
            return None
        except Exception:
            # corrupt / truncated / wrong-version entry, or one that
            # breaks the per-pc invariant: treat as a miss
            self.trace_misses += 1
            return None
        if trace.num_threads != num_threads:  # pragma: no cover - paranoia
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return trace

    def store_trace(self, program_digest: str, num_threads: int,
                    trace: ProgramTrace) -> Path:
        path = self.trace_path(program_digest, num_threads)
        self._atomic_write(path, trace_to_bytes(trace))
        self.trace_stores += 1
        return path

    # -- results -------------------------------------------------------------

    def load_result(self, key: str):
        path = self.result_path(key)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.result_misses += 1
            return None
        except Exception:
            self.result_misses += 1
            return None
        self.result_hits += 1
        return result

    def store_result(self, key: str, result) -> Path:
        path = self.result_path(key)
        self._atomic_write(path, pickle.dumps(result, protocol=4))
        self.result_stores += 1
        return path

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _is_tmp(path: Path) -> bool:
        """In-flight / orphaned :meth:`_atomic_write` temp file?

        ``mkstemp`` names are ``<final name>.tmp<random>``; real entries
        (hex digests plus ``.trace.npz`` / ``.result.pkl``) never
        contain ``.tmp``.
        """
        return ".tmp" in path.name

    def sweep_orphans(self, min_age_s: float = _ORPHAN_TMP_AGE_S) -> int:
        """Remove abandoned ``.tmp`` files older than ``min_age_s``.

        Returns the number removed.  Fresh tmp files are left alone --
        they may belong to a live concurrent writer.
        """
        removed = 0
        cutoff = time.time() - min_age_s
        for subdir in ("traces", "results"):
            base = self.root / subdir
            if not base.is_dir():
                continue
            for p in base.rglob("*"):
                try:
                    if (p.is_file() and self._is_tmp(p)
                            and p.stat().st_mtime < cutoff):
                        p.unlink()
                        removed += 1
                except OSError:
                    continue   # raced with another sweeper / writer
        return removed

    def _census(self, subdir: str) -> Dict[str, int]:
        base = self.root / subdir
        entries = 0
        nbytes = 0
        orphans = 0
        if base.is_dir():
            for p in base.rglob("*"):
                if p.is_file():
                    if self._is_tmp(p):
                        orphans += 1
                        continue
                    entries += 1
                    nbytes += p.stat().st_size
        return {"entries": entries, "bytes": nbytes,
                "orphan_tmp_files": orphans}

    def counters(self) -> Dict[str, int]:
        """This process's hit/miss/store counters as one flat dict.

        The parallel runner snapshots these around every run attempt and
        ships the *delta* back to the parent, so a ``--jobs N`` sweep's
        aggregate cache stats reflect what the workers actually did
        (per-process counters alone silently reset in each worker).
        """
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "trace_stores": self.trace_stores,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_stores": self.result_stores,
        }

    def stats(self) -> Dict[str, object]:
        """On-disk census plus this process's hit/miss/store counters."""
        return {
            "root": str(self.root),
            "traces": self._census("traces"),
            "results": self._census("results"),
            "counters": self.counters(),
        }

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Orphaned ``.tmp`` files (of any age) are deleted along with the
        tree but are not counted -- they were never cache entries.
        """
        removed = 0
        for subdir in ("traces", "results"):
            base = self.root / subdir
            if base.is_dir():
                removed += sum(1 for p in base.rglob("*")
                               if p.is_file() and not self._is_tmp(p))
                shutil.rmtree(base)
        return removed
