"""Dynamic-trace records emitted by the functional simulator.

The timing simulator is trace-driven: it replays :class:`DynOp` streams,
one per software thread, against the microarchitecture model.  A
:class:`DynOp` carries exactly what timing needs -- the static
:class:`~repro.isa.opcodes.OpSpec`, the dense register uids read and
written, the dynamic vector length, the element byte addresses of memory
operations, and branch outcomes -- and nothing else (no data values).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.opcodes import OpSpec, spec

#: the per-thread parallel arrays of the columnar trace layout, in
#: canonical (serialization) order
COLUMN_NAMES = ("pcs", "ops", "vls", "takens", "tgts", "imms", "has_addrs",
                "r_off", "w_off", "a_off", "r_flat", "w_flat", "a_flat")


class DynOp:
    """One dynamic instruction instance in a thread's trace."""

    __slots__ = ("pc", "op", "spec", "reads", "writes", "vl", "addrs",
                 "taken", "tgt", "imm")

    def __init__(self, pc: int, op: str, spec: OpSpec,
                 reads: Tuple[int, ...], writes: Tuple[int, ...],
                 vl: int = 0, addrs: Optional[np.ndarray] = None,
                 taken: Optional[bool] = None, tgt: Optional[int] = None,
                 imm: Optional[int] = None):
        self.pc = pc
        self.op = op
        self.spec = spec
        self.reads = reads      # dense register uids (see isa.registers.reg_uid)
        self.writes = writes
        self.vl = vl            # dynamic vector length (0 for scalar ops)
        self.addrs = addrs      # element byte addresses of active accesses
        self.taken = taken      # branch outcome
        self.tgt = tgt          # branch target pc
        self.imm = imm          # vltcfg thread count, etc.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" vl={self.vl}" if self.spec.is_vector else ""
        return f"<DynOp pc={self.pc} {self.op}{extra}>"


class ThreadTrace:
    """The dynamic trace of one software thread.

    ``ops`` is segmented by barriers only implicitly -- barrier DynOps
    appear in-stream and the timing model synchronises on them.

    A trace holds its ops in one (or both) of two equivalent forms: a
    ``List[DynOp]`` and the columnar parallel arrays of the npz cache
    format.  The reference executor appends DynOps; the fast executor
    and the npz loader attach columns directly and the ``ops`` list is
    materialised lazily on first access, so array consumers
    (serialization, bulk stats) never pay a per-op decode.
    """

    __slots__ = ("tid", "_ops", "_cols")

    def __init__(self, tid: int, ops: Optional[List[DynOp]] = None):
        self.tid = tid
        self._ops: Optional[List[DynOp]] = [] if ops is None else ops
        self._cols: Optional[Dict[str, object]] = None

    @property
    def ops(self) -> List[DynOp]:
        if self._ops is None:
            cols = self._cols
            self._ops = _ops_from_columns(cols, cols["op_table"])
        return self._ops

    @ops.setter
    def ops(self, value: List[DynOp]) -> None:
        self._ops = value
        self._cols = None

    def append(self, op: DynOp) -> None:
        self.ops.append(op)
        self._cols = None   # invalidate any cached columnar view

    def __len__(self) -> int:
        if self._ops is None:
            return int(self._cols["pcs"].size)
        return len(self._ops)

    # -- columnar view -------------------------------------------------------

    def columns(self) -> Dict[str, object]:
        """Flat-array (columnar) view of this thread's ops.

        Returns the same parallel arrays the npz cache format stores
        (see the serialization section below), with ``op_table`` as an
        ordered mnemonic list rather than a mnemonic->id dict.  The
        view is computed once and cached on the instance; traces
        decoded from npz (and traces generated by the fast executor)
        attach their arrays directly, so array consumers (serialization,
        bulk analyses) never pay a per-:class:`DynOp` encode/decode
        round-trip.
        """
        cols = self._cols
        if cols is None:
            cols = _encode_thread(self)
            op_ids = cols.pop("op_table")
            cols["op_table"] = [op for op, _ in
                                sorted(op_ids.items(), key=lambda kv: kv[1])]
            self._cols = cols
        return cols

    # -- summary statistics (used by workload characterisation) -------------

    def counts(self) -> Dict[str, int]:
        """Instruction-count summary: total, scalar, vector, element ops."""
        if self._ops is None:
            cols = self._cols
            vec = self._vector_positions(cols)
            return {
                "total": int(cols["pcs"].size),
                "scalar": int(cols["pcs"].size - vec.size),
                "vector": int(vec.size),
                "element_ops": int(cols["vls"][vec].sum()),
            }
        total = len(self.ops)
        vector = sum(1 for o in self.ops if o.spec.is_vector)
        elem_ops = sum(o.vl for o in self.ops if o.spec.is_vector)
        return {
            "total": total,
            "scalar": total - vector,
            "vector": vector,
            "element_ops": elem_ops,
        }

    @staticmethod
    def _vector_positions(cols: Dict[str, object]) -> np.ndarray:
        is_vec = np.array([spec(op).is_vector for op in cols["op_table"]],
                          dtype=bool)
        return np.nonzero(is_vec[cols["ops"]])[0]

    def vector_lengths(self) -> np.ndarray:
        """The dynamic VL of every vector instruction, in order."""
        if self._ops is None:
            cols = self._cols
            return cols["vls"][self._vector_positions(cols)].astype(
                np.int64, copy=True)
        return np.array([o.vl for o in self.ops if o.spec.is_vector],
                        dtype=np.int64)

    def opcode_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per mnemonic."""
        hist: Dict[str, int] = {}
        for o in self.ops:
            hist[o.op] = hist.get(o.op, 0) + 1
        return hist

    def pool_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per functional-unit pool."""
        hist: Dict[str, int] = {}
        for o in self.ops:
            p = o.spec.pool
            hist[p] = hist.get(p, 0) + 1
        return hist


@dataclass
class ProgramTrace:
    """Traces of all threads of one program execution."""

    program_name: str
    num_threads: int
    threads: List[ThreadTrace] = field(default_factory=list)

    def total_ops(self) -> int:
        return sum(len(t) for t in self.threads)

    def merged_counts(self) -> Dict[str, int]:
        agg: Dict[str, int] = {"total": 0, "scalar": 0, "vector": 0,
                               "element_ops": 0}
        for t in self.threads:
            for k, v in t.counts().items():
                agg[k] += v
        return agg

    def merged_opcode_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per mnemonic, across threads."""
        agg: Dict[str, int] = {}
        for t in self.threads:
            for op, n in t.opcode_histogram().items():
                agg[op] = agg.get(op, 0) + n
        return agg


# --------------------------------------------------------------------------
# (De)serialization -- the on-disk trace cache format
# --------------------------------------------------------------------------
#
# Traces are stored columnar: one set of parallel NumPy arrays per
# thread, bundled with a JSON manifest into an .npz container.  DynOps
# carry an :class:`OpSpec` reference, but specs are pure functions of the
# mnemonic, so only an index into a per-file opcode string table is
# stored and ``spec(op)`` rebuilds the reference on load.  Optional
# per-op payloads (memory addresses, register-uid tuples) are flattened
# with offset arrays.  ``allow_pickle`` stays False on both ends.

#: bump when the columnar layout changes; loaders reject other versions.
TRACE_FORMAT_VERSION = 1


def _encode_thread(t: ThreadTrace) -> Dict[str, np.ndarray]:
    n = len(t.ops)
    pcs = np.empty(n, dtype=np.int64)
    vls = np.empty(n, dtype=np.int64)
    takens = np.empty(n, dtype=np.int8)      # -1 none / 0 / 1
    tgts = np.empty(n, dtype=np.int64)       # -1 none
    imms = np.empty(n, dtype=np.int64)       # -1 none (vltcfg imms are >= 1)
    has_addrs = np.zeros(n, dtype=np.int8)
    op_ids: Dict[str, int] = {}
    ops = np.empty(n, dtype=np.int64)
    r_off = np.zeros(n + 1, dtype=np.int64)
    w_off = np.zeros(n + 1, dtype=np.int64)
    a_off = np.zeros(n + 1, dtype=np.int64)
    r_flat: List[int] = []
    w_flat: List[int] = []
    a_parts: List[np.ndarray] = []
    for i, o in enumerate(t.ops):
        pcs[i] = o.pc
        ops[i] = op_ids.setdefault(o.op, len(op_ids))
        vls[i] = o.vl
        takens[i] = -1 if o.taken is None else int(o.taken)
        tgts[i] = -1 if o.tgt is None else o.tgt
        imms[i] = -1 if o.imm is None else o.imm
        r_flat.extend(o.reads)
        w_flat.extend(o.writes)
        r_off[i + 1] = len(r_flat)
        w_off[i + 1] = len(w_flat)
        a_off[i + 1] = a_off[i]
        if o.addrs is not None:
            has_addrs[i] = 1
            a_parts.append(np.asarray(o.addrs, dtype=np.int64))
            a_off[i + 1] += a_parts[-1].size
    return {
        "pcs": pcs, "ops": ops, "vls": vls, "takens": takens,
        "tgts": tgts, "imms": imms, "has_addrs": has_addrs,
        "r_off": r_off, "w_off": w_off, "a_off": a_off,
        "r_flat": np.asarray(r_flat, dtype=np.int64),
        "w_flat": np.asarray(w_flat, dtype=np.int64),
        "a_flat": (np.concatenate(a_parts) if a_parts
                   else np.empty(0, dtype=np.int64)),
        "op_table": op_ids,
    }


def _ops_from_columns(arrays: Dict[str, np.ndarray],
                      op_table: List[str]) -> List[DynOp]:
    """Materialise the ``List[DynOp]`` form of one thread's columns."""
    pcs = arrays["pcs"]
    ops = arrays["ops"]
    vls = arrays["vls"]
    takens = arrays["takens"]
    tgts = arrays["tgts"]
    imms = arrays["imms"]
    has_addrs = arrays["has_addrs"]
    r_off, w_off, a_off = arrays["r_off"], arrays["w_off"], arrays["a_off"]
    r_flat, w_flat, a_flat = (arrays["r_flat"], arrays["w_flat"],
                              arrays["a_flat"])
    specs = [(op, spec(op)) for op in op_table]
    out: List[DynOp] = []
    append = out.append
    for i in range(len(pcs)):
        op, sp = specs[ops[i]]
        taken = None if takens[i] < 0 else bool(takens[i])
        tgt = None if tgts[i] < 0 else int(tgts[i])
        imm = None if imms[i] < 0 else int(imms[i])
        addrs = (a_flat[a_off[i]:a_off[i + 1]].copy()
                 if has_addrs[i] else None)
        append(DynOp(
            int(pcs[i]), op, sp,
            tuple(int(u) for u in r_flat[r_off[i]:r_off[i + 1]]),
            tuple(int(u) for u in w_flat[w_off[i]:w_off[i + 1]]),
            vl=int(vls[i]), addrs=addrs, taken=taken, tgt=tgt, imm=imm))
    return out


def thread_trace_from_columns(tid: int, arrays: Dict[str, np.ndarray],
                              op_table: List[str]) -> ThreadTrace:
    """Build a :class:`ThreadTrace` directly from its columnar arrays.

    The DynOp list is materialised lazily on first ``.ops`` access;
    until then every consumer (serialization, stats) works straight off
    the arrays.  ``op_table`` is validated eagerly so a corrupt mnemonic
    table fails here, not at some later access.
    """
    for op in op_table:
        spec(op)
    thread = ThreadTrace(tid)
    cols = dict(arrays)
    cols["op_table"] = list(op_table)
    thread._ops = None
    thread._cols = cols
    return thread


def _decode_thread(tid: int, arrays: Dict[str, np.ndarray],
                   op_table: List[str]) -> ThreadTrace:
    return thread_trace_from_columns(tid, arrays, op_table)


def trace_to_bytes(trace: ProgramTrace) -> bytes:
    """Serialize a :class:`ProgramTrace` to a self-contained byte string."""
    arrays: Dict[str, np.ndarray] = {}
    op_tables: List[List[str]] = []
    for t in trace.threads:
        cols = t.columns()   # cached/attached columns; encodes if needed
        op_tables.append(list(cols["op_table"]))
        for name in COLUMN_NAMES:
            arrays[f"t{t.tid}.{name}"] = cols[name]
    manifest = {
        "version": TRACE_FORMAT_VERSION,
        "program_name": trace.program_name,
        "num_threads": trace.num_threads,
        "tids": [t.tid for t in trace.threads],
        "op_tables": op_tables,
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def trace_from_bytes(data: bytes) -> ProgramTrace:
    """Inverse of :func:`trace_to_bytes`.

    Raises ``ValueError`` on an unknown format version.
    """
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        manifest = json.loads(bytes(npz["manifest"]).decode("utf-8"))
        if manifest["version"] != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {manifest['version']} "
                f"(expected {TRACE_FORMAT_VERSION})")
        threads = []
        for tid, op_table in zip(manifest["tids"], manifest["op_tables"]):
            arrays = {name: npz[f"t{tid}.{name}"] for name in COLUMN_NAMES}
            threads.append(_decode_thread(tid, arrays, op_table))
    return ProgramTrace(program_name=manifest["program_name"],
                        num_threads=manifest["num_threads"],
                        threads=threads)


def save_trace(trace: ProgramTrace, path) -> int:
    """Write a trace to ``path``; returns the byte count written."""
    data = trace_to_bytes(trace)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def load_trace(path) -> ProgramTrace:
    """Read a trace previously written by :func:`save_trace`."""
    with open(path, "rb") as fh:
        return trace_from_bytes(fh.read())
