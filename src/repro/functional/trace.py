"""Dynamic-trace records emitted by the functional simulator.

The timing simulator is trace-driven: it replays one trace per software
thread against the microarchitecture model.  A trace carries exactly
what timing needs -- per dynamic op the static
:class:`~repro.isa.opcodes.OpSpec`, the dense register uids read and
written, the dynamic vector length, the element byte addresses of
memory operations, and branch outcomes -- and nothing else (no data
values).

A thread's trace is stored once, as the columnar parallel arrays of
the npz cache format (:data:`COLUMN_NAMES`), which both executors
record and the npz loader attaches.  Two forms are built from the
columns on first use:

* the replay form (:class:`ReplayTrace`) the timing units read: one
  shared :class:`StaticOp` per distinct pc, decoded once from the
  columns with a check (:func:`decode_static`), plain lists of the
  dynamic fields, and the per-trace tables every machine configuration
  shares (each vector op's register split, each vector memory op's
  distinct cache lines);
* a ``List[DynOp]``, one object per dynamic op, which tools (diff,
  pipeview, event payloads) read.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.opcodes import OpSpec, spec
from ..isa.registers import NUM_REG_UIDS, V_BASE, uid_is_scalar

#: the per-thread parallel arrays of the columnar trace layout, in
#: canonical (serialization) order
COLUMN_NAMES = ("pcs", "ops", "vls", "takens", "tgts", "imms", "has_addrs",
                "r_off", "w_off", "a_off", "r_flat", "w_flat", "a_flat")


class TraceInvariantError(ValueError):
    """A trace's columns break an invariant every recorded trace keeps."""


#: pcs at or above this are rejected at decode.  It is far above any
#: program's length and bounds the per-pc tables a corrupt trace could
#: make the decode (and the machine's code pre-touch) allocate.
MAX_PC = 1 << 20


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


class StaticOp:
    """The part of a dynamic op that every instance of its pc shares.

    It has :class:`DynOp`'s static attributes (``pc``, ``op``, ``spec``,
    ``reads``, ``writes``), so the timing units read either kind the
    same way.
    """

    __slots__ = ("pc", "op", "spec", "reads", "writes")

    def __init__(self, pc: int, op: str, spec: OpSpec,
                 reads: Tuple[int, ...], writes: Tuple[int, ...]):
        self.pc = pc
        self.op = op
        self.spec = spec
        self.reads = reads
        self.writes = writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StaticOp pc={self.pc} {self.op}>"


class VectorRegs:
    """How one vector op's register uids split between the scalar unit
    and the vector unit, decoded once per pc.

    ``sreads``/``swrites`` are the scalar-side uids (the SU wires them);
    ``vreads``/``vwrites`` are the vector-side ones as offsets from
    ``V_BASE`` (the VCL wires them).  ``writes_vreg`` says whether the
    op holds a physical vector register from dispatch to completion,
    and ``is_mem`` whether it is a vector memory op.
    """

    __slots__ = ("sreads", "swrites", "vreads", "vwrites", "writes_vreg",
                 "is_mem")

    def __init__(self, rec: StaticOp):
        self.sreads = tuple(u for u in rec.reads if uid_is_scalar(u))
        self.swrites = tuple(u for u in rec.writes if uid_is_scalar(u))
        self.vreads = tuple(u - V_BASE for u in rec.reads
                            if not uid_is_scalar(u))
        self.vwrites = tuple(u - V_BASE for u in rec.writes
                             if not uid_is_scalar(u))
        self.writes_vreg = any(u >= V_BASE for u in rec.writes)
        self.is_mem = rec.spec.pool == "vmem"


def _gather(records: list, index: np.ndarray) -> list:
    """``[records[k] for k in index]``, as one object-array gather."""
    table = np.empty(len(records), dtype=object)
    for k, rec in enumerate(records):
        table[k] = rec
    return table[index].tolist()


def _distinct_lines(a_off: np.ndarray, a_flat: np.ndarray,
                    ops: np.ndarray, line: int) -> list:
    """The sorted distinct line numbers of each op in ``ops`` (trace
    indices), in one vectorised pass.

    A run of consecutive lines is stored as a ``range`` and any other
    set as a tuple, and equal sets share one object, so the table holds
    no int object per line of a unit-stride access and one object per
    distinct footprint.
    """
    starts = a_off[ops]
    lens = a_off[ops + 1] - starts
    seg = np.repeat(np.arange(ops.size), lens)
    lines = a_flat[np.repeat(starts - np.cumsum(lens) + lens, lens)
                   + np.arange(seg.size)] // line
    lines = lines[np.lexsort((lines, seg))]   # sorted within each op
    keep = np.ones(lines.size, dtype=bool)
    keep[1:] = (lines[1:] != lines[:-1]) | (seg[1:] != seg[:-1])
    counts = np.bincount(seg[keep], minlength=ops.size).tolist()
    uniq = lines[keep].tolist()
    table = []
    shared: dict = {}
    o = 0
    for c in counts:
        if c and uniq[o + c - 1] - uniq[o] == c - 1:
            op_lines = range(uniq[o], uniq[o] + c)
        else:
            op_lines = tuple(uniq[o:o + c])
        table.append(shared.setdefault(op_lines, op_lines))
        o += c
    return table


class ReplayTrace:
    """One thread's trace in the form the timing units replay.

    ``ops[i]`` is op *i*'s shared per-pc :class:`StaticOp`.  The dynamic
    fields the units read are plain lists indexed like ``ops``:

    * ``vls`` -- the vector length (0 for scalar ops);
    * ``takens`` -- the branch outcome (-1 none, 0, 1);
    * ``imms`` -- the ``vltcfg`` immediate (-1 none);
    * ``addrs`` -- the first element address of each memory op (0 for
      others); a scalar memory op has exactly one.

    Per-trace tables, shared by every configuration that replays it:

    * ``vregs`` -- a :class:`VectorRegs` per vector op's pc;
    * :meth:`vlines` -- each vector memory op's sorted distinct cache
      lines, in trace order, built on first use for each line size.

    A vector memory op's addresses are sliced from the flat address
    column by :meth:`vaddrs` when the op is dispatched.
    """

    __slots__ = ("records", "index", "ops", "vls", "takens", "imms",
                 "addrs", "vregs", "_a_off", "_a_flat", "_lines")

    def __init__(self, cols: Dict[str, object],
                 static: Tuple[List[StaticOp], np.ndarray]):
        records, index = static
        #: one record per distinct pc, in pc order
        self.records = records
        #: each op's position in :attr:`records`
        self.index = index
        self.ops: List[StaticOp] = _gather(records, index)
        self.vls: List[int] = cols["vls"].tolist()
        self.takens: List[int] = cols["takens"].tolist()
        self.imms: List[int] = cols["imms"].tolist()
        a_off, a_flat = cols["a_off"], cols["a_flat"]
        starts = a_off[:-1]
        has = a_off[1:] > starts
        first = np.zeros(starts.size, dtype=np.int64)
        first[has] = a_flat[starts[has]]
        self.addrs: List[int] = first.tolist()
        self.vregs: Dict[int, VectorRegs] = {
            r.pc: VectorRegs(r) for r in records if r.spec.is_vector}
        self._a_off = a_off
        self._a_flat = a_flat
        self._lines: Dict[int, list] = {}

    def per_op(self, table: list) -> list:
        """Spread a per-record table (one value per :attr:`records`
        entry) to one value per op."""
        return _gather(table, self.index)

    def vaddrs(self, i: int) -> np.ndarray:
        """The element addresses of op ``i`` (a read-only view)."""
        return self._a_flat[self._a_off[i]:self._a_off[i + 1]]

    def vlines(self, line: int) -> list:
        """Item *k* is the sorted distinct ``line``-byte line numbers
        (a ``range`` or a tuple) the trace's *k*-th vector memory op
        touches.  Indexing by that ordinal keeps the table one pointer
        per vector memory op."""
        table = self._lines.get(line)
        if table is None:
            is_vmem = np.array([r.spec.pool == "vmem"
                                for r in self.records], dtype=bool)
            ops = np.flatnonzero(is_vmem[self.index])
            table = self._lines[line] = _distinct_lines(
                self._a_off, self._a_flat, ops, line)
        return table


class ThreadTrace:
    """The dynamic trace of one software thread, as columns.

    ``arrays`` are the thread's :data:`COLUMN_NAMES` arrays and
    ``op_table`` its mnemonics in op-id order; both executors and the
    npz loader build a trace from them.  The columns are decoded per pc
    here (:func:`decode_static`), so a corrupt mnemonic table or a trace
    that breaks the per-pc invariant raises now, not at some later
    replay.  ``static`` is a decode made from the very same
    ``pcs``/``ops``/reads/writes arrays (threads that share one
    control-flow path share them); it is reused, and only the layout of
    these columns is checked.

    Barriers segment the trace only implicitly: barrier ops appear
    in-stream and the timing model synchronises on them.  The other
    forms are built from the columns on first use and cached:
    :meth:`replay`, the form the timing units read, and ``ops``, one
    :class:`DynOp` per op.  So an untraced replay never builds a DynOp,
    and the summary statistics below read the columns.
    """

    __slots__ = ("tid", "_ops", "_cols", "_static", "_replay")

    def __init__(self, tid: int, arrays: Dict[str, np.ndarray],
                 op_table: List[str],
                 static: Optional[Tuple[List[StaticOp], np.ndarray]] = None):
        cols: Dict[str, object] = dict(arrays)
        cols["op_table"] = list(op_table)
        if static is None:
            static = decode_static(cols, cols["op_table"])
        else:
            _check_layout(cols, [spec(op) for op in op_table])
        self.tid = tid
        self._cols = cols
        self._static = static
        self._ops: Optional[List[DynOp]] = None
        self._replay: Optional[ReplayTrace] = None

    @property
    def ops(self) -> List[DynOp]:
        """One :class:`DynOp` per op, built on first use."""
        if self._ops is None:
            records, index = self._static
            self._ops = _ops_from_columns(self._cols,
                                          _gather(records, index))
        return self._ops

    def __len__(self) -> int:
        return int(self._cols["pcs"].size)

    # -- columnar and replay views ------------------------------------------

    def columns(self) -> Dict[str, object]:
        """The thread's columns: the parallel arrays the npz cache
        format stores (see the serialization section below), plus
        ``op_table``, the mnemonic of each id in the ``ops`` column.
        """
        return self._cols

    def replay(self) -> ReplayTrace:
        """The :class:`ReplayTrace` of this thread, built once however
        many machine configurations replay it."""
        if self._replay is None:
            self._replay = ReplayTrace(self._cols, self._static)
        return self._replay

    # -- summary statistics (used by workload characterisation) -------------

    def _vector_mask(self) -> np.ndarray:
        """Which ops of the columns are vector ops."""
        cols = self._cols
        is_vec = np.array([spec(op).is_vector for op in cols["op_table"]],
                          dtype=bool)
        return is_vec[cols["ops"]]

    def counts(self) -> Dict[str, int]:
        """Instruction-count summary: total, scalar, vector, element ops."""
        vec = self._vector_mask()
        total = int(vec.size)
        vector = int(np.count_nonzero(vec))
        return {
            "total": total,
            "scalar": total - vector,
            "vector": vector,
            "element_ops": int(self._cols["vls"][vec].sum()),
        }

    def vector_lengths(self) -> np.ndarray:
        """The dynamic VL of every vector instruction, in order."""
        return self._cols["vls"][self._vector_mask()].astype(
            np.int64, copy=True)

    def opcode_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per mnemonic, in order of first
        appearance."""
        table = self._cols["op_table"]
        counts = np.bincount(self._cols["ops"], minlength=len(table))
        return {op: int(n) for op, n in zip(table, counts) if n}

    def pool_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per functional-unit pool."""
        hist: Dict[str, int] = {}
        for op, n in self.opcode_histogram().items():
            p = spec(op).pool
            hist[p] = hist.get(p, 0) + n
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
# thread, bundled with a JSON manifest into an .npz container.  An op's
# :class:`OpSpec` is a pure function of its mnemonic, so only an index
# into a per-thread opcode string table is stored and ``spec(op)``
# rebuilds the reference on load.  Optional per-op payloads (memory
# addresses, register-uid tuples) are flattened with offset arrays.
# ``allow_pickle`` stays False on both ends.

#: bump when the columnar layout changes; loaders reject other versions.
TRACE_FORMAT_VERSION = 1


def _ops_from_columns(arrays: Dict[str, np.ndarray],
                      records: List[StaticOp]) -> List[DynOp]:
    """Materialise the ``List[DynOp]`` form of one thread's columns.

    ``records[i]`` is op *i*'s per-pc record: every op of one pc shares
    its ``spec``, ``reads`` and ``writes`` objects.
    """
    a_off = arrays["a_off"].tolist()
    a_flat = arrays["a_flat"]
    out: List[DynOp] = []
    append = out.append
    for i, (rec, vl, taken, tgt, imm, has_addrs) in enumerate(zip(
            records, arrays["vls"].tolist(), arrays["takens"].tolist(),
            arrays["tgts"].tolist(), arrays["imms"].tolist(),
            arrays["has_addrs"].tolist())):
        append(DynOp(
            rec.pc, rec.op, rec.spec, rec.reads, rec.writes, vl,
            a_flat[a_off[i]:a_off[i + 1]].copy() if has_addrs else None,
            None if taken < 0 else taken > 0,
            None if tgt < 0 else tgt,
            None if imm < 0 else imm))
    return out


def _check_layout(cols: Dict[str, object], specs: List[OpSpec]) -> None:
    """Shape and range checks the per-pc decode and the replay rely on;
    ``specs[k]`` is the spec of op id ``k``."""
    n = cols["pcs"].size
    for name in ("ops", "vls", "takens", "tgts", "imms", "has_addrs"):
        if cols[name].shape != (n,):
            raise TraceInvariantError(
                f"column {name!r} has shape {cols[name].shape}, "
                f"expected ({n},)")
    for kind in "rwa":
        off, flat = cols[f"{kind}_off"], cols[f"{kind}_flat"]
        if (off.shape != (n + 1,) or off[0] != 0 or off[-1] != flat.size
                or (n and np.diff(off).min() < 0)):
            raise TraceInvariantError(
                f"offsets {kind}_off do not tile {kind}_flat")
    if n and (cols["pcs"].min() < 0 or cols["pcs"].max() >= MAX_PC
              or cols["ops"].min() < 0 or cols["ops"].max() >= len(specs)):
        raise TraceInvariantError("a pc or op id is out of range")
    for kind in "rw":
        flat = cols[f"{kind}_flat"]
        if flat.size and (flat.min() < 0 or flat.max() >= NUM_REG_UIDS):
            raise TraceInvariantError(
                f"a register uid in {kind}_flat is out of range")
    takens = cols["takens"]
    if n and (takens.min() < -1 or takens.max() > 1):
        raise TraceInvariantError("a branch outcome is not -1, 0 or 1")
    is_smem = np.array([sp.pool == "mem" for sp in specs], dtype=bool)
    no_addr = is_smem[cols["ops"]] & (np.diff(cols["a_off"]) == 0)
    if no_addr.any():
        raise TraceInvariantError(
            f"scalar memory op at trace index "
            f"{int(np.argmax(no_addr))} has no address")


def decode_static(cols: Dict[str, object], op_table: List[str]
                  ) -> Tuple[List[StaticOp], np.ndarray]:
    """Decode a thread's columns once per pc, with a check.

    Returns ``(records, index)``: one :class:`StaticOp` per distinct pc,
    in pc order, and each op's position in ``records``.  Every dynamic
    op at one pc must carry the same op id, reads and writes -- the
    fields of the instruction at that pc, so every executor-recorded
    trace does.  Raises :class:`TraceInvariantError` when the columns
    break that or are malformed, so a corrupt trace fails here and not
    as a wrong cycle count.  The check is vectorised: one gather-compare
    per column against one representative op of each pc.
    """
    specs = [spec(op) for op in op_table]
    _check_layout(cols, specs)
    pcs, ops = cols["pcs"], cols["ops"]
    # pcs are small non-negative ints (checked above): index by value
    upcs = np.flatnonzero(np.bincount(pcs))
    slot = np.zeros(upcs[-1] + 1 if upcs.size else 0, dtype=np.int64)
    slot[upcs] = np.arange(upcs.size)
    index = slot[pcs]
    first = np.empty(upcs.size, dtype=np.int64)
    first[index] = np.arange(pcs.size)   # one op of each pc
    rep = first[index]   # per op: its pc's representative

    def disagree(bad: np.ndarray, what: str) -> None:
        i = int(np.argmax(bad))
        raise TraceInvariantError(
            f"trace index {i} (pc {int(pcs[i])}): {what} differ from "
            f"trace index {int(rep[i])} at that pc")

    bad = ops[rep] != ops
    if bad.any():
        disagree(bad, "op ids")
    for kind, what in (("r", "reads"), ("w", "writes")):
        off, flat = cols[f"{kind}_off"], cols[f"{kind}_flat"]
        lens = np.diff(off)
        bad = lens[rep] != lens
        if bad.any():
            disagree(bad, what)
        src = np.repeat(off[rep] - off[:-1], lens) \
            + np.arange(flat.size, dtype=np.int64)
        bad_flat = flat[src] != flat
        if bad_flat.any():
            bad = np.zeros(pcs.size, dtype=bool)
            bad[np.searchsorted(off, np.nonzero(bad_flat)[0],
                                side="right") - 1] = True
            disagree(bad, what)
    r_off, r_flat = cols["r_off"], cols["r_flat"]
    w_off, w_flat = cols["w_off"], cols["w_flat"]
    records = []
    for pc, i, op in zip(upcs.tolist(), first.tolist(),
                         ops[first].tolist()):
        records.append(StaticOp(
            pc, op_table[op], specs[op],
            tuple(r_flat[r_off[i]:r_off[i + 1]].tolist()),
            tuple(w_flat[w_off[i]:w_off[i + 1]].tolist())))
    return records, index


def trace_to_bytes(trace: ProgramTrace) -> bytes:
    """Serialize a :class:`ProgramTrace` to a self-contained byte string."""
    arrays: Dict[str, np.ndarray] = {}
    op_tables: List[List[str]] = []
    for t in trace.threads:
        cols = t.columns()
        op_tables.append(cols["op_table"])
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

    Raises ``ValueError`` on an unknown format version, and
    :class:`TraceInvariantError` when the manifest does not list one
    thread and one op table for each of its ``num_threads`` threads, in
    tid order, or when a thread's columns fail the decode check.
    """
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        manifest = json.loads(bytes(npz["manifest"]).decode("utf-8"))
        if manifest["version"] != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {manifest['version']} "
                f"(expected {TRACE_FORMAT_VERSION})")
        tids, op_tables = manifest["tids"], manifest["op_tables"]
        if (tids != list(range(manifest["num_threads"]))
                or len(op_tables) != len(tids)):
            raise TraceInvariantError(
                f"manifest lists threads {tids} and {len(op_tables)} op "
                f"tables for {manifest['num_threads']} threads")
        threads = []
        for tid, op_table in zip(tids, op_tables):
            arrays = {name: npz[f"t{tid}.{name}"] for name in COLUMN_NAMES}
            threads.append(ThreadTrace(tid, arrays, op_table))
    return ProgramTrace(program_name=manifest["program_name"],
                        num_threads=manifest["num_threads"],
                        threads=threads)
