"""Dynamic-trace records emitted by the functional simulator.

The timing simulator is trace-driven: it replays one trace per software
thread against the microarchitecture model.  A trace carries exactly
what timing needs -- per dynamic op the static
:class:`~repro.isa.opcodes.OpSpec`, the dense register uids read and
written, the dynamic vector length, the element byte addresses of
memory operations, and branch outcomes -- and nothing else (no data
values).

A thread's trace is stored once, in the layout of the npz cache format
(:data:`COLUMN_NAMES`), which both executors emit and the npz loader
checks.  What an instruction fixes is stored once per pc: one *row* per
distinct pc, in pc order, holds the op id, the register uids read and
written, the ``vltcfg`` immediate, the static branch target and whether
the op has addresses.  Per op only its pc is stored.  Each dynamic
field is stored only for the ops that have one, in trace order: the VL
of each vector op, the outcome of each branch, the target of each
``jr``, and the address count of each memory op with the addresses
themselves.  Which ops carry which field follows from their rows, so
the layout cannot hold two disagreeing copies of a pc's static fields.

Two forms are built from the layout on first use:

* the replay form (:class:`ReplayTrace`) the timing units read: one
  shared :class:`StaticOp` per row, plain per-op lists of the dynamic
  fields, and the per-trace tables every machine configuration shares
  (each vector op's register split, each vector memory op's distinct
  cache lines);
* a ``List[DynOp]``, one object per dynamic op, which tools (diff,
  pipeview, event payloads) read.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from ..isa.opcodes import OpSpec, spec
from ..isa.registers import MVL, NUM_REG_UIDS, V_BASE, uid_is_scalar

#: the per-thread arrays of the trace layout and their dtypes, in
#: serialization order: the rows (one per distinct pc, in pc order;
#: ``-1`` marks an absent immediate or target), each op's pc, and the
#: sparse fields of :data:`SPARSE`
COLUMN_DTYPES = {
    "row_pcs": np.dtype(np.int64), "row_ops": np.dtype(np.int64),
    "row_imms": np.dtype(np.int64), "row_tgts": np.dtype(np.int64),
    "row_has_addrs": np.dtype(np.int8),
    "row_r_off": np.dtype(np.int64), "row_r_flat": np.dtype(np.int64),
    "row_w_off": np.dtype(np.int64), "row_w_flat": np.dtype(np.int64),
    "pcs": np.dtype(np.int32),
    "vls": np.dtype(np.int16), "takens": np.dtype(np.int8),
    "jr_tgts": np.dtype(np.int32), "addr_counts": np.dtype(np.int16),
    "addrs": np.dtype(np.int64),
}
COLUMN_NAMES = tuple(COLUMN_DTYPES)

#: the sparse fields: one entry per vector op, branch, ``jr`` and
#: memory op, in trace order (the addresses follow ``addr_counts``)
SPARSE = ("vls", "takens", "jr_tgts", "addr_counts")


class TraceInvariantError(ValueError):
    """A trace's columns break an invariant every recorded trace keeps."""


#: pcs at or above this are rejected at decode.  It is far above any
#: program's length and bounds the per-pc tables a corrupt trace could
#: make the decode (and the machine's code pre-touch) allocate.
MAX_PC = 1 << 20


#: the flags of :func:`_op_kinds`: the first four say which of the
#: :data:`SPARSE` fields an op carries
_VECTOR, _BRANCH, _JR, _MEM, _SCALAR_MEM = range(5)


def _op_kinds(op: str) -> Tuple[bool, bool, bool, bool, bool]:
    """Whether an op of mnemonic ``op`` is a vector op, a branch, a
    ``jr``, a memory op, and a scalar memory op (exactly one
    address)."""
    sp = spec(op)
    return (sp.is_vector, sp.is_branch, op == "jr",
            sp.pool in ("mem", "vmem"), sp.pool == "mem")


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
    """The part of a dynamic op that every instance of its pc shares:
    one row of the layout.

    It has :class:`DynOp`'s static attributes (``pc``, ``op``, ``spec``,
    ``reads``, ``writes``, ``imm``), so the timing units read either
    kind the same way.
    """

    __slots__ = ("pc", "op", "spec", "reads", "writes", "imm")

    def __init__(self, pc: int, op: str, spec: OpSpec,
                 reads: Tuple[int, ...], writes: Tuple[int, ...],
                 imm: Optional[int] = None):
        self.pc = pc
        self.op = op
        self.spec = spec
        self.reads = reads
        self.writes = writes
        self.imm = imm          # the vltcfg immediate (None for others)

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


def _row_kinds(cols: Dict[str, object]) -> np.ndarray:
    """A (rows, 5) bool table: each row's :func:`_op_kinds`."""
    table = np.array([_op_kinds(op) for op in cols["op_table"]],
                     dtype=bool).reshape(-1, 5)
    return table[cols["row_ops"]]


def _positions(kinds: np.ndarray, index: np.ndarray,
               kind: int) -> np.ndarray:
    """The trace indices of the ops whose row has :func:`_op_kinds` flag
    ``kind`` set."""
    return np.flatnonzero(kinds[index, kind])


def _spread(size: int, pos: np.ndarray, values: np.ndarray,
            fill: int) -> np.ndarray:
    """A per-op int64 array: ``values`` at ``pos``, ``fill`` elsewhere."""
    out = np.full(size, fill, dtype=np.int64)
    out[pos] = values
    return out


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each memory op's addresses start in the flat addresses."""
    ends = np.cumsum(counts, dtype=np.int64)
    return ends - counts


def _distinct_lines(starts: np.ndarray, lens: np.ndarray,
                    addrs: np.ndarray, line: int) -> list:
    """The sorted distinct line numbers of each access whose addresses
    are ``addrs[starts[k]:starts[k] + lens[k]]``, in one vectorised
    pass.

    A run of consecutive lines is stored as a ``range`` and any other
    set as a tuple, and equal sets share one object, so the table holds
    no int object per line of a unit-stride access and one object per
    distinct footprint.
    """
    seg = np.repeat(np.arange(starts.size), lens)
    lines = addrs[np.repeat(starts - np.cumsum(lens) + lens, lens)
                  + np.arange(seg.size)] // line
    lines = lines[np.lexsort((lines, seg))]   # sorted within each op
    keep = np.ones(lines.size, dtype=bool)
    keep[1:] = (lines[1:] != lines[:-1]) | (seg[1:] != seg[:-1])
    counts = np.bincount(seg[keep], minlength=starts.size).tolist()
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

    ``ops[i]`` is op *i*'s shared per-pc :class:`StaticOp` (its row; a
    ``vltcfg``'s immediate is its ``imm``).  The dynamic fields the
    units read are plain lists indexed like ``ops``:

    * ``vls`` -- the vector length (0 for scalar ops);
    * ``takens`` -- the branch outcome (-1 none, 0, 1);
    * ``addrs`` -- the first element address of each memory op (0 for
      others); a scalar memory op has exactly one.

    Per-trace tables, shared by every configuration that replays it:

    * ``vregs`` -- a :class:`VectorRegs` per vector op's pc;
    * :meth:`vlines` -- each vector memory op's sorted distinct cache
      lines, in trace order, built on first use for each line size.

    The *k*-th vector memory op's addresses are sliced from the flat
    addresses by :meth:`vaddrs` when the op is dispatched.
    """

    __slots__ = ("records", "index", "ops", "vls", "takens", "addrs",
                 "vregs", "_addrs", "_vstarts", "_vlens", "_lines")

    def __init__(self, cols: Dict[str, object],
                 static: Tuple[List[StaticOp], np.ndarray]):
        records, index = static
        n = index.size
        kinds = _row_kinds(cols)
        #: one record per distinct pc, in pc order
        self.records = records
        #: each op's position in :attr:`records`
        self.index = index
        self.ops: List[StaticOp] = _gather(records, index)
        self.vls: List[int] = _spread(
            n, _positions(kinds, index, _VECTOR), cols["vls"], 0).tolist()
        self.takens: List[int] = _spread(
            n, _positions(kinds, index, _BRANCH), cols["takens"], -1).tolist()
        addrs, counts = cols["addrs"], cols["addr_counts"]
        mem = _positions(kinds, index, _MEM)
        starts = _starts(counts)
        has = counts > 0
        self.addrs: List[int] = _spread(
            n, mem[has], addrs[starts[has]], 0).tolist()
        is_vmem = kinds[index[mem], _VECTOR]
        self.vregs: Dict[int, VectorRegs] = {
            r.pc: VectorRegs(r) for r in records if r.spec.is_vector}
        self._addrs = addrs
        self._vstarts = starts[is_vmem]
        self._vlens = counts[is_vmem].astype(np.int64)
        self._lines: Dict[int, list] = {}

    def per_op(self, table: list) -> list:
        """Spread a per-record table (one value per :attr:`records`
        entry) to one value per op."""
        return _gather(table, self.index)

    def vaddrs(self, k: int) -> np.ndarray:
        """The element addresses of the trace's *k*-th vector memory op
        (a read-only view)."""
        start = self._vstarts[k]
        return self._addrs[start:start + self._vlens[k]]

    def vlines(self, line: int) -> list:
        """Item *k* is the sorted distinct ``line``-byte line numbers
        (a ``range`` or a tuple) the trace's *k*-th vector memory op
        touches.  Indexing by that ordinal keeps the table one pointer
        per vector memory op."""
        table = self._lines.get(line)
        if table is None:
            table = self._lines[line] = _distinct_lines(
                self._vstarts, self._vlens, self._addrs, line)
        return table


class ThreadTrace:
    """The dynamic trace of one software thread, in the trace layout.

    ``arrays`` are the thread's :data:`COLUMN_NAMES` arrays and
    ``op_table`` its mnemonics in op-id order; both executors and the
    npz loader build a trace from them.  The layout is checked here
    (:func:`_check_layout`), so a corrupt entry raises now, not at some
    later replay.  ``static`` is a decode made from the very same rows
    and ``pcs`` (threads that share one control-flow path share them);
    it is reused.

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
        index = _check_layout(cols)
        self.tid = tid
        self._cols = cols
        self._static = static or (_records(cols), index)
        self._ops: Optional[List[DynOp]] = None
        self._replay: Optional[ReplayTrace] = None

    @property
    def ops(self) -> List[DynOp]:
        """One :class:`DynOp` per op, built on first use."""
        if self._ops is None:
            self._ops = _ops_from_columns(self._cols, *self._static)
        return self._ops

    def __len__(self) -> int:
        return int(self._cols["pcs"].size)

    # -- columnar and replay views ------------------------------------------

    def columns(self) -> Dict[str, object]:
        """The thread's columns: the arrays the npz cache format stores
        (see the serialization section below), plus ``op_table``, the
        mnemonic of each id in the ``row_ops`` column.
        """
        return self._cols

    def replay(self) -> ReplayTrace:
        """The :class:`ReplayTrace` of this thread, built once however
        many machine configurations replay it."""
        if self._replay is None:
            self._replay = ReplayTrace(self._cols, self._static)
        return self._replay

    # -- summary statistics (used by workload characterisation) -------------

    def counts(self) -> Dict[str, int]:
        """Instruction-count summary: total, scalar, vector, element ops."""
        vls = self._cols["vls"]     # one entry per vector op
        total = len(self)
        return {
            "total": total,
            "scalar": total - vls.size,
            "vector": int(vls.size),
            "element_ops": int(vls.sum()),
        }

    def vector_lengths(self) -> np.ndarray:
        """The dynamic VL of every vector instruction, in order."""
        return self._cols["vls"].astype(np.int64)

    def opcode_histogram(self) -> Dict[str, int]:
        """Dynamic instruction counts per mnemonic, in order of first
        appearance."""
        table = self._cols["op_table"]
        per_row = np.bincount(self._static[1],
                              minlength=self._cols["row_ops"].size)
        counts = [0] * len(table)
        for op, n in zip(self._cols["row_ops"].tolist(), per_row.tolist()):
            counts[op] += n
        return {op: n for op, n in zip(table, counts) if n}

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
# Each thread's layout arrays are bundled with a JSON manifest into an
# .npz container.  An op's :class:`OpSpec` is a pure function of its
# mnemonic, so only an index into a per-thread opcode string table is
# stored and ``spec(op)`` rebuilds the reference on load.  Register uids
# are flattened with offset arrays, addresses with a count per memory op.
# ``allow_pickle`` stays False on both ends.

#: bump when the layout changes; loaders reject other versions.
TRACE_FORMAT_VERSION = 2


def _records(cols: Dict[str, object]) -> List[StaticOp]:
    """One :class:`StaticOp` per row, in pc order."""
    table = cols["op_table"]
    r_off, r_flat = cols["row_r_off"].tolist(), cols["row_r_flat"].tolist()
    w_off, w_flat = cols["row_w_off"].tolist(), cols["row_w_flat"].tolist()
    return [StaticOp(pc, table[op], spec(table[op]),
                     tuple(r_flat[r_off[k]:r_off[k + 1]]),
                     tuple(w_flat[w_off[k]:w_off[k + 1]]),
                     None if imm < 0 else imm)
            for k, (pc, op, imm) in enumerate(zip(
                cols["row_pcs"].tolist(), cols["row_ops"].tolist(),
                cols["row_imms"].tolist()))]


def _ops_from_columns(cols: Dict[str, object], records: List[StaticOp],
                      index: np.ndarray) -> List[DynOp]:
    """Materialise the ``List[DynOp]`` form of one thread's columns:
    every op of one pc shares its ``spec``, ``reads`` and ``writes``
    objects."""
    n = index.size
    kinds = _row_kinds(cols)
    vls = _spread(n, _positions(kinds, index, _VECTOR), cols["vls"], 0)
    takens = _spread(n, _positions(kinds, index, _BRANCH), cols["takens"], -1)
    tgts = cols["row_tgts"][index]
    tgts[_positions(kinds, index, _JR)] = cols["jr_tgts"]
    mem = _positions(kinds, index, _MEM)
    counts = cols["addr_counts"]
    a_start = _spread(n, mem, _starts(counts), -1).tolist()
    a_len = _spread(n, mem, counts, 0).tolist()
    addrs = cols["addrs"]
    out: List[DynOp] = []
    append = out.append
    for rec, vl, taken, tgt, start, size in zip(
            _gather(records, index), vls.tolist(), takens.tolist(),
            tgts.tolist(), a_start, a_len):
        append(DynOp(
            rec.pc, rec.op, rec.spec, rec.reads, rec.writes, vl,
            None if start < 0 else addrs[start:start + size].copy(),
            None if taken < 0 else taken > 0,
            None if tgt < 0 else tgt, rec.imm))
    return out


def _out_of_range(a: np.ndarray, lo: int, hi: int) -> bool:
    """Whether some entry of ``a`` lies outside ``[lo, hi)``."""
    return bool(a.size) and (int(a.min()) < lo or int(a.max()) >= hi)


def _check_layout(cols: Dict[str, object]) -> np.ndarray:
    """Check a thread's layout; return each op's row position.

    Raises :class:`TraceInvariantError` when a column has the wrong
    dtype or shape, a pc has no row, a sparse field has more or fewer
    entries than there are ops of its kind, a uid, pc, op id, VL or
    outcome is out of range, the offsets do not tile, a row's
    has-addresses flag disagrees with its op, or a scalar memory op
    does not have exactly one address.  So a corrupt trace fails here
    and not as a wrong cycle count.
    """
    for name, dtype in COLUMN_DTYPES.items():
        if cols[name].dtype != dtype or cols[name].ndim != 1:
            raise TraceInvariantError(
                f"column {name!r} is {cols[name].dtype} of shape "
                f"{cols[name].shape}, expected a 1-D {dtype} column")
    row_pcs, row_ops = cols["row_pcs"], cols["row_ops"]
    rows = row_pcs.size
    for name in ("row_ops", "row_imms", "row_tgts", "row_has_addrs"):
        if cols[name].size != rows:
            raise TraceInvariantError(
                f"column {name!r} has {cols[name].size} rows, "
                f"expected {rows}")
    for kind in "rw":
        off, flat = cols[f"row_{kind}_off"], cols[f"row_{kind}_flat"]
        if (off.size != rows + 1 or off[0] != 0 or off[-1] != flat.size
                or (rows and np.diff(off).min() < 0)):
            raise TraceInvariantError(
                f"offsets row_{kind}_off do not tile row_{kind}_flat")
        if _out_of_range(flat, 0, NUM_REG_UIDS):
            raise TraceInvariantError(
                f"a register uid in row_{kind}_flat is out of range")
    pcs = cols["pcs"]
    if (_out_of_range(row_pcs, 0, MAX_PC) or _out_of_range(pcs, 0, MAX_PC)
            or _out_of_range(row_ops, 0, len(cols["op_table"]))):
        raise TraceInvariantError("a pc or op id is out of range")
    if rows > 1 and np.diff(row_pcs).min() <= 0:
        raise TraceInvariantError("the rows are not in increasing pc order")
    slot = np.full(int(row_pcs[-1]) + 1 if rows else 0, -1, dtype=np.int32)
    slot[row_pcs] = np.arange(rows, dtype=np.int32)
    if pcs.size and int(pcs.max()) >= slot.size:
        raise TraceInvariantError(f"pc {int(pcs.max())} has no row")
    index = slot[pcs]
    if index.size and int(index.min()) < 0:
        raise TraceInvariantError(
            f"pc {int(pcs[np.argmin(index)])} has no row")
    kinds = _row_kinds(cols)
    if not np.array_equal(kinds[:, _MEM], cols["row_has_addrs"] != 0):
        raise TraceInvariantError(
            "a row's has-addresses flag disagrees with its op")
    per_row = np.bincount(index, minlength=rows)
    for k, name in enumerate(SPARSE):
        expected = int(per_row[kinds[:, k]].sum())
        if cols[name].size != expected:
            raise TraceInvariantError(
                f"column {name!r} has {cols[name].size} entries for "
                f"{expected} ops of its kind")
    if _out_of_range(cols["vls"], 0, MVL + 1):
        raise TraceInvariantError("a vector length is out of range")
    if _out_of_range(cols["takens"], 0, 2):
        raise TraceInvariantError("a branch outcome is not 0 or 1")
    if _out_of_range(cols["jr_tgts"], 0, MAX_PC):
        raise TraceInvariantError("a jr target pc is out of range")
    counts = cols["addr_counts"]
    if (counts.size and int(counts.min()) < 0) \
            or int(counts.sum()) != cols["addrs"].size:
        raise TraceInvariantError("the address counts do not tile addrs")
    scalar = kinds[index[_positions(kinds, index, _MEM)], _SCALAR_MEM]
    if (counts[scalar] != 1).any():
        raise TraceInvariantError(
            "a scalar memory op does not have exactly one address")
    return index


def decode_static(cols: Dict[str, object]
                  ) -> Tuple[List[StaticOp], np.ndarray]:
    """Check a thread's layout and decode its rows: returns
    ``(records, index)``, one :class:`StaticOp` per row, in pc order,
    and each op's position in ``records``."""
    index = _check_layout(cols)
    return _records(cols), index


def write_trace(trace: ProgramTrace, fh: BinaryIO) -> None:
    """Write a :class:`ProgramTrace` to the binary file ``fh`` as one
    npz archive, member by member."""
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
    np.savez(fh, **arrays)


def read_trace(fh: BinaryIO) -> ProgramTrace:
    """Inverse of :func:`write_trace`.

    Raises ``ValueError`` on an unknown format version, and
    :class:`TraceInvariantError` when the manifest does not list one
    thread and one op table for each of its ``num_threads`` threads, in
    tid order, or when a thread's layout fails :func:`_check_layout`.
    """
    with np.load(fh, allow_pickle=False) as npz:
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


def trace_to_bytes(trace: ProgramTrace) -> bytes:
    """Serialize a :class:`ProgramTrace` to a self-contained byte string
    (:func:`write_trace` into memory)."""
    buf = io.BytesIO()
    write_trace(trace, buf)
    return buf.getvalue()


def trace_from_bytes(data: bytes) -> ProgramTrace:
    """Inverse of :func:`trace_to_bytes` (see :func:`read_trace`)."""
    return read_trace(io.BytesIO(data))
