"""Functional (architectural) simulator.

Executes SPMD programs written in the VLT ISA with real data, producing
per-thread dynamic traces for the timing simulator.  Threads are run
*phase by phase*: each thread executes until it reaches a ``barrier`` (or
halts), then the next thread runs its phase, and so on.  For the
barrier-synchronised, statically-partitioned programs used in this study
(the paper's workloads are exactly of this form, Section 6) this
serialisation is semantically equivalent to any legal parallel
interleaving: values written before a barrier are visible after it, and
there are no data races within a phase.

Integer semantics: 64-bit two's-complement wrap-around; division
truncates toward zero; division by zero yields 0 (remainder 0).  Shift
amounts use the low 6 bits.  FP is IEEE double via NumPy/Python floats.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..isa.program import Instr, Program
from ..isa.registers import MVL, reg_uid
from .memory import Memory
from .state import ThreadState
from .trace import ProgramTrace, ThreadTrace

_MASK64 = 0xFFFFFFFFFFFFFFFF
_I64_MAX = 0x7FFFFFFFFFFFFFFF
_I64_MIN = -0x8000000000000000


class ExecutionError(Exception):
    """Raised on deadlock, runaway execution, or semantic violations."""


# --------------------------------------------------------------------------
# Scalar integer helpers (Python-int domain, wrapped on register writeback)
# --------------------------------------------------------------------------

def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - b * _sdiv(a, b)


def _srl(a: int, sh: int) -> int:
    return (a & _MASK64) >> (sh & 63)


_INT_BIN: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _sdiv,
    "rem": _srem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 63),
    "srl": _srl,
    "sra": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
}

_INT_IMM = {"addi": "add", "muli": "mul", "andi": "and", "ori": "or",
            "xori": "xor", "slli": "sll", "srli": "srl", "srai": "sra",
            "slti": "slt"}

def _fdiv(a: float, b: float) -> float:
    # IEEE semantics (x/0 = +-inf, 0/0 = nan) via NumPy scalar division;
    # the executor runs under errstate(all="ignore").
    return float(np.float64(a) / np.float64(b))


_FP_BIN: Dict[str, Callable[[float, float], float]] = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _fdiv,
    "fmin": min,
    "fmax": max,
}

_FP_UN: Dict[str, Callable[[float], float]] = {
    "fsqrt": lambda a: math.sqrt(a) if a >= 0.0 else math.nan,
    "fabs": abs,
    "fneg": lambda a: -a,
    "fmv": lambda a: a,
}

_FP_CMP: Dict[str, Callable[[float, float], int]] = {
    "feq": lambda a, b: int(a == b),
    "flt": lambda a, b: int(a < b),
    "fle": lambda a, b: int(a <= b),
}

_BRANCH: Dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
}

# --------------------------------------------------------------------------
# Vector integer helpers (NumPy int64 domain)
# --------------------------------------------------------------------------

def _vdiv(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.asarray(b, dtype=np.int64)
    nz = b_arr != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.floor_divide(a, np.where(nz, b_arr, 1))
        r = a - q * np.where(nz, b_arr, 1)
        # floor -> trunc correction
        q = q + ((r != 0) & ((a < 0) != (b_arr < 0)))
    return np.where(nz, q, 0).astype(np.int64)


def _vrem(a: np.ndarray, b) -> np.ndarray:
    b_arr = np.asarray(b, dtype=np.int64)
    return (a - _vdiv(a, b_arr) * b_arr) * (b_arr != 0)


def _vsrl(a: np.ndarray, b) -> np.ndarray:
    """Logical right shift on int64 via a uint64 reinterpretation."""
    if isinstance(b, np.ndarray):
        sh = (b & 63).astype(np.uint64)
    else:
        sh = np.uint64(int(b) & 63)
    return (np.ascontiguousarray(a).view(np.uint64) >> sh).view(np.int64)


_VINT_BIN: Dict[str, Callable] = {
    "vadd": lambda a, b: a + b,
    "vsub": lambda a, b: a - b,
    "vmul": lambda a, b: a * b,
    "vdiv": _vdiv,
    "vrem": _vrem,
    "vand": lambda a, b: a & b,
    "vor": lambda a, b: a | b,
    "vxor": lambda a, b: a ^ b,
    "vsll": lambda a, b: np.left_shift(a, np.asarray(b) & 63),
    "vsrl": lambda a, b: _vsrl(a, b),
    "vsra": lambda a, b: a >> (np.asarray(b) & 63),
    "vmin": np.minimum,
    "vmax": np.maximum,
}

_VFP_BIN: Dict[str, Callable] = {
    "vfadd": lambda a, b: a + b,
    "vfsub": lambda a, b: a - b,
    "vfmul": lambda a, b: a * b,
    "vfdiv": lambda a, b: np.divide(a, b),
    "vfmin": np.minimum,
    "vfmax": np.maximum,
}

_VINT_CMP: Dict[str, Callable] = {
    "vseq": lambda a, b: a == b,
    "vsne": lambda a, b: a != b,
    "vslt": lambda a, b: a < b,
    "vsle": lambda a, b: a <= b,
}

_VFP_CMP: Dict[str, Callable] = {
    "vfeq": lambda a, b: a == b,
    "vflt": lambda a, b: a < b,
    "vfle": lambda a, b: a <= b,
}


class _Recorded:
    """One thread's recorded trace fields (see ``Executor._recorded``)."""

    __slots__ = ("pcs", "vls", "takens", "jr_tgts", "addrs")

    def __init__(self) -> None:
        self.pcs: List[int] = []
        self.vls: List[int] = []
        self.takens: List[bool] = []
        self.jr_tgts: List[int] = []
        self.addrs: List[np.ndarray] = []


def _offsets(lengths: List[int]) -> np.ndarray:
    """The ``n + 1`` offsets that tile a flat array from ``n`` lengths."""
    off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    return off


class Executor:
    """Execute a finalized :class:`Program` with ``num_threads`` SPMD threads.

    Parameters
    ----------
    program:
        A finalized program.
    num_threads:
        SPMD thread count (1 for the base single-thread configuration).
    record_trace:
        If False, record no trace: :meth:`run` returns a trace with no
        threads (fast functional verification mode).
    max_ops:
        Per-thread dynamic-instruction budget; exceeding it raises
        :class:`ExecutionError` (runaway-loop guard).
    """

    def __init__(self, program: Program, num_threads: int = 1,
                 record_trace: bool = True, max_ops: int = 20_000_000):
        if not program.finalized:
            raise ValueError("program must be finalized (ProgramBuilder.build)")
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.program = program
        self.num_threads = num_threads
        self.record_trace = record_trace
        self.max_ops = max_ops
        self.mem = Memory(program.build_memory())
        self.states = [ThreadState(t, num_threads) for t in range(num_threads)]
        #: per thread, what its trace records as it runs: each op's pc,
        #: then each vector op's VL, each branch's outcome, each jr's
        #: target and each memory op's addresses
        self._recorded: Optional[List[_Recorded]] = (
            [_Recorded() for _ in range(num_threads)] if record_trace
            else None)
        self._reads: List[Tuple[int, ...]] = [
            tuple(reg_uid(r) for r in ins.reads()) for ins in program.instrs]
        self._writes: List[Tuple[int, ...]] = [
            tuple(reg_uid(r) for r in ins.writes()) for ins in program.instrs]
        self._ops_executed = [0] * num_threads

    # ------------------------------------------------------------------

    def run(self) -> ProgramTrace:
        """Run all threads to completion; returns the program trace.

        Threads advance in lock-step phases delimited by barriers.  A
        thread halting while others still expect a barrier partner is a
        deadlock and raises.
        """
        with np.errstate(all="ignore"):
            while True:
                statuses = []
                for st in self.states:
                    if st.halted:
                        statuses.append("halt")
                        continue
                    statuses.append(self._run_phase(st))
                if all(s == "halt" for s in statuses):
                    break
                if any(s == "halt" for s in statuses):
                    raise ExecutionError(
                        f"barrier deadlock in {self.program.name!r}: some "
                        f"threads halted while others wait at a barrier")
        threads = ([] if self._recorded is None else
                   [self._thread_trace(t, rec)
                    for t, rec in enumerate(self._recorded)])
        return ProgramTrace(program_name=self.program.name,
                            num_threads=self.num_threads, threads=threads)

    def _thread_trace(self, tid: int, rec: _Recorded) -> ThreadTrace:
        """Build one thread's trace layout from what it recorded: one
        row per distinct pc it executed, in pc order, with op ids in
        order of first execution."""
        instrs = self.program.instrs
        op_ids: Dict[str, int] = {}
        for pc in dict.fromkeys(rec.pcs):
            op_ids.setdefault(instrs[pc].op, len(op_ids))
        rows = sorted(set(rec.pcs))
        reads = [self._reads[pc] for pc in rows]
        writes = [self._writes[pc] for pc in rows]
        row_ins = [instrs[pc] for pc in rows]
        cols = {
            "row_pcs": np.array(rows, dtype=np.int64),
            "row_ops": np.array([op_ids[ins.op] for ins in row_ins],
                                dtype=np.int64),
            "row_imms": np.array([ins.imm if ins.spec.is_vltcfg else -1
                                  for ins in row_ins], dtype=np.int64),
            "row_tgts": np.array(
                [ins.target if ins.spec.is_branch and ins.op != "jr"
                 else -1 for ins in row_ins], dtype=np.int64),
            "row_has_addrs": np.array([ins.mem is not None
                                       for ins in row_ins], dtype=np.int8),
            "row_r_off": _offsets([len(r) for r in reads]),
            "row_r_flat": np.fromiter(chain.from_iterable(reads),
                                      dtype=np.int64),
            "row_w_off": _offsets([len(w) for w in writes]),
            "row_w_flat": np.fromiter(chain.from_iterable(writes),
                                      dtype=np.int64),
            "pcs": np.array(rec.pcs, dtype=np.int32),
            "vls": np.array(rec.vls, dtype=np.int16),
            "takens": np.array(rec.takens, dtype=np.int8),
            "jr_tgts": np.array(rec.jr_tgts, dtype=np.int32),
            "addr_counts": np.array([a.size for a in rec.addrs],
                                    dtype=np.int16),
            "addrs": (np.concatenate(rec.addrs) if rec.addrs
                      else np.empty(0, dtype=np.int64)),
        }
        return ThreadTrace(tid, cols, list(op_ids))

    # ------------------------------------------------------------------

    def _run_phase(self, st: ThreadState) -> str:
        """Execute one thread until it hits a barrier or halts."""
        instrs = self.program.instrs
        rec = None if self._recorded is None else self._recorded[st.tid]
        mem = self.mem
        n_instrs = len(instrs)
        executed = self._ops_executed[st.tid]
        budget = self.max_ops

        while True:
            pc = st.pc
            if not 0 <= pc < n_instrs:
                raise ExecutionError(
                    f"thread {st.tid} jumped to invalid pc {pc}")
            ins = instrs[pc]
            executed += 1
            if executed > budget:
                raise ExecutionError(
                    f"thread {st.tid} exceeded {budget} dynamic instructions "
                    f"(infinite loop?) at pc {pc}: {ins.render()}")

            vl_used, addrs, taken, tgt = self._execute(st, ins, mem)

            sp = ins.spec
            if rec is not None:
                rec.pcs.append(pc)
                if sp.is_vector:
                    rec.vls.append(vl_used)
                if taken is not None:
                    rec.takens.append(taken)
                    if ins.op == "jr":
                        rec.jr_tgts.append(tgt)
                if addrs is not None:
                    rec.addrs.append(addrs)

            if sp.is_barrier:
                st.barrier_count += 1
                st.pc = pc + 1
                self._ops_executed[st.tid] = executed
                return "barrier"
            if sp.is_halt:
                st.halted = True
                self._ops_executed[st.tid] = executed
                return "halt"

    # ------------------------------------------------------------------

    def _execute(self, st: ThreadState, ins: Instr, mem: Memory):
        """Execute one instruction; returns (vl_used, addrs, taken, tgt)."""
        op = ins.op
        sp = ins.spec
        s, f = st.s, st.f
        next_pc = ins.pc + 1

        # ---- scalar integer -------------------------------------------------
        fn = _INT_BIN.get(op)
        if fn is not None:
            a, b = s[ins.srcs[0][1]], s[ins.srcs[1][1]]
            st.write_s(ins.dst[1], fn(a, b))
            st.pc = next_pc
            return 0, None, None, None
        base_name = _INT_IMM.get(op)
        if base_name is not None:
            a = s[ins.srcs[0][1]]
            st.write_s(ins.dst[1], _INT_BIN[base_name](a, ins.imm))
            st.pc = next_pc
            return 0, None, None, None
        if op == "li":
            st.write_s(ins.dst[1], ins.imm)
            st.pc = next_pc
            return 0, None, None, None
        if op == "nop":
            st.pc = next_pc
            return 0, None, None, None

        # ---- scalar FP ------------------------------------------------------
        fn = _FP_BIN.get(op)
        if fn is not None:
            f[ins.dst[1]] = fn(f[ins.srcs[0][1]], f[ins.srcs[1][1]])
            st.pc = next_pc
            return 0, None, None, None
        fn = _FP_UN.get(op)
        if fn is not None:
            f[ins.dst[1]] = fn(f[ins.srcs[0][1]])
            st.pc = next_pc
            return 0, None, None, None
        fn = _FP_CMP.get(op)
        if fn is not None:
            st.write_s(ins.dst[1], fn(f[ins.srcs[0][1]], f[ins.srcs[1][1]]))
            st.pc = next_pc
            return 0, None, None, None
        if op == "fli":
            f[ins.dst[1]] = float(ins.imm)
            st.pc = next_pc
            return 0, None, None, None
        if op == "itof":
            f[ins.dst[1]] = float(s[ins.srcs[0][1]])
            st.pc = next_pc
            return 0, None, None, None
        if op == "ftoi":
            val = f[ins.srcs[0][1]]
            if math.isnan(val) or math.isinf(val):
                ival = _I64_MIN
            else:
                ival = max(_I64_MIN, min(_I64_MAX, int(val)))
            st.write_s(ins.dst[1], ival)
            st.pc = next_pc
            return 0, None, None, None

        # ---- scalar memory --------------------------------------------------
        if op in ("ld", "fld", "st", "fst"):
            off, base = ins.mem
            addr = s[base[1]] + off
            if op == "ld":
                st.write_s(ins.dst[1], mem.load_i64(addr))
            elif op == "fld":
                f[ins.dst[1]] = mem.load_f64(addr)
            elif op == "st":
                mem.store_i64(addr, s[ins.srcs[0][1]])
            else:
                mem.store_f64(addr, f[ins.srcs[0][1]])
            st.pc = next_pc
            return 0, np.array([addr], dtype=np.int64), None, None

        # ---- control flow ---------------------------------------------------
        fn = _BRANCH.get(op)
        if fn is not None:
            taken = fn(s[ins.srcs[0][1]], s[ins.srcs[1][1]])
            st.pc = ins.target if taken else next_pc
            return 0, None, taken, ins.target
        if op == "j":
            st.pc = ins.target
            return 0, None, True, ins.target
        if op == "jal":
            st.write_s(ins.dst[1], next_pc)
            st.pc = ins.target
            return 0, None, True, ins.target
        if op == "jr":
            tgt = s[ins.srcs[0][1]]
            st.pc = tgt
            return 0, None, True, tgt
        if op == "halt":
            return 0, None, None, None
        if op == "barrier":
            return 0, None, None, None
        if op == "vltcfg" or op == "lsync":
            st.pc = next_pc
            return 0, None, None, None

        # ---- thread ids -----------------------------------------------------
        if op == "tid":
            st.write_s(ins.dst[1], st.tid)
            st.pc = next_pc
            return 0, None, None, None
        if op == "ntid":
            st.write_s(ins.dst[1], st.ntid)
            st.pc = next_pc
            return 0, None, None, None

        # ---- vector length --------------------------------------------------
        if op == "setvl":
            req = s[ins.srcs[0][1]]
            vl = max(0, min(req, MVL))
            st.vl = vl
            st.write_s(ins.dst[1], vl)
            st.pc = next_pc
            return 0, None, None, None

        # ---- vector ---------------------------------------------------------
        if sp.is_vector:
            result = self._execute_vector(st, ins, mem)
            st.pc = next_pc
            return result

        raise ExecutionError(f"no handler for opcode {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------

    def _execute_vector(self, st: ThreadState, ins: Instr, mem: Memory):
        """Execute one vector instruction; returns (vl, addrs, None, None)."""
        op = ins.op
        sp = ins.spec
        vl = st.vl
        s, f = st.s, st.f
        v_i, v_f = st.v_i, st.v_f

        # Split family and form for arithmetic mnemonics like "vfadd.vs".
        if "." in op:
            fam, form = op.rsplit(".", 1)
        else:
            fam, form = op, ""

        def write_i(res: np.ndarray) -> None:
            d = ins.dst[1]
            if ins.masked:
                m = st.vm[:vl]
                np.copyto(v_i[d, :vl], res.astype(np.int64, copy=False),
                          where=m)
            else:
                v_i[d, :vl] = res

        def write_f(res: np.ndarray) -> None:
            d = ins.dst[1]
            if ins.masked:
                m = st.vm[:vl]
                np.copyto(v_f[d, :vl], res.astype(np.float64, copy=False),
                          where=m)
            else:
                v_f[d, :vl] = res

        # -- integer arithmetic --
        fn = _VINT_BIN.get(fam)
        if fn is not None or fam == "vrsub":
            a = v_i[ins.srcs[0][1], :vl]
            if form == "vv":
                b = v_i[ins.srcs[1][1], :vl]
            else:
                b = np.int64(s[ins.srcs[1][1]])
            if fam == "vrsub":
                res = b - a
            else:
                res = fn(a, b)
            write_i(np.asarray(res, dtype=np.int64))
            return vl, None, None, None

        # -- FP arithmetic --
        fn = _VFP_BIN.get(fam)
        if fn is not None or fam == "vfrsub":
            a = v_f[ins.srcs[0][1], :vl]
            if form == "vv":
                b = v_f[ins.srcs[1][1], :vl]
            else:
                b = np.float64(f[ins.srcs[1][1]])
            res = (b - a) if fam == "vfrsub" else fn(a, b)
            write_f(np.asarray(res, dtype=np.float64))
            return vl, None, None, None

        if fam in ("vfsqrt", "vfneg", "vfabs"):
            a = v_f[ins.srcs[0][1], :vl]
            if fam == "vfsqrt":
                res = np.sqrt(np.where(a >= 0, a, np.nan))
            elif fam == "vfneg":
                res = -a
            else:
                res = np.abs(a)
            write_f(res)
            return vl, None, None, None

        if fam == "vitof":
            write_f(v_i[ins.srcs[0][1], :vl].astype(np.float64))
            return vl, None, None, None
        if fam == "vftoi":
            a = v_f[ins.srcs[0][1], :vl]
            safe = np.where(np.isfinite(a), a, 0.0)
            write_i(np.trunc(safe).astype(np.int64))
            return vl, None, None, None

        if fam == "vmv" and form == "v":
            write_i(v_i[ins.srcs[0][1], :vl])
            return vl, None, None, None
        if fam == "vmv" and form == "s":
            write_i(np.full(vl, s[ins.srcs[0][1]], dtype=np.int64))
            return vl, None, None, None
        if fam == "vfmv":
            write_f(np.full(vl, f[ins.srcs[0][1]], dtype=np.float64))
            return vl, None, None, None

        # -- compares into the mask register --
        fn = _VINT_CMP.get(fam)
        if fn is not None:
            a = v_i[ins.srcs[0][1], :vl]
            b = (v_i[ins.srcs[1][1], :vl] if form == "vv"
                 else np.int64(s[ins.srcs[1][1]]))
            st.vm[:vl] = fn(a, b)
            st.vm[vl:] = False
            return vl, None, None, None
        fn = _VFP_CMP.get(fam)
        if fn is not None:
            a = v_f[ins.srcs[0][1], :vl]
            b = (v_f[ins.srcs[1][1], :vl] if form == "vv"
                 else np.float64(f[ins.srcs[1][1]]))
            st.vm[:vl] = fn(a, b)
            st.vm[vl:] = False
            return vl, None, None, None

        # -- merge / mask ops --
        if fam == "vmerge":
            a = v_i[ins.srcs[0][1], :vl]
            b = (v_i[ins.srcs[1][1], :vl] if form == "vv"
                 else np.int64(s[ins.srcs[1][1]]))
            v_i[ins.dst[1], :vl] = np.where(st.vm[:vl], a, b)
            return vl, None, None, None
        if fam == "vfmerge":
            a = v_f[ins.srcs[0][1], :vl]
            b = np.float64(f[ins.srcs[1][1]])
            v_f[ins.dst[1], :vl] = np.where(st.vm[:vl], a, b)
            return vl, None, None, None
        if op == "vmpop":
            st.write_s(ins.dst[1], int(np.count_nonzero(st.vm[:vl])))
            return vl, None, None, None
        if op == "vmfirst":
            nz = np.nonzero(st.vm[:vl])[0]
            st.write_s(ins.dst[1], int(nz[0]) if nz.size else -1)
            return vl, None, None, None
        if op == "viota.m":
            m = st.vm[:vl].astype(np.int64)
            iota = np.concatenate(([0], np.cumsum(m)[:-1])) if vl else m
            v_i[ins.dst[1], :vl] = iota
            return vl, None, None, None
        if op == "vid.v":
            write_i(np.arange(vl, dtype=np.int64))
            return vl, None, None, None
        if op == "vcompress.m":
            src = v_i[ins.srcs[0][1], :vl][st.vm[:vl]]
            v_i[ins.dst[1], :src.size] = src
            return vl, None, None, None

        # -- reductions --
        if sp.is_reduction:
            active = st.active_mask(ins.masked)
            if op.startswith("vf"):
                vals = v_f[ins.srcs[0][1], :vl][active]
                if op == "vfredsum":
                    f[ins.dst[1]] = float(vals.sum()) if vals.size else 0.0
                elif op == "vfredmin":
                    f[ins.dst[1]] = float(vals.min()) if vals.size else math.inf
                else:
                    f[ins.dst[1]] = float(vals.max()) if vals.size else -math.inf
            else:
                vals = v_i[ins.srcs[0][1], :vl][active]
                if op == "vredsum":
                    st.write_s(ins.dst[1],
                               int(vals.sum(dtype=np.int64)) if vals.size else 0)
                elif op == "vredmin":
                    st.write_s(ins.dst[1],
                               int(vals.min()) if vals.size else _I64_MAX)
                else:
                    st.write_s(ins.dst[1],
                               int(vals.max()) if vals.size else _I64_MIN)
            return vl, None, None, None

        # -- element insert / extract --
        if op in ("vext", "vfext", "vins", "vfins"):
            idx = s[ins.srcs[1][1]]
            if not 0 <= idx < MVL:
                raise ExecutionError(
                    f"element index {idx} out of range at pc {ins.pc}")
            if op == "vext":
                st.write_s(ins.dst[1], int(v_i[ins.srcs[0][1], idx]))
            elif op == "vfext":
                f[ins.dst[1]] = float(v_f[ins.srcs[0][1], idx])
            elif op == "vins":
                # scalar registers are already wrapped to 64-bit signed
                v_i[ins.dst[1], idx] = np.int64(s[ins.srcs[0][1]])
            else:
                v_f[ins.dst[1], idx] = f[ins.srcs[0][1]]
            return vl, None, None, None

        # -- vector memory --
        if sp.pool == "vmem":
            off, base = ins.mem
            base_addr = s[base[1]] + off
            if sp.mem_stride:
                stride = s[ins.stride[1]]
                addrs = base_addr + stride * np.arange(vl, dtype=np.int64)
            elif sp.mem_indexed:
                addrs = base_addr + v_i[ins.vidx[1], :vl]
            else:
                addrs = base_addr + 8 * np.arange(vl, dtype=np.int64)
            if ins.masked:
                active = st.vm[:vl]
                act_addrs = addrs[active]
            else:
                active = None
                act_addrs = addrs
            if sp.is_load:
                d = ins.dst[1]
                if active is None:
                    v_i[d, :vl] = mem.gather_i64(addrs)
                else:
                    v_i[d, :vl][active] = mem.gather_i64(act_addrs)
            else:
                src = v_i[ins.srcs[0][1], :vl]
                if active is None:
                    mem.scatter_i64(addrs, src)
                else:
                    mem.scatter_i64(act_addrs, src[active])
            return vl, act_addrs.astype(np.int64, copy=True), None, None

        raise ExecutionError(  # pragma: no cover
            f"no vector handler for opcode {op!r}")
