"""Fast functional engine: block-compiled trace generation.

The reference interpreter in :mod:`repro.functional.executor` dispatches
every dynamic instruction through dict lookups and per-op attribute
reads.  This module keeps the reference executor as the oracle and adds
:class:`FastExecutor`, which must produce bit-identical traces (npz
bytes included) and final architectural state while being an order of
magnitude faster.

How it gets there:

* **Decode once.**  The program is pre-decoded into basic blocks
  (leaders at pc 0, branch targets, and the successors of
  branch/barrier/halt).  Each block is compiled -- via ``compile``/
  ``exec`` of generated Python -- into one specialized closure with
  every operand index, immediate, and successor block id baked in as a
  literal.  Executing a block is a single Python call; there is no
  per-op dispatch, no ``Instr`` attribute traffic, and no per-op
  ``DynOp`` allocation.  Decoded programs are cached by content digest,
  so sweeps over many configs decode each program once per process.
* **Vector ops stay NumPy.**  The generated code manipulates the same
  ``ThreadState`` register file as the reference executor (vector
  registers are ``(NUM_VREGS, MVL)`` int64 with a float64 view), so
  vector instructions execute as single array expressions under
  mask/VL, exactly mirroring the reference semantics.
* **Trace-layout emission.**  Executing threads record only a list of
  block ids (the *block path*) plus four sparse dynamic side-channels
  (``setvl`` values, ``jr`` targets, ambiguous branch outcomes, memory
  addresses).  After execution the thread's trace layout is built: one
  row per distinct pc of the path from the per-pc static tables, each
  op's pc by one vectorised gather over the path, and the sparse
  fields (VLs, branch outcomes, ``jr`` targets, addresses) from the
  side-channels; the ``List[DynOp]`` form is never built unless someone
  asks for it.  Threads of a phase whose control flow agreed
  (identical block paths -- the common SPMD case) share one expansion;
  divergent threads fall back to their own.

Execution order across threads is phase-serial, identical to the
reference executor: thread 0 runs to its barrier, then thread 1, and so
on.  Any cross-thread lock-stepping would reorder memory accesses
relative to the oracle and break the bit-identity guarantee for racy
programs, so "batching" here means shared decode and shared trace
expansion, never interleaved execution.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..isa.program import Instr, Program
from ..isa.registers import MVL, reg_uid
from .executor import (ExecutionError, _fdiv, _offsets, _sdiv, _srem, _srl,
                       _vdiv, _vrem, _vsrl)
from .memory import Memory, MemoryFault, MisalignedAccess
from .state import ThreadState
from .trace import ProgramTrace, ThreadTrace, decode_static

_MASK64 = 0xFFFFFFFFFFFFFFFF
_WRAP_LO = "0x8000000000000000"
_WRAP_HI = "0x10000000000000000"

# --------------------------------------------------------------------------
# Code generation
# --------------------------------------------------------------------------
#
# Expression templates for scalar integer ops.  ``{a}``/``{b}`` are the
# operand expressions; a second table says whether the raw Python-int
# result can leave the signed-64 range and needs the writeback wrap.

_INT_EXPR = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "div": "_sdiv({a}, {b})", "rem": "_srem({a}, {b})",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
    "sll": "{a} << ({b} & 63)", "srl": "_srl({a}, {b})",
    "sra": "{a} >> ({b} & 63)",
    "slt": "1 if {a} < {b} else 0", "sle": "1 if {a} <= {b} else 0",
    "seq": "1 if {a} == {b} else 0", "sne": "1 if {a} != {b} else 0",
    "min": "{a} if {a} <= {b} else {b}", "max": "{a} if {a} >= {b} else {b}",
}
#: ops whose result may leave [-2^63, 2^63): they go through the wrap
_INT_WRAP = frozenset(("add", "sub", "mul", "div", "sll", "srl"))

_INT_IMM_BASE = {"addi": "add", "muli": "mul", "andi": "and", "ori": "or",
                 "xori": "xor", "slli": "sll", "srli": "srl", "srai": "sra",
                 "slti": "slt"}

_FP_EXPR = {
    "fadd": "{a} + {b}", "fsub": "{a} - {b}", "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
    "fmin": "min({a}, {b})", "fmax": "max({a}, {b})",
}
_FP_CMP_OP = {"feq": "==", "flt": "<", "fle": "<="}
_BRANCH_OP = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">="}

_VINT_EXPR = {
    "vadd": "{a} + {b}", "vsub": "{a} - {b}", "vmul": "{a} * {b}",
    "vdiv": "_vdiv({a}, {b})", "vrem": "_vrem({a}, {b})",
    "vand": "{a} & {b}", "vor": "{a} | {b}", "vxor": "{a} ^ {b}",
    "vsll": "np.left_shift({a}, np.asarray({b}) & 63)",
    "vsrl": "_vsrl({a}, {b})",
    "vsra": "{a} >> (np.asarray({b}) & 63)",
    "vmin": "np.minimum({a}, {b})", "vmax": "np.maximum({a}, {b})",
    "vrsub": "{b} - {a}",
}
_VFP_EXPR = {
    "vfadd": "{a} + {b}", "vfsub": "{a} - {b}", "vfmul": "{a} * {b}",
    "vfdiv": "np.divide({a}, {b})",
    "vfmin": "np.minimum({a}, {b})", "vfmax": "np.maximum({a}, {b})",
    "vfrsub": "{b} - {a}",
}
_VINT_CMP_OP = {"vseq": "==", "vsne": "!=", "vslt": "<", "vsle": "<="}
_VFP_CMP_OP = {"vfeq": "==", "vflt": "<", "vfle": "<="}

# unmasked binary vector arithmetic fuses into a single ufunc call
# writing straight into the destination row (no temporary, no cast);
# element-wise ufuncs are alias-safe for dst == src
_VINT_FUSED = {
    "vadd": "np.add({a}, {b}, out={o})",
    "vsub": "np.subtract({a}, {b}, out={o})",
    "vmul": "np.multiply({a}, {b}, out={o})",
    "vand": "np.bitwise_and({a}, {b}, out={o})",
    "vor": "np.bitwise_or({a}, {b}, out={o})",
    "vxor": "np.bitwise_xor({a}, {b}, out={o})",
    "vmin": "np.minimum({a}, {b}, out={o})",
    "vmax": "np.maximum({a}, {b}, out={o})",
    "vrsub": "np.subtract({b}, {a}, out={o})",
    "vsll": "np.left_shift({a}, np.asarray({b}) & 63, out={o})",
    "vsra": "np.right_shift({a}, np.asarray({b}) & 63, out={o})",
}
_VFP_FUSED = {
    "vfadd": "np.add({a}, {b}, out={o})",
    "vfsub": "np.subtract({a}, {b}, out={o})",
    "vfmul": "np.multiply({a}, {b}, out={o})",
    "vfdiv": "np.divide({a}, {b}, out={o})",
    "vfmin": "np.minimum({a}, {b}, out={o})",
    "vfmax": "np.maximum({a}, {b}, out={o})",
    "vfrsub": "np.subtract({b}, {a}, out={o})",
}


def _wrap_write(dst: int, expr: str, out: List[str]) -> None:
    """Emit a wrapped scalar-int register write (s0 writes discarded)."""
    if dst == 0:
        return
    out.append(f"_x = ({expr}) & {hex(_MASK64)}")
    out.append(f"S[{dst}] = _x - {_WRAP_HI} if _x >= {_WRAP_LO} else _x")


def _plain_write(dst: int, expr: str, out: List[str]) -> None:
    """Emit an in-range scalar-int register write (s0 writes discarded)."""
    if dst != 0:
        out.append(f"S[{dst}] = {expr}")


def _addr_expr(ins: Instr) -> str:
    off, base = ins.mem
    bi = base[1]
    return f"S[{bi}] + {off}" if off else f"S[{bi}]"


def _write_vec(dst: int, res: str, masked: bool, fp: bool,
               out: List[str]) -> None:
    """Emit a (possibly masked) vector register write of ``res``."""
    reg = "VF" if fp else "VI"
    dt = "np.float64" if fp else "np.int64"
    if masked:
        out.append(f"_r = np.asarray({res}, dtype={dt})")
        out.append(f"np.copyto({reg}[{dst}, :_vl], _r, where=VM[:_vl])")
    else:
        out.append(f"{reg}[{dst}, :_vl] = np.asarray({res}, dtype={dt})")


def _gen_scalar(ins: Instr, out: List[str]) -> bool:
    """Emit body lines for a non-control scalar op; returns handled."""
    op = ins.op
    expr = _INT_EXPR.get(op)
    if expr is not None:
        e = expr.format(a=f"S[{ins.srcs[0][1]}]", b=f"S[{ins.srcs[1][1]}]")
        if op in _INT_WRAP:
            _wrap_write(ins.dst[1], e, out)
        else:
            _plain_write(ins.dst[1], e, out)
        return True
    base = _INT_IMM_BASE.get(op)
    if base is not None:
        e = _INT_EXPR[base].format(a=f"S[{ins.srcs[0][1]}]", b=repr(ins.imm))
        if base in _INT_WRAP:
            _wrap_write(ins.dst[1], e, out)
        else:
            _plain_write(ins.dst[1], e, out)
        return True
    if op == "li":
        v = ins.imm & _MASK64
        if v >= 0x8000000000000000:
            v -= 0x10000000000000000
        _plain_write(ins.dst[1], repr(v), out)
        return True
    if op in ("nop", "vltcfg", "lsync"):
        return True
    expr = _FP_EXPR.get(op)
    if expr is not None:
        out.append(f"F[{ins.dst[1]}] = " + expr.format(
            a=f"F[{ins.srcs[0][1]}]", b=f"F[{ins.srcs[1][1]}]"))
        return True
    if op == "fsqrt":
        out.append(f"_a = F[{ins.srcs[0][1]}]")
        out.append(f"F[{ins.dst[1]}] = "
                   "math.sqrt(_a) if _a >= 0.0 else math.nan")
        return True
    if op == "fabs":
        out.append(f"F[{ins.dst[1]}] = abs(F[{ins.srcs[0][1]}])")
        return True
    if op == "fneg":
        out.append(f"F[{ins.dst[1]}] = -F[{ins.srcs[0][1]}]")
        return True
    if op == "fmv":
        out.append(f"F[{ins.dst[1]}] = F[{ins.srcs[0][1]}]")
        return True
    cmp = _FP_CMP_OP.get(op)
    if cmp is not None:
        _plain_write(
            ins.dst[1],
            f"1 if F[{ins.srcs[0][1]}] {cmp} F[{ins.srcs[1][1]}] else 0",
            out)
        return True
    if op == "fli":
        out.append(f"F[{ins.dst[1]}] = {float(ins.imm)!r}")
        return True
    if op == "itof":
        out.append(f"F[{ins.dst[1]}] = float(S[{ins.srcs[0][1]}])")
        return True
    if op == "ftoi":
        if ins.dst[1] == 0:
            return True     # pure; write to s0 is discarded
        out.append(f"_a = F[{ins.srcs[0][1]}]")
        out.append("if _a != _a or _a == math.inf or _a == -math.inf:")
        out.append(f"    _x = -{_WRAP_LO}")
        out.append("else:")
        out.append("    _x = int(_a)")
        out.append("    if _x > 0x7FFFFFFFFFFFFFFF:")
        out.append("        _x = 0x7FFFFFFFFFFFFFFF")
        out.append(f"    elif _x < -{_WRAP_LO}:")
        out.append(f"        _x = -{_WRAP_LO}")
        out.append(f"S[{ins.dst[1]}] = _x")
        return True
    if op in ("ld", "fld", "st", "fst"):
        # inline the aligned/in-range fast path; the slow Memory method
        # is only reached on the fault path, where it raises with the
        # exact reference message
        out.append(f"_a = {_addr_expr(ins)}")
        out.append("if _a & 7 or not 0 <= _a < MEMN:")
        if op == "ld":
            out.append("    LDI(_a)")
            if ins.dst[1] != 0:     # load into s0 still faults above
                out.append(f"S[{ins.dst[1]}] = M64[_a >> 3].item()")
        elif op == "fld":
            out.append("    LDF(_a)")
            out.append(f"F[{ins.dst[1]}] = MF64[_a >> 3].item()")
        elif op == "st":
            out.append(f"    STI(_a, S[{ins.srcs[0][1]}])")
            out.append(f"M64[_a >> 3] = S[{ins.srcs[0][1]}]")
        else:
            out.append(f"    STF(_a, F[{ins.srcs[0][1]}])")
            out.append(f"MF64[_a >> 3] = F[{ins.srcs[0][1]}]")
        out.append("AS_APP(_a)")
        return True
    if op == "tid":
        _plain_write(ins.dst[1], "TID", out)
        return True
    if op == "ntid":
        _plain_write(ins.dst[1], "NTID", out)
        return True
    if op == "setvl":
        out.append(f"_r = S[{ins.srcs[0][1]}]")
        out.append(f"_v = _r if _r < {MVL} else {MVL}")
        out.append("if _v < 0:")
        out.append("    _v = 0")
        out.append("VLC[0] = _v")
        _plain_write(ins.dst[1], "_v", out)
        out.append("VL_APP(_v)")
        return True
    return False


def _gen_vector(ins: Instr, out: List[str]) -> None:
    """Emit body lines for one vector op (mirrors ``_execute_vector``)."""
    op = ins.op
    sp = ins.spec
    if "." in op:
        fam, form = op.rsplit(".", 1)
    else:
        fam, form = op, ""
    out.append("_vl = VLC[0]")

    def vi(r: int) -> str:
        return f"VI[{r}, :_vl]"

    def vf(r: int) -> str:
        return f"VF[{r}, :_vl]"

    expr = _VINT_EXPR.get(fam)
    if expr is not None:
        a = vi(ins.srcs[0][1])
        b = (vi(ins.srcs[1][1]) if form == "vv"
             else f"np.int64(S[{ins.srcs[1][1]}])")
        fused = None if ins.masked else _VINT_FUSED.get(fam)
        if fused is not None:
            out.append(fused.format(a=a, b=b, o=f"VI[{ins.dst[1]}, :_vl]"))
        else:
            _write_vec(ins.dst[1], expr.format(a=a, b=b), ins.masked,
                       False, out)
        return
    expr = _VFP_EXPR.get(fam)
    if expr is not None:
        a = vf(ins.srcs[0][1])
        b = (vf(ins.srcs[1][1]) if form == "vv"
             else f"np.float64(F[{ins.srcs[1][1]}])")
        fused = None if ins.masked else _VFP_FUSED.get(fam)
        if fused is not None:
            out.append(fused.format(a=a, b=b, o=f"VF[{ins.dst[1]}, :_vl]"))
        else:
            _write_vec(ins.dst[1], expr.format(a=a, b=b), ins.masked,
                       True, out)
        return
    if fam in ("vfsqrt", "vfneg", "vfabs"):
        a = vf(ins.srcs[0][1])
        res = {"vfsqrt": f"np.sqrt(np.where({a} >= 0, {a}, np.nan))",
               "vfneg": f"-{a}", "vfabs": f"np.abs({a})"}[fam]
        _write_vec(ins.dst[1], res, ins.masked, True, out)
        return
    if fam == "vitof":
        _write_vec(ins.dst[1], f"{vi(ins.srcs[0][1])}.astype(np.float64)",
                   ins.masked, True, out)
        return
    if fam == "vftoi":
        a = vf(ins.srcs[0][1])
        out.append(f"_a = {a}")
        _write_vec(ins.dst[1],
                   "np.trunc(np.where(np.isfinite(_a), _a, 0.0))"
                   ".astype(np.int64)", ins.masked, False, out)
        return
    if fam == "vmv" and form == "v":
        _write_vec(ins.dst[1], vi(ins.srcs[0][1]), ins.masked, False, out)
        return
    if fam == "vmv" and form == "s":
        _write_vec(ins.dst[1],
                   f"np.full(_vl, S[{ins.srcs[0][1]}], dtype=np.int64)",
                   ins.masked, False, out)
        return
    if fam == "vfmv":
        _write_vec(ins.dst[1],
                   f"np.full(_vl, F[{ins.srcs[0][1]}], dtype=np.float64)",
                   ins.masked, True, out)
        return
    cmp = _VINT_CMP_OP.get(fam)
    if cmp is not None:
        a = vi(ins.srcs[0][1])
        b = (vi(ins.srcs[1][1]) if form == "vv"
             else f"np.int64(S[{ins.srcs[1][1]}])")
        out.append(f"VM[:_vl] = {a} {cmp} {b}")
        out.append("VM[_vl:] = False")
        return
    cmp = _VFP_CMP_OP.get(fam)
    if cmp is not None:
        a = vf(ins.srcs[0][1])
        b = (vf(ins.srcs[1][1]) if form == "vv"
             else f"np.float64(F[{ins.srcs[1][1]}])")
        out.append(f"VM[:_vl] = {a} {cmp} {b}")
        out.append("VM[_vl:] = False")
        return
    if fam == "vmerge":
        a = vi(ins.srcs[0][1])
        b = (vi(ins.srcs[1][1]) if form == "vv"
             else f"np.int64(S[{ins.srcs[1][1]}])")
        out.append(f"VI[{ins.dst[1]}, :_vl] = np.where(VM[:_vl], {a}, {b})")
        return
    if fam == "vfmerge":
        a = vf(ins.srcs[0][1])
        b = f"np.float64(F[{ins.srcs[1][1]}])"
        out.append(f"VF[{ins.dst[1]}, :_vl] = np.where(VM[:_vl], {a}, {b})")
        return
    if op == "vmpop":
        _plain_write(ins.dst[1], "int(np.count_nonzero(VM[:_vl]))", out)
        return
    if op == "vmfirst":
        if ins.dst[1] != 0:
            out.append("_nz = np.nonzero(VM[:_vl])[0]")
            _plain_write(ins.dst[1], "int(_nz[0]) if _nz.size else -1", out)
        return
    if op == "viota.m":
        out.append("_m = VM[:_vl].astype(np.int64)")
        out.append(f"VI[{ins.dst[1]}, :_vl] = (np.concatenate("
                   "([0], np.cumsum(_m)[:-1])) if _vl else _m)")
        return
    if op == "vid.v":
        _write_vec(ins.dst[1], "np.arange(_vl, dtype=np.int64)",
                   ins.masked, False, out)
        return
    if op == "vcompress.m":
        out.append(f"_src = VI[{ins.srcs[0][1]}, :_vl][VM[:_vl]]")
        out.append(f"VI[{ins.dst[1]}, :_src.size] = _src")
        return
    if sp.is_reduction:
        src = ins.srcs[0][1]
        sel = "[VM[:_vl]]" if ins.masked else ""
        if op.startswith("vf"):
            out.append(f"_vals = VF[{src}, :_vl]{sel}")
            res = {"vfredsum": "float(_vals.sum()) if _vals.size else 0.0",
                   "vfredmin":
                       "float(_vals.min()) if _vals.size else math.inf",
                   "vfredmax":
                       "float(_vals.max()) if _vals.size else -math.inf"}[op]
            out.append(f"F[{ins.dst[1]}] = {res}")
        else:
            if ins.dst[1] == 0:
                return      # pure reduction into s0: discarded
            out.append(f"_vals = VI[{src}, :_vl]{sel}")
            res = {"vredsum":
                       "int(_vals.sum(dtype=np.int64)) if _vals.size else 0",
                   "vredmin":
                       "int(_vals.min()) if _vals.size"
                       " else 0x7FFFFFFFFFFFFFFF",
                   "vredmax":
                       f"int(_vals.max()) if _vals.size else -{_WRAP_LO}"}[op]
            out.append(f"S[{ins.dst[1]}] = {res}")
        return
    if op in ("vext", "vfext", "vins", "vfins"):
        out.append(f"_i = S[{ins.srcs[1][1]}]")
        out.append(f"if not 0 <= _i < {MVL}:")
        out.append('    raise ExecutionError('
                   f'"element index %d out of range at pc {ins.pc}" % _i)')
        if op == "vext":
            _plain_write(ins.dst[1], f"int(VI[{ins.srcs[0][1]}, _i])", out)
        elif op == "vfext":
            out.append(f"F[{ins.dst[1]}] = float(VF[{ins.srcs[0][1]}, _i])")
        elif op == "vins":
            out.append(f"VI[{ins.dst[1]}, _i] = np.int64(S[{ins.srcs[0][1]}])")
        else:
            out.append(f"VF[{ins.dst[1]}, _i] = F[{ins.srcs[0][1]}]")
        return
    if sp.pool == "vmem":
        if not sp.mem_stride and not sp.mem_indexed and not ins.masked:
            # unit-stride unmasked: O(1) scalar bounds checks plus a
            # contiguous slice instead of fancy indexing; the raises
            # replicate Memory._vindex (alignment checked first, and a
            # zero-vl access checks nothing, like an empty gather)
            out.append(f"_b = {_addr_expr(ins)}")
            out.append("if _vl:")
            out.append("    if _b & 7:")
            out.append("        raise MisalignedAccess("
                       "'vector address %#x not aligned' % _b)")
            out.append("    if _b < 0 or _b + 8 * _vl > MEMN:")
            out.append("        raise MemoryFault("
                       "'vector access outside memory image')")
            out.append("    _lo = _b >> 3")
            if sp.is_load:
                out.append(f"    VI[{ins.dst[1]}, :_vl] = M64[_lo:_lo + _vl]")
            else:
                out.append(f"    M64[_lo:_lo + _vl] = "
                           f"VI[{ins.srcs[0][1]}, :_vl]")
            out.append("AV_APP(_b + _A8[:_vl])")
            return
        if sp.mem_stride:
            out.append(f"_ad = {_addr_expr(ins)} + "
                       f"S[{ins.stride[1]}] * _AR[:_vl]")
        elif sp.mem_indexed:
            out.append(f"_ad = {_addr_expr(ins)} + VI[{ins.vidx[1]}, :_vl]")
        else:
            out.append(f"_ad = {_addr_expr(ins)} + 8 * _AR[:_vl]")
        if ins.masked:
            out.append("_m = VM[:_vl]")
            out.append("_aa = _ad[_m]")
            if sp.is_load:
                out.append(f"VI[{ins.dst[1]}, :_vl][_m] = GATH(_aa)")
            else:
                out.append(f"SCAT(_aa, VI[{ins.srcs[0][1]}, :_vl][_m])")
            out.append("AV_APP(_aa.astype(np.int64, copy=True))")
        else:
            if sp.is_load:
                out.append(f"VI[{ins.dst[1]}, :_vl] = GATH(_ad)")
            else:
                out.append(f"SCAT(_ad, VI[{ins.srcs[0][1]}, :_vl])")
            out.append("AV_APP(_ad.astype(np.int64, copy=True))")
        return
    raise ExecutionError(  # pragma: no cover
        f"no fast-engine handler for vector opcode {op!r}")


# --------------------------------------------------------------------------
# Decoded program: basic blocks compiled to specialized closures
# --------------------------------------------------------------------------

_FACTORY_PRELUDE = """\
def _make(env):
    S = env["s"]; F = env["f"]; VI = env["vi"]; VF = env["vf"]
    VM = env["vm"]; VLC = env["vlc"]
    LDI = env["ldi"]; STI = env["sti"]; LDF = env["ldf"]; STF = env["stf"]
    GATH = env["gath"]; SCAT = env["scat"]
    M64 = env["m64"]; MF64 = env["mf64"]; MEMN = env["memn"]
    AS_APP = env["as_app"]; AV_APP = env["av_app"]; VL_APP = env["vl_app"]
    JR_APP = env["jr_app"]; AMB_APP = env["amb_app"]
    RPT_APP = env["rpt_app"]
    TID = env["tid"]; NTID = env["ntid"]; BAT = env["bat"]
    def _blk():
"""


class _Block:
    """One compiled basic block."""

    __slots__ = ("start", "pcs", "factory", "source", "end_pc")

    def __init__(self, start: int, pcs: np.ndarray,
                 factory: Callable, source: str):
        self.start = start
        self.pcs = pcs          # int64 array of static pcs, in order
        self.end_pc = int(pcs[-1])
        self.factory = factory  # factory(env) -> zero-arg block closure
        self.source = source    # generated Python (debugging aid)


class _DecodedProgram:
    """Per-program static decode shared by all FastExecutor instances."""

    def __init__(self, program: Program):
        self.program = program
        instrs = program.instrs
        n = self.n = len(instrs)

        # -- per-pc static trace fields ----------------------------------
        mnemonics: List[str] = []
        op_gid_of: Dict[str, int] = {}
        op_gid = np.empty(n, dtype=np.int64)
        is_vector = np.zeros(n, dtype=bool)
        is_setvl = np.zeros(n, dtype=bool)
        is_branch = np.zeros(n, dtype=bool)
        is_mem = np.zeros(n, dtype=bool)
        is_vmem = np.zeros(n, dtype=bool)   # vector memory ops
        is_amb = np.zeros(n, dtype=bool)    # cond branch to pc+1
        is_cond = np.zeros(n, dtype=bool)   # cond branch elsewhere
        tgt_base = np.full(n, -1, dtype=np.int64)
        imm_base = np.full(n, -1, dtype=np.int64)
        for pc, ins in enumerate(instrs):
            sp = ins.spec
            gid = op_gid_of.get(ins.op)
            if gid is None:
                gid = op_gid_of[ins.op] = len(mnemonics)
                mnemonics.append(ins.op)
            op_gid[pc] = gid
            is_vector[pc] = sp.is_vector
            is_setvl[pc] = sp.writes_vl
            is_branch[pc] = sp.is_branch
            if ins.mem is not None:
                is_mem[pc] = True
                is_vmem[pc] = sp.is_vector
            if sp.is_branch and ins.op != "jr":     # jr: dynamic target
                tgt_base[pc] = ins.target
                cond = not sp.is_uncond             # j / jal: always taken
                # a branch to pc+1 records its outcome; any other takes
                # it from the next pc
                is_amb[pc] = cond and ins.target == pc + 1
                is_cond[pc] = cond and ins.target != pc + 1
            if sp.is_vltcfg:
                imm_base[pc] = ins.imm
        self.mnemonics = mnemonics
        self.op_gid = op_gid
        self.is_vector = is_vector
        self.is_setvl = is_setvl
        self.is_branch = is_branch
        self.is_mem = is_mem
        self.is_vmem = is_vmem
        self.is_amb = is_amb
        self.is_cond = is_cond
        self.tgt_base = tgt_base
        self.imm_base = imm_base
        self.reads = [tuple(reg_uid(x) for x in ins.reads())
                      for ins in instrs]
        self.writes = [tuple(reg_uid(x) for x in ins.writes())
                       for ins in instrs]

        # -- basic blocks -------------------------------------------------
        leaders = {0}
        for pc, ins in enumerate(instrs):
            sp = ins.spec
            if sp.is_branch or sp.is_barrier or sp.is_halt:
                if pc + 1 < n:
                    leaders.add(pc + 1)
            if sp.is_branch and isinstance(ins.target, int):
                leaders.add(ins.target)
        self.leaders = leaders
        self.blocks: List[_Block] = []
        self.blk_len: List[int] = []
        self.is_rep: List[bool] = []    # self-loop blocks (see below)
        self.bid_by_start: Dict[int, int] = {}
        self._flat = None       # (pcs_flat, blk_off, blk_len_arr) cache
        # cross-run expansion cache: path bytes -> the path's pcs, rows
        # and sparse-field positions.  The expansion depends only on the
        # decoded program and the block path, so repeated cold runs
        # (config sweeps re-generating the same trace) skip it entirely.
        # Bounded by total cached ops; oversized paths are never cached.
        self.expand_cache: Dict[bytes, Dict[str, object]] = {}
        self.expand_cached_ops = 0
        self._g = {"np": np, "math": __import__("math"),
                   "_sdiv": _sdiv, "_srem": _srem, "_srl": _srl,
                   "_fdiv": _fdiv, "_vdiv": _vdiv, "_vrem": _vrem,
                   "_vsrl": _vsrl, "ExecutionError": ExecutionError,
                   "MisalignedAccess": MisalignedAccess,
                   "MemoryFault": MemoryFault,
                   "_AR": np.arange(MVL, dtype=np.int64),
                   "_A8": 8 * np.arange(MVL, dtype=np.int64)}
        starts = sorted(leaders)
        # two passes: assign bids first so branch codegen can bake
        # successor bids in as literals
        spans = [self._block_span(s) for s in starts]
        for bid, (s, _) in enumerate(zip(starts, spans)):
            self.bid_by_start[s] = bid
        for s, span in zip(starts, spans):
            self._append_block(s, span)

    # -- block construction -----------------------------------------------

    def _block_span(self, start: int) -> List[int]:
        """The pcs of the block starting at ``start``."""
        pcs = []
        pc = start
        instrs = self.program.instrs
        while True:
            pcs.append(pc)
            sp = instrs[pc].spec
            if sp.is_branch or sp.is_barrier or sp.is_halt:
                break
            if pc + 1 >= self.n or (pc + 1) in self.leaders:
                break
            pc += 1
        return pcs

    def _append_block(self, start: int, pcs: List[int]) -> int:
        instrs = self.program.instrs
        body: List[str] = []
        last = instrs[pcs[-1]]
        sp = last.spec
        rep = (sp.is_branch and last.op in _BRANCH_OP
               and last.target == start)
        for pc in pcs[:-1] if (sp.is_branch or sp.is_barrier or sp.is_halt) \
                else pcs:
            self._gen_one(instrs[pc], body)
        if rep:
            body = self._wrap_rep(last, body)
        elif sp.is_halt:
            body.append("return -1")
        elif sp.is_barrier:
            body.append("return -2")
        elif sp.is_branch:
            self._gen_branch(last, body)
        else:
            # plain fallthrough to the next leader (or off the end)
            nxt = pcs[-1] + 1
            if nxt in self.bid_by_start:
                body.append(f"return {self.bid_by_start[nxt]}")
            else:
                body.append(f"return BAT({nxt})")
        src = _FACTORY_PRELUDE + "".join(
            f"        {line}\n" for line in body) + "    return _blk\n"
        bid = len(self.blocks)
        ns: Dict[str, object] = {}
        exec(compile(src, f"<vlt-fast:{self.program.name}:b{bid}>", "exec"),
             self._g, ns)
        self.blocks.append(_Block(start, np.asarray(pcs, dtype=np.int64),
                                  ns["_make"], src))
        self.blk_len.append(len(pcs))
        self.is_rep.append(rep)
        self._flat = None
        return bid

    #: per-dispatch iteration cap for self-loop blocks: bounds a single
    #: closure call so the driver's max_ops budget keeps getting checked
    _REP_CAP = 4096

    def _wrap_rep(self, last: Instr, body: List[str]) -> List[str]:
        """Wrap a self-loop block body in an in-closure iteration loop.

        A basic block whose conditional terminator branches back to its
        own start (the classic tight scalar loop) iterates entirely
        inside one compiled closure, recording only an iteration count
        (``RPT_APP``); trace expansion replays the count with
        ``np.repeat``.  The per-dispatch cap keeps runaway loops
        answerable to the driver's instruction budget.
        """
        cmp = _BRANCH_OP[last.op]
        cond = f"S[{last.srcs[0][1]}] {cmp} S[{last.srcs[1][1]}]"
        self_bid = self.bid_by_start[last.target]
        nxt = last.pc + 1
        fall = (f"return {self.bid_by_start[nxt]}"
                if nxt in self.bid_by_start else f"return BAT({nxt})")
        out = ["_n = 0", "while True:"]
        out.extend(f"    {line}" for line in body)
        out.extend([
            "    _n += 1",
            f"    if not ({cond}):",
            "        RPT_APP(_n)",
            f"        {fall}",
            f"    if _n == {self._REP_CAP}:",
            "        RPT_APP(_n)",
            f"        return {self_bid}",
        ])
        return out

    def _gen_one(self, ins: Instr, body: List[str]) -> None:
        if ins.spec.is_vector:
            _gen_vector(ins, body)
        elif not _gen_scalar(ins, body):
            raise ExecutionError(    # pragma: no cover
                f"no fast-engine handler for opcode {ins.op!r}")

    def _gen_branch(self, ins: Instr, body: List[str]) -> None:
        op = ins.op
        if op == "j":
            body.append(f"return {self.bid_by_start[ins.target]}")
            return
        if op == "jal":
            _plain_write(ins.dst[1], repr(ins.pc + 1), body)
            body.append(f"return {self.bid_by_start[ins.target]}")
            return
        if op == "jr":
            body.append(f"_t = S[{ins.srcs[0][1]}]")
            body.append("JR_APP(_t)")
            body.append("return BAT(_t)")
            return
        cmp = _BRANCH_OP[op]
        cond = f"S[{ins.srcs[0][1]}] {cmp} S[{ins.srcs[1][1]}]"
        bid_t = self.bid_by_start[ins.target]
        if ins.target == ins.pc + 1:
            # taken and fall-through coincide: record the outcome
            body.append(f"AMB_APP(1 if {cond} else 0)")
            body.append(f"return {bid_t}")
        else:
            nxt = ins.pc + 1
            if nxt in self.bid_by_start:
                body.append(f"return {bid_t} if {cond} else "
                            f"{self.bid_by_start[nxt]}")
            else:       # branch is the program's last instruction
                body.append(f"if {cond}:")
                body.append(f"    return {bid_t}")
                body.append(f"return BAT({nxt})")

    # -- dynamic entry points ----------------------------------------------

    def bid_at(self, pc: int, tid: int) -> int:
        """Block id for an execution entering at ``pc``.

        Leaders resolve directly; a ``jr`` into the middle of a block
        lazily synthesizes (and memoises) a sub-block starting there.
        """
        bid = self.bid_by_start.get(pc)
        if bid is not None:
            return bid
        if not 0 <= pc < self.n:
            raise ExecutionError(f"thread {tid} jumped to invalid pc {pc}")
        bid = self._append_block(pc, self._block_span(pc))
        self.bid_by_start[pc] = bid
        return bid

    def flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pcs_flat, blk_off, blk_len) arrays over all current blocks."""
        if self._flat is None:
            lens = np.asarray(self.blk_len, dtype=np.int64)
            off = np.zeros(lens.size, dtype=np.int64)
            np.cumsum(lens[:-1], out=off[1:])
            pcs = np.concatenate([b.pcs for b in self.blocks])
            self._flat = (pcs.astype(np.int32), off, lens)
        return self._flat


#: decoded-program cache, keyed by program content digest
_decoded_cache: Dict[str, _DecodedProgram] = {}
_DECODED_CACHE_MAX = 256

#: expansion-cache bounds: skip paths above the per-path op limit and
#: stop caching once a program has this many ops cached in total
_EXPAND_CACHE_PATH_OPS = 100_000
_EXPAND_CACHE_TOTAL_OPS = 400_000


def decoded_for(program: Program) -> _DecodedProgram:
    """The (cached) static decode of ``program``."""
    key = program.digest()
    dp = _decoded_cache.get(key)
    if dp is None:
        if len(_decoded_cache) >= _DECODED_CACHE_MAX:
            _decoded_cache.clear()
        dp = _decoded_cache[key] = _DecodedProgram(program)
    return dp


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------

class _ThreadRun:
    """Per-thread runtime for one FastExecutor run."""

    __slots__ = ("st", "env", "fns", "path", "vls", "jrs", "ambs", "reps",
                 "addrs_s", "addrs_v", "ops_executed")

    def __init__(self, st: ThreadState, mem: Memory, dp: _DecodedProgram):
        self.st = st
        self.path: List[int] = []
        self.vls: List[int] = []
        self.jrs: List[int] = []
        self.ambs: List[int] = []
        self.reps: List[int] = []       # iteration counts of rep blocks
        self.addrs_s: List[int] = []    # scalar memory addresses
        self.addrs_v: List[np.ndarray] = []     # vector address arrays
        self.ops_executed = 0
        tid = st.tid
        self.env = {
            "s": st.s, "f": st.f, "vi": st.v_i, "vf": st.v_f, "vm": st.vm,
            "vlc": [st.vl],
            "ldi": mem.load_i64, "sti": mem.store_i64,
            "ldf": mem.load_f64, "stf": mem.store_f64,
            "gath": mem.gather_i64, "scat": mem.scatter_i64,
            "m64": mem.i64, "mf64": mem.f64, "memn": mem.nbytes,
            "as_app": self.addrs_s.append, "av_app": self.addrs_v.append,
            "vl_app": self.vls.append,
            "jr_app": self.jrs.append, "amb_app": self.ambs.append,
            "rpt_app": self.reps.append,
            "tid": tid, "ntid": st.ntid,
            "bat": lambda pc, _dp=dp, _tid=tid: _dp.bid_at(pc, _tid),
        }
        self.fns: List[Callable[[], int]] = []


class FastExecutor:
    """Drop-in fast replacement for :class:`~.executor.Executor`.

    Same constructor signature, same ``run()`` contract, same ``states``
    / ``mem`` surface for final-state inspection -- but trace generation
    runs over pre-compiled basic blocks and emits the trace layout
    directly.  Verified bit-identical (npz bytes, digests, final state)
    against the reference executor; see ``tests/test_fast_executor.py``
    and the ``func-diff`` CI job.
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
        self._dp = decoded_for(program)
        self._threads = [_ThreadRun(st, self.mem, self._dp)
                         for st in self.states]

    # ------------------------------------------------------------------

    def run(self) -> ProgramTrace:
        """Run all threads to completion; returns the program trace,
        which has no threads when ``record_trace`` is False."""
        with np.errstate(all="ignore"):
            while True:
                statuses = []
                for tr in self._threads:
                    if tr.st.halted:
                        statuses.append("halt")
                        continue
                    statuses.append(self._run_phase(tr))
                if all(s == "halt" for s in statuses):
                    break
                if any(s == "halt" for s in statuses):
                    raise ExecutionError(
                        f"barrier deadlock in {self.program.name!r}: some "
                        f"threads halted while others wait at a barrier")
        if self.record_trace:
            return self._materialize()
        return ProgramTrace(program_name=self.program.name,
                            num_threads=self.num_threads)

    # ------------------------------------------------------------------

    def _run_phase(self, tr: _ThreadRun) -> str:
        """Execute one thread until it hits a barrier or halts."""
        dp = self._dp
        st = tr.st
        lens = dp.blk_len
        is_rep = dp.is_rep
        reps = tr.reps
        fns = tr.fns
        append = tr.path.append
        n = tr.ops_executed
        budget = self.max_ops
        bid = dp.bid_at(st.pc, st.tid)
        blocks = dp.blocks
        factories_env = tr.env
        while True:
            if bid >= len(fns):
                for b in blocks[len(fns):]:
                    fns.append(b.factory(factories_env))
            append(bid)
            n += lens[bid]
            if n > budget:
                raise ExecutionError(
                    f"thread {st.tid} exceeded {budget} dynamic instructions "
                    f"(infinite loop?) in block at pc {blocks[bid].start}")
            nxt = fns[bid]()
            if is_rep[bid]:
                n += (reps[-1] - 1) * lens[bid]
                if n > budget:
                    raise ExecutionError(
                        f"thread {st.tid} exceeded {budget} dynamic "
                        f"instructions (infinite loop?) in block at pc "
                        f"{blocks[bid].start}")
            if nxt >= 0:
                bid = nxt
                continue
            tr.ops_executed = n
            st.vl = tr.env["vlc"][0]
            if nxt == -2:
                st.barrier_count += 1
                st.pc = blocks[bid].end_pc + 1
                return "barrier"
            st.pc = blocks[bid].end_pc   # parked on the halt, like the oracle
            st.halted = True
            return "halt"

    # ------------------------------------------------------------------
    # Trace-layout materialization
    # ------------------------------------------------------------------

    def _materialize(self) -> ProgramTrace:
        dp = self._dp
        rep_arr = np.asarray(dp.is_rep, dtype=bool)
        shared: Dict[bytes, Dict[str, np.ndarray]] = {}
        threads = []
        for tr in self._threads:
            path = np.asarray(tr.path, dtype=np.int64)
            if tr.reps:
                # rep blocks recorded one path entry per dispatch plus
                # an iteration count: replay the count here
                full = np.ones(path.size, dtype=np.int64)
                full[rep_arr[path]] = tr.reps
                path = np.repeat(path, full)
            key = path.tobytes()
            stat = shared.get(key)
            if stat is None:
                stat = dp.expand_cache.get(key)
            if stat is None:
                stat = self._expand_static(path)
                total = stat["total"]
                if (total <= _EXPAND_CACHE_PATH_OPS
                        and dp.expand_cached_ops + total
                        <= _EXPAND_CACHE_TOTAL_OPS):
                    dp.expand_cache[key] = stat
                    dp.expand_cached_ops += total
            shared[key] = stat
            threads.append(self._thread_columns(tr, stat))
        return ProgramTrace(program_name=self.program.name,
                            num_threads=self.num_threads, threads=threads)

    def _expand_static(self, path: np.ndarray) -> Dict[str, object]:
        """Path-dependent (but thread-independent) expansion: each op's
        pc, the rows, and where the sparse fields come from."""
        dp = self._dp
        pcs_flat, blk_off, blk_len = dp.flat()
        lens = blk_len[path]
        total = int(lens.sum())
        ends = np.cumsum(lens)
        idx = np.repeat(blk_off[path] - (ends - lens), lens) \
            + np.arange(total, dtype=np.int64)
        pcs = pcs_flat[idx]
        del idx

        # rows: the distinct pcs of the path's blocks, in pc order; op
        # ids in order of first appearance, found by scanning each block
        # at its first occurrence (no op of a later occurrence is new)
        bids, first = np.unique(path, return_index=True)
        remap: Dict[int, int] = {}
        for b in bids[np.argsort(first)].tolist():
            for g in dp.op_gid[dp.blocks[b].pcs].tolist():
                remap.setdefault(g, len(remap))
        upcs = np.unique(np.concatenate([dp.blocks[b].pcs for b in bids]))
        reads = [dp.reads[pc] for pc in upcs.tolist()]
        writes = [dp.writes[pc] for pc in upcs.tolist()]
        rows = {
            "row_pcs": upcs.astype(np.int64),
            "row_ops": np.array([remap[g] for g in dp.op_gid[upcs].tolist()],
                                dtype=np.int64),
            "row_imms": dp.imm_base[upcs], "row_tgts": dp.tgt_base[upcs],
            "row_has_addrs": dp.is_mem[upcs].astype(np.int8),
            "row_r_off": _offsets([len(r) for r in reads]),
            "row_r_flat": np.fromiter(chain.from_iterable(reads),
                                      dtype=np.int64),
            "row_w_off": _offsets([len(w) for w in writes]),
            "row_w_flat": np.fromiter(chain.from_iterable(writes),
                                      dtype=np.int64),
        }

        # each vector op's VL is the last setvl's value before it
        vpos = np.flatnonzero(dp.is_vector[pcs])
        spos = np.flatnonzero(dp.is_setvl[pcs])
        bpos = np.flatnonzero(dp.is_branch[pcs])
        bpcs = pcs[bpos]
        takens = np.ones(bpos.size, dtype=np.int8)  # j, jal, jr: taken
        cond = np.flatnonzero(dp.is_cond[bpcs])
        takens[cond] = pcs[bpos[cond] + 1] == dp.tgt_base[bpcs[cond]]
        return {
            "pcs": pcs, "rows": rows,
            "op_table": [dp.mnemonics[g] for g in remap],
            "vl_src": np.searchsorted(spos, vpos, side="right") - 1,
            "takens": takens, "amb": np.flatnonzero(dp.is_amb[bpcs]),
            "mem_vec": dp.is_vmem[pcs[dp.is_mem[pcs]]],
            "total": total,
        }

    def _thread_columns(self, tr: _ThreadRun,
                        stat: Dict[str, object]) -> ThreadTrace:
        vl_src = stat["vl_src"]
        if tr.vls:
            sv = np.asarray(tr.vls, dtype=np.int16)
            vls = np.where(vl_src >= 0, sv[np.maximum(vl_src, 0)],
                           MVL).astype(np.int16, copy=False)
        else:
            vls = np.full(vl_src.size, MVL, dtype=np.int16)
        takens = stat["takens"]
        if tr.ambs:
            takens = takens.copy()
            takens[stat["amb"]] = tr.ambs
        counts, addrs = _addresses(tr, stat["mem_vec"])
        cols = {
            **stat["rows"], "pcs": stat["pcs"], "vls": vls, "takens": takens,
            "jr_tgts": np.asarray(tr.jrs, dtype=np.int32),
            "addr_counts": counts, "addrs": addrs,
        }
        # threads (and runs) that share this expansion share its rows'
        # decode: it depends only on the rows and pcs above
        static = stat.get("static")
        if static is None:
            static = stat["static"] = decode_static(
                {**cols, "op_table": stat["op_table"]})
        return ThreadTrace(tr.st.tid, cols, stat["op_table"], static=static)


def _addresses(tr: _ThreadRun, mem_vec: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The address count of each memory op and the flat addresses, in
    trace order; ``mem_vec`` says which memory ops are vector ones."""
    vecs = tr.addrs_v
    if not vecs:        # scalar memory ops only: one address each
        return (np.ones(mem_vec.size, dtype=np.int16),
                np.asarray(tr.addrs_s, dtype=np.int64))
    vlens = np.fromiter((x.size for x in vecs), dtype=np.int16,
                        count=len(vecs))
    vflat = np.concatenate(vecs)
    if not tr.addrs_s:  # vector memory ops only
        return vlens, vflat
    counts = np.ones(mem_vec.size, dtype=np.int16)
    counts[mem_vec] = vlens
    starts = np.cumsum(counts, dtype=np.int64) - counts
    addrs = np.empty(int(starts[-1]) + int(counts[-1]), dtype=np.int64)
    addrs[starts[~mem_vec]] = tr.addrs_s
    vstarts = starts[mem_vec]
    addrs[np.repeat(vstarts - (np.cumsum(vlens, dtype=np.int64) - vlens),
                    vlens) + np.arange(vflat.size)] = vflat
    return counts, addrs
