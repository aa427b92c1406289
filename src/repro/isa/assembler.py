"""Text assembler for the VLT ISA.

The syntax is a conventional line-oriented assembly::

    .program axpy
    .memory 64                  # data-image size in KiB
    .f64 x 1.0 2.0 3.0 4.0      # initialised f64 array
    .i64 n 4                    # initialised i64 array (one element: 4)
    .space out 32               # zeroed reservation, bytes

        li   s1, 4
        li   s2, &x             # &sym -> address of a data symbol
        li   s3, &out
    loop:
        setvl s4, s1
        vld  v1, 0(s2)
        vfmul.vs v2, v1, f1
        vst  v2, 0(s3)
        sub  s1, s1, s4
        slli s5, s4, 3
        add  s2, s2, s5
        add  s3, s3, s5
        bne  s1, s0, loop
        halt

Comments start with ``#``.  A ``.m`` suffix on a mnemonic requests masked
execution (``vfadd.vs.m``).  Branch targets may be labels or absolute
instruction indices (the form :meth:`repro.isa.program.Program.listing`
emits, so listings re-assemble).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .builder import OperandValue, ProgramBuilder, make_instr
from .program import Program
from .registers import parse_reg

_MEM_RE = re.compile(r"^(-?\w+|&[\w.]+(?:\+\d+)?|)\((\w+)\)$")
_SYM_RE = re.compile(r"^&([\w.]+)(?:\+(\d+))?$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^-?(\d+\.\d*([eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+\.)$")


class AssemblerError(ValueError):
    """Raised with file/line context on any syntax or semantic error."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_int(tok: str) -> int:
    return int(tok, 0)


#: minimum argument count of each data/layout directive
_DIRECTIVE_ARGS = {".memory": 1, ".f64": 1, ".i64": 1, ".space": 2}


class Assembler:
    """Two-pass assembler (labels forward-referenced freely)."""

    def __init__(self) -> None:
        self._builder: Optional[ProgramBuilder] = None

    def assemble(self, source: str, name: str = "program",
                 memory_kib: int = 256) -> Program:
        """Assemble ``source`` into a finalized :class:`Program`."""
        b = ProgramBuilder(name, memory_kib=memory_kib)
        self._builder = b
        pending: List[Tuple[int, str, List[str]]] = []

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.startswith("."):
                    self._directive(b, line)
                    continue
                while ":" in line:
                    lbl, _, rest = line.partition(":")
                    lbl = lbl.strip()
                    if not re.fullmatch(r"[\w.]+", lbl):
                        raise ValueError(f"malformed label {lbl!r}")
                    b.label(lbl)
                    line = rest.strip()
                if not line:
                    continue
                mnemonic, _, operand_text = line.partition(" ")
                operands = ([t.strip() for t in operand_text.split(",")]
                            if operand_text.strip() else [])
                pending.append((lineno, mnemonic.strip(), operands))
            except ValueError as exc:
                raise AssemblerError(lineno, str(exc)) from None

        # Second phase: operand parsing needs the symbol table complete.
        for lineno, mnemonic, operands in pending:
            try:
                values = [self._operand(b, tok) for tok in operands]
                ins = make_instr(mnemonic, values)
                b._instrs.append(ins)
            except (ValueError, TypeError, KeyError) as exc:
                raise AssemblerError(lineno, str(exc)) from None

        # Labels recorded during phase 1 refer to *pending* indices, which
        # match instruction indices because directives emit no code and we
        # appended in order -- but label() already captured b.here at parse
        # time, when _instrs was still empty.  Recompute them.
        self._builder = None
        return self._relabel(b, source)

    # -- internals -----------------------------------------------------------

    def _relabel(self, b: ProgramBuilder, source: str) -> Program:
        """Recompute label positions against the emitted instruction list."""
        b._labels.clear()
        count = 0
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("."):
                continue
            while ":" in line:
                lbl, _, rest = line.partition(":")
                b._labels[lbl.strip()] = count
                line = rest.strip()
            if line:
                count += 1
        return b.build()

    def _directive(self, b: ProgramBuilder, line: str) -> None:
        parts = line.split()
        head, args = parts[0], parts[1:]
        if len(args) < _DIRECTIVE_ARGS.get(head, 0):
            raise ValueError(f"{head} needs {_DIRECTIVE_ARGS[head]} "
                             f"argument(s)")
        if head == ".program":
            b.name = args[0] if args else b.name
        elif head == ".memory":
            b._memory_bytes = _parse_int(args[0]) * 1024
        elif head == ".f64":
            b.data_f64(args[0], [float(t) for t in args[1:]])
        elif head == ".i64":
            b.data_i64(args[0], [_parse_int(t) for t in args[1:]])
        elif head == ".space":
            b.space(args[0], _parse_int(args[1]))
        else:
            raise ValueError(f"unknown directive {head!r}")

    def _operand(self, b: ProgramBuilder, tok: str) -> OperandValue:
        m = _MEM_RE.match(tok)
        if m:
            off_tok, base_tok = m.groups()
            base = parse_reg(base_tok)
            if not off_tok:
                off = 0
            elif off_tok.startswith("&"):
                off = self._symref(b, off_tok)
            else:
                off = _parse_int(off_tok)
            return (off, base)
        if tok.startswith("&"):
            return self._symref(b, tok)
        if _INT_RE.match(tok):
            return _parse_int(tok)
        if _FLOAT_RE.match(tok):
            return float(tok)
        try:
            return parse_reg(tok)
        except ValueError:
            pass
        if re.fullmatch(r"[\w.]+", tok):
            return tok  # label reference
        raise ValueError(f"cannot parse operand {tok!r}")

    def _symref(self, b: ProgramBuilder, tok: str) -> int:
        m = _SYM_RE.match(tok)
        if not m:
            raise ValueError(f"malformed symbol reference {tok!r}")
        name, plus = m.groups()
        return b.addr_of(name) + (int(plus) if plus else 0)


def assemble(source: str, name: str = "program",
             memory_kib: int = 256) -> Program:
    """Convenience wrapper: assemble ``source`` into a :class:`Program`."""
    return Assembler().assemble(source, name=name, memory_kib=memory_kib)
