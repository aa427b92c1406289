"""Text assembler: syntax, directives, symbols, errors."""

import numpy as np
import pytest

from repro.isa import AssemblerError, assemble


class TestBasics:
    def test_minimal_program(self):
        prog = assemble("halt")
        assert len(prog.instrs) == 1
        assert prog.instrs[0].op == "halt"

    def test_comments_and_blank_lines(self):
        prog = assemble("""
        # a comment
        li s1, 5   # trailing comment

        halt
        """)
        assert [i.op for i in prog.instrs] == ["li", "halt"]

    def test_labels(self):
        prog = assemble("""
        li s1, 0
        loop: addi s1, s1, 1
        blt s1, s2, loop
        halt
        """)
        assert prog.labels["loop"] == 1
        assert prog.instrs[2].target == 1

    def test_label_on_own_line(self):
        prog = assemble("""
        j end
        nop
        end:
        halt
        """)
        assert prog.instrs[0].target == 2

    def test_immediates_hex_and_negative(self):
        prog = assemble("""
        li s1, 0x10
        addi s2, s1, -3
        halt
        """)
        assert prog.instrs[0].imm == 16
        assert prog.instrs[1].imm == -3

    def test_float_immediates(self):
        prog = assemble("fli f1, 2.5\nfli f2, 1e3\nhalt")
        assert prog.instrs[0].imm == 2.5
        assert prog.instrs[1].imm == 1000.0

    def test_memory_operands(self):
        prog = assemble("ld s1, 16(s2)\nst s1, 0(s3)\nhalt")
        assert prog.instrs[0].mem == (16, ("s", 2))

    def test_masked_mnemonics(self):
        prog = assemble("vadd.vv.m v1, v2, v3\nhalt")
        assert prog.instrs[0].masked


class TestDirectives:
    def test_data_and_symbol_refs(self):
        prog = assemble("""
        .f64 x 1.0 2.0
        .i64 n 42
        .space buf 128
        li s1, &x
        li s2, &n
        li s3, &buf
        ld s4, &n(s0)
        halt
        """)
        assert prog.instrs[0].imm == prog.symbol_addr("x")
        assert prog.instrs[1].imm == prog.symbol_addr("n")
        assert prog.instrs[3].mem == (prog.symbol_addr("n"), ("s", 0))
        mem = prog.build_memory()
        assert mem.view(np.float64)[prog.symbol_addr("x") // 8] == 1.0
        assert mem.view(np.int64)[prog.symbol_addr("n") // 8] == 42

    def test_symbol_plus_offset(self):
        prog = assemble(""".f64 x 1.0 2.0 3.0
        li s1, &x+16
        halt""")
        assert prog.instrs[0].imm == prog.symbol_addr("x") + 16

    def test_memory_directive(self):
        prog = assemble(".memory 128\nhalt")
        assert prog.memory_bytes == 128 * 1024

    def test_program_name(self):
        prog = assemble(".program mykernel\nhalt")
        assert prog.name == "mykernel"


class TestErrors:
    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as exc:
            assemble("nop\nnop\nbadop s1, s2\nhalt")
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("src", [
        "add s1, s2",                # wrong arity
        "add s1, s2, f3",            # wrong register class
        "ld s1, s2, s3",             # malformed memory operand count
        ".bogus x 1",                # unknown directive
        ".f64",                      # directive missing its arguments
        ".i64",
        ".memory",
        ".space x",
        "li s1, &missing\nhalt",     # unknown symbol
    ])
    def test_rejects(self, src):
        with pytest.raises(AssemblerError):
            assemble(src)

    def test_undefined_label(self):
        with pytest.raises(ValueError):
            assemble("j nowhere\nhalt")


class TestExecutesCorrectly:
    def test_strip_mine_loop(self):
        from tests.conftest import run_asm
        src = """
        .f64 x 1.0 2.0 3.0 4.0 5.0
        .space y 40
        li s1, 5
        li s2, &x
        li s3, &y
        fli f1, 3.0
        loop:
        setvl s4, s1
        vld v1, 0(s2)
        vfmul.vs v2, v1, f1
        vst v2, 0(s3)
        sub s1, s1, s4
        slli s5, s4, 3
        add s2, s2, s5
        add s3, s3, s5
        bne s1, s0, loop
        halt
        """
        _, ex, prog = run_asm(src)
        got = ex.mem.read_f64_array(prog.symbol_addr("y"), 5)
        assert np.allclose(got, np.arange(1.0, 6.0) * 3.0)
