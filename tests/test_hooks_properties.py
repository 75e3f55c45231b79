"""Property tests on CPU hooks and xstate serialization."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.arch.decode import decode_one
from repro.arch.isa import MAX_INSN_LEN
from repro.arch.registers import RegisterFile, XComponent
from repro.cpu.core import XSAVE_AREA_SIZE, xrstor_apply, xsave_serialize
from repro.cpu.hooks import reg_effects
from repro.errors import InvalidOpcode


@given(st.binary(min_size=1, max_size=MAX_INSN_LEN))
def test_reg_effects_total_over_decodable_instructions(blob):
    """Every instruction the decoder accepts has defined register effects."""
    try:
        insn = decode_one(blob)
    except InvalidOpcode:
        return
    reads, writes = reg_effects(insn)
    for regid in reads | writes:
        assert regid[0] in ("g", "x", "y", "st")
        if regid[0] != "st":
            assert 0 <= regid[1] < 16


@st.composite
def register_files(draw):
    regs = RegisterFile()
    regs.gpr[:] = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=16, max_size=16)
    )
    regs.xmm[:] = draw(
        st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16)
    )
    regs.ymm_high[:] = draw(
        st.lists(st.integers(0, 2**128 - 1), min_size=16, max_size=16)
    )
    regs.x87[:] = draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8)
    )
    regs.x87_top = draw(st.integers(0, 8))
    return regs


@given(register_files())
def test_xsave_area_roundtrip_full(regs):
    area = xsave_serialize(regs, XComponent.all())
    assert len(area) == XSAVE_AREA_SIZE
    fresh = RegisterFile()
    xrstor_apply(fresh, area)
    assert fresh.xmm == regs.xmm
    assert fresh.ymm_high == regs.ymm_high
    assert fresh.x87 == regs.x87
    assert fresh.x87_top == regs.x87_top


@given(register_files())
def test_xsave_partial_mask_restores_only_selected(regs):
    area = xsave_serialize(regs, XComponent.SSE)
    fresh = RegisterFile()
    fresh.x87[0] = 0x1234
    xrstor_apply(fresh, area)
    assert fresh.xmm == regs.xmm  # SSE restored
    assert fresh.x87[0] == 0x1234  # x87 untouched


@given(register_files())
def test_register_file_copy_is_deep(regs):
    clone = regs.copy()
    clone.gpr[0] = (regs.gpr[0] + 1) % 2**64
    clone.xmm[5] ^= 1
    assert regs.gpr[0] != clone.gpr[0]
    assert regs.xmm[5] != clone.xmm[5]


def test_syscall_effects_match_abi():
    from repro.arch.encode import Assembler

    a = Assembler()
    a.syscall()
    insn = decode_one(a.assemble())
    reads, writes = reg_effects(insn)
    read_idx = {r[1] for r in reads}
    write_idx = {w[1] for w in writes}
    assert {0, 7, 6, 2, 10, 8, 9} <= read_idx  # rax + six args
    assert write_idx == {0, 1, 11}  # rax, rcx, r11
