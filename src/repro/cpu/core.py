"""The CPU interpreter.

``CPU.step(task)`` fetches, decodes, charges and executes exactly one
instruction of ``task``.  The CPU itself is environment-agnostic: anything
that needs an OS (syscalls, host calls, halts) is delegated to the
``Environment`` the CPU was constructed with — normally the kernel, or a
:class:`NullEnvironment` in bare-metal unit tests.

Architectural faults (:class:`~repro.errors.PageFault`,
:class:`~repro.errors.InvalidOpcode`) propagate out of :meth:`CPU.step`; the
scheduler converts them into signals.

Translation cache
=================

With ``translation_cache=True`` (the default) the CPU memoises decoded
instructions per address space: ``AddressSpace.insn_cache`` maps instruction
address -> ``(insn, handler, cost, page, gen, page2, gen2)``.  An entry is
valid only while the per-page generation counters in
``AddressSpace.exec_gen`` still match the generations recorded at decode
time; the address space bumps a page's counter on any ``write``, ``protect``
or ``unmap`` touching an executable page.  That is exactly the set of
operations lazypoline's SIGSYS slow path performs when it rewrites
``syscall`` -> ``call rax`` in place (mprotect RW, write, mprotect back), so
self-modifying code invalidates precisely the stale entries.  A cached entry
records generations only for the page(s) the instruction's own bytes occupy
(one or two, since MAX_INSN_LEN < PAGE_SIZE): a decode depends on nothing
else.  Removing execute permission or unmapping also bumps, which forces the
next step through a real ``fetch`` and re-raises the page fault the uncached
interpreter would have raised.  Failed decodes are never cached.

Execution itself dispatches through :data:`DISPATCH`, a dense list of
per-mnemonic handler functions indexed by ``Mnemonic.op_index``; each cache
entry carries its ``(handler, cost)`` pair so the steady-state step is
fetch-check-generation -> charge -> call.  ``cost`` is ``None`` for
xsave/xrstor, whose cost depends on the task's xstate component count.
"""

from __future__ import annotations

import struct
from typing import Protocol

from repro.arch.decode import decode_one
from repro.arch.isa import MAX_INSN_LEN, N_MNEMONICS, Instruction, Mnemonic
from repro.arch.registers import (
    MASK64,
    MASK128,
    RSP,
    XComponent,
    to_signed,
)
from repro.cpu.costs import CostModel
from repro.errors import BreakpointTrap, InvalidOpcode
from repro.mem.pages import PAGE_SHIFT

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: Serialized xsave area layout (offsets within the area).
XSAVE_MASK_OFF = 0
XSAVE_XMM_OFF = 8
XSAVE_YMM_OFF = XSAVE_XMM_OFF + 16 * 16
XSAVE_X87_OFF = XSAVE_YMM_OFF + 16 * 16
XSAVE_TOP_OFF = XSAVE_X87_OFF + 8 * 8
XSAVE_AREA_SIZE = 1024

#: The x87 component: eight u64 stack slots at ``XSAVE_X87_OFF``.
_X87_SLOTS = struct.Struct("<8Q")

#: Entries per address-space insn cache before a wholesale clear.  Generous:
#: guest images are a few pages of code, so this only trips on pathological
#: self-modifying loops, where clearing is the honest answer anyway.
_CACHE_CAPACITY = 65536


class Environment(Protocol):
    """What the CPU needs from its surroundings."""

    def charge(self, task, cycles: int) -> None:
        """Account ``cycles`` of work performed by ``task``."""

    def on_syscall(self, task) -> None:
        """A syscall instruction retired; rip already points past it."""

    def on_hlt(self, task) -> None:
        """A hlt instruction retired."""

    def on_hcall(self, task, hook_id: int) -> None:
        """A host-call instruction retired."""


class NullEnvironment:
    """Bare-metal environment for CPU unit tests: counts cycles, logs events."""

    def __init__(self):
        self.cycles = 0
        self.syscalls: list[tuple[int, tuple[int, ...]]] = []
        self.halted: list[object] = []
        self.hcalls: list[int] = []

    def charge(self, task, cycles: int) -> None:
        self.cycles += cycles

    def on_syscall(self, task) -> None:
        from repro.arch.registers import SYSCALL_ARG_REGS

        args = tuple(task.regs.read(r) for r in SYSCALL_ARG_REGS)
        self.syscalls.append((task.regs.read(0), args))
        task.regs.write(0, 0)

    def on_hlt(self, task) -> None:
        self.halted.append(task)

    def on_hcall(self, task, hook_id: int) -> None:
        self.hcalls.append(hook_id)


class BareTask:
    """Minimal task for bare-metal CPU tests: registers + memory, no kernel."""

    def __init__(self, mem, regs=None, xsave_mask: XComponent | None = None):
        from repro.arch.registers import RegisterFile

        self.mem = mem
        self.regs = regs or RegisterFile()
        self.xsave_mask = XComponent.all() if xsave_mask is None else xsave_mask

    @property
    def xsave_mask(self) -> XComponent:
        return self._xsave_mask

    @xsave_mask.setter
    def xsave_mask(self, mask: XComponent) -> None:
        self._xsave_mask = mask
        self.xsave_components = bin(mask.value).count("1")


# ------------------------------------------------------------------ handlers
# One module-level function per mnemonic, uniform signature
# ``handler(cpu, task, insn, next_rip)``.  ``regs.rip`` is already
# ``next_rip`` when the handler runs; control-flow handlers overwrite it.


def _op_nop(cpu, task, insn, next_rip):
    pass


def _op_syscall(cpu, task, insn, next_rip):
    cpu.env.on_syscall(task)


def _op_hlt(cpu, task, insn, next_rip):
    cpu.env.on_hlt(task)


def _op_hcall(cpu, task, insn, next_rip):
    cpu.env.on_hcall(task, insn.operands[0])


def _op_int3(cpu, task, insn, next_rip):
    raise BreakpointTrap(next_rip - insn.length)


def _op_ud2(cpu, task, insn, next_rip):
    raise InvalidOpcode(next_rip - insn.length, 0x0F)


# control flow ----------------------------------------------------------------
def _op_ret(cpu, task, insn, next_rip):
    task.regs.rip = cpu._pop(task)


def _op_push(cpu, task, insn, next_rip):
    cpu._push(task, task.regs.read(insn.operands[0]))


def _op_pop(cpu, task, insn, next_rip):
    task.regs.write(insn.operands[0], cpu._pop(task))


def _op_call_reg(cpu, task, insn, next_rip):
    cpu._push(task, next_rip)
    task.regs.rip = task.regs.read(insn.operands[0])


def _op_jmp_reg(cpu, task, insn, next_rip):
    task.regs.rip = task.regs.read(insn.operands[0])


def _op_call_rel(cpu, task, insn, next_rip):
    cpu._push(task, next_rip)
    task.regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jmp_rel(cpu, task, insn, next_rip):
    task.regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jz(cpu, task, insn, next_rip):
    regs = task.regs
    if regs.zf:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jnz(cpu, task, insn, next_rip):
    regs = task.regs
    if not regs.zf:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jl(cpu, task, insn, next_rip):
    regs = task.regs
    if regs.lt:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jg(cpu, task, insn, next_rip):
    regs = task.regs
    if not regs.lt and not regs.zf:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jge(cpu, task, insn, next_rip):
    regs = task.regs
    if not regs.lt:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


def _op_jle(cpu, task, insn, next_rip):
    regs = task.regs
    if regs.lt or regs.zf:
        regs.rip = (next_rip + insn.operands[0]) & MASK64


# data movement ---------------------------------------------------------------
def _op_mov_imm64(cpu, task, insn, next_rip):
    ops = insn.operands
    task.regs.write(ops[0], ops[1])


def _op_mov(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], regs.read(ops[1]))


def _op_load(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], task.mem.read_u64((regs.read(ops[1]) + ops[2]) & MASK64))


def _op_store(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    task.mem.write_u64((regs.read(ops[0]) + ops[1]) & MASK64, regs.read(ops[2]))


def _op_load8(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], task.mem.read_u8((regs.read(ops[1]) + ops[2]) & MASK64))


def _op_store8(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    task.mem.write_u8((regs.read(ops[0]) + ops[1]) & MASK64, regs.read(ops[2]) & 0xFF)


def _op_lea(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], (regs.read(ops[1]) + ops[2]) & MASK64)


# ALU -------------------------------------------------------------------------
def _set_flags(regs, result: int) -> None:
    regs.zf = result == 0
    regs.lt = bool(result >> 63)


def _op_add(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) + regs.read(ops[1])) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_sub(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) - regs.read(ops[1])) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_and(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) & regs.read(ops[1])
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_or(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) | regs.read(ops[1])
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_xor(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) ^ regs.read(ops[1])
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_imul(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (to_signed(regs.read(ops[0])) * to_signed(regs.read(ops[1]))) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_cmp(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    a = to_signed(regs.read(ops[0]))
    b = to_signed(regs.read(ops[1]))
    regs.zf = a == b
    regs.lt = a < b


def _op_addi(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) + (ops[1] & MASK64)) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_subi(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) - (ops[1] & MASK64)) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_andi(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) & (ops[1] & MASK64)
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_ori(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) | (ops[1] & MASK64)
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_xori(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) ^ (ops[1] & MASK64)
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_cmpi(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    a = to_signed(regs.read(ops[0]))
    regs.zf = a == ops[1]
    regs.lt = a < ops[1]


def _op_shl(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) << (ops[1] & 63)) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_shr(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = regs.read(ops[0]) >> (ops[1] & 63)
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_inc(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) + 1) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


def _op_dec(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    result = (regs.read(ops[0]) - 1) & MASK64
    regs.write(ops[0], result)
    _set_flags(regs, result)


# vector ----------------------------------------------------------------------
def _op_movq_xg(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write_xmm(ops[0], regs.read(ops[1]))


def _op_movq_gx(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], regs.read_xmm(ops[1]) & MASK64)


def _op_movups_load(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[1]) + ops[2]) & MASK64
    regs.write_xmm(ops[0], int.from_bytes(task.mem.read(addr, 16), "little"))


def _op_movups_store(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[0]) + ops[1]) & MASK64
    task.mem.write(addr, regs.read_xmm(ops[2]).to_bytes(16, "little"))


def _op_movaps(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write_xmm(ops[0], regs.read_xmm(ops[1]))


def _op_punpcklqdq(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    low = regs.read_xmm(ops[0]) & MASK64
    src_low = regs.read_xmm(ops[1]) & MASK64
    regs.write_xmm(ops[0], low | (src_low << 64))


def _op_xorps(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write_xmm(ops[0], regs.read_xmm(ops[0]) ^ regs.read_xmm(ops[1]))


def _op_vaddpd(cpu, task, insn, next_rip):
    # Lane-wise 64-bit add; also touches the AVX high halves.
    ops = insn.operands
    regs = task.regs
    d = regs.read_xmm(ops[0])
    s = regs.read_xmm(ops[1])
    low = ((d & MASK64) + (s & MASK64)) & MASK64
    high = (((d >> 64) & MASK64) + ((s >> 64) & MASK64)) & MASK64
    regs.write_xmm(ops[0], low | (high << 64))
    regs.ymm_high[ops[0]] = (regs.ymm_high[ops[0]] + regs.ymm_high[ops[1]]) & MASK128


# x87 -------------------------------------------------------------------------
def _op_fld1(cpu, task, insn, next_rip):
    task.regs.x87_push(_U64.unpack(_F64.pack(1.0))[0])


def _op_faddp(cpu, task, insn, next_rip):
    regs = task.regs
    a = _F64.unpack(_U64.pack(regs.x87_pop()))[0]
    b = _F64.unpack(_U64.pack(regs.x87_pop()))[0]
    regs.x87_push(_U64.unpack(_F64.pack(a + b))[0])


def _op_fld_mem(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[0]) + ops[1]) & MASK64
    regs.x87_push(task.mem.read_u64(addr))


def _op_fstp_mem(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[0]) + ops[1]) & MASK64
    task.mem.write_u64(addr, regs.x87_pop())


# xstate ----------------------------------------------------------------------
def _op_xsave(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[0]) + ops[1]) & MASK64
    task.mem.write(addr, xsave_serialize(regs, task.xsave_mask))


def _op_xrstor(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    addr = (regs.read(ops[0]) + ops[1]) & MASK64
    xrstor_apply(regs, task.mem.read(addr, XSAVE_AREA_SIZE))


# gs-relative -----------------------------------------------------------------
def _op_rdgsbase(cpu, task, insn, next_rip):
    regs = task.regs
    regs.write(insn.operands[0], regs.gs_base)


def _op_wrgsbase(cpu, task, insn, next_rip):
    regs = task.regs
    regs.gs_base = regs.read(insn.operands[0])


def _op_gsload(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], task.mem.read_u64((regs.gs_base + ops[1]) & MASK64))


def _op_gsstore(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    task.mem.write_u64((regs.gs_base + ops[0]) & MASK64, regs.read(ops[1]))


def _op_gsload8(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    regs.write(ops[0], task.mem.read_u8((regs.gs_base + ops[1]) & MASK64))


def _op_gsstore8(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    task.mem.write_u8((regs.gs_base + ops[0]) & MASK64, regs.read(ops[1]) & 0xFF)


def _op_rdpkru(cpu, task, insn, next_rip):
    regs = task.regs
    regs.write(insn.operands[0], regs.pkru)


def _op_wrpkru(cpu, task, insn, next_rip):
    regs = task.regs
    regs.pkru = regs.read(insn.operands[0]) & 0xFFFFFFFF
    task.mem.active_pkru = regs.pkru


def _op_gswrpkru(cpu, task, insn, next_rip):
    regs = task.regs
    regs.pkru = task.mem.read_u32((regs.gs_base + insn.operands[0]) & MASK64)
    task.mem.active_pkru = regs.pkru


def _op_gsjmp(cpu, task, insn, next_rip):
    regs = task.regs
    regs.rip = task.mem.read_u64((regs.gs_base + insn.operands[0]) & MASK64)


def _op_gscopy8(cpu, task, insn, next_rip):
    ops = insn.operands
    regs = task.regs
    value = task.mem.read_u8((regs.gs_base + ops[1]) & MASK64)
    task.mem.write_u8((regs.gs_base + ops[0]) & MASK64, value)


#: Dense dispatch table: ``DISPATCH[mnemonic.op_index] -> handler``.
DISPATCH: list = [None] * N_MNEMONICS
for _m, _fn in {
    Mnemonic.NOP: _op_nop,
    Mnemonic.RET: _op_ret,
    Mnemonic.HLT: _op_hlt,
    Mnemonic.INT3: _op_int3,
    Mnemonic.SYSCALL: _op_syscall,
    Mnemonic.SYSENTER: _op_syscall,
    Mnemonic.UD2: _op_ud2,
    Mnemonic.PUSH: _op_push,
    Mnemonic.POP: _op_pop,
    Mnemonic.CALL_REG: _op_call_reg,
    Mnemonic.JMP_REG: _op_jmp_reg,
    Mnemonic.CALL_REL: _op_call_rel,
    Mnemonic.JMP_REL: _op_jmp_rel,
    Mnemonic.JZ: _op_jz,
    Mnemonic.JNZ: _op_jnz,
    Mnemonic.JL: _op_jl,
    Mnemonic.JG: _op_jg,
    Mnemonic.JGE: _op_jge,
    Mnemonic.JLE: _op_jle,
    Mnemonic.MOV_IMM64: _op_mov_imm64,
    Mnemonic.MOV: _op_mov,
    Mnemonic.LOAD: _op_load,
    Mnemonic.STORE: _op_store,
    Mnemonic.LOAD8: _op_load8,
    Mnemonic.STORE8: _op_store8,
    Mnemonic.ADD: _op_add,
    Mnemonic.SUB: _op_sub,
    Mnemonic.CMP: _op_cmp,
    Mnemonic.AND: _op_and,
    Mnemonic.OR: _op_or,
    Mnemonic.XOR: _op_xor,
    Mnemonic.IMUL: _op_imul,
    Mnemonic.SHL: _op_shl,
    Mnemonic.SHR: _op_shr,
    Mnemonic.ADDI: _op_addi,
    Mnemonic.SUBI: _op_subi,
    Mnemonic.CMPI: _op_cmpi,
    Mnemonic.ANDI: _op_andi,
    Mnemonic.ORI: _op_ori,
    Mnemonic.XORI: _op_xori,
    Mnemonic.INC: _op_inc,
    Mnemonic.DEC: _op_dec,
    Mnemonic.LEA: _op_lea,
    Mnemonic.MOVQ_XG: _op_movq_xg,
    Mnemonic.MOVQ_GX: _op_movq_gx,
    Mnemonic.MOVUPS_LOAD: _op_movups_load,
    Mnemonic.MOVUPS_STORE: _op_movups_store,
    Mnemonic.MOVAPS: _op_movaps,
    Mnemonic.PUNPCKLQDQ: _op_punpcklqdq,
    Mnemonic.XORPS: _op_xorps,
    Mnemonic.VADDPD: _op_vaddpd,
    Mnemonic.FLD1: _op_fld1,
    Mnemonic.FADDP: _op_faddp,
    Mnemonic.FLD_MEM: _op_fld_mem,
    Mnemonic.FSTP_MEM: _op_fstp_mem,
    Mnemonic.XSAVE: _op_xsave,
    Mnemonic.XRSTOR: _op_xrstor,
    Mnemonic.RDGSBASE: _op_rdgsbase,
    Mnemonic.WRGSBASE: _op_wrgsbase,
    Mnemonic.GSLOAD: _op_gsload,
    Mnemonic.GSSTORE: _op_gsstore,
    Mnemonic.GSLOAD8: _op_gsload8,
    Mnemonic.GSSTORE8: _op_gsstore8,
    Mnemonic.GSJMP: _op_gsjmp,
    Mnemonic.GSCOPY8: _op_gscopy8,
    Mnemonic.RDPKRU: _op_rdpkru,
    Mnemonic.WRPKRU: _op_wrpkru,
    Mnemonic.GSWRPKRU: _op_gswrpkru,
    Mnemonic.HCALL: _op_hcall,
}.items():
    DISPATCH[_m.op_index] = _fn
del _m, _fn
assert all(fn is not None for fn in DISPATCH), "mnemonic without handler"


class CPU:
    """Interprets simulated machine code, one task at a time."""

    def __init__(
        self,
        env: Environment,
        cost_model: CostModel | None = None,
        translation_cache: bool = True,
        superblocks: bool = True,
    ):
        self.env = env
        self.costs = cost_model or CostModel()
        self.hooks: list = []
        self.translation_cache = translation_cache
        #: Tier 2: compile hot straight-line runs into superblocks (see
        #: :mod:`repro.cpu.superblock`; the scheduler owns the dispatch).
        #: Tied to the translation cache — the uncached configuration is
        #: the pure reference interpreter and stays single-step.
        self.superblocks = superblocks and translation_cache
        self.cache_hits = 0
        self.cache_misses = 0
        #: Superblock counters (compiles/invalidations are rare; per-run
        #: counts live on the blocks themselves to keep the hot path lean).
        self.blocks_compiled = 0
        self.blocks_invalidated = 0
        #: Bumped by :meth:`refresh_cost_table`.  Compiled blocks bake
        #: their cycle costs in, so every BlockCache snapshots this and
        #: the scheduler drops stale caches at slice granularity.
        self.cost_epoch = 0
        #: observability tracer; only consulted on the (rare) generation-
        #: mismatch branch, never on the per-instruction hit path.
        self.tracer = None
        self.refresh_cost_table()

    def refresh_cost_table(self) -> None:
        """(Re)build the dense op_index -> cost table from ``self.costs``.

        ``None`` marks xsave/xrstor, whose cost depends on the task's xstate
        component count and is computed at charge time.  Call again after
        swapping or recalibrating ``self.costs``.
        """
        table: list = []
        for m in Mnemonic:
            if m is Mnemonic.XSAVE or m is Mnemonic.XRSTOR:
                table.append(None)
            else:
                table.append(self.costs.insn_cost(m))
        self._cost_table = table
        self.cost_epoch += 1

    # ------------------------------------------------------------ superblocks
    def compile_superblock(self, mem, head: int, tid: int = -1,
                           max_len: int | None = None):
        """Compile the run at ``head`` into ``mem``'s bound block cache.

        With ``max_len`` the block is truncated to the remaining slice
        budget and cached under the ``(head, max_len)`` key — a *tail*
        variant the scheduler reuses every time a quantum cuts the full
        block at the same point.  Tail keys ride the same per-page index,
        so generation bumps flush them with everything else.
        """
        from repro.cpu.superblock import compile_block

        block = compile_block(mem, head, self._cost_table, max_len)
        key = head if max_len is None else (head, max_len)
        bc = mem.block_cache
        bc.blocks[key] = block
        index = bc.index
        index.setdefault(block.p0, set()).add(key)
        if block.p1 != block.p0:
            index.setdefault(block.p1, set()).add(key)
        if block.fn is not None:
            self.blocks_compiled += 1
            if self.tracer is not None:
                self.tracer.block_compile(
                    getattr(self.env, "clock", 0), tid, head, block.n
                )
        return block

    def note_block_invalidate(self, head: int, tid: int = -1,
                              reason: str = "stale") -> None:
        """Account one compiled block discarded for stale generations."""
        self.blocks_invalidated += 1
        if self.tracer is not None:
            self.tracer.block_invalidate(
                getattr(self.env, "clock", 0), tid, head, reason
            )

    def add_hook(self, hook) -> None:
        self.hooks.append(hook)

    def remove_hook(self, hook) -> None:
        self.hooks.remove(hook)

    # ------------------------------------------------------------------ step
    def step(self, task) -> Instruction:
        """Execute one instruction of ``task`` and return it."""
        regs = task.regs
        mem = task.mem
        addr = regs.rip

        if self.translation_cache:
            entry = mem.insn_cache.get(addr)
            if entry is not None:
                gens = mem.exec_gen
                if gens.get(entry[3], 0) == entry[4] and gens.get(entry[5], 0) == entry[6]:
                    self.cache_hits += 1
                else:
                    if self.tracer is not None:
                        self.tracer.cache_invalidate(
                            getattr(self.env, "clock", 0),
                            getattr(task, "tid", -1), addr,
                        )
                    entry = self._translate(mem, addr)
            else:
                entry = self._translate(mem, addr)
            insn = entry[0]
            if self.hooks:
                for hook in self.hooks:
                    hook.on_insn(task, insn, addr)
            cost = entry[2]
            if cost is None:
                cost = self.costs.xsave_cost(task.xsave_components)
            self.env.charge(task, cost)
            next_rip = addr + insn.length
            regs.rip = next_rip
            entry[1](self, task, insn, next_rip)
            return insn

        # Uncached reference path: fetch + decode every step.
        window = mem.fetch(addr, MAX_INSN_LEN)
        insn = decode_one(window, 0, addr)
        for hook in self.hooks:
            hook.on_insn(task, insn, addr)
        cost = self._cost_table[insn.mnemonic.op_index]
        if cost is None:
            cost = self.costs.xsave_cost(task.xsave_components)
        self.env.charge(task, cost)
        next_rip = addr + insn.length
        regs.rip = next_rip
        DISPATCH[insn.mnemonic.op_index](self, task, insn, next_rip)
        return insn

    def _translate(self, mem, addr: int):
        """Fetch + decode at ``addr`` and install a cache entry for it.

        Raises the same PageFault/InvalidOpcode the uncached path would;
        failed decodes are never cached.
        """
        self.cache_misses += 1
        window = mem.fetch(addr, MAX_INSN_LEN)
        insn = decode_one(window, 0, addr)
        op = insn.mnemonic.op_index
        handler = DISPATCH[op]
        cost = self._cost_table[op]
        object.__setattr__(insn, "handler", handler)
        object.__setattr__(insn, "cost", cost)
        gens = mem.exec_gen
        first = addr >> PAGE_SHIFT
        last = (addr + insn.length - 1) >> PAGE_SHIFT
        entry = (insn, handler, cost, first, gens.get(first, 0), last, gens.get(last, 0))
        cache = mem.insn_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
        cache[addr] = entry
        return entry

    # ----------------------------------------------------------- stack utils
    def _push(self, task, value: int) -> None:
        regs = task.regs
        rsp = (regs.read(RSP) - 8) & MASK64
        task.mem.write_u64(rsp, value)
        regs.write(RSP, rsp)

    def _pop(self, task) -> int:
        regs = task.regs
        rsp = regs.read(RSP)
        value = task.mem.read_u64(rsp)
        regs.write(RSP, (rsp + 8) & MASK64)
        return value


# ----------------------------------------------------------------- xsave glue
# The area's header bits are the XComponent values (x87 = 1, SSE = 2,
# AVX = 4), and each component moves as one slice of the area.
def _vectors_out(values) -> bytes:
    return b"".join(v.to_bytes(16, "little") for v in values)


def _vectors_in(area: bytes, off: int) -> list[int]:
    return [int.from_bytes(area[o : o + 16], "little")
            for o in range(off, off + 16 * 16, 16)]


def xsave_serialize(regs, mask: XComponent) -> bytes:
    """Serialize the selected xstate components into the xsave area format."""
    area = bytearray(XSAVE_AREA_SIZE)
    bits = mask.value
    _U64.pack_into(area, XSAVE_MASK_OFF, bits)
    if bits & XComponent.SSE.value:
        area[XSAVE_XMM_OFF:XSAVE_YMM_OFF] = _vectors_out(regs.xmm)
    if bits & XComponent.AVX.value:
        area[XSAVE_YMM_OFF:XSAVE_X87_OFF] = _vectors_out(regs.ymm_high)
    if bits & XComponent.X87.value:
        _X87_SLOTS.pack_into(area, XSAVE_X87_OFF, *regs.x87)
        area[XSAVE_TOP_OFF] = regs.x87_top
    return bytes(area)


def xrstor_apply(regs, area: bytes) -> None:
    """Restore xstate components from an xsave area."""
    (bits,) = _U64.unpack_from(area, XSAVE_MASK_OFF)
    if bits & XComponent.SSE.value:
        regs.xmm[:] = _vectors_in(area, XSAVE_XMM_OFF)
    if bits & XComponent.AVX.value:
        regs.ymm_high[:] = _vectors_in(area, XSAVE_YMM_OFF)
    if bits & XComponent.X87.value:
        regs.x87[:] = _X87_SLOTS.unpack_from(area, XSAVE_X87_OFF)
        regs.x87_top = area[XSAVE_TOP_OFF]
