"""Signal edge cases: SA_NODEFER, mask save/restore, handler re-registration,
frames that cannot be pushed, and the frame's exact byte layout."""

from __future__ import annotations

import struct

from repro.arch.registers import RDI, RDX, RSI, RSP
from repro.cpu.core import (
    XSAVE_AREA_SIZE,
    XSAVE_MASK_OFF,
    XSAVE_TOP_OFF,
    XSAVE_X87_OFF,
    XSAVE_XMM_OFF,
    XSAVE_YMM_OFF,
)
from repro.kernel.signals import (
    AUDIT_ARCH_X86_64,
    FRAME_RETADDR,
    FRAME_SIGINFO,
    FRAME_SIZE,
    FRAME_UCONTEXT,
    SA_NODEFER,
    SA_RESTORER,
    SA_SIGINFO,
    SI_ADDR,
    SI_ARCH,
    SI_CODE,
    SI_ERRNO,
    SI_SIGNO,
    SI_SYSCALL,
    SIGALRM,
    SIGHUP,
    SIGSEGV,
    SIGUSR1,
    SIGUSR2,
    UC_FLAGS,
    UC_GPRS,
    UC_GSBASE,
    UC_RIP,
    UC_SIGMASK,
    UC_XSTATE,
    UCONTEXT_SIZE,
)
from repro.kernel.syscalls.table import NR
from repro.kernel.task import SigAction
from repro.mem.pages import Perm

from tests.conftest import asm, emit_exit, emit_syscall, finish, run_program


def _register(a, sig, act_label):
    a.mov_imm("rdi", sig)
    a.mov_imm("rsi", act_label)
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()


def _raise_self(a, sig):
    emit_syscall(a, "getpid")
    a.mov("rdi", "rax")
    a.mov_imm("rsi", sig)
    a.mov_imm("rax", NR["kill"])
    a.syscall()


def test_sigmask_restored_after_handler(machine):
    """The handler-entry mask (signal auto-blocked) is undone by sigreturn,
    so a second raise delivers a second time."""
    b = asm()
    b.label("_start")
    emit_syscall(b, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    b.mov("r15", "rax")
    _register(b, SIGUSR1, "act")
    _raise_self(b, SIGUSR1)
    _raise_self(b, SIGUSR1)
    b.load("rdi", "r15", 0)
    b.mov_imm("rax", NR["exit_group"])
    b.syscall()
    b.label("handler")
    b.load("rcx", "r15", 0)
    b.inc("rcx")
    b.store("r15", 0, "rcx")
    b.ret()
    b.align(8, fill=0)
    b.label("act")
    b.dq("handler")
    b.dq(0)
    b.dq(0)
    b.dq(0)
    _proc, code = run_program(machine, finish(b))
    assert code == 2  # both deliveries ran


def test_sa_mask_blocks_other_signal_during_handler(machine):
    """sa_mask adds SIGUSR2 to the mask while handling SIGUSR1."""
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r15", "rax")
    _register(a, SIGUSR1, "act1")
    _register(a, SIGUSR2, "act2")
    _raise_self(a, SIGUSR1)
    # by now both handlers ran; order recorded at [r15]: h1 completes
    # BEFORE h2 starts because USR2 was masked during h1
    a.load("rdi", "r15", 8)  # second event
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("h1")
    _raise_self(a, SIGUSR2)  # pends: masked by sa_mask
    a.mov_imm("rcx", 1)
    a.load("rdx", "r15", 16)
    a.cmpi("rdx", 0)
    a.jnz("skip1")
    a.store("r15", 0, "rcx")  # first event = h1 (slot 0)
    a.mov_imm("rdx", 1)
    a.store("r15", 16, "rdx")
    a.label("skip1")
    a.ret()
    a.label("h2")
    a.mov_imm("rcx", 2)
    a.load("rdx", "r15", 16)
    a.cmpi("rdx", 1)
    a.jnz("skip2")
    a.store("r15", 8, "rcx")  # second event = h2 (slot 1)
    a.mov_imm("rdx", 2)
    a.store("r15", 16, "rdx")
    a.label("skip2")
    a.ret()
    a.align(8, fill=0)
    a.label("act1")
    a.dq("h1")
    a.dq(0)
    a.dq(0)
    a.dq(1 << SIGUSR2)  # sa_mask blocks USR2 during h1
    a.label("act2")
    a.dq("h2")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 2  # h2 ran strictly after h1 finished


def test_sa_nodefer_flag_parsed(machine):
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    emit_exit(a, 0)
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(SA_NODEFER)
    a.dq(0)
    a.dq(0)
    a.label("handler")
    a.ret()
    proc, code = run_program(machine, finish(a))
    assert code == 0
    assert proc.task.sighand.get(SIGUSR1).flags & SA_NODEFER


def test_reregistration_returns_old_handler(machine):
    a = asm()
    a.label("_start")
    emit_syscall(a, "mmap", 0, 4096, 3, 0x22, (1 << 64) - 1, 0)
    a.mov("r15", "rax")
    _register(a, SIGUSR1, "act1")
    # second registration with oldact pointer
    a.mov_imm("rdi", SIGUSR1)
    a.mov_imm("rsi", "act2")
    a.mov("rdx", "r15")
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    a.load("rcx", "r15", 0)  # oldact.handler
    a.mov_imm("rbx", "h1")
    a.cmp("rcx", "rbx")
    a.jnz("bad")
    emit_exit(a, 0)
    a.label("bad")
    emit_exit(a, 1)
    a.label("h1")
    a.ret()
    a.label("h2")
    a.ret()
    a.align(8, fill=0)
    a.label("act1")
    a.dq("h1")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    a.label("act2")
    a.dq("h2")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    _proc, code = run_program(machine, finish(a))
    assert code == 0


# ------------------------------------------------- frames that cannot be pushed
def test_unpushable_frame_for_posted_signal_kills_with_sigsegv(machine):
    """A handled signal whose frame lands on unmapped stack kills the group
    with SIGSEGV (Linux force_sigsegv) instead of faulting the host."""
    a = asm()
    a.label("_start")
    _register(a, SIGUSR1, "act")
    a.mov_imm("rsp", 0x7000_0000)
    _raise_self(a, SIGUSR1)
    emit_exit(a, 0)
    a.label("handler")
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGSEGV


def test_unpushable_frame_for_fault_signal_kills_with_sigsegv(machine):
    """A SIGSEGV handler cannot run on the stack that faulted: the faulting
    push is fatal rather than a host exception."""
    a = asm()
    a.label("_start")
    _register(a, SIGSEGV, "act")
    a.mov_imm("rsp", 0x7000_0000)
    a.push("rax")
    emit_exit(a, 0)
    a.label("handler")
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    proc = machine.load(finish(a))
    machine.run(until=lambda: not proc.alive)
    assert proc.term_signal == SIGSEGV


# ------------------------------------------------------------ frame byte layout
def test_frame_bytes_match_named_offsets_and_sigreturn_restores(machine):
    """Every frame field sits at its named offset, padding and the stack
    around the frame keep their old bytes, and rt_sigreturn restores every
    saved field."""
    a = asm()
    a.label("_start")
    emit_exit(a, 0)
    a.label("handler")
    a.ret()
    a.label("restorer")
    a.mov_imm("rax", NR["rt_sigreturn"])
    a.syscall()
    proc = machine.load(finish(a))
    task = proc.task
    mem = task.mem
    regs = task.regs
    handler, restorer = a.address_of("handler"), a.address_of("restorer")

    stack = mem.map_anywhere(0x4000, Perm.RW, hint=0x5000_0000)
    mem.write(stack, b"\xa5" * 0x4000, check=None)
    rsp = stack + 0x3F08
    gprs = [(0x0101_0101_0101_0101 * (i + 1)) ^ (1 << 63) for i in range(16)]
    gprs[4] = rsp
    regs.gpr[:] = gprs
    regs.rip = 0x40_1234
    regs.zf, regs.lt = False, True
    regs.pkru = 0x5555_0004
    regs.gs_base = 0x7777_0000_1000
    regs.xmm[:] = [(0xF0 + i) << 120 | (i + 1) for i in range(16)]
    regs.ymm_high[:] = [(0xE0 + i) << 120 | (i + 2) << 64 | i for i in range(16)]
    regs.x87[:] = [0x3FF0_0000_0000_0000 + i for i in range(8)]
    regs.x87_top = 5
    old_mask = 1 << SIGHUP | 1 << SIGALRM
    task.sigmask = old_mask
    task.sighand.set(SIGUSR1, SigAction(
        handler=handler, flags=SA_SIGINFO | SA_RESTORER,
        restorer=restorer, mask=1 << SIGUSR2))
    info = {"code": 7, "addr": 0xFFFF_8000_0000_1000, "syscall": 39,
            "errno": 13}
    saved = regs.copy()

    assert machine.kernel.signals.deliver_now(task, SIGUSR1, info)

    base = (rsp - 128 - FRAME_SIZE) & ~15
    uc = base + FRAME_UCONTEXT
    expect = bytearray(b"\xa5" * FRAME_SIZE)

    def put(off, fmt, value):
        struct.pack_into(fmt, expect, off, value)

    put(FRAME_RETADDR, "<Q", restorer)
    put(SI_SIGNO, "<I", SIGUSR1)
    put(SI_CODE, "<I", 7)
    put(SI_ADDR, "<Q", 0xFFFF_8000_0000_1000)
    put(SI_SYSCALL, "<I", 39)
    put(SI_ARCH, "<I", AUDIT_ARCH_X86_64)
    put(SI_ERRNO, "<I", 13)
    u = FRAME_UCONTEXT
    for i, value in enumerate(gprs):
        put(u + UC_GPRS + 8 * i, "<Q", value)
    put(u + UC_RIP, "<Q", 0x40_1234)
    put(u + UC_FLAGS, "<Q", 2 | 0x5555_0004 << 32)
    put(u + UC_GSBASE, "<Q", 0x7777_0000_1000)
    put(u + UC_SIGMASK, "<Q", old_mask)
    x = u + UC_XSTATE
    expect[x : x + XSAVE_AREA_SIZE] = bytes(XSAVE_AREA_SIZE)
    put(x + XSAVE_MASK_OFF, "<Q", 7)
    for i in range(16):
        expect[x + XSAVE_XMM_OFF + 16 * i : x + XSAVE_XMM_OFF + 16 * i + 16] = (
            saved.xmm[i].to_bytes(16, "little"))
        expect[x + XSAVE_YMM_OFF + 16 * i : x + XSAVE_YMM_OFF + 16 * i + 16] = (
            saved.ymm_high[i].to_bytes(16, "little"))
    for i in range(8):
        put(x + XSAVE_X87_OFF + 8 * i, "<Q", saved.x87[i])
    expect[x + XSAVE_TOP_OFF] = 5
    assert FRAME_UCONTEXT + UCONTEXT_SIZE == FRAME_SIZE
    assert bytes(expect[SI_ERRNO + 4 : FRAME_UCONTEXT]) == b"\xa5" * 12

    assert mem.read(base, FRAME_SIZE, check=None) == bytes(expect)
    assert mem.read(stack, base - stack, check=None) == b"\xa5" * (base - stack)
    top = stack + 0x4000
    end = base + FRAME_SIZE
    assert mem.read(end, top - end, check=None) == b"\xa5" * (top - end)

    # Handler entry state.
    assert regs.read(RSP) == base
    assert (regs.read(RDI), regs.read(RSI), regs.read(RDX)) == (
        SIGUSR1, base + FRAME_SIGINFO, uc)
    assert regs.rip == handler
    assert task.sigmask == old_mask | 1 << SIGUSR1 | 1 << SIGUSR2

    # The handler clobbers everything it may; its ret reaches the restorer,
    # whose rt_sigreturn must bring every saved field back.
    for i in range(16):
        if i != RSP:
            regs.gpr[i] = 0xDEAD
    regs.zf, regs.lt = True, False
    regs.pkru = 0
    regs.gs_base = 0
    regs.xmm[:] = [0] * 16
    regs.ymm_high[:] = [0] * 16
    regs.x87[:] = [0] * 8
    regs.x87_top = 8
    task.sigmask = 0
    cpu = machine.kernel.cpu
    for _ in range(3):  # ret; mov rax, NR; syscall
        cpu.step(task)

    assert regs.gpr == gprs
    assert regs.rip == 0x40_1234
    assert (regs.zf, regs.lt) == (False, True)
    assert regs.pkru == mem.active_pkru == 0x5555_0004
    assert regs.gs_base == 0x7777_0000_1000
    assert task.sigmask == old_mask
    assert regs.xmm == saved.xmm
    assert regs.ymm_high == saved.ymm_high
    assert regs.x87 == saved.x87
    assert regs.x87_top == 5
