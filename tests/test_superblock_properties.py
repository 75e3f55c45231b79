"""Property-based lockstep equivalence: superblock tier vs single-step.

The superblock tier (``repro.cpu.superblock``) claims to be *invisible*:
for any guest, tiering on and off must produce bit-identical registers,
memory, stdout, per-thread syscall traces, retired-instruction totals and
simulated cycle counts.  Hypothesis generates adversarial guests — random
straight-line bodies over the full fused instruction set, conditional
skips (multiple block heads), self-modifying stores that patch upcoming
instructions *inside* the hot loop, signal handlers firing between
iterations, loads that fault *inside* a compiled block (full or tail
variant) and resume after a SIGSEGV handler, and random scheduler quanta
— and the differential oracle checks every observable in lockstep.

Quantum 1 does not switch the tier off.  Full blocks still compile but
never fit the one-instruction budget, so compiled code runs only as
one-instruction ``(head, 1)`` tail variants.  The quantum=1 cases
are the suite's coverage of those one-instruction tails; no workload
runs at quantum 1.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.arch.encode import Assembler
from repro.faults.oracle import differences, run_guest
from repro.kernel.syscalls.table import NR
from repro.mem import layout
from repro.loader.image import image_from_assembler

pytestmark = pytest.mark.superblock

# Registers the random body may clobber.  rbp is the loop counter (rcx is syscall-clobbered), rsi
# the scratch page, r12/r13/r15 the SMC machinery, r14 the signal page,
# r9 the faulting page and r10 its load target — all reserved.
POOL = ("rax", "rbx", "rdx", "r8")

SIGUSR1 = 10
SIGSEGV = 11


def _nop_byte() -> int:
    a = Assembler()
    a.nop()
    return a.assemble()[0]


def _patch_words() -> tuple[int, int]:
    """Two 8-byte code images for the SMC patch site: all-nops, and
    ``inc rax`` padded with nops.  Alternating them every iteration makes
    the hot loop rewrite its own upcoming instructions each pass."""
    nop = _nop_byte()
    a = Assembler()
    a.inc("rax")
    inc = a.assemble()
    p1 = bytes([nop]) * 8
    p2 = (inc + bytes([nop]) * 8)[:8]
    return int.from_bytes(p1, "little"), int.from_bytes(p2, "little")


# One random body instruction: (kind, reg, reg2, imm).
_op = st.tuples(
    st.integers(min_value=0, max_value=17),
    st.integers(min_value=0, max_value=len(POOL) - 1),
    st.integers(min_value=0, max_value=len(POOL) - 1),
    st.integers(min_value=0, max_value=0xFFFF),
)


def _emit_op(a: Assembler, k: int, op, skips: list[int]) -> None:
    kind, ri, rj, imm = op
    rd, rs = POOL[ri], POOL[rj]
    if kind == 0:
        a.add(rd, rs)
    elif kind == 1:
        a.sub(rd, rs)
    elif kind == 2:
        a.xor(rd, rs)
    elif kind == 3:
        a.and_(rd, rs)
    elif kind == 4:
        a.or_(rd, rs)
    elif kind == 5:
        a.imul(rd, rs)
    elif kind == 6:
        a.mov(rd, rs)
    elif kind == 7:
        a.mov_imm(rd, imm)
    elif kind == 8:
        a.addi(rd, imm)
    elif kind == 9:
        a.subi(rd, imm)
    elif kind == 10:
        a.xori(rd, imm)
    elif kind == 11:
        a.shl(rd, imm & 7)
    elif kind == 12:
        a.shr(rd, imm & 7)
    elif kind == 13:
        a.inc(rd)
    elif kind == 14:
        a.dec(rd)
    elif kind == 15:
        # conditional forward skip: a second block head mid-body
        label = f"skip_{k}"
        a.cmpi(rd, imm)
        a.jl(label)
        a.inc(rs)
        a.label(label)
        skips.append(k)
    elif kind == 16:
        a.store("rsi", (imm & 0x1F8), rd)
        a.load(rs, "rsi", (imm & 0x1F8))
    elif kind == 17:
        a.push(rd)
        a.pop(rs)


def _mprotect_r9(a: Assembler, prot: int) -> None:
    a.mov("rdi", "r9")
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", prot)
    a.mov_imm("rax", NR["mprotect"])
    a.syscall()


def build_guest(ops, iters: int, smc: bool, signal: bool,
                fault: bool = False):
    """A hot loop of the random body, optionally self-patching, optionally
    raising SIGUSR1 at itself every iteration, and optionally loading from
    a page it makes ``PROT_NONE`` each iteration — the load sits after
    the body, inside the compiled block, and faults into a SIGSEGV handler
    that re-enables the page and counts the fault there."""
    p1, p2 = _patch_words()
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    # scratch RW page
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("rsi", "rax")
    if fault:
        a.mov_imm("rdi", 0)
        a.push("rsi")
        a.mov_imm("rsi", 4096)
        a.mov_imm("rdx", 3)
        a.mov_imm("r10", 0x22)
        a.mov_imm("rax", NR["mmap"])
        a.syscall()
        a.pop("rsi")
        a.mov("r9", "rax")
        a.mov_imm("rdi", SIGSEGV)
        a.push("rsi")
        a.mov_imm("rsi", "act_segv")
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 8)
        a.mov_imm("rax", NR["rt_sigaction"])
        a.syscall()
        a.pop("rsi")
    if smc:
        # the loop patches its own code: make the code page writable
        a.mov_imm("rdi", layout.CODE_BASE)
        a.mov_imm("rdx", 7)
        a.push("rsi")
        a.mov_imm("rsi", 4096)
        a.mov_imm("rax", NR["mprotect"])
        a.syscall()
        a.pop("rsi")
        a.mov_imm("r12", "patch")
        a.mov_imm("r13", p1)
        a.mov_imm("r15", p1 ^ p2)
    if signal:
        a.mov("r14", "rsi")
        a.mov_imm("rdi", SIGUSR1)
        a.push("rsi")
        a.mov_imm("rsi", "act")
        a.mov_imm("rdx", 0)
        a.mov_imm("r10", 8)
        a.mov_imm("rax", NR["rt_sigaction"])
        a.syscall()
        a.pop("rsi")
        a.mov_imm("rax", NR["getpid"])
        a.syscall()
        a.store("r14", 0x200, "rax")
        a.mov_imm("rax", NR["gettid"])
        a.syscall()
        a.store("r14", 0x208, "rax")
    for i, name in enumerate(POOL):
        a.mov_imm(name, i + 1)
    a.mov_imm("rbp", iters)
    a.label("loop")
    if fault:
        a.push("rax")
        a.push("rdx")
        a.push("rsi")
        _mprotect_r9(a, 0)
        a.pop("rsi")
        a.pop("rdx")
        a.pop("rax")
    skips: list[int] = []
    for k, op in enumerate(ops):
        _emit_op(a, k, op, skips)
    if fault:
        a.load("r10", "r9", 8)
        a.add("rax", "r10")
    if smc:
        # overwrite the upcoming patch site, alternating nops / inc rax
        a.store("r12", 0, "r13")
        a.xor("r13", "r15")
        a.label("patch")
        for _ in range(8):
            a.nop()
    if signal:
        a.load("rdi", "r14", 0x200)
        a.push("rsi")
        a.load("rsi", "r14", 0x208)
        a.mov_imm("rdx", SIGUSR1)
        a.mov_imm("rax", NR["tgkill"])
        a.syscall()
        a.pop("rsi")
    a.subi("rbp", 1)
    a.cmpi("rbp", 0)
    a.jnz("loop")
    # dump final register + flag state to the scratch page, write it out
    for i, name in enumerate(POOL):
        a.store("rsi", 8 * i, name)
    a.mov_imm("rbx", 0)
    a.jnz("no_zf")
    a.mov_imm("rbx", 1)
    a.label("no_zf")
    a.store("rsi", 8 * len(POOL), "rbx")
    a.mov_imm("rbx", 0)
    a.jge("no_lt")
    a.mov_imm("rbx", 1)
    a.label("no_lt")
    a.store("rsi", 8 * len(POOL) + 8, "rbx")
    a.mov_imm("rdi", 1)
    a.mov_imm("rdx", 8 * len(POOL) + 16)
    a.push("rsi")
    a.mov_imm("rax", NR["write"])
    a.syscall()
    a.mov_imm("rdi", 0)
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    if signal:
        a.label("handler")
        a.load("rdx", "r14", 0x210)
        a.inc("rdx")
        a.store("r14", 0x210, "rdx")
        a.ret()
        a.align(8, fill=0)
        a.label("act")
        a.dq("handler")
        a.dq(0)
        a.dq(0)
        a.dq(0)
    if fault:
        a.label("segv_handler")
        _mprotect_r9(a, 3)
        a.load("rdx", "r9", 8)
        a.inc("rdx")
        a.store("r9", 8, "rdx")
        a.ret()
        a.align(8, fill=0)
        a.label("act_segv")
        a.dq("segv_handler")
        a.dq(0)
        a.dq(0)
        a.dq(0)
    return image_from_assembler("sb-prop", a, entry="_start")


def _lockstep(image_builder, quantum: int) -> None:
    reports = {
        sb: run_guest(
            image_builder,
            None,
            machine_opts={"superblocks": sb, "quantum": quantum},
        )
        for sb in (False, True)
    }
    diffs = differences(reports[False], reports[True], compare_cycles=True)
    assert not diffs, diffs
    assert not reports[True].crashed


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=10),
    iters=st.integers(min_value=18, max_value=48),
    quantum=st.sampled_from([1, 2, 3, 5, 7, 13, 31, 64]),
)
def test_lockstep_straightline(ops, iters, quantum):
    _lockstep(lambda: build_guest(ops, iters, False, False), quantum)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=6),
    iters=st.integers(min_value=18, max_value=40),
    quantum=st.sampled_from([1, 5, 13, 64]),
)
def test_lockstep_self_modifying(ops, iters, quantum):
    """The hot loop rewrites its own upcoming instructions every pass."""
    _lockstep(lambda: build_guest(ops, iters, True, False), quantum)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=6),
    iters=st.integers(min_value=18, max_value=40),
    quantum=st.sampled_from([1, 5, 13, 64]),
)
def test_lockstep_with_signals(ops, iters, quantum):
    """SIGUSR1 delivered every iteration: handler entries/exits interleave
    with block dispatch at every scheduler quantum."""
    _lockstep(lambda: build_guest(ops, iters, False, True), quantum)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=6),
    iters=st.integers(min_value=18, max_value=40),
    quantum=st.sampled_from([1, 2, 3, 5, 7, 13, 31, 64]),
)
def test_lockstep_fault_inside_block(ops, iters, quantum):
    """A load faults mid-block every pass; the SIGSEGV handler re-enables
    the page and the load re-executes — on full blocks and, where the
    quantum cuts the run, on tail variants."""
    _lockstep(lambda: build_guest(ops, iters, False, False, fault=True),
              quantum)


def test_fault_guest_faults_inside_compiled_blocks(monkeypatch):
    """The faulting guest must take its faults from compiled code — full
    blocks and tail variants alike — or the lockstep case above never
    reaches the scheduler's block-fault path."""
    from repro.cpu.core import CPU
    from repro.kernel.machine import Machine

    faults = {"full": 0, "tail": 0}
    compile_superblock = CPU.compile_superblock

    def counting(self, mem, head, tid=-1, max_len=None):
        block = compile_superblock(self, mem, head, tid, max_len=max_len)
        fn = block.fn
        if fn is not None:
            kind = "full" if max_len is None else "tail"

            def run(task, charge):
                try:
                    return fn(task, charge)
                except Exception:
                    faults[kind] += 1
                    raise

            block.fn = run
        return block

    monkeypatch.setattr(CPU, "compile_superblock", counting)
    ops = [(0, 0, 1, 0), (2, 1, 2, 0), (8, 3, 0, 7)]
    for quantum in (64, 7):
        machine = Machine(quantum=quantum)
        proc = machine.load(build_guest(ops, 48, False, False, fault=True))
        machine.run_process(proc)
        assert proc.exit_code == 0
    assert faults["full"] >= 16 and faults["tail"] >= 16, faults


def test_hot_loop_actually_tiers_up():
    """Sanity for the whole suite: the generated guests do reach tier 2
    (otherwise every lockstep assertion above is vacuous)."""
    from repro.kernel.machine import Machine

    ops = [(0, 0, 1, 0), (2, 1, 2, 0), (8, 3, 0, 7)]
    machine = Machine()
    proc = machine.load(build_guest(ops, 48, False, False))
    machine.run_process(proc)
    stats = machine.superblock_stats()
    assert stats["enabled"]
    assert stats["compiled"] >= 1
    assert stats["block_runs"] >= 16
    assert proc.exit_code == 0


def test_smc_guest_invalidates_blocks():
    """The self-patching guest must force real block invalidations."""
    from repro.kernel.machine import Machine

    ops = [(0, 0, 1, 0)]
    machine = Machine()
    proc = machine.load(build_guest(ops, 48, True, False))
    machine.run_process(proc)
    stats = machine.superblock_stats()
    assert stats["enabled"]
    assert stats["invalidated"] >= 1
    assert proc.exit_code == 0
