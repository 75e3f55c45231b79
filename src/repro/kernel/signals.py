"""Signal numbers, frame layout, delivery and sigreturn.

Signal frames live on the interrupted task's stack in simulated memory, so
handlers can inspect and *modify* the saved context — the ``REG_RIP``
redirection trick lazypoline's SIGSYS handler performs (§IV-A) works exactly
like it does on Linux.

Frame layout (offsets from the frame base, which becomes ``rsp`` on handler
entry)::

    +0    return address       -> sa_restorer (or the kernel's default)
    +8    siginfo (40 bytes):
          +8   signo   u32
          +12  code    u32
          +16  call_addr / fault_addr  u64   (si_call_addr for SIGSYS)
          +24  syscall u32  (si_syscall)
          +28  arch    u32
          +32  errno   u32
    +48   ucontext:
          +48   gprs[16]       (8 bytes each, hardware order)
          +176  rip            u64
          +184  flags          u64  (bit0 = zf, bit1 = lt)
          +192  gs_base        u64
          +200  sigmask        u64
          +208  xsave area     (XSAVE_AREA_SIZE bytes, all components)

Bytes ``[36, 48)`` are padding and are never written.  The frame is
declared once, as two packed layouts: :data:`FRAME_HEAD` (return address
plus siginfo) and :data:`UC_HEAD` (the ucontext up to the xsave area), so
a delivery is two guest writes and a sigreturn one guest read.

The handler receives ``rdi = signo``, ``rsi = &siginfo``, ``rdx = &ucontext``.
"""

from __future__ import annotations

import struct

from repro.arch.registers import MASK64, XComponent
from repro.cpu.core import XSAVE_AREA_SIZE, xrstor_apply, xsave_serialize
from repro.errors import PageFault
from repro.kernel.task import SIG_DFL, SIG_IGN, PendingSignal, Task

# ---------------------------------------------------------------- numbers
SIGHUP = 1
SIGINT = 2
SIGQUIT = 3
SIGILL = 4
SIGTRAP = 5
SIGABRT = 6
SIGBUS = 7
SIGFPE = 8
SIGKILL = 9
SIGUSR1 = 10
SIGSEGV = 11
SIGUSR2 = 12
SIGPIPE = 13
SIGALRM = 14
SIGTERM = 15
SIGCHLD = 17
SIGCONT = 18
SIGSTOP = 19
SIGWINCH = 28
SIGSYS = 31

NSIG = 32

SIGNAL_NAMES = {
    value: name
    for name, value in list(globals().items())
    if name.startswith("SIG") and not name.startswith("SIGNAL") and isinstance(value, int)
}

#: Signals whose default action is to ignore.
DEFAULT_IGNORED = {SIGCHLD, SIGWINCH, SIGCONT}

#: Signals that can never be caught or blocked.
UNCATCHABLE = {SIGKILL, SIGSTOP}

# ----------------------------------------------------------- siginfo codes
SYS_SECCOMP = 1  # si_code for seccomp SIGSYS
SYS_USER_DISPATCH = 2  # si_code for SUD SIGSYS

# ---------------------------------------------------------------- sa_flags
SA_SIGINFO = 0x4
SA_RESTORER = 0x04000000
SA_NODEFER = 0x40000000

# ------------------------------------------------------------ frame layout
FRAME_RETADDR = 0
FRAME_SIGINFO = 8
SI_SIGNO = 8
SI_CODE = 12
SI_ADDR = 16
SI_SYSCALL = 24
SI_ARCH = 28
SI_ERRNO = 32
FRAME_UCONTEXT = 48
UC_GPRS = 0  # offsets relative to the ucontext pointer
UC_RIP = 128
UC_FLAGS = 136
UC_GSBASE = 144
UC_SIGMASK = 152
UC_XSTATE = 160
UCONTEXT_SIZE = UC_XSTATE + XSAVE_AREA_SIZE
FRAME_SIZE = (FRAME_UCONTEXT + UCONTEXT_SIZE + 15) & ~15

#: Frame bytes ``[FRAME_RETADDR, SI_ERRNO + 4)``: return address, then
#: siginfo signo, code, addr, syscall, arch, errno.
FRAME_HEAD = struct.Struct("<QIIQIII")
#: Ucontext bytes ``[UC_GPRS, UC_XSTATE)``: 16 GPRs, rip, flags, gs_base,
#: sigmask.
UC_HEAD = struct.Struct("<20Q")

#: x86-64 audit arch value, reported in siginfo.arch.
AUDIT_ARCH_X86_64 = 0xC000003E


def signal_name(sig: int) -> str:
    return SIGNAL_NAMES.get(sig, f"SIG{sig}")


def default_action_ignores(sig: int) -> bool:
    return sig in DEFAULT_IGNORED


class SignalDelivery:
    """Builds and tears down signal frames for a kernel."""

    def __init__(self, kernel):
        self.kernel = kernel

    # ------------------------------------------------------------- sending
    def would_act(self, task: Task, sig: int) -> bool:
        """Whether ``sig`` would currently do anything to ``task``.

        Discarded signals (ignored, or default-ignored like SIGCHLD) never
        interrupt sleeping syscalls — Linux semantics.
        """
        if sig in UNCATCHABLE:
            return True
        action = task.sighand.get(sig)
        if action.handler == SIG_IGN:
            return False
        if action.handler == SIG_DFL and default_action_ignores(sig):
            return False
        return True

    def post(self, task: Task, sig: int, info: dict | None = None) -> None:
        """Queue ``sig`` for ``task`` (asynchronous delivery).

        Signals whose disposition discards them are dropped immediately,
        like the kernel does (a later handler registration does not
        resurrect them).
        """
        if not self.would_act(task, sig):
            return
        task.pending.append(PendingSignal(sig, info or {}))

    def deliver_pending(self, task: Task) -> bool:
        """Deliver one deliverable pending signal, if any.  Returns True if
        a signal was acted upon (frame pushed or task killed)."""
        for idx, pend in enumerate(task.pending):
            if pend.sig in UNCATCHABLE or not task.signal_blocked(pend.sig):
                task.pending.pop(idx)
                return self.deliver_now(task, pend.sig, pend.info)
        return False

    # ------------------------------------------------------------ delivery
    def deliver_now(self, task: Task, sig: int, info: dict | None = None) -> bool:
        """Deliver ``sig`` synchronously to ``task``.

        Returns True if the signal had an effect (handler invoked or task
        terminated); False if it was ignored.
        """
        info = info or {}
        action = task.sighand.get(sig)
        tracer = self.kernel.tracer
        if sig in UNCATCHABLE or action.handler == SIG_DFL:
            if default_action_ignores(sig):
                return False
            if tracer is not None:
                tracer.signal(self.kernel.clock, task.tid, sig, "kill")
            self.kernel.terminate_group(task, signal=sig)
            return True
        if action.handler == SIG_IGN:
            return False
        if tracer is not None:
            tracer.signal(self.kernel.clock, task.tid, sig, "handler")
        try:
            self._push_frame(task, sig, action, info)
        except PageFault:
            # The frame does not fit on the stack: like Linux's
            # force_sigsegv, the thread group dies of SIGSEGV.
            if tracer is not None:
                tracer.signal(self.kernel.clock, task.tid, SIGSEGV, "kill")
            self.kernel.terminate_group(task, signal=SIGSEGV)
        return True

    def _push_frame(self, task: Task, sig: int, action, info: dict) -> None:
        kernel = self.kernel
        regs = task.regs
        mem = task.mem
        kernel.charge(task, kernel.costs.signal_delivery)

        frame_base = ((regs.read(4) - 128 - FRAME_SIZE) & ~15)  # rsp, redzone
        restorer = action.restorer or kernel.default_restorer(task)
        # Fields are truncated to their widths, as word-sized stores would.
        mem.write(frame_base, FRAME_HEAD.pack(
            restorer, sig, info.get("code", 0) & 0xFFFFFFFF,
            info.get("addr", 0) & MASK64, info.get("syscall", 0) & 0xFFFFFFFF,
            AUDIT_ARCH_X86_64, info.get("errno", 0) & 0xFFFFFFFF,
        ), check=None)

        # ucontext: the interrupted machine context.  The flags word holds
        # zf/lt in the low bits and PKRU in the high 32 (PKRU is xstate on
        # real hardware and travels with the frame).
        uc = frame_base + FRAME_UCONTEXT
        flags = (1 if regs.zf else 0) | (2 if regs.lt else 0)
        flags |= (regs.pkru & 0xFFFFFFFF) << 32
        mem.write(uc, UC_HEAD.pack(
            *regs.gpr, regs.rip & MASK64, flags, regs.gs_base, task.sigmask,
        ) + xsave_serialize(regs, XComponent.all()), check=None)

        # switch to the handler
        regs.write(4, frame_base)  # rsp
        regs.write(7, sig)  # rdi
        regs.write(6, frame_base + FRAME_SIGINFO)  # rsi
        regs.write(2, uc)  # rdx
        regs.rip = action.handler

        # block the signal itself during handling (unless SA_NODEFER)
        if not action.flags & SA_NODEFER:
            task.sigmask |= 1 << sig
        task.sigmask |= action.mask

    # ----------------------------------------------------------- sigreturn
    def sigreturn(self, task: Task) -> None:
        """Restore the context saved in the frame the task is returning from.

        Called with ``rsp`` pointing just past the frame's return address
        (the restorer popped it), i.e. at ``frame_base + 8``.
        """
        kernel = self.kernel
        regs = task.regs
        mem = task.mem
        kernel.charge(task, kernel.costs.sigreturn_work)

        uc = regs.read(4) - 8 + FRAME_UCONTEXT  # rsp = frame_base + 8
        blob = mem.read(uc, UCONTEXT_SIZE, check=None)
        *gprs, regs.rip, flags, regs.gs_base, task.sigmask = UC_HEAD.unpack_from(blob)
        regs.gpr[:] = gprs
        regs.zf = bool(flags & 1)
        regs.lt = bool(flags & 2)
        regs.pkru = (flags >> 32) & 0xFFFFFFFF
        mem.active_pkru = regs.pkru
        xrstor_apply(regs, blob[UC_XSTATE:])
