"""ptrace-based interposition.

The tracer stops the tracee at syscall entry and exit; each stop costs two
context switches and every inspection another ptrace request — which is why
Table I rates ptrace's efficiency "Low" despite full expressiveness.

The user interposer runs at the *exit* stop with the entry arguments and the
kernel's result already available; ``ctx.do_syscall()`` simply yields that
result.  Deep memory access goes through PTRACE_PEEKDATA/POKEDATA and is
charged accordingly.  Argument/number rewriting is available to advanced
tracers via the ``ctl`` attribute at the entry stop (`on_enter` hook).
"""

from __future__ import annotations

from typing import Callable

from repro.arch.registers import RAX, SYSCALL_ARG_REGS, to_signed
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.kernel.ptrace import PtraceTracer, TraceeControl, attach, detach


class PtraceSyscallContext(SyscallContext):
    """Syscall context whose memory accessors pay ptrace-request costs."""

    def __init__(self, ctl: TraceeControl, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctl = ctl

    def read_mem(self, addr: int, length: int) -> bytes:
        return self.ctl.peekdata(addr, length)

    def write_mem(self, addr: int, data: bytes) -> None:
        self.ctl.pokedata(addr, data)

    def read_cstr(self, addr: int, maxlen: int = 4096) -> bytes:
        data = self.ctl.peekdata(addr, maxlen)
        end = data.find(b"\x00")
        return data[:end] if end >= 0 else data


class PtraceTool(PtraceTracer):
    """Syscall interposition through a (host-modelled) tracer process."""

    tool_name = "ptrace"

    def __init__(self, machine, interposer: Interposer,
                 on_enter: Callable[[TraceeControl], None] | None = None):
        self.machine = machine
        self.interposer = interposer
        self.on_enter = on_enter
        self._pending: dict[int, tuple[int, tuple[int, ...]]] = {}

    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer: Interposer | None = None,
        *,
        on_enter: Callable[[TraceeControl], None] | None = None,
    ) -> "PtraceTool":
        tool = cls(machine, interposer or passthrough_interposer, on_enter)
        attach(machine.kernel, process.task, tool)
        return tool

    def detach(self, process) -> None:
        detach(process.task)

    # ------------------------------------------------------------- callbacks
    def on_syscall_enter(self, ctl: TraceeControl) -> None:
        sysno, args = ctl.get_syscall_args()
        self._pending[ctl.task.tid] = (to_signed(sysno), args)
        if self.on_enter is not None:
            self.on_enter(ctl)

    def on_syscall_exit(self, ctl: TraceeControl) -> None:
        regs = ctl.getregs()
        kernel_ret = to_signed(regs.read(RAX))
        sysno, args = self._pending.pop(
            ctl.task.tid, (to_signed(regs.read(RAX)), tuple(
                regs.read(r) for r in SYSCALL_ARG_REGS))
        )
        ctx = PtraceSyscallContext(
            ctl,
            self.machine.kernel,
            ctl.task,
            sysno,
            args,
            mechanism="ptrace",
            do_syscall=lambda nr, a: kernel_ret,
        )
        ret = self.interposer(ctx)
        if ret is not None and ret != kernel_ret:
            ctl.set_retval(ret)
