"""The zpoline tool object."""

from __future__ import annotations

from repro.arch.registers import MASK64, RAX, RSP, SYSCALL_ARG_REGS
from repro.interpose.api import (
    Interposer,
    SyscallContext,
    passthrough_interposer,
)
from repro.interpose.zpoline.rewriter import discover_sites, rewrite_sites
from repro.interpose.zpoline.trampoline import build_trampoline_code, map_trampoline
from repro.kernel.syscalls.table import NR

_NR_RT_SIGRETURN = NR["rt_sigreturn"]
_NR_CLONE = NR["clone"]

#: Stack bytes between the stub's hcall and the signal frame: the
#: call-rax return address plus six pushed registers.
_STUB_STACK_BYTES = 8 + 6 * 8


class Zpoline:
    """Pure-rewriting interposition (no kernel interface armed).

    ``mode`` selects syscall discovery: ``"sweep"`` (disassembly) or
    ``"bytescan"`` (raw byte search) — see
    :mod:`repro.interpose.zpoline.rewriter` for the trade-off.
    """

    tool_name = "zpoline"

    def __init__(self, machine, process, interposer: Interposer, mode: str):
        self.machine = machine
        self.process = process
        self.interposer = interposer
        self.mode = mode
        self.rewritten_sites: list[int] = []
        self.entry_addr = 0
        self._hcall_id: int | None = None

    # ------------------------------------------------------------------ install
    @classmethod
    def _install(
        cls,
        machine,
        process,
        interposer: Interposer | None = None,
        *,
        mode: str = "sweep",
        rewrite: bool = True,
    ) -> "Zpoline":
        """Map the trampoline, scan the loaded image, rewrite in place."""
        tool = cls(machine, process, interposer or passthrough_interposer, mode)
        kernel = machine.kernel
        task = process.task

        tool._hcall_id = kernel.register_hcall(tool._on_trampoline_entry)
        code, entry = build_trampoline_code(tool._hcall_id)
        map_trampoline(task, code, kernel=kernel)
        tool.entry_addr = entry

        if rewrite:
            skip = {0}  # never rewrite the trampoline page itself
            sites = discover_sites(task, mode, skip_pages=skip)
            tool.rewritten_sites = rewrite_sites(task, sites)
            tool._trace_rewrites(tool.rewritten_sites)
        return tool

    def _trace_rewrites(self, sites) -> None:
        tracer = self.machine.kernel.tracer
        if tracer is None:
            return
        kernel = self.machine.kernel
        tid = self.process.task.tid
        for site in sites:
            tracer.rewrite(kernel.clock, tid, site, "zpoline", origin="static")

    def rewrite_now(self) -> list[int]:
        """Re-scan and rewrite (e.g. after loading more code)."""
        skip = {0}
        sites = [
            s
            for s in discover_sites(self.process.task, self.mode, skip_pages=skip)
            if s not in self.rewritten_sites
        ]
        new_sites = rewrite_sites(self.process.task, sites)
        self.rewritten_sites.extend(new_sites)
        self._trace_rewrites(new_sites)
        return sites

    # ---------------------------------------------------------------- handler
    def _on_trampoline_entry(self, hctx) -> None:
        task = hctx.task
        regs = task.regs
        sysno = regs.read(RAX)
        tracer = hctx.kernel.tracer
        if tracer is not None:
            tracer.sled_enter(hctx.kernel.clock, task.tid, sysno, "zpoline")
        args = tuple(regs.read(r) for r in SYSCALL_ARG_REGS)

        ctx = SyscallContext(
            hctx.kernel,
            task,
            sysno,
            args,
            mechanism="zpoline",
            do_syscall=lambda nr, a: self._do_syscall(hctx, nr, a),
            defer=hctx.defer,
        )
        ret = self.interposer(ctx)
        if ret is not None and sysno != _NR_RT_SIGRETURN:
            regs.write(RAX, ret & MASK64)

    def _do_syscall(self, hctx, sysno: int, args: tuple[int, ...]) -> int | None:
        if sysno == _NR_RT_SIGRETURN:
            return self._handle_sigreturn(hctx)
        ret = hctx.do_syscall(sysno, args)
        if sysno == _NR_CLONE and args[1] and isinstance(ret, int) and ret > 0:
            # A clone child on a fresh stack cannot return through this
            # stub (no frame there); send it straight to the application
            # return address the call-rax pushed on the parent's stack.
            child = hctx.kernel.tasks.get(ret)
            if child is not None:
                child.regs.rip = hctx.task.mem.read_u64(
                    hctx.task.regs.read(RSP) + 6 * 8, check=None
                )
        return ret

    def _handle_sigreturn(self, hctx) -> None:
        """rt_sigreturn replaces the whole context: undo the stub's stack
        usage so the kernel finds the signal frame where it expects it."""
        regs = hctx.task.regs
        regs.write(RSP, regs.read(RSP) + _STUB_STACK_BYTES)
        hctx.do_syscall(_NR_RT_SIGRETURN, ())
        # Registers (including rip/rsp) now come from the restored frame;
        # the abandoned stub continuation is unreachable by design.
