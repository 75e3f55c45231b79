"""The shared interposer API surface."""

from __future__ import annotations

import warnings

import pytest

from repro.faults.corpus import CORPUS
from repro.interpose import attach, available_tools
from repro.interpose.api import (
    DenyListInterposer,
    SyscallContext,
    TraceInterposer,
    passthrough_interposer,
)
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.syscalls.table import NR, syscall_name

from tests.conftest import hello_image


def _ctx(sysno=39, args=(), do=None):
    machine = Machine()
    proc = machine.load(hello_image())
    return SyscallContext(
        machine.kernel, proc.task, sysno, args, mechanism="test", do_syscall=do
    )


def test_args_padded_to_six():
    ctx = _ctx(args=(1, 2))
    assert ctx.args == (1, 2, 0, 0, 0, 0)


def test_name_resolution():
    assert _ctx(sysno=NR["write"]).name == "write"
    assert _ctx(sysno=9999).name == "sys_9999"


def test_do_syscall_defaults_to_original():
    calls = []
    ctx = _ctx(sysno=1, args=(5,), do=lambda nr, a: calls.append((nr, a)) or 7)
    assert ctx.do_syscall() == 7
    assert calls == [(1, (5, 0, 0, 0, 0, 0))]


def test_do_syscall_override():
    calls = []
    ctx = _ctx(sysno=1, do=lambda nr, a: calls.append((nr, a)) or 0)
    ctx.do_syscall(60, (1,))
    assert calls == [(60, (1, 0, 0, 0, 0, 0))]


def test_do_syscall_unavailable_raises():
    ctx = _ctx(do=None)
    with pytest.raises(RuntimeError):
        ctx.do_syscall()


def test_memory_helpers_roundtrip():
    ctx = _ctx()
    addr = 0x400000  # text is readable
    data = ctx.read_mem(addr, 4)
    assert len(data) == 4
    ctx.write_mem(addr, b"\x90\x90\x90\x90")  # host write bypasses perms
    assert ctx.read_mem(addr, 4) == b"\x90" * 4


def test_trace_interposer_records_and_counts():
    tr = TraceInterposer(capture_results=True)
    ctx = _ctx(sysno=NR["getpid"], do=lambda nr, a: 1234)
    assert tr(ctx) == 1234
    assert tr.names == ["getpid"]
    assert tr.count("getpid") == 1
    assert tr.results == [1234]


def test_denylist_interposer_fallback():
    tr = TraceInterposer()
    deny = DenyListInterposer({NR["mkdir"]: errno.EPERM}, fallback=tr)
    allowed = _ctx(sysno=NR["getpid"], do=lambda nr, a: 5)
    assert deny(allowed) == 5
    assert tr.names == ["getpid"]
    denied = _ctx(sysno=NR["mkdir"])
    assert deny(denied) == -errno.EPERM
    assert deny.blocked == [("mkdir", (0,) * 6)]


def test_passthrough_is_the_dummy_function():
    ctx = _ctx(do=lambda nr, a: 42)
    assert passthrough_interposer(ctx) == 42


def test_errno_helpers():
    assert errno.errno_name(errno.ENOENT) == "ENOENT"
    assert errno.errno_name(40404) == "errno40404"
    assert errno.is_error(-errno.EPERM)
    assert not errno.is_error(0)
    assert not errno.is_error(42)
    assert not errno.is_error(-5000)  # large negatives are valid pointers


def test_syscall_name_lookup():
    assert syscall_name(0) == "read"
    assert syscall_name(231) == "exit_group"


# ----------------------------------------------------------- attach parity
def _run_syscall_loop(tool: str, **opts) -> int:
    """Attach ``tool`` to the corpus syscall loop and run it to exit."""
    machine = Machine()
    process = machine.load(CORPUS["syscall_loop"].build())
    attach(machine, process, tool, **opts)
    machine.run(
        until=lambda: not any(t.alive for t in machine.kernel.tasks.values()),
        max_instructions=3_000_000,
    )
    return process.exit_code


@pytest.mark.parametrize("tool", sorted(available_tools()))
def test_attach_runs_syscall_loop_and_never_warns(tool):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # attach itself must never warn
        assert _run_syscall_loop(tool) == 0


def test_attach_seccomp_bpf_denylist_runs_syscall_loop():
    assert _run_syscall_loop("seccomp_bpf", denylist=[NR["open"]]) == 0


def test_attach_seccomp_unotify_sysnos_runs_syscall_loop():
    assert _run_syscall_loop("seccomp_unotify", sysnos=[NR["getpid"]]) == 0
