"""Tests for the asynchronous ring drain (RING_ENTER_ASYNC).

Same two harness styles as ``test_uring.py``:

* **kernel-level** — hand-written rings driven through ``Kernel.dispatch``
  with the async flag: parking, out-of-order CQE posting, dependency
  links onto parked slots, ``min_complete`` waits, wakeup delivery;
* **guest-level** — assembly guests using :class:`GuestRing`'s async API
  (``submit_async``/``wait``/completion callbacks) plus the event-loop
  webserver leg, whose whole point is one worker overlapping many
  in-flight blocking I/Os.
"""

from __future__ import annotations

import pytest

from repro.arch.encode import Assembler
from repro.arch.registers import to_signed
from repro.faults.scenarios import (
    arm_pipe_feeder,
    arm_repeating_signal,
    build_uring_async_guest,
)
from repro.kernel import errno
from repro.kernel.machine import Machine
from repro.kernel.seccomp import SECCOMP_RET_TRAP
from repro.kernel.seccomp.filter import FilterBuilder
from repro.kernel.signals import SIGSYS
from repro.kernel.syscalls.table import NR
from repro.kernel.uring import (
    HDR_CQ_TAIL,
    HDR_SQ_HEAD,
    HDR_SQ_TAIL,
    RING_ENTER_ASYNC,
    SQE_SYSNO,
    ring_result,
    sqe_offset,
)
from repro.libc.uring import GuestRing
from repro.loader.image import image_from_assembler
from repro.mem import layout
from repro.mem.pages import Perm
from repro.obs import events as K
from repro.obs.tracer import Tracer

from test_uring import RingMem, idle_machine

pytestmark = [pytest.mark.uring, pytest.mark.uring_async]

RING_ENTER = NR["ring_enter"]


class AsyncRingMem(RingMem):
    """RingMem with the full four-argument ``ring_enter`` ABI exposed."""

    def enter(self, to_submit=0, min_complete=0, flags=RING_ENTER_ASYNC):
        return self.machine.kernel.dispatch(
            self.task, RING_ENTER,
            (self.addr, to_submit, min_complete, flags, 0, 0),
        )

    def enter_blocking(self, to_submit=0, min_complete=0,
                       flags=RING_ENTER_ASYNC):
        return self.machine.kernel.dispatch_blocking(
            self.task, RING_ENTER,
            (self.addr, to_submit, min_complete, flags, 0, 0),
        )


def make_pipe(machine, task):
    """pipe() through the kernel; returns (read_fd, write_fd)."""
    addr = task.mem.map_anywhere(4096, Perm.RW)
    assert machine.kernel.dispatch(task, NR["pipe"],
                                   (addr, 0, 0, 0, 0, 0)) == 0
    packed = task.mem.read_u64(addr, check=None)
    return packed & 0xFFFFFFFF, packed >> 32


def feed_pipe(machine, task, wfd, data=b"!"):
    buf = task.mem.map_anywhere(4096, Perm.RW)
    task.mem.write(buf, data, check=None)
    assert machine.kernel.dispatch(
        task, NR["write"], (wfd, buf, len(data), 0, 0, 0)) == len(data)


# ----------------------------------------------------------- kernel level
def test_blocking_entry_parks_and_drain_continues():
    """A read on an empty pipe no longer stalls the drain: later entries
    complete first, their CQEs posting out of submission order."""
    machine, task = idle_machine()
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "getpid", user_data=0xA0)
    ring.push(1, "read", rfd, buf, 8, user_data=0xA1)
    ring.push(2, "getpid", user_data=0xA2)
    ring.w64(HDR_SQ_TAIL, 3)
    # The async enter consumes all three but completes only the getpids.
    assert ring.enter() == 2
    assert ring.r64(HDR_SQ_HEAD) == 3
    assert ring.r64(HDR_CQ_TAIL) == 2
    assert ring.result(0) == task.pid
    assert ring.result(2) == task.pid
    assert ring.result(1) == 0  # parked: CQE slot untouched
    assert len(task.ring_waiters) == 1
    assert task.ring_waiters[0].slot == 1
    assert task.ring_parked_peak == 1
    # Re-entering with nothing new merely drives the parked entries — the
    # pipe is still empty, so nothing completes.
    assert ring.enter() == 0
    assert len(task.ring_waiters) == 1
    # Feed the pipe; the next safe point posts the parked CQE.
    feed_pipe(machine, task, wfd, b"hello")
    assert ring.enter() == 1
    assert ring.r64(HDR_CQ_TAIL) == 3
    assert ring.result(1) == 5
    assert ring.user_data(1) == 0xA1
    assert task.mem.read(buf, 5, check=None) == b"hello"
    assert not task.ring_waiters


def test_dependent_entry_parks_until_its_link_resolves():
    """An entry whose result link targets a parked slot parks as a
    dependent and executes — gate included — once the link resolves."""
    machine, task = idle_machine()
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "read", rfd, buf, 64)
    # write(stdout) as many bytes as the read returned: depends on slot 0.
    ring.push(1, "write", 1, buf, ring_result(0))
    ring.push(2, "gettid")
    ring.w64(HDR_SQ_TAIL, 3)
    assert ring.enter() == 1  # only gettid completes
    assert ring.r64(HDR_SQ_HEAD) == 3
    assert ring.r64(HDR_CQ_TAIL) == 1
    assert len(task.ring_waiters) == 2
    dependent = task.ring_waiters[1]
    assert dependent.slot == 1 and dependent.deps == {0}
    feed_pipe(machine, task, wfd, b"abc")
    assert ring.enter() == 2  # read completes, releasing the write
    assert ring.result(0) == 3
    assert ring.result(1) == 3
    assert ring.r64(HDR_CQ_TAIL) == 3
    assert bytes(task.stdout).endswith(b"abc")
    assert not task.ring_waiters


def test_min_complete_blocks_until_wakeup_fires():
    """ring_wait: the task blocks cooperatively until the parked entry's
    wakeup (a timed host event feeding the pipe) posts enough CQEs."""
    machine, task = idle_machine()
    kernel = machine.kernel
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    data = task.mem.map_anywhere(4096, Perm.RW)
    task.mem.write(data, b"xy", check=None)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "read", rfd, buf, 8)
    ring.w64(HDR_SQ_TAIL, 1)

    fed_at = 400_000

    def feed():
        # Direct buffer append: only a ring wakeup can observe this.
        desc = task.fdtable.get(wfd)
        desc.pipe.buffer += b"xy"

    kernel.post_event_in(fed_at, feed)
    before = machine.clock
    assert ring.enter_blocking(min_complete=1) is not None
    assert machine.clock - before >= fed_at
    assert ring.r64(HDR_CQ_TAIL) == 1
    assert ring.result(0) == 2
    assert not task.ring_waiters


def test_min_complete_returns_short_when_nothing_can_post():
    """A wait for more CQEs than parked entries can ever post returns
    instead of deadlocking once the waiter set drains empty."""
    machine, task = idle_machine()
    ring = AsyncRingMem(machine, task)
    ring.push(0, "getpid")
    ring.w64(HDR_SQ_TAIL, 1)
    # min_complete=5 can never be reached: 1 entry, no waiters remain.
    assert ring.enter_blocking(min_complete=5) == 1
    assert ring.r64(HDR_CQ_TAIL) == 1


def test_nanosleep_parks_and_completes_when_time_advances():
    machine, task = idle_machine()
    req = task.mem.map_anywhere(4096, Perm.RW)
    task.mem.write_u64(req, 0, check=None)
    task.mem.write_u64(req + 8, 500_000, check=None)  # 500us
    ring = AsyncRingMem(machine, task)
    ring.push(0, "nanosleep", req, 0)
    ring.push(1, "getpid")
    ring.w64(HDR_SQ_TAIL, 2)
    before = machine.clock
    assert ring.enter() == 1  # getpid completes; the sleep parks
    assert len(task.ring_waiters) == 1
    assert ring.enter_blocking(min_complete=2) is not None
    assert ring.result(0) == 0
    assert ring.result(1) == task.pid
    # 500us at ~2 GHz: simulated time genuinely advanced.
    assert machine.clock - before > 500_000
    assert not task.ring_waiters


def test_sync_and_async_drains_are_result_identical():
    """The same op list posts the same result to the same CQ slot either
    way — only completion order (cq_tail vs slot) differs."""
    results = {}
    for use_async in (False, True):
        machine, task = idle_machine()
        machine.fs.create("/data.bin", b"abcdef")
        path = task.mem.map_anywhere(4096, Perm.RW)
        task.mem.write(path, b"/data.bin\x00", check=None)
        buf = path + 128
        ring = AsyncRingMem(machine, task)
        ring.push(0, "open", path, 0, 0)
        ring.push(1, "read", ring_result(0), buf, 6)
        ring.push(2, "close", ring_result(0))
        ring.push(3, "lseek", 999, 0, 0)
        ring.push(4, "close", ring_result(3))
        ring.push(5, "getpid")
        ring.w64(HDR_SQ_TAIL, 6)
        flags = RING_ENTER_ASYNC if use_async else 0
        assert ring.enter_blocking(min_complete=6 if use_async else 0,
                                   flags=flags) is not None
        results[use_async] = [ring.result(s) for s in range(6)]
        assert ring.r64(HDR_CQ_TAIL) == 6
    assert results[False] == results[True]


def test_async_obs_events():
    """ring_park/ring_complete events carry attribution; a parked entry
    still counts exactly once toward ring_entries."""
    tracer = Tracer()
    machine, task = idle_machine(tracer=tracer)
    rfd, wfd = make_pipe(machine, task)
    buf = task.mem.map_anywhere(4096, Perm.RW)
    ring = AsyncRingMem(machine, task)
    ring.push(0, "getpid")
    ring.push(1, "read", rfd, buf, 8, user_data=0xB1)
    ring.push(2, "getpid")
    ring.w64(HDR_SQ_TAIL, 3)
    assert ring.enter() == 2
    feed_pipe(machine, task, wfd, b"z")
    assert ring.enter() == 1
    assert tracer.ring_parks == 1
    assert tracer.ring_completes == 1
    assert tracer.ring_entries == 3  # 2 inline + 1 parked completion
    enters = [e.data for e in tracer.events if e.kind == K.RING_ENTER]
    assert enters[0]["submitted"] == 3
    assert enters[0]["completed"] == 2
    assert enters[0]["parked"] == 1
    parks = [e for e in tracer.events if e.kind == K.RING_PARK]
    completes = [e for e in tracer.events if e.kind == K.RING_COMPLETE]
    assert len(parks) == 1 and parks[0].data["name"] == "read"
    assert parks[0].data["user_data"] == 0xB1
    assert len(completes) == 1
    assert completes[0].data["name"] == "read"
    assert completes[0].data["ret"] == 1
    assert completes[0].data["waited"] >= 0


def test_async_efault_only_when_nothing_consumed():
    machine, task = idle_machine()
    assert machine.kernel.dispatch(
        task, RING_ENTER, (0xDEAD0000, 0, 0, RING_ENTER_ASYNC, 0, 0)
    ) == -errno.EFAULT


# ------------------------------------------------------------ guest level
def run_async_guest(tool=None):
    tracer = Tracer()
    machine = Machine(tracer=tracer)
    process = machine.load(build_uring_async_guest())
    if tool is not None:
        from repro.interpose.registry import attach
        from repro.interpose.api import passthrough_interposer

        attach(machine, process, tool, interposer=passthrough_interposer)
    arm_repeating_signal(machine, process.task)
    arm_pipe_feeder(machine, process.task, delay=150_000, interval=60_000)
    machine.run(max_instructions=2_000_000)
    return machine, process, tracer


@pytest.mark.parametrize("tool", [None, "lazypoline", "zpoline"])
def test_guest_async_submit_wait_survives_signals(tool):
    """submit_async + wait(3): the parked read survives signal
    interruptions of the wait and completes when the feeder writes."""
    machine, process, tracer = run_async_guest(tool)
    assert process.task.exit_code == 15
    assert tracer.ring_parks >= 1
    assert tracer.ring_completes == tracer.ring_parks  # no lost wakeups
    completes = [e.data for e in tracer.events if e.kind == K.RING_COMPLETE]
    assert completes[0]["name"] == "read"
    assert completes[0]["ret"] >= 1


def test_guest_async_matches_sync_invariants():
    """The async guest's ring state after exit mirrors the sync one:
    every consumed entry has exactly one posted CQE."""
    machine, process, tracer = run_async_guest()
    enters = [e.data for e in tracer.events if e.kind == K.RING_ENTER]
    consumed = sum(e["completed"] + e.get("parked", 0) for e in enters)
    posted = sum(e["completed"] for e in enters) + tracer.ring_completes
    assert consumed == 3
    assert posted == 3


# ------------------------------------------- event-loop webserver overlap
def test_async_webserver_overlaps_blocking_reads():
    """The acceptance criterion: ONE worker keeps >= 4 blocking reads
    in flight at once.  Client think time is made long relative to a
    full service wave, so at the moment the read wave submits no
    connection has data yet — every read must park, and the worker's
    single ring_wait overlaps them all."""
    from repro.workloads.webserver import NGINX, ServerWorkload

    tracer = Tracer()
    machine = Machine(tracer=tracer)
    workload = ServerWorkload(machine, NGINX, file_size=4096,
                              batched="async", async_depth=6)
    rps = workload.benchmark(requests=24, warmup=4, connections=6,
                             client_cycles_per_request=120_000)
    assert rps > 0
    peak = max(t.ring_parked_peak for t in machine.kernel.tasks.values())
    assert peak >= 4
    assert tracer.ring_parks > 0
    assert tracer.ring_completes == tracer.ring_parks


def test_async_webserver_sizes_ring_for_readwrite_delivery():
    """lighttpd's read/write delivery pushes six response SQEs, not
    nginx's five; the event-loop ring is sized from the tail it pushes,
    so the lighttpd leg builds and overlaps its reads like nginx's."""
    from repro.workloads.webserver import LIGHTTPD, ServerWorkload

    tracer = Tracer()
    machine = Machine(tracer=tracer)
    workload = ServerWorkload(machine, LIGHTTPD, file_size=4096,
                              batched="async", async_depth=6)
    rps = workload.benchmark(requests=24, warmup=4, connections=6,
                             client_cycles_per_request=120_000)
    assert rps > 0
    peak = max(t.ring_parked_peak for t in machine.kernel.tasks.values())
    assert peak >= 4
    assert tracer.ring_completes == tracer.ring_parks > 0


def test_async_webserver_beats_sync_batched_when_clients_are_instant():
    """With zero think time the async leg degenerates gracefully: no
    parking (data is always ready), same request accounting."""
    from repro.workloads.webserver import NGINX, ServerWorkload

    tracer = Tracer()
    machine = Machine(tracer=tracer)
    workload = ServerWorkload(machine, NGINX, file_size=4096,
                              batched="async", async_depth=4)
    rps = workload.benchmark(requests=24, warmup=4, connections=4)
    assert rps > 0
    assert tracer.ring_enters > 0


# --------------------------------------- RET_TRAP re-arm (regression fix)
def build_retrap_rearm_guest():
    """A SIGSYS handler that *retries* the trapped entry.

    The ring is [getpid, mkdir (seccomp RET_TRAP), getpid].  The handler
    rewrites the trapped SQE's sysno to getpid and rewinds ``sq_head`` to
    re-arm it; the GuestRing re-enter loop then re-drains from slot 1.
    The regression this pins: the sync drain must couple ``cq_tail`` to
    ``sq_head`` so the retried entry *overwrites* its stale -EINTR CQE —
    an incrementing cq_tail would double-count it (tail 5, not 3).
    Exit code packs: bit0 handler ran exactly once, bit1 slot 1 completed
    with the pid, bit2 cq_tail == 3.  Expected: 7.
    """
    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    # scratch page: handler counter @0, ring base @8, pid @16
    a.mov_imm("rdi", 0)
    a.mov_imm("rsi", 4096)
    a.mov_imm("rdx", 3)
    a.mov_imm("r10", 0x22)
    a.mov_imm("r8", (1 << 64) - 1)
    a.mov_imm("r9", 0)
    a.mov_imm("rax", NR["mmap"])
    a.syscall()
    a.mov("r14", "rax")
    a.mov_imm("rdi", SIGSYS)
    a.mov_imm("rsi", "act")
    a.mov_imm("rdx", 0)
    a.mov_imm("r10", 8)
    a.mov_imm("rax", NR["rt_sigaction"])
    a.syscall()
    a.mov_imm("rax", NR["getpid"])
    a.syscall()
    a.store("r14", 16, "rax")
    ring = GuestRing(a, entries=4, base="r9")
    ring.emit_mmap()
    a.store("r14", 8, "r9")  # handler needs the ring base
    ring.push("getpid")
    ring.push("mkdir", "r14", 0o755)  # path arg unused: the gate traps it
    ring.push("getpid")
    ring.submit()  # re-enter loop resumes after the handler's rewind
    a.mov_imm("rdi", 0)
    a.load("rdx", "r14", 0)
    a.cmpi("rdx", 1)
    a.jnz("count_wrong")
    a.ori("rdi", 1)
    a.label("count_wrong")
    ring.load_result("rdx", 1)
    a.load("rcx", "r14", 16)
    a.cmp("rdx", "rcx")
    a.jnz("slot1_wrong")
    a.ori("rdi", 2)
    a.label("slot1_wrong")
    a.load("rcx", "r14", 8)
    a.load("rdx", "rcx", HDR_CQ_TAIL)
    a.cmpi("rdx", 3)
    a.jnz("tail_wrong")
    a.ori("rdi", 4)
    a.label("tail_wrong")
    a.mov_imm("rax", NR["exit_group"])
    a.syscall()
    a.label("handler")
    a.load("rax", "r14", 0)
    a.inc("rax")
    a.store("r14", 0, "rax")
    a.load("rcx", "r14", 8)  # ring base
    a.mov_imm("rax", NR["getpid"])
    a.store("rcx", sqe_offset(1) + SQE_SYSNO, "rax")  # re-arm slot 1
    a.mov_imm("rax", 1)
    a.store("rcx", HDR_SQ_HEAD, "rax")  # rewind: retry from slot 1
    a.ret()
    a.align(8, fill=0)
    a.label("act")
    a.dq("handler")
    a.dq(0)
    a.dq(0)
    a.dq(0)
    return image_from_assembler("retrap_rearm", a, entry="_start")


def test_retrap_handler_rearming_entry_does_not_double_complete():
    machine = Machine()
    process = machine.load(build_retrap_rearm_guest())
    process.task.seccomp_filters.append(
        FilterBuilder.deny_syscalls([NR["mkdir"]], SECCOMP_RET_TRAP)
    )
    machine.run(max_instructions=2_000_000)
    assert not process.alive
    assert process.term_signal is None
    assert process.task.exit_code == 7
