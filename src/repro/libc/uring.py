"""Guest-side helpers for the syscall-aggregation ring.

:class:`GuestRing` emits the assembly a batching libc would ship: ring
setup (mmap or carve out of an existing buffer), SQE stores, the
``ring_enter`` re-enter loop (resuming a partially drained ring after a
signal), and CQE loads.  The layout constants come from
``repro.kernel.uring`` so guest and kernel can never disagree.

Two usage styles:

* **one-shot / linked batches** — ``push()`` entries (slots are assigned
  sequentially), then ``submit()``.  Cross-batch result links work as
  long as the total entry count stays within the ring capacity.
* **steady-state loops** — write the SQEs once with ``push()``, then
  ``flush(n)`` inside the guest loop: it rewinds ``sq_head``/``sq_tail``
  so the same N entries are re-submitted every iteration without
  re-storing them (the kernel never modifies SQE contents).
* **async submission** — ``submit_async()`` publishes entries through an
  asynchronous drain (blocking SQEs park kernel-side instead of stalling;
  see :data:`repro.kernel.uring.RING_ENTER_ASYNC`), then ``wait(n)``
  blocks until at least ``n`` CQEs have posted — the event-loop shape:
  one task keeps many I/Os in flight and harvests completions in bulk.
  Host-side completion callbacks registered with ``on_completion(slot,
  emit)`` are emitted by ``emit_completions()`` after a wait.

Example::

    ring = GuestRing(a, entries=8, base="r9")
    ring.emit_mmap()                       # or emit_init() into own buffer
    s0 = ring.push("open", "path_label", 0, 0)
    s1 = ring.push("fstat", ring_result(s0), "rdx")   # rdx holds a buf ptr
    ring.push("close", ring_result(s0))
    ring.submit()                          # one ring_enter, three syscalls
    ring.load_result("rax", s1)            # fstat's return value

Arguments to ``push`` may be integer immediates, assembler label names
(resolved to addresses), GPR names (stored at push time), or
:func:`ring_result` links (resolved by the kernel at drain time).
"""

from __future__ import annotations

from repro.kernel.syscalls.table import NR
from repro.kernel.uring import (
    RING_ENTER_ASYNC,
    CQE_SIZE,
    HDR_CQ_HEAD,
    HDR_CQ_CAP,
    HDR_CQ_TAIL,
    HDR_SQ_CAP,
    HDR_SQ_HEAD,
    HDR_SQ_TAIL,
    HEADER_SIZE,
    SQE_ARGS,
    SQE_SIZE,
    SQE_SYSNO,
    SQE_USER_DATA,
    cqe_offset,
    ring_result,
    ring_size,
    sqe_offset,
)

__all__ = [
    "DEFAULT_RING_ENTRIES",
    "RING_BASE_REG",
    "RING_ENTER_ASYNC",
    "GuestRing",
    "ring_result",
    "ring_region_size",
    "ring_size",
]

# ------------------------------------------------------- shared geometry
#: Default ring capacity for in-tree ring users (the batched webserver's
#: per-worker ring, examples).  Every builder that carves a ring out of a
#: larger buffer must size that buffer with :func:`ring_region_size` so a
#: layout change here (or in ``repro.kernel.uring``'s SQE/CQE sizes) grows
#: the buffer instead of silently overlapping whatever lives after it.
DEFAULT_RING_ENTRIES = 8

#: Conventional GPR holding the ring base in generated guest code.
RING_BASE_REG = "r9"


def ring_region_size(entries: int = DEFAULT_RING_ENTRIES,
                     *, align: int = 4096) -> int:
    """Bytes to reserve for a ring of ``entries`` slots, ``align``-rounded.

    Page-rounding keeps buffer layouts stable across small geometry tweaks
    (benchmark cycle counts depend on the mmap length immediate), while a
    genuine layout growth past the page boundary resizes the reservation
    instead of corrupting the neighbouring buffer.
    """
    size = ring_size(entries)
    return (size + align - 1) & ~(align - 1)

_GPRS = frozenset(
    ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp"]
    + [f"r{i}" for i in range(8, 16)]
)

#: mmap(NULL, size, PROT_READ|PROT_WRITE, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0)
_PROT_RW = 0x3
_MAP_PRIVATE_ANON = 0x22


class GuestRing:
    """Emits ring-management assembly against an ``Assembler``.

    ``base`` is the GPR holding the ring's base address (plus a constant
    ``disp``, letting the ring live inside a larger buffer).  ``scratch``
    is clobbered by every helper; ``submit``/``flush`` additionally
    clobber ``rdi/rsi/rdx/r10/rax`` (the syscall argument registers).
    """

    def __init__(self, asm, *, entries: int, base: str = RING_BASE_REG,
                 disp: int = 0, scratch: str = "rcx", tag: str = "ring"):
        self.asm = asm
        self.entries = entries
        self.base = base
        self.disp = disp
        self.scratch = scratch
        self.tag = tag
        self._next_slot = 0
        self._label_seq = 0
        self._callbacks: dict[int, object] = {}

    # ------------------------------------------------------------------ setup
    def emit_mmap(self) -> "GuestRing":
        """mmap a fresh anonymous region for the ring and initialise it.

        Clobbers the syscall argument registers; leaves the ring address
        in ``base``.
        """
        a = self.asm
        a.mov_imm("rdi", 0)
        a.mov_imm("rsi", ring_size(self.entries))
        a.mov_imm("rdx", _PROT_RW)
        a.mov_imm("r10", _MAP_PRIVATE_ANON)
        a.mov_imm("r8", (1 << 64) - 1)
        a.mov_imm("r9", 0)
        a.mov_imm("rax", NR["mmap"])
        a.syscall()
        a.mov(self.base, "rax")
        self.disp = 0
        return self.emit_init()

    def emit_init(self) -> "GuestRing":
        """Write the header: capacities set, all cursors zeroed."""
        a, s = self.asm, self.scratch
        a.mov_imm(s, self.entries)
        a.store(self.base, self.disp + HDR_SQ_CAP, s)
        a.store(self.base, self.disp + HDR_CQ_CAP, s)
        a.mov_imm(s, 0)
        for off in (HDR_SQ_HEAD, HDR_SQ_TAIL, HDR_CQ_HEAD, HDR_CQ_TAIL):
            a.store(self.base, self.disp + off, s)
        return self

    # ------------------------------------------------------------- submission
    def _store_value(self, offset: int, value) -> None:
        """Store an immediate/label (via scratch) or a GPR at base+offset."""
        a = self.asm
        if isinstance(value, str) and value in _GPRS:
            a.store(self.base, self.disp + offset, value)
        else:
            a.mov_imm(self.scratch, value)
            a.store(self.base, self.disp + offset, self.scratch)

    def push(self, name, *args, user_data=None, slot: int | None = None) -> int:
        """Write one SQE; returns the slot it occupies.

        ``name`` is a syscall name (or a raw number).  Unsupplied trailing
        arguments are not stored — fine for fresh (zeroed) ring memory or
        when re-pushing the same shape into a reused slot.
        """
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
        if slot >= self.entries:
            raise ValueError(f"slot {slot} exceeds ring capacity {self.entries}")
        off = sqe_offset(slot)
        sysno = NR[name] if isinstance(name, str) else name
        self._store_value(off + SQE_SYSNO, sysno)
        for k, arg in enumerate(args):
            self._store_value(off + SQE_ARGS + 8 * k, arg)
        if user_data is not None:
            self._store_value(off + SQE_USER_DATA, user_data)
        return slot

    # Batched wrappers a libc would export -------------------------------
    def push_read(self, fd, buf, count) -> int:
        return self.push("read", fd, buf, count)

    def push_write(self, fd, buf, count) -> int:
        return self.push("write", fd, buf, count)

    def push_accept(self, fd) -> int:
        return self.push("accept4", fd, 0, 0, 0)

    def _submit(self, n: int, *, min_complete: int = 0,
                flags: int = 0) -> int:
        """Publish ``sq_tail = n`` and emit ring_enter, re-entering until
        ``sq_head == n``.

        The loop is what makes signal interruption invisible to the guest
        in the common case: a partial drain returns early (the handler
        runs at the next instruction boundary) and the re-enter resumes
        from the published ``sq_head`` — never re-running completed
        entries, never losing the remainder.
        """
        a, s = self.asm, self.scratch
        a.mov_imm(s, n)
        a.store(self.base, self.disp + HDR_SQ_TAIL, s)
        label = f"__{self.tag}_enter_{self._label_seq}"
        self._label_seq += 1
        a.label(label)
        a.lea("rdi", self.base, self.disp)
        a.mov_imm("rsi", 0)
        a.mov_imm("rdx", min_complete)
        a.mov_imm("r10", flags)
        a.mov_imm("rax", NR["ring_enter"])
        a.syscall()
        a.load(s, self.base, self.disp + HDR_SQ_HEAD)
        a.cmpi(s, n)
        a.jnz(label)
        return n

    def submit(self) -> int:
        """Publish all pushed entries and drain them with one crossing."""
        return self._submit(self._next_slot)

    def submit_async(self, *, min_complete: int = 0) -> int:
        """Publish all pushed entries through an *asynchronous* drain.

        The crossing returns as soon as every entry is consumed —
        completed or parked kernel-side — so the guest overlaps all its
        in-flight I/O.  With ``min_complete`` the same crossing then
        waits until that many CQEs have posted (submit-and-wait).
        """
        return self._submit(self._next_slot, min_complete=min_complete,
                            flags=RING_ENTER_ASYNC)

    def wait(self, min_complete: int) -> None:
        """Emit a ``ring_wait``: block until ``cq_tail >= min_complete``.

        Re-enters after signal interruption (the kernel call returns
        -EINTR-style early; the guest re-checks the published cursor), so
        a wait is never lost to a handler running in the middle of it.
        """
        a, s = self.asm, self.scratch
        label = f"__{self.tag}_wait_{self._label_seq}"
        self._label_seq += 1
        a.label(label)
        a.lea("rdi", self.base, self.disp)
        a.mov_imm("rsi", 0)
        a.mov_imm("rdx", min_complete)
        a.mov_imm("r10", RING_ENTER_ASYNC)
        a.mov_imm("rax", NR["ring_enter"])
        a.syscall()
        a.load(s, self.base, self.disp + HDR_CQ_TAIL)
        a.cmpi(s, min_complete)
        a.jl(label)

    def rewind(self) -> None:
        """Rewind all cursors guest-side *without* entering — the prologue
        of a steady-state wave that re-pushes entries before submitting."""
        a, s = self.asm, self.scratch
        a.mov_imm(s, 0)
        for off in (HDR_SQ_HEAD, HDR_CQ_HEAD, HDR_CQ_TAIL):
            a.store(self.base, self.disp + off, s)

    def flush(self, n: int | None = None) -> None:
        """Re-submit slots ``0..n-1`` (already written) with one crossing.

        Rewinds the cursors, so the SQE stores are paid once at setup and
        the steady-state loop costs only the enter itself.
        """
        self.rewind()
        self._submit(self._next_slot if n is None else n)

    # ------------------------------------------------------------- completion
    def on_completion(self, slot: int, emit) -> None:
        """Register a host-side completion callback for CQ ``slot``.

        ``emit(asm, ring, slot)`` is invoked by :meth:`emit_completions`
        to generate the guest code consuming that completion — the
        assembly-level analogue of an event loop's per-request callback.
        """
        self._callbacks[slot] = emit

    def emit_completions(self) -> None:
        """Emit every registered completion callback, in slot order.

        Call after a :meth:`wait` (or ``submit_async(min_complete=...)``)
        that guarantees the slots' CQEs have posted.
        """
        for slot in sorted(self._callbacks):
            self._callbacks[slot](self.asm, self, slot)

    def load_result(self, dst: str, slot: int) -> None:
        """Load CQ slot ``slot``'s result (u64 two's complement) into ``dst``."""
        self.asm.load(dst, self.base,
                      self.disp + cqe_offset(self.entries, slot))

    def reset(self) -> None:
        """Forget pushed slots and registered completion callbacks
        (host-side only; guest memory untouched)."""
        self._next_slot = 0
        self._callbacks.clear()
