"""Exception hierarchy for the repro simulator.

Every error raised by the substrate derives from :class:`ReproError` so that
callers can distinguish simulator faults from genuine Python bugs.  Faults
that have an architectural meaning (page faults, invalid opcodes) carry the
information a kernel needs to turn them into signals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class MemoryError_(ReproError):
    """Base class for memory subsystem errors."""


class PageFault(MemoryError_):
    """Raised on an access to unmapped memory or a permission violation.

    Attributes:
        address: the faulting virtual address.
        access: one of ``"read"``, ``"write"``, ``"exec"``.
    """

    def __init__(self, address: int, access: str, message: str | None = None):
        self.address = address
        self.access = access
        super().__init__(
            message or f"page fault: {access} at {address:#x}"
        )


class MapError(MemoryError_):
    """Raised when an mmap/mprotect request cannot be satisfied."""


class InvalidOpcode(ReproError):
    """Raised when the CPU decodes an undefined instruction (→ SIGILL)."""

    def __init__(self, address: int, byte: int | None = None):
        self.address = address
        self.byte = byte
        detail = f" (first byte {byte:#04x})" if byte is not None else ""
        super().__init__(f"invalid opcode at {address:#x}{detail}")


class BreakpointTrap(ReproError):
    """Raised when the CPU retires an ``int3`` (→ SIGTRAP)."""

    def __init__(self, address: int):
        self.address = address
        super().__init__(f"breakpoint at {address:#x}")


class AssemblerError(ReproError):
    """Raised for malformed assembly input (bad mnemonic, range, label)."""


class KernelError(ReproError):
    """Base class for kernel-level errors (bugs in kernel usage, not guest)."""


class LoaderError(ReproError):
    """Raised when a program image cannot be loaded."""


class AttachError(ReproError):
    """Raised when an interposition tool cannot attach in the current
    environment (e.g. ``mmap_min_addr`` forbids the VA-0 trampoline, or
    setup-time allocations fail) and no degradation mode is permitted."""


class BpfError(ReproError):
    """Raised for malformed BPF programs (bad jump targets, etc.)."""


class GuestCrash(ReproError):
    """Raised by run helpers when the guest dies on an unhandled fault."""

    def __init__(self, message: str, signal: int | None = None):
        self.signal = signal
        super().__init__(message)
