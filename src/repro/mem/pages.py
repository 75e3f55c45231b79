"""Pages and permissions."""

from __future__ import annotations

from dataclasses import dataclass, field

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class Perm:
    """Page permission bits, mmap-style, as plain ints."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X


def describe(perm: int) -> str:
    """``perm`` as an ``rwx`` string, e.g. ``"r-x"``."""
    return "".join(
        ch if perm & bit else "-"
        for ch, bit in (("r", Perm.R), ("w", Perm.W), ("x", Perm.X))
    )


def page_align_down(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


@dataclass
class Page:
    """One 4 KiB page of guest memory.

    ``pkey`` is the memory protection key (MPK) the page is tagged with;
    key 0 is the default, unrestricted key.
    """

    data: bytearray = field(default_factory=lambda: bytearray(PAGE_SIZE))
    perm: int = Perm.NONE
    pkey: int = 0

    def copy(self) -> "Page":
        return Page(bytearray(self.data), self.perm, self.pkey)
