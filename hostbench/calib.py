"""The host-speed reference: a fixed pure-Python loop, ~60 ms.

Host time on a shared VM moves with the machine's speed, not only with the
program: back-to-back processes see the same simulated run take 1.0 s or
1.7 s, and the speed swings within a process too.  A reference loop timed
right before and right after an op moves with it, so ``op_seconds /
ref_seconds`` (an op's cost in ``ref`` units) repeats far better than raw
seconds do.

The loop calls no repository code.  Like the simulator, it mixes two kinds
of work, because a busy neighbour slows them by different amounts:
interpreter-bound arithmetic, attribute and method traffic over a small
working set, and memory-bound pointer chasing, dict lookups and byte
stores over a few megabytes.  Each part runs once, whole: timing short
chunks of it instead (and taking their median) tracked the simulator
worse, since it misses the cache behaviour of a sustained run.
"""

from __future__ import annotations

import random
import time

#: Iterations of the interpreter-bound part (~30 ms on a 2020s x86 core).
COMPUTE_ITERS = 45_000
#: Iterations of the memory-bound part (~30 ms).
MEMORY_ITERS = 55_000
#: Objects in the pointer-chased working set.
NODES = 1 << 16


class _Regs:
    __slots__ = ("acc", "pc")

    def __init__(self) -> None:
        self.acc = 0
        self.pc = 0

    def step(self, value: int) -> int:
        self.acc = (self.acc * 31 + value) & 0xFFFF_FFFF
        self.pc += 1
        return self.acc


class _Node:
    __slots__ = ("next", "key")


class Reference:
    """The reference loop and its working set (built once)."""

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(NODES)]
        order = list(range(NODES))
        random.Random(1).shuffle(order)
        for i, node in enumerate(nodes):
            node.next = nodes[order[i]]
            node.key = i * 7919
        self._head = nodes[0]
        self._table = {i * 7919: i for i in range(NODES)}
        self._page = bytearray(1 << 20)

    @staticmethod
    def _compute(iters: int) -> int:
        regs = _Regs()
        table: dict[int, int] = {}
        page = bytes(range(256)) * 16
        out = []
        for i in range(iters):
            key = i & 255
            table[key] = table.get(key, 0) + regs.step(i)
            out.append(page[key : key + 8][0] ^ (table[key] & 0xFF))
            if len(out) > 64:
                out.clear()
        return regs.acc

    def _memory(self, iters: int) -> int:
        node, table, page = self._head, self._table, self._page
        acc = 0
        for i in range(iters):
            node = node.next
            acc = (acc * 31 + table.get(node.key, 0) + i) & 0xFFFF_FFFF
            page[(acc << 6) & 0xF_FFC0] = i & 0xFF
        return acc

    def seconds(self) -> float:
        """One reference reading, in seconds."""
        t0 = time.perf_counter()
        self._compute(COMPUTE_ITERS)
        self._memory(MEMORY_ITERS)
        return time.perf_counter() - t0
