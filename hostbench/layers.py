"""Outside-in layer trace: host time attributed to the repo's modules.

Nothing in ``src/`` changes.  :class:`LayerTrace` swaps timing wrappers
onto the public functions each layer exposes (class attributes and module
bindings), and restores the originals on :meth:`uninstall`.  A wrapper
counts its calls and accumulates *self time*: its span minus the time of
the wrapped calls nested inside it.  Wrappers go in before the op boots
its ``Machine``, so the bindings the simulator caches per slice (e.g.
``step = cpu.step``) resolve to them.

Per-instruction layers (``cpu.step``, ``mem``) are aggregated into counts
and self time only.  Coarse spans (op, boot, ``Cluster.serve``,
``run_shard``, plan) are also kept as records: each carries the op id as
its identifier and the id of its parent span, and :meth:`spans` returns
them all when the run ends.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

#: (layer, owner module, owner attribute path, coarse span name or None).
#: The owner path is a class or module attribute holding the callable.
_TIMED = (
    ("cpu.step", "repro.cpu.core", "CPU.step", None),
    ("cpu.block_compile", "repro.cpu.core", "CPU.compile_superblock", None),
    ("kernel.slice", "repro.kernel.scheduler", "Scheduler.run_task_slice",
     None),
    ("kernel.dispatch", "repro.kernel.kernel", "Kernel.dispatch", None),
    ("kernel.signal", "repro.kernel.signals", "SignalDelivery.deliver_now",
     None),
    ("kernel.sigreturn", "repro.kernel.signals", "SignalDelivery.sigreturn",
     None),
    ("kernel.bpf", "repro.kernel.seccomp.core", "run_bpf", None),
    ("mem.read", "repro.mem.address_space", "AddressSpace.read", None),
    ("mem.write", "repro.mem.address_space", "AddressSpace.write", None),
    ("mem.fetch", "repro.mem.address_space", "AddressSpace.fetch", None),
    ("workloads.boot", "repro.kernel.machine", "Machine.__init__", "boot"),
    ("workloads.boot", "repro.kernel.machine", "Machine.load", "boot"),
    ("workloads.boot", "repro.workloads.runner", "attach_mechanism",
     "boot"),
    ("cluster.serve", "repro.cluster.cluster", "Cluster.serve", "serve"),
    ("cluster.shard", "repro.cluster.cluster", "run_shard", "run_shard"),
    ("cluster.plan", "repro.cluster.balancer", "LoadBalancer.plan", "plan"),
    ("cluster.plan", "repro.cluster.balancer", "LoadBalancer.replan",
     "plan"),
)


@dataclasses.dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


#: Every per-layer metric: (name, unit, better).  Those with unit ``count``
#: -- and the ratios of counts -- must repeat exactly from op to op.
PER_LAYER = (
    ("cpu.steps", "count", "lower"),
    ("cpu.steps_nop_share", "ratio", "lower"),
    ("cpu.step_self_s", "s", "lower"),
    ("cpu.instructions", "count", "lower"),
    ("cpu.block_compiles", "count", "lower"),
    ("cpu.block_compile_self_s", "s", "lower"),
    ("cpu.block_exec_self_s", "s", "lower"),
    ("cpu.block_runs", "count", "higher"),
    ("cpu.block_invalidations", "count", "lower"),
    ("cpu.block_runs_per_compile", "ratio", "higher"),
    ("kernel.slices", "count", "lower"),
    ("kernel.slice_self_s", "s", "lower"),
    ("kernel.syscalls", "count", "lower"),
    ("kernel.dispatch_self_s", "s", "lower"),
    ("kernel.sim_cycles", "count", "lower"),
    ("kernel.signal_frames", "count", "lower"),
    ("kernel.sigreturns", "count", "lower"),
    ("kernel.signal_self_s", "s", "lower"),
    ("kernel.bpf_runs", "count", "lower"),
    ("kernel.bpf_self_s", "s", "lower"),
    ("kernel.ring_enters", "count", "lower"),
    ("kernel.ring_parks", "count", "lower"),
    ("kernel.ring_self_s", "s", "lower"),
    ("mem.reads", "count", "lower"),
    ("mem.writes", "count", "lower"),
    ("mem.fetches", "count", "lower"),
    ("mem.write_bytes_avg", "bytes", "higher"),
    ("mem.self_s", "s", "lower"),
    ("interpose.calls", "count", "lower"),
    ("interpose.self_s", "s", "lower"),
    ("interpose.slowpath_traps", "count", "lower"),
    ("interpose.rewritten_sites", "count", "lower"),
    ("workloads.boot_self_s", "s", "lower"),
    ("cluster.shard_runs", "count", "lower"),
    ("cluster.serve_self_s", "s", "lower"),
    ("cluster.plan_self_s", "s", "lower"),
    ("cluster.rounds", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
)

#: Metrics that must repeat exactly across traced ops.
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit in ("count", "ratio", "bytes")
              and name != "obs.trace_overhead")


class LayerTrace:
    """Counts and self time per layer, plus coarse spans, for traced ops."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: simulated machines booted during the current op
        self.machines: list = []
        self._stack: list[list[float]] = []  # [child seconds] per open call
        self._spans: list[Span] = []
        self._open: list[Span] = []
        self._op = -1
        self._patches: list[tuple[object, object, object]] = []
        self.interposer = None

    # ------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, fn, span: str | None):
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        clock = time.perf_counter
        open_spans = self._open

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            record = None
            if span is not None:
                record = self._begin(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                counts[layer] += 1
                if record is not None:
                    record.end = clock()
                    open_spans.pop()

        return timed

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        record = Span(self._op, len(self._spans), parent, name,
                      time.perf_counter())
        self._spans.append(record)
        self._open.append(record)
        return record

    def install(self) -> None:
        """Swap every wrapper in (undo with :meth:`uninstall`)."""
        import importlib

        for layer, module, path, span in _TIMED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            fn = owner.__dict__[attr]
            wrapped = self._wrap(layer, fn, span)
            if layer == "cpu.step":
                wrapped = self._count_nops(wrapped)
            elif layer == "mem.write":
                wrapped = self._count_bytes(wrapped)
            elif layer == "cpu.block_compile":
                wrapped = self._time_blocks(wrapped)
            elif path == "Machine.__init__":
                wrapped = self._keep_machine(wrapped)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        self._wrap_ring_enter()
        from repro.interpose.api import passthrough_interposer

        self.interposer = self._wrap("interpose", passthrough_interposer,
                                     None)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _wrap_ring_enter(self) -> None:
        """Wrap the ``sys_ring_enter`` binding the syscall table holds.

        Each ``Kernel`` copies the table at boot, so the entry is replaced
        in the table itself before any traced op boots.
        """
        from repro.kernel.syscalls import table

        nr = table.NR["ring_enter"]
        entry = table._PENDING[nr]
        self._patches.append((table._PENDING, nr, entry))
        table._PENDING[nr] = dataclasses.replace(
            entry, fn=self._wrap("kernel.ring", entry.fn, None))

    def _count_nops(self, step):
        from repro.arch.isa import Mnemonic

        nop = Mnemonic.NOP
        counts = self.counts

        def counted(cpu, task):
            insn = step(cpu, task)
            if insn.mnemonic is nop:
                counts["cpu.step_nops"] += 1
            return insn

        return counted

    def _count_bytes(self, write):
        counts = self.counts

        def counted(mem, addr, data, **kwargs):
            counts["mem.write_bytes"] += len(data)
            return write(mem, addr, data, **kwargs)

        return counted

    def _time_blocks(self, compile_superblock):
        """Also time each compiled block's execution (tier 2)."""
        wrap = self._wrap

        def compiled(*args, **kwargs):
            block = compile_superblock(*args, **kwargs)
            if block.fn is not None:
                block.fn = wrap("cpu.block_exec", block.fn, None)
            return block

        return compiled

    def _keep_machine(self, init):
        machines = self.machines

        def booted(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            machines.append(machine)

        return booted

    # ------------------------------------------------------------- per op
    def new_tracer(self):
        """An aggregates-only repo tracer for a traced op's machine."""
        from repro.obs.tracer import Tracer

        return Tracer(max_events=0)

    def begin_op(self, op: int) -> None:
        self.counts.clear()
        self.self_s.clear()
        self.machines.clear()
        self._op = op
        self._stack.append([0.0])
        self._begin("op")

    def end_op(self) -> None:
        record = self._open.pop()
        record.end = time.perf_counter()
        self._stack.pop()

    def op_metrics(self, result: dict | None) -> dict[str, float]:
        """The per-layer metrics of the op that just ended.

        ``result`` is the op's simulated result; a cluster report supplies
        the retry-loop counters.  ``obs.trace_overhead`` is a whole-run
        figure and is left to the caller.
        """
        c, t = self.counts, self.self_s
        blocks = {"block_runs": 0, "invalidated": 0}
        instructions = cycles = 0
        ring_enters = ring_parks = slowpath = rewritten = 0
        for machine in self.machines:
            stats = machine.superblock_stats()
            blocks["block_runs"] += stats["block_runs"]
            blocks["invalidated"] += stats["invalidated"]
            instructions += machine.scheduler.total_instructions
            cycles += machine.clock
            tracer = machine.kernel.tracer
            if tracer is not None:
                ring_enters += tracer.ring_enters
                ring_parks += tracer.ring_parks
                slowpath += tracer.slowpath_total
                rewritten += len(tracer.rewritten_sites)
        avail = (result or {}).get("availability", {})
        steps = c["cpu.step"]
        compiles = c["cpu.block_compile"]
        writes = c["mem.write"]
        return {
            "cpu.steps": steps,
            "cpu.steps_nop_share": c["cpu.step_nops"] / steps if steps else 0,
            "cpu.step_self_s": t["cpu.step"],
            "cpu.instructions": instructions,
            "cpu.block_compiles": compiles,
            "cpu.block_compile_self_s": t["cpu.block_compile"],
            "cpu.block_exec_self_s": t["cpu.block_exec"],
            "cpu.block_runs": blocks["block_runs"],
            "cpu.block_invalidations": blocks["invalidated"],
            "cpu.block_runs_per_compile":
                blocks["block_runs"] / compiles if compiles else 0,
            "kernel.slices": c["kernel.slice"],
            "kernel.slice_self_s": t["kernel.slice"],
            "kernel.syscalls": c["kernel.dispatch"],
            "kernel.dispatch_self_s": t["kernel.dispatch"],
            "kernel.sim_cycles": cycles,
            "kernel.signal_frames": c["kernel.signal"],
            "kernel.sigreturns": c["kernel.sigreturn"],
            "kernel.signal_self_s": t["kernel.signal"] + t["kernel.sigreturn"],
            "kernel.bpf_runs": c["kernel.bpf"],
            "kernel.bpf_self_s": t["kernel.bpf"],
            "kernel.ring_enters": ring_enters,
            "kernel.ring_parks": ring_parks,
            "kernel.ring_self_s": t["kernel.ring"],
            "mem.reads": c["mem.read"],
            "mem.writes": writes,
            "mem.fetches": c["mem.fetch"],
            "mem.write_bytes_avg":
                c["mem.write_bytes"] / writes if writes else 0,
            "mem.self_s": t["mem.read"] + t["mem.write"] + t["mem.fetch"],
            "interpose.calls": c["interpose"],
            "interpose.self_s": t["interpose"],
            "interpose.slowpath_traps": slowpath,
            "interpose.rewritten_sites": rewritten,
            "workloads.boot_self_s": t["workloads.boot"],
            "cluster.shard_runs": c["cluster.shard"],
            "cluster.serve_self_s": t["cluster.serve"],
            "cluster.plan_self_s": t["cluster.plan"],
            "cluster.rounds": avail.get("rounds", 0),
            "cluster.retries": avail.get("retries", 0),
            "cluster.failovers": avail.get("failovers", 0),
        }

    def spans(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self._spans]
