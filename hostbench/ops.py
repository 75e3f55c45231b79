"""The four benchmark workloads: one op is one whole simulated run.

Each workload is built from ``(seed, size)``.  :meth:`prepare` builds the
inputs that a user builds once (guest images, chaos plans); :meth:`run`
performs one op — it boots its own ``Machine`` every time, because users
pay boot on every run — and returns the simulated result.  Every number
in a result is simulated, so :func:`digest` of it is deterministic for a
given ``(workload, seed, size)`` and :meth:`check` can judge it exactly.

``hooks`` is ``None`` for an untraced op.  A traced op passes a
:class:`layers.LayerTrace`, whose ``interposer`` (a timing wrapper around
``passthrough_interposer``) and ``new_tracer()`` (an aggregates-only
``repro.obs.Tracer``) reach the run; neither may change its result.
"""

from __future__ import annotations

import hashlib
import json

#: Op sizes.  ``full`` is what the benchmark measures; ``smoke`` is the
#: tiny size the benchmark's own tests run every workload at.
SIZES = {
    "full": {"lazy_requests": 100, "sigsys_requests": 400,
             "fleet_requests": 800, "alu_iters": 500_000},
    "smoke": {"lazy_requests": 8, "sigsys_requests": 8,
              "fleet_requests": 32, "alu_iters": 2_000},
}


def digest(result) -> str:
    """SHA-256 of the canonical JSON of a simulated result."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class WebWorkload:
    """``run_workload("webserver", ...)``: nginx, cores=1, direct syscalls."""

    def __init__(self, name: str, tool: str, requests: int, seed: int):
        self.name = name
        self.tool = tool
        self.requests = requests
        self.seed = seed

    def prepare(self) -> None:
        from repro.workloads.runner import run_workload

        self._run_workload = run_workload

    def run(self, hooks=None) -> dict:
        extra = {}
        if hooks is not None:
            extra = {"interposer": hooks.interposer,
                     "tracer": hooks.new_tracer()}
        return self._run_workload(
            "webserver", tool=self.tool, requests=self.requests,
            smp_seed=self.seed, **extra,
        )

    def check(self, result: dict) -> list[str]:
        problems = []
        if result["requests"] != self.requests:
            problems.append(f"served {result['requests']} requests, "
                            f"asked {self.requests}")
        if not result["requests_per_sec"] > 0:
            problems.append("no throughput")
        return problems


class FleetWorkload:
    """A 4-shard inline cluster under one seeded crash or hang fault.

    The seed picks the victim shard, the fault kind and point, and the
    shards' ``smp_seed``; the guest is bare, so the host load is the
    cluster's plan/retry/merge path, the async ring drain and the health
    model.
    """

    name = "fleet_chaos"
    shards = 4

    def __init__(self, requests: int, seed: int):
        self.requests = requests
        self.seed = seed

    def prepare(self) -> None:
        from repro.cluster import Cluster
        from repro.cluster.chaos import ChaosPlan

        self._cluster = Cluster
        self.plan = ChaosPlan.seeded(
            self.seed, shards=self.shards, requests=self.requests,
            kinds=("crash", "hang"),
        )

    def run(self, hooks=None) -> dict:
        cluster = self._cluster(
            shards=self.shards, batched="async", policy="consistent_hash",
            sessions=64, processes=False, smp_seed=self.seed,
            chaos=self.plan,
        )
        return cluster.serve(requests=self.requests)

    def check(self, result: dict) -> list[str]:
        avail = result["availability"]
        problems = []
        if avail["success_rate"] != 1.0:
            problems.append(f"success_rate {avail['success_rate']} != 1.0")
        if avail["completed"] != self.requests or avail["failed_ids"]:
            problems.append(f"lost requests: completed {avail['completed']}"
                            f" of {self.requests}, failed "
                            f"{avail['failed_ids'][:8]}")
        if avail["duplicate_serves"]:
            problems.append(f"{avail['duplicate_serves']} duplicate serves")
        return problems


def alu_closed_form(iters: int) -> int:
    """``rax`` after ``iters`` rounds of ``rax = (rax + 3) ^ 0x55`` from 0.

    The map advances by exactly 128 every 64 rounds from 0 (the xor only
    touches the low 7 bits), so the value is ``128 * (iters // 64)`` plus
    the low-order walk of ``iters % 64`` rounds.
    """
    rax = 0
    for _ in range(iters % 64):
        rax = (rax + 3) ^ 0x55
    return 128 * (iters // 64) + rax


class AluWorkload:
    """A tier-2 compute loop: compiled-block execution, no kernel entries.

    The loop has the shape of the interpreter benchmark's steady-state
    image (``addi``/``xori``/``inc``/``dec``/``jnz``, five instructions
    an iteration); the accumulator is copied to ``rsi`` before
    ``exit_group`` so the op can read it back.  The seed adds up to 63
    iterations, which moves the closed form without moving the cost.
    """

    name = "guest_alu"

    def __init__(self, iters: int, seed: int):
        self.iters = iters + seed % 64
        self.seed = seed

    def prepare(self) -> None:
        from repro.arch.encode import Assembler
        from repro.kernel.machine import Machine
        from repro.kernel.syscalls.table import NR
        from repro.loader.image import image_from_assembler
        from repro.mem import layout

        a = Assembler(base=layout.CODE_BASE)
        a.label("_start")
        a.mov_imm("rbx", self.iters)
        a.mov_imm("rax", 0)
        a.label("loop")
        a.addi("rax", 3)
        a.xori("rax", 0x55)
        a.inc("rcx")
        a.dec("rbx")
        a.jnz("loop")
        a.mov("rsi", "rax")
        a.mov_imm("rax", NR["exit_group"])
        a.mov_imm("rdi", 0)
        a.syscall()
        self.image = image_from_assembler("hostbench-alu", a, entry="_start")
        self._machine = Machine

    def run(self, hooks=None) -> dict:
        from repro.arch.registers import RSI

        tracer = hooks.new_tracer() if hooks is not None else None
        machine = self._machine(tracer=tracer)
        process = machine.load(self.image)
        exit_code = machine.run_process(
            process, max_instructions=10 * self.iters + 1_000)
        return {
            "clock": machine.clock,
            "instructions": machine.scheduler.total_instructions,
            "rax": process.task.regs.read(RSI),
            "exit_code": exit_code,
        }

    def check(self, result: dict) -> list[str]:
        problems = []
        want = alu_closed_form(self.iters)
        if result["rax"] != want:
            problems.append(f"rax {result['rax']:#x} != closed form "
                            f"{want:#x}")
        if result["instructions"] != 5 * self.iters + 6:
            problems.append(f"{result['instructions']} instructions != "
                            f"5 * {self.iters} + 6")
        if result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']}")
        return problems


WORKLOADS = ("web_lazypoline", "web_sigsys", "fleet_chaos", "guest_alu")


def make(name: str, seed: int, size: str = "full"):
    """Build workload ``name`` at ``seed`` and ``size`` (not yet prepared)."""
    sz = SIZES[size]
    if name == "web_lazypoline":
        return WebWorkload(name, "lazypoline", sz["lazy_requests"], seed)
    if name == "web_sigsys":
        return WebWorkload(name, "seccomp_user", sz["sigsys_requests"], seed)
    if name == "fleet_chaos":
        return FleetWorkload(sz["fleet_requests"], seed)
    if name == "guest_alu":
        return AluWorkload(sz["alu_iters"], seed)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
