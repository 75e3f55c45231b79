"""Tracer overhead when disabled: simulated results must be untouched.

Cycle accounting is bit-identical with tracing on or off (covered here and
per-workload in test_obs_tracer.py), and a machine built without a tracer
holds ``None`` at every emit site.  Host wall-clock speed with
``tracer=None`` is not checked here: ``make perf`` measures the same
``microbench-steady`` loop (``benchmarks/test_perf_interpreter.py``) and
gates it against ``BENCH_interp.json`` on dedicated runs.
"""

from __future__ import annotations

import pytest

from repro.kernel.machine import Machine
from repro.obs import Tracer

from tests.conftest import hello_image

pytestmark = pytest.mark.obs


def _compute_loop_image(iters: int):
    from repro.arch.encode import Assembler
    from repro.kernel.syscalls.table import NR
    from repro.loader.image import image_from_assembler
    from repro.mem import layout

    a = Assembler(base=layout.CODE_BASE)
    a.label("_start")
    a.mov_imm("rbx", iters)
    a.mov_imm("rax", 0)
    a.label("loop")
    a.addi("rax", 3)
    a.xori("rax", 0x55)
    a.inc("rcx")
    a.dec("rbx")
    a.jnz("loop")
    a.mov_imm("rax", NR["exit_group"])
    a.mov_imm("rdi", 0)
    a.syscall()
    return image_from_assembler("microbench-steady", a, entry="_start")


def test_disabled_tracer_identical_simulated_cycles_compute_loop():
    def clock_of(tracer):
        machine = Machine(tracer=tracer)
        proc = machine.load(_compute_loop_image(2_000))
        machine.run_process(proc)
        return machine.clock

    assert clock_of(None) == clock_of(Tracer())


def test_machine_without_tracer_has_no_tracer_attribute_cost():
    # The emit-site contract: every instrumented layer holds a ``tracer``
    # attribute that is None by default, so the guards are attribute loads,
    # never hasattr probes.
    machine = Machine()
    assert machine.tracer is None
    assert machine.kernel.tracer is None
    assert machine.kernel.cpu.tracer is None
    process = machine.load(hello_image())
    assert machine.run_process(process) == 0


def test_attach_tracer_mid_flight_and_detach():
    machine = Machine()
    tracer = Tracer()
    machine.attach_tracer(tracer)
    assert machine.kernel.tracer is tracer
    assert tracer.machine is machine
    process = machine.load(hello_image())
    machine.run_process(process)
    assert tracer.events
    machine.attach_tracer(None)
    assert machine.kernel.tracer is None
    assert machine.kernel.cpu.tracer is None
