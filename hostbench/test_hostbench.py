"""Smoke mode and checks of the host-time benchmark.

Run with ``python3 -m pytest hostbench -q`` from the repository root.
Every workload runs once at the tiny ``smoke`` size, untraced and traced,
through the same code and checks as a real run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

assert run.use_source_tree()

QUIET = {"log": lambda *args: None}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    result = run.measure("guest_alu", 0, 0, False, "smoke", **QUIET)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: m["unit"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_smoke_untraced(name):
    result = run.measure(name, 0, 0, False, "smoke", **QUIET)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_smoke_traced(name, tmp_path):
    spans = tmp_path / "spans.json"
    result = run.measure(name, 0, 0, True, "smoke", spans_path=spans,
                         **QUIET)
    assert result["correct"], result
    assert list(result["metrics"]) == [m for m, _, _ in layers.PER_LAYER]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["cpu.instructions"] > 0
    assert metrics["kernel.slices"] > 0
    records = json.loads(spans.read_text())
    ops_seen = {s["op"] for s in records if s["name"] == "op"}
    assert len(ops_seen) >= run.MIN_OPS
    by_id = {s["id"]: s for s in records}
    for s in records:
        if s["parent"] is not None:
            assert by_id[s["parent"]]["op"] == s["op"]
        assert s["end"] >= s["start"]


def test_layer_metrics_reach_their_workloads():
    sigsys = run.measure("web_sigsys", 0, 0, True, "smoke", **QUIET)
    fleet = run.measure("fleet_chaos", 0, 0, True, "smoke", **QUIET)
    s = {k: m["value"] for k, m in sigsys["metrics"].items()}
    f = {k: m["value"] for k, m in fleet["metrics"].items()}
    assert s["kernel.signal_frames"] > 0 and s["kernel.bpf_runs"] > 0
    assert s["interpose.calls"] > 0
    assert f["kernel.ring_enters"] > 0 and f["cluster.shard_runs"] >= 4


def test_trace_uninstall_restores_the_simulator():
    from repro.cpu.core import CPU
    from repro.kernel.syscalls import table

    step = CPU.__dict__["step"]
    ring = table._PENDING[table.NR["ring_enter"]]
    trace = layers.LayerTrace()
    trace.install()
    assert CPU.__dict__["step"] is not step
    trace.uninstall()
    assert CPU.__dict__["step"] is step
    assert table._PENDING[table.NR["ring_enter"]] is ring


@pytest.mark.parametrize("name", ops.WORKLOADS)
def test_pinned_digests(name):
    pins = json.loads(run.EXPECTED.read_text())["full"][name]
    assert sorted(pins) == sorted(str(s) for s in run.PINNED_SEEDS)
    for seed in run.PINNED_SEEDS:
        workload = ops.make(name, seed)
        workload.prepare()
        result = workload.run()
        assert workload.check(result) == []
        assert ops.digest(result) == pins[str(seed)]


def test_alu_closed_form():
    for n in (0, 1, 63, 64, 65, 1000, 4097):
        rax = 0
        for _ in range(n):
            rax = (rax + 3) ^ 0x55
        assert ops.alu_closed_form(n) == rax


def test_output_check_catches_a_wrong_result():
    workload = ops.make("guest_alu", 0, "smoke")
    workload.prepare()
    judge = run.Judge(workload, "guest_alu", 0, "smoke")
    good = workload.run()
    assert judge(good, ops.digest(good)) == []
    for bad in (dict(good, rax=good["rax"] + 1),
                dict(good, clock=good["clock"] + 1)):
        assert judge(bad, ops.digest(bad))
    fleet = ops.make("fleet_chaos", 0, "smoke")
    report = {"availability": {"success_rate": 0.99, "completed": 31,
                               "failed_ids": [7], "duplicate_serves": 1}}
    assert len(fleet.check(report)) == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "guest_alu",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_trace_identity_flags_moved_results_and_counts():
    def op(digest, steps=None):
        return run.Op(1.0, 1.0, 1.0, [], digest, {"cpu.steps": steps})

    exact = ("cpu.steps",)
    plain = [op("a"), op("a")]
    assert run._trace_identity(plain, [op("a", 5), op("a", 5)], exact) == []
    assert run._trace_identity(plain, [op("b", 5), op("b", 5)], exact)
    assert run._trace_identity(plain, [op("a", 5), op("a", 6)], exact)
