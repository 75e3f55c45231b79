"""``benchmarks/check_regression.py``: same-run floors are mandatory."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load():
    path = ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["BENCH_interp.json", "BENCH_uring.json", "BENCH_cluster.json"]
)
def test_committed_results_embed_and_clear_their_floors(name):
    result = json.loads((ROOT / name).read_text())
    assert result.get("floors")
    assert _load().check_floors(result) == []


def test_result_without_floors_fails():
    failures = _load().check_floors({"workloads": {}})
    assert failures and "floors" in failures[0]


def test_floor_on_a_missing_key_fails():
    failures = _load().check_floors({"floors": {"speedup_x": 2.0}})
    assert failures == ["speedup_x: floored but missing from the result"]


def test_main_exits_nonzero_without_floors(tmp_path):
    new = tmp_path / "BENCH_new.json"
    new.write_text(json.dumps({"workloads": {}}))
    assert _load().main([str(tmp_path / "absent.json"), str(new)]) == 1
