"""Guard against performance regressions in a ``BENCH_*.json`` pair.

Compares two benchmark result files (previous run vs current run) and
fails — exit status 1 — if any workload's metric regressed by more than
the tolerance band (15% by default).

The comparison is schema-driven by the *new* file:

* ``regression_metric`` — the per-workload key to compare (default
  ``"mips"``, the legacy BENCH_interp schema),
* ``lower_is_better`` — direction (default ``false``: higher is better),
* ``floors`` — ``{key: floor}`` absolute same-run floors on top-level
  scalars of the new file (hard limits, not subject to tolerance).  Every
  BENCH file embeds its own; a new file with no ``floors`` fails the
  check, as does a floor whose key the file does not report.

Usage::

    python benchmarks/check_regression.py [OLD] [NEW] [--tolerance FRAC]

Defaults: OLD = BENCH_interp.prev.json, NEW = BENCH_interp.json (repo
root).  A missing OLD is not an error — the first measured run simply
becomes the baseline (``make perf`` snapshots NEW to OLD before each run).
``make perf`` runs this once per BENCH pair (interp, uring).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OLD = ROOT / "BENCH_interp.prev.json"
DEFAULT_NEW = ROOT / "BENCH_interp.json"
TOLERANCE = 0.15


def check_floors(new: dict) -> list[str]:
    """Absolute same-run floors on the current run, independent of any
    baseline.  Same-run ratios resist host noise (both sides are measured
    in one process), so unlike the tolerance band these are hard floors."""
    floors = new.get("floors")
    if not floors:
        return ["no same-run `floors` embedded in the result file"]
    failures = []
    for key, floor in floors.items():
        value = new.get(key)
        if value is None:
            failures.append(f"{key}: floored but missing from the result")
            continue
        marker = "BELOW FLOOR" if value < floor else "ok"
        print(f"{key:42s} {value:8.2f} (floor {floor:.1f})  {marker}")
        if value < floor:
            failures.append(f"{key}: {value:.2f} below the {floor:.1f} floor")
    return failures


def compare(old: dict, new: dict, tolerance: float) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    metric = new.get("regression_metric", "mips")
    lower_is_better = bool(new.get("lower_is_better", False))
    old_workloads = old.get("workloads", {})
    new_workloads = new.get("workloads", {})
    for name, prev in sorted(old_workloads.items()):
        cur = new_workloads.get(name)
        if cur is None:
            failures.append(f"{name}: workload disappeared from the new run")
            continue
        prev_val, cur_val = prev[metric], cur[metric]
        if prev_val <= 0:
            continue
        change = (cur_val - prev_val) / prev_val
        # `change` is signed so that negative == worse.
        if lower_is_better:
            change = -change
        marker = "REGRESSION" if change < -tolerance else "ok"
        print(
            f"{name:22s} {prev_val:10.3f} -> {cur_val:10.3f} {metric} "
            f"({change:+.1%})  {marker}"
        )
        if change < -tolerance:
            failures.append(
                f"{name}: {prev_val:.3f} -> {cur_val:.3f} {metric} "
                f"({change:+.1%}, tolerance -{tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", default=str(DEFAULT_OLD))
    parser.add_argument("new", nargs="?", default=str(DEFAULT_NEW))
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    args = parser.parse_args(argv)

    old_path = pathlib.Path(args.old)
    new_path = pathlib.Path(args.new)
    if not new_path.exists():
        print(f"no current run at {new_path}; run `make perf` first")
        return 1
    new = json.loads(new_path.read_text())
    print(f"== {new_path.name} ==")
    failures = check_floors(new)
    if not old_path.exists():
        print(f"no previous run at {old_path}; current run becomes the baseline")
    else:
        old = json.loads(old_path.read_text())
        failures += compare(old, new, args.tolerance)
    if failures:
        print("\nperformance failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall floors cleared, no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
