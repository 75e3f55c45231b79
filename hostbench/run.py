"""Host-time benchmark of the simulator: calibrated cost per simulated run.

Usage, from the root of a source checkout::

    python3 hostbench/run.py --workload web_lazypoline --seed 0 \\
        --seconds 20 --trace 0
    python3 hostbench/run.py --workload all       # every workload, a table

A single-process, single-thread closed loop: one op at a time, each op a
whole simulated run (see ``ops.py``).  Before and after every op the
``calib`` reference loop is timed; the op's cost is its wall seconds
divided by the mean of those two readings, in ``ref`` units.  Every op's
simulated result is checked (``ops.py`` checks, a digest equal across
ops and, at the pinned seeds, equal to ``expected.json``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half under :class:`layers.LayerTrace`, checks that
traced results equal untraced ones and that every per-layer count repeats
exactly across traced ops, and reports the per-layer metrics, coarse
spans going to ``.hostbench/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the noise trajectory (raw seconds, the reference loop's own
median and IQR).  Exits 2 without a result when ``src/repro`` is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run (input build + one untimed warm-up op); setup_s is
#: the import time plus their median.
SETUP_REPS = 3
#: Timed ops per phase even when ``--seconds`` has run out.
MIN_OPS = 2
#: The pinned seeds: the default and one held out while tuning.
PINNED_SEEDS = (0, 1009)
#: Nominal duration of one reference reading, in seconds (see setup_s).
REF_NOMINAL_S = 0.06
EXPECTED = HERE / "expected.json"


def use_source_tree() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False if absent."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def _reading(ref: calib.Reference) -> float:
    gc.collect()
    return ref.seconds()


def _import_repo() -> None:
    import repro.cluster  # noqa: F401
    import repro.kernel.machine  # noqa: F401
    import repro.workloads.runner  # noqa: F401


class Judge:
    """Decides whether one op's simulated result is correct."""

    def __init__(self, workload, name: str, seed: int, size: str):
        self.workload = workload
        pins = json.loads(EXPECTED.read_text()).get(size, {}).get(name, {})
        self.expected = pins.get(str(seed))
        self.reference = self.expected

    def __call__(self, result, got: str) -> list[str]:
        """Problems with ``result``, whose digest is ``got``."""
        problems = self.workload.check(result)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            which = "pinned" if self.expected else "first op's"
            problems.append(f"digest {got[:16]} != {which} "
                            f"{self.reference[:16]}")
        return problems


@dataclasses.dataclass(slots=True)
class Op:
    seconds: float  # raw wall seconds
    cost: float  # in ref units
    ref: float  # the mean of the readings around the op
    problems: list[str]
    digest: str | None  # None if the op raised
    layers: dict | None  # per-layer metrics of a traced op


def _attempt(workload, hooks):
    """Run one op; returns its result, or None and the traceback."""
    try:
        return workload.run(hooks), None
    except Exception:  # an op that raises is a failed op, not a dead run
        return None, traceback.format_exc(limit=4)


def _verdict(judge, result, error) -> tuple[str | None, list[str]]:
    """The digest of one op's result and the problems with it."""
    if error is not None:
        return None, [error]
    digest = ops.digest(result)
    return digest, judge(result, digest)


def _timed_ops(ref, workload, judge, seconds, hooks=None,
               first_id=0) -> list[Op]:
    clock = time.perf_counter
    rows: list[Op] = []
    before = _reading(ref)
    deadline = clock() + seconds
    while len(rows) < MIN_OPS or clock() < deadline:
        if hooks is not None:
            hooks.begin_op(first_id + len(rows))
        t0 = clock()
        result, error = _attempt(workload, hooks)
        elapsed = clock() - t0
        layers = None
        if hooks is not None:
            hooks.end_op()
            layers = hooks.op_metrics(result)
            hooks.machines.clear()
        after = _reading(ref)
        unit = (before + after) / 2
        digest, problems = _verdict(judge, result, error)
        rows.append(Op(elapsed, elapsed / unit, unit, problems, digest,
                       layers))
        before = after
    return rows


def _set_up(ref, name: str, seed: int, size: str):
    """Import, then ``SETUP_REPS`` x (build inputs + warm-up op).

    Returns the last prepared workload, its judge, the set-up's seconds
    (import + median repetition) and its cost in ``ref`` units, and any
    problems the warm-ups showed.  The cost divides by the median of the
    set-up's reference readings, so one disturbed reading cannot skew it.
    """
    clock = time.perf_counter
    readings = [_reading(ref)]
    t0 = clock()
    _import_repo()
    import_s = clock() - t0
    raw, problems = [], []
    judge = None
    for _ in range(SETUP_REPS):
        t0 = clock()
        workload = ops.make(name, seed, size)
        workload.prepare()
        result, error = _attempt(workload, None)
        raw.append(clock() - t0)
        readings.append(_reading(ref))
        if judge is None:
            judge = Judge(workload, name, seed, size)
        problems += _verdict(judge, result, error)[1]
    seconds = import_s + statistics.median(raw)
    return (workload, judge, seconds,
            seconds / statistics.median(readings), problems)


def _summary(rows: list[Op]) -> dict:
    ok = [r for r in rows if not r.problems] or rows
    return {
        "op_ref_p50": statistics.median(r.cost for r in ok),
        "ops_per_kref": 1000 * len(ok) / sum(r.cost for r in ok),
    }


def _trajectory(label: str, rows: list[Op]) -> str:
    raw = statistics.quantiles([r.seconds for r in rows], n=4)
    ref = statistics.quantiles([r.ref for r in rows], n=4)
    return (f"{label}: {len(rows)} ops, raw op s p50 {raw[1]:.4f} "
            f"[q1 {raw[0]:.4f} q3 {raw[2]:.4f}], ref s p50 {ref[1]:.5f} "
            f"IQR {ref[2] - ref[0]:.5f}")


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", spans_path: Path | None = None,
            log=print) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    ref = calib.Reference()
    workload, judge, setup_raw, setup_cost, problems = _set_up(
        ref, name, seed, size)
    log(f"setup: {setup_cost:.3f} ref, raw {setup_raw:.4f} s")
    if not trace:
        rows = _timed_ops(ref, workload, judge, seconds)
        log(_trajectory("untraced", rows))
        summary = _summary(rows)
        completed = sum(1 for r in rows if not r.problems)
        metrics = {
            "setup_s": (setup_cost * REF_NOMINAL_S, "s"),
            "op_ref_p50": (summary["op_ref_p50"], "ref"),
            "ops_per_kref": (summary["ops_per_kref"], "1/kref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "success_rate": (completed / len(rows), "ratio"),
        }
    else:
        from layers import EXACT, PER_LAYER, LayerTrace

        plain = _timed_ops(ref, workload, judge, seconds / 2)
        hooks = LayerTrace()
        try:
            hooks.install()
            rows = _timed_ops(ref, workload, judge, seconds / 2, hooks,
                              first_id=len(plain))
        finally:
            hooks.uninstall()
        log(_trajectory("untraced", plain))
        log(_trajectory("traced", rows))
        problems += _trace_identity(plain, rows, EXACT)
        # counts repeat exactly (checked above); times take the median
        layer = {k: rows[0].layers[k] if k in EXACT
                 else statistics.median(r.layers[k] for r in rows)
                 for k in rows[0].layers}
        layer["obs.trace_overhead"] = (_summary(rows)["op_ref_p50"]
                                       / _summary(plain)["op_ref_p50"])
        metrics = {k: (layer[k], unit) for k, unit, _ in PER_LAYER}
        rows = plain + rows
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(hooks.spans()))
    failed = sum(1 for r in rows if r.problems)
    for r in rows:
        problems += r.problems
    for p in dict.fromkeys(problems):
        log(f"problem: {p}")
    return {
        "correct": not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _trace_identity(plain: list[Op], traced: list[Op], exact) -> list[str]:
    """Traced results equal untraced ones; counts repeat across ops."""
    problems = []
    want = {r.digest for r in plain if r.digest}
    got = {r.digest for r in traced if r.digest}
    if want != got:
        problems.append(f"traced digests {sorted(got)} != untraced "
                        f"{sorted(want)}")
    first = traced[0].layers
    for r in traced[1:]:
        moved = [k for k in exact if r.layers[k] != first[k]]
        if moved:
            problems.append("per-layer counts did not repeat: " + ", ".join(
                f"{k} {first[k]} -> {r.layers[k]}" for k in moved))
    return problems


def _run_all(args) -> int:
    """Every workload, each in a fresh process; prints one table."""
    status = 0
    for name in ops.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        *trajectory, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(trajectory))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(last)
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:32s} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=ops.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        print(f"hostbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    spans = None
    if args.trace:
        spans = ROOT / ".hostbench" / f"spans-{args.workload}-{args.seed}.json"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
