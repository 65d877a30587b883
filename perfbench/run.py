"""Run the repository benchmark.

    python3 perfbench/run.py --workload passive_fit --seed 1 --seconds 30 --trace 0

``--workload`` is ``passive_fit``, ``active_fit``, ``serve_mixed``, or
``all`` (each workload in its own process, one after the other).  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics and writes its spans
and ``repro.obs`` copies under ``.perfbench_out/``.  Every metric is
printed as ``name value unit``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as the ``perfbench`` package; worker processes of
# active_fit inherit this path and unpickle the labeler by that name.
sys.path.insert(0, str(ROOT))

WORKLOADS = ("passive_fit", "active_fit", "serve_mixed")


def declared_metrics(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import common

    declared = declared_metrics(trace)
    common.import_program()
    module = importlib.import_module(f"perfbench.{workload}")
    outcome = module.run(seed, seconds, trace)
    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        outcome.problem(f"metrics differ from BENCHMARK.json: {sorted(reported)}")
    if trace and outcome.dump:
        path = common.write_dump(f"{workload}-seed{seed}-trace.json", outcome.dump)
        print(f"# spans written to {path.relative_to(ROOT)}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {value}")
    for message in outcome.problems:
        print(f"# CHECK FAILED: {message}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; the last line merges their results.

    Stops without a merged result as soon as a workload prints none.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"## {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result: Optional[dict] = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = None
        if result is None:
            print(f"error: {workload} printed no result", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            status = 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
