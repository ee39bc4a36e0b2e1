"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload sweep] [--seed 1] [--seconds 4]

1. Two traced runs with the same seed give identical per-layer counts.
2. Each traced run reports no tracing problems: its traced results equal its
   untraced results, and in every experiment's span tree the self times add
   up to the root span's duration (``Tracer.check_spans``).
3. A copy holding only ``BENCHMARK.json`` and ``perfbench/`` exits nonzero
   without printing a result.
4. ``BENCHMARK.json`` and ``layers.json`` name exactly the metrics ``run.py``
   reports.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def traced(workload: str, seed: int, seconds: float):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"traced run exited {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def stripped_copy_fails() -> list[str]:
    where = BENCH_DIR / "out" / "stripped"
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(BENCH_DIR, where / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", where / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "descent", "--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=where, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("stripped copy exited 0")
    if done.stdout.strip():
        problems.append(f"stripped copy printed: {done.stdout.strip()[-200:]}")
    return problems


def metric_lists_agree() -> list[str]:
    sys.path.insert(0, str(BENCH_DIR))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != [(n, u) for n, u, _ in run.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(layers["per_layer"]) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("layers.json per_layer differs from BENCHMARK.json")
    if sorted(layers["workloads"]) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-checks of the ncym benchmark")
    parser.add_argument("--workload", default="sweep", choices=("descent", "sweep", "finite"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)

    problems = metric_lists_agree()
    runs = [traced(args.workload, args.seed, args.seconds) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"} for _, result in runs
    ]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"per-layer counts differ between two traced runs: {diff}")
    for i, (record, result) in enumerate(runs):
        problems += [f"traced run {i}: {p}" for p in record["tracing"]["problems"]]
        if not result["correct"]:
            problems.append(f"traced run {i} not correct: {record['failures'] or record['problems']}")
    problems += stripped_copy_fails()

    print(json.dumps({"workload": args.workload, "seed": args.seed, "counts": counts[0], "problems": problems}, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
