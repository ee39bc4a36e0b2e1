"""Print every report of the configs and the benchmark workloads, one line each.

Each line is a source label, a tab, then the report as
``json.dumps(report, sort_keys=True, allow_nan=False)`` without its
``wall_clock_seconds``.  The reports cover ``configs/*.json`` and the warm-up
and experiments of every benchmark workload (descent, sweep, finite) at the
given seeds, each run through ``config.parse`` and then ``cli.run``.  An
experiment that raises prints its exception in place of the report.

Two checkouts give byte-identical output exactly when their reports agree bit
for bit, so a refactor that must not change any report is checked with

    python3 tools/report_lines.py --root OLD_CHECKOUT > old.txt
    python3 tools/report_lines.py > new.txt
    cmp old.txt new.txt

``--root`` names the checkout whose ``src/`` and ``configs/`` are used
(default: the one holding this script).  The workloads come from this
checkout's ``perfbench/workloads.py``, imported by file path and only read.
BLAS runs on one thread, as in the benchmark: the finite reports' last bits
depend on the thread count.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    """``perfbench/workloads.py``, imported by file path under a private name."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _sources(root: Path, seeds):
    """(label, config text) for every config and every workload experiment."""
    for path in sorted((root / "configs").glob("*.json")):
        yield f"configs/{path.name}", path.read_text()
    workloads = _workloads()
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            work = workloads.WORKLOADS[name](seed)
            yield f"{name}/{seed}/warmup {work.warmup.label}", work.warmup.text
            for i, exp in enumerate(work.experiments):
                yield f"{name}/{seed}/{i} {exp.label}", exp.text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5001, 777013], help="workload seeds")
    args = parser.parse_args(argv)
    # before numpy is first imported
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from ncym import cli, config

    for label, text in _sources(args.root, args.seeds):
        try:
            report = cli.run(config.parse(text))
        except Exception as exc:  # the failure is part of the output being compared
            line = f"error {type(exc).__name__}: {exc}"
        else:
            report.pop("wall_clock_seconds")
            line = json.dumps(report, sort_keys=True, allow_nan=False)
        print(f"{label}\t{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
