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
BLAS runs on one thread, as in the benchmark, so that runs compare like with
like.

A change that may move the last bits of results (another summation order)
is checked instead with

    python3 tools/report_lines.py --compare old.txt new.txt --bound 1e-13

Labels, error lines, every value outside ``results``, and every result that
is not a float (checks, dimensions, cases, iteration counts, stop reasons,
list lengths) must be equal.  Each result float is compared against the scale
that ``FIELD_SCALES`` names for it, taken from the old report:
``|new - old| / scale`` must be at most the bound, which is stated on the
command line before the comparison is run.  The worst ratio is printed per
field; the exit status is 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the scale of a result float, by name, read from the old report's results
SCALE_OF = {
    "ym_product": lambda res: abs(res["ym_product"]),
    "sqrt(ym_product)": lambda res: math.sqrt(abs(res["ym_product"])),
    "trace[0]": lambda res: abs(res["trace"][0]),
    "gradient_norms[0]": lambda res: abs(res["gradient_norms"][0]),
    "splitting gradient norms": lambda res: max(
        abs(res["splitting"][f"gradient_norm_{part}"]) for part in ("1", "2", "product")
    ),
}

#: (report kind, field under ``results``; ``[]`` for any list index) -> scale
#: name; a float not listed is judged against its own old value ("self")
FIELD_SCALES = {
    **{("torus_product", f): "ym_product" for f in ("ym1", "ym2", "ym_product", "defect", "cross_term")},
    **{("torus_product", f): "sqrt(ym_product)" for f in ("xi_re", "xi_im", "eta_re", "eta_im")},
    **{
        ("torus_product", f"splitting.gradient_norm_{part}"): "splitting gradient norms"
        for part in ("1", "2", "product")
    },
    **{("torus_minimize", f): "trace[0]" for f in ("initial_ym", "terminal_ym", "trace[]")},
    **{("torus_minimize", f): "gradient_norms[0]" for f in ("gradient_norms[]", "terminal_gradient_norm")},
}


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


def _differences(old, new, path, floats):
    """Messages for every difference between ``old`` and ``new`` that is not a
    result float; each pair of result floats is appended to ``floats`` as
    (field, old, new)."""
    if type(old) is not type(new):
        return [f"{path}: {old!r} != {new!r}"]
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return [f"{path}: keys {sorted(old)} != {sorted(new)}"]
        return [
            m for key in old for m in _differences(old[key], new[key], f"{path}.{key}" if path else key, floats)
        ]
    if isinstance(old, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} != {len(new)}"]
        return [m for a, b in zip(old, new) for m in _differences(a, b, f"{path}[]", floats)]
    if isinstance(old, float) and path.startswith("results."):
        floats.append((path[len("results."):], old, new))
        return []
    return [] if old == new else [f"{path}: {old!r} != {new!r}"]


def compare(old_lines, new_lines, bound: float):
    """(messages, worst) for two outputs of this tool: a message for every
    difference that fails, and per (kind, field) the (scale name, worst ratio)."""
    messages, worst = [], {}
    if len(old_lines) != len(new_lines):
        messages.append(f"{len(old_lines)} lines != {len(new_lines)} lines")
    for old_line, new_line in zip(old_lines, new_lines):
        (label, old_text), (new_label, new_text) = old_line.split("\t", 1), new_line.split("\t", 1)
        if label != new_label:
            messages.append(f"label {label!r} != {new_label!r}")
            continue
        if old_text.startswith("error") or new_text.startswith("error"):
            if old_text != new_text:
                messages.append(f"{label}: {old_text.strip()} != {new_text.strip()}")
            continue
        old, new = json.loads(old_text), json.loads(new_text)
        floats = []
        messages += [f"{label}: {m}" for m in _differences(old, new, "", floats)]
        for field, a, b in floats:
            name = FIELD_SCALES.get((old["kind"], field), "self")
            scale = abs(a) if name == "self" else SCALE_OF[name](old["results"])
            ratio = 0.0 if a == b else abs(b - a) / scale if scale else math.inf
            key = (old["kind"], field)
            worst[key] = (name, max(ratio, worst.get(key, (name, 0.0))[1]))
            if ratio > bound:
                messages.append(f"{label}: results.{field} {a!r} -> {b!r}: {ratio:.3g} of {name}")
    return messages, worst


def _compare_main(old_path: Path, new_path: Path, bound: float) -> int:
    old_lines, new_lines = (p.read_text().splitlines() for p in (old_path, new_path))
    messages, worst = compare(old_lines, new_lines, bound)
    for (kind, field), (name, ratio) in sorted(worst.items()):
        print(f"{kind}\t{field}\t{name}\t{ratio:.3g}")
    for message in messages:
        print(f"FAIL {message}")
    print(f"{len(new_lines)} lines, {len(messages)} failures, bound {bound:g}")
    return 1 if messages else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5001, 777013], help="workload seeds")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"), help="compare two outputs")
    parser.add_argument("--bound", type=float, help="largest |new - old| / scale allowed (with --compare)")
    args = parser.parse_args(argv)
    if args.compare:
        if args.bound is None:
            parser.error("--compare needs --bound, stated before the comparison")
        return _compare_main(*args.compare, args.bound)
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
