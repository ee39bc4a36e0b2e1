"""Benchmark of ncym through its CLI entry path.

    python3 perfbench/run.py --workload {descent,sweep,finite} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.  Every
experiment goes JSON text -> ``ncym.config.parse`` -> ``ncym.cli.run`` -> the
report serialised by the CLI's emitter, closed loop with one client: the
next experiment starts when the previous one has returned.  The workload's
fixed experiment list is run as whole passes until ``--seconds`` would be
exceeded (at least one pass), and every experiment is judged by the oracle in
``workloads.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then traced passes, and reports the per-layer
metrics of one traced pass (counts must repeat in every traced pass; self
times are medians over traced passes) and the tracing overhead.

End-to-end times are scaled to nominal host speed by a reference kernel timed
between experiments (``hostspeed.py``); the times as measured are kept in the
run record.  Per-layer self times are as measured.

The last line of standard output is the result object; the line before it is
the full record (environment, sample counts, tail percentile, failures, times
as measured), also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The benchmark's numpy-using modules (workloads, hostspeed, tracing) are
# imported inside functions, after main() has pinned the BLAS threads.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: BLAS threads; one worker per process keeps runs on a shared 2-core machine steady.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up is measured this many times per untraced run (this process plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 3
#: a seed kept out of development, for rechecking a claimed change.
HELD_OUT_SEED = 777013
#: the tail is the highest of these percentiles with at least this many
#: experiments beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("experiment_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, how to read it from a traced pass)
PER_LAYER = (
    ("torus.star.calls", "count", ("calls", "torus.star")),
    ("torus.star.pairs", "count", ("counter", "torus.star.pairs")),
    ("torus.star.calls_gt512", "count", ("counter", "torus.star.calls_gt512")),
    ("torus.star.out_terms", "count", ("counter", "torus.star.out_terms")),
    ("torus.star.max_support", "count", ("counter", "torus.star.max_support")),
    ("torus.star.self_s", "s", ("self", "torus.star")),
    ("torus.star.pairs_per_s", "1/s", ("rate", "torus.star")),
    ("torus.add.calls", "count", ("calls", "torus.add")),
    ("torus.add.self_s", "s", ("self", "torus.add")),
    ("torus.adjoint.self_s", "s", ("self", "torus.adjoint")),
    ("torus.derivation.self_s", "s", ("self", "torus.derivation")),
    ("torus.tensor_embed.self_s", "s", ("self", "torus.tensor_embed")),
    ("yangmills.matmul.calls", "count", ("calls", "yangmills.matmul")),
    ("yangmills.matmul.self_s", "s", ("self", "yangmills.matmul")),
    ("yangmills.hs_inner.calls", "count", ("calls", "yangmills.hs_inner")),
    ("yangmills.hs_inner.self_s", "s", ("self", "yangmills.hs_inner")),
    ("yangmills.curvature.calls", "count", ("calls", "yangmills.curvature")),
    ("yangmills.curvature.self_s", "s", ("self", "yangmills.curvature")),
    ("yangmills.ym_value.calls", "count", ("calls", "yangmills.ym_value")),
    ("yangmills.ym_gradient.calls", "count", ("calls", "yangmills.ym_gradient")),
    ("yangmills.minimize.iterations", "count", ("counter", "yangmills.minimize.iterations")),
    ("yangmills.minimize.backtracks", "count", ("counter", "yangmills.minimize.backtracks")),
    ("yangmills.compatibility.self_s", "s", ("self", "yangmills.compatibility")),
    ("yangmills.product_connection.self_s", "s", ("self", "yangmills.product_connection")),
    ("yangmills.is_critical.calls", "count", ("calls", "yangmills.is_critical")),
    ("yangmills.is_critical.self_s", "s", ("self", "yangmills.is_critical")),
    ("finite.omega1.self_s", "s", ("self", "finite.omega1")),
    ("finite.pi_omega2.self_s", "s", ("self", "finite.pi_omega2")),
    ("finite.junk.calls", "count", ("calls", "finite.junk")),
    ("finite.junk.self_s", "s", ("self", "finite.junk")),
    ("finite.svd.calls", "count", ("calls", "finite.svd")),
    ("finite.svd.self_s", "s", ("self", "finite.svd")),
    ("finite.svd.max_rows", "count", ("counter", "finite.svd.max_rows")),
    ("finite.svd.max_cols", "count", ("counter", "finite.svd.max_cols")),
    ("finite.svd.elements", "count", ("counter", "finite.svd.elements")),
    ("finite.triple_new.self_s", "s", ("self", "finite.triple_new")),
    ("finite.subspace_compare.self_s", "s", ("self", "finite.subspace_compare")),
    ("sampling.self_s", "s", ("self", "sampling")),
    ("config.parse.calls", "count", ("calls", "config.parse")),
    ("config.parse.self_s", "s", ("self", "config.parse")),
    ("cli.run.self_s", "s", ("self", "cli.run")),
    ("cli.emit.self_s", "s", ("self", "cli.emit")),
    ("trace.overhead_s", "s", ("overhead", None)),
)


# -- the program under test ---------------------------------------------------


def import_program():
    """Import ncym from the checkout's ``src/``, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "ncym" / "__init__.py").is_file():
        raise SystemExit(f"error: no ncym sources under {src}")
    sys.path.insert(0, str(src))
    import ncym
    import ncym.cli
    import ncym.config

    if Path(ncym.__file__).resolve().parent != src / "ncym":
        raise SystemExit(f"error: imported ncym from {ncym.__file__}, not from {src}")
    return ncym


@dataclass
class Outcome:
    seconds: float  # as measured
    problems: list
    recorded: dict
    results_json: str | None
    scale: float = 1.0  # to seconds at nominal host speed, see hostspeed.py
    samples: tuple = (0, 0)  # host-speed samples taken just before and just after

    @property
    def adjusted(self) -> float:
        return self.seconds * self.scale


def run_experiment(program, exp, parsed, report_path: Path, tracer=None) -> Outcome:
    """Run one parsed config through the CLI, time it, then judge it."""
    from workloads import judge

    report = None
    error = None
    start = time.perf_counter_ns()
    if tracer is not None:
        tracer.enter("experiment")
    try:
        report = program.cli.run(parsed)
        program.cli._emit(report, str(report_path))
    except Exception as exc:  # a failing experiment is counted, the run goes on
        error = f"exit 1: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.exit()
    seconds = (time.perf_counter_ns() - start) / 1e9
    if error is not None:
        return Outcome(seconds, [error], {}, None)
    problems, recorded = judge(exp, report, report_path.read_text())
    return Outcome(seconds, problems, recorded, json.dumps(report["results"], sort_keys=True))


@dataclass
class Bench:
    program: object
    workload: object
    parsed: list
    report_path: Path
    speed: object = None


def set_up(workload_name: str, seed: int):
    """Import, generate and parse the configs, run the warm-up; time all of it.

    Returns the bench, the set-up time as measured and scaled to nominal host
    speed (by two probe samples taken right after), and the warm-up outcome.
    """
    start = time.perf_counter()
    program = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    parsed = [program.config.parse(exp.text) for exp in workload.experiments]
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(program, workload, parsed, OUT_DIR / f"report-{os.getpid()}.json")
    warm = run_experiment(program, workload.warmup, program.config.parse(workload.warmup.text), bench.report_path)
    seconds = time.perf_counter() - start
    from hostspeed import HostSpeed

    bench.speed = HostSpeed()
    bench.speed.sample()
    bench.speed.sample()
    return bench, seconds, seconds * bench.speed.scale(0, 1), warm


def setup_in_child(workload_name: str, seed: int) -> tuple[float, float]:
    """Set-up time (measured, scaled) of a fresh process; its warm-up is this run's warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr.strip()[-500:]}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    return child["setup_measured_s"], child["setup_s"]


# -- measurement -----------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list

    @property
    def wall(self) -> float:
        return sum(o.adjusted for o in self.outcomes)


def run_pass(bench: Bench, tracer=None) -> Pass:
    """One closed-loop pass over the list, sampling host speed between experiments."""
    speed = bench.speed
    outcomes = []
    pending = []  # (outcome, probe sample before it) awaiting the sample after it

    def settle() -> None:
        for outcome, first in pending:
            outcome.samples = (first, speed.mark())
        pending.clear()

    for index, (exp, parsed) in enumerate(zip(bench.workload.experiments, bench.parsed)):
        if speed.due():
            speed.sample()
            settle()
        if tracer is not None:
            tracer.experiment = index
        outcome = run_experiment(bench.program, exp, parsed, bench.report_path, tracer)
        pending.append((outcome, speed.mark()))
        outcomes.append(outcome)
    speed.sample()
    settle()
    return Pass(outcomes)


def rescale(bench: Bench, passes: list) -> None:
    """Set every outcome's scale once all host-speed samples are in."""
    for p in passes:
        for outcome in p.outcomes:
            outcome.scale = bench.speed.scale(*outcome.samples)


def run_passes(bench: Bench, budget: float, tracer=None, before_pass=None, after_pass=None) -> list:
    """Whole passes while another one is expected to end within ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    durations = []
    while True:
        if before_pass is not None:
            before_pass()
        begun = time.perf_counter()
        passes.append(run_pass(bench, tracer))
        if after_pass is not None:
            after_pass(passes[-1])
        durations.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(durations) > budget:
            return passes


def experiment_medians(passes: list, measured: bool = False) -> list:
    pick = (lambda o: o.seconds) if measured else (lambda o: o.adjusted)
    return [statistics.median(pick(p.outcomes[i]) for p in passes) for i in range(len(passes[0].outcomes))]


def list_wall(passes: list, measured: bool = False) -> float:
    """Time to run the experiment list once: the sum of each experiment's
    median over passes, so a burst of interference in one pass is not counted."""
    return sum(experiment_medians(passes, measured))


def tail(times: list) -> dict:
    n = len(times)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return {"percentile": pct, "value_s": cuts[round(pct * 10) - 1], "samples": n}
    return {
        "omitted": f"{n} experiments; the lowest percentile offered ({TAIL_PERCENTILES[-1]}) "
        f"needs {TAIL_BEYOND} experiments beyond it",
        "samples": n,
    }


def summarise(passes: list, bench: Bench) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    times = [o.adjusted for o in outcomes]
    failed = [o for o in outcomes if o.problems]
    labels = [e.label for e in bench.workload.experiments]
    unjudged = {}
    failures = set()
    for p in passes:
        for label, o in zip(labels, p.outcomes):
            if o.recorded:
                unjudged[label] = o.recorded
            if o.problems:
                failures.add(f"{label}: {'; '.join(o.problems)}")
    return {
        "passes": len(passes),
        "experiments_per_pass": len(labels),
        "pass_wall_s": [p.wall for p in passes],
        "wall_s": list_wall(passes),
        "experiment_s": {"p50": statistics.median(times), "samples": len(times), "tail": tail(times)},
        "per_experiment_median_s": dict(zip(labels, experiment_medians(passes))),
        "measured": {
            "wall_s": list_wall(passes, measured=True),
            "experiment_s.p50": statistics.median(o.seconds for o in outcomes),
        },
        "host_speed": bench.speed.summary(),
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_share": len(failed) / len(outcomes),
        "failures": sorted(failures)[:20],
        "recorded_unjudged": unjudged,
    }


# -- traced run --------------------------------------------------------------------


def traced_run(bench: Bench, seconds: float, workload_name: str, seed: int):
    from tracing import Tracer

    untraced = run_passes(bench, seconds / 2.0)
    expected_results = [o.results_json for o in untraced[0].outcomes]
    tracer = Tracer()
    snapshots = []
    problems = []
    spans_file = OUT_DIR / f"spans-{workload_name}-{seed}.npz"

    def parse_phase():
        tracer.reset()
        tracer.experiment = -1
        reparsed = [bench.program.config.parse(exp.text) for exp in bench.workload.experiments]
        if [p.payload for p in reparsed] != [p.payload for p in bench.parsed]:
            problems.append("traced parse differs from the untraced parse")

    def after_pass(p: Pass):
        problems.extend(tracer.check_spans())
        if [o.results_json for o in p.outcomes] != expected_results:
            problems.append("traced results differ from untraced results")
        if not snapshots:
            tracer.write(spans_file)
        snapshots.append(
            {"calls": dict(tracer.calls), "self_ns": dict(tracer.self_ns), "counters": dict(tracer.counters)}
        )

    tracer.install(bench.program, svd=workload_name == "finite")
    try:
        traced = run_passes(bench, seconds / 2.0, tracer, parse_phase, after_pass)
    finally:
        tracer.uninstall()
    rescale(bench, untraced + traced)
    for snap in snapshots[1:]:
        if snap["calls"] != snapshots[0]["calls"] or snap["counters"] != snapshots[0]["counters"]:
            problems.append("per-layer counts differ between traced passes")
            break
    untraced_wall = list_wall(untraced)
    traced_wall = list_wall(traced)
    metrics = {}
    first = snapshots[0]
    for name, unit, (source, key) in PER_LAYER:
        if source == "calls":
            value = first["calls"].get(key, 0)
        elif source == "counter":
            value = first["counters"].get(key, 0)
        elif source == "self":
            value = statistics.median(s["self_ns"].get(key, 0) for s in snapshots) / 1e9
        elif source == "rate":
            busy = statistics.median(s["self_ns"].get(key, 0) for s in snapshots) / 1e9
            value = first["counters"].get("torus.star.pairs", 0) / busy if busy else 0.0
        else:
            value = traced_wall - untraced_wall
        metrics[name] = {"value": value, "unit": unit}
    tracing = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "traced_passes": len(traced),
        "spans_first_pass": int(sum(snapshots[0]["calls"].values())),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "problems": sorted(set(problems)),
    }
    return untraced + traced, metrics, tracing


# -- environment record ---------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout is not a git repository)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "sweep", "finite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print it and exit")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported

    bench, setup_measured, setup_s, warm = set_up(args.workload, args.seed)
    if args.setup_only:
        bench.report_path.unlink(missing_ok=True)
        print(json.dumps({"setup_s": setup_s, "setup_measured_s": setup_measured}))
        return 0

    problems = [f"warm-up: {p}" for p in warm.problems]
    setup_samples = [(setup_measured, setup_s)]
    if args.trace:
        passes, metrics, tracing = traced_run(bench, args.seconds, args.workload, args.seed)
        problems += tracing["problems"]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(setup_in_child(args.workload, args.seed))
        # peak memory of set-up plus one pass over the list: later passes repeat
        # the same work, and how many fit depends on the host's speed
        rss_after_pass = []
        passes = run_passes(bench, args.seconds, after_pass=lambda _: rss_after_pass.append(peak_rss_mb()))
        rescale(bench, passes)
        tracing = None
    summary = summarise(passes, bench)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(adjusted for _, adjusted in setup_samples),
            "wall_s": summary["wall_s"],
            "experiment_s.p50": summary["experiment_s"]["p50"],
            "peak_rss_mb": rss_after_pass[0],
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    bench.report_path.unlink(missing_ok=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "setup_samples_s": [adjusted for _, adjusted in setup_samples],
        "setup_samples_measured_s": [raw for raw, _ in setup_samples],
        **summary,
        "tracing": tracing,
        "problems": problems,
        "peak_rss_mb_whole_run": peak_rss_mb(),
        "metrics": metrics,
    }
    record_text = json.dumps(record, sort_keys=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record_text + "\n")
    print(record_text)
    result = {
        "correct": summary["failed"] == 0 and not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
