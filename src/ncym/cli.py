"""Batch front-end: `ncym run`, `ncym validate`, `ncym constants`.

One experiment per invocation; reports are JSON documents with a fixed key
order so identical configs and seeds produce byte-identical payloads apart
from the wall-clock field (all reports of ``tools/report_lines.py`` were
checked at one and two BLAS threads; that tool and the benchmark pin one
thread so that their runs compare like with like).  Exit codes: 0 success,
1 input error, 2 at least one check verdict false.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, config as cfg, finite, sampling, torus, yangmills as ym
from .errors import ComputeError, ConfigInvalid, NcymError

log = logging.getLogger("ncym")

CONVENTIONS = {
    "monomial_order": torus.MONOMIAL_ORDER,
    "cocycle": torus.COCYCLE_CONVENTION,
    "canonical_eps": torus.CANONICAL_EPS,
}


#: what ``tolerances.compat`` multiplies (``yangmills.compatibility_bound``)
COMPAT_SCALE = "max_j ||p A_j p||_1"


def _connection(m: cfg.TorusModule) -> ym.Connection:
    proj = None if m.proj is None else ym.Projection(m.proj)
    rnd = m.connection
    if isinstance(rnd, cfg.RandomConnection):
        gen = sampling.rng(rnd.seed)
        return ym.random_connection(m.theta, m.q, gen, rnd.radius, rnd.terms, rnd.amplitude, proj)
    return ym.Connection(m.theta, m.q, m.connection, proj)


def _triple(ref: cfg.TripleRef) -> finite.FiniteTriple:
    if ref.case is not None:
        return finite.matrix_case_triple(*ref.case)
    matrices = ref.payload
    if ref.path is not None:
        with open(ref.path, "r") as fh:
            matrices = cfg.read_triple(json.load(fh), ref.path)
    return finite.trivial_triple() if matrices is None else finite.FiniteTriple(**vars(matrices))


def _run_torus_ym(spec: cfg.TorusYm):
    c = _connection(spec.module)
    deviation = ym.compatibility_deviation(c)
    results = {
        "ym": ym.ym_value(c),
        "gradient_norm": ym.gradient_norm(c),
        "compatibility_deviation": deviation,
    }
    if c.proj is not None:
        results["projection_idempotency_defect"] = c.proj.defect
    checks = {"compatible": deviation <= ym.compatibility_bound(c, spec.compat_tol)}
    return results, checks, {"compat": spec.compat_tol, "compat_relative_to": COMPAT_SCALE}


def _run_torus_minimize(spec: cfg.TorusMinimize):
    options = {name: value for name, value in vars(spec).items() if name != "module"}
    c, trace = ym.minimize(_connection(spec.module), **options)
    # a run stopped at max_iters has not differentiated its last iterate
    last_norm = ym.gradient_norm(c) if trace.reason == "max_iters" else trace.gradient_norms[-1]
    results = {
        "initial_ym": trace[0],
        "terminal_ym": trace[-1],
        "iterations": len(trace) - 1,
        "terminal_gradient_norm": last_norm,
        "stop_reason": trace.reason,
        "gradient_norms": trace.gradient_norms,
        "steps": trace.steps,
        "trace": list(trace),
    }
    checks = {
        "converged": results["terminal_gradient_norm"] <= spec.grad_tol,
        "monotone_trace": all(b <= a for a, b in zip(trace, trace[1:])),
    }
    return results, checks, {"grad_tol": spec.grad_tol}


def _run_torus_product(spec: cfg.TorusProduct):
    c1, c2 = _connection(spec.first), _connection(spec.second)
    rep = ym.additivity_report(c1, c2)
    split = ym.critical_splitting_check(c1, c2, spec.tol)
    results = dict(rep.to_payload())
    results["splitting"] = {
        "necessary": split.necessary,
        "product_critical": split.product_critical,
        "gradient_norm_1": split.gradient_norm_1,
        "gradient_norm_2": split.gradient_norm_2,
        "gradient_norm_product": split.gradient_norm_product,
    }
    checks = {
        "subadditive": ym.subadditivity_check(rep),
        "splitting_implication": (not split.product_critical) or split.necessary,
    }
    return results, checks, {"tol": spec.tol}


def _run_finite_forms(spec: cfg.FiniteForms):
    triple = _triple(spec.triple)
    case = finite.classify_matrix_case(*spec.triple.case).value if spec.classify else None
    rep = finite.form_report(triple)
    results = asdict(rep)
    if case is not None:
        results["case"] = case
    checks = {"quotient_consistent": rep.dim_omega2 == rep.dim_pi_omega2 - rep.dim_junk}
    return results, checks, {"rank_tol": finite.RANK_TOL}


def _run_finite_product(spec: cfg.FiniteProduct):
    t1, t2 = _triple(spec.t1), _triple(spec.t2)
    if t1.gamma is None:
        t1 = finite.double_odd(t1)
    rep = finite.product_check(t1, t2)
    results = {"decomposition_dims": rep.decomposition_dims, "hypothesis_dims": rep.hypothesis_dims}
    if t1.gamma is not None and t2.gamma is not None:
        results["unitary_equivalence_defect"] = finite.unitary_equivalence_defect(t1, t2)
    return results, rep.checks, {"rank_tol": finite.RANK_TOL, "contain_tol": finite.CONTAIN_TOL}


def _run_constants(spec: cfg.Constants):
    results = {"n": spec.n, "dixmier": ym.dixmier_torus_constant(spec.n)}
    if spec.gamma is not None:
        results["alpha"], results["beta"] = ym.gamma_constants(**asdict(spec.gamma))
    return results, {}, {}


_RUNNERS = {
    "torus_ym": _run_torus_ym,
    "torus_minimize": _run_torus_minimize,
    "torus_product": _run_torus_product,
    "finite_forms": _run_finite_forms,
    "finite_product": _run_finite_product,
    "constants": _run_constants,
}


def run(experiment: cfg.ExperimentConfig) -> dict:
    """Execute one experiment and return its report document."""
    start = time.monotonic()
    try:
        # overflow to inf or NaN is a result here, refused when the report is written
        with np.errstate(over="ignore", invalid="ignore"):
            results, checks, tolerances = _RUNNERS[experiment.kind](experiment.spec)
    except NcymError:
        raise
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        raise ComputeError(f"{type(exc).__name__}: {exc}") from exc
    return {
        "schema_version": cfg.SCHEMA_VERSION,
        "library_version": __version__,
        "kind": experiment.kind,
        "config": {"kind": experiment.kind, "payload": experiment.payload},
        "conventions": CONVENTIONS,
        "tolerances": tolerances,
        "results": results,
        "checks": checks,
        "wall_clock_seconds": time.monotonic() - start,
    }


def _emit(report: dict, output_path: str | None) -> None:
    """Write the report as JSON; ``ValueError`` if it holds a NaN or infinity."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text + "\n")
        log.info("report written to %s", output_path)
    else:
        print(text)


def _fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    level = os.environ.get("NCYM_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        return _fail(f"NCYM_LOG must name a log level such as DEBUG or INFO, got {level!r}")
    logging.basicConfig(level=level)
    parser = argparse.ArgumentParser(prog="ncym", description="noncommutative Yang-Mills workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--output", default=None, help="report path (overrides config output_path)")

    p_val = sub.add_parser("validate", help="validate a config, print diagnostics")
    p_val.add_argument("config", help="path to the JSON config")

    p_const = sub.add_parser("constants", help="closed-form torus constants")
    p_const.add_argument("--n", type=int, required=True, help="torus dimension")

    # an unknown option is an input error (exit 1), not argparse's usage exit 2
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        return _fail(f"unrecognized arguments: {' '.join(unknown)}")

    try:
        if args.command == "constants":
            experiment = cfg.ExperimentConfig("constants", {"n": args.n})
        else:
            with open(args.config, "r") as fh:
                doc = cfg.load(fh.read())
            experiment = cfg.from_document(doc)
    except OSError as exc:
        return _fail(f"cannot read config: {exc}")
    except ConfigInvalid as exc:
        out = sys.stdout if args.command == "validate" else sys.stderr
        for d in exc.diagnostics:
            print(f"{d.severity}: {d.path}: {d.message}", file=out)
        return 1
    if args.command == "validate":
        return 0

    try:
        report = run(experiment)
    except NcymError as exc:
        return _fail(exc)
    try:
        _emit(report, getattr(args, "output", None) or experiment.output_path)
    except (OSError, ValueError) as exc:
        return _fail(f"report not written: {exc}")
    return 2 if any(v is False for v in report["checks"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
