"""What the benchmark in ``perfbench/`` needs of the library.

The tracer wraps library names from outside, and the workloads write configs
for ``config.parse``; removing a traced name or a field the workloads write
breaks the benchmark, and these tests say so before it runs.  They only read
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import ncym
import ncym.cli
from ncym import config as cfg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 5001


def _load(name):
    """A ``perfbench`` module, imported by file path under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

#: TARGETS plus the two names ``Tracer.install`` wraps by hand
TRACED = [(path, attr) for path, attr, _ in tracing.TARGETS]
TRACED += [("torus.TorusElement", "__mul__"), ("yangmills", "minimize")]


@pytest.mark.parametrize("path, attr", TRACED, ids=[f"{p}.{a}" for p, a in TRACED])
def test_traced_name_resolves(path, attr):
    owner = tracing._resolve(ncym, path)
    # the tracer patches the owner's own attribute, so an inherited one is not enough
    assert callable(vars(owner).get(attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(name):
    work = workloads.WORKLOADS[name](SEED)
    for exp in (work.warmup,) + tuple(work.experiments):
        cfg.parse(exp.text)


_quartic_step = ncym.yangmills._quartic_step


def _oversized_step(coeffs):
    """Ten times the line search's step: past the quartic's minimiser, so YM rises."""
    return 10.0 * _quartic_step(coeffs)


@pytest.mark.parametrize(
    "grad_tol, step_rule, reason, rejected",
    [
        (1e-8, None, "converged", 0),
        # the preconditioned direction drops below the coefficient floor: no candidate
        (1e-300, None, "no_decrease", 0),
        (1e-8, _oversized_step, "no_decrease", 1),
    ],
    ids=["converged", "direction-vanishes", "candidate-rejected"],
)
def test_tracer_counts_minimize_steps_and_rejections(monkeypatch, grad_tol, step_rule, reason, rejected):
    """The tracer unpacks ``(connection, trace)``: its iterations are the accepted
    steps, its backtracks the candidates ``minimize`` evaluated and rejected."""
    if step_rule is not None:
        monkeypatch.setattr(ncym.yangmills, "_quartic_step", step_rule)
    theta = ncym.ThetaMatrix([[0.0, 0.3], [-0.3, 0.0]])
    start = ncym.random_connection(theta, 1, ncym.sampling.rng(3), radius=1, terms=2, amplitude=0.05)
    tracer = tracing.Tracer()
    tracer.install(ncym, svd=False)
    try:
        _, trace = ncym.yangmills.minimize(start, grad_tol=grad_tol)
    finally:
        tracer.uninstall()
    assert trace.reason == reason
    assert tracer.counters["yangmills.minimize.iterations"] == len(trace.steps) == len(trace) - 1
    assert tracer.counters["yangmills.minimize.backtracks"] == rejected


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_torus_product_work_and_kernel_boundary(monkeypatch):
    """A torus_product run builds one product connection, evaluates three YM
    values and differentiates only its two factors, and every star product that
    reaches the kernels enters through ``TorusElement.__mul__``, where the
    tracer counts ``torus.star``."""
    entries = []
    kernel = ncym.torus._star_product
    monkeypatch.setattr(ncym.torus, "_star_product", lambda a, b: entries.append(1) or kernel(a, b))
    experiment = cfg.parse((CONFIGS / "torus_product.json").read_text())
    tracer = tracing.Tracer()
    tracer.install(ncym, svd=False)
    try:
        ncym.cli.run(experiment)
    finally:
        tracer.uninstall()
    assert tracer.calls["yangmills.product_connection"] == 1
    assert tracer.calls["yangmills.ym_value"] == 3
    assert tracer.calls["yangmills.ym_gradient"] == 2
    assert tracer.calls[tracing.STAR] == len(entries) > 0


def test_finite_product_work_and_kernel_boundary(monkeypatch):
    """A finite_product run builds each of its three triples (two factors and
    their product) and their form spaces once, and every SVD that reaches
    LAPACK enters through ``np.linalg.svd``, where the tracer counts
    ``finite.svd``. The SVDs are counted at numpy's gufuncs, below
    ``np.linalg.svd``, so a call that bypasses it (``np.linalg.norm(x, 2)``, a
    name bound at import) shows as a difference. QR factorizations are not
    SVDs: the QR triangle that a tall span is reduced to runs through numpy's
    qr gufuncs, is not counted as ``finite.svd``, and its time falls in the
    span that called it (``finite.pi_omega2``, ``finite.junk``)."""
    entries = []
    gufuncs = np.linalg._umath_linalg
    for name in [n for n in dir(gufuncs) if n.startswith("svd")]:
        kernel = getattr(gufuncs, name)
        monkeypatch.setattr(gufuncs, name, lambda *a, _k=kernel, **kw: entries.append(1) or _k(*a, **kw))
    experiment = cfg.parse((CONFIGS / "finite_product.json").read_text())
    tracer = tracing.Tracer()
    tracer.install(ncym, svd=True)
    try:
        ncym.cli.run(experiment)
    finally:
        tracer.uninstall()
    for name in ("finite.triple_new", "finite.omega1", "finite.pi_omega2", "finite.junk"):
        assert tracer.calls[name] == 3, name
    assert tracer.calls[tracing.SVD] == len(entries) > 0
