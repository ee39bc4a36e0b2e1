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
from ncym import TorusElement, TorusMatrix
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


def _traced_torus_product(monkeypatch, **patches):
    """The tracer after one run of ``configs/torus_product.json``, with the
    given names of ``ncym.yangmills`` replaced for the run."""
    for name, value in patches.items():
        monkeypatch.setattr(ncym.yangmills, name, value)
    experiment = cfg.parse((CONFIGS / "torus_product.json").read_text())
    tracer = tracing.Tracer()
    tracer.install(ncym, svd=False)
    try:
        ncym.cli.run(experiment)
    finally:
        tracer.uninstall()
    return tracer


def _literal_matmul(x, y):
    """x @ y as the literal sum of element products: each entry the chain
    x[i][k] * y[k][j] + ... over the k whose operands are both nonempty,
    starting from its first product (zero when there is none)."""
    zero = TorusElement.zero(x.theta)
    rows = []
    for xrow in x.entries:
        row = []
        for col in zip(*y.entries):
            acc = None
            for a, b in zip(xrow, col):
                if a.coeffs and b.coeffs:
                    acc = a * b if acc is None else acc + a * b
            row.append(zero if acc is None else acc)
        rows.append(row)
    return TorusMatrix(x.theta, rows)


def _literal_commutators(jobs):
    """base + (x @ y) - (y @ x) + ... per job of (x, y, s) terms, x @ y for
    s = 0 and [x, y] for s = -1, with ``@`` spelled as element ``*`` and
    ``+``: the expressions ``_matrix_sums`` replaced, each star product of
    them counted by the tracer at ``TorusElement.__mul__``."""
    out = []
    for base, terms in jobs:
        for x, y, s in terms:
            base = base + _literal_matmul(x, y)
            if s:
                base = base - _literal_matmul(y, x)
        out.append(base)
    return out


def test_torus_product_work_and_kernel_boundary(monkeypatch):
    """A torus_product run builds one product connection, evaluates three YM
    values and differentiates only its two factors.  Every product that
    reaches a star-product kernel came through exactly one of
    ``TorusElement.__mul__`` with an element operand (where the tracer counts
    ``torus.star``) and ``signed_sums`` (the matrix products and the
    commutators of curvature and gradient), and ``signed_sums`` takes the
    products and pairs of the literal ``@`` expressions it replaced, a term
    s1 a * b + s2 b * a with s2 nonzero counting as two, which the tracer
    counts through ``*`` when ``@`` is spelled with it.
    Each ``signed_sums`` call runs at most one pairwise pass."""
    torus = ncym.torus
    route, kernel_products = [], []  # open entry points; (entry points, kernel, products) per kernel call
    star_entries, summed = [], []  # (a, b) per element product a * b and per product given to signed_sums
    passes_per_sum = []  # pairwise kernel calls inside each signed_sums call

    def entered(name, fn, products_of):
        def call(*args):
            route.append(name)
            products = products_of(*args)
            (star_entries if name == "star" else summed).extend(products)
            before = len(kernel_products)
            try:
                return fn(*args)
            finally:
                route.pop()
                if name == "sum":
                    passes_per_sum.append(sum(k == "pairwise" for _, k, _ in kernel_products[before:]))

        return call

    def reached(fn, kernel, count):
        def call(*args):
            kernel_products.append((tuple(route), kernel, count(*args)))
            return fn(*args)

        return call

    element_mul = vars(torus.TorusElement)["__mul__"]
    star = entered("star", element_mul, lambda a, b: [(a, b)])
    monkeypatch.setattr(
        torus.TorusElement,
        "__mul__",
        lambda a, b: star(a, b) if isinstance(b, torus.TorusElement) else element_mul(a, b),
    )
    monkeypatch.setattr(
        torus, "_pairwise_kernel", reached(torus._pairwise_kernel, "pairwise", lambda th, bases, ps: len(ps))
    )
    # a dense-box call computes s1 a * b + s2 b * a: one product per nonzero sign
    box_products = lambda *args: (args[-2] != 0) + (args[-1] != 0)  # noqa: E731
    monkeypatch.setattr(torus, "_dense_box_kernel", reached(torus._dense_box_kernel, "box", box_products))

    def products_of_terms(entries):
        return [p for _, terms in entries for a, b, _, s2 in terms for p in [(a, b)] + ([(b, a)] if s2 else [])]

    signed_sums = entered("sum", torus.signed_sums, products_of_terms)
    tracer = _traced_torus_product(monkeypatch, signed_sums=signed_sums)
    assert tracer.calls["yangmills.product_connection"] == 1
    assert tracer.calls["yangmills.ym_value"] == 3
    assert tracer.calls["yangmills.ym_gradient"] == 2
    assert tracer.calls.get(tracing.STAR, 0) == len(star_entries)

    def nonempty(products):
        return [(a, b) for a, b in products if a.coeffs and b.coeffs]

    assert all(len(r) == 1 for r, _, _ in kernel_products)
    by_route = {"star": 0, "sum": 0}
    for (name,), _, count in kernel_products:
        by_route[name] += count
    assert by_route == {"star": len(nonempty(star_entries)), "sum": len(nonempty(summed))}
    assert by_route["sum"] > 0
    assert passes_per_sum and max(passes_per_sum) == 1

    literal = _traced_torus_product(monkeypatch, _matrix_sums=_literal_commutators)
    star_pairs = tracer.counters.get("torus.star.pairs", 0)
    summed_pairs = sum(len(a.coeffs) * len(b.coeffs) for a, b in summed)
    assert literal.calls[tracing.STAR] == tracer.calls.get(tracing.STAR, 0) + len(nonempty(summed))
    assert literal.counters["torus.star.pairs"] == star_pairs + summed_pairs


def test_torus_product_embeds_through_the_traced_name(monkeypatch):
    """Every entry of the product connection is embedded through ``tensor_embed``,
    where the tracer counts ``torus.tensor_embed``, and every entry of every
    component shares the connection's one product theta."""
    built = []
    product = ncym.yangmills.product_connection

    def keep(c1, c2):
        built.append(product(c1, c2))
        return built[-1]

    monkeypatch.setattr(ncym.yangmills, "product_connection", keep)
    experiment = cfg.parse((CONFIGS / "torus_product.json").read_text())
    tracer = tracing.Tracer()
    tracer.install(ncym, svd=False)
    try:
        ncym.cli.run(experiment)
    finally:
        tracer.uninstall()
    (conn,) = built
    mats = list(conn.A) + ([conn.proj.p] if conn.proj is not None else [])
    entries = [e for m in mats for row in m.entries for e in row]
    assert tracer.calls["torus.tensor_embed"] == len(entries) > 0
    assert all(m.theta is conn.theta for m in mats)
    assert all(e.theta is conn.theta for e in entries)


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
