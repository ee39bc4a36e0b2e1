"""Product connections: additivity, subadditivity, splitting, constants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncym import (
    Connection,
    DomainError,
    Projection,
    ThetaMatrix,
    TorusElement,
    TorusMatrix,
    additivity_report,
    critical_splitting_check,
    curvature,
    dixmier_torus_constant,
    gamma_constants,
    gradient_norm,
    is_critical,
    minimize,
    product_connection,
    random_connection,
    subadditivity_check,
    ym_value,
)
from ncym import sampling, yangmills
from ncym.yangmills import compatibility_bound, compatibility_deviation

EIGHT_PI_SQ = 8.0 * math.pi ** 2


def example_connection(th):
    u1 = TorusElement.generator(th, 1)
    return Connection(th, 1, [TorusMatrix.zeros(th, 1), TorusMatrix(th, [[u1 - u1.adjoint()]])])


def rank_one_projection(theta, gen):
    """v v* for a random unit v in C^2, as a constant projection over theta."""
    v = gen.normal(size=2) + 1j * gen.normal(size=2)
    v /= np.linalg.norm(v)
    return Projection(TorusMatrix.from_scalar_matrix(theta, np.outer(v, v.conj())))


def random_pair(seed, q1=1, q2=1, radius=1, amplitude=0.4, cut=()):
    """Random connections over two random thetas; a factor named in ``cut``
    (1 or 2) lives on the corner of A^2 cut by a ``rank_one_projection``."""
    gen = sampling.rng(seed)
    th = sampling.random_theta(2, gen)
    ph = sampling.random_theta(2, gen)
    p1, p2 = [rank_one_projection(t, gen) if k in cut else None for k, t in ((1, th), (2, ph))]
    c1 = random_connection(th, q1 if p1 is None else 2, gen, radius=radius, amplitude=amplitude, proj=p1)
    c2 = random_connection(ph, q2 if p2 is None else 2, gen, radius=radius, amplitude=amplitude, proj=p2)
    return c1, c2


def test_flat_product_is_flat():
    th = ThetaMatrix([[0.0, 0.2], [-0.2, 0.0]])
    ph = ThetaMatrix([[0.0, -0.7], [0.7, 0.0]])
    prod = product_connection(Connection.flat(th, 1), Connection.flat(ph, 2))
    assert prod.q == 2 and prod.n == 4
    assert ym_value(prod) == 0.0


def test_product_of_compatible_is_compatible():
    c1, c2 = random_pair(31, q1=1, q2=2)
    prod = product_connection(c1, c2)
    assert compatibility_deviation(prod) < 1e-12
    assert compatibility_deviation(prod) <= compatibility_bound(prod)


def test_mixed_curvature_components_vanish():
    c1, c2 = random_pair(32, q1=2, q2=1)
    prod = product_connection(c1, c2)
    f = curvature(prod)
    n1 = c1.n
    for i in range(1, n1 + 1):
        for j in range(n1 + 1, prod.n + 1):
            assert f[(i, j)].l1() == 0.0


def test_block_curvature_embeds_factor_curvature():
    c1, c2 = random_pair(33)
    prod = product_connection(c1, c2)
    f_prod = curvature(prod)
    f1 = curvature(c1)
    # first-block component (1,2) of the product is F12(c1) embedded
    from ncym.torus import tensor_embed

    emb = tensor_embed(f1[(1, 2)].entries[0][0], TorusElement.one(c2.theta))
    got = f_prod[(1, 2)].entries[0][0]
    assert max(
        abs(got.coeffs.get(k, 0j) - emb.coeffs.get(k, 0j))
        for k in set(got.coeffs) | set(emb.coeffs)
    ) < 1e-12
    # second-block component (3,4) embeds F12(c2)
    f2 = curvature(c2)
    emb2 = tensor_embed(TorusElement.one(c1.theta), f2[(1, 2)].entries[0][0])
    got2 = f_prod[(3, 4)].entries[0][0]
    assert max(
        abs(got2.coeffs.get(k, 0j) - emb2.coeffs.get(k, 0j))
        for k in set(got2.coeffs) | set(emb2.coeffs)
    ) < 1e-12


def test_additivity_report_flat_pair():
    th = ThetaMatrix([[0.0, 0.2], [-0.2, 0.0]])
    ph = ThetaMatrix.zeros(2)
    c1, c2 = Connection.flat(th, 2), Connection.flat(ph, 3)
    rep = additivity_report(c1, c2)
    assert rep.ym_product == rep.ym1 == rep.ym2 == 0.0
    assert rep.alpha_tau == 3.0 and rep.beta_tau == 2.0
    assert rep.defect == 0.0 and rep.cross_term == 0.0
    assert subadditivity_check(rep)  # 0 <= 0


def test_additivity_instance_with_flat_factor():
    th = ThetaMatrix([[0.0, 0.3], [-0.3, 0.0]])
    ph = ThetaMatrix([[0.0, 0.11], [-0.11, 0.0]])
    rep = additivity_report(example_connection(th), Connection.flat(ph, 1))
    assert abs(rep.ym_product - EIGHT_PI_SQ) <= 1e-9 * EIGHT_PI_SQ
    assert abs(rep.defect) <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_additivity_and_cross_term_random(seed):
    q1, q2 = (1, 2) if seed % 3 == 0 else (1, 1)
    c1, c2 = random_pair(200 + seed, q1=q1, q2=q2)
    rep = additivity_report(c1, c2)
    assert rep.alpha_tau == float(q2) and rep.beta_tau == float(q1)
    assert abs(rep.defect) <= 1e-9 * (1.0 + rep.ym_product)
    assert abs(rep.defect - rep.cross_term) <= 1e-9
    # tau proxies of curvature coordinates vanish on torus connections
    assert abs(complex(rep.xi_re, rep.xi_im)) < 1e-10 and abs(complex(rep.eta_re, rep.eta_im)) < 1e-10


def test_subadditivity_sweep():
    for seed in range(25):
        c1, c2 = random_pair(300 + seed)
        assert subadditivity_check(additivity_report(c1, c2))


def test_subadditivity_equality_flat_factor():
    c1, _ = random_pair(41)
    flat = Connection.flat(ThetaMatrix.zeros(2), 1)
    rep = additivity_report(c1, flat)
    lhs = math.sqrt(max(rep.ym_product, 0.0))
    rhs = math.sqrt(rep.alpha_tau * rep.ym1)
    assert abs(lhs - rhs) <= 1e-9


SCALES = [10.0**k for k in range(-30, 31, 5)]


@pytest.mark.parametrize("flat_second", [False, True], ids=["random-pair", "flat-factor"])
def test_subadditivity_verdict_at_every_scale(flat_second):
    """The slack is relative: a free product pair reads subadditive with its
    YM values scaled anywhere from 1e-30 to 1e30, the flat-factor equality
    case included, and a report 1e-6 above the bound fails at every scale."""
    c1, c2 = random_pair(43)
    if flat_second:
        c2 = Connection.flat(ThetaMatrix.zeros(2), 1)
    rep = additivity_report(c1, c2)
    for s in SCALES:
        scaled = dataclasses.replace(rep, ym_product=s * rep.ym_product, ym1=s * rep.ym1, ym2=s * rep.ym2)
        assert subadditivity_check(scaled), s
        rhs = math.sqrt(scaled.alpha_tau * scaled.ym1) + math.sqrt(scaled.beta_tau * scaled.ym2)
        above = dataclasses.replace(scaled, ym_product=(rhs * (1.0 + 1e-6)) ** 2)
        assert not subadditivity_check(above), s


def test_splitting_flat_pair():
    th = ThetaMatrix([[0.0, 0.2], [-0.2, 0.0]])
    ph = ThetaMatrix([[0.0, 0.5], [-0.5, 0.0]])
    rep = critical_splitting_check(Connection.flat(th, 1), Connection.flat(ph, 1), tol=1e-8)
    assert rep.necessary and rep.product_critical


def test_splitting_noncritical_factor():
    th = ThetaMatrix([[0.0, 0.3], [-0.3, 0.0]])
    ph = ThetaMatrix([[0.0, 0.5], [-0.5, 0.0]])
    rep = critical_splitting_check(example_connection(th), Connection.flat(ph, 1), tol=1e-3)
    assert not rep.necessary
    assert not rep.product_critical


def test_splitting_minimizers_product_critical():
    gen = sampling.rng(42)
    th = sampling.random_theta(2, gen)
    ph = sampling.random_theta(2, gen)
    c1, _ = minimize(random_connection(th, 1, gen, radius=1, amplitude=0.05), grad_tol=1e-9)
    c2, _ = minimize(random_connection(ph, 1, gen, radius=1, amplitude=0.05), grad_tol=1e-9)
    rep = critical_splitting_check(c1, c2, tol=1e-6)
    assert rep.necessary
    assert rep.product_critical


def test_splitting_differentiates_each_factor_once(monkeypatch):
    """A free pair is decided from one gradient per factor, and the bilinear
    supremum is q2 ||G1|| + q1 ||G2||."""
    c1, c2 = random_pair(600, amplitude=0.05)  # gradient norms 7.0 and 6.7
    tol = 20.0  # over twice either norm: both factors are critical
    calls = []
    real = yangmills.ym_gradient
    monkeypatch.setattr(yangmills, "ym_gradient", lambda c: calls.append(c) or real(c))
    rep = critical_splitting_check(c1, c2, tol=tol)
    monkeypatch.undo()
    assert calls == [c1, c2]
    assert rep.necessary
    n1, n2 = gradient_norm(c1), gradient_norm(c2)
    assert (rep.gradient_norm_1, rep.gradient_norm_2) == (n1, n2)
    assert rep.bilinear == c2.q * n1 + c1.q * n2 > 0.0


#: fixed before measuring: relative error of the product gradient identity
PRODUCT_GRADIENT_RTOL = 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q2=st.sampled_from([1, 2]), cut=st.sampled_from([(), (1,), (2,), (1, 2)]))
@example(seed=414, q2=1, cut=())
@example(seed=612, q2=1, cut=(1,))
@example(seed=612, q2=1, cut=(2,))
@example(seed=612, q2=1, cut=(1, 2))
def test_product_gradient_norm_identity(seed, q2, cut):
    """||G_prod||^2 = w2 ||G1||^2 + w1 ||G2||^2 with a factor's weight
    w = tau_q(p), its rank q on a free module: the mixed curvature vanishes,
    so the product gradient is (G1 (x) p2, p1 (x) G2).  The literal product
    gradient is the oracle, on free pairs and on pairs with a rank-one
    constant projection on the first factor, the second or both.  On free
    pairs the report holds the identity exactly as written here, n * n and not
    n**2: libm's pow may differ from the product in the last bit (seed 414
    does)."""
    c1, c2 = random_pair(seed, q2=q2, cut=cut)
    literal = gradient_norm(product_connection(c1, c2))
    rep = critical_splitting_check(c1, c2, tol=1e-6)
    assert abs(rep.gradient_norm_product - literal) <= PRODUCT_GRADIENT_RTOL * literal
    if not cut:
        n1, n2 = rep.gradient_norm_1, rep.gradient_norm_2
        assert rep.gradient_norm_product == math.sqrt(q2 * n1 * n1 + c1.q * n2 * n2)


def test_splitting_with_projection_differentiates_each_factor_once(monkeypatch):
    """A projected pair is decided from one gradient per factor, as a free
    one is, and builds no product connection; the literal product gradient
    norm is the oracle."""
    gen = sampling.rng(610)
    th = sampling.random_theta(2, gen)
    ph = sampling.random_theta(2, gen)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[0.5, 0.5], [0.5, 0.5]]))
    c1 = random_connection(th, 2, gen, radius=1, amplitude=0.4, proj=proj)
    c2 = random_connection(ph, 1, gen, radius=1, amplitude=0.4)
    calls, built = [], []
    real = yangmills.ym_gradient
    monkeypatch.setattr(yangmills, "ym_gradient", lambda c: calls.append(c) or real(c))
    monkeypatch.setattr(yangmills, "product_connection", lambda *factors: built.append(factors))
    rep = critical_splitting_check(c1, c2, tol=1e-6)
    monkeypatch.undo()
    assert calls == [c1, c2] and built == []
    literal = gradient_norm(product_connection(c1, c2))
    assert literal > 0.0
    assert abs(rep.gradient_norm_product - literal) <= PRODUCT_GRADIENT_RTOL * literal
    assert not rep.necessary and not rep.product_critical


def test_product_connection_checks_only_the_product(monkeypatch):
    """Factors were checked when they were built: a product of two projected
    factors checks the product connection alone."""
    gen = sampling.rng(611)
    factors = []
    for p in ([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]]):
        th = sampling.random_theta(2, gen)
        proj = Projection(TorusMatrix.from_scalar_matrix(th, p))
        factors.append(random_connection(th, 2, gen, radius=1, amplitude=0.4, proj=proj))
    checked = []
    real = Connection._validate
    monkeypatch.setattr(Connection, "_validate", lambda c: checked.append(c) or real(c))
    prod = product_connection(*factors)
    assert checked == [prod] and prod.proj is not None


def test_splitting_implication_never_violated():
    for seed in range(6):
        c1, c2 = random_pair(500 + seed, amplitude=0.2)
        rep = critical_splitting_check(c1, c2, tol=1e-6)
        assert (not rep.product_critical) or rep.necessary


def test_dixmier_constants():
    assert abs(dixmier_torus_constant(1) - 1.0 / math.pi) <= 1e-12
    assert abs(dixmier_torus_constant(2) - 1.0 / (2.0 * math.pi)) <= 1e-12
    assert abs(dixmier_torus_constant(3) - 1.0 / (3.0 * math.pi ** 2)) <= 1e-12
    with pytest.raises(DomainError):
        dixmier_torus_constant(0)


def test_gamma_constants():
    tr = 1.0 / (2.0 * math.pi)
    alpha, beta = gamma_constants(2.0, 2.0, 1, 1, tr, tr)
    assert alpha == beta
    assert alpha == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
    # c = Gamma(2)Gamma(2)/Gamma(3) = 1/2 exactly
    a1, b1 = gamma_constants(2.0, 2.0, 1, 1, 1.0, 1.0)
    assert a1 == 0.5 and b1 == 0.5
    # doubling n doubles alpha, leaves beta unchanged
    a2, b2 = gamma_constants(2.0, 2.0, 1, 2, 1.0, 1.0)
    assert a2 == 2.0 * a1 and b2 == b1
    with pytest.raises(DomainError):
        gamma_constants(0.0, 2.0, 1, 1, 1.0, 1.0)
    with pytest.raises(DomainError):
        gamma_constants(2.0, 2.0, 0, 1, 1.0, 1.0)


def test_product_connection_with_projections():
    th = ThetaMatrix([[0.0, 0.2], [-0.2, 0.0]])
    ph = ThetaMatrix([[0.0, 0.4], [-0.4, 0.0]])
    from ncym import grassmannian_connection

    c1 = grassmannian_connection(th, [[0.5, 0.5], [0.5, 0.5]])
    c2 = Connection.flat(ph, 1)
    prod = product_connection(c1, c2)
    assert prod.proj is not None
    assert ym_value(prod) == 0.0
