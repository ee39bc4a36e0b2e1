"""Curvature, the YM functional, gradients, criticality and descent."""

import json
import logging
import itertools
import math
import sys
import warnings
from pathlib import Path

import pytest

from ncym import (
    Connection,
    InvalidConnection,
    Perturbation,
    Projection,
    ShapeMismatch,
    ThetaMatrix,
    TorusElement,
    TorusMatrix,
    curvature,
    gradient_norm,
    grassmannian_connection,
    is_critical,
    minimize,
    random_connection,
    ym_gradient,
    ym_value,
)
from ncym import cli, config as cfg, sampling, torus, yangmills
from test_torus import bits, coeff_distance, dict_pass_signed_sum, signed_sum_tolerance
from ncym.yangmills import (
    COMPAT_TOL,
    SKEW_ULPS,
    _kron_matrix,
    _relative_skew_residue,
    compatibility_bound,
    compatibility_deviation,
    hs_inner,
    line_quartic,
    skew_part,
)

EIGHT_PI_SQ = 8.0 * math.pi ** 2
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def theta2(val=0.3):
    return ThetaMatrix([[0.0, val], [-val, 0.0]])


def example_connection(theta=None):
    """n=2, q=1, A1=0, A2=U1-U1*: curvature 2*pi*i(U1+U1*), YM = 8 pi^2."""
    th = theta or theta2()
    u1 = TorusElement.generator(th, 1)
    a2 = u1 - u1.adjoint()
    return Connection(th, 1, [TorusMatrix.zeros(th, 1), TorusMatrix(th, [[a2]])])


def ym_brute_force(c):
    """tau_q(F* F) via the literal dagger/matmul/trace route (oracle path)."""
    f = curvature(c)
    total = 0j
    for _, m in f.items():
        total += (m.dagger() @ m).tau()
    return total


def test_flat_curvature_zero():
    c = Connection.flat(theta2(), 2)
    f = curvature(c)
    assert all(m.l1() == 0.0 for m in f.values())
    assert ym_value(c) == 0.0


def test_constant_scalar_potentials_flat():
    th = theta2()
    comps = []
    for lam in (0.7, -1.3):
        m = TorusMatrix.identity(th, 2).scale(1j * lam)
        comps.append(m)
    c = Connection(th, 2, comps)
    assert all(m.l1() == 0.0 for m in curvature(c).values())
    assert ym_value(c) == 0.0


def test_explicit_curvature_and_ym_value():
    for val in (0.1, 0.3, 1.0 / math.sqrt(2.0)):
        c = example_connection(theta2(val))
        f = curvature(c)[(1, 2)].entries[0][0]
        u1 = TorusElement.generator(c.theta, 1)
        expected = (u1 + u1.adjoint()).scale(2j * math.pi)
        assert max(
            abs(f.coeffs.get(k, 0j) - expected.coeffs.get(k, 0j))
            for k in set(f.coeffs) | set(expected.coeffs)
        ) < 1e-12
        ym = ym_value(c)
        assert abs(ym - EIGHT_PI_SQ) <= 1e-9 * EIGHT_PI_SQ
        # literal trace route agrees
        brute = ym_brute_force(c)
        assert abs(brute.imag) < 1e-12
        assert abs(brute.real - ym) < 1e-9


def test_curvature_is_a_dict_kept_on_the_connection():
    gen = sampling.rng(30)
    c = random_connection(sampling.random_theta(3, gen), 1, gen, radius=1)
    f = curvature(c)
    assert type(f) is dict and list(f) == [(1, 2), (1, 3), (2, 3)]
    assert curvature(c) is f and c._curvature is f


def test_projected_connection_is_checked_at_construction_only(monkeypatch):
    """YM of a projected q = 2 connection is its curvature's one ``signed_sums``
    call: neither it nor a second YM checks the connection again."""
    th = theta2()
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[1.0, 0.0], [0.0, 0.0]]))
    c = random_connection(th, 2, sampling.rng(31), radius=1, proj=proj)
    calls = []  # entries per signed_sums call
    real = yangmills.signed_sums
    monkeypatch.setattr(
        yangmills, "signed_sums", lambda entries, **kw: calls.append(len(entries)) or real(entries, **kw)
    )
    ym = ym_value(c)
    assert ym > 0.0 and calls == [4]  # one pair i < j, q^2 entries
    assert ym_value(c) == ym and calls == [4]


def test_ym_quadratic_scaling():
    th = theta2()
    u1 = TorusElement.generator(th, 1)
    base = u1 - u1.adjoint()
    values = {}
    for t in (0.5, 1.0, 2.0):
        c = Connection(th, 1, [TorusMatrix.zeros(th, 1), TorusMatrix(th, [[base.scale(t)]])])
        values[t] = ym_value(c)
    assert values[0.5] == pytest.approx(0.25 * values[1.0], rel=1e-12)
    assert values[2.0] == pytest.approx(4.0 * values[1.0], rel=1e-12)


def test_hs_inner_matches_literal_trace():
    gen = sampling.rng(21)
    th = sampling.random_theta(2, gen)
    for q in (1, 2):
        for _ in range(10):
            rows = [[sampling.random_element(th, gen, 2, 4) for _ in range(q)] for _ in range(q)]
            x = TorusMatrix(th, rows)
            rows = [[sampling.random_element(th, gen, 2, 4) for _ in range(q)] for _ in range(q)]
            y = TorusMatrix(th, rows)
            literal = (x.dagger() @ y).tau()
            assert abs(hs_inner(x, y) - literal) < 1e-10


def literal_matmul(x, y):
    """(X Y)_ij as the literal sum over k of x_ik * y_kj, from zero."""
    q = x.q
    rows = []
    for i in range(q):
        row = []
        for j in range(q):
            acc = TorusElement.zero(x.theta)
            for k in range(q):
                acc = acc + x.entries[i][k] * y.entries[k][j]
            row.append(acc)
        rows.append(row)
    return TorusMatrix(x.theta, rows)


def random_matrix(th, q, gen, zero_share):
    """q x q random entries, each replaced by zero with probability zero_share."""
    rows = [
        [
            TorusElement.zero(th) if gen.random() < zero_share else sampling.random_element(th, gen, 2, 4)
            for _ in range(q)
        ]
        for _ in range(q)
    ]
    return TorusMatrix(th, rows)


def assert_matmul_is_the_dict_pass(x, y):
    """Each entry of x @ y has the bits of the dict pass over its products
    (``dict_pass_signed_sum``, the oracle of one ``signed_sums`` entry) and
    equals the literal sum within ``signed_sum_tolerance``, fixed from float64
    before measuring."""
    zero = TorusElement.zero(x.theta)
    got, literal = x @ y, literal_matmul(x, y)
    for i in range(x.q):
        for j in range(x.q):
            products = [(x.entries[i][k], y.entries[k][j], 1, 0) for k in range(x.q)]
            assert bits(got.entries[i][j]) == bits(dict_pass_signed_sum(zero, products))
            assert coeff_distance(got.entries[i][j], literal.entries[i][j]) <= signed_sum_tolerance(zero, products)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_matmul_matches_literal_sum(q):
    gen = sampling.rng(30 + q)
    th = sampling.random_theta(2, gen)
    for zero_share in (0.0, 0.4, 1.0):
        for _ in range(5):
            x, y = random_matrix(th, q, gen, zero_share), random_matrix(th, q, gen, zero_share)
            assert_matmul_is_the_dict_pass(x, y)


@pytest.mark.parametrize("q2", [2, 3])
def test_matmul_matches_literal_sum_block_diagonal(q2):
    """Operands a (x) 1_q2, as in the product modules, with most entries zero."""
    gen = sampling.rng(40 + q2)
    th, ph = sampling.random_theta(2, gen), sampling.random_theta(2, gen)
    one = TorusMatrix.identity(ph, q2)
    for _ in range(5):
        x = _kron_matrix(random_matrix(th, 1, gen, 0.0), one)
        y = _kron_matrix(random_matrix(th, 1, gen, 0.0), one)
        z = _kron_matrix(TorusMatrix.identity(th, 1), random_matrix(ph, q2, gen, 0.3))
        for a, b in ((x, y), (x, z), (z, x)):
            assert_matmul_is_the_dict_pass(a, b)


def test_compatibility_skew_true_nonskew_false():
    gen = sampling.rng(22)
    th = sampling.random_theta(2, gen)
    c = random_connection(th, 2, gen, radius=1, amplitude=0.5)
    assert compatibility_deviation(c) < 1e-12
    assert compatibility_deviation(c) <= compatibility_bound(c)
    # A1 = U1 is not skew-adjoint
    u1 = TorusElement.generator(th, 1)
    bad = Connection(th, 1, [TorusMatrix(th, [[u1]]), TorusMatrix.zeros(th, 1)])
    assert not compatibility_deviation(bad) <= compatibility_bound(bad)
    assert compatibility_deviation(bad) > 1e-3


# -- the sampled compatibility identity: the oracle for compatibility_deviation --


def _apply_nabla(c, j, vec):
    out = []
    aj = c.A[j - 1]
    for i in range(c.q):
        acc = vec[i].derivation(j)
        for k in range(c.q):
            acc = acc + aj.entries[i][k] * vec[k]
        out.append(acc)
    return out


def _vec_inner(xi, eta):
    acc = TorusElement.zero(xi[0].theta)
    for x, y in zip(xi, eta):
        acc = acc + x.adjoint() * y
    return acc


def _project_vec(proj, vec):
    if proj is None:
        return vec
    p = proj.p
    return [
        sum((p.entries[i][k] * vec[k] for k in range(len(vec))), TorusElement.zero(p.theta))
        for i in range(len(vec))
    ]


def sampled_compatibility_deviation(c, samples=30, seed=0):
    """Worst l1 deviation of <xi, nabla_j eta> + (nabla_j xi)* eta - delta_j <xi, eta>
    over random module elements xi, eta, computed term by term."""
    gen = sampling.rng(seed)
    worst = 0.0
    for _ in range(samples):
        xi = _project_vec(c.proj, sampling.random_vector(c.theta, c.q, gen))
        eta = _project_vec(c.proj, sampling.random_vector(c.theta, c.q, gen))
        base = _vec_inner(xi, eta)
        for j in range(1, c.n + 1):
            lhs = _vec_inner(xi, _apply_nabla(c, j, eta)) + _vec_inner(_apply_nabla(c, j, xi), eta)
            worst = max(worst, (lhs - base.derivation(j)).l1())
    return worst


def corner_connection(p_block, complement_block):
    """p = diag(1, 0) on A_theta^2, A_1 = diag(p_block, complement_block), A_2 = 0."""
    th = theta2()
    z = TorusElement.zero(th)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[1.0, 0.0], [0.0, 0.0]]))
    a1 = TorusMatrix(th, [[p_block, z], [z, complement_block]])
    return Connection(th, 2, [a1, TorusMatrix.zeros(th, 2)], proj)


def _free(skew):
    gen = sampling.rng(22)
    th = sampling.random_theta(2, gen)
    if skew:
        return random_connection(th, 2, gen, radius=1, amplitude=0.5)
    u1 = TorusElement.generator(th, 1)
    return Connection(th, 1, [TorusMatrix(th, [[u1]]), TorusMatrix.zeros(th, 1)])


def _random_corner():
    gen = sampling.rng(25)
    th = sampling.random_theta(2, gen)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[0.5, 0.5], [0.5, 0.5]]))
    return random_connection(th, 2, gen, radius=1, amplitude=0.5, proj=proj)


COMPATIBILITY_CASES = {
    "free-skew": (lambda: _free(True), True),
    "free-nonskew-U1": (lambda: _free(False), False),
    "grassmannian": (lambda: grassmannian_connection(theta2(), [[0.5, 0.5], [0.5, 0.5]]), True),
    "random-with-proj": (_random_corner, True),
    "corner-nonskew-complement": (
        lambda: corner_connection(TorusElement.zero(theta2()), TorusElement.generator(theta2(), 1)),
        True,
    ),
    "corner-nonskew-p-block": (
        lambda: corner_connection(TorusElement.generator(theta2(), 1), TorusElement.zero(theta2())),
        False,
    ),
}


@pytest.mark.parametrize("name", list(COMPATIBILITY_CASES))
def test_compatibility_matches_sampled_identity(name):
    make, compatible = COMPATIBILITY_CASES[name]
    c = make()
    sampled = sampled_compatibility_deviation(c, samples=30, seed=5)
    assert (compatibility_deviation(c) <= compatibility_bound(c)) == (sampled <= COMPAT_TOL) == compatible
    if compatible:
        assert compatibility_deviation(c) < 1e-12
    else:
        assert compatibility_deviation(c) > 1e-3 and sampled > 1e-3


def test_corner_module_ignores_complement_block():
    # U1 on the (1 - p) block acts on no module element: the exact defect is 0,
    # while max_j ||A_j + A_j*||_1 over the whole matrix is 2
    th = theta2()
    c = corner_connection(TorusElement.zero(th), TorusElement.generator(th, 1))
    assert compatibility_deviation(c) == 0.0
    assert sampled_compatibility_deviation(c, samples=10, seed=1) <= COMPAT_TOL
    assert max((a + a.dagger()).l1() for a in c.A) == pytest.approx(2.0)


def test_grassmannian_constant_projection_compatible():
    th = theta2()
    c = grassmannian_connection(th, [[0.5, 0.5], [0.5, 0.5]])
    assert c.proj is not None and c.proj.p.is_constant()
    assert compatibility_deviation(c) <= compatibility_bound(c)
    assert ym_value(c) == 0.0


def test_projection_validation():
    th = theta2()
    bad = TorusMatrix.from_scalar_matrix(th, [[0.5, 0.0], [0.0, 0.3]])
    with pytest.raises(InvalidConnection):
        Projection(bad)
    # non-constant projection within tolerance warns
    eps = 1e-13
    u1 = TorusElement.generator(th, 1)
    perturbed = TorusMatrix(
        th,
        [
            [TorusElement.one(th), TorusElement.zero(th)],
            [TorusElement.zero(th), (u1 + u1.adjoint()).scale(eps)],
        ],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Projection(perturbed)
    assert any("torus-valued" in str(w.message) for w in caught)


def test_module_preservation_enforced():
    th = theta2()
    p = TorusMatrix.from_scalar_matrix(th, [[1.0, 0.0], [0.0, 0.0]])
    proj = Projection(p)
    u1 = TorusElement.generator(th, 1)
    offcorner = TorusMatrix(
        th,
        [
            [TorusElement.zero(th), TorusElement.zero(th)],
            [u1 - u1.adjoint(), TorusElement.zero(th)],
        ],
    )
    with pytest.raises(InvalidConnection):
        Connection(th, 2, [offcorner, TorusMatrix.zeros(th, 2)], proj)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-13])
def test_module_preservation_refused_at_every_scale(s):
    """p = diag(1, 0) and a skew potential whose entry s U^0 below the diagonal
    maps p A^2 entirely out of the module: the defect is all of A p, so the
    connection is refused however small s is."""
    th = theta2()
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[1.0, 0.0], [0.0, 0.0]]))
    leak = TorusMatrix.from_scalar_matrix(th, [[0.0, -s], [s, 0.0]])
    with pytest.raises(InvalidConnection, match="does not preserve the module"):
        Connection(th, 2, [leak, TorusMatrix.zeros(th, 2)], proj)


@pytest.mark.parametrize("amplitude", [1e-13, 1e-6, 1.0, 1e6, 1e100])
@pytest.mark.parametrize("corner", [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]], ids=["diag", "half"])
def test_projected_connection_accepted_at_every_amplitude(corner, amplitude):
    """Potentials compressed by p preserve the module at every amplitude. Below
    1e-14 the coefficient floor would start dropping terms."""
    gen = sampling.rng(25)
    th = sampling.random_theta(2, gen)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, corner))
    c = random_connection(th, 2, gen, radius=1, amplitude=amplitude, proj=proj)
    assert c.proj is proj and not all(a.l1() == 0.0 for a in c.A)


COMPAT_AMPLITUDES = [1e-13, 1e-11, 1e-8, 1e-3, 1.0, 1e3, 1e6, 1e8, 1e50, 1e100]


@pytest.mark.parametrize("amplitude", COMPAT_AMPLITUDES)
@pytest.mark.parametrize("corner", [None, [[0.5, 0.5], [0.5, 0.5]]], ids=["free", "half"])
def test_compatibility_verdict_at_every_amplitude(corner, amplitude):
    """A skew potential is compatible, and one that is not skew is not, at every
    amplitude: against an absolute 1e-10 the skew one read incompatible from
    about 1e6, where its rounding residue passed 1e-10, and 1e-11 U1 read
    compatible. Below about 1e-14 the coefficient floor would start dropping
    terms."""
    th = sampling.random_theta(2, sampling.rng(3))
    proj = None if corner is None else Projection(TorusMatrix.from_scalar_matrix(th, corner))
    skew = random_connection(th, 2, sampling.rng(5), radius=2, amplitude=amplitude, proj=proj)
    assert not all(a.l1() == 0.0 for a in skew.A)
    assert compatibility_deviation(skew) <= compatibility_bound(skew)
    # amplitude U1 on the diagonal: p (A + A*) p = amplitude (U1 + U1*) p, not 0
    u1 = TorusElement.generator(th, 1).scale(amplitude)
    z = TorusElement.zero(th)
    bad = Connection(th, 2, [TorusMatrix(th, [[u1, z], [z, u1]]), TorusMatrix.zeros(th, 2)], proj)
    assert compatibility_deviation(bad) > 0.0
    assert not compatibility_deviation(bad) <= compatibility_bound(bad)


def test_compatibility_bound_is_zero_for_the_flat_connection():
    th = theta2()
    flat = Connection.flat(th, 2)
    assert compatibility_bound(flat) == compatibility_deviation(flat) == 0.0


# -- oracles: sampled directions and central differences ---------------------


def random_perturbation(c, gen, radius=1, terms=3, skew=False):
    """Random unit perturbation of ``c``'s potentials, compressed into its module."""
    comps = []
    for _ in range(c.n):
        rows = [[sampling.random_element(c.theta, gen, radius, terms) for _ in range(c.q)] for _ in range(c.q)]
        m = TorusMatrix(c.theta, rows)
        if skew:
            m = skew_part(m)
        if c.proj is not None:
            m = c.proj.p @ m @ c.proj.p
        comps.append(m)
    return Perturbation(comps).normalized()


def directional_derivative(c, mu, h=1e-4):
    """Central difference (YM(c + h mu) - YM(c - h mu)) / (2h)."""
    return (ym_value(c.perturb(mu, h)) - ym_value(c.perturb(mu, -h))) / (2.0 * h)


def pairing_with_gradient(c, mu):
    """sum_k tau_q(G_k* mu_k), so that dYM(mu) = 2 Re of it."""
    return sum((hs_inner(g, m) for g, m in zip(ym_gradient(c).components, mu.components)), 0j)


def test_directional_derivative_basics():
    th = theta2()
    flat = Connection.flat(th, 1)
    gen = sampling.rng(23)
    mu = random_perturbation(flat, gen)
    assert abs(directional_derivative(flat, mu, h=1e-4)) < 1e-6
    zero = Perturbation([TorusMatrix.zeros(th, 1), TorusMatrix.zeros(th, 1)])
    assert directional_derivative(flat, zero) == 0.0
    with pytest.raises(ShapeMismatch):
        directional_derivative(flat, Perturbation([TorusMatrix.zeros(th, 1)]))


def test_gradient_matches_central_differences():
    gen = sampling.rng(24)
    failures = []
    for n, q in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        th = sampling.random_theta(n, gen)
        c = random_connection(th, q, gen, radius=2, amplitude=0.3)
        for _ in range(5):
            mu = random_perturbation(c, gen)
            fd = directional_derivative(c, mu, h=1e-4)
            analytic = 2.0 * pairing_with_gradient(c, mu).real
            if abs(fd - analytic) > 1e-6 * max(1.0, abs(fd)):
                failures.append((n, q, fd, analytic))
    assert not failures


def _sup_case(n, q):
    gen = sampling.rng(70 + 10 * n + q)
    return random_connection(sampling.random_theta(n, gen), q, gen, radius=2, amplitude=0.3)


SUP_CASES = {
    "n2-q1": lambda: _sup_case(2, 1),
    "n2-q2": lambda: _sup_case(2, 2),
    "n3-q1": lambda: _sup_case(3, 1),
    "corner-constant-proj": _random_corner,
}


@pytest.mark.parametrize("name", sorted(SUP_CASES))
def test_twice_gradient_norm_bounds_sampled_derivatives(name):
    """2 ||G|| (the rule of ``is_critical``) bounds |dYM(mu)| over unit mu, and
    mu = G / ||G|| attains it.  YM is a quartic along a line, so the central
    difference is dYM(mu) plus exactly c3 h^2, c3 the cubic coefficient of
    ``line_quartic``; rounding gets the relative 1e-6 of criterion 04."""
    c = SUP_CASES[name]()
    g = ym_gradient(c)
    sup = 2.0 * g.norm()
    gen = sampling.rng(71)
    h = 1e-4
    directions = [random_perturbation(c, gen) for _ in range(8)] + [g.normalized()]
    for mu in directions:
        fd = directional_derivative(c, mu, h)
        coeffs, _ = line_quartic(c, mu.components)
        slack = abs(coeffs[3]) * h * h + 1e-6 * max(1.0, abs(fd))
        assert abs(fd) <= sup + slack
    assert abs(fd - sup) <= slack  # the last direction, G / ||G||


def test_gradient_zero_cases():
    th = theta2()
    flat = Connection.flat(th, 2)
    assert gradient_norm(flat) == 0.0
    # commuting constant potentials: curvature and gradient vanish
    a1 = TorusMatrix.from_scalar_matrix(th, [[1j, 0.0], [0.0, -0.5j]])
    a2 = TorusMatrix.from_scalar_matrix(th, [[0.25j, 0.0], [0.0, 2j]])
    c = Connection(th, 2, [a1, a2])
    assert all(m.l1() == 0.0 for m in curvature(c).values())
    assert gradient_norm(c) < 1e-14


def test_curvature_skew_for_skew_potentials():
    gen = sampling.rng(29)
    th = sampling.random_theta(3, gen)
    c = random_connection(th, 2, gen, radius=1, amplitude=0.5)
    for _, m in curvature(c).items():
        assert (m + m.dagger()).l1() < 1e-10


def test_gradient_is_skew_for_skew_connection():
    gen = sampling.rng(25)
    th = sampling.random_theta(2, gen)
    c = random_connection(th, 2, gen, radius=1, amplitude=0.4)
    g = ym_gradient(c)
    for m in g.components:
        assert (m + m.dagger()).l1() < 1e-10


def test_is_critical():
    from ncym import DomainError

    th = theta2()
    assert is_critical(Connection.flat(th, 1), tol=1e-8)
    c = example_connection(th)
    assert not is_critical(c, tol=1e-3)
    # the rule is 2 ||G|| <= tol, with equality critical
    sup = 2.0 * gradient_norm(c)
    assert is_critical(c, sup)
    assert not is_critical(c, math.nextafter(sup, 0.0))
    with pytest.raises(DomainError):
        is_critical(c, 0.0)


def test_minimize_flat_immediate():
    th = theta2()
    c, trace = minimize(Connection.flat(th, 1))
    assert trace == [0.0]
    assert ym_value(c) == 0.0


def test_minimize_descends_to_flat():
    gen = sampling.rng(26)
    th = sampling.random_theta(2, gen)
    c0 = random_connection(th, 1, gen, radius=2, amplitude=0.05)
    c, trace = minimize(c0, max_iters=10000, grad_tol=1e-8)
    assert trace[-1] <= 1e-8
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert gradient_norm(c) <= 1e-8


def test_minimize_nonfinite_start_raises():
    from ncym import NonFiniteValue

    th = theta2()
    huge = TorusElement.monomial(th, (1, 0), 1e200)
    c0 = Connection(th, 1, [TorusMatrix.zeros(th, 1), TorusMatrix(th, [[huge - huge.adjoint()]])])
    with pytest.raises(NonFiniteValue):
        minimize(c0, max_iters=3)


def _line_start(n, q):
    gen = sampling.rng(40 + 10 * n + q)
    th = sampling.random_theta(n, gen)
    return random_connection(th, q, gen, radius=1, terms=3, amplitude=0.4)


LINE_CASES = {
    "n2-q1": lambda: _line_start(2, 1),
    "n2-q2": lambda: _line_start(2, 2),
    "n3-q1": lambda: _line_start(3, 1),
    "n3-q2": lambda: _line_start(3, 2),
    "corner-constant-proj": _random_corner,
}
#: fixed before measuring: |quartic(t) - YM(A - t d)| <= QUARTIC_RTOL * sum_k |c_k| max(1, |t|)^4
QUARTIC_RTOL = 1e-12
#: fixed before measuring: ||F0 - t F1 + t^2 F2 - F(A - t d)||_1 per pair, against
#: (||F0||_1 + ||F1||_1 + ||F2||_1) max(1, |t|)^2
LINE_CURVATURE_RTOL = 1e-13


@pytest.mark.parametrize("name", sorted(LINE_CASES))
def test_line_quartic_matches_ym_along_the_line(name):
    """Both the quartic and the curvature F0 - t F1 + t^2 F2 that ``minimize``
    assembles from its terms match a direct evaluation on A - t d."""
    c = LINE_CASES[name]()
    d = random_perturbation(c, sampling.rng(41), radius=2, terms=3, skew=True).components
    coeffs, terms = line_quartic(c, d)
    assert coeffs[4] > 0.0  # the directions do not commute: F2 is present
    f0s = curvature(c)
    assert list(terms) == list(f0s)
    scale = sum(abs(x) for x in coeffs)
    for t in (-1.0, -0.5, 0.25, 0.5, 1.0, 1.5, 2.0):
        line = Connection(c.theta, c.q, [a - m.scale(t) for a, m in zip(c.A, d)], c.proj)
        quartic = sum(x * t**k for k, x in enumerate(coeffs))
        assert abs(quartic - ym_value(line)) <= QUARTIC_RTOL * scale * max(1.0, abs(t)) ** 4
        for key, direct in curvature(line).items():
            f0, (f1, f2) = f0s[key], terms[key]
            assembled = f0 - f1.scale(t) + f2.scale(t * t)
            bound = LINE_CURVATURE_RTOL * (f0.l1() + f1.l1() + f2.l1()) * max(1.0, abs(t)) ** 2
            assert (assembled - direct).l1() <= bound


def _descent_start(seed):
    gen = sampling.rng(seed)
    th = sampling.random_theta(2, gen)
    return random_connection(th, 1, gen, radius=2, amplitude=0.05)


@pytest.mark.parametrize(
    "seed, options, reason",
    [
        (5000, {}, "converged"),  # a criterion-05 start
        (26, {"max_iters": 1}, "max_iters"),
        # past convergence the preconditioned direction falls below the coefficient floor
        (26, {"grad_tol": 1e-300}, "no_decrease"),
    ],
    ids=["converged", "max_iters", "no_decrease"],
)
def test_minimize_stop_reasons(seed, options, reason):
    c, trace = minimize(_descent_start(seed), **options)
    assert trace.reason == reason
    assert trace[-1] == ym_value(c)
    # the returned memo is the curvature of the potentials, not one assembled on the line
    direct = curvature(Connection(c.theta, c.q, c.A, c.proj))
    assert all((curvature(c)[key] - m).l1() == 0.0 for key, m in direct.items())
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert len(trace.steps) == len(trace) - 1 and all(t > 0 for t in trace.steps)
    norms = trace.gradient_norms
    grad_tol = options.get("grad_tol", 1e-8)
    assert len(norms) == len(trace)
    assert norms[-1] == pytest.approx(gradient_norm(c), rel=1e-12)
    assert all(gn > grad_tol for gn in norms[:-1])
    assert (norms[-1] <= grad_tol) == (reason == "converged")
    if reason == "no_decrease":
        assert trace[-1] <= 1e-20


def _config_start(name):
    return _parsed_start((CONFIGS / name).read_text())


def _parsed_start(text):
    spec = cfg.parse(text).spec
    return cli._connection(spec.module), {k: v for k, v in vars(spec).items() if k != "module"}


DESCENT_CASES = {
    "config-minimize": lambda: _config_start("torus_minimize.json"),
    "config-minimize-projected": lambda: _config_start("torus_minimize_projected.json"),
    "criterion-05": lambda: (_descent_start(5000), {}),
    # 28 steps: the longest descent here, so the most accumulated rounding
    "q2-rng3": lambda: (
        random_connection(theta2(0.3), 2, sampling.rng(3), radius=1, terms=2, amplitude=0.05),
        {},
    ),
}
#: fixed before measuring: l1 distance of an installed curvature from the direct
#: one, summed over pairs, against the starting curvature's l1 norm
ASSEMBLED_CURVATURE_RTOL = 1e-11


@pytest.mark.parametrize("name", sorted(DESCENT_CASES))
def test_assembled_curvature_matches_direct_at_every_iterate(name, monkeypatch):
    """Each candidate's curvature, installed from the line-search terms and
    carried on as the next F0, stays within a fixed bound of ``curvature`` of
    a fresh connection on the same potentials.  The returned connection keeps
    its own curvature, its YM is the trace's last value, and its gradient
    norm, the last one recorded, meets ``grad_tol``: the ``converged`` verdict
    does not rest on an assembled curvature."""
    c0, options = DESCENT_CASES[name]()
    installed = []
    real = yangmills.ym_value

    def spy(c):
        if c is not c0 and c._curvature is not None:
            installed.append((c.A, c._curvature))
        return real(c)

    monkeypatch.setattr(yangmills, "ym_value", spy)
    c, trace = minimize(c0, **options)
    monkeypatch.undo()
    assert trace.reason == "converged" and installed
    ref = sum(m.l1() for m in curvature(c0).values())
    for potentials, assembled in installed:
        direct = curvature(Connection(c0.theta, c0.q, potentials, c0.proj))
        assert list(assembled) == list(direct)
        distance = sum((assembled[key] - direct[key]).l1() for key in direct)
        assert distance <= ASSEMBLED_CURVATURE_RTOL * ref
    fresh = Connection(c.theta, c.q, c.A, c.proj)
    fresh._skew = c._skew  # the skew proof minimize wrote on c: the same commutator path
    assert all((curvature(c)[key] - m).l1() == 0.0 for key, m in curvature(fresh).items())
    assert trace[-1] == ym_value(fresh)
    assert trace.gradient_norms[-1] == gradient_norm(fresh) <= options.get("grad_tol", 1e-8)


#: a start whose potentials are not skew: A_1 holds U_1 with a real coefficient
NON_SKEW_START = json.dumps(
    {
        "kind": "torus_minimize",
        "payload": {
            "theta": {"n": 2, "entries": [0.0, 0.3, -0.3, 0.0]},
            "q": 1,
            "connection": {
                "A": [
                    {"q": 1, "entries": [[{"r": [1, 0], "re": 0.1, "im": 0.0}, {"r": [0, 1], "re": 0.0, "im": 0.05}]]},
                    {"q": 1, "entries": [[{"r": [1, 1], "re": 0.08, "im": 0.02}, {"r": [-1, 0], "re": -0.03, "im": 0.0}]]},
                ]
            },
        },
    }
)


def test_non_skew_start_descends_as_with_direct_curvatures(monkeypatch):
    """F0 - t F1 + t^2 F2 is the curvature of A - t d, not of the candidate
    skew_part(A - t d) when A is not skew: from such a start the descent
    matches one in which every candidate's curvature is computed from its
    potentials (bounds fixed before measuring)."""
    c0, options = _parsed_start(NON_SKEW_START)
    assert compatibility_deviation(c0) > 0.1
    c, trace = minimize(c0, **options)
    real = yangmills.ym_value
    monkeypatch.setattr(yangmills, "ym_value", lambda c: setattr(c, "_curvature", None) or real(c))
    _, direct = minimize(_parsed_start(NON_SKEW_START)[0], **options)
    monkeypatch.undo()
    assert (trace.reason, len(trace)) == (direct.reason, len(direct)) == ("converged", 7)
    assert all(abs(a - b) <= 1e-12 * direct[0] for a, b in zip(trace, direct))
    assert all(abs(a - b) <= 1e-6 * b for a, b in zip(trace.steps, direct.steps))
    scale = direct.gradient_norms[0]
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(trace.gradient_norms, direct.gradient_norms))


def test_minimize_takes_candidate_curvature_from_the_line_terms(monkeypatch):
    """A converged k-step descent on a free module makes 2k + 3 ``signed_sums``
    calls: the start's curvature, a gradient and a quartic per step, the
    curvature of the last candidate, the one the gradient norms' rate of fall
    marks as the last, and its gradient, on which ``converged`` is decided;
    the other candidates' curvatures cost none.  ``ym_value`` is still called
    once at the start and once per candidate."""
    c0 = _descent_start(5000)
    calls = []
    real_sums, real_ym = yangmills.signed_sums, yangmills.ym_value
    monkeypatch.setattr(
        yangmills, "signed_sums", lambda entries, **kw: calls.append(len(entries)) or real_sums(entries, **kw)
    )
    evaluated = []
    monkeypatch.setattr(yangmills, "ym_value", lambda c: evaluated.append(c) or real_ym(c))
    _, trace = minimize(c0)
    k = len(trace.steps)
    assert trace.reason == "converged" and k >= 3
    assert len(calls) == 2 * k + 3
    assert len(evaluated) == k + 1 and evaluated[0] is c0
    assert len({id(c) for c in evaluated}) == k + 1


def test_minimize_quartic_overflow_raises():
    from ncym import NonFiniteValue

    gen = sampling.rng(3)
    th = sampling.random_theta(2, gen)
    c0 = random_connection(th, 1, gen, radius=1, amplitude=1e60)
    assert math.isfinite(ym_value(c0))
    with pytest.raises(NonFiniteValue) as info:
        minimize(c0)
    assert info.value.iteration == 0


def test_minimize_logs_each_iteration_at_debug(caplog):
    c0 = _descent_start(26)
    minimize(c0, max_iters=3)
    assert [r for r in caplog.records if r.name.startswith("ncym")] == []
    with caplog.at_level(logging.DEBUG, logger="ncym"):
        _, trace = minimize(c0, max_iters=3)
    records = [r for r in caplog.records if r.name == "ncym.yangmills"]
    assert all(r.levelno == logging.DEBUG for r in records)
    assert len(records) == len(trace.steps) + 1 == 4
    for r, t in zip(records, trace.steps):
        assert "gradient norm" in r.getMessage() and f"step {t:.6e}" in r.getMessage()
    assert "stopped: max_iters after 3 steps" in records[-1].getMessage()


#: the relative residue that proves a potential skew
SKEW_BOUND = SKEW_ULPS * sys.float_info.epsilon


@pytest.mark.parametrize("s", [1e-13, 1e-14])
def test_a_hermitian_part_reads_not_skew_at_every_scale(s):
    """theta = 0.3, A_1 = A_2 = s (U^(1,0) - 1.05 U^(-1,0)): A + A* holds
    -0.05 s at (1, 0) and (-1, 0), 1/21 of max |A| at every s.  At s = 1e-14
    that is 5e-16 per coefficient, under ``CANONICAL_EPS``, where the trimmed
    sum a + a* is zero; the relative test reads not skew at both scales, and
    ``minimize`` writes that on the start."""
    th = theta2(0.3)
    a = TorusMatrix(th, [[TorusElement(th, {(1, 0): s, (-1, 0): -1.05 * s})]])
    assert _relative_skew_residue(a) == pytest.approx(0.05 / 1.05, rel=1e-12)
    c0 = Connection(th, 1, [a, a])
    minimize(c0, max_iters=0)
    assert c0._skew is False


def test_library_made_potentials_are_proved_skew_with_margin():
    """200 ``random_connection`` draws, q = 1 and 2 on n = 2 and 3: every
    potential's support is symmetric and its relative residue at most half
    the bound."""
    for (q, n), k in itertools.product(itertools.product((1, 2), (2, 3)), range(50)):
        gen = sampling.rng(1000 * q + 100 * n + k)
        c = random_connection(sampling.random_theta(n, gen), q, gen, radius=2, amplitude=0.1)
        assert all(_relative_skew_residue(a) <= 0.5 * SKEW_BOUND for a in c.A)


def test_one_side_descent_matches_the_full_commutators(monkeypatch):
    """A start proved skew descends on the one-side box commutators; with the
    flag withheld from ``signed_sums`` every commutator takes the full kernel.
    The two descents agree within the bounds of
    ``test_non_skew_start_descends_as_with_direct_curvatures``."""
    one_side, real_box = [], torus._minus_adjoint_box
    monkeypatch.setattr(torus, "_minus_adjoint_box", lambda th, x: one_side.append(1) or real_box(th, x))
    c0 = _descent_start(5000)
    c, trace = minimize(c0)
    assert c0._skew and c._skew and one_side
    flags, real = [], yangmills.signed_sums
    monkeypatch.setattr(
        yangmills, "signed_sums", lambda entries, _skew=False: flags.append(_skew) or real(entries)
    )
    one_side.clear()
    _, full = minimize(_descent_start(5000))
    assert any(flags) and not one_side
    monkeypatch.undo()
    assert (trace.reason, len(trace)) == (full.reason, len(full)) == ("converged", len(trace))
    assert all(abs(a - b) <= 1e-12 * full[0] for a, b in zip(trace, full))
    assert all(abs(a - b) <= 1e-6 * b for a, b in zip(trace.steps, full.steps))
    scale = full.gradient_norms[0]
    assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(trace.gradient_norms, full.gradient_norms))


def _projected_random_start():
    th = theta2(0.3)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[0.5, -0.5j], [0.5j, 0.5]]))
    return random_connection(th, 2, sampling.rng(12), radius=1, amplitude=0.2, proj=proj), {"max_iters": 20}


def _uncompressed_start():
    """A skew start on the corner of p = diag(1, 0) that keeps the module but
    is not p-compressed: its (2, 2) entry is nonzero."""
    th = theta2(0.3)
    proj = Projection(TorusMatrix.from_scalar_matrix(th, [[1.0, 0.0], [0.0, 0.0]]))
    gen = sampling.rng(13)
    x, y = (m - m.adjoint() for m in (sampling.random_element(th, gen, 1, 4, 0.2) for _ in "xy"))
    z = TorusElement.zero(th)
    a1 = TorusMatrix(th, [[x, z], [z, y]])
    return Connection(th, 2, [a1, TorusMatrix.zeros(th, 2)], proj), {"max_iters": 5}


@pytest.mark.parametrize(
    "start, compressed",
    [
        (lambda: _config_start("torus_minimize_projected.json"), True),
        (_projected_random_start, True),
        (_uncompressed_start, False),
    ],
    ids=["config", "random", "not-compressed"],
)
def test_candidates_are_validated_only_when_not_proved_compressed(start, compressed, monkeypatch):
    """With a constant p and a p-compressed start, every candidate is
    p-compressed: ``minimize`` builds them without ``Connection._validate``,
    which would have passed on each.  A start that is not p-compressed has
    every candidate validated."""
    c0, options = start()
    validated, real_validate = [], Connection._validate
    monkeypatch.setattr(Connection, "_validate", lambda c: validated.append(c) or real_validate(c))
    made, real_compressed = [], Connection._compressed
    monkeypatch.setattr(
        Connection, "_compressed", lambda c, A: made.append(real_compressed(c, A)) or made[-1]
    )
    _, trace = minimize(c0, **options)
    monkeypatch.undo()
    assert len(trace.steps) >= 1
    if compressed:
        assert validated == [] and len(made) >= len(trace.steps)
        for cand in made:
            real_validate(cand)
    else:
        assert made == [] and len(validated) >= len(trace.steps)


def test_minimize_stop_line_says_whether_the_start_was_proved_skew(caplog):
    """The DEBUG stop line names the commutator path: whether the start was
    proved skew, and its relative residue."""
    with caplog.at_level(logging.DEBUG, logger="ncym"):
        minimize(_descent_start(26), max_iters=1)
        minimize(_parsed_start(NON_SKEW_START)[0], max_iters=1)
    stops = [r.getMessage() for r in caplog.records if "minimize stopped" in r.getMessage()]
    assert len(stops) == 2
    assert "; start proved skew, relative residue " in stops[0]
    assert "; start not proved skew, relative residue " in stops[1]
    residues = [float(line.rsplit(" ", 1)[1]) for line in stops]
    assert residues[0] <= SKEW_BOUND < residues[1]


def test_degenerate_one_torus():
    th = ThetaMatrix.zeros(1)
    u = TorusElement.generator(th, 1)
    c = Connection(th, 1, [TorusMatrix(th, [[u - u.adjoint()]])])
    assert curvature(c) == {}
    assert ym_value(c) == 0.0
    assert gradient_norm(c) == 0.0
    _, trace = minimize(c)
    assert trace == [0.0]
