"""Algebra laws of the twisted Fourier arithmetic, against independent oracles."""

import cmath
import concurrent.futures
import itertools
import math
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncym import (
    CANONICAL_EPS,
    IndexOutOfRange,
    ThetaMatrix,
    ThetaMismatch,
    TorusElement,
    curvature,
    product_theta,
    random_connection,
    tensor_embed,
    ym_gradient,
)
from ncym import sampling, torus, yangmills
from ncym.torus import signed_sums
from ncym.yangmills import TorusMatrix, _inverse_laplacian, _matrix_sums, _skew_parts, line_quartic, skew_part

COEFF_TOL = 1e-12


def cocycle_exponent(theta, r, s):
    """sum_{m<k} Theta[m][k] r_k s_m, term by term from ``theta.entries``.

    The scalar form of the cocycle exponent: the oracle for the library's
    array form w . s with w = r P, with which it shares no code.
    """
    x = 0.0
    for k in range(theta.n):
        for m in range(k):
            x += theta.entries[m][k] * r[k] * s[m]
    return x


def phase(x):
    """e(x) = exp(2*pi*i*x), with x reduced mod 1 first."""
    return cmath.exp(2j * math.pi * (x % 1.0))


def coeff_distance(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    return max((abs(a.coeffs.get(k, 0j) - b.coeffs.get(k, 0j)) for k in keys), default=0.0)


def word_reorder_oracle(theta, r, s):
    """Multiply U^r U^s one generator swap at a time, using only the defining relation.

    Returns (multi-index, phase); independent of the closed-form cocycle.
    """
    word = []
    for idx in (r, s):
        for j, e in enumerate(idx):
            word.extend([(j, 1 if e > 0 else -1)] * abs(e))
    exponent = 0.0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (k, a), (m, b) = word[i], word[i + 1]
            if k > m:
                # U_k^a U_m^b = e(Theta_mk * a * b) U_m^b U_k^a
                exponent += theta.entries[m][k] * a * b
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    out = [0] * theta.n
    for j, a in word:
        out[j] += a
    return tuple(out), cmath.exp(2j * math.pi * exponent)


@pytest.fixture
def theta2():
    return ThetaMatrix([[0.0, 0.3], [-0.3, 0.0]])


def test_theta_validation():
    with pytest.raises(ValueError):
        ThetaMatrix([[0.1, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        ThetaMatrix([[0.0, 0.2], [0.2, 0.0]])
    t = ThetaMatrix([[0.0, -0.0], [0.0, 0.0]])
    assert t.entries[0][1] == 0.0
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ThetaMatrix([[0.0, bad], [-bad, 0.0]])


def test_defining_relation(theta2):
    u1 = TorusElement.generator(theta2, 1)
    u2 = TorusElement.generator(theta2, 2)
    lhs = u1 * u2
    rhs = u2 * u1
    assert lhs.coeffs[(1, 1)] == pytest.approx(1.0)
    # U_k U_m = e(Theta_mk) U_m U_k with (k, m) = (1, 2): ratio is e(Theta_21) inverse
    ratio = lhs.coeffs[(1, 1)] / rhs.coeffs[(1, 1)]
    assert abs(ratio - cmath.exp(2j * math.pi * theta2.entries[1][0])) < COEFF_TOL


def test_unit_element(theta2):
    one = TorusElement.one(theta2)
    gen = sampling.rng(0)
    for _ in range(20):
        a = sampling.random_element(theta2, gen, radius=3)
        assert coeff_distance(one * a, a) == 0.0
        assert coeff_distance(a * one, a) == 0.0


@pytest.mark.parametrize("n,seed", [(2, 1), (3, 2)])
def test_product_matches_word_oracle(n, seed):
    gen = sampling.rng(seed)
    theta = sampling.random_theta(n, gen)
    for _ in range(60):
        r = tuple(int(x) for x in gen.integers(-3, 4, size=n))
        s = tuple(int(x) for x in gen.integers(-3, 4, size=n))
        prod = TorusElement.monomial(theta, r) * TorusElement.monomial(theta, s)
        key, phase = word_reorder_oracle(theta, r, s)
        assert set(prod.coeffs) == {key}
        assert abs(prod.coeffs[key] - phase) < COEFF_TOL


def test_cocycle_identity():
    # sigma(r,s) sigma(r+s,t) = sigma(s,t) sigma(r,s+t): associativity at phase level
    gen = sampling.rng(4)
    theta = sampling.random_theta(3, gen)
    for _ in range(200):
        r, s, t = (tuple(int(x) for x in gen.integers(-4, 5, size=3)) for _ in range(3))
        lhs = cocycle_exponent(theta, r, s) + cocycle_exponent(theta, tuple(a + b for a, b in zip(r, s)), t)
        rhs = cocycle_exponent(theta, s, t) + cocycle_exponent(theta, r, tuple(a + b for a, b in zip(s, t)))
        assert abs(lhs - rhs) < 1e-10


def test_adjoint_matches_word_oracle():
    gen = sampling.rng(5)
    theta = sampling.random_theta(3, gen)
    for _ in range(40):
        r = tuple(int(x) for x in gen.integers(-3, 4, size=3))
        star = TorusElement.monomial(theta, r).adjoint()
        # (U^r)* is the reversed word of inverses; sort it ascending from scratch
        word = []
        for j in range(2, -1, -1):
            e = r[j]
            word.extend([(j, -1 if e > 0 else 1)] * abs(e))
        exponent = 0.0
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                (k, a), (m, b) = word[i], word[i + 1]
                if k > m:
                    exponent += theta.entries[m][k] * a * b
                    word[i], word[i + 1] = word[i + 1], word[i]
                    changed = True
        expected = cmath.exp(2j * math.pi * exponent)
        key = tuple(-x for x in r)
        assert set(star.coeffs) == {key}
        assert abs(star.coeffs[key] - expected) < COEFF_TOL


def test_monomial_unitarity(theta2):
    for r in [(1, 0), (2, -1), (0, 3), (-2, -2), (5, 5), (-5, 4)]:
        u = TorusElement.monomial(theta2, r)
        left = u.adjoint() * u
        right = u * u.adjoint()
        one = TorusElement.one(theta2)
        assert coeff_distance(left, one) < COEFF_TOL
        assert coeff_distance(right, one) < COEFF_TOL


@pytest.mark.parametrize("n,seed", [(2, 10), (3, 11)])
def test_associativity_sweep(n, seed):
    gen = sampling.rng(seed)
    theta = sampling.random_theta(n, gen)
    for _ in range(100):
        a = sampling.random_element(theta, gen, radius=3, terms=4)
        b = sampling.random_element(theta, gen, radius=3, terms=4)
        c = sampling.random_element(theta, gen, radius=3, terms=4)
        assert coeff_distance((a * b) * c, a * (b * c)) < COEFF_TOL


def test_involution_antimultiplicative():
    gen = sampling.rng(12)
    theta = sampling.random_theta(2, gen)
    for _ in range(100):
        a = sampling.random_element(theta, gen, radius=3, terms=4)
        b = sampling.random_element(theta, gen, radius=3, terms=4)
        assert coeff_distance((a * b).adjoint(), b.adjoint() * a.adjoint()) < COEFF_TOL
    one = TorusElement.one(theta)
    assert coeff_distance(one.adjoint(), one) == 0.0


def test_trace_properties():
    gen = sampling.rng(13)
    theta = sampling.random_theta(2, gen)
    assert TorusElement.one(theta).trace() == 1.0
    assert TorusElement.generator(theta, 1).trace() == 0.0
    for _ in range(100):
        a = sampling.random_element(theta, gen, radius=3, terms=4)
        b = sampling.random_element(theta, gen, radius=3, terms=4)
        assert abs((a * b).trace() - (b * a).trace()) < COEFF_TOL
        positive = (a.adjoint() * a).trace()
        assert abs(positive - sum(abs(c) ** 2 for c in a.coeffs.values())) < COEFF_TOL
        assert positive.real >= 0.0


def test_derivation_properties(theta2):
    u1 = TorusElement.generator(theta2, 1)
    d = u1.derivation(1)
    assert coeff_distance(d, u1.scale(2j * math.pi)) < COEFF_TOL
    assert TorusElement.one(theta2).derivation(2).coeffs == {}
    gen = sampling.rng(14)
    for _ in range(100):
        a = sampling.random_element(theta2, gen, radius=3, terms=4)
        b = sampling.random_element(theta2, gen, radius=3, terms=4)
        for j in (1, 2):
            lhs = (a * b).derivation(j)
            rhs = a.derivation(j) * b + a * b.derivation(j)
            assert coeff_distance(lhs, rhs) < COEFF_TOL
    with pytest.raises(IndexOutOfRange):
        u1.derivation(3)
    with pytest.raises(IndexOutOfRange):
        u1.derivation(0)


def test_theta_zero_commutative():
    theta = ThetaMatrix.zeros(3)
    gen = sampling.rng(15)
    for _ in range(30):
        a = sampling.random_element(theta, gen, radius=2, terms=4)
        b = sampling.random_element(theta, gen, radius=2, terms=4)
        assert coeff_distance(a * b, b * a) == 0.0


def test_theta_mismatch_raises(theta2):
    other = ThetaMatrix([[0.0, 0.4], [-0.4, 0.0]])
    with pytest.raises(ThetaMismatch):
        TorusElement.one(theta2) * TorusElement.one(other)


def test_canonical_form_drops_tiny(theta2):
    a = TorusElement(theta2, {(0, 0): 1.0, (1, 0): 0.5 * CANONICAL_EPS})
    assert set(a.coeffs) == {(0, 0)}
    b = TorusElement.monomial(theta2, (1, 1), 1.0)
    assert (b - b).coeffs == {}
    # a scale drops what it pushes under the floor and keeps NaN, as the constructor does
    c = TorusElement(theta2, {(0, 0): 1.0, (1, 0): 1e-3, (0, 1): complex(math.nan, 0.0)})
    assert set(c.scale(1e-13).coeffs) == {(0, 0), (0, 1)}


def test_product_theta_and_embedding():
    z2 = ThetaMatrix.zeros(2)
    assert product_theta(z2, z2).entries == ThetaMatrix.zeros(4).entries
    gen = sampling.rng(16)
    theta = sampling.random_theta(2, gen)
    phi = sampling.random_theta(2, gen)
    psi = product_theta(theta, phi)
    # block-diagonal skew
    ThetaMatrix(psi.entries)
    for j in range(2):
        for k in range(2):
            assert psi.entries[j][k] == theta.entries[j][k]
            assert psi.entries[2 + j][2 + k] == phi.entries[j][k]
            assert psi.entries[j][2 + k] == 0.0
    # embedded generators of the two factors commute exactly
    u = tensor_embed(TorusElement.generator(theta, 1), TorusElement.one(phi))
    v = tensor_embed(TorusElement.one(theta), TorusElement.generator(phi, 2))
    assert coeff_distance(u * v, v * u) == 0.0


def test_tensor_embed_homomorphism():
    gen = sampling.rng(17)
    theta = sampling.random_theta(2, gen)
    phi = sampling.random_theta(2, gen)
    one = tensor_embed(TorusElement.one(theta), TorusElement.one(phi))
    assert coeff_distance(one, TorusElement.one(product_theta(theta, phi))) == 0.0
    for _ in range(100):
        a = sampling.random_element(theta, gen, radius=2, terms=3)
        a2 = sampling.random_element(theta, gen, radius=2, terms=3)
        b = sampling.random_element(phi, gen, radius=2, terms=3)
        b2 = sampling.random_element(phi, gen, radius=2, terms=3)
        lhs = tensor_embed(a * a2, b * b2)
        rhs = tensor_embed(a, b) * tensor_embed(a2, b2)
        assert coeff_distance(lhs, rhs) < COEFF_TOL
        assert abs(tensor_embed(a, b).trace() - a.trace() * b.trace()) < COEFF_TOL


# -- array kernels against the dict loop ------------------------------------


def star_product_loop(a, b):
    """Pair-by-pair dict loop: the reference for the library's star-product kernels."""
    th = a.theta
    out = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            key = tuple(ri + si for ri, si in zip(r, s))
            out[key] = out.get(key, 0j) + ar * bs * phase(cocycle_exponent(th, r, s))
    return TorusElement(th, out)


def adjoint_loop(a):
    """Term-by-term involution: the reference for ``TorusElement.adjoint``."""
    th = a.theta
    return TorusElement(
        th, {tuple(-x for x in r): c.conjugate() * phase(cocycle_exponent(th, r, r)) for r, c in a.coeffs.items()}
    )


def kernel_tolerance(a, b):
    """Rounding bound, fixed from float64, for two evaluations of a * b.

    1e-13 is about 450 ulp per unit of |a|_1 |b|_1; each phase e(x) also carries
    an error of order ulp(x), and |x| <= X = sum |theta| max|r| max|s|.
    """
    th = a.theta
    theta_l1 = sum(abs(v) for row in th.entries for v in row) / 2
    r_max = max((abs(x) for r in a.coeffs for x in r), default=0)
    s_max = max((abs(x) for s in b.coeffs for x in s), default=0)
    return 1e-13 * (1.0 + theta_l1 * r_max * s_max) * a.l1() * b.l1()


def adjoint_tolerance(a):
    """``kernel_tolerance`` for the involution: one phase per term, |x| <= sum |theta| max|r|^2."""
    theta_l1 = sum(abs(v) for row in a.theta.entries for v in row) / 2
    r_max = max((abs(x) for r in a.coeffs for x in r), default=0)
    return 1e-13 * (1.0 + theta_l1 * r_max * r_max) * a.l1()


def draw_theta(draw):
    """A skew theta with n in 1..4: zero, random, or block diagonal as on a product torus."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero", "random", "product"] if n > 1 else ["zero", "random"]))

    def skew(k):
        entry = st.floats(-1.0, 1.0, allow_nan=False)
        upper = [[draw(entry) if l > j else 0.0 for l in range(k)] for j in range(k)]
        return ThetaMatrix([[upper[j][l] - upper[l][j] for l in range(k)] for j in range(k)])

    if kind == "zero":
        return ThetaMatrix.zeros(n)
    if kind == "product":
        first = draw(st.integers(1, n - 1))
        return product_theta(skew(first), skew(n - first))
    return skew(n)


def draw_element(draw, theta):
    """Up to 40 terms, dense or wide support."""
    radius = draw(st.sampled_from([1, 2, 3, 12, 60]))
    index = st.tuples(*[st.integers(-radius, radius)] * theta.n)
    keys = draw(st.lists(index, max_size=40, unique=True))
    values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    return TorusElement(theta, {k: draw(values) for k in keys})


@st.composite
def operand_pairs(draw):
    """(a, b) over one theta from ``draw_theta``."""
    theta = draw_theta(draw)
    return draw_element(draw, theta), draw_element(draw, theta)


@st.composite
def operands(draw):
    return draw_element(draw, draw_theta(draw))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_adjoint_matches_term_loop(a):
    ref = adjoint_loop(a)
    star = a.adjoint()
    assert coeff_distance(star, ref) <= adjoint_tolerance(a)
    if not any(v for row in a.theta.entries for v in row):
        # every phase is e(0) = 1: the same arithmetic as the loop
        assert star.coeffs == ref.coeffs


def test_nan_coefficient_survives_adjoint(theta2):
    gen = sampling.rng(22)
    a = disc(theta2, 2, gen)
    a = TorusElement(theta2, {**a.coeffs, (1, -1): complex(math.nan, 0.0), (0, 2): complex(0.0, math.nan)})
    star, ref = a.adjoint(), adjoint_loop(a)
    assert set(star.coeffs) == set(ref.coeffs)
    nan_keys = {r for r, c in star.coeffs.items() if cmath.isnan(c)}
    assert nan_keys == {(-1, 1), (0, -2)}
    assert nan_keys == {r for r, c in ref.coeffs.items() if cmath.isnan(c)}


def test_adjoint_of_index_past_int64_raises(theta2):
    top = 2**63 - 1
    a = TorusElement(theta2, {(top, 0): 1.0, (-top, 1): 2.0})
    assert set(a.adjoint().coeffs) == {(-top, 0), (top, -1)}
    # an index past int64 cannot reach the adjoint: it is refused at construction
    for r in [(2**63, 0), (0, -(2**63))]:
        with pytest.raises(IndexOutOfRange, match="exceeds"):
            TorusElement.monomial(theta2, r)


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_array_kernels_match_dict_loop(pair):
    a, b = pair
    ref = star_product_loop(a, b)
    tol = kernel_tolerance(a, b)
    assert coeff_distance(a * b, ref) <= tol
    if a.coeffs and b.coeffs:
        ra, rb = a.indices, b.indices
        # both kernels run on every pair here, whatever a * b would choose
        with mock.patch.object(torus, "_takes_box", lambda *ops: None):
            pairs = a * b
        assert coeff_distance(pairs, ref) <= tol
        if not any(v for row in a.theta.entries for v in row):
            # no phases at theta = 0: the pairwise kernel does the loop's arithmetic
            assert pairs.coeffs == ref.coeffs
        # called directly, the dense box also runs on wide supports, up to a size
        # that keeps its arrays at a few MB: a * b, and the commutator, whose
        # b * a side runs on a's grouping
        bounds = torus._boxes(ra, rb)
        if torus._dense_box_work(len(ra), bounds) <= 10**6:
            swapped = star_product_loop(b, a)
            commutator = [(a, b, 1, -1)]
            for signs, want, bound in [
                ((1, 0), ref, tol),
                ((1, -1), ref - swapped, signed_sum_tolerance(TorusElement.zero(a.theta), commutator)),
            ]:
                assert coeff_distance(box_kernel(a, b, *signs), want) <= bound


def box_cells(th, ops, bounds, s1, s2):
    """(rows, values): the cells of one dense-box kernel call in C order, less those under the drop.

    ``ops`` are (ra, ca, rb, cb) and ``bounds`` their ``_boxes``; the box's
    cell 0 is at lo_a + lo_b.
    """
    box = torus._dense_box_kernel(th, *ops, bounds, s1, s2)
    cells = box.ravel()
    kept = torus._kept(cells)
    lo = np.array([x + y for x, y in zip(bounds[0], bounds[2])], dtype=np.int64)
    return np.stack(np.unravel_index(kept, box.shape), axis=1) + lo, cells.take(kept)


def box_kernel(a, b, s1, s2):
    """s1 a * b + s2 b * a by one call of the dense-box kernel, as an element."""
    ops = a.indices, a.values, b.indices, b.values
    rows, vals = box_cells(a.theta, ops, torus._boxes(a.indices, b.indices), s1, s2)
    return TorusElement._raw(a.theta, rows, vals)


def disc(theta, radius, gen):
    return TorusElement(
        theta,
        {
            (i, j): complex(gen.normal(), gen.normal())
            for i in range(-radius, radius + 1)
            for j in range(-radius, radius + 1)
            if i * i + j * j <= radius * radius
        },
    )


def ball(theta, radius, centre, gen):
    """Random coefficients on the multi-indices within ``radius`` of (centre, ..., centre)."""
    cube = itertools.product(range(-radius, radius + 1), repeat=theta.n)
    inside = [r for r in cube if sum(x * x for x in r) <= radius**2]
    return TorusElement(theta, {tuple(centre + x for x in r): complex(gen.normal(), gen.normal()) for r in inside})


@pytest.mark.parametrize("n,radius", [(2, 3), (3, 2)])
def test_box_kernel_on_far_out_patches(n, radius):
    """Dense patches at the origin and 10**6 out along every axis, both ways,
    in every pairing: the commutator from one kernel call stays within the
    loop's bound.  The b * a side takes r_0 = lo_a0 + i - j with box-relative
    offsets i and j; written with absolute offsets, its phase would be a
    difference of two exponents of order 10**12."""
    gen = sampling.rng(60 + n)
    th = sampling.random_theta(n, gen)
    zero = TorusElement.zero(th)
    patches = [ball(th, radius, centre, gen) for centre in (0, 10**6, -(10**6))]
    for a, b in itertools.product(patches, repeat=2):
        assert torus._takes_box(a.indices, a.values, b.indices, b.values)
        terms = [(a, b, 1, -1)]
        want = literal_signed_sum(zero, terms)
        assert coeff_distance(box_kernel(a, b, 1, -1), want) <= signed_sum_tolerance(zero, terms)


def test_box_kernel_on_a_product_theta():
    """The n = 4 theta of a product torus, the one theta with n > 2 that the
    CLI builds: P's tail column 1 is zero and column 2 is not, so the tail
    phases run on column 2 alone.  Dense cubes at the origin and 10**6 out,
    in every pairing: a * b and the commutator stay within the loop's bound."""
    gen = sampling.rng(65)
    th = product_theta(sampling.random_theta(2, gen), sampling.random_theta(2, gen))
    p = th._pair_mat
    assert not p[:, 1].any() and p[:, 2].any()
    zero = TorusElement.zero(th)
    cube = list(itertools.product(range(-1, 2), repeat=4))
    patches = [
        TorusElement(th, {tuple(centre + x for x in r): complex(gen.normal(), gen.normal()) for r in cube})
        for centre in (0, 10**6)
    ]
    for a, b in itertools.product(patches, repeat=2):
        assert torus._takes_box(a.indices, a.values, b.indices, b.values)
        for signs in [(1, 0), (1, -1)]:
            terms = [(a, b, *signs)]
            want = literal_signed_sum(zero, terms)
            assert coeff_distance(box_kernel(a, b, *signs), want) <= signed_sum_tolerance(zero, terms)


@pytest.mark.parametrize("n,radius", [(2, 4), (3, 2), (4, 1)])
def test_box_commutator_is_exactly_zero_at_theta_zero(n, radius):
    """At theta = 0 every phase is e(0) = 1, and both sides of the commutator
    run on a's grouping with the same arithmetic, so a * b - b * a from one
    kernel call is zero in every cell, not merely small."""
    gen = sampling.rng(66 + n)
    th = ThetaMatrix.zeros(n)
    a, b = (
        TorusElement(th, {r: complex(gen.normal(), gen.normal()) for r in itertools.product(span, repeat=n)})
        for span in (range(-radius, radius + 1), range(0, radius + 2))
    )
    ra, ca, rb, cb = ops = a.indices, a.values, b.indices, b.values
    assert torus._takes_box(*ops)
    box = torus._dense_box_kernel(th, *ops, torus._boxes(ra, rb), 1, -1)
    assert box.shape == (3 * radius + 2,) * n
    assert (box == 0.0).all()


def test_box_kernel_memory_follows_its_work(theta2):
    """The kernel's arrays stay within a fixed multiple of 16 bytes (one
    complex) per unit of ``_dense_box_work``, for one product and for the
    commutator: on two dense discs; on a disc times a one-row strip; and on
    a one-row strip of 81 terms 5 apart times a disc, where a's groups are
    only the tail offsets that hold a term, and b's box shifted to each of
    them spans the output's whole tail."""
    gen = sampling.rng(70)
    strip = TorusElement(theta2, {(0, j): complex(gen.normal(), gen.normal()) for j in range(-300, 301)})
    pairs = [(disc(theta2, 12, gen), disc(theta2, 10, gen)), (disc(theta2, 20, gen), strip)]
    sparse = TorusElement(theta2, {(0, 5 * k): complex(gen.normal(), gen.normal()) for k in range(81)})
    for a, b in pairs + [(sparse, disc(theta2, 10, gen))]:
        ops = a.indices, a.values, b.indices, b.values
        bounds = torus._takes_box(*ops)
        assert bounds
        work = torus._dense_box_work(len(ops[0]), bounds)
        for signs in [(1, 0), (1, -1)]:
            tracemalloc.start()
            try:
                torus._dense_box_kernel(theta2, *ops, bounds, *signs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 16 * work


def refuse(*args):
    raise AssertionError("this kernel must not be chosen here")


def test_dense_operands_take_dense_box(theta2, monkeypatch):
    gen = sampling.rng(19)
    a, b = disc(theta2, 6, gen), disc(theta2, 5, gen)
    monkeypatch.setattr(torus, "_pairwise_kernel", refuse)
    assert coeff_distance(a * b, star_product_loop(a, b)) <= kernel_tolerance(a, b)


def test_far_term_takes_pairwise_kernel_in_bounded_memory(theta2, monkeypatch):
    gen = sampling.rng(20)
    patch = disc(theta2, 4, gen)
    a = patch + TorusElement.monomial(theta2, (0, 10**6), 0.5)
    assert len(a.coeffs) * len(patch.coeffs) > torus._VECTOR_CUTOFF
    monkeypatch.setattr(torus, "_dense_box_kernel", refuse)
    tracemalloc.start()
    try:
        prod = a * patch
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert coeff_distance(prod, star_product_loop(a, patch)) <= kernel_tolerance(a, patch)


@pytest.mark.parametrize("radius", [1, 3])
def test_nan_coefficient_survives_product(theta2, radius, monkeypatch):
    # discs of 5 terms (25 pairs) and of 29 terms (841 pairs, above the cutoff)
    # both take the pairwise kernel; dense operands like these would otherwise
    # take the dense box
    gen = sampling.rng(21)
    a, b = disc(theta2, radius, gen), disc(theta2, radius, gen)
    assert (len(a.coeffs) * len(b.coeffs) > torus._VECTOR_CUTOFF) == (radius == 3)
    monkeypatch.setattr(torus, "_dense_box_kernel", refuse)
    a = TorusElement(theta2, {**a.coeffs, (1, 0): complex(math.nan, 0.0)})
    nan_keys = {r for r, c in (a * b).coeffs.items() if cmath.isnan(c)}
    assert nan_keys
    assert nan_keys == {r for r, c in star_product_loop(a, b).coeffs.items() if cmath.isnan(c)}


#: multi-indices near the int64 limit of the kernels' index arithmetic
BIG = 2**62


@pytest.mark.parametrize("terms", [3, 30], ids=["9-pairs", "900-pairs"])
def test_index_sums_at_the_int64_limit(theta2, terms):
    assert (terms * terms > torus._VECTOR_CUTOFF) == (terms == 30)
    a = TorusElement(theta2, {(BIG - i, 0): float(i + 1) for i in range(terms)})
    # the largest entry of a sum is 2**62 + (2**62 - 1) = 2**63 - 1: still int64
    below = TorusElement(theta2, {(BIG - 1 - i, 0): float(i + 1) for i in range(terms)})
    prod = a * below
    assert max(r[0] for r in prod.coeffs) == 2**63 - 1
    assert prod.coeffs == star_product_loop(a, below).coeffs  # integer sums are exact
    # one more would reach 2**63, which int64 wraps to -2**63
    with pytest.raises(IndexOutOfRange, match="exceed"):
        a * a
    with pytest.raises(IndexOutOfRange, match="exceeds"):
        TorusElement.monomial(theta2, (2**63, 0))


# -- signed sums against the literal sum of loop products -----------------------


def signed_sum(base, terms):
    """The one entry base + sum of s1 a * b + s2 b * a, by ``signed_sums``."""
    (out,) = signed_sums([(base, terms)])
    return out


def signed_products(terms):
    """(a, b, sign) per signed product of the terms (a, b, s1, s2): a * b, then b * a if s2 is nonzero."""
    return [p for a, b, s1, s2 in terms for p in [(a, b, s1)] + ([(b, a, s2)] if s2 else [])]


def literal_signed_sum(base, terms):
    """base + sum of s1 a * b + s2 b * a over (a, b, s1, s2), product by product through the dict loop."""
    out = base
    for a, b, sign in signed_products(terms):
        prod = star_product_loop(a, b)
        out = out - prod if sign < 0 else out + prod
    return out


def signed_sum_tolerance(base, terms):
    """Rounding bound, fixed from float64, for signed_sum against ``literal_signed_sum``.

    ``kernel_tolerance`` for each product; 1e-13 |base|_1, because the pass
    adds each pair to base's coefficient where the literal sum adds whole
    products, and every partial sum is bounded by |base|_1 plus the products'
    |a|_1 |b|_1; and ``CANONICAL_EPS`` per product, because the literal sum
    drops each product's values under it and the pass only those of the sum.
    """
    return 1e-13 * base.l1() + sum(kernel_tolerance(a, b) + CANONICAL_EPS for a, b, _ in signed_products(terms))


#: the signs s1 and s2 of a term s1 a * b + s2 b * a
FIRST_SIGN, SECOND_SIGN = st.sampled_from([-1, 1]), st.sampled_from([-1, 0, 1])


@st.composite
def signed_sum_cases(draw):
    """(base, [(a, b, s1, s2), ...]): one to four terms over the theta of ``operand_pairs``."""
    a, b = draw(operand_pairs())
    theta = a.theta
    terms = [(a, b, draw(FIRST_SIGN), draw(SECOND_SIGN))]
    for _ in range(draw(st.integers(0, 3))):
        terms.append((draw_element(draw, theta), draw_element(draw, theta), draw(FIRST_SIGN), draw(SECOND_SIGN)))
    return draw_element(draw, theta), terms


@settings(max_examples=300, deadline=None)
@given(signed_sum_cases())
def test_signed_sum_matches_literal_sum(case):
    base, terms = case
    got = signed_sum(base, terms)
    assert coeff_distance(got, literal_signed_sum(base, terms)) <= signed_sum_tolerance(base, terms)


def test_base_index_past_int64_raises_at_construction(theta2):
    """Every element holds its indices in int64, a base of a signed sum too:
    one with an entry past +-(2**63 - 1) is refused when it is built."""
    for far in [(2**63, 0), (0, -(2**63))]:
        with pytest.raises(IndexOutOfRange, match="exceeds"):
            TorusElement(theta2, {far: 1.0, (0, 0): 2.0, (1, 0): 3.0})


def count_kernel_calls(monkeypatch):
    """{'pairwise': [products per call], 'box': calls}, filled as the kernels run."""
    calls = {"pairwise": [], "box": 0}
    pairwise, box = torus._pairwise_kernel, torus._dense_box_kernel

    def counted_pairwise(th, products):
        calls["pairwise"].append(len(products))
        return pairwise(th, products)

    def counted_box(*args):
        calls["box"] += 1
        return box(*args)

    monkeypatch.setattr(torus, "_pairwise_kernel", counted_pairwise)
    monkeypatch.setattr(torus, "_dense_box_kernel", counted_box)
    return calls


def test_signed_sum_mixes_box_and_pairwise_products(theta2, monkeypatch):
    gen = sampling.rng(40)
    big, big2 = disc(theta2, 6, gen), disc(theta2, 5, gen)
    small, small2 = disc(theta2, 1, gen), disc(theta2, 2, gen)
    base = disc(theta2, 3, gen)
    empty = TorusElement.zero(theta2)
    terms = [(big, big2, 1, -1), (small, small2, -1, 0), (empty, big, 1, 0), (small2, small, 1, 0)]
    calls = count_kernel_calls(monkeypatch)
    got = signed_sum(base, terms)
    # the two small products in one pass, the commutator of the two large
    # ones in one call of the dense box
    assert calls == {"pairwise": [2], "box": 1}
    assert coeff_distance(got, literal_signed_sum(base, terms)) <= signed_sum_tolerance(base, terms)


def test_signed_sum_of_a_box_commutator_is_one_kernel_call(theta2, monkeypatch):
    gen = sampling.rng(41)
    a, b, base = disc(theta2, 6, gen), disc(theta2, 5, gen), disc(theta2, 2, gen)
    calls = count_kernel_calls(monkeypatch)
    terms = [(a, b, 1, -1)]
    got = signed_sum(base, terms)
    assert calls == {"pairwise": [], "box": 1}
    assert coeff_distance(got, literal_signed_sum(base, terms)) <= signed_sum_tolerance(base, terms)


def test_signed_sum_of_far_apart_box_products_converts_each_box(theta2, monkeypatch):
    """Two commutators whose boxes lie 10**6 apart are two kernel calls, and
    each call's box is read on its own: memory follows the boxes, not the
    10**12 cells of a box around both."""
    gen = sampling.rng(47)
    near = [ball(theta2, 3, 0, gen) for _ in range(2)]
    far = [ball(theta2, 3, 10**6, gen) for _ in range(2)]
    base = disc(theta2, 2, gen)
    terms = [(near[0], near[1], 1, -1), (far[0], far[1], -1, 1)]
    calls = count_kernel_calls(monkeypatch)
    tracemalloc.start()
    try:
        got = signed_sum(base, terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == {"pairwise": [], "box": 2}
    assert peak < 4 * 2**20
    assert coeff_distance(got, literal_signed_sum(base, terms)) <= signed_sum_tolerance(base, terms)


def box_signs(monkeypatch):
    """[(s1, s2) per dense-box kernel call], filled as the kernel runs."""
    signs, box = [], torus._dense_box_kernel

    def recorded(*args):
        signs.append(args[-2:])
        return box(*args)

    monkeypatch.setattr(torus, "_dense_box_kernel", recorded)
    return signs


def test_one_routing_decision_per_commutator_term(theta2, monkeypatch):
    """A commutator term is judged once, on a's grouping.  A one-row strip
    of 40 terms 5 apart times a radius-4 disc is 38 units of box work per
    pair, so both products of the strip's commutator with the disc run
    pairwise; the disc times the strip is 9 per pair, so the disc's
    commutator with the strip is one fused box call."""
    gen = sampling.rng(53)
    strip = TorusElement(theta2, {(0, 5 * k): complex(gen.normal(), gen.normal()) for k in range(40)})
    blob, base = disc(theta2, 4, gen), disc(theta2, 2, gen)
    assert not torus._takes_box(strip.indices, strip.values, blob.indices, blob.values)
    assert torus._takes_box(blob.indices, blob.values, strip.indices, strip.values)
    calls = count_kernel_calls(monkeypatch)
    signs = box_signs(monkeypatch)
    for a, b, pairwise, fused in [(strip, blob, [2], []), (blob, strip, [], [(1, -1)])]:
        calls["pairwise"].clear()
        signs.clear()
        terms = [(a, b, 1, -1)]
        got = signed_sum(base, terms)
        assert calls["pairwise"] == pairwise and signs == fused
        assert coeff_distance(got, literal_signed_sum(base, terms)) <= signed_sum_tolerance(base, terms)


def test_matrix_sum_bits_do_not_depend_on_shared_elements(theta2, monkeypatch):
    """The commutator of q = 2 matrices [[u, v], [v, u]] and [[v, u], [u, v]]
    makes the same kernel calls, and has the same bits, whether the entries
    share two element objects or are equal copies: terms come from matrix
    positions, never from matching operands by identity.  Only the k = i
    products of the two diagonal entries are fused commutators."""
    gen = sampling.rng(54)
    u, v = disc(theta2, 6, gen), disc(theta2, 5, gen)
    calls = count_kernel_calls(monkeypatch)
    signs = box_signs(monkeypatch)
    runs = []
    for same in (True, False):
        el = (lambda e: e) if same else (lambda e: TorusElement(theta2, dict(e.coeffs)))
        x = TorusMatrix(theta2, [[el(u), el(v)], [el(v), el(u)]])
        y = TorusMatrix(theta2, [[el(v), el(u)], [el(u), el(v)]])
        calls["pairwise"].clear()
        signs.clear()
        (got,) = _matrix_sums([(TorusMatrix.zeros(theta2, 2), [(x, y, -1)])])
        runs.append((list(calls["pairwise"]), list(signs), [bits(e) for row in got.entries for e in row]))
    assert runs[0] == runs[1]
    assert [s for s in runs[0][1] if s[1]] == [(1, -1)] * 2


@pytest.mark.parametrize("radius", [1, 6])
def test_signed_sum_of_one_product_is_mul(theta2, radius):
    gen = sampling.rng(42)
    a, b = disc(theta2, radius, gen), disc(theta2, radius, gen)
    zero = TorusElement.zero(theta2)
    assert list(signed_sum(zero, [(a, b, 1, 0)]).coeffs.items()) == list((a * b).coeffs.items())
    assert signed_sum(zero, [(a, b, -1, 0)]).coeffs == (-(a * b)).coeffs


def test_signed_sum_of_no_products_is_base(theta2):
    base = disc(theta2, 2, sampling.rng(43))
    empty = TorusElement.zero(theta2)
    assert signed_sum(base, []) is base
    assert signed_sum(base, [(empty, base, 1, 0), (base, empty, -1, 1)]).coeffs == base.coeffs
    assert signed_sum(empty, []).coeffs == {}


def test_nan_coefficient_survives_signed_sum(theta2):
    gen = sampling.rng(44)
    finite_a, b, c, base = (disc(theta2, 1, gen) for _ in range(4))
    a = TorusElement(theta2, {**finite_a.coeffs, (1, 0): complex(math.nan, 0.0)})
    terms = [(a, b, -1, 0), (c, b, 1, 0)]
    got, ref = signed_sum(base, terms), literal_signed_sum(base, terms)
    assert set(got.coeffs) == set(ref.coeffs)
    nan_keys = {r for r, v in got.coeffs.items() if cmath.isnan(v)}
    assert nan_keys and nan_keys == {r for r, v in ref.coeffs.items() if cmath.isnan(v)}
    finite = [r for r in got.coeffs if r not in nan_keys]
    tol = signed_sum_tolerance(base, [(finite_a, b, -1, 0), (c, b, 1, 0)])
    assert max(abs(got.coeffs[r] - ref.coeffs[r]) for r in finite) <= tol


def test_signed_sum_index_past_int64_raises_as_mul(theta2):
    one = TorusElement.one(theta2)
    a = TorusElement(theta2, {(BIG - i, 0): float(i + 1) for i in range(3)})
    top = TorusElement.monomial(theta2, (2**63 - 1, 0))
    for left, right in [(a, a), (top, TorusElement.generator(theta2, 1))]:
        with pytest.raises(IndexOutOfRange) as via_mul:
            left * right
        with pytest.raises(IndexOutOfRange) as via_sum:
            signed_sum(one, [(one, one, 1, 0), (left, right, -1, 0)])
        assert str(via_sum.value) == str(via_mul.value)


# -- several entries in one pass against the per-entry dict pass ----------------


def dict_pass_signed_sum(base, terms):
    """base + sum of s1 a * b + s2 b * a, summed by a dict pass.

    The pairwise kernel as it was before it grouped pairs by sorting, one
    entry at a time: the pairs of the entry's pairwise products, a term's
    a * b and then its b * a, gathered product by product, are added one by
    one into a copy of base's dict in that order, a key that the dict lacks
    starting from zero; then each dense-box term's cells (``box_cells``), in
    term order, a key that the dict lacks taking its cell as it is.  The
    reference that ``signed_sums`` must match bit for bit, values and key
    order, whatever other entries share its pass.
    """
    th = base.theta
    pairwise, boxed = [], []
    for a, b, s1, s2 in terms:
        if not a.coeffs or not b.coeffs:
            continue
        ops = a.indices, a.values, b.indices, b.values
        bounds = torus._takes_box(*ops)
        if bounds:
            boxed.append((ops, bounds, s1, s2))
        else:
            for x, y, sign in signed_products([(a, b, s1, s2)]):
                pairwise.append((x.indices, -x.values if sign < 0 else x.values, y.indices, y.values))
    coeffs = dict(base.coeffs)
    if pairwise:
        vals, keys = [], []
        w = torus._cocycle_rows(th, np.concatenate([p[0] for p in pairwise]))
        at = 0
        for ra, ca, rb, cb in pairwise:
            wa, at = w[at : at + len(ra)], at + len(ra)
            phases = torus._phases(torus._exponents(wa[:, None, :], rb[None, :, :]))
            vals += torus._cmul(torus._cmul(ca[:, None], cb[None, :]), phases).reshape(-1).tolist()
            keys += map(tuple, (ra[:, None, :] + rb[None, :, :]).reshape(-1, th.n).tolist())
        for key, v in zip(keys, vals):
            coeffs[key] = coeffs.get(key, 0j) + v
    for term in boxed:
        rows, vals = box_cells(th, *term)
        for key, v in zip(map(tuple, rows.tolist()), vals.tolist()):
            coeffs[key] = coeffs[key] + v if key in coeffs else v
    return TorusElement(th, coeffs)


def bits(el):
    """(key, bytes of the coefficient) in sorted key order: equal exactly when the bits are.

    A NaN part reads as NaN, whatever its sign and payload: of two NaNs,
    Python's float add keeps the second and numpy's add the first.
    """
    return [
        (r, tuple("nan" if math.isnan(x) else struct.pack("<d", x) for x in (c.real, c.imag)))
        for r, c in sorted(el.coeffs.items())
    ]


@pytest.mark.parametrize("n,radius", [(2, 3), (3, 1), (4, 1)])
def test_mul_on_the_box_is_the_box_kernel_bit_for_bit(n, radius):
    """A single product that takes the box is the box kernel's one-sided
    output as it is, values and key order: each cell is alone in its group
    of the entry's sum, and a lone value keeps its bits."""
    gen = sampling.rng(49 + n)
    th = sampling.random_theta(n, gen)
    cube = list(itertools.product(range(-radius, radius + 1), repeat=n))
    a, b = (TorusElement(th, {r: complex(gen.normal(), gen.normal()) for r in cube}) for _ in range(2))
    assert torus._takes_box(a.indices, a.values, b.indices, b.values)
    assert bits(a * b) == bits(box_kernel(a, b, 1, 0))


@pytest.mark.parametrize("n", [5, 6])
def test_entry_bits_do_not_depend_on_the_pass(n):
    """An entry has the same bits alone as after another entry in the same
    pass: each term's cocycle row w = r P does not depend on the rows that
    share its array."""
    gen = sampling.rng(50 + n)
    th = sampling.random_theta(n, gen)
    zero = TorusElement.zero(th)
    for _ in range(100):
        a, b, c, d = (sampling.random_element(th, gen, radius=3, terms=t) for t in (1, 4, 3, 4))
        (alone,) = signed_sums([(zero, [(a, b, 1, 0)])])
        _, shared = signed_sums([(zero, [(c, d, 1, 0)]), (zero, [(a, b, 1, 0)])])
        assert bits(alone) == bits(shared)


def far_element(draw, theta):
    """Up to 6 terms with entries up to 2**61: the (entry, key) codes of a pass pass 2**62."""
    index = st.tuples(*[st.integers(-(2**61), 2**61)] * theta.n)
    values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    return TorusElement(theta, {k: draw(values) for k in draw(st.lists(index, max_size=6, unique=True))})


def box_element(draw, theta):
    """Every multi-index of a cube of 27 to 81 terms: products of two take the dense box."""
    radius = {1: 20, 2: 3, 3: 1, 4: 1}[theta.n]
    gen = sampling.rng(draw(st.integers(0, 2**16)))
    cube = itertools.product(range(-radius, radius + 1), repeat=theta.n)
    return TorusElement(theta, {r: complex(gen.normal(), gen.normal()) for r in cube})


@st.composite
def signed_sums_entries(draw):
    """[(base, [(a, b, s1, s2), ...]), ...]: one to five entries over one theta.

    Operands are drawn, empty, far (their codes need the row sort) or dense
    cubes (their products take the box); a drawn one may carry a NaN.  Bases
    are drawn or far, so many of their keys are untouched by the products.
    """
    theta = draw_theta(draw)
    kind = st.sampled_from(["drawn", "drawn", "far", "box"])

    def operand():
        el = {"drawn": draw_element, "far": far_element, "box": box_element}[draw(kind)](draw, theta)
        if el.coeffs and draw(st.integers(0, 9)) == 0:
            el = TorusElement(theta, {**el.coeffs, next(iter(el.coeffs)): complex(math.nan, 1.0)})
        return el

    entries = []
    for _ in range(draw(st.integers(1, 5))):
        base = (far_element if draw(st.booleans()) else draw_element)(draw, theta)
        terms = [(operand(), operand(), draw(FIRST_SIGN), draw(SECOND_SIGN)) for _ in range(draw(st.integers(0, 4)))]
        entries.append((base, terms))
    return entries


#: at theta = 0 the pair (-1 - 0j) * 1 is -1 - 0j, at a key the zero base
#: lacks: the loop sums it from zero, which turns its -0.0 part into +0.0
FLAT = ThetaMatrix.zeros(2)
NEGATIVE_ZERO_PART = [(TorusElement.zero(FLAT), [(TorusElement(FLAT, {(0, 0): complex(-1.0, -0.0)}), TorusElement.one(FLAT), 1, 0)])]


@settings(max_examples=200, deadline=None)
@given(signed_sums_entries())
@example(NEGATIVE_ZERO_PART)
def test_signed_sums_match_the_dict_pass_bit_for_bit(entries):
    got = signed_sums(entries)
    assert [bits(x) for x in got] == [bits(dict_pass_signed_sum(*entry)) for entry in entries]


def test_signed_sums_sort_rows_past_the_code_limit(theta2, monkeypatch):
    """Keys 2**61 apart put the (entry, key) codes of one pass past 2**62:
    the pass sorts its rows instead, with the same bits."""
    gen = sampling.rng(46)
    small, other = disc(theta2, 1, gen), disc(theta2, 1, gen)
    far = TorusElement(theta2, {(2**61, -(2**61)): 1.5 - 0.5j, (-(2**61), 0): 2j, (0, 2**61): -1.0})
    entries = [(small, [(far, small, 1, -1)]), (other, [(small, other, 1, 0)]), (far, [])]
    keys = [(r[0] + s[0], r[1] + s[1]) for a, b, _ in signed_products(entries[0][1]) for r in a.coeffs for s in b.coeffs]
    volume = math.prod(max(k[m] for k in keys) - min(k[m] for k in keys) + 1 for m in range(2))
    assert len(entries) * volume >= torus._CODE_LIMIT
    calls = count_kernel_calls(monkeypatch)
    got = signed_sums(entries)
    assert calls == {"pairwise": [3], "box": 0}
    assert [bits(x) for x in got] == [bits(dict_pass_signed_sum(*entry)) for entry in entries]
    assert got[2] is far


def lexsort_groups(keys):
    """(order, starts) of ``torus._groups`` from ``np.lexsort`` of the same keys."""
    order = np.lexsort(keys[::-1])
    rows = keys.take(order, 1)
    return order, np.concatenate(([True], (rows[:, 1:] != rows[:, :-1]).any(0)))


@pytest.mark.parametrize(
    "cells,extents",
    [(2**16 - 1, (15, 17, 257)), (2**16, (16, 64, 64)), (2**16 + 1, (65537, 1, 1))],
    ids=["65535_cells", "65536_cells", "65537_cells"],
)
def test_short_codes_group_as_lexsort_and_long_codes(cells, extents, monkeypatch):
    """Key boxes of 2^16 - 1, 2^16 and 2^16 + 1 cells, an entry digit first:
    with repeated keys and shuffled columns, the 16-bit codes (the first
    two) and the int64 codes (the third) give the order and starts of
    ``np.lexsort``, and so do int64 codes forced on the same keys."""
    assert math.prod(extents) == cells
    gen = np.random.default_rng(cells)
    lo = np.array([[0], [-3], [-100]])
    cols = gen.integers(0, extents, size=(3000, 3)).T + lo
    cols[:, :2] = np.concatenate((lo, lo + np.array(extents)[:, None] - 1), axis=1)  # the box's corners
    keys = np.concatenate((cols, cols[:, gen.integers(0, 3000, 1500)]), axis=1)  # repeated keys
    keys = np.ascontiguousarray(keys[:, gen.permutation(keys.shape[1])])
    assert math.prod(int(h - l + 1) for l, h in zip(keys.min(1), keys.max(1))) == cells
    order, starts = torus._groups(keys)
    want_order, want_starts = lexsort_groups(keys)
    assert np.array_equal(order, want_order) and np.array_equal(starts, want_starts)
    assert (~starts).any()
    monkeypatch.setattr(torus, "_SHORT_CODE_CELLS", 0)
    long_order, long_starts = torus._groups(keys)
    assert np.array_equal(long_order, want_order) and np.array_equal(long_starts, want_starts)


def test_signed_sums_refuse_out_of_contract_signs(theta2):
    """s1 must be -1 or 1 and s2 -1, 0 or 1, on the dense box (27 x 22
    terms) and on the pairwise route (5 x 5 terms) alike: out of that
    contract the two routes would compute different sums."""
    gen = sampling.rng(57)
    wide = TorusElement(theta2, {(i, j): complex(gen.normal(), 1.0) for i in range(-1, 2) for j in range(-4, 5)})
    narrow = TorusElement(theta2, {(i, j): complex(gen.normal(), 1.0) for i in range(-1, 1) for j in range(-5, 6)})
    small, small2 = (TorusElement(theta2, {(k, -k + s): gen.normal() + 0j for k in range(5)}) for s in (0, 1))
    assert torus._takes_box(wide.indices, wide.values, narrow.indices, narrow.values)
    assert (len(wide.values), len(narrow.values)) == (27, 22) and len(small.values) == len(small2.values) == 5
    zero = TorusElement.zero(theta2)
    for a, b in [(wide, narrow), (small, small2)]:
        for s1, s2 in [(1, 5), (2, 0), (0, 1), (-1, 2), (1, -2), (0.5, 0)]:
            with pytest.raises(ValueError, match="signs"):
                signed_sums([(zero, [(a, b, 1, 0)]), (zero, [(a, b, s1, s2)])])
        for s1, s2 in itertools.product((-1, 1), (-1, 0, 1)):
            (got,) = signed_sums([(zero, [(a, b, s1, s2)])])
            assert coeff_distance(got, literal_signed_sum(zero, [(a, b, s1, s2)])) <= 1e-12


def test_signed_sums_take_an_equal_theta_and_refuse_another(theta2):
    """Thetas are compared by identity and, only when that fails, by value:
    a base or an operand over an equal but distinct ``ThetaMatrix`` is
    taken, with the bits of the same call over one theta object, and one
    over another theta raises ``ThetaMismatch``."""
    gen = sampling.rng(58)
    twin = ThetaMatrix(theta2.entries)
    other = ThetaMatrix([[0.0, 0.1], [-0.1, 0.0]])
    assert twin == theta2 and twin is not theta2
    base, a, b = (disc(theta2, r, gen) for r in (1, 2, 1))

    def over(th, el):
        return TorusElement(th, dict(el.coeffs))

    want = [bits(x) for x in signed_sums([(base, [(a, b, 1, -1)]), (base, [(b, a, -1, 0)])])]
    for k in range(3):
        for th, fails in [(twin, False), (other, True)]:
            ops = [base, a, b]
            ops[k] = over(th, ops[k])
            entries = [(ops[0], [(ops[1], ops[2], 1, -1)]), (base, [(b, a, -1, 0)])]
            if fails:
                with pytest.raises(ThetaMismatch):
                    signed_sums(entries)
            else:
                assert [bits(x) for x in signed_sums(entries)] == want


def count_groupings(monkeypatch):
    """[calls]: the number of ``_summed`` groupings, filled as they run."""
    calls, summed = [0], torus._summed

    def counted(*args):
        calls[0] += 1
        return summed(*args)

    monkeypatch.setattr(torus, "_summed", counted)
    return calls


def test_one_grouping_per_signed_sums_call(theta2, monkeypatch):
    """Every entry of a call is summed by one ``_summed`` grouping, whatever
    mix of box and pairwise terms its entries hold: a base with a box
    commutator and a pairwise product, a box alone on a base, two boxes on
    zero, pairwise products alone, and no terms; and the calls of one kind."""
    gen = sampling.rng(55)
    big, big2 = disc(theta2, 6, gen), disc(theta2, 5, gen)
    small, small2, base = disc(theta2, 1, gen), disc(theta2, 2, gen), disc(theta2, 3, gen)
    zero = TorusElement.zero(theta2)
    mixed = [
        (base, [(big, big2, 1, -1), (small, small2, -1, 0)]),
        (small, [(big2, big, 1, 0)]),
        (zero, [(big, big2, -1, 1), (big2, big, 1, 0)]),
        (small2, [(small, small2, 1, 1)]),
        (base, []),
    ]
    calls = count_kernel_calls(monkeypatch)
    groupings = count_groupings(monkeypatch)
    for entries, kernels in [
        (mixed, {"pairwise": [3], "box": 4}),
        (mixed[1:3], {"pairwise": [], "box": 3}),
        (mixed[3:], {"pairwise": [2], "box": 0}),
    ]:
        calls.update(pairwise=[], box=0)
        groupings[0] = 0
        got = signed_sums(entries)
        assert calls == kernels and groupings == [1]
        assert [bits(x) for x in got] == [bits(dict_pass_signed_sum(*entry)) for entry in entries]
    groupings[0] = 0
    assert signed_sums(mixed[4:])[0] is base and groupings == [0]


def test_entry_whose_box_cells_all_drop_is_its_base(theta2):
    """A box product whose every cell falls under ``CANONICAL_EPS`` adds
    nothing: on an empty base with no pairs, alone or beside other entries,
    the entry comes out as its base."""
    gen = sampling.rng(56)
    tiny, tiny2 = (disc(theta2, r, gen).scale(1e-10) for r in (6, 5))
    assert torus._takes_box(tiny.indices, tiny.values, tiny2.indices, tiny2.values)
    assert not (tiny * tiny2).coeffs
    zero, base, small = TorusElement.zero(theta2), disc(theta2, 2, gen), disc(theta2, 1, gen)
    (alone,) = signed_sums([(zero, [(tiny, tiny2, 1, -1)])])
    assert bits(alone) == []
    entries = [(zero, [(tiny, tiny2, 1, 0)]), (base, [(tiny2, tiny, -1, 1)]), (zero, [(small, base, 1, 0)])]
    got = signed_sums(entries)
    assert bits(got[0]) == [] and bits(got[1]) == bits(base)
    assert [bits(x) for x in got] == [bits(dict_pass_signed_sum(*entry)) for entry in entries]


def test_one_pairwise_pass_per_curvature_gradient_and_quartic(monkeypatch):
    """Every entry of every component, of F1 and F2 for every pair, and of a
    matrix product shares one pass."""
    gen = sampling.rng(48)
    th = sampling.random_theta(3, gen)
    c = random_connection(th, 2, gen, radius=1, terms=3, amplitude=0.3)
    d = random_connection(th, 2, gen, radius=1, terms=3, amplitude=0.3).A
    calls = count_kernel_calls(monkeypatch)
    curvature(c)
    assert len(calls["pairwise"]) == 1 and calls["box"] == 0
    x, y = c.A[0], d[1]
    for step in (lambda: ym_gradient(c), lambda: line_quartic(c, d), lambda: x @ y):
        calls.update(pairwise=[], box=0)
        step()
        assert len(calls["pairwise"]) == 1 and calls["box"] == 0


# -- skew commutators from one product ---------------------------------------------


def skew_ball(th, radius, gen):
    """(m - m*) / 2 for random coefficients m on the ball of ``radius`` about 0:
    skew, with a support symmetric about 0, as ``skew_part`` makes potentials."""
    m = ball(th, radius, 0, gen)
    return torus.skew_entries([(m, m)])[0]


def minus_adjoint_box(th, x):
    """x - x* on the box x centred on 0, its phases the box's slice of theta's
    sigma(r, r) table, as ``signed_sums`` cuts it."""
    half = [(e - 1) // 2 for e in x.shape]
    top, table = torus._sigma_table(th, half)
    return torus._minus_adjoint_box(x, table[tuple(slice(t - h, t + h + 1) for t, h in zip(top, half))])


def one_side_box(th, ops, bounds, s1):
    """x - x* with x = s1 a * b, the box of the kernel's s2 = 0 call."""
    return minus_adjoint_box(th, torus._dense_box_kernel(th, *ops, bounds, s1, 0))


@pytest.mark.parametrize("n,radius", [(2, 5), (3, 3)])
def test_one_side_box_matches_the_full_kernel(n, radius):
    """For skew a and b, (a * b)* = b * a, so x - x* with x = s1 a * b is the
    commutator s1 (a * b - b * a): every cell within ``kernel_tolerance`` of
    the full kernel's, for n = 2 and for n = 3, where P's tail column 1 is
    nonzero and sigma(r, r) takes its tail term."""
    gen = sampling.rng(70 + n)
    th = sampling.random_theta(n, gen)
    assert n == 2 or th._pair_mat[:, 1].any()
    for _ in range(3):
        a, b = skew_ball(th, radius, gen), skew_ball(th, radius - 1, gen)
        ops = a.indices, a.values, b.indices, b.values
        bounds = torus._boxes(a.indices, b.indices)
        assert torus._takes_box(*ops) and torus._centred(bounds)
        for s1 in (1, -1):
            full = torus._dense_box_kernel(th, *ops, bounds, s1, -s1)
            assert np.abs(one_side_box(th, ops, bounds, s1) - full).max() <= kernel_tolerance(a, b)


@pytest.mark.parametrize("n,radius", [(2, 4), (3, 3)])
def test_one_side_box_is_x_minus_its_adjoint_bit_for_bit(n, radius):
    """Each cell of the one-side box has the bits of x(r) - x*(r), x the
    s2 = 0 kernel's box and x* formed on its cells as ``TorusElement.adjoint``
    forms it, with nothing dropped."""
    gen = sampling.rng(72 + n)
    th = sampling.random_theta(n, gen)
    a, b = ball(th, radius, 0, gen), ball(th, radius - 1, 0, gen)
    ops = a.indices, a.values, b.indices, b.values
    bounds = torus._boxes(a.indices, b.indices)
    assert torus._takes_box(*ops) and torus._centred(bounds)
    for s1 in (1, -1):
        x = torus._dense_box_kernel(th, *ops, bounds, s1, 0)
        lo = [u + v for u, v in zip(bounds[0], bounds[2])]
        rows = np.stack(np.unravel_index(np.arange(x.size), x.shape), axis=1) + lo
        assert (rows == -rows[::-1]).all()
        cells = x.ravel()
        want = cells - torus._adjoint_values(th, rows, cells)[::-1]
        assert minus_adjoint_box(th, x).ravel().tobytes() == want.tobytes()


def test_only_flagged_centred_box_commutators_take_one_side(theta2, monkeypatch):
    """``signed_sums`` takes the one-side path for a box commutator (s2 = -s1)
    of a call flagged ``_skew`` whose output box is centred on 0, and for
    nothing else: not unflagged, not off centre, not for a product or
    s2 = s1, not for a pairwise term.  Every sum stays within the loop's
    bound."""
    gen = sampling.rng(75)
    a, b = skew_ball(theta2, 5, gen), skew_ball(theta2, 4, gen)
    off, small = ball(theta2, 4, 3, gen), skew_ball(theta2, 1, gen)
    assert not torus._takes_box(small.indices, small.values, a.indices, a.values)
    zero = TorusElement.zero(theta2)
    one_side, real = [], torus._minus_adjoint_box
    monkeypatch.setattr(torus, "_minus_adjoint_box", lambda th, x: one_side.append(x.shape) or real(th, x))
    cases = [
        ([(a, b, 1, -1)], True, 1),
        ([(b, a, -1, 1)], True, 1),
        ([(a, b, 1, -1)], False, 0),
        ([(a, off, 1, -1)], True, 0),
        ([(a, b, 1, 0)], True, 0),
        ([(a, b, 1, 1)], True, 0),
        ([(small, a, 1, -1)], True, 0),
        ([(a, b, 1, -1), (small, a, -1, 1), (b, a, 1, -1)], True, 2),
    ]
    for terms, flag, taken in cases:
        one_side.clear()
        (got,) = signed_sums([(zero, terms)], _skew=flag)
        assert len(one_side) == taken
        assert coeff_distance(got, literal_signed_sum(zero, terms)) <= signed_sum_tolerance(zero, terms)


def sigma_direct(th, half):
    """sigma(r, r) on the box centred on 0 of half-extents ``half``, in C
    order, formed as ``TorusElement.adjoint`` forms each term's phase."""
    ext = [2 * h + 1 for h in half]
    rows = np.stack(np.unravel_index(np.arange(math.prod(ext)), ext), axis=1) - half
    return torus._phases(torus._exponents(torus._cocycle_rows(th, rows), rows))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_table_slices_are_the_direct_phases_and_grow_only_for_larger_boxes(n, monkeypatch):
    """Each ``_sigma_table`` slice has the bits of sigma(r, r) formed
    directly on its own box.  The table is built again for another theta
    and grown to the elementwise max for a box it does not hold (counted
    as ``_phases`` calls), and a box it holds builds nothing.  Each theta
    keeps its own table: another theta's does not evict it."""
    gen = sampling.rng(90 + n)
    th, other = sampling.random_theta(n, gen), sampling.random_theta(n, gen)
    assert n == 2 or th._pair_mat[:, 1:-1].any()
    small, wider, inside = [1] * n, [3] + [0] * (n - 1), [2] + [1] * (n - 1)
    steps = [  # (theta, half-extents, the table's half-extents, builds so far)
        (th, small, small, 1),
        (th, wider, [3] + [1] * (n - 1), 2),  # larger on axis 0, smaller on the tail
        (th, inside, [3] + [1] * (n - 1), 2),
        (other, inside, inside, 3),
        (th, small, [3] + [1] * (n - 1), 3),
    ]
    want = [sigma_direct(theta, half).tobytes() for theta, half, _, _ in steps]
    builds, real = [], torus._phases
    monkeypatch.setattr(torus, "_phases", lambda x: builds.append(x.shape) or real(x))
    for (theta, half, top, built), direct in zip(steps, want):
        got_top, table = torus._sigma_table(theta, half)
        assert list(got_top) == top and len(builds) == built and not table.flags.writeable
        cut = table[tuple(slice(t - h, t + h + 1) for t, h in zip(top, half))]
        assert np.ascontiguousarray(cut).tobytes() == direct


def test_each_theta_keeps_its_own_sigma_table(monkeypatch):
    """A one-side commutator on theta A, then on theta B, then on A again:
    the third lookup returns A's table, the same array, so it builds nothing."""
    gen = sampling.rng(95)
    calls = []
    for _ in range(2):
        th = sampling.random_theta(2, gen)
        a, b = skew_ball(th, 5, gen), skew_ball(th, 4, gen)
        calls.append((TorusElement.zero(th), [(a, b, 1, -1)]))
    tables, real = [], torus._sigma_table
    monkeypatch.setattr(torus, "_sigma_table", lambda th, half: tables.append(real(th, half)) or tables[-1])
    first_lookups = []
    for entry in calls + calls[:1]:
        tables.clear()
        signed_sums([entry], _skew=True)
        first_lookups.append(tables[0][1])
    first, other, again = first_lookups
    assert again is first and other is not first


def test_one_table_lookup_per_one_side_commutator(theta2, monkeypatch):
    """A flagged ``signed_sums`` call with k one-side box commutators looks
    theta's sigma(r, r) table up k times: once per commutator, for the
    kernel and for x*."""
    gen = sampling.rng(96)
    a, b, c = (skew_ball(theta2, radius, gen) for radius in (5, 4, 3))
    zero = TorusElement.zero(theta2)
    entries = [(zero, [(a, b, 1, -1), (b, c, -1, 1)]), (zero, [(c, a, 1, -1)])]
    lookups, real = [], torus._sigma_table
    monkeypatch.setattr(torus, "_sigma_table", lambda th, half: lookups.append(half) or real(th, half))
    one_side, real_box = [], torus._minus_adjoint_box
    monkeypatch.setattr(torus, "_minus_adjoint_box", lambda *args: one_side.append(1) or real_box(*args))
    signed_sums(entries, _skew=True)
    assert len(one_side) == 3 and len(lookups) == 3


def test_gathered_left_phases_are_the_direct_table(theta2):
    """For n = 2, a * b's left phases read from the sigma(r, r) table have
    the bits of e(w_0 (lo_b0 + j)) formed directly, signed by s1 = 1 or -1
    as the kernel signs them, on cells whose phase is exactly 1 too (where
    -table would differ from -1 * table in the sign of a zero imaginary
    part).  Cells outside the table give None.  Through the kernel, skew
    operands (whose cells lie in the table) give the box without the table
    bit for bit."""
    sigma = torus._sigma_table(theta2, (6, 5))
    tails = np.array([-5, -2, 0, 3, 5])
    rows = np.zeros((len(tails), 2), dtype=np.int64)
    rows[:, 1] = tails
    w0 = torus._cocycle_rows(theta2, rows)[:, 0]
    for lo_b0, b0 in [(-6, 13), (-2, 5), (0, 1)]:
        bounds = ([0, -5], [1, 11], [lo_b0, 0], [b0, 1])
        direct = torus._phases(np.outer(w0, lo_b0 + np.arange(b0)))
        assert (direct == 1).any()
        for s1 in (1, -1):
            got = s1 * torus._sigma_left(sigma, bounds, tails)
            assert got.tobytes() == (s1 * direct).tobytes()
        assert (-1 * direct).tobytes() != (-direct).tobytes()
    for bounds in [([0, -5], [1, 11], [-7, 0], [3, 1]), ([0, -5], [1, 11], [5, 0], [3, 1]), ([0, -6], [1, 3], [0, 0], [1, 1])]:
        assert torus._sigma_left(sigma, bounds, tails) is None
    gen = sampling.rng(93)
    a, b = skew_ball(theta2, 5, gen), skew_ball(theta2, 3, gen)
    ops = a.indices, a.values, b.indices, b.values
    bounds = torus._boxes(a.indices, b.indices)
    sigma = torus._sigma_table(theta2, [(x + y - 2) // 2 for x, y in zip(bounds[1], bounds[3])])
    assert torus._sigma_left(sigma, bounds, np.unique(a.indices[:, 1])) is not None
    for s1 in (1, -1):
        with_table = torus._dense_box_kernel(theta2, *ops, bounds, s1, 0, sigma=sigma)
        assert with_table.tobytes() == torus._dense_box_kernel(theta2, *ops, bounds, s1, 0).tobytes()


def test_flagged_sums_on_two_thetas_in_threads_match_serial_runs():
    """Threads running flagged ``signed_sums`` calls for two thetas in turn,
    whose boxes grow and shrink, grow each theta's sigma(r, r) table from
    none: every result has the bits of the same call run alone."""
    gen = sampling.rng(94)
    thetas = [sampling.random_theta(2, gen) for _ in range(2)]
    entries = {}
    for t, th in enumerate(thetas):
        for size, (ra, rb) in enumerate([(5, 4), (3, 3), (6, 2)]):
            a, b = skew_ball(th, ra, gen), skew_ball(th, rb, gen)
            assert torus._takes_box(a.indices, a.values, b.indices, b.values)
            entries[t, size] = (TorusElement.zero(th), [(a, b, 1, -1)])
    jobs = [(k % 2, k // 2 % 3) for k in range(60)]  # the thetas alternate

    def run(job):
        return bits(signed_sums([entries[job]], _skew=True)[0])

    alone = {job: run(job) for job in entries}
    for th in thetas:
        th._sigma = None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [alone[job] for job in jobs]


def near_drop_matrix(th, q, gen, paired):
    """q x q random entries whose terms have moduli of order 1, from
    ``CANONICAL_EPS`` to 4 ``CANONICAL_EPS``, or within a few ulp of
    ``CANONICAL_EPS``, so that the adjoint's phases, the difference and the
    halving can each drop a term.  Entry (j, i)'s rows are entry (i, j)'s
    negated when ``paired`` (a diagonal entry's support symmetric about 0),
    else drawn apart."""

    def keys():
        return {tuple(int(x) for x in gen.integers(-3, 4, size=th.n)) for _ in range(gen.integers(1, 9))}

    def modulus():
        kind = gen.integers(3)
        if kind == 0:
            return gen.normal()
        return CANONICAL_EPS * (gen.uniform(1.0, 4.0) if kind == 1 else 1.0 + 2e-16 * gen.integers(4))

    def element(rows):
        return TorusElement(th, {r: modulus() * cmath.exp(2j * math.pi * gen.random()) for r in rows})

    def negated(rows):
        return {tuple(-x for x in r) for r in rows}

    entries = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            rows = keys()
            if i == j:
                entries[i][i] = element(rows | negated(rows) if paired else rows)
            else:
                entries[i][j] = element(rows)
                entries[j][i] = element(negated(rows) if paired else keys())
    return TorusMatrix(th, entries)


@pytest.mark.parametrize("q", [1, 2])
def test_skew_part_is_the_grouped_difference_bit_for_bit(q):
    """``skew_part`` has the bits of (m - m^dagger) / 2 through the grouped
    sum and the scale, on paired supports (the elementwise form) and on
    supports drawn apart, with terms near ``CANONICAL_EPS``."""
    gen = sampling.rng(80 + q)
    forms = {True: 0, False: 0}
    for k in range(120):
        th = sampling.random_theta(2 + k % 2, gen)
        m = near_drop_matrix(th, q, gen, paired=k % 3 != 0)
        got, want = skew_part(m), (m - m.dagger()).scale(0.5)
        for i, j in itertools.product(range(q), repeat=2):
            assert bits(got.entries[i][j]) == bits(want.entries[i][j])
            forms[torus._paired_adjoint(m.entries[i][j], m.entries[j][i]) is not None] += 1
    assert min(forms.values()) >= 30


def test_skew_parts_of_a_list_are_each_the_grouped_difference_bit_for_bit():
    """One ``_skew_parts`` call over a list of matrices, q 1 to 3 and n 1 to
    4, paired and unpaired supports, with an empty entry, a NaN coefficient
    and terms near ``CANONICAL_EPS``: every entry of every matrix has the
    bits of (m - m^dagger) / 2 through the grouped sum and the scale."""
    gen = sampling.rng(84)
    forms = {True: 0, False: 0}
    for k in range(24):
        th = sampling.random_theta(1 + k % 4, gen)
        ms = []
        for q in (1, 2, 3):
            m = near_drop_matrix(th, q, gen, paired=(k + q) % 3 != 0)
            rows = [list(row) for row in m.entries]
            if q > 1:
                rows[0][q - 1] = TorusElement.zero(th)
                r, c = next(iter(rows[q - 1][0].coeffs.items()))
                rows[q - 1][0] = TorusElement(th, {**rows[q - 1][0].coeffs, r: complex(math.nan, c.imag)})
            ms.append(TorusMatrix(th, rows))
        got = _skew_parts(ms)
        for m, part in zip(ms, got):
            want = (m - m.dagger()).scale(0.5)
            for i, j in itertools.product(range(m.q), repeat=2):
                assert bits(part.entries[i][j]) == bits(want.entries[i][j])
                forms[torus._paired_adjoint(m.entries[i][j], m.entries[j][i]) is not None] += 1
    assert min(forms.values()) >= 30


def test_derivation_differences_are_each_difference_bit_for_bit():
    """``derivation_differences`` over the entries of random matrices, n 1
    to 4, every (i, j) and (j, i), has the bits of
    ``x.derivation(i) - y.derivation(j)`` per entry, and of the curvature
    bases ``aj.derive(i) - ai.derive(j)``.  One key's difference falls
    under ``CANONICAL_EPS`` and is dropped: the drop is the difference's,
    after the sum, not the derivatives'."""
    gen = sampling.rng(85)
    for n in (1, 2, 3, 4):
        th = sampling.random_theta(n, gen)
        ai, aj = (near_drop_matrix(th, 2, gen, paired=n % 2 == 0) for _ in range(2))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        entries = [(aj.entries[r][s], i, ai.entries[r][s], j) for i, j in pairs for r in range(2) for s in range(2)]
        got = torus.derivation_differences(entries)
        assert [bits(x) for x in got] == [bits(x.derivation(i) - y.derivation(j)) for x, i, y, j in entries]
        for k, (i, j) in enumerate(pairs):
            want = aj.derive(i) - ai.derive(j)
            assert [bits(x) for x in got[4 * k : 4 * k + 4]] == [bits(e) for row in want.entries for e in row]
    one = 0.1 + 0.2j
    x = TorusElement(th, {(1, 1, 0, 0): one, (1, 2, 0, 0): 1.0})
    y = TorusElement(th, {(1, 1, 0, 0): one + 3e-17, (2, 1, 0, 0): 1.0})
    assert 0 < abs(2 * math.pi * 3e-17) < CANONICAL_EPS and (one + 3e-17) != one
    (diff,) = torus.derivation_differences([(x, 1, y, 2)])
    assert list(diff.coeffs) == [(1, 2, 0, 0), (2, 1, 0, 0)]
    assert bits(diff) == bits(x.derivation(1) - y.derivation(2))
    assert len(x.derivation(1).coeffs) == len(y.derivation(2).coeffs) == 2


def test_curvature_bases_are_the_derivative_differences(monkeypatch):
    """The base of each curvature component that ``curvature`` hands to
    ``_matrix_sums`` has the bits of ``aj.derive(i) - ai.derive(j)``."""
    gen = sampling.rng(86)
    seen = []
    matrix_sums = yangmills._matrix_sums

    def recorded(jobs, **kwargs):
        seen.extend(base for base, _ in jobs)
        return matrix_sums(jobs, **kwargs)

    monkeypatch.setattr(yangmills, "_matrix_sums", recorded)
    for n, q in [(2, 1), (3, 2), (4, 3)]:
        c = random_connection(sampling.random_theta(n, gen), q, gen, radius=2, amplitude=0.3)
        seen.clear()
        curvature(c)
        keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        assert len(seen) == len(keys)
        for base, (i, j) in zip(seen, keys):
            want = c.A[j - 1].derive(i) - c.A[i - 1].derive(j)
            assert [bits(e) for row in base.entries for e in row] == [bits(e) for row in want.entries for e in row]


# -- construction and the canonical form -------------------------------------------


def test_non_integer_index_entry_raises(theta2):
    """An entry that is not an integer is refused, not truncated: 0.5 and 0.9
    would both become 0 and give two equal index rows."""
    for coeffs in [{(0.5, 0): 1.0, (0.9, 0): 2.0}, {(1.0, 0): 1.0}, {(0, "1"): 1.0}]:
        with pytest.raises(ValueError, match="not an integer"):
            TorusElement(theta2, coeffs)
    with pytest.raises(ValueError, match="not an integer"):
        TorusElement.monomial(theta2, (0.5, 0))
    exact = TorusElement(theta2, {(np.int64(2), 0): 1.0, (True, -3): 2.0})
    assert list(exact.coeffs) == [(1, -3), (2, 0)]


def test_index_past_int64_raises_on_every_call(theta2):
    for _ in range(2):
        for r in [(2**63, 0), (0, -(2**63))]:
            with pytest.raises(IndexOutOfRange, match="exceeds"):
                TorusElement.monomial(theta2, r)
            with pytest.raises(IndexOutOfRange, match="exceeds"):
                TorusElement(theta2, {(0, 0): 1.0, r: 2.0})


def trimmed(coeffs):
    """A dict oracle's coefficients less those under the drop; NaN is kept.

    The modulus is numpy's, as in the library: Python's ``abs`` of a complex
    may differ from it in the last bit.
    """
    return {r: c for r, c in coeffs.items() if not np.abs(c) < CANONICAL_EPS}


def assert_canonical(el, oracle):
    """el's storage is canonical and its coefficients are ``oracle``'s, a
    mapping compared by value or a ``bits`` list compared bit for bit."""
    rows, vals = el.indices, el.values
    assert rows.dtype == np.int64 and vals.dtype == complex
    assert rows.shape == (len(vals), el.theta.n) and vals.shape == (len(vals),)
    keys = list(map(tuple, rows.tolist()))
    assert all(x < y for x, y in zip(keys, keys[1:]))  # strictly increasing rows
    assert not (np.abs(vals) < CANONICAL_EPS).any()  # NaN fails the test and stays
    assert not rows.flags.writeable and not vals.flags.writeable
    coeffs = el.coeffs
    with pytest.raises(TypeError):
        coeffs[(0,) * el.theta.n] = 1.0
    assert list(coeffs) == keys
    assert bits(el) == oracle if isinstance(oracle, list) else coeffs == oracle


@settings(max_examples=300, deadline=None)
@given(operand_pairs(), st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False), st.data())
def test_every_element_operation_is_canonical(pair, z, data):
    """The constructor, sums, differences, scales, the adjoint, the derivations,
    the tensor embedding and the preconditioner, each against its dict oracle."""
    a, b = pair
    th = a.theta
    given = {**a.coeffs, **{r: 1e-16 * c for r, c in b.coeffs.items()}}  # unsorted, partly under the drop
    assert_canonical(TorusElement(th, given), trimmed(given))
    plus, minus = dict(a.coeffs), dict(a.coeffs)
    for r, c in b.coeffs.items():
        plus[r] = plus[r] + c if r in plus else c
        minus[r] = minus[r] - c if r in minus else -c
    assert_canonical(a + b, trimmed(plus))
    assert_canonical(a - b, trimmed(minus))
    assert_canonical(a.scale(z), trimmed({r: z * c for r, c in a.coeffs.items()}))
    star = a.adjoint()
    if any(v for row in th.entries for v in row):
        assert_canonical(star, star.coeffs)
        assert coeff_distance(star, adjoint_loop(a)) <= adjoint_tolerance(a)
    else:
        assert_canonical(star, adjoint_loop(a).coeffs)  # every phase is 1: the loop's arithmetic
    j = data.draw(st.integers(1, th.n))
    delta = {r: complex(0.0, 2.0 * math.pi * r[j - 1]) * c for r, c in a.coeffs.items() if r[j - 1]}
    assert_canonical(a.derivation(j), delta)
    embedded = {r + s: x * y for r, x in a.coeffs.items() for s, y in b.coeffs.items()}
    assert_canonical(tensor_embed(a, b), trimmed(embedded))
    w = 2.0 * (2.0 * math.pi) ** 2
    ((damped,),) = _inverse_laplacian(TorusMatrix(a.theta, [[a]])).entries
    assert_canonical(damped, trimmed({r: c / (1.0 + w * sum(x * x for x in r)) for r, c in a.coeffs.items()}))


@settings(max_examples=200, deadline=None)
@given(signed_sums_entries())
def test_signed_sums_are_canonical(entries):
    """Every entry, through the pairwise kernel, the dense box or both, against the dict pass."""
    for got, entry in zip(signed_sums(entries), entries):
        assert_canonical(got, bits(dict_pass_signed_sum(*entry)))
