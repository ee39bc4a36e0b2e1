"""Form spaces, the matrix-case table, products of finite triples."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncym import (
    AlreadyEven,
    FiniteTriple,
    InvalidTriple,
    MatrixCase,
    MissingGrading,
    ZeroMu,
    classify_matrix_case,
    double_odd,
    form_report,
    junk_space,
    matrix_case_triple,
    omega1_space,
    pi_omega2_space,
    product_check,
    product_triple,
    trivial_triple,
    unitary_equivalence_defect,
)
from ncym import config as cfg
from ncym import finite
from ncym.finite import (
    CONTAIN_TOL,
    ORTH_TOL,
    RANK_TOL,
    OperatorSubspace,
    _embedded_legs,
    _forms,
    _orthogonal,
    _orthonormal_rows,
    _pair_products,
    _svd_cut,
    _unit_scaled,
    contains_subspace,
    intersection_dim,
    subspaces_equal,
)


def diagonal_sigma1_triple():
    """Diagonal algebra on C^2 with the flip Dirac operator (= the p=q=1 case)."""
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return FiniteTriple(2, [e1, e2], d)


#: the matrix units E11, E12, E21, E22 of M_2
UNITS2 = np.eye(4, dtype=complex).reshape(4, 2, 2)


def test_triple_validation():
    eye = np.eye(2, dtype=complex)
    nilp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidTriple, match="not closed under adjoint"):
        FiniteTriple(2, [eye, nilp], np.zeros((2, 2)))  # not adjoint-closed
    with pytest.raises(InvalidTriple, match="D is not self-adjoint"):
        FiniteTriple(2, [eye], np.array([[0.0, 1.0], [0.0, 0.0]]))  # D not self-adjoint
    with pytest.raises(InvalidTriple, match="does not contain the identity"):
        # span misses the identity
        FiniteTriple(2, [np.diag([1.0, 0.0]).astype(complex)], np.zeros((2, 2)))
    with pytest.raises(InvalidTriple, match="not closed under product"):
        # self-adjoint generating set whose span misses products
        tri = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
        FiniteTriple(3, [np.eye(3, dtype=complex), tri], np.zeros((3, 3)))
    # bad grading
    with pytest.raises(InvalidTriple, match=r"gamma\^2 != 1"):
        FiniteTriple(2, [eye], np.zeros((2, 2)), gamma=np.diag([1.0, 2.0]))
    with pytest.raises(InvalidTriple, match="gamma does not commute with the algebra"):
        FiniteTriple(2, UNITS2, np.zeros((2, 2)), gamma=np.diag([1.0, -1.0]))


def test_wrong_shapes_and_empty_basis_raise_invalid_triple():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(InvalidTriple, match=r"matrix of shape \(3, 3\), expected \(2, 2\)"):
        FiniteTriple(2, [eye, np.eye(3)], np.zeros((2, 2)))
    with pytest.raises(InvalidTriple, match=r"matrix of shape \(4,\), expected \(2, 2\)"):
        FiniteTriple(2, [eye], np.zeros(4))
    with pytest.raises(InvalidTriple, match="gamma has wrong shape"):
        FiniteTriple(2, [eye], np.zeros((2, 2)), gamma=np.eye(3))
    with pytest.raises(InvalidTriple, match="does not contain the identity"):
        FiniteTriple(2, [], np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["algebra basis", "D", "gamma"])
def test_nonfinite_entries_raise_invalid_triple(where, bad):
    """A non-finite entry passes every norm-above-tolerance check, so it is rejected up front."""
    eye = np.eye(2, dtype=complex)
    basis, dirac, gamma = [eye, np.diag([1.0, -1.0])], np.array([[0.0, 1.0], [1.0, 0.0]]), None
    if where == "algebra basis":
        basis[1] = np.diag([1.0, bad])
    elif where == "D":
        dirac[0, 1] = dirac[1, 0] = bad
    else:
        basis, dirac, gamma = [eye], np.zeros((2, 2)), np.diag([1.0, bad])
    with pytest.raises(InvalidTriple, match=f"{where} has a non-finite entry"):
        FiniteTriple(2, basis, dirac, gamma)


SCALES = [1e-13, 1e-8, 1e-5, 1.0, 1e4, 1e8]
#: past the squares' range (1e+-154), where a basis norm or product norm taken
#: without scaling overflows or underflows
EXTREME_SCALES = [1e-300, 1e300]


@pytest.mark.parametrize("scale", SCALES + [1e-150, 1e-100, 1e100, 1e150] + EXTREME_SCALES)
def test_closed_basis_accepted_at_every_scale(scale):
    """The form dimensions do not depend on the scale of the basis: unscaled, the
    junk's rank-cut reference overflowed from 1e80 (case 2 and 3 lost their junk)
    and underflowed by 1e-100 (case 1 gained one)."""
    triples = [
        rotated(matrix_case_triple(2, 2, 0.7 * UNITARY2), seed=1),
        matrix_case_triple(1, 1, [[1.0]]),
        matrix_case_triple(2, 1, [[0.6], [0.8j]]),
        matrix_case_triple(2, 2, np.diag([1.0, 2.0])),
    ]
    for t in triples:
        scaled = FiniteTriple(t.dim_h, [scale * a for a in t.algebra_basis], t.D, t.gamma)
        assert form_report(scaled) == form_report(t)


@pytest.mark.parametrize("scale", SCALES + EXTREME_SCALES)
def test_unclosed_basis_rejected_at_every_scale(scale):
    # span{1, s T} is the same space for every s, and T^2 lies outside it
    tri = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidTriple, match="not closed under product"):
        FiniteTriple(3, [np.eye(3), scale * tri], np.zeros((3, 3)))


@pytest.mark.parametrize("scale", SCALES + EXTREME_SCALES)
def test_grading_outside_commutant_rejected_at_every_scale(scale):
    with pytest.raises(InvalidTriple, match="gamma does not commute with the algebra"):
        FiniteTriple(2, list(scale * UNITS2), np.zeros((2, 2)), gamma=np.diag([1.0, -1.0]))


@pytest.mark.parametrize("scale", SCALES + EXTREME_SCALES)
def test_non_self_adjoint_dirac_rejected_at_every_scale(scale):
    with pytest.raises(InvalidTriple, match="D is not self-adjoint"):
        FiniteTriple(2, [np.eye(2)], scale * np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", SCALES + EXTREME_SCALES)
def test_dirac_commuting_with_grading_rejected_at_every_scale(scale):
    sigma3 = np.diag([1.0, -1.0])
    with pytest.raises(InvalidTriple, match="gamma does not anticommute with D"):
        FiniteTriple(2, [np.eye(2)], scale * sigma3, gamma=sigma3)


# -- membership: one stacked projection against the per-vector reference --


def residual_loop(space, stack):
    """The largest projection residual over the operators of ``stack``, one vector at a time."""
    worst = 0.0
    for vec in np.asarray(stack, dtype=complex).reshape(-1, space.ambient_dim):
        proj = space.basis.T @ (space.basis.conj() @ vec) if space.dim else np.zeros_like(vec)
        worst = max(worst, float(np.linalg.norm(vec - proj)))
    return worst


def random_subspace(gen, dim_h, dim):
    mats = gen.normal(size=(dim, dim_h, dim_h)) + 1j * gen.normal(size=(dim, dim_h, dim_h))
    return OperatorSubspace.span(mats, dim_h)


def membership_stacks(gen, space, dim_h):
    """Stacks of several leading shapes around ``space`` and whether each lies in it."""
    coeffs = gen.normal(size=(2, 3, space.dim)) + 1j * gen.normal(size=(2, 3, space.dim))
    inside = (coeffs @ space.basis).reshape(2, 3, dim_h, dim_h)
    noise = gen.normal(size=inside.shape)
    noise /= np.linalg.norm(noise, axis=(2, 3), keepdims=True)
    one_off = inside.copy()
    one_off[1, 2] += 1e-6 * noise[1, 2]
    return {
        "inside": (inside, True),
        "near": (inside + 1e-11 * noise, True),
        "off": (inside + 1e-6 * noise, False),
        "one-off": (one_off, False),
        "random": (gen.normal(size=(5, dim_h, dim_h)), False),
        "single": (inside[0, 0], True),
        "single-vector": (inside[0, 0].reshape(-1), True),
        "empty": (np.zeros((0, dim_h, dim_h)), True),
    }


@pytest.mark.parametrize("dim", [0, 3], ids=["zero-subspace", "dim-3"])
def test_contains_matches_per_vector_reference(dim):
    gen = np.random.default_rng(11 + dim)
    space = random_subspace(gen, 3, dim)
    assert space.dim == dim
    for name, (stack, expected) in membership_stacks(gen, space, 3).items():
        kept = stack.copy()
        verdict = space.contains(stack)
        assert verdict == (residual_loop(space, stack) <= CONTAIN_TOL) == expected, name
        assert np.array_equal(stack, kept), name  # the residual is taken on a copy


def test_contains_subspace_matches_per_vector_reference():
    gen = np.random.default_rng(5)
    big = random_subspace(gen, 3, 5)
    inner = OperatorSubspace.span((gen.normal(size=(2, 5)) @ big.basis).reshape(2, 3, 3), 3)
    zero = OperatorSubspace.span(np.zeros((0, 3, 3)), 3)
    cases = [(inner, True), (random_subspace(gen, 3, 2), False), (zero, True), (big, True)]
    for small, expected in cases:
        kept = small.basis.copy()
        assert contains_subspace(big, small) == (residual_loop(big, small.basis) <= CONTAIN_TOL) == expected
        assert np.array_equal(small.basis, kept)  # the residual is taken on a copy
    assert not contains_subspace(zero, inner)
    assert subspaces_equal(zero, OperatorSubspace.span(np.zeros((4, 3, 3)), 3))


def even_block_space(gen, dim):
    """The span of ``dim`` random 4 x 4 matrices that are even for the grading
    diag(1, 1, -1, -1): exactly zero off the two diagonal blocks, so its basis
    is zero on half of the 16 coordinates."""
    mats = np.zeros((dim, 4, 4), dtype=complex)
    for block in (slice(0, 2), slice(2, 4)):
        mats[:, block, block] = gen.normal(size=(dim, 2, 2)) + 1j * gen.normal(size=(dim, 2, 2))
    return OperatorSubspace.span(mats, 4)


def unit_rows(gen, count, columns):
    """``count`` random unit rows of width 16, zero outside the boolean mask ``columns``."""
    rows = np.zeros((count, 16), dtype=complex)
    rows[:, columns] = gen.normal(size=(count, columns.sum())) + 1j * gen.normal(size=(count, columns.sum()))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def with_zero_rows(gen, stack):
    """``stack`` with as many all-zero rows as it has mixed in at random places."""
    out = np.zeros((2 * len(stack), stack.shape[1]), dtype=complex)
    out[np.sort(gen.permutation(len(out))[: len(stack)])] = stack
    return out


def test_contains_on_partial_support_matches_per_vector_reference():
    """A subspace whose basis is zero on some coordinates, against stacks with
    order-1 entries on its support and small parts off it. An off-support part
    of 1e-11 lies inside, one of 1e-6 does not, as do the same sizes on the
    support in a direction orthogonal to the span; all-zero rows mixed into a
    stack change nothing. A residual whose off-support part were taken as
    ||v||^2 - ||v_in||^2 would read the rounding of those two squares, far
    above CONTAIN_TOL^2, as a residual."""
    gen = np.random.default_rng(17)
    space = even_block_space(gen, 5)
    support = space.basis.any(axis=0)
    assert space.dim == 5 and support.sum() == 8
    inside = (gen.normal(size=(64, 5)) + 1j * gen.normal(size=(64, 5))) @ space.basis
    odd = unit_rows(gen, 64, ~support)
    even = unit_rows(gen, 64, support)
    even -= (even @ space.basis.conj().T) @ space.basis
    even /= np.linalg.norm(even, axis=1, keepdims=True)
    one_off = inside.copy()
    one_off[40] += 1e-6 * odd[40]
    cases = {
        "inside": (inside, True),
        "off-support 1e-11": (inside + 1e-11 * odd, True),
        "off-support 1e-6": (inside + 1e-6 * odd, False),
        "on-support 1e-11": (inside + 1e-11 * even, True),
        "on-support 1e-6": (inside + 1e-6 * even, False),
        "one row off-support 1e-6": (one_off, False),
        "off-support alone": (1e-6 * odd, False),
    }
    cases.update({f"{name}, zero rows mixed in": (with_zero_rows(gen, stack), expected)
                  for name, (stack, expected) in cases.items()})
    cases["zero rows alone"] = (np.zeros((3, 16)), True)
    for name, (stack, expected) in cases.items():
        kept = stack.copy()
        assert space.contains(stack) == (residual_loop(space, stack) <= CONTAIN_TOL) == expected, name
        assert space.contains(stack.reshape(-1, 4, 4)) == expected, name
        assert np.array_equal(stack, kept), name  # the residual is taken on a copy
    near = OperatorSubspace.span((inside[:3] + 1e-11 * odd[:3]).reshape(3, 4, 4), 4)
    far = OperatorSubspace.span((inside[:3] + 1e-6 * odd[:3]).reshape(3, 4, 4), 4)
    kept = [near.basis.copy(), far.basis.copy()]
    assert contains_subspace(space, near) and not contains_subspace(space, far)
    assert all(map(np.array_equal, (near.basis, far.basis), kept))


def zero_dirac_triple():
    return FiniteTriple(2, [np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)], np.zeros((2, 2)))


def test_zero_dirac_gives_zero_spaces():
    t = zero_dirac_triple()
    assert omega1_space(t).dim == 0
    assert pi_omega2_space(t).dim == 0
    assert junk_space(t).dim == 0
    rep = form_report(t)
    assert (rep.dim_omega1, rep.dim_pi_omega2, rep.dim_junk, rep.dim_omega2) == (0, 0, 0, 0)


def test_scalar_algebra_zero_omega1():
    t = FiniteTriple(2, [np.eye(2, dtype=complex)], np.diag([1.0, -1.0]).astype(complex))
    assert omega1_space(t).dim == 0


def test_diagonal_sigma1_junk_oracle():
    """Brute-force kernel-image oracle for the diagonal-algebra flip triple."""
    t = diagonal_sigma1_triple()
    basis = t.algebra_basis
    coms = [t.D @ b - b @ t.D for b in basis]
    rows = [(b @ dc).reshape(-1) for b in basis for dc in coms]
    m = np.array(rows).T
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    rank = int((sv > 1e-10 * sv[0]).sum())
    kernel = vh[rank:].conj()
    images = []
    for x in kernel:
        acc = np.zeros((2, 2), dtype=complex)
        for idx, cf in enumerate(x):
            i, j = divmod(idx, len(basis))
            acc += cf * (coms[i] @ coms[j])
        images.append(acc)
    # every junk-type combination cancels: [D,e1]([D,e1]+[D,e2]) = [D,e1][D,1] = 0
    assert max(np.linalg.norm(im) for im in images) < 1e-12
    assert junk_space(t).dim == 0
    rep = form_report(t)
    assert rep.dim_omega1 == 2
    assert rep.dim_pi_omega2 == 2
    assert rep.dim_omega2 == 2


def reference_junk(t):
    """The junk by its definition, the slow way.

    The kernel of the relation map (b, c) -> b [D, c] comes from a full SVD,
    and each kernel vector x is pushed through (b, c) -> [D, b][D, c] pair by
    pair: image_x = sum_ij x_ij [D, b_i][D, c_j]. The rank cut is RANK_TOL
    against the largest product norm, as in ``junk_space``.
    """
    dd = t.dim_h * t.dim_h
    coms = [t.D @ b - b @ t.D for b in t.algebra_basis]
    nb = len(coms)
    m = np.array([(b @ dc).reshape(-1) for b in t.algebra_basis for dc in coms]).T
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    kernel = vh[int(np.sum(sv > RANK_TOL * sv[0])):].conj()  # m @ x = 0 for each row x
    if len(kernel) == 0:
        return OperatorSubspace(dd, np.zeros((0, dd)))
    images = np.zeros((len(kernel), dd), dtype=complex)
    scale = 0.0
    for i in range(nb):
        for j in range(nb):
            prod = (coms[i] @ coms[j]).reshape(-1)
            images += np.outer(kernel[:, i * nb + j], prod)
            scale = max(scale, float(np.linalg.norm(prod)))
    _, s, vh = np.linalg.svd(images, full_matrices=False)
    return OperatorSubspace(dd, vh[: int(np.sum(s > RANK_TOL * scale))])


def rotated(t, seed):
    """t conjugated by a random unitary: the same triple with complex matrices."""
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.normal(size=(t.dim_h, t.dim_h)) + 1j * gen.normal(size=(t.dim_h, t.dim_h)))
    conj = lambda m: None if m is None else u @ m @ u.conj().T  # noqa: E731
    return FiniteTriple(t.dim_h, [conj(a) for a in t.algebra_basis], conj(t.D), conj(t.gamma))


UNITARY2 = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
JUNK_FIXTURES = {
    "case1(1,1)": lambda: matrix_case_triple(1, 1, [[1.5]]),
    "case1(2,2)": lambda: matrix_case_triple(2, 2, 0.7 * UNITARY2),
    "case2(2,2)": lambda: matrix_case_triple(2, 2, np.diag([1.0, 2.0j])),
    "case2(3,2)": lambda: matrix_case_triple(3, 2, [[1.0, 0.5j], [0.0, 2.0], [0.3, 0.0]]),
    "case2(2,3)": lambda: matrix_case_triple(2, 3, [[1.0, 0.0, 0.3], [0.5j, 2.0, 0.0]]),
    "case3(2,1)": lambda: matrix_case_triple(2, 1, [[0.6], [0.8j]]),
    "case3(1,2)": lambda: matrix_case_triple(1, 2, [[0.6, 0.8j]]),
    "case3(3,2)": lambda: matrix_case_triple(3, 2, [[1.0, 0.0], [0.0, 1.0j], [0.0, 0.0]]),
    "case3(2,3)": lambda: matrix_case_triple(2, 3, [[1.0, 0.0, 0.0], [0.0, 1.0j, 0.0]]),
    "doubled-odd": lambda: double_odd(
        FiniteTriple(2, [np.eye(2), np.diag([1.0, 0.0])], np.array([[0.0, 1.0], [1.0, 0.0]]))
    ),
    "product(1,1)x(1,1)": lambda: product_triple(
        matrix_case_triple(1, 1, [[1.0]]), matrix_case_triple(1, 1, [[2.0j]])
    ),
    "product(2,1)x(1,1)": lambda: product_triple(
        matrix_case_triple(2, 1, [[0.6], [0.8j]]), matrix_case_triple(1, 1, [[1.0]])
    ),
    "product(2,2)x(1,1)": lambda: product_triple(
        matrix_case_triple(2, 2, np.diag([1.0, 2.0])), matrix_case_triple(1, 1, [[1.0j]])
    ),
    "product(2,1)x(2,1)": lambda: product_triple(
        matrix_case_triple(2, 1, [[0.6], [0.8j]]), matrix_case_triple(2, 1, [[1.0], [0.0]])
    ),
    "product(2,2)x(2,1)": lambda: product_triple(
        matrix_case_triple(2, 2, 0.7 * UNITARY2), matrix_case_triple(2, 1, [[0.6j], [0.8]])
    ),
}


@pytest.mark.parametrize("rotate", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("name", list(JUNK_FIXTURES))
def test_junk_space_matches_brute_force_reference(name, rotate):
    t = JUNK_FIXTURES[name]()
    if rotate:
        t = rotated(t, seed=len(name))
    junk, ref = junk_space(t), reference_junk(t)
    assert junk.dim == ref.dim
    assert subspaces_equal(junk, ref)


CASE_TABLE = [
    (1, 1, [[1.0]], MatrixCase.CASE1, 2),
    (2, 2, np.eye(2), MatrixCase.CASE1, 8),
    (2, 2, np.diag([1.0, 2.0]), MatrixCase.CASE2, 0),
    # case 3: junk eats the block whose coupling product is not ~1, so
    # dim Omega^2 = k^2 with k the size of the identity-coupled block
    (2, 1, [[1.0], [0.0]], MatrixCase.CASE3, 1),
    (3, 2, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], MatrixCase.CASE3, 4),
    (3, 1, [[1.0], [0.0], [0.0]], MatrixCase.CASE3, 1),
    (4, 2, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], MatrixCase.CASE3, 4),
    # mirrors (mu mu* ~ 1_p, p < q): the identity-coupled block is p
    (1, 2, [[1.0, 0.0]], MatrixCase.CASE3, 1),
    (1, 3, [[1.0, 0.0, 0.0]], MatrixCase.CASE3, 1),
    (2, 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], MatrixCase.CASE3, 4),
    (2, 4, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], MatrixCase.CASE3, 4),
]


@pytest.mark.parametrize("p,q,mu,case,omega2", CASE_TABLE)
def test_matrix_case_table(p, q, mu, case, omega2):
    assert classify_matrix_case(p, q, mu) is case
    rep = form_report(matrix_case_triple(p, q, mu))
    assert rep.dim_omega2 == omega2
    assert rep.dim_omega2 == rep.dim_pi_omega2 - rep.dim_junk


@pytest.mark.parametrize("scale", [1e-150, 1e-11, 1e-8, 1e-6, 1e-4, 1.0, 1e4, 1e8, 1e150])
def test_matrix_case_independent_of_coupling_scale(scale):
    """The case is that of mu / ||mu||, so every coupling keeps its case under
    scaling, also far below the rank cut and where ||mu||^2 would overflow, and
    the case agrees with the form spaces: a random coupling is case 2 with
    dim Omega^2 = 0 at every scale."""
    for p, q, mu, case, _ in CASE_TABLE:
        assert classify_matrix_case(p, q, scale * np.asarray(mu)) is case, (p, q, mu)
    # Case 1 needs p = q: the 2 x 2 product mu mu* is a rank-one projection
    assert classify_matrix_case(2, 1, scale * np.array([[0.6], [0.8]])) is MatrixCase.CASE3
    unitary = scale * 0.7 * UNITARY2
    assert classify_matrix_case(2, 2, unitary) is MatrixCase.CASE1
    assert form_report(matrix_case_triple(2, 2, unitary)).dim_omega2 == 8
    generic = scale * (np.random.default_rng(3).standard_normal((2, 2, 2)) @ [1.0, 1.0j])
    assert classify_matrix_case(2, 2, generic) is MatrixCase.CASE2
    assert form_report(matrix_case_triple(2, 2, generic)).dim_omega2 == 0


def _exact_row_basis(vectors):
    """Echelon basis of the span of rational vectors, by Fraction elimination.

    Each row is reduced against the pivot rows in the order they were found;
    every later pivot row is already zero at the earlier pivot columns.
    """
    pivots = {}
    for v in vectors:
        v = list(v)
        for col, row in pivots.items():
            if v[col]:
                c = v[col]
                v = [x - c * y for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = 1 / v[lead]
            pivots[lead] = [x * inv for x in v]
    return list(pivots.values())


def _exact_form_dims(p, q, mu):
    """(dim Omega^1, dim pi(Omega^2), dim junk, dim Omega^2) over the rationals.

    Builds M_p (+) M_q and D = [[0, mu], [mu*, 0]] from Fractions, without
    ncym. Over pairs x = (b_i, c_j) of basis elements let
    phi(x) = sum x_ij b_i [D, c_j] and psi(x) = sum x_ij [D, b_i][D, c_j]. Then
    junk = psi(ker phi), and
        dim psi(ker phi) = rank(phi (+) psi) - rank(phi),
    since ker(phi (+) psi) = ker phi cap ker psi. The image of phi is Omega^1.
    """
    d = p + q
    zero = Fraction(0)

    def unit(i, j):
        m = [[zero] * d for _ in range(d)]
        m[i][j] = Fraction(1)
        return m

    def mm(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]

    def com(a, b):
        ab, ba = mm(a, b), mm(b, a)
        return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]

    def flat(m):
        return [x for row in m for x in row]

    basis = [unit(i, j) for i in range(p) for j in range(p)]
    basis += [unit(p + i, p + j) for i in range(q) for j in range(q)]
    dirac = [[zero] * d for _ in range(d)]
    for i in range(p):
        for j in range(q):
            dirac[i][p + j] = dirac[p + j][i] = Fraction(mu[i][j])
    coms = [com(dirac, b) for b in basis]
    phi = [flat(mm(b, dc)) for b in basis for dc in coms]
    psi = [flat(mm(db, dc)) for db in coms for dc in coms]
    omega1 = _exact_row_basis(phi)
    # pi(Omega^2) = span{omega [D, c] : omega in Omega^1}
    pi2 = _exact_row_basis(
        flat(mm([w[i * d:(i + 1) * d] for i in range(d)], dc)) for w in omega1 for dc in coms
    )
    junk = len(_exact_row_basis(x + y for x, y in zip(phi, psi))) - len(omega1)
    return len(omega1), len(pi2), junk, len(pi2) - junk


@pytest.mark.parametrize(
    "p,q,mu,omega2",
    [
        (1, 1, [[1]], 2),
        (2, 2, [[1, 0], [0, 1]], 8),
        (2, 2, [[1, 0], [0, 2]], 0),
        # case 3, both orientations: k^2 with k the identity-coupled block
        (2, 1, [[1], [0]], 1),
        (1, 2, [[1, 0]], 1),
        (3, 1, [[1], [0], [0]], 1),
        (1, 3, [[1, 0, 0]], 1),
        (3, 2, [[1, 0], [0, 1], [0, 0]], 4),
        (2, 3, [[1, 0, 0], [0, 1, 0]], 4),
    ],
)
def test_form_dims_match_exact_oracle(p, q, mu, omega2):
    """form_report's SVD rank decisions agree with exact rational elimination."""
    exact = _exact_form_dims(p, q, mu)
    assert exact[3] == omega2
    rep = form_report(matrix_case_triple(p, q, mu))
    assert (rep.dim_omega1, rep.dim_pi_omega2, rep.dim_junk, rep.dim_omega2) == exact


def test_case_one_omega1_dim():
    rep = form_report(matrix_case_triple(1, 1, [[1.0]]))
    assert rep.dim_omega1 == 2


def test_pi_omega2_monotone_in_algebra_span():
    d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    small = FiniteTriple(2, [np.eye(2, dtype=complex)], d)
    large = diagonal_sigma1_triple()
    small_dim, large_dim = (pi_omega2_space(t).dim for t in (small, large))
    assert small_dim <= large_dim


def test_case_two_junk_is_everything():
    t = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    pi2 = pi_omega2_space(t)
    junk = junk_space(t)
    assert junk.dim == pi2.dim > 0


def test_classify_mirrored_and_errors():
    # p < q mirrored configuration normalizes by transposition to Case 3
    assert classify_matrix_case(1, 2, [[1.0, 0.0]]) is MatrixCase.CASE3
    with pytest.raises(ZeroMu):
        classify_matrix_case(2, 2, np.zeros((2, 2)))


def test_form_report_takes_one_relation_svd(monkeypatch):
    """Omega^1 and the junk share the triple's one SVD of R: building a triple takes
    one SVD (the span of its basis), its form report three (R, pi(Omega^2) and the
    junk images), and the triple keeps copies of only the kept singular vectors."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    t = matrix_case_triple(2, 1, [[0.6], [0.8j]])
    built = len(calls)
    form_report(t)
    assert (built, len(calls) - built) == (1, 3)
    relations = t._relations
    assert relations.left.base is None and relations.right.base is None
    assert relations.right.shape[0] == omega1_space(t).dim == relations.left.shape[1]


def _graded_stack(rows, cols, seed):
    """A complex rows x cols stack of rank k = cols // 2 + 1 in random bases:
    k // 2 + 1 singular values in [0.5, 1], the rest in [0.5e-4, 1e-4]."""
    rng = np.random.default_rng(seed)
    rank = cols // 2 + 1
    left = np.linalg.qr(rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, rank)) + 1j * rng.standard_normal((cols, rank)))[0]
    sv = rng.uniform(0.5, 1.0, rank) * np.where(np.arange(rank) < rank // 2 + 1, 1.0, 1e-4)
    return (left * sv) @ right.conj().T


@pytest.mark.parametrize("rows,cols", [(8, 4), (18, 9), (27, 9), (50, 10), (64, 16), (100, 5), (361, 19)])
def test_orthonormal_rows_of_tall_stacks_match_direct_svd(rows, cols):
    """Stacks of at least twice as many rows as columns take the SVD of their QR
    triangle. Against the direct thin SVD at every scale, with the default cut
    and with an explicit ``scale`` that drops the small singular values: the same
    rank, the same subspace, orthonormal rows; an all-zero stack spans nothing."""
    base = _graded_stack(rows, cols, seed=rows * cols)
    for magnitude in [1e-20, 1e-10, 1.0, 1e10, 1e20]:
        m = magnitude * base
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        for scale in (None, 1e7 * s[0]):
            direct = vh[s > RANK_TOL * (s[0] if scale is None else scale)]
            kept = _orthonormal_rows(m, scale)
            assert kept.shape == direct.shape, (magnitude, scale)
            assert kept.base is None
            assert np.linalg.norm(kept @ kept.conj().T - np.eye(len(kept))) < 1e-12
            assert subspaces_equal(OperatorSubspace(cols, kept), OperatorSubspace(cols, direct))
    assert _orthonormal_rows(np.zeros((rows, cols), dtype=complex)).shape == (0, cols)


def relation_stack(t):
    """The triple's relation stack R = vec(b_i [D, c_j]), formed as ``FiniteTriple._relations`` forms it."""
    dirac, basis = _unit_scaled(t.D), t._unit_basis
    return _pair_products(basis, dirac @ basis - basis @ dirac).reshape(-1, t.dim_h * t.dim_h)


def test_only_relation_stacks_reach_the_svd_tall(monkeypatch):
    """Every span of a stack with at least twice as many rows as nonzero columns
    (here the pi(Omega^2) generators and the junk images) goes to the SVD as its
    square QR triangle, so during form_report and product_check the only SVD
    inputs that tall are the relation stacks R, one per triple, whose thin U the
    junk needs. Each R arrives with only its rows and columns that are not
    exactly zero."""
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: shapes.append(np.shape(m)) or svd(m, *a, **k))
    t1 = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    t2 = matrix_case_triple(2, 1, [[0.6], [0.8j]])
    form_report(t1)
    form_report(t2)
    product_check(t1, t2)
    relations = []
    for t in (t1, t2, product_triple(t1, t2)):
        rel = relation_stack(t)
        assert rel.shape[1] == t.dim_h**2 and not rel.any(axis=0).all() and not rel.any(axis=1).all()
        relations.append((int(np.count_nonzero(rel.any(axis=1))), int(np.count_nonzero(rel.any(axis=0)))))
    assert sorted(shape for shape in shapes if shape[0] >= 2 * shape[1]) == sorted(relations)


def full_width_svd_cut(m, scale=None):
    """The rank cut with every column of ``m`` factorised: the reference for ``_svd_cut(m, scale, left=True)``."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * (s[0] if scale is None else scale)))
    return u[:, :rank], vh[:rank]


def full_width_orthonormal_rows(m, scale=None):
    """Row basis with every column of ``m`` factorised: the reference for ``_orthonormal_rows``."""
    if not m.any():
        return np.zeros((0, m.shape[1]), dtype=complex)
    if m.shape[0] >= 2 * m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    return full_width_svd_cut(m, scale)[1]


def orthonormal_rows_of(rows):
    return np.linalg.norm(rows @ rows.conj().T - np.eye(len(rows))) < 1e-12


def assert_matches_full_width(m, scale, left):
    """``_svd_cut`` against the full-width reference: the same rank and the same
    span (mutual containment), orthonormal rows that own their data, exact zeros
    in every column of ``m`` that is exactly zero; with ``left``, also the same
    column space of U, with orthonormal columns and exact zeros in every row of
    ``m`` that is exactly zero."""
    n = m.shape[1]
    u, rows = _svd_cut(m, scale, left)
    ref_u, ref_rows = full_width_svd_cut(m, scale) if left else (None, full_width_orthonormal_rows(m, scale))
    assert rows.shape == ref_rows.shape
    assert rows.base is None and orthonormal_rows_of(rows)
    assert np.all(rows[:, ~m.any(axis=0)] == 0)
    assert subspaces_equal(OperatorSubspace(n, rows), OperatorSubspace(n, ref_rows))
    if left:
        assert u.shape == ref_u.shape and u.base is None and orthonormal_rows_of(u.T)
        assert np.all(u[~m.any(axis=1)] == 0)
        assert subspaces_equal(OperatorSubspace(len(m), u.T), OperatorSubspace(len(m), ref_u.T))
    else:
        assert u is None


def recorded_cuts(monkeypatch, build):
    """Every (stack, scale, left) that ``_svd_cut`` sees while ``build()`` runs."""
    calls = []
    cut = finite._svd_cut

    def record(m, scale=None, left=False):
        calls.append((m.copy(), scale, left))
        return cut(m, scale, left)

    monkeypatch.setattr(finite, "_svd_cut", record)
    build()
    return calls


COMPRESSION_CASES = {
    **{f"case-table ({p},{q}) {case.value}": (lambda p=p, q=q, mu=mu: matrix_case_triple(p, q, mu))
       for p, q, mu, case, _ in CASE_TABLE},
    **{f"rotated {name}": (lambda name=name: rotated(JUNK_FIXTURES[name](), seed=len(name))) for name in JUNK_FIXTURES},
    "zero D": zero_dirac_triple,
}


@pytest.mark.parametrize("name", list(COMPRESSION_CASES))
def test_svd_cut_matches_full_width_on_every_form_stack(monkeypatch, name):
    """Every stack whose rank is cut while a triple is built and its form report
    formed (the basis span, R, the pi(Omega^2) generators, the junk images) gives
    what the full-width cut gives. The even two-block triples drop columns; a
    rotated triple's grading is not diagonal, so it keeps (nearly) all of them;
    with D = 0 every column of R is zero."""
    calls = recorded_cuts(monkeypatch, lambda: form_report(COMPRESSION_CASES[name]()))
    assert [left for _, _, left in calls].count(True) == 1
    for m, scale, left in calls:
        assert_matches_full_width(m, scale, left)
    relation = next(m for m, _, left in calls if left)
    if name.startswith("case-table"):
        assert not relation.any(axis=0).all()
    if name == "zero D":
        assert not relation.any()


def test_svd_cut_matches_full_width_in_a_product_check(monkeypatch):
    """The same on the product check, whose sums and intersections of subspaces also cut ranks."""
    t1 = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    t2 = matrix_case_triple(2, 1, [[0.6], [0.8j]])
    calls = recorded_cuts(monkeypatch, lambda: product_check(t1, t2))
    assert len(calls) > 10 and [left for _, _, left in calls].count(True) == 3
    for m, scale, left in calls:
        assert_matches_full_width(m, scale, left)


@settings(max_examples=80, deadline=None)
@given(
    core=st.integers(0, 12),
    extra_rows=st.integers(0, 30),
    pad=st.integers(1, 12),
    row_pad=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    magnitude=st.sampled_from([1e-20, 1e-5, 1.0, 1e10, 1e20]),
    explicit_scale=st.booleans(),
    left=st.booleans(),
)
def test_svd_cut_of_zero_padded_stacks_matches_full_width(
    core, extra_rows, pad, row_pad, seed, magnitude, explicit_scale, left
):
    """A graded random stack with zero columns and zero rows put in at random
    places, short or tall, at any magnitude, with the default cut and with an
    explicit ``scale`` that drops its small singular values; ``core = 0`` is all
    zero. With ``left``, U is exactly zero on the zero rows."""
    rows = core // 2 + 1 + extra_rows
    m = np.zeros((rows + row_pad, core + pad), dtype=complex)
    if core:
        gen = np.random.default_rng(seed)
        place = np.sort(gen.permutation(core + pad)[:core])
        height = np.sort(gen.permutation(rows + row_pad)[:rows])
        m[np.ix_(height, place)] = magnitude * _graded_stack(rows, core, seed)
    top = np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0
    assert_matches_full_width(m, 1e7 * top if explicit_scale else None, left)


#: (p, q, coupling class) of every two-block triple whose form spaces the
#: benchmark's finite workload times, dim_h = p + q from 2 to 9
BENCHMARK_FORM_SHAPES = [
    (1, 1, 1), (2, 1, 3), (1, 2, 3), (1, 3, 3), (2, 2, 1), (2, 2, 2), (3, 1, 3), (3, 2, 2),
    (2, 3, 3), (3, 2, 3), (1, 4, 3), (4, 1, 3), (5, 1, 3), (1, 5, 3), (3, 3, 1), (3, 3, 2),
    (4, 2, 2), (2, 4, 3), (4, 3, 2), (3, 4, 3), (4, 4, 1), (4, 4, 2), (5, 3, 3), (5, 4, 2),
    (4, 5, 3),
]


@pytest.mark.parametrize("p,q,klass", BENCHMARK_FORM_SHAPES)
def test_matrix_case_dims_on_benchmark_shapes(p, q, klass):
    """dim Omega^2 is p^2 + q^2 in case 1, 0 in case 2 and min(p, q)^2 in case 3
    on random couplings of each class: a Gaussian block for case 2, orthonormal
    columns of the larger side times a scale otherwise."""
    gen = np.random.default_rng([p, q, klass])
    if klass == 2:
        mu = gen.normal(size=(p, q)) + 1j * gen.normal(size=(p, q))
    else:
        cols, _ = np.linalg.qr(gen.normal(size=(max(p, q), min(p, q))))
        mu = gen.uniform(0.5, 2.0) * (cols if p >= q else cols.T)
    assert classify_matrix_case(p, q, mu) is MatrixCase(f"Case{klass}")
    expected = {1: p * p + q * q, 2: 0, 3: min(p, q) ** 2}[klass]
    rep = form_report(matrix_case_triple(p, q, mu))
    assert rep.dim_omega2 == rep.dim_pi_omega2 - rep.dim_junk == expected


def recorded_subspaces(monkeypatch, build):
    """Every subspace built while ``build()`` runs, by the checked constructor
    or from ``_svd_cut``'s rows (``OperatorSubspace._of_rows``)."""
    built = []
    init, of_rows = OperatorSubspace.__init__, OperatorSubspace._of_rows

    def record(self, *args):
        init(self, *args)
        built.append(self)

    def record_rows(rows):
        space = of_rows(rows)
        built.append(space)
        return space

    monkeypatch.setattr(OperatorSubspace, "__init__", record)
    monkeypatch.setattr(OperatorSubspace, "_of_rows", record_rows)
    build()
    monkeypatch.undo()
    return built


def test_form_space_bases_own_their_data(monkeypatch):
    """Every basis that _forms and product_check build, by the checked
    constructor or from ``_svd_cut``'s rows, is its own array: a view of the
    kept rows would keep the whole thin SVD factor alive."""
    t1 = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    t2 = matrix_case_triple(2, 1, [[0.6], [0.8j]])
    built = recorded_subspaces(monkeypatch, lambda: (_forms(t1), product_check(t1, t2)))
    assert len(built) > 10
    assert all(space.basis.base is None for space in built)


@pytest.mark.parametrize(
    "build",
    [
        lambda: [form_report(make()) for make in JUNK_FIXTURES.values()],
        lambda: [form_report(rotated(make(), seed=3)) for make in JUNK_FIXTURES.values()],
        lambda: product_check(matrix_case_triple(2, 2, 0.7 * UNITARY2), matrix_case_triple(2, 1, [[0.6j], [0.8]])),
        lambda: product_check(
            rotated(matrix_case_triple(2, 1, [[0.6], [0.8j]]), seed=5), matrix_case_triple(2, 2, np.diag([1.0, 2.0j]))
        ),
    ],
    ids=["form-reports", "rotated-form-reports", "product-check", "rotated-product-check"],
)
def test_spans_cut_by_svd_are_orthonormal(monkeypatch, build):
    """The spans taken from ``_svd_cut``'s rows skip the constructor's Gram
    check; every basis form_report and product_check build, those included,
    has orthonormal rows within the check's 1e-10."""
    built = recorded_subspaces(monkeypatch, build)
    assert len(built) > 10
    for space in built:
        gram = space.basis @ space.basis.conj().T
        assert np.linalg.norm(gram - np.eye(space.dim)) <= 1e-10


def test_form_report_projector_properties():
    """The quotient projector I - C C*, built here from the form bases, with C the
    junk basis in pi(Omega^2) coordinates, is an orthogonal projector of rank
    dim_omega2: the report's dimensions say all that is basis-free about it."""
    triples = [matrix_case_triple(2, 1, [[1.0], [0.0]]), diagonal_sigma1_triple()]
    triples += [make() for make in JUNK_FIXTURES.values()]
    for t in triples:
        _, pi2, junk = _forms(t)
        coords = pi2.basis.conj() @ junk.basis.T
        pmat = np.eye(pi2.dim) - coords @ coords.conj().T
        assert np.linalg.norm(pmat @ pmat - pmat) < 1e-10
        assert np.linalg.norm(pmat - pmat.conj().T) < 1e-10
        assert int(round(np.trace(pmat).real)) == form_report(t).dim_omega2


def test_dimensions_invariant_under_basis_shuffle():
    rng = np.random.default_rng(7)
    t = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    order = rng.permutation(len(t.algebra_basis))
    shuffled = FiniteTriple(t.dim_h, [t.algebra_basis[i] for i in order], t.D, t.gamma)
    a, b = form_report(t), form_report(shuffled)
    assert (a.dim_omega1, a.dim_pi_omega2, a.dim_junk) == (b.dim_omega1, b.dim_pi_omega2, b.dim_junk)


def test_double_odd():
    e1 = np.diag([1.0, 0.0]).astype(complex)
    odd = FiniteTriple(2, [np.eye(2, dtype=complex), e1], np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    even = double_odd(odd)
    assert even.gamma is not None and even.dim_h == 4
    g = even.gamma
    assert np.linalg.norm(g @ g - np.eye(4)) < 1e-14
    assert np.linalg.norm(g @ even.D + even.D @ g) < 1e-14
    fo, fe = form_report(odd), form_report(even)
    assert (fo.dim_omega1, fo.dim_omega2) == (fe.dim_omega1, fe.dim_omega2)
    with pytest.raises(AlreadyEven):
        double_odd(even)


def test_double_odd_scalar_triple():
    t = FiniteTriple(1, [np.eye(1, dtype=complex)], np.array([[2.5]], dtype=complex))
    doubled = double_odd(t)
    rep = form_report(doubled)
    assert (rep.dim_omega1, rep.dim_omega2) == (0, 0)


def test_product_triple_structure():
    t1 = matrix_case_triple(1, 1, [[1.0]])
    t2 = matrix_case_triple(1, 1, [[2.0]])
    prod = product_triple(t1, t2)
    assert prod.dim_h == 4 and prod.gamma is not None
    # D^2 = D1^2 (x) 1 + 1 (x) D2^2 when gamma1 anticommutes with D1
    lhs = prod.D @ prod.D
    rhs = np.kron(t1.D @ t1.D, np.eye(2)) + np.kron(np.eye(2), t2.D @ t2.D)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert unitary_equivalence_defect(t1, t2) < 1e-12


def test_product_triple_trivial_factor_preserves_forms():
    t1 = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    prod = product_triple(t1, trivial_triple())
    a, b = form_report(t1), form_report(prod)
    assert (a.dim_omega1, a.dim_pi_omega2, a.dim_junk, a.dim_omega2) == (
        b.dim_omega1,
        b.dim_pi_omega2,
        b.dim_junk,
        b.dim_omega2,
    )


def test_product_requires_grading_or_doubling():
    odd = FiniteTriple(2, [np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)],
                       np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    t2 = trivial_triple()
    with pytest.raises(MissingGrading, match="grading"):
        product_triple(odd, t2)
    prod = product_triple(double_odd(odd), t2)
    assert prod.dim_h == 4


@pytest.mark.parametrize(
    "make1,make2",
    [
        (lambda: matrix_case_triple(1, 1, [[1.0]]), lambda: matrix_case_triple(1, 1, [[1.0]])),
        (lambda: matrix_case_triple(1, 1, [[1.0]]), lambda: trivial_triple()),
        (lambda: matrix_case_triple(2, 2, np.diag([1.0, 2.0])), lambda: matrix_case_triple(1, 1, [[1.0]])),
        (lambda: matrix_case_triple(2, 1, [[1.0], [0.0]]), lambda: matrix_case_triple(1, 1, [[1.0]])),
    ],
)
def test_decomposition_and_hypothesis(make1, make2):
    t1, t2 = make1(), make2()
    checks = product_check(t1, t2).checks
    assert checks["omega1_ok"] and checks["numerator_ok"]
    assert checks["denominator_ok"] and checks["intersection_zero"]
    assert checks["hypothesis_holds"]
    assert checks["orthogonality"]


PRODUCT_FACTORS = [
    (lambda: matrix_case_triple(1, 1, [[1.0]]), lambda: matrix_case_triple(1, 1, [[1.0]])),
    (lambda: matrix_case_triple(2, 1, [[0.6], [0.8j]]), lambda: matrix_case_triple(1, 1, [[1.0]])),
    (lambda: matrix_case_triple(2, 2, np.diag([1.0, 2.0])), lambda: trivial_triple()),
]


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160] + EXTREME_SCALES)
@pytest.mark.parametrize("factors", range(len(PRODUCT_FACTORS)))
def test_product_check_same_at_every_basis_scale(factors, scale):
    """Scaling both factors' bases leaves the product check as it is at scale 1:
    built from the raw bases, the product basis overflowed to inf from about
    1e160 and underflowed to 0 by 1e-200."""
    t1, t2 = (make() for make in PRODUCT_FACTORS[factors])
    scaled = [FiniteTriple(t.dim_h, [scale * a for a in t.algebra_basis], t.D, t.gamma) for t in (t1, t2)]
    assert product_check(*scaled) == product_check(t1, t2)
    assert form_report(product_triple(*scaled)) == form_report(product_triple(t1, t2))


def test_decomposition_with_grading_outside_algebra():
    # doubled odd triple: gamma = 1 (x) sigma3 is NOT in the algebra, so the
    # gamma1 twist on the embedded legs genuinely matters here
    odd = FiniteTriple(2, [np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)],
                       np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    t1 = double_odd(odd)
    g = t1.gamma
    from ncym.finite import OperatorSubspace as OS

    alg = OS.span(t1.algebra_basis, t1.dim_h)
    assert not alg.contains(g)
    t2 = matrix_case_triple(1, 1, [[1.0]])
    checks = product_check(t1, t2).checks
    assert checks["omega1_ok"] and checks["numerator_ok"]
    assert checks["denominator_ok"] and checks["intersection_zero"]
    assert checks["hypothesis_holds"]
    assert checks["orthogonality"]


def test_numerator_sum_need_not_be_direct():
    # the two pi(Omega^2) legs overlap, yet the check passes (sum, not direct sum)
    t1 = matrix_case_triple(1, 1, [[1.0]])
    t2 = matrix_case_triple(1, 1, [[1.0]])
    from ncym.finite import _embedded_legs, _forms

    legs = _embedded_legs(t1, t2, _forms(t1), _forms(t2))
    dim = t1.dim_h * t2.dim_h
    first = OperatorSubspace.span(legs["pi2_first"], dim)
    second = OperatorSubspace.span(legs["pi2_second"], dim)
    assert intersection_dim(first, second) > 0
    assert product_check(t1, t2).checks["numerator_ok"]


# -- the sampled orthogonality check: the oracle for _orthogonal --


def sampled_orthogonal(cross, other, samples=100, seed=0):
    """|Trace(xi* eta)| <= ORTH_TOL for unit random combinations xi of cross, eta of other."""
    if cross.dim == 0 or other.dim == 0:
        return True
    gen = np.random.default_rng(seed)
    for _ in range(samples):
        cx = gen.normal(size=cross.dim) + 1j * gen.normal(size=cross.dim)
        cy = gen.normal(size=other.dim) + 1j * gen.normal(size=other.dim)
        xi, eta = cx @ cross.basis, cy @ other.basis
        xi = xi / max(np.linalg.norm(xi), 1e-300)
        eta = eta / max(np.linalg.norm(eta), 1e-300)
        if abs(np.vdot(xi, eta)) > ORTH_TOL:
            return False
    return True


def cross_and_pi2_legs(t1, t2):
    """The cross leg Omega^1 (x) Omega^1 and the sum of the pi2 legs, as product_check spans them."""
    legs = _embedded_legs(t1, t2, _forms(t1), _forms(t2))
    dim = t1.dim_h * t2.dim_h
    cross = OperatorSubspace.span(legs["one_one"], dim)
    return cross, OperatorSubspace.span(np.concatenate([legs["pi2_first"], legs["pi2_second"]]), dim)


ORTHOGONALITY_PRODUCTS = {
    "(1,1)x(1,1)": lambda: (matrix_case_triple(1, 1, [[1.0]]), matrix_case_triple(1, 1, [[1.0]])),
    "(1,1)xtrivial": lambda: (matrix_case_triple(1, 1, [[1.0]]), trivial_triple()),
    "(2,2)x(1,1)": lambda: (matrix_case_triple(2, 2, np.diag([1.0, 2.0])), matrix_case_triple(1, 1, [[1.0]])),
    "(2,1)x(1,1)": lambda: (matrix_case_triple(2, 1, [[1.0], [0.0]]), matrix_case_triple(1, 1, [[1.0]])),
    "(1,1)x(2,2)": lambda: (matrix_case_triple(1, 1, [[1.0]]), matrix_case_triple(2, 2, np.diag([1.0, 2.0]))),
    "rotated (2,1)x(2,1)": lambda: (
        rotated(matrix_case_triple(2, 1, [[1.0], [0.5]]), seed=3),
        rotated(matrix_case_triple(2, 1, [[1.0], [0.0]]), seed=4),
    ),
}


@pytest.mark.parametrize("name", list(ORTHOGONALITY_PRODUCTS))
def test_orthogonality_matches_sampled_check(name):
    t1, t2 = ORTHOGONALITY_PRODUCTS[name]()
    cross, pi2 = cross_and_pi2_legs(t1, t2)
    assert cross.dim > 0 or name == "(1,1)xtrivial"
    assert product_check(t1, t2).checks["orthogonality"]
    assert _orthogonal(cross, pi2) and sampled_orthogonal(cross, pi2)


@pytest.mark.parametrize(
    "first, second, orthogonal",
    [
        # e1 + i e2 against itself: Trace(xi* eta) = 1, the bilinear pairing is 0
        ([1.0, 1.0j, 0.0, 0.0], [1.0, 1.0j, 0.0, 0.0], False),
        # e1 + i e2 against e1 - i e2: Trace(xi* eta) = 0, the bilinear pairing is 1
        ([1.0, 1.0j, 0.0, 0.0], [1.0, -1.0j, 0.0, 0.0], True),
        # one direction shared at angle 45 degrees
        ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], False),
    ],
    ids=["same-complex-line", "hermitian-orthogonal", "real-overlap"],
)
def test_orthogonality_verdict_on_subspace_pairs(first, second, orthogonal):
    cross = OperatorSubspace(4, [np.divide(first, np.linalg.norm(first))])
    # E21, orthogonal to every first vector, comes first: the overlap is off the diagonal
    other = OperatorSubspace(4, [[0.0, 0.0, 1.0, 0.0], np.divide(second, np.linalg.norm(second))])
    assert _orthogonal(cross, other) == sampled_orthogonal(cross, other) == orthogonal


def test_orthogonality_seed_independent():
    # the sampled check gives the exact verdict whatever its seed
    t1 = matrix_case_triple(1, 1, [[1.0]])
    t2 = matrix_case_triple(2, 2, np.diag([1.0, 2.0]))
    cross, pi2 = cross_and_pi2_legs(t1, t2)
    a = sampled_orthogonal(cross, pi2, samples=30, seed=1)
    b = sampled_orthogonal(cross, pi2, samples=30, seed=999)
    assert a == b == product_check(t1, t2).checks["orthogonality"] == True


def test_decomposition_requires_even_first_factor():
    odd = FiniteTriple(2, [np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)],
                       np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(MissingGrading):
        product_check(odd, trivial_triple())


def test_triple_serialization_round_trip():
    t = matrix_case_triple(2, 1, [[1.0], [0.5 + 0.25j]])
    payload = json.loads(json.dumps(t.to_payload()))
    back = FiniteTriple(**vars(cfg.read_triple(payload, "triple.json")))
    assert back.dim_h == t.dim_h
    assert np.array_equal(back.D, t.D)
    assert np.array_equal(back.gamma, t.gamma)
    for a, b in zip(t.algebra_basis, back.algebra_basis):
        assert np.array_equal(a, b)
