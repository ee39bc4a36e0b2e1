"""Operator-space calculus for finite-dimensional matrix spectral triples.

Computes the degree-1 and degree-2 form spaces
    Omega^1 = span{a [D, b]},
    pi(Omega^2) = span{a [D, b] [D, c]},
    junk = span{ sum [D, b_j][D, c_j] : sum b_j [D, c_j] = 0 },
their dimensions and the quotient Omega^2 = pi(Omega^2) / junk, as well as
product triples D = D1 (x) 1 + gamma1 (x) D2 and one pass of the
decomposition / hypothesis / orthogonality checks for them (``product_check``).

Omega^1 and the junk come from the triple's one relation SVD
(``FiniteTriple._relations``). Over the pairs (b_i, c_j) of algebra basis
elements stack the rows R = vec(b_i [D, c_j]) and P = vec([D, b_i][D, c_j]),
and cut the thin SVD R = U S V* at ``RANK_TOL``. Omega^1 is the row space of
R, the kept rows of V*. A relation is a row vector z over the pairs with
z R = 0, that is z U = 0 for the kept columns U, an orthonormal basis of the
column space of R; these z are the row space of 1 - U U*, so

    junk = row space of P - U (U* P).

The nonzero singular values of P - U (U* P) equal those of (kernel basis of
the relation map (b, c) -> b [D, c]) P, so the rank cut against the largest
product norm is the one the kernel images would get.

Every operator stack is one complex ``(k, d, d)`` array: the algebra basis,
a subspace's matrices, the form generators and the product legs. Products
over basis pairs are one GEMM (``_pair_products``), tensor products of two
stacks one broadcast multiply (``_kron``).

All subspaces live in the dim_h^2-dimensional operator space with the
Frobenius inner product, each held as orthonormal rows of that width. Every
factorisation, projection and containment test works on the block of its
stack that is not exactly zero. In an even triple about half of every form
stack's columns are zero (1-forms are odd, pi(Omega^2) and the junk even),
and many rows of R and of the products of basis elements are; the rule is
"exactly zero", not parity, so an odd triple or a grading that is not
diagonal just finds fewer, and a stack with no zero row or column is
factorised and projected whole.

- Ranks are decided at relative threshold ``RANK_TOL``, in one routine
  (``_svd_cut``) that works only on the nonzero rows and columns and puts
  the kept rows of V* back into the full width, and U into the full height.
  A span of a block with at least twice as many rows as columns (the
  pi(Omega^2) generators, the junk images) is first offered to an exact
  certificate (``_full_rank_proved``: a square block of pivot rows whose
  smallest singular value clears the threshold by a rounding margin). A
  proved block keeps every column, and its span is their unit coordinate
  rows with no factorisation; any other takes the SVD of its triangular QR
  factor, which has the same row space and singular values. R keeps its own
  thin SVD, whose U the junk needs. These bases are orthonormal by
  construction and skip the public constructor's Gram check.
- The junk projection P - U (U* P) is formed on U's nonzero rows and P's
  nonzero columns; every other entry of P passes through as it is.
- A stack lies in a subspace when each projection residual is at most
  ``CONTAIN_TOL`` (one projection per stack, ``OperatorSubspace.contains``).
  Its zero operators are dropped, the residual is projected on the basis's
  nonzero columns, and the stack's other columns enter its norm as they are.
  On a basis of unit coordinate rows (entries 1, -1, i, -i: the proved
  spans, and spans such as the matrix units') that residual is exactly 0 on
  finite entries, so it is taken without projecting, with the same verdict.
  Subspace equality is mutual containment.

``FiniteTriple`` checks closure under adjoint and product, and commutation
with the grading, on its basis elements divided by their Frobenius norms,
and the self-adjointness of D and its anticommutation with the grading
relative to the norm of D, so these verdicts do not depend on the scale of
the basis or of D. The form spaces are formed
from D and from each basis element times the power of two that brings its
largest part into [1/2, 1) (``_unit_scaled``), which spans the same spaces,
so they do not depend on the scale of D or of the basis either; the norms
of the structure checks are taken on the same scaled matrices, so none of
them overflows or underflows. ``classify_matrix_case`` classifies
mu / ||mu||, scaled the same way first.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import AlreadyEven, InvalidTriple, MissingGrading, ZeroMu

RANK_TOL = 1e-10
CONTAIN_TOL = 1e-9
STRUCT_TOL = 1e-12
#: bound on the largest |Trace(xi* eta)| over unit xi, eta in the orthogonality check
ORTH_TOL = 1e-10

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _unit_scaled(m: np.ndarray, axis=None) -> np.ndarray:
    """The complex array m times the power of two that brings its largest real or
    imaginary part into [1/2, 1): exact, by ``ldexp`` on the parts (0 stays 0).

    ``axis`` (say ``(1, 2)`` for a stack of matrices) scales each slice along
    the other axes by its own power of two.
    """
    parts = np.ascontiguousarray(m).view(float)
    return np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=axis, keepdims=True))[1]).view(complex)


def _nonzero(mask: np.ndarray):
    """The indices where the 1-d ``mask`` holds, or ``None`` when it holds everywhere."""
    where = mask.nonzero()[0]
    return None if len(where) == len(mask) else where


def _block(rows, cols):
    """The index of a 2-d array's block on the given rows and columns (``None``: all of them)."""
    if rows is None or cols is None:
        return (slice(None) if rows is None else rows, slice(None) if cols is None else cols)
    return rows[:, None], cols


def _svd_cut(m: np.ndarray, scale: float | None = None, left: bool = False):
    """The rank cut of the 2-d array ``m``: (u, vh), the kept left singular
    vectors as columns (``None`` unless ``left``) and the kept right singular
    vectors as rows, each its own array.

    A singular value s is kept when s > RANK_TOL * scale. ``scale`` defaults
    to the largest singular value; pass it when the rows arise from
    cancellations so roundoff residue is not mistaken for span.

    Only the block of ``m`` on its rows and columns that are not exactly zero
    is factorised. Dropping a zero column leaves the singular values and U as
    they are, and the rows of V* are zero there; dropping a zero row leaves
    the singular values and V* as they are, and U is zero there. So the kept
    rows of V* are put back into the full width with exact zeros in the
    dropped columns, and with ``left`` the kept columns of U into the full
    height with exact zeros in the dropped rows. In an even triple each form
    stack is zero on about half of the dim_h^2 coordinates (1-forms are odd
    for the grading, pi(Omega^2) and the junk even), and many products of
    basis elements vanish; a stack with no zero row or column is factorised
    whole, and an all-zero one spans nothing.

    Without ``left``, a block with at least twice as many rows as columns is
    first offered to ``_full_rank_proved``. When that proves the cut keeps
    every column, the span is all of the block's columns and the kept rows
    are their unit coordinate rows, in ascending column order, with no
    factorisation of the block. Otherwise the block is reduced to the
    triangular factor T of m = Q T, which has the row space and the singular
    values of ``m``; the SVD of the square T then never forms the tall thin
    U. LAPACK's complex divide-and-conquer SVD takes this same QR step itself
    once the rows exceed about 17/9 of the columns, so at a ratio of 2 or
    more ``vh`` and ``s`` of a block that is not proved are bit for bit those
    of the direct SVD of the block. Below that ratio they can differ by a
    rotation within degenerate singular values, so shorter blocks go to the
    SVD as they are.
    """
    rows, cols = _nonzero(m.any(axis=1)), _nonzero(m.any(axis=0))
    kept = m[_block(rows, cols)]
    if not kept.size:
        u = np.zeros((m.shape[0], 0), dtype=complex) if left else None
        return u, np.zeros((0, m.shape[1]), dtype=complex)
    if not left and kept.shape[0] >= 2 * kept.shape[1]:
        if _full_rank_proved(kept, scale):
            n = kept.shape[1]
            full_vh = np.zeros((n, m.shape[1]), dtype=complex)
            full_vh[np.arange(n), np.arange(n) if cols is None else cols] = 1
            return None, full_vh
        kept = np.linalg.qr(kept, mode="r")
    u, s, vh = np.linalg.svd(kept, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * (s[0] if scale is None else scale)))
    full_vh = np.zeros((rank, m.shape[1]), dtype=complex)
    full_vh[_block(None, cols)] = vh[:rank]
    if not left:
        return None, full_vh
    full_u = np.zeros((m.shape[0], rank), dtype=complex)
    full_u[_block(rows, None)] = u[:, :rank]
    return full_u, full_vh


def _full_rank_proved(m: np.ndarray, scale: float | None) -> bool:
    """Whether the r x c block ``m`` (no zero row or column, r >= 2c) is proved,
    without factorising it, to keep all c singular values at ``_svd_cut``'s
    threshold, RANK_TOL times ``scale`` or the largest singular value s[0].

    Take the row holding each column's largest-modulus entry. If those c rows
    are distinct they form a square block P of ``m``, and three facts bound
    the cut that factorising ``m`` would make:

    - sigma_min(m) >= sigma_min(P), since ||m x|| >= ||P x|| for every x when
      P's rows are some of m's;
    - s[0] = ||m||_2 <= ||m||_F =: F;
    - rounding. QR and SVD are backward stable, so each singular value that
      ``_svd_cut`` computes from QR and SVD is that of m + E with
      ||E||_F <= e1 F, and the computed sigma_min(P) that of P + E' with
      ||E'||_F <= e2 ||P||_F <= e2 F; by Weyl each is within e1 F, resp.
      e2 F, of the exact value. Householder QR gives e1 <= g(rc) + g(c^2)
      and the SVD of P e2 <= g(c^2) (Higham, *Accuracy and Stability of
      Numerical Algorithms*, Thm 19.4 and ch. 19-20), with g(k) = 4 k u =
      2 k eps, u the unit roundoff. As c^2 <= rc / 2, e1 + e2 <= 4 rc eps;
      the rounding of F's sum of squares (rc u) and RANK_TOL times e1 (the
      excess of the computed s[0] over F) fit in as much again.

    So the computed smallest singular value of ``m`` is at least
    sigma_P - (e1 + e2) F, for the computed sigma_P, and its threshold at
    most RANK_TOL (scale or F (1 + e1)): every column is kept when

        sigma_P > RANK_TOL * (scale or F) + 8 r c eps F,

    with F as computed. F and sigma_P are taken on ``m`` times the power of
    two that brings its largest modulus into [1/2, 1), exactly (``scale`` by
    the same power), so F, the norm of r c moduli below 1, neither overflows
    nor underflows, whatever the scale of ``m``. A block with a non-finite
    entry (or a modulus that overflows) is never proved, so the factorising
    path meets it as before.
    """
    r, c = m.shape
    modulus = np.abs(m)
    top = modulus.max()
    if not np.isfinite(top):
        return False
    pivots = modulus.argmax(axis=0)
    if len(set(pivots.tolist())) < c:
        return False
    power = -np.frexp(top)[1]
    fro = np.linalg.norm(np.ldexp(modulus, power, out=modulus))
    pivot_block = np.ldexp(np.ascontiguousarray(m[pivots]).view(float), power).view(complex)
    sigma = np.linalg.svd(pivot_block, compute_uv=False)[-1]
    bound = fro if scale is None else np.ldexp(scale, power)
    return bool(sigma > RANK_TOL * bound + 8 * r * c * np.finfo(float).eps * fro)


def _orthonormal_rows(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of the 2-d array ``m``, cut by ``_svd_cut``."""
    return _svd_cut(m, scale)[1]


class OperatorSubspace:
    """Subspace of the operator space, held as an orthonormal row basis.

    The public constructor takes a 2-d basis and checks that its rows are
    orthonormal, to 1e-10 in the Frobenius norm of Gram - 1; a basis with a
    non-finite entry fails that check, and any other shape is a
    ``ValueError`` too. The spans this module cuts by ``_svd_cut`` are
    orthonormal by construction and are made by ``_of_rows`` without the
    check. A basis whose rows are unit coordinate rows (one nonzero entry
    each, exactly 1, -1, i or -i) is tested for containment without
    projecting (``_holds``).
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.size == 0:
            basis = np.zeros((0, ambient_dim), dtype=complex)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        if basis.shape[1] != ambient_dim:
            raise ValueError("basis vectors have wrong ambient dimension")
        # a non-finite entry makes the defect inf or NaN, which compares false:
        # the test is that the defect is small, not that it is not large
        with np.errstate(invalid="ignore", over="ignore"):
            defect = np.linalg.norm(basis @ basis.conj().T - np.eye(basis.shape[0]))
        if basis.shape[0] and not defect <= 1e-10:
            raise ValueError("basis is not orthonormal")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> "OperatorSubspace":
        """The span of the orthonormal rows that ``_svd_cut`` returns, taken as they are."""
        space = cls.__new__(cls)
        space.ambient_dim, space.basis = rows.shape[1], rows
        return space

    @classmethod
    def span(cls, matrices, dim_h: int) -> "OperatorSubspace":
        """Span of a stack of dim_h x dim_h matrices."""
        dd = dim_h * dim_h
        return cls._of_rows(_orthonormal_rows(np.asarray(matrices, dtype=complex).reshape(-1, dd)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _support(self):
        """(order, width, basis*, basis, coordinate): the columns with the
        basis's nonzero ones first, each part in ascending order, how many
        nonzero ones there are, the basis on them conjugate transposed and as
        it is, and whether its rows are unit coordinate rows (one nonzero
        entry each, exactly 1, -1, i or -i)."""
        live = self.basis.any(axis=0)
        order = np.argsort(~live, kind="stable")
        width = int(live.sum())
        compact = self.basis[:, order[:width]]
        # no row is zero (the rows are orthonormal), so dim nonzero real and
        # imaginary parts, all of modulus 1, are one per row
        parts = np.abs(np.ascontiguousarray(compact).view(float))
        coordinate = bool(np.count_nonzero(parts) == self.dim == np.count_nonzero(parts == 1))
        return order, width, compact.conj().T, compact, coordinate

    def contains(self, stack) -> bool:
        """Whether every operator of ``stack`` has projection residual at most ``CONTAIN_TOL``.

        ``stack`` holds matrices or flattened vectors under any leading shape;
        an empty stack is contained in every subspace. Its operators that are
        exactly zero are dropped, and the rest are tested by ``_holds``.
        """
        vecs = np.asarray(stack, dtype=complex).reshape(-1, self.ambient_dim)
        return self._holds(vecs, _nonzero(vecs.any(axis=1)))

    def _holds(self, vecs: np.ndarray, rows=None) -> bool:
        """``contains`` for the given rows (``None``: all) of the 2-d array ``vecs``.

        On a column where the basis is exactly zero the residual is the vector
        itself. So the rows are copied out of ``vecs`` with their columns in
        ``_support``'s order, the part of the copy on the basis's nonzero
        columns is replaced in place by the projection residual there, and one
        norm is taken over that and the other columns' entries as they are:
        the hypot of the two parts' norms, neither taken by a difference. A
        norm of the other part taken as ||v||^2 - ||v_in||^2 would cancel, and
        the rounding of the two squares alone can exceed ``CONTAIN_TOL``^2.
        ``vecs`` itself is not written.

        For unit coordinate rows the projection v (B* B) on the basis's
        columns is v itself with no rounding: each product with an entry 0,
        1, -1, i or -i is exact, and each sum adds exact zeros to one term.
        So the residual there is exactly 0 for a finite entry, and it is
        taken as the entry times 0 without the two GEMMs. A non-finite entry
        times 0 is NaN, as its projection residual is (inf - inf), so the
        row's norm and the verdict are bit for bit the projection's.
        """
        order, width, basis_h, basis, coordinate = self._support
        residual = vecs[_block(rows, order)]
        inside = residual[:, :width]
        if coordinate:
            inside *= 0
        else:
            inside -= (inside @ basis_h) @ basis
        return bool(np.all(np.linalg.norm(residual, axis=1) <= CONTAIN_TOL))

    def matrices(self, dim_h: int) -> np.ndarray:
        """The basis as a (dim, dim_h, dim_h) stack."""
        return self.basis.reshape(-1, dim_h, dim_h)


def subspace_sum(*spaces) -> OperatorSubspace:
    return OperatorSubspace._of_rows(_orthonormal_rows(np.vstack([s.basis for s in spaces])))


def contains_subspace(big: OperatorSubspace, small: OperatorSubspace) -> bool:
    # orthonormal rows are never zero, so ``contains``'s zero-row pass is skipped
    return big._holds(small.basis)


def subspaces_equal(a: OperatorSubspace, b: OperatorSubspace) -> bool:
    return contains_subspace(a, b) and contains_subspace(b, a)


def intersection_dim(a: OperatorSubspace, b: OperatorSubspace) -> int:
    return a.dim + b.dim - subspace_sum(a, b).dim


#: the commutators [D, b_i], and the kept columns of U and rows of V* (Omega^1) of R = U S V*
_Relations = namedtuple("_Relations", "commutators left right")


class FiniteTriple:
    """Matrix spectral triple: algebra span, self-adjoint D, optional grading.

    ``algebra_basis`` is held as the (k, dim_h, dim_h) stack of the basis, and
    ``_unit_basis`` as the same stack with each element unit-scaled
    (``_unit_scaled``): the span is the same, and it is what the structure
    checks and the form spaces use.
    A triple is validated once, at construction, and not changed after.
    """

    def __init__(self, dim_h: int, algebra_basis, D, gamma=None):
        d = self.dim_h = int(dim_h)
        basis = [np.asarray(a, dtype=complex) for a in algebra_basis]
        self.D = np.asarray(D, dtype=complex)
        self.gamma = None if gamma is None else np.asarray(gamma, dtype=complex)
        for a in basis + [self.D]:
            if a.shape != (d, d):
                raise InvalidTriple(f"matrix of shape {a.shape}, expected {(d, d)}")
        if self.gamma is not None and self.gamma.shape != (d, d):
            raise InvalidTriple("gamma has wrong shape")
        self.algebra_basis = np.array(basis, dtype=complex).reshape(-1, d, d)
        for name, m in (("algebra basis", self.algebra_basis), ("D", self.D), ("gamma", self.gamma)):
            if m is not None and not np.all(np.isfinite(m)):
                raise InvalidTriple(f"{name} has a non-finite entry")
        self._unit_basis = _unit_scaled(self.algebra_basis, axis=(1, 2))
        self._validate()

    @cached_property
    def _relations(self) -> _Relations:
        """The commutators and R's one thin SVD, cut; the kept vectors only, as their own arrays.

        The form spaces of D and of s D are the same for s > 0, and so are
        those of bases that differ by a positive factor per element, so they
        are formed from ``_unit_scaled(D)`` and ``_unit_basis``, which keeps
        R and the products of commutators in range however D and the basis
        are scaled.
        """
        dirac, basis = _unit_scaled(self.D), self._unit_basis
        coms = dirac @ basis - basis @ dirac
        rel = _pair_products(basis, coms).reshape(-1, self.dim_h * self.dim_h)
        return _Relations(coms, *_svd_cut(rel, left=True))

    def _validate(self):
        # D's checks are relative to its norm, and the basis is divided by its
        # norms, all taken on unit-scaled matrices so that no norm can overflow
        # to inf (and let every defect pass) or underflow to 0
        d, dirac, g = self.dim_h, _unit_scaled(self.D), self.gamma
        if np.linalg.norm(dirac - dirac.conj().T) > STRUCT_TOL * np.linalg.norm(dirac):
            raise InvalidTriple("D is not self-adjoint")
        norms = np.linalg.norm(self._unit_basis, axis=(1, 2))
        nonzero = norms > 0
        unit = self._unit_basis[nonzero] / norms[nonzero, None, None]
        span = OperatorSubspace.span(unit, d)
        if not span.contains(np.eye(d)):
            raise InvalidTriple("algebra span does not contain the identity")
        if not span.contains(unit.conj().transpose(0, 2, 1)):
            raise InvalidTriple("algebra span not closed under adjoint")
        if not span.contains(_pair_products(unit, unit)):
            raise InvalidTriple("algebra span not closed under product")
        if g is None:
            return
        if np.linalg.norm(g - g.conj().T) > STRUCT_TOL:
            raise InvalidTriple("gamma is not self-adjoint")
        if np.linalg.norm(g @ g - np.eye(d)) > STRUCT_TOL:
            raise InvalidTriple("gamma^2 != 1")
        if np.linalg.norm(g @ dirac + dirac @ g) > STRUCT_TOL * np.linalg.norm(dirac):
            raise InvalidTriple("gamma does not anticommute with D")
        if np.any(np.linalg.norm(g @ unit - unit @ g, axis=(1, 2)) > STRUCT_TOL):
            raise InvalidTriple("gamma does not commute with the algebra")

    def to_payload(self) -> dict:
        payload = {
            "dim_h": self.dim_h,
            "algebra_basis": [_matrix_payload(a) for a in self.algebra_basis],
            "D": _matrix_payload(self.D),
        }
        if self.gamma is not None:
            payload["gamma"] = _matrix_payload(self.gamma)
        return payload


def _matrix_payload(m: np.ndarray) -> list:
    """A matrix as row-major [re, im] pairs, the format ``config.read_triple`` reads."""
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


# -- fixtures ---------------------------------------------------------------


def trivial_triple() -> FiniteTriple:
    """(C, C, D = 0), graded by 1."""
    one = np.array([[1.0 + 0j]])
    return FiniteTriple(1, [one], np.array([[0.0 + 0j]]), one)


def matrix_case_triple(p: int, q: int, mu) -> FiniteTriple:
    """The two-block matrix triple: algebra M_p + M_q, off-diagonal Dirac.

    H = C^p (+) C^q, D = [[0, mu], [mu*, 0]] with mu a p x q coupling block,
    grading diag(1_p, -1_q).

    The quotient Omega^2 is fixed by D^2 = diag(mu mu*, mu* mu). Whenever
    sum b_j [D, c_j] = 0, expanding the commutators gives

        sum [D, b_j][D, c_j] = sum b_j c_j D^2 - sum b_j D^2 c_j,

    so the junk vanishes on any block where D^2 is scalar and that block
    survives in Omega^2. With k the size of the identity-coupled block (the
    one whose coupling product is proportional to 1_k), the form spaces give
    (see ``classify_matrix_case`` for the cases):

    - Case 1 (p = q, both products ~ 1): dim Omega^2 = p^2 + q^2;
    - Case 2 (neither product ~ 1): dim Omega^2 = 0, the junk is all of
      pi(Omega^2);
    - Case 3 (exactly one product ~ 1): dim Omega^2 = k^2. In the normal form
      p >= q, mu* mu ~ 1_q this is q^2; for a mirrored mu it is p^2.

    dim Omega^2 is invariant under relabelling the blocks. Exact rational row
    reduction in ``tests/test_finite.py`` confirms these values for dim_h <= 5
    in both orientations; its SVD sweep extends to (4, 2) and (2, 4).
    """
    mu = np.asarray(mu, dtype=complex).reshape(p, q)
    d = p + q
    units = [(i, j) for i in range(p) for j in range(p)]
    units += [(p + i, p + j) for i in range(q) for j in range(q)]
    basis = np.zeros((len(units), d, d), dtype=complex)
    basis[(np.arange(len(units)), *zip(*units))] = 1.0
    dirac = np.zeros((d, d), dtype=complex)
    dirac[:p, p:] = mu
    dirac[p:, :p] = mu.conj().T
    gamma = np.diag([1.0] * p + [-1.0] * q).astype(complex)
    return FiniteTriple(d, basis, dirac, gamma)


# -- form spaces -------------------------------------------------------------


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of products a_i b_j over all pairs, a outer: shape (len(a) len(b), d, d).

    One GEMM, (a as (k d, d)) @ (b side by side as (d, l d)), whose (i, j)
    block is a_i b_j, then a transpose of the blocks into pair order.
    """
    (k, d, _), l = a.shape, len(b)
    blocks = a.reshape(k * d, d) @ b.transpose(1, 0, 2).reshape(d, l * d)
    return blocks.reshape(k, d, l, d).transpose(0, 2, 1, 3).reshape(k * l, d, d)


def omega1_space(t: FiniteTriple) -> OperatorSubspace:
    """span{a [D, b]} over algebra basis pairs: the row space of R."""
    return OperatorSubspace._of_rows(t._relations.right)


def pi_omega2_space(t: FiniteTriple) -> OperatorSubspace:
    """span{a [D, b] [D, c]} = span{omega [D, c] : omega in Omega^1}, with
    Omega^1 the row space of R that ``omega1_space`` also reads."""
    d, rel = t.dim_h, t._relations
    return OperatorSubspace.span(_pair_products(rel.right.reshape(-1, d, d), rel.commutators), d)


def junk_space(t: FiniteTriple) -> OperatorSubspace:
    """Images [D,b][D,c] of the relations sum b [D, c] = 0: the row space of P - U (U* P).

    R, P and U as in the module docstring, one row per basis pair (b_i, c_j).
    U is exactly zero on the rows where R is (each such pair is itself a
    relation), and U (U* P) on the columns where P is, so the projection is
    taken on the block of U's nonzero rows and P's nonzero columns, and every
    other entry of P passes through unchanged.
    """
    dd = t.dim_h * t.dim_h
    coms, u = t._relations.commutators, t._relations.left
    images = _pair_products(coms, coms).reshape(-1, dd)
    # cancellation sets the noise floor: rank cut against the raw product size
    scale = float(np.linalg.norm(images, axis=1).max())
    rows, cols = _nonzero(u.any(axis=1)), _nonzero(images.any(axis=0))
    u, block = u[_block(rows, None)], images[_block(rows, cols)]
    images[_block(rows, cols)] = block - u @ (u.conj().T @ block)
    return OperatorSubspace._of_rows(_orthonormal_rows(images, scale=scale))


def _forms(t: FiniteTriple):
    """Omega^1, pi(Omega^2) and junk of t; ``InvalidTriple`` if the junk escapes pi(Omega^2)."""
    omega1, pi2, junk = omega1_space(t), pi_omega2_space(t), junk_space(t)
    if not contains_subspace(pi2, junk):
        raise InvalidTriple("junk space escaped pi(Omega^2); rank tolerances inconsistent")
    return omega1, pi2, junk


@dataclass
class FormReport:
    dim_omega1: int
    dim_pi_omega2: int
    dim_junk: int
    dim_omega2: int


def form_report(t: FiniteTriple) -> FormReport:
    """Dimensions of Omega^1, pi(Omega^2), the junk and the quotient Omega^2 = pi(Omega^2) / junk.

    The quotient's dimension is ``dim_pi_omega2 - dim_junk``: the junk lies in
    pi(Omega^2) (``_forms`` checks it), and the orthogonal projector onto its
    complement there has exactly that many eigenvalues 1 and the rest 0, so
    the dimensions are all that is basis-independent about it.
    """
    omega1, pi2, junk = _forms(t)
    return FormReport(omega1.dim, pi2.dim, junk.dim, pi2.dim - junk.dim)


# -- matrix-case classification ---------------------------------------------


class MatrixCase(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    UNCLASSIFIED = "Unclassified"


def _proportional_to_identity(m: np.ndarray) -> bool:
    """Whether ``m`` is within ``RANK_TOL * ||m||`` of a multiple of 1, so the verdict does not depend on its scale."""
    d = m.shape[0]
    c = np.trace(m) / d
    return np.linalg.norm(m - c * np.eye(d)) <= RANK_TOL * np.linalg.norm(m)


def classify_matrix_case(p: int, q: int, mu) -> MatrixCase:
    """Classify the coupling block by proportionality of mu* mu and mu mu* to 1.

    - CASE1: mu mu* ~ 1_p and mu* mu ~ 1_q. Equal traces and equal nonzero
      spectra force p = q.
    - CASE2: neither product is proportional to the identity.
    - CASE3: exactly one is. The normal form is p >= q with mu* mu ~ 1_q,
      so the identity-coupled block is the q block; p >= q is forced, since a
      nonzero multiple of 1_q has rank q <= rank(mu) <= p. A mirrored mu
      (mu mu* ~ 1_p, p <= q) is reached by transposition: it is classified as
      (q, p, mu*).

    dim Omega^2 is p^2 + q^2, 0 and k^2 respectively, with k the size of the
    identity-coupled block (see ``matrix_case_triple``). A table that lists
    p^2 for case 3 uses the transposed labelling, mu mu* ~ 1_p with p <= q;
    in this module's normal form the same row reads q^2.
    """
    mu = np.asarray(mu, dtype=complex).reshape(p, q)
    if not mu.any():
        raise ZeroMu("coupling matrix must be nonzero")
    # the case of mu / ||mu||, so it does not depend on the scale of mu; scaled
    # into range first so the norm neither overflows nor underflows
    mu = _unit_scaled(mu)
    mu = mu / np.linalg.norm(mu)
    left = _proportional_to_identity(mu @ mu.conj().T)    # mu mu*: p x p
    right = _proportional_to_identity(mu.conj().T @ mu)   # mu* mu: q x q
    if left and right:
        return MatrixCase.CASE1
    if not left and not right:
        return MatrixCase.CASE2
    if right and not left and q <= p:
        return MatrixCase.CASE3
    if left and not right and p <= q:
        # mirrored configuration: transpose swaps the two products
        return classify_matrix_case(q, p, mu.conj().T)
    return MatrixCase.UNCLASSIFIED


# -- products of triples ------------------------------------------------------


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of Kronecker products a_i (x) b_j, a outer: (k, p, p), (l, q, q) -> (k l, p q, p q)."""
    (k, p, _), (l, q, _) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(k * l, p * q, p * q)


def double_odd(t: FiniteTriple) -> FiniteTriple:
    """Make an odd triple even on H (x) C^2 with D (x) sigma1, grading 1 (x) sigma3."""
    if t.gamma is not None:
        raise AlreadyEven("triple already carries a grading")
    basis = _kron(t.algebra_basis, np.eye(2, dtype=complex)[None])
    d = np.kron(t.D, SIGMA1)
    gamma = np.kron(np.eye(t.dim_h, dtype=complex), SIGMA3)
    return FiniteTriple(2 * t.dim_h, basis, d, gamma)


def product_triple(t1: FiniteTriple, t2: FiniteTriple) -> FiniteTriple:
    """D = D1 (x) 1 + gamma1 (x) D2 on H1 (x) H2; even iff t2 is even. ``MissingGrading`` if t1 is odd.

    The algebra basis is the Kronecker products of the factors' unit-scaled
    bases (``_unit_basis``): the same span as that of the raw bases, and in
    range however the factors' bases are scaled.
    """
    if t1.gamma is None:
        raise MissingGrading("first factor has no grading; double it first (double_odd)")
    eye2 = np.eye(t2.dim_h, dtype=complex)
    basis = _kron(t1._unit_basis, t2._unit_basis)
    d = np.kron(t1.D, eye2) + np.kron(t1.gamma, t2.D)
    gamma = None
    if t2.gamma is not None:
        gamma = np.kron(t1.gamma, t2.gamma)
    return FiniteTriple(t1.dim_h * t2.dim_h, basis, d, gamma)


def swap_unitary(t1: FiniteTriple, t2: FiniteTriple) -> np.ndarray:
    """U = (1 + gamma1 (x) 1 + 1 (x) gamma2 - gamma1 (x) gamma2) / 2."""
    if t1.gamma is None or t2.gamma is None:
        raise MissingGrading("both factors must be even")
    e1 = np.eye(t1.dim_h, dtype=complex)
    e2 = np.eye(t2.dim_h, dtype=complex)
    return 0.5 * (
        np.kron(e1, e2)
        + np.kron(t1.gamma, e2)
        + np.kron(e1, t2.gamma)
        - np.kron(t1.gamma, t2.gamma)
    )


def unitary_equivalence_defect(t1: FiniteTriple, t2: FiniteTriple) -> float:
    """|| U D U* - D' || for D' = D1 (x) gamma2 + 1 (x) D2; ``MissingGrading`` unless both are even."""
    u = swap_unitary(t1, t2)
    d = np.kron(t1.D, np.eye(t2.dim_h)) + np.kron(t1.gamma, t2.D)
    d_alt = np.kron(t1.D, t2.gamma) + np.kron(np.eye(t1.dim_h), t2.D)
    return float(np.linalg.norm(u @ d @ u.conj().T - d_alt))


# -- product decomposition checks ---------------------------------------------


def _embedded_legs(t1: FiniteTriple, t2: FiniteTriple, forms1, forms2):
    """Embedded span generators for the product form decompositions.

    ``forms1``, ``forms2`` are the factors' (Omega^1, pi(Omega^2), junk). The
    gamma1 twist sits where the product Leibniz rule puts it: second-slot
    1-forms ride with gamma1 on the first slot.
    """
    o1_1, p2_1, j_1 = (s.matrices(t1.dim_h) for s in forms1)
    o1_2, p2_2, j_2 = (s.matrices(t2.dim_h) for s in forms2)
    a1, a2, g1 = t1.algebra_basis, t2.algebra_basis, t1.gamma
    return {
        "omega1_first": _kron(o1_1, a2),
        "omega1_second": _kron(g1 @ a1, o1_2),
        "pi2_first": _kron(p2_1, a2),
        "pi2_second": _kron(a1, p2_2),
        "one_one": _kron(g1 @ o1_1, o1_2),
        "junk_first": _kron(j_1, a2),
        "junk_second": _kron(a1, j_2),
    }


@dataclass
class ProductReport:
    """The six verdicts of ``product_check`` and the dimensions behind them."""

    checks: dict
    decomposition_dims: dict
    hypothesis_dims: dict


def product_check(t1: FiniteTriple, t2: FiniteTriple) -> ProductReport:
    """Decomposition, hypothesis and orthogonality checks of the product triple.

    The product, each factor's and the product's form spaces and the embedded
    legs are built once. Checks:

    - omega1_ok: Omega^1 of the product is the direct sum of the embedded
      factor legs;
    - numerator_ok: pi(Omega^2) is (pi2 legs sum) (+) the twisted
      Omega^1 (x) Omega^1 leg;
    - denominator_ok: the product junk is the sum of the embedded factor junks;
    - intersection_zero: the junk meets the Omega^1 (x) Omega^1 leg trivially;
    - hypothesis_holds: dim Omega^2(product) equals
      dim((pi2 legs sum) / (junk legs sum)) + dim Omega^1_1 * dim Omega^1_2;
    - orthogonality: Trace(xi* eta) = 0 for every xi in the cross leg and
      eta in the pi2 legs, as the trace/grading argument says; decided
      exactly by ``_orthogonal``.

    ``MissingGrading`` if t1 is odd; ``InvalidTriple`` if a junk space
    escapes pi(Omega^2) or the junk legs escape the pi2 legs.
    """
    prod = product_triple(t1, t2)
    dim = prod.dim_h
    forms1, forms2 = _forms(t1), _forms(t2)
    o1_prod, pi2_prod, junk_prod = _forms(prod)
    legs = _embedded_legs(t1, t2, forms1, forms2)

    def span(*names):
        return OperatorSubspace.span(np.concatenate([legs[name] for name in names]), dim)

    leg1, leg2 = span("omega1_first"), span("omega1_second")
    o1_sum = subspace_sum(leg1, leg2)
    num_legs, cross = span("pi2_first", "pi2_second"), span("one_one")
    num_sum = subspace_sum(num_legs, cross)
    junk_legs = span("junk_first", "junk_second")
    if not contains_subspace(num_legs, junk_legs):
        raise InvalidTriple("embedded junk legs escape the embedded pi(Omega^2) legs")
    omega2 = pi2_prod.dim - junk_prod.dim
    quotient = num_legs.dim - junk_legs.dim
    d1, d2 = forms1[0].dim, forms2[0].dim
    checks = {
        "omega1_ok": subspaces_equal(o1_prod, o1_sum) and o1_sum.dim == leg1.dim + leg2.dim,
        "numerator_ok": subspaces_equal(pi2_prod, num_sum) and num_sum.dim == num_legs.dim + cross.dim,
        "denominator_ok": subspaces_equal(junk_prod, junk_legs),
        "intersection_zero": intersection_dim(junk_prod, cross) == 0,
        "hypothesis_holds": omega2 == quotient + d1 * d2,
        "orthogonality": _orthogonal(cross, num_legs),
    }
    decomposition_dims = {
        "omega1_product": o1_prod.dim,
        "omega1_leg_first": leg1.dim,
        "omega1_leg_second": leg2.dim,
        "pi_omega2_product": pi2_prod.dim,
        "pi_omega2_legs": num_legs.dim,
        "omega1_x_omega1": cross.dim,
        "junk_product": junk_prod.dim,
        "junk_legs": junk_legs.dim,
    }
    hypothesis_dims = {
        "omega2_product": omega2,
        "pi_omega2_product": pi2_prod.dim,
        "junk_product": junk_prod.dim,
        "pi_omega2_legs": num_legs.dim,
        "junk_legs": junk_legs.dim,
        "quotient_legs": quotient,
        "omega1_1": d1,
        "omega1_2": d2,
        "omega1_x_omega1": cross.dim,
        "rhs": quotient + d1 * d2,
    }
    return ProductReport(checks, decomposition_dims, hypothesis_dims)


def _orthogonal(cross: OperatorSubspace, other: OperatorSubspace) -> bool:
    """max |Trace(xi* eta)| over unit xi in cross, eta in other is at most ORTH_TOL.

    Both bases are orthonormal rows, so that maximum is the spectral norm of
    conj(cross.basis) @ other.basis.T.
    """
    if cross.dim == 0 or other.dim == 0:
        return True
    return float(np.linalg.svd(cross.basis.conj() @ other.basis.T, compute_uv=False)[0]) <= ORTH_TOL
