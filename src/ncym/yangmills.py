"""Connections, curvature and the Yang-Mills functional on torus modules.

Modules are free modules A_Theta^q (projection = identity) or corners
p A_Theta^q cut by a projection; a connection is the n-tuple of component
operators nabla_j = delta_j + A_j with gauge potentials A_j in M_q(A_Theta).
Everything is computed in the tau-normalization: tau_q = tau (x) Trace with
the un-normalized matrix trace, so the additivity constants of a product of
a rank-q1 and a rank-q2 module are alpha_tau = q2 and beta_tau = q1.

Sign conventions (derived once, verified by the test oracles):

* the involution on 1-form coordinates is omega* = -(coordinatewise star),
  forced by (da)* = -d(a*), and the componentwise compatibility identity
  with the canonical Hermitian structure reads
      <xi, nabla_j eta> + (nabla_j xi)* eta = delta_j <xi, eta>
  for xi, eta in p A^q.  delta_j is a *-derivation, so its terms cancel
  against delta_j <xi, eta> and the identity is xi* (A_j + A_j*) eta = 0.  It
  holds for every xi, eta iff p (A_j + A_j*) p = 0 (p = 1 on a free module,
  where it is skew-adjointness A_j* = -A_j); ``compatibility_deviation`` is
  the l1 norm of that matrix;
* curvature components are F_ij = delta_i(A_j) - delta_j(A_i) + [A_i, A_j],
  stored for i < j with F_ji = -F_ij;
* the gradient components are G_k = sum_j (delta_j(F_kj) + [A_j, F_kj]),
  normalized so that d/dt YM(nabla + t mu)|_0 = 2 sum_k Re tau_q(G_k* mu_k).

Everything except ``minimize`` (which owns its private iterates) is a pure
function of immutable inputs; the one write, a connection's curvature memo,
is made once, by the first ``curvature`` call.  ``minimize`` alone writes
the memo of its own iterates: it installs a line-search candidate's
curvature, assembled from the line terms, before anything reads it, and
drops an assembled memo for the iterate's own curvature before it stops
there.  ``minimize`` also writes its skew proof (``Connection._skew``) on
the start, when the relative test ``_relative_skew_residue`` proves the
potentials skew-adjoint, and on each candidate, a ``skew_part`` by
construction; the curvature, gradient and line terms of a proved connection
take the one-side box commutators of ``torus.signed_sums``.  The proof is a
fact about potentials that never change, so it is never stale.  Independent
seeds/sweeps can run concurrently.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import (
    DomainError,
    InvalidConnection,
    NonFiniteValue,
    ShapeMismatch,
)
from .torus import (
    ThetaMatrix,
    TorusElement,
    derivation_differences,
    inner_sum,
    product_theta,
    signed_sums,
    skew_entries,
    skew_residue,
    tensor_embed,
)

IDEMPOTENCY_TOL = 1e-12
COMPAT_TOL = 1e-10
#: what ``COMPAT_TOL`` multiplies in ``compatibility_bound``, as reports name it
COMPAT_SCALE = "max_j ||p A_j p||_1"
SUBADDITIVITY_SLACK = 1e-9

log = logging.getLogger(__name__)


class TorusMatrix:
    """q x q matrix over one noncommutative torus."""

    __slots__ = ("theta", "q", "entries")

    def __init__(self, theta: ThetaMatrix, entries):
        """From q rows of q ``TorusElement`` entries over ``theta``, each checked;
        ``ShapeMismatch`` for anything else."""
        try:
            rows = tuple(tuple(row) for row in entries)
        except TypeError:
            raise ShapeMismatch("matrix must be a sequence of rows of entries") from None
        q = len(rows)
        for row in rows:
            if len(row) != q:
                raise ShapeMismatch("matrix must be square")
            for e in row:
                if not isinstance(e, TorusElement) or e.theta != theta:
                    raise ShapeMismatch("all entries must be torus elements over the matrix theta")
        self.theta = theta
        self.q = q
        self.entries = rows

    @classmethod
    def _built(cls, theta: ThetaMatrix, rows) -> "TorusMatrix":
        """The matrix of q rows of q entries over ``theta`` that the library
        built itself, so that no check can fail: not checked."""
        m = object.__new__(cls)
        m.theta, m.q, m.entries = theta, len(rows), tuple(map(tuple, rows))
        return m

    @classmethod
    def zeros(cls, theta, q):
        z = TorusElement.zero(theta)
        return cls._built(theta, [[z] * q for _ in range(q)])

    @classmethod
    def identity(cls, theta, q):
        z = TorusElement.zero(theta)
        one = TorusElement.one(theta)
        return cls._built(theta, [[one if i == j else z for j in range(q)] for i in range(q)])

    @classmethod
    def from_scalar_matrix(cls, theta, scalars) -> "TorusMatrix":
        """Lift a complex q x q array to constant torus-valued entries."""
        scalars = np.asarray(scalars, dtype=complex)
        q = scalars.shape[0]
        zero_idx = (0,) * theta.n
        return cls._built(
            theta,
            [
                [TorusElement(theta, {zero_idx: scalars[i, j]}) for j in range(q)]
                for i in range(q)
            ],
        )

    def _check(self, other):
        if self.theta != other.theta or self.q != other.q:
            raise ShapeMismatch("matrix shapes or thetas differ")

    def __add__(self, other):
        self._check(other)
        return TorusMatrix._built(
            self.theta,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        self._check(other)
        return TorusMatrix._built(
            self.theta,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return TorusMatrix._built(self.theta, [[-a for a in row] for row in self.entries])

    def scale(self, z):
        return TorusMatrix._built(self.theta, [[a.scale(z) for a in row] for row in self.entries])

    def __matmul__(self, other):
        """Entry (i, j) is the sum over k of entries[i][k] * other[k][j]: the
        one ``_matrix_sums`` job (zero, [(self, other, 0)]), so its q^2
        entries are one ``signed_sums`` call and each equals the literal sum
        from zero up to rounding."""
        return _matrix_sums([(TorusMatrix.zeros(self.theta, self.q), [(self, other, 0)])])[0]

    def dagger(self):
        """Conjugate transpose composed with the torus involution."""
        q = self.q
        return TorusMatrix._built(
            self.theta, [[self.entries[j][i].adjoint() for j in range(q)] for i in range(q)]
        )

    def derive(self, j: int):
        return TorusMatrix._built(self.theta, [[a.derivation(j) for a in row] for row in self.entries])

    def tau(self) -> complex:
        """tau_q = tau (x) Trace (un-normalized matrix trace)."""
        return sum((self.entries[i][i].trace() for i in range(self.q)), 0j)

    def l1(self) -> float:
        return sum(a.l1() for row in self.entries for a in row)

    def frob_sq(self) -> float:
        """tau_q(M* M) = sum over entries of sum_r |coeff|^2 (exact identity)."""
        return sum(a.norm_sq() for row in self.entries for a in row)

    def is_constant(self) -> bool:
        return all(not a.indices.any() for row in self.entries for a in row)


def _matrix_sums(jobs, _skew: bool = False) -> list:
    """[base + sum of the terms] for each (base, [(x, y, s), ...]) job, where a
    term is x @ y for s = 0 and the commutator [x, y] = x @ y - y @ x for s = -1.
    ``_skew`` says that every commutator's operands are proved skew-adjoint;
    it goes to ``signed_sums``, whose commutator terms are then the diagonal
    entries' x[i][i] y[i][i] - y[i][i] x[i][i], commutators of skew elements.

    Entry (i, j) of a job is base[i][j] plus, term by term, the products
    x[i][k] y[k][j] over k ascending and then, for a commutator, the products
    -y[i][k] x[k][j]: the terms of the literal base + (x @ y) - (y @ x) + ...
    On a diagonal entry the two products of k = i are one ``signed_sums``
    term x[i][i] y[i][i] + s y[i][i] x[i][i], in the place of the first.  A
    product with an empty operand adds nothing, so a block-diagonal operand
    costs no star products off its blocks.  The entries of all the jobs are
    one ``signed_sums`` call, so their pairwise products run as one pass;
    each entry is summed in that order, so not in the literal's, and equals
    it up to rounding.
    """
    entries = []
    for base, terms in jobs:
        for x, y, _ in terms:
            base._check(x)
            base._check(y)
        q = base.q
        for i in range(q):
            for j in range(q):
                products = []
                for x, y, s in terms:
                    xe, ye = x.entries, y.entries
                    products += [(xe[i][k], ye[k][j], 1, s if i == j == k else 0) for k in range(q)]
                    if s:
                        products += [(ye[i][k], xe[k][j], s, 0) for k in range(q) if not i == j == k]
                entries.append((base.entries[i][j], products))
    sums = iter(signed_sums(entries, _skew=_skew))
    return [
        TorusMatrix._built(base.theta, [[next(sums) for _ in range(base.q)] for _ in range(base.q)])
        for base, _ in jobs
    ]


def hs_inner(x: TorusMatrix, y: TorusMatrix) -> complex:
    """tau_q(X* Y) via the GNS identity tau(a* b) = sum_r conj(a_r) b_r.

    Exact consequence of |sigma| = 1; cross-checked against the literal
    dagger/matmul/tau route in the test suite.  One ``torus.inner_sum`` over
    all the entries.
    """
    x._check(y)
    return inner_sum([(a, b) for rx, ry in zip(x.entries, y.entries) for a, b in zip(rx, ry)])


def skew_part(m: TorusMatrix) -> TorusMatrix:
    """(m - m^dagger) / 2, bit for bit ``(m - m.dagger()).scale(0.5)``: the one
    matrix of ``_skew_parts``.  An entry whose rows are the negated reverse of
    its partner's, as on descent's iterates, is an elementwise difference."""
    return _skew_parts([m])[0]


def _skew_parts(ms) -> list:
    """[skew_part(m) for m in ms], all over one theta: entry (i, j) of each is
    (m_ij - m_ji*) / 2, and every entry of every matrix is one
    ``torus.skew_entries`` call, so the entries whose rows are not the
    negated reverse of their partner's are summed in one grouping."""
    pairs = [(m.entries[i][j], m.entries[j][i]) for m in ms for i in range(m.q) for j in range(m.q)]
    parts = iter(skew_entries(pairs))
    return [TorusMatrix._built(m.theta, [[next(parts) for _ in range(m.q)] for _ in range(m.q)]) for m in ms]


#: A potential is proved skew-adjoint when its ``_relative_skew_residue`` is
#: at most this many ulp (float64 eps).  For a potential that ``skew_part``
#: made, a_r = (m_r - conj(m_-r) s) / 2 with s the computed sigma(r, r) (the
#: same bits at r and -r), the residue is a_r + conj(a_-r) s.  To first order
#: in the unit roundoff u = eps / 2, with complex products good to sqrt(5) u,
#: differences to u per part, an exact halving and |s|^2 within 2u of 1, it
#: is (m_r (1 - |s|^2) - z d1 + (m_r - z) d2 - m_r d3 + (z - m_r)(d4 + d5)) / 2
#: with z = conj(m_-r) s, |d1|, |d3|, |d5| <= sqrt(5) u and |d2|, |d4| <= u.
#: For m skew up to rounding, as descent's A - t d is, |m_r| and |z| are
#: |a_r| to first order, and the bound is (3 + 2 sqrt(5)) u |a_r| = 3.74 eps
#: |a_r|, so 4 ulp of max_r |a_r|.  Far from skew, m can be larger than a;
#: then a start that reads not skew keeps the full commutator path.
SKEW_ULPS = 4


def _relative_skew_residue(m: TorusMatrix) -> float:
    """max_r |(m + m^dagger)_r| over max_r |m_r|, every entry and nothing
    dropped; inf when an entry's rows are not the negated reverse of its
    adjoint partner's (``torus.skew_residue``), so the support is not
    symmetric; 0.0 for m = 0."""
    e = m.entries
    pairs = [skew_residue(e[i][j], e[j][i]) for i in range(m.q) for j in range(m.q)]
    if None in pairs:
        return math.inf
    worst, scale = np.max(pairs, axis=0)  # NaN carries through
    return float(worst / scale if scale else worst)


class Projection:
    """Self-adjoint idempotent in M_q(A_Theta) carving out the module.

    Checked once, at construction; ``defect`` is the l1 norm of p p - p
    measured there.
    """

    def __init__(self, p: TorusMatrix):
        defect = (p @ p - p).l1()
        sa = (p.dagger() - p).l1()
        if defect > IDEMPOTENCY_TOL or sa > IDEMPOTENCY_TOL:
            raise InvalidConnection(
                f"projection defects: idempotency {defect:.2e}, self-adjointness {sa:.2e}"
            )
        if not p.is_constant():
            warnings.warn(
                "torus-valued projection accepted with idempotency defect "
                f"{defect:.2e}; reports carry the defect",
                stacklevel=2,
            )
        self.p = p
        self.defect = defect


def _cut(proj: Projection | None, m: TorusMatrix) -> TorusMatrix:
    """p m p on the corner module that ``proj`` cuts out, ``m`` itself on a free module."""
    return m if proj is None else proj.p @ m @ proj.p


def _same(x: TorusMatrix, y: TorusMatrix) -> bool:
    """Whether x and y hold the same terms with equal coefficients."""
    return all(
        np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
        for ra, rb in zip(x.entries, y.entries)
        for a, b in zip(ra, rb)
    )


class Connection:
    """nabla_j = delta_j + A_j on A_Theta^q (or the corner cut by proj).

    A connection is validated once, at construction, and not changed after.
    ``_skew`` is True once ``minimize`` has proved the potentials skew-adjoint;
    its curvature, gradient and line terms then take the skew commutators.
    """

    def __init__(self, theta: ThetaMatrix, q: int, A, proj: Projection | None = None):
        self.theta = theta
        self.q = q
        self.n = theta.n
        self.A = tuple(A)
        self.proj = proj
        self._validate()
        self._curvature = None
        self._skew = False

    def _compressed(self, A) -> "Connection":
        """The connection on this module with potentials A that are p-compressed
        (p A_j p = A_j) for a constant p, so that no check can fail: not validated."""
        c = object.__new__(Connection)
        c.theta, c.q, c.n, c.A, c.proj = self.theta, self.q, self.n, tuple(A), self.proj
        c._curvature, c._skew = None, False
        return c

    def _validate(self):
        if len(self.A) != self.n:
            raise InvalidConnection(f"expected {self.n} potentials, got {len(self.A)}")
        for a in self.A:
            if a.theta != self.theta or a.q != self.q:
                raise InvalidConnection("potential shape or theta mismatch")
        if self.proj is not None:
            p = self.proj.p
            if p.theta != self.theta or p.q != self.q:
                raise InvalidConnection("projection shape or theta mismatch")
            one = TorusMatrix.identity(self.theta, self.q)
            for j, a in enumerate(self.A, start=1):
                # the part of nabla_j p that leaves the module, against all of it
                moved = p.derive(j) + a @ p
                defect = ((one - p) @ moved).l1()
                if defect > IDEMPOTENCY_TOL * moved.l1():
                    raise InvalidConnection(
                        f"connection does not preserve the module: direction {j}, defect {defect:.2e}"
                    )

    @classmethod
    def flat(cls, theta, q, proj=None):
        return cls(theta, q, [TorusMatrix.zeros(theta, q) for _ in range(theta.n)], proj)

    def perturb(self, mu: "Perturbation", t: float) -> "Connection":
        if len(mu.components) != self.n:
            raise ShapeMismatch("perturbation has wrong number of components")
        return Connection(
            self.theta,
            self.q,
            [a + m.scale(t) for a, m in zip(self.A, mu.components)],
            self.proj,
        )


class Perturbation:
    """Element mu of Hom(E, E (x) Omega^1) in components (n torus matrices)."""

    def __init__(self, components):
        comps = tuple(components)
        if comps:
            theta, q = comps[0].theta, comps[0].q
            for m in comps:
                if m.theta != theta or m.q != q:
                    raise ShapeMismatch("perturbation components disagree in shape/theta")
        self.components = comps

    def norm(self) -> float:
        return math.sqrt(sum(m.frob_sq() for m in self.components))

    def scale(self, z) -> "Perturbation":
        return Perturbation([m.scale(z) for m in self.components])

    def normalized(self) -> "Perturbation":
        nrm = self.norm()
        if nrm == 0.0:
            return self
        return self.scale(1.0 / nrm)


@dataclass
class AdditivityReport:
    """What ``additivity_report`` finds; xi and eta are the factors' ``curvature_tau_sum``."""

    ym_product: float
    ym1: float
    ym2: float
    alpha_tau: float
    beta_tau: float
    defect: float
    xi_re: float
    xi_im: float
    eta_re: float
    eta_im: float
    cross_term: float


@dataclass
class SplittingReport:
    """The splitting verdicts of ``critical_splitting_check`` and the numbers behind them.

    ``gradient_norm_product`` is sqrt(w2 ||G1||^2 + w1 ||G2||^2), with a
    factor's weight w = tau_q(p) (q on a free module); ``bilinear`` is
    q2 ||G1|| + q1 ||G2||, the supremum of the split bilinear condition over
    unit factor perturbations.
    """

    necessary: bool
    product_critical: bool
    gradient_norm_1: float
    gradient_norm_2: float
    gradient_norm_product: float
    bilinear: float


# -- curvature and the functional ---------------------------------------


def curvature(c: Connection) -> dict:
    """{(i, j): F_ij} for i < j, computed by the first call and kept on ``c``.

    F_ij = delta_i(A_j) - delta_j(A_i) + [A_i, A_j].  The bases
    delta_i(A_j) - delta_j(A_i) of every entry of every component are one
    ``torus.derivation_differences`` call, one grouping with one drop, each
    entry with the bits of ``A_j.derive(i) - A_i.derive(j)``.  The
    commutators of all the components are then one ``_matrix_sums`` call:
    each entry is summed over the 2q products of its commutator, and the
    pairwise products of every entry of every component run as one pass.

    minimize evaluates ym_value at each candidate, then takes the gradient and
    the line-search quartic at the accepted one, so the memo spares two
    curvatures per iteration.  ``minimize`` installs most candidates' memos
    from the line terms, F0 - t F1 + t^2 F2, so this returns them without a
    star product.  A connection does not change after construction, so the
    memo is never stale.
    """
    if c._curvature is None:
        keys = [(i, j) for i in range(1, c.n + 1) for j in range(i + 1, c.n + 1)]
        cells = [(r, s) for r in range(c.q) for s in range(c.q)]
        bases = iter(
            derivation_differences(
                [(c.A[j - 1].entries[r][s], i, c.A[i - 1].entries[r][s], j) for i, j in keys for r, s in cells]
            )
        )
        jobs = [
            (
                TorusMatrix._built(c.theta, [[next(bases) for _ in range(c.q)] for _ in range(c.q)]),
                [(c.A[i - 1], c.A[j - 1], -1)],
            )
            for i, j in keys
        ]
        c._curvature = dict(zip(keys, _matrix_sums(jobs, _skew=c._skew)))
    return c._curvature


def ym_value(c: Connection) -> float:
    """YM(nabla) = sum_{i<j} tau_q(F_ij* F_ij); zero table for n = 1."""
    total = 0.0
    for m in curvature(c).values():
        v = hs_inner(m, m)
        total += v.real
    return total


def ym_gradient(c: Connection) -> Perturbation:
    """G_k with d/dt YM(nabla + t mu)|_0 = 2 sum_k Re tau_q(G_k* mu_k).

    G_k = sum_{j != k} delta_j(F_kj) + sum_{j != k} [A_j, F_kj], cut to p G_k p
    on a projected module.  The derivative terms are summed first; then the
    commutators of all the components are one ``_matrix_sums`` call: each
    entry is summed over the 2q(n - 1) products of its commutators, and the
    pairwise products of every entry of every G_k run as one pass.
    """
    f = curvature(c)
    jobs = []
    for k in range(1, c.n + 1):
        acc = TorusMatrix.zeros(c.theta, c.q)
        brackets = []
        for j in range(1, c.n + 1):
            if j == k:
                continue
            fkj = f[(k, j)] if k < j else -f[(j, k)]
            acc = acc + fkj.derive(j)
            brackets.append((c.A[j - 1], fkj, -1))
        jobs.append((acc, brackets))
    return Perturbation([_cut(c.proj, acc) for acc in _matrix_sums(jobs, _skew=c._skew)])


def gradient_norm(c: Connection) -> float:
    return ym_gradient(c).norm()


# -- compatibility ------------------------------------------------------


def compatibility_deviation(c: Connection) -> float:
    """max_j of the l1 norm of p (A_j + A_j*) p, p = 1 on a free module.

    Zero iff the compatibility identity holds for every xi, eta in the module
    (module docstring).
    """
    worst = 0.0
    for a in c.A:
        worst = max(worst, _cut(c.proj, a + a.dagger()).l1())
    return worst


def compatibility_bound(c: Connection) -> float:
    """``COMPAT_TOL`` times max_j of the l1 norm of p A_j p (p = 1 on a free module).

    The largest ``compatibility_deviation`` judged compatible; reports name
    the max it multiplies ``COMPAT_SCALE``.  It scales with the potentials, as
    the rounding in a skew potential's deviation does, so the verdict does not
    depend on their scale; it is 0 for A = 0, whose deviation is exactly 0.
    """
    scale = 0.0
    for a in c.A:
        scale = max(scale, _cut(c.proj, a).l1())
    return COMPAT_TOL * scale


def grassmannian_connection(theta: ThetaMatrix, scalars) -> Connection:
    """Grassmannian connection p d(.) for a constant projection p in M_q(C)."""
    p = TorusMatrix.from_scalar_matrix(theta, scalars)
    proj = Projection(p)
    return Connection.flat(theta, p.q, proj)


# -- criticality and descent ---------------------------------------------

def random_connection(theta, q, gen, radius=2, terms=4, amplitude=0.1, proj=None) -> Connection:
    """Random compatible (skew-adjoint) polynomial connection.

    Every entry of every component is drawn first, in component, row and
    column order (``sampling.random_element``); then the skew parts of all
    the components are one ``_skew_parts`` call, each component cut by the
    projection when there is one.  Each potential has the bits of the
    component-by-component (m - m^dagger) / 2.
    """
    draws = [
        TorusMatrix._built(
            theta,
            [[sampling.random_element(theta, gen, radius, terms, amplitude) for _ in range(q)] for _ in range(q)],
        )
        for _ in range(theta.n)
    ]
    return Connection(theta, q, [_cut(proj, m) for m in _skew_parts(draws)], proj)


def is_critical(c: Connection, tol: float) -> bool:
    """True iff 2 ||G|| <= tol.

    By dYM(mu) = 2 Re tau_q(G* mu) (module docstring) and Cauchy-Schwarz,
    2 ||G|| is the supremum of |dYM(mu)| over unit perturbations mu, attained
    at mu = G / ||G||; the verdict bounds the derivative in every direction.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return 2.0 * gradient_norm(c) <= tol


def _inverse_laplacian(m: TorusMatrix) -> TorusMatrix:
    """Divide each Fourier coefficient by 1 + 2 (2 pi)^2 |r|^2.

    Diagonal preconditioner matching the quadratic-part Hessian of YM, which
    acts as 2 (2 pi)^2 |r|^2 on transverse modes; equalizes the per-mode
    contraction rates so descent is not throttled by the stiff high
    frequencies the commutators generate.
    """
    w = 2.0 * (2.0 * math.pi) ** 2
    return TorusMatrix._built(m.theta, [[a.mode_divided(w) for a in row] for row in m.entries])


class DescentTrace(list):
    """YM at the start and after each accepted step of ``minimize``, with why it stopped.

    ``reason`` is ``converged`` (gradient norm at most ``grad_tol``), else
    ``max_iters`` (``max_iters`` steps taken) or ``no_decrease`` (the line
    search found no step that lowers YM).  ``gradient_norms[k]`` is the
    unpreconditioned gradient norm at the k-th iterate, one per trace value.
    ``steps[k]`` is the step t from iterate k to k + 1.
    """

    def __init__(self, values, reason):
        super().__init__(values)
        self.reason = reason
        self.gradient_norms = []
        self.steps = []


def line_quartic(c: Connection, d, _skew: bool = False) -> tuple:
    """(coeffs, terms): YM(A - t d) = sum_k coeffs[k] t^k, and terms[(i, j)] = (F1, F2).

    F_ij(A - t d) = F0 - t F1 + t^2 F2 with F0 the (memoised) curvature of ``c``,
    F1 = delta_i d_j - delta_j d_i + [A_i, d_j] + [d_i, A_j] and F2 = [d_i, d_j];
    six ``hs_inner`` per pair i < j give the coefficients (c0, ..., c4).  The F1
    and F2 of every pair are one ``_matrix_sums`` call: each entry of F1 is
    summed over the 4q products of its two commutators, each entry of F2
    over 2q, and the pairwise products of all of them run as one pass.
    ``minimize`` builds each candidate's curvature from ``terms``, and says
    by ``_skew`` when it has proved c's potentials and d skew-adjoint.
    """
    f0s = curvature(c)
    jobs = []
    for i, j in f0s:
        ai, aj, di, dj = c.A[i - 1], c.A[j - 1], d[i - 1], d[j - 1]
        jobs.append((dj.derive(i) - di.derive(j), [(ai, dj, -1), (di, aj, -1)]))
        jobs.append((TorusMatrix.zeros(c.theta, c.q), [(di, dj, -1)]))
    sums = iter(_matrix_sums(jobs, _skew=_skew))
    terms = {key: (next(sums), next(sums)) for key in f0s}
    c0 = c1 = c2 = c3 = c4 = 0.0
    for key, f0 in f0s.items():
        f1, f2 = terms[key]
        c0 += hs_inner(f0, f0).real
        c1 -= 2.0 * hs_inner(f0, f1).real
        c2 += hs_inner(f1, f1).real + 2.0 * hs_inner(f0, f2).real
        c3 -= 2.0 * hs_inner(f1, f2).real
        c4 += hs_inner(f2, f2).real
    return (c0, c1, c2, c3, c4), terms


def _quartic_step(coeffs) -> float | None:
    """The t > 0 among the stationary points of the quartic with the least value.

    None when no stationary point lies at t > 0.  The stationary points are
    the real parts of the roots of the derivative (a complex pair with a tiny
    imaginary part is a near-double root); the derivative is scaled to a
    largest coefficient of 1 first.
    """
    deriv = np.array([4.0 * coeffs[4], 3.0 * coeffs[3], 2.0 * coeffs[2], coeffs[1]])
    scale = np.abs(deriv).max()
    if scale == 0.0:
        return None
    ts = [t for t in np.roots(np.trim_zeros(deriv / scale, "f")).real if t > 0.0]
    poly = np.array(coeffs[::-1])
    return float(min(ts, key=lambda t: np.polyval(poly, t))) if ts else None


# overflow to inf is expected and handled here: it raises NonFiniteValue
@np.errstate(over="ignore", invalid="ignore")
def minimize(
    c0: Connection,
    max_iters: int = 10000,
    grad_tol: float = 1e-8,
):
    """Descent on the potentials with an exact line search, skew-projected iterates.

    The search direction d is the skew part of the gradient rescaled
    coefficient-wise by the inverse-Laplacian preconditioner (still a descent
    direction; the raw gradient spreads the support until memory runs out).  YM
    along the line A - t d is a quartic in t (``line_quartic``); the step is
    its least positive stationary point, and the candidate skew_part(A - t d)
    is accepted only if its YM is strictly below the current one.  Every
    iterate is differentiated, the last one too: iteration stops once the
    (unpreconditioned) gradient norm falls under ``grad_tol``, else after
    ``max_iters`` steps or when no step lowers YM.

    The start is proved skew-adjoint when every potential's
    ``_relative_skew_residue`` is at most ``SKEW_ULPS`` ulp, a test relative
    to the potentials' size; every candidate is a skew part, so it is proved
    by construction.  A proved iterate's commutators, in its curvature,
    gradient and line terms, are formed from one product each
    (``torus.signed_sums``' ``_skew``).  With a constant p and a start equal
    to its own cut p A p, every candidate is p-compressed, since mode
    division and ``skew_part`` commute with p, and is built without
    ``Connection._validate``.

    A candidate's curvature is F0 - t F1 + t^2 F2 from ``line_quartic``'s
    terms, installed as its memo before ``ym_value`` reads it, so it costs no
    star product; an accepted one's gradient and next quartic use it as their
    F0, so rounding carries over between steps.  It is installed only when
    the iterate's potentials are proved skew (F0 - t F1 + t^2 F2 is the
    curvature of A - t d, not of its skew part; every accepted candidate is
    skew, so only a start may not be), when the quartic predicts that YM at
    least halves, so that an assembled YM never decides a close comparison,
    and when the candidate is not the one that the gradient norm's last rate
    of fall predicts to be the last.  A stop is decided on the iterate's own
    curvature: should the loop stop at an iterate whose memo was assembled
    all the same, the memo is dropped, its YM in the trace is taken again
    from its potentials, and the iteration is repeated.  So the stop reason,
    the last gradient norm and the last YM of the trace, and the returned
    connection's memo, all come from the curvature of its potentials.

    Returns (connection, trace) with trace a ``DescentTrace``: the YM value
    at the start and after every accepted step (non-increasing by
    construction), the stop reason, the gradient norms and the steps.  One
    DEBUG line per step and one for the stop go to the ``ncym.yangmills``
    logger; the stop line says whether the start was proved skew, with its
    relative residue, and so which commutator path ran.
    """
    c = c0
    residue = float(np.max([_relative_skew_residue(a) for a in c.A], initial=0.0))
    c._skew = start_skew = residue <= SKEW_ULPS * float(np.finfo(float).eps)
    # with a constant p, a p-compressed start makes every candidate p-compressed
    proj = c.proj
    compressed = proj is None or (proj.p.is_constant() and all(_same(_cut(proj, a), a) for a in c.A))
    f0 = ym_value(c)
    if not math.isfinite(f0):
        raise NonFiniteValue("YM not finite at the starting connection", iteration=0)
    assembled = False  # c's memo came from the line terms, not from its potentials
    trace = DescentTrace([f0], "max_iters")
    it = 0
    while True:
        g = ym_gradient(c)
        gn = g.norm()
        reason = "converged" if gn <= grad_tol else "max_iters" if it == max_iters else None
        if reason is None:
            d = [skew_part(_inverse_laplacian(m)) for m in g.components]
            coeffs, terms = line_quartic(c, d, _skew=c._skew)
            if not all(map(math.isfinite, coeffs)):
                raise NonFiniteValue(f"line-search quartic not finite at iteration {it}", iteration=it)
            t = _quartic_step(coeffs)
            f1 = math.inf  # stays when no stationary point lies at t > 0: no candidate
            if t is not None:
                A = [skew_part(a - m.scale(t)) for a, m in zip(c.A, d)]
                cand = c._compressed(A) if compressed else Connection(c.theta, c.q, A, c.proj)
                cand._skew = True
                # the gradient norm falls by a near-constant factor per step: at
                # that rate this candidate is the last, and its stop needs the
                # curvature of its potentials
                last = bool(trace.gradient_norms) and gn * gn <= grad_tol * trace.gradient_norms[-1]
                installed = c._skew and not last and np.polyval(coeffs[::-1], t) < 0.5 * f0
                if installed:
                    cand._curvature = {
                        key: c._curvature[key] - lin.scale(t) + quad.scale(t * t)
                        for key, (lin, quad) in terms.items()
                    }
                f1 = ym_value(cand)
                if not math.isfinite(f1):
                    raise NonFiniteValue(f"YM not finite at iteration {it}", iteration=it)
            if not f1 < f0:
                reason = "no_decrease"
        if reason is not None and assembled:
            # a stop is decided on the iterate's own curvature: the assembled
            # one goes and the iteration is taken again.  YM is summed as
            # ym_value sums it, not by a call, as the calls count candidates
            c._curvature, assembled = None, False
            f0 = trace[-1] = sum(hs_inner(m, m).real for m in curvature(c).values())
            continue
        trace.gradient_norms.append(gn)
        if reason is not None:
            trace.reason = reason
            break
        log.debug("minimize iteration %d: ym %.6e, gradient norm %.3e, step %.6e", it, f0, gn, t)
        c, f0 = cand, f1
        assembled = installed
        trace.append(f0)
        trace.steps.append(t)
        it += 1
    log.debug(
        "minimize stopped: %s after %d steps, ym %.6e; start %s skew, relative residue %.2e",
        trace.reason,
        len(trace.steps),
        f0,
        "proved" if start_skew else "not proved",
        residue,
    )
    return c, trace


# -- products and the additivity reports ----------------------------------


def _kron_matrix(m1: TorusMatrix, m2: TorusMatrix) -> TorusMatrix:
    psi = product_theta(m1.theta, m2.theta)
    q1, q2 = m1.q, m2.q
    rows = []
    for i1 in range(q1):
        for i2 in range(q2):
            row = []
            for j1 in range(q1):
                for j2 in range(q2):
                    row.append(tensor_embed(m1.entries[i1][j1], m2.entries[i2][j2]))
            rows.append(row)
    return TorusMatrix._built(psi, rows)


def product_connection(c1: Connection, c2: Connection) -> Connection:
    """nabla = nabla_1 (x) 1 + 1 (x) nabla_2 on the rank q1*q2 product module."""
    one1 = TorusMatrix.identity(c1.theta, c1.q)
    one2 = TorusMatrix.identity(c2.theta, c2.q)
    comps = [_kron_matrix(a, one2) for a in c1.A]
    comps += [_kron_matrix(one1, b) for b in c2.A]
    proj = None
    if c1.proj is not None or c2.proj is not None:
        p1 = c1.proj.p if c1.proj is not None else one1
        p2 = c2.proj.p if c2.proj is not None else one2
        proj = Projection(_kron_matrix(p1, p2))
    psi = product_theta(c1.theta, c2.theta)
    return Connection(psi, c1.q * c2.q, comps, proj)


def curvature_tau_sum(c: Connection) -> complex:
    """sum_{i<j} tau_q(F_ij): the junk-free curvature coordinates traced.

    The tau proxy for the cross-term invariants; convention-dependent up to a
    common positive constant, and identically ~0 on torus connections since
    derivations and commutators are traceless.
    """
    return sum((m.tau() for m in curvature(c).values()), 0j)


def additivity_report(c1: Connection, c2: Connection) -> AdditivityReport:
    """YM(nabla_1 (x) 1 + 1 (x) nabla_2) against q2 YM(nabla_1) + q1 YM(nabla_2).

    Builds the product connection once.  One report carries everything
    ``subadditivity_check`` decides.
    """
    ym_product = ym_value(product_connection(c1, c2))
    ym1 = ym_value(c1)
    ym2 = ym_value(c2)
    alpha_tau = float(c2.q)
    beta_tau = float(c1.q)
    defect = ym_product - alpha_tau * ym1 - beta_tau * ym2
    xi = curvature_tau_sum(c1)
    eta = curvature_tau_sum(c2)
    cross = 2.0 * (xi.conjugate() * eta).real
    return AdditivityReport(
        ym_product, ym1, ym2, alpha_tau, beta_tau, defect, xi.real, xi.imag, eta.real, eta.imag, cross
    )


def subadditivity_check(rep: AdditivityReport) -> bool:
    """sqrt(YM(product)) <= (sqrt(alpha_tau YM(nabla_1)) + sqrt(beta_tau YM(nabla_2))) (1 + slack).

    The slack is ``SUBADDITIVITY_SLACK``, relative to the right-hand side, so
    the verdict does not depend on the scale of YM; decided from ``rep``, so
    no YM is evaluated again.
    """
    lhs = math.sqrt(max(rep.ym_product, 0.0))
    rhs = math.sqrt(max(rep.alpha_tau * rep.ym1, 0.0)) + math.sqrt(max(rep.beta_tau * rep.ym2, 0.0))
    return lhs <= rhs * (1.0 + SUBADDITIVITY_SLACK)


def critical_splitting_check(c1: Connection, c2: Connection, tol: float = 1e-8) -> SplittingReport:
    """Necessary-condition and product-criticality verdicts for nabla_1 (x) nabla_2.

    Exact rules in the factor gradient norms n1 = ||G1|| and n2 = ||G2||, each
    computed once:

    * ``necessary``: both factors are critical, 2 n1 <= tol and 2 n2 <= tol
      (the rule of ``is_critical``);
    * ``product_critical``: 2 ||G_prod|| <= tol, and when ``necessary`` also
      the split bilinear condition q2 tau_q(G1* mu1) + q1 tau_q(G2* mu2) = 0
      within tol for all unit mu1, mu2, decided by its supremum
      q2 n1 + q1 n2 <= tol.

    The mixed curvature of the product connection vanishes, so its gradient
    is (G1 (x) p2, p1 (x) G2), with p = 1 on a free module, and
    ||G_prod||^2 = tau_q(p2) n1^2 + tau_q(p1) n2^2; no product connection is
    built.  tau_q(1_q) = q, so a free module's weight is its rank.  The
    bilinear supremum keeps the q weights: the curvature is not cut by p,
    and they are YM's additivity constants.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    n1, n2 = gradient_norm(c1), gradient_norm(c2)
    w1, w2 = (c.q if c.proj is None else c.proj.p.tau().real for c in (c1, c2))
    n_prod = math.sqrt(w2 * n1 * n1 + w1 * n2 * n2)
    bilinear = c2.q * n1 + c1.q * n2
    necessary = 2.0 * n1 <= tol and 2.0 * n2 <= tol
    product_critical = 2.0 * n_prod <= tol and (bilinear <= tol or not necessary)
    return SplittingReport(necessary, product_critical, n1, n2, n_prod, bilinear)


# -- closed-form constants -------------------------------------------------


def dixmier_torus_constant(n: int) -> float:
    """Dixmier value of the n-torus Dirac operator: 2 N pi^{n/2} / (n (2 pi)^n Gamma(n/2))."""
    if n < 1:
        raise DomainError("torus dimension must be >= 1")
    big_n = 2 ** (n // 2)
    return 2.0 * big_n * math.pi ** (n / 2.0) / (n * (2.0 * math.pi) ** n * math.gamma(n / 2.0))


def gamma_constants(k: float, l: float, m: int, n: int, tr_d1: float, tr_d2: float):
    """Subadditivity constants (alpha, beta) from the summability orders.

    c = Gamma(k/2+1) Gamma(l/2+1) / Gamma((k+l)/2+1); alpha = n c tr_d2,
    beta = m c tr_d1, where m, n are the ambient free-module ranks.
    """
    if k <= 0 or l <= 0:
        raise DomainError("summability orders must be positive")
    if m < 1 or n < 1:
        raise DomainError("module ranks must be >= 1")
    c = math.gamma(k / 2.0 + 1.0) * math.gamma(l / 2.0 + 1.0) / math.gamma((k + l) / 2.0 + 1.0)
    return n * c * tr_d2, m * c * tr_d1
