"""Exact arithmetic in the noncommutative n-torus at polynomial scale.

Elements are finite-support twisted Fourier series sum_r a_r U^r with
multi-indices r in Z^n.  All operations (star product, involution, trace,
derivations, tensor embedding) are exact up to IEEE rounding; there is no
truncation beyond dropping coefficients below ``CANONICAL_EPS``.

Ordering convention
-------------------
The symbol U^r always denotes the ordered monomial

    U^r = U_1^{r_1} U_2^{r_2} ... U_n^{r_n}        (ascending generator index).

With the commutation relation U_k U_m = e(Theta_{mk}) U_m U_k, where
e(x) = exp(2*pi*i*x), sorting the concatenated word U^r U^s back into
ascending order moves each U_m^{s_m} left past every U_k^{r_k} with k > m and
picks up e(Theta_{mk} * r_k * s_m) per pass.  Hence the product cocycle is

    U^r U^s = sigma(r, s) U^{r+s},
    sigma(r, s) = e( sum_{m < k} Theta[m][k] * r_k * s_m ),

and the involution phase (from reversing the descending word of inverses) is
sigma(r, r):

    (U^r)* = e( sum_{m < k} Theta[m][k] * r_k * r_m ) U^{-r}.

Both formulas are regression-tested against step-by-step generator
reordering in the test suite.

One cocycle
-----------
Let P be the strictly lower part of Theta^T (``ThetaMatrix._pair_mat``),
P[k][m] = Theta[m][k] for m < k.  Then sigma(r, s) = e(r P s^T) = e(w . s)
with w = r P, and every phase in this module is formed that way: w for a
whole array of terms is a sum over P's rows in order (``_cocycle_rows``) and
w . s one over P's columns in order (``_exponents``), both with elementwise
multiplies and adds, so a term's phase has the same bits in any array.  The
scalar per-term form of the exponent is kept only in the tests, as the oracle
the array kernels are checked against.

One storage
-----------
An element is a read-only int64 (terms, n) index array, its rows strictly
increasing in lexicographic order, and a read-only complex coefficient
array.  The dict constructor sorts and checks its input once (an index entry
that is not an integer raises ``ValueError``, one past +-(2^63 - 1)
``IndexOutOfRange``); ``coeffs`` is a read-only dict built on demand.
``_kept`` is the one place that drops values under ``CANONICAL_EPS`` (NaN
is kept) and ``_groups`` the one grouping of index rows, used by sums,
``signed_sums``, ``skew_entries``, ``derivation_differences`` and
``inner_sum``.  It sorts one code per row, the row's place in the box of the
keys: 16 bits when the box has at most 2^16 cells, which numpy's stable
argsort sorts by radix, else 64.  A stable order is unique, so the groups,
the sums and their bits do not depend on the code's width.  The batched
operations group many elements at once, each one's number the leading
digit of its keys: every skew entry (a - b*) / 2 of a random connection's
components, and every base delta_i A_j - delta_j A_i of a curvature.  Other
operations keep rows sorted: the adjoint negates and reverses them,
``tensor_embed`` puts a's rows, repeated, beside b's, tiled, and a box's
cells in C order are sorted.

Star-product kernels
--------------------
Every star product and every sum of star products has one entry point,
``signed_sums``: it takes the entries of one or more sums base + sum of
terms s1 a_k * b_k + s2 b_k * a_k, each term one signed product (s2 = 0)
or a commutator, and returns them all.  A single product ``a * b``
(``TorusElement.__mul__``) is the one entry zero + a * b, and
``yangmills._matrix_sums`` forms the entries of a matrix product ``@``, of
the curvature, the gradient and the line-search terms, one call for all of
them.  It sends each term to one of two array kernels (``_takes_box``, one
judgement per term).  The dense-box kernel takes a term when a * b has
more than ``_VECTOR_CUTOFF`` pairs of terms, box work at most
``_DENSE_WORK_PER_PAIR`` per pair and only finite coefficients.  It is a
twisted convolution (``_dense_box_kernel``) that gives
s1 a * b + s2 b * a in one call.  a's terms are grouped by their tail
offset (r_1..r_{n-1}), only the offsets that hold a term, and each side is
one 2-d matmul whose product is the output box itself: a's Toeplitz window
along axis 0 (output row; group, row of b) times b's box shifted along the
tail to each group's offset, both strided views of zero-padded arrays.  Row
0 of P is zero, so each cocycle factor goes on one of the two operands or,
for b * a's factor that pairs the output row with the output tail, on the
output box; both sides keep a's grouping.  The tail factors are exactly 1,
and are not formed, unless P has a nonzero column among 1..n-2.  Each term
is one call, whose box is read in C order less the cells under
``CANONICAL_EPS``; its cost follows the box, not the pair count.  A caller
that has proved every commutator's operands skew-adjoint says so to
``signed_sums`` (``_skew``): then (a * b)* = b* * a* = b * a, so a box
commutator s1 (a * b - b * a) whose output box is centred on 0 is x - x*
with x = s1 a * b, the kernel's a * b side alone (s2 = 0), and x* is formed
on the same cells with no grouping (``_minus_adjoint_box``): b * a's shifted
operand, its phase tables and its matmul are not built.  Skewness is never
inferred from the values.  That path builds no phase table per call: each
theta keeps one table of sigma(r, r) (``_sigma_table``, formed as the
adjoint forms its phases, ``_self_phases``), on the smallest box centred on
0 that holds every one-side output box asked for on that theta, and each
commutator looks it up once.  x*'s phases are its slice and, for n = 2,
a * b's left phases e(w_0 s_0) are a gather from it, as both are
e(r_0 (P[1][0] r_1)) at integer cells; every phase has the bits it has when
formed directly.  Unflagged calls form their phase tables per call.  Every
other term (few pairs, a far-out term that makes the box huge, a non-finite
coefficient) runs the pairwise kernel (``_pairwise_kernel``) as a * b and
then b * a, in one pass over the pairwise products of all the entries: the
pairs are gathered from the concatenated term arrays by index arithmetic,
and their exponents and phases are whole-array operations; its time and
memory follow the pair count.  One ``_summed`` grouping by (entry, output
key) then sums every entry once: its base's terms, then its pairs in pass
order, then its box cells in term order, so each sum starts from its base
coefficient and adds the pairs in the order of the pair-by-pair dict loop
that the tests keep as the reference, and has its bits.  The kernels do
their index arithmetic in int64, so a product whose index sums could leave
it raises ``IndexOutOfRange``.

``product_theta`` returns the same object for the same factors as its last
call, so every entry of a product connection shares one product theta and
the theta checks between them are identity checks.

All operations are pure functions of their inputs and values are never
mutated after construction, so anything here may run concurrently on shared
elements.  The one state that they change, a theta's sigma(r, r) table, is
a tuple replaced whole by one assignment and its table is never written, so
a concurrent call reads a whole table (``_sigma_table``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import IndexOutOfRange, ThetaMismatch

#: Coefficients with modulus below this are dropped after every operation.
CANONICAL_EPS = 1e-15

MONOMIAL_ORDER = "U^r = U_1^{r_1} U_2^{r_2} ... U_n^{r_n} (ascending index)"
COCYCLE_CONVENTION = "sigma(r,s) = e(sum_{m<k} Theta[m][k]*r_k*s_m), e(x)=exp(2*pi*i*x)"

#: Largest multi-index entry an element holds: indices, and every sum r + s
#: in a product, are int64, which would wrap silently past it.
_INDEX_LIMIT = 2**63 - 1


class ThetaMatrix:
    """Real skew-symmetric n x n deformation matrix."""

    __slots__ = ("n", "entries", "_pair_mat", "_sigma")

    def __init__(self, entries):
        rows = tuple(tuple(float(v) + 0.0 for v in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("theta must be square")
        if not all(math.isfinite(v) for row in rows for v in row):
            raise ValueError("theta entries must be finite")
        for j in range(n):
            if rows[j][j] != 0.0:
                raise ValueError(f"theta diagonal must be exactly zero, got {rows[j][j]} at {j}")
            for k in range(n):
                if rows[j][k] != -rows[k][j]:
                    raise ValueError(f"theta must be skew-symmetric, violated at ({j},{k})")
        self.n = n
        self.entries = rows
        # the one cocycle: P[k][m] = theta[m][k] for m < k, else 0, and
        # sigma(r, s) = e(r P s^T)
        self._pair_mat = np.tril(np.array(rows).reshape(n, n).T, -1)
        # (half-extents, read-only table) of sigma(r, r), or None: ``_sigma_table``'s
        self._sigma = None

    @classmethod
    def zeros(cls, n: int) -> "ThetaMatrix":
        return cls([[0.0] * n for _ in range(n)])

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ThetaMatrix) and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ThetaMatrix(n={self.n})"


def check_index(entries) -> None:
    """``IndexOutOfRange`` unless every multi-index entry lies within +-(2^63 - 1)."""
    reach = max(max(entries, default=0), -min(entries, default=0))
    if reach > _INDEX_LIMIT:
        raise IndexOutOfRange(f"multi-index entry {reach} in magnitude exceeds {_INDEX_LIMIT}")


class TorusElement:
    """Finite twisted Fourier polynomial sum_i values[i] U^(indices[i]); see "One storage"."""

    __slots__ = ("theta", "indices", "values")

    def __init__(self, theta: ThetaMatrix, coeffs: dict):
        """From a {multi-index: coefficient} dict; ``ValueError`` for a multi-index
        whose length is not n or with an entry that is not an integer (a float
        such as 1.0 included: an entry must have ``__index__``),
        ``IndexOutOfRange`` for an entry past +-(2^63 - 1)."""
        n, m = theta.n, len(coeffs)
        flat = list(itertools.chain.from_iterable(coeffs))
        if len(flat) != m * n:
            bad = next(r for r in coeffs if len(r) != n)
            raise ValueError(f"multi-index {bad} has length != {n}")
        try:
            flat = list(map(operator.index, flat))
        except TypeError:
            bad = next(r for r in coeffs if not all(hasattr(x, "__index__") for x in r))
            raise ValueError(f"multi-index {bad} has an entry that is not an integer") from None
        check_index(flat)
        keys = sorted(coeffs)  # tuples of integers sort lexicographically
        vals = np.fromiter(map(coeffs.__getitem__, keys), dtype=complex, count=m)
        kept = _kept(vals)
        rows = np.array(keys, dtype=np.int64).reshape(m, n)
        _store(self, theta, rows.take(kept, 0), vals.take(kept))

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, theta: ThetaMatrix, indices, values) -> "TorusElement":
        """Internal fast path: arrays already canonical (sorted rows, nothing under the drop)."""
        return _store(object.__new__(cls), theta, indices, values)

    @classmethod
    def zero(cls, theta: ThetaMatrix) -> "TorusElement":
        return cls._raw(theta, np.zeros((0, theta.n), dtype=np.int64), np.zeros(0, dtype=complex))

    @classmethod
    def one(cls, theta: ThetaMatrix) -> "TorusElement":
        return cls(theta, {(0,) * theta.n: 1.0})

    @classmethod
    def monomial(cls, theta: ThetaMatrix, r, coeff=1.0) -> "TorusElement":
        return cls(theta, {tuple(r): complex(coeff)})

    @classmethod
    def generator(cls, theta: ThetaMatrix, j: int) -> "TorusElement":
        """U_j, with j in 1..n."""
        if not 1 <= j <= theta.n:
            raise IndexOutOfRange(f"generator index {j} outside 1..{theta.n}")
        r = [0] * theta.n
        r[j - 1] = 1
        return cls.monomial(theta, r)

    # -- linear structure ----------------------------------------------

    # Negation and the derivations keep every modulus at or above the
    # operand's, so they drop nothing; a sum, a scale or the adjoint's phases
    # can push one under.  Complex products are ``_cmul``'s, which has the
    # bits of Python's complex multiply.

    def __add__(self, other):
        self._check(other)
        return _sum(self, other, other.values)

    def __sub__(self, other):
        self._check(other)
        return _sum(self, other, -other.values)

    def __neg__(self):
        return TorusElement._raw(self.theta, self.indices, -self.values)

    def scale(self, z) -> "TorusElement":
        return _element(self.theta, self.indices, _cmul(complex(z), self.values))

    def __mul__(self, other):
        """The star product with an element, the one entry zero + self * other of
        ``signed_sums``; any other operand is a scalar that scales."""
        if isinstance(other, TorusElement):
            return signed_sums([(TorusElement.zero(self.theta), [(self, other, 1, 0)])])[0]
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- star structure ------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def adjoint(self) -> "TorusElement":
        """Involution: (sum a_r U^r)* = sum conj(a_r) sigma(r, r) U^{-r}.

        One array pass: sigma(r, r) = e(w . r) with w = r P for every term,
        conj(a_r) times it in ``_cmul``'s real arithmetic (NaN and inf carry
        through, as in Python's complex arithmetic).  Negating the sorted rows
        reverses their order, so the result is read backwards.
        """
        r, c = self.indices, self.values
        if not len(c):
            return self
        return _element(self.theta, -r[::-1], _adjoint_values(self.theta, r, c)[::-1])

    def trace(self) -> complex:
        """The tracial state: coefficient at the zero multi-index."""
        at = (~self.indices.any(1)).nonzero()[0]
        return complex(self.values[at[0]]) if len(at) else 0j

    def derivation(self, j: int) -> "TorusElement":
        """delta_j: a_r U^r -> 2*pi*i*r_j a_r U^r, with j in 1..n."""
        if not 1 <= j <= self.theta.n:
            raise IndexOutOfRange(f"derivation index {j} outside 1..{self.theta.n}")
        r, c, t = self.indices, self.values, self.indices[:, j - 1]
        moved = t.nonzero()[0]
        if len(moved) < len(t):
            r, c, t = r.take(moved, 0), c.take(moved), t.take(moved)
        return TorusElement._raw(self.theta, r, _derived(t, c))

    def mode_divided(self, w: float) -> "TorusElement":
        """sum_r a_r / (1 + w |r|^2) U^r, real and imaginary parts divided apart."""
        r, c = self.indices, self.values
        rf = r.astype(float)
        weight = 1.0 + w * (rf * rf).sum(1)
        vals = np.empty_like(c)
        np.divide(c.real, weight, out=vals.real)
        np.divide(c.imag, weight, out=vals.imag)
        return _element(self.theta, r, vals)

    # -- inspection ------------------------------------------------------

    @property
    def coeffs(self):
        """A read-only {multi-index tuple: complex} dict, in index order, built on each access."""
        return MappingProxyType(dict(zip(map(tuple, self.indices.tolist()), self.values.tolist())))

    def l1(self) -> float:
        """Sum of coefficient moduli."""
        return float(np.abs(self.values).sum())

    def norm_sq(self) -> float:
        """GNS norm squared: tau(a* a) = sum_r |a_r|^2 (exact identity)."""
        c = self.values
        return float((c.real * c.real + c.imag * c.imag).sum())

    def _check(self, other):
        if not isinstance(other, TorusElement):
            raise TypeError(f"expected TorusElement, got {type(other)!r}")
        if self.theta != other.theta:
            raise ThetaMismatch("operands live over different theta matrices")

    def __repr__(self):
        coeffs = self.coeffs
        body = " + ".join(f"({c:.3g})U^{list(r)}" for r, c in itertools.islice(coeffs.items(), 4))
        more = "" if len(coeffs) <= 4 else f" + ... ({len(coeffs)} terms)"
        return f"<{body or '0'}{more}>"


def _store(el: TorusElement, theta: ThetaMatrix, indices, values) -> TorusElement:
    """el holding the canonical arrays, made read-only."""
    indices.setflags(write=False)
    values.setflags(write=False)
    el.theta, el.indices, el.values = theta, indices, values
    return el


def _self_phases(th: ThetaMatrix, r):
    """sigma(r, r) = e(w . r), w = r P, for each row of the int64 (terms, n)
    index array r: the one expression of the involution's phase."""
    return _phases(_exponents(_cocycle_rows(th, r), r))


def _adjoint_values(th: ThetaMatrix, r, c):
    """conj(c) sigma(r, r) per term, in r's order and with nothing dropped: the
    adjoint's coefficient at -r.  The exponent of -r has the bits of r's, as
    both w = r P and w . r only change sign twice."""
    return _cmul(np.conj(c), _self_phases(th, r))


def _paired_adjoint(a: TorusElement, b: TorusElement):
    """b*'s coefficients on a's rows, nothing dropped, when a's rows are b's
    negated and read backwards (b*'s rows); None when they are not."""
    if a.indices.shape != b.indices.shape or not np.array_equal(a.indices, -b.indices[::-1]):
        return None
    return _adjoint_values(b.theta, b.indices, b.values)[::-1]


@np.errstate(over="ignore", invalid="ignore")
def skew_entries(pairs) -> list:
    """[(a - b*) / 2 for (a, b) in pairs], all over one theta: for a = m_ij
    and b = m_ji, entry (i, j) of the skew part of a matrix m.  Each is bit
    for bit ``(a - b.adjoint()).scale(0.5)``, with the adjoint's, the
    difference's and the halving's drops.

    When a's rows are b*'s (``_paired_adjoint``), every row of a meets the
    row of b* it pairs with, so the difference is elementwise, with no
    grouping: b*'s values under the drop are the adjoint's dropped terms and
    subtract as zeros, a - y is the grouped sum a + (-y), and one drop after
    the halving drops what the difference's and the halving's drops do (a
    halving never raises a modulus).  The other pairs are one grouping: the
    adjoint values of all their b's are one array pass, less those that the
    adjoint drops, and ``_summed`` by (pair, key) adds each key's -b* term
    to its a term, as ``-`` groups them; then the halving and one drop over
    all of them.  The adjoint's drop reads the values backwards, as
    ``adjoint`` does: numpy's modulus of a strided array can differ in the
    last bit from that of a contiguous one, and decide a term at the drop.
    """
    if not pairs:
        return []
    first = pairs[0][0]
    out, rest = [None] * len(pairs), []
    for k, (a, b) in enumerate(pairs):
        first._check(a)
        a._check(b)
        y = _paired_adjoint(a, b)
        if y is None:
            rest.append(k)
            continue
        star = np.zeros_like(y)  # b* on a's rows, zero where the adjoint drops a term
        kept = _kept(y)
        star[kept] = y[kept]
        out[k] = _element(a.theta, a.indices, _cmul(0.5 + 0j, a.values - star))
    if rest:
        th = first.theta
        left, right = [pairs[k][0] for k in rest], [pairs[k][1] for k in rest]
        ids = range(len(rest))
        rb = np.concatenate([b.indices for b in right])
        y = _adjoint_values(th, rb, np.concatenate([b.values for b in right]))
        # the adjoint's drop, on its values read backwards as ``adjoint`` reads
        # them: np.abs may round a strided read otherwise than a contiguous one
        kept = len(y) - 1 - _kept(y[::-1])[::-1]
        entry = np.concatenate(
            (np.repeat(ids, [len(a.values) for a in left]), np.repeat(ids, [len(b.values) for b in right]).take(kept))
        )
        rows = np.concatenate([a.indices for a in left] + [-rb.take(kept, 0)])
        vals = np.concatenate([a.values for a in left] + [-y.take(kept)])
        for k, x in zip(rest, _entry_sums(th, ids, entry, rows, vals, 0.5 + 0j)):
            out[k] = x
    return out


@np.errstate(over="ignore", invalid="ignore")
def skew_residue(a: TorusElement, b: TorusElement):
    """(max_r |a_r + (b*)_r|, max_r |a_r|) with nothing dropped, or None when
    a's rows are not b*'s (``_paired_adjoint``): for a = m_ij and b = m_ji,
    how far entry (i, j) of m + m* is from zero, against the entry's size."""
    a._check(b)
    y = _paired_adjoint(a, b)
    if y is None:
        return None
    return float(np.abs(a.values + y).max(initial=0.0)), float(np.abs(a.values).max(initial=0.0))


def _derived(t, c):
    """2 pi i t c per term, for int64 t and complex c: (0 + i f) c with
    f = 2 pi t, as Python's complex multiply forms it."""
    f = 2.0 * math.pi * t
    vals = np.empty(len(c), dtype=complex)
    np.subtract(0.0 * c.real, f * c.imag, out=vals.real)
    np.add(0.0 * c.imag, f * c.real, out=vals.imag)
    return vals


def derivation_differences(entries) -> list:
    """[delta_i x - delta_j y for (x, i, y, j) in entries], all over one
    theta, each bit for bit ``x.derivation(i) - y.derivation(j)``: the bases
    of the curvature's entries.

    Every derivative of every entry is one set of array passes (``_derived``
    on the terms whose index entry is nonzero), delta_j y's values negated,
    which is exact, and one ``_summed`` grouping by (entry, key) adds each
    key's -delta_j y term to its delta_i x term, as ``-`` groups them.  A
    derivative keeps every modulus at or above its operand's, so a lone
    term is never dropped, and one drop over all the sums drops what each
    difference's does.
    """
    if not entries:
        return []
    first = entries[0][0]
    th = first.theta
    if not all(1 <= i <= th.n and 1 <= j <= th.n for _, i, _, j in entries):
        raise IndexOutOfRange(f"derivation index outside 1..{th.n}")
    ids = range(len(entries))
    entry, rows, vals = [], [], []
    for side in (0, 2):
        els = [e[side] for e in entries]
        for el in els:
            first._check(el)
        counts = [len(el.values) for el in els]
        r = np.concatenate([el.indices for el in els])
        t = r[np.arange(len(r)), np.repeat([e[side + 1] - 1 for e in entries], counts)]
        moved = t.nonzero()[0]
        v = _derived(t.take(moved), np.concatenate([el.values for el in els]).take(moved))
        entry.append(np.repeat(ids, counts).take(moved))
        rows.append(r.take(moved, 0))
        vals.append(-v if side else v)
    return _entry_sums(th, ids, np.concatenate(entry), np.concatenate(rows), np.concatenate(vals))


def _kept(vals):
    """Positions of the values that stay: modulus at least ``CANONICAL_EPS``, or NaN.

    The one place where small values are dropped.
    """
    return (~(np.abs(vals) < CANONICAL_EPS)).nonzero()[0]


def _element(th: ThetaMatrix, rows, vals) -> TorusElement:
    """The element of sorted int64 index rows and their values, less the values under the drop."""
    kept = _kept(vals)
    if len(kept) < len(vals):
        rows, vals = rows.take(kept, 0), vals.take(kept)
    return TorusElement._raw(th, rows, vals)


#: Codes of index rows at or past this are not formed; the rows are sorted instead.
_CODE_LIMIT = 2**62

#: Key boxes of at most this many cells have 16-bit codes, which numpy's
#: stable argsort sorts by radix.
_SHORT_CODE_CELLS = 2**16


def _groups(keys):
    """(order, starts): the columns of an int64 (k, m) array in lexicographic
    order by a stable sort, and which sorted positions start a group of equal
    columns.

    The sort is of one code, a column's place in the box of the keys: a
    uint16 when the box has at most ``_SHORT_CODE_CELLS`` cells, which
    numpy's stable argsort sorts by radix, else an int64.  When the box has
    ``_CODE_LIMIT`` cells or more it is of the rows themselves, by
    ``np.lexsort``.  Every sort is stable, and a stable order is unique, so
    all three give the same order, and each group keeps its columns in input
    order.
    """
    lo, hi = keys.min(1), keys.max(1)
    ext = [h - l + 1 for h, l in zip(hi.tolist(), lo.tolist())]  # Python ints: may pass int64
    cells = math.prod(ext)
    if cells < _CODE_LIMIT:
        code = np.ravel_multi_index(keys - lo[:, None], ext)
        if cells <= _SHORT_CODE_CELLS:
            code = code.astype(np.uint16)
        order = code.argsort(kind="stable")
        code = code.take(order)
        step = code[1:] != code[:-1]
    else:
        # the last key is lexsort's primary one
        order = np.lexsort(keys[::-1])
        rows = keys.take(order, 1)
        step = (rows[:, 1:] != rows[:, :-1]).any(0)
    return order, np.concatenate(([True], step))


def _summed(keys, vals):
    """(first, sums): per group of ``_groups(keys)``, in sorted order, the
    input position of its first column and the sum of its values.

    Each sum starts from the group's first value by assignment and adds the
    others one by one in input order (``np.add.at``), so a lone value keeps
    its bits, -0.0 parts included.
    """
    order, starts = _groups(keys)
    vals = vals.take(order)
    sums = vals[starts]
    rest = ~starts
    np.add.at(sums, starts.cumsum()[rest] - 1, vals[rest])
    return order[starts], sums


def _entry_sums(th: ThetaMatrix, ids, entry, rows, vals, factor=None) -> list:
    """[the element of entry e for e in ids] of the terms (entry, row, value):
    one ``_summed`` grouping by (entry, row), each sum times ``factor``
    (``_cmul``) when one is given, then ``_elements``.  ``ids`` ascend and
    hold every entry."""
    if not len(vals):
        return [TorusElement.zero(th) for _ in ids]
    # the keys one index column per row, after the entry: the reductions in
    # ``_groups`` then run along contiguous rows
    head, sums = _summed(np.concatenate((entry[None, :], rows.T)), vals)
    if factor is not None:
        sums = _cmul(factor, sums)
    return _elements(th, ids, entry.take(head), rows.take(head, 0), sums)


def _elements(th: ThetaMatrix, ids, entry, rows, vals) -> list:
    """[the element of entry e for e in ids] of the terms (entry, row, value),
    sorted by (entry, row) with no key twice, less the values under the drop:
    one ``_kept`` over all of them.  ``ids`` ascend and hold every entry."""
    kept = _kept(vals)
    if len(kept) < len(vals):
        entry, rows, vals = entry.take(kept), rows.take(kept, 0), vals.take(kept)
    bounds = np.searchsorted(entry, [*ids, ids[-1] + 1]).tolist()
    return [TorusElement._raw(th, rows[lo:hi], vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _sum(a: TorusElement, b: TorusElement, cb) -> TorusElement:
    """a plus the element with b's indices and the coefficients cb (b's, or their negatives)."""
    if not len(cb):
        return a
    if not len(a.values):
        return TorusElement._raw(a.theta, b.indices, cb)
    rows = np.concatenate((a.indices, b.indices))
    first, sums = _summed(rows.T, np.concatenate((a.values, cb)))
    return _element(a.theta, rows.take(first, 0), sums)


def inner_sum(pairs) -> complex:
    """The sum over (a, b) in ``pairs`` of tau(a* b) = sum_r conj(a_r) b_r.

    One ``_groups`` of every pair's indices, the pair as the leading digit
    and a's terms before b's: a's and b's terms at one index make a group of
    two.  When each pair is one element twice, every index matches and the
    products come in that same order without the grouping.  They are summed
    by numpy's pairwise sum, not a BLAS dot, so the bits do not depend on
    the BLAS thread count.
    """
    sides = [[a for a, _ in pairs], [b for _, b in pairs]]
    left, right = (np.concatenate([x.values for x in side]) for side in sides)
    if any(a is not b for a, b in pairs):
        if not len(left) or not len(right):
            return 0j
        entry = np.concatenate([np.arange(len(pairs)).repeat([len(x.values) for x in side]) for side in sides])
        keys = np.concatenate([x.indices for x in sides[0] + sides[1]]).T
        order, starts = _groups(np.concatenate((entry[None, :], keys)))
        second = (~starts).nonzero()[0]
        left, right = left.take(order.take(second - 1)), right.take(order.take(second) - len(left))
    return complex(_cmul(np.conj(left), right).sum())


#: Products of at most this many pairs of terms run the pairwise kernel,
#: whose cost is a fixed number of numpy calls per pass plus a sort and a
#: few array passes over the pairs; larger ones may run the dense box.  Both
#: kernels compute the same sums up to rounding.
_VECTOR_CUTOFF = 512

#: The (s1, s2) signs of a ``signed_sums`` term.
_SIGNS = frozenset(itertools.product((-1, 1), (-1, 0, 1)))

#: The dense-box kernel runs while its work (``_dense_box_work``) per pair of
#: terms is at most this; above it the pairwise kernel runs, whose time and
#: memory follow the pair count.  The work bounds every array the dense kernel
#: builds, and the limit is where the two kernels' times cross.  Timed with its
#: output conversion, on one BLAS thread, over discs of fill 0.1 to 1, sparse
#: one-row strips times discs and diagonals times two-row strips, the dense
#: kernel is the faster on every product of up to 16 per pair, and its median
#: time ratio to the pairwise kernel passes 1 between 24 and 48 per pair.  Box
#: cells alone are not enough: a one-row strip of 160 terms 5 apart times a
#: radius-10 disc has 0.34 cells but 54 units of work per pair, and the dense
#: kernel takes about 1.8x the pairwise kernel's time there (1.2x on 81 such
#: terms, 30 per pair), as its matmul runs b's shifted box across the whole
#: output tail.  One far-out term (say U^(0,10**6) next to a dense patch) makes
#: the box millions of cells for a few thousand pairs.
_DENSE_WORK_PER_PAIR = 32


# inf and NaN coefficients carry through, as in Python's complex arithmetic;
# callers that need finite results check them
@np.errstate(over="ignore", invalid="ignore")
def signed_sums(entries, _skew: bool = False) -> list:
    """[base + sum of s1 a * b + s2 b * a] for each (base, [(a, b, s1, s2), ...]) entry.

    s1 is -1 or 1 and s2 -1, 0 or 1: a term is one signed product (s2 = 0)
    or, with s2 = -s1, a commutator, the unit of ``_dense_box_kernel``.
    ``_skew`` says that the caller has proved every commutator's operands
    skew-adjoint (``yangmills.minimize`` does, for its iterates); then a box
    commutator whose output box is centred on 0 (``_centred``) is
    s1 (x - x*) from the kernel's a * b side alone (``_minus_adjoint_box``),
    equal to the full kernel's up to rounding, its phases read from theta's
    sigma(r, r) table (``_sigma_table``), looked up once and handed to the
    kernel and to ``_minus_adjoint_box``.  Any other term, and every
    term of a call without ``_skew``, takes the path below.  The
    one entry point of the star-product kernels: a single product, and the
    entries of matrix products and of sums of commutators, as
    ``yangmills._matrix_sums`` forms them.  A term with an empty operand
    adds nothing.  ``_takes_box`` picks each term's kernel once, on a's
    grouping, for a term of more than ``_VECTOR_CUTOFF`` pairs; a smaller
    one is pairwise.  The pairwise terms of every entry run as one
    ``_pairwise_kernel`` pass: a term adds a * b and then, if s2 is nonzero,
    b * a, a negative sign entering as the left coefficients negated, which
    is exact.  Each dense-box term is one kernel call, its box read in C
    order.  One ``_summed`` grouping by (entry, output key) then sums every
    entry: its base's terms, then its pairs in pass order, then its box
    terms' cells in term order, so each sum starts from the base coefficient.
    ``CANONICAL_EPS`` drops each box's cells as the box is read and the
    sums once, one ``_kept`` over every entry's, not each pair.  An entry
    without terms is its base.  Every base and operand shares one theta,
    compared by identity with the first base's and, only where that fails,
    by value (``ThetaMismatch``); ``ValueError`` for signs out of the
    contract above.  ``IndexOutOfRange`` if an entry of r + s could leave
    int64.
    """
    if not entries:
        return []
    first = entries[0][0]
    th = first.theta
    pair_entries, products, boxed = [], [], []
    for e, (base, terms) in enumerate(entries):
        if getattr(base, "theta", None) is not th:
            first._check(base)
        for a, b, s1, s2 in terms:
            if (s1, s2) not in _SIGNS:
                raise ValueError(f"term signs ({s1}, {s2}): s1 must be -1 or 1 and s2 -1, 0 or 1")
            if getattr(a, "theta", None) is not th or getattr(b, "theta", None) is not th:
                first._check(a)
                first._check(b)
            pairs = len(a.values) * len(b.values)
            if not pairs:
                continue
            ops = (a.indices, a.values, b.indices, b.values)
            bounds = _takes_box(*ops) if pairs > _VECTOR_CUTOFF else None
            if bounds:
                _check_sums(_reach(*bounds[:2]), _reach(*bounds[2:]))
                boxed.append((e, ops, bounds, s1, s2, _skew and s2 == -s1 and _centred(bounds)))
            else:
                pair_entries.append(e)
                products.append((a.indices, -a.values if s1 < 0 else a.values, b.indices, b.values))
                if s2:
                    pair_entries.append(e)
                    products.append((b.indices, -b.values if s2 < 0 else b.values, a.indices, a.values))
    outs = [base for base, _ in entries]
    held = set(pair_entries)
    sizes = [len(ca) * len(cb) for _, ca, _, cb in products]
    # (entry per row, rows, values) of the pass's pairs and then of each box's cells
    parts = [(np.repeat(pair_entries, sizes), *_pairwise_kernel(th, products))] if products else []
    for e, ops, bounds, s1, s2, one_side in boxed:
        if one_side:
            half = [(ea + eb - 2) // 2 for ea, eb in zip(bounds[1], bounds[3])]
            sigma = top, table = _sigma_table(th, half)
            x = _dense_box_kernel(th, *ops, bounds, s1, 0, sigma=sigma)
            box = _minus_adjoint_box(x, table[tuple(slice(t - h, t + h + 1) for t, h in zip(top, half))])
        else:
            box = _dense_box_kernel(th, *ops, bounds, s1, s2)
        cells = box.ravel()
        kept = _kept(cells)
        if len(kept):
            held.add(e)
            lo = np.array([x + y for x, y in zip(bounds[0], bounds[2])], dtype=np.int64)
            rows = np.stack(np.unravel_index(kept, box.shape), axis=1) + lo
            parts.append((np.full(len(kept), e), rows, cells.take(kept)))
    if not held:
        return outs
    held = sorted(held)
    lead = [outs[e] for e in held]
    counts = [len(x.values) for x in lead]
    entry = np.concatenate([np.repeat(held, counts)] + [e for e, _, _ in parts])
    rows = np.concatenate([x.indices for x in lead] + [r for _, r, _ in parts])
    # the keys one index column per row, after the entry: the reductions in
    # ``_groups`` then run along contiguous rows
    keys = np.concatenate((entry[None, :], rows.T))
    head, sums = _summed(keys, np.concatenate([x.values for x in lead] + [v for _, _, v in parts]))
    # the dict loop of the tests starts a key that base lacks from zero, which
    # differs from starting at its first pair only in the sign of a zero part:
    # adding +0.0 to such a sum does the same
    pairs_at = sum(counts)
    sums[(head >= pairs_at) & (head < pairs_at + sum(sizes))] += 0.0
    for e, x in zip(held, _elements(th, held, entry.take(head), rows.take(head, 0), sums)):
        outs[e] = x
    return outs


def _centred(bounds) -> bool:
    """Whether the output box of the operands' ``_boxes`` is centred on 0, so
    that it holds -r for each of its cells r."""
    return all(2 * (la + lb) + ea + eb == 2 for la, ea, lb, eb in zip(*bounds))


def _reach(lo, ext) -> int:
    """The largest magnitude of an entry in the box of least multi-index ``lo``
    and extents ``ext``, lists of Python ints as ``_boxes`` gives them."""
    return max(max(abs(x), abs(x + e - 1)) for x, e in zip(lo, ext))


def _check_sums(reach_a: int, reach_b: int) -> None:
    """``IndexOutOfRange`` if an entry of r + s could leave int64, r's entries
    at most ``reach_a`` and s's at most ``reach_b`` in magnitude."""
    if reach_a + reach_b > _INDEX_LIMIT:
        raise IndexOutOfRange(
            f"multi-index entries up to {reach_a} and {reach_b} in magnitude: "
            f"their sums may exceed {_INDEX_LIMIT}"
        )


def _takes_box(ra, ca, rb, cb):
    """The operands' ``_boxes`` when a term s1 a * b + s2 b * a runs the dense
    box rather than the pairwise kernel, None when it does not.

    It does when there are more than ``_VECTOR_CUTOFF`` pairs, its work is at
    most ``_DENSE_WORK_PER_PAIR`` per pair and every coefficient is finite (it
    multiplies each coefficient by the box's empty cells, and NaN * 0 would
    spread NaN outside the product's support).  The work is a * b's, on a's
    grouping, and b * a keeps that grouping at that cost, so one judgement
    routes both products of a commutator: they run as one kernel call or
    both pairwise.
    """
    pairs = len(ca) * len(cb)
    if pairs > _VECTOR_CUTOFF and np.isfinite(ca).all() and np.isfinite(cb).all():
        bounds = _boxes(ra, rb)
        if _dense_box_work(len(ra), bounds) <= _DENSE_WORK_PER_PAIR * pairs:
            return bounds
    return None


def _cocycle_rows(th: ThetaMatrix, r):
    """w = r P for an int64 (terms, n) index array, summed over P's rows in order.

    Elementwise multiplies and adds, so a row's w has the same bits whatever
    rows share the array; a BLAS matmul may give one row alone other bits
    than the same row inside a taller matrix.  P's row 0 is zero and is left
    out.
    """
    p = th._pair_mat
    if th.n == 1:
        return np.zeros((len(r), 1))
    # built transposed, so that each multiply and add runs along r's rows
    cols = r.T.astype(float)
    w = p[1][:, None] * cols[1]
    for k in range(2, th.n):
        w += p[k][:, None] * cols[k]
    return w.T


def _exponents(w, s):
    """The cocycle exponents w . s, for w from ``_cocycle_rows`` and int64 indices s.

    w and s have shape (..., n) and broadcast against each other; the result
    has their broadcast shape without the last axis.  The sum runs over P's
    columns in order, with one elementwise multiply and then adds: a BLAS dot
    could fuse a multiply-add and change a bit.  P's last column is always
    zero and is left out of the sum; any other zero column adds exact zeros,
    so the sum is the one over the nonzero columns.
    """
    terms = w * s
    x = terms[..., 0]
    for m in range(1, terms.shape[-1] - 1):
        x = x + terms[..., m]
    return x


def _phases(x):
    """e(x) for an array of exponents, with x reduced mod 1 first.

    x - floor(x) is np.mod(x, 1.0) bit for bit (both round the exact
    fractional part once) at a fraction of its cost.
    """
    return np.exp(2j * math.pi * (x - np.floor(x)))


def _cmul(x, y):
    """x * y for complex arrays or scalars that broadcast, in real arithmetic.

    The formulas are Python's, re = x.re y.re - x.im y.im and
    im = x.re y.im + x.im y.re, as four products, a subtract and an add:
    numpy's complex multiply may contract to FMA, which would make a * b and
    b * a differ at theta = 0.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    rr = xr * yr
    out = np.empty(rr.shape, dtype=complex)
    np.subtract(rr, xi * yi, out=out.real)
    np.add(xr * yi, xi * yr, out=out.imag)
    return out


def _pairwise_kernel(th: ThetaMatrix, products):
    """(rows, values): every pair of terms of the products (ra, ca, rb, cb), r + s and its value.

    The pairs, product by product and each in the order of the pair-by-pair
    dict loop kept in the tests, are gathered from the concatenated term
    arrays by index arithmetic, so the number of numpy calls does not grow
    with the number of products.  Their exponents, phases and complex
    products (``_cmul``) are whole-array operations; ``signed_sums`` sums
    them.  Time and memory follow the pair count.  For one product this is
    the loop's arithmetic, except for the order of the exponent's sum and
    numpy's exp in place of cmath's.
    """
    ras, cas, rbs, cbs = zip(*products)
    ra, ca, rb, cb = (np.concatenate(x) for x in (ras, cas, rbs, cbs))
    try:
        _check_sums(int(np.abs(ra).max()), int(np.abs(rb).max()))
    except IndexOutOfRange:  # raised again by the first product whose sums may leave int64
        for x, y in zip(ras, rbs):
            _check_sums(int(np.abs(x).max()), int(np.abs(y).max()))
    na = np.array([len(c) for c in cas])
    nb = np.array([len(c) for c in cbs])
    # each left term takes its product's right terms in order: a block of
    # ``per_left`` pairs that starts where the previous block ends
    per_left = nb.repeat(na)
    ia = np.arange(len(ca)).repeat(per_left)
    ends = per_left.cumsum()
    first_right = (nb.cumsum() - nb).repeat(na)
    ib = np.arange(ends[-1]) + (first_right - ends + per_left).repeat(per_left)
    left, right = ca[ia], cb[ib]
    # ``take`` gathers whole rows at once, where indexing copies them one by one
    w, r, s = _cocycle_rows(th, ra).take(ia, 0), ra.take(ia, 0), rb.take(ib, 0)
    return r + s, _cmul(_cmul(left, right), _phases(_exponents(w, s)))


def _boxes(ra, rb):
    """(lo_a, ext_a, lo_b, ext_b): each operand's least multi-index and its
    box's extent per axis, lists of Python ints (a box can be wider than
    int64).  Each index array is reduced once, as a transposed copy: numpy
    reduces the rows of a short, wide array faster than the columns of a
    tall one.
    """
    out = []
    for r in (ra, rb):
        cols = np.ascontiguousarray(r.T)
        lo, hi = cols.min(1).tolist(), cols.max(1).tolist()
        out += [lo, [h - l + 1 for h, l in zip(hi, lo)]]
    return tuple(out)


def _dense_box_work(terms_a: int, bounds) -> int:
    """Output box cells plus groups x (b's extent along axis 0) x the larger of
    (output extent along axis 0) x (b's tail cells) and the output tail cells.

    ``bounds`` are the operands' ``_boxes``; a has at most min(terms, tail
    cells of its box) groups.  The first of the two is a bound on the
    multiply-adds of one side's matmul that meet b's box rather than the
    zeros around it, the second the size of one side's right operand, b's
    box shifted to every group.  The first also bounds the left operand and
    a's padded rows; b's padded rows are at most twice the output box, and
    every other array at most the output box or the right operand.  A
    commutator builds the b * a operands only after the a * b ones are
    freed, and a one-side commutator adds only arrays of the output box's
    size (``_minus_adjoint_box``), so this also bounds the memory of a call.
    The sigma(r, r) table that a one-side commutator reads lives as long as
    its theta, and is bounded by the largest one-side output box asked for
    on that theta (``_sigma_table``).
    """
    _, ext_a, _, ext_b = bounds
    ext = [x + y - 1 for x, y in zip(ext_a, ext_b)]
    groups = min(terms_a, math.prod(ext_a[1:]))
    per_row = max(ext[0] * math.prod(ext_b[1:]), math.prod(ext[1:]))
    return math.prod(ext) + groups * ext_b[0] * per_row


def _dense_box_kernel(th: ThetaMatrix, ra, ca, rb, cb, bounds, s1: int, s2: int, *, sigma=None):
    """s1 (a * b) + s2 (b * a) over the dense output box of a * b, s1 -1 or 1 and s2 -1, 0 or 1.

    ``bounds`` are the operands' ``_boxes``; the result is the box's complex
    cells as an array of extent ext_a + ext_b - 1, its cell 0 at
    lo_a + lo_b.  Write r = lo_a + (x, m) for a's terms and s = lo_b + (j, c)
    for b's, with x and j offsets along axis 0 and m and c offsets in the
    tail boxes, so that the output cell is (i, t) = (x + j, m + c).  a's
    groups are the tail offsets m that hold a term.  Each side is one 2-d
    matmul whose product is the output box (i, t) itself, summed over
    (group, j): the left operand is a's Toeplitz window, a[i - j, m] at
    (i; m, j), a strided view of a zero-padded array times a phase, and the
    right one is b's box shifted along the tail by m, b[j, t - m] at
    (m, j; t), a strided view of a zero-padded copy.  In C order a shift by
    m adds m's flat offset in the output tail, so a group's shift is one
    slide of b's row.

    Row 0 of P is zero, so w = r P depends only on m, and with
    omega(y) = sum_{k >= 1} y_k P[k][0], linear in the tail y of a
    multi-index, v_0 = (s P)_0 = omega(lo_b + c):

        sigma(r, s) = e(w_0 s_0) e(w_tail . s_tail),
        sigma(s, r) = e(v_0 r_0) e(u),  u = sum_{k >= 1} r_k (s P)_k.

    a * b takes e(w_0 (lo_b0 + j)) on the left operand.  b * a keeps a's
    grouping: with r_0 = lo_a0 + i - j and v_0 = omega(lo_b + t) - omega(m),
    e(v_0 r_0) is e(v_0 (lo_a0 - j)) on b's terms, e(-omega(m) i) on the left
    operand and e(omega(lo_b + t) i) on the output box.  The offsets i and j
    are box-relative, so the large lo_a0 v_0 is one exponent, not the
    difference of two.  The factors of the tail, e(w_tail . s_tail) and e(u),
    go on the right operands, and only for P's nonzero columns 1 .. n - 2:
    with none, as for every n = 2, they are exactly 1 and are left out.
    Every array the kernel builds is bounded by ``_dense_box_work``, and
    each is built only where it is read: t for the tail factors and b * a,
    w for the tail factors and a * b's left phases.  A one-side commutator
    of ``signed_sums`` passes its ``_sigma_table`` as ``sigma``: for n = 2
    the left phases are then read from it (``_sigma_left``) when their
    cells lie in it.
    """
    n, p = th.n, th._pair_mat
    ext = [x + y - 1 for x, y in zip(bounds[1], bounds[3])]
    rows0, b0, tail = ext[0], bounds[3][0], math.prod(ext[1:])
    lo_a, lo_b = (np.array(x, dtype=np.int64) for x in bounds[::2])
    # C-order strides of the tail axes in a's box and in the output box
    stride_a = np.array([math.prod(bounds[1][k + 1 :]) for k in range(1, n)], dtype=np.int64)
    stride = np.array([math.prod(ext[k + 1 :]) for k in range(1, n)], dtype=np.int64)

    # a's groups: the tail offsets that hold a term, in C order
    key = (ra[:, 1:] - lo_a[1:]) @ stride_a
    held = np.zeros(math.prod(bounds[1][1:]), dtype=bool)
    held[key] = True
    group = (held.cumsum() - 1).take(key)
    groups = int(held.sum())
    first = np.empty(groups, dtype=np.int64)
    first[group] = np.arange(len(ra))
    r = ra.take(first, 0)  # one term per group; its tail is the group's
    m = r[:, 1:] - lo_a[1:]
    shift = m @ stride  # ascending, as the groups are in C order
    # padded[x + b0 - 1, g] = a's coefficient at offset x along axis 0 in group g,
    # so that toeplitz[i, g, j] = padded[i - j + b0 - 1, g], zero off a's rows
    padded = np.zeros((rows0 + b0 - 1, groups), dtype=complex)
    padded[ra[:, 0] - lo_a[0] + b0 - 1, group] = ca
    step, across = padded.strides
    toeplitz = as_strided(padded, (rows0, groups, b0), (step, across, step))[:, :, ::-1]
    last = int(shift[-1])
    at_b = (rb[:, 0] - lo_b[0], last + (rb[:, 1:] - lo_b[1:]) @ stride)
    tails = [k for k in range(1, n - 1) if p[:, k].any()]
    if tails or s2:
        t = np.indices(ext[1:]).reshape(n - 1, tail)  # each output tail cell's offsets

    def shifted(values):
        """right[g, j, t] = the value of b's term at (j, t - shift[g]), zero off b."""
        row = np.zeros((b0, last + tail), dtype=complex)
        row[at_b] = values
        # slides[k, j, t] = row[j, k + t]: b's row j shifted by last - k
        slides = as_strided(row, (last + 1, b0, tail), (row.strides[1], row.strides[0], row.strides[1]))
        return slides[last - shift]

    def tail_phases(terms):
        """e(sum of y * s_k) over (y, k) in ``terms``, y per group and s_k the
        index entry k of b's term at (group, output tail cell)."""
        x = 0.0
        for y, k in terms:
            x = x + y[:, None] * (lo_b[k] + t[k - 1] - m[:, k - 1, None])
        return _phases(x)[:, None, :]

    def side(left_phase, right):
        left = np.multiply(toeplitz, left_phase, out=np.empty((rows0, groups, b0), dtype=complex))
        return left.reshape(rows0, -1) @ right.reshape(-1, tail)

    right = shifted(cb)
    phase = None if sigma is None or n != 2 else _sigma_left(sigma, bounds, r[:, 1])
    if phase is None:
        w = _cocycle_rows(th, r)
        if tails:
            right *= tail_phases([(w[:, k], k) for k in tails])
        phase = _phases(np.outer(w[:, 0], lo_b[0] + np.arange(b0)))
    # the signs ride on the left operands' phases: a multiply by -1 is exact
    out = side(s1 * phase, right)
    if s2:
        del right  # at most one side's operands live at a time
        v = _cocycle_rows(th, rb)[:, 0]
        right = shifted(cb * _phases(v * (lo_a[0] - (rb[:, 0] - lo_b[0]))))
        if tails:
            right *= tail_phases([(r[:, k] * p[l, k], l) for k in tails for l in range(k + 1, n) if p[l, k]])
        i = np.arange(rows0)
        ba = side(s2 * _phases(np.outer(i, -_cocycle_rows(th, r - lo_a)[:, 0]))[:, :, None], right)
        cells = np.zeros((tail, n), dtype=np.int64)  # lo_b + t, for omega(lo_b + t)
        cells[:, 1:] = t.T + lo_b[1:]
        ba *= _phases(np.outer(i, _cocycle_rows(th, cells)[:, 0]))
        out += ba
    return out.reshape(ext)


def _minus_adjoint_box(x, sigma):
    """x - x* on a box of cells centred on 0: c(r) = x(r) - conj(x(-r)) sigma(r, r),
    with ``sigma`` the box's slice of ``_sigma_table``.

    -r is r's cell mirrored in C order, so x(-r) is the box read backwards,
    and no cell is grouped.
    """
    return x - _cmul(np.conj(np.flip(x)), sigma)


def _sigma_table(th: ThetaMatrix, half):
    """(top, table): sigma(r, r) (``_self_phases``) on the box of cells centred
    on 0 with half-extents ``top``, cell r at r + top, where top holds
    ``half`` elementwise.

    The table is kept on theta (``ThetaMatrix._sigma``): it is theta's last
    one when that box holds this one, and otherwise built on the box of the
    elementwise max of both half-extents and kept in its place.  So it is
    the smallest centred box that holds every box asked for on theta: up to
    that box's 16 bytes per cell, as long as theta lives.  Each cell is
    sigma(r, r) of its own row, so a slice has the bits of a table built on
    the slice's own box, and of the adjoint's phase.

    Threads: ``th._sigma`` is read once and replaced whole by one
    assignment, and a stored table is never written, so concurrent calls
    each read a whole table; one lost to a concurrent store is built again.
    """
    kept = th._sigma
    if kept is not None:
        if all(h <= t for h, t in zip(half, kept[0])):
            return kept
        half = [max(h, t) for h, t in zip(half, kept[0])]
    ext = [2 * h + 1 for h in half]
    cells = np.indices(ext, dtype=np.int64).reshape(th.n, -1).T - half
    table = _self_phases(th, cells).reshape(ext)
    table.setflags(write=False)
    th._sigma = kept = (tuple(half), table)
    return kept


def _sigma_left(sigma, bounds, tails):
    """For n = 2, a * b's left phases e(w_0 (lo_b0 + j)), w_0 = P[1][0] r_1
    for each group tail r_1 in ``tails``, as (group, j), read from the
    sigma(r, r) table ``sigma`` (``_sigma_table``'s); None when one of
    their cells lies outside it.

    For n = 2 the exponent of sigma(r, r) is r_0 (P[1][0] r_1), and the
    phase is w_0 s_0 at s_0 = lo_b0 + j: the cell (lo_b0 + j, r_1), with
    its bits, as a product of two floats does not depend on their order.
    The rows are b's range along axis 0 and the columns a's tails, so the
    cells lie in the box when a's range along axis 0 and b's tail hold 0,
    as the supports of skew operands do.
    """
    (h0, h1), table = sigma
    lo_a, ext_a, lo_b, ext_b = bounds
    if -h0 <= lo_b[0] and lo_b[0] + ext_b[0] <= h0 + 1 and -h1 <= lo_a[1] and lo_a[1] + ext_a[1] <= h1 + 1:
        return table[lo_b[0] + h0 : lo_b[0] + h0 + ext_b[0]].take(tails + h1, axis=1).T
    return None


@functools.lru_cache(maxsize=1)
def product_theta(theta: ThetaMatrix, phi: ThetaMatrix) -> ThetaMatrix:
    """Block-diagonal deformation matrix of the (n+m)-torus A_Theta (x) A_Phi.

    A call with factors equal to the last call's returns the last call's
    object, so all the entries that one product connection embeds share one
    theta.  A ThetaMatrix never changes, so that is the cache's only effect.
    """
    n, m = theta.n, phi.n
    rows = [[0.0] * (n + m) for _ in range(n + m)]
    for j in range(n):
        for k in range(n):
            rows[j][k] = theta.entries[j][k]
    for j in range(m):
        for k in range(m):
            rows[n + j][n + k] = phi.entries[j][k]
    return ThetaMatrix(rows)


def tensor_embed(a: TorusElement, b: TorusElement) -> TorusElement:
    """Algebra embedding A_Theta (x) A_Phi -> A_Psi, (a,b) -> a (x) b.

    Coefficient at (r, s) is a_r * b_s; because Psi is block diagonal the
    cocycle factorizes and the map is an exact homomorphism.  a's rows,
    each repeated once per term of b, beside b's rows, tiled, are sorted.
    """
    psi = product_theta(a.theta, b.theta)
    ma, mb = len(a.values), len(b.values)
    if not ma or not mb:
        return TorusElement.zero(psi)
    rows = np.concatenate((a.indices.repeat(mb, 0), np.concatenate([b.indices] * ma)), axis=1)
    return _element(psi, rows, _cmul(a.values.repeat(mb), np.concatenate([b.values] * ma)))
