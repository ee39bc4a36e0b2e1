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

Star-product kernels
--------------------
Every star product and every sum of star products has one entry point,
``signed_sums``: it takes the entries of one or more sums base + sum of -+
a_k * b_k and returns them all.  A single product ``a * b`` (through
``TorusElement.__mul__`` or ``mul``) is the one entry zero + a * b, a matrix
product ``@`` is one call over its q^2 entries, and ``yangmills`` forms the
curvature, the gradient and the line-search terms the same way.  It sends
each product to one of two array kernels (``_takes_box``).  The dense-box
kernel takes products of more than ``_VECTOR_CUTOFF`` pairs of terms whose
box work is at most ``_DENSE_WORK_PER_PAIR`` per pair and whose coefficients
are all finite.  It is a twisted convolution (``_dense_box_kernel``) that
gives s1 a * b + s2 b * a in one call: row 0 of P is zero, so both cocycles
split into a factor that varies along axis 0 and one that depends only on
the tails, a's terms are grouped by their tail (r_1..r_{n-1}) into one
Toeplitz gather, each side is one 2-d matmul of that gather with b's dense
box, and one bincount adds every group into the output box.  A product and
its swap of the opposite sign in the same entry, as in every q = 1
commutator, run as one call; each entry's calls are added into one dense
array over their union box, converted to a dict once (``_box_sums``).  Its
cost follows the boxes, not the pair count.  Every other product (few pairs,
a far-out term that makes the box huge, a non-finite coefficient) runs the
pairwise kernel (``_pairwise_kernel``), one pass over the pairwise products
of all the entries: the pairs are gathered from the concatenated term arrays
by index arithmetic, their exponents and phases are whole-array operations,
and the pairs are grouped by (entry, output key) with a stable sort, each
group summed from its base coefficient by ``np.add.at`` in pass order, the
order of the pair-by-pair dict loop that the tests keep as the reference, so
the sums have its bits; its time and memory follow the pair count.  Each
entry's dense-box sum is added to it after the pass.  The involution is one
array pass of the same kind over the terms.  All of them hold the
multi-indices in int64, so operands whose indices (or, for a product, index
sums) could leave it raise ``IndexOutOfRange``.  All drop exactly the values
with |c| < ``CANONICAL_EPS``; NaN is kept.

An element's int64 index array and complex coefficient array are built once,
the first time a kernel takes it, and kept on the element read-only
(``_terms``), so an operand that enters many products is converted once.
Both kernels and ``_element`` turn index rows into dict keys column-wise,
``zip(*idx.T.tolist())``.  ``product_theta`` returns the same object for the
same factors as its last call, so every entry of a product connection shares
one product theta and the theta checks between them are identity checks.

All operations are pure functions of their inputs and values are never
mutated after construction, so anything here may run concurrently on shared
elements.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .errors import IndexOutOfRange, ThetaMismatch

#: Coefficients with modulus below this are dropped after every operation.
CANONICAL_EPS = 1e-15

MONOMIAL_ORDER = "U^r = U_1^{r_1} U_2^{r_2} ... U_n^{r_n} (ascending index)"
COCYCLE_CONVENTION = "sigma(r,s) = e(sum_{m<k} Theta[m][k]*r_k*s_m), e(x)=exp(2*pi*i*x)"


def _trimmed(coeffs: dict) -> dict:
    """coeffs without its entries of modulus below ``CANONICAL_EPS``; NaN is kept."""
    if min(map(abs, coeffs.values()), default=CANONICAL_EPS) >= CANONICAL_EPS:
        return coeffs
    return {r: c for r, c in coeffs.items() if not abs(c) < CANONICAL_EPS}


class ThetaMatrix:
    """Real skew-symmetric n x n deformation matrix."""

    __slots__ = ("n", "entries", "_pair_mat")

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

    @classmethod
    def zeros(cls, n: int) -> "ThetaMatrix":
        return cls([[0.0] * n for _ in range(n)])

    @classmethod
    def from_upper(cls, n: int, upper: dict) -> "ThetaMatrix":
        """Build from a {(j, k): value} map of strictly-upper entries (0-based)."""
        rows = [[0.0] * n for _ in range(n)]
        for (j, k), v in upper.items():
            rows[j][k] = float(v)
            rows[k][j] = -float(v)
        return cls(rows)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ThetaMatrix) and self.n == other.n and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ThetaMatrix(n={self.n})"



class TorusElement:
    """Finite twisted Fourier polynomial sum_r coeffs[r] * U^r."""

    __slots__ = ("theta", "coeffs", "_arrays")

    def __init__(self, theta: ThetaMatrix, coeffs: dict):
        self.theta = theta
        # (indices, coefficients, reach) once a kernel asks; see ``_terms``
        self._arrays = None
        clean = {}
        n = theta.n
        for r, c in coeffs.items():
            c = complex(c)
            if abs(c) < CANONICAL_EPS:
                continue
            if len(r) != n:
                raise ValueError(f"multi-index {r} has length != {n}")
            clean[tuple(r)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, theta: ThetaMatrix, coeffs: dict) -> "TorusElement":
        """Internal fast path: coeffs already canonical (tuples, above eps)."""
        el = object.__new__(cls)
        el.theta = theta
        el.coeffs = coeffs
        el._arrays = None
        return el

    @classmethod
    def zero(cls, theta: ThetaMatrix) -> "TorusElement":
        return cls(theta, {})

    @classmethod
    def one(cls, theta: ThetaMatrix) -> "TorusElement":
        return cls(theta, {(0,) * theta.n: 1.0})

    @classmethod
    def monomial(cls, theta: ThetaMatrix, r, coeff=1.0) -> "TorusElement":
        return cls(theta, {tuple(int(x) for x in r): complex(coeff)})

    @classmethod
    def generator(cls, theta: ThetaMatrix, j: int) -> "TorusElement":
        """U_j, with j in 1..n."""
        if not 1 <= j <= theta.n:
            raise IndexOutOfRange(f"generator index {j} outside 1..{theta.n}")
        r = [0] * theta.n
        r[j - 1] = 1
        return cls.monomial(theta, r)

    # -- linear structure ----------------------------------------------

    # The operands are canonical, so only the entries a sum touches can fall
    # under the drop.  NaN fails ``abs(c) < CANONICAL_EPS`` and is kept, as in
    # the constructor.  Negation and the derivations keep every modulus at or
    # above the operand's, so they drop nothing; a scale or the adjoint's
    # phases can push one under.

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            c = out.get(r, 0j) + c
            if abs(c) < CANONICAL_EPS:
                out.pop(r, None)
            else:
                out[r] = c
        return TorusElement._raw(self.theta, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            c = out.get(r, 0j) - c
            if abs(c) < CANONICAL_EPS:
                out.pop(r, None)
            else:
                out[r] = c
        return TorusElement._raw(self.theta, out)

    def __neg__(self):
        return TorusElement._raw(self.theta, {r: -c for r, c in self.coeffs.items()})

    def scale(self, z) -> "TorusElement":
        z = complex(z)
        return TorusElement._raw(self.theta, _trimmed({r: z * c for r, c in self.coeffs.items()}))

    def __mul__(self, other):
        if isinstance(other, TorusElement):
            return _star_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power must be a nonnegative integer")
        out = TorusElement.one(self.theta)
        for _ in range(k):
            out = out * self
        return out

    # -- star structure ------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def adjoint(self) -> "TorusElement":
        """Involution: (sum a_r U^r)* = sum conj(a_r) sigma(r, r) U^{-r}.

        One array pass: sigma(r, r) = e(w . r) with w = r P for every term,
        conj(a_r) times it in ``_cmul``'s real arithmetic (NaN and inf carry
        through, as in Python's complex arithmetic), and the dense box's exit.
        ``IndexOutOfRange`` for an index entry past int64.
        """
        th = self.theta
        if not self.coeffs:
            return TorusElement._raw(th, {})
        r, c, _ = _terms(self)
        vals = _cmul(np.conj(c), _phases(_exponents(_cocycle_rows(th, r), r)))
        return _element(th, vals, lambda kept: -r[kept])

    def trace(self) -> complex:
        """The tracial state: coefficient at the zero multi-index."""
        return self.coeffs.get((0,) * self.theta.n, 0j)

    def derivation(self, j: int) -> "TorusElement":
        """delta_j: a_r U^r -> 2*pi*i*r_j a_r U^r, with j in 1..n."""
        if not 1 <= j <= self.theta.n:
            raise IndexOutOfRange(f"derivation index {j} outside 1..{self.theta.n}")
        i = j - 1
        two_pi = 2.0 * math.pi
        out = {}
        for r, c in self.coeffs.items():
            if r[i]:
                out[r] = complex(0.0, two_pi * r[i]) * c
        return TorusElement._raw(self.theta, out)

    # -- inspection ------------------------------------------------------

    def support(self):
        return set(self.coeffs)

    def coeff(self, r) -> complex:
        return self.coeffs.get(tuple(r), 0j)

    def l1(self) -> float:
        """Sum of coefficient moduli."""
        return sum(abs(c) for c in self.coeffs.values())

    def norm_sq(self) -> float:
        """GNS norm squared: tau(a* a) = sum_r |a_r|^2 (exact identity)."""
        return sum((c.real * c.real + c.imag * c.imag) for c in self.coeffs.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def _check(self, other):
        if not isinstance(other, TorusElement):
            raise TypeError(f"expected TorusElement, got {type(other)!r}")
        if self.theta != other.theta:
            raise ThetaMismatch("operands live over different theta matrices")

    def __repr__(self):
        items = sorted(self.coeffs.items())[:4]
        body = " + ".join(f"({c:.3g})U^{list(r)}" for r, c in items)
        more = "" if len(self.coeffs) <= 4 else f" + ... ({len(self.coeffs)} terms)"
        return f"<{body or '0'}{more}>"


#: Products of at most this many pairs of terms run the pairwise kernel,
#: whose cost is a fixed number of numpy calls per pass plus a sort and a
#: few array passes over the pairs; larger ones may run the dense box.  Both
#: kernels compute the same sums up to rounding.
_VECTOR_CUTOFF = 512

#: Largest multi-index entry the kernels can hold: they keep the operands'
#: indices and every sum r + s in int64, which would wrap silently past it.
_INDEX_LIMIT = 2**63 - 1

#: The dense-box kernel runs while its work per pair of terms is at most this;
#: its work is the output box's cell count plus the multiply-adds of one side's
#: Toeplitz matmul, which also bound the size of every array it builds.  Above
#: it the pairwise kernel runs, whose time and memory follow the pair count.
#: Descent's products need 3-30 per pair, where the dense kernel, output dict
#: included, takes a median 1/18 of the pairwise kernel's time for one product
#: and 1/27 for a commutator (seed-5001 descent products, 2-core Xeon VM, one
#: BLAS thread).  Box cells alone are not enough: a 100-term diagonal times a
#: 2x200 strip has 0.75 cells but 101 multiply-adds per pair, and the dense
#: kernel takes 4.7x the pairwise kernel's time there.  One far-out term (say
#: U^(0,10**6) next to a dense patch) makes the box millions of cells for a
#: few thousand pairs.
_DENSE_WORK_PER_PAIR = 32


def _star_product(a: TorusElement, b: TorusElement) -> TorusElement:
    """a * b: the one entry zero + a * b of ``signed_sums``; an empty operand gives zero."""
    return signed_sums([(TorusElement._raw(a.theta, {}), [(a, b, False)])])[0]


def signed_sums(entries) -> list:
    """[base + sum of (-1 if negate else 1) a * b] for each (base, [(a, b, negate), ...]) entry.

    The one entry point of the star-product kernels: a single product, the
    entries of a matrix product and those of one or more sums of
    commutators, as ``yangmills.curvature``, ``ym_gradient`` and
    ``line_quartic`` form them.  A product with an empty operand adds
    nothing.  ``_takes_box`` picks each product's kernel.  Those for the
    pairwise kernel, of every entry, run as one pass that seeds each entry
    with its base's coefficients; a negated one enters it with its left
    coefficients negated, which is exact.  Then each entry's dense-box
    products are summed by ``_box_sums``, a product and its swap of the
    opposite sign in one kernel call, all of them in one dense array
    converted once, and that sum is added to the entry with one dict add; an
    entry that is still empty takes the sum as it is, which has the bits of
    zero + sum (the box sums from +0.0, so no part of it is -0.0).  As in
    the pass, ``CANONICAL_EPS`` drops sums, not each product's values: once
    in the entry's box sum and once in the add.  An entry without products
    is its base.  Every base and
    operand shares one theta.  ``IndexOutOfRange`` if an entry of r + s could
    leave int64.
    """
    if not entries:
        return []
    first = entries[0][0]
    pairwise, boxed = [], []
    for e, (base, products) in enumerate(entries):
        first._check(base)
        box = []
        for a, b, negate in products:
            base._check(a)
            a._check(b)
            if not a.coeffs or not b.coeffs:
                continue
            ra, ca, rb, cb = ops = _operand_terms(a, b)
            bounds = _takes_box(*ops)
            if bounds:
                box.append((a, b, negate, ops, bounds))
            else:
                pairwise.append((e, ra, -ca if negate else ca, rb, cb))
        boxed.append(box)
    th = first.theta
    bases = [base for base, _ in entries]
    outs = _pairwise_kernel(th, bases, pairwise) if pairwise else bases
    for e, box in enumerate(boxed):
        for part in _box_sums(th, box) if box else ():
            outs[e] = outs[e] + part if outs[e].coeffs else part
    return outs


def _operand_terms(a: TorusElement, b: TorusElement):
    """(ra, ca, rb, cb) from ``_terms`` of two nonempty operands.

    ``IndexOutOfRange`` if an entry of r + s could leave int64.
    """
    ra, ca, reach_a = _terms(a)
    rb, cb, reach_b = _terms(b)
    if reach_a + reach_b > _INDEX_LIMIT:
        raise IndexOutOfRange(
            f"multi-index entries up to {reach_a} and {reach_b} in magnitude: "
            f"their sums may exceed {_INDEX_LIMIT}"
        )
    return ra, ca, rb, cb


def _takes_box(ra, ca, rb, cb):
    """The operands' ``_boxes`` when a product runs the dense box rather than
    the pairwise kernel, None when it does not.

    It does when there are more than ``_VECTOR_CUTOFF`` pairs, its work is at
    most ``_DENSE_WORK_PER_PAIR`` per pair and every coefficient is finite (it
    multiplies each coefficient by the box's empty cells, and NaN * 0 would
    spread NaN outside the product's support).  The rule is per product: a
    commutator's two products are judged apart, and fuse into one kernel call
    only when both take the box; its swap b * a then costs what a * b does,
    on a's grouping.
    """
    pairs = len(ca) * len(cb)
    if pairs > _VECTOR_CUTOFF and np.isfinite(ca).all() and np.isfinite(cb).all():
        bounds = _boxes(ra, rb)
        if _dense_box_work(len(ra), bounds) <= _DENSE_WORK_PER_PAIR * pairs:
            return bounds
    return None


def _terms(a: TorusElement):
    """(int64 (terms, n) multi-index array, complex coefficient array, largest |r_k|).

    Built by ``_term_arrays`` on the first call and kept on the element, which
    never changes.  Past int64 every call raises ``IndexOutOfRange`` and
    nothing is kept.
    """
    if a._arrays is None:
        a._arrays = _term_arrays(a)
    return a._arrays


def _term_arrays(a: TorusElement):
    """``_terms`` of a nonempty element, built from its dict; both arrays read-only.

    The largest |r_k| is a Python int, taken before any int64 arithmetic.
    """
    m = len(a.coeffs)
    flat = list(itertools.chain.from_iterable(a.coeffs))
    reach = max(max(flat), -min(flat))
    if reach > _INDEX_LIMIT:
        raise IndexOutOfRange(f"multi-index entry {reach} in magnitude exceeds {_INDEX_LIMIT}")
    keys = np.array(flat, dtype=np.int64).reshape(m, a.theta.n)
    vals = np.fromiter(a.coeffs.values(), dtype=complex, count=m)
    keys.flags.writeable = False
    vals.flags.writeable = False
    return keys, vals, reach


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
    """e(x) for an array of exponents, with x reduced mod 1 first."""
    return np.exp(2j * math.pi * np.mod(x, 1.0))


def _cmul(x, y):
    """x * y for complex arrays that broadcast, in real arithmetic.

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


def _element(th: ThetaMatrix, vals, keys_at) -> TorusElement:
    """sum_i vals[i] U^(key i) without the values of modulus under ``CANONICAL_EPS``.

    NaN is kept.  ``keys_at`` maps the positions kept in the 1-d complex array
    ``vals`` to their int64 (kept, n) multi-indices.
    """
    kept = (~(np.abs(vals) < CANONICAL_EPS)).nonzero()[0]
    return TorusElement._raw(th, dict(zip(zip(*keys_at(kept).T.tolist()), vals[kept].tolist())))


#: Codes of (entry, key) at or past this are not formed; the rows are sorted instead.
_CODE_LIMIT = 2**62


# inf and NaN coefficients carry through, as in Python's complex arithmetic;
# callers that need finite results check them
@np.errstate(over="ignore", invalid="ignore")
def _pairwise_kernel(th: ThetaMatrix, bases, products) -> list:
    """Each entry's base plus the sum of its products, given as (entry, ra, ca, rb, cb).

    ``products`` is in entry order.  The pairs of all the products, product by
    product and each in the order of the pair-by-pair dict loop kept in the
    tests, are gathered from the concatenated term arrays by index
    arithmetic, so the number of numpy calls does not grow with the number
    of products or entries; a single product is the one-product case of the
    same gather.  Their exponents, phases and complex products are
    whole-array operations.  The pairs are then grouped by (entry, key): a
    stable sort of one int64 code, the entry as its most significant digit
    (when the pass holds more than one) and the key's place in the pass's key
    box after it, or of the rows themselves when that code space reaches
    ``_CODE_LIMIT``.  Each group starts from its base's coefficient (base
    keys never enter an array, so they may lie past int64) and ``np.add.at``
    adds its pairs one by one in pass order, the loop's order, so every sum
    has the loop's bits (only which NaN survives an add of two NaNs may
    differ).  An entry is its base's dict updated with its groups in order of
    first appearance, the loop's key order, less the sums under the drop
    (base is canonical, so nothing else can be); an entry without products
    is its base.  Time and memory follow the pair count.  For one product
    this is the loop's arithmetic, except for the order of the exponent's
    sum and numpy's exp in place of cmath's: the complex products are formed
    by ``_cmul``.
    """
    es, ra, ca, rb, cb = zip(*products)
    na = np.array([len(c) for c in ca])
    nb = np.array([len(c) for c in cb])
    ra, ca, rb, cb = (np.concatenate(x) for x in (ra, ca, rb, cb))
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
    vals = _cmul(_cmul(left, right), _phases(_exponents(w, s)))
    # the keys one index column per row: the reductions and gathers below
    # then run along contiguous rows
    keys = np.ascontiguousarray((r + s).T)
    # each pair's entry, when the pairs belong to more than one
    entry = None if products[0][0] == products[-1][0] else np.array(es).repeat(na * nb)

    # group the pairs by (entry, key); ``order`` is stable, so the first pair
    # of each group in it is the group's first in the pass
    lo, hi = keys.min(1), keys.max(1)
    ext = [h - l + 1 for h, l in zip(hi.tolist(), lo.tolist())]  # Python ints: may pass int64
    # past int64 the digits wrap, but stay distinct for distinct keys: they are
    # only compared then, in the row sort
    digits = keys - lo[:, None]
    if entry is not None:
        digits = np.concatenate((entry[None, :], digits))
        ext = [len(bases)] + ext
    if math.prod(ext) < _CODE_LIMIT:
        code = np.ravel_multi_index(digits, ext)
        order = code.argsort(kind="stable")
        sorted_code = code[order]
        step = sorted_code[1:] != sorted_code[:-1]
    else:
        # the last key is lexsort's primary one
        order = np.lexsort(digits[::-1])
        sorted_rows = digits.take(order, 1)
        step = (sorted_rows[:, 1:] != sorted_rows[:, :-1]).any(0)
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = step
    first = order[starts]
    appears = first.argsort()  # the groups in order of first appearance
    first = first[appears]
    group_keys = list(zip(*keys.take(first, 1).tolist()))
    # entry e's groups are group_keys[bounds[e]:bounds[e + 1]]
    if entry is None:
        e = products[0][0]
        bounds = [0] * (e + 1) + [len(first)] * (len(bases) - e)
    else:
        bounds = [0] + np.bincount(entry.take(first), minlength=len(bases)).cumsum().tolist()

    sums = np.zeros(len(first), dtype=complex)  # groups in sorted order
    if any(base.coeffs for base in bases):
        seeds = []
        for base, start, end in zip(bases, bounds, bounds[1:]):
            seeds += map(base.coeffs.get, group_keys[start:end], itertools.repeat(0j, end - start))
        sums[appears] = seeds
    # the sort is stable, so in sorted order each group's pairs keep their pass order
    np.add.at(sums, starts.cumsum() - 1, vals.take(order))
    sums = sums.take(appears)
    # base is canonical, so only the sums can fall under the drop
    dropped = np.flatnonzero(np.abs(sums) < CANONICAL_EPS).tolist()
    sums = sums.tolist()
    outs = []
    for base, start, end in zip(bases, bounds, bounds[1:]):
        if start == end:
            outs.append(base)
            continue
        out = dict(base.coeffs)
        out.update(zip(group_keys[start:end], sums[start:end]))
        outs.append(TorusElement._raw(th, out))
    for i in dropped:
        e = bisect.bisect_right(bounds, i) - 1
        del outs[e].coeffs[group_keys[i]]
    return outs


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
    """Output box cells plus an upper bound on the multiply-adds of one side of
    ``_dense_box_kernel``.

    ``bounds`` are the operands' ``_boxes``.  Each side's matmul does
    (groups) x (output extent along axis 0) x (cells of b's box)
    multiply-adds, and a has at most min(terms, tail cells of its box)
    groups.  A commutator does it twice on the same arrays, so the bound
    also limits the size of each array that either side builds.
    """
    _, ext_a, _, ext_b = bounds
    cells = math.prod(x + y - 1 for x, y in zip(ext_a, ext_b))
    groups = min(terms_a, math.prod(ext_a[1:]))
    return cells + groups * (ext_a[0] + ext_b[0] - 1) * math.prod(ext_b)


def _dense_box_kernel(th: ThetaMatrix, ra, ca, rb, cb, bounds, s1: int, s2: int):
    """s1 (a * b) + s2 (b * a) over the dense output box of a * b, each sign -1, 0 or 1.

    ``bounds`` are the operands' ``_boxes``; the result is the box's complex
    cells as an array of extent ext_a + ext_b - 1 in Fortran order (axis 0
    fastest), its cell 0 at lo_a + lo_b.  Only a's terms are grouped, by
    their tail rho (r = (r_0, rho)); b's box B is dense.  Row 0 of P is zero,
    so w = r P depends only on rho, v = (s P)_0 only on s's tail, and
    u = sum_{m >= 1} r_m (s P)_m only on the two tails:

        sigma(r, s) = e(w_0 s_0) e(w_tail . s_tail),  sigma(s, r) = e(r_0 v + u).

    Both sides share a's Toeplitz gather T0 (group, output row i, row j of B)
    and each is one 2-d matmul: a * b is (T0 . e(w_0 s_0)) @ B, then times
    e(w_tail . s_tail); b * a is T0 @ (B . e(-j v)), then times e(i v),
    e(lo_a0 v) and e(u), where r_0 = lo_a0 + i - j.  The offsets i and j are
    box-relative, so the large lo_a0 v is one exponent, not the difference
    of two.  One bincount adds every group into the output box.
    """
    n = th.n
    loa, ext_a, lob, ext_b = (np.array(x, dtype=np.int64) for x in bounds)
    ext = ext_a + ext_b - 1
    rows0, b0, cells_b = ext[0], ext_b[0], math.prod(ext_b[1:])
    # output cells are numbered with axis 0 fastest
    stride = np.cumprod(np.concatenate(([1], ext[:-1])))
    dense_b = np.zeros(tuple(ext_b), dtype=complex)
    dense_b[tuple((rb - lob).T)] = cb
    dense_b = dense_b.reshape(b0, cells_b)
    # b's tail cells in C order: offsets in b's box, and multi-indices with s_0 = 0
    b_cells = np.indices(ext_b[1:]).reshape(n - 1, cells_b).T
    s_tail = np.zeros((cells_b, n), dtype=np.int64)
    s_tail[:, 1:] = b_cells + lob[1:]

    tail_keys = (ra[:, 1:] - loa[1:]) @ stride[1:]
    _, first, group = np.unique(tail_keys, return_index=True, return_inverse=True)
    n_groups = len(first)
    r_tail = ra.take(first, 0)  # one term per group; its tail is the group's
    r_tail[:, 0] = 0
    # rows[g, i] = a's coefficient at r_0 = lo_a0 + i in group g; the extra last
    # column stays zero and pads the Toeplitz gather
    rows = np.zeros((n_groups, ext_a[0] + 1), dtype=complex)
    rows[group.reshape(-1), ra[:, 0] - loa[0]] = ca
    lag = np.arange(rows0)[:, None] - np.arange(b0)[None, :]
    lag[(lag < 0) | (lag >= ext_a[0])] = ext_a[0]
    toeplitz = rows[:, lag]  # (group, i, j)

    conv = None
    if s1:
        w = _cocycle_rows(th, r_tail)
        left = toeplitz * _phases(np.outer(w[:, 0], lob[0] + np.arange(b0)))[:, None, :]
        conv = (left.reshape(-1, b0) @ dense_b).reshape(n_groups, rows0, cells_b)
        conv *= _phases(_exponents(w[:, None, :], s_tail[None, :, :]))[:, None, :]
    if s2:
        w = _cocycle_rows(th, s_tail)
        v = w[:, 0]
        right = dense_b * _phases(-np.arange(b0)[:, None] * v)
        ba = (toeplitz.reshape(-1, b0) @ right).reshape(n_groups, rows0, cells_b)
        ba *= _phases(np.arange(rows0)[:, None] * v)
        ba *= _phases(loa[0] * v + _exponents(w[None, :, :], r_tail[:, None, :]))[:, None, :]
        if conv is None:
            conv = ba
        else:
            (np.add if s2 == s1 else np.subtract)(conv, ba, out=conv)
        del ba  # at most one side's array lives through the scatter
    if (s1 or s2) < 0:
        np.negative(conv, out=conv)

    cell = (
        np.arange(rows0)[None, :, None]
        + tail_keys.take(first)[:, None, None]
        + (b_cells @ stride[1:])[None, None, :]
    ).reshape(-1)
    volume = math.prod(int(x) for x in ext)
    out = np.empty(volume, dtype=complex)
    out.real = np.bincount(cell, weights=conv.real.reshape(-1), minlength=volume)
    out.imag = np.bincount(cell, weights=conv.imag.reshape(-1), minlength=volume)
    return out.reshape(tuple(ext), order="F")


def _box_sums(th: ThetaMatrix, products) -> list:
    """Elements whose sum is the sum of one entry's dense-box products.

    ``products`` are the entry's (a, b, negate, terms, bounds), in order, where
    ``terms`` are ``_operand_terms`` and ``bounds`` from ``_takes_box``.  A
    product whose swap (b, a) of the opposite sign comes later in the entry
    runs as one ``_dense_box_kernel`` call with it (every q = 1 commutator
    term is such a pair); any other runs alone.  The calls' boxes are added
    into one array over the union of their output boxes, converted once:
    one element.  Only when that union has more cells than the calls' summed
    ``_dense_box_work`` (boxes far apart) is each call's box converted on its
    own instead, one element per call.
    """
    calls, waiting = [], {}
    for a, b, negate, terms, bounds in products:
        sign = -1 if negate else 1
        swapped = waiting.get((id(b), id(a), not negate))
        if swapped:
            calls[swapped.pop(0)][3] = sign
        else:
            waiting.setdefault((id(a), id(b), negate), []).append(len(calls))
            calls.append([terms, bounds, sign, 0])
    boxes = []
    for _, (loa, ext_a, lob, ext_b), _, _ in calls:
        boxes.append(([x + y for x, y in zip(loa, lob)], [x + y - 1 for x, y in zip(ext_a, ext_b)]))
    lo = [min(x) for x in zip(*(l for l, _ in boxes))]
    hi = [max(x) for x in zip(*([y + z for y, z in zip(l, e)] for l, e in boxes))]
    ext = [h - l for h, l in zip(hi, lo)]
    work = sum(_dense_box_work(len(terms[0]), bounds) for terms, bounds, _, _ in calls)
    if math.prod(ext) > work:
        return [
            _box_element(th, l, _dense_box_kernel(th, *terms, bounds, s1, s2))
            for (terms, bounds, s1, s2), (l, _) in zip(calls, boxes)
        ]
    total = np.zeros(ext, dtype=complex, order="F")
    for (terms, bounds, s1, s2), (l, e) in zip(calls, boxes):
        at = tuple(slice(x - y, x - y + z) for x, y, z in zip(l, lo, e))
        total[at] += _dense_box_kernel(th, *terms, bounds, s1, s2)
    return [_box_element(th, lo, total)]


def _box_element(th: ThetaMatrix, lo, box) -> TorusElement:
    """The element whose coefficients are the cells of a Fortran-ordered box from lo."""
    return _element(
        th,
        box.reshape(-1, order="F"),
        lambda kept: np.stack(np.unravel_index(kept, box.shape, order="F"), axis=1) + np.array(lo, np.int64),
    )


# Module-level operation names mirroring the algebra interface.

def mul(a: TorusElement, b: TorusElement) -> TorusElement:
    return _star_product(a, b)


def adjoint(a: TorusElement) -> TorusElement:
    return a.adjoint()


def trace(a: TorusElement) -> complex:
    return a.trace()


def derivation(j: int, a: TorusElement) -> TorusElement:
    return a.derivation(j)


#: (theta, phi, psi) of the last ``product_theta`` call.  A ThetaMatrix never
#: changes, so the only effect of this cache is that equal products are one object.
_last_product = None


def product_theta(theta: ThetaMatrix, phi: ThetaMatrix) -> ThetaMatrix:
    """Block-diagonal deformation matrix of the (n+m)-torus A_Theta (x) A_Phi.

    A call with factors equal to the last call's returns the last call's
    object, so all the entries that one product connection embeds share one
    theta.
    """
    global _last_product
    last = _last_product
    if last is not None and last[0] == theta and last[1] == phi:
        return last[2]
    n, m = theta.n, phi.n
    rows = [[0.0] * (n + m) for _ in range(n + m)]
    for j in range(n):
        for k in range(n):
            rows[j][k] = theta.entries[j][k]
    for j in range(m):
        for k in range(m):
            rows[n + j][n + k] = phi.entries[j][k]
    psi = ThetaMatrix(rows)
    _last_product = theta, phi, psi
    return psi


def tensor_embed(a: TorusElement, b: TorusElement) -> TorusElement:
    """Algebra embedding A_Theta (x) A_Phi -> A_Psi, (a,b) -> a (x) b.

    Coefficient at (r, s) is a_r * b_s; because Psi is block diagonal the
    cocycle factorizes and the map is an exact homomorphism.
    """
    psi = product_theta(a.theta, b.theta)
    out = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            out[r + s] = ar * bs
    return TorusElement(psi, out)
