"""Structural descriptions of matrices: Jordan and Frobenius canonical forms.

A JordanSpec is the ground truth for everything downstream: it fixes the
eigenvalues and elementary block sizes, hence the minimal polynomial degree
(sum over eigenvalues of the largest block size).  Eigenvalues are always
user-supplied exact scalars; this package never extracts Jordan structure
from a raw float matrix, which is ill-posed.

The mandatory vanishing order of the curve argument has one encoding,
:func:`required_order`, read off an eigenvalue's block sizes by
:func:`symrank.proofs.order_of_vanishing`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from itertools import accumulate

from .matpoly import Polynomial, SquareMatrix, char_and_adjugate, check_size
from .scalars import (
    EXACT,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    NumericFailure,
    Value,
    coerce_scalar,
    json_fields,
    scalar_from_json,
    scalar_to_json,
    to_gaussian_integers,
    to_gaussian_rationals,
)


class EigenvalueBlocks(Value):
    """One eigenvalue with its elementary block sizes, ascending."""

    # This type and JordanSpec keep a __dict__ (fields in _fields, not
    # __slots__).  Slotted, an instance takes 48 bytes, the allocator size
    # class of Fraction and GaussianRational, so the specs a sweep builds
    # share memory pools with its arithmetic: perfbench's sweep items ran
    # about 1.7% slower with slots than with a __dict__ (Python 3.11).
    _fields = ("eigenvalue", "sizes")

    def __init__(self, eigenvalue: GaussianRational, sizes: tuple):
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "sizes", sizes)


class JordanSpec(Value):
    """Eigenvalues plus block-size partitions; total size n."""

    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple):
        if type(n) is not int or n < 1:
            raise ValueError(f"matrix size n must be a positive integer, got {n!r}")
        if not blocks:
            raise ValueError("at least one eigenvalue group required")
        seen = set()
        total = 0
        for blk in blocks:
            if not isinstance(blk.eigenvalue, GaussianRational):
                raise ValueError("eigenvalues must be exact scalars")
            if blk.eigenvalue in seen:
                raise ValueError(f"repeated eigenvalue {blk.eigenvalue}")
            seen.add(blk.eigenvalue)
            if not blk.sizes:
                raise ValueError("each eigenvalue needs at least one block")
            if any(type(s) is not int or s < 1 for s in blk.sizes):
                raise ValueError(f"block sizes must be positive integers, got {blk.sizes}")
            if any(a > b for a, b in zip(blk.sizes, blk.sizes[1:])):
                raise ValueError(f"block sizes must be ascending, got {blk.sizes}")
            total += sum(blk.sizes)
        if total != n:
            raise ValueError(f"block sizes sum to {total}, expected n={n}")
        self._set(n, blocks)

    @classmethod
    def of(cls, blocks: Mapping | Sequence) -> "JordanSpec":
        """Convenience constructor; sorts sizes and coerces eigenvalues."""
        items = blocks.items() if isinstance(blocks, Mapping) else blocks
        groups = tuple(
            EigenvalueBlocks(coerce_scalar(eig, EXACT), tuple(sorted(sizes)))
            for eig, sizes in items
        )
        return cls(sum(sum(g.sizes) for g in groups), groups)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "blocks": [
                {"eigenvalue": scalar_to_json(blk.eigenvalue), "sizes": list(blk.sizes)}
                for blk in self.blocks
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JordanSpec":
        n, blocks = json_fields(obj, "Jordan spec JSON", {"n": None, "blocks": list})
        fields = {"eigenvalue": list, "sizes": list}
        blocks = [json_fields(b, "Jordan block", fields) for b in blocks]
        spec = cls(n, tuple(EigenvalueBlocks(scalar_from_json(eig, EXACT), tuple(sizes))
                            for eig, sizes in blocks))
        check_size(spec.n)
        return spec


class FrobeniusSpec(Value):
    """Invariant factors p_1 | p_2 | ... | p_l, ascending degree, all monic."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple):
        factors = invariant_factors
        if not factors:
            raise ValueError("at least one invariant factor required")
        for p in factors:
            if not all(isinstance(c, GaussianRational) for c in p.coefficients):
                raise ValueError("invariant factors must be exact polynomials")
            if p.is_zero or not p.is_monic or p.degree < 1:
                raise ValueError("invariant factors must be monic of degree >= 1")
        for a, b in zip(factors, factors[1:]):
            if a.degree > b.degree:
                raise ValueError("invariant factors must be in ascending degree")
            if not a.divides(b):
                raise ValueError(f"divisibility violated: {a} does not divide {b}")
        self._set(factors)

    @property
    def n(self) -> int:
        return sum(p.degree for p in self.invariant_factors)

    @property
    def minimal_polynomial(self) -> Polynomial:
        return self.invariant_factors[-1]

    @property
    def min_degree(self) -> int:
        return self.minimal_polynomial.degree

    def to_json(self) -> dict:
        return {"invariant_factors": [p.to_json() for p in self.invariant_factors]}

    @classmethod
    def from_json(cls, obj: dict) -> "FrobeniusSpec":
        (factors,) = json_fields(obj, "Frobenius spec JSON", {"invariant_factors": [list]})
        factors = tuple(Polynomial(tuple(scalar_from_json(c, EXACT) for c in f)) for f in factors)
        # before the divisibility checks, which are quadratic in the degree
        check_size(sum(p.degree for p in factors))
        return cls(factors)


def required_order(sizes: Sequence[int], k: int) -> int:
    """Mandatory vanishing order of the k-th derivative value at an eigenvalue
    with ascending block sizes ``sizes``: 1 plus the number of blocks after
    the first whose preceding blocks hold more than k indices, that is, 1
    plus the number of block starts in [k + 2, multiplicity]."""
    return 1 + sum(held > k for held in accumulate(sizes[:-1]))


def build_jordan(spec: JordanSpec) -> SquareMatrix:
    """Block-diagonal matrix with elementary Jordan blocks, ascending sizes."""
    n = spec.n
    rows = [[GQ_ZERO] * n for _ in range(n)]
    offset = 0
    for blk in spec.blocks:
        for size in blk.sizes:
            for i in range(size):
                rows[offset + i][offset + i] = blk.eigenvalue
                if i + 1 < size:
                    rows[offset + i][offset + i + 1] = GQ_ONE
            offset += size
    return SquareMatrix(n, EXACT, tuple(map(tuple, rows)))


def build_frobenius(spec: FrobeniusSpec) -> SquareMatrix:
    """Block diagonal of companion matrices of the invariant factors, kept as
    split rows (``matpoly._StoredRows``) over the common denominator D of the
    factors' low coefficients: D on each block's superdiagonal, and minus D
    times the factor's low coefficients in the block's last row."""
    n = spec.n
    d, low_re, low_im = to_gaussian_integers(p.coefficients[:-1] for p in spec.invariant_factors)
    re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    offset = 0
    for c_re, c_im in zip(low_re, low_im):
        m = len(c_re)
        for i in range(offset, offset + m - 1):
            re[i][i + 1] = d
        re[offset + m - 1][offset:offset + m] = [-x for x in c_re]
        im[offset + m - 1][offset:offset + m] = [-y for y in c_im]
        offset += m
    return SquareMatrix._of_split(d, re, im)


def min_poly_degree(spec: JordanSpec) -> int:
    """Sum over eigenvalues of the largest elementary block size."""
    return sum(blk.sizes[-1] for blk in spec.blocks)


def min_poly_krylov(M: SquareMatrix, tol: float | None = None) -> Polynomial:
    """Minimal polynomial of M.

    Exact matrices give the exact monic minimal polynomial
    det(tI - M) / d, where d is the monic gcd of the (n-1)-minors of tI - M,
    the entries of adj(tI - M): the last invariant factor is the
    characteristic polynomial over the one before it.  Float matrices give a
    degree estimate from the first linear dependence among I, M, M^2, ...:
    the dependence test uses a singular-value tolerance and the coefficients
    come from least squares.  The default threshold runs the test on M / 2^e,
    its largest part scaled into [1/2, 1), so the degree does not depend on
    M's scale; coefficient k of degree d is scaled back by 2^(e(d - k)),
    exactly, and NumericFailure is raised if that overflows.  An explicit
    ``tol`` is an absolute threshold on the singular values of the powers of
    M itself, as ``numeric_rank_profile``'s is, and M is not scaled.
    """
    n = M.n
    if M.field == EXACT:
        char, adj = char_and_adjugate(M)
        d = Polynomial.zero()
        for i in range(n):
            for j in range(n):
                entry = adj.entry_poly(i, j)
                # Euclid with each remainder made monic, which keeps the
                # Fractions small: 10.6 -> 1.2 s on a dense n = 12 matrix
                # with 8-bit parts (BENCH_minpoly.json)
                while entry:
                    entry = entry / entry.leading
                    d, entry = entry, d.divmod_exact(entry)[1]
                if d.degree == 0:
                    return char
        quotient, _ = char.divmod_exact(d)
        return quotient
    import numpy as np

    a = M.to_numpy()
    e = 0
    if tol is None:
        # the real and imaginary parts side by side; scaling them by a power
        # of two is exact away from underflow
        parts = a.view(float)
        e = math.frexp(np.abs(parts).max())[1]
        if e:
            a = np.ldexp(parts, -e).view(complex)
    # column k is vec(M^k); I, M, ..., M^k are tested on the first k + 1
    krylov = np.empty((n * n, n + 1), dtype=complex)
    power = np.eye(n, dtype=complex)
    krylov[:, 0] = power.ravel()
    for k in range(1, n + 1):
        with np.errstate(all="ignore"):
            power = a @ power
        if not np.isfinite(power).all():
            raise NumericFailure(f"matrix power M^{k} overflowed")
        krylov[:, k] = power.ravel()
        # I, M, ..., M^n are dependent (Cayley-Hamilton) whatever the
        # tolerance, so step n takes no SVD; at n = 1 the stack would even
        # have fewer rows than columns
        if k < n:
            stack = krylov[:, :k + 1]
            sv = np.linalg.svd(stack, compute_uv=False)
            threshold = tol if tol is not None else max(stack.shape) * np.finfo(float).eps * sv[0]
        if k == n or sv[-1] <= threshold:
            combo, *_ = np.linalg.lstsq(krylov[:, :k], krylov[:, k], rcond=None)
            coeffs = [complex(-c) for c in combo] + [complex(1.0)]
            if e:
                try:
                    coeffs = [complex(math.ldexp(c.real, e * (k - j)), math.ldexp(c.imag, e * (k - j)))
                              for j, c in enumerate(coeffs)]
                except OverflowError:
                    raise NumericFailure(f"minimal polynomial coefficient overflowed at scale 2^{e}") from None
            return Polynomial(tuple(coeffs))


def jordan_to_frobenius(spec: JordanSpec) -> FrobeniusSpec:
    """Invariant factors read off the Jordan structure.

    The k-th factor from the top multiplies, over all eigenvalues, the linear
    factor raised to the (k+1)-th largest block size present there; the last
    factor is the minimal polynomial.  With every lam = a/e over one common
    e (one :func:`to_gaussian_integers` call for the whole spec),
    (e t - a)^s = e^s (t - lam)^s, so each factor of degree deg is expanded
    over Z[i][t], as the split pair of its ascending int coefficient lists,
    and divided by e^deg once at the end.

    The spec skips ``FrobeniusSpec.__init__``: sizes descend by level,
    so each factor divides the next, and each is monic (the e^deg divides
    out) of degree >= 1.
    """
    depth = max(len(blk.sizes) for blk in spec.blocks)
    e, (nodes_re,), (nodes_im,) = to_gaussian_integers([[blk.eigenvalue for blk in spec.blocks]])
    factors = []
    for level in range(depth):
        re, im = [1], [0]
        for blk, a_re, a_im in zip(spec.blocks, nodes_re, nodes_im):
            if level < len(blk.sizes):
                # sizes ascend: the (level+1)-th largest counts from the end
                for _ in range(blk.sizes[-1 - level]):
                    # times (e t - a); e > 0 keeps the top coefficient nonzero
                    re, im = ([e * s - a_re * x + a_im * y
                               for s, x, y in zip([0] + re, re + [0], im + [0])],
                              [e * s - a_re * y - a_im * x
                               for s, x, y in zip([0] + im, re + [0], im + [0])])
        (coeffs,) = to_gaussian_rationals(e ** (len(re) - 1), [re], [im])
        factors.append(Polynomial(coeffs))
    spec = object.__new__(FrobeniusSpec)
    object.__setattr__(spec, "invariant_factors", tuple(reversed(factors)))
    return spec


def random_similarity(M: SquareMatrix, seed: int) -> SquareMatrix:
    """Conjugate M by a random integer unimodular matrix Q (det Q = 1).

    Q is a product of 2n elementary shears I + c E_ij with c one of
    -2, -1, 1, 2.  Each shear is applied to a copy of the split rows of D*M
    (D the common denominator) in draw order as a row operation plus a column
    operation, so the result stays in the exact field and Q itself is never
    formed; see the :mod:`symrank.scalars` docstring for why D*M stays
    integral.  The result keeps those rows and builds its entries on first
    read.  The draws are those of ``random.Random(seed)``: i = randrange(n),
    j = randrange(n - 1) and c = choice of the multipliers, made by the same
    ``getrandbits`` calls, so every seed gives the same shears.
    """
    if M.field != EXACT:
        raise ValueError("random similarity requires an exact matrix")
    n = M.n
    if n == 1:
        return M
    getrandbits = random.Random(seed).getrandbits

    def below(k):
        # CPython's Random._randbelow_with_getrandbits, behind randrange(k)
        # and choice
        width = k.bit_length()
        r = getrandbits(width)
        while r >= k:
            r = getrandbits(width)
        return r

    d, re, im = M._split_rows()
    work_re, work_im = [row[:] for row in re], [row[:] for row in im]
    for _ in range(2 * n):
        i = below(n)
        j = below(n - 1)
        if j >= i:
            j += 1
        c = (-2, -1, 1, 2)[below(4)]
        # (I + c E_ij) M (I - c E_ij): row i += c row j, then column j -= c column i
        for work in (work_re, work_im):
            work[i] = [a + b * c for a, b in zip(work[i], work[j])]
            for row in work:
                row[j] -= row[i] * c
    return SquareMatrix._of_split(d, work_re, work_im)
