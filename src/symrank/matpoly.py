"""Matrices, polynomials, and the symmetrization map.

The symmetrization map sends an n-by-n matrix M to the coefficient tuple
(sigma_1, ..., sigma_n) of its characteristic polynomial

    det(tI - M) = sum_j (-1)^j sigma_j(M) t^(n-j),    sigma_0 = 1,

i.e. to the elementary symmetric functions of the eigenvalues.  The
characteristic polynomial is computed by the Faddeev-LeVerrier recursion,
which only ever divides by the integers 1..n.  An exact matrix is scaled by
its common denominator D and run over Gaussian integers, where each of those
divisions is exact (see the :mod:`symrank.scalars` docstring), then
scaled back.  Over Z[i] the recursion runs on split rows, the int rows of
the real and imaginary parts, with every product written out on those ints
and every ``/ k`` checked.  The recursion simultaneously produces the
adjugate polynomial adj(tI - M), the source of exact first derivatives of
det.  The same recursion expands det(tI - D*Phi) for a curve Phi(zeta): it
runs over Gaussian integers on D*Phi(2^w) (Kronecker substitution,
``proofs._curve_taylor_coeffs``), and ``proofs.order_of_vanishing`` reads
each vanishing order as the 2-adic valuation of one Taylor coefficient of
the result at an eigenvalue, divided by w.  A float matrix, or a stack of
them, runs the recursion in numpy.  Only :func:`char_and_adjugate` keeps a
float adjugate; :func:`symmetrize` runs one float matrix as a stack of one,
and a stack, such as the finite-difference oracle's 2n^2 matrices, holds
only the current N_k.  numpy is imported inside the functions that compute
in floats, so it is loaded on first float use and the exact paths need only
the standard library.

Everything here is pure and immutable; functions are safe to call in
parallel.
"""

from __future__ import annotations

from collections.abc import Sequence

from .scalars import (
    EXACT,
    FLOAT,
    GQ_ONE,
    GQ_ZERO,
    NumericFailure,
    Value,
    _power,
    balanced_splitter,
    coerce_scalar,
    field_one,
    field_zero,
    json_fields,
    scalar_from_json,
    scalar_to_json,
    to_gaussian_integers,
    to_gaussian_rationals,
)

#: A point of the symmetrized space: tuple (sigma_1, ..., sigma_n) of scalars.
SymPoint = tuple

#: Largest matrix size n that the JSON decoders (``SquareMatrix``,
#: ``MatrixPolynomial``, ``JordanSpec`` and ``FrobeniusSpec.from_json``)
#: accept, checked before any work superlinear in the input; also the largest
#: ``sweep --n-max``.  It bounds the work of one matrix: at n = 12 the
#: slowest subcommand, ``ord`` along a dense curve of degree
#: MAX_CURVE_DEGREE, takes about 2 s, and on a dense matrix ``minpoly``,
#: ``rank`` and ``jacobian`` take about 0.2 s (entries of magnitude-4
#: rationals, whole processes, 2 cores, Python 3.11.7; BENCH_taylor.json,
#: BENCH_minpoly.json).
#: The exact kernels grow faster than n^4, and with the entries' bit length,
#: which no limit bounds.  A sweep's spec count still grows with --n-max
#: (2,051 structures up to n = 6, 11,806 up to n = 8).
MAX_N = 12

#: Largest curve degree that ``MatrixPolynomial.from_json`` accepts, checked
#: before any matrix is decoded.  The expansion of det(tI - D*Phi) grows
#: faster than the degree squared, and at this bound a dense n = MAX_N curve
#: with magnitude-4 rational entries (``symrank ord --curve``) takes about
#: 2 s, the slowest subcommand at MAX_N (BENCH_taylor.json, whole
#: processes; 2 cores, Python 3.11.7).  When the bound was set, degree 12
#: took about 3.4 s, degree 13 up to 3.9 s and degree 16 about 5 s.
MAX_CURVE_DEGREE = 12


def check_size(n: int) -> None:
    """Raise ValueError if a decoded matrix size n exceeds :data:`MAX_N`."""
    if n > MAX_N:
        raise ValueError(f"size n = {n} exceeds the size limit MAX_N = {MAX_N}")


class _StoredRows(Value):
    """Base of the two matrix types, the only values that carry a ``field``.
    An exact result of a kernel (``canonical.random_similarity``, the N_k of
    :func:`char_and_adjugate`, an exact ``jacobian.jacobian_exact``) comes
    from ``_of_split``, which keeps its split rows and denominators for
    kernels to read through ``_split_rows``; ``_build`` makes the Gaussian
    rationals of the field named ``_LAZY`` on first read.  Values, ``==``,
    hash, repr, JSON and pickling are those of a matrix built with them.
    The fields live in ``__dict__``, which pickling and copying keep as it
    is: split rows stay unbuilt."""

    @classmethod
    def _of_split(cls, denominators, re: list, im: list):
        """Exact matrix of split rows, which no one may write to afterwards."""
        M = object.__new__(cls)
        M.__dict__.update(n=len(re), field=EXACT, _split=(denominators, re, im))
        return M

    def __getattr__(self, name):
        # runs only for an attribute missing from __dict__, so never for a
        # matrix built with its entries; racing readers build equal tuples
        split = self.__dict__.get("_split") if name == self._LAZY else None
        if split is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = self._build(*split)
        return value

    def _split_rows(self) -> tuple:
        """The stored split rows with their denominators, else
        :func:`symrank.scalars.to_gaussian_integers` of the Gaussian rationals,
        for a kernel to read and never to write."""
        return self.__dict__.get("_split") or to_gaussian_integers(getattr(self, self._LAZY))

    def __getstate__(self) -> dict:
        return self.__dict__

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def to_numpy(self) -> np.ndarray:
        """The complex array of a float matrix; an exact one raises TypeError."""
        import numpy as np

        return np.array(getattr(self, self._LAZY), dtype=complex)


class SquareMatrix(_StoredRows):
    """Immutable n-by-n matrix over one scalar field; a kernel's result keeps
    its split rows over one denominator (see :class:`_StoredRows`)."""

    _fields = ("n", "field", "entries")
    _LAZY = "entries"
    _build = staticmethod(to_gaussian_rationals)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field: str = EXACT) -> "SquareMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        coerced = tuple(tuple(coerce_scalar(x, field) for x in r) for r in rows)
        return cls(n, field, coerced)

    @classmethod
    def zeros(cls, n: int, field: str = EXACT) -> "SquareMatrix":
        z = field_zero(field)
        return cls(n, field, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def identity(cls, n: int, field: str = EXACT) -> "SquareMatrix":
        z, o = field_zero(field), field_one(field)
        return cls(n, field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def basis(cls, n: int, i: int, j: int, field: str = EXACT) -> "SquareMatrix":
        """Elementary direction with a single 1 at row i, column j (0-based)."""
        z, o = field_zero(field), field_one(field)
        return cls(n, field, tuple(
            tuple(o if (a, b) == (i, j) else z for b in range(n)) for a in range(n)
        ))

    def _check_compatible(self, other: "SquareMatrix") -> None:
        if not isinstance(other, SquareMatrix):
            raise TypeError("expected a SquareMatrix")
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compatible(other)
        return SquareMatrix(self.n, self.field, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compatible(other)
        return SquareMatrix(self.n, self.field, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._check_compatible(other)
        n = self.n
        cols = tuple(zip(*other.entries))
        rows = tuple(
            tuple(_dot_seq(ra, cb) for cb in cols) for ra in self.entries
        )
        return SquareMatrix(n, self.field, rows)

    def scale(self, c) -> "SquareMatrix":
        c = coerce_scalar(c, self.field)
        return SquareMatrix(self.n, self.field, tuple(
            tuple(c * x for x in r) for r in self.entries
        ))

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def to_float(self) -> "SquareMatrix":
        return SquareMatrix.from_rows(self.entries, FLOAT)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "entries": [[scalar_to_json(x) for x in r] for r in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SquareMatrix":
        n, field, entries = json_fields(
            obj, "matrix JSON", {"n": int, "field": str, "entries": list})
        if n < 1:
            raise ValueError(f"matrix JSON 'n' must be at least 1, got {n}")
        check_size(n)
        if len(entries) != n or any(not isinstance(r, list) or len(r) != n for r in entries):
            raise ValueError(f"matrix JSON entries are not {n}x{n}")
        # scalar_from_json refuses a field other than EXACT and FLOAT
        return cls.from_rows([[scalar_from_json(x, field) for x in r] for r in entries], field)


def _dot_seq(u, w):
    total = u[0] * w[0]
    for a, b in zip(u[1:], w[1:]):
        total = total + a * b
    return total


class Polynomial(Value):
    """Polynomial in one variable, coefficients in ascending degree.

    The zero polynomial has an empty coefficient tuple (degree -1).
    Arithmetic is over Gaussian rationals: ``+`` takes two polynomials, ``*``
    a polynomial or a scalar.  Two float routes, a float
    :func:`char_and_adjugate` and a float ``canonical.min_poly_krylov``, return
    complex coefficients, which are for reading only: the degree, the
    coefficients and JSON.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        coeffs = tuple(coefficients)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def make(cls, values: Sequence) -> "Polynomial":
        return cls(tuple(coerce_scalar(v, EXACT) for v in values))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((GQ_ONE,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == GQ_ONE

    def coefficient(self, degree: int):
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return GQ_ZERO

    def evaluate(self, t):
        if self.is_zero:
            return GQ_ZERO if not isinstance(t, Polynomial) else Polynomial.zero()
        total = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            total = total * t + c
        return total

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(c * k for k, c in enumerate(self.coefficients) if k > 0))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return Polynomial(tuple(merged))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [GQ_ZERO] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if not a:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(tuple(out))
        return Polynomial(tuple(c * other for c in self.coefficients))

    def __truediv__(self, other):
        # scalar (or integer) division only, as in making a polynomial monic
        return Polynomial(tuple(c / other for c in self.coefficients))

    def __pow__(self, exponent: int) -> "Polynomial":
        return _power(self, exponent, Polynomial.one())

    def divmod_exact(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Polynomial long division over the field; returns (quotient, remainder)."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coefficients)
        dn = divisor.degree
        lead = divisor.leading
        quotient = [GQ_ZERO] * max(0, len(remainder) - dn)
        for i in range(len(remainder) - dn - 1, -1, -1):
            top = remainder[i + dn]
            if not top:
                continue
            q = top / lead
            quotient[i] = q
            for j, c in enumerate(divisor.coefficients):
                remainder[i + j] = remainder[i + j] - q * c
        return Polynomial(tuple(quotient)), Polynomial(tuple(remainder[:dn]))

    def divides(self, other: "Polynomial") -> bool:
        _, rem = other.divmod_exact(self)
        return rem.is_zero

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coefficients]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            parts.append(f"({c})*t^{k}" if k else f"({c})")
        return " + ".join(parts)


class MatrixPolynomial(Value):
    """Matrix-valued polynomial: tuple of coefficient matrices, ascending degree.

    Carries both adjugate polynomials adj(tI - M) and curves
    Phi(zeta) = B + zeta*M1 + zeta^2*M2 + ... through one representation.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("matrix polynomial needs at least one coefficient")
        n, field = coeffs[0].n, coeffs[0].field
        for c in coeffs:
            if c.n != n or c.field != field:
                raise ValueError("coefficient matrices must share size and field")
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return self.coefficients[0].n

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def entry_poly(self, i: int, j: int) -> Polynomial:
        return Polynomial(tuple(c.entries[i][j] for c in self.coefficients))

    def to_json(self) -> dict:
        return {"coefficients": [c.to_json() for c in self.coefficients]}

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixPolynomial":
        (coeffs,) = json_fields(obj, "curve JSON", {"coefficients": list})
        if len(coeffs) - 1 > MAX_CURVE_DEGREE:
            raise ValueError(f"curve 'coefficients' give degree {len(coeffs) - 1}, above the "
                             f"degree limit MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}")
        return cls(tuple(SquareMatrix.from_json(c) for c in coeffs))


def charpoly_in_ring(a_re: list, a_im: list):
    """Faddeev-LeVerrier over Z[i] on split rows: (coeffs, adj).

    A is given as split rows, the pair (re, im) of int row lists that
    :func:`symrank.scalars.to_gaussian_integers` returns.  coeffs is the
    split pair (re, im) of the ascending int lists c_0..c_n of det(tI - A),
    and adj is [N_1, ..., N_n], each N_k a split pair, with
    adj(tI - A) = sum_k N_k t^(n-k).  Step 1 reads A N_1 = A.  Unless A is
    sparse, steps k = 2..n-1 pack each row of N_k into one int per part, with
    digit width w, 2^(w-1) > 2 (nL)^k for L the largest |Re| + |Im| in A;
    form row i of A N_k as sum_j a_ij P_j on the packed rows; and split it
    into balanced digits, its entries (the packing argument in
    :mod:`symrank.scalars`).  Step n forms only the trace of A N_n.  Every
    ``/ k`` is checked and raises ArithmeticError if it leaves a remainder.
    """
    n = len(a_re)
    # A stays fixed and is often sparse: per row, (column, re, im) of its
    # nonzero entries
    support = [[(j, x, y) for j, (x, y) in enumerate(zip(row_re, row_im)) if x or y]
               for row_re, row_im in zip(a_re, a_im)]
    nl = n * max([abs(x) + abs(y) for row in support for _, x, y in row], default=1)
    c_re, c_im = [0] * n + [1], [0] * (n + 1)
    m_re = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m_im = [[0] * n for _ in range(n)]
    adj = [(m_re, m_im)]
    am_re, am_im = [row[:] for row in a_re], [row[:] for row in a_im]  # A N_1 = A
    # packing costs O(n^2) a step: a sparse A (Jordan: < 2n entries) is not packed
    packed = sum(map(len, support)) > 3 * n
    power = 1  # (nL)^k
    for k in range(1, n):
        power *= nl
        if k > 1 and not packed:
            am_re, am_im = [], []
            for row in support:
                out_re, out_im = [0] * n, [0] * n
                for j, x, y in row:
                    u_row, v_row = m_re[j], m_im[j]
                    out_re = [s + x * u - y * v for s, u, v in zip(out_re, u_row, v_row)]
                    out_im = [s + x * v + y * u for s, u, v in zip(out_im, u_row, v_row)]
                am_re.append(out_re)
                am_im.append(out_im)
        elif k > 1:
            w = (2 * power).bit_length() + 1
            split = balanced_splitter(w, n)
            p_re, p_im = [], []
            for row_re, row_im in zip(m_re, m_im):
                u = v = 0
                for x, y in zip(reversed(row_re), reversed(row_im)):
                    u, v = (u << w) + x, (v << w) + y
                p_re.append(u)
                p_im.append(v)
            am_re, am_im = [], []
            for row in support:
                s_re = s_im = 0
                for j, x, y in row:
                    u, v = p_re[j], p_im[j]
                    s_re += x * u - y * v
                    s_im += x * v + y * u
                am_re.append(split(s_re))
                am_im.append(split(s_im))
        q_re, r_re = divmod(sum(am_re[i][i] for i in range(n)), k)
        q_im, r_im = divmod(sum(am_im[i][i] for i in range(n)), k)
        if r_re or r_im:
            raise ArithmeticError(f"trace division by {k} is not exact in Z[i]")
        c_re[n - k], c_im[n - k] = -q_re, -q_im
        for i in range(n):
            am_re[i][i] -= q_re
            am_im[i][i] -= q_im
        m_re, m_im = am_re, am_im
        adj.append((m_re, m_im))
    tr_re = tr_im = 0
    for i, row in enumerate(support):
        for j, x, y in row:
            u, v = m_re[j][i], m_im[j][i]
            tr_re += x * u - y * v
            tr_im += x * v + y * u
    q_re, r_re = divmod(tr_re, n)
    q_im, r_im = divmod(tr_im, n)
    if r_re or r_im:
        raise ArithmeticError(f"trace division by {n} is not exact in Z[i]")
    c_re[0], c_im[0] = -q_re, -q_im
    return (c_re, c_im), adj


def _charpoly_float(a: np.ndarray, keep_adjugate: bool = False):
    """The Faddeev-LeVerrier recursion of :func:`charpoly_in_ring` in complex
    floats, on one matrix or a stack of shape (..., n, n): (coeffs, adj),
    coeffs[..., j] = c_j of each matrix.

    With ``keep_adjugate``, adj[k - 1] = N_k, of a's shape; otherwise adj is
    None and only the current N_k is held.  Raises NumericFailure iff some
    matrix has a coefficient or an N_k that is not finite.
    """
    import numpy as np

    n = a.shape[-1]
    coeffs = np.empty(a.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    eye = np.eye(n, dtype=complex)
    mk, adj = eye, None
    if keep_adjugate:
        adj = np.empty((n,) + a.shape, dtype=complex)
        adj[0] = eye
    with np.errstate(all="ignore"):
        for k in range(1, n + 1):
            am = a @ mk
            ck = -np.trace(am, axis1=-2, axis2=-1) / k
            coeffs[..., n - k] = ck
            if k < n:
                mk = np.add(am, ck[..., None, None] * eye, out=None if adj is None else adj[k])
                if adj is None and not np.isfinite(mk).all():
                    raise NumericFailure("characteristic polynomial overflowed")
    if not np.isfinite(coeffs).all() or (adj is not None and not np.isfinite(adj).all()):
        raise NumericFailure("characteristic polynomial overflowed")
    return coeffs, adj


def char_and_adjugate(M: SquareMatrix) -> tuple[Polynomial, MatrixPolynomial]:
    """Characteristic polynomial of M together with adj(tI - M).

    An exact M runs :func:`charpoly_in_ring` once on D*M, D the common
    denominator of its entries, and is scaled back: det(tI - DM) =
    D^n det(t/D I - M), so c_j(M) = c_j(DM) / D^(n-j); and N_k(M) =
    N_k(DM) / D^(k-1), kept as the split rows of N_k(DM) (:class:`_StoredRows`),
    off which ``jacobian._trace_form_rows`` reads the derivative.
    """
    n = M.n
    if M.field == FLOAT:
        coeffs, adj = _charpoly_float(M.to_numpy(), keep_adjugate=True)
        mats = tuple(SquareMatrix(n, FLOAT, tuple(map(tuple, m))) for m in reversed(adj.tolist()))
        return Polynomial(tuple(coeffs.tolist())), MatrixPolynomial(mats)
    d, re, im = M._split_rows()
    (c_re, c_im), adj = charpoly_in_ring(re, im)
    (unscaled,) = to_gaussian_rationals(d ** n, [[x * d ** j for j, x in enumerate(c_re)]],
                                        [[y * d ** j for j, y in enumerate(c_im)]])
    poly = Polynomial(unscaled)
    # N_1 = I leads, so MatrixPolynomial.__init__ would strip nothing; it
    # is skipped, and with it the read of N_1's entries
    adjugate = object.__new__(MatrixPolynomial)
    object.__setattr__(adjugate, "coefficients", tuple(
        SquareMatrix._of_split(d ** (k - 1), re, im)
        for k, (re, im) in reversed(list(enumerate(adj, 1)))))
    return poly, adjugate


def char_poly(M: SquareMatrix) -> Polynomial:
    """Monic degree-n polynomial det(tI - M), ascending coefficients."""
    return char_and_adjugate(M)[0]


def symmetrize(M: SquareMatrix | np.ndarray) -> SymPoint | np.ndarray:
    """(sigma_1(M), ..., sigma_n(M)): the symmetrization map applied to M.

    M is a SquareMatrix, or a complex128 ndarray stack of shape (k, n, n),
    1 <= n <= MAX_N, whose k matrices run through one float recursion; the
    stack gives the (k, n) array of their points, bit for bit the points of
    its matrices taken one at a time.  A float SquareMatrix, of any size, runs
    as a stack of one, with no adjugate.
    """
    if isinstance(M, SquareMatrix) and M.field == EXACT:
        # det(tI - M) is monic of degree n: all n + 1 coefficients are kept
        c, n = char_poly(M).coefficients, M.n
        return tuple(c[n - j] if j % 2 == 0 else -c[n - j] for j in range(1, n + 1))
    import numpy as np

    single = isinstance(M, SquareMatrix)
    stack = M.to_numpy()[None] if single else M
    if not single and not (isinstance(M, np.ndarray) and M.dtype == np.complex128 and M.ndim == 3
                           and M.shape[1] == M.shape[2] and 1 <= M.shape[2] <= MAX_N):
        raise ValueError("expected a SquareMatrix or a complex128 stack of shape (k, n, n), "
                         f"1 <= n <= MAX_N = {MAX_N}; got {type(M).__name__} "
                         f"{getattr(M, 'dtype', '')} {getattr(M, 'shape', '')}")
    n = stack.shape[2]
    coeffs, _ = _charpoly_float(stack)
    # sigma_j = (-1)^j c_(n-j); np.negative flips signs exactly, zeros included
    points = coeffs[:, n - 1::-1]
    np.negative(points[:, 0::2], out=points[:, 0::2])
    return tuple(points[0].tolist()) if single else points


def falling_factorial(p: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= p - i
    return out


def sym_poly_eval(v: Sequence, k: int, t):
    """k-th derivative of the monic polynomial attached to a symmetrized point.

    The point v = (v_1, ..., v_n) determines sum_j (-1)^j v_j t^(n-j) with
    v_0 = 1; this evaluates that polynomial's k-th derivative at t.  For
    v = symmetrize(M) and k = 0 the value is det(tI - M).  k beyond n returns
    zero (the polynomial has degree n).  v and t are exact; a float or
    complex value raises TypeError.
    """
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    n = len(v)
    t = coerce_scalar(t, EXACT)
    total = GQ_ZERO
    if k > n:
        return total
    for j in range(n + 1):
        p = n - j
        if p < k:
            continue
        vj = GQ_ONE if j == 0 else coerce_scalar(v[j - 1], EXACT)
        term = vj * falling_factorial(p, k) * t ** (p - k)
        total = total + (term if j % 2 == 0 else -term)
    return total


def monomial_vector(n: int, k: int, lam) -> tuple:
    """Componentwise k-th derivative of (-t^(n-1), t^(n-2), ..., (-1)^n) at lam.

    These are the gradient vectors of the symmetrized-point polynomial: for
    any point u, sym_poly_eval(u, 0, t) - t^n = dot(monomial_vector(n, 0, t), u).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"order k={k} out of range for size {n}")
    field = FLOAT if isinstance(lam, (float, complex)) else EXACT
    lam = coerce_scalar(lam, field)
    zero = field_zero(field)
    out = []
    for j in range(1, n + 1):
        p = n - j
        if p < k:
            out.append(zero)
            continue
        term = falling_factorial(p, k) * lam ** (p - k)
        out.append(-term if j % 2 == 1 else term)
    return tuple(out)


def dot(u: Sequence, w: Sequence):
    """Unconjugated bilinear form sum_j u_j w_j."""
    if len(u) != len(w):
        raise ValueError(f"length mismatch: {len(u)} vs {len(w)}")
    if not u:
        raise ValueError("empty vectors")
    return _dot_seq(tuple(u), tuple(w))


def spectral_radius_bound(M: SquareMatrix, iterations: int = 8) -> float:
    """Gelfand upper bound ||M^(2^k)||^(1/2^k) on the spectral radius.

    Uses the max-row-sum norm; the sequence decreases to the spectral radius
    as the iteration count grows.  Diagnostic only; no computation in this
    package is gated on membership in the spectral unit ball.
    """
    if M.field != FLOAT:
        raise ValueError("spectral radius bound needs a float matrix")
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    import numpy as np

    a = M.to_numpy()
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            a = a @ a
            if not np.all(np.isfinite(a.view(float))):
                raise NumericFailure("matrix powers overflowed")
        norm = float(np.max(np.sum(np.abs(a), axis=1)))
    if norm == 0.0:
        return 0.0
    return float(norm ** (1.0 / (2 ** iterations)))
