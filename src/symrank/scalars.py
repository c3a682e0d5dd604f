"""Scalar fields behind the toolkit: exact Gaussian rationals and complex floats.

The exact field holds :class:`GaussianRational`, pairs of
``fractions.Fraction``, and the float field built-in ``complex``.  Only the
two matrix types, ``matpoly.SquareMatrix`` and ``jacobian.JacobianMatrix``,
carry a ``field`` tag, either ``"exact"`` or ``"float"``; polynomials and
reports are exact.  Exact scalars make rank decisions decidable; the float
field exists for finite-difference oracles and numeric cross-checks.
The exact kernels clear denominators and compute over Z[i] internally (curves
too, by Kronecker substitution) on split rows: a Gaussian-integer matrix held
as two lists of int rows, one of real and one of imaginary parts, which
:func:`to_gaussian_integers` produces and :func:`to_gaussian_rationals`
reads back.  Their inputs and outputs are Gaussian rationals, but a matrix
a kernel returns keeps its split rows, builds its Gaussian rationals on first
read, and hands the next kernel the rows (``matpoly._StoredRows``).  A single
Gaussian integer (an eigenvalue, a pivot) is the int pair (re, im), and a
vector or polynomial over Z[i] the pair of its int lists; each kernel writes
the product (a + bi)(c + di) out on those ints.  Each Gaussian integer with
both parts in [-32, 32] that :func:`to_gaussian_rationals` or ``-x`` hands
out is one shared object, made on first use; its zero is :data:`GQ_ZERO`,
which the kernels read by identity.  Sharing is safe: a GaussianRational is
immutable, and ``==``, hash, repr and JSON work by value, so no output can
tell a shared object from a fresh one.

Each division a kernel makes is exact in Z[i]:

* the coefficients of det(tI - A) and of adj(tI - A) are integer
  polynomials in A's entries, so every ``/ k`` in Faddeev-LeVerrier
  (``matpoly.charpoly_in_ring``) on a Gaussian-integer A is exact;
* scaling a row by a nonzero integer leaves the rank unchanged, and every
  Bareiss division is exact in any integral domain, Z[i] among them; the
  pivot order (first nonzero in a row-major scan) does not change.  A
  previous pivot that is a unit (1, -1, i or -i) divides every Gaussian
  integer, so that division is exact by construction and takes no check;
* the similarity shears have integer multipliers, so D*M stays a
  Gaussian-integer matrix.

Three scalings carry the certificate checks into Z[i] without changing
their verdicts:

* row scaling: N_k(D*B) = D^(k-1) N_k(B) for the adjugate coefficients,
  so row k of the derivative read from the adjugate of D*B is D^(k-1)
  times row k of pi'(B) (``jacobian._scaled_jacobian``).  Each row is
  scaled by a nonzero integer, so the rank is that of pi'(B); and with M
  cleared over E, component k of pi'(B) vec(M) is the Z[i] sum of row k
  of the scaled rows against E*vec(M), divided by D^(k-1) E
  (``jacobian.directional_derivative``);
* covector rescale: for covectors v and L the common denominator of all
  their entries, with w_k = L v_k D^(n-k),
  sum_k w_k (D^(k-1) J_k) = L D^(n-1) sum_k v_k J_k, so v annihilates a
  column of J = pi'(B) iff the Gaussian integers w annihilate that column
  of the scaled rows (``verify_annihilation``);
* node scaling: one :func:`to_gaussian_integers` call clears a spec's
  eigenvalues over one common e, lam = a/e with a in Z[i].  Multiplying row
  j of the confluent Vandermonde matrix by e^(n-j) and dividing its column
  of order d by e^d turns each entry +-ff(n-j, d) lam^(n-j-d) into
  +-ff(n-j, d) a^(n-j-d), so det V(lam) = det V(a) / e^E with
  E = n(n-1)/2 - sum_c m_c(m_c-1)/2 = sum_(a<b) m_a m_b over clusters of
  multiplicity m_c, and |lam_b - lam_a| = |a_b - a_a| / e gives the closed
  form the same e^(2E) (``confluent_vandermonde_det``).  Likewise
  (e t - a)^s = e^s (t - lam)^s expands an invariant factor of degree deg
  over Z[i][t], divided by e^deg once (``jordan_to_frobenius``).

A fourth argument, a bound, carries curves into Z[i] by Kronecker
substitution (``proofs._curve_taylor_coeffs``).  A curve
Phi(zeta) = sum_q zeta^q M_q scaled by the common denominator D of all its
M_q has entries in Z[i][zeta].  When M_0 is a spec's Jordan matrix, every
eigenvalue lam sits on its diagonal, so D*lam is a Gaussian integer and
D*Phi - D*lam*I has entries in Z[i][zeta] too.  Evaluation at zeta = X is
a ring homomorphism Z[i][zeta] -> Z[i], so Faddeev-LeVerrier on D*Phi(X)
gives c_p(X) for each coefficient c_p of det(uI - D*Phi), and every ``/ k``
stays exact by the first argument.  The Taylor coefficients of that
polynomial at u = D*lam, found by synthetic division over Z[i], are the
T_k = c_k(D*Phi - D*lam*I), evaluated at X.  To bound them, let
|z|_1 = |Re z| + |Im z|, which is submultiplicative on Z[i], and let L be
the largest entry l1 norm sum_q |z_q|_1 over the zeta^q coefficients of an
entry of D*Phi.  D*lam is the zeta^0 coefficient of a diagonal entry, so
|D*lam|_1 <= L, and L_lam = L + |D*lam|_1 <= 2L bounds the entry l1 norms
of D*Phi - D*lam*I.  The l1 norm of a product of polynomials is at most
the product of their l1 norms.  Each zeta-coefficient of T_k is a signed
sum of the C(n, s) s! products of s = n - k entries in the principal
s-minors, each of l1 norm at most L_lam^s, so its real and imaginary parts
are at most n^s L_lam^s <= (n L_lam)^n (for L_lam >= 1).  With X = 2^w and
2^(w-1) > (n L_lam)^n for every eigenvalue, those parts are the balanced
base-X digits of the parts of T_k(X), and w is at most n bits wider than
(nL)^n alone would need.

The vanishing order of T_k needs no digits, only a valuation.  Let
P = sum_q d_q 2^(qw) with integers |d_q| < 2^w, and d_j the lowest nonzero
one.  Then P = 2^(jw) (d_j + 2^w R) for an integer R, and 0 < |d_j| < 2^w
gives v2(d_j) < w, so v2(P) = jw + v2(d_j) and j = v2(P) // w; P = 0 iff
every d_q is 0, since d_j + 2^w R = 0 would need 2^w | d_j.  For the two
parts of T_k(X), the lowest nonzero power of zeta is the smaller of their
two j, and v2(re | im) = min(v2(re), v2(im)), so the order is
v2(re | im) // w, and T_k = 0 iff re | im = 0 (``proofs._lowest_digit``).
A digit of 2^w breaks both: it carries into the next position.

A fifth argument, a bound of the same kind, packs the rows of each N_k
into one int per part (``matpoly.charpoly_in_ring``).  With L the largest
|z|_1 of an entry of A (at least 1), c_(n-j) is a signed sum of the
n!/(n-j)! <= n^j products of j entries in the principal j-minors, so
|c_(n-j)|_1 <= (nL)^j; and |(A^m)_ab|_1 <= n^(m-1) L^m = (nL)^m / n for
m >= 1.  From N_k = sum_(j<k) c_(n-j) A^(k-1-j), every entry of N_k is at
most (nL)^(k-1) (1 + (k-1)/n) < 2 (nL)^(k-1), and every entry of A N_k at
most nL times that, 2 (nL)^k.  Row i of A N_k is sum_j a_ij P_j with P_j
= sum_c N_k[j][c] X^c the packed row j of N_k, one identity of integers
per part; with X = 2^w and 2^(w-1) > 2 (nL)^k, the balanced base-X digits
of each part are the parts of the row's entries.  Every ``/ k`` stays
checked.

A nonzero remainder therefore means a bug: the divisions of the kernels,
the checked trace division of ``matpoly.charpoly_in_ring`` (one ``divmod``
per part) and :func:`exact_quotients`, raise ``ArithmeticError`` instead
of rounding, and so does a digit split (:func:`balanced_splitter`) that
leaves a remainder.  A unit divisor cannot leave one and takes no check.

All values are immutable and safe to share between threads.

The value types derive from :class:`Value`, a frozen base.  A subclass
names its fields once, in ``__slots__`` (or in ``_fields``, to keep a
``__dict__``), and the base's constructor takes their values positionally,
in that order.  A subclass that checks or normalizes its input writes its
own ``__init__`` and sets the fields with ``_set`` after its checks.  The
base gives ``==`` by field tuple within one class, ``hash`` of that tuple,
the repr ``Name(field=value, ...)``, AttributeError on assignment, and
pickling and copying that skip ``__init__``: what frozen data classes gave,
without importing their module (and ``inspect``) or ``exec``-ing generated
methods, about a third of a cold ``import symrank``.  The base's loop over
the fields is several times slower than generated code, so
:class:`GaussianRational`, the one value that arithmetic builds, compares
and hashes, writes ``__init__``, ``__eq__`` and ``__hash__`` out.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

#: Writes a field past :class:`Value`'s frozen ``__setattr__``
_setattr = object.__setattr__


class Value:
    """Frozen value base (see the module docstring): a positional
    constructor, ``==``, ``hash``, repr, frozenness and pickling over the
    fields named in ``_fields``, which defaults to the class's
    ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__dict__.get("__slots__", ())

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the {len(self._fields)} values "
                            f"{self._fields}, got {len(values)}")
        self._set(*values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def _set(self, *values) -> None:
        """Write the fields in order."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)


class NumericFailure(RuntimeError):
    """A floating-point computation overflowed or failed to converge."""


def normalize_rational(numerator: int, denominator: int = 1) -> Fraction:
    """Reduced rational with positive denominator; rejects a zero denominator."""
    if denominator == 0:
        raise ValueError("zero denominator")
    return Fraction(numerator, denominator)


def render_rational(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`render_rational`; also accepts a bare integer string.
    Each side of the slash is ASCII [+-]?[0-9]+ after an outer ``strip``."""
    body = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[+-]?[0-9]+)?", body):
        raise ValueError(f"bad rational {text!r}")
    num, _, den = body.partition("/")
    try:
        return normalize_rational(int(num), int(den or 1))
    except ValueError as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


class GaussianRational(Value):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        _setattr(self, "re", re)
        _setattr(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re + other.re, self.im + other.im)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re - other.re, self.im - other.im)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # real-only operands dominate in practice; skip the cross terms
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re, self.im)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(self.re / other.re, self.im / other.re)
        denom = other.abs2()
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __neg__(self) -> "GaussianRational":
        re, re_den = self.re.as_integer_ratio()
        im, im_den = self.im.as_integer_ratio()
        if re_den == im_den == 1 and abs(re) <= _SHARED_BOUND and abs(im) <= _SHARED_BOUND:
            return _SHARED[-re, -im]
        # a zero imaginary part is its own negative; real entries are common
        return GaussianRational(-self.re, -self.im if self.im else self.im)

    def __pow__(self, exponent: int) -> "GaussianRational":
        return _power(self, exponent, GQ_ONE)

    def __repr__(self) -> str:
        return f"gq({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an exact scalar, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    return NotImplemented


def _power(base, exponent: int, one):
    """base ** exponent by square-and-multiply, starting from ``one``; a
    negative or non-int exponent raises TypeError."""
    if not isinstance(exponent, int) or exponent < 0:
        raise TypeError(f"exponent must be an int >= 0, got {exponent!r}")
    out = one
    while exponent:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return out


def gq(re=0, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or "p/q" strings."""
    return GaussianRational(_as_fraction(re), _as_fraction(im))


_SHARED_BOUND = 32


class _SharedIntegers(dict):
    """(re, im) -> the shared re + i*im, made on first use, for |re|, |im| <= _SHARED_BOUND."""

    def __missing__(self, key):
        re, im = key
        # a complex entry takes the Fraction parts of the real ones: less memory
        value = self[key] = (GaussianRational(self[re, 0].re, self[im, 0].re) if im else
                             GaussianRational(Fraction(re) if re else _FRACTION_ZERO, _FRACTION_ZERO))
        return value


_FRACTION_ZERO = Fraction(0)
_SHARED = _SharedIntegers()
GQ_ZERO = _SHARED[0, 0]
GQ_ONE = gq(1)
GQ_I = gq(0, 1)


def exact_quotients(re: list, im: list, divisor_re: int, divisor_im: int = 0) -> tuple:
    """(re + i*im) / (divisor_re + i*divisor_im) entrywise over Z[i], as
    (re, im) int lists; raises ArithmeticError if a quotient is not in Z[i]
    and ZeroDivisionError for a zero divisor.  A unit divisor (1, -1, i or
    -i) is exact by construction and takes no check: the rows times its
    conjugate, which may hand back ``re`` or ``im`` itself."""
    if divisor_im:
        norm = divisor_re * divisor_re + divisor_im * divisor_im
        if norm == 1:  # i or -i: times -i or i swaps the parts with a sign
            return (im, [-x for x in re]) if divisor_im == 1 else ([-y for y in im], re)
        # times the conjugate, then an exact division by the norm
        re, im = ([x * divisor_re + y * divisor_im for x, y in zip(re, im)],
                  [y * divisor_re - x * divisor_im for x, y in zip(re, im)])
    elif divisor_re == 1:
        return re, im
    elif divisor_re == -1:
        return [-x for x in re], [-y for y in im]
    else:
        norm = divisor_re
    if not norm:
        raise ZeroDivisionError("division by zero in Z[i]")
    q_re = [x // norm for x in re]
    q_im = [y // norm for y in im]
    if [q * norm for q in q_re] != re or [q * norm for q in q_im] != im:
        raise ArithmeticError(
            f"division by {divisor_re}{divisor_im:+}i is not exact in Z[i]")
    return q_re, q_im


def balanced_splitter(w: int, count: int):
    """value -> [r_0, ..., r_(count-1)], each r_q in [-2^(w-1), 2^(w-1)), with
    value = sum_q r_q 2^(q*w); ArithmeticError if count digits cannot hold
    value.  Half a digit added at every position makes them plain digits."""
    half, mask, top = 1 << (w - 1), (1 << w) - 1, count * w
    shifts = range(0, top, w)
    offset = sum(half << s for s in shifts)

    def split(value: int) -> list:
        value += offset
        if value < 0 or value >> top:
            raise ArithmeticError(f"{count} base-2^{w} digits do not hold {value - offset}")
        return [((value >> s) & mask) - half for s in shifts]

    return split


def to_gaussian_integers(rows) -> tuple[int, list, list]:
    """(D, re, im): D the lcm of every denominator in ``rows`` and D * rows
    as split rows, ``re`` and ``im`` the int rows of its real and imaginary
    parts.  Entries may be int, Fraction or GaussianRational; anything else
    raises TypeError."""
    parts, d = [], 1
    for row in rows:
        row_parts = []
        for x in row:
            if x is GQ_ZERO:
                row_parts.append((0, 1, 0, 1))
                continue
            if type(x) is GaussianRational:
                re, re_den = x.re.as_integer_ratio()
                im, im_den = x.im.as_integer_ratio()
            elif isinstance(x, (int, Fraction)):
                re, re_den = x.as_integer_ratio()
                im, im_den = 0, 1
            else:
                raise TypeError(f"{x!r} is not an exact scalar")
            if re_den != 1 or im_den != 1:
                d = math.lcm(d, re_den, im_den)
            row_parts.append((re, re_den, im, im_den))
        parts.append(row_parts)
    if d == 1:
        # every default-pool matrix: the parts are already integers
        return (1, [[re for re, _, _, _ in row] for row in parts],
                [[im for _, _, im, _ in row] for row in parts])
    return (d, [[re * (d // p) for re, p, _, _ in row] for row in parts],
            [[im * (d // q) for _, _, im, q in row] for row in parts])


def to_gaussian_rationals(denominator: int, re_rows, im_rows) -> tuple:
    """Split rows divided by ``denominator``, as tuples of GaussianRational:
    the inverse of :func:`to_gaussian_integers`.  With ``denominator`` 1 a
    small entry is the shared object (see the module docstring)."""
    zero = _FRACTION_ZERO
    if denominator == 1:
        shared, lo, hi = _SHARED, -_SHARED_BOUND, _SHARED_BOUND
        return tuple(
            tuple(shared[x, y] if lo <= x <= hi and lo <= y <= hi
                  else GaussianRational(Fraction(x) if x else zero, Fraction(y) if y else zero)
                  for x, y in zip(re_row, im_row))
            for re_row, im_row in zip(re_rows, im_rows))
    return tuple(
        tuple(GaussianRational(Fraction(x, denominator) if x else zero,
                               Fraction(y, denominator) if y else zero)
              if x or y else GQ_ZERO for x, y in zip(re_row, im_row))
        for re_row, im_row in zip(re_rows, im_rows))


def ensure_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericFailure(f"non-finite float scalar {z!r}")
    return z


def field_zero(field: str):
    return GQ_ZERO if field == EXACT else 0j


def field_one(field: str):
    return GQ_ONE if field == EXACT else complex(1.0)


def coerce_scalar(value, field: str):
    """Coerce a loose value (int, Fraction, float, complex) into a field
    scalar; a bool is refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"cannot place the bool {value!r} in a field")
    if field == EXACT:
        exact = _coerce(value)
        if exact is NotImplemented:
            raise TypeError(f"cannot place {value!r} in the exact field")
        return exact
    if field == FLOAT:
        if isinstance(value, GaussianRational):
            return ensure_finite(complex(float(value.re), float(value.im)))
        if isinstance(value, (int, float, complex)):
            return ensure_finite(complex(value))
        raise TypeError(f"cannot place {value!r} in the float field")
    raise ValueError(f"unknown field {field!r}")


def scalar_to_json(x):
    """Exact scalars encode as ["p/q", "r/s"]; floats as [re, im] numbers."""
    if isinstance(x, GaussianRational):
        return [render_rational(x.re), render_rational(x.im)]
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(obj, field: str):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"scalar encoding must be a 2-element list, got {obj!r}")
    re, im = obj
    if field == EXACT:
        if not isinstance(re, str) or not isinstance(im, str):
            raise ValueError(f"exact scalar parts must be 'p/q' strings, got {obj!r}")
        return GaussianRational(parse_rational(re), parse_rational(im))
    if field == FLOAT:
        if type(re) not in (int, float) or type(im) not in (int, float):
            raise ValueError(f"float scalar parts must be numbers, got {obj!r}")
        # JSON 1e400 parses to inf, and an int past the float range overflows
        try:
            z = complex(float(re), float(im))
        except OverflowError:
            z = complex(math.inf)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"float scalar parts must be finite numbers, got {obj!r}")
        return z
    raise ValueError(f"unknown field {field!r}")


def parse_eigenvalue(text: str) -> GaussianRational:
    """Parse shorthand exact eigenvalues: "2", "-1", "1/2", "i", "-i", "1+2i"."""
    body = text.strip().replace(" ", "")
    if not body:
        raise ValueError("empty eigenvalue")
    if body in ("i", "+i"):
        return GQ_I
    if body == "-i":
        return -GQ_I
    if body.endswith("i"):
        head = body[:-1]
        for split in range(len(head) - 1, 0, -1):
            if head[split] in "+-" and head[split - 1] not in "+-/":
                re_part, im_part = head[:split], head[split:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return gq(parse_rational(re_part), parse_rational(im_part))
        return gq(0, parse_rational(head))
    return gq(parse_rational(body))


def format_eigenvalue(x: GaussianRational) -> str:
    """Shorthand accepted by :func:`parse_eigenvalue`: "2", "1/2", "i", "1+2i"."""
    if not x.im:
        return str(x.re)
    if x.im == 1:
        im = "i"
    elif x.im == -1:
        im = "-i"
    else:
        im = f"{x.im}i"
    if not x.re:
        return im
    return f"{x.re}{'+' if not im.startswith('-') else ''}{im}"


def random_rational(rng: random.Random, magnitude: int = 9) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, magnitude))


def random_gaussian_rational(rng: random.Random, magnitude: int = 9) -> GaussianRational:
    return GaussianRational(random_rational(rng, magnitude), random_rational(rng, magnitude))
