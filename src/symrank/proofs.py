"""Certificate generators pinning the rank of the symmetrization derivative.

Two independent constructions bracket the rank of the derivative at B:

* a null-space certificate: derivative vectors of the signed monomial family
  evaluated at each eigenvalue annihilate every column of the exact
  derivative matrix, and a confluent Vandermonde argument makes them
  linearly independent, forcing rank <= m;
* a tangent certificate: one-hot perturbations of the last row of the final
  companion block map to image vectors with an anti-diagonal echelon pivot
  pattern, forcing rank >= m.

Together the two certificates re-derive rank == m without any singular value
decomposition.  Supporting tools: Newton divided differences with Hermite
(repeated-node) data, a convergence check for the divided-difference limit
formula, the confluent Vandermonde determinant against its closed form, and
an order-of-vanishing verifier for polynomial curves through B, which
evaluates each curve's characteristic polynomial once, over Z[i] at
zeta = 2^w by Kronecker substitution, and reads every order from a Taylor
coefficient of that value at an eigenvalue.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .canonical import (
    FrobeniusSpec,
    JordanSpec,
    build_frobenius,
    build_jordan,
    required_order,
)
from .jacobian import (_bareiss, _scaled_jacobian, directional_derivative, jacobian_exact,
                       rank_exact)  # uncalled: perfbench's binding test wants it bound here
from .matpoly import (
    MatrixPolynomial,
    SquareMatrix,
    charpoly_in_ring,
    falling_factorial,
    monomial_vector,
)
from .scalars import (
    EXACT,
    GQ_ZERO,
    GaussianRational,
    Value,
    coerce_scalar,
    json_fields,
    scalar_from_json,
    scalar_to_json,
    to_gaussian_integers,
    to_gaussian_rationals,
)

class NullVector(Value):
    __slots__ = ("eigenvalue", "order", "vector")


class NullspaceCertificate(Value):
    """n - m vectors annihilating every column of the derivative matrix."""

    __slots__ = ("vectors",)

    def to_json(self) -> dict:
        return {
            "vectors": [
                {
                    "lambda": scalar_to_json(v.eigenvalue),
                    "k": v.order,
                    "v": [scalar_to_json(x) for x in v.vector],
                }
                for v in self.vectors
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NullspaceCertificate":
        (vectors,) = json_fields(obj, "nullspace certificate JSON", {"vectors": list})
        fields = {"lambda": list, "k": int, "v": list}
        vectors = [json_fields(v, "nullspace certificate vector", fields) for v in vectors]
        if any(k < 0 for _, k, _ in vectors):
            raise ValueError("nullspace certificate vector 'k' must be >= 0")
        return cls(tuple(NullVector(scalar_from_json(lam, EXACT), k,
                                    tuple(scalar_from_json(x, EXACT) for x in v))
                         for lam, k, v in vectors))


class TangentCertificate(Value):
    """m image vectors in echelon form; directions index the one-hot h."""

    __slots__ = ("directions", "images", "pivots")

    def to_json(self) -> dict:
        return {
            "directions": list(self.directions),
            "images": [[scalar_to_json(x) for x in img] for img in self.images],
            "pivots": list(self.pivots),
        }


def nullspace_basis(spec: JordanSpec) -> NullspaceCertificate:
    """For each eigenvalue, derivative orders 0 .. multiplicity - largest - 1.

    Sizes ascend, so the largest block is the last, as in ``min_poly_degree``;
    the count over all eigenvalues is exactly n - m, where m is the minimal
    polynomial degree.
    """
    n = spec.n
    return NullspaceCertificate(tuple(
        NullVector(blk.eigenvalue, k, monomial_vector(n, k, blk.eigenvalue))
        for blk in spec.blocks for k in range(sum(blk.sizes) - blk.sizes[-1])))


def verify_annihilation(cert: NullspaceCertificate, B: SquareMatrix) -> bool:
    """True iff every certificate vector kills every column of the derivative.

    The products are taken over Z[i], against the row-scaled derivative of
    ``jacobian._scaled_jacobian`` and the vectors rescaled to match, over one
    common denominator (see the :mod:`symrank.scalars` docstring).
    """
    if B.field != EXACT:
        raise ValueError("annihilation check requires an exact matrix")
    if any(not isinstance(x, GaussianRational) for v in cert.vectors for x in v.vector):
        raise ValueError("certificate vectors must be exact")
    n = B.n
    for v in cert.vectors:
        if len(v.vector) != n:
            raise ValueError(f"length mismatch: {len(v.vector)} vs {n}")
    if not cert.vectors:
        return True
    d, rows_re, rows_im = _scaled_jacobian(B)
    for w_re, w_im in zip(*to_gaussian_integers(v.vector for v in cert.vectors)[1:]):
        # row k is D^(k-1) J_k, so w_k = L v_k D^(n-k) gives w . rows = L D^(n-1) v . J
        terms = [(a * d ** (n - k), b * d ** (n - k), rows_re[k - 1], rows_im[k - 1])
                 for k, (a, b) in enumerate(zip(w_re, w_im), 1) if a or b]
        for c in range(n * n):
            total_re = total_im = 0
            for a, b, row_re, row_im in terms:
                x, y = row_re[c], row_im[c]
                if x or y:
                    total_re += a * x - b * y
                    total_im += a * y + b * x
            if total_re or total_im:
                return False
    return True


def divided_difference(nodes, derivatives) -> object:
    """Newton divided difference over nodes with Hermite data at repetitions.

    ``nodes`` is a sequence of scalars in table order; equal nodes must be
    adjacent.  ``derivatives`` maps each node to the sequence
    (f(x), f'(x), ..., f^(r-1)(x)) covering its multiplicity r.  Confluent
    entries use the derivative scaled by the factorial; distinct nodes use
    the usual difference quotient.
    """
    z = list(nodes)
    if not z:
        raise ValueError("at least one node required")
    seen = set()
    previous = None
    for x in z:
        if previous is not None and x == previous:
            continue
        if x in seen:
            raise ValueError(f"repeated node {x} must be contiguous")
        seen.add(x)
        previous = x

    def value(x, order):
        try:
            series = derivatives[x]
        except (KeyError, TypeError):
            raise ValueError(f"no data supplied for node {x}") from None
        if order >= len(series):
            raise ValueError(f"missing derivative data at repeated node {x}")
        return series[order]

    col = [value(x, 0) for x in z]
    for j in range(1, len(z)):
        nxt = []
        for i in range(len(z) - j):
            if z[i + j] == z[i]:
                nxt.append(value(z[i], j) / math.factorial(j))
            else:
                nxt.append((col[i + 1] - col[i]) / (z[i + j] - z[i]))
        col = nxt
    return col[0]


class ConvergenceReport(Value):
    """Errors of k! f[lam, lam+eps, ..., lam+k*eps] against the k-th derivative.

    When k = n - 1 every component of the monomial family has degree at most
    k, so the scaled divided difference is exact independent of eps; the only
    residual in the float field is cancellation noise, which grows as eps
    shrinks.  top_order marks that regime; there the check compares errors
    against a roundoff allowance instead of demanding a decreasing sequence
    that floating point cannot deliver.
    """

    __slots__ = ("n", "order", "lam", "eps", "errors", "floor", "top_order", "allowances",
                 "passed")


def genocchi_hermite_check(n: int, k: int, lam, eps_sequence) -> ConvergenceReport:
    """Confluent-limit convergence: the scaled divided difference over nodes
    lam, lam+eps, ..., lam+k*eps must approach the k-th derivative vector at
    first order in eps or better; at top order (k = n - 1) the difference is
    exact and the errors only need to sit at the roundoff level.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"order k={k} out of range for size {n}")
    lam = complex(lam)
    eps_sequence = tuple(float(e) for e in eps_sequence)
    if any(e <= 0 for e in eps_sequence):
        raise ValueError("eps values must be positive")
    target = monomial_vector(n, k, lam)
    scale = max(1.0, max(abs(t) for t in target))
    floor = 1e-11 * scale
    machine = 2.220446049250313e-16
    errors = []
    allowances = []
    for eps in eps_sequence:
        points = [lam + i * eps for i in range(k + 1)]
        fmax = 1.0
        approx = []
        for comp in range(n):
            data = {x: (monomial_vector(n, 0, x)[comp],) for x in points}
            fmax = max(fmax, max(abs(data[x][0]) for x in points))
            approx.append(math.factorial(k) * divided_difference(points, data))
        errors.append(max(abs(a - t) for a, t in zip(approx, target)))
        allowances.append(64.0 * n * (2 ** k) * machine * fmax / eps ** k)
    top_order = k == n - 1
    if top_order:
        passed = all(err <= allow for err, allow in zip(errors, allowances))
    else:
        passed = True
        for (e_prev, err_prev), (e_next, err_next) in zip(
            zip(eps_sequence, errors), zip(eps_sequence[1:], errors[1:])
        ):
            if err_next <= floor:
                continue
            if err_prev <= floor:
                passed = False
                break
            if err_prev / err_next < 0.8 * (e_prev / e_next):
                passed = False
                break
    return ConvergenceReport(
        n, k, lam, eps_sequence, tuple(errors), floor, top_order,
        tuple(allowances), passed,
    )


class VandermondeComparison(Value):
    """Direct confluent Vandermonde determinant against the closed form.

    The closed form is the factorial product times all pairwise eigenvalue
    differences raised to the product of the multiplicities; the comparison
    is made exactly on squared moduli, which stay rational for Gaussian
    rational eigenvalues.
    """

    __slots__ = ("determinant", "det_abs_squared", "closed_abs_squared", "closed_form_abs",
                 "matches")


def confluent_vandermonde_det(clusters) -> VandermondeComparison:
    """Determinant of [v(l1), v'(l1), ..., v(l2), ...] vs the closed form.

    The closed form is |det|^2 = F^2 prod_(a<b) |lam_b - lam_a|^(2 m_a m_b),
    F the product of j! over j < m_c for each cluster c.  Over one common e,
    the columns are built at the Gaussian-integer nodes a = e lam, and both
    sides carry the same e^(2E), E = sum_(a<b) m_a m_b (the node-scaling
    argument in :mod:`symrank.scalars`), so ``matches`` is an identity of ints.
    """
    groups = [(coerce_scalar(lam, EXACT), mult) for lam, mult in clusters]
    if any(type(m) is not int or m < 1 for _, m in groups):
        raise ValueError(f"multiplicities must be positive integers, got {[m for _, m in groups]}")
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            if groups[a][0] == groups[b][0]:
                raise ValueError(f"repeated cluster eigenvalue {groups[a][0]}")
    n = sum(m for _, m in groups)
    e, (nodes_re,), (nodes_im,) = to_gaussian_integers([[lam for lam, _ in groups]])
    nodes = [(a_re, a_im, m) for a_re, a_im, (_, m) in zip(nodes_re, nodes_im, groups)]
    # column d at the node a: entry j is (-1)^j ff(n-j, d) a^(n-j-d), split
    cols_re, cols_im = [], []
    for a_re, a_im, mult in nodes:
        powers = [(1, 0)]
        for _ in range(n - 1):
            x, y = powers[-1]
            powers.append((x * a_re - y * a_im, x * a_im + y * a_re))
        for d in range(mult):
            col_re, col_im = [0] * n, [0] * n
            for j in range(1, n - d + 1):
                p = n - j
                s = falling_factorial(p, d)
                if j % 2:
                    s = -s
                x, y = powers[p - d]
                col_re[j - 1], col_im[j - 1] = x * s, y * s
            cols_re.append(col_re)
            cols_im.append(col_im)
    rank, (p_re, p_im), sign = _bareiss([list(row) for row in zip(*cols_re)],
                                        [list(row) for row in zip(*cols_im)])
    # the closed form at the nodes, and e^E, over the same pairs
    num, scale = math.prod(math.factorial(j) for _, m in groups for j in range(m)) ** 2, 1
    for a, (x_a, y_a, m_a) in enumerate(nodes):
        for x_b, y_b, m_b in nodes[a + 1:]:
            x, y = x_b - x_a, y_b - y_a
            num *= (x * x + y * y) ** (m_a * m_b)
            scale *= e ** (m_a * m_b)
    if rank < n:
        det, p_re, p_im = GQ_ZERO, 0, 0
    else:
        ((det,),) = to_gaussian_rationals(scale, [[p_re * sign]], [[p_im * sign]])
    det_abs2 = p_re * p_re + p_im * p_im
    closed_abs2 = Fraction(num, scale * scale)
    return VandermondeComparison(det, Fraction(det_abs2, scale * scale), closed_abs2,
                                 math.sqrt(float(closed_abs2)), det_abs2 == num)


def tangent_direction(fspec: FrobeniusSpec, index: int) -> SquareMatrix:
    """Perturbation with h_index = 1: a single -1 in the last row of the
    final companion block, at the block column index - 1 (1-based index),
    kept as split rows."""
    n = fspec.n
    m = fspec.min_degree
    if not 1 <= index <= m:
        raise ValueError(f"direction index {index} out of range 1..{m}")
    re = [[0] * n for _ in range(n)]
    re[n - 1][n - m + index - 1] = -1
    return SquareMatrix._of_split(1, re, [[0] * n for _ in range(n)])


def _pivot(image) -> int:
    """1-based position of the first nonzero component, 0 for a zero image."""
    return next((pos + 1 for pos, x in enumerate(image) if x), 0)


def tangent_construction(fspec: FrobeniusSpec) -> TangentCertificate:
    """Images of the m one-hot last-row perturbations of the final block.

    The image of direction i has its first nonzero component at position
    m - i + 1, so the m images form an anti-diagonal echelon pattern.  The
    Frobenius matrix and the directions are split rows over Z[i], and every
    image is read off one :func:`jacobian_exact` result.
    """
    jac = jacobian_exact(build_frobenius(fspec))
    directions = tuple(range(1, fspec.min_degree + 1))
    images = tuple(directional_derivative(jac, tangent_direction(fspec, i)) for i in directions)
    return TangentCertificate(directions, images, tuple(map(_pivot, images)))


def tangent_ok(cert: TangentCertificate) -> bool:
    """The anti-diagonal pivot pattern (m, m-1, ..., 1) of m >= 1 exact
    images, both as claimed and as their first nonzero components.  That
    proves rank m with no elimination: m images whose first nonzero
    components sit at m distinct positions form an echelon system, so they
    are independent in any field."""
    if any(not isinstance(x, GaussianRational) for image in cert.images for x in image):
        raise ValueError("tangent images must be exact")
    m = len(cert.images)
    pattern = tuple(range(m, 0, -1))
    return m > 0 and cert.pivots == pattern and tuple(map(_pivot, cert.images)) == pattern


class VanishingReport(Value):
    """Observed versus mandatory vanishing order of one derivative value."""

    __slots__ = ("eigenvalue", "order", "observed_order", "required_order", "passed")

    def to_json(self) -> dict:
        return {
            "lambda": scalar_to_json(self.eigenvalue),
            "k": self.order,
            "observed_order": self.observed_order,
            "required_order": self.required_order,
            "passed": self.passed,
        }


def linear_curve(B: SquareMatrix, M: SquareMatrix) -> MatrixPolynomial:
    return MatrixPolynomial((B, M))


def _curve_taylor_coeffs(curve: MatrixPolynomial, spec: JordanSpec) -> tuple[int, list]:
    """(w, taylor): taylor[b][k], for k below the multiplicity of block b's
    eigenvalue lam, is the split pair of T_k(2^w), T_k the u^k Taylor
    coefficient c_k(D*Phi - D*lam*I) of det(uI - D*Phi) at u = D*lam, D the
    common denominator of the curve.  curve(0) must be the spec's matrix, so
    each D*lam is read off the cleared rows of D*curve(0), on the diagonal at
    the first row of lam's block group.  One ``charpoly_in_ring`` on
    D*Phi(2^w), then synthetic division over Z[i]; 2^(w-1) > (n L_lam)^n,
    L_lam = L + |D*lam|_1 <= 2L with L the largest entry l1 norm of D*Phi
    (the Kronecker argument in :mod:`symrank.scalars`)."""
    n, terms = curve.n, len(curve.coefficients)
    d, scaled_re, scaled_im = to_gaussian_integers(
        [row for c in curve.coefficients for row in c.entries])
    shifts = [(scaled_re[i][i], scaled_im[i][i])
              for i in accumulate((sum(blk.sizes) for blk in spec.blocks[:-1]), initial=0)]
    # row q*n + i of the split rows is row i of D*M_q, the zeta^q coefficient
    # matrix; norms[i][j] sums the l1 norms of entry (i, j) over q
    norms = [[0] * n for _ in range(n)]
    for r, (row_re, row_im) in enumerate(zip(scaled_re, scaled_im)):
        norms[r % n] = [s + abs(x) + abs(y) for s, x, y in zip(norms[r % n], row_re, row_im)]
    l1 = max(map(max, norms)) + max(abs(x) + abs(y) for x, y in shifts)
    w = ((n * max(l1, 1)) ** n).bit_length() + 1

    def at_x(scaled):
        # Horner in X over the blocks of n rows, top zeta-power first
        out = scaled[(terms - 1) * n:]
        for q in range(terms - 2, -1, -1):
            out = [[(u << w) + x for u, x in zip(top, row)]
                   for top, row in zip(out, scaled[q * n:(q + 1) * n])]
        return out

    (c_re, c_im), _ = charpoly_in_ring(at_x(scaled_re), at_x(scaled_im))
    taylor = []
    for blk, (s_re, s_im) in zip(spec.blocks, shifts):
        # the coefficients c_p(X) top first, p = n, ..., 0
        q_re, q_im, values = c_re[::-1], c_im[::-1], []
        for _ in range(sum(blk.sizes)):
            # divide by u - D*lam: the remainder is the next Taylor
            # coefficient, the quotient (top first) the rest of the series
            x = y = 0
            b_re, b_im = [], []
            for u, v in zip(q_re, q_im):
                x, y = u + x * s_re - y * s_im, v + x * s_im + y * s_re
                b_re.append(x)
                b_im.append(y)
            values.append((b_re.pop(), b_im.pop()))
            q_re, q_im = b_re, b_im
        taylor.append(values)
    return w, taylor


def _lowest_digit(w: int, re: int, im: int) -> int | None:
    """Index of the lowest nonzero base-2^w digit of a packed Gaussian
    integer with digit parts below 2^w in magnitude, None for zero: v2(re |
    im) // w (the valuation argument in :mod:`symrank.scalars`)."""
    x = re | im
    return ((x & -x).bit_length() - 1) // w if x else None


#: (curve, spec, w, taylor) of the last (curve, spec) pair queried, taylor[b]
#: as long as block b's multiplicity.  One curve is queried at every (lam, k)
#: of one spec in turn, so one slot is enough, and matching by identity never
#: hashes their Fractions.  A single tuple, so a reader always sees one pair.
_last_query = (None, None, 1, [])


def curve_through(curve: MatrixPolynomial, spec: JordanSpec) -> MatrixPolynomial:
    """curve, once checked to be exact and to start at spec's Jordan matrix."""
    if curve.coefficients[0].field != EXACT:
        raise ValueError("vanishing orders are computed in the exact field")
    if curve.coefficients[0] != build_jordan(spec):
        raise ValueError("curve base mismatch: curve(0) must equal the spec's matrix")
    return curve


def order_of_vanishing(spec: JordanSpec, curve: MatrixPolynomial, lam, k: int) -> VanishingReport:
    """Vanishing order in the curve parameter of the k-th derivative value.

    The k-th t-derivative of det(tI - Phi) at the eigenvalue lam is
    k! D^(k-n) T_k (see :func:`_curve_taylor_coeffs`), so both have the
    same lowest nonzero power of the curve parameter, read off T_k(2^w) by
    :func:`_lowest_digit` and compared against the mandatory order
    :func:`required_order` of lam's block sizes (None means identically
    zero, which passes every requirement).  The base check, the expansion and
    the Taylor coefficients are computed once per (curve, spec).
    """
    global _last_query
    lam = coerce_scalar(lam, EXACT)
    last_curve, last_spec, w, taylor = _last_query
    if curve is not last_curve or spec is not last_spec:
        curve_through(curve, spec)
        w, taylor = _curve_taylor_coeffs(curve, spec)
        _last_query = (curve, spec, w, taylor)
    for b, blk in enumerate(spec.blocks):
        if blk.eigenvalue is lam or blk.eigenvalue == lam:
            break
    else:
        raise ValueError(f"{lam} is not an eigenvalue of this spec")
    if not 0 <= k < len(taylor[b]):
        raise ValueError(f"order k={k} out of range for multiplicity {len(taylor[b])}")
    observed = _lowest_digit(w, *taylor[b][k])
    required = required_order(blk.sizes, k)
    passed = observed is None or observed >= required
    return VanishingReport(lam, k, observed, required, passed)
