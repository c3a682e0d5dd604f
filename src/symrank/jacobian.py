"""The derivative of the symmetrization map, assembled exactly, and its rank.

For a direction M, the first-order expansion

    det(tI - B - eps*M) = det(tI - B) - eps * tr(adj(tI - B) M) + O(eps^2)

turns the adjugate polynomial into an exact formula for the differential of
every coefficient sigma_k.  Stacking the differentials over the n^2
elementary directions gives an n-by-n^2 matrix whose column (i, j) sits at
index i*n + j (0-based row-major vectorization); its rank is computed
fraction-free over Gaussian integers in the exact field and via SVD
thresholding in the float field.  One reader, :func:`_trace_form_rows`,
turns an adjugate into those rows: the float adjugate of B, and the real and
imaginary parts of the Gaussian-integer adjugate of D*B for both exact
routes, :func:`jacobian_exact` and :func:`_scaled_jacobian`.

Why the rank is deg m_B for every n and over every field: write
adj(tI - B) = sum_k N_k t^(n-k) and det(tI - B) = sum_j c_j t^(n-j),
c_0 = 1.  Row k of the derivative is (-1)^(k+1) vec(N_k^T), and the trace
pairing (X, Y) -> tr(XY) is nondegenerate, so the rank is
dim span{N_1, ..., N_n}.  The Faddeev-LeVerrier identity
N_k = sum_{j<k} c_(k-1-j) B^j is unit triangular in I, B, ..., B^(n-1), so
that span is span{I, B, ..., B^(n-1)}, whose dimension is the degree of the
minimal polynomial m_B.  The exact routes compute the rank rather than
assume it, and the tests check the row identity against plain powers of B.
"""

from __future__ import annotations

from .canonical import JordanSpec, build_jordan, min_poly_degree, random_similarity
from .matpoly import (SquareMatrix, _StoredRows, char_and_adjugate, charpoly_in_ring,
                      symmetrize)
from .scalars import (
    EXACT,
    FLOAT,
    NumericFailure,
    Value,
    exact_quotients,
    scalar_to_json,
    to_gaussian_integers,
    to_gaussian_rationals,
)

COLUMN_ORDER = "direction (i,j) -> column i*n + j, 0-based row-major"


class JacobianMatrix(_StoredRows):
    """n rows (one per sigma_k) by n^2 columns (one per direction).  An exact
    result of :func:`jacobian_exact` keeps its split rows (see
    ``matpoly._StoredRows``), row k over D^(k-1) and the even rows negated,
    and :func:`rank_exact` ranks them."""

    _fields = ("n", "field", "rows")
    _LAZY = "rows"

    @staticmethod
    def _build(denominators, re, im) -> tuple:
        return tuple(to_gaussian_rationals(d, (r,), (i,))[0] for d, r, i in zip(denominators, re, im))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "rows": self.n,
            "cols": self.n * self.n,
            "column_order": COLUMN_ORDER,
            "entries": [[scalar_to_json(x) for x in row] for row in self.rows],
        }


class TheoremReport(Value):
    """Outcome of one rank-equals-minimal-degree check.  ``conjugated_rank``
    is the rank of the derivative at the random conjugate; a failing sweep
    entry reports it, ``to_json`` leaves it out."""

    __slots__ = ("spec", "min_poly_degree", "rank", "theorem_holds", "conjugation_checked",
                 "conjugated_rank")

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "n": self.spec.n,
            "min_poly_degree": self.min_poly_degree,
            "rank": self.rank,
            "theorem_holds": self.theorem_holds,
            "field": EXACT,
            "conjugation_checked": self.conjugation_checked,
        }


def directional_derivative(B: SquareMatrix | JacobianMatrix, M: SquareMatrix) -> tuple:
    """d/deps at 0 of symmetrize(B + eps*M): the derivative matrix at B
    applied to vec(M), for an exact B, or B's :func:`jacobian_exact` result,
    and an exact M; a float matrix or a size mismatch raises ValueError.

    Component k is (-1)^(k+1) times the coefficient of t^(n-k) in
    tr(adj(tI - B) M).  The derivative's split rows (row k over its own
    denominator, D^(k-1) for a :func:`jacobian_exact` result) are summed over
    Z[i] against the nonzero entries of M's split rows, over their common
    denominator E, and component k is divided by its denominator times E
    once.  Passing the Jacobian lets m directions at one B share one
    adjugate.
    """
    if B.field != EXACT or M.field != EXACT:
        raise ValueError("directional derivative requires exact matrices")
    if B.n != M.n:
        raise ValueError(f"size mismatch: {B.n} vs {M.n}")
    n = M.n
    jac = B if isinstance(B, JacobianMatrix) else jacobian_exact(B)
    denominators, rows_re, rows_im = jac._split_rows()
    if isinstance(denominators, int):
        # a Jacobian built from its rows: one common denominator
        denominators = [denominators] * n
    e, m_re, m_im = M._split_rows()
    # entry (i, j) of M meets column i*n + j of the Jacobian
    terms = [(i * n + j, a, b) for i in range(n)
             for j, (a, b) in enumerate(zip(m_re[i], m_im[i])) if a or b]
    out = []
    for d, row_re, row_im in zip(denominators, rows_re, rows_im):
        re = im = 0
        for c, a_c, b_c in terms:
            x, y = row_re[c], row_im[c]
            re += x * a_c - y * b_c
            im += x * b_c + y * a_c
        out.append(to_gaussian_rationals(d * e, ((re,),), ((im,),))[0][0])
    return tuple(out)


def _trace_form_rows(adj) -> list:
    """Rows of the derivative at B read off adj(tI - B) = sum_k N_k t^(n-k)
    by the trace form: adj gives N_1, ..., N_n as lists of rows, and row k
    holds (-1)^(k+1) (N_k)_ji = d sigma_k along E_ij at column i*n + j.  The
    entries are ints (one part of a Gaussian-integer adjugate) or floats, of
    which 0j becomes -0j."""
    rows = []
    for k, m in enumerate(adj, 1):
        row = [x for col in zip(*m) for x in col]
        rows.append(row if k % 2 else [-x for x in row])
    return rows


def jacobian_exact(B: SquareMatrix) -> JacobianMatrix:
    """Matrix of the symmetrization derivative at B over all n^2 directions.

    Column (i, j) equals directional_derivative(B, E_ij); the trace form
    reduces that to reading entry (j, i) of the adjugate polynomial
    (:func:`_trace_form_rows`), so the adjugate is computed once and reused
    for every column.
    """
    _, adj = char_and_adjugate(B)
    if B.field == FLOAT:
        rows = _trace_form_rows(m.entries for m in reversed(adj.coefficients))
        return JacobianMatrix(B.n, FLOAT, tuple(map(tuple, rows)))
    splits = [m._split_rows() for m in reversed(adj.coefficients)]
    return JacobianMatrix._of_split([d for d, _, _ in splits],
                                    _trace_form_rows(re for _, re, _ in splits),
                                    _trace_form_rows(im for _, _, im in splits))


def _scaled_jacobian(B: SquareMatrix) -> tuple[int, list, list]:
    """(D, re, im) over Z[i] for an exact B, D the common denominator of its
    entries and (re, im) split rows: row k is D^(k-1) times row k of
    :func:`jacobian_exact`, read by :func:`_trace_form_rows` from the real and
    the imaginary parts of the adjugate of D*B (see the :mod:`symrank.scalars`
    docstring for why the scaling is sound)."""
    d, re, im = B._split_rows()
    _, adj = charpoly_in_ring(re, im)
    return d, _trace_form_rows(m for m, _ in adj), _trace_form_rows(m for _, m in adj)


def jacobian_fd(B: SquareMatrix, h: float) -> JacobianMatrix:
    """Central-difference oracle (pi(B + h E) - pi(B - h E)) / 2h per column.

    The 2n^2 matrices B +- h E_ij, bit for bit ``B +- basis(i, j).scale(h)``,
    go through one :func:`symmetrize` call as a stack; the differences are
    taken in Python complex arithmetic."""
    import numpy as np

    if B.field != FLOAT:
        raise ValueError("finite differences require a float matrix")
    if not h > 0:
        raise ValueError("step h must be positive")
    n = B.n
    base = B.to_numpy()
    # B + h*E_ij adds 0j to every other entry, which turns a -0.0 part into
    # 0.0; subtracting 0j changes nothing
    stack = np.stack([base + 0j, base] * (n * n))
    direction = np.arange(n * n)
    entries = stack.reshape(n * n, 2, n * n)
    entries[direction, 0, direction] += complex(h)
    entries[direction, 1, direction] -= complex(h)
    points = symmetrize(stack).tolist()
    cols = [tuple((p - m) / (2.0 * h) for p, m in zip(plus, minus))
            for plus, minus in zip(points[0::2], points[1::2])]
    return JacobianMatrix(n, FLOAT, tuple(zip(*cols)))


def rank_exact(A) -> int:
    """Exact rank by fraction-free (Bareiss) elimination with full pivoting.

    The stored split rows of a matrix a kernel made (a :func:`jacobian_exact`
    result), else the rows times the common denominator of all their entries
    (:func:`symrank.scalars.to_gaussian_integers`), are eliminated over
    Gaussian integers (see the :mod:`symrank.scalars` docstring for why that
    is exact).  Entries must be int, Fraction or GaussianRational; a float
    matrix, or a float entry in a plain list of rows, raises ValueError.
    """
    try:
        if isinstance(A, (JacobianMatrix, SquareMatrix)):
            _, rows_re, rows_im = A._split_rows()
        else:
            _, rows_re, rows_im = to_gaussian_integers(A)
    except TypeError:
        raise ValueError("exact rank requires exact entries") from None
    return _bareiss(rows_re, rows_im)[0]


def _bareiss(rows_re: list, rows_im: list) -> tuple:
    """(rank, last pivot, sign) of one fraction-free elimination pass over
    Z[i] on split rows: ``rows_re`` and ``rows_im`` are the int rows of the
    real and imaginary parts, which it copies and does not write to.

    Pivots are the first nonzero entry in a row-major scan of the remaining
    block.  For square independent rows the last pivot, an int pair (re, im),
    times ``sign`` (the parity of the row and column swaps) is their
    determinant.  Without a pivot the last pivot is (1, 0), the determinant
    of the empty matrix.  Each step replaces x by (p x - m z) / q, p the
    pivot, m the row's entry in the pivot column, z the pivot row's entry and
    q the previous pivot.  A unit q (1, -1, i or -i) divides exactly by
    construction and takes no check; every other division is checked, and
    one that leaves a remainder raises ArithmeticError.
    """
    nrows = len(rows_re)
    if not nrows:
        return 0, (1, 0), 1
    rows_re, rows_im = [row[:] for row in rows_re], [row[:] for row in rows_im]
    ncols = len(rows_re[0])
    rank = 0
    sign = 1
    q_re, q_im = 1, 0
    for _ in range(min(nrows, ncols)):
        pivot = None
        for i in range(rank, nrows):
            row_re, row_im = rows_re[i], rows_im[i]
            for j in range(rank, ncols):
                if row_re[j] or row_im[j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            rows_re[rank], rows_re[pi] = rows_re[pi], rows_re[rank]
            rows_im[rank], rows_im[pi] = rows_im[pi], rows_im[rank]
            sign = -sign
        if pj != rank:
            for row in rows_re:
                row[rank], row[pj] = row[pj], row[rank]
            for row in rows_im:
                row[rank], row[pj] = row[pj], row[rank]
            sign = -sign
        top_re, top_im = rows_re[rank], rows_im[rank]
        p_re, p_im = top_re[rank], top_im[rank]
        z_re, z_im = top_re[rank + 1:], top_im[rank + 1:]
        for i in range(rank + 1, nrows):
            row_re, row_im = rows_re[i], rows_im[i]
            m_re, m_im = row_re[rank], row_im[rank]
            x_re, x_im = row_re[rank + 1:], row_im[rank + 1:]
            num_re = [p_re * xr - p_im * xi - m_re * zr + m_im * zi
                      for xr, xi, zr, zi in zip(x_re, x_im, z_re, z_im)]
            num_im = [p_re * xi + p_im * xr - m_re * zi - m_im * zr
                      for xr, xi, zr, zi in zip(x_re, x_im, z_re, z_im)]
            if rank:
                num_re, num_im = exact_quotients(num_re, num_im, q_re, q_im)
            row_re[rank + 1:] = num_re
            row_im[rank + 1:] = num_im
        q_re, q_im = p_re, p_im
        rank += 1
    return rank, (q_re, q_im), sign


class RankProfile(Value):
    """Numeric rank with the threshold and its distance to the spectrum."""

    __slots__ = ("rank", "threshold", "singular_values", "gap")


def numeric_rank_profile(A, tol: float | None = None) -> RankProfile:
    """Numeric rank of A: the count of singular values above tol (default:
    max-dim * eps * sigma_max)."""
    import numpy as np

    if isinstance(A, (JacobianMatrix, SquareMatrix)):
        arr = A.to_numpy()
    else:
        arr = np.asarray(A, dtype=complex)
    try:
        sv = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD failed to converge: {exc}") from exc
    largest = float(sv[0]) if sv.size else 0.0
    threshold = tol if tol is not None else max(arr.shape) * np.finfo(float).eps * largest
    rank = int(np.count_nonzero(sv > threshold))
    gap = float(np.min(np.abs(sv - threshold))) if sv.size else None
    return RankProfile(rank, float(threshold), tuple(float(s) for s in sv), gap)


def verify_theorem(spec: JordanSpec, seed: int = 0) -> TheoremReport:
    """Check rank(derivative at B) == minimal polynomial degree, exactly.

    Builds B from the spec, computes the exact rank of the exact derivative
    matrix, and re-checks the rank after one random unimodular conjugation.
    Both ranks are taken on the row-scaled Gaussian-integer derivative.
    """
    B = build_jordan(spec)
    rank = _bareiss(*_scaled_jacobian(B)[1:])[0]
    m = min_poly_degree(spec)
    conjugated = random_similarity(B, seed)
    rank_conj = _bareiss(*_scaled_jacobian(conjugated)[1:])[0]
    return TheoremReport(spec, m, rank, rank == m, rank_conj == rank, rank_conj)
