"""The derivative of the symmetrization map, assembled exactly, and its rank.

For a direction M, the first-order expansion

    det(tI - B - eps*M) = det(tI - B) - eps * tr(adj(tI - B) M) + O(eps^2)

turns the adjugate polynomial into an exact formula for the differential of
every coefficient sigma_k.  Stacking the differentials over the n^2
elementary directions gives an n-by-n^2 matrix whose column (i, j) sits at
index i*n + j (0-based row-major vectorization); its rank is computed
fraction-free over Gaussian integers in the exact field and via SVD
thresholding in the float field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .canonical import JordanSpec, build_jordan, min_poly_degree, random_similarity
from .matpoly import SquareMatrix, char_and_adjugate, symmetrize
from .scalars import (
    EXACT,
    FLOAT,
    GQ_ONE,
    GQ_ZERO,
    NumericFailure,
    field_zero,
    to_complex,
    to_gaussian_integers,
    to_gaussian_rationals,
)

COLUMN_ORDER = "direction (i,j) -> column i*n + j, 0-based row-major"


@dataclass(frozen=True)
class JacobianMatrix:
    """n rows (one per sigma_k) by n^2 columns (one per direction)."""

    n: int
    field: str
    rows: tuple

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.rows)

    def column_index(self, i: int, j: int) -> int:
        return i * self.n + j

    def to_numpy(self) -> np.ndarray:
        if self.field == FLOAT:
            return np.array(self.rows, dtype=complex)
        return np.array([[to_complex(x) for x in row] for row in self.rows], dtype=complex)

    def to_json(self) -> dict:
        from .scalars import scalar_to_json
        return {
            "n": self.n,
            "field": self.field,
            "rows": self.n,
            "cols": self.n * self.n,
            "column_order": COLUMN_ORDER,
            "entries": [[scalar_to_json(x) for x in row] for row in self.rows],
        }


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one rank-equals-minimal-degree check."""

    spec: JordanSpec
    n: int
    min_poly_degree: int
    rank: int
    theorem_holds: bool
    field: str
    conjugation_checked: bool

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "n": self.n,
            "min_poly_degree": self.min_poly_degree,
            "rank": self.rank,
            "theorem_holds": self.theorem_holds,
            "field": self.field,
            "conjugation_checked": self.conjugation_checked,
        }


def directional_derivative(B: SquareMatrix, M: SquareMatrix) -> tuple:
    """d/deps at 0 of symmetrize(B + eps*M), computed from the adjugate.

    Component k is (-1)^(k+1) times the coefficient of t^(n-k) in
    tr(adj(tI - B) M).
    """
    B._check_compatible(M)
    n = M.n
    _, adj = char_and_adjugate(B)
    zero = field_zero(M.field)
    out = []
    for k in range(1, n + 1):
        grads = _adjugate_gradients(adj, k)
        tau = zero
        for j in range(n):
            for i in range(n):
                y = M.entries[i][j]
                if y:
                    x = grads[i][j]
                    if x:
                        tau = tau + x * y
        out.append(tau if k % 2 == 1 else -tau)
    return tuple(out)


def _adjugate_gradients(adj, k: int) -> tuple:
    """Entry [i][j] is entry (j, i) of the t^(n-k) coefficient of adj(tI - B):
    by the trace form, (-1)^(k+1) d sigma_k along E_ij.  adj(tI - B) has
    degree n - 1 (its leading coefficient is I), so every k in 1..n has a
    stored coefficient."""
    return tuple(zip(*adj.coefficients[adj.n - k].entries))


def jacobian_exact(B: SquareMatrix) -> JacobianMatrix:
    """Matrix of the symmetrization derivative at B over all n^2 directions.

    Column (i, j) equals directional_derivative(B, E_ij); the trace form
    reduces that to reading entry (j, i) of the adjugate polynomial, so the
    adjugate is computed once and reused for every column.
    """
    n = B.n
    _, adj = char_and_adjugate(B)
    # an exact zero is its own negative, so it is kept; a float 0j negates to
    # -0j, which `symrank jacobian` prints as -0.0
    floats = B.field == FLOAT
    rows = []
    for k in range(1, n + 1):
        row = tuple(itertools.chain.from_iterable(_adjugate_gradients(adj, k)))
        if k % 2 == 0:
            row = tuple(-tau if tau or floats else tau for tau in row)
        rows.append(row)
    return JacobianMatrix(n, B.field, tuple(rows))


def jacobian_fd(B: SquareMatrix, h: float) -> JacobianMatrix:
    """Central-difference oracle (pi(B + h E) - pi(B - h E)) / 2h per column."""
    if B.field != FLOAT:
        raise ValueError("finite differences require a float matrix")
    if not h > 0:
        raise ValueError("step h must be positive")
    n = B.n
    step = complex(h)
    # B + h*E_ij adds 0j to every other entry, which turns a -0.0 part into
    # 0.0; subtracting 0j changes nothing
    plus_rows = tuple(tuple(x + 0j for x in row) for row in B.entries)
    cols = []
    for i in range(n):
        for j in range(n):
            plus = symmetrize(_replace_entry(plus_rows, i, j, plus_rows[i][j] + step))
            minus = symmetrize(_replace_entry(B.entries, i, j, B.entries[i][j] - step))
            cols.append(tuple((p - m) / (2.0 * h) for p, m in zip(plus, minus)))
    rows = tuple(tuple(col[k] for col in cols) for k in range(n))
    return JacobianMatrix(n, FLOAT, rows)


def _replace_entry(rows: tuple, i: int, j: int, value) -> SquareMatrix:
    row = list(rows[i])
    row[j] = value
    return SquareMatrix(len(rows), FLOAT, rows[:i] + (tuple(row),) + rows[i + 1:])


def rank_exact(A) -> int:
    """Exact rank by fraction-free (Bareiss) elimination with full pivoting.

    Each row is scaled by the lcm of its denominators and eliminated over
    Gaussian integers (see :class:`symrank.scalars.GaussianInteger` for why
    that is exact).  Entries must be int, Fraction or GaussianRational; a
    float matrix, or a float entry in a plain list of rows, raises ValueError.
    """
    if isinstance(A, JacobianMatrix):
        rows = A.rows
    elif isinstance(A, SquareMatrix):
        rows = A.entries
    else:
        rows = A
    return _eliminate(rows)[0]


def _eliminate(rows) -> tuple:
    """(rank, determinant) of exact rows by one Bareiss pass over Z[i].

    The determinant is that of the rows as given (zero unless they are square
    and independent): the last pivot of the scaled rows, divided by the row
    scales and signed by the row and column swaps.
    """
    work, scale = [], 1
    try:
        for row in rows:
            d, (scaled,) = to_gaussian_integers([row])
            work.append(scaled)
            scale *= d
    except TypeError:
        raise ValueError("exact rank requires exact entries") from None
    if not work:
        return 0, GQ_ONE
    nrows = len(work)
    ncols = len(work[0])
    rank = 0
    sign = 1
    prev = None
    for _ in range(min(nrows, ncols)):
        pivot = None
        for i in range(rank, nrows):
            for j in range(rank, ncols):
                if work[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            work[rank], work[pi] = work[pi], work[rank]
            sign = -sign
        if pj != rank:
            for row in work:
                row[rank], row[pj] = row[pj], row[rank]
            sign = -sign
        p = work[rank][rank]
        pivot_row = work[rank]
        for i in range(rank + 1, nrows):
            row = work[i]
            multiplier = row[rank]
            for j in range(rank + 1, ncols):
                x = row[j]
                z = pivot_row[j]
                if multiplier and z:
                    num = (p * x - multiplier * z) if x else -(multiplier * z)
                elif x:
                    num = p * x
                else:
                    continue
                row[j] = num / prev if (prev is not None and num) else num
        prev = p
        rank += 1
    if rank < nrows or rank < ncols:
        return rank, GQ_ZERO
    ((det,),) = to_gaussian_rationals(scale, [[prev * sign]])
    return rank, det


@dataclass(frozen=True)
class RankProfile:
    """Numeric rank with the threshold and its distance to the spectrum."""

    rank: int
    threshold: float
    singular_values: tuple
    gap: float | None


def numeric_rank_profile(A, tol: float | None = None) -> RankProfile:
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


def rank_numeric(A, tol: float | None = None) -> int:
    """Count of singular values above tol (default: max-dim * eps * sigma_max)."""
    return numeric_rank_profile(A, tol).rank


def verify_theorem(spec: JordanSpec, seed: int = 0) -> TheoremReport:
    """Check rank(derivative at B) == minimal polynomial degree, exactly.

    Builds B from the spec, computes the exact rank of the exact derivative
    matrix, and re-checks the rank after one random unimodular conjugation.
    """
    B = build_jordan(spec)
    rank = rank_exact(jacobian_exact(B))
    m = min_poly_degree(spec)
    conjugated = random_similarity(B, seed)
    rank_conj = rank_exact(jacobian_exact(conjugated))
    return TheoremReport(
        spec=spec,
        n=spec.n,
        min_poly_degree=m,
        rank=rank,
        theorem_holds=(rank == m),
        field=EXACT,
        conjugation_checked=(rank_conj == rank),
    )
