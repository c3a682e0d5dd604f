"""Exact derivative assembly, finite-difference oracles, and rank."""

import cmath
import copy
import itertools
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from symrank import jacobian
from symrank.canonical import JordanSpec, build_jordan, random_similarity
from symrank.cli import DEFAULT_POOL, enumerate_jordan_specs
from symrank.jacobian import (
    JacobianMatrix,
    _bareiss,
    _scaled_jacobian,
    directional_derivative,
    jacobian_exact,
    jacobian_fd,
    numeric_rank_profile,
    rank_exact,
    verify_theorem,
)
from symrank.matpoly import (
    MatrixPolynomial,
    Polynomial,
    SquareMatrix,
    char_and_adjugate,
    charpoly_in_ring,
    symmetrize,
)
from symrank.scalars import (
    EXACT,
    FLOAT,
    GQ_ONE,
    GQ_ZERO,
    NumericFailure,
    coerce_scalar,
    field_zero,
    gq,
    random_gaussian_rational,
    to_gaussian_integers,
    to_gaussian_rationals,
)
from tests.test_canonical import gauss_jordan_rank_det, reference_random_similarity
from tests.test_matpoly import (
    OVERFLOW_ROWS,
    float_cases,
    laplace_det,
    random_exact_matrix,
    reference_charpoly,
)


def directional_oracle(B, M):
    """Expand det(tI - B - eps*M) symbolically and read the eps-linear part.

    Entries become polynomials in eps; each characteristic coefficient then
    is a polynomial in eps whose linear coefficient gives the differential of
    the corresponding sigma.  Completely bypasses the adjugate route.
    """
    n = B.n
    entries = [
        [Polynomial((B.entries[i][j], M.entries[i][j])) for j in range(n)]
        for i in range(n)
    ]
    coeffs, _ = reference_charpoly(entries, Polynomial.zero(), Polynomial.one())
    out = []
    for k in range(1, n + 1):
        # sigma_k = (-1)^k * coefficient of t^(n-k); take its eps-linear part
        linear = coeffs[n - k].coefficient(1)
        out.append(linear if k % 2 == 0 else -linear)
    return tuple(out)


def test_directional_derivative_at_zero():
    B = SquareMatrix.zeros(2)
    M = SquareMatrix.from_rows([[3, 1], [2, 7]])
    assert directional_derivative(B, M) == (gq(10), gq(0))


def test_directional_derivative_jordan_block_direction():
    B = build_jordan(JordanSpec.of({0: [2]}))
    E21 = SquareMatrix.basis(2, 1, 0)
    assert directional_derivative(B, E21) == (gq(0), gq(-1))
    assert directional_oracle(B, E21) == (gq(0), gq(-1))


def test_directional_derivative_matches_symbolic_oracle():
    rng = random.Random(50)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            B = random_exact_matrix(rng, n)
            M = random_exact_matrix(rng, n)
            assert directional_derivative(B, M) == directional_oracle(B, M)


def test_directional_derivative_linear():
    rng = random.Random(51)
    B = random_exact_matrix(rng, 3)
    M1 = random_exact_matrix(rng, 3)
    M2 = random_exact_matrix(rng, 3)
    alpha = random_gaussian_rational(rng)
    combined = directional_derivative(B, M1.scale(alpha) + M2)
    split = tuple(
        alpha * a + b
        for a, b in zip(directional_derivative(B, M1), directional_derivative(B, M2))
    )
    assert combined == split


def test_directional_derivative_mismatch_errors():
    with pytest.raises(ValueError):
        directional_derivative(SquareMatrix.zeros(2), SquareMatrix.zeros(3))
    with pytest.raises(ValueError):
        directional_derivative(SquareMatrix.zeros(2), SquareMatrix.zeros(2, FLOAT))
    with pytest.raises(ValueError, match="exact"):
        directional_derivative(SquareMatrix.zeros(2, FLOAT), SquareMatrix.zeros(2, FLOAT))


def test_jacobian_exact_at_zero_2x2():
    jac = jacobian_exact(SquareMatrix.zeros(2))
    assert jac.rows[0] == (gq(1), gq(0), gq(0), gq(1))
    assert jac.rows[1] == (gq(0), gq(0), gq(0), gq(0))


def test_jacobian_rows_are_the_lemma_matrices_on_the_default_pool():
    # the every-n lemma of the jacobian module docstring: row k of the
    # derivative at B is (-1)^(k+1) vec(N_k^T), N_k = sum_{j<k} c_(k-1-j) B^j,
    # with c read off the spec's chi = prod (t - lam)^mult and B^j from plain
    # products, at a random conjugate of every default-pool spec with n <= 5
    checked = 0
    for n in range(1, 6):
        for seed, spec in enumerate(enumerate_jordan_specs(n, DEFAULT_POOL)):
            chi = Polynomial.one()
            for blk in spec.blocks:
                chi = chi * Polynomial.make([-blk.eigenvalue, 1]) ** sum(blk.sizes)
            # c[j] is the coefficient of t^(n-j)
            c = chi.coefficients[::-1]
            B = random_similarity(build_jordan(spec), seed)
            powers = [SquareMatrix.identity(n)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ B)
            rows = jacobian_exact(B).rows
            for k in range(1, n + 1):
                N = SquareMatrix.zeros(n)
                for j in range(k):
                    N = N + powers[j].scale(c[k - 1 - j])
                vec_t = tuple(x for col in zip(*N.entries) for x in col)
                assert rows[k - 1] == (vec_t if k % 2 else tuple(-x for x in vec_t)), (spec, k)
            checked += 1
    assert checked == 786


def test_jacobian_columns_are_directional_derivatives():
    rng = random.Random(52)
    B = random_exact_matrix(rng, 3)
    jac = jacobian_exact(B)
    for i in range(3):
        for j in range(3):
            col = tuple(row[i * 3 + j] for row in jac.rows)
            assert col == directional_derivative(B, SquareMatrix.basis(3, i, j))


def test_jacobian_rank_jordan_block_with_numeric_oracle():
    B = build_jordan(JordanSpec.of({0: [2]}))
    assert rank_exact(jacobian_exact(B)) == 2
    fd = jacobian_fd(B.to_float(), 1e-5)
    assert numeric_rank_profile(fd, tol=1e-6).rank == 2


def test_jacobian_rank_scalar_matrix():
    B = SquareMatrix.identity(4).scale(gq(3, 1))
    assert rank_exact(jacobian_exact(B)) == 1


def test_jacobian_fd_zero_matrix_error_bound():
    fd = jacobian_fd(SquareMatrix.zeros(2).to_float(), 1e-5)
    assert all(abs(x) <= 1e-9 for x in fd.rows[1])


def test_jacobian_fd_agreement():
    rng = random.Random(60)
    for n in (2, 4, 6):
        B = SquareMatrix.from_rows(
            [[complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(n)]
             for _ in range(n)],
            field=FLOAT,
        )
        exact = jacobian_exact(B)
        fd = jacobian_fd(B, 1e-5)
        for re, rf in zip(exact.rows, fd.rows):
            for a, b in zip(re, rf):
                assert cmath.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)


def directional_fd(B, M, h):
    """Central difference of the symmetrization along a full direction M.

    Along a single-entry direction every coefficient is affine in h (the
    direction has rank one), so the truncation term only shows up along
    dense directions; this is the probe for the second-order ratio test.
    """
    plus = symmetrize(B + M.scale(complex(h)))
    minus = symmetrize(B - M.scale(complex(h)))
    return tuple((p - q) / (2.0 * h) for p, q in zip(plus, minus))


def test_jacobian_fd_richardson_ratio():
    # halving h quarters the truncation error where the h^2 term dominates
    rng = random.Random(61)
    n = 5
    def rand_float(scale):
        return SquareMatrix.from_rows(
            [[complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
              for _ in range(n)] for _ in range(n)],
            field=FLOAT,
        )
    B = rand_float(0.9)
    M = rand_float(1.0)
    # column i*n + j of the derivative is entry (i, j) of M
    exact = jacobian_exact(B).to_numpy() @ M.to_numpy().ravel()
    coarse = directional_fd(B, M, 1e-3)
    fine = directional_fd(B, M, 5e-4)
    sampled = 0
    for k in range(n):
        e1 = abs(coarse[k] - exact[k])
        e2 = abs(fine[k] - exact[k])
        if e1 > 1e-8:
            sampled += 1
            assert 3.2 < e1 / e2 < 4.8
    assert sampled >= 2


def basis_step_fd(B, h, symmetrize=symmetrize):
    """jacobian_fd with its steps built as B +- basis(i, j).scale(h)."""
    n = B.n
    cols = []
    for i in range(n):
        for j in range(n):
            step = SquareMatrix.basis(n, i, j, FLOAT).scale(complex(h))
            plus = symmetrize(B + step)
            minus = symmetrize(B - step)
            cols.append(tuple((p - m) / (2.0 * h) for p, m in zip(plus, minus)))
    return JacobianMatrix(n, FLOAT, tuple(tuple(col[k] for col in cols) for k in range(n)))


def test_jacobian_fd_bit_identical_to_basis_steps(monkeypatch):
    # the stacked perturbed matrices are the matrices B +- basis(i, j).scale(h),
    # in the same order and entry by entry, signed zeros included, so the
    # oracle stays the literal central difference of pi
    import symrank.jacobian as jacobian_module

    for B in float_cases():
        for h in (1e-5, 0.25):
            recorded, stacks = [], []

            def record_matrix(M):
                recorded.append(M.entries)
                return symmetrize(M)

            def record_stack(a):
                stacks.append(a.copy())
                return symmetrize(a)

            expected = basis_step_fd(B, h, record_matrix)
            monkeypatch.setattr(jacobian_module, "symmetrize", record_stack)
            assert repr(jacobian_fd(B, h)) == repr(expected)
            monkeypatch.undo()
            (stack,) = stacks
            assert stack.shape == (len(recorded), B.n, B.n)
            for a, entries in zip(stack.tolist(), recorded):
                for row, expected_row in zip(a, entries):
                    assert [repr(x) for x in row] == [repr(x) for x in expected_row]


@pytest.mark.parametrize("rows", OVERFLOW_ROWS)
def test_jacobian_fd_overflow_raises(rows):
    with pytest.raises(NumericFailure):
        jacobian_fd(SquareMatrix.from_rows(rows, FLOAT), 1e-5)


def test_jacobian_fd_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobian_fd(SquareMatrix.zeros(2), 1e-5)
    with pytest.raises(ValueError):
        jacobian_fd(SquareMatrix.zeros(2).to_float(), 0.0)


def test_rank_exact_trivial_cases():
    assert rank_exact(SquareMatrix.zeros(3)) == 0
    assert rank_exact(SquareMatrix.identity(5)) == 5


def test_rank_exact_outer_product():
    rng = random.Random(70)
    u = [random_gaussian_rational(rng) for _ in range(4)]
    v = [random_gaussian_rational(rng) for _ in range(4)]
    u[0], v[0] = gq(1), gq(1)
    rows = [[a * b for b in v] for a in u]
    assert rank_exact(rows) == 1


def test_rank_exact_matches_gauss_oracle():
    rng = random.Random(71)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 7)
        rows = [[random_gaussian_rational(rng, 2) if rng.random() < 0.6 else gq(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        assert rank_exact(rows) == gauss_jordan_rank_det(rows)[0]


def test_rank_exact_rejects_float():
    with pytest.raises(ValueError):
        rank_exact(SquareMatrix.identity(2, FLOAT))
    # rank 1 in exact arithmetic; float elimination would report 2
    with pytest.raises(ValueError, match="exact rank requires exact entries"):
        rank_exact([[0.1, 0.3], [0.30000000000000004, 0.8999999999999999]])


def test_rank_exact_accepts_int_and_fraction_entries():
    assert rank_exact([[1, Fraction(1, 2)], [2, 1]]) == 1
    assert rank_exact([[1, Fraction(1, 2)], [gq(0, 1), 3]]) == 2


def test_rank_exact_matches_gauss_oracle_mixed_row_denominators():
    # rows with unrelated denominators share one scale: 3 * 2^70 for the
    # first five cases, whose rows have denominators 2, 3 and 2^70
    tiny = Fraction(1, 2 ** 70)
    u = [gq("1/2"), gq(0, "1/2"), gq(1, "-1/2")]
    v = [gq("1/3", 2), gq(0), gq("-2/3", "1/3")]
    cases = [
        [u, v, [x * tiny for x in (gq(1), gq(2, 1), gq(-3))]],
        [u, v, [(a + b * gq(0, 5)) * tiny for a, b in zip(u, v)]],
        [u, [x * gq(-6) for x in u], [x * tiny for x in u]],
        [[tiny, Fraction(1, 3)], [Fraction(1, 2), gq(0, "1/3")]],
        [[Fraction(1, 2), 1], [2, Fraction(4, 1)]],
    ]
    rng = random.Random(72)
    for trial in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(nrows):
            den = rng.randint(1, 9)
            rows.append([gq(Fraction(rng.randint(-6, 6), den),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 9)))
                         if rng.random() < 0.6 else gq(0) for _ in range(ncols)])
        if nrows > 2 and trial % 2:
            rows[-1] = [a * gq("3/7", 1) + b * gq("-5/2") for a, b in zip(rows[0], rows[1])]
        cases.append(rows)
    for rows in cases:
        want, _ = gauss_jordan_rank_det([[coerce_scalar(x, EXACT) for x in row] for row in rows])
        assert rank_exact(rows) == want
        if len(rows) == len(rows[0]):
            assert rank_exact(SquareMatrix.from_rows(rows, EXACT)) == want
    assert [rank_exact(rows) for rows in cases[:5]] == [3, 2, 1, 2, 1]


def reference_rank_exact(rows) -> int:
    """The former route: one to_gaussian_integers([row]) per row, then Bareiss."""
    rows_re, rows_im = [], []
    try:
        for row in rows:
            _, (row_re,), (row_im,) = to_gaussian_integers([row])
            rows_re.append(row_re)
            rows_im.append(row_im)
    except TypeError:
        raise ValueError("exact rank requires exact entries") from None
    return _bareiss(rows_re, rows_im)[0]


def test_rank_exact_matches_per_row_route_and_gauss_oracle():
    rng = random.Random(73)
    cases = [[], [[]], [[0, GQ_ZERO, Fraction(0)]], [[GQ_ZERO] * 3, [1, Fraction(1, 2), gq(0, 1)]]]
    for trial in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            den = rng.randint(1, 9)
            if rng.randrange(4) == 0:
                rows.append([GQ_ZERO] * ncols)
                continue
            rows.append([rng.choice([
                rng.randint(-40, 40),
                Fraction(rng.randint(-9, 9), den),
                gq(Fraction(rng.randint(-40, 40), den), Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
                gq(rng.randint(-40, 40), rng.randint(-40, 40)),
                GQ_ZERO,
            ]) for _ in range(ncols)])
        if nrows > 2 and trial % 3 == 0:
            # a dependent row with its own denominators
            rows[-1] = [coerce_scalar(a, EXACT) * gq("3/7", 1) + coerce_scalar(b, EXACT) * gq("-5/2")
                        for a, b in zip(rows[0], rows[1])]
        cases.append(rows)
    for rows in cases:
        oracle, _ = gauss_jordan_rank_det([[coerce_scalar(x, EXACT) for x in row] for row in rows])
        assert rank_exact(rows) == reference_rank_exact(rows) == oracle
    square = SquareMatrix.from_rows([[1, 2], [2, 4]], EXACT)
    jac = jacobian_exact(build_jordan(JordanSpec.of({0: [1, 2]})))
    assert rank_exact(square) == reference_rank_exact(square.entries) == 1
    assert rank_exact(jac) == reference_rank_exact(jac.rows) == 2
    with pytest.raises(ValueError, match="exact rank requires exact entries"):
        rank_exact([[1, Fraction(1, 2)], [gq(1), 0.5]])


def reference_eliminate(rows) -> tuple:
    """The former ``jacobian._eliminate``: (rank, determinant) of exact rows,
    each row scaled by its own denominator, by one ``_bareiss`` pass; the
    determinant is the last pivot, signed, divided by the row scales."""
    work_re, work_im, scale = [], [], 1
    for row in rows:
        d, (row_re,), (row_im,) = to_gaussian_integers([row])
        work_re.append(row_re)
        work_im.append(row_im)
        scale *= d
    if not work_re:
        return 0, GQ_ONE
    nrows, ncols = len(work_re), len(work_re[0])
    rank, (p_re, p_im), sign = _bareiss(work_re, work_im)
    if rank < nrows or rank < ncols:
        return rank, GQ_ZERO
    ((det,),) = to_gaussian_rationals(scale, [[p_re * sign]], [[p_im * sign]])
    return rank, det


def test_eliminate_determinant_matches_cofactor_oracle():
    rng = random.Random(91)
    for trial in range(60):
        n = rng.randint(1, 5)
        rows = [[random_gaussian_rational(rng, 5) if rng.random() < 0.6 else gq(0)
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 == 0:
            rows[-1] = [gq(2) * x for x in rows[0]]
        rank, det = reference_eliminate(rows)
        assert det == laplace_det(rows)
        assert rank == gauss_jordan_rank_det(rows)[0]


def test_rank_numeric_identity():
    assert numeric_rank_profile(SquareMatrix.identity(3, FLOAT)).rank == 3


def test_rank_numeric_below_threshold():
    M = SquareMatrix.from_rows([[1.0, 0.0], [0.0, 1e-18]], field=FLOAT)
    assert numeric_rank_profile(M).rank == 1


def test_rank_numeric_explicit_tolerance():
    M = SquareMatrix.from_rows([[1.0, 0.0], [0.0, 1e-3]], field=FLOAT)
    assert numeric_rank_profile(M).rank == 2
    assert numeric_rank_profile(M, tol=1e-2).rank == 1


def test_numeric_rank_profile_reports_gap():
    M = SquareMatrix.from_rows([[1.0, 0.0], [0.0, 1e-3]], field=FLOAT)
    profile = numeric_rank_profile(M)
    assert profile.rank == 2
    assert profile.singular_values == (1.0, pytest.approx(1e-3))
    assert profile.gap == pytest.approx(1e-3, rel=1e-6)


def test_rank_cross_field_oracle():
    # dyadic entries are exactly representable, so both routes see one matrix
    rng = random.Random(72)
    for n in (2, 3, 4, 5, 6):
        rows = [[gq(rng.randint(-8, 8)) / 8 for _ in range(n)] for _ in range(n)]
        B = SquareMatrix.from_rows(rows, EXACT)
        exact_rank = rank_exact(jacobian_exact(B))
        fd = jacobian_fd(B.to_float(), 1e-5)
        assert numeric_rank_profile(fd, tol=1e-6).rank == exact_rank


def test_verify_theorem_zero_matrix():
    report = verify_theorem(JordanSpec.of({0: [1, 1, 1]}))
    assert report.min_poly_degree == 1
    assert report.rank == 1
    assert report.theorem_holds
    assert report.conjugation_checked


def test_verify_theorem_single_big_block_with_float_oracle():
    spec = JordanSpec.of({1: [4]})
    report = verify_theorem(spec)
    assert report.rank == report.min_poly_degree == 4
    B = build_jordan(spec).to_float()
    assert numeric_rank_profile(jacobian_fd(B, 1e-5), tol=1e-6).rank == 4


def test_verify_theorem_explicit_3x9_jacobian():
    spec = JordanSpec.of({0: [1, 2]})
    report = verify_theorem(spec)
    assert report.min_poly_degree == 2 and report.rank == 2 and report.theorem_holds
    # enumerate the 3x9 derivative matrix column by column, then rank it
    B = build_jordan(spec)
    cols = []
    for i in range(3):
        for j in range(3):
            cols.append(directional_derivative(B, SquareMatrix.basis(3, i, j)))
    rows = [[col[k] for col in cols] for k in range(3)]
    assert rank_exact(rows) == 2


def test_verify_theorem_report_json():
    report = verify_theorem(JordanSpec.of({0: [1, 1]}))
    obj = report.to_json()
    assert obj["theorem_holds"] is True
    assert obj["min_poly_degree"] == 1
    assert obj["rank"] == 1
    assert obj["field"] == "exact"
    assert obj["conjugation_checked"] is True
    assert obj["spec"]["n"] == 2


def test_rank_bounds():
    rng = random.Random(73)
    for n in (1, 2, 3, 4):
        B = random_exact_matrix(rng, n)
        r = rank_exact(jacobian_exact(B))
        assert 1 <= r <= n


def test_similarity_invariance_of_rank():
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    B = build_jordan(spec)
    base = rank_exact(jacobian_exact(B))
    for seed in range(6):
        C = random_similarity(B, seed)
        assert rank_exact(jacobian_exact(C)) == base


# ---------------------------------------------------------------------------
# the Gaussian-integer derivative against the Gaussian-rational routes


def reference_directional_derivative(B, M):
    """The former route: its own adjugate per call, then the trace form."""
    B._check_compatible(M)
    n = M.n
    _, adj = char_and_adjugate(B)
    zero = field_zero(M.field)
    out = []
    for k in range(1, n + 1):
        grads = tuple(zip(*adj.coefficients[n - k].entries))
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


def reference_jacobian_exact(B):
    """The former reader: the transposed t^(n-k) coefficient of the adjugate,
    chained into row k, and every nonzero entry of an even row negated (a
    float zero too)."""
    n = B.n
    _, adj = char_and_adjugate(B)
    floats = B.field == FLOAT
    rows = []
    for k in range(1, n + 1):
        row = tuple(itertools.chain.from_iterable(zip(*adj.coefficients[n - k].entries)))
        if k % 2 == 0:
            row = tuple(-tau if tau or floats else tau for tau in row)
        rows.append(row)
    return JacobianMatrix(n, B.field, tuple(rows))


def test_jacobian_exact_matches_former_reader():
    # negating an exact zero too leaves an equal zero that prints alike
    rng = random.Random(840)
    exact = []
    for n in range(1, 7):
        specs = list(enumerate_jordan_specs(n, DEFAULT_POOL))
        for spec in specs if n <= 2 else rng.sample(specs, 6):
            exact.append(build_jordan(spec))
        exact.extend(_oracle_matrices(n, rng))
    cases = exact + [B.to_float() for B in exact] + float_cases()
    for B in cases:
        got, want = jacobian_exact(B), reference_jacobian_exact(B)
        assert got == want
        assert repr(got) == repr(want)
        assert got.to_json() == want.to_json()


def _oracle_matrices(n, rng):
    """A Jordan matrix with a rational eigenvalue, a conjugate of it and a
    random Gaussian-rational matrix of size n."""
    spec = JordanSpec.of({gq("1/2", "-2/3"): [n]})
    B = build_jordan(spec)
    return [B, random_similarity(B, n), random_exact_matrix(rng, n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_scaled_jacobian_unscales_to_jacobian_exact(n):
    rng = random.Random(800 + n)
    specs = list(enumerate_jordan_specs(n, DEFAULT_POOL))
    mats = _oracle_matrices(n, rng) + [build_jordan(rng.choice(specs))]
    for B in mats:
        d, rows_re, rows_im = _scaled_jacobian(B)
        unscaled = tuple(to_gaussian_rationals(d ** k, [row_re], [row_im])[0]
                         for k, (row_re, row_im) in enumerate(zip(rows_re, rows_im)))
        assert unscaled == jacobian_exact(B).rows
    # the rational Jordan matrix is really scaled: D = lcm(2, 3)
    assert _scaled_jacobian(mats[0])[0] == 6


def test_bareiss_rank_of_scaled_jacobian_matches_rank_exact():
    rng = random.Random(810)
    for n in range(1, 6):
        for B in _oracle_matrices(n, rng):
            assert _bareiss(*_scaled_jacobian(B)[1:])[0] == rank_exact(jacobian_exact(B))


def test_directional_derivative_matches_per_adjugate_route():
    rng = random.Random(820)
    for n in range(1, 6):
        for B in _oracle_matrices(n, rng):
            for M in (random_exact_matrix(rng, n), SquareMatrix.basis(n, n - 1, 0)):
                assert directional_derivative(B, M) == reference_directional_derivative(B, M)


def test_trace_form_rows_keeps_the_exact_zero_and_signs_the_float_one():
    exact = jacobian._trace_form_rows([((gq(1), GQ_ZERO), (gq(0, 2), gq(3)))] * 2)
    assert exact[0] == [gq(1), gq(0, 2), GQ_ZERO, gq(3)]
    assert exact[1] == [gq(-1), gq(0, -2), GQ_ZERO, gq(-3)]
    assert exact[1][2] is GQ_ZERO
    floats = jacobian._trace_form_rows([((1 + 0j, 0j), (2j, 0j))] * 2)
    assert repr(floats[0]) == repr([1 + 0j, 2j, 0j, 0j])
    assert repr(floats[1]) == repr([-(1 + 0j), -2j, -0j, -0j])


def test_exact_directional_derivative_repr_matches_signed_reference_on_frobenius():
    # the exact sum takes the signed trace-form entries as they are; the
    # reference sums the unsigned adjugate entries and signs the sum
    from symrank.canonical import build_frobenius, jordan_to_frobenius
    from symrank.proofs import tangent_direction

    pools = [(DEFAULT_POOL, 5), ((gq(0), gq("1/2"), gq("1/3", "2/5"), gq(-2, 1)), 4)]
    for pool, n_max in pools:
        for n in range(1, n_max + 1):
            for spec in enumerate_jordan_specs(n, pool):
                fspec = jordan_to_frobenius(spec)
                B = build_frobenius(fspec)
                for i in range(1, fspec.min_degree + 1):
                    M = tangent_direction(fspec, i)
                    assert repr(directional_derivative(B, M)) == repr(
                        reference_directional_derivative(B, M))


def _sparse_direction(rng, n, zero):
    """A direction with about half its entries the given zero object and the
    rest random Gaussian rationals, integers among them."""
    rows = tuple(tuple(zero if rng.random() < 0.5 else
                       (gq(rng.randint(-3, 3)) if rng.random() < 0.5 else
                        random_gaussian_rational(rng, 4))
                       for _ in range(n)) for _ in range(n))
    return SquareMatrix(n, EXACT, rows)


def test_exact_directional_derivative_repr_matches_reference_for_either_zero():
    """A direction's zeros, the shared GQ_ZERO or a fresh gq(0), add
    nothing, and an empty or cancelling sum must print as the reference's."""
    from symrank.canonical import build_frobenius, jordan_to_frobenius

    rng = random.Random(850)
    bases = []
    for n in range(1, 6):
        specs = list(enumerate_jordan_specs(n, DEFAULT_POOL))
        bases += [build_frobenius(jordan_to_frobenius(spec)) for spec in rng.sample(specs, 3)]
        bases += [random_exact_matrix(rng, n), build_jordan(JordanSpec.of({gq(0): [n]}))]
    checked = 0
    for B in bases:
        n = B.n
        fresh = gq(0)
        assert fresh is not GQ_ZERO
        for zero in (fresh, GQ_ZERO):
            directions = [_sparse_direction(rng, n, zero) for _ in range(3)]
            directions.append(SquareMatrix(n, EXACT, ((zero,) * n,) * n))
            # diag(1, -1, 0, ...): for n >= 2 the sigma_1 component, tr M, cancels
            directions.append(SquareMatrix(n, EXACT, tuple(
                tuple((gq(1 - 2 * i) if i == j and i < 2 else zero) for j in range(n))
                for i in range(n))))
            for M in directions:
                got = directional_derivative(B, M)
                assert repr(got) == repr(reference_directional_derivative(B, M))
                checked += 1
    origin = SquareMatrix.zeros(2)
    cancel = SquareMatrix(2, EXACT, ((gq(1), gq(0)), (gq(0), gq(-1))))
    assert not directional_derivative(origin, cancel)[0]
    assert checked == 10 * len(bases)


def _exact_pairs(rng):
    """(B, M) pairs with n <= 5: rational and complex entries, M with several
    nonzero entries, and the split-row matrices of the tangent path."""
    from symrank.canonical import build_frobenius, jordan_to_frobenius
    from symrank.proofs import tangent_direction

    pairs = []
    for n in range(1, 6):
        for B in _oracle_matrices(n, rng):
            pairs += [(B, random_exact_matrix(rng, n)), (B, _sparse_direction(rng, n, GQ_ZERO))]
        if n > 1:
            fspec = jordan_to_frobenius(JordanSpec.of({gq("1/2"): [n - 1], gq(0, 1): [1]}))
            B = build_frobenius(fspec)
            pairs += [(B, tangent_direction(fspec, n)), (B, random_exact_matrix(rng, n))]
    return pairs


def test_directional_derivative_of_the_jacobian_matches_the_matrix(monkeypatch):
    calls = []
    original = jacobian.char_and_adjugate

    def counting(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(jacobian, "char_and_adjugate", counting)
    rng = random.Random(830)
    pairs = _exact_pairs(rng)
    assert any(x.im for _, M in pairs for row in M.entries for x in row)
    assert any(x.re.denominator > 1 for _, M in pairs for row in M.entries for x in row)
    for B, M in pairs:
        before = len(calls)
        jac = jacobian_exact(B)
        got = directional_derivative(jac, M)
        # one adjugate for the Jacobian, which keeps nothing between calls;
        # the Jacobian is read as it is: no adjugate, no Gaussian-rational rows
        assert len(calls) == before + 1 and "rows" not in jac.__dict__
        assert got == directional_derivative(B, M) == directional_oracle(B, M)
        assert repr(got) == repr(reference_directional_derivative(B, M))


def test_directional_derivative_of_a_jacobian_built_from_rows():
    # no stored rows: _split_rows clears all n rows over one common
    # denominator, where jacobian_exact keeps one per row
    rng = random.Random(831)
    for B, M in _exact_pairs(rng):
        stored = jacobian_exact(B)
        built = JacobianMatrix(B.n, EXACT, stored.rows)
        assert isinstance(stored._split_rows()[0], list)
        assert isinstance(built._split_rows()[0], int)
        got = directional_derivative(built, M)
        assert got == directional_derivative(stored, M)
        assert repr(got) == repr(reference_directional_derivative(B, M))


def test_directional_derivative_refuses_a_mismatched_jacobian():
    B = build_jordan(JordanSpec.of({0: [2]}))
    M = SquareMatrix.basis(2, 1, 0)
    with pytest.raises(ValueError, match="size"):
        directional_derivative(jacobian_exact(build_jordan(JordanSpec.of({0: [3]}))), M)
    with pytest.raises(ValueError, match="exact"):
        directional_derivative(jacobian_exact(B.to_float()), M)
    with pytest.raises(ValueError, match="exact"):
        directional_derivative(jacobian_exact(B), M.to_float())


def test_verify_theorem_ranks_the_conjugated_matrix(monkeypatch):
    # a stand-in "conjugate" of another rank must show up in the report
    monkeypatch.setattr(jacobian, "random_similarity", lambda B, seed: SquareMatrix.zeros(B.n))
    report = verify_theorem(JordanSpec.of({0: [3]}))
    assert report.rank == report.min_poly_degree == 3
    assert report.theorem_holds and not report.conjugation_checked


def _bareiss_cases(rng):
    big = 2 ** 64

    def entry(kind):
        if kind == "real":
            return gq(rng.randint(-big, big))
        return gq(rng.randint(-big, big), rng.randint(-big, big))

    cases = [[], [[]], [[gq(0)]], [[gq(0, 3)]]]
    for n in range(1, 7):
        for kind in ("real", "complex"):
            dense = [[entry(kind) for _ in range(n)] for _ in range(n)]
            cases.append(dense)
            # zero leading column and zero first row: column and row swaps
            swaps = [[gq(0)] + row[1:] for row in dense]
            swaps[0] = [gq(0)] * n
            cases.append(swaps)
            if n > 1:
                # rank deficient: the last row is a combination of two others
                deficient = [row[:] for row in dense]
                deficient[-1] = [a * gq(3, -1) - b * gq(2) for a, b in zip(dense[0], dense[1 % n])]
                cases.append(deficient)
            sparse = [[entry(kind) if rng.random() < 0.3 else gq(0) for _ in range(n)]
                      for _ in range(n)]
            cases.append(sparse)
    for nrows, ncols in ((2, 5), (5, 2), (3, 4), (4, 3)):
        cases.append([[entry("complex") if rng.random() < 0.7 else gq(0) for _ in range(ncols)]
                      for _ in range(nrows)])
    # entries in {0, +-1, +-i}: a second pivot of -1, i or -i, which the third
    # step divides by, and random ones whose later pivots are units too
    units = [gq(0), gq(1), gq(-1), gq(0, 1), gq(0, -1)]
    for unit in units[2:]:
        cases.append([[gq(1), gq(0), gq(1), gq(0)], [gq(0), unit, gq(1), gq(1)],
                      [gq(1), gq(1), gq(1), gq(0)], [gq(0), gq(1), gq(0, -1), gq(1)]])
    for n in (4, 5, 6):
        for _ in range(8):
            cases.append([[rng.choice(units) for _ in range(n)] for _ in range(n)])
    return cases


def test_bareiss_split_rows_match_gauss_jordan(monkeypatch):
    rng = random.Random(1300)
    seen_swaps = seen_deficient = 0
    divisors = set()
    original = jacobian.exact_quotients

    def spy(re, im, divisor_re, divisor_im=0):
        divisors.add((divisor_re, divisor_im))
        return original(re, im, divisor_re, divisor_im)

    monkeypatch.setattr(jacobian, "exact_quotients", spy)
    for rows in _bareiss_cases(rng):
        _, re, im = to_gaussian_integers(rows)
        rank, (p_re, p_im), sign = _bareiss(re, im)
        expected_rank, det = gauss_jordan_rank_det(rows)
        assert rank == expected_rank
        if det is not None and rows and rows[0]:
            if rank == len(rows):
                assert gq(p_re * sign, p_im * sign) == det
            else:
                assert det == GQ_ZERO
                seen_deficient += 1
        seen_swaps += sign == -1
    assert seen_swaps and seen_deficient
    # every unit divides on the path that skips the remainder check
    assert {(1, 0), (-1, 0), (0, 1), (0, -1)} <= divisors
    assert _bareiss([], []) == (0, (1, 0), 1)
    # a permutation matrix: pivot 1, and the sign is the permutation's
    assert _bareiss([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0] * 3 for _ in range(3)]) == (
        3, (1, 0), 1)
    assert _bareiss([[0, 1], [1, 0]], [[0, 0], [0, 0]]) == (2, (1, 0), -1)


@pytest.mark.parametrize("first_pivot", [(2, 0), (1, 1)], ids=["real", "complex"])
def test_bareiss_refuses_an_inexact_division(monkeypatch, first_pivot):
    """A numerator off by one is not divisible by a first pivot of norm 2:
    the checked division raises ArithmeticError instead of flooring."""
    original = jacobian.exact_quotients

    def off_by_one(re, im, divisor_re, divisor_im=0):
        if (divisor_re, divisor_im) == first_pivot:
            re = [re[0] + 1] + re[1:]
        return original(re, im, divisor_re, divisor_im)

    def rows():
        re = [[first_pivot[0], 1, 0], [1, 3, 1], [0, 1, 4]]
        im = [[first_pivot[1], 0, 0], [0, 0, 0], [0, 0, 0]]
        return re, im

    assert _bareiss(*rows())[0] == 3
    monkeypatch.setattr(jacobian, "exact_quotients", off_by_one)
    with pytest.raises(ArithmeticError):
        _bareiss(*rows())


def reference_char_and_adjugate(M):
    """The former exact route: every N_k built as Gaussian rationals at once."""
    d, re, im = to_gaussian_integers(M.entries)
    poly, _ = char_and_adjugate(M)
    _, adj = charpoly_in_ring(re, im)
    return poly, MatrixPolynomial(tuple(
        SquareMatrix(M.n, EXACT, to_gaussian_rationals(d ** (k - 1), re, im))
        for k, (re, im) in reversed(list(enumerate(adj, 1)))))


def _stored_row_cases():
    """(B, seed) for every default-pool spec with n <= 5 and every spec with
    n <= 5 over a pool of rationals, so that D > 1."""
    rational_pool = (gq("1/2"), gq("-2/3", "1/5"), gq(0, "3/4"))
    for pool in (DEFAULT_POOL, rational_pool):
        for n in range(1, 6):
            for index, spec in enumerate(enumerate_jordan_specs(n, pool)):
                yield build_jordan(spec), 100 * n + index


def _same_as_eager(make, eager):
    # every check reads a fresh result first: ==, hash, repr and JSON must
    # each build the same values, and so must a copy taken before any read
    assert eager == make()
    assert hash(make()) == hash(eager)
    assert repr(make()) == repr(eager)
    assert make().to_json() == eager.to_json()
    for copied in (pickle.loads(pickle.dumps(make())), copy.deepcopy(make())):
        assert copied == eager
        assert repr(copied) == repr(eager)


def _snapshot(x):
    # at n = 1 random_similarity returns its input, which stores no rows
    return copy.deepcopy(vars(x).get("_split", x))


def test_stored_row_results_equal_eager_ones():
    """random_similarity, char_and_adjugate and jacobian_exact keep split rows;
    reading them gives what building them with Gaussian rationals gave."""
    denominators = set()
    for B, seed in _stored_row_cases():
        conjugated = random_similarity(B, seed)
        eager = reference_random_similarity(B, seed)
        eager_poly, eager_adj = reference_char_and_adjugate(eager)
        eager_jac = reference_jacobian_exact(eager)
        _same_as_eager(lambda: random_similarity(B, seed), eager)
        _same_as_eager(lambda: char_and_adjugate(conjugated)[1], eager_adj)
        _same_as_eager(lambda: jacobian_exact(conjugated), eager_jac)
        assert char_and_adjugate(conjugated)[0] == eager_poly
        # a kernel reads the stored rows and writes none of them
        jac = jacobian_exact(random_similarity(B, seed))
        before = _snapshot(jac)
        ranks = rank_exact(jac), rank_exact(jac)
        assert ranks[0] == ranks[1] == rank_exact(eager_jac)
        assert _snapshot(jac) == before
        assert jac.rows == eager_jac.rows
        fresh = random_similarity(B, seed)
        before = _snapshot(fresh)
        twice = random_similarity(fresh, seed + 1), random_similarity(fresh, seed + 1)
        assert _snapshot(fresh) == before
        assert twice[0] == twice[1] == reference_random_similarity(eager, seed + 1)
        assert fresh.entries == eager.entries
        # no kernel on the conjugate path read the conjugate's entries
        assert B.n == 1 or "entries" not in vars(conjugated)
        denominators.update(vars(jac)["_split"][0])
    assert max(denominators) > 1


def test_stored_rows_under_racing_threads():
    # four threads read entries or rows of one fresh matrix each round; a race
    # may build them twice, and every reader must see the same values
    rng = random.Random(1400)
    B = random_exact_matrix(rng, 7)
    want_entries = reference_random_similarity(B, 7).entries
    want_rows = reference_jacobian_exact(reference_random_similarity(B, 7)).rows
    results = []

    def read(matrix, name):
        results.append((name, getattr(matrix, name)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for matrix, name in ((random_similarity(B, 7), "entries"),
                                 (jacobian_exact(random_similarity(B, 7)), "rows")):
                threads = [threading.Thread(target=read, args=(matrix, name)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 80
    for name, value in results:
        assert value == (want_entries if name == "entries" else want_rows)
