"""Characteristic polynomials, adjugates, and the symmetrization map.

Derived expectations are checked against cofactor-expansion determinants,
which share no code with the recursion under test.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symrank import matpoly
from symrank.canonical import build_jordan, random_similarity
from symrank.cli import DEFAULT_POOL, enumerate_jordan_specs
from symrank.matpoly import (
    MAX_N,
    MatrixPolynomial,
    Polynomial,
    SquareMatrix,
    char_and_adjugate,
    char_poly,
    charpoly_in_ring,
    dot,
    monomial_vector,
    spectral_radius_bound,
    sym_poly_eval,
    symmetrize,
)
from symrank.scalars import (
    EXACT,
    FLOAT,
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    NumericFailure,
    gq,
    random_gaussian_rational,
    to_gaussian_integers,
    to_gaussian_rationals,
)


def laplace_det(rows):
    """Independent determinant oracle: cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def char_poly_oracle(M):
    """det(tI - M) by cofactor expansion over exact polynomial entries."""
    n = M.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            diag = gq(1) if i == j else gq(0)
            row.append(Polynomial((-M.entries[i][j], diag)))
        rows.append(row)
    return laplace_det(rows)


def reference_charpoly(entries, zero, one):
    """The generic Faddeev-LeVerrier loop over any commutative ring with exact
    division by 1..n: (coeffs, adj), coeffs the ascending c_0..c_n of
    det(tI - A) and adj [N_1, ..., N_n] with adj(tI - A) = sum_k N_k t^(n-k).
    Entry types must support +, -, *, unary minus, and true division by a
    Python int.  It is the reference for the Z[i] split-row kernel
    ``charpoly_in_ring`` and, over Polynomial entries, for curve expansions.
    """
    n = len(entries)
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    mk = [[one if i == j else zero for j in range(n)] for i in range(n)]
    adj = []
    # the left factor stays fixed and is often sparse; index its support once
    support = [[(j, a) for j, a in enumerate(row) if a] for row in entries]
    for k in range(1, n + 1):
        adj.append([row[:] for row in mk])
        am = []
        for i in range(n):
            row = [zero] * n
            for idx, a in support[i]:
                mrow = mk[idx]
                for j in range(n):
                    b = mrow[j]
                    if b:
                        row[j] = row[j] + a * b
            am.append(row)
        tr = am[0][0]
        for i in range(1, n):
            tr = tr + am[i][i]
        ck = -(tr / k)
        coeffs[n - k] = ck
        if k < n:
            mk = am
            if ck:
                for i in range(n):
                    mk[i][i] = mk[i][i] + ck
    return coeffs, adj


def random_exact_matrix(rng, n, magnitude=3):
    return SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, magnitude) for _ in range(n)] for _ in range(n)],
        EXACT,
    )


def test_char_poly_nilpotent_zero():
    p = char_poly(SquareMatrix.zeros(3))
    assert p == Polynomial.make([0, 0, 0, 1])


def test_char_poly_diag():
    p = char_poly(SquareMatrix.from_rows([[1, 0], [0, 2]]))
    assert p == Polynomial.make([2, -3, 1])


def test_char_poly_companion_against_cofactor_oracle():
    # companion of t^2 + 3t + 5
    M = SquareMatrix.from_rows([[0, 1], [-5, -3]])
    assert char_poly(M) == Polynomial.make([5, 3, 1])
    assert char_poly(M) == char_poly_oracle(M)


def test_char_poly_matches_cofactor_oracle_random():
    rng = random.Random(21)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            M = random_exact_matrix(rng, n)
            assert char_poly(M) == char_poly_oracle(M)


def test_char_poly_monic_degree_n():
    rng = random.Random(8)
    M = random_exact_matrix(rng, 4)
    p = char_poly(M)
    assert p.degree == 4 and p.is_monic


def test_char_poly_similarity_invariant():
    rng = random.Random(17)
    for _ in range(10):
        M = random_exact_matrix(rng, 4)
        conjugated = random_similarity(M, seed=rng.randint(0, 10**6))
        assert char_poly(conjugated) == char_poly(M)


def test_char_poly_float_overflow_reported():
    M = SquareMatrix.from_rows([[1e308, 1e308], [1e308, 1e308]], field=FLOAT)
    with pytest.raises(NumericFailure):
        char_poly(M)


def test_symmetrize_zero():
    assert symmetrize(SquareMatrix.zeros(4)) == (gq(0),) * 4


def test_symmetrize_jordan_block():
    lam = gq(3, 2)
    M = SquareMatrix.from_rows([[lam, gq(1)], [gq(0), lam]])
    assert symmetrize(M) == (lam + lam, lam * lam)


def test_symmetrize_diag_123():
    M = SquareMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert symmetrize(M) == (gq(6), gq(11), gq(6))


def test_adjugate_size_one():
    adj = char_and_adjugate(SquareMatrix.from_rows([[gq(5, 1)]]))[1]
    assert adj.degree == 0
    assert adj.coefficients[0] == SquareMatrix.identity(1)


def test_adjugate_of_zero_2x2():
    adj = char_and_adjugate(SquareMatrix.zeros(2))[1]
    # adj(tI) = t * I for n = 2
    assert adj.degree == 1
    assert adj.coefficients[0].is_zero()
    assert adj.coefficients[1] == SquareMatrix.identity(2)


def matpoly_product(P, Q):
    n = P.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Polynomial.zero()
            for k in range(n):
                acc = acc + P.entry_poly(i, k) * Q.entry_poly(k, j)
            row.append(acc)
        out.append(row)
    return out


def test_adjugate_identity_random():
    # (tI - M) adj(tI - M) = char_poly(M) * I, coefficientwise
    rng = random.Random(33)
    for n in (1, 2, 3, 4):
        M = random_exact_matrix(rng, n)
        p, adj = char_and_adjugate(M)
        t_minus = MatrixPolynomial((M.scale(-1), SquareMatrix.identity(n)))
        product = matpoly_product(t_minus, adj)
        zero = Polynomial.zero()
        for i in range(n):
            for j in range(n):
                assert product[i][j] == (p if i == j else zero)


def test_sym_poly_eval_zero_point():
    # all-zero point gives t^n
    t = gq(2)
    assert sym_poly_eval((gq(0),) * 3, 0, t) == t ** 3


def test_sym_poly_eval_root():
    assert sym_poly_eval((gq(3), gq(2)), 0, gq(1)) == gq(0)


def test_sym_poly_eval_matches_determinant():
    rng = random.Random(6)
    for n in (2, 3, 4):
        M = random_exact_matrix(rng, n)
        point = symmetrize(M)
        for _ in range(3):
            t = random_gaussian_rational(rng, 4)
            shifted = SquareMatrix.identity(n).scale(t) - M
            assert sym_poly_eval(point, 0, t) == laplace_det([list(r) for r in shifted.entries])


def test_sym_poly_eval_beyond_degree_is_zero():
    assert sym_poly_eval((gq(1), gq(2)), 3, gq(5)) == gq(0)


def test_sym_poly_eval_refuses_a_complex_point():
    with pytest.raises(TypeError):
        sym_poly_eval((gq(1), 2j), 0, gq(5))
    with pytest.raises(TypeError):
        sym_poly_eval((gq(1), gq(2)), 0, 0.5 + 1j)


def test_monomial_vector_small():
    lam = gq(7)
    assert monomial_vector(2, 0, lam) == (-lam, gq(1))
    assert monomial_vector(2, 1, lam) == (gq(-1), gq(0))


def test_monomial_vector_order_out_of_range():
    with pytest.raises(ValueError):
        monomial_vector(3, 3, gq(0))


def test_monomial_vector_bracket_identity():
    # sym_poly_eval(u, 0, t) - t^n == dot(monomial_vector(n, 0, t), u)
    rng = random.Random(12)
    for n in (1, 2, 3, 5):
        for _ in range(5):
            u = tuple(random_gaussian_rational(rng, 4) for _ in range(n))
            t = random_gaussian_rational(rng, 4)
            assert sym_poly_eval(u, 0, t) - t ** n == dot(monomial_vector(n, 0, t), u)


def test_monomial_vector_derivative_identity():
    # k-th derivative identity: sym_poly_eval derivative minus the t^n part
    rng = random.Random(14)
    n = 4
    for k in range(n):
        u = tuple(random_gaussian_rational(rng, 4) for _ in range(n))
        t = random_gaussian_rational(rng, 4)
        tn_deriv = gq(math.prod(range(n - k + 1, n + 1))) * t ** (n - k)
        assert sym_poly_eval(u, k, t) - tn_deriv == dot(monomial_vector(n, k, t), u)


def test_monomial_vector_symbolic_derivative_consistency():
    # d/dt of the k-th family equals the (k+1)-th family, checked symbolically
    n = 5
    for k in range(n - 1):
        for j in range(1, n + 1):
            p = n - j
            coeffs = [gq(0)] * (p + 1)
            coeffs[p] = gq(1) if j % 2 == 0 else gq(-1)
            family_k = Polynomial.make(coeffs)
            for _ in range(k):
                family_k = family_k.derivative()
            lam = gq("1/3", "2/5")
            assert family_k.derivative().evaluate(lam) == monomial_vector(n, k + 1, lam)[j - 1]


def test_monomial_vector_fd_derivative_consistency():
    # float cross-check of the same consistency via central differences
    n = 4
    h = 1e-6
    lam = 0.3 + 0.2j
    for k in range(n - 1):
        plus = monomial_vector(n, k, lam + h)
        minus = monomial_vector(n, k, lam - h)
        exact = monomial_vector(n, k + 1, lam)
        for a, b, e in zip(plus, minus, exact):
            assert abs((a - b) / (2 * h) - e) < 1e-6


def test_dot_examples():
    assert dot((gq(1), gq(0)), (gq(0), gq(1))) == gq(0)
    assert dot((GQ_I, gq(1)), (GQ_I, gq(1))) == gq(0)


def test_dot_coordinate_extraction():
    rng = random.Random(4)
    w = tuple(random_gaussian_rational(rng) for _ in range(4))
    for j in range(4):
        e = tuple(gq(1) if i == j else gq(0) for i in range(4))
        assert dot(e, w) == w[j]


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot((gq(1),), (gq(1), gq(2)))


def test_spectral_radius_bound_zero():
    assert spectral_radius_bound(SquareMatrix.zeros(3).to_float(), 5) == 0.0


def test_spectral_radius_bound_identity():
    assert spectral_radius_bound(SquareMatrix.identity(2, FLOAT), 5) == pytest.approx(1.0)


def test_spectral_radius_bound_nilpotent():
    J = SquareMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]], field=FLOAT)
    bound = spectral_radius_bound(J, 10)
    assert 0.0 <= bound < 1.0
    assert bound == 0.0


def test_spectral_radius_bound_requires_float():
    with pytest.raises(ValueError):
        spectral_radius_bound(SquareMatrix.zeros(2), 3)


def test_spectral_radius_bound_overflow_reported():
    M = SquareMatrix.from_rows([[1e200, 1e200], [1e200, 1e200]], field=FLOAT)
    with pytest.raises(NumericFailure):
        spectral_radius_bound(M, 4)


def test_spectral_radius_bound_decreasing():
    rng = random.Random(2)
    M = SquareMatrix.from_rows(
        [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)] for _ in range(3)],
        field=FLOAT,
    )
    bounds = [spectral_radius_bound(M, k) for k in range(6)]
    for a, b in zip(bounds, bounds[1:]):
        assert b <= a + 1e-12


def test_corrected_derivative_identity():
    # sym_poly_eval(symmetrize(M), k, lam) == k! * sigma_(n-k)(lam*I - M)
    rng = random.Random(40)
    for n in (2, 3, 4):
        M = random_exact_matrix(rng, n)
        point = symmetrize(M)
        lam = random_gaussian_rational(rng, 3)
        shifted = SquareMatrix.identity(n).scale(lam) - M
        shifted_point = (gq(1),) + tuple(symmetrize(shifted))
        for k in range(n + 1):
            expected = gq(math.factorial(k)) * shifted_point[n - k]
            assert sym_poly_eval(point, k, lam) == expected


def test_matrix_json_round_trip():
    rng = random.Random(9)
    M = random_exact_matrix(rng, 3)
    assert SquareMatrix.from_json(M.to_json()) == M
    Mf = M.to_float()
    assert SquareMatrix.from_json(Mf.to_json()) == Mf


def test_matrix_json_validation():
    with pytest.raises(ValueError):
        SquareMatrix.from_json({"n": 2, "field": "exact", "entries": [[["0/1", "0/1"]]]})
    with pytest.raises(ValueError):
        SquareMatrix.from_json({"n": 1, "field": "galois", "entries": [[["0/1", "0/1"]]]})
    with pytest.raises(ValueError):
        SquareMatrix.from_json({"field": "exact"})


def test_matrix_requires_square():
    with pytest.raises(ValueError):
        SquareMatrix.from_rows([[gq(1), gq(2)]])


def test_from_rows_without_a_field_is_exact():
    # the field is never inferred from the entries: a complex one is refused
    with pytest.raises(TypeError):
        SquareMatrix.from_rows([[1, 0], [0, 1j]])


def test_polynomial_division():
    a = Polynomial.make([2, -3, 1])      # (t-1)(t-2)
    b = Polynomial.make([-1, 1])         # t - 1
    q, r = a.divmod_exact(b)
    assert r.is_zero
    assert q == Polynomial.make([-2, 1])
    assert b.divides(a)
    assert not Polynomial.make([-3, 1]).divides(a)


def test_polynomial_trims_trailing_zeros():
    p = Polynomial.make([1, 2, 0, 0])
    assert p.degree == 1
    assert Polynomial.make([0, 0]).is_zero


def test_polynomial_str():
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.make([gq("1/2"), 0, gq(0, 2)])) == "(1/2) + (0+2i)*t^2"


def test_to_float_takes_the_float_coercion_of_each_entry():
    M = SquareMatrix.from_rows([[gq("1/3", 1), 2], [0, gq(0, "-1/2")]])
    F = M.to_float()
    assert F.field == FLOAT and F.entries == ((complex(1 / 3, 1), 2 + 0j), (0j, -0.5j))
    assert F.to_float() == F


@pytest.mark.parametrize("n", range(1, 7))
def test_char_and_adjugate_matches_fraction_recursion(n):
    # the Gaussian-integer route, unscaled by D^(n-j) and D^(k-1), against
    # the same recursion run directly on Gaussian rationals
    rng = random.Random(400 + n)
    cases = [SquareMatrix.zeros(n)]
    for den in range(1, 10):
        cases.append(SquareMatrix.from_rows(
            [[gq(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), 10 - den))
              for _ in range(n)] for _ in range(n)], EXACT))
    zero_row = [list(r) for r in random_exact_matrix(rng, n, 9).entries]
    zero_row[rng.randrange(n)] = [gq(0)] * n
    cases.append(SquareMatrix.from_rows(zero_row, EXACT))
    for M in cases:
        p, adj = char_and_adjugate(M)
        coeffs, mats = reference_charpoly(M.entries, GQ_ZERO, GQ_ONE)
        assert p.coefficients == tuple(coeffs)
        assert [m.entries for m in adj.coefficients] == [
            tuple(tuple(row) for row in m) for m in reversed(mats)]


def reference_char_and_adjugate_float(M):
    """The float route with the adjugate read back entry by entry: one array
    per N_k, an np.all per N_k, and complex() on every numpy scalar.  The
    one-buffer kernel and char_poly must match it bit for bit, signed zeros
    included."""
    n = M.n
    a = np.array([[complex(x) for x in r] for r in M.entries], dtype=complex)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    eye = np.eye(n, dtype=complex)
    mk = eye.copy()
    adj = []
    with np.errstate(all="ignore"):
        for k in range(1, n + 1):
            adj.append(mk)
            am = a @ mk
            ck = -np.trace(am) / k
            coeffs[n - k] = ck
            if k < n:
                mk = am + ck * eye
    if not (np.all(np.isfinite(coeffs.view(float)))
            and all(np.all(np.isfinite(m.view(float))) for m in adj)):
        raise NumericFailure("characteristic polynomial overflowed")
    poly = Polynomial(tuple(complex(c) for c in coeffs))
    mats = tuple(SquareMatrix(n, FLOAT, tuple(tuple(complex(x) for x in row) for row in m))
                 for m in reversed(adj))
    return poly, MatrixPolynomial(mats)


def float_cases():
    """Random complex matrices n = 1..8, zero matrices, signed-zero parts and
    Jordan matrices cast to floats."""
    rng = random.Random(77)
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    cases = []
    for n in range(1, 9):
        for _ in range(4):
            cases.append(SquareMatrix.from_rows(
                [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                 for _ in range(n)], FLOAT))
        cases.append(SquareMatrix.zeros(n, FLOAT))
        cases.append(SquareMatrix.from_rows(
            [[complex(rng.choice(parts), rng.choice(parts)) for _ in range(n)]
             for _ in range(n)], FLOAT))
    for n in (1, 3):
        cases.extend(build_jordan(spec).to_float()
                     for spec in enumerate_jordan_specs(n, DEFAULT_POOL))
    return cases


def test_float_char_poly_and_adjugate_bit_identical_to_reference():
    for M in float_cases():
        poly, adj = reference_char_and_adjugate_float(M)
        sigma = float_sigma(poly, M.n)
        assert repr(char_and_adjugate(M)) == repr((poly, adj))
        assert repr(char_poly(M)) == repr(poly)
        assert repr(char_poly(M)) == repr(char_and_adjugate(M)[0])
        assert repr(symmetrize(M)) == repr(sigma)


#: Float matrices whose recursion overflows.
OVERFLOW_ROWS = [
    [[1e200, 0.0], [0.0, 1e200]],
    # N_3 overflows first (1e200 * 1e200 off the diagonal); c_3 follows as nan
    [[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]],
]


@pytest.mark.parametrize("rows", OVERFLOW_ROWS)
def test_float_overflow_raises_alike_with_and_without_adjugate(rows):
    M = SquareMatrix.from_rows(rows, FLOAT)
    for fn in (reference_char_and_adjugate_float, char_and_adjugate, char_poly, symmetrize):
        with pytest.raises(NumericFailure):
            fn(M)
    # one overflowing matrix among finite ones fails the whole stack
    n = M.n
    stack = np.stack([np.eye(n, dtype=complex), M.to_numpy(), np.ones((n, n), dtype=complex)])
    symmetrize(stack[::2])
    with pytest.raises(NumericFailure):
        symmetrize(stack)


def random_signed_zero_stack(rng, k, n):
    """k random complex n-by-n matrices whose parts are often +0.0 or -0.0."""
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)

    def part():
        return rng.choice(parts) if rng.random() < 0.6 else rng.uniform(-2, 2)

    return np.array([[[complex(part(), part()) for _ in range(n)] for _ in range(n)]
                     for _ in range(k)], dtype=complex)


def test_stacked_symmetrize_bit_identical_to_one_at_a_time():
    rng = random.Random(78)
    stacks = []
    by_size = {}
    for M in float_cases():
        by_size.setdefault(M.n, []).append(M.to_numpy())
    stacks.extend(np.stack(arrays) for arrays in by_size.values())
    for n in range(1, 9):
        for k in (1, 2, 2 * n * n):
            stacks.append(random_signed_zero_stack(rng, k, n))
    for stack in stacks:
        n = stack.shape[-1]
        points = symmetrize(stack)
        assert points.shape == (len(stack), n)
        for a, point in zip(stack, points.tolist()):
            M = SquareMatrix(n, FLOAT, tuple(map(tuple, a.tolist())))
            # symmetrize(M) runs a stack of one; sigma off the recursion that
            # keeps the adjugate is independent of it
            assert repr(tuple(point)) == repr(float_sigma(char_and_adjugate(M)[0], n))


def float_sigma(poly, n):
    """(sigma_1, ..., sigma_n) off the float characteristic polynomial poly."""
    c = poly.coefficients
    return tuple(c[n - j] if j % 2 == 0 else -c[n - j] for j in range(1, n + 1))


def test_symmetrize_of_a_float_matrix_keeps_no_adjugate(monkeypatch):
    calls = []
    original = matpoly._charpoly_float

    def spy(a, keep_adjugate=False):
        calls.append(keep_adjugate)
        return original(a, keep_adjugate)

    monkeypatch.setattr(matpoly, "_charpoly_float", spy)
    for M in float_cases():
        symmetrize(M)
    assert calls and not any(calls)


def test_symmetrize_of_a_float_matrix_past_max_n():
    # MAX_N bounds decoded input and stacks, not a float matrix built in code
    n = MAX_N + 1
    rng = random.Random(79)
    M = SquareMatrix.from_rows([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for _ in range(n)] for _ in range(n)], FLOAT)
    assert repr(symmetrize(M)) == repr(float_sigma(char_and_adjugate(M)[0], n))
    identity = symmetrize(SquareMatrix.identity(n, FLOAT))
    assert identity == tuple(complex(math.comb(n, j)) for j in range(1, n + 1))


@pytest.mark.parametrize("stack", [
    np.zeros((2, 3, 3)),                                 # real
    np.zeros((2, 3, 3), dtype=np.complex64),             # not complex128
    np.zeros((3, 3), dtype=complex),                     # one matrix, not a stack
    np.zeros((1, 2, 3, 3), dtype=complex),
    np.zeros((2, 3, 4), dtype=complex),
    np.zeros((2, 0, 0), dtype=complex),
    np.zeros((1, MAX_N + 1, MAX_N + 1), dtype=complex),
    [[[1j]]],                                            # not an ndarray
])
def test_symmetrize_rejects_bad_stacks(stack):
    with pytest.raises(ValueError):
        symmetrize(stack)


def _split_oracle_cases(rng, n):
    """Gaussian-rational matrices for the split-row kernel: dense complex with
    denominators > 1 and parts of at least 2^64, real, purely imaginary, and
    sparse with a zero row."""
    big = 2 ** 64

    def part(den_max):
        value = rng.choice([-1, 1]) * rng.randint(big, 4 * big)
        return Fraction(value, rng.randint(2, den_max))

    dense = [[gq(part(9), part(7)) for _ in range(n)] for _ in range(n)]
    real = [[gq(part(5)) for _ in range(n)] for _ in range(n)]
    imaginary = [[gq(0, rng.randint(-big, big)) for _ in range(n)] for _ in range(n)]
    sparse = [[gq(rng.randint(-3, 3), rng.randint(-1, 1)) if rng.random() < 0.4 else gq(0)
               for _ in range(n)] for _ in range(n)]
    sparse[rng.randrange(n)] = [gq(0)] * n
    return [dense, real, imaginary, sparse]


@pytest.mark.parametrize("n", range(1, 7))
def test_charpoly_split_rows_match_generic_loop(n):
    rng = random.Random(1200 + n)
    for rows in _split_oracle_cases(rng, n):
        d, re, im = to_gaussian_integers(rows)
        (c_re, c_im), adj = charpoly_in_ring(re, im)
        # the generic loop over Gaussian rationals, on D*M itself ...
        ref_coeffs, ref_adj = reference_charpoly(to_gaussian_rationals(1, re, im), GQ_ZERO, GQ_ONE)
        assert [gq(x, y) for x, y in zip(c_re, c_im)] == ref_coeffs
        assert [to_gaussian_rationals(1, m_re, m_im) for m_re, m_im in adj] == [
            tuple(map(tuple, m)) for m in ref_adj]
        # ... and on M, unscaled: c_j(M) = c_j(DM) / D^(n-j), N_k(M) = N_k(DM) / D^(k-1)
        m_coeffs, m_adj = reference_charpoly(rows, GQ_ZERO, GQ_ONE)
        assert [gq(Fraction(x, d ** (n - j)), Fraction(y, d ** (n - j)))
                for j, (x, y) in enumerate(zip(c_re, c_im))] == m_coeffs
        for k, ((m_re, m_im), ref) in enumerate(zip(adj, m_adj), 1):
            assert to_gaussian_rationals(d ** (k - 1), m_re, m_im) == tuple(map(tuple, ref))


def _refuses_off_by_one(monkeypatch, rows, k, part):
    """Shadow the builtin ``divmod`` in the module, so that the part-th call
    dividing by k (0 the real, 1 the imaginary part) sees a trace part off by
    one, and check that the split kernel raises ArithmeticError."""
    import symrank.matpoly as matpoly

    calls = []

    def off_by_one(value, divisor):
        if divisor == k:
            calls.append(value)
            if len(calls) == part + 1:
                value += 1
        return divmod(value, divisor)

    charpoly_in_ring(*rows)
    monkeypatch.setattr(matpoly, "divmod", off_by_one, raising=False)
    with pytest.raises(ArithmeticError):
        charpoly_in_ring(*rows)
    assert len(calls) == 2  # both parts divided, then checked


def test_charpoly_split_refuses_an_inexact_division(monkeypatch):
    """A trace off by one is not divisible by k = 2: the checked / k raises
    ArithmeticError instead of flooring.  The trace division is one builtin
    ``divmod`` per part."""
    _refuses_off_by_one(monkeypatch, ([[1, 2], [3, 4]], [[0, 1], [0, 0]]), 2, 0)


_ROWS_3 = ([[1, 2, 0], [3, 4, 1], [0, 1, 2]], [[0, 1, 0], [0, 0, 2], [1, 0, 0]])


@pytest.mark.parametrize("rows, k, part", [
    (([[1, 2], [3, 4]], [[0, 1], [0, 0]]), 2, 1),
    (_ROWS_3, 2, 0), (_ROWS_3, 2, 1), (_ROWS_3, 3, 0), (_ROWS_3, 3, 1),
], ids=["last-im", "loop-re", "loop-im", "last3-re", "last3-im"])
def test_charpoly_split_refuses_an_inexact_division_at_every_step(monkeypatch, rows, k, part):
    # a step of the loop (k < n) divides apart from the last step (k = n)
    _refuses_off_by_one(monkeypatch, rows, k, part)


class _Zi:
    """A Gaussian integer for ``reference_charpoly``: +, *, unary minus, and
    a division by an int that fails the test if it leaves a remainder."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = re, im

    def __add__(self, other):
        return _Zi(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Zi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def __neg__(self):
        return _Zi(-self.re, -self.im)

    def __truediv__(self, k):
        (q_re, r_re), (q_im, r_im) = divmod(self.re, k), divmod(self.im, k)
        assert not r_re and not r_im
        return _Zi(q_re, q_im)

    def __bool__(self):
        return bool(self.re or self.im)


def _assert_kernel_matches_reference(re, im):
    """charpoly_in_ring on split rows against the generic loop over _Zi."""
    (c_re, c_im), adj = charpoly_in_ring(re, im)
    rows = [[_Zi(x, y) for x, y in zip(row_re, row_im)] for row_re, row_im in zip(re, im)]
    ref_coeffs, ref_adj = reference_charpoly(rows, _Zi(0), _Zi(1))
    assert c_re == [z.re for z in ref_coeffs]
    assert c_im == [z.im for z in ref_coeffs]
    assert adj == [([[z.re for z in row] for row in m], [[z.im for z in row] for row in m])
                   for m in ref_adj]


@st.composite
def _split_matrices(draw):
    """Dense, sparse, real or purely imaginary split rows, n = 1..12, parts
    up to 2^80 in absolute value."""
    n = draw(st.sampled_from(range(1, 13)))
    bits = draw(st.sampled_from([1, 4, 16, 40, 64, 80]))
    part = st.integers(-(2 ** bits), 2 ** bits)
    entry = draw(st.sampled_from([
        st.tuples(part, part),
        st.one_of(st.just((0, 0)), st.tuples(part, part)),
        st.tuples(part, st.just(0)),
        st.tuples(st.just(0), part),
    ]))
    cells = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    re = [[x for x, _ in cells[i * n:(i + 1) * n]] for i in range(n)]
    im = [[y for _, y in cells[i * n:(i + 1) * n]] for i in range(n)]
    return re, im


@settings(derandomize=True, deadline=None, max_examples=100, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_split_matrices())
def test_charpoly_in_ring_matches_reference_property(rows):
    _assert_kernel_matches_reference(*rows)


def _growth_cases(n):
    """Named split rows whose entries of A N_k grow with large parts: every
    packed step must pick a digit width that holds them."""
    big, coeff = 2 ** 40, 2 ** 30
    zeros = [[0] * n for _ in range(n)]
    jordan = [[big if i == j else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    # companion matrix of t^n + sum_j c_j t^j, c_j = +-2^30
    companion = [[1 if i == j + 1 else 0 for j in range(n - 1)] + [(-1) ** i * coeff]
                 for i in range(n)]
    return {
        "all L": ([[big] * n for _ in range(n)], zeros),
        "all L(1+i)": ([[big] * n for _ in range(n)], [[big] * n for _ in range(n)]),
        "nilpotent upper": ([[big if j > i else 0 for j in range(n)] for i in range(n)], zeros),
        "jordan 2^40": (jordan, zeros),
        "companion 2^30": (companion, zeros),
    }


def _dense_conjugate(rows):
    """S A S^-1 for S = LUL, L the lower triangle of ones and U = L^T, with
    L^-1 = I - (ones on the subdiagonal): the same characteristic
    polynomial, with a Jordan or companion A made dense enough for the
    packed steps."""
    n = len(rows)
    lo = [[1 if i >= j else 0 for j in range(n)] for i in range(n)]
    lo_inv = [[1 if i == j else -1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    def transpose(a):
        return [list(col) for col in zip(*a)]

    for s, s_inv in ((lo, lo_inv), (transpose(lo), transpose(lo_inv)), (lo, lo_inv)):
        rows = mul(mul(s, rows), s_inv)
    return rows


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("case", ["all L", "all L(1+i)", "nilpotent upper", "jordan 2^40",
                                  "companion 2^30"])
def test_charpoly_in_ring_growth_cases_match_reference(case, n, conjugated):
    re, im = _growth_cases(n)[case]
    if conjugated:
        re, im = _dense_conjugate(re), _dense_conjugate(im)
    _assert_kernel_matches_reference(re, im)
