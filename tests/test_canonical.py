"""Jordan and Frobenius constructions, minimal polynomials, combinatorics."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from symrank.canonical import (
    EigenvalueBlocks,
    FrobeniusSpec,
    JordanSpec,
    build_frobenius,
    build_jordan,
    jordan_to_frobenius,
    min_poly_degree,
    min_poly_krylov,
    random_similarity,
    required_order,
)
from symrank.cli import DEFAULT_POOL, enumerate_jordan_specs
from symrank.matpoly import Polynomial, SquareMatrix, char_poly
from symrank.proofs import tangent_direction
from symrank.scalars import (
    EXACT,
    FLOAT,
    NumericFailure,
    gq,
    random_gaussian_rational,
    to_gaussian_integers,
    to_gaussian_rationals,
)


def gauss_rank(rows):
    """Independent rank oracle: plain exact row reduction (not fraction-free)."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][c]
        work[rank] = [x / pv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def eval_poly_at_matrix(p, M):
    total = SquareMatrix.zeros(M.n, M.field)
    power = SquareMatrix.identity(M.n, M.field)
    for c in p.coefficients:
        total = total + power.scale(c)
        power = power @ M
    return total


def min_poly_oracle(M):
    """Brute-force minimal degree: first k with vec(M^k) in the span of lower powers."""
    n = M.n
    power = SquareMatrix.identity(n)
    vecs = [[x for row in power.entries for x in row]]
    for k in range(1, n + 1):
        power = power @ M
        vec = [x for row in power.entries for x in row]
        cols = list(zip(*(vecs + [vec])))
        if gauss_rank(cols) <= len(vecs):
            return k
        vecs.append(vec)
    raise AssertionError("unreachable")


def test_build_jordan_single_block():
    B = build_jordan(JordanSpec.of({0: [2]}))
    assert B.entries == ((gq(0), gq(1)), (gq(0), gq(0)))


def test_build_jordan_superdiagonal_pattern():
    lam = gq(4)
    B = build_jordan(JordanSpec.of([(lam, [1, 2])]))
    superdiag = tuple(B.entries[i][i + 1] for i in range(2))
    assert superdiag == (gq(0), gq(1))
    assert all(B.entries[i][i] == lam for i in range(3))


def test_build_jordan_distinct_eigenvalues():
    B = build_jordan(JordanSpec.of({1: [1], 2: [1]}))
    assert B.entries == ((gq(1), gq(0)), (gq(0), gq(2)))


def test_jordan_spec_invariants():
    with pytest.raises(ValueError):
        JordanSpec(2, (EigenvalueBlocks(gq(0), (2, 1)),))  # not ascending
    with pytest.raises(ValueError):
        JordanSpec(2, (EigenvalueBlocks(gq(0), (1,)), EigenvalueBlocks(gq(0), (1,))))
    with pytest.raises(ValueError):
        JordanSpec(3, (EigenvalueBlocks(gq(0), (2,)),))  # sizes sum mismatch
    with pytest.raises(ValueError):
        JordanSpec(1, (EigenvalueBlocks(gq(0), ()),))
    with pytest.raises(ValueError):
        JordanSpec(1, (EigenvalueBlocks(0.5, (1,)),))  # float eigenvalue


def test_jordan_spec_json_round_trip():
    spec = JordanSpec.of([(gq(0, 1), [1, 2]), (gq(2), [1])])
    assert JordanSpec.from_json(spec.to_json()) == spec


def test_build_frobenius_one_factor_linear():
    lam = gq(5, -2)
    C = build_frobenius(FrobeniusSpec((Polynomial.make([-lam, 1]),)))
    assert C.entries == ((lam,),)


def test_build_frobenius_one_factor_char_poly_round_trip():
    p = Polynomial.make([5, 3, 1])
    assert char_poly(build_frobenius(FrobeniusSpec((p,)))) == p


def test_build_frobenius_one_factor_rejects_non_monic():
    with pytest.raises(ValueError):
        build_frobenius(FrobeniusSpec((Polynomial.make([1, 2]),)))
    with pytest.raises(ValueError):
        build_frobenius(FrobeniusSpec((Polynomial.make([7]),)))
    # FrobeniusSpec's checks: a constant and a float polynomial are refused
    with pytest.raises(ValueError, match="degree >= 1"):
        build_frobenius(FrobeniusSpec((Polynomial.make([1]),)))
    with pytest.raises(ValueError, match="exact"):
        build_frobenius(FrobeniusSpec((Polynomial((0.5 + 0j, 1 + 0j)),)))


def test_build_frobenius_single_factor():
    B = build_frobenius(FrobeniusSpec((Polynomial.make([0, 0, 1]),)))
    assert B.entries == ((gq(0), gq(1)), (gq(0), gq(0)))


def test_build_frobenius_two_factors():
    spec = FrobeniusSpec((Polynomial.make([0, 1]), Polynomial.make([0, 0, 1])))
    B = build_frobenius(spec)
    assert B.entries == (
        (gq(0), gq(0), gq(0)),
        (gq(0), gq(0), gq(1)),
        (gq(0), gq(0), gq(0)),
    )


def test_build_frobenius_char_poly():
    # factors (t-1, (t-1)(t-2)): characteristic polynomial (t-1)^2 (t-2)
    p1 = Polynomial.make([-1, 1])
    p2 = Polynomial.make([-1, 1]) * Polynomial.make([-2, 1])
    B = build_frobenius(FrobeniusSpec((p1, p2)))
    assert B.n == 3
    expected = p1 * p2
    assert char_poly(B) == expected


def test_frobenius_divisibility_enforced():
    with pytest.raises(ValueError):
        FrobeniusSpec((Polynomial.make([-1, 1]), Polynomial.make([0, 0, 1])))


def test_frobenius_spec_rejects_a_float_factor():
    with pytest.raises(ValueError, match="must be exact polynomials"):
        FrobeniusSpec((Polynomial((0j, 1 + 0j)),))


def test_frobenius_json_round_trip():
    spec = FrobeniusSpec((Polynomial.make([0, 1]), Polynomial.make([0, 0, 1])))
    assert FrobeniusSpec.from_json(spec.to_json()) == spec


def test_frobenius_from_json_rejects_a_non_dividing_chain():
    # t - 1 does not divide t^2; only jordan_to_frobenius skips the check
    chain = [Polynomial.make([-1, 1]).to_json(), Polynomial.make([0, 0, 1]).to_json()]
    with pytest.raises(ValueError, match="divisibility"):
        FrobeniusSpec.from_json({"invariant_factors": chain})


def test_min_poly_degree_examples():
    assert min_poly_degree(JordanSpec.of({0: [1, 1]})) == 1
    assert min_poly_degree(JordanSpec.of({1: [1], 2: [1], 3: [1]})) == 3
    assert min_poly_degree(JordanSpec.of([(gq(1), [2, 2]), (gq(2), [1])])) == 3


def test_min_poly_degree_matches_krylov_oracle():
    spec = JordanSpec.of([(gq(1), [2, 2]), (gq(2), [1])])
    M = build_jordan(spec)
    assert min_poly_degree(spec) == min_poly_krylov(M).degree == min_poly_oracle(M)


def test_min_poly_krylov_zero():
    assert min_poly_krylov(SquareMatrix.zeros(3)) == Polynomial.make([0, 1])


def test_min_poly_krylov_identity():
    assert min_poly_krylov(SquareMatrix.identity(4)) == Polynomial.make([-1, 1])


def test_min_poly_krylov_jordan_block():
    # (t - 2)^3 = t^3 - 6t^2 + 12t - 8
    M = build_jordan(JordanSpec.of({2: [3]}))
    p = min_poly_krylov(M)
    assert p == Polynomial.make([-8, 12, -6, 1])
    # annihilates the matrix, and no lower degree does
    assert eval_poly_at_matrix(p, M).is_zero()
    assert min_poly_oracle(M) == 3


def test_min_poly_krylov_divides_char_poly():
    rng = random.Random(31)
    for spec in random.Random(5).sample(list(enumerate_jordan_specs(4, [gq(0), gq(1), gq(0, 1)])), 12):
        M = build_jordan(spec)
        p = min_poly_krylov(M)
        assert p.divides(char_poly(M))
        assert eval_poly_at_matrix(p, M).is_zero()


def test_min_poly_krylov_float_mode():
    M = build_jordan(JordanSpec.of({2: [3]})).to_float()
    p = min_poly_krylov(M)
    assert p.degree == 3
    for got, want in zip(p.coefficients, (-8, 12, -6, 1)):
        assert abs(got - want) < 1e-8
    assert min_poly_krylov(SquareMatrix.zeros(3).to_float()).degree == 1


def reference_min_poly_float(M, tol=None):
    """The former float route of min_poly_krylov: a fresh column stack of
    I, M, ..., M^k and its SVD at every k = 1..n, the last one included."""
    n = M.n
    a = M.to_numpy()
    power = np.eye(n, dtype=complex)
    vecs = [power.ravel()]
    for k in range(1, n + 1):
        with np.errstate(all="ignore"):
            power = a @ power
        if not np.isfinite(power).all():
            raise NumericFailure(f"matrix power M^{k} overflowed")
        target = power.ravel()
        stack = np.column_stack(vecs + [target])
        sv = np.linalg.svd(stack, compute_uv=False)
        threshold = tol if tol is not None else max(stack.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        if k == n or sv[-1] <= threshold:
            basis = np.column_stack(vecs)
            combo, *_ = np.linalg.lstsq(basis, target, rcond=None)
            coeffs = [complex(-c) for c in combo] + [complex(1.0)]
            return Polynomial(tuple(coeffs))
        vecs.append(target)


def scaled_reference_min_poly_float(M, tol=None):
    """reference_min_poly_float on M / 2^e, e the frexp exponent of M's
    largest part, with coefficient k of degree d scaled back by 2^(e(d - k))."""
    a = M.to_numpy()
    e = math.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1]
    scaled = SquareMatrix(M.n, FLOAT, tuple(
        tuple(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in row)
        for row in M.entries))
    p = reference_min_poly_float(scaled, tol)
    if not e:
        return p
    d = p.degree
    try:
        return Polynomial(tuple(complex(math.ldexp(c.real, e * (d - k)), math.ldexp(c.imag, e * (d - k)))
                                for k, c in enumerate(p.coefficients)))
    except OverflowError:
        raise NumericFailure(f"minimal polynomial coefficient overflowed at scale 2^{e}") from None


def float_min_poly_cases():
    """Random complex matrices n = 1..8, float Jordan matrices with n <= 6
    and their conjugates, one matrix whose powers overflow unscaled, one
    whose minimal polynomial's coefficients overflow, one whose entries are
    tiny, and a near-scalar one whose smallest singular value at k = 1 lies
    between (k + 1) = 2 and n^2 = 4 times eps * sigma_max, so that the
    default threshold's factor decides it."""
    rng = random.Random(860)
    cases = []
    for n in range(1, 9):
        for _ in range(3):
            cases.append(SquareMatrix.from_rows(
                [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                 for _ in range(n)], FLOAT))
    for n in range(1, 7):
        specs = list(enumerate_jordan_specs(n, DEFAULT_POOL))
        for spec in specs if n <= 2 else rng.sample(specs, 8):
            J = build_jordan(spec)
            cases.append(J.to_float())
            cases.append(random_similarity(J, rng.randrange(1000)).to_float())
    cases.append(SquareMatrix.from_rows([[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]],
                                        FLOAT))
    cases.append(SquareMatrix.from_rows([[1e200, 0.0], [0.0, -1e200j]], FLOAT))
    cases.append(SquareMatrix.from_rows([[1e-300, 2e-300j], [-3e-300, 0.5e-300]], FLOAT))
    cases.append(SquareMatrix.from_rows([[1.0, 0.0], [0.0, 1.0 + 2.5e-15]], FLOAT))
    return cases


def test_float_min_poly_repr_identical_to_reference():
    # one Krylov matrix filled in place gives the bits of the per-step stacks:
    # the default threshold runs on the scaled matrix, an explicit tol on M
    def outcome(fn, M, tol):
        try:
            return repr(fn(M, tol))
        except NumericFailure as exc:
            return f"NumericFailure: {exc}"

    overflowed = 0
    for M in float_min_poly_cases():
        for tol in (None, 0.0, 1e-8, 1e-3):
            reference = scaled_reference_min_poly_float if tol is None else reference_min_poly_float
            want = outcome(reference, M, tol)
            assert outcome(min_poly_krylov, M, tol) == want
            overflowed += want.startswith("NumericFailure")
    assert overflowed


RATIONAL_POOL = (gq(0), gq("1/2"), gq("1/3", "2/5"), gq(-2, 1))


def exact_min_poly_cases(n):
    """(M, expected minimal polynomial or None) of size n: random conjugates of
    derogatory Jordan matrices, where the adjugate gcd has positive degree, and
    Frobenius matrices, each expecting the last invariant factor; dense
    Gaussian-rational matrices with denominators > 1, and the 1x1 case."""
    rng = random.Random(900 + n)
    specs = list(enumerate_jordan_specs(n, RATIONAL_POOL))
    derogatory = [spec for spec in specs if min_poly_degree(spec) < n]
    cases = []
    for spec in rng.sample(derogatory, min(4, len(derogatory))):
        expected = jordan_to_frobenius(spec).minimal_polynomial
        cases.append((random_similarity(build_jordan(spec), rng.randrange(1000)), expected))
    for spec in rng.sample(specs, 3):
        frobenius = jordan_to_frobenius(spec)
        cases.append((build_frobenius(frobenius), frobenius.minimal_polynomial))
    for _ in range(2):
        rows = [[gq(f"{rng.randint(-9, 9)}/{rng.randint(2, 9)}", f"{rng.randint(-9, 9)}/{rng.randint(2, 9)}")
                 for _ in range(n)] for _ in range(n)]
        cases.append((SquareMatrix.from_rows(rows, EXACT), None))
    if n == 1:
        cases.append((SquareMatrix.from_rows([[gq("3/4", -2)]], EXACT), Polynomial.make([gq("-3/4", 2), 1])))
    return cases


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_min_poly_matches_oracles(n):
    # the adjugate-gcd route against brute-force degree and evaluation
    for M, expected in exact_min_poly_cases(n):
        p = min_poly_krylov(M)
        assert p.is_monic
        assert p.divides(char_poly(M))
        assert eval_poly_at_matrix(p, M).is_zero()
        assert p.degree == min_poly_oracle(M)
        if expected is not None:
            assert p == expected


def test_required_order_hand_enumerated():
    # the orders of the k-th derivative values for k = m - 1, ..., 0, and the
    # minimal degree: a single block of size 2
    def orders(sizes):
        m = sum(sizes)
        return tuple(required_order(sizes, m - i) for i in range(1, m + 1))

    assert (orders((2,)), min_poly_degree(JordanSpec.of({0: [2]}))) == ((1, 1), 2)
    # two blocks of size 1
    assert (orders((1, 1)), min_poly_degree(JordanSpec.of({0: [1, 1]}))) == ((1, 2), 1)
    # blocks [1, 2]
    assert (orders((1, 2)), min_poly_degree(JordanSpec.of({0: [1, 2]}))) == ((1, 1, 2), 2)


def test_required_order_properties():
    rng = random.Random(77)
    pool = [gq(0), gq(1), gq(-1)]
    for n in range(1, 6):
        for spec in enumerate_jordan_specs(n, pool):
            slack = 0
            for blk in spec.blocks:
                m = sum(blk.sizes)
                orders = [required_order(blk.sizes, m - i) for i in range(1, m + 1)]
                assert orders[0] == 1
                assert all(d <= len(blk.sizes) + 1 for d in orders)
                assert all(a <= b for a, b in zip(orders, orders[1:]))
                slack += m - blk.sizes[-1]
            assert slack == n - min_poly_degree(spec)


def test_jordan_to_frobenius_examples():
    fs = jordan_to_frobenius(JordanSpec.of({0: [1, 1]}))
    assert [p.coefficients for p in fs.invariant_factors] == [(gq(0), gq(1))] * 2
    fs = jordan_to_frobenius(JordanSpec.of({0: [2]}))
    assert [p.coefficients for p in fs.invariant_factors] == [(gq(0), gq(0), gq(1))]
    fs = jordan_to_frobenius(JordanSpec.of({0: [1, 2], 1: [1]}))
    assert [p.degree for p in fs.invariant_factors] == [1, 3]
    assert fs.invariant_factors[0].divides(fs.invariant_factors[1])


def reference_jordan_to_frobenius(spec):
    """The former expansion: products of powers of t - lam as Polynomials
    over Gaussian rationals."""
    depth = max(len(blk.sizes) for blk in spec.blocks)
    factors = []
    for level in range(depth):
        poly = Polynomial.one()
        for blk in spec.blocks:
            sizes_desc = sorted(blk.sizes, reverse=True)
            if level < len(sizes_desc):
                poly = poly * Polynomial.make([-blk.eigenvalue, 1]) ** sizes_desc[level]
        factors.append(poly)
    return FrobeniusSpec(tuple(reversed(factors)))


@pytest.mark.parametrize("pool", [
    DEFAULT_POOL,
    (gq(0), gq("1/2"), gq("1/3", "2/5")),
    # complex, parts of at least 2^64, denominators > 1
    (gq(f"{3 * 2 ** 64 + 1}/3", f"{-5 * 2 ** 65 - 3}/5"),
     gq(f"{-(2 ** 70) - 1}/6", f"{2 ** 66 + 1}/4"),
     gq(f"{11 * 2 ** 64 + 7}/11", f"{13 * 2 ** 64 + 1}/13")),
], ids=["default", "rational", "big"])
def test_jordan_to_frobenius_matches_polynomial_powers(pool):
    for n in range(1, 6):
        for spec in enumerate_jordan_specs(n, pool):
            assert jordan_to_frobenius(spec) == reference_jordan_to_frobenius(spec)


def test_jordan_frobenius_same_invariants():
    # both canonical forms share characteristic and minimal polynomials
    pool = [gq(0), gq(1), gq(0, 1)]
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            J = build_jordan(spec)
            F = build_frobenius(jordan_to_frobenius(spec))
            assert char_poly(J) == char_poly(F)
            assert min_poly_krylov(J) == min_poly_krylov(F)


def test_min_poly_degree_formula_matches_krylov_everywhere():
    pool = [gq(0), gq(1), gq(0, 1)]
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            assert min_poly_degree(spec) == min_poly_krylov(build_jordan(spec)).degree


def test_random_similarity_preserves_invariants():
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    M = build_jordan(spec)
    for seed in range(5):
        C = random_similarity(M, seed)
        assert char_poly(C) == char_poly(M)
        assert min_poly_krylov(C).degree == min_poly_krylov(M).degree


def test_random_similarity_unimodular():
    # determinant of the conjugated matrix equals the original's
    spec = JordanSpec.of({2: [1, 1], 0: [1]})
    M = build_jordan(spec)
    C = random_similarity(M, seed=9)
    assert char_poly(C).coefficients[0] == char_poly(M).coefficients[0]


def test_random_similarity_requires_exact():
    with pytest.raises(ValueError):
        random_similarity(SquareMatrix.identity(2, FLOAT), seed=0)


def dense_similarity(M, seed):
    """Oracle: Q @ M @ Q^-1 with Q and Q^-1 built densely from the shear draw
    of random_similarity (Q = E_last ... E_first, each E = I + c E_ij)."""
    n = M.n
    rng = random.Random(seed)
    ops = []
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        ops.append((i, j, rng.choice([-2, -1, 1, 2])))
    q = [[gq(1) if a == b else gq(0) for b in range(n)] for a in range(n)]
    qinv = [row[:] for row in q]
    for i, j, c in ops:
        q[i] = [a + c * b for a, b in zip(q[i], q[j])]
        for row in qinv:
            row[j] = row[j] - c * row[i]
    return SquareMatrix.from_rows(q, EXACT) @ M @ SquareMatrix.from_rows(qinv, EXACT)


def test_random_similarity_matches_dense_product():
    rng = random.Random(17)
    for n in range(2, 6):
        for trial in range(4):
            M = SquareMatrix.from_rows(
                [[random_gaussian_rational(rng) for _ in range(n)] for _ in range(n)], EXACT)
            seed = 100 * n + trial
            assert random_similarity(M, seed) == dense_similarity(M, seed)


def reference_random_similarity(M, seed):
    """The former draw: ``randrange`` and ``choice`` on ``random.Random(seed)``,
    the multiplier list rebuilt for every shear; the same split-row shears."""
    if M.field != EXACT:
        raise ValueError("random similarity requires an exact matrix")
    n = M.n
    if n == 1:
        return M
    rng = random.Random(seed)
    d, work_re, work_im = to_gaussian_integers(M.entries)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        c = rng.choice([k for k in range(-2, 3) if k != 0])
        for work in (work_re, work_im):
            work[i] = [a + b * c for a, b in zip(work[i], work[j])]
            for row in work:
                row[j] -= row[i] * c
    return SquareMatrix(n, EXACT, to_gaussian_rationals(d, work_re, work_im))


def test_random_similarity_draws_equal_randrange_and_choice():
    """Every seed 0..299 at every n = 1..8, on a Jordan and a dense rational
    matrix."""
    rng = random.Random(31)
    jordans = [build_jordan(JordanSpec.of({gq("1/2", "-2/3"): [n - n // 2], gq(2): [n // 2]}
                                          if n > 1 else {gq(-1): [1]}))
               for n in range(1, 9)]
    denses = [SquareMatrix.from_rows([[random_gaussian_rational(rng, 5) for _ in range(n)]
                                      for _ in range(n)], EXACT) for n in range(1, 9)]
    for seed in range(300):
        for M in jordans + denses:
            got = random_similarity(M, seed)
            want = reference_random_similarity(M, seed)
            assert got == want
            assert repr(got) == repr(want)


def _entries_digest(M):
    body = json.dumps(M.to_json()["entries"], separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def test_random_similarity_matches_recorded_matrices():
    """Conjugates recorded from an earlier kernel that held each Z[i] entry as
    one object, which the split-row shears must reproduce exactly (sha256 of the compact JSON
    entries)."""
    mixed = JordanSpec.of({gq("1/2", "-2/3"): [2], gq(0, 1): [1], gq(2): [1]})
    six = JordanSpec.of({gq(-1): [1], gq(0, 1): [2], gq("1/3"): [1], gq(2): [2]})
    rng = random.Random(2024)
    dense = SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 7) for _ in range(5)] for _ in range(5)], EXACT)
    real = SquareMatrix.from_rows([[gq(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)],
                                  EXACT)
    cases = [
        (build_jordan(mixed), 0, "967721425090ccc92b12cd20d570b9bba30ba05a577d8c740dea2f25da8ca0bf"),
        (build_jordan(mixed), 7, "9385b18b8faa7e621505c0a97392dffaf689a426f336d6aa8d9fe9806460bc82"),
        (build_jordan(six), 11, "655284a4af8d28532210647ef906109e8a54d8cee2c09d0fcec655851d211f6f"),
        (dense, 5, "fa577250fbad4d4a8eeec72d08a3bfb133a6abc7ada4d6df187f9b6b1b0c908a"),
        (real, 9, "07801feafb2d17df13b2cdf319ce3d8ad3b5fa070ac8358eeba3359ebe94c828"),
    ]
    for M, seed, digest in cases:
        assert _entries_digest(random_similarity(M, seed)) == digest
    # spelled out: a real integer Jordan matrix stays real
    conjugate = random_similarity(build_jordan(JordanSpec.of({gq(1): [1, 2]})), 3)
    assert conjugate == SquareMatrix.from_rows([[1, 0, 1], [0, 1, -1], [0, 0, 1]], EXACT)


def reference_build_frobenius(spec):
    """The former route: one companion block per factor through from_rows,
    copied into the block diagonal, and the whole matrix through from_rows."""
    n = spec.n
    rows = [[gq(0)] * n for _ in range(n)]
    offset = 0
    for p in spec.invariant_factors:
        m = p.degree
        block = SquareMatrix.from_rows(
            [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m - 1)]
            + [[-c for c in p.coefficients[:m]]], EXACT)
        for i in range(m):
            rows[offset + i][offset:offset + m] = block.entries[i]
        offset += m
    return SquareMatrix.from_rows(rows, EXACT)


@pytest.mark.parametrize("pool, n_max", [(DEFAULT_POOL, 6), (RATIONAL_POOL, 4)],
                         ids=["default", "rational"])
def test_trusted_constructions_match_their_checked_twins(pool, n_max):
    # the builders make their matrices directly (build_frobenius and
    # tangent_direction from split rows) and jordan_to_frobenius skips
    # FrobeniusSpec's checks; from_rows and the validated constructor must
    # give the same objects, to the repr
    for n in range(1, n_max + 1):
        for spec in enumerate_jordan_specs(n, pool):
            J = build_jordan(spec)
            assert repr(J) == repr(SquareMatrix.from_rows(J.entries, EXACT))
            fspec = jordan_to_frobenius(spec)
            assert repr(fspec) == repr(FrobeniusSpec(fspec.invariant_factors))
            B = build_frobenius(fspec)
            assert repr(B) == repr(SquareMatrix.from_rows(B.entries, EXACT))
            assert repr(B) == repr(reference_build_frobenius(fspec))
            for i in range(1, fspec.min_degree + 1):
                H = tangent_direction(fspec, i)
                assert repr(H) == repr(SquareMatrix.from_rows(H.entries, EXACT))


def test_build_frobenius_one_factor_matches_from_rows():
    for p in (Polynomial.make([gq("1/3", "2/5"), 0, gq(-2, 1), 1]), Polynomial.make([0, 0, 1])):
        C = build_frobenius(FrobeniusSpec((p,)))
        assert repr(C) == repr(SquareMatrix.from_rows(C.entries, EXACT))


@pytest.mark.parametrize("value", [1e16, 1e-200])
def test_float_min_poly_of_a_nilpotent_at_any_scale(value):
    # unscaled, the identity column looked dependent on M beside M's size at
    # 1e16, and M looked zero beside I at 1e-200: both gave t
    M = SquareMatrix.from_rows([[0.0, value], [0.0, 0.0]], FLOAT)
    p = min_poly_krylov(M)
    assert p.degree == 2 and p.coefficients[:2] == (0j, 0j)


def test_float_min_poly_degree_of_float_jordan_matrices_is_structural():
    # float Jordan matrices and their conjugates have well-separated
    # eigenvalues, so every tested threshold finds min_poly_degree
    rng = random.Random(861)
    for n in range(1, 6):
        for spec in enumerate_jordan_specs(n, DEFAULT_POOL):
            J = build_jordan(spec)
            for M in (J.to_float(), random_similarity(J, rng.randrange(1000)).to_float()):
                for tol in (None, 1e-8, 1e-3):
                    assert min_poly_krylov(M, tol).degree == min_poly_degree(spec)


def test_float_min_poly_explicit_tol_is_absolute():
    # an explicit tol is compared with the singular values of I, M, ... as
    # they are: beside I, an M of size 1e-200 lies under 1e-3, so the
    # dependence is found at degree 1
    M = SquareMatrix.from_rows([[0.0, 1e-200], [0.0, 0.0]], FLOAT)
    assert min_poly_krylov(M, 1e-3).degree == 1
    assert min_poly_krylov(M, 0.0).degree == 2
    assert min_poly_krylov(M.scale(2.0 ** 700), 1e-3).degree == 2


def test_float_min_poly_degree_is_scale_invariant():
    def degree(M):
        try:
            return min_poly_krylov(M).degree
        except NumericFailure:
            return None

    for M in float_min_poly_cases():
        want = degree(M)
        for power in (50, -50):
            assert degree(M.scale(2.0 ** power)) == want
