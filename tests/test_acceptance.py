"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
the exhaustive sweep over all Jordan structures with n <= 6 is shared by the
criteria that consume it.
"""

import random
import time

import pytest

from symrank.canonical import build_jordan, random_similarity
from symrank.cli import DEFAULT_POOL, SweepConfig, enumerate_jordan_specs, run_sweep
from symrank.jacobian import jacobian_exact, jacobian_fd, rank_exact
from symrank.matpoly import SquareMatrix, symmetrize, sym_poly_eval
from symrank.proofs import genocchi_hermite_check, linear_curve, order_of_vanishing
from symrank.scalars import EXACT, FLOAT, gq, random_gaussian_rational
from tests.test_cli import expected_spec_count

SWEEP_SEED = 20260808


def _criterion(number, description, ok, detail=""):
    line = f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def sweep6():
    config = SweepConfig(
        n_max=6,
        pool=DEFAULT_POOL,
        modes=("theorem", "nullspace", "tangent", "vandermonde"),
        seed=SWEEP_SEED,
    )
    start = time.monotonic()
    report = run_sweep(config)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_1_theorem_sweep(sweep6):
    report, elapsed = sweep6
    expected_total = sum(expected_spec_count(n, len(DEFAULT_POOL)) for n in range(1, 7))
    holds = [
        rec["modes"]["theorem"]["theorem_holds"] and
        rec["modes"]["theorem"]["rank"] == rec["modes"]["theorem"]["min_poly_degree"]
        for rec in report.records
    ]
    ok = (
        report.total_specs == expected_total
        and len(report.records) == expected_total
        and all(holds)
        and elapsed < 300.0
    )
    line = _criterion(
        1, "theorem sweep, exact rank == minimal degree, n <= 6", ok,
        f"{sum(holds)}/{report.total_specs} specs, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_jacobian_fd_oracle():
    rng = random.Random(2026)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 8)
        B = SquareMatrix.from_rows(
            [[complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(n)]
             for _ in range(n)],
            field=FLOAT,
        )
        exact = jacobian_exact(B)
        fd = jacobian_fd(B, h)
        for re_row, fd_row in zip(exact.rows, fd.rows):
            for a, b in zip(re_row, fd_row):
                worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    agreement_ok = worst <= 1e-6

    # halving h quarters the truncation error; the second-order term only
    # shows along dense directions, so probe directional differences
    ratios = []
    for trial in range(6):
        n = 5
        def rand(scale):
            return SquareMatrix.from_rows(
                [[complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                  for _ in range(n)] for _ in range(n)],
                field=FLOAT,
            )
        B, M = rand(0.9), rand(1.0)
        exact = jacobian_exact(B).to_numpy() @ M.to_numpy().ravel()
        for h0 in (1e-3,):
            def fd_dir(step):
                plus = symmetrize(B + M.scale(complex(step)))
                minus = symmetrize(B - M.scale(complex(step)))
                return [(p - q) / (2 * step) for p, q in zip(plus, minus)]
            coarse = fd_dir(h0)
            fine = fd_dir(h0 / 2)
            for k in range(n):
                e1 = abs(coarse[k] - exact[k])
                e2 = abs(fine[k] - exact[k])
                if e1 > 1e-8:
                    ratios.append(e1 / e2)
    richardson_ok = len(ratios) >= 10 and all(3.2 < r < 4.8 for r in ratios)

    ok = agreement_ok and richardson_ok
    line = _criterion(
        2, "finite-difference oracle at h=1e-5, 100 random float matrices", ok,
        f"max normalized error {worst:.2e}, {len(ratios)} Richardson samples",
    )
    assert ok, line


def test_criterion_3_nullspace_certificates(sweep6):
    report, _ = sweep6
    ok = True
    for rec in report.records:
        entry = rec["modes"]["nullspace"]
        if not (entry["count"] == entry["expected"] and entry["annihilates"]
                and entry["independent"]):
            ok = False
            break
    line = _criterion(
        3, "null-space certificates: n - m vectors, exact annihilation, independence",
        ok, f"{len(report.records)} specs",
    )
    assert ok, line


def test_criterion_4_tangent_certificates(sweep6):
    report, _ = sweep6
    ok = True
    for rec in report.records:
        entry = rec["modes"]["tangent"]
        m = entry["expected"]
        if not (entry["ok"] and entry["images"] == m
                and entry["pivots"] == list(range(m, 0, -1))):
            ok = False
            break
    line = _criterion(
        4, "tangent certificates: m echelon images, exact rank m", ok,
        f"{len(report.records)} specs",
    )
    assert ok, line


def test_criterion_5_confluent_vandermonde(sweep6):
    report, _ = sweep6
    ok = all(rec["modes"]["vandermonde"]["ok"] for rec in report.records)
    patterns = {
        tuple(sorted((tuple(c[0]) if isinstance(c[0], list) else c[0], c[1])
                     for c in rec["modes"]["vandermonde"]["clusters"]))
        for rec in report.records
    }
    line = _criterion(
        5, "confluent Vandermonde determinant equals closed form, |.| exact", ok,
        f"{len(patterns)} multiplicity patterns",
    )
    assert ok, line


def test_criterion_6_order_of_vanishing():
    violations = 0
    checks = 0
    for n in range(2, 6):
        specs = list(enumerate_jordan_specs(n, DEFAULT_POOL))
        rng = random.Random(600 + n)
        for _ in range(50):
            spec = specs[rng.randrange(len(specs))]
            B = build_jordan(spec)
            M = SquareMatrix.from_rows(
                [[random_gaussian_rational(rng, 4) for _ in range(n)] for _ in range(n)],
                EXACT,
            )
            curve = linear_curve(B, M)
            for blk in spec.blocks:
                for k in range(sum(blk.sizes)):
                    checks += 1
                    if not order_of_vanishing(spec, curve, blk.eigenvalue, k).passed:
                        violations += 1
    ok = violations == 0
    line = _criterion(
        6, "order-of-vanishing bound on 50 random linear curves per n in 2..5", ok,
        f"{checks} checks, {violations} violations",
    )
    assert ok, line


def test_criterion_7_genocchi_hermite():
    eps = (1e-2, 1e-3, 1e-4)
    failures = []
    total = 0
    for n in range(2, 6):
        for k in range(0, min(3, n - 1) + 1):
            for lam in (0.0, 0.5, -0.5, 0.3 + 0.4j, 1.0):
                total += 1
                report = genocchi_hermite_check(n, k, lam, eps)
                if not report.passed:
                    failures.append((n, k, lam, report.errors))
    ok = not failures
    line = _criterion(
        7, "divided-difference limit converges at first order (ratio >= 8/decade)",
        ok, f"{total} (n, k, lambda) cases",
    )
    assert ok, (line, failures)


def test_criterion_8_similarity_invariance():
    checked = 0
    mismatches = 0
    for n in range(1, 6):
        for index, spec in enumerate(enumerate_jordan_specs(n, DEFAULT_POOL)):
            B = build_jordan(spec)
            base_rank = rank_exact(jacobian_exact(B))
            for trial in range(20):
                seed = (SWEEP_SEED * 1009 + n * 131 + index) * 23 + trial
                conjugated = random_similarity(B, seed)
                checked += 1
                if rank_exact(jacobian_exact(conjugated)) != base_rank:
                    mismatches += 1
    ok = mismatches == 0
    line = _criterion(
        8, "exact rank invariant under 20 unimodular conjugations per spec, n <= 5",
        ok, f"{checked} conjugations",
    )
    assert ok, line


def test_criterion_9_corrected_derivative_identity():
    import math

    rng = random.Random(99)
    checked = 0
    ok = True
    for n in range(1, 6):
        for _ in range(12):
            M = SquareMatrix.from_rows(
                [[random_gaussian_rational(rng, 4) for _ in range(n)] for _ in range(n)],
                EXACT,
            )
            lam = random_gaussian_rational(rng, 3)
            point = symmetrize(M)
            shifted = SquareMatrix.identity(n).scale(lam) - M
            shifted_sigma = (gq(1),) + tuple(symmetrize(shifted))
            for k in range(n + 1):
                checked += 1
                lhs = sym_poly_eval(point, k, lam)
                rhs = gq(math.factorial(k)) * shifted_sigma[n - k]
                if lhs != rhs:
                    ok = False
    line = _criterion(
        9, "derivative identity with corrected index (k-th value = k! sigma_(n-k))",
        ok, f"{checked} exact checks",
    )
    assert ok, line


def test_criterion_10_order_of_vanishing_exhaustive():
    # one fresh random linear curve per structure, every structure with n <= 6
    expected_total = sum(expected_spec_count(n, len(DEFAULT_POOL)) for n in range(1, 7))
    specs = checks = violations = 0
    start = time.monotonic()
    for n in range(1, 7):
        for index, spec in enumerate(enumerate_jordan_specs(n, DEFAULT_POOL)):
            rng = random.Random((SWEEP_SEED * 1013 + n * 137 + index) * 29)
            M = SquareMatrix.from_rows(
                [[random_gaussian_rational(rng, 4) for _ in range(n)] for _ in range(n)],
                EXACT,
            )
            curve = linear_curve(build_jordan(spec), M)
            specs += 1
            for blk in spec.blocks:
                for k in range(sum(blk.sizes)):
                    checks += 1
                    if not order_of_vanishing(spec, curve, blk.eigenvalue, k).passed:
                        violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and specs == expected_total
    line = _criterion(
        10, "order-of-vanishing bound on one random linear curve per structure, n <= 6",
        ok, f"{specs} specs, {checks} checks, {violations} violations, {elapsed:.1f}s",
    )
    assert ok, line
