"""Null-space and tangent certificates, divided differences, vanishing orders."""

import math
import random
from fractions import Fraction

import pytest

from symrank import jacobian, proofs
from symrank.canonical import (
    FrobeniusSpec,
    JordanSpec,
    build_frobenius,
    build_jordan,
    jordan_to_frobenius,
    min_poly_degree,
    required_order,
)
from symrank.cli import DEFAULT_POOL, enumerate_jordan_specs, integer_partitions
from symrank.jacobian import (directional_derivative, jacobian_exact, numeric_rank_profile,
                              rank_exact)
from symrank.matpoly import (
    MatrixPolynomial,
    Polynomial,
    SquareMatrix,
    dot,
    falling_factorial,
    monomial_vector,
    spectral_radius_bound,
    sym_poly_eval,
    symmetrize,
)
from symrank.proofs import (
    NullspaceCertificate,
    NullVector,
    TangentCertificate,
    VandermondeComparison,
    VanishingReport,
    confluent_vandermonde_det,
    divided_difference,
    genocchi_hermite_check,
    linear_curve,
    nullspace_basis,
    order_of_vanishing,
    tangent_construction,
    tangent_direction,
    tangent_ok,
    verify_annihilation,
)
from symrank.scalars import (EXACT, balanced_splitter, coerce_scalar, gq, parse_eigenvalue,
                             random_gaussian_rational, scalar_from_json)
from tests.test_jacobian import reference_eliminate
from tests.test_matpoly import laplace_det, reference_charpoly


def test_nullspace_two_scalar_blocks():
    cert = nullspace_basis(JordanSpec.of({0: [1, 1]}))
    assert len(cert.vectors) == 1
    v = cert.vectors[0]
    assert (v.eigenvalue, v.order) == (gq(0), 0)
    assert v.vector == (gq(0), gq(1))


def test_nullspace_non_derogatory_empty():
    cert = nullspace_basis(JordanSpec.of({3: [4]}))
    assert cert.vectors == ()
    assert verify_annihilation(cert, build_jordan(JordanSpec.of({3: [4]})))


def test_nullspace_mixed_blocks():
    cert = nullspace_basis(JordanSpec.of({0: [1, 2]}))
    assert len(cert.vectors) == 1
    assert cert.vectors[0].vector == (gq(0), gq(0), gq(-1))
    # exact annihilation against all nine derivative columns
    B = build_jordan(JordanSpec.of({0: [1, 2]}))
    jac = jacobian_exact(B)
    for c in range(9):
        assert dot(cert.vectors[0].vector, tuple(row[c] for row in jac.rows)) == gq(0)


def test_nullspace_counts_match():
    pool = [gq(0), gq(1), gq(0, 1)]
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            cert = nullspace_basis(spec)
            assert len(cert.vectors) == n - min_poly_degree(spec)


def test_verify_annihilation_detects_perturbation():
    spec = JordanSpec.of({0: [1, 1]})
    cert = nullspace_basis(spec)
    v = cert.vectors[0]
    bumped = NullspaceCertificate((
        NullVector(v.eigenvalue, v.order, (v.vector[0] + gq(1),) + v.vector[1:]),
    ))
    assert not verify_annihilation(bumped, SquareMatrix.zeros(2))


def test_verify_annihilation_requires_exact():
    cert = nullspace_basis(JordanSpec.of({0: [1, 1]}))
    with pytest.raises(ValueError):
        verify_annihilation(cert, SquareMatrix.zeros(2).to_float())


def test_nullspace_json_round_trip():
    cert = nullspace_basis(JordanSpec.of({0: [1, 2], 1: [1, 1]}))
    assert NullspaceCertificate.from_json(cert.to_json()) == cert


def test_nullspace_json_refuses_coerced_counts_and_malformed_certificates():
    good = nullspace_basis(JordanSpec.of({0: [1, 2], 1: [1, 1]})).to_json()
    vector = good["vectors"][0]
    cases = [
        ({"vectors": [dict(vector, k=1.7)]}, "'k'"),
        ({"vectors": [dict(vector, k=1.0)]}, "'k'"),
        ({"vectors": [dict(vector, k="3")]}, "'k'"),
        ({"vectors": [dict(vector, k=True)]}, "'k'"),
        ({"vectors": [dict(vector, k=-1)]}, "'k'"),
        ({"vectors": [dict(vector, k=None)]}, "'k'"),
        ({"vectors": [{"lambda": vector["lambda"], "v": vector["v"]}]}, "'k'"),
        ({"vectors": [{"k": 0, "v": vector["v"]}]}, "'lambda'"),
        ({"vectors": [{"lambda": vector["lambda"], "k": 0}]}, "'v'"),
        ({"vectors": [dict(vector, v="0/1")]}, "'v'"),
        ({"vectors": [dict(vector, v={"0": 1})]}, "'v'"),
        ({"vectors": [[vector["lambda"], 0, vector["v"]]]}, "'k'"),
        ({"vectors": "abc"}, "'vectors'"),
        ({"vectors": {"k": 0}}, "'vectors'"),
        ({}, "'vectors'"),
        ([good], "'vectors'"),
    ]
    for obj, key in cases:
        with pytest.raises(ValueError, match=key):
            NullspaceCertificate.from_json(obj)
    # a well-formed certificate keeps its orders
    assert NullspaceCertificate.from_json(good).vectors[0].order == vector["k"]


def test_divided_difference_order_zero():
    lam = gq(3, 1)
    assert divided_difference([lam], {lam: (gq(7),)}) == gq(7)


def test_divided_difference_two_nodes():
    # f(t) = t^2 over nodes 0, 1
    data = {gq(0): (gq(0),), gq(1): (gq(1),)}
    assert divided_difference([gq(0), gq(1)], data) == gq(1)


def test_divided_difference_confluent_equals_derivative():
    # f[lam, lam] = f'(lam) for f = t^2 at lam = 3
    assert divided_difference([gq(3), gq(3)], {gq(3): (gq(9), gq(6))}) == gq(6)


def test_divided_difference_confluent_limit_oracle():
    # the confluent value is the limit of distinct-node differences
    lam = 3.0
    confluent = divided_difference([lam + 0j, lam + 0j], {lam + 0j: (9.0 + 0j, 6.0 + 0j)})
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        nodes = [complex(lam), complex(lam + eps)]
        data = {x: (x * x,) for x in nodes}
        errors.append(abs(divided_difference(nodes, data) - confluent))
    assert errors[0] > errors[1] > errors[2]
    assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)


def test_divided_difference_symmetric_in_distinct_nodes():
    rng = random.Random(19)
    base = [random_gaussian_rational(rng, 3) for _ in range(4)]
    while len({(x.re, x.im) for x in base}) < 4:
        base = [random_gaussian_rational(rng, 3) for _ in range(4)]
    data = {x: (x ** 3 + gq(2) * x,) for x in base}
    reference = divided_difference(base, data)
    for _ in range(5):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert divided_difference(shuffled, data) == reference


def test_divided_difference_missing_derivative_data():
    with pytest.raises(ValueError, match="missing derivative"):
        divided_difference([gq(1), gq(1)], {gq(1): (gq(1),)})


def test_divided_difference_non_contiguous_repeats():
    data = {gq(0): (gq(0), gq(0)), gq(1): (gq(1),)}
    with pytest.raises(ValueError, match="contiguous"):
        divided_difference([gq(0), gq(1), gq(0)], data)


def test_genocchi_order_zero_exact():
    report = genocchi_hermite_check(3, 0, 0.7, (1e-2, 1e-3))
    assert report.passed
    assert all(e <= report.floor for e in report.errors)


def test_genocchi_degree_one_exact():
    # n = 2: every component is affine, so the difference quotient is exact
    report = genocchi_hermite_check(2, 1, 0.0, (1e-1, 1e-2, 1e-3))
    assert report.passed
    assert all(e <= report.floor for e in report.errors)


def test_genocchi_first_order_convergence():
    report = genocchi_hermite_check(4, 2, 1.0, (1e-2, 1e-3, 1e-4))
    assert report.passed
    assert report.errors[0] / report.errors[1] == pytest.approx(10.0, rel=0.15)


@pytest.mark.parametrize("n, k, lam, eps, errors", [
    # the error at the first step sits under the floor and the next one not
    (4, 1, 0.5, (1e-9, 1e-3), (0.0, 1.5e-3)),
    # the error grows as eps shrinks: the ratio falls short of the step ratio
    (5, 2, 1.0, (1e-2, 1e-8), (0.241, 3.54)),
])
def test_genocchi_rejects_a_sequence_that_does_not_converge(n, k, lam, eps, errors):
    report = genocchi_hermite_check(n, k, lam, eps)
    assert not report.top_order
    assert report.errors == pytest.approx(errors, rel=0.01, abs=report.floor)
    assert not report.passed


def test_genocchi_rejects_bad_order():
    with pytest.raises(ValueError):
        genocchi_hermite_check(3, 3, 0.0, (1e-2,))


def test_vandermonde_single_confluent_cluster():
    result = confluent_vandermonde_det([(gq(5, 2), 2)])
    assert result.det_abs_squared == 1
    assert result.matches
    assert result.closed_form_abs == 1.0


def test_vandermonde_two_simple_nodes():
    result = confluent_vandermonde_det([(gq(0), 1), (gq(1), 1)])
    assert result.determinant == gq(1)
    assert result.matches


def test_vandermonde_mixed_cluster():
    result = confluent_vandermonde_det([(gq(0), 2), (gq(1), 1)])
    assert result.determinant == gq(-1)
    assert result.matches


def test_vandermonde_direct_determinant_oracle():
    # the comparison determinant agrees with a cofactor-expansion determinant
    from symrank.matpoly import monomial_vector
    clusters = [(gq(0), 2), (gq(1), 2), (gq(0, 1), 1)]
    n = 5
    columns = []
    for lam, mult in clusters:
        for d in range(mult):
            columns.append(monomial_vector(n, d, lam))
    rows = [[columns[c][r] for c in range(n)] for r in range(n)]
    direct = laplace_det(rows)
    result = confluent_vandermonde_det(clusters)
    assert result.determinant == direct
    assert result.matches


def test_vandermonde_closed_form_value():
    # factorials 0!1!2! = 2, |1-0|^(3*2) = 1 -> squared closed form 4
    result = confluent_vandermonde_det([(gq(0), 3), (gq(1), 2)])
    assert result.closed_abs_squared == Fraction(4)
    assert result.matches


def test_vandermonde_rejects_repeats():
    with pytest.raises(ValueError):
        confluent_vandermonde_det([(gq(1), 2), (gq(1), 1)])


def test_vandermonde_refuses_a_multiplicity_that_is_not_an_int():
    for mult in (2.9, 2.0, "2", True, 0, -1):
        with pytest.raises(ValueError, match="multiplicities must be positive integers"):
            confluent_vandermonde_det([(gq(0), 1), (gq(1), mult)])


def test_tangent_construction_t_squared():
    cert = tangent_construction(FrobeniusSpec((Polynomial.make([0, 0, 1]),)))
    assert cert.images == ((gq(0), gq(1)), (gq(-1), gq(0)))
    assert cert.pivots == (2, 1)
    assert tangent_ok(cert)


def test_tangent_construction_t_cubed():
    cert = tangent_construction(FrobeniusSpec((Polynomial.make([0, 0, 0, 1]),)))
    assert cert.images == (
        (gq(0), gq(0), gq(-1)),
        (gq(0), gq(1), gq(0)),
        (gq(-1), gq(0), gq(0)),
    )
    assert cert.pivots == (3, 2, 1)
    assert tangent_ok(cert)


def test_tangent_ok_rejects_empty_and_misordered_certificates():
    cert = tangent_construction(FrobeniusSpec((Polynomial.make([0, 0, 0, 1]),)))
    assert tangent_ok(cert)
    assert not tangent_ok(TangentCertificate((), (), ()))
    # the same independent images, with pivots other than (3, 2, 1)
    for pivots in ((1, 2, 3), (3, 1, 2), (3, 2), (2, 1, 0)):
        assert not tangent_ok(TangentCertificate(cert.directions, cert.images, pivots))


def test_tangent_ok_rejects_pivots_the_images_do_not_have():
    # independent images leading at components 1 and 2, claimed as (2, 1)
    forged = TangentCertificate((1, 2), ((gq(1), gq(0)), (gq(0), gq(1))), (2, 1))
    assert rank_exact(forged.images) == 2
    assert not tangent_ok(forged)
    # the same claim with images that do lead at 2, then 1
    assert tangent_ok(TangentCertificate((1, 2), ((gq(0), gq(1)), (gq(-1), gq(0))), (2, 1)))
    # a zero image has no pivot, whatever the claim
    cert = tangent_construction(FrobeniusSpec((Polynomial.make([0, 0, 0, 1]),)))
    zeroed = (cert.images[0], (gq(0),) * 3, cert.images[2])
    assert not tangent_ok(TangentCertificate(cert.directions, zeroed, cert.pivots))


def retired_tangent_rule(cert):
    """The former verdict: the pivot pattern, then an exact rank of m."""
    m = len(cert.images)
    pattern = tuple(range(m, 0, -1))
    return (m > 0 and cert.pivots == pattern
            and tuple(map(proofs._pivot, cert.images)) == pattern
            and rank_exact(cert.images) == m)


def _forgeries(cert):
    """The certificate, then altered copies: images reversed, claimed pivots
    reversed, one image zeroed, the last image repeated, one image dropped."""
    images, pivots = cert.images, cert.pivots
    zero = (gq(0),) * len(images[0])
    yield cert
    yield TangentCertificate(cert.directions, images[::-1], pivots)
    yield TangentCertificate(cert.directions, images, pivots[::-1])
    yield TangentCertificate(cert.directions, (zero,) + images[1:], pivots)
    yield TangentCertificate(cert.directions, images[:-1] + images[-1:] * 2, pivots + (1,))
    yield TangentCertificate(cert.directions[1:], images[1:], pivots[1:])


def test_tangent_ok_agrees_with_the_retired_rank_rule():
    frobenius = [jordan_to_frobenius(spec) for n in range(1, 6)
                 for spec in enumerate_jordan_specs(n, DEFAULT_POOL)]
    # the Frobenius spec of the CI gen and tangent steps: (t^2 + 2) | t^4 - 4
    frobenius.append(FrobeniusSpec((Polynomial.make([2, 0, 1]), Polynomial.make([-4, 0, 0, 0, 1]))))
    verdicts = []
    for fspec in frobenius:
        cert = tangent_construction(fspec)
        assert tangent_ok(cert)
        for forged in _forgeries(cert):
            verdicts.append(tangent_ok(forged))
            assert verdicts[-1] == retired_tangent_rule(forged)
    forged = [
        TangentCertificate((1, 2), ((gq(1), gq(0)), (gq(0), gq(1))), (2, 1)),
        TangentCertificate((1, 2), ((gq(0), gq(1)), (gq(-1), gq(0))), (2, 1)),
        TangentCertificate((), (), ()),
    ]
    for cert in forged:
        verdicts.append(tangent_ok(cert))
        assert verdicts[-1] == retired_tangent_rule(cert)
    # both verdicts occur often: a forgery can still pass, as a dropped-image
    # copy whose remaining images lead at m - 1, ..., 1 does
    assert len(verdicts) == 6 * 787 + 3
    assert 787 < sum(verdicts) < len(verdicts) - 787


def test_tangent_ok_runs_no_elimination(monkeypatch):
    certs = [tangent_construction(jordan_to_frobenius(spec))
             for spec in (JordanSpec.of({0: [1, 3], 1: [1]}), JordanSpec.of({gq("1/2"): [2, 4]}))]

    def refuse(*args):
        raise AssertionError("tangent_ok ran an elimination")

    monkeypatch.setattr(jacobian, "_bareiss", refuse)
    monkeypatch.setattr(proofs, "_bareiss", refuse)
    for cert in certs:
        assert tangent_ok(cert)
        assert not tangent_ok(TangentCertificate(cert.directions, cert.images[::-1], cert.pivots))


def test_tangent_ok_refuses_float_images():
    for images in (((0j, 1 + 0j), (-1 + 0j, 0j)), ((gq(0), gq(1)), (-1.0, gq(0)))):
        with pytest.raises(ValueError, match="must be exact"):
            tangent_ok(TangentCertificate((1, 2), images, (2, 1)))


def test_nullspace_basis_reads_block_sizes_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("nullspace_basis looked up the combinatorics")

    monkeypatch.setattr(proofs, "required_order", refuse)
    spec = JordanSpec.of({gq("1/2"): [1, 1, 2], gq("1/3", 1): [1, 2], 0: [3]})
    cert = nullspace_basis(spec)
    assert [(v.eigenvalue, v.order) for v in cert.vectors] == [
        (gq("1/2"), 0), (gq("1/2"), 1), (gq("1/3", 1), 0)]
    assert len(cert.vectors) == spec.n - min_poly_degree(spec)


def test_tangent_images_match_symbolic_route():
    # images coincide with explicit directional derivatives of the built matrix
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    fspec = jordan_to_frobenius(spec)
    B = build_frobenius(fspec)
    cert = tangent_construction(fspec)
    for i, image in zip(cert.directions, cert.images):
        assert image == directional_derivative(B, tangent_direction(fspec, i))
    assert rank_exact(cert.images) == fspec.min_degree


def test_tangent_rank_property():
    pool = [gq(0), gq(1), gq(-1)]
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            fspec = jordan_to_frobenius(spec)
            cert = tangent_construction(fspec)
            assert len(cert.images) == fspec.min_degree
            assert tangent_ok(cert)


def test_tangent_direction_range():
    fspec = FrobeniusSpec((Polynomial.make([0, 0, 1]),))
    with pytest.raises(ValueError):
        tangent_direction(fspec, 0)
    with pytest.raises(ValueError):
        tangent_direction(fspec, 3)


def test_sigma_linearity_t_squared_coefficients():
    # direct check: sigma_1(B + H(e_2)) - sigma_1(B) = -1, untouched by e_1
    fspec = FrobeniusSpec((Polynomial.make([0, 0, 1]),))
    B = build_frobenius(fspec)
    base = symmetrize(B)
    bumped = SquareMatrix.from_rows([[0, 1], [0, -1]])
    assert symmetrize(bumped)[0] - base[0] == gq(-1)


def test_sigma_linearity_zero_and_doubling():
    fspec = jordan_to_frobenius(JordanSpec.of({0: [1, 2], 2: [2]}))
    B = build_frobenius(fspec)
    base = symmetrize(B)
    m = fspec.min_degree
    n = fspec.n
    rng = random.Random(23)
    h = [random_gaussian_rational(rng, 3) for _ in range(m)]
    rows = [list(r) for r in B.entries]
    for j, hj in enumerate(h):
        rows[n - 1][n - m + j] = rows[n - 1][n - m + j] - hj
    single = tuple(a - b for a, b in zip(symmetrize(SquareMatrix.from_rows(rows, EXACT)), base))
    rows = [list(r) for r in B.entries]
    for j, hj in enumerate(h):
        rows[n - 1][n - m + j] = rows[n - 1][n - m + j] - (hj + hj)
    double = tuple(a - b for a, b in zip(symmetrize(SquareMatrix.from_rows(rows, EXACT)), base))
    assert double == tuple(x + x for x in single)
    # h = 0 leaves every coefficient unchanged
    zero_h = tuple(gq(0) for _ in range(m))
    rows = [list(r) for r in B.entries]
    for j, hj in enumerate(zero_h):
        rows[n - 1][n - m + j] = rows[n - 1][n - m + j] - hj
    assert symmetrize(SquareMatrix.from_rows(rows, EXACT)) == base


#: the rational pool of the CI sweep pin: common denominators up to 6
SWEEP_RATIONAL_POOL = (gq("1/2"), gq("-1/3", 1), gq("2/3"), gq(0, 1), gq(0))


@pytest.mark.parametrize("pool", [DEFAULT_POOL, SWEEP_RATIONAL_POOL], ids=["default", "rational"])
def test_sigma_moves_by_the_tangent_images_exactly(pool):
    # det(tI - M) is linear in M's last row, so moving that row of F by H(h)
    # moves sigma by exactly sum_j h_j * image_j: the images are the slopes.
    # H(h) is built here, not by tangent_direction: -h_j at (n - 1, n - m + j)
    rng = random.Random(5)
    checked = 0
    for n in range(1, 6):
        for spec in enumerate_jordan_specs(n, pool):
            fspec = jordan_to_frobenius(spec)
            m = fspec.min_degree
            F = build_frobenius(fspec)
            images = tangent_construction(fspec).images
            h = [random_gaussian_rational(rng, 4) for _ in range(m)]
            rows = [list(r) for r in F.entries]
            for j, hj in enumerate(h):
                rows[n - 1][n - m + j] = rows[n - 1][n - m + j] - hj
            moved = symmetrize(SquareMatrix.from_rows(rows, EXACT))
            slope = [gq(0)] * n
            for hj, image in zip(h, images):
                slope = [s + hj * x for s, x in zip(slope, image)]
            assert tuple(a - b for a, b in zip(moved, symmetrize(F))) == tuple(slope), spec
            checked += 1
    assert checked == 786


def test_order_of_vanishing_scalar_pair():
    spec = JordanSpec.of({0: [1, 1]})
    B = build_jordan(spec)
    M = SquareMatrix.from_rows([[2, 1], [1, 3]])  # det 5, nonzero
    report = order_of_vanishing(spec, linear_curve(B, M), gq(0), 0)
    assert report.observed_order == 2
    assert report.required_order == 2
    assert report.passed
    # singular direction pushes the order to infinity
    singular = SquareMatrix.from_rows([[1, 1], [1, 1]])
    report = order_of_vanishing(spec, linear_curve(B, singular), gq(0), 0)
    assert report.observed_order is None
    assert report.passed


def test_order_of_vanishing_non_derogatory():
    rng = random.Random(29)
    spec = JordanSpec.of({1: [3]})
    B = build_jordan(spec)
    M = SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 3) for _ in range(3)] for _ in range(3)], EXACT)
    for k in range(3):
        report = order_of_vanishing(spec, linear_curve(B, M), gq(1), k)
        assert report.required_order == 1
        assert report.passed


def test_order_of_vanishing_constant_curve():
    spec = JordanSpec.of({0: [1, 2]})
    B = build_jordan(spec)
    curve = MatrixPolynomial((B,))
    for k in range(3):
        report = order_of_vanishing(spec, curve, gq(0), k)
        assert report.observed_order is None
        assert report.passed


def test_order_of_vanishing_quadratic_curve():
    rng = random.Random(37)
    spec = JordanSpec.of({0: [2, 2]})
    B = build_jordan(spec)
    mats = [
        SquareMatrix.from_rows(
            [[random_gaussian_rational(rng, 2) for _ in range(4)] for _ in range(4)], EXACT)
        for _ in range(2)
    ]
    curve = MatrixPolynomial((B, mats[0], mats[1]))
    for k in range(4):
        assert order_of_vanishing(spec, curve, gq(0), k).passed


def reference_curve_char_coeffs(curve: MatrixPolynomial) -> list:
    """The former curve expansion: Faddeev-LeVerrier over Polynomial entries
    with Gaussian-rational coefficients; c_0..c_n of det(tI - Phi)."""
    n = curve.n
    entries = [[curve.entry_poly(i, j) for j in range(n)] for i in range(n)]
    coeffs, _ = reference_charpoly(entries, Polynomial.zero(), Polynomial.one())
    return coeffs


def former_required_order(sizes, k) -> int:
    """The former rule: with the block starts 1, 1 + s_1, 1 + s_1 + s_2, ...
    of the ascending sizes, orders[i-1] is 1 plus the number of starts in
    the window [m - i + 2, m], and the k-th derivative value needs
    orders[m - k - 1]."""
    m = sum(sizes)
    starts = [1]
    for s in sizes[:-1]:
        starts.append(starts[-1] + s)
    orders = [1 + sum(1 for b in starts if m - i + 2 <= b <= m) for i in range(1, m + 1)]
    return orders[m - k - 1]


def test_required_order_matches_the_former_window_rule():
    cases = 0
    for m in range(1, 13):
        for sizes in integer_partitions(m):
            for k in range(m):
                assert required_order(sizes, k) == former_required_order(sizes, k), (sizes, k)
                cases += 1
    assert cases == 2646


def reference_order_of_vanishing(spec, coeffs, lam, k) -> VanishingReport:
    """The former report: the k-th t-derivative at lam over Gaussian rationals,
    against the former window rule."""
    value = Polynomial.zero()
    for p in range(k, spec.n + 1):
        value = value + coeffs[p] * (falling_factorial(p, k) * lam ** (p - k))
    observed = next((q for q, c in enumerate(value.coefficients) if c), None)
    sizes = next(blk.sizes for blk in spec.blocks if blk.eigenvalue == lam)
    required = former_required_order(sizes, k)
    return VanishingReport(lam, k, observed, required, observed is None or observed >= required)


def _check_taylor_digits(spec, curve, expected) -> None:
    """Split each packed T_k(2^w) of ``proofs._curve_taylor_coeffs`` into
    balanced base-2^w digits and compare them with D^(n-k) times the u^k
    Taylor coefficient of det(tI - Phi) at lam, sum_p C(p, k) lam^(p-k)
    c_p(Phi), from the Fraction expansion ``expected``; D is the common
    denominator of the curve.  Also check the width against its bound
    2^(w-1) > (n L_lam)^n, L_lam = D (L + |lam|_1) with L the largest entry
    l1 norm of Phi."""
    n, degree = spec.n, len(curve.coefficients) - 1
    d = math.lcm(*(x.denominator for c in curve.coefficients for row in c.entries
                   for z in row for x in (z.re, z.im)))
    norm = max(sum(abs(z.re) + abs(z.im) for z in curve.entry_poly(i, j).coefficients)
               for i in range(n) for j in range(n))
    w, taylor = proofs._curve_taylor_coeffs(curve, spec)
    assert len(taylor) == len(spec.blocks)
    for blk, values in zip(spec.blocks, taylor):
        lam = blk.eigenvalue
        assert 2 ** (w - 1) > (n * max(d * (norm + abs(lam.re) + abs(lam.im)), 1)) ** n
        assert len(values) == sum(blk.sizes)
        for k, (re, im) in enumerate(values):
            ref = Polynomial.zero()
            for p in range(k, n + 1):
                ref = ref + expected[p] * (math.comb(p, k) * lam ** (p - k))
            count = (n - k) * degree + 1
            want = [c * d ** (n - k) for c in ref.coefficients]
            want += [gq(0)] * (count - len(want))
            split = balanced_splitter(w, count)
            assert [gq(x, y) for x, y in zip(split(re), split(im))] == want


def _oracle_curves(spec, rng):
    """Constant, Gaussian-integer linear, rational linear and rational
    quadratic curves through the spec's matrix."""
    n = spec.n
    B = build_jordan(spec)

    def draw(rational):
        def entry():
            if rational:
                return random_gaussian_rational(rng, 3)
            return gq(rng.randint(-3, 3), rng.randint(-3, 3))
        return SquareMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)], EXACT)

    return [MatrixPolynomial((B,)), linear_curve(B, draw(False)), linear_curve(B, draw(True)),
            MatrixPolynomial((B, draw(True), draw(True)))]


@pytest.mark.parametrize("n", range(1, 6))
def test_curve_char_coeffs_and_reports_match_fraction_expansion(n):
    # the packed T_k are the characteristic coefficients c_k(D*Phi - D*lam*I)
    # of the curve shifted by each eigenvalue
    # 1/2 - 2i/3 puts rational entries in B and a rational lam in every query
    pool = [gq(0), gq("1/2", "-2/3"), gq(0, 1)]
    specs = list(enumerate_jordan_specs(n, pool))
    rng = random.Random(500 + n)
    compared = 0
    # the last spec has the most distinct eigenvalues of the pool
    for spec in rng.sample(specs, min(4, len(specs))) + [specs[-1]]:
        for curve in _oracle_curves(spec, rng):
            expected = reference_curve_char_coeffs(curve)
            _check_taylor_digits(spec, curve, expected)
            for blk in spec.blocks:
                for k in range(sum(blk.sizes)):
                    got = order_of_vanishing(spec, curve, blk.eigenvalue, k)
                    assert got == reference_order_of_vanishing(spec, expected, blk.eigenvalue, k)
                    compared += 1
    assert compared >= 5 * n


def test_balanced_digits_round_trip_and_refuse_a_remainder():
    rng = random.Random(3)
    for _ in range(200):
        w, count = rng.randint(2, 70), rng.randint(1, 6)
        digits = [rng.randrange(-2 ** (w - 1), 2 ** (w - 1)) for _ in range(count)]
        value = sum(digit << (q * w) for q, digit in enumerate(digits))
        assert balanced_splitter(w, count)(value) == digits
    # two base-16 digits hold exactly -136..119
    split = balanced_splitter(4, 2)
    assert split(119) == [7, 7] and split(-136) == [-8, -8]
    for value in (120, -137, 1 << 8):
        with pytest.raises(ArithmeticError):
            split(value)


def _kronecker_stress_curves(spec, rng):
    """A rational curve of degree 8-12, linear and quadratic curves with
    entries of at least 2^40, and a linear curve whose top zeta-coefficient of
    T_0, 2^(n-1) (D a)^n, is close to L_lam^n: a digit width that drops the
    factor n from the (n L_lam)^n bound splits it wrongly for n >= 2."""
    n = spec.n
    B = build_jordan(spec)

    def big():
        return rng.choice([-1, 1]) * rng.randint(2 ** 40, 2 ** 64)

    def draw(entry):
        return SquareMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)], EXACT)

    def rational():
        return random_gaussian_rational(rng, 3)

    def large():
        return gq(Fraction(big(), rng.randint(1, 5)), Fraction(big(), rng.randint(1, 5)))

    # a on and above the diagonal, -a below: determinant 2^(n-1) a^n, with
    # a^n just above a power of two
    a = 2 ** 40 + 1
    extreme = SquareMatrix.from_rows(
        [[gq(a if i <= j else -a) for j in range(n)] for i in range(n)], EXACT)
    return [MatrixPolynomial((B,) + tuple(draw(rational) for _ in range(rng.randint(8, 12)))),
            linear_curve(B, draw(large)), MatrixPolynomial((B, draw(large), draw(large))),
            linear_curve(B, extreme)]


@pytest.mark.parametrize("n", range(1, 5))
def test_curve_char_coeffs_match_fraction_expansion_at_high_degree_and_size(n):
    # T_k = c_k(D*Phi - D*lam*I), as in the test above
    pool = [gq(0), gq("1/2", "-2/3"), gq(0, 1)]
    specs = list(enumerate_jordan_specs(n, pool))
    rng = random.Random(700 + n)
    for spec in (rng.choice(specs), specs[-1]):
        for curve in _kronecker_stress_curves(spec, rng):
            expected = reference_curve_char_coeffs(curve)
            _check_taylor_digits(spec, curve, expected)
            for blk in spec.blocks:
                for k in range(sum(blk.sizes)):
                    got = order_of_vanishing(spec, curve, blk.eigenvalue, k)
                    assert got == reference_order_of_vanishing(spec, expected, blk.eigenvalue, k)


def test_curve_expanded_once_per_curve(monkeypatch):
    calls = []
    original = proofs.charpoly_in_ring

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(proofs, "charpoly_in_ring", counting)
    rng = random.Random(61)
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    B = build_jordan(spec)
    M = SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 4) for _ in range(4)] for _ in range(4)], EXACT)
    curve = linear_curve(B, M)
    queries = [(blk.eigenvalue, k) for blk in spec.blocks for k in range(sum(blk.sizes))]
    first = [order_of_vanishing(spec, curve, lam, k) for lam, k in queries]
    assert len(queries) == spec.n and len(calls) == 1
    # an equal but distinct curve is expanded again and answers the same
    twin = MatrixPolynomial(tuple(curve.coefficients))
    assert twin == curve and twin is not curve
    assert [order_of_vanishing(spec, twin, lam, k) for lam, k in queries] == first
    assert len(calls) == 2
    # a different curve in between never sees the last curve's coefficients
    other = linear_curve(B, SquareMatrix.identity(4))
    expected = reference_curve_char_coeffs(other)
    assert [order_of_vanishing(spec, other, lam, k) for lam, k in queries] == [
        reference_order_of_vanishing(spec, expected, lam, k) for lam, k in queries]
    assert [order_of_vanishing(spec, curve, lam, k) for lam, k in queries] == first
    assert len(calls) == 4


def test_base_checked_once_per_curve_and_spec(monkeypatch):
    calls = []
    original = proofs.build_jordan

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(proofs, "build_jordan", counting)
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    curve = linear_curve(original(spec), SquareMatrix.identity(4))
    queries = [(blk.eigenvalue, k) for blk in spec.blocks for k in range(sum(blk.sizes))]
    first = [order_of_vanishing(spec, curve, lam, k) for lam, k in queries]
    assert len(queries) == spec.n and len(calls) == 1
    # the cached curve still refuses a spec whose matrix differs
    other = JordanSpec.of({0: [2, 2]})
    assert original(other) != curve.coefficients[0]
    with pytest.raises(ValueError, match="curve base mismatch"):
        order_of_vanishing(other, curve, gq(0), 0)
    assert len(calls) == 2
    assert [order_of_vanishing(spec, curve, lam, k) for lam, k in queries] == first
    assert len(calls) == 2


def test_curve_and_eigenvalues_cleared_once_per_curve_and_spec(monkeypatch):
    calls = []
    original = proofs.to_gaussian_integers

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(proofs, "to_gaussian_integers", counting)
    rng = random.Random(62)
    half, i = gq("1/2"), gq(0, 1)
    spec = JordanSpec.of({half: [1, 2], i: [1]})
    M = SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 4) for _ in range(4)] for _ in range(4)], EXACT)
    curve = linear_curve(build_jordan(spec), M)
    queries = [(blk.eigenvalue, k) for blk in spec.blocks for k in range(sum(blk.sizes))]
    reports = [order_of_vanishing(spec, curve, lam, k) for lam, k in queries]
    # the curve's rows once; each eigenvalue is read off their diagonal
    assert len(calls) == 1 and len(calls[0]) == 2 * spec.n
    # the memo holds the Taylor coefficients below each multiplicity, per
    # block of the spec
    last_curve, last_spec, _, taylor = proofs._last_query
    assert last_curve is curve and last_spec is spec
    assert [len(values) for values in taylor] == [3, 1]
    expected = reference_curve_char_coeffs(curve)
    assert reports == [reference_order_of_vanishing(spec, expected, lam, k) for lam, k in queries]


def test_order_of_vanishing_clears_once_per_pair(monkeypatch):
    calls = []
    original = proofs.to_gaussian_integers

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(proofs, "to_gaussian_integers", counting)
    rng = random.Random(64)
    # eigenvalue denominators 2, 3 and 5 next to 0, blocks that start late
    specs = [JordanSpec.of({0: [1, 1, 2], gq("1/2"): [1, 2], gq("-1/3", 1): [2]}),
             JordanSpec.of({gq(0, "2/5"): [1, 1, 1], gq("3/2", "-1/3"): [3]})]
    pairs = 0
    for spec in specs:
        B = build_jordan(spec)
        for degree in (1, 2):
            curve = MatrixPolynomial((B,) + tuple(
                SquareMatrix.from_rows([[random_gaussian_rational(rng, 3) for _ in range(spec.n)]
                                        for _ in range(spec.n)], EXACT)
                for _ in range(degree)))
            queries = [(blk.eigenvalue, k) for blk in spec.blocks for k in range(sum(blk.sizes))]
            reports = [order_of_vanishing(spec, curve, lam, k) for lam, k in queries]
            pairs += 1
            assert len(calls) == pairs
            expected = reference_curve_char_coeffs(curve)
            assert reports == [reference_order_of_vanishing(spec, expected, lam, k)
                               for lam, k in queries]
    assert max(r.required_order for r in reports) == 3


def test_spec_eigenvalues_cleared_once_per_frobenius_and_vandermonde_call(monkeypatch):
    from symrank import canonical

    calls = []
    original = proofs.to_gaussian_integers

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(proofs, "to_gaussian_integers", counting)
    monkeypatch.setattr(canonical, "to_gaussian_integers", counting)
    # three eigenvalue denominators: 2, 3 and 5, so e = 30
    lams = [gq("1/2"), gq("-1/3", 1), gq(0, "2/5")]
    spec = JordanSpec.of({lams[0]: [1, 2], lams[1]: [1], lams[2]: [2, 2]})
    fspec = jordan_to_frobenius(spec)
    assert calls == [[lams]]
    assert fspec == FrobeniusSpec(fspec.invariant_factors)
    assert all(p.is_monic for p in fspec.invariant_factors)
    result = confluent_vandermonde_det([(lam, sum(blk.sizes)) for lam, blk in zip(lams, spec.blocks)])
    assert calls == [[lams], [lams]]
    assert result.matches


def test_lowest_digit_is_the_valuation_over_the_digit_width():
    rng = random.Random(11)

    def pack(digits, w):
        return sum(x << (q * w) for q, x in enumerate(digits))

    for _ in range(500):
        w, count = rng.randint(1, 40), rng.randint(1, 6)
        zeros = rng.randint(0, count)
        re, im = ([0] * zeros + [rng.randrange(1 - 2 ** w, 2 ** w) for _ in range(count - zeros)]
                  for _ in range(2))
        if rng.random() < 0.3:
            im = [0] * count
        nonzero = [q for q in range(count) if re[q] or im[q]]
        got = proofs._lowest_digit(w, pack(re, w), pack(im, w))
        assert got == (nonzero[0] if nonzero else None)
        # with every digit below 2^w, a packed part is zero iff its digits are
        assert (pack(re, w) == 0) == (not any(re))
    # a digit of 2^w carries into the next position: the order reads one too
    # high, and a digit list that is not zero can pack to zero
    assert proofs._lowest_digit(5, pack([2 ** 5, 1], 5), 0) == 1
    assert pack([2 ** 5, -1], 5) == 0
    assert proofs._lowest_digit(5, pack([2 ** 5, -1], 5), 0) is None


def test_order_of_vanishing_refuses_a_foreign_eigenvalue():
    spec = JordanSpec.of({0: [1, 2], 1: [1]})
    for lam in (gq(2), 2, gq("1/2"), gq(0, 1)):
        curve = linear_curve(build_jordan(spec), SquareMatrix.identity(4))
        # on a fresh (curve, spec) pair, then on the memoized one
        for _ in range(2):
            with pytest.raises(ValueError, match="is not an eigenvalue of this spec"):
                order_of_vanishing(spec, curve, lam, 0)
        assert order_of_vanishing(spec, curve, 1, 0).passed


def test_equal_eigenvalues_share_one_memo_entry():
    rng = random.Random(63)
    spec = JordanSpec.of({0: [1], 1: [1, 2]})
    M = SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 4) for _ in range(4)] for _ in range(4)], EXACT)
    curve = linear_curve(build_jordan(spec), M)
    expected = reference_curve_char_coeffs(curve)
    order_of_vanishing(spec, curve, 0, 0)
    memo = proofs._last_query
    for k in range(3):
        reports = [order_of_vanishing(spec, curve, lam, k) for lam in (1, Fraction(1), gq(1))]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0] == reference_order_of_vanishing(spec, expected, gq(1), k)
        assert proofs._last_query is memo


def test_order_of_vanishing_rejects_mismatched_base():
    spec = JordanSpec.of({0: [1, 1]})
    wrong = SquareMatrix.identity(2)
    with pytest.raises(ValueError, match="base mismatch"):
        order_of_vanishing(spec, MatrixPolynomial((wrong,)), gq(0), 0)


def test_order_of_vanishing_rejects_bad_order():
    spec = JordanSpec.of({0: [1, 1]})
    curve = MatrixPolynomial((build_jordan(spec),))
    with pytest.raises(ValueError):
        order_of_vanishing(spec, curve, gq(0), 2)


def test_curve_json_round_trip():
    spec = JordanSpec.of({0: [2]})
    B = build_jordan(spec)
    curve = linear_curve(B, SquareMatrix.identity(2))
    assert MatrixPolynomial.from_json(curve.to_json()) == curve


def test_certificate_counts_bracket_rank():
    # the two certificates together pin the rank: (n - m) + m = n vectors
    pool = [gq(0), gq(1)]
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            m = min_poly_degree(spec)
            null_cert = nullspace_basis(spec)
            tan_cert = tangent_construction(jordan_to_frobenius(spec))
            assert len(null_cert.vectors) + len(tan_cert.images) == spec.n
            if null_cert.vectors:
                assert rank_exact([v.vector for v in null_cert.vectors]) == spec.n - m


# ---------------------------------------------------------------------------
# the Gaussian-integer certificates against the Gaussian-rational routes

#: 1/2 and 1/3 + 2/5 i give denominators 2 and 15, so their Jordan matrices
#: and Vandermonde columns are scaled, where the default pool's are not
RATIONAL_POOL = (gq(0), gq("1/2"), gq("1/3", "2/5"))


def reference_vandermonde_det(clusters) -> VandermondeComparison:
    """The former determinant: monomial_vector columns over Gaussian
    rationals, eliminated row by row; the rest as confluent_vandermonde_det."""
    groups = [(lam, mult) for lam, mult in clusters]
    n = sum(m for _, m in groups)
    columns = [monomial_vector(n, d, lam) for lam, mult in groups for d in range(mult)]
    _, det = reference_eliminate([[columns[c][r] for c in range(n)] for r in range(n)])
    expected = confluent_vandermonde_det(clusters)
    return VandermondeComparison(
        det, (det * det.conjugate()).re, expected.closed_abs_squared, expected.closed_form_abs,
        (det * det.conjugate()).re == expected.closed_abs_squared)


@pytest.mark.parametrize("pool", [DEFAULT_POOL, RATIONAL_POOL], ids=["default", "rational"])
def test_vandermonde_matches_gaussian_rational_route(pool):
    compared = 0
    for n in range(1, 6):
        for spec in enumerate_jordan_specs(n, pool):
            clusters = [(blk.eigenvalue, sum(blk.sizes)) for blk in spec.blocks]
            got = confluent_vandermonde_det(clusters)
            assert got == reference_vandermonde_det(clusters)
            assert got.matches
            compared += 1
    assert compared > 100


def reference_confluent_vandermonde_det(clusters) -> VandermondeComparison:
    """The former route: the same scaled columns and Bareiss pass, then
    |det|^2 as det times its conjugate and the closed form as Fraction and
    GaussianRational arithmetic on the eigenvalues."""
    import math

    from symrank.jacobian import _bareiss
    from symrank.scalars import (GQ_ZERO, coerce_scalar, to_gaussian_integers,
                                 to_gaussian_rationals)

    groups = [(coerce_scalar(lam, EXACT), int(mult)) for lam, mult in clusters]
    n = sum(m for _, m in groups)
    cols_re, cols_im, scale = [], [], 1
    for lam, mult in groups:
        e, ((a_re,),), ((a_im,),) = to_gaussian_integers([[lam]])
        powers = [(1, 0)]
        for _ in range(n - 1):
            x, y = powers[-1]
            powers.append((x * a_re - y * a_im, x * a_im + y * a_re))
        for d in range(mult):
            col_re, col_im = [0] * n, [0] * n
            for j in range(1, n - d + 1):
                p = n - j
                s = falling_factorial(p, d) * e ** (j - 1) * (-1 if j % 2 else 1)
                x, y = powers[p - d]
                col_re[j - 1], col_im[j - 1] = x * s, y * s
            cols_re.append(col_re)
            cols_im.append(col_im)
            scale *= e ** (n - 1 - d)
    rank, (p_re, p_im), sign = _bareiss([list(row) for row in zip(*cols_re)],
                                        [list(row) for row in zip(*cols_im)])
    if rank < n:
        det = GQ_ZERO
    else:
        ((det,),) = to_gaussian_rationals(scale, [[p_re * sign]], [[p_im * sign]])
    det_abs2 = (det * det.conjugate()).re
    factorial_part = 1
    for _, mult in groups:
        for j in range(mult):
            factorial_part *= math.factorial(j)
    closed_abs2 = Fraction(factorial_part) ** 2
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            diff = groups[b][0] - groups[a][0]
            closed_abs2 *= diff.abs2() ** (groups[a][1] * groups[b][1])
    return VandermondeComparison(det, det_abs2, closed_abs2, math.sqrt(float(closed_abs2)),
                                 det_abs2 == closed_abs2)


def _cluster_patterns(pool, n):
    """Every choice of distinct pool values (pool order) with every
    composition of n into their multiplicities."""
    import itertools

    from symrank.cli import compositions

    for k in range(1, min(len(pool), n) + 1):
        for subset in itertools.combinations(pool, k):
            for comp in compositions(n, k):
                yield list(zip(subset, comp))


@pytest.mark.parametrize("pool", [DEFAULT_POOL, (gq("1/2"), gq("-2/3", "1/5"), gq(0, "3/4"))],
                         ids=["default", "denominators"])
def test_vandermonde_equals_the_fraction_route(pool):
    compared = 0
    for n in range(1, 8):
        for clusters in _cluster_patterns(pool, n):
            got = confluent_vandermonde_det(clusters)
            want = reference_confluent_vandermonde_det(clusters)
            assert got == want
            assert repr(got) == repr(want)
            assert repr(got.closed_form_abs) == repr(want.closed_form_abs)
            assert got.matches
            compared += 1
    assert compared == {5: 791, 3: 119}[len(pool)]


def test_vandermonde_determinant_independent_of_closed_form():
    # the reference above borrows the closed form; the determinant alone
    # against cofactor expansion, with scaled columns (e = 15 and e = 2)
    clusters = [(gq("1/3", "2/5"), 2), (gq("1/2"), 2), (gq(0), 1)]
    n = 5
    columns = [monomial_vector(n, d, lam) for lam, mult in clusters for d in range(mult)]
    direct = laplace_det([[columns[c][r] for c in range(n)] for r in range(n)])
    result = confluent_vandermonde_det(clusters)
    assert result.determinant == direct
    assert result.matches


def test_tangent_construction_builds_one_adjugate_per_spec(monkeypatch):
    calls = []
    original = jacobian.char_and_adjugate

    def counting(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(jacobian, "char_and_adjugate", counting)
    for spec in [JordanSpec.of({0: [1, 3], 1: [1]}), JordanSpec.of({gq("1/2"): [4]})]:
        fspec = jordan_to_frobenius(spec)
        before = len(calls)
        cert = tangent_construction(fspec)
        assert len(cert.images) == fspec.min_degree == 4
        assert len(calls) == before + 1
        # the matrix itself, not its Jacobian, costs one adjugate per direction
        B = build_frobenius(fspec)
        for i, image in zip(cert.directions, cert.images):
            assert image == directional_derivative(B, tangent_direction(fspec, i))
        assert len(calls) == before + 1 + 4
        assert tangent_ok(cert)


def test_tangent_construction_reads_the_jacobian_over_z_i(monkeypatch):
    # the n = 7 rational spec: images with denominators, and no Gaussian
    # rationals built for the derivative matrix itself
    spec = JordanSpec.from_json({"n": 7, "blocks": [
        {"eigenvalue": ["1/2", "0/1"], "sizes": [1, 1, 2]},
        {"eigenvalue": ["1/3", "1/1"], "sizes": [1, 2]}]})
    jacobians = []
    original = proofs.jacobian_exact

    def keeping(B):
        jacobians.append(original(B))
        return jacobians[-1]

    monkeypatch.setattr(proofs, "jacobian_exact", keeping)
    fspec = jordan_to_frobenius(spec)
    cert = tangent_construction(fspec)
    assert tangent_ok(cert)
    assert any(x.re.denominator > 1 or x.im.denominator > 1
               for image in cert.images for x in image)
    (jac,) = jacobians
    assert "rows" not in jac.__dict__
    # nor for the Frobenius matrix and the directions: they are split rows too
    assert "entries" not in build_frobenius(fspec).__dict__
    assert "entries" not in tangent_direction(fspec, 1).__dict__


def reference_annihilation(cert, B) -> bool:
    """The former check: Gaussian-rational dot products with J(B)'s columns."""
    jac = jacobian_exact(B)
    return all(not dot(v.vector, tuple(row[c] for row in jac.rows))
               for v in cert.vectors for c in range(B.n * B.n))


@pytest.mark.parametrize("pool", [DEFAULT_POOL, RATIONAL_POOL], ids=["default", "rational"])
def test_verify_annihilation_matches_gaussian_rational_route(pool):
    broken = 0
    for n in range(1, 5):
        for spec in enumerate_jordan_specs(n, pool):
            B = build_jordan(spec)
            cert = nullspace_basis(spec)
            assert verify_annihilation(cert, B) == reference_annihilation(cert, B) is True
            if not cert.vectors:
                continue
            # move one entry of the last vector at a time
            v = cert.vectors[-1]
            for k in range(n):
                vec = list(v.vector)
                vec[k] = vec[k] + gq("1/3")
                bumped = NullspaceCertificate(cert.vectors[:-1] + (
                    NullVector(v.eigenvalue, v.order, tuple(vec)),))
                expected = reference_annihilation(bumped, B)
                assert verify_annihilation(bumped, B) == expected
                broken += not expected
    assert broken > 20


def test_verify_annihilation_rejects_wrong_length():
    spec = JordanSpec.of({0: [1, 1]})
    v = nullspace_basis(spec).vectors[0]
    short = NullspaceCertificate((NullVector(v.eigenvalue, v.order, v.vector[:1]),))
    with pytest.raises(ValueError, match="length mismatch"):
        verify_annihilation(short, build_jordan(spec))


@pytest.mark.parametrize("call, error, message", [
    # + adds two polynomials only, and the SVD reads float matrices only
    (lambda: Polynomial.one() + 1, TypeError, "unsupported operand"),
    (lambda: numeric_rank_profile(jacobian_exact(SquareMatrix.identity(2))), TypeError, None),
    (lambda: SquareMatrix.identity(2) @ 2, TypeError, "expected a SquareMatrix"),
    (lambda: SquareMatrix.identity(2) + SquareMatrix.identity(3), ValueError, "size mismatch"),
    (lambda: SquareMatrix.identity(2) - SquareMatrix.identity(2, "float"), ValueError,
     "field mismatch"),
    (lambda: Polynomial.zero().leading, ValueError, "no leading coefficient"),
    (lambda: Polynomial.one().divmod_exact(Polynomial.zero()), ZeroDivisionError,
     "division by zero"),
    (lambda: sym_poly_eval((gq(1),), -1, gq(0)), ValueError, "must be non-negative"),
    (lambda: dot((), ()), ValueError, "empty vectors"),
    (lambda: spectral_radius_bound(SquareMatrix.identity(2, "float"), -1), ValueError,
     "iteration count"),
    (lambda: verify_annihilation(NullspaceCertificate((NullVector(gq(0), 0, (0j, 1 + 0j)),)),
                                 build_jordan(JordanSpec.of({0: [1, 1]}))), ValueError,
     "vectors must be exact"),
    (lambda: divided_difference([], {}), ValueError, "at least one node"),
    (lambda: divided_difference([gq(0), gq(1)], {gq(0): [gq(1)]}), ValueError,
     "no data supplied for node 1"),
    (lambda: genocchi_hermite_check(3, 1, 0.0, (1e-2, 0.0)), ValueError,
     "eps values must be positive"),
    (lambda: order_of_vanishing(JordanSpec.of({0: [1, 1]}),
                                linear_curve(*[SquareMatrix.zeros(2).to_float()] * 2), 0, 0),
     ValueError, "computed in the exact field"),
    (lambda: coerce_scalar(1, "fp"), ValueError, "unknown field 'fp'"),
    (lambda: scalar_from_json(["1/1", "0/1"], "fp"), ValueError, "unknown field 'fp'"),
    (lambda: parse_eigenvalue("  "), ValueError, "empty eigenvalue"),
], ids=["polynomial-plus-int", "svd-exact-matrix", "matmul-non-matrix", "add-sizes",
        "sub-fields", "zero-leading", "divmod-by-zero", "sym-poly-negative-order", "dot-empty",
        "spectral-negative-iterations", "annihilation-float-covector",
        "divided-difference-no-nodes", "divided-difference-no-data", "genocchi-zero-eps",
        "ord-float-curve", "coerce-unknown-field", "json-unknown-field", "blank-eigenvalue"])
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
