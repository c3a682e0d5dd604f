"""Exact and float scalar field behavior."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from symrank import scalars
from symrank.scalars import (
    EXACT,
    FLOAT,
    GQ_ZERO,
    GaussianRational,
    coerce_scalar,
    exact_quotients,
    format_eigenvalue,
    gq,
    json_fields,
    normalize_rational,
    parse_eigenvalue,
    parse_rational,
    random_gaussian_rational,
    render_rational,
    scalar_from_json,
    scalar_to_json,
    to_gaussian_integers,
    to_gaussian_rationals,
)
from symrank.matpoly import Polynomial


def test_normalize_gcd_reduction():
    assert normalize_rational(2, 4) == Fraction(1, 2)


def test_normalize_sign():
    assert normalize_rational(3, -6) == Fraction(-1, 2)
    assert normalize_rational(3, -6).denominator == 2


def test_normalize_zero():
    r = normalize_rational(0, 7)
    assert r.numerator == 0 and r.denominator == 1


def test_normalize_zero_denominator_rejected():
    with pytest.raises(ValueError):
        normalize_rational(1, 0)


def test_parse_rational_keeps_the_outer_strip_and_signs():
    assert parse_rational(" -3/6\n") == Fraction(-1, 2)
    assert parse_rational("+4") == 4 and parse_rational("1/-2") == Fraction(-1, 2)


def test_render_parse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(render_rational(r)) == r


def test_parse_rational_rejects_garbage():
    # int() alone would read "_" separators, inner whitespace and non-ASCII
    # digits: 10/3, 12/5, 1/2, 10 and 3
    for bad in ("", "a/b", "1/0", "1//2", "1_0/3", "\u0661\u0662/5", "1 /2", "1/ 2", "1_0",
                "\u0663", "1 0", "1/2/3", "/2", "1/", "+-1", "\uff11/2", "1\n/2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_field_axioms_random_triples():
    # distributivity and associativity must hold bit-exactly
    rng = random.Random(99)
    for _ in range(1000):
        a = random_gaussian_rational(rng)
        b = random_gaussian_rational(rng)
        c = random_gaussian_rational(rng)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_conjugation_involution():
    rng = random.Random(7)
    for _ in range(100):
        a = random_gaussian_rational(rng)
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0


def test_division_inverts_multiplication():
    rng = random.Random(13)
    for _ in range(200):
        a = random_gaussian_rational(rng)
        b = random_gaussian_rational(rng)
        if not b:
            continue
        assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_powers():
    x = gq(2, 1)
    assert x ** 0 == gq(1)
    assert x ** 3 == x * x * x


def _count_products(monkeypatch, cls):
    calls = []
    original = cls.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


@pytest.mark.parametrize("x", [gq("2/3", "-1/2"), Polynomial.make([gq(1, 1), gq("1/2")])],
                         ids=["gaussian_rational", "polynomial"])
def test_power_is_repeated_product_without_a_spare_square(x, monkeypatch):
    one = gq(1) if isinstance(x, GaussianRational) else Polynomial.one()
    expected = one
    for e in range(9):
        assert x ** e == expected
        expected = expected * x
    calls = _count_products(monkeypatch, type(x))
    for e in range(9):
        calls.clear()
        x ** e
        # one product per set bit, one square per bit below the top one
        assert len(calls) == (bin(e).count("1") + e.bit_length() - 1 if e else 0)


def test_scalar_json_exact_round_trip():
    x = gq("3/4", "-1/2")
    encoded = scalar_to_json(x)
    assert encoded == ["3/4", "-1/2"]
    assert scalar_from_json(encoded, EXACT) == x


def test_scalar_json_float_round_trip():
    z = complex(1.5, -2.25)
    encoded = scalar_to_json(z)
    assert encoded == [1.5, -2.25]
    assert scalar_from_json(encoded, FLOAT) == z


def test_scalar_json_field_mismatch():
    with pytest.raises(ValueError):
        scalar_from_json([1.0, 2.0], EXACT)
    with pytest.raises(ValueError):
        scalar_from_json(["1/2", "0/1"], FLOAT)
    with pytest.raises(ValueError):
        scalar_from_json([1.0], FLOAT)


def test_scalar_json_float_rejects_non_finite():
    # JSON 1e400 parses to inf; an int past the float range cannot be converted
    for parts in ([float("inf"), 0.0], [0, float("-inf")], [float("nan"), 0], [10 ** 400, 0]):
        with pytest.raises(ValueError, match="finite"):
            scalar_from_json(parts, FLOAT)


def test_json_fields_returns_values_in_order_and_names_each_fault():
    fields = {"n": int, "name": str, "any": None, "rows": [list]}
    assert json_fields({"rows": [[1]], "any": None, "name": "x", "n": 3, "extra": 0},
                       "thing", fields) == (3, "x", None, [[1]])
    shape = "thing must be an object with 'n' integer, 'name' string, 'any', 'rows', a list of lists"
    cases = [
        ([1], f"{shape}, got [1]"),
        (None, f"{shape}, got None"),
        ({"n": 1, "name": "x", "rows": []}, f"{shape}; 'any' is missing"),
        ({"n": True, "name": "x", "rows": [], "any": 0}, f"{shape}; 'n' must be an integer, got True"),
        ({"n": 1.0, "name": "x", "rows": [], "any": 0}, f"{shape}; 'n' must be an integer, got 1.0"),
        ({"n": 1, "name": 2, "rows": [], "any": 0}, f"{shape}; 'name' must be a string, got 2"),
        ({"n": 1, "name": "x", "rows": [[], {}], "any": 0},
         f"{shape}; 'rows' must be a list of lists, got [[], {{}}]"),
        # a value's repr is cut to its first 60 characters
        ({"n": "9" * 100, "name": "x", "rows": [], "any": 0},
         f"{shape}; 'n' must be an integer, got '{'9' * 59}"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError) as refused:
            json_fields(obj, "thing", fields)
        assert str(refused.value) == message


def test_coerce_rejects_cross_field():
    with pytest.raises(TypeError, match="cannot place 0.5 in the exact field"):
        coerce_scalar(0.5, EXACT)
    with pytest.raises(TypeError):
        coerce_scalar("nope", FLOAT)


def test_coerce_exact_follows_the_arithmetic_rules():
    # an int or Fraction becomes a real Gaussian rational, as it does as an
    # operand of GaussianRational arithmetic; a Gaussian rational passes as is
    x = gq(1, 2)
    assert coerce_scalar(x, EXACT) is x
    for value in (3, Fraction(-2, 7)):
        y = coerce_scalar(value, EXACT)
        assert type(y) is GaussianRational and y == gq(value) and y + x == x + value
    assert coerce_scalar(gq("1/3", -2), FLOAT) == complex(1 / 3, -2)
    with pytest.raises(OverflowError):
        coerce_scalar(gq(10 ** 400), FLOAT)


@pytest.mark.parametrize("exponent", [-1, 0.5, 2.0, "2", None])
@pytest.mark.parametrize("base", [gq("1/2", 1), Polynomial.make([1, gq(0, 1)])],
                         ids=["GaussianRational", "Polynomial"])
def test_power_refuses_a_negative_or_non_int_exponent(base, exponent):
    with pytest.raises(TypeError, match="exponent"):
        base ** exponent


def test_coerce_rejects_non_finite():
    with pytest.raises(Exception):
        coerce_scalar(float("nan"), FLOAT)


def test_eigenvalue_shorthand_round_trip():
    rng = random.Random(3)
    values = [gq(0), gq(1), gq(-1), gq(0, 1), gq(0, -1), gq(2), gq("1/2"), gq(1, 2),
              gq("-1/2", "-3")]
    values += [random_gaussian_rational(rng) for _ in range(50)]
    for v in values:
        assert parse_eigenvalue(format_eigenvalue(v)) == v


def test_eigenvalue_shorthand_unit_imaginary_spellings():
    # a bare, signed or spaced i returns before the split loop
    for text, want in (("i", gq(0, 1)), ("+i", gq(0, 1)), ("-i", gq(0, -1)),
                       (" - i ", gq(0, -1)), ("+ i", gq(0, 1)), ("2i", gq(0, 2)),
                       ("-3/2i", gq(0, "-3/2")), ("1-i", gq(1, -1)), ("1/2+i", gq("1/2", 1))):
        assert parse_eigenvalue(text) == want
    for text in ("++i", "i+", "1+-i"):
        with pytest.raises(ValueError):
            parse_eigenvalue(text)


def test_gaussian_integer_division_raises_on_remainder():
    # division, on split rows: (a b) / b and (6 - 4i) / 2 give a = 3 - 2i
    # back, with b = -1 + 4i and a b = 5 + 14i
    assert exact_quotients([5, 0], [14, 0], -1, 4) == ([3, 0], [-2, 0])
    assert exact_quotients([6], [-4], 2) == ([3], [-2])
    # the one division of the Z[i] kernels, on split rows
    with pytest.raises(ArithmeticError):
        exact_quotients([1], [0], 1, 1)
    with pytest.raises(ArithmeticError):
        exact_quotients([3], [1], 2)
    with pytest.raises(ArithmeticError):
        exact_quotients([4, 3], [2, 0], 2)
    with pytest.raises(ZeroDivisionError):
        exact_quotients([1], [0], 0, 0)
    # an exact quotient with a big divisor and negative parts:
    # (-5 + 7i) q / q for q = q_re + i q_im
    q_re, q_im = 2 ** 70 + 3, -(2 ** 65)
    big_re, big_im = -5 * q_re - 7 * q_im, -5 * q_im + 7 * q_re
    assert exact_quotients([big_re], [big_im], q_re, q_im) == ([-5], [7])
    # a unit divides every Gaussian integer: quotient times divisor gives the
    # rows back, for big and negative parts too
    re, im = [2 ** 70 + 1, -(2 ** 70) - 3, 0, -1], [-(2 ** 71) + 5, 7, 2 ** 70, 0]
    for u_re, u_im in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        q_re, q_im = exact_quotients(re, im, u_re, u_im)
        assert [a * u_re - b * u_im for a, b in zip(q_re, q_im)] == re, (u_re, u_im)
        assert [a * u_im + b * u_re for a, b in zip(q_re, q_im)] == im, (u_re, u_im)


def test_gaussian_integer_conversions():
    d, scaled_re, scaled_im = to_gaussian_integers([[1, Fraction(1, 6)], [gq("1/4", "-1/3"), 0]])
    assert d == 12
    assert scaled_re == [[12, 2], [3, 0]]
    assert scaled_im == [[0, 0], [-4, 0]]
    # every denominator 1: the integer fast path
    assert to_gaussian_integers([[gq(2, -3), 5], [gq(0), Fraction(-4)]]) == (
        1, [[2, 5], [0, -4]], [[-3, 0], [0, 0]])
    rng = random.Random(11)
    for trial in range(50):
        rows = [[random_gaussian_rational(rng) for _ in range(3)] for _ in range(2)]
        if trial % 2:
            rows = [[gq(x.re.numerator, x.im.numerator) for x in row] for row in rows]
        d, scaled_re, scaled_im = to_gaussian_integers(rows)
        assert to_gaussian_rationals(d, scaled_re, scaled_im) == tuple(tuple(r) for r in rows)
    with pytest.raises(TypeError):
        to_gaussian_integers([[gq(1), 0.5]])


def test_to_gaussian_integers_clears_one_scalar():
    # an eigenvalue a/e enters Z[i] as [[x]]: e the lcm of its parts' denominators
    assert to_gaussian_integers([[gq("1/4", "-1/6")]]) == (12, [[3]], [[-2]])
    assert to_gaussian_integers([[gq(-3)]]) == (1, [[-3]], [[0]])
    rng = random.Random(13)
    for x in [GQ_ZERO, gq(0, "-5/4")] + [random_gaussian_rational(rng) for _ in range(50)]:
        e, ((re,),), ((im,),) = to_gaussian_integers([[x]])
        assert e == math.lcm(x.re.denominator, x.im.denominator)
        assert gq(Fraction(re, e), Fraction(im, e)) == x


def test_to_gaussian_integers_reads_the_shared_zero_like_any_zero():
    fresh = GaussianRational(Fraction(0), Fraction(0))
    assert fresh is not GQ_ZERO and fresh == GQ_ZERO
    rows = [[GQ_ZERO, gq("1/6", "-1/4")], [gq(0, 3), GQ_ZERO], [GQ_ZERO, GQ_ZERO]]
    fresh_rows = [[fresh if x is GQ_ZERO else x for x in row] for row in rows]
    assert to_gaussian_integers(rows) == to_gaussian_integers(fresh_rows) == (
        12, [[0, 2], [0, 0], [0, 0]], [[0, -3], [36, 0], [0, 0]])
    assert to_gaussian_integers([[GQ_ZERO]]) == to_gaussian_integers([[fresh]]) == (1, [[0]], [[0]])


def test_negation_keeps_values_and_a_zero_imaginary_part():
    for x in (gq("3/7"), gq("-2/5", "1/3"), gq(0), gq(0, -1)):
        assert -x == gq(-x.re, -x.im)
        assert -(-x) == x
    real = gq("3/7")
    assert (-real).im is real.im
    # the shared zero negates to itself, so the kernels still read it by identity
    assert -GQ_ZERO is GQ_ZERO


def test_to_gaussian_rationals_equals_fresh_construction():
    # every part pair in -40..40, inside and just outside the shared bound
    parts = range(-40, 41)
    re_rows = [[x] * len(parts) for x in parts]
    im_rows = [list(parts) for _ in parts]
    out = to_gaussian_rationals(1, re_rows, im_rows)
    for x, row in zip(parts, out):
        for y, value in zip(parts, row):
            fresh = GaussianRational(Fraction(x), Fraction(y))
            assert value == fresh and repr(value) == repr(fresh)
    # D > 1: nothing is shared, and the values are those of fresh fractions
    rng = random.Random(17)
    for d in (2, 3, 12, 2 ** 40):
        re = [[rng.randint(-70, 70) for _ in range(6)] for _ in range(3)]
        im = [[rng.choice([0, rng.randint(-70, 70)]) for _ in range(6)] for _ in range(3)]
        out = to_gaussian_rationals(d, re, im)
        for re_row, im_row, row in zip(re, im, out):
            for x, y, value in zip(re_row, im_row, row):
                fresh = GaussianRational(Fraction(x, d), Fraction(y, d))
                assert value == fresh and repr(value) == repr(fresh)


def test_small_gaussian_integers_are_shared():
    def convert(x, y):
        return to_gaussian_rationals(1, [[x]], [[y]])[0][0]

    bound = scalars._SHARED_BOUND
    for x, y in [(1, 0), (-bound, bound), (bound, -bound), (0, -1), (7, 3)]:
        assert convert(x, y) is convert(x, y)
    for x, y in [(bound + 1, 0), (0, -bound - 1), (2 ** 70, 1), (-5, -(2 ** 70))]:
        assert convert(x, y) is not convert(x, y)
        assert convert(x, y) == convert(x, y)
    assert convert(0, 0) is GQ_ZERO
    assert to_gaussian_rationals(1, [[0, 5]], [[0, 0]])[0][0] is GQ_ZERO
    parts = range(-100, 101)
    to_gaussian_rationals(1, [[x] * len(parts) for x in parts], [list(parts) for _ in parts])
    assert len(scalars._SHARED) <= (2 * bound + 1) ** 2
    assert all(abs(x) <= bound and abs(y) <= bound for x, y in scalars._SHARED)
    assert scalars._SHARED[0, 0] is GQ_ZERO


def test_negation_equals_fresh_construction():
    bound = scalars._SHARED_BOUND
    shared = to_gaussian_rationals(1, [[0, 3, -bound, 5, bound, 0]],
                                   [[0, 0, 1, -bound, bound, -7]])[0]
    unshared = [gq(bound + 1), gq(-bound - 1), gq(0, bound + 1), gq(2 ** 70), gq(-(2 ** 70), 3),
                gq(3, -(2 ** 70)), GaussianRational(Fraction(4), Fraction(-2))]
    rationals = [gq("3/7"), gq("-2/5", "1/3"), gq(0, "-5/4"), gq(2 ** 70 + 1, "1/2"), gq("1/2", 0)]
    for x in (*shared, *unshared, *rationals):
        negated = -x
        fresh = GaussianRational(-x.re, -x.im)
        assert negated == gq(-x.re, -x.im) == fresh and repr(negated) == repr(fresh)
        assert -(-x) == x
    # the negation of a small Gaussian integer is the shared one, fresh or not
    for x in (*shared, GaussianRational(Fraction(4), Fraction(-2)), gq(-bound, bound)):
        assert -x is to_gaussian_rationals(1, [[-x.re.numerator]], [[-x.im.numerator]])[0][0]
    assert -GQ_ZERO is GQ_ZERO


def reference_to_gaussian_integers(rows) -> tuple:
    """(D, re, im) by Fraction arithmetic: D the lcm of every part's
    denominator, then each part times D."""
    parts = [[(Fraction(x.re), Fraction(x.im)) if isinstance(x, GaussianRational)
              else (Fraction(x), Fraction(0)) for x in row] for row in rows]
    d = math.lcm(*(p.denominator for row in parts for pair in row for p in pair))
    return (d, [[int(re * d) for re, _ in row] for row in parts],
            [[int(im * d) for _, im in row] for row in parts])


def test_to_gaussian_integers_matches_the_fraction_route():
    """One common denominator over rows that mix the shared zero with int,
    Fraction and GaussianRational entries, of any lengths."""
    rng = random.Random(19)
    rows = [[], [GQ_ZERO, 0, Fraction(0), gq(0)], [1, Fraction(-1, 6), gq("1/4", "-1/3"), GQ_ZERO],
            [gq(2, -3), 5, Fraction(-4)], [gq("1/2"), gq(0, "1/3")], [2 ** 70, Fraction(1, 2 ** 70)]]
    for _ in range(40):
        rows.append([rng.choice([GQ_ZERO, rng.randint(-9, 9), random_gaussian_rational(rng),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                     for _ in range(rng.randint(1, 7))])
    assert to_gaussian_integers(rows) == reference_to_gaussian_integers(rows)
    for k in range(len(rows)):
        assert to_gaussian_integers(rows[k:k + 3]) == reference_to_gaussian_integers(rows[k:k + 3])
    assert to_gaussian_integers([]) == (1, [], [])
    assert to_gaussian_integers(iter([[Fraction(1, 2)], [Fraction(1, 3)]])) == (6, [[3], [2]], [[0], [0]])
    with pytest.raises(TypeError):
        to_gaussian_integers([[gq(1)], [gq(1), 0.5]])


def test_shared_table_under_racing_threads():
    # two threads may both make a missing entry; either object is the value
    bound = scalars._SHARED_BOUND
    parts = list(range(-bound - 2, bound + 3))
    re_rows = [[x] * len(parts) for x in parts]
    im_rows = [parts for _ in parts]
    expected = tuple(tuple(GaussianRational(Fraction(x), Fraction(y)) for y in parts) for x in parts)
    results = []

    def work():
        for _ in range(5):
            results.append(to_gaussian_rationals(1, re_rows, im_rows))
            results.append(tuple(tuple(-(-v) for v in row) for row in results[-1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scalars._SHARED.clear()
        scalars._SHARED[0, 0] = GQ_ZERO
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 40
    for out in results:
        assert out == expected
        assert out[parts.index(0)][parts.index(0)] is GQ_ZERO
    assert len(scalars._SHARED) <= (2 * bound + 1) ** 2


#: The fields of each of the package's value types, in declaration order:
#: the constructor takes them in this order, ``==`` and ``hash`` work on
#: this tuple and the repr lists it.
VALUE_FIELDS = {
    "GaussianRational": ("re", "im"),
    "EigenvalueBlocks": ("eigenvalue", "sizes"),
    "JordanSpec": ("n", "blocks"),
    "FrobeniusSpec": ("invariant_factors",),
    "SquareMatrix": ("n", "field", "entries"),
    "Polynomial": ("coefficients",),
    "MatrixPolynomial": ("coefficients",),
    "JacobianMatrix": ("n", "field", "rows"),
    "TheoremReport": ("spec", "min_poly_degree", "rank", "theorem_holds",
                      "conjugation_checked", "conjugated_rank"),
    "RankProfile": ("rank", "threshold", "singular_values", "gap"),
    "NullVector": ("eigenvalue", "order", "vector"),
    "NullspaceCertificate": ("vectors",),
    "TangentCertificate": ("directions", "images", "pivots"),
    "ConvergenceReport": ("n", "order", "lam", "eps", "errors", "floor", "top_order",
                          "allowances", "passed"),
    "VandermondeComparison": ("determinant", "det_abs_squared", "closed_abs_squared",
                              "closed_form_abs", "matches"),
    "VanishingReport": ("eigenvalue", "order", "observed_order", "required_order", "passed"),
    "SweepConfig": ("n_max", "pool", "modes", "seed", "parallelism"),
    "SweepReport": ("records", "total_specs", "failures"),
}


@pytest.fixture(scope="module")
def value_instances():
    """One instance of each value type, by class name.  The matrices are
    kernel results that keep split rows, and the Frobenius spec skips its
    constructor's checks, like the ones a sweep builds."""
    from symrank.canonical import JordanSpec, build_jordan, jordan_to_frobenius, random_similarity
    from symrank.cli import SweepConfig, run_sweep
    from symrank.jacobian import RankProfile, jacobian_exact, verify_theorem
    from symrank.proofs import (confluent_vandermonde_det, genocchi_hermite_check, linear_curve,
                                nullspace_basis, order_of_vanishing, tangent_construction)

    spec = JordanSpec.of({gq(0): [1, 2], gq("1/2", 1): [1]})
    B = build_jordan(spec)
    conjugate = random_similarity(B, 3)
    curve = linear_curve(B, conjugate)
    nullspace = nullspace_basis(spec)
    config = SweepConfig(n_max=1, pool=(gq(0), gq(1)), modes=("theorem",))
    instances = [
        gq(1, "-2/3"), spec.blocks[0], spec, jordan_to_frobenius(spec), conjugate,
        Polynomial.make([1, 0, 2]), curve, jacobian_exact(conjugate), verify_theorem(spec),
        RankProfile(2, 1e-12, (3.0, 1.0, 0.0), 1e-12), nullspace.vectors[0], nullspace,
        tangent_construction(jordan_to_frobenius(spec)),
        genocchi_hermite_check(3, 1, 0.5, (1e-2, 1e-3)),
        confluent_vandermonde_det([(gq(0), 2), (gq(1), 1)]),
        order_of_vanishing(spec, curve, gq(0), 1), config, run_sweep(config),
    ]
    return {type(x).__name__: x for x in instances}


@pytest.mark.parametrize("name", VALUE_FIELDS)
def test_value_type_contract(name, value_instances, monkeypatch):
    """Each value type is rebuilt by its constructor from its field values,
    in field order; compares and hashes by its field tuple, only against
    its own class; prints as Name(field=value, ...) (gq(re, im) for a
    Gaussian rational); refuses assignment; and pickles and deep-copies to an
    equal value without running its constructor.  A type without its own
    constructor takes exactly its field values, positionally."""
    import copy
    import pickle
    from types import SimpleNamespace

    x = value_instances[name]
    fields = VALUE_FIELDS[name]
    cls = type(x)
    assert cls.__name__ == name
    values = tuple(getattr(x, f) for f in fields)
    assert x == x and not x != x
    assert cls(*values) == x
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls.__init__ is scalars.Value.__init__:
        with pytest.raises(TypeError, match=f"takes the {len(fields)} values"):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values[:-1], **{fields[-1]: values[-1]})
    try:
        want = hash(values)
    except TypeError:
        # a sweep report holds its JSON records, which are dicts
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
    if name == "GaussianRational":
        assert repr(x) == f"gq({x.re!r}, {x.im!r})"
    else:
        assert repr(x) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert tuple(getattr(x, f) for f in fields) == values

    def refuse(*args, **kwargs):
        raise AssertionError("a copy ran the constructor")

    monkeypatch.setattr(type(x), "__init__", refuse)
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(copied) is type(x)
        assert copied == x and not copied != x
        assert repr(copied) == repr(x)

    lookalike = SimpleNamespace(**dict(zip(fields, values)))
    assert x.__eq__(lookalike) is NotImplemented
    assert x != lookalike and not x == lookalike
    assert x != object() and not x == values


def test_value_fields_list_every_value_type():
    """VALUE_FIELDS names every public Value subclass in the package, each
    with the fields its positional constructor reads, in that order."""
    import symrank  # noqa: F401 -- loads every module

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    public = [cls for cls in subclasses(scalars.Value)
              if cls.__module__.startswith("symrank.") and not cls.__name__.startswith("_")]
    assert {cls.__name__: cls._fields for cls in public} == VALUE_FIELDS
    assert len(public) == len(VALUE_FIELDS)
    # the types that check or normalize their input, or are written out
    # for speed, keep their own constructor
    assert sorted(cls.__name__ for cls in public if cls.__init__ is not scalars.Value.__init__) == [
        "EigenvalueBlocks", "FrobeniusSpec", "GaussianRational", "JordanSpec",
        "MatrixPolynomial", "Polynomial", "SweepConfig"]
