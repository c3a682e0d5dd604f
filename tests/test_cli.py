"""Enumeration, sweep harness, and the command-line interface."""

import concurrent.futures
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symrank.cli import (
    DEFAULT_POOL,
    MODES,
    SweepConfig,
    compositions,
    enumerate_jordan_specs,
    integer_partitions,
    main,
    run_sweep,
)
from symrank.canonical import JordanSpec
from symrank.scalars import EXACT, FLOAT, coerce_scalar, gq


def partition_counts_pentagonal(n_max):
    """Independent partition-count oracle via Euler's pentagonal recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def expected_spec_count(n, pool_size):
    """Coefficient of x^n in (1 + sum_m p(m) x^m)^pool_size."""
    p = partition_counts_pentagonal(n)
    series = [1] + p[1:]
    out = [1] + [0] * n
    for _ in range(pool_size):
        nxt = [0] * (n + 1)
        for i, a in enumerate(out):
            if not a:
                continue
            for j, b in enumerate(series):
                if i + j <= n:
                    nxt[i + j] += a * b
        out = nxt
    return out[n]


def test_integer_partitions_small():
    assert list(integer_partitions(1)) == [(1,)]
    assert list(integer_partitions(2)) == [(2,), (1, 1)]
    assert list(integer_partitions(3)) == [(3,), (1, 2), (1, 1, 1)]
    assert list(integer_partitions(4)) == [(4,), (1, 3), (1, 1, 2), (1, 1, 1, 1), (2, 2)]


def test_integer_partitions_counts_match_pentagonal_oracle():
    counts = partition_counts_pentagonal(9)
    for n in range(1, 10):
        assert len(list(integer_partitions(n))) == counts[n]


def test_compositions():
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert sorted(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_enumerate_single_spec():
    specs = list(enumerate_jordan_specs(1, [gq(0)]))
    assert specs == [JordanSpec.of({0: [1]})]


def test_enumerate_n2_pool2_hand_list():
    specs = list(enumerate_jordan_specs(2, [gq(0), gq(1)]))
    expected = [
        JordanSpec.of({0: [2]}),
        JordanSpec.of({0: [1, 1]}),
        JordanSpec.of({1: [2]}),
        JordanSpec.of({1: [1, 1]}),
        JordanSpec.of({0: [1], 1: [1]}),
    ]
    assert specs == expected


def test_enumerate_n3_single_eigenvalue():
    specs = list(enumerate_jordan_specs(3, [gq(0)]))
    assert [blk.sizes for s in specs for blk in s.blocks] == [(3,), (1, 2), (1, 1, 1)]


def test_enumerate_counts_match_generating_function():
    for n in range(1, 6):
        got = len(list(enumerate_jordan_specs(n, DEFAULT_POOL)))
        assert got == expected_spec_count(n, len(DEFAULT_POOL))


def test_enumerate_no_duplicates():
    seen = set()
    for spec in enumerate_jordan_specs(4, DEFAULT_POOL):
        key = json.dumps(spec.to_json(), sort_keys=True)
        assert key not in seen
        seen.add(key)


def reference_enumerate_jordan_specs(n, pool):
    """The former route: every spec through the validating constructor."""
    import itertools

    from symrank.canonical import EigenvalueBlocks
    from symrank.scalars import EXACT, coerce_scalar

    pool = tuple(coerce_scalar(e, EXACT) for e in pool)
    for k in range(1, min(len(pool), n) + 1):
        for subset in itertools.combinations(range(len(pool)), k):
            for comp in compositions(n, k):
                choices = [tuple(integer_partitions(m)) for m in comp]
                for parts in itertools.product(*choices):
                    yield JordanSpec(n, tuple(EigenvalueBlocks(pool[subset[i]], parts[i])
                                              for i in range(k)))


#: values with denominators and imaginary parts, coerced from an int and a
#: Fraction too
MIXED_POOL = (gq("1/2"), gq("-2/3", "1/5"), gq(0, "3/4"), 3, Fraction(7, 2))


@pytest.mark.parametrize("pool", [DEFAULT_POOL, MIXED_POOL], ids=["default", "mixed"])
def test_enumerated_specs_equal_validated_construction(pool):
    for n in range(1, 7):
        specs = list(enumerate_jordan_specs(n, pool))
        assert specs == list(reference_enumerate_jordan_specs(n, pool))  # counts too
        for spec in specs:
            built = JordanSpec(spec.n, spec.blocks)
            assert spec == built
            assert hash(spec) == hash(built)
            assert repr(spec) == repr(built)
            assert spec.to_json() == built.to_json()
    assert len(list(enumerate_jordan_specs(6, DEFAULT_POOL))) == expected_spec_count(6, 5)


def _specs_until_error(specs):
    out = []
    with pytest.raises(ValueError) as info:
        for spec in specs:
            out.append(spec)
    return out, str(info.value)


@pytest.mark.parametrize("n, pool", [
    (2, [gq(1), gq(1)]),
    (3, [gq(0), gq(1), gq(2), Fraction(1)]),
    (2, [gq("1/2", 1), gq(0), gq("2/4", 1), gq(0)]),
    (1, [gq(1), gq(1)]),
])
def test_repeated_pool_value_raises_after_the_same_specs(n, pool):
    if n < 2:
        # one eigenvalue per spec: the repeat is never in one spec
        assert list(enumerate_jordan_specs(n, pool)) == list(
            reference_enumerate_jordan_specs(n, pool))
        return
    got, message = _specs_until_error(enumerate_jordan_specs(n, pool))
    want, want_message = _specs_until_error(reference_enumerate_jordan_specs(n, pool))
    assert got and got == want
    assert message == want_message
    assert message.startswith("repeated eigenvalue ")


def test_enumerate_rejects_a_size_that_is_not_an_int():
    # the constructor's message, which a spec of size True used to raise
    with pytest.raises(ValueError, match="matrix size n must be a positive integer, got True"):
        list(enumerate_jordan_specs(True, DEFAULT_POOL))
    assert list(enumerate_jordan_specs(0, DEFAULT_POOL)) == []


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_max=0)
    with pytest.raises(ValueError):
        SweepConfig(n_max=1, pool=())
    with pytest.raises(ValueError):
        SweepConfig(n_max=1, pool=(gq(0), gq(0)))
    with pytest.raises(ValueError):
        SweepConfig(n_max=1, modes=("bogus",))
    with pytest.raises(ValueError):
        SweepConfig(n_max=1, parallelism=0)


def test_library_boundary_refuses_non_int_counts_and_bools():
    # counts must be ints, not floats or bools, and a bool is no scalar
    for field, value in (("n_max", 2.5), ("n_max", True), ("parallelism", 2.0),
                         ("parallelism", True)):
        with pytest.raises(ValueError, match=field):
            SweepConfig(**{"n_max": 2, field: value})
    for call in (lambda: coerce_scalar(True, EXACT), lambda: coerce_scalar(False, FLOAT),
                 lambda: gq(True), lambda: gq(0, False), lambda: gq(1) + True,
                 lambda: True * gq(1), lambda: JordanSpec.of({True: [1], 0: [1]})):
        with pytest.raises(TypeError, match="True|False"):
            call()


def test_sweep_config_mode_order_canonical():
    config = SweepConfig(n_max=1, modes=("tangent", "theorem"))
    assert config.modes == ("theorem", "tangent")


def test_run_sweep_theorem_small():
    report = run_sweep(SweepConfig(n_max=2, pool=(gq(0), gq(1)), modes=("theorem",)))
    assert report.total_specs == 7
    assert len(report.records) == 7
    assert report.passed
    assert all(r["ok"] for r in report.records)
    assert all(r["modes"]["theorem"]["theorem_holds"] for r in report.records)


def test_run_sweep_certificates_small():
    report = run_sweep(SweepConfig(
        n_max=3, pool=(gq(0), gq(1)), modes=("nullspace", "tangent"), seed=4))
    assert report.passed
    for record in report.records:
        assert record["modes"]["nullspace"]["annihilates"]
        assert record["modes"]["tangent"]["ok"]


def test_run_sweep_deterministic():
    config = SweepConfig(n_max=3, pool=(gq(0), gq(0, 1)), seed=12)
    first = run_sweep(config)
    second = run_sweep(config)
    assert first.records == second.records
    assert first.total_specs == second.total_specs


def test_run_sweep_empty_modes():
    report = run_sweep(SweepConfig(n_max=2, pool=(gq(0),), modes=()))
    assert report.records == ()
    assert report.total_specs == 3
    assert report.passed


def test_run_sweep_parallel_matches_serial():
    config = SweepConfig(n_max=3, pool=(gq(0), gq(1)), seed=8)
    serial = run_sweep(config)
    try:
        parallel = run_sweep(SweepConfig(
            n_max=3, pool=(gq(0), gq(1)), seed=8, parallelism=2))
    except (OSError, PermissionError):
        pytest.skip("process pool unavailable in this environment")
    assert parallel.records == serial.records


# ---------------------------------------------------------------------------
# command-line behavior


SPEC_0_1 = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1]},
                                     {"eigenvalue": ["1/1", "0/1"], "sizes": [1]}]})
SPEC_0_11 = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 1]}]})


def test_cli_verify_passes(capsys):
    assert main(["verify", "--spec", SPEC_0_11]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_poly_degree"] == 1
    assert out["rank"] == 1
    assert out["theorem_holds"] is True
    assert out["conjugation_checked"] is True


def test_cli_verify_malformed_json(capsys):
    assert main(["verify", "--spec", "{oops"]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "--spec:1:" in err


def test_cli_verify_schema_error(capsys):
    assert main(["verify", "--spec", json.dumps({"n": 2})]) == 2
    assert "blocks" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["verify", "--spec-file", "/nonexistent/spec.json"]) == 2


def test_cli_gen_pi_rank_pipeline(tmp_path, capsys):
    spec = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [2]}]})
    matrix_path = tmp_path / "matrix.json"
    assert main(["gen", "--spec", spec, "--out", str(matrix_path)]) == 0
    obj = json.loads(matrix_path.read_text())
    assert obj["n"] == 2 and obj["field"] == "exact"

    assert main(["pi", str(matrix_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == [["0/1", "0/1"], ["0/1", "0/1"]]

    assert main(["rank", str(matrix_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2


def test_cli_rank_float_jordan_block(tmp_path, capsys):
    # spec example: rank of the derivative at float J_2(0) with default tolerance
    spec = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [2]}]})
    matrix_path = tmp_path / "matrix.json"
    assert main(["gen", "--spec", spec, "--field", "float", "--out", str(matrix_path)]) == 0
    obj = json.loads(matrix_path.read_text())
    assert obj["field"] == "float"
    assert main(["rank", str(matrix_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2
    assert out["field"] == "float"
    assert "singular_values" in out and "threshold_gap" in out


def test_cli_field_promotion_rules(tmp_path, capsys):
    spec = json.dumps({"n": 1, "blocks": [{"eigenvalue": ["1/1", "0/1"], "sizes": [1]}]})
    matrix_path = tmp_path / "matrix.json"
    main(["gen", "--spec", spec, "--field", "float", "--out", str(matrix_path)])
    capsys.readouterr()
    assert main(["rank", str(matrix_path), "--field", "exact"]) == 2
    assert "promote" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.5, 0, 1e200])
def test_cli_minpoly_float_one_by_one(value, monkeypatch, capsys):
    matrix = {"n": 1, "field": "float", "entries": [[[value, 0]]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(matrix)))
    assert main(["minpoly", "-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 1
    assert out["coefficients"] == [[-value, -0.0], [1.0, 0.0]]


@pytest.mark.parametrize("value", [1e16, 1e-200])
def test_cli_minpoly_float_nilpotent_at_any_scale(value, monkeypatch, capsys):
    matrix = {"n": 2, "field": "float", "entries": [[[0, 0], [value, 0]], [[0, 0], [0, 0]]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(matrix)))
    assert main(["minpoly", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 2


def test_cli_minpoly(tmp_path, capsys):
    spec = json.dumps({"n": 3, "blocks": [{"eigenvalue": ["2/1", "0/1"], "sizes": [3]}]})
    matrix_path = tmp_path / "matrix.json"
    main(["gen", "--spec", spec, "--out", str(matrix_path)])
    assert main(["minpoly", str(matrix_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 3
    # (t - 2)^3 = t^3 - 6 t^2 + 12 t - 8, ascending
    assert out["coefficients"] == [
        ["-8/1", "0/1"], ["12/1", "0/1"], ["-6/1", "0/1"], ["1/1", "0/1"]]


def test_cli_jacobian(tmp_path, capsys):
    spec = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 1]}]})
    matrix_path = tmp_path / "matrix.json"
    main(["gen", "--spec", spec, "--out", str(matrix_path)])
    assert main(["jacobian", str(matrix_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == 2 and out["cols"] == 4
    assert "column_order" in out


def test_cli_nullspace_and_tangent(capsys):
    assert main(["nullspace", "--spec", SPEC_0_11]) == 0
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert cert["vectors"][0]["v"] == [["0/1", "0/1"], ["1/1", "0/1"]]

    assert main(["tangent", "--spec", SPEC_0_11]) == 0
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert cert["pivots"] == [1]


def test_cli_tangent_accepts_frobenius_spec(capsys):
    fspec = json.dumps({"invariant_factors": [[["0/1", "0/1"], ["0/1", "0/1"], ["1/1", "0/1"]]]})
    assert main(["tangent", "--spec", fspec]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["pivots"] == [2, 1]


def test_cli_ord_random_curve(capsys):
    assert main(["ord", "--spec", SPEC_0_11, "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert len(out["results"]) == 2


def test_cli_ord_explicit_curve(tmp_path, capsys):
    spec = json.dumps({"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 1]}]})
    matrix = {"n": 2, "field": "exact",
              "entries": [[["0/1", "0/1"], ["0/1", "0/1"]], [["0/1", "0/1"], ["0/1", "0/1"]]]}
    direction = {"n": 2, "field": "exact",
                 "entries": [[["2/1", "0/1"], ["1/1", "0/1"]], [["1/1", "0/1"], ["3/1", "0/1"]]]}
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(json.dumps({"coefficients": [matrix, direction]}))
    assert main(["ord", "--spec", spec, "--curve-file", str(curve_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    orders = {r["k"]: r["observed_order"] for r in out["results"]}
    assert orders[0] == 2


def test_cli_ord_curve_base_mismatch(capsys):
    identity = {"n": 2, "field": "exact",
                "entries": [[["1/1", "0/1"], ["0/1", "0/1"]], [["0/1", "0/1"], ["1/1", "0/1"]]]}
    curve = json.dumps({"coefficients": [identity]})
    assert main(["ord", "--spec", SPEC_0_11, "--curve", curve]) == 2
    assert "base mismatch" in capsys.readouterr().err


def test_cli_ord_curve_degree_limit_exits_2(capsys):
    from symrank.matpoly import MAX_CURVE_DEGREE

    zero = {"n": 2, "field": "exact", "entries": [[["0/1", "0/1"]] * 2] * 2}
    one = {"n": 2, "field": "exact",
           "entries": [[["1/1", "0/1"], ["0/1", "0/1"]], [["0/1", "0/1"], ["1/1", "0/1"]]]}
    at_limit = [zero] * MAX_CURVE_DEGREE + [one]
    assert main(["ord", "--spec", SPEC_0_11,
                 "--curve", json.dumps({"coefficients": at_limit})]) == 0
    assert json.loads(capsys.readouterr().out)["curve_degree"] == MAX_CURVE_DEGREE
    assert main(["ord", "--spec", SPEC_0_11,
                 "--curve", json.dumps({"coefficients": at_limit + [one]})]) == 2
    captured = capsys.readouterr()
    assert "'coefficients'" in captured.err
    assert f"MAX_CURVE_DEGREE = {MAX_CURVE_DEGREE}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_ord_entry_lists_failing_reports(monkeypatch):
    import symrank.cli as cli
    from symrank.proofs import VanishingReport

    spec = JordanSpec.from_json(json.loads(SPEC_0_11))
    _, entry = cli._check_ord(spec, 5)
    assert entry == {"checks": 2, "violations": 0, "ok": True}

    def failing_at_k0(spec, curve, lam, k):
        return VanishingReport(lam, k, 1 if k == 0 else None, 2 - k, k != 0)

    monkeypatch.setattr(cli, "order_of_vanishing", failing_at_k0)
    _, entry = cli._check_ord(spec, 5)
    assert entry == {
        "checks": 2, "violations": 1, "ok": False,
        "failures": [{"lambda": ["0/1", "0/1"], "k": 0, "observed_order": 1,
                      "required_order": 2}],
    }
    record = run_sweep(SweepConfig(n_max=2, pool=(gq(0),), modes=("ord",))).records[-1]
    assert record["modes"]["ord"]["failures"] == entry["failures"]
    assert not record["ok"]


def test_theorem_entry_lists_conjugated_rank_on_failure(monkeypatch):
    import symrank.cli as cli
    import symrank.jacobian as jacobian
    from symrank.matpoly import SquareMatrix

    spec = JordanSpec.from_json(json.loads(SPEC_0_1))
    report, entry = cli._check_theorem(spec, 5)
    assert entry == {"min_poly_degree": 2, "rank": 2, "theorem_holds": True,
                     "conjugation_checked": True, "ok": True}
    assert report.conjugated_rank == 2
    assert "conjugated_rank" not in report.to_json()

    # a "conjugate" that is the zero matrix has rank 1, not 2
    monkeypatch.setattr(jacobian, "random_similarity", lambda B, seed: SquareMatrix.zeros(B.n))
    report, entry = cli._check_theorem(spec, 5)
    assert entry == {"min_poly_degree": 2, "rank": 2, "theorem_holds": True,
                     "conjugation_checked": False, "ok": False, "conjugated_rank": 1}
    assert "conjugated_rank" not in report.to_json()
    record = run_sweep(SweepConfig(n_max=2, pool=(gq(0), gq(1)), modes=("theorem",))).records
    failing = [r for r in record if not r["ok"]]
    assert failing and all("conjugated_rank" in r["modes"]["theorem"] for r in failing)


def test_vandermonde_entry_lists_squared_moduli_on_failure(monkeypatch):
    import symrank.cli as cli
    from symrank.proofs import VandermondeComparison

    spec = JordanSpec.from_json(json.loads(SPEC_0_1))
    _, entry = cli._check_vandermonde(spec)
    assert set(entry) == {"clusters", "closed_form_abs", "ok"} and entry["ok"]
    original = cli.confluent_vandermonde_det

    def off_by_half(clusters):
        result = original(clusters)
        return VandermondeComparison(result.determinant, result.det_abs_squared / 2,
                                     result.closed_abs_squared, result.closed_form_abs, False)

    monkeypatch.setattr(cli, "confluent_vandermonde_det", off_by_half)
    _, entry = cli._check_vandermonde(spec)
    assert entry == {"clusters": [["0", 1], ["1", 1]], "closed_form_abs": 1.0, "ok": False,
                     "det_abs_squared": "1/2", "closed_abs_squared": "1/1"}
    record = run_sweep(SweepConfig(n_max=2, pool=(gq(0), gq(1)), modes=("vandermonde",)))
    assert record.records[-1]["modes"]["vandermonde"]["det_abs_squared"] == "1/2"


def test_cli_sweep_jsonl_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["sweep", "--n-max", "2", "--pool", "0,1", "--modes", "theorem,nullspace",
            "--seed", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 7
    for line in lines:
        record = json.loads(line)
        assert record["ok"] is True


def test_cli_sweep_empty_modes(tmp_path, capsys):
    out = tmp_path / "empty.jsonl"
    assert main(["sweep", "--n-max", "2", "--pool", "0", "--modes", "",
                 "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_cli_sweep_bad_pool(capsys):
    assert main(["sweep", "--n-max", "1", "--pool", "0,0"]) == 2
    assert main(["sweep", "--n-max", "1", "--pool", "zebra"]) == 2


def test_cli_refuses_python_only_integer_spellings(capsys):
    # int() would read these as 10/3, 12/5 and 10
    for part in ("1_0/3", "\u0661\u0662/5", "1 0/3"):
        spec = {"n": 1, "blocks": [{"eigenvalue": [part, "0/1"], "sizes": [1]}]}
        assert main(["verify", "--spec", json.dumps(spec)]) == 2
        assert "bad rational" in capsys.readouterr().err
    for pool in ("1_0", "0,\u0661/2"):
        assert main(["sweep", "--n-max", "1", "--pool", pool]) == 2
        assert "bad pool" in capsys.readouterr().err


def test_cli_sweep_stdout_default_pool(capsys):
    assert main(["sweep", "--n-max", "1", "--modes", "theorem"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 5  # one spec per pool eigenvalue at n = 1
    assert "failures" in captured.err


def test_cli_sweep_reports_a_failing_check(tmp_path, capsys, monkeypatch):
    """A mode that fails on one spec: exit 1, the failure count, and one
    stderr record whose repro command fails again."""
    import shlex

    import symrank.cli as cli

    check, stream, command = cli._MODE_TABLE["vandermonde"]
    target = list(enumerate_jordan_specs(2, DEFAULT_POOL))[3]

    def failing(spec):
        result, entry = check(spec)
        return result, {**entry, "ok": entry["ok"] and spec != target}

    monkeypatch.setitem(cli._MODE_TABLE, "vandermonde", (failing, stream, command))
    out = tmp_path / "s.jsonl"
    assert main(["sweep", "--n-max", "2", "--modes", "vandermonde,nullspace", "--seed", "4",
                 "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # the five n = 1 specs come first
    assert [r["index"] for r in records if not r["ok"]] == [5 + 3]
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "sweep: 25 specs, 25 checked, 1 failures"
    (failure,) = map(json.loads, err[1:])
    assert failure["modes_failed"] == ["vandermonde"]
    assert failure["spec"] == target.to_json()
    (repro,) = failure["repro"]
    argv = shlex.split(repro)
    assert argv[0] == "symrank"
    assert main(argv[1:] + ["--out", str(tmp_path / "repro.jsonl")]) == 1
    assert "1 failures" in capsys.readouterr().err


def test_cli_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from symrank.cli import main; sys.exit(main(['verify', '--spec', "
         f"{SPEC_0_11!r}]))"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["theorem_holds"] is True


def test_failure_records_carry_repro_commands():
    from symrank.cli import _failure_record

    config = SweepConfig(n_max=2, pool=(gq(0),), seed=5)
    record = {
        "index": 3,
        "n": 2,
        "spec": JordanSpec.of({0: [2]}).to_json(),
        "modes": {
            "theorem": {"ok": False},
            "nullspace": {"ok": True},
            "ord": {"ok": False},
            "vandermonde": {"ok": False},
        },
        "ok": False,
    }
    failure = _failure_record(record, config)
    assert failure["modes_failed"] == ["theorem", "ord", "vandermonde"]
    repro = " && ".join(failure["repro"])
    assert "symrank verify --spec" in repro and "--seed" in repro
    assert "symrank ord --spec" in repro
    assert "--modes vandermonde" in repro
    # the embedded spec JSON parses back to the same spec
    spec_text = failure["repro"][0].split("--spec '")[1].split("'")[0]
    assert JordanSpec.from_json(json.loads(spec_text)) == JordanSpec.of({0: [2]})


def test_cli_sweep_all_modes_exhaustive_small(tmp_path):
    out = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--n-max", "3", "--pool", "0,1,-1", "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 3 + 9 + 22  # sizes 1..3 over a three-element pool
    assert all(r["ok"] for r in records)
    assert set(records[0]["modes"]) == set(MODES)


def test_cli_field_float_promotes_exact_matrix(tmp_path, capsys):
    spec = json.dumps({"n": 1, "blocks": [{"eigenvalue": ["1/1", "0/1"], "sizes": [1]}]})
    matrix_path = tmp_path / "m.json"
    main(["gen", "--spec", spec, "--out", str(matrix_path)])
    assert main(["pi", str(matrix_path), "--field", "float"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "float"
    assert out["values"] == [[1.0, 0.0]]


@pytest.mark.parametrize("entry", [[f"{10 ** 400}/1", "0/1"], ["1/2", f"-{10 ** 401}/3"]],
                         ids=["re", "im"])
@pytest.mark.parametrize("command", ["gen", "pi", "rank", "jacobian", "minpoly"])
def test_cli_field_float_out_of_range_exits_2(tmp_path, capsys, command, entry):
    # an exact entry past the float range cannot be converted for --field float
    if command == "gen":
        argv = ["gen", "--spec", json.dumps({"n": 1, "blocks": [{"eigenvalue": entry,
                                                                  "sizes": [1]}]})]
    else:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n": 1, "field": "exact", "entries": [[entry]]}))
        argv = [command, str(path)]
    assert main(argv + ["--field", "float"]) == 2
    captured = capsys.readouterr()
    assert "--field float" in captured.err and "float range" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    # the exact field takes the same input
    assert main(argv) == 0


# ---------------------------------------------------------------------------
# output contract: these pin bytes and strings that refactors must not move


def test_cli_sweep_golden_digest(tmp_path):
    import hashlib

    out = tmp_path / "golden.jsonl"
    assert main(["sweep", "--n-max", "3", "--seed", "0", "--jobs", "1",
                 "--out", str(out)]) == 0
    body = out.read_bytes()
    assert body.count(b"\n") == 90
    assert hashlib.sha256(body).hexdigest() == (
        "8464ba46639048f7a86906ccb044df8f5e78d54c6a92c8a71e0f91e7666d0c40")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_sweep_golden_digest_rational_pool(tmp_path, jobs):
    # 1/2 and 1/3 + 2/5 i put denominators into the Jordan matrices, the
    # Frobenius factors and the Vandermonde columns, which the default pool
    # never does
    import hashlib

    out = tmp_path / "golden.jsonl"
    assert main(["sweep", "--n-max", "4", "--pool", "0,1/2,1/3+2/5i", "--seed", "0",
                 "--jobs", jobs, "--out", str(out)]) == 0
    body = out.read_bytes()
    assert body.count(b"\n") == 85
    assert hashlib.sha256(body).hexdigest() == (
        "8217be9e5a9914595999da44fd89e02066fa78e334c6e8df58fc95b044173dd5")


def test_cli_minpoly_golden_digest(tmp_path, capsys):
    # seeded exact matrices n = 1..6: Jordan, conjugated and Frobenius forms
    # over a pool with denominators, and dense Gaussian-rational matrices
    import hashlib
    import random

    from symrank.canonical import (build_frobenius, build_jordan, jordan_to_frobenius,
                                   random_similarity)
    from symrank.matpoly import SquareMatrix
    from symrank.scalars import random_gaussian_rational

    rng = random.Random(11)
    pool = (gq(0), gq("1/2"), gq("1/3", "2/5"))
    matrices = []
    for n in range(1, 7):
        for spec in rng.sample(list(enumerate_jordan_specs(n, pool)), 3):
            J = build_jordan(spec)
            matrices += [J, random_similarity(J, rng.randrange(1000)),
                         build_frobenius(jordan_to_frobenius(spec))]
        matrices.append(SquareMatrix.from_rows(
            [[random_gaussian_rational(rng, 5) for _ in range(n)] for _ in range(n)]))
    path = tmp_path / "matrix.json"
    digest = hashlib.sha256()
    for M in matrices:
        path.write_text(json.dumps(M.to_json()))
        assert main(["minpoly", str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "b20137290c0431ccc63266eb4045754e6164ea48675275e920348ab944375431")


def test_failure_record_repro_strings_for_every_mode():
    from symrank.cli import _failure_record

    config = SweepConfig(n_max=2, pool=(gq(0), gq(1), gq(0, 1)), seed=5)
    record = {
        "index": 3,
        "n": 2,
        "spec": JordanSpec.of({0: [2]}).to_json(),
        "modes": {m: {"ok": False} for m in MODES},
        "ok": False,
    }
    spec = '{"blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [2]}], "n": 2}'
    failure = _failure_record(record, config)
    assert failure["modes_failed"] == list(MODES)
    assert failure["repro"] == [
        f"symrank verify --spec '{spec}' --seed 1227539",
        f"symrank nullspace --spec '{spec}'",
        f"symrank tangent --spec '{spec}'",
        "symrank sweep --n-max 2 --pool '0,1,i' --modes vandermonde --seed 5",
        f"symrank ord --spec '{spec}' --seed 1227540",
    ]


def test_run_sweep_calls_verify_theorem_through_the_module(monkeypatch):
    import symrank.cli as cli

    calls = []
    original = cli.verify_theorem

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_theorem", counting)
    report = run_sweep(SweepConfig(n_max=1, modes=("theorem",)))
    assert report.passed
    assert len(calls) == len(DEFAULT_POOL)


# ---------------------------------------------------------------------------
# input boundary and resource bounds


ZERO_BLOCK = {"eigenvalue": ["0/1", "0/1"], "sizes": [1]}


def zero_matrix_json(n, field="exact"):
    part = ["0/1", "0/1"] if field == "exact" else [0.0, 0.0]
    return {"n": n, "field": field, "entries": [[part] * n for _ in range(n)]}


@pytest.mark.parametrize("command, payload, named", [
    ("verify", {"n": "1", "blocks": [ZERO_BLOCK]}, "n must be"),
    ("verify", {"n": True, "blocks": [ZERO_BLOCK]}, "n must be"),
    ("verify", {"n": 1, "blocks": 5}, "'blocks' must be"),
    ("verify", {"n": 1, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1.7]}]},
     "block sizes"),
    ("verify", {"n": 1, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [True]}]},
     "block sizes"),
    ("rank", {"n": 1, "field": "exact", "entries": 5}, "entries"),
    ("rank", {"n": True, "field": "exact", "entries": [[["1/1", "0/1"]]]}, "'n' must be"),
    ("rank", {"n": 1, "field": "float", "entries": [[[True, 0.0]]]}, "must be numbers"),
    ("rank", {"n": 1, "field": "float", "entries": [[[None, 0.0]]]}, "must be numbers"),
    ("tangent", {"invariant_factors": 5}, "'invariant_factors', a list"),
    ("tangent", {"invariant_factors": [5]}, "'invariant_factors', a list"),
    ("ord", {"coefficients": 5}, "'coefficients' list"),
    ("rank", '{"n": 1, "field": "float", "entries": [[[1e400, 0]]]}', "must be finite"),
    ("rank", {"n": 1, "field": "float", "entries": [[[10 ** 400, 0]]]}, "must be finite"),
    ("verify", {"n": 1, "blocks": []}, "at least one eigenvalue group"),
    ("tangent", {"invariant_factors": []}, "at least one invariant factor"),
    ("tangent", {"invariant_factors": [[["0/1", "0/1"], ["2/1", "0/1"]]]}, "monic of degree"),
    ("tangent", {"invariant_factors": [[["0/1", "0/1"], ["0/1", "0/1"], ["1/1", "0/1"]],
                                       [["0/1", "0/1"], ["1/1", "0/1"]]]}, "ascending degree"),
    ("ord", {"coefficients": []}, "needs at least one coefficient"),
    ("ord", {"coefficients": [zero_matrix_json(2), zero_matrix_json(3)]},
     "must share size and field"),
    ("ord", {"coefficients": [zero_matrix_json(2), zero_matrix_json(2, "float")]},
     "must share size and field"),
])
def test_cli_malformed_json_exits_2(tmp_path, capsys, monkeypatch, command, payload, named):
    if command == "rank" and isinstance(payload, str):
        # raw JSON text on stdin (json.dumps would write inf as Infinity)
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        argv = [command, "-"]
    elif command == "rank":
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(payload))
        argv = [command, str(path)]
    elif command == "ord":
        argv = ["ord", "--spec", SPEC_0_11, "--curve", json.dumps(payload)]
    else:
        argv = [command, "--spec", json.dumps(payload)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, entry", [
    ("pi", ["10000000000/1", "0/1"]),
    ("pi", [f"{10 ** 400}/1", "0/1"]),
    ("rank", [1e200, 0.0]),
])
def test_cli_spectral_overflow_reports_null(tmp_path, capsys, command, entry):
    field = "float" if isinstance(entry[0], float) else "exact"
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 1, "field": field, "entries": [[entry]]}))
    assert main([command, str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spectral_radius_bound"] is None
    if command == "pi":
        assert out["values"] == [entry]
        assert out["in_spectral_ball"] is None
    else:
        assert out["rank"] == 1


@pytest.mark.parametrize("cpus, pool_size, expected", [
    (4, 5, [4]),   # capped at the CPU count
    (8, 2, [2]),   # capped at the number of work items
    (1, 5, []),    # one CPU: serial, no pool
    (None, 5, []),  # unknown CPU count counts as one
])
def test_run_sweep_caps_worker_count(monkeypatch, cpus, pool_size, expected):
    import symrank.cli as cli

    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    pool = DEFAULT_POOL[:pool_size]
    report = run_sweep(SweepConfig(n_max=1, pool=pool, modes=("vandermonde",),
                                   parallelism=10 ** 9))
    assert report.passed and len(report.records) == pool_size
    assert started == expected


def test_cli_float_jacobian_zero_matrix_bytes(tmp_path, capsys):
    # the even-k rows of a float Jacobian negate 0j into -0j, printed as -0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "field": "float", "entries": [[[0.0, 0.0]] * 2] * 2}))
    assert main(["jacobian", str(path)]) == 0
    expected = {
        "n": 2, "field": "float", "rows": 2, "cols": 4,
        "column_order": "direction (i,j) -> column i*n + j, 0-based row-major",
        "entries": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                    [[-0.0, -0.0]] * 4],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_cli_pi_float_overflow_is_a_numeric_failure(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "field": "float",
                                "entries": [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]}))
    assert main(["pi", str(path)]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_cli_pi_exact_without_numpy_prints_a_null_bound(tmp_path, capsys, monkeypatch):
    """A float diagnostic never aborts an exact result: without numpy, exact
    `pi` prints the same sigma and a null spectral bound."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 2, "field": "exact", "entries": [
        [["1/2", "0/1"], ["1/1", "-1/3"]], [["0/1", "2/1"], ["-3/4", "0/1"]]]}))
    assert main(["pi", str(path)]) == 0
    with_numpy = json.loads(capsys.readouterr().out)
    assert with_numpy["spectral_radius_bound"] is not None
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main(["pi", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["values"] == with_numpy["values"]
    assert out["spectral_radius_bound"] is None and out["in_spectral_ball"] is None


@pytest.mark.parametrize("command", ["pi", "jacobian", "rank", "minpoly"])
def test_cli_float_without_numpy_exits_2(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(FLOAT_2X2))
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "numpy" in err and "Traceback" not in err


def test_cli_reraises_a_missing_module_other_than_numpy(tmp_path, monkeypatch):
    import symrank.cli as cli

    def missing(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(cli, "spectral_radius_bound", missing)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 1, "field": "exact", "entries": [[["1/2", "0/1"]]]}))
    with pytest.raises(ModuleNotFoundError):
        main(["pi", str(path)])


def _jordan_block_spec(n):
    return json.dumps({"n": n, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [n]}]})


@pytest.mark.parametrize("command", ["verify", "ord", "gen", "nullspace", "tangent", "pi",
                                     "jacobian", "rank", "minpoly", "sweep"])
def test_cli_size_limit_exits_2(tmp_path, capsys, command):
    import symrank.cli as cli

    n = cli.MAX_N + 1
    if command in ("verify", "ord", "gen", "nullspace"):
        argv = [command, "--spec", _jordan_block_spec(n)]
    elif command == "tangent":
        # t^6 + 1 does not divide t^(n-6): the size must be refused before
        # the divisibility check runs
        one, zero = ["1/1", "0/1"], ["0/1", "0/1"]
        fspec = {"invariant_factors": [[one] + [zero] * 5 + [one], [zero] * (n - 6) + [one]]}
        argv = ["tangent", "--spec", json.dumps(fspec)]
    elif command == "sweep":
        # one eigenvalue and a cheap mode, so that without the limit it ends fast
        argv = ["sweep", "--n-max", str(n), "--pool", "0", "--modes", "vandermonde"]
    else:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n": n, "field": "float",
                                    "entries": [[[0.0, 0.0]] * n] * n}))
        argv = [command, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"MAX_N = {cli.MAX_N}" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_size_limit_admits_max_n(tmp_path, capsys):
    import symrank.cli as cli

    n = cli.MAX_N
    assert main(["verify", "--spec", _jordan_block_spec(n)]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == n
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": n, "field": "float", "entries": [[[0.0, 0.0]] * n] * n}))
    assert main(["pi", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["values"]) == n
    assert SweepConfig(n_max=n).n_max == n


def test_python_dash_m_symrank_matches_main(capsys, monkeypatch):
    import symrank

    matrix = json.dumps({"n": 2, "field": "float",
                         "entries": [[[0.5, -0.25], [0.0, 1.0]], [[2.0, 0.0], [-1.0, 0.5]]]})
    src = str(Path(symrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "symrank", "pi", "-"], input=matrix,
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stderr == ""
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix))
    assert main(["pi", "-"]) == 0
    assert done.stdout == capsys.readouterr().out


def _child_env() -> dict:
    """This environment with the imported symrank's tree first on PYTHONPATH."""
    import symrank

    src = str(Path(symrank.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


STDLIB_ONLY_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from symrank.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"runs": runs, "pool_loaded": "concurrent.futures.process" in sys.modules}))
"""


def test_exact_commands_run_without_numpy(tmp_path, capsys):
    """The exact subcommands and an exact serial sweep need only the standard
    library: a fresh interpreter in which numpy cannot be imported gives the
    same output, and the sweep the golden bytes, without loading the process
    pool either.  `pi` is the one exact subcommand that still tries numpy, for
    its float spectral bound; without it the bound is null, so its output
    differs and `test_cli_pi_exact_without_numpy_prints_a_null_bound` checks it."""
    import hashlib

    spec = json.dumps({"n": 3, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [2]},
                                          {"eigenvalue": ["1/2", "1/3"], "sizes": [1]}]})
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"n": 2, "field": "exact", "entries": [
        [["1/2", "0/1"], ["1/1", "-1/3"]], [["0/1", "2/1"], ["-3/4", "0/1"]]]}))
    argvs = [[command, "--spec", spec] for command in ("gen", "verify", "nullspace",
                                                        "tangent", "ord")]
    argvs += [[command, str(matrix)] for command in ("jacobian", "rank", "minpoly")]
    report = tmp_path / "sweep.jsonl"
    sweep = ["sweep", "--n-max", "3", "--modes", "theorem,nullspace,tangent,vandermonde",
             "--seed", "0", "--jobs", "1", "--out", str(report)]
    done = subprocess.run([sys.executable, "-c", STDLIB_ONLY_CHILD, json.dumps(argvs + [sweep])],
                          capture_output=True, text=True, env=_child_env())
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout)
    assert child["pool_loaded"] is False
    assert [code for code, _ in child["runs"]] == [0] * (len(argvs) + 1)
    for argv, (_, out) in zip(argvs, child["runs"]):
        assert main(argv) == 0
        assert out == capsys.readouterr().out, argv
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "843e3a269e5d0f73389e6ad04693101ad4750d600334bea90c78f531952ee957")


#: Modules a cold ``import symrank`` must not load: the value types need no
#: dataclasses (nor the inspect module it imports), annotations no typing,
#: the exact paths no numpy, and a serial sweep no process pool.
IMPORT_CHILD = """
import json, sys
before = set(sys.modules)
import symrank
print(json.dumps(sorted(set(sys.modules) - before)))
"""
UNUSED_AT_IMPORT = {"dataclasses", "inspect", "typing", "numpy", "concurrent.futures.process"}


def test_import_loads_no_unused_module():
    """A fresh interpreter without ``site``, which may preload typing,
    imports symrank and reports the modules that the import added."""
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_CHILD],
                          capture_output=True, text=True, env=_child_env())
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert "symrank.cli" in added
    assert not added & UNUSED_AT_IMPORT, sorted(added & UNUSED_AT_IMPORT)


FLOAT_2X2 = {"n": 2, "field": "float",
             "entries": [[[0.5, -0.25], [0.0, 1.0]], [[2.0, 0.0], [-1.0, 0.5]]]}


@pytest.mark.parametrize("command", ["rank", "minpoly"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0.1x"])
def test_cli_tol_must_be_finite_and_nonnegative(tmp_path, capsys, command, tol):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(FLOAT_2X2))
    with pytest.raises(SystemExit) as exited:
        main([command, str(path), "--tol", tol])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "finite number >= 0" in err


@pytest.mark.parametrize("tol", ["0", "1e-300"])
def test_cli_minpoly_tiny_tol_stops_at_degree_n(tmp_path, capsys, tol):
    # roundoff keeps the last singular value above a zero threshold, but
    # I, M, M^2 are dependent for any 2x2 M
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(FLOAT_2X2))
    assert main(["minpoly", str(path), "--tol", tol]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 2


def test_cli_non_utf8_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["pi", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "utf-8" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", SPEC_0_11],
    ["pi", "MATRIX"],
    ["jacobian", "MATRIX"],
    ["rank", "MATRIX"],
    ["minpoly", "MATRIX"],
    ["verify", "--spec", SPEC_0_11],
    ["nullspace", "--spec", SPEC_0_11],
    ["tangent", "--spec", SPEC_0_11],
    ["ord", "--spec", SPEC_0_11],
    ["sweep", "--n-max", "1", "--modes", "theorem"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    import symrank.cli as cli

    def no_checks(config):
        raise AssertionError("sweep ran its checks before opening --out")

    monkeypatch.setattr(cli, "run_sweep", no_checks)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(FLOAT_2X2))
    out = tmp_path / "missing" / "out.json"
    argv = [str(matrix) if a == "MATRIX" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(out) in captured.err and "No such file or directory" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_minpoly_float_power_overflow_is_a_numeric_failure(tmp_path, capsys):
    # M^2 overflows; with a zero tolerance M alone is independent of I, so
    # the overflowed power reached the SVD, which raised LinAlgError
    entries = [[[0.0, 0.0]] * 3 for _ in range(3)]
    entries[2][2] = [1e200, 0.0]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 3, "field": "float", "entries": entries}))
    assert main(["minpoly", str(path), "--tol", "0"]) == 1
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def test_cli_spec_and_spec_file_together_exit_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(_jordan_block_spec(1))
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--spec", SPEC_0_11, "--spec-file", str(path)])
    assert exited.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["pi", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "recursion" in err and "Traceback" not in err
