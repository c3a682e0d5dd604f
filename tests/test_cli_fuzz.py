"""Property test of the CLI input boundary: any JSON a subcommand reads, with
n <= 4, ends in exit code 0, 1 or 2 and never in an uncaught exception."""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symrank.canonical import JordanSpec, build_jordan
from symrank.cli import main

# derandomized and of fixed size, so that the examples, and the time they
# add to the suite, are the same on every run
settings.register_profile(
    "cli-fuzz", derandomize=True, deadline=None, max_examples=40, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 14) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)

rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 2), st.integers(1, 3))
exact_scalar = st.lists(rational, min_size=2, max_size=2)
float_scalar = st.lists(
    st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.sampled_from([1e200, 1e-300, -0.0]),
    min_size=2, max_size=2)
eigenvalue = st.sampled_from([["0/1", "0/1"], ["1/1", "0/1"], ["-1/1", "0/1"],
                              ["0/1", "1/1"], ["1/2", "0/1"]])
PARTITIONS = [[1], [2], [1, 1], [3], [1, 2], [1, 1, 1], [4], [2, 2], [1, 3], [1, 1, 2]]


@st.composite
def matrices(draw, n=None, field=None):
    n = draw(st.integers(1, 4)) if n is None else n
    field = draw(st.sampled_from(["exact", "float"])) if field is None else field
    scalar = exact_scalar if field == "exact" else float_scalar
    row = st.lists(scalar, min_size=n, max_size=n)
    return {"n": n, "field": field, "entries": draw(st.lists(row, min_size=n, max_size=n))}


@st.composite
def jordan_specs(draw):
    blocks, total = [], 0
    for lam in draw(st.lists(eigenvalue, min_size=1, max_size=3)):
        sizes = draw(st.sampled_from(PARTITIONS))
        if total + sum(sizes) > 4:
            break
        blocks.append({"eigenvalue": lam, "sizes": sizes})
        total += sum(sizes)
    return {"n": total, "blocks": blocks}


@st.composite
def frobenius_specs(draw):
    coefficient = st.sampled_from([["0/1", "0/1"], ["1/1", "0/1"], ["-1/1", "0/1"]])
    degrees = draw(st.sampled_from([[1], [2], [3], [4], [1, 1], [1, 2], [1, 3], [2, 2]]))
    return {"invariant_factors": [
        draw(st.lists(coefficient, min_size=d, max_size=d)) + [["1/1", "0/1"]]
        for d in degrees]}


@st.composite
def curves(draw, spec):
    base = build_jordan(JordanSpec.from_json(spec)).to_json()
    return {"coefficients": [base] + draw(st.lists(matrices(spec["n"], "exact"), max_size=2))}


def _paths(obj, path=()):
    yield path
    items = enumerate(obj) if isinstance(obj, list) else \
        obj.items() if isinstance(obj, dict) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = list(obj) if isinstance(obj, list) else dict(obj)
    obj[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return obj


@st.composite
def text_of(draw, structured):
    """JSON text of a structured value, as drawn or with one node replaced by
    any JSON, or some text that is mostly not JSON."""
    obj = draw(structured)
    fault = draw(st.integers(0, 3))
    if fault == 3:
        return draw(st.text(max_size=12))
    if fault == 2:
        obj = _replaced(obj, draw(st.sampled_from(list(_paths(obj)))), draw(any_json))
    return json.dumps(obj)


SPECS = [{"n": 2, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 1]}]},
         {"n": 3, "blocks": [{"eigenvalue": ["0/1", "0/1"], "sizes": [1, 2]}]},
         {"n": 2, "blocks": [{"eigenvalue": ["1/1", "0/1"], "sizes": [1]},
                             {"eigenvalue": ["0/1", "1/1"], "sizes": [1]}]}]


@st.composite
def invocations(draw, command):
    """(argv, stdin text) of one run of command on fuzzed JSON."""
    if command in ("pi", "jacobian", "rank", "minpoly"):
        argv = [command, "-"]
        field = draw(st.sampled_from([None, "exact", "float"]))
        if field:
            argv += ["--field", field]
        if command in ("rank", "minpoly"):
            tol = draw(st.sampled_from([None, "0", "1e-8", "0.5"]))
            if tol:
                argv += ["--tol", tol]
        return argv, draw(text_of(matrices()))
    if command == "ord":
        spec = draw(st.sampled_from(SPECS))
        return ["ord", "--spec", json.dumps(spec),
                "--curve=" + draw(text_of(curves(spec)))], ""
    if command in ("gen", "tangent"):
        spec = text_of(jordan_specs() | frobenius_specs())
    else:
        spec = text_of(jordan_specs())
    # "--spec=" keeps text that starts with "-" an option value
    argv = [command, "--spec=" + draw(spec)]
    if command == "gen" and draw(st.booleans()):
        argv += ["--field", "float"]
    return argv, ""


@pytest.mark.parametrize("command", ["gen", "pi", "jacobian", "rank", "minpoly", "verify",
                                     "nullspace", "tangent", "ord"])
@settings(settings.get_profile("cli-fuzz"))
@given(data=st.data())
def test_cli_fuzzed_json_exits_0_1_or_2(command, data):
    argv, stdin = data.draw(invocations(command))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
