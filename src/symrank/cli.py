"""Command-line front end, JSON I/O, and the exhaustive sweep harness.

The sweep enumerates every Jordan structure up to a size bound over a pool of
exact eigenvalues (every choice of distinct eigenvalues, every assignment of
multiplicities, every block partition) and runs the selected verification
modes on each.  Reports are JSONL, one spec per line, byte-identical for a
given configuration and seed; every failure record carries enough input to
reproduce it with a single CLI invocation.

The rank and the minimal polynomial degree depend only on the Jordan type
(the block partitions, and which eigenvalues coincide), never on the
particular values chosen, so a pool checks each type once per labelling of
its eigenvalues.  A type with more distinct eigenvalues than the pool has
values is never reached: the default five-value pool misses 1 type at n = 6,
3 at n = 7 and 9 at n = 8.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input
(including a matrix or spec larger than :data:`MAX_N`, a curve of degree
above ``MAX_CURVE_DEGREE`` and a --tol that is not a finite number >= 0) or
an unwritable --out.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass

from .canonical import (
    EigenvalueBlocks,
    FrobeniusSpec,
    JordanSpec,
    build_frobenius,
    build_jordan,
    jordan_to_frobenius,
    min_poly_degree,
    min_poly_krylov,
)
from .jacobian import (
    jacobian_exact,
    numeric_rank_profile,
    rank_exact,
    verify_theorem,
)
from .matpoly import MAX_N, SquareMatrix, spectral_radius_bound, symmetrize
from .proofs import (
    confluent_vandermonde_det,
    linear_curve,
    MatrixPolynomial,
    nullspace_basis,
    order_of_vanishing,
    tangent_construction,
    tangent_ok,
    verify_annihilation,
)
from .scalars import (
    EXACT,
    FLOAT,
    GQ_I,
    NumericFailure,
    coerce_scalar,
    format_eigenvalue,
    gq,
    parse_eigenvalue,
    random_gaussian_rational,
    render_rational,
    scalar_to_json,
)

MODES = ("theorem", "nullspace", "tangent", "vandermonde", "ord")
DEFAULT_POOL = (gq(0), gq(1), gq(-1), GQ_I, gq(2))


class CliInputError(Exception):
    """Malformed or inconsistent input, or an unwritable --out; exit code 2."""


@dataclass(frozen=True)
class SweepConfig:
    n_max: int
    pool: tuple = DEFAULT_POOL
    modes: tuple = MODES
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.n_max > MAX_N:
            raise ValueError(f"n_max {self.n_max} exceeds the size limit MAX_N = {MAX_N}")
        if not self.pool:
            raise ValueError("eigenvalue pool must be non-empty")
        twice = [value for value, count in Counter(self.pool).items() if count > 1]
        if twice:
            raise ValueError(f"pool values must be distinct, got {twice[0]} twice")
        unknown = [m for m in self.modes if m not in MODES]
        if unknown:
            raise ValueError(f"unknown modes: {unknown}")
        object.__setattr__(self, "modes", tuple(m for m in MODES if m in self.modes))
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass(frozen=True)
class SweepReport:
    records: tuple
    total_specs: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def integer_partitions(n: int, min_part: int = 1):
    """All partitions of n as ascending tuples, deterministic order."""
    yield (n,)
    for first in range(min_part, n // 2 + 1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def compositions(n: int, k: int):
    """Ordered k-tuples of positive integers summing to n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def enumerate_jordan_specs(n: int, pool):
    """Every Jordan structure of size n over the pool, each exactly once.

    A spec is a choice of distinct eigenvalues (pool order), a composition of
    n into their multiplicities, and an ascending block partition of each
    multiplicity.  The specs skip ``JordanSpec.__post_init__``, whose checks
    cost more than the spec: the parts ascend and sum to n and the pool is
    coerced, so only a repeated pool value can fail.  That is checked per
    subset, before its first spec, with the ValueError the constructor raised.
    """
    if type(n) is not int:
        raise ValueError(f"matrix size n must be a positive integer, got {n!r}")
    pool = tuple(coerce_scalar(e, EXACT) for e in pool)
    repeated = len(set(pool)) < len(pool)
    partitions = {m: tuple(integer_partitions(m)) for m in range(1, n + 1)}
    for k in range(1, min(len(pool), n) + 1):
        for subset in itertools.combinations(pool, k):
            if repeated and len(set(subset)) < k:
                lam = next(lam for i, lam in enumerate(subset) if lam in subset[:i])
                raise ValueError(f"repeated eigenvalue {lam}")
            for comp in compositions(n, k):
                for parts in itertools.product(*[partitions[m] for m in comp]):
                    spec = object.__new__(JordanSpec)
                    object.__setattr__(spec, "n", n)
                    object.__setattr__(spec, "blocks", tuple(map(EigenvalueBlocks, subset, parts)))
                    yield spec


def _derived_seed(base_seed: int, index: int, stream: int) -> int:
    return (base_seed * 7919 + index) * 31 + stream


def _random_exact_matrix(n: int, seed: int) -> SquareMatrix:
    import random as _random

    rng = _random.Random(seed)
    return SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, 4) for _ in range(n)] for _ in range(n)],
        EXACT,
    )


def _check_theorem(spec: JordanSpec, seed: int):
    """A failing entry also carries the rank at the random conjugate."""
    report = verify_theorem(spec, seed=seed)
    entry = {
        "min_poly_degree": report.min_poly_degree,
        "rank": report.rank,
        "theorem_holds": report.theorem_holds,
        "conjugation_checked": report.conjugation_checked,
        "ok": report.theorem_holds and report.conjugation_checked,
    }
    if not entry["ok"]:
        entry["conjugated_rank"] = report.conjugated_rank
    return report, entry


def _check_nullspace(spec: JordanSpec):
    m = min_poly_degree(spec)
    expected = spec.n - m
    cert = nullspace_basis(spec)
    annihilates = verify_annihilation(cert, build_jordan(spec))
    # no vectors have rank 0
    independent = rank_exact([v.vector for v in cert.vectors]) == expected
    return cert, {
        "count": len(cert.vectors),
        "expected": expected,
        "annihilates": annihilates,
        "independent": independent,
        "ok": len(cert.vectors) == expected and annihilates and independent,
    }


def _check_tangent(spec):
    """Tangent certificate of a Jordan or Frobenius spec."""
    fspec = spec if isinstance(spec, FrobeniusSpec) else jordan_to_frobenius(spec)
    cert = tangent_construction(fspec)
    return cert, {
        "expected": fspec.min_degree,
        "images": len(cert.images),
        "pivots": list(cert.pivots),
        "ok": len(cert.images) == fspec.min_degree and tangent_ok(cert),
    }


def _check_vandermonde(spec: JordanSpec):
    """A failing entry also carries both squared moduli as "p/q" strings."""
    clusters = [(blk.eigenvalue, sum(blk.sizes)) for blk in spec.blocks]
    result = confluent_vandermonde_det(clusters)
    entry = {
        "clusters": [[format_eigenvalue(lam), mult] for lam, mult in clusters],
        "closed_form_abs": result.closed_form_abs,
        "ok": result.matches,
    }
    if not result.matches:
        entry["det_abs_squared"] = render_rational(result.det_abs_squared)
        entry["closed_abs_squared"] = render_rational(result.closed_abs_squared)
    return result, entry


def _check_ord(spec: JordanSpec, seed: int, curve: MatrixPolynomial | None = None):
    """Order reports along curve (default B + zeta*M, M drawn from seed); an
    entry with violations lists each failing (lambda, k, observed, required)."""
    if curve is None:
        curve = linear_curve(build_jordan(spec), _random_exact_matrix(spec.n, seed))
    reports = [
        order_of_vanishing(spec, curve, blk.eigenvalue, k)
        for blk in spec.blocks
        for k in range(sum(blk.sizes))
    ]
    failing = [r for r in reports if not r.passed]
    entry = {"checks": len(reports), "violations": len(failing), "ok": not failing}
    if failing:
        entry["failures"] = [
            {"lambda": scalar_to_json(r.eigenvalue), "k": r.order,
             "observed_order": r.observed_order, "required_order": r.required_order}
            for r in failing
        ]
    return (curve, reports), entry


#: mode -> (check, seed stream or None, repro subcommand or None).  A check
#: takes the spec, plus its derived seed when the mode has a stream, and
#: returns (raw, entry): raw is what the subcommand prints and entry the
#: sweep record, whose "ok" is the mode's one pass rule.  A mode without a
#: subcommand is reproduced by a one-mode sweep.
_MODE_TABLE = {
    "theorem": (_check_theorem, 1, "verify"),
    "nullspace": (_check_nullspace, None, "nullspace"),
    "tangent": (_check_tangent, None, "tangent"),
    "vandermonde": (_check_vandermonde, None, None),
    "ord": (_check_ord, 2, "ord"),
}


def _sweep_worker(item) -> dict:
    config, index, spec = item
    modes_out = {}
    for mode in config.modes:
        check, stream, _ = _MODE_TABLE[mode]
        if stream is None:
            _, modes_out[mode] = check(spec)
        else:
            _, modes_out[mode] = check(spec, _derived_seed(config.seed, index, stream))
    return {
        "index": index,
        "n": spec.n,
        "spec": spec.to_json(),
        "modes": modes_out,
        "ok": all(entry["ok"] for entry in modes_out.values()),
    }


def _failure_record(record: dict, config: SweepConfig) -> dict:
    spec_json = json.dumps(record["spec"], sort_keys=True)
    failed = [m for m, entry in record["modes"].items() if not entry["ok"]]
    repros = []
    for mode in failed:
        _, stream, command = _MODE_TABLE[mode]
        if command is None:
            pool = ",".join(format_eigenvalue(e) for e in config.pool)
            repro = (f"symrank sweep --n-max {record['n']} --pool '{pool}' "
                     f"--modes {mode} --seed {config.seed}")
        else:
            repro = f"symrank {command} --spec '{spec_json}'"
            if stream is not None:
                repro += f" --seed {_derived_seed(config.seed, record['index'], stream)}"
        repros.append(repro)
    return {
        "index": record["index"],
        "spec": record["spec"],
        "modes_failed": failed,
        "repro": repros,
    }


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the configured modes over every spec with n <= n_max.

    Deterministic for a given config and seed; work items are independent and
    may be dispatched to worker processes, with the report always assembled
    in enumeration order.  An empty mode set yields an empty record list.
    """
    specs = []
    for n in range(1, config.n_max + 1):
        specs.extend(enumerate_jordan_specs(n, config.pool))
    total = len(specs)
    if not config.modes:
        return SweepReport((), total, ())
    items = [(config, i, spec) for i, spec in enumerate(specs)]
    workers = min(config.parallelism, os.cpu_count() or 1, len(items))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_worker, items, chunksize=16))
    else:
        records = [_sweep_worker(item) for item in items]
    failures = tuple(
        _failure_record(rec, config) for rec in records if not rec["ok"]
    )
    return SweepReport(tuple(records), total, failures)


# ---------------------------------------------------------------------------
# command-line front end


def _read(decode, path: str | None, text: str | None = None, flag: str = "--spec"):
    """decode(parsed JSON) of the inline text given to flag, else of the file at
    path ("-" is stdin).

    Every read, encoding, JSON, schema or size (:data:`MAX_N`, curve degree)
    error becomes a CliInputError that names its source.
    """
    source = flag if text is not None else "<stdin>" if path == "-" else path
    try:
        if text is None:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
        return decode(json.loads(text))
    except OSError as exc:
        raise CliInputError(f"{source}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{source}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliInputError(f"{source}: {exc}") from None


def _any_spec(obj):
    """A Frobenius spec if obj lists invariant factors, else a Jordan spec."""
    if isinstance(obj, dict) and "invariant_factors" in obj:
        return FrobeniusSpec.from_json(obj)
    return JordanSpec.from_json(obj)


def _in_field(matrix: SquareMatrix, field: str | None) -> SquareMatrix:
    """matrix, converted to floats for --field float; an exact entry past the
    float range is a CliInputError."""
    if field != FLOAT:
        return matrix
    try:
        return matrix.to_float()
    except OverflowError:
        raise CliInputError("--field float: an entry is outside the float range") from None


def _matrix(args) -> SquareMatrix:
    """The matrix argument, promoted to --field float if asked."""
    matrix = _read(SquareMatrix.from_json, args.matrix)
    if args.field == EXACT and matrix.field == FLOAT:
        raise CliInputError("cannot promote a float matrix to the exact field")
    return _in_field(matrix, args.field)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _open_out(path: str | None):
    """The file at path, truncated for writing, or stdout when path is empty.

    An unwritable path is a CliInputError naming it and the OS error.
    """
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"--out {path}: {exc.strerror or exc}") from None


def _emit(args, obj) -> None:
    with _open_out(args.out) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_gen(args) -> int:
    spec = _read(_any_spec, args.spec_file, args.spec)
    matrix = build_frobenius(spec) if isinstance(spec, FrobeniusSpec) else build_jordan(spec)
    _emit(args, _in_field(matrix, args.field).to_json())
    return 0


def _spectral_bound(matrix: SquareMatrix) -> float | None:
    """The float spectral-radius diagnostic, or None where it overflows."""
    try:
        return spectral_radius_bound(matrix.to_float(), iterations=8)
    except (NumericFailure, OverflowError):
        return None


def _cmd_pi(args) -> int:
    matrix = _matrix(args)
    values = symmetrize(matrix)
    out = {
        "n": matrix.n,
        "field": matrix.field,
        "values": [scalar_to_json(v) for v in values],
    }
    bound = _spectral_bound(matrix)
    out["spectral_radius_bound"] = bound
    out["in_spectral_ball"] = True if bound is not None and bound < 1.0 else None
    _emit(args, out)
    return 0


def _cmd_jacobian(args) -> int:
    matrix = _matrix(args)
    _emit(args, jacobian_exact(matrix).to_json())
    return 0


def _cmd_rank(args) -> int:
    matrix = _matrix(args)
    jac = jacobian_exact(matrix)
    if matrix.field == EXACT:
        out = {"field": EXACT, "rank": rank_exact(jac), "tolerance": None}
    else:
        profile = numeric_rank_profile(jac, args.tol)
        out = {
            "field": FLOAT,
            "rank": profile.rank,
            "tolerance": profile.threshold,
            "singular_values": list(profile.singular_values),
            "threshold_gap": profile.gap,
            "spectral_radius_bound": _spectral_bound(matrix),
        }
    _emit(args, out)
    return 0


def _cmd_minpoly(args) -> int:
    matrix = _matrix(args)
    poly = min_poly_krylov(matrix, args.tol)
    _emit(args, {
        "field": matrix.field,
        "degree": poly.degree,
        "coefficients": poly.to_json(),
    })
    return 0


def _cmd_verify(args) -> int:
    spec = _read(JordanSpec.from_json, args.spec_file, args.spec)
    report, entry = _check_theorem(spec, args.seed)
    _emit(args, report.to_json())
    return 0 if entry["ok"] else 1


def _cmd_nullspace(args) -> int:
    cert, entry = _check_nullspace(_read(JordanSpec.from_json, args.spec_file, args.spec))
    _emit(args, cert.to_json())
    print(
        f"nullspace: {entry['count']}/{entry['expected']} vectors, "
        f"annihilates={entry['annihilates']}, independent={entry['independent']}",
        file=sys.stderr,
    )
    return 0 if entry["ok"] else 1


def _cmd_tangent(args) -> int:
    cert, entry = _check_tangent(_read(_any_spec, args.spec_file, args.spec))
    _emit(args, cert.to_json())
    print(
        f"tangent: {entry['images']} images, pivots {entry['pivots']}, ok={entry['ok']}",
        file=sys.stderr,
    )
    return 0 if entry["ok"] else 1


def _cmd_ord(args) -> int:
    spec = _read(JordanSpec.from_json, args.spec_file, args.spec)

    def through_spec(obj) -> MatrixPolynomial:
        curve = MatrixPolynomial.from_json(obj)
        if curve.coefficients[0] != build_jordan(spec):
            raise ValueError("curve base mismatch: curve(0) must equal the spec's matrix")
        return curve

    curve = None
    if args.curve is not None or args.curve_file is not None:
        curve = _read(through_spec, args.curve_file, args.curve, "--curve")
    (curve, reports), entry = _check_ord(spec, args.seed, curve)
    _emit(args, {
        "spec": spec.to_json(),
        "curve_degree": curve.degree,
        "results": [r.to_json() for r in reports],
        "all_passed": entry["ok"],
    })
    return 0 if entry["ok"] else 1


def _parse_pool(text: str) -> tuple:
    try:
        return tuple(parse_eigenvalue(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise CliInputError(f"bad pool: {exc}") from None


def _cmd_sweep(args) -> int:
    pool = _parse_pool(args.pool) if args.pool is not None else DEFAULT_POOL
    modes = MODES if args.modes is None else tuple(
        m.strip() for m in args.modes.split(",") if m.strip())
    try:
        config = SweepConfig(
            n_max=args.n_max,
            pool=pool,
            modes=modes,
            seed=args.seed,
            parallelism=args.jobs,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    # opened first, so that an unwritable --out fails before the checks run
    with _open_out(args.out) as fh:
        report = run_sweep(config)
        fh.write("".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in report.records
        ))
    print(
        f"sweep: {report.total_specs} specs, {len(report.records)} checked, "
        f"{len(report.failures)} failures",
        file=sys.stderr,
    )
    for failure in report.failures:
        print(json.dumps(failure, sort_keys=True), file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrank",
        description="Exact verification of the rank of the symmetrization-map derivative.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, reads=None):
        """A subcommand that reads a spec or a matrix (or neither)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if reads == "spec":
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--spec", help="inline spec JSON")
            source.add_argument("--spec-file", help="path to spec JSON, or - for stdin")
        elif reads == "matrix":
            p.add_argument("matrix", help="matrix JSON path, or - for stdin")
            p.add_argument("--field", choices=(EXACT, FLOAT))
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    command("gen", _cmd_gen, "build the matrix of a Jordan or Frobenius spec",
            "spec").add_argument("--field", choices=(EXACT, FLOAT))
    command("pi", _cmd_pi, "symmetrize a matrix", "matrix")
    command("jacobian", _cmd_jacobian, "exact derivative matrix of the symmetrization map",
            "matrix")
    command("rank", _cmd_rank, "rank of the derivative at a matrix", "matrix").add_argument(
        "--tol", type=_tolerance, help="numeric rank threshold, finite and >= 0")
    command("minpoly", _cmd_minpoly,
            "minimal polynomial: exact from the adjugate gcd, float from the Krylov sequence",
            "matrix").add_argument(
        "--tol", type=_tolerance, help="dependence threshold (float field), finite and >= 0")
    command("verify", _cmd_verify, "check rank == minimal polynomial degree for a spec",
            "spec").add_argument("--seed", type=int, default=0)
    command("nullspace", _cmd_nullspace, "null-space certificate for a Jordan spec", "spec")
    command("tangent", _cmd_tangent, "echelon tangent certificate for a spec", "spec")

    p = command("ord", _cmd_ord, "order-of-vanishing report for a curve through a spec",
                "spec")
    curve = p.add_mutually_exclusive_group()
    curve.add_argument("--curve", help="inline curve JSON (coefficient matrices)")
    curve.add_argument("--curve-file", help="path to curve JSON, or - for stdin")
    p.add_argument("--seed", type=int, default=0, help="seed for the random linear curve")

    p = command("sweep", _cmd_sweep, "exhaustive verification over all specs up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--pool", help="comma-separated eigenvalues, e.g. '0,1,-1,i,2'")
    p.add_argument("--modes", help=f"comma-separated subset of {','.join(MODES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
