"""Command-line front end, JSON I/O, and the exhaustive sweep harness.

The sweep enumerates every Jordan structure up to a size bound over a pool of
exact eigenvalues (every choice of distinct eigenvalues, every assignment of
multiplicities, every block partition) and runs the selected verification
modes on each.  Reports are JSONL, one spec per line, byte-identical for a
given configuration and seed; every failure record carries enough input to
reproduce it with a single CLI invocation.

The eigenvalue pool only needs distinct values: the rank and the minimal
polynomial degree depend on the block structure and on which eigenvalues
coincide, never on the particular values chosen, so a small pool exhausts
the hypothesis space at each size.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input
(including a matrix or spec larger than :data:`MAX_N`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
from .matpoly import SquareMatrix, spectral_radius_bound, symmetrize
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
    scalar_to_json,
)

MODES = ("theorem", "nullspace", "tangent", "vandermonde", "ord")
DEFAULT_POOL = (gq(0), gq(1), gq(-1), GQ_I, gq(2))
FIELD_ENV_VAR = "SYMRANK_FIELD"

#: Largest matrix size that any subcommand accepts, and the largest
#: ``sweep --n-max``; beyond it a command exits 2.  It bounds the work of one
#: matrix: at n = 12 the slowest subcommand, ``minpoly`` on a dense exact
#: matrix, takes about 5.5 s (2 cores, Python 3.11.7), and the exact kernels
#: grow faster than n^4.  A sweep's spec count still grows with --n-max
#: (2,051 structures up to n = 6, 11,806 up to n = 8).
MAX_N = 12


class CliInputError(Exception):
    """Malformed or inconsistent input; maps to exit code 2."""


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
        for a in range(len(self.pool)):
            for b in range(a + 1, len(self.pool)):
                if self.pool[a] == self.pool[b]:
                    raise ValueError(f"pool values must be distinct, got {self.pool[a]} twice")
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
    multiplicity.
    """
    pool = tuple(coerce_scalar(e, EXACT) for e in pool)
    for k in range(1, min(len(pool), n) + 1):
        for subset in itertools.combinations(range(len(pool)), k):
            for comp in compositions(n, k):
                choices = [tuple(integer_partitions(m)) for m in comp]
                for parts in itertools.product(*choices):
                    blocks = tuple(
                        EigenvalueBlocks(pool[subset[i]], parts[i]) for i in range(k)
                    )
                    yield JordanSpec(n, blocks)


def _derived_seed(base_seed: int, index: int, stream: int) -> int:
    return (base_seed * 7919 + index) * 31 + stream


def _random_exact_matrix(n: int, seed: int, magnitude: int = 4) -> SquareMatrix:
    import random as _random

    rng = _random.Random(seed)
    return SquareMatrix.from_rows(
        [[random_gaussian_rational(rng, magnitude) for _ in range(n)] for _ in range(n)],
        EXACT,
    )


def _check_theorem(spec: JordanSpec, seed: int):
    report = verify_theorem(spec, seed=seed)
    return report, {
        "min_poly_degree": report.min_poly_degree,
        "rank": report.rank,
        "theorem_holds": report.theorem_holds,
        "conjugation_checked": report.conjugation_checked,
        "ok": report.theorem_holds and report.conjugation_checked,
    }


def _check_nullspace(spec: JordanSpec):
    m = min_poly_degree(spec)
    expected = spec.n - m
    cert = nullspace_basis(spec)
    annihilates = verify_annihilation(cert, build_jordan(spec))
    if cert.vectors:
        independent = rank_exact([v.vector for v in cert.vectors]) == expected
    else:
        independent = expected == 0
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
    clusters = [(blk.eigenvalue, sum(blk.sizes)) for blk in spec.blocks]
    result = confluent_vandermonde_det(clusters)
    return result, {
        "clusters": [[format_eigenvalue(lam), mult] for lam, mult in clusters],
        "closed_form_abs": result.closed_form_abs,
        "ok": result.matches,
    }


def _check_ord(spec: JordanSpec, seed: int, curve: MatrixPolynomial | None = None):
    """Order reports along curve (default B + zeta*M, M drawn from seed)."""
    if curve is None:
        curve = linear_curve(build_jordan(spec), _random_exact_matrix(spec.n, seed))
    reports = [
        order_of_vanishing(spec, curve, blk.eigenvalue, k)
        for blk in spec.blocks
        for k in range(sum(blk.sizes))
    ]
    violations = sum(1 for r in reports if not r.passed)
    return (curve, reports), {
        "checks": len(reports), "violations": violations, "ok": violations == 0,
    }


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


def _read_source(path_or_dash: str) -> tuple[str, str]:
    if path_or_dash == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path_or_dash, "r", encoding="utf-8") as fh:
            return fh.read(), path_or_dash
    except OSError as exc:
        raise CliInputError(f"{path_or_dash}: {exc.strerror or exc}") from None


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{source}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
        ) from None


def _load_spec_arg(args) -> tuple[dict, str]:
    if getattr(args, "spec", None) is not None:
        return _parse_json(args.spec, "--spec"), "--spec"
    if getattr(args, "spec_file", None) is not None:
        text, source = _read_source(args.spec_file)
        return _parse_json(text, source), source
    raise CliInputError("a spec is required: pass --spec '<json>' or --spec-file PATH")


def _within_limit(obj, source: str):
    """obj (a spec or a matrix) if its size n is at most MAX_N."""
    if obj.n > MAX_N:
        raise CliInputError(f"{source}: size n = {obj.n} exceeds the size limit MAX_N = {MAX_N}")
    return obj


def _jordan_spec_from(args) -> JordanSpec:
    obj, source = _load_spec_arg(args)
    try:
        return _within_limit(JordanSpec.from_json(obj), source)
    except ValueError as exc:
        raise CliInputError(f"{source}: {exc}") from None


def _any_spec_from(args):
    obj, source = _load_spec_arg(args)
    try:
        if isinstance(obj, dict) and "invariant_factors" in obj:
            return _within_limit(FrobeniusSpec.from_json(obj), source)
        return _within_limit(JordanSpec.from_json(obj), source)
    except ValueError as exc:
        raise CliInputError(f"{source}: {exc}") from None


def _matrix_from(args) -> SquareMatrix:
    text, source = _read_source(args.matrix)
    obj = _parse_json(text, source)
    try:
        matrix = _within_limit(SquareMatrix.from_json(obj), source)
    except ValueError as exc:
        raise CliInputError(f"{source}: {exc}") from None
    requested = _field_choice(args)
    if requested and requested != matrix.field:
        if requested == FLOAT:
            matrix = matrix.to_float()
        else:
            raise CliInputError("cannot promote a float matrix to the exact field")
    return matrix


def _field_choice(args) -> str | None:
    field = getattr(args, "field", None)
    if field is None:
        field = os.environ.get(FIELD_ENV_VAR) or None
    if field is not None and field not in (EXACT, FLOAT):
        raise CliInputError(f"unknown field {field!r}; expected 'exact' or 'float'")
    return field


def _emit(args, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = _any_spec_from(args)
    matrix = build_frobenius(spec) if isinstance(spec, FrobeniusSpec) else build_jordan(spec)
    if _field_choice(args) == FLOAT:
        matrix = matrix.to_float()
    _emit(args, matrix.to_json())
    return 0


def _spectral_bound(matrix: SquareMatrix) -> float | None:
    """The float spectral-radius diagnostic, or None where it overflows."""
    try:
        return spectral_radius_bound(matrix.to_float(), iterations=8)
    except (NumericFailure, OverflowError):
        return None


def _cmd_pi(args) -> int:
    matrix = _matrix_from(args)
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
    matrix = _matrix_from(args)
    _emit(args, jacobian_exact(matrix).to_json())
    return 0


def _cmd_rank(args) -> int:
    matrix = _matrix_from(args)
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
    matrix = _matrix_from(args)
    poly = min_poly_krylov(matrix, getattr(args, "tol", None))
    _emit(args, {
        "field": matrix.field,
        "degree": poly.degree,
        "coefficients": poly.to_json(),
    })
    return 0


def _cmd_verify(args) -> int:
    report, entry = _check_theorem(_jordan_spec_from(args), args.seed)
    _emit(args, report.to_json())
    return 0 if entry["ok"] else 1


def _cmd_nullspace(args) -> int:
    cert, entry = _check_nullspace(_jordan_spec_from(args))
    _emit(args, cert.to_json())
    print(
        f"nullspace: {entry['count']}/{entry['expected']} vectors, "
        f"annihilates={entry['annihilates']}, independent={entry['independent']}",
        file=sys.stderr,
    )
    return 0 if entry["ok"] else 1


def _cmd_tangent(args) -> int:
    cert, entry = _check_tangent(_any_spec_from(args))
    _emit(args, cert.to_json())
    print(
        f"tangent: {entry['images']} images, pivots {entry['pivots']}, ok={entry['ok']}",
        file=sys.stderr,
    )
    return 0 if entry["ok"] else 1


def _cmd_ord(args) -> int:
    spec = _jordan_spec_from(args)
    curve = None
    if args.curve is not None or args.curve_file is not None:
        if args.curve is not None:
            obj = _parse_json(args.curve, "--curve")
            source = "--curve"
        else:
            text, source = _read_source(args.curve_file)
            obj = _parse_json(text, source)
        try:
            curve = MatrixPolynomial.from_json(obj)
        except ValueError as exc:
            raise CliInputError(f"{source}: {exc}") from None
        if curve.coefficients[0] != build_jordan(spec):
            raise CliInputError(f"{source}: curve base mismatch: curve(0) must equal the spec's matrix")
    (curve, reports), entry = _check_ord(spec, args.seed, curve)
    _emit(args, {
        "spec": spec.to_json(),
        "curve_degree": curve.degree,
        "results": [r.to_json() for r in reports],
        "all_passed": entry["ok"],
    })
    return 0 if entry["ok"] else 1


def _parse_pool(text: str) -> tuple:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise CliInputError("eigenvalue pool must be non-empty")
    try:
        return tuple(parse_eigenvalue(part) for part in items)
    except ValueError as exc:
        raise CliInputError(f"bad pool: {exc}") from None


def _cmd_sweep(args) -> int:
    pool = _parse_pool(args.pool) if args.pool is not None else DEFAULT_POOL
    if args.modes is None:
        modes = MODES
    else:
        names = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        modes = names
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
    report = run_sweep(config)
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in report.records
    ]
    body = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
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

    def add_spec_args(p):
        p.add_argument("--spec", help="inline spec JSON")
        p.add_argument("--spec-file", help="path to spec JSON")

    def add_out(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("gen", help="build the matrix of a Jordan or Frobenius spec")
    add_spec_args(p)
    p.add_argument("--field", choices=(EXACT, FLOAT))
    add_out(p)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("pi", help="symmetrize a matrix")
    p.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p.add_argument("--field", choices=(EXACT, FLOAT))
    add_out(p)
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("jacobian", help="exact derivative matrix of the symmetrization map")
    p.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p.add_argument("--field", choices=(EXACT, FLOAT))
    add_out(p)
    p.set_defaults(handler=_cmd_jacobian)

    p = sub.add_parser("rank", help="rank of the derivative at a matrix")
    p.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p.add_argument("--field", choices=(EXACT, FLOAT))
    p.add_argument("--tol", type=float, default=None, help="numeric rank threshold")
    add_out(p)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("minpoly", help="minimal polynomial via the Krylov sequence")
    p.add_argument("matrix", help="matrix JSON path, or - for stdin")
    p.add_argument("--field", choices=(EXACT, FLOAT))
    p.add_argument("--tol", type=float, default=None, help="dependence threshold (float field)")
    add_out(p)
    p.set_defaults(handler=_cmd_minpoly)

    p = sub.add_parser("verify", help="check rank == minimal polynomial degree for a spec")
    add_spec_args(p)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("nullspace", help="null-space certificate for a Jordan spec")
    add_spec_args(p)
    add_out(p)
    p.set_defaults(handler=_cmd_nullspace)

    p = sub.add_parser("tangent", help="echelon tangent certificate for a spec")
    add_spec_args(p)
    add_out(p)
    p.set_defaults(handler=_cmd_tangent)

    p = sub.add_parser("ord", help="order-of-vanishing report for a curve through a spec")
    add_spec_args(p)
    p.add_argument("--curve", help="inline curve JSON (coefficient matrices)")
    p.add_argument("--curve-file", help="path to curve JSON")
    p.add_argument("--seed", type=int, default=0, help="seed for the random linear curve")
    add_out(p)
    p.set_defaults(handler=_cmd_ord)

    p = sub.add_parser("sweep", help="exhaustive verification over all specs up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--pool", help="comma-separated eigenvalues, e.g. '0,1,-1,i,2'")
    p.add_argument("--modes", help=f"comma-separated subset of {','.join(MODES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    add_out(p)
    p.set_defaults(handler=_cmd_sweep)

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
