"""Run one symrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload conjugate --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same tree, never from an installed copy.  Each invocation runs one workload
in a fresh process, so symrank's curve cache and the peak resident memory
start empty.  The loop is closed: each item starts after the previous one
ends.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
timed phase with every other item traced, prints the per-layer metrics
derived from the spans, writes the spans to ``perfbench/out/``, and then
measures bit growth on a fixed item set of its own.  The last line of stdout
is always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/NOTES.md`` for the workloads and the layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0


def import_symrank():
    """Import symrank from this tree's src/, or exit 2 without a result."""
    package = SRC / "symrank"
    if not (package / "__init__.py").is_file():
        print(f"error: no symrank package at {package}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import symrank

    if Path(symrank.__file__).resolve().parent != package.resolve():
        print(f"error: symrank was imported from {symrank.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)
    return symrank


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(symrank, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "symrank": symrank.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread: the workloads are single-process and the machine small
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    symrank = import_symrank()
    import harness
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)

    workload, setup_s, failures = harness.set_up(WORKLOADS[args.workload], args.seed,
                                                 str(OUT), SRC)
    tracer = tracing.Tracer() if args.trace else None
    phase = harness.timed_phase(workload, args.seconds, tracer)
    attempted = len(phase.raw)
    failed = len(phase.failures)
    failures += phase.failures
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "tail_percentile": workload.tail_q * 100,
        "items": attempted,
        "wall_s": phase.wall,
        "raw_item_ms_p50": statistics.median(phase.raw) * 1e3,
        "raw_item_ms_tail": harness.percentile(phase.raw, workload.tail_q) * 1e3,
        "probe_ms_p50": statistics.median(phase.probe.durations) * 1e3,
    }
    if tracer is None:
        metrics = harness.end_to_end_metrics(workload, phase, setup_s)
    else:
        tracer.write(OUT / f"spans-{stem}.jsonl")
        spans = list(tracer.spans)
        failures += harness.bits_pass(workload, tracer)
        metrics, layers = harness.per_layer_metrics(spans, tracer.bits, phase)
        base = metrics["trace.traced_item_s"][0]
        shares = sorted(((agg["self_s"] / base, name) for name, agg in layers.items()
                         if agg["calls"]), reverse=True)
        summary["self_share_of_traced_items"] = {name: round(s, 4) for s, name in shares}

    info = provenance(symrank, args)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "summary": summary, "failures": failures[:20],
                   "result": result}, fh, indent=2, sort_keys=True)
    print("provenance " + json.dumps(info, sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
