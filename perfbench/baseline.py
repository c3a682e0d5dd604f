"""Per-call medians of the three conjugation kernels at n = 4, 5 and 6.

    python3 perfbench/baseline.py [--seed 0]

For each n, runs one input cycle of the ``conjugate`` workload at that size
(every Jordan structure, two conjugations each, one of them traced) and
prints the traced per-call medians of ``random_similarity``,
``jacobian_exact`` and ``rank_exact`` as a markdown table, raw and scaled to
the nominal probe time.  Takes about a minute and a half.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run

KERNELS = ("canonical.random_similarity", "jacobian.jacobian_exact", "jacobian.rank_exact")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    run.import_symrank()
    import harness
    import tracing
    from workloads import Conjugate

    print("| n | conjugations traced | " + " | ".join(f"{k.split('.')[1]} ms raw / nominal"
                                                     for k in KERNELS) + " | probe ms |")
    print("| --- " * (len(KERNELS) + 3) + "|")
    for n in (4, 5, 6):
        workload = Conjugate(args.seed, "")
        workload.n = n
        workload.setup()
        workload.min_items = workload.cycle
        tracer = tracing.Tracer()
        phase = harness.timed_phase(workload, 0.0, tracer)
        if phase.failures:
            print(f"n = {n}: {len(phase.failures)} failed items", file=sys.stderr)
            return 1
        raw = tracing.aggregate(tracer.spans)
        nominal = tracing.aggregate(tracer.spans, dict(enumerate(phase.scale)))
        cells = [f"{raw[k]['ms_p50']:.2f} / {nominal[k]['ms_p50']:.2f}" for k in KERNELS]
        probe = statistics.median(phase.probe.durations) * 1e3
        print(f"| {n} | {raw[KERNELS[0]]['calls']} | " + " | ".join(cells) + f" | {probe:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
