"""Set-up, the timed closed loop, the bit-growth pass and the metrics they give.

Import after ``symrank`` is importable (``run.import_symrank`` sees to that).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from probe import Probe
from workloads import BITS, TIMED, WARMUP

SETUP_REPEATS = 5
SETUP_PROBES = 8
# stop the timed phase here even if min_items is not reached, to end in time
HARD_CAP_S = 150.0
HERE = Path(__file__).resolve().parent
CHILD_IMPORT = f"""
from time import perf_counter
from probe import Probe
probe = Probe({SETUP_PROBES})
probe.run()
start = perf_counter()
import symrank
elapsed = perf_counter() - start
probe.run()
print(elapsed * probe.scale(0))
"""


def import_in_child(src: Path) -> float:
    """Nominal seconds of `import symrank` in a fresh interpreter, scaled by
    probes run in that interpreter (the in-process import is paid only once,
    so each set-up repeat pays it this way)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(HERE))))
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORT], cwd=src.parent, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def attempt(workload, item):
    """Run one item and check it: (seconds, ok, summary or error text)."""
    start = perf_counter()
    try:
        out = workload.run(item)
    except Exception:  # a failed item is counted, and the run goes on
        return perf_counter() - start, False, traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    try:
        ok, summary = workload.check(item, out)
    except Exception:
        return elapsed, False, traceback.format_exc(limit=3)
    return elapsed, ok, summary


def set_up(workload_cls, seed: int, scratch: str, src: Path):
    """Build the workload and warm it up SETUP_REPEATS times.

    Each repeat imports symrank in a child, generates the inputs afresh and
    warms up on its own derived seed, never the timed one.  A probe burst
    separates every later step, so each is scaled by the bursts next to it.
    Returns the last workload, the median nominal set-up time and the
    warm-up failures.
    """
    probe = Probe(SETUP_PROBES)
    steps = []  # (repeat, raw seconds), each step between two probe bursts
    totals = [0.0] * SETUP_REPEATS
    failures = []

    def step(rep, fn, *args):
        probe.run()
        start = perf_counter()
        out = fn(*args)
        steps.append((rep, perf_counter() - start))
        return out

    for rep in range(SETUP_REPEATS):
        totals[rep] += import_in_child(src)
        workload = step(rep, workload_cls, seed, scratch)
        step(rep, workload.setup)
        for index in range(workload.warmup_items):
            _, ok, summary = step(rep, attempt, workload, workload.item(WARMUP + rep, index))
            if not ok:
                failures.append({"phase": "warmup", "index": index, "detail": str(summary)})
    probe.run()
    for interval, (rep, raw) in enumerate(steps):
        totals[rep] += raw * probe.scale(interval)
    return workload, statistics.median(totals), failures


@dataclass
class Phase:
    """What one timed phase measured.  Item times are raw seconds; `scale`
    holds each item's factor to nominal time."""

    probe: Probe
    wall: float = 0.0
    raw: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def times(self, traced: bool = False) -> list:
        """Nominal item times of the traced or the untraced items."""
        return [r * f for r, f, t in zip(self.raw, self.scale, self.traced) if t == traced]


def timed_phase(workload, seconds: float, tracer=None) -> Phase:
    """Closed loop over items 0, 1, ... until `seconds` have passed, at least
    `workload.min_items` are done and the last input cycle is whole, so every
    run sees the same mix.  A probe burst runs before each item.  With a
    tracer, one item of each pair is traced (alternating which) and the other
    runs with the original functions."""
    probe = Probe(workload.probes)
    phase = Phase(probe)
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        now = perf_counter()
        if now - start > HARD_CAP_S:
            break
        if (now >= deadline and index >= workload.min_items
                and index % workload.cycle == 0):
            break
        item = workload.item(TIMED, index)
        probe.run()
        traced = tracer is not None and index % 2 == (index // 2) % 2
        if traced:
            tracer.item = index
            tracer.install()
        try:
            elapsed, ok, summary = attempt(workload, item)
        finally:
            if traced:
                tracer.restore()
        phase.raw.append(elapsed)
        phase.traced.append(traced)
        if not ok:
            phase.failures.append({"phase": "timed", "index": index, "detail": str(summary)})
        index += 1
    phase.wall = perf_counter() - start
    probe.run()
    phase.scale = [probe.scale(i) for i in range(index)]
    return phase


def bits_pass(workload, tracer):
    """Bit-growth counters over a fixed item set, so they repeat exactly for
    a seed; its spans are discarded, since counting distorts their times."""
    failures = []
    tracer.spans.clear()
    tracer.count_bits = True
    for index in range(workload.bits_items):
        tracer.item = index
        tracer.install()
        try:
            _, ok, summary = attempt(workload, workload.item(BITS, index))
        finally:
            tracer.restore()
        if not ok:
            failures.append({"phase": "bits", "index": index, "detail": str(summary)})
    tracer.count_bits = False
    tracer.spans.clear()
    return failures


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; q = 1.0 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(workload, phase: Phase, setup_s: float) -> dict:
    """name -> (value, unit) for the untraced run, all times nominal."""
    times = phase.times()
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "item_ms_tail": (percentile(times, workload.tail_q) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(spans, bits, phase: Phase):
    """name -> (value, unit) for the traced run, plus the aggregates; span
    times are scaled to nominal with the factor of their item."""
    layers = tracing.aggregate(spans, dict(enumerate(phase.scale)))
    metrics = {}
    for name, agg in layers.items():
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                          ("ms_p50", "ms")):
            metrics[f"{name}.{key}"] = (agg[key], unit)
    for name, side in tracing.BIT_COUNTERS.items():
        metrics[f"{name}.{side}_bits_max"] = (bits[name], "bits")
    # one characteristic polynomial per curve is the best the cache can do
    queries = layers["proofs.order_of_vanishing"]["calls"]
    misses = tracing.count_under(spans, "matpoly.charpoly_in_ring",
                                 "proofs.order_of_vanishing")
    metrics["proofs.order_of_vanishing.curve_miss_ratio"] = (
        misses / queries if queries else 0.0, "ratio")
    traced, untraced = sum(phase.times(traced=True)), sum(phase.times())
    metrics["trace.traced_items"] = (phase.traced.count(True), "count")
    metrics["trace.traced_item_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    return metrics, layers
