"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import symrank  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Per workload, the spans that must have calls; every span is somewhere.
ASSIGNED = {
    "sweep": [
        "canonical.random_similarity", "canonical.build_jordan",
        "canonical.jordan_to_frobenius", "matpoly.char_and_adjugate.exact",
        "matpoly.charpoly_in_ring", "jacobian.verify_theorem", "jacobian.jacobian_exact",
        "jacobian.rank_exact", "jacobian.directional_derivative", "proofs.nullspace_basis",
        "proofs.verify_annihilation", "proofs.tangent_construction", "proofs.tangent_ok",
        "proofs.confluent_vandermonde_det", "cli.main", "cli.run_sweep",
        "cli.enumerate_jordan_specs",
    ],
    "conjugate": [
        "canonical.random_similarity", "matpoly.char_and_adjugate.exact",
        "matpoly.charpoly_in_ring", "jacobian.jacobian_exact", "jacobian.rank_exact",
    ],
    "ord": ["canonical.build_jordan", "matpoly.charpoly_in_ring", "proofs.order_of_vanishing"],
    "float_oracle": [
        "canonical.min_poly_krylov", "matpoly.char_and_adjugate.float", "matpoly.symmetrize",
        "jacobian.jacobian_exact", "jacobian.jacobian_fd", "jacobian.numeric_rank_profile",
    ],
}


def _namespaces():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "symrank" or name.startswith("symrank.")}


def _workload(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    wl.setup()
    return wl


def test_every_span_is_assigned_to_a_workload():
    assigned = {name for names in ASSIGNED.values() for name in names}
    assert assigned == set(tracing.span_names())


def test_wrappers_reach_every_binding_and_restore_every_original():
    before = _namespaces()
    tracer = tracing.Tracer()
    bound = {(module.__name__, attr) for module, attr, _ in tracer.bindings}
    for module in ("symrank", "symrank.jacobian", "symrank.proofs", "symrank.cli"):
        assert (module, "rank_exact") in bound
    for layer, functions in tracing.LAYERS.items():
        for fn in functions:
            assert (f"symrank.{layer}", fn) in bound
    tracer.install()
    try:
        for module, attr, original in tracer.bindings:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    # seed 0 also holds the sweep to the digest recorded in workloads.Sweep
    wl = _workload(name, 0, tmp_path)
    items = [wl.item(workloads.TIMED, i) for i in range(2 if name == "sweep" else 8)]
    plain = [harness.attempt(wl, item) for item in items]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [harness.attempt(wl, item) for item in items]
    finally:
        tracer.restore()
    assert all(ok for _, ok, _ in plain + traced)
    assert [out for _, _, out in plain] == [out for _, _, out in traced]
    assert tracer.spans
    if name == "sweep":
        assert plain[0][2] == workloads.Sweep.RECORDED_DIGESTS[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_assigned_layers_have_calls(name, tmp_path):
    wl = _workload(name, 11, tmp_path)
    wl.cycle, wl.min_items = 2, 4
    tracer = tracing.Tracer()
    phase = harness.timed_phase(wl, 0.0, tracer)
    assert not phase.failures
    assert len(phase.times(traced=True)) == len(phase.times()) == 2
    layers = tracing.aggregate(tracer.spans)
    for span in ASSIGNED[name]:
        assert layers[span]["calls"] > 0, span
    if name == "float_oracle":
        # no exact-field work on the float path
        assert {s for s, agg in layers.items() if agg["calls"]} == set(ASSIGNED[name])
    if name == "ord":
        metrics, _ = harness.per_layer_metrics(tracer.spans, tracer.bits, phase)
        # fresh curves: one characteristic polynomial per curve, n queries each
        assert metrics["proofs.order_of_vanishing.curve_miss_ratio"][0] == 1 / wl.n


def test_bit_counters_repeat_exactly(tmp_path):
    wl = _workload("conjugate", 5, tmp_path)
    wl.bits_items = 6
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        assert not harness.bits_pass(wl, tracer)
        assert not tracer.spans
        counts.append(tracer.bits)
    assert counts[0] == counts[1]
    assert all(bits > 0 for bits in counts[0].values())


def test_max_bits_reads_exact_entries():
    x = symrank.gq("-1024/3", "5/7")
    assert tracing.max_bits(x) == 11
    assert tracing.max_bits(symrank.SquareMatrix.from_rows([[x, 0], [0, 1]], "exact")) == 11
    assert tracing.max_bits([[1j, 2.0]]) == 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conjugate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_run_prints_the_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "float_oracle", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
