"""Tests of the benchmark's own helpers.  Run: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import math
import sys

import pytest

import run as bench
import tracing
import workloads
from conscal import consistency, evaluation, metrics, synth


def span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("records.load_queries", 1.0, 3.0, parent=0),
        span("records.scan_queries", 1.5, 2.5, parent=1),
        span("evaluation.build_dataset", 4.0, 9.0, parent=0),
        span("consistency.build_target", 5.0, 6.0, parent=3),
        span("consistency.build_target", 7.0, 8.5, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 2.5, 1.0, 1.5])


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (3.5, 3.8)], 0.0, 10.0) == pytest.approx(3.0)
    assert tracing.covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (10, None), (11, (100.0 / 11, 0.0)), (20, (50.0, 9.0)), (100, (90.0, 89.0))],
)
def test_high_percentile_keeps_ten_samples_beyond(n, expected):
    values = [float(v) for v in reversed(range(n))]
    got = bench.high_percentile(values)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected)
        assert sum(v > got[1] for v in values) == 10


def _bindings(fn):
    return [
        (name, attr) for name, module in list(sys.modules.items())
        if name == "conscal" or name.startswith("conscal.")
        for attr, value in vars(module).items() if value is fn
    ]


def test_installed_wraps_every_binding_and_restores_the_originals():
    originals = {
        "build_target": consistency.build_target,
        "extract_boxed": consistency.extract_boxed,
        "compute_report": metrics.compute_report,
    }
    bound = {key: _bindings(fn) for key, fn in originals.items()}
    assert ("conscal.evaluation", "build_target") in bound["build_target"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert evaluation.build_target is not originals["build_target"]
        assert consistency.build_target is not originals["build_target"]
        assert evaluation.compute_report is not originals["compute_report"]
        for key in originals:
            assert _bindings(originals[key]) == []
    for key, fn in originals.items():
        assert _bindings(fn) == bound[key]
    assert evaluation.build_target is originals["build_target"]


def test_traced_calls_count_and_nest_under_their_caller():
    queries, generations, labels = synth.generate(synth.benchmark_config(n_queries=3, k=4, seed=2))
    from conscal import records

    sets, _ = records.group_generations(queries, generations)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(0):
        evaluation.build_dataset(sets, labels)
    with tracer.operation(1):
        evaluation.build_dataset(sets, labels)  # not installed: nothing recorded
    per_op = tracing.layer_metrics(tracer, generations=12, queries=3)
    assert set(per_op) == {0, 1}
    assert per_op[0]["consistency.build_target_calls"] == 3
    assert per_op[0]["consistency.extract_boxed_calls"] == 12 + 3
    assert per_op[1]["consistency.build_target_calls"] == 0
    names = [s[0] for s in tracer.spans]
    top = names.index("evaluation.build_dataset")
    assert all(s[3] == top for s in tracer.spans if s[0] == "consistency.build_target")


def test_compare_tolerates_ulp_drift_but_not_real_changes():
    reference = {"distilled": {"ece1": 0.0376, "auroc": None, "selective": [{"answered": 9}]}}
    drifted = json.loads(json.dumps(reference))
    drifted["distilled"]["ece1"] += 2.2e-16
    assert workloads.compare(drifted, reference) == []
    moved = json.loads(json.dumps(reference))
    moved["distilled"]["ece1"] += 1e-6
    assert workloads.compare(moved, reference) == [
        f"distilled.ece1: {moved['distilled']['ece1']!r} != reference 0.0376"
    ]
    moved["distilled"]["selective"][0]["answered"] = 8
    assert len(workloads.compare(moved, reference)) == 2


TINY = workloads.Size(n_queries=30, k=100)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, trace, tmp_path, capsys):
    workload = workloads.WORKLOADS[name](3, TINY, str(tmp_path / "work"), None)
    code = bench.run(workload, 0.0, bool(trace), str(tmp_path), 0.0)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    with open(bench.os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_an_op_whose_output_changes_fails_its_check(tmp_path):
    w = workloads.AblationWorkload(1, TINY, str(tmp_path), None)
    w.prepare()
    first = w.op()
    assert w.check(first) == []
    changed = json.loads(json.dumps(first))
    changed["5"]["ece1"] += 1e-3
    assert w.check(changed) == ["output differs from the run's first op"]
