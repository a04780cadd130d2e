"""Acceptance gate: ten criteria, one test each, run with ``pytest -v``.

Each test is independent evidence that a core behavior holds: the numeric
kernels match brute-force oracles, the metric definitions are exact, and the
end-to-end protocols reproduce the qualitative results the package exists to
demonstrate — distilled agreement beats raw token probabilities, few samples
already help, the advantage survives a difficulty shift, and every pipeline
is byte-for-byte deterministic.

Thresholds on generator-driven criteria were fixed by running the generator
once at the settings below and recording the measured values (noted inline);
all runs are seeded, so the measurements are exactly reproducible.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conscal import records, seeding, synth
from conscal.calibrator import (
    fit_pipeline,
    fit_ridge,
    load_model,
    pava,
    predict,
    save_model,
)
from conscal.cli import main
from conscal.evaluation import (
    TrialConfig,
    build_dataset,
    feature_matrix,
    run_trials,
    selective_curve,
    shift_eval,
    split_cal_test,
)
from conscal.metrics import auroc, brier, compute_report, ece, mce

from oracles import auroc_by_pair_counting, isotonic_by_enumeration, ridge_by_elimination


def _sets_from(config):
    queries, generations, labels = synth.generate(config)
    grouped, diagnostics = records.group_generations(queries, generations)
    assert not diagnostics
    return grouped, labels


@pytest.fixture(scope="module")
def benchmark_data():
    grouped, labels = _sets_from(synth.benchmark_config(n_queries=1000, k=100, seed=0))
    return build_dataset(grouped, labels)


@pytest.fixture(scope="module")
def benchmark_result(benchmark_data):
    config = TrialConfig(
        n_trials=50,
        cal_fraction=0.4,
        bins=12,
        master_seed=0,
        methods=("distilled", "token_prob"),
        selective_rates=(0.0, 0.1, 0.2, 0.3, 0.5),
    )
    return run_trials(benchmark_data, config)


def test_criterion_01_isotonic_regression_matches_brute_force():
    started = time.monotonic()
    gen = np.random.default_rng(101)
    for _ in range(500):
        n = int(gen.integers(1, 9))
        values = gen.uniform(-1.0, 2.0, size=n)
        weights = gen.uniform(0.1, 3.0, size=n) if gen.random() < 0.5 else None
        fitted = pava(values, weights)
        oracle = isotonic_by_enumeration(values, weights)
        assert np.max(np.abs(fitted - oracle)) <= 1e-9
    for _ in range(100):
        n = int(gen.integers(1, 501))
        values = gen.uniform(-5.0, 5.0, size=n)
        weights = gen.uniform(0.05, 4.0, size=n)
        fitted = pava(values, weights)
        assert np.all(np.diff(fitted) >= -1e-12)  # nondecreasing
        assert np.dot(weights, fitted) == pytest.approx(  # mass preserved
            np.dot(weights, values), rel=1e-10, abs=1e-8
        )
    assert time.monotonic() - started < 10.0


def test_criterion_02_ridge_solver_matches_elimination():
    started = time.monotonic()
    gen = np.random.default_rng(202)
    for _ in range(200):
        n = int(gen.integers(3, 51))
        d = int(gen.integers(1, 11))
        features = gen.normal(0.0, gen.uniform(0.5, 2.0), size=(n, d))
        targets = gen.normal(0.0, 1.0, size=n)
        alpha = float(10.0 ** gen.uniform(-2, 3))
        model = fit_ridge(features, targets, alpha=alpha)
        weights, intercept = ridge_by_elimination(features, targets, alpha)
        assert np.max(np.abs(model.weights - np.asarray(weights))) <= 1e-8
        assert abs(model.intercept - intercept) <= 1e-8
    assert time.monotonic() - started < 5.0


def test_criterion_03_auroc_matches_pair_counting():
    started = time.monotonic()
    gen = np.random.default_rng(303)
    tied_instances = 0
    for i in range(500):
        n = int(gen.integers(2, 121))
        if i % 5 < 2:  # 40% of instances use a coarse grid to force ties
            scores = gen.integers(0, 5, size=n) / 4.0
            tied_instances += 1
        else:
            scores = gen.uniform(0.0, 1.0, size=n)
        labels = gen.integers(0, 2, size=n)
        fast = auroc(scores, labels)
        slow = auroc_by_pair_counting(scores.tolist(), labels.tolist())
        if slow is None:
            assert fast is None
        else:
            assert fast == pytest.approx(slow, abs=1e-12)
    assert tied_instances >= 150
    assert time.monotonic() - started < 10.0


def test_criterion_04_metric_definitions_are_exact():
    # Hand-derived instance: bins split 2/2, per-bin gaps 0.15 and 0.15,
    # so the L1 mean, L2 mean, and max all equal 0.15.
    conf = [0.3, 0.4, 0.8, 0.9]
    labels = [0, 1, 1, 1]
    assert ece(conf, labels, bins=2, p=1) == pytest.approx(0.15, abs=1e-12)
    assert ece(conf, labels, bins=2, p=2) == pytest.approx(0.15, abs=1e-12)
    assert mce(conf, labels, bins=2) == pytest.approx(0.15, abs=1e-12)

    # Degenerate anchor cases.
    assert ece([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1], bins=2, p=1) == 0.0
    assert mce([1.0, 1.0, 1.0], [0, 0, 0], bins=1) == 1.0
    assert ece([1.0, 1.0, 1.0], [0, 0, 0], bins=1, p=2) == 1.0
    assert brier([1.0, 1.0], [0, 0]) == 1.0
    assert brier([0.5, 0.5], [0, 1]) == 0.25
    assert ece([0.5, 0.5], [0, 1], bins=1, p=1) == 0.0
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.5, 0.5], [1, 0]) == 0.5

    gen = np.random.default_rng(404)
    for _ in range(1000):
        bins = int(gen.integers(1, 13))
        n = int(gen.integers(bins, 201))
        conf = gen.integers(0, 5, size=n) / 4.0 if gen.random() < 0.3 else gen.uniform(size=n)
        labels = gen.integers(0, 2, size=n)
        report = compute_report(conf, labels, bins=bins)
        assert 0.0 <= report.ece1 <= report.ece2 + 1e-12
        assert report.ece2 <= report.mce + 1e-12
        assert report.mce <= 1.0
        assert 0.0 <= report.brier <= 1.0


def test_criterion_05_majority_vote_is_calibrated_under_dominant_distractors():
    # Measured once at these settings: per-seed ECE1 0.016-0.041, mean 0.0272.
    started = time.monotonic()
    values = []
    for seed in range(10):
        grouped, labels = _sets_from(synth.premise_config(seed=seed))
        data = build_dataset(grouped, labels)
        values.append(ece(data.targets_s, data.tt_correct, bins=12, p=1))
    assert float(np.mean(values)) <= 0.05
    assert time.monotonic() - started < 60.0


def test_criterion_06_distilled_beats_token_probabilities(benchmark_result):
    # Measured once at these settings: distilled 0.0575, token_prob 0.2691.
    started = time.monotonic()
    distilled = benchmark_result.methods["distilled"]
    token = benchmark_result.methods["token_prob"]
    assert distilled.ece2 <= 0.06
    assert token.ece2 >= 0.15
    assert distilled.ece2 < token.ece2
    assert time.monotonic() - started < 120.0


def test_criterion_07_more_samples_never_hurt(benchmark_data):
    # Measured once: ece2 by k = 0.1144, 0.0875, 0.0717, 0.0587, 0.0595;
    # token_prob at the same settings = 0.2673.
    started = time.monotonic()
    curve = {}
    token_ece2 = None
    for k in (5, 10, 20, 50, 100):
        config = TrialConfig(
            n_trials=20,
            cal_fraction=0.4,
            bins=12,
            master_seed=0,
            methods=("distilled", "token_prob") if k == 5 else ("distilled",),
            k_subsample=k,
        )
        result = run_trials(benchmark_data, config)
        curve[k] = result.methods["distilled"].ece2
        if k == 5:
            token_ece2 = result.methods["token_prob"].ece2
    values = [curve[k] for k in (5, 10, 20, 50, 100)]
    for previous, current in zip(values, values[1:]):
        assert current <= previous + 0.01  # nonincreasing within tolerance
    assert curve[5] < token_ece2  # five samples already beat token probabilities
    assert time.monotonic() - started < 180.0


def test_criterion_08_distilled_survives_group_shift():
    # Measured once: in-domain 0.0719, shifted 0.0780 (degradation +0.0062);
    # shifted-arm competitors: token 0.4228, answer 0.4727, verbal 0.3762.
    started = time.monotonic()
    grouped, labels = _sets_from(synth.shifted_benchmark_config(n_queries=500, k=100, seed=0))
    data = build_dataset(grouped, labels)
    config = TrialConfig(
        n_trials=20,
        cal_fraction=0.4,
        bins=12,
        master_seed=0,
        methods=("distilled", "token_prob", "answer_prob", "verbal_conf"),
    )
    arms = shift_eval(data, config, ["main"], ["shifted"])
    in_domain = arms["in_domain"].methods["distilled"].ece2
    shifted = {m: s.ece2 for m, s in arms["shifted"].methods.items()}
    assert shifted["distilled"] - in_domain < 0.05
    assert shifted["distilled"] == min(shifted.values())
    assert time.monotonic() - started < 60.0


def test_criterion_09_selective_prediction_behaves(benchmark_data, benchmark_result):
    started = time.monotonic()

    # With oracle confidences (the labels themselves), the mean accuracy gain
    # must grow monotonically as the abstention rate rises.
    rates = tuple(round(0.1 * i, 1) for i in range(10))
    gain_sums = np.zeros(len(rates))
    trials = 100
    for t in range(trials):
        _, test_idx = split_cal_test(benchmark_data.n, 0.4, seed=seeding.mix(777, t))
        labels = benchmark_data.deploy_correct[test_idx]
        ids = [benchmark_data.query_ids[i] for i in test_idx]
        points = selective_curve(labels, labels, rates, query_ids=ids)
        gain_sums += np.array([p.gain[0] for p in points])
    mean_gains = gain_sums / trials
    for previous, current in zip(mean_gains, mean_gains[1:]):
        assert current >= previous - 0.01

    # Measured once: distilled gain at rate 0.3 = 0.2068, token_prob = 0.1385.
    by_rate = {row.rate: row for row in benchmark_result.methods["distilled"].selective}
    token_by_rate = {row.rate: row for row in benchmark_result.methods["token_prob"].selective}
    assert by_rate[0.3].gain > token_by_rate[0.3].gain

    # Answered and abstained sides must stay honest: mean confidence tracks
    # accuracy on both sides of the cut.  Measured once: answered gap 0.0140,
    # abstained gap 0.0357 (means over 20 refits).
    answered_gaps = []
    abstained_gaps = []
    for t in range(20):
        tseed = seeding.mix(0, t)
        cal_idx, test_idx = split_cal_test(benchmark_data.n, 0.4, seed=seeding.mix(tseed, 1))
        model = fit_pipeline(
            benchmark_data.features[cal_idx],
            benchmark_data.targets_s[cal_idx],
            split_frac=0.5,
            seed=seeding.mix(tseed, 2),
            alpha=1.0,
            feature_source="response_embedding",
        )
        confidences = np.asarray(predict(model, benchmark_data.features[test_idx]), dtype=float)
        labels = benchmark_data.deploy_correct[test_idx]
        ids = [benchmark_data.query_ids[i] for i in test_idx]
        (point,) = selective_curve(confidences, labels, [0.3], query_ids=ids)
        answered_gaps.append(abs(point.confidence[0] - point.accuracy[0]))
        abstained_gaps.append(abs(point.abstained_confidence[0] - point.abstained_accuracy[0]))
    assert float(np.mean(answered_gaps)) <= 0.05
    assert float(np.mean(abstained_gaps)) <= 0.05
    assert time.monotonic() - started < 120.0


def test_criterion_10_determinism_and_round_trips(tmp_path):
    synth_flags = ["--n-queries", "30", "--k", "5", "--seed", "9"]
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for out in (run_a, run_b):
        assert main(["synth", *synth_flags, "--out", str(out)]) == 0
    data_files = ("queries.jsonl", "generations.jsonl", "labels.jsonl",
                  "truth.jsonl", "config.json")
    for name in data_files:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    data_flags = ["--queries", str(run_a / "queries.jsonl"),
                  "--generations", str(run_a / "generations.jsonl")]
    model_a = tmp_path / "ma"
    model_b = tmp_path / "mb"
    for out in (model_a, model_b):
        assert main(["train", *data_flags, "--seed", "4", "--out", str(out)]) == 0
    assert (model_a / "model.json").read_bytes() == (model_b / "model.json").read_bytes()

    eval_flags = data_flags + ["--labels", str(run_a / "labels.jsonl"),
                               "--trials", "2", "--bins", "4", "--seed", "6"]
    eval_a = tmp_path / "ea"
    eval_b = tmp_path / "eb"
    for out in (eval_a, eval_b):
        assert main(["eval", *eval_flags, "--out", str(out)]) == 0
    for name in ("report.json", "trials.tsv", "config.json"):
        assert (eval_a / name).read_bytes() == (eval_b / name).read_bytes(), name

    # Artifact round trip: load -> save reproduces the file byte for byte,
    # and the reloaded model scores identically.
    model = load_model(str(model_a / "model.json"))
    resaved = tmp_path / "resaved.json"
    save_model(str(resaved), model)
    assert resaved.read_bytes() == (model_a / "model.json").read_bytes()
    queries = records.load_queries(str(run_a / "queries.jsonl"))
    sets = records.load_generations(str(run_a / "generations.jsonl"), queries)
    features = feature_matrix(sets, "response_embedding")
    reloaded = load_model(str(resaved))
    assert np.array_equal(
        np.asarray(predict(model, features)), np.asarray(predict(reloaded, features))
    )

    # Record files round-trip exactly: load -> write reproduces the bytes.
    # Records drop sampling_meta, so the writer is given synth's again.
    rewritten = tmp_path / "queries2.jsonl"
    records.write_queries(str(rewritten), queries)
    assert rewritten.read_bytes() == (run_a / "queries.jsonl").read_bytes()
    rewritten = tmp_path / "generations2.jsonl"
    batch, diagnostics = records.scan_generation_records(str(run_a / "generations.jsonl"))
    assert diagnostics == []
    meta = synth.sampling_meta(synth.benchmark_config(n_queries=30, k=5, seed=9))
    records.write_generations(str(rewritten), batch, meta)
    assert rewritten.read_bytes() == (run_a / "generations.jsonl").read_bytes()
    z = records.load_labels(str(run_a / "labels.jsonl"), sets)
    rewritten = tmp_path / "labels2.jsonl"
    records.write_labels(str(rewritten), sets.batch, z)
    assert rewritten.read_bytes() == (run_a / "labels.jsonl").read_bytes()

    # The JSON report is loadable and carries the format tag.
    report = json.loads((eval_a / "report.json").read_text(encoding="utf-8"))
    assert report["format"] == "conscal-report/1"
