"""Trial protocols: dataset assembly, splits, selective prediction, shift."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conscal import consistency, evaluation, records, seeding, synth
from conscal.baselines import PlattModel, apply_platt
from conscal.errors import ConfigError, DataError
from conscal.evaluation import (
    DEFAULT_METHODS,
    TrialConfig,
    build_dataset,
    config_echo,
    report_document,
    run_trials,
    selective_curve,
    shift_eval,
    split_cal_test,
    trial_table,
)
from conscal.metrics import auroc, compute_report

from conftest import make_batch, make_generation, make_query, make_set
from oracles import (
    aggregate_by_trial_loop,
    distilled_trial_by_fit,
    platt_by_full_newton,
    reports_by_trial_loop,
    selective_by_trial_loop,
)


def _synth_sets(n=80, k=8, seed=0, **overrides):
    config = synth.SynthConfig(n_queries=n, k=k, embedding_dim=5, seed=seed, **overrides)
    queries, generations, labels = synth.generate(config)
    # synth writes each query's k rows in a run, in query order.
    assert generations.query_id == tuple(q.query_id for q in queries for _ in range(k))
    rows = np.arange(len(generations), dtype=np.intp)
    offsets = np.arange(0, len(generations) + 1, k, dtype=np.intp)
    sets = records.SampleSets(tuple(queries), generations, rows, offsets)
    return sets, labels


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


def test_build_dataset_precomputes_aligned_arrays():
    sets, labels = _synth_sets()
    data = build_dataset(sets, labels)
    assert data.n == 80
    assert data.features.shape == (80, 5)
    for array in (
        data.targets_s,
        data.token_prob,
        data.answer_prob,
        data.verbal_conf,
        data.deploy_correct,
        data.tt_correct,
    ):
        assert array.shape == (80,)
    assert np.all((data.targets_s > 0.0) & (data.targets_s <= 1.0))
    assert np.all(np.isin(data.deploy_correct, (0.0, 1.0)))
    assert data.feature_source == "response_embedding"


def test_missing_answer_spans_disable_answer_prob():
    sets, _ = _synth_sets(n=6, k=3)
    batch = sets.batch
    without_spans = dataclasses.replace(
        batch,
        answer_token_logprobs=np.empty(0),
        answer_token_offsets=np.zeros(len(batch) + 1, dtype=np.intp),
    )
    stripped = dataclasses.replace(sets, batch=without_spans)
    data = build_dataset(stripped)
    assert np.isnan(data.answer_prob).all()
    config = TrialConfig(n_trials=1, methods=("answer_prob",), bins=2, cal_fraction=0.5)
    with pytest.raises(DataError) as raised:
        run_trials(data, config)
    assert not isinstance(raised.value, ConfigError)
    assert str(raised.value) == (
        "query q000000 sample 0: record lacks the answer-span log-probabilities "
        "needed by answer_prob"
    )
    run_trials(data, dataclasses.replace(config, methods=("token_prob",)))


def test_question_embedding_source_reads_the_query_vector():
    sets, labels = _synth_sets(n=10, k=3)
    data = build_dataset(sets, labels, feature_source="question_embedding")
    expected = np.array([q.question_embedding for q in sets.queries])
    assert np.array_equal(data.features, expected)


def test_labels_take_precedence_over_gold_answers():
    sample_set = make_set(["a", "a"], query_id="q1", gold=("a",))
    contradicting = np.array([0, 0], dtype=np.int8)
    with_labels = build_dataset(sample_set, contradicting)
    assert with_labels.deploy_correct.tolist() == [0.0]
    assert with_labels.tt_correct.tolist() == [0.0]
    by_gold = build_dataset(sample_set)
    assert by_gold.deploy_correct.tolist() == [1.0]


def test_partial_labels_fall_back_to_gold_per_sample():
    sample_set = make_set(["a", "b"], query_id="q1", gold=("b",))
    only_first = np.array([1, -1], dtype=np.int8)  # contradicts gold on sample 0
    data = build_dataset(sample_set, only_first)
    assert data.deploy_correct.tolist() == [1.0]  # label wins on the deployment
    # tt target is the tie-broken modal answer "a" carried by sample 0: labeled 1.
    assert data.tt_correct.tolist() == [1.0]


def test_labels_must_be_a_column_over_the_sets_shared_batch():
    sets, z = _synth_sets(n=4, k=2)
    with pytest.raises(DataError, match="7 entries for 8 generation rows"):
        build_dataset(sets, z[:-1])


def test_gold_fallback_judges_the_deployed_answer_apart_from_the_vote():
    data = build_dataset(make_set(["b", "a", "a", None], gold=("b",)))
    assert (data.deploy_correct.tolist(), data.tt_correct.tolist()) == ([1.0], [0.0])
    unanswered = build_dataset(make_set([None, "a"], gold=("a",)))
    assert (unanswered.deploy_correct.tolist(), unanswered.tt_correct.tolist()) == ([0.0], [1.0])


def test_no_correctness_source_is_an_error():
    sample_set = make_set(["a"], gold=None)
    with pytest.raises(DataError, match="correctness"):
        build_dataset(sample_set)


def test_build_dataset_rejects_empty_input_and_bad_source():
    with pytest.raises(DataError):
        build_dataset([])
    sets, _ = _synth_sets(n=4, k=2)
    with pytest.raises(ConfigError):
        build_dataset(sets, feature_source="nope")


def test_inconsistent_feature_dimensions_are_reported():
    # The loader rejects ragged question embeddings; hand-built queries can hold them.
    queries = [
        make_query("q1", question_embedding=(0.0, 1.0)),
        make_query("q2", question_embedding=(0.0, 1.0, 2.0)),
    ]
    batch = make_batch([make_generation(q.query_id, 0, answer="a") for q in queries])
    sets, _ = records.group_generations(queries, batch)
    with pytest.raises(DataError, match="inconsistent feature dimensions across queries"):
        build_dataset(sets, feature_source="question_embedding")


def test_subset_slices_every_array_consistently():
    sets, labels = _synth_sets(n=20, k=3)
    data = build_dataset(sets, labels)
    sub = data.subset([3, 7, 11])
    assert sub.n == 3
    for f in dataclasses.fields(data):
        value, full = getattr(sub, f.name), getattr(data, f.name)
        if isinstance(full, np.ndarray):
            assert np.array_equal(value, full[[3, 7, 11]]), f.name
        elif isinstance(full, tuple):
            assert value == tuple(full[i] for i in (3, 7, 11)), f.name
        else:
            assert value == full, f.name
    every = consistency.answer_codes(sets)
    for coded, i in zip(sub.codes, (3, 7, 11)):
        expected = every[i]
        assert np.array_equal(coded.codes, expected.codes)
        assert coded.answers == expected.answers
        assert (coded.query_id, coded.sample_index) == (expected.query_id, expected.sample_index)


def test_subsampled_trials_on_a_subset_match_a_dataset_built_from_it():
    sets, labels = _synth_sets(n=40, k=6)
    idx = [0, 2, 3, 5, 8, 13, 21, 22, 30, 34, 35, 39]
    config = TrialConfig(
        n_trials=3, cal_fraction=0.5, bins=3, methods=("distilled", "tt_sc"), k_subsample=2
    )
    from_subset = run_trials(build_dataset(sets, labels).subset(idx), config)
    picked, _ = records.group_generations([sets.queries[i] for i in idx], sets.batch)
    rebuilt = run_trials(build_dataset(picked, labels), config)
    assert from_subset == rebuilt


def test_a_subsample_of_every_sample_takes_the_modal_shares_without_a_draw(monkeypatch):
    sets, labels = _synth_sets(n=40, k=6)
    data = build_dataset(sets, labels)
    config = TrialConfig(n_trials=3, cal_fraction=0.5, bins=3, methods=("distilled", "tt_sc"))
    whole = run_trials(data, config)
    original, calls = consistency.subsample_shares, []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in (consistency, evaluation):
        monkeypatch.setattr(module, "subsample_shares", spy)
    assert run_trials(data, dataclasses.replace(config, k_subsample=6)) == whole
    assert calls == []
    run_trials(data, dataclasses.replace(config, k_subsample=5))  # the spy sees real draws
    assert len(calls) == 1


def test_answers_are_extracted_once_per_generation(monkeypatch):
    sets, labels = _synth_sets(n=30, k=4)
    original = consistency.extract_boxed
    calls = []
    monkeypatch.setattr(
        consistency, "extract_boxed", lambda text: calls.append(text) or original(text)
    )
    data = build_dataset(sets, labels)
    assert len(calls) == 30 * 4
    run_trials(data, dataclasses.replace(_FAST, n_trials=2, k_subsample=3))
    assert len(calls) == 30 * 4


def test_answer_disagreements_are_logged_once_per_build(caplog):
    sets, labels = _synth_sets(n=30, k=4)
    answers = list(sets.batch.answer)
    for i in sets.rows[: sets.offsets[1]][:2].tolist():
        answers[i] = "zz"
    edited = dataclasses.replace(sets.batch, answer=tuple(answers))
    sets = dataclasses.replace(sets, batch=edited)
    with caplog.at_level("WARNING", logger="conscal.consistency"):
        data = build_dataset(sets, labels)
        expected = [
            "2 pre-extracted answers disagree with the boxed answer: q000000/0, q000000/1"
        ]
        assert [r.getMessage() for r in caplog.records] == expected
        run_trials(data, dataclasses.replace(_FAST, n_trials=2, k_subsample=3))
        assert [r.getMessage() for r in caplog.records] == expected


_RECORDED = Path(__file__).parent / "data" / "subsample_n40_k20_seed0.json"


def test_subsampled_trials_match_the_recorded_results():
    # Recorded from the string-counting target builder, which extracted every
    # drawn sample again in every trial.  Every field must match exactly.
    recorded = json.loads(_RECORDED.read_text(encoding="utf-8"))["run_trials"]
    config = synth.benchmark_config(n_queries=40, k=20, seed=0)
    queries, generations, labels = synth.generate(config)
    sets, _ = records.group_generations(queries, generations)
    data = build_dataset(sets, labels)
    for k, methods in recorded.items():
        trial_config = TrialConfig(
            n_trials=3, bins=4, methods=("distilled", "tt_sc"), k_subsample=int(k),
            master_seed=1,
        )
        result = run_trials(data, trial_config)
        as_json = {m: dataclasses.asdict(_with_report_rows(s)) for m, s in result.methods.items()}
        assert json.loads(json.dumps(as_json)) == methods


def _with_report_rows(summary):
    """The summary with its per-trial table as one report per trial, the
    layout the results were recorded in."""
    table = summary.per_trial
    return dataclasses.replace(
        summary, per_trial=[_report_row(table, t) for t in range(len(table))]
    )


def _report_row(table, t):
    """Row ``t`` of a report table as plain values: a NaN AUROC as None, the
    bins as ``lower``/``upper``/``count``/``mean_confidence``/``accuracy``."""
    auroc_t = float(table.auroc[t])
    return {
        "ece1": float(table.ece1[t]),
        "ece2": float(table.ece2[t]),
        "mce": float(table.mce[t]),
        "brier": float(table.brier[t]),
        "auroc": None if math.isnan(auroc_t) else auroc_t,
        "bins": [
            {"lower": lo, "upper": hi, "count": hi - lo, "mean_confidence": conf, "accuracy": acc}
            for (lo, hi), conf, acc in zip(
                table.spans, table.mean_confidence[t].tolist(), table.accuracy[t].tolist()
            )
        ],
        "histogram": table.histogram[t].tolist(),
        "n": table.n,
    }


# ---------------------------------------------------------------------------
# splits and config validation
# ---------------------------------------------------------------------------


def test_split_sizes_use_the_floor_of_the_fraction():
    cal, test = split_cal_test(10, 0.4, seed=0)
    assert len(cal) == 4 and len(test) == 6
    assert sorted(np.concatenate([cal, test]).tolist()) == list(range(10))
    assert np.all(np.diff(cal) > 0) and np.all(np.diff(test) > 0)


def test_split_requires_two_queries_per_side():
    with pytest.raises(DataError):
        split_cal_test(10, 0.999, seed=0)
    with pytest.raises(DataError):
        split_cal_test(10, 0.05, seed=0)
    with pytest.raises(DataError):
        split_cal_test(10, 1.0, seed=0)


def test_split_is_deterministic_per_seed():
    assert split_cal_test(30, 0.4, seed=1)[0].tolist() == split_cal_test(30, 0.4, 1)[0].tolist()
    assert split_cal_test(30, 0.4, seed=1)[0].tolist() != split_cal_test(30, 0.4, 2)[0].tolist()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_trials": 0},
        {"cal_fraction": 0.0},
        {"cal_fraction": 1.0},
        {"bins": 0},
        {"methods": ()},
        {"methods": ("distilled", "distilled")},
        {"methods": ("made_up",)},
        {"feature_source": "nope"},
        {"k_subsample": 0},
        {"alpha": 0.0},
        {"alpha": float("nan")},
        {"split_frac": 1.0},
        {"selective_rates": (1.0,)},
        {"selective_rates": (-0.1,)},
    ],
)
def test_trial_config_validation_rejects_bad_settings(kwargs):
    with pytest.raises(ConfigError):
        TrialConfig(**kwargs)


def test_trial_config_defaults_are_valid():
    TrialConfig()


def test_trial_config_keeps_lists_as_tuples_and_is_hashable():
    config = TrialConfig(methods=["distilled"], selective_rates=[0.1, 0.5])
    built = TrialConfig(methods=("distilled",), selective_rates=(0.1, 0.5))
    assert config == built
    assert hash(config) == hash(built)
    assert config.methods == ("distilled",) and config.selective_rates == (0.1, 0.5)


# ---------------------------------------------------------------------------
# selective prediction
# ---------------------------------------------------------------------------


def test_selective_curve_reference_instance():
    points = selective_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], [0.5, 0.0])
    at_half, at_zero = points
    # A vector is one trial: every mean is a (1,) array.
    assert at_half.accuracy.shape == at_zero.gain.shape == (1,)
    assert at_half.abstained == 2 and at_half.answered == 2
    assert at_half.accuracy == 1.0
    assert at_half.confidence == pytest.approx(0.85)
    assert at_half.abstained_accuracy == 0.0
    assert at_half.abstained_confidence == pytest.approx(0.15)
    assert at_half.gain == 0.5
    assert at_zero.abstained == 0 and at_zero.answered == 4
    assert at_zero.accuracy == 0.5
    assert at_zero.gain == 0.0  # exactly zero, not merely close
    assert at_zero.abstained_accuracy is None
    assert at_zero.abstained_confidence is None


def test_abstention_counts_do_not_suffer_float_drift():
    # 0.3 * 10 floats to 3.0000000000000004; a naive ceil would abstain on 4.
    points = selective_curve([0.1 * i for i in range(10)], [1] * 10, [0.1, 0.3])
    assert [p.abstained for p in points] == [1, 3]


def test_confidence_ties_break_by_query_id():
    points = selective_curve(
        [0.5, 0.5, 0.9],
        [1, 0, 1],
        [1 / 3],
        query_ids=["b", "a", "c"],
    )
    # Ties at 0.5: "a" (label 0) sorts before "b", so only "a" is dropped.
    assert points[0].abstained == 1
    assert points[0].accuracy == 1.0


def test_selective_curve_checks_its_input_as_compute_report_does():
    bad = [
        ([0.1, np.nan, 0.9, 0.5], [0, 1, 2, 1]),
        ([0.1, 0.2, 0.9, 0.5], [0, 1, 2, 1]),
        ([0.1, 0.2, np.inf, 0.5], [0, 1, 1, 1]),
        ([0.1, 0.2, 0.9], [0, 1, 1, 1]),
        (np.empty((0, 4)), np.empty((0, 4))),
        (np.empty((3, 0)), np.empty((3, 0))),
        (np.full((2, 2, 2), 0.5), np.ones((2, 2, 2))),
        (np.full((2, 3), 0.5), np.ones((3, 2))),
    ]
    for confidences, labels in bad:
        with pytest.raises(DataError) as reported:
            compute_report(confidences, labels, bins=1)
        with pytest.raises(DataError) as selective:
            selective_curve(confidences, labels, [0.25])
        assert str(selective.value) == str(reported.value)


def test_selective_rates_outside_the_unit_interval_are_rejected():
    with pytest.raises(DataError):
        selective_curve([0.5, 0.6], [1, 0], [1.0])
    with pytest.raises(DataError):
        selective_curve([0.5, 0.6], [1, 0], [-0.2])


@given(
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=25,
    ),
    rate=st.floats(min_value=0.0, max_value=0.99),
)
def test_answered_and_abstained_sides_reassemble_the_whole(pairs, rate):
    confidences = [c for c, _ in pairs]
    labels = [z for _, z in pairs]
    (point,) = selective_curve(confidences, labels, [rate])
    n = len(pairs)
    assert point.answered + point.abstained == n
    total = sum(labels)
    recombined = 0.0
    if point.accuracy is not None:
        recombined += point.answered * point.accuracy
    if point.abstained_accuracy is not None:
        recombined += point.abstained * point.abstained_accuracy
    assert recombined == pytest.approx(total, abs=1e-9)


@given(
    pairs=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1)),
        min_size=1,
        max_size=399,
    ),
    rates=st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=4),
)
def test_selective_means_equal_numpy_mean_exactly(pairs, rates):
    confidences = np.array([c for c, _ in pairs])
    labels = np.array([z for _, z in pairs], dtype=float)
    order = np.argsort(confidences, kind="stable")

    def mean(values):
        return float(np.mean(values)) if values.size else None

    base = mean(labels)
    for point in selective_curve(confidences, labels, rates):
        cut = point.abstained
        assert point.accuracy == mean(labels[order][cut:])
        assert point.confidence == mean(confidences[order][cut:])
        assert point.abstained_accuracy == mean(labels[order][:cut])
        assert point.abstained_confidence == mean(confidences[order][:cut])
        assert point.gain == (None if point.accuracy is None else point.accuracy - base)


def test_monotone_transforms_leave_selective_accuracy_and_auroc_alone():
    gen = np.random.default_rng(4)
    confidences = gen.uniform(size=40)
    labels = (gen.random(40) < confidences).astype(int)
    transformed = confidences**3  # strictly increasing on [0, 1]
    rates = [0.0, 0.2, 0.5]
    base = selective_curve(confidences, labels, rates)
    moved = selective_curve(transformed, labels, rates)
    for b, m in zip(base, moved):
        assert m.accuracy == b.accuracy
        assert m.abstained_accuracy == b.abstained_accuracy
        assert m.gain == b.gain
    assert auroc(transformed, labels) == pytest.approx(auroc(confidences, labels), abs=1e-12)
    # Mean confidence is not invariant; the transform must actually move it.
    assert moved[1].confidence != base[1].confidence


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------

_FAST = TrialConfig(
    n_trials=3,
    cal_fraction=0.4,
    bins=4,
    methods=("distilled", "token_prob", "verbal_conf", "tt_sc"),
)


def test_run_trials_reports_every_requested_method():
    sets, labels = _synth_sets()
    data = build_dataset(sets, labels)
    result = run_trials(data, _FAST)
    assert result.kind == "eval"
    assert set(result.methods) == set(_FAST.methods)
    assert result.n_queries == 80
    assert result.n_cal == 32 and result.n_test == 48
    for summary in result.methods.values():
        assert len(summary.per_trial) == 3
        assert 0.0 <= summary.ece1 <= summary.ece2 <= summary.mce <= 1.0
        assert sum(row["count"] for row in summary.reliability) == pytest.approx(48)
        assert sum(summary.histogram) == pytest.approx(48)


def test_same_master_seed_reproduces_the_whole_report():
    sets, labels = _synth_sets(n=60, k=6)
    data = build_dataset(sets, labels)
    doc_a = report_document(run_trials(data, _FAST), config_echo(_FAST))
    doc_b = report_document(run_trials(data, _FAST), config_echo(_FAST))
    doc_c = report_document(
        run_trials(data, dataclasses.replace(_FAST, master_seed=9)),
        config_echo(_FAST),
    )
    assert doc_a == doc_b
    assert doc_a != doc_c


def test_each_trial_depends_only_on_its_own_index():
    sets, labels = _synth_sets(n=60, k=6)
    data = build_dataset(sets, labels)
    one = run_trials(data, dataclasses.replace(_FAST, n_trials=1))
    three = run_trials(data, dataclasses.replace(_FAST, n_trials=3))
    for method in _FAST.methods:
        assert _report_row(three.methods[method].per_trial, 0) == _report_row(
            one.methods[method].per_trial, 0
        )


def test_supervised_method_needs_a_correctness_source():
    # With neither labels nor gold answers the dataset itself cannot be built,
    # which is what ultimately guards the supervised reference.
    sets, _ = _synth_sets(n=6, k=3)
    blind = dataclasses.replace(
        sets, queries=tuple(dataclasses.replace(q, gold_answers=None) for q in sets.queries)
    )
    with pytest.raises(DataError, match="correctness"):
        build_dataset(blind)


def test_tt_sc_alone_needs_a_correctness_source_for_the_modal_sample():
    sets, labels = _synth_sets(n=20, k=4)
    blind = dataclasses.replace(
        sets, queries=tuple(dataclasses.replace(q, gold_answers=None) for q in sets.queries)
    )
    deployed_only = np.where(np.arange(len(labels)) % 4 == 0, labels, -1).astype(np.int8)
    data = build_dataset(blind, deployed_only)
    full = build_dataset(sets, labels)
    assert data.deploy_correct.tolist() == full.deploy_correct.tolist()
    known = ~np.isnan(data.tt_correct)
    assert data.tt_correct[known].tolist() == full.tt_correct[known].tolist()
    first = int(np.flatnonzero(~known)[0])
    config = dataclasses.replace(_FAST, methods=("distilled", "token_prob"), n_trials=2)
    assert run_trials(data, config) == run_trials(full, config)
    selected = consistency.build_target(data.codes[first]).selected_sample_index
    with pytest.raises(DataError) as excinfo:
        run_trials(data, dataclasses.replace(config, methods=("token_prob", "tt_sc")))
    assert str(excinfo.value) == (
        f"query {data.query_ids[first]} sample {selected}: no correctness source "
        "(provide labels or gold_answers)"
    )
    assert selected != 0  # the deployment response is labelled


def test_supervised_runs_on_gold_fallback_when_labels_are_absent():
    sets, _ = _synth_sets(n=40, k=4)
    data = build_dataset(sets)  # correctness recomputed from gold answers
    config = dataclasses.replace(_FAST, methods=("supervised",), n_trials=2)
    result = run_trials(data, config)
    assert set(result.methods) == {"supervised"}


def test_too_many_bins_for_the_test_side_is_an_error():
    sets, labels = _synth_sets(n=12, k=3)
    data = build_dataset(sets, labels)
    config = dataclasses.replace(_FAST, bins=10, n_trials=1)
    with pytest.raises(DataError, match="equal-mass bins"):
        run_trials(data, config)


def test_mismatched_feature_source_is_rejected():
    sets, labels = _synth_sets(n=12, k=3)
    data = build_dataset(sets, labels, feature_source="question_embedding")
    with pytest.raises(ConfigError, match="feature_source"):
        run_trials(data, _FAST)


def test_a_default_trial_config_names_both_feature_sources():
    sets, labels = _synth_sets(n=12, k=3)
    data = build_dataset(sets, labels, feature_source="question_embedding")
    with pytest.raises(ConfigError) as excinfo:
        run_trials(data, TrialConfig())
    assert str(excinfo.value) == (
        "dataset was built with feature_source 'question_embedding' but the trial "
        "config asks for 'response_embedding'"
    )


def test_subsampled_targets_change_the_distilled_fit_only():
    sets, labels = _synth_sets(n=60, k=8)
    data = build_dataset(sets, labels)
    full = run_trials(data, dataclasses.replace(_FAST, n_trials=2))
    subsampled = run_trials(
        data, dataclasses.replace(_FAST, n_trials=2, k_subsample=3)
    )
    assert full.methods["token_prob"] == subsampled.methods["token_prob"]
    assert full.methods["distilled"] != subsampled.methods["distilled"]


def test_k_subsample_larger_than_k_fails_inside_the_trial():
    sets, labels = _synth_sets(n=30, k=4)
    data = build_dataset(sets, labels)
    with pytest.raises(DataError, match="subsample"):
        run_trials(data, dataclasses.replace(_FAST, n_trials=1, k_subsample=9))


def _with_codes(data, replaced):
    """``data`` with the answer codes of query ``i`` replaced by
    ``replaced[i]``, one code per sample (-1 where it has no answer)."""
    codes = list(data.codes)
    for i, row in replaced.items():
        answers = tuple(f"answer {j}" for j in range(max(row) + 1))
        codes[i] = consistency.AnswerCodes(
            codes[i].query_id, tuple(range(len(row))), np.array(row, dtype=np.intp), answers
        )
    return dataclasses.replace(data, codes=tuple(codes))


def _subsample_failure(data, config):
    with pytest.raises(DataError) as excinfo:
        run_trials(data, config)
    assert type(excinfo.value) is DataError
    return str(excinfo.value)


def test_subsampled_trials_raise_the_first_failing_trial_and_query():
    data = build_dataset(*_synth_sets(n=30, k=4))
    config = dataclasses.replace(_FAST, n_trials=2, methods=("distilled",), k_subsample=3)
    cal0, cal1 = (
        split_cal_test(
            data.n, config.cal_fraction,
            seeding.mix(seeding.mix(config.master_seed, t), evaluation._S_SPLIT),
        )[0].tolist()
        for t in range(2)
    )
    only0, only1 = sorted(set(cal0) - set(cal1)), sorted(set(cal1) - set(cal0))
    empty, short = [-1, -1, -1, -1], [0, 0]

    def failure(replaced):
        return _subsample_failure(_with_codes(data, replaced), config)

    def no_answer(i):
        return f"query {data.query_ids[i]}: no extractable answer in any of 3 samples"

    def too_few(i):
        return f"query {data.query_ids[i]}: cannot subsample 3 of 2 samples"

    # Across trials: trial 0's empty draw wins over trial 1's k > n draw,
    # and trial 0's k > n over trial 1's empty draw.
    assert failure({only0[0]: empty, only1[0]: short}) == no_answer(only0[0])
    assert failure({only0[0]: short, only1[0]: empty}) == too_few(only0[0])
    assert failure({only1[0]: short}) == too_few(only1[0])
    # Within one trial, the earlier query's failure wins, though a k > n draw
    # fails before an empty draw is counted.
    first, later = only0[0], only0[1]
    assert failure({first: empty, later: short}) == no_answer(first)
    assert failure({first: short, later: empty}) == too_few(first)


def test_subsampled_targets_draw_each_query_from_its_own_stream_beside_sets_of_exactly_k():
    # Every third set holds 3 samples, so its draw of 3 takes no generator
    # while the sets around it each take one; which 3 of the others' 4 are
    # drawn changes their shares.
    data = build_dataset(*_synth_sets(n=30, k=4))
    rows = {i: [0, 1, 1] if i % 3 == 0 else np.roll([0, 0, 1, 2], i).tolist() for i in range(30)}
    data = _with_codes(data, rows)
    config = dataclasses.replace(_FAST, n_trials=3, k_subsample=3)
    tseeds = [seeding.mix(config.master_seed, t) for t in range(3)]
    cal = np.stack([
        split_cal_test(data.n, config.cal_fraction, seeding.mix(t, evaluation._S_SPLIT))[0]
        for t in tseeds
    ])
    want = [
        [
            consistency.subsample_targets(
                data.codes[i], 3, seed=seeding.mix(tseed, evaluation._S_SUBSAMPLE, int(i))
            ).s
            for i in row
        ]
        for tseed, row in zip(tseeds, cal)
    ]
    assert evaluation._distilled_targets(data, config, tseeds, cal).tolist() == want


def test_selective_rates_flow_into_method_summaries():
    sets, labels = _synth_sets(n=60, k=6)
    data = build_dataset(sets, labels)
    config = dataclasses.replace(_FAST, selective_rates=(0.0, 0.25))
    result = run_trials(data, config)
    for summary in result.methods.values():
        assert [row.rate for row in summary.selective] == [0.0, 0.25]
        assert summary.selective[0].gain == 0.0
        assert summary.selective[0].abstained_accuracy is None


# ---------------------------------------------------------------------------
# scoring all trials at once
# ---------------------------------------------------------------------------

# Histogram edges, their float neighbours, 0.0, -0.0, 1.0 and values outside [0, 1].
_EDGES = np.linspace(0.0, 1.0, 21)
_SPECIAL_CONFIDENCES = (
    _EDGES.tolist() + np.nextafter(_EDGES, 2.0).tolist() + [-0.0, -0.5, 1.5, 1.0 + 2**-52]
)
_MEAN_FIELDS = ("accuracy", "confidence", "abstained_accuracy", "abstained_confidence", "gain")


@st.composite
def _trial_matrices(draw):
    """``(confidences, labels, query_ids, bins, rates)`` for T trials of n
    test queries.

    Hypothesis draws the layout: T, the bins, n (often exactly ``bins``,
    often not a multiple of it), a pool of tied values (edge values and
    values outside [0, 1] among them), the share of entries taken from it,
    which rows hold one class, and the rates (0 among them).  A drawn seed
    fills the matrices from that layout.
    """
    bins = draw(st.integers(1, 12))
    n = draw(st.one_of(st.just(bins), st.integers(bins, 160)))
    trials = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(st.sampled_from(_SPECIAL_CONFIDENCES), min_size=1, max_size=3))
    pool += draw(st.lists(st.floats(-0.25, 1.25), max_size=2))
    tied = rng.choice(np.array(pool, dtype=float), size=(trials, n))
    spread = rng.uniform(-0.25, 1.25, size=(trials, n))
    share_tied = draw(st.sampled_from([0.1, 0.5, 1.0]))
    confidences = np.where(rng.random((trials, n)) < share_tied, tied, spread)
    labels = (rng.random((trials, n)) < rng.random((trials, 1))).astype(float)
    for t, kind in enumerate(draw(st.lists(st.sampled_from([None, 0.0, 1.0]), min_size=trials,
                                           max_size=trials))):
        if kind is not None:  # a one-class trial
            labels[t] = kind
    names = np.array([f"q{i:04d}" for i in range(2 * n)])
    query_ids = np.stack([names[rng.permutation(2 * n)[:n]] for _ in range(trials)])
    rates = draw(st.lists(st.floats(0.0, 0.99), max_size=3)) + [0.0]
    return confidences, labels, query_ids, bins, rates


def _comparable(value):
    """``value`` with NaN spelled out, so equal results compare equal."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    return value


def _curve_row(points, t):
    """Trial ``t`` of a selective curve as plain values, each mean a float."""
    return [
        {
            name: value if value is None or name not in _MEAN_FIELDS else float(value[t])
            for name, value in dataclasses.asdict(p).items()
        }
        for p in points
    ]


@given(_trial_matrices())
@settings(max_examples=150)
def test_batched_scoring_equals_the_per_trial_loops_bit_for_bit(instance):
    confidences, labels, query_ids, bins, rates = instance
    table = compute_report(confidences, labels, bins=bins)
    reports = reports_by_trial_loop(confidences, labels, bins)
    for t, want in enumerate(reports):
        got = _report_row(table, t)
        assert got == _report_row(compute_report(confidences[t], labels[t], bins=bins), 0)
        assert [tuple(b.values()) for b in got.pop("bins")] == want["bins"]
        assert got == {name: want[name] for name in got}

    points = selective_curve(confidences, labels, rates, query_ids=query_ids)
    curves = selective_by_trial_loop(confidences, labels, rates, query_ids)
    for t, curve in enumerate(curves):
        assert _curve_row(points, t) == curve
        one = selective_curve(confidences[t], labels[t], rates, query_ids=list(query_ids[t]))
        assert _curve_row(one, 0) == curve

    summary = evaluation._aggregate("m", table, labels, points)
    want = aggregate_by_trial_loop(reports, [float(row.mean()) for row in labels], curves)
    got = dataclasses.asdict(dataclasses.replace(summary, per_trial=None))
    assert _comparable({name: got[name] for name in want}) == _comparable(want)


def test_a_non_finite_confidence_or_bad_label_in_any_trial_fails_as_one_trial_does():
    confidences = np.full((3, 6), 0.5)
    labels = np.tile([0.0, 1.0], (3, 3))
    for t in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            c = confidences.copy()
            c[t, 2] = bad
            with pytest.raises(DataError, match="non-finite") as one:
                compute_report(c[t], labels[t], bins=2)
            with pytest.raises(DataError) as batched:
                compute_report(c, labels, bins=2)
            assert str(batched.value) == str(one.value)
        z = labels.copy()
        z[t, 4] = 2.0
        with pytest.raises(DataError, match="0 or 1") as one:
            compute_report(confidences[t], z[t], bins=2)
        with pytest.raises(DataError) as batched:
            compute_report(confidences, z, bins=2)
        assert str(batched.value) == str(one.value)


def test_a_non_finite_column_entry_fails_the_trial_run():
    sets, labels = _synth_sets(n=30, k=4)
    data = build_dataset(sets, labels)
    column = data.verbal_conf.copy()
    column[:] = np.inf  # every test side sees it
    broken = dataclasses.replace(data, verbal_conf=column)
    with pytest.raises(DataError, match="confidences contain non-finite entries"):
        run_trials(broken, dataclasses.replace(_FAST, n_trials=2))


class _Fitted(Exception):
    """Raised by a stubbed fit kernel: the run reached a fit."""


def _stub_fits(monkeypatch) -> list[str]:
    """Replace the trial loop's two fit kernels with stubs that record the
    call and stop the run; returns the record."""
    fits: list[str] = []

    def stub(name):
        def fit(*args, **kwargs):
            fits.append(name)
            raise _Fitted(name)

        return fit

    monkeypatch.setattr(evaluation, "fit_pipeline_rows", stub("distilled"))
    monkeypatch.setattr(evaluation, "fit_platt_rows", stub("supervised"))
    return fits


def test_a_test_side_smaller_than_the_bins_fails_before_any_fit(monkeypatch):
    fits = _stub_fits(monkeypatch)
    sets, labels = _synth_sets(n=12, k=3)
    data = build_dataset(sets, labels)
    config = dataclasses.replace(_FAST, bins=10, n_trials=3)
    expected = "test side has 8 queries but 10 equal-mass bins need at least one query each"
    with pytest.raises(DataError) as raised:
        run_trials(data, config)
    assert str(raised.value) == expected
    fixed = (np.arange(6), np.arange(6, 12))  # a fixed split, as the shifted arm uses
    with pytest.raises(DataError, match="test side has 6 queries but 10 equal-mass bins"):
        evaluation._evaluate(data, config, lambda t, tseed: fixed, kind="shift")
    assert fits == []
    # The stubs sit where the trial loop fits: with bins that fit, it reaches them.
    for method in ("distilled", "supervised"):
        with pytest.raises(_Fitted):
            run_trials(data, dataclasses.replace(config, bins=2, methods=(method,)))
    assert fits == ["distilled", "supervised"]


def test_a_data_fault_of_any_method_fails_before_any_fit(monkeypatch):
    fits = _stub_fits(monkeypatch)
    sets, labels = _synth_sets(n=30, k=4)
    data = build_dataset(sets, labels)
    spanless = data.answer_prob.copy()
    spanless[7] = np.nan
    broken = dataclasses.replace(data, answer_prob=spanless)
    config = dataclasses.replace(_FAST, methods=("distilled", "supervised", "answer_prob"))
    with pytest.raises(DataError) as raised:
        run_trials(broken, config)
    assert str(raised.value) == (
        f"query {data.query_ids[7]} sample 0: record lacks the answer-span "
        "log-probabilities needed by answer_prob"
    )
    unsourced = data.tt_correct.copy()
    unsourced[4] = np.nan
    broken = dataclasses.replace(data, tt_correct=unsourced)
    config = dataclasses.replace(_FAST, methods=("supervised", "distilled", "tt_sc"))
    selected = consistency.build_target(data.codes[4]).selected_sample_index
    no_source = (
        f"query {data.query_ids[4]} sample {selected}: no correctness source "
        "(provide labels or gold_answers)"
    )
    with pytest.raises(DataError) as raised:
        run_trials(broken, config)
    assert str(raised.value) == no_source
    # With both faults, the first listed method's fault is reported.
    broken = dataclasses.replace(broken, answer_prob=spanless)
    for methods, want in (
        (("tt_sc", "answer_prob"), no_source),
        (("answer_prob", "tt_sc"), f"query {data.query_ids[7]} sample 0: record lacks"),
    ):
        with pytest.raises(DataError) as raised:
            run_trials(broken, dataclasses.replace(_FAST, methods=methods))
        assert str(raised.value).startswith(want)
    assert fits == []


@functools.lru_cache(maxsize=None)
def _trial_data(seed: int) -> evaluation.EvalDataset:
    sets, labels = _synth_sets(n=40, k=6, seed=seed)
    return build_dataset(sets, labels)


@given(
    seed=st.integers(0, 2),
    master_seed=st.integers(0, 2**32),
    n_trials=st.integers(1, 5),
    cal_fraction=st.sampled_from([0.2, 0.4, 0.7]),
    split_frac=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([1e-3, 1.0, 50.0]),
    k_subsample=st.sampled_from([None, 1, 3, 6]),
    fixed=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batched_trained_rows_equal_the_per_trial_fits_bit_for_bit(
    seed, master_seed, n_trials, cal_fraction, split_frac, alpha, k_subsample, fixed
):
    data = _trial_data(seed)
    config = dataclasses.replace(
        _FAST, n_trials=n_trials, master_seed=master_seed, cal_fraction=cal_fraction,
        split_frac=split_frac, alpha=alpha, k_subsample=k_subsample,
    )
    tseeds = [seeding.mix(master_seed, t) for t in range(n_trials)]
    if fixed:  # shift's fixed group split: only the fit's seeds vary
        sides = [(np.arange(0, 40, 2), np.arange(1, 40, 2))] * n_trials
    else:
        sides = [
            split_cal_test(data.n, cal_fraction, seeding.mix(tseed, evaluation._S_SPLIT))
            for tseed in tseeds
        ]
    cal = np.stack([c for c, _ in sides])
    test = np.stack([t for _, t in sides])
    distilled, _ = evaluation._method_trials(data, config, "distilled", tseeds, cal, test)
    supervised, _ = evaluation._method_trials(data, config, "supervised", tseeds, cal, test)
    for t, (tseed, (cal_idx, test_idx)) in enumerate(zip(tseeds, sides)):
        want = distilled_trial_by_fit(data, config, tseed, cal_idx, test_idx)
        assert distilled[t].tobytes() == want.tobytes()
        (slope, bias), _ = platt_by_full_newton(
            data.token_prob[cal_idx], data.deploy_correct[cal_idx]
        )
        want = apply_platt(PlattModel(slope, bias), data.token_prob[test_idx])
        assert supervised[t].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# shift protocol
# ---------------------------------------------------------------------------


def _shifted_data(n=50, k=6, seed=0):
    sets, labels = _synth_sets(
        n=n,
        k=k,
        seed=seed,
        group_shift=synth.GroupShift(tag="hard", difficulty_alpha=0.3, difficulty_beta=0.6),
    )
    return build_dataset(sets, labels)


def test_shift_eval_returns_both_arms():
    data = _shifted_data()
    config = dataclasses.replace(_FAST, n_trials=2)
    results = shift_eval(data, config, ["main"], ["hard"])
    assert set(results) == {"in_domain", "shifted"}
    assert results["in_domain"].kind == "eval"
    assert results["shifted"].kind == "shift"
    assert results["in_domain"].n_queries == 50
    assert results["shifted"].n_cal == 50
    assert results["shifted"].n_test == 50


def test_shift_group_arguments_are_validated():
    data = _shifted_data(n=20, k=4)
    config = dataclasses.replace(_FAST, n_trials=1)
    with pytest.raises(ConfigError, match="both sides"):
        shift_eval(data, config, ["main"], ["main"])
    with pytest.raises(ConfigError, match="unknown groups"):
        shift_eval(data, config, ["main"], ["elsewhere"])
    with pytest.raises(ConfigError, match="nonempty"):
        shift_eval(data, config, [], ["hard"])


def test_shifted_arm_uses_the_fixed_group_split_every_trial():
    data = _shifted_data(n=30, k=4)
    config = dataclasses.replace(_FAST, n_trials=2, methods=("token_prob",))
    results = shift_eval(data, config, ["main"], ["hard"])
    trials = results["shifted"].methods["token_prob"].per_trial
    # token_prob needs no fitting, so identical fixed splits give identical trials.
    assert _report_row(trials, 0) == _report_row(trials, 1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_document_layout():
    sets, labels = _synth_sets(n=30, k=4)
    data = build_dataset(sets, labels)
    config = dataclasses.replace(_FAST, n_trials=2, selective_rates=(0.1,))
    result = run_trials(data, config)
    doc = report_document(result, config_echo(config, extra_note="x"))
    assert doc["format"] == "conscal-report/1"
    assert doc["kind"] == "eval"
    assert doc["config"]["extra_note"] == "x"
    assert doc["config"]["selective_rates"] == [0.1]
    assert set(doc["methods"]) == set(config.methods)
    method = doc["methods"]["distilled"]
    assert set(method) == {
        "ece1", "ece2", "mce", "brier", "auroc", "accuracy",
        "reliability", "histogram", "selective",
    }
    assert set(method["selective"][0]) == {
        "rate", "answered", "accuracy", "confidence", "abstained_accuracy", "gain",
    }


def test_trial_table_has_one_row_per_trial_and_method():
    sets, labels = _synth_sets(n=30, k=4)
    data = build_dataset(sets, labels)
    result = run_trials(data, dataclasses.replace(_FAST, n_trials=2))
    lines = trial_table(result).strip().splitlines()
    assert lines[0] == "trial\tmethod\tece1\tece2\tmce\tbrier\tauroc"
    assert len(lines) == 1 + 2 * len(_FAST.methods)


_TRIAL_DIGESTS = Path(__file__).parent / "data" / "trials_digests_n125_k100_seed1.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trial_digests() -> dict[str, str]:
    """sha256 of the report document and trial table of the benchmark's
    ``trials`` op at 125 queries x 100 samples, seed 1, and of the shifted
    arm of ``shift_eval`` under the same settings."""
    config = TrialConfig(
        n_trials=200, cal_fraction=0.4, master_seed=1,
        selective_rates=(0.1, 0.2, 0.3, 0.5),
    )
    results = {
        "trials": run_trials(_built(synth.benchmark_config(125, 100, seed=1)), config),
        "shifted": shift_eval(
            _built(synth.shifted_benchmark_config(125, 100, seed=1)), config,
            ["main"], ["shifted"],
        )["shifted"],
    }
    digests = {}
    for name, result in results.items():
        document = report_document(result, config_echo(config))
        digests[f"{name}/report"] = _sha256(json.dumps(document, sort_keys=True))
        digests[f"{name}/trials.tsv"] = _sha256(trial_table(result))
    return digests


def _built(config: synth.SynthConfig) -> evaluation.EvalDataset:
    queries, generations, labels = synth.generate(config)
    sets, diagnostics = records.group_generations(queries, generations)
    assert not diagnostics
    return build_dataset(sets, labels)


def test_trial_reports_match_the_recorded_digests():
    # Recorded before trial scoring was batched over the trials; a declared
    # change to any output byte re-records the file from _trial_digests().
    assert _trial_digests() == json.loads(_TRIAL_DIGESTS.read_text(encoding="utf-8"))


_ABLATION_VALUES = Path(__file__).parent / "data" / "ablation_values_n125_k100_seed1.json"
_HEADLINE = ("ece1", "ece2", "mce", "brier", "auroc", "accuracy")


def _ablation_values() -> dict[str, dict[str, float | None]]:
    """``distilled``'s headline fields in the benchmark's k-ablation sweep:
    20 trials at each k, 125 queries x 100 samples, seed 1."""
    data = _built(synth.benchmark_config(125, 100, seed=1))
    values = {}
    for k in (5, 10, 20, 50, 100):
        config = TrialConfig(
            n_trials=20, methods=("distilled",), k_subsample=k, master_seed=1
        )
        summary = run_trials(data, config).methods["distilled"]
        values[str(k)] = {f: getattr(summary, f) for f in _HEADLINE}
    return values


def test_ablation_values_match_the_recorded_file():
    # Recorded before the subsampled targets were counted in one batch;
    # JSON keeps every float's repr, so equality here is bit for bit.
    recorded = json.loads(_ABLATION_VALUES.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(_ablation_values())) == recorded


def test_config_echo_omits_selective_rates_when_unused():
    names = [f.name for f in dataclasses.fields(TrialConfig)]
    echo = config_echo(TrialConfig())
    assert list(echo) == [n for n in names if n != "selective_rates"]
    assert echo["methods"] == list(DEFAULT_METHODS)
    echo = config_echo(TrialConfig(selective_rates=(0.5,)))
    assert list(echo) == names
    assert echo["selective_rates"] == [0.5]


def test_default_method_tuple_is_frozen():
    assert DEFAULT_METHODS == (
        "distilled",
        "token_prob",
        "answer_prob",
        "verbal_conf",
        "supervised",
        "tt_sc",
    )
