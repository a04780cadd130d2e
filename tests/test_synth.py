"""Synthetic generator: determinism, recoverable truth, and file texture."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conscal import records, synth
from conscal.baselines import parse_verbal_confidence
from conscal.consistency import extract_boxed
from conscal.errors import ConfigError, DataError
from conscal.synth import (
    GroupShift,
    SynthConfig,
    generate,
    query_truth,
    write_truth,
)

from oracles import answer_token_row, batch_row, segmented_logprobs_by_loop

_SMALL = SynthConfig(n_queries=12, k=6, embedding_dim=5, seed=3)


# ---------------------------------------------------------------------------
# determinism and structure
# ---------------------------------------------------------------------------


def test_generation_is_deterministic_given_the_config():
    first = generate(_SMALL)
    second = generate(_SMALL)
    assert first[:2] == second[:2]
    assert np.array_equal(first[2], second[2]) and first[2].dtype == np.int8


_RECORDED = Path(__file__).parent / "data" / "premise_n3_k4_seed0.json"
_LOGPROB_FIELDS = ("token_logprobs", "answer_token_logprobs")


def _as_json(rows):
    return json.loads(json.dumps([dataclasses.asdict(row) for row in rows]))


def test_generation_stream_matches_the_recorded_dataset():
    # Recorded from the per-row-loop generator.  Everything drawn from the
    # random stream must match exactly; logprob rows may differ only by the
    # summation order of their segment means.  The recording holds each
    # record's unknown keys ("extra", always empty) and each generation's
    # sampling_meta, which records no longer keep: the meta is the one that
    # synth.sampling_meta gives the writer.
    recorded = json.loads(_RECORDED.read_text(encoding="utf-8"))
    config = synth.premise_config(n_queries=3, k=4, seed=0)
    queries, generations, labels = generate(config)
    meta = json.loads(json.dumps(synth.sampling_meta(config)))
    for then in recorded["queries"]:
        assert then.pop("extra") == {}
    for then in recorded["generations"]:
        assert then.pop("extra") == {}
        assert then.pop("sampling_meta") == meta
    assert _as_json(queries) == recorded["queries"]
    label_rows = zip(generations.query_id, generations.sample_index, labels.tolist())
    assert [
        {"query_id": query_id, "sample_index": sample_index, "z": z}
        for query_id, sample_index, z in label_rows
    ] == recorded["labels"]
    rows = [batch_row(generations, i) for i in range(len(generations))]
    current = json.loads(json.dumps(rows))
    assert len(current) == len(recorded["generations"])
    for now, then in zip(current, recorded["generations"]):
        for name in _LOGPROB_FIELDS:
            assert len(now[name]) == len(then[name])
            assert np.max(np.abs(np.subtract(now[name], then[name]))) <= 1e-15
        assert set(now) == set(then)
        exact = [name for name in now if name not in _LOGPROB_FIELDS]
        assert {n: now[n] for n in exact} == {n: then[n] for n in exact}


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ln_gm=st.lists(st.floats(min_value=-1.0, max_value=0.0), min_size=1, max_size=30),
    count_range=st.integers(min_value=1, max_value=24).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(min_value=lo + 1, max_value=25))
    ),
)
@example(seed=0, ln_gm=[-0.2, 0.0, -1.0], count_range=(1, 2))
def test_segmented_logprobs_match_the_per_row_loop(seed, ln_gm, count_range):
    values, lengths = synth._segmented_logprobs(
        np.random.default_rng(seed), np.array(ln_gm), count_range
    )
    assert values.size == lengths.sum()
    fast = np.split(values, np.cumsum(lengths)[:-1])
    slow = segmented_logprobs_by_loop(
        np.random.default_rng(seed), ln_gm, count_range, synth._TOKEN_JITTER
    )
    assert len(fast) == len(slow) == len(ln_gm)
    for row, reference in zip(fast, slow):
        assert len(row) == len(reference)
        assert count_range[0] <= len(row) < count_range[1]
        assert np.max(np.abs(np.subtract(row, reference))) <= 1e-15
        assert max(row) <= 0.0


# The presets, and k = 1, at sizes whose full run is drawn once per test session.
_RANGE_CONFIGS = {
    "benchmark": synth.benchmark_config(n_queries=9, k=5, seed=4),
    "premise": synth.premise_config(n_queries=9, k=4, seed=5),
    "shift": synth.shifted_benchmark_config(n_queries=5, k=3, seed=6),
    "k=1": SynthConfig(n_queries=9, k=1, embedding_dim=3, seed=7),
}
_FULL_RUNS: dict[str, tuple] = {}


def _batch_slice(batch, rows):
    """The rows ``rows`` (a slice) of a generation batch, every column cut to them."""
    tokens = batch.token_offsets[rows.start : rows.stop + 1]
    spans = batch.answer_token_offsets[rows.start : rows.stop + 1]
    return records.GenerationBatch(
        query_id=batch.query_id[rows],
        sample_index=batch.sample_index[rows],
        response_text=batch.response_text[rows],
        answer=batch.answer[rows],
        token_logprobs=batch.token_logprobs[tokens[0] : tokens[-1]],
        token_offsets=tokens - tokens[0],
        answer_token_logprobs=batch.answer_token_logprobs[spans[0] : spans[-1]],
        answer_token_offsets=spans - spans[0],
        embedding=batch.embedding[rows],
    )


@given(
    name=st.sampled_from(sorted(_RANGE_CONFIGS)),
    bounds=st.lists(st.integers(0, 18), min_size=2, max_size=2),
)
def test_a_query_range_generates_the_slice_of_the_whole_dataset(name, bounds):
    config = _RANGE_CONFIGS[name]
    if name not in _FULL_RUNS:
        _FULL_RUNS[name] = generate(config)
    queries, batch, z = _FULL_RUNS[name]
    start, stop = sorted(min(bound, len(queries)) for bound in bounds)
    part_queries, part_batch, part_z = generate(config, range(start, stop))
    assert part_queries == queries[start:stop]
    expected = _batch_slice(batch, slice(start * config.k, stop * config.k))
    assert part_batch == expected
    # Bit for bit: == holds -0.0 equal to 0.0.
    for column in ("token_logprobs", "answer_token_logprobs", "embedding"):
        assert getattr(part_batch, column).tobytes() == getattr(expected, column).tobytes()
    assert part_z.dtype == np.int8
    assert part_z.tobytes() == z[start * config.k : stop * config.k].tobytes()


def test_generate_refuses_a_range_outside_the_queries():
    assert len(generate(_SMALL, range(12, 12))[1]) == 0
    for indices in (range(0, 13), range(-1, 3), range(0, 12, 2), range(5, 3)):
        with pytest.raises(ValueError, match="is not a range of step 1 within range"):
            generate(_SMALL, indices)


def test_different_seeds_give_different_data():
    queries_a, _, _ = generate(_SMALL)
    queries_b, _, _ = generate(dataclasses.replace(_SMALL, seed=4))
    assert queries_a != queries_b


def test_dataset_shape_matches_the_config():
    queries, generations, labels = generate(_SMALL)
    assert len(queries) == 12
    assert len(generations) == 12 * 6
    assert len(labels) == 12 * 6
    for query in queries:
        assert len(query.question_embedding) == 5
        assert query.gold_answers == (f"{query.query_id}a",)
    assert generations.embedding.shape == (12 * 6, 5)
    assert all(answer_token_row(generations, i) is not None for i in range(12 * 6))
    assert np.all(generations.token_logprobs <= 0.0)
    assert np.all(generations.answer_token_logprobs <= 0.0)


def test_labels_agree_with_recomputing_gold_matches():
    queries, generations, labels = generate(_SMALL)
    gold = {q.query_id: q.gold_answers[0] for q in queries}
    by_pair = dict(zip(zip(generations.query_id, generations.sample_index), labels))
    columns = zip(
        generations.query_id,
        generations.sample_index,
        generations.answer,
        generations.response_text,
    )
    for query_id, sample_index, answer, text in columns:
        expected = int(answer == gold[query_id])
        assert by_pair[(query_id, sample_index)] == expected
        # The boxed answer in the text agrees with the answer field.
        assert extract_boxed(text) == answer


def test_written_files_pass_validation(tmp_path):
    queries, generations, labels = generate(_SMALL)
    qp = str(tmp_path / "queries.jsonl")
    gp = str(tmp_path / "generations.jsonl")
    lp = str(tmp_path / "labels.jsonl")
    records.write_queries(qp, queries)
    records.write_generations(gp, generations)
    records.write_labels(lp, generations, labels)
    assert records.validate_files(qp, gp, lp) == []


# ---------------------------------------------------------------------------
# recoverable ground truth
# ---------------------------------------------------------------------------


def test_sampled_answer_frequencies_match_the_recorded_masses():
    config = SynthConfig(n_queries=3, k=10_000, embedding_dim=3, seed=0)
    queries, generations, _ = generate(config)
    for query in queries:
        truth = query_truth(config, query)
        drawn = [
            answer
            for query_id, answer in zip(generations.query_id, generations.answer)
            if query_id == query.query_id
        ]
        names = [query.gold_answers[0]] + [
            f"{query.query_id}d{j}" for j in range(config.distractor_count)
        ]
        for name, mass in zip(names, truth.masses):
            frequency = sum(1 for a in drawn if a == name) / len(drawn)
            assert abs(frequency - mass) < 0.02
        assert truth.pi == truth.masses[0]
        assert truth.modal_prob == max(truth.masses)
        assert sum(truth.masses) == pytest.approx(1.0, abs=1e-12)


def test_constant_difficulty_one_makes_every_sample_gold():
    config = SynthConfig(n_queries=4, k=8, difficulty_constant=1.0, embedding_dim=3, seed=1)
    queries, generations, labels = generate(config)
    assert labels.tolist() == [1] * 32
    assert all(answer.endswith("a") for answer in generations.answer)
    for query in queries:
        assert query_truth(config, query).modal_prob == 1.0


def test_constant_difficulty_zero_with_one_distractor_is_still_unanimous():
    config = SynthConfig(
        n_queries=3, k=8, difficulty_constant=0.0, distractor_count=1,
        embedding_dim=3, seed=1,
    )
    queries, generations, labels = generate(config)
    assert labels.tolist() == [0] * 24
    for query in queries:
        truth = query_truth(config, query)
        assert truth.pi == 0.0
        assert truth.modal_prob == 1.0  # the lone distractor takes all the mass


def test_query_truth_rejects_foreign_queries():
    config = _SMALL
    queries, _, _ = generate(config)
    stranger = dataclasses.replace(queries[0], query_id="x000001")
    with pytest.raises(DataError):
        query_truth(config, stranger)
    out_of_range = dataclasses.replace(
        queries[0], query_id="q999999", gold_answers=("q999999a",)
    )
    with pytest.raises(DataError, match="out of range"):
        query_truth(config, out_of_range)
    wrong_gold = dataclasses.replace(queries[0], gold_answers=("nope",))
    with pytest.raises(DataError):
        query_truth(config, wrong_gold)
    wrong_group = dataclasses.replace(queries[0], group="elsewhere")
    with pytest.raises(DataError, match="group"):
        query_truth(config, wrong_group)


def test_query_truth_accepts_the_generators_ids_from_one_million_on():
    config = synth.benchmark_config(n_queries=1_000_001, k=4)
    index = 1_000_000
    query = records.QueryRecord(
        query_id=synth._query_id(index), text="", group=synth.MAIN_GROUP,
        gold_answers=(synth._gold_answer(index),),
    )
    assert query.query_id == "q1000000"
    _, pi, masses = synth._answer_distribution(config, index)
    assert query_truth(config, query) == synth.QueryTruth(
        pi=pi, modal_prob=float(masses.max()), masses=tuple(masses.tolist())
    )
    for foreign in ("q0000001", "q01000000", "q", "q\u0661\u0662\u0663\u0664\u0665\u0666"):
        with pytest.raises(DataError, match="not produced by this generator"):
            query_truth(config, dataclasses.replace(query, query_id=foreign))


def test_truth_sidecar_round_trip(tmp_path):
    queries, _, _ = generate(_SMALL)
    path = str(tmp_path / "truth.jsonl")
    write_truth(path, _SMALL, queries)
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    assert [row["query_id"] for row in rows] == [q.query_id for q in queries]
    for query, row in zip(queries, rows):
        truth = query_truth(_SMALL, query)
        assert row == {"query_id": query.query_id, "pi": truth.pi, "modal_prob": truth.modal_prob}


# ---------------------------------------------------------------------------
# response texture
# ---------------------------------------------------------------------------


def test_stated_confidences_parse_back_and_omissions_are_rare():
    config = SynthConfig(n_queries=2, k=2500, embedding_dim=3, seed=5)
    _, generations, _ = generate(config)
    parsed = [parse_verbal_confidence(text) for text in generations.response_text]
    missing = sum(1 for p in parsed if p is None)
    rate = missing / len(parsed)
    assert 0.05 < rate < 0.12  # nominal omission rate is 0.08
    for value in parsed:
        if value is not None:
            assert 0.0 <= value <= 1.0
            assert round(value, 2) == value  # statements are two-decimal coarse


def test_verbal_statement_does_not_disturb_answer_extraction():
    _, generations, _ = generate(_SMALL)
    for text, answer in zip(generations.response_text, generations.answer):
        assert extract_boxed(text) == answer


def test_embeddings_carry_a_linear_difficulty_signal():
    config = SynthConfig(n_queries=150, k=2, embedding_dim=8, signal_strength=2.0,
                         noise_scale=0.25, seed=2)
    queries, generations, _ = generate(config)
    pis = np.array([query_truth(config, q).pi for q in queries])
    deploy = {
        query_id: generations.embedding[i]
        for i, query_id in enumerate(generations.query_id)
        if generations.sample_index[i] == 0
    }
    X = np.array([deploy[q.query_id] for q in queries])
    # Least-squares recovery of pi from the embedding should correlate highly.
    coef, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(len(X))]), pis, rcond=None)
    recovered = np.column_stack([X, np.ones(len(X))]) @ coef
    assert np.corrcoef(recovered, pis)[0, 1] > 0.9


# ---------------------------------------------------------------------------
# groups and presets
# ---------------------------------------------------------------------------


def test_group_shift_appends_a_second_tagged_block():
    config = SynthConfig(
        n_queries=5, k=3, embedding_dim=3, seed=0,
        group_shift=GroupShift(tag="hard", difficulty_alpha=0.3, difficulty_beta=0.7),
    )
    queries, generations, _ = generate(config)
    assert len(queries) == 10
    assert [q.group for q in queries[:5]] == ["main"] * 5
    assert [q.group for q in queries[5:]] == ["hard"] * 5
    assert len(generations) == 30
    for query in queries:
        assert query_truth(config, query).pi >= 0.0


def test_config_validation_rejects_impossible_settings():
    with pytest.raises(ConfigError):
        SynthConfig(n_queries=0)
    with pytest.raises(ConfigError):
        SynthConfig(k=0)
    with pytest.raises(ConfigError):
        SynthConfig(stick_concentration=0.0)
    with pytest.raises(ConfigError):
        SynthConfig(difficulty_constant=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(distractor_count=0)
    with pytest.raises(ConfigError):
        SynthConfig(embedding_dim=0)
    with pytest.raises(ConfigError):
        SynthConfig(
            group_shift=GroupShift(tag="main", difficulty_alpha=1.0, difficulty_beta=1.0)
        )


def test_presets_cover_the_three_study_regimes():
    assert set(synth.PRESETS) == {"benchmark", "premise", "shift"}
    # A settings object is checked as it is constructed: all three are valid.
    benchmark = synth.PRESETS["benchmark"]()
    assert benchmark.group_shift is None
    premise = synth.PRESETS["premise"]()
    assert (premise.difficulty_alpha, premise.difficulty_beta) == (2.0, 1.0)
    assert premise.stick_concentration < 1.0  # one dominant distractor
    shifted = synth.PRESETS["shift"]()
    assert shifted.group_shift is not None
    assert shifted.group_shift.tag == "shifted"


def test_preset_overrides_flow_through():
    config = synth.benchmark_config(n_queries=10, k=4, seed=9, noise_scale=0.5)
    assert (config.n_queries, config.k, config.seed, config.noise_scale) == (10, 4, 9, 0.5)
    shifted = synth.shifted_benchmark_config(
        n_queries=10, group_shift=GroupShift(tag="other", difficulty_alpha=1.0,
                                             difficulty_beta=1.0)
    )
    assert shifted.group_shift.tag == "other"
