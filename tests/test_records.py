"""Record files: round trips, validation diagnostics, grouping."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conscal import records, synth
from conscal.errors import RecordError
from conscal.records import (
    CorrectnessLabel,
    GenerationBatch,
    GenerationRecord,
    QueryRecord,
    SampleSet,
)

from conftest import make_generation, make_query
from oracles import check_vector_by_entry, record_line_by_json


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return str(path)


def _valid_query(qid="q1", **extra):
    obj = {"query_id": qid, "text": "what?", "group": "main"}
    obj.update(extra)
    return obj


def _valid_generation(qid="q1", idx=0, **extra):
    obj = {
        "query_id": qid,
        "sample_index": idx,
        "response_text": "\\boxed{a}",
        "token_logprobs": [-0.1, -0.2],
        "embedding": [0.5, -0.5],
    }
    obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_queries_round_trip_preserves_fields_extras_and_unicode(tmp_path):
    queries = [
        QueryRecord(
            query_id="q1",
            text="what is 2+2? ¿qué tal? 你好",
            group="main",
            gold_answers=("4", "four"),
            question_embedding=(0.25, -1.5),
            extra={"difficulty": "easy", "tags": ["math"]},
        ),
        QueryRecord(query_id="q2", text="plain", group="other"),
    ]
    path = tmp_path / "queries.jsonl"
    records.write_queries(str(path), queries)
    loaded = records.load_queries(str(path))
    assert loaded == queries
    # Unicode must be written raw, not escaped.
    assert "你好" in path.read_text(encoding="utf-8")


def test_generations_round_trip_with_and_without_optional_fields(tmp_path):
    rows = [
        GenerationRecord(
            query_id="q1",
            sample_index=0,
            response_text="so \\boxed{42}",
            token_logprobs=(-0.5, 0.0),
            embedding=(1.0, 2.0),
            answer="42",
            answer_token_logprobs=(-0.01,),
            sampling_meta={"temperature": 0.7},
            extra={"model": "m1"},
        ),
        GenerationRecord(
            query_id="q1",
            sample_index=1,
            response_text="no idea",
            token_logprobs=(-1.0,),
            embedding=(0.0, 0.0),
        ),
    ]
    path = tmp_path / "generations.jsonl"
    records.write_generations(str(path), rows)
    loaded = records.load_generation_records(str(path))
    assert loaded == rows


def test_generation_writer_accepts_sample_sets(tmp_path):
    sample_set = SampleSet(
        query=make_query("q1"),
        samples=(make_generation("q1", 0, answer="a"), make_generation("q1", 1, answer="b")),
    )
    path = tmp_path / "generations.jsonl"
    records.write_generations(str(path), [sample_set])
    loaded = records.load_generation_records(str(path))
    assert loaded == list(sample_set.samples)


def test_labels_round_trip(tmp_path):
    labels = [CorrectnessLabel("q1", 0, 1), CorrectnessLabel("q1", 1, 0)]
    path = tmp_path / "labels.jsonl"
    records.write_labels(str(path), labels)
    assert records.load_labels(str(path)) == labels


def test_on_disk_generation_key_order_is_stable(tmp_path):
    path = tmp_path / "generations.jsonl"
    records.write_generations(
        str(path),
        [
            GenerationRecord(
                query_id="q1",
                sample_index=0,
                response_text="t",
                token_logprobs=(-0.1,),
                embedding=(0.0,),
                answer="a",
                answer_token_logprobs=(-0.2,),
                sampling_meta={"temperature": 1.0},
            )
        ],
    )
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert list(first) == [
        "query_id",
        "sample_index",
        "response_text",
        "answer",
        "token_logprobs",
        "answer_token_logprobs",
        "embedding",
        "sampling_meta",
    ]


def test_absent_optional_fields_are_omitted_not_null(tmp_path):
    path = tmp_path / "queries.jsonl"
    records.write_queries(str(path), [QueryRecord(query_id="q1", text="t", group="g")])
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert "gold_answers" not in obj and "question_embedding" not in obj


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------


def test_duplicate_query_id_yields_line_numbered_diagnostic(tmp_path):
    path = _write_lines(tmp_path / "queries.jsonl", [_valid_query("q1"), _valid_query("q1")])
    found, diagnostics = records.scan_queries(path)
    assert len(found) == 1
    assert len(diagnostics) == 1
    assert diagnostics[0].line == 2
    assert "duplicate query_id 'q1'" in diagnostics[0].message


def test_invalid_json_and_non_object_lines_are_diagnosed(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"query_id": "q1", "text": "t", "group": "g"}\nnot json{\n[1, 2]\n')
    found, diagnostics = records.scan_queries(str(path))
    assert len(found) == 1
    assert [d.line for d in diagnostics] == [2, 3]
    assert "invalid JSON" in diagnostics[0].message
    assert "JSON object" in diagnostics[1].message


def test_query_field_type_problems_are_each_reported(tmp_path):
    path = _write_lines(
        tmp_path / "queries.jsonl",
        [{"query_id": "", "text": 7, "group": None, "gold_answers": []}],
    )
    _, diagnostics = records.scan_queries(path)
    messages = " | ".join(d.message for d in diagnostics)
    assert "query_id" in messages
    assert "text" in messages
    assert "group" in messages
    assert "gold_answers" in messages


def test_ragged_question_embeddings_are_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "queries.jsonl",
        [
            _valid_query("q1", question_embedding=[0.0, 1.0]),
            _valid_query("q2", question_embedding=[0.0, 1.0, 2.0]),
        ],
    )
    _, diagnostics = records.scan_queries(path)
    assert len(diagnostics) == 1
    assert "dimension 3 differs from 2" in diagnostics[0].message


def test_ragged_generation_embedding_diagnostic_names_the_query(tmp_path):
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [
            _valid_generation("q1", 0),
            _valid_generation("q2", 0, embedding=[1.0, 2.0, 3.0]),
        ],
    )
    _, diagnostics = records.scan_generation_records(path)
    assert len(diagnostics) == 1
    assert "query q2" in diagnostics[0].message
    assert "dimension 3" in diagnostics[0].message


def test_positive_token_logprobs_are_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [_valid_generation(token_logprobs=[-0.1, 0.5])],
    )
    _, diagnostics = records.scan_generation_records(path)
    assert len(diagnostics) == 1
    assert "token_logprobs" in diagnostics[0].message
    assert "above 0" in diagnostics[0].message


def test_non_finite_and_non_numeric_vector_entries_are_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [
            _valid_generation("q1", 0, embedding=["oops", 1.0]),
            _valid_generation("q2", 0, token_logprobs=[-0.1, None]),
            _valid_generation("q3", 0, embedding=[0.5, math.nan]),
            _valid_generation("q4", 0, token_logprobs=[-math.inf]),
            _valid_generation("q5", 0, answer_token_logprobs=[math.inf, -0.1]),
        ],
    )
    # json writes the NaN and Infinity tokens that json.loads reads back.
    text = (tmp_path / "generations.jsonl").read_text(encoding="utf-8")
    assert "NaN" in text and "-Infinity" in text
    _, diagnostics = records.scan_generation_records(path)
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "embedding contains a non-finite or non-numeric entry"),
        (2, "token_logprobs contains a non-finite or non-numeric entry"),
        (3, "embedding contains a non-finite or non-numeric entry"),
        (4, "token_logprobs contains a non-finite or non-numeric entry"),
        (5, "answer_token_logprobs contains a non-finite or non-numeric entry"),
    ]


def test_integers_too_large_for_a_float_are_diagnosed(tmp_path):
    huge = -(10**400)
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [
            _valid_generation("q1", 0),
            _valid_generation("q2", 0, token_logprobs=[-0.1, huge]),
            _valid_generation("q3", 0, answer_token_logprobs=[huge]),
            _valid_generation("q4", 0, embedding=[huge, 0.0]),
        ],
    )
    found, diagnostics = records.scan_generation_records(path)
    assert [g.query_id for g in found] == ["q1"]
    assert [(d.line, d.message) for d in diagnostics] == [
        (2, "token_logprobs contains a non-finite or non-numeric entry"),
        (3, "answer_token_logprobs contains a non-finite or non-numeric entry"),
        (4, "embedding contains a non-finite or non-numeric entry"),
    ]

    queries = _write_lines(
        tmp_path / "queries.jsonl", [_valid_query(question_embedding=[huge])]
    )
    _, diagnostics = records.scan_queries(queries)
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "question_embedding contains a non-finite or non-numeric entry")
    ]


def test_integer_literals_beyond_the_digit_limit_are_invalid_json(tmp_path):
    path = tmp_path / "generations.jsonl"
    row = json.dumps(_valid_generation())
    path.write_text(row.replace("[0.5, -0.5]", "[" + "9" * 5000 + "]") + "\n")
    _, diagnostics = records.scan_generation_records(str(path))
    assert [(d.line, d.message) for d in diagnostics] == [(1, "invalid JSON (integer too long)")]


def test_nesting_past_the_decoders_depth_is_invalid_json(tmp_path):
    path = tmp_path / "generations.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    _, diagnostics = records.scan_generation_records(str(path))
    assert [(d.line, d.message) for d in diagnostics] == [(1, "invalid JSON (nested too deeply)")]


def test_decoding_problems_are_reported_before_row_problems(tmp_path):
    path = tmp_path / "generations.jsonl"
    bad_row = json.dumps(_valid_generation(token_logprobs=[0.5]))
    path.write_text(bad_row + "\nnot json{\n")
    _, diagnostics = records.scan_generation_records(str(path))
    assert [(d.line, d.message) for d in diagnostics] == [
        (2, "invalid JSON (Expecting value)"),
        (1, "token_logprobs contains an entry above 0"),
    ]
    with pytest.raises(RecordError) as excinfo:
        records.load_generations(str(path), [make_query("q1")])
    assert excinfo.value.line == 2
    assert str(excinfo.value) == f"{path}:2: invalid JSON (Expecting value) (+1 more)"


_vector_entries = st.one_of(
    st.floats(),
    st.just(-0.0),
    st.integers(-10, 10),
    st.integers(-(2**1030), 2**1030),
    st.sampled_from([2**1024, 2**1024 - 1, -(10**400)]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
)
_finite_entries = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**60), 2**60)
)
_vectors = st.one_of(
    st.lists(_vector_entries, max_size=6),
    st.lists(_finite_entries, min_size=1, max_size=6),
    st.none(),
    st.text(max_size=3),
    st.floats(),
)


@given(_vectors)
@example([0.5, math.nan])
@example([math.nan, 0.5])
@example([True])
@example([-1e308, -1e308])
def test_vector_check_matches_the_entry_by_entry_oracle(value):
    for bound in (None, 0.0):
        expected = check_vector_by_entry(value, "v", max_value=bound)
        assert records._check_vector(value, "v", max_value=bound) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        ([0.5, math.nan], "v contains an entry above 0"),
        ([math.nan, 0.5], "v contains a non-finite or non-numeric entry"),
        ([True], "v contains a non-finite or non-numeric entry"),
        ([-1e308, -1e308], None),  # the sum overflows, every entry is finite
    ],
)
def test_vector_check_names_the_first_offending_entry(value, expected):
    messages = [] if expected is None else [expected]
    assert check_vector_by_entry(value, "v", max_value=0.0) == messages
    assert records._check_vector(value, "v", max_value=0.0) == messages


def test_boolean_sample_index_and_label_values_are_rejected(tmp_path):
    gen_path = _write_lines(
        tmp_path / "generations.jsonl", [_valid_generation(idx=True)]
    )
    _, gen_diags = records.scan_generation_records(gen_path)
    assert any("sample_index" in d.message for d in gen_diags)

    label_path = _write_lines(
        tmp_path / "labels.jsonl", [{"query_id": "q1", "sample_index": 0, "z": True}]
    )
    _, label_diags = records.scan_labels(label_path)
    assert any("z must be 0 or 1" in d.message for d in label_diags)


def test_label_z_outside_zero_one_is_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "labels.jsonl", [{"query_id": "q1", "sample_index": 0, "z": 2}]
    )
    _, diagnostics = records.scan_labels(path)
    assert len(diagnostics) == 1


def test_duplicate_generation_pair_is_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [_valid_generation("q1", 0), _valid_generation("q1", 0)],
    )
    _, diagnostics = records.scan_generation_records(path)
    assert len(diagnostics) == 1
    assert "duplicate" in diagnostics[0].message


def test_labels_referencing_unknown_generations_need_sets_to_be_caught(tmp_path):
    path = _write_lines(
        tmp_path / "labels.jsonl", [{"query_id": "ghost", "sample_index": 3, "z": 1}]
    )
    # Without context the label is structurally fine.
    _, without = records.scan_labels(path)
    assert without == []
    sets = [
        SampleSet(query=make_query("q1"), samples=(make_generation("q1", 0, answer="a"),))
    ]
    _, with_sets = records.scan_labels(path, sets)
    assert len(with_sets) == 1
    assert "unknown generation" in with_sets[0].message


def test_loaders_raise_record_error_naming_file_and_line(tmp_path):
    path = _write_lines(tmp_path / "queries.jsonl", [_valid_query("q1"), _valid_query("q1")])
    with pytest.raises(RecordError) as excinfo:
        records.load_queries(path)
    assert f"{path}:2" in str(excinfo.value)
    assert excinfo.value.path == path
    assert excinfo.value.line == 2


def test_record_error_counts_additional_problems(tmp_path):
    path = _write_lines(
        tmp_path / "queries.jsonl",
        [_valid_query("q1"), _valid_query("q1"), _valid_query("q1")],
    )
    with pytest.raises(RecordError, match=r"\(\+1 more\)"):
        records.load_queries(path)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------


def test_group_generations_orders_samples_and_flags_orphans():
    queries = [make_query("q1"), make_query("q2")]
    rows = [
        make_generation("q1", 1, answer="b"),
        make_generation("q1", 0, answer="a"),
        make_generation("q2", 0, answer="a"),
        make_generation("ghost", 0, answer="a"),
    ]
    sets, diagnostics = records.group_generations(queries, rows)
    assert [s.query_id for s in sets] == ["q1", "q2"]
    assert [g.sample_index for g in sets[0].samples] == [0, 1]
    assert len(diagnostics) == 1
    assert "unknown query_id 'ghost'" in diagnostics[0].message


def test_queries_with_zero_generations_are_dropped_with_a_warning(caplog):
    queries = [make_query("q1"), make_query("q2")]
    rows = [make_generation("q1", 0, answer="a")]
    with caplog.at_level("WARNING", logger="conscal.records"):
        sets, diagnostics = records.group_generations(queries, rows)
    assert [s.query_id for s in sets] == ["q1"]
    assert diagnostics == []
    assert "zero generations" in caplog.text
    assert "q2" in caplog.text


def test_validate_files_collects_problems_across_all_three_files(tmp_path):
    queries = _write_lines(
        tmp_path / "queries.jsonl", [_valid_query("q1"), _valid_query("q1")]
    )
    generations = _write_lines(
        tmp_path / "generations.jsonl", [_valid_generation(token_logprobs=[0.5])]
    )
    labels = _write_lines(
        tmp_path / "labels.jsonl", [{"query_id": "q1", "sample_index": 0, "z": 3}]
    )
    diagnostics = records.validate_files(queries, generations, labels)
    paths = {d.path for d in diagnostics}
    assert paths == {queries, generations, labels}


def test_validate_files_on_clean_data_returns_nothing(tmp_path):
    queries = _write_lines(tmp_path / "queries.jsonl", [_valid_query("q1")])
    generations = _write_lines(tmp_path / "generations.jsonl", [_valid_generation("q1", 0)])
    labels = _write_lines(
        tmp_path / "labels.jsonl", [{"query_id": "q1", "sample_index": 0, "z": 1}]
    )
    assert records.validate_files(queries, generations, labels) == []


def test_empty_query_file_loads_as_empty(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text("")
    assert records.load_queries(str(path)) == []


# ---------------------------------------------------------------------------
# writers: the same bytes as json
# ---------------------------------------------------------------------------

_TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\n\x1f\x7f", "é你好\u2028", ""])
_NUMBER = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1e300]),
)
_VECTOR = (
    st.lists(_NUMBER, max_size=5)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5)
).map(tuple)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)


def _extras(known):
    return st.dictionaries(st.sampled_from(sorted(known)) | _TEXT, _JSON, max_size=3)


_QUERIES = st.builds(
    QueryRecord,
    query_id=_TEXT,
    text=_TEXT,
    group=_TEXT,
    gold_answers=st.none() | st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
    question_embedding=st.none() | _VECTOR,
    extra=_extras(records._QUERY_FIELDS),
)
_GENERATIONS = st.builds(
    GenerationRecord,
    query_id=_TEXT,
    sample_index=st.integers(min_value=0),
    response_text=_TEXT,
    token_logprobs=_VECTOR,
    embedding=_VECTOR,
    answer=st.none() | _TEXT,
    answer_token_logprobs=st.none() | _VECTOR,
    sampling_meta=st.none() | st.dictionaries(_TEXT, _JSON, max_size=3),
    extra=_extras(records._GENERATION_FIELDS),
)
_LABELS = st.builds(
    CorrectnessLabel,
    query_id=_TEXT,
    sample_index=st.integers(min_value=0),
    z=st.sampled_from([0, 1, False, True]),
)
_SAMPLE_SETS = st.builds(
    SampleSet, query=_QUERIES, samples=st.lists(_GENERATIONS, max_size=3).map(tuple)
)


def _written(writer, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        writer(path, rows)
        with open(path, "rb") as handle:
            return handle.read()


def _oracle_bytes(rows) -> bytes:
    return "".join(map(record_line_by_json, rows)).encode("utf-8")


@given(
    queries=st.lists(_QUERIES, max_size=3),
    generations=st.lists(_GENERATIONS | _SAMPLE_SETS, max_size=3),
    labels=st.lists(_LABELS, max_size=3),
)
@example(
    queries=[
        QueryRecord(
            query_id="q\"1\\", text="\x00\t¿\u2028", group="g", gold_answers=("a", "β"),
            question_embedding=(-0.0, 1, True, float("nan"), np.float64(0.5)),
            extra={"gold_answers": [1], "text": "taken", "a": None},
        )
    ],
    generations=[
        GenerationRecord(
            query_id="q1", sample_index=0, response_text="\\boxed{x}",
            token_logprobs=(-0.0, float("-inf")), embedding=(1e-320, 1e308, 1e308),
            sampling_meta={"temperature": 0.7}, extra={"answer": "late", "zz": [1.5]},
        )
    ],
    labels=[CorrectnessLabel("q1", 0, 1)],
)
def test_writers_emit_the_json_oracle_lines(queries, generations, labels):
    assert _written(records.write_queries, queries) == _oracle_bytes(queries)
    assert _written(records.write_generations, generations) == _oracle_bytes(generations)
    assert _written(records.write_labels, labels) == _oracle_bytes(labels)


# ---------------------------------------------------------------------------
# generation batches
# ---------------------------------------------------------------------------

_BATCH_CONFIG = synth.SynthConfig(n_queries=3, k=4, embedding_dim=3, seed=1)


def test_generation_batch_reads_as_a_sequence_of_records():
    queries, batch, _ = synth.generate(_BATCH_CONFIG)
    rows = list(batch)
    assert isinstance(batch, Sequence)
    assert len(batch) == len(rows) == 12
    assert all(isinstance(row, GenerationRecord) for row in rows)
    assert [row.query_id for row in rows] == [q.query_id for q in queries for _ in range(4)]
    assert [row.sample_index for row in rows] == [0, 1, 2, 3] * 3
    assert [batch[i] for i in range(-12, 12)] == rows + rows
    assert batch[3:7] == rows[3:7] and batch[::-5] == rows[::-5]
    for index in (12, -13):
        with pytest.raises(IndexError):
            batch[index]
    with pytest.raises(ValueError):
        batch.embedding[0, 0] = 1.0  # the columns are read-only


def test_generation_batches_compare_by_their_columns():
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    _, again, _ = synth.generate(_BATCH_CONFIG)
    _, other, _ = synth.generate(dataclasses.replace(_BATCH_CONFIG, seed=2))
    assert batch == again and batch is not again
    assert batch != other
    assert batch != dataclasses.replace(batch, answer=batch.answer[:-1] + (None,))


def test_grouping_a_batch_equals_grouping_its_records():
    queries, batch, _ = synth.generate(_BATCH_CONFIG)
    assert records.group_generations(queries, batch) == records.group_generations(
        queries, list(batch)
    )


def test_a_written_batch_loads_back_as_its_records(tmp_path):
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    path = str(tmp_path / "generations.jsonl")
    records.write_generations(path, batch)
    assert records.load_generation_records(path) == list(batch)


def test_a_batch_writes_the_bytes_of_its_records():
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    tokens = batch.token_logprobs.copy()
    tokens[[0, 5, 9]] = [float("nan"), float("-inf"), -0.0]
    embedding = batch.embedding.copy()
    embedding[4] = [1e-320, -0.0, float("inf")]
    edited = dataclasses.replace(
        batch,
        token_logprobs=tokens,
        embedding=embedding,
        answer=(None,) + batch.answer[1:],
        sampling_meta=(None, {"t": "é"}) + batch.sampling_meta[2:],
    )
    for rows in (batch, edited):
        assert _written(records.write_generations, rows) == _oracle_bytes(list(rows))
        assert _written(records.write_generations, rows) == _written(
            records.write_generations, list(rows)
        )
