"""Record files: round trips, validation diagnostics, grouping."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import pickle
import re
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conscal import parts, records, synth
from conscal.cli import main
from conscal.errors import DataError, RecordError
from conscal.records import Diagnostic, QueryRecord

from conftest import make_batch, make_generation, make_query, make_set
from oracles import (
    answer_token_row,
    check_vector_by_entry,
    group_generations_by_buckets,
    label_lines_by_json,
    record_line_by_json,
    scan_generations_by_row,
    scan_labels_by_row,
)


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return str(path)


def _scan_clean(path):
    """The batch of a generations file, which must read without a diagnostic."""
    batch, diagnostics = records.scan_generation_records(str(path))
    assert diagnostics == []
    return batch


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


def test_queries_round_trip_preserves_fields_and_unicode(tmp_path):
    queries = [
        QueryRecord(
            query_id="q1",
            text="what is 2+2? ¿qué tal? 你好",
            group="main",
            gold_answers=("4", "four"),
            question_embedding=(0.25, -1.5),
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
    rows = make_batch(
        [
            {
                "query_id": "q1",
                "sample_index": 0,
                "response_text": "so \\boxed{42}",
                "token_logprobs": (-0.5, 0.0),
                "embedding": (1.0, 2.0),
                "answer": "42",
                "answer_token_logprobs": (-0.01,),
            },
            {
                "query_id": "q1",
                "sample_index": 1,
                "response_text": "no idea",
                "token_logprobs": (-1.0,),
                "embedding": (0.0, 0.0),
            },
        ]
    )
    path = tmp_path / "generations.jsonl"
    for meta in (None, {"temperature": 0.7}):
        records.write_generations(str(path), rows, meta)
        assert ('"sampling_meta"' in path.read_text(encoding="utf-8")) == (meta is not None)
        assert _scan_clean(path) == rows


def test_labels_round_trip(tmp_path):
    batch = make_batch([make_generation("q1", j) for j in range(3)])
    z = np.array([1, 0, -1], dtype=np.int8)
    path = tmp_path / "labels.jsonl"
    records.write_labels(str(path), batch, z)
    sets, _ = records.group_generations([make_query("q1")], batch)
    loaded = records.load_labels(str(path), sets)
    assert loaded.dtype == np.int8 and loaded.tolist() == [1, 0, -1]
    unaligned, diagnostics = records.scan_labels(str(path))  # without sets: no rows to fill
    assert unaligned.dtype == np.int8 and unaligned.size == 0 and diagnostics == []
    with pytest.raises(DataError, match="2 entries for a batch of 3 rows"):
        records.write_labels(str(path), batch, z[:2])


def test_on_disk_generation_key_order_is_stable(tmp_path):
    path = tmp_path / "generations.jsonl"
    records.write_generations(
        str(path),
        make_batch(
            [
                {
                    "query_id": "q1",
                    "sample_index": 0,
                    "response_text": "t",
                    "token_logprobs": (-0.1,),
                    "embedding": (0.0,),
                    "answer": "a",
                    "answer_token_logprobs": (-0.2,),
                }
            ]
        ),
        {"temperature": 1.0},
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


def test_booleans_and_other_values_in_vectors_are_not_numbers(tmp_path):
    # A boolean is the one value that is no number yet reads into a float
    # column, in any vector field; "true" in a line's text alone is fine.
    path = _write_lines(
        tmp_path / "generations.jsonl",
        [
            _valid_generation("q1", 0, embedding=[True, 1.0]),
            _valid_generation("q2", 0, token_logprobs=[-0.1, False]),
            _valid_generation("q3", 0, answer_token_logprobs=[-0.1, True]),
            _valid_generation("q4", 0, response_text="true or false?"),
            _valid_generation("q5", 0, token_logprobs=[-0.1, [-0.2]]),
            _valid_generation("q6", 0, embedding=[0.5, {}]),
            _valid_generation("q7", 0, sampling_meta={"greedy": False}, embedding=[0.5, "1"]),
        ],
    )
    batch, diagnostics = records.scan_generation_records(path)
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "embedding contains a non-finite or non-numeric entry"),
        (2, "token_logprobs contains a non-finite or non-numeric entry"),
        (3, "answer_token_logprobs contains a non-finite or non-numeric entry"),
        (5, "token_logprobs contains a non-finite or non-numeric entry"),
        (6, "embedding contains a non-finite or non-numeric entry"),
        (7, "embedding contains a non-finite or non-numeric entry"),
    ]
    assert batch.query_id == ("q4",)


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
    assert found.query_id == ("q1",)
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


def test_bytes_that_are_not_utf8_are_diagnosed_and_reading_goes_on(tmp_path):
    path = tmp_path / "queries.jsonl"
    first = json.dumps(_valid_query("q1")).encode()
    second = json.dumps(_valid_query("q2", text="é"), ensure_ascii=False).encode()
    # A lone carriage return still ends a line, as in text mode.
    path.write_bytes(first + b"\n\xff\n" + second + b"\r[]\n")
    found, diagnostics = records.scan_queries(str(path))
    assert [(q.query_id, q.text) for q in found] == [("q1", "what?"), ("q2", "é")]
    assert [(d.line, d.message) for d in diagnostics] == [
        (2, "invalid JSON (not UTF-8 text)"),
        (4, "record must be a JSON object"),
    ]


def test_a_line_starting_with_a_byte_order_mark_is_invalid_json(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(_valid_query("q1")).encode() + b"\n")
    found, diagnostics = records.scan_queries(str(path))
    assert found == []
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")
    ]


def test_an_unpaired_surrogate_escape_makes_a_line_invalid_json(tmp_path):
    # json.dumps escapes each surrogate: "\ud800" alone, "\ud83d\ude00" as a pair.
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        "".join(
            json.dumps(obj) + "\n"
            for obj in (
                _valid_query("q1", text="x\ud800"),
                _valid_query("q2", text="\U0001f600"),
                _valid_query("q3", notes={"\udfff": 1}),
                _valid_query("q4", notes=["ok", ["\udc00"]]),
            )
        ),
        encoding="utf-8",
    )
    found, diagnostics = records.scan_queries(str(queries))
    assert [(q.query_id, q.text) for q in found] == [("q2", "\U0001f600")]
    assert [(d.line, d.message) for d in diagnostics] == [
        (line, "invalid JSON (unpaired surrogate escape)") for line in (1, 3, 4)
    ]
    generations = tmp_path / "generations.jsonl"
    generations.write_text(
        json.dumps(_valid_generation(response_text="\\boxed{\udbff}")) + "\n"
        + json.dumps(_valid_generation(idx=1, answer="\U0001f600")) + "\n",
        encoding="utf-8",
    )
    batch, diagnostics = records.scan_generation_records(str(generations))
    assert batch.answer == ("\U0001f600",)
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "invalid JSON (unpaired surrogate escape)")
    ]


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
    sets = make_set(["a"], query_id="q1")
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
    rows = make_batch(
        [
            make_generation("q1", 1, answer="b"),
            make_generation("q1", 0, answer="a"),
            make_generation("q2", 0, answer="a"),
            make_generation("ghost", 0, answer="a"),
        ]
    )
    sets, diagnostics = records.group_generations(queries, rows)
    assert sets.query_ids == ("q1", "q2")
    assert sets.rows.tolist() == [1, 0, 2] and sets.offsets.tolist() == [0, 2, 3]
    assert sets.deploy_rows.tolist() == [1, 2]
    assert len(diagnostics) == 1
    assert "unknown query_id 'ghost'" in diagnostics[0].message


def test_queries_with_zero_generations_are_dropped_with_a_warning(caplog):
    queries = [make_query("q1"), make_query("q2")]
    rows = make_batch([make_generation("q1", 0, answer="a")])
    with caplog.at_level("WARNING", logger="conscal.records"):
        sets, diagnostics = records.group_generations(queries, rows)
    assert sets.query_ids == ("q1",)
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


_METAS = st.none() | st.dictionaries(_TEXT, _JSON, max_size=3)

_QUERIES = st.builds(
    QueryRecord,
    query_id=_TEXT,
    text=_TEXT,
    group=_TEXT,
    gold_answers=st.none() | st.lists(_TEXT, min_size=1, max_size=3).map(tuple),
    question_embedding=st.none() | _VECTOR,
)
_FLOAT64 = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e-310, -2.5e-320, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
)


@st.composite
def _batches(draw):
    """Generation batches over interleaved query ids, with float64 columns."""
    dim = draw(st.integers(0, 3))
    query_ids = draw(st.lists(st.sampled_from(["q1", "q2", "é"]) | _TEXT, max_size=4))
    rows = [
        {
            "query_id": query_id,
            "sample_index": draw(st.integers(min_value=0)),
            "response_text": draw(_TEXT),
            "answer": draw(st.none() | _TEXT),
            "token_logprobs": draw(st.lists(_FLOAT64, max_size=4)),
            # An empty span is an absent one.
            "answer_token_logprobs": draw(st.lists(_FLOAT64, max_size=3)),
            "embedding": draw(st.lists(_FLOAT64, min_size=dim, max_size=dim)),
        }
        for query_id in query_ids
    ]
    return make_batch(rows)


def _written(writer, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        writer(path, rows)
        with open(path, "rb") as handle:
            return handle.read()


def _oracle_bytes(rows) -> bytes:
    return "".join(map(record_line_by_json, rows)).encode("utf-8")


def _batch_oracle_bytes(batch, meta=None) -> bytes:
    lines = (record_line_by_json(batch, i, meta) for i in range(len(batch)))
    return "".join(lines).encode("utf-8")


def _written_generations(batch, meta=None) -> bytes:
    return _written(lambda path, rows: records.write_generations(path, rows, meta), batch)


@given(
    queries=st.lists(_QUERIES, max_size=3),
    generations=_batches(),
    meta=_METAS,
    labels=st.lists(st.sampled_from([-1, 0, 1]), max_size=6),
)
@example(
    queries=[
        QueryRecord(
            query_id="q\"1\\", text="\x00\t¿\u2028", group="g", gold_answers=("a", "β"),
            question_embedding=(-0.0, 1, True, float("nan"), np.float64(0.5)),
        )
    ],
    generations=make_batch(
        [
            {
                "query_id": "q1", "sample_index": 0, "response_text": "\\boxed{x}",
                "token_logprobs": (-0.0, float("-inf")), "embedding": (1e-320, 1e308, 1e308),
            },
            {
                "query_id": "q2", "sample_index": 2**70, "response_text": "", "answer": "é",
                "token_logprobs": (float("nan"),), "answer_token_logprobs": (-5e-324,),
                "embedding": (float("inf"), -0.0, 0.5),
            },
        ]
    ),
    meta={"temperature": 0.7, "ключ": [1, 1.0, None]},
    labels=[1, -1],
)
def test_writers_emit_the_json_oracle_lines(queries, generations, meta, labels):
    assert _written(records.write_queries, queries) == _oracle_bytes(queries)
    assert _written_generations(generations, meta) == _batch_oracle_bytes(generations, meta)
    z = np.array((labels + [-1] * len(generations))[: len(generations)], dtype=np.int8)
    written = _written(lambda path, batch: records.write_labels(path, batch, z), generations)
    assert written == label_lines_by_json(generations, z).encode("utf-8")


def test_a_file_of_interleaved_queries_loads_and_writes_back_byte_for_byte(tmp_path):
    objects = [
        {"query_id": "q1", "sample_index": 1, "response_text": "\\boxed{x}", "answer": "x",
         "token_logprobs": [-0.5, 0.0], "answer_token_logprobs": [-0.25],
         "embedding": [1.0, 2.0]},
        {"query_id": "q2", "sample_index": 0, "response_text": "é 你好",
         "token_logprobs": [-1.0], "embedding": [0.0, -0.0]},
        {"query_id": "q1", "sample_index": 0, "response_text": "",
         "token_logprobs": [-1e-310], "answer_token_logprobs": [-0.5, -0.125],
         "embedding": [5e-324, 1.5]},
        {"query_id": "q1", "sample_index": 7, "response_text": "no answer",
         "token_logprobs": [-3.0], "embedding": [2.0, 3.0]},
    ]
    meta = {"t": 0.7, "é": [1, 1.0]}
    text = "".join(
        json.dumps({**obj, "sampling_meta": meta}, ensure_ascii=False, separators=(",", ":"))
        + "\n"
        for obj in objects
    )
    path = tmp_path / "generations.jsonl"
    path.write_text(text, encoding="utf-8")
    batch = _scan_clean(path)
    assert batch.query_id == ("q1", "q2", "q1", "q1")
    assert batch.answer == ("x", None, None, None)
    assert [answer_token_row(batch, i) is None for i in range(4)] == [False, True, False, True]
    rewritten = tmp_path / "rewritten.jsonl"
    records.write_generations(str(rewritten), batch, meta)
    assert rewritten.read_bytes() == path.read_bytes()


def test_a_batch_holds_only_the_columns_the_pipeline_reads():
    assert [column.name for column in dataclasses.fields(records.GenerationBatch)] == [
        "query_id", "sample_index", "response_text", "answer",
        "token_logprobs", "token_offsets", "answer_token_logprobs", "answer_token_offsets",
        "embedding",
    ]
    assert [column.name for column in dataclasses.fields(QueryRecord)] == [
        "query_id", "text", "group", "gold_answers", "question_embedding",
    ]


def test_unknown_keys_and_sampling_meta_are_checked_then_dropped(tmp_path):
    plain = [_valid_generation("q1", 0, answer="a"), _valid_generation("q1", 1)]
    decorated = [
        {**plain[0], "sampling_meta": {"temperature": 0.7}, "model": "m1"},
        {**plain[1], "zz": [1, {"k": "é"}], "a": None, "sampling_meta": None},
    ]
    batches = [
        _scan_clean(_write_lines(tmp_path / f"{name}.jsonl", rows))
        for name, rows in (("plain", plain), ("decorated", decorated))
    ]
    assert batches[0] == batches[1] and len(batches[0]) == 2
    queries = [
        records.load_queries(_write_lines(tmp_path / f"{name}-queries.jsonl", [row]))
        for name, row in (("plain", _valid_query()), ("decorated", _valid_query(tag="x")))
    ]
    assert queries[0] == queries[1] == [QueryRecord(query_id="q1", text="what?", group="main")]


_CLEAN_LINES = {
    "queries": '{"query_id":"q1","text":"x","group":"main"}',
    "generations": (
        '{"query_id":"q1","sample_index":0,"response_text":"t","token_logprobs":[-0.1],'
        '"embedding":[0.5]}'
    ),
    "labels": '{"query_id":"q1","sample_index":0,"z":1}',
}


@pytest.mark.parametrize(
    "kind, line, expected",
    [
        (
            "queries",
            '{"query_id":"q1","text":"x","group":"main","extra_key":NaN}',
            "extra_key contains NaN or Infinity",
        ),
        (
            "generations",
            _CLEAN_LINES["generations"][:-1] + ',"sampling_meta":{"t":Infinity}}',
            "sampling_meta contains NaN or Infinity",
        ),
        (
            "labels",
            '{"query_id":"q1","sample_index":0,"z":1,"notes":[{"w":-Infinity}]}',
            "notes contains NaN or Infinity",
        ),
    ],
)
def test_nan_and_infinity_outside_the_vector_fields_are_diagnosed(
    kind, line, expected, tmp_path
):
    paths = {}
    for name, text in {**_CLEAN_LINES, kind: line}.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text + "\n", encoding="utf-8")
    scan = {
        "queries": records.scan_queries,
        "generations": records.scan_generation_records,
        "labels": records.scan_labels,
    }[kind]
    found, diagnostics = scan(str(paths[kind]))
    assert len(found) == 0
    assert [(d.line, d.message) for d in diagnostics] == [(1, expected)]
    argv = ["validate"] + [f"--{name}={path}" for name, path in paths.items()]
    assert main(argv) == 1


# ---------------------------------------------------------------------------
# generation batches
# ---------------------------------------------------------------------------

_BATCH_CONFIG = synth.SynthConfig(n_queries=3, k=4, embedding_dim=3, seed=1)


def test_generation_batches_compare_by_their_columns():
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    _, again, _ = synth.generate(_BATCH_CONFIG)
    _, other, _ = synth.generate(dataclasses.replace(_BATCH_CONFIG, seed=2))
    assert batch == again and batch is not again
    assert batch != other
    assert batch != dataclasses.replace(batch, answer=batch.answer[:-1] + (None,))
    assert len(batch) == 12
    with pytest.raises(ValueError):
        batch.embedding[0, 0] = 1.0  # the columns are read-only


def test_a_written_batch_loads_back_as_its_records(tmp_path):
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    path = str(tmp_path / "generations.jsonl")
    records.write_generations(path, batch)
    assert _scan_clean(path) == batch


def test_a_batch_writes_the_bytes_of_its_records():
    _, batch, _ = synth.generate(_BATCH_CONFIG)
    tokens = batch.token_logprobs.copy()
    tokens[[0, 5, 9]] = [float("nan"), float("-inf"), -0.0]
    embedding = batch.embedding.copy()
    embedding[4] = [1e-320, -0.0, float("inf")]
    # Row 0 loses its answer span.
    first_span_end = batch.answer_token_offsets[1]
    spans = batch.answer_token_offsets - first_span_end
    spans[0] = 0
    edited = dataclasses.replace(
        batch,
        token_logprobs=tokens,
        embedding=embedding,
        answer=(None,) + batch.answer[1:],
        answer_token_logprobs=batch.answer_token_logprobs[first_span_end:],
        answer_token_offsets=spans,
    )
    for rows, meta in ((batch, synth.sampling_meta(_BATCH_CONFIG)), (edited, {"t": "é"})):
        assert _written_generations(rows, meta) == _batch_oracle_bytes(rows, meta)


# Part writers are forked processes, which only POSIX hosts have.
_FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork does not exist here")
# Uneven query runs starting at rows 0, 1, 4, 8, 10 and 15 of 16.
_RUN_SIZES = (1, 3, 4, 2, 5, 1)
_ODD_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e-310)


def _parts_batch():
    """Rows with and without an answer or a span, non-ASCII text, and every
    float that json writes by hand (NaN, ±inf) or that repr makes odd
    (-0.0, subnormals) in runs that land in different parts."""
    rows = []
    for run, size in enumerate(_RUN_SIZES):
        for j in range(size):
            i = len(rows)
            odd = _ODD_FLOATS[i % len(_ODD_FLOATS)]
            rows.append({
                "query_id": f"q{run}é" if run % 2 else f"q{run}",
                "sample_index": j,
                "response_text": f"ответ {i} \\boxed{{{i}}}\n\"你好\"",
                "answer": None if i % 3 == 0 else f"β{i}",
                "token_logprobs": (-0.1 * i, odd)[: 1 + i % 2],
                "answer_token_logprobs": None if i % 4 == 1 else (odd, -1e-5 * i),
                "embedding": (odd, 0.1 * i, -(3.0**-i)),
            })
    return make_batch(rows)


def _run_offsets(batch) -> list[int]:
    """The offsets of the runs of consecutive rows of ``batch`` that share a
    query id: run ``r`` is rows ``offsets[r]:offsets[r + 1]``."""
    ids = batch.query_id
    return [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]] + [len(ids)]


def _use_parts(monkeypatch, count: int) -> None:
    """Make every part rule give ``count`` parts wherever the work has that
    many items: that many usable CPUs, no lower cap, and floors of one item."""
    monkeypatch.setattr(parts, "_usable_cpus", lambda: count)
    monkeypatch.setattr(parts, "_MAX_PARTS", max(count, parts._MAX_PARTS))
    monkeypatch.setattr(synth, "_ROWS_PER_PART", 1)
    for floor in ("_SCORE_LINES_PER_PART", "_BYTES_PER_PART"):
        monkeypatch.setattr(records, floor, 1)


def _spy_parts(monkeypatch) -> list[int]:
    """Record the number of parts of each part run."""
    counts, original = [], parts.run

    def run(name, cuts, work, take, **kwargs):
        counts.append(len(cuts))
        return original(name, cuts, work, take, **kwargs)

    monkeypatch.setattr(parts, "run", run)
    return counts


def _write_in_parts(path, batch, meta=None) -> list:
    """Write ``generation_lines(batch, meta)`` through ``write_parts``, one
    part for each of the ``part_ranges`` of the batch's query runs; each
    part formats the lines in its own process.  Returns the parts' values."""
    offsets = _run_offsets(batch)

    def format_part(runs):
        lines = list(records.generation_lines(batch, meta))
        part = lines[offsets[runs.start] : offsets[runs.stop]]
        return [lambda handle: handle.writelines(part)], None

    return parts.write_parts([str(path)], parts.part_ranges(offsets, 1), format_part)


@_FORKS
def test_part_runs_cut_at_run_starts_into_about_equal_rows(monkeypatch):
    offsets = _run_offsets(_parts_batch())
    assert offsets == [0, 1, 4, 8, 10, 15, 16]

    def cut(count, offsets=offsets):
        _use_parts(monkeypatch, count)
        return parts.part_ranges(offsets, 1)

    assert cut(1) == [range(0, 6)]
    assert cut(2) == [range(0, 3), range(3, 6)]  # row 8 exactly
    assert cut(3) == [range(0, 3), range(3, 4), range(4, 6)]
    assert cut(4) == [range(0, 2), range(2, 3), range(3, 5), range(5, 6)]
    one_run_each = [range(run, run + 1) for run in range(6)]
    assert cut(10) == cut(50) == one_run_each
    assert cut(3, [0]) == [range(0, 0)]  # no rows: one empty part


@_FORKS
@pytest.mark.parametrize("count", [1, 2, 3, 4, 10])
@pytest.mark.parametrize("meta", [None, {"temperature": 0.7, "ключ": [1, 1.0, None]}])
def test_every_part_count_writes_the_json_oracle_bytes(tmp_path, monkeypatch, count, meta):
    batch = _parts_batch()
    path = tmp_path / "generations.jsonl"
    _use_parts(monkeypatch, count)
    assert len(_write_in_parts(path, batch, meta)) == min(count, 6)  # 6 query runs
    assert path.read_bytes() == _batch_oracle_bytes(batch, meta)
    assert os.listdir(tmp_path) == ["generations.jsonl"]
    with pytest.raises(ChildProcessError):  # every part writer was reaped
        os.waitpid(-1, os.WNOHANG)


@_FORKS
def test_the_part_count_follows_cpus_rows_and_runs(monkeypatch):
    _, batch, _ = synth.generate(synth.SynthConfig(n_queries=40, k=100, seed=0))
    offsets, small = _run_offsets(batch), _run_offsets(_parts_batch())
    floor = synth._ROWS_PER_PART
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 16)
    assert len(parts.part_ranges(offsets, floor)) == 4  # 4,000 rows
    assert len(parts.part_ranges(offsets, 10)) == parts._MAX_PARTS
    assert len(parts.part_ranges(small, floor)) == 1  # 16 rows
    # 8 shares of 2 rows each start at one of 4 run starts: 5 parts for 6 runs.
    assert parts.part_ranges(small, 1) == [range(0, 2), *(range(r, r + 1) for r in range(2, 6))]
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 1)
    assert len(parts.part_ranges(offsets, 10)) == 1


def test_usable_cpus_fall_back_to_the_cpu_count_then_to_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert parts._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert parts._usable_cpus() == 1


def _fail_in(side: str, monkeypatch, name: str = "generation_lines", module=records) -> None:
    """Make ``<module>.<name>`` (default: ``records.generation_lines``, formatting)
    raise ``OSError("disk on fire")`` in this process (``side`` "parent") or
    in every forked part ("child")."""
    parent, original = os.getpid(), getattr(module, name)

    def faulty(*args):
        if (os.getpid() == parent) == (side == "parent"):
            raise OSError("disk on fire")
        return original(*args)

    monkeypatch.setattr(module, name, faulty)


@_FORKS
@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failing_part_raises_and_leaves_no_child_and_no_stray_file(tmp_path, monkeypatch, side):
    _fail_in(side, monkeypatch)
    _use_parts(monkeypatch, 3)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="disk on fire"):
        _write_in_parts(out / "generations.jsonl", _parts_batch())
    # A part writer that returned into this test would run this line too.
    with open(tmp_path / "after.txt", "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(out) == ["generations.jsonl"]
    assert (tmp_path / "after.txt").read_text(encoding="utf-8").split() == [str(os.getpid())]


@_FORKS
def test_synth_reports_a_failing_part_writer_as_an_io_error(tmp_path, monkeypatch, capsys):
    argv = ["synth", "--n-queries", "40", "--k", "100", "--seed", "0", "--out"]
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    (rerun / "notes.txt").write_text("mine", encoding="utf-8")
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 2)
    for side in ("child", "parent"):
        assert main([*argv, str(rerun)]) == 0  # a complete earlier run
        with monkeypatch.context() as patch:
            _fail_in(side, patch)
            for out in (tmp_path / "fresh", rerun):
                assert main([*argv, str(out)]) == 2
                where = f"{out / 'generations.jsonl'}: OSError: " if side == "child" else ""
                assert capsys.readouterr().err == f"io error: {where}disk on fire\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # No output name is left behind, and no directory the failed run made.
        assert sorted(os.listdir(tmp_path)) == ["rerun"]
        assert os.listdir(rerun) == ["notes.txt"]


@_FORKS
@pytest.mark.parametrize("side", ["child", "parent"])
@pytest.mark.parametrize(
    ("module", "name", "file"),
    [(records, "label_lines", "labels.jsonl"), (synth, "_truth_objects", "truth.jsonl")],
)
def test_synth_reports_a_failing_labels_or_truth_writer_as_an_io_error(
    tmp_path, monkeypatch, capsys, side, module, name, file
):
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 2)
    _fail_in(side, monkeypatch, name, module)
    out = tmp_path / "out"
    argv = ["synth", "--n-queries", "40", "--k", "100", "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    where = f"{out / file}: OSError: " if side == "child" else ""
    assert capsys.readouterr() == ("", f"io error: {where}disk on fire\n")
    with open(tmp_path / "after.txt", "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["after.txt"]
    assert (tmp_path / "after.txt").read_text(encoding="utf-8").split() == [str(os.getpid())]


@_FORKS
def test_part_values_come_back_in_order_past_the_pipe_buffer():
    values = [bytes([i]) * (1 << 20) for i in range(4)]  # the first is this process's
    taken = []
    parts.run("name", values, lambda value, part: value, lambda *each: taken.append(each))
    assert taken == [(value, []) for value in values]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FORKS
def test_a_part_that_ends_without_a_word_names_its_exit_code():
    with pytest.raises(OSError, match="^name: a part ended with code 3$"):
        parts.run("name", [0, 3], lambda code, part: part and os._exit(code), lambda *_: None)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_FORKS
def test_a_value_cut_short_by_the_child_s_end_names_its_exit_code(monkeypatch):
    def cut_short(report, part, work):
        report.write(parts._VALUE + pickle.dumps(list(range(1000)))[:100])
        report.flush()
        os._exit(5)

    monkeypatch.setattr(parts, "_run_part", cut_short)
    with pytest.raises(OSError, match="^name: a part ended with code 5$"):
        parts.run("name", [None, None], lambda cut, part: None, lambda *_: None)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SCORE_COLUMNS = [
    ("token_prob", ["q1", "q2é", "q2é"], [0, 0, 1], np.array([0.5, -0.0, 5e-324]), None),
    ("tt_sc", ("q1", "q2é"), None, [1.0, 0.1 + 0.2], None),
    ("answer_prob", [], [], np.array([]), None),
    (
        "verbal_conf", ["q1", "q2é", 'q"3'], np.array([0, 1, 2]),
        [float("nan"), 0.7, float("-inf")], np.array([True, False, True]),
    ),
]


def _score_oracle_bytes(columns) -> bytes:
    lines = []
    for method, query_ids, sample_index, confidence, imputed in columns:
        for row, query_id in enumerate(query_ids):
            obj = {"query_id": query_id}
            if sample_index is not None:
                obj["sample_index"] = int(sample_index[row])
            obj.update(method=method, confidence=float(confidence[row]))
            if imputed is not None:
                obj["imputed"] = bool(imputed[row])
            lines.append(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")
    return "".join(lines).encode("utf-8")


@_FORKS
@pytest.mark.parametrize("count", [1, 2, 3, 5, 40])  # 40: more parts than the 8 lines
def test_every_score_part_count_writes_the_json_oracle_bytes(tmp_path, monkeypatch, count):
    path = tmp_path / "scores.jsonl"
    _use_parts(monkeypatch, count)
    cuts, write_parts = [], parts.write_parts

    def spy(paths, ranges, format_part):
        cuts.append(list(ranges))
        return write_parts(paths, ranges, format_part)

    monkeypatch.setattr(parts, "write_parts", spy)
    records.write_scores(str(path), _SCORE_COLUMNS)
    assert path.read_bytes() == _score_oracle_bytes(_SCORE_COLUMNS)
    records.write_scores(str(path), [])
    assert path.read_bytes() == b""
    assert [len(ranges) for ranges in cuts] == [min(count, 8), 1]
    assert os.listdir(tmp_path) == ["scores.jsonl"]
    with pytest.raises(ChildProcessError):  # every part writer was reaped
        os.waitpid(-1, os.WNOHANG)


def test_the_score_part_count_follows_cpus_and_the_line_floor(monkeypatch, tmp_path):
    cuts = []
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 16)
    monkeypatch.setattr(
        parts, "write_parts", lambda paths, ranges, format_part: cuts.append(ranges)
    )
    floor = records._SCORE_LINES_PER_PART
    for lines in (0, floor - 1, 3 * floor, 100 * floor):
        records.write_scores(str(tmp_path / "scores.jsonl"), [("m", ["q"] * lines, None, [], None)])
    counts = [len(ranges) for ranges in cuts]
    assert counts == ([1, 1, 3, parts._MAX_PARTS] if hasattr(os, "fork") else [1, 1, 1, 1])
    # The parts cover the lines in order, with about equal line counts.
    assert cuts[2] == [range(0, floor), range(floor, 2 * floor), range(2 * floor, 3 * floor)]


# ---------------------------------------------------------------------------
# the generation reader in parts
# ---------------------------------------------------------------------------

# Lines cut anywhere between them must scan as the whole file does: a BOM,
# bytes that are not UTF-8, CRLF and lone-CR line ends, NaN and Infinity
# tokens, an integer too large for a float, a duplicate, a dimension change
# and rows that only the column pass rejects, inside one q1 query run that
# every cut splits, and a last line without a line end.
_ROW = b'{"query_id":"%s","sample_index":%d,"response_text":"t","token_logprobs":[%s],'
_CUT_LINES = [
    b"\xef\xbb\xbf" + _ROW % (b"q1", 0, b"-0.1") + b'"embedding":[1,2]}\n',
    _ROW % (b"q1", 0, b"-0.1") + b'"embedding":[1,2]}\n',
    _ROW % (b"q\xff", 0, b"-0.1") + b'"embedding":[1,2]}\n',
    _ROW % (b"q1", 1, b"-0.2") + b'"embedding":[3,4]}\r\n',
    _ROW % (b"q1", 2, b"-0.3") + b'"answer_token_logprobs":[-0.3],"embedding":[5,6]}\r',
    _ROW % (b"q1", 3, b"-0.1,NaN") + b'"embedding":[1,2]}\n',
    _ROW % (b"q1", 4, b"-0.1") + b'"embedding":[1,2],"sampling_meta":{"t":Infinity}}\n',
    _ROW % (b"q1", 1, b"-0.1") + b'"embedding":[1,2]}\n',
    _ROW % (b"q1", 5, b"-0.1") + b'"embedding":[1,2,3]}\n',
    b"not json{\r\n",
    _ROW % (b"q1", 6, b"-0.1") + b'"answer_token_logprobs":[-1,1' + b"0" * 400
    + b'],"embedding":[1,2]}\n',
    _ROW % (b"q2", 0, b"0.5") + b'"embedding":[1,2]}\n',
    _ROW.replace(b'"t"', '"é"'.encode()) % (b"q1", 7, b"-0.4") + b'"embedding":[7,8]}\n',
    _ROW % (b"q2", 0, b"-Infinity") + b'"embedding":[1,2]}\n',
    _ROW % (b"q2", 0, b"-0.5") + b'"embedding":[9,10]}\n',
    b"[1]\n",
    _ROW % (b"q2", 1, b"-0.6") + b'"embedding":[11,12]}',
]
_CUT_DIAGNOSTICS = [
    (1, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (3, "invalid JSON (not UTF-8 text)"),
    (10, "invalid JSON (Expecting value)"),
    (16, "record must be a JSON object"),
    (6, "token_logprobs contains a non-finite or non-numeric entry"),
    (7, "sampling_meta contains NaN or Infinity"),
    (8, "duplicate (query_id, sample_index) ('q1', 1)"),
    (9, "query q1: embedding dimension 3 differs from 2"),
    (11, "answer_token_logprobs contains a non-finite or non-numeric entry"),
    (12, "token_logprobs contains an entry above 0"),
    (14, "token_logprobs contains a non-finite or non-numeric entry"),
]


def _cut_file(tmp_path):
    path = tmp_path / "generations.jsonl"
    path.write_bytes(b"".join(_CUT_LINES))
    return str(path)


def test_the_cut_lines_scan_to_the_expected_rows_and_diagnostics(tmp_path):
    path = _cut_file(tmp_path)
    batch, diagnostics = records.scan_generation_records(path)
    assert [(d.line, d.message) for d in diagnostics] == _CUT_DIAGNOSTICS
    assert {d.path for d in diagnostics} == {path}
    rows = [
        make_generation("q1", 0, text="t", token_logprobs=(-0.1,), answer_token_logprobs=None,
                        embedding=(1, 2)),
        make_generation("q1", 1, text="t", token_logprobs=(-0.2,), answer_token_logprobs=None,
                        embedding=(3, 4)),
        make_generation("q1", 2, text="t", token_logprobs=(-0.3,),
                        answer_token_logprobs=(-0.3,), embedding=(5, 6)),
        make_generation("q1", 7, text="é", token_logprobs=(-0.4,), answer_token_logprobs=None,
                        embedding=(7, 8)),
        make_generation("q2", 0, text="t", token_logprobs=(-0.5,), answer_token_logprobs=None,
                        embedding=(9, 10)),
        make_generation("q2", 1, text="t", token_logprobs=(-0.6,), answer_token_logprobs=None,
                        embedding=(11, 12)),
    ]
    assert batch == make_batch(rows)


def _line_ends(path):
    """Every byte offset just past a ``\\n`` of the file ``path``: where a cut may fall."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return [at + 1 for at in range(len(blob)) if blob[at : at + 1] == b"\n"]


def _scan_cut_at(path, cut):
    """The scan of a generations file read as two parts, cut at byte ``cut``,
    in this process."""
    scan = records._scan_lines(path, 0, cut)
    scan.extend(records._scan_lines(path, cut, None))
    return records._finish_scan(path, scan)


def test_scans_merged_at_every_cut_equal_the_whole_scan(tmp_path):
    path = _cut_file(tmp_path)
    whole = records.scan_generation_records(path)  # one part: the file is under the floor
    cuts = _line_ends(path)
    assert len(cuts) == 15
    for cut in cuts:
        assert _scan_cut_at(path, cut) == whole, cut


@_FORKS
@pytest.mark.parametrize(("count", "ranges"), [(1, 1), (2, 2), (3, 3), (40, 15)])
def test_every_read_part_count_equals_the_whole_scan(tmp_path, monkeypatch, count, ranges):
    path = _cut_file(tmp_path)
    whole = records.scan_generation_records(path)
    _use_parts(monkeypatch, count)
    assert parts.part_count(os.path.getsize(path), records._BYTES_PER_PART) == count
    counts = _spy_parts(monkeypatch)
    assert records.scan_generation_records(path) == whole
    # More parts than lines: a part per line end past each share, 15 of 17 lines.
    assert counts == [ranges]
    assert os.listdir(tmp_path) == ["generations.jsonl"]
    with pytest.raises(ChildProcessError):  # every part reader was reaped
        os.waitpid(-1, os.WNOHANG)


def test_line_ranges_cut_past_the_first_newline_at_each_share(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b"aaaa\nbb\r\ncccccc\nd")  # 17 bytes
    assert records._line_cuts(str(path), 1) == [0, None]
    assert records._line_cuts(str(path), 2) == [0, 9, None]  # byte 8 ends "\r\n"
    assert records._line_cuts(str(path), 3) == [0, 9, 16, None]
    assert records._line_cuts(str(path), 4) == [0, 5, 9, 16, None]  # a range a line
    # More parts than lines: repeated cuts leave empty ranges, and "d",
    # which has no \n, gets no cut of its own.
    assert records._line_cuts(str(path), 17) == [0, *[5] * 4, *[9] * 4, *[16] * 7, None, None]
    path.write_bytes(b"")
    assert records._line_cuts(str(path), 3) == [0, None, None, None]


def test_the_read_part_count_follows_cpus_and_the_byte_floor(monkeypatch):
    floor = records._BYTES_PER_PART

    def read_parts(size):
        return parts.part_count(size, floor)

    monkeypatch.setattr(parts, "_usable_cpus", lambda: 16)
    if hasattr(os, "fork"):
        assert read_parts(0) == read_parts(floor - 1) == 1
        assert read_parts(3 * floor + floor // 2) == 3
        assert read_parts(100 * floor) == parts._MAX_PARTS
        monkeypatch.setattr(parts, "_usable_cpus", lambda: 2)
        assert read_parts(100 * floor) == 2
        # The 40 x 100 dataset of the CI's CPU-count check reads in 2 parts.
        _, batch, _ = synth.generate(synth.SynthConfig(n_queries=40, k=100, seed=0))
        assert read_parts(len(_written_generations(batch, None))) == 2
        monkeypatch.delattr(os, "fork")
    assert read_parts(100 * floor) == 1


@_FORKS
@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failing_read_part_raises_and_leaves_no_child_and_no_stray_file(
    tmp_path, monkeypatch, side
):
    data, temp = tmp_path / "data", tmp_path / "tmp"
    data.mkdir()
    temp.mkdir()
    path = _cut_file(data)
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    _use_parts(monkeypatch, 3)
    _fail_in(side, monkeypatch, "_scan_lines")
    where = f"{path}: OSError: " if side == "child" else ""
    with pytest.raises(OSError, match=f"^{re.escape(where)}disk on fire$"):
        records.scan_generation_records(path)
    # A part reader that returned into this test would run this line too.
    with open(tmp_path / "after.txt", "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(data) == ["generations.jsonl"]
    assert os.listdir(temp) == []
    assert (tmp_path / "after.txt").read_text(encoding="utf-8").split() == [str(os.getpid())]


@_FORKS
def test_reading_in_parts_needs_no_temporary_directory(tmp_path, monkeypatch):
    path = _cut_file(tmp_path)
    whole = records.scan_generation_records(path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    _use_parts(monkeypatch, 3)
    assert records.scan_generation_records(path) == whole
    _fail_in("child", monkeypatch, "_scan_lines")
    with pytest.raises(OSError, match=f"^{re.escape(path)}: OSError: disk on fire$"):
        records.scan_generation_records(path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["generations.jsonl"]


@_FORKS
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo does not exist here")
def test_generations_read_through_a_pipe_equal_the_file(tmp_path, monkeypatch):
    path = _cut_file(tmp_path)
    batch, diagnostics = records.scan_generation_records(path)
    pipe = str(tmp_path / "pipe")
    os.mkfifo(pipe)
    # A pipe's size reads 0, so even at a floor of 1 byte it is one part.
    _use_parts(monkeypatch, 3)
    assert parts.part_count(os.stat(pipe).st_size, records._BYTES_PER_PART) == 1

    def feed():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as handle:
            handle.write(b"".join(_CUT_LINES))

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped, piped_diagnostics = records.scan_generation_records(pipe)
    finally:
        if writer.is_alive():  # a reader that failed before it opened the pipe
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped == batch
    assert [(d.line, d.message) for d in piped_diagnostics] == _CUT_DIAGNOSTICS
    assert {d.path for d in piped_diagnostics} == {pipe}


# ---------------------------------------------------------------------------
# the labels, read in the generation reader's parts
# ---------------------------------------------------------------------------

# Labels cut anywhere between them must scan as the whole file does: lines
# that are not JSON objects or fail a field check on either side of every
# cut, duplicates of lines 1 and 4 further on, an unknown generation, a NaN
# token, whitespace padding, a blank line, an escaped query id and an
# unpaired surrogate escape in an otherwise valid line.
_LABEL_CUT_LINES = [
    '{"query_id":"q1","sample_index":0,"z":1}',
    "not json{",
    '{"query_id":"q1","sample_index":1,"z":2}',
    ' \t{"query_id":"q\\u0031","sample_index":1,"z":0}  ',
    '{"query_id":"ghost","sample_index":0,"z":1}',
    "",
    '{"query_id":"q1","sample_index":0,"z":0}',
    '{"query_id":"q2","sample_index":0,"z":1,"note":NaN}',
    '{"query_id":"q2","sample_index":0,"z":true}',
    '{"query_id":"q2","sample_index":0,"z":1}',
    '{"query_id":"q1","sample_index":1,"z":1}',
    '{"query_id":"q2","sample_index":1,"z":0,"note":"\\ud800"}',
]
_LABEL_CUT_DIAGNOSTICS = [
    (2, "invalid JSON (Expecting value)"),
    (6, "invalid JSON (Expecting value)"),
    (12, "invalid JSON (unpaired surrogate escape)"),
    (3, "z must be 0 or 1"),
    (5, "label references unknown generation ('ghost', 0)"),
    (7, "duplicate label for ('q1', 0)"),
    (8, "note contains NaN or Infinity"),
    (9, "z must be 0 or 1"),
    (11, "duplicate label for ('q1', 1)"),
]


def _label_cut_files(tmp_path, label_lines=_LABEL_CUT_LINES):
    """A queries file (q1, q2), a clean generations file of their samples 0
    to 2 and a labels file of ``label_lines``; returns their paths."""
    queries = _write_lines(tmp_path / "queries.jsonl", [_valid_query("q1"), _valid_query("q2")])
    generations = _write_lines(
        tmp_path / "generations.jsonl",
        [_valid_generation(q, i) for q in ("q1", "q2") for i in range(3)],
    )
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(line + "\n" for line in label_lines), encoding="utf-8")
    return queries, generations, str(labels)


def _labels_read_in_parts(queries, generations, labels):
    """``z`` and the label diagnostics, as ``(line, message)``, of a read of
    ``labels`` in the part run of ``generations``, aligned with its sets."""
    batch, diagnostics, scan = records._scan_parts(generations, labels)
    assert diagnostics == []
    sets, _ = records.group_generations(records.load_queries(queries), batch)
    z, diagnostics = records._finish_labels(labels, scan, sets)
    return z.tolist(), [(d.line, d.message) for d in diagnostics]


def _serial_labels(queries, generations, labels):
    """``z`` and the label diagnostics of :func:`records.scan_labels` read
    after the generations, and the same pair from the per-row oracle."""
    sets = records.load_generations(generations, records.load_queries(queries))
    z, diagnostics = records.scan_labels(labels, sets)
    batch = sets.batch
    row_of = {(batch.query_id[i], batch.sample_index[i]): i for i in sets.rows.tolist()}
    found, expected = scan_labels_by_row(labels, set(row_of))
    column = [-1] * len(batch)
    for query_id, sample_index, label in found:
        column[row_of[(query_id, sample_index)]] = label
    return (z.tolist(), [(d.line, d.message) for d in diagnostics]), (column, expected)


def test_the_label_cut_lines_scan_to_the_expected_labels_and_diagnostics(tmp_path):
    files = _label_cut_files(tmp_path)
    serial, oracle = _serial_labels(*files)
    assert serial == oracle == ([1, 0, -1, 1, -1, -1], _LABEL_CUT_DIAGNOSTICS)


def test_label_scans_merged_at_every_cut_equal_the_whole_scan(tmp_path):
    _, _, labels = _label_cut_files(tmp_path)
    sets = make_set(["a"] * 3, query_id="q1")
    for with_sets in (None, sets):
        z, diagnostics = records.scan_labels(labels, with_sets)
        cuts = _line_ends(labels)
        assert len(cuts) == len(_LABEL_CUT_LINES)
        for cut in cuts:
            scan = records._scan_label_lines(labels, 0, cut)
            scan.extend(records._scan_label_lines(labels, cut, None))
            merged, merged_diagnostics = records._finish_labels(labels, scan, with_sets)
            assert merged.tolist() == z.tolist() and merged_diagnostics == diagnostics, cut


@_FORKS
@pytest.mark.parametrize(
    ("count", "label_lines", "runs"),
    [
        (1, _LABEL_CUT_LINES, 1),
        (2, _LABEL_CUT_LINES, 2),
        (3, _LABEL_CUT_LINES, 3),
        # More parts than lines: 6 generation lines and 12 label lines cut
        # at 40 shares.  15 parts hold a line of one file or of both; the
        # others, whose two ranges are empty, are dropped.
        (40, _LABEL_CUT_LINES, 15),
        # Fewer label lines than generation parts: empty label ranges.
        (3, _LABEL_CUT_LINES[:1], 3),
    ],
)
def test_labels_read_in_the_generation_parts_equal_the_serial_read_and_the_oracle(
    tmp_path, monkeypatch, count, label_lines, runs
):
    files = _label_cut_files(tmp_path, label_lines)
    serial, oracle = _serial_labels(*files)
    assert serial == oracle
    expected = records.validate_files(*files)
    _use_parts(monkeypatch, count)
    counts = _spy_parts(monkeypatch)
    assert _labels_read_in_parts(*files) == serial
    assert records.validate_files(*files) == expected
    assert counts == [runs, runs]
    if len(label_lines) < count:  # some of the labels' ranges are empty
        cuts = records._line_cuts(files[2], count)
        assert len(set(cuts)) < len(cuts)
    with pytest.raises(ChildProcessError):  # every part reader was reaped
        os.waitpid(-1, os.WNOHANG)


@_FORKS
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo does not exist here")
def test_labels_read_through_a_pipe_equal_the_file(tmp_path, monkeypatch):
    queries, generations, labels = _label_cut_files(tmp_path)
    _use_parts(monkeypatch, 3)
    expected = _labels_read_in_parts(queries, generations, labels)
    pipe = str(tmp_path / "pipe")
    os.mkfifo(pipe)
    # A pipe's size reads 0: it is never opened to be cut, and the first
    # part, in this process, reads it whole while the generations are read
    # in 3 parts.

    def refuse(*args, **kwargs):
        raise AssertionError("the pipe was opened to be cut")

    with monkeypatch.context() as patch:
        patch.setattr(records, "open", refuse, raising=False)
        assert records._line_cuts(pipe, 3) == [0, None, None, None]
    counts = _spy_parts(monkeypatch)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as handle:
            handle.write(open(labels, "rb").read())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = _labels_read_in_parts(queries, generations, pipe)
    finally:
        if writer.is_alive():  # a reader that failed before it opened the pipe
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert counts == [3]
    assert piped == expected


@_FORKS
def test_without_fork_the_writers_and_the_reader_run_one_part_with_the_same_output(
    tmp_path, monkeypatch
):
    _use_parts(monkeypatch, 3)
    files = _label_cut_files(tmp_path)
    config = synth.SynthConfig(n_queries=6, k=2, seed=0)

    def outputs(name):
        out = tmp_path / name
        out.mkdir()
        values = synth.write_dataset(config, *(str(out / file) for file in synth.DATASET_FILES))
        records.write_scores(str(out / "scores.jsonl"), _SCORE_COLUMNS)
        read = records.scan_generation_records(files[1]), _labels_read_in_parts(*files)
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return values, read, records.validate_files(*files), written

    counts = _spy_parts(monkeypatch)
    forked = outputs("forked")
    assert counts == [3] * 5
    counts.clear()
    # Where os.fork does not exist, each part run is one part, in this process.
    monkeypatch.delattr(os, "fork")
    assert outputs("unforked") == forked
    assert counts == [1] * 5


@_FORKS
@pytest.mark.parametrize("command", ["validate", "eval"])
def test_a_failing_label_read_part_is_an_io_error_naming_the_labels(
    tmp_path, monkeypatch, capsys, command
):
    data = tmp_path / "data"
    assert main(["synth", "--n-queries", "20", "--k", "8", "--seed", "0", "--out", str(data)]) == 0
    labels = data / "labels.jsonl"
    argv = [command, "--queries", str(data / "queries.jsonl"), "--generations",
            str(data / "generations.jsonl"), "--labels", str(labels)]
    if command == "eval":
        argv += ["--trials", "2", "--bins", "4", "--out", str(tmp_path / "failed")]
    monkeypatch.setattr(records, "_BYTES_PER_PART", 4096)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 3)
    _fail_in("child", monkeypatch, "_scan_label_lines")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"io error: {labels}: OSError: disk on fire\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "failed").exists()


def test_a_labels_file_that_cannot_be_read_fails_after_the_generations(tmp_path, capsys):
    queries, generations, _ = _label_cut_files(tmp_path)
    missing = str(tmp_path / "missing.jsonl")
    argv = ["eval", "--queries", queries, "--generations", generations, "--labels", missing,
            "--trials", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"io error: [Errno 2] No such file or directory: {missing!r}\n"
    )
    # A generations file with a bad line is reported first, as when the
    # files are read one after the other.
    with open(generations, "a", encoding="utf-8") as handle:
        handle.write("not json{\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {generations}:7: invalid JSON")


@_FORKS
@pytest.mark.parametrize("command", ["validate", "eval"])
def test_a_failing_read_part_is_an_io_error(tmp_path, monkeypatch, capsys, command):
    data = tmp_path / "data"
    assert main(["synth", "--n-queries", "20", "--k", "8", "--seed", "0", "--out", str(data)]) == 0
    generations = data / "generations.jsonl"
    argv = [command, "--queries", str(data / "queries.jsonl"), "--generations",
            str(generations), "--labels", str(data / "labels.jsonl")]
    if command == "eval":
        argv += ["--trials", "2", "--bins", "4", "--out"]
    monkeypatch.setattr(records, "_BYTES_PER_PART", 4096)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 3)
    assert parts.part_count(generations.stat().st_size, records._BYTES_PER_PART) == 3
    assert main([*argv, str(tmp_path / "ok")] if command == "eval" else argv) == 0
    capsys.readouterr()
    _fail_in("child", monkeypatch, "_scan_lines")
    out = tmp_path / "failed"
    assert main([*argv, str(out)] if command == "eval" else argv) == 2
    assert capsys.readouterr() == ("", f"io error: {generations}: OSError: disk on fire\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not out.exists()


_GROUPED_IDS = st.sampled_from(["q1", "q2", "q3", "ghost"])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    query_ids=st.lists(st.sampled_from(["q1", "q2", "q3", "q4"]), unique=True, max_size=4),
    rows=st.lists(
        st.tuples(_GROUPED_IDS, st.integers(0, 3) | st.integers(2**63, 2**64)), max_size=12
    ),
)
@example(query_ids=["q1", "q2"], rows=[("q2", 1), ("q1", 0), ("ghost", 0), ("q2", 0)])
@example(query_ids=[f"q{i}" for i in range(7)], rows=[])
def test_grouping_matches_the_bucket_oracle(query_ids, rows, caplog):
    queries = [make_query(query_id) for query_id in query_ids]
    batch = make_batch([make_generation(query_id, index) for query_id, index in rows])
    caplog.clear()
    with caplog.at_level("WARNING", logger="conscal.records"):
        sets, diagnostics = records.group_generations(queries, batch)
    expected_sets, messages, warning = group_generations_by_buckets(queries, batch)
    assert sets.queries == tuple(query for query, _ in expected_sets)
    assert sets.batch is batch
    assert sets.rows.dtype == sets.offsets.dtype == np.intp
    assert sets.rows.tolist() == [i for _, rows in expected_sets for i in rows]
    lengths = [len(rows) for _, rows in expected_sets]
    assert sets.offsets.tolist() == np.cumsum([0, *lengths]).tolist()
    assert diagnostics == [Diagnostic("<generations>", None, m) for m in messages]
    assert [r.getMessage() for r in caplog.records] == ([warning] if warning else [])


# ---------------------------------------------------------------------------
# loaders against the per-row oracles
# ---------------------------------------------------------------------------

# JSON texts of vector entries: valid numbers, numbers that only the pass
# over a whole column rejects, and entries that are not numbers.
_GOOD_ENTRIES = ["-0.5", "0", "-0.0", "-3", "-2e-320", "-1e308"]
_COLUMN_BAD_ENTRIES = ["0.25", "7", "1e999", "-1e999", "NaN", "Infinity", "-Infinity",
                       "1" + "0" * 400, "-1" + "0" * 400]
_TYPE_BAD_ENTRIES = ["true", "false", '"x"', "null", "[]", "{}"]


def _vector_text(entries):
    return "[" + ",".join(entries) + "]"


def _vectors(good, *, numbers_only):
    """Vector texts: mostly valid, else with bad numbers (and, unless
    ``numbers_only``, bad entries and values that are no list at all)."""
    bad = _COLUMN_BAD_ENTRIES + ([] if numbers_only else _TYPE_BAD_ENTRIES)
    valid = st.lists(st.sampled_from(good), min_size=1, max_size=3)
    mixed = st.lists(st.sampled_from(good + bad), min_size=1 if numbers_only else 0, max_size=3)
    texts = (valid | valid | mixed).map(_vector_text)
    return texts if numbers_only else texts | st.sampled_from(["null", '"v"', "{}", "-1"])


def _object_text(fields):
    return "{" + ",".join(f'"{key}":{value}' for key, value in fields if value is not None) + "}"


@st.composite
def _generation_line(draw):
    kind = draw(st.integers(0, 15))
    if kind == 0:
        return draw(st.sampled_from(
            ["not json{", "[1]", '"row"', "", '{"query_id":"q1",}', '{"query_id":"q1"} x']
        ))
    # About half of the rows have well-formed fields, so that duplicates and
    # dimension changes meet rows that only the column pass rejects.
    clean = kind > 7

    def pick(valid, invalid):
        return draw(st.sampled_from(valid if clean else valid + invalid))

    tokens = _vectors(_GOOD_ENTRIES, numbers_only=clean)
    embeddings = _vectors(["0.5", "-1", "3", "1" + "0" * 20, "1e308"], numbers_only=clean)
    return _object_text(
        [
            ("query_id", pick(['"q1"', '"q2"', '"q3"'], ['""', "5"])),
            ("sample_index", pick(["0", "1", "2"], ["-1", "true", "1.0"])),
            ("response_text", pick(['"t"', '"\\boxed{a}"', '"\\ud83d\\ude00"', '"caf\\u00e9"'],
                                   ["null", '"\\ud800"'])),
            ("answer", pick([None, '"a"'], ["3"])),
            ("token_logprobs", draw(tokens if clean else tokens | st.none())),
            ("answer_token_logprobs", draw(st.none() | tokens)),
            ("embedding", draw(embeddings if clean else embeddings | st.none())),
            ("sampling_meta", pick([None, '{"t":0.7}', '{"t":1e999}', '{"ok":false}'],
                                   ['{"t":NaN}', '"m"'])),
            ("note", pick([None, '"n"', "1e999", "true", '"\\ud800"'],
                          ["[Infinity]", '["\\udc00"]'])),
        ]
    )


@st.composite
def _label_line(draw):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(["not json{", "[1]", "null", "", "{}{}"]))
    return _object_text(
        [
            ("query_id", draw(st.sampled_from(
                ['"q1"', '"q2"', '"q3"', '"q\\u0031"', '"ghost"', '""', "7"]
            ))),
            ("sample_index", draw(st.sampled_from(["0", "1", "2", "5", "-1", "true"]))),
            ("z", draw(st.sampled_from(["0", "1", "2", "true", "1.0", "NaN", None]))),
            ("note", draw(st.sampled_from([None, "-Infinity", '"n"', '"\\ud800"']))),
        ]
    )


def _padded(lines):
    """Lines as drawn, or padded with JSON whitespace, which the C scanner
    alone does not read: such a line is decoded in full."""
    pads = st.sampled_from(["", "", "", " ", "\t", " \t "])
    return st.tuples(pads, lines, pads).map("".join)


# Duplicates and dimension changes before and after rows whose only fault is
# an entry found by the column pass (NaN, 1e999, a positive log-probability)
# or an integer too large for a float.
_TRAP_LINES = [
    '{"query_id":"q1","sample_index":0,"response_text":"t","token_logprobs":[-0.5,NaN],'
    '"embedding":[1,2,3]}',
    '{"query_id":"q1","sample_index":0,"response_text":"t","token_logprobs":[-0.5],'
    '"embedding":[1,2]}',
    '{"query_id":"q2","sample_index":0,"response_text":"t","token_logprobs":[-0.5],'
    '"answer_token_logprobs":[-1,' + "1" + "0" * 400 + '],"embedding":[1,2]}',
    '{"query_id":"q2","sample_index":1,"response_text":"t","token_logprobs":[-0.5],'
    '"embedding":[1e999,2]}',
    '{"query_id":"q1","sample_index":1,"response_text":"t","token_logprobs":[0.5],'
    '"embedding":[1,2,3]}',
    '{"query_id":"q1","sample_index":1,"response_text":"t","token_logprobs":[-0.25],'
    '"answer_token_logprobs":[-1],"embedding":[3,4]}',
    '{"query_id":"q1","sample_index":1,"response_text":"t","token_logprobs":[-0.25],'
    '"embedding":[5,6,7]}',
]


@settings(max_examples=200)
@given(
    lines=st.lists(_padded(_generation_line()), max_size=12),
    query_ids=st.sets(st.sampled_from(["q1", "q2", "q3"])),
    label_lines=st.lists(_padded(_label_line()), max_size=8),
)
@example(
    lines=_TRAP_LINES,
    query_ids={"q1"},
    label_lines=[
        '{"query_id":"q1","sample_index":0,"z":1}',
        '{"query_id":"q2","sample_index":0,"z":1}',
        '{"query_id":"q1","sample_index":1,"z":0}',
        '{"query_id":"q1","sample_index":0,"z":0}',
    ],
)
def test_loaders_match_the_per_row_oracles(lines, query_ids, label_lines):
    with tempfile.TemporaryDirectory() as tmp:
        generations = os.path.join(tmp, "generations.jsonl")
        labels = os.path.join(tmp, "labels.jsonl")
        for path, text in ((generations, lines), (labels, label_lines)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(line + "\n" for line in text)

        batch, diagnostics = records.scan_generation_records(generations)
        rows, expected = scan_generations_by_row(generations)
        assert batch == make_batch(rows)
        assert [(d.path, d.line, d.message) for d in diagnostics] == [
            (generations, line, message) for line, message in expected
        ]
        for cut in _line_ends(generations):  # read in two parts, the same scan
            assert _scan_cut_at(generations, cut) == (batch, diagnostics)

        z, diagnostics = records.scan_labels(labels)
        _, expected = scan_labels_by_row(labels)
        assert z.dtype == np.int8 and z.size == 0
        assert [(d.line, d.message) for d in diagnostics] == expected
        for cut in _line_ends(labels):  # read in two parts, the same labels
            scan = records._scan_label_lines(labels, 0, cut)
            scan.extend(records._scan_label_lines(labels, cut, None))
            merged, merged_diagnostics = records._finish_labels(labels, scan, None)
            assert merged.size == 0 and merged_diagnostics == diagnostics

        sets, _ = records.group_generations([make_query(q) for q in sorted(query_ids)], batch)
        row_of = {(batch.query_id[i], batch.sample_index[i]): i for i in sets.rows.tolist()}
        z, diagnostics = records.scan_labels(labels, sets)
        found, expected = scan_labels_by_row(labels, set(row_of))
        column = [-1] * len(batch)
        for query_id, sample_index, label in found:
            column[row_of[(query_id, sample_index)]] = label
        assert z.dtype == np.int8 and z.tolist() == column
        assert [(d.line, d.message) for d in diagnostics] == expected


def test_a_row_with_a_bad_entry_counts_for_nothing_after_it(tmp_path):
    path = tmp_path / "generations.jsonl"
    path.write_text("".join(line + "\n" for line in _TRAP_LINES), encoding="utf-8")
    batch, diagnostics = records.scan_generation_records(str(path))
    assert [(d.line, d.message) for d in diagnostics] == [
        (1, "token_logprobs contains a non-finite or non-numeric entry"),
        (3, "answer_token_logprobs contains a non-finite or non-numeric entry"),
        (4, "embedding contains a non-finite or non-numeric entry"),
        (5, "token_logprobs contains an entry above 0"),
        (7, "duplicate (query_id, sample_index) ('q1', 1)"),
    ]
    # Line 2 is no duplicate of line 1 and sets the dimension; line 3's huge
    # integer leaves no entry behind; no row of q2 is kept.
    assert batch.query_id == ("q1", "q1")
    assert batch.sample_index == (0, 1)
    assert batch.token_logprobs.tolist() == [-0.5, -0.25]
    assert batch.answer_token_logprobs.tolist() == [-1.0]
    assert batch.answer_token_offsets.tolist() == [0, 0, 1]
    assert batch.embedding.tolist() == [[1.0, 2.0], [3.0, 4.0]]
