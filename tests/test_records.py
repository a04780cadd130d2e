"""Record files: round trips, validation diagnostics, grouping."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conscal import records, synth
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
        assert records.load_generation_records(str(path)) == rows


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
    assert found.query_ids == ("q1",) and len(found) == 1
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
    batch = records.load_generation_records(str(path))
    assert batch.query_ids == ("q1", "q2", "q1")
    assert batch.query_offsets.tolist() == [0, 1, 2, 4]
    assert batch.answer == ("x", None, None, None)
    assert [answer_token_row(batch, i) is None for i in range(4)] == [False, True, False, True]
    rewritten = tmp_path / "rewritten.jsonl"
    records.write_generations(str(rewritten), batch, meta)
    assert rewritten.read_bytes() == path.read_bytes()


def test_a_batch_holds_only_the_columns_the_pipeline_reads():
    assert [column.name for column in dataclasses.fields(records.GenerationBatch)] == [
        "query_ids", "query_offsets", "sample_index", "response_text", "answer",
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
        records.load_generation_records(_write_lines(tmp_path / f"{name}.jsonl", rows))
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
    assert records.load_generation_records(path) == batch


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


def test_part_runs_cut_at_run_starts_into_about_equal_rows():
    offsets = _parts_batch().query_offsets.tolist()
    assert offsets == [0, 1, 4, 8, 10, 15, 16]
    assert records._part_runs(offsets, 1) == [range(0, 6)]
    assert records._part_runs(offsets, 2) == [range(0, 3), range(3, 6)]  # row 8 exactly
    assert records._part_runs(offsets, 3) == [range(0, 3), range(3, 4), range(4, 6)]
    assert records._part_runs(offsets, 4) == [range(0, 2), range(2, 3), range(3, 5), range(5, 6)]
    one_run_each = [range(run, run + 1) for run in range(6)]
    assert records._part_runs(offsets, 10) == records._part_runs(offsets, 50) == one_run_each
    assert records._part_runs([0], 3) == [range(0, 0)]  # no rows: one empty part


@_FORKS
@pytest.mark.parametrize("parts", [1, 2, 3, 4, 10])
@pytest.mark.parametrize("meta", [None, {"temperature": 0.7, "ключ": [1, 1.0, None]}])
def test_every_part_count_writes_the_json_oracle_bytes(tmp_path, parts, meta):
    batch = _parts_batch()
    path = tmp_path / "generations.jsonl"
    records._write_generation_parts(str(path), batch, meta, parts)
    assert path.read_bytes() == _batch_oracle_bytes(batch, meta)
    assert os.listdir(tmp_path) == ["generations.jsonl"]
    with pytest.raises(ChildProcessError):  # every part writer was reaped
        os.waitpid(-1, os.WNOHANG)


@_FORKS
def test_the_part_count_follows_cpus_rows_and_runs(monkeypatch):
    _, batch, _ = synth.generate(synth.SynthConfig(n_queries=40, k=100, seed=0))
    monkeypatch.setattr(records, "_usable_cpus", lambda: 16)
    assert records._part_count(batch) == 4  # 4,000 rows
    monkeypatch.setattr(records, "_ROWS_PER_PART", 10)
    assert records._part_count(batch) == records._MAX_PARTS
    monkeypatch.setattr(records, "_usable_cpus", lambda: 1)
    assert records._part_count(batch) == 1
    assert records._part_count(_parts_batch()) == 1  # 16 rows


def _fail_in(side: str, monkeypatch) -> None:
    """Make formatting raise ``OSError("disk on fire")`` in this process
    (``side`` "parent") or in every forked part writer ("child")."""
    parent, original = os.getpid(), records._batch_lines

    def faulty(*args):
        if (os.getpid() == parent) == (side == "parent"):
            raise OSError("disk on fire")
        return original(*args)

    monkeypatch.setattr(records, "_batch_lines", faulty)


@_FORKS
@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failing_part_raises_and_leaves_no_child_and_no_stray_file(tmp_path, monkeypatch, side):
    _fail_in(side, monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="disk on fire"):
        records._write_generation_parts(str(out / "generations.jsonl"), _parts_batch(), None, 3)
    # A part writer that returned into this test would run this line too.
    with open(tmp_path / "after.txt", "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(out) == ["generations.jsonl"]
    assert (tmp_path / "after.txt").read_text(encoding="utf-8").split() == [str(os.getpid())]


@_FORKS
def test_synth_reports_a_failing_part_writer_as_an_io_error(tmp_path, monkeypatch, capsys):
    _fail_in("child", monkeypatch)
    monkeypatch.setattr(records, "_usable_cpus", lambda: 2)
    argv = ["synth", "--n-queries", "40", "--k", "100", "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error:") and "OSError: disk on fire" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        return draw(st.sampled_from(["not json{", "[1]", '"row"', "", '{"query_id":"q1",}']))
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
            ("response_text", pick(['"t"', '"\\boxed{a}"', '"\\ud83d\\ude00"'],
                                   ["null", '"\\ud800"'])),
            ("answer", pick([None, '"a"'], ["3"])),
            ("token_logprobs", draw(tokens if clean else tokens | st.none())),
            ("answer_token_logprobs", draw(st.none() | tokens)),
            ("embedding", draw(embeddings if clean else embeddings | st.none())),
            ("sampling_meta", pick([None, '{"t":0.7}', '{"t":1e999}', '{"ok":false}'],
                                   ['{"t":NaN}', '"m"'])),
            ("note", pick([None, '"n"', "1e999", "true"], ["[Infinity]", '["\\udc00"]'])),
        ]
    )


@st.composite
def _label_line(draw):
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(["not json{", "[1]", "null"]))
    return _object_text(
        [
            ("query_id", draw(st.sampled_from(['"q1"', '"q2"', '"q3"', '"ghost"', '""', "7"]))),
            ("sample_index", draw(st.sampled_from(["0", "1", "2", "5", "-1", "true"]))),
            ("z", draw(st.sampled_from(["0", "1", "2", "true", "1.0", "NaN", None]))),
            ("note", draw(st.sampled_from([None, "-Infinity", '"n"']))),
        ]
    )


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
    lines=st.lists(_generation_line(), max_size=12),
    query_ids=st.sets(st.sampled_from(["q1", "q2", "q3"])),
    label_lines=st.lists(_label_line(), max_size=8),
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

        z, diagnostics = records.scan_labels(labels)
        _, expected = scan_labels_by_row(labels)
        assert z.dtype == np.int8 and z.size == 0
        assert [(d.line, d.message) for d in diagnostics] == expected

        sets, _ = records.group_generations([make_query(q) for q in sorted(query_ids)], batch)
        row_of = {(batch.query_id_of(i), batch.sample_index[i]): i for i in sets.rows.tolist()}
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
    # integer leaves no entry behind; q2's rows start no query run.
    assert batch.query_ids == ("q1",)
    assert batch.sample_index == (0, 1)
    assert batch.token_logprobs.tolist() == [-0.5, -0.25]
    assert batch.answer_token_logprobs.tolist() == [-1.0]
    assert batch.answer_token_offsets.tolist() == [0, 0, 1]
    assert batch.embedding.tolist() == [[1.0, 2.0], [3.0, 4.0]]
