"""Answer extraction, agreement shares, and target construction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conscal import consistency, records, seeding
from conscal.consistency import (
    answer_codes,
    boxed_groups,
    build_target,
    extract_boxed,
    gold_set,
    normalize_answer,
    subsample_shares,
    subsample_targets,
)
from conscal.errors import DataError, RecordError
from conscal.evaluation import build_dataset
from conscal.records import ConsistencyTarget, load_targets, write_targets

from conftest import make_batch, make_generation, make_query, make_set
from oracles import boxed_groups_by_scan, modal_by_counter


def target_of(answers, **kwargs):
    """The target over every sample of ``make_set(answers, **kwargs)``."""
    return build_target(answer_codes(make_set(answers, **kwargs))[0])


# ---------------------------------------------------------------------------
# boxed extraction
# ---------------------------------------------------------------------------


def test_extract_boxed_returns_the_content():
    assert extract_boxed(r"the answer is \boxed{42}") == "42"


def test_extract_boxed_handles_nested_braces():
    assert extract_boxed(r"so \boxed{\frac{1}{2}} wins") == r"\frac{1}{2}"


def test_extract_boxed_without_any_box_is_none():
    assert extract_boxed("no box anywhere") is None


def test_extract_boxed_takes_the_last_group():
    assert extract_boxed(r"\boxed{first} then \boxed{second}") == "second"


def test_unbalanced_boxes_are_skipped():
    assert extract_boxed(r"\boxed{never closes") is None
    assert extract_boxed(r"\boxed{ok} and \boxed{broken") == "ok"


def test_boxed_groups_lists_every_balanced_group_in_order():
    assert boxed_groups(r"\boxed{a} mid \boxed{b{c}} end") == ["a", "b{c}"]
    assert boxed_groups("") == []


def test_empty_boxed_group_is_extracted_as_empty_string():
    assert extract_boxed(r"\boxed{}") == ""


# Fragments that make nested, empty, adjacent and never-closing groups common.
_box_texts = st.lists(
    st.sampled_from(["\\boxed{", "{", "}", "a", "b", " "]), max_size=24
).map("".join)


@given(_box_texts)
def test_boxed_groups_match_a_character_scan(text):
    assert boxed_groups(text) == boxed_groups_by_scan(text)


@given(_box_texts)
def test_extract_boxed_is_the_last_balanced_group(text):
    groups = boxed_groups(text)
    assert extract_boxed(text) == (groups[-1] if groups else None)


# ---------------------------------------------------------------------------
# normalization and answer keys
# ---------------------------------------------------------------------------


def test_normalize_strips_edges_and_casefolds_only():
    assert normalize_answer("  A B  ") == "a b"
    assert normalize_answer("0.50") == "0.50"  # no numeric canonicalization
    assert normalize_answer("0.5") != normalize_answer("0.50")


@given(st.text(max_size=30))
def test_normalize_is_idempotent(raw):
    once = normalize_answer(raw)
    assert normalize_answer(once) == once


def test_answer_key_builds_from_gold_with_deduped_aliases():
    key = gold_set(["Four", "4", "four", "FOUR"])
    assert key == frozenset({"four", "4"})
    assert normalize_answer("  fOUr ") in key
    assert "4" in key
    assert "5" not in key


def test_answer_key_requires_at_least_one_gold_answer():
    # An empty gold list is no correctness source at all.
    with pytest.raises(DataError, match="q1 sample 0: no correctness source"):
        build_dataset(make_set(["a"], gold=()))


# ---------------------------------------------------------------------------
# agreement shares
# ---------------------------------------------------------------------------


def test_answerless_samples_dilute_the_share():
    assert target_of(["a", None]).s == 0.5


def test_empty_sample_set_is_an_error():
    (empty,) = answer_codes(make_set([]))
    with pytest.raises(DataError):
        build_target(empty)


# ---------------------------------------------------------------------------
# modal targets
# ---------------------------------------------------------------------------


def test_build_target_selects_the_modal_answer_and_first_carrier():
    target = target_of(["a", "b", "a"])
    assert target == ConsistencyTarget(
        query_id="q1", selected_sample_index=0, answer="a", s=2 / 3, k=3
    )


def test_modal_ties_break_toward_the_smaller_answer_string():
    target = target_of(["b", "a"])
    assert target.answer == "a"
    assert target.selected_sample_index == 1
    assert target.s == 0.5


def test_unanimous_set_has_share_one():
    target = target_of(["x", "x", "x"])
    assert target.s == 1.0
    assert target.selected_sample_index == 0


def test_build_target_with_no_extractable_answers_is_an_error():
    with pytest.raises(DataError, match="no extractable answer"):
        target_of([None, None])


def test_answerless_samples_are_never_selected_but_still_dilute():
    target = target_of([None, "a"])
    assert target.selected_sample_index == 1
    assert target.s == 0.5


def test_provided_answer_field_wins_over_boxed_text(caplog):
    batch = make_batch(
        [{**make_generation("q1", j, text=r"\boxed{b}"), "answer": "c"} for j in range(7)]
    )
    sets = records.SampleSets((make_query("q1"),), batch, np.arange(7), np.array([0, 7]))
    with caplog.at_level("WARNING", logger="conscal.consistency"):
        assert consistency.canonical_answer(batch, 0) == "c"
        assert not caplog.records  # the extraction pass logs, once
        (codes,) = answer_codes(sets)
    assert codes.answers == ("c",)
    assert [r.getMessage() for r in caplog.records] == [
        "7 pre-extracted answers disagree with the boxed answer: "
        "q1/0, q1/1, q1/2, q1/3, q1/4 (+2 more)"
    ]


def test_majority_vote_shares_match_the_target_builder():
    def vote(answers):
        target = target_of(answers)
        return target.answer, target.s

    assert vote(["a", "a", "b"]) == ("a", 2 / 3)
    assert vote(["a", "b"]) == ("a", 0.5)
    assert vote(["a"]) == ("a", 1.0)


@given(
    st.lists(
        st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=8
    ).filter(lambda answers: any(a is not None for a in answers)),
    st.randoms(use_true_random=False),
)
def test_modal_answer_and_share_survive_sample_reordering(answers, shuffler):
    permuted_answers = list(answers)
    shuffler.shuffle(permuted_answers)
    target = target_of(answers)
    other = target_of(permuted_answers)
    assert other.answer == target.answer
    assert other.s == target.s
    assert other.k == target.k


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=9))
def test_share_times_k_is_an_integer_count(answers):
    target = target_of(answers)
    assert math.isclose(target.s * target.k, round(target.s * target.k), abs_tol=1e-9)
    assert 0 < target.s <= 1.0


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_with_full_k_reproduces_the_full_target():
    codes = answer_codes(make_set(["a", "b", "a", "c", "a"]))[0]
    assert subsample_targets(codes, 5, seed=7) == build_target(codes)


def test_subsample_is_deterministic_given_the_seed():
    codes = answer_codes(make_set(["a", "b", "a", "c", "a", "b", "b", "a"]))[0]
    first = subsample_targets(codes, 3, seed=11)
    again = subsample_targets(codes, 3, seed=11)
    assert first == again
    assert first.k == 3


def test_different_seeds_can_pick_different_subsets():
    codes = answer_codes(make_set(["a"] * 4 + ["b"] * 4))[0]
    results = {subsample_targets(codes, 2, seed=s).s for s in range(12)}
    assert len(results) > 1  # some seeds land on {a,a} or {b,b}, others split


def test_subsample_k_out_of_range_is_an_error():
    codes = answer_codes(make_set(["a", "b"]))[0]
    with pytest.raises(DataError, match="cannot subsample 0 of 2 samples"):
        subsample_targets(codes, 0, seed=0)
    with pytest.raises(DataError, match="cannot subsample 3 of 2 samples"):
        subsample_targets(codes, 3, seed=0)


def test_subsample_of_unanimous_set_is_always_unanimous():
    codes = answer_codes(make_set(["z"] * 6))[0]
    for seed in range(5):
        assert subsample_targets(codes, 3, seed=seed).s == 1.0


def _expected_target(answers, positions):
    """The counter oracle's target over ``answers`` at ``positions``, or None."""
    found = modal_by_counter([answers[i] for i in positions])
    if found is None:
        return None
    modal, count, first = found
    return ConsistencyTarget("q1", positions[first], modal, count / len(positions), len(positions))


# Answers whose normalized forms collide (case, edge whitespace, casefolded
# non-ASCII) or whose string order differs from their numeric order.
_answers = st.lists(
    st.sampled_from(["a", "A", " a ", "b", "10", "9", "é", "É", "ß", "ss", "日本", None]),
    max_size=10,
)


@given(_answers, st.integers(min_value=1, max_value=10), st.integers(0, 2**32 - 1))
@example([None, None], 1, 0)
@example([], 1, 0)
@example(["9", "10"], 1, 5)
@example(["10", "9", "9", "10"], 4, 0)
def test_targets_match_the_counter_oracle(answers, k, seed):
    sample_set = make_set(answers)
    (codes,) = answer_codes(sample_set)
    canonical = [codes.answers[c] if c >= 0 else None for c in codes.codes]
    assert canonical == [
        consistency.canonical_answer(sample_set.batch, i) for i in sample_set.rows.tolist()
    ]
    expected = _expected_target(canonical, list(range(len(answers))))
    if expected is None:
        with pytest.raises(DataError, match="no extractable answer"):
            build_target(codes)
    else:
        assert build_target(codes) == expected
    if not answers:
        return
    k = min(k, len(answers))
    chosen = seeding.generator(seed).choice(len(answers), size=k, replace=False)
    drawn = _expected_target(canonical, sorted(chosen.tolist()))
    if drawn is None:
        with pytest.raises(DataError, match="no extractable answer"):
            subsample_targets(codes, k, seed=seed)
    else:
        assert subsample_targets(codes, k, seed=seed) == drawn


def _coded(answer_lists):
    return [answer_codes(make_set(a, query_id=f"q{i}"))[0] for i, a in enumerate(answer_lists)]


def _outcome(shares):
    """The shares ``shares()`` returns as floats, or its DataError's message."""
    try:
        return [float(s) for s in shares()]
    except DataError as error:
        return str(error)


# Sets of mixed sizes; k runs past the smallest so range errors are drawn too.
@given(
    st.lists(_answers.filter(bool), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=10),
    st.lists(st.integers(0, 2**64 - 1), min_size=5, max_size=5),
)
@example([["a", "b"], ["b", "a", "a"]], 2, [0, 1, 2, 3, 4])  # a tie, then k == n
@example([["a"], [None, "a", None]], 1, [0, 1, 2, 3, 4])
@example([["a", "A"], [None, None], ["b"]], 2, [5, 6, 7, 8, 9])
@example([["a"] * 3, ["b"], ["c"] * 4], 2, [0, 0, 0, 0, 0])  # q1 is too small
@example([[None, None], ["a"]], 2, [0, 1, 2, 3, 4])  # q0 fails before q1 is too small
def test_subsample_shares_equal_a_loop_of_subsample_targets(answer_lists, k, seeds):
    coded = _coded(answer_lists)
    seeds = seeds[: len(coded)]
    expected = _outcome(lambda: [subsample_targets(c, k, seed=s).s for c, s in zip(coded, seeds)])
    assert _outcome(lambda: subsample_shares(coded, k, seeds)) == expected


def test_subsample_shares_name_the_first_query_without_an_answer():
    coded = _coded([["a", "b"], [None, None, None], [None, None]])
    with pytest.raises(DataError) as excinfo:
        subsample_shares(coded, 2, [3, 4, 5])
    assert str(excinfo.value) == "query q1: no extractable answer in any of 2 samples"
    with pytest.raises(DataError) as looped:
        [subsample_targets(c, 2, seed=s) for c, s in zip(coded, [3, 4, 5])]
    assert str(looped.value) == str(excinfo.value)


def test_subsample_shares_without_any_answer_is_a_data_error():
    # No set has an answer, so there is no answer column to take a maximum of.
    coded = _coded([[None, None], [None]])
    with pytest.raises(DataError, match="query q0: no extractable answer in any of 1 samples"):
        subsample_shares(coded, 1, [0, 1])


def test_subsample_shares_of_no_query_is_empty():
    assert subsample_shares([], 3, []).shape == (0,)


@pytest.mark.parametrize("k, calls", [(3, 2), (4, 0)])
def test_subsample_draws_build_one_generator_per_query_below_the_set_size(
    monkeypatch, k, calls
):
    # Shares reseed one generator per query with more than k samples;
    # a target builds its query's generator under the same rule.
    reseeded, built = [], []
    generators, generator = seeding.generators, seeding.generator

    def counting_reseeds(seeds):
        for rng in generators(seeds):
            reseeded.append(rng.bit_generator.state)
            yield rng

    def counting_builds(seed, *streams):
        built.append(seed)
        return generator(seed, *streams)

    monkeypatch.setattr(seeding, "generators", counting_reseeds)
    monkeypatch.setattr(seeding, "generator", counting_builds)
    coded = _coded([["a", "b", "a", "c"], ["c", None, "c", "b"]])
    shares = subsample_shares(coded, k, [11, 12])
    assert (len(reseeded), built) == (calls, [])
    assert [subsample_targets(c, k, seed=s).s for c, s in zip(coded, [11, 12])] == list(shares)
    assert built == [11, 12][:calls]
    assert reseeded == [generator(s).bit_generator.state for s in built]


def test_answer_codes_code_each_query_of_the_sets_apart():
    queries = [make_query("q1"), make_query("q2")]
    batch = make_batch([
        make_generation("q2", 1, answer="b"),
        make_generation("q1", 0, answer="c"),
        make_generation("q2", 0, answer="a"),
        make_generation("q1", 1),
    ])
    sets, _ = records.group_generations(queries, batch)
    q1, q2 = answer_codes(sets)
    assert (q1.query_id, q1.sample_index, q1.answers, q1.codes.tolist()) == (
        "q1", (0, 1), ("c",), [0, -1]
    )
    assert (q2.query_id, q2.sample_index, q2.answers, q2.codes.tolist()) == (
        "q2", (0, 1), ("a", "b"), [0, 1]
    )


def test_answer_codes_number_sorted_answers_and_mark_missing_ones():
    sample_set = make_set(["b", None, " A", "b"], query_id="q7")
    (coded,) = answer_codes(sample_set)
    assert coded.query_id == "q7"
    assert coded.sample_index == (0, 1, 2, 3)
    assert coded.answers == ("a", "b")
    assert coded.codes.tolist() == [1, -1, 0, 1]


# ---------------------------------------------------------------------------
# target files
# ---------------------------------------------------------------------------


def test_targets_round_trip(tmp_path):
    targets = [
        target_of(["a", "a", "b"], query_id="q1"),
        target_of(["c"], query_id="q2"),
    ]
    path = tmp_path / "targets.jsonl"
    write_targets(str(path), targets)
    assert load_targets(str(path)) == targets


def _write_raw(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_targets_rejects_fractional_sample_counts(tmp_path):
    path = _write_raw(
        tmp_path / "targets.jsonl",
        '{"query_id":"q1","selected_sample_index":0,"answer":"a","s":0.37,"k":3}\n',
    )
    with pytest.raises(RecordError, match="integer sample count"):
        load_targets(path)


def test_load_targets_rejects_integers_too_large_for_a_float(tmp_path):
    row = '{"query_id":"q1","selected_sample_index":0,"answer":"a","s":1.0,"k":%s}\n'
    huge_k = _write_raw(tmp_path / "huge_k.jsonl", row % ("9" * 400))
    with pytest.raises(RecordError, match=r":1: k must be a positive integer$"):
        load_targets(huge_k)
    long_k = _write_raw(tmp_path / "long_k.jsonl", row % ("9" * 5000))
    with pytest.raises(RecordError, match=r":1: invalid JSON \(integer too long\)$"):
        load_targets(long_k)


def test_load_targets_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "targets.jsonl"
    path.write_bytes(b"\xc3(\n")
    with pytest.raises(RecordError) as excinfo:
        load_targets(str(path))
    assert str(excinfo.value) == f"{path}:1: invalid JSON (not UTF-8 text)"
    assert excinfo.value.line == 1


def test_load_targets_reports_every_bad_line_json_problems_first(tmp_path):
    row = '{"query_id":"q%d","selected_sample_index":0,"answer":"a","s":%s,"k":2%s}\n'
    path = _write_raw(
        tmp_path / "targets.jsonl",
        row % (1, "1.0", "") + row % (2, "0.5", ',"note":NaN') + row % (3, "2", "") + "[]\n",
    )
    with pytest.raises(RecordError) as excinfo:
        load_targets(path)
    assert str(excinfo.value) == f"{path}:4: record must be a JSON object (+2 more)"
    two = _write_raw(
        tmp_path / "two.jsonl", row % (1, "1.5", "") + row % (2, "0.5", ',"x":[-Infinity]')
    )
    with pytest.raises(RecordError) as excinfo:
        load_targets(two)
    assert str(excinfo.value) == f"{two}:1: s must be a number in [0, 1] (+1 more)"
    nan = _write_raw(tmp_path / "nan.jsonl", row % (1, "1.0", ',"note":NaN'))
    with pytest.raises(RecordError) as excinfo:
        load_targets(nan)
    assert str(excinfo.value) == f"{nan}:1: note contains NaN or Infinity"
    assert excinfo.value.line == 1


def test_load_targets_rejects_duplicates_and_bad_ranges(tmp_path):
    dup = _write_raw(
        tmp_path / "dup.jsonl",
        '{"query_id":"q1","selected_sample_index":0,"answer":"a","s":1.0,"k":2}\n' * 2,
    )
    with pytest.raises(RecordError, match="duplicate target"):
        load_targets(dup)
    bad_s = _write_raw(
        tmp_path / "bad_s.jsonl",
        '{"query_id":"q1","selected_sample_index":0,"answer":"a","s":1.5,"k":2}\n',
    )
    with pytest.raises(RecordError, match=r"s must be a number in \[0, 1\]"):
        load_targets(bad_s)
    bad_json = _write_raw(tmp_path / "bad.jsonl", "{nope\n")
    with pytest.raises(RecordError, match="invalid JSON"):
        load_targets(bad_json)


def test_load_targets_rejects_an_answer_that_is_not_a_string(tmp_path):
    path = _write_raw(
        tmp_path / "targets.jsonl",
        '{"query_id":"q1","selected_sample_index":0,"answer":5,"s":1.0,"k":2}\n',
    )
    with pytest.raises(RecordError) as excinfo:
        load_targets(path)
    assert str(excinfo.value) == f"{path}:1: answer must be a string"
