"""Answer extraction, agreement shares, and target construction."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conscal import consistency, seeding
from conscal.consistency import (
    AnswerKey,
    ConsistencyTarget,
    answer_codes,
    boxed_groups,
    build_target,
    extract_boxed,
    is_match,
    load_targets,
    normalize_answer,
    subsample_targets,
    write_targets,
)
from conscal.consistency import test_time_sc as majority_vote
from conscal.errors import DataError, RecordError
from conscal.records import SampleSet

from conftest import make_generation, make_query, make_set
from oracles import boxed_groups_by_scan, modal_by_counter

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
    key = AnswerKey.from_gold(["Four", "4", "four", "FOUR"])
    assert key.canonical == "four"
    assert key.aliases == ("4",)
    assert is_match("  fOUr ", key)
    assert is_match("4", key)
    assert not is_match("5", key)


def test_answer_key_requires_at_least_one_gold_answer():
    with pytest.raises(DataError):
        AnswerKey.from_gold([])


# ---------------------------------------------------------------------------
# agreement shares
# ---------------------------------------------------------------------------


def test_answerless_samples_dilute_the_share():
    assert build_target(make_set(["a", None])).s == 0.5


def test_empty_sample_set_is_an_error():
    empty = SampleSet(query=make_query("q1"), samples=())
    with pytest.raises(DataError):
        build_target(empty)


# ---------------------------------------------------------------------------
# modal targets
# ---------------------------------------------------------------------------


def test_build_target_selects_the_modal_answer_and_first_carrier():
    target = build_target(make_set(["a", "b", "a"]))
    assert target == ConsistencyTarget(
        query_id="q1", selected_sample_index=0, answer="a", s=2 / 3, k=3
    )


def test_modal_ties_break_toward_the_smaller_answer_string():
    target = build_target(make_set(["b", "a"]))
    assert target.answer == "a"
    assert target.selected_sample_index == 1
    assert target.s == 0.5


def test_unanimous_set_has_share_one():
    target = build_target(make_set(["x", "x", "x"]))
    assert target.s == 1.0
    assert target.selected_sample_index == 0


def test_build_target_with_no_extractable_answers_is_an_error():
    with pytest.raises(DataError, match="no extractable answer"):
        build_target(make_set([None, None]))


def test_answerless_samples_are_never_selected_but_still_dilute():
    target = build_target(make_set([None, "a"]))
    assert target.selected_sample_index == 1
    assert target.s == 0.5


def test_provided_answer_field_wins_over_boxed_text(caplog):
    generation = dataclasses.replace(make_generation("q1", 0, text=r"\boxed{b}"), answer="c")
    with caplog.at_level("WARNING", logger="conscal.consistency"):
        assert consistency.canonical_answer(generation) == "c"
    assert "disagrees" in caplog.text


def test_majority_vote_shares_match_the_target_builder():
    assert majority_vote(make_set(["a", "a", "b"])) == ("a", 2 / 3)
    assert majority_vote(make_set(["a", "b"])) == ("a", 0.5)
    assert majority_vote(make_set(["a"])) == ("a", 1.0)


@given(
    st.lists(
        st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=8
    ).filter(lambda answers: any(a is not None for a in answers)),
    st.randoms(use_true_random=False),
)
def test_modal_answer_and_share_survive_sample_reordering(answers, shuffler):
    permuted_answers = list(answers)
    shuffler.shuffle(permuted_answers)
    target = build_target(make_set(answers))
    other = build_target(make_set(permuted_answers))
    assert other.answer == target.answer
    assert other.s == target.s
    assert other.k == target.k


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=9))
def test_share_times_k_is_an_integer_count(answers):
    target = build_target(make_set(answers))
    assert math.isclose(target.s * target.k, round(target.s * target.k), abs_tol=1e-9)
    assert 0 < target.s <= 1.0


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_subsample_with_full_k_reproduces_the_full_target():
    sample_set = make_set(["a", "b", "a", "c", "a"])
    assert subsample_targets(sample_set, 5, seed=7) == build_target(sample_set)


def test_subsample_is_deterministic_given_the_seed():
    sample_set = make_set(["a", "b", "a", "c", "a", "b", "b", "a"])
    first = subsample_targets(sample_set, 3, seed=11)
    again = subsample_targets(sample_set, 3, seed=11)
    assert first == again
    assert first.k == 3


def test_different_seeds_can_pick_different_subsets():
    sample_set = make_set(["a"] * 4 + ["b"] * 4)
    results = {subsample_targets(sample_set, 2, seed=s).s for s in range(12)}
    assert len(results) > 1  # some seeds land on {a,a} or {b,b}, others split


def test_subsample_k_out_of_range_is_an_error():
    sample_set = make_set(["a", "b"])
    with pytest.raises(DataError):
        subsample_targets(sample_set, 0, seed=0)
    with pytest.raises(DataError):
        subsample_targets(sample_set, 3, seed=0)


def test_subsample_of_unanimous_set_is_always_unanimous():
    sample_set = make_set(["z"] * 6)
    for seed in range(5):
        assert subsample_targets(sample_set, 3, seed=seed).s == 1.0


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
    canonical = [consistency.canonical_answer(g) for g in sample_set.samples]
    expected = _expected_target(canonical, list(range(len(answers))))
    if expected is None:
        with pytest.raises(DataError, match="no extractable answer"):
            build_target(sample_set)
        with pytest.raises(DataError, match="no extractable answer"):
            majority_vote(sample_set)
    else:
        assert build_target(sample_set) == expected
        assert majority_vote(sample_set) == (expected.answer, expected.s)
    if not answers:
        return
    k = min(k, len(answers))
    chosen = seeding.generator(seed).choice(len(answers), size=k, replace=False)
    drawn = _expected_target(canonical, sorted(chosen.tolist()))
    for codes in (None, answer_codes(sample_set.samples)):
        if drawn is None:
            with pytest.raises(DataError, match="no extractable answer"):
                subsample_targets(sample_set, k, seed=seed, codes=codes)
        else:
            assert subsample_targets(sample_set, k, seed=seed, codes=codes) == drawn


def test_answer_codes_number_sorted_answers_and_mark_missing_ones():
    coded = answer_codes(make_set(["b", None, " A", "b"]).samples)
    assert coded.answers == ("a", "b")
    assert coded.codes.tolist() == [1, -1, 0, 1]


def test_codes_of_another_sample_set_are_rejected():
    codes = answer_codes(make_set(["a", "b"]).samples)
    with pytest.raises(ValueError, match="2 answer codes for 3 samples"):
        build_target(make_set(["a", "b", "a"]), codes=codes)
    with pytest.raises(ValueError, match="2 answer codes for 1 samples"):
        subsample_targets(make_set(["a"]), 1, seed=0, codes=codes)


# ---------------------------------------------------------------------------
# target files
# ---------------------------------------------------------------------------


def test_targets_round_trip(tmp_path):
    targets = [
        build_target(make_set(["a", "a", "b"], query_id="q1")),
        build_target(make_set(["c"], query_id="q2")),
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
