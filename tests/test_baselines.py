"""Single-response confidence baselines and logistic recalibration."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conscal import baselines
from conscal.baselines import (
    PlattModel,
    answer_prob_score,
    answer_probs,
    apply_platt,
    apply_platt_rows,
    fit_platt,
    fit_platt_rows,
    impute_verbal,
    parse_verbal_confidence,
    platt_nll,
    token_prob_score,
    token_probs,
)
from conscal.consistency import extract_boxed
from conscal.errors import DataError, RecordError
from conscal.evaluation import build_dataset
from conscal.records import group_generations, write_scores
from conscal.metrics import auroc

from conftest import make_batch, make_generation, make_query
from oracles import (
    answer_token_row,
    backtrack_by_scale,
    boxed_groups_by_scan,
    load_scores,
    platt_by_full_newton,
    platt_nll_by_grid,
    token_row,
    verbal_confidence_by_scan,
)

LN = math.log

# ---------------------------------------------------------------------------
# token and answer probability
# ---------------------------------------------------------------------------


def test_token_prob_is_the_geometric_mean_of_token_probabilities():
    assert token_prob_score([LN(0.5), LN(0.5)]) == pytest.approx(0.5)
    assert token_prob_score([0.0, 0.0, 0.0]) == 1.0
    assert token_prob_score([LN(0.5), LN(0.125)]) == pytest.approx(0.25)


def test_token_prob_rejects_positive_empty_or_non_finite_inputs():
    with pytest.raises(DataError):
        token_prob_score([0.1])
    with pytest.raises(DataError):
        token_prob_score([])
    with pytest.raises(DataError):
        token_prob_score([float("-inf")])


def test_answer_prob_uses_the_answer_span():
    assert answer_prob_score([LN(0.9)]) == pytest.approx(0.9)
    assert answer_prob_score([0.0, 0.0]) == 1.0


def test_missing_answer_span_is_an_error():
    with pytest.raises(DataError, match="answer-span"):
        answer_prob_score(None)


# Segment lengths: short ones that collide often, and some past numpy's
# pairwise summation block of 128.
_SEGMENTS = (st.integers(1, 9) | st.sampled_from([16, 127, 128, 129, 300])).flatmap(
    lambda k: st.lists(st.floats(-30.0, 0.0), min_size=k, max_size=k)
)


@st.composite
def _logprob_batches(draw):
    """A batch of mixed segment lengths, some rows without an answer span,
    and a listing of its rows out of order and with repeats."""
    n = draw(st.integers(1, 10))
    rows = [
        make_generation(
            f"q{i}", 0, token_logprobs=tuple(draw(_SEGMENTS)),
            answer_token_logprobs=draw(st.none() | _SEGMENTS.map(tuple)),
        )
        for i in range(n)
    ]
    listed = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return make_batch(rows), listed


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200)
@given(_logprob_batches())
def test_column_scorers_equal_the_per_response_scores_bit_for_bit(drawn):
    batch, listed = drawn
    assert _hex(token_probs(batch, listed)) == _hex(
        token_prob_score(token_row(batch, i)) for i in listed
    )
    spans = [answer_token_row(batch, i) for i in listed]
    assert _hex(answer_probs(batch, listed)) == _hex(
        math.nan if span is None else answer_prob_score(span) for span in spans
    )
    spanned = [i for i in listed if answer_token_row(batch, i) is not None]
    assert _hex(answer_probs(batch, spanned)) == _hex(
        answer_prob_score(answer_token_row(batch, i)) for i in spanned
    )


def test_column_scorers_raise_for_the_first_bad_listed_row():
    nan = float("nan")
    batch = make_batch([
        make_generation("q1", 0, token_logprobs=(-0.1, 0.5)),
        make_generation("q1", 1, token_logprobs=(nan,), answer_token_logprobs=None),
        make_generation("q1", 2, token_logprobs=(0.2, nan)),
        make_generation("q1", 3, token_logprobs=()),
    ])
    non_finite = "^token_logprobs contains non-finite entries$"
    with pytest.raises(DataError, match=non_finite):
        token_probs(batch, [1, 0])
    # Row 0's length-2 block is gathered after row 1's length-1 block, but
    # the listing decides which row is reported.
    with pytest.raises(DataError, match="^token_logprobs contains positive log-probabilities$"):
        token_probs(batch, [0, 1])
    with pytest.raises(DataError, match=non_finite):  # non-finite before positive
        token_probs(batch, [2])
    with pytest.raises(DataError, match="^token_logprobs must be a nonempty 1-d array$"):
        token_probs(batch, [3, 0])
    # A missing span scores NaN, not an error; only the rows with a span are checked.
    assert _hex(answer_probs(batch, [0, 1])) == _hex([answer_prob_score((-0.05,)), math.nan])
    assert token_probs(batch, []).shape == (0,)


def test_rows_outside_the_listing_are_not_checked():
    batch = make_batch([
        make_generation("q1", 0, answer="a"),
        make_generation("q1", 1, answer="a", token_logprobs=(0.5,),
                        answer_token_logprobs=(float("nan"),)),
    ])
    assert _hex(token_probs(batch, [0])) == _hex([token_prob_score((-0.1, -0.2))])
    sets, _ = group_generations([make_query("q1")], batch)
    data = build_dataset(sets)
    assert _hex(data.token_prob) == _hex([token_prob_score((-0.1, -0.2))])
    assert _hex(data.answer_prob) == _hex([answer_prob_score((-0.05,))])


# ---------------------------------------------------------------------------
# verbalized confidence
# ---------------------------------------------------------------------------


def test_parse_verbal_reads_the_last_numeric_box():
    assert parse_verbal_confidence(r"I'd say \boxed{0.18}") == 0.18


def test_value_outside_unit_interval_stops_the_scan():
    assert parse_verbal_confidence(r"\boxed{1.5}") is None
    # The out-of-range box ends the scan even when an earlier box is valid.
    assert parse_verbal_confidence(r"\boxed{0.3} then \boxed{1.5}") is None


def test_non_numeric_boxes_are_skipped_while_scanning_backward():
    assert parse_verbal_confidence(r"\boxed{0.4} and \boxed{x+1}") == 0.4
    assert parse_verbal_confidence("no boxes") is None


@pytest.mark.parametrize(
    "literal, expected",
    [
        (".75", 0.75),
        ("1", 1.0),
        ("1.", 1.0),
        ("0", 0.0),
        ("+0.5", 0.5),
        ("-0.1", None),  # decimal, but out of range: scan stops
        ("0.5e1", None),  # exponent form is not a plain decimal: skipped
        ("50%", None),
    ],
)
def test_decimal_literal_forms(literal, expected):
    assert parse_verbal_confidence(rf"take \boxed{{{literal}}}") == expected


# Fragments that make nested, unbalanced and adjacent groups common, with
# signs, points, whitespace and several decimal contents in and out of [0, 1].
_verbal_texts = st.lists(
    st.sampled_from(
        ["\\boxed{", "\\boxed{0.5}", "\\boxed{ 1.5 }", "{", "}", "0", "1", "7", ".",
         "+", "-", " ", "\n", "e", "x"]
    ),
    max_size=24,
).map("".join)


@given(_verbal_texts)
@example("\\boxed{0.3} then \\boxed{1.5}")
@example("\\boxed{0.4} and \\boxed{x+1}")
@example("\\boxed{ -0 } \\boxed{\\boxed{.5}} \\boxed{+.}")
@example("\\boxed{1.} \\boxed{\n+1 } \\boxed{ 0.5")
def test_verbal_confidence_is_the_last_decimal_group_of_a_character_scan(text):
    assert parse_verbal_confidence(text) == verbal_confidence_by_scan(text)
    groups = boxed_groups_by_scan(text)
    assert extract_boxed(text) == (groups[-1] if groups else None)


def test_impute_fills_missing_entries_with_the_batch_mean():
    values, imputed = impute_verbal([0.5, None, 0.9])
    assert values.dtype == np.float64 and imputed.dtype == np.bool_
    assert values.tolist() == pytest.approx([0.5, 0.7, 0.9])
    assert (values[0], values[2]) == (0.5, 0.9)
    assert imputed.tolist() == [False, True, False]


def test_impute_falls_back_to_half_when_nothing_parsed():
    values, imputed = impute_verbal([None, None])
    assert values.tolist() == [0.5, 0.5]
    assert imputed.all()


def test_impute_validates_inputs():
    with pytest.raises(DataError):
        impute_verbal([])
    with pytest.raises(DataError):
        impute_verbal([1.2])


@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        min_size=1,
        max_size=12,
    )
)
def test_imputed_values_stay_inside_the_unit_interval(values):
    filled, imputed = impute_verbal(values)
    assert filled.shape == imputed.shape == (len(values),)
    for got, flag, raw in zip(filled.tolist(), imputed.tolist(), values):
        assert 0.0 <= got <= 1.0
        assert flag == (raw is None)
        if raw is not None:
            assert got == raw


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------


def test_apply_platt_identity_and_constant_forms():
    identity = PlattModel(slope=1.0, bias=0.0)
    assert apply_platt(identity, 0.3) == pytest.approx(0.3, abs=1e-9)
    flat = PlattModel(slope=0.0, bias=0.0)
    assert apply_platt(flat, 0.9) == 0.5


def test_apply_platt_bias_shifts_the_odds():
    model = PlattModel(slope=1.0, bias=math.log(9.0))
    assert apply_platt(model, 0.5) == pytest.approx(0.9, abs=1e-12)


def test_apply_platt_handles_arrays_and_rejects_non_finite():
    model = PlattModel(slope=1.0, bias=0.0)
    out = apply_platt(model, np.array([0.2, 0.8]))
    assert isinstance(out, np.ndarray)
    with pytest.raises(DataError):
        apply_platt(model, [float("nan")])


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 4)])
def test_apply_platt_keeps_the_shape_and_the_plain_formula(shape):
    model = PlattModel(slope=1.7, bias=-0.3)
    s = np.random.default_rng(0).uniform(size=shape)
    clipped = np.clip(s, 1e-6, 1.0 - 1e-6)
    want = 1.0 / (1.0 + np.exp(-(1.7 * (np.log(clipped) - np.log1p(-clipped)) - 0.3)))
    out = apply_platt(model, s)
    if shape:
        assert out.shape == shape and out.tobytes() == want.tobytes()
    else:
        assert isinstance(out, float) and out == float(want)


def test_constant_scores_recover_the_base_rate():
    model = fit_platt([0.4] * 10, [1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    assert apply_platt(model, 0.4) == pytest.approx(0.7, abs=1e-3)


def test_one_class_batches_stay_finite_and_near_the_class():
    model = fit_platt([0.2, 0.5, 0.8], [1, 1, 1])
    preds = np.asarray(apply_platt(model, np.array([0.2, 0.5, 0.8])))
    assert np.all(preds > 0.99)
    assert np.all(np.diff(preds) >= 0.0)
    assert math.isfinite(model.slope) and math.isfinite(model.bias)


# Six points on which Newton's gradient stalls just above its 1e-8 tolerance:
# run to the cap, the loop repeats a step that rounds back to theta.
_STALLED = ([0.77, 0.02, 0.13, 0.26, 0.87, 0.32], [0, 0, 0, 1, 0, 1])


def test_the_stalled_fixture_runs_the_full_loop_to_its_cap():
    (slope, bias), iterations = platt_by_full_newton(*_STALLED)
    assert iterations == 100
    model = fit_platt(*_STALLED)
    assert (model.slope.hex(), model.bias.hex()) == (slope.hex(), bias.hex())


_GRID = st.sampled_from([i / 100 for i in range(101)])


@st.composite
def _platt_batches(draw):
    n = draw(st.integers(1, 14))
    scores = draw(st.lists(_GRID | st.floats(0.0, 1.0), min_size=n, max_size=n))
    return scores, draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))


@settings(max_examples=300)
@given(_platt_batches())
@example(_STALLED)
def test_fit_platt_equals_the_full_newton_loop_bit_for_bit(batch):
    model = fit_platt(*batch)
    with np.errstate(over="ignore"):  # the oracle's exp(-u) of a far-off logit
        (slope, bias), _ = platt_by_full_newton(*batch)
    assert (model.slope.hex(), model.bias.hex()) == (slope.hex(), bias.hex())


# Rows of one width, each an edge of the Newton loop: the stalled fixture,
# which runs to the cap; a row whose exp(-u) overflows; one-class rows; scores
# of exactly 0 and 1; and a row that converges in a few steps.
_OVERFLOW = ([0.4999, 0.5001, 1e-6, 0.5, 0.5, 0.5], [0, 1, 0, 0, 1, 1])
_EDGE_ROWS = (
    _STALLED,
    _OVERFLOW,
    ([0.2, 0.5, 0.8, 0.3, 0.6, 0.9], [1, 1, 1, 1, 1, 1]),
    ([0.2, 0.5, 0.8, 0.3, 0.6, 0.9], [0, 0, 0, 0, 0, 0]),
    ([0.0, 1.0, 0.0, 1.0, 0.5, 0.5], [0, 1, 1, 0, 1, 0]),
    ([0.1, 0.9, 0.35, 0.6, 0.5, 0.45], [0, 1, 0, 1, 1, 0]),
)


@st.composite
def _platt_matrices(draw):
    n = draw(st.integers(1, 14))
    rows = draw(st.integers(1, 6))
    kinds = st.sampled_from(["free", "one_class", "ends"])
    scores, labels = [], []
    for _ in range(rows):
        kind = draw(kinds)
        grid = st.sampled_from([0.0, 1.0]) if kind == "ends" else _GRID | st.floats(0.0, 1.0)
        scores.append(draw(st.lists(grid, min_size=n, max_size=n)))
        if kind == "one_class":
            labels.append([draw(st.sampled_from([0, 1]))] * n)
        else:
            labels.append(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    return scores, labels


def _rows(*batches):
    return [list(b[0]) for b in batches], [list(b[1]) for b in batches]


@settings(max_examples=300)
@given(_platt_matrices())
@example(_rows(_STALLED))
@example(_rows(*_EDGE_ROWS))
@example(_rows(_OVERFLOW, _STALLED))
def test_each_batched_platt_row_equals_the_full_newton_loop_bit_for_bit(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the batched fit warns nothing either
        slopes, biases = fit_platt_rows(*matrix)
    for t, row in enumerate(zip(*matrix)):
        with np.errstate(over="ignore"):  # the oracle's exp(-u) of a far-off logit
            (slope, bias), _ = platt_by_full_newton(*row)
        assert (float(slopes[t]).hex(), float(biases[t]).hex()) == (slope.hex(), bias.hex())


def test_the_edge_rows_stop_at_different_iterations():
    # One batch in which rows leave the active set at different times.
    with np.errstate(over="ignore"):
        counts = [platt_by_full_newton(*row)[1] for row in _EDGE_ROWS]
    assert counts[0] == 100 and len(set(counts)) >= 3


def test_platt_rows_map_each_row_under_its_own_fit():
    scores, labels = _rows(*_EDGE_ROWS)
    slopes, biases = fit_platt_rows(scores, labels)
    test = np.array(scores)[:, ::-1]
    mapped = apply_platt_rows(slopes, biases, test)
    for t, row in enumerate(test):
        want = apply_platt(PlattModel(float(slopes[t]), float(biases[t])), row)
        assert mapped[t].tobytes() == want.tobytes()


def _same_search(got, want) -> None:
    """The two line searches accept the same rows with the same bits."""
    (candidate, value, accepted), (want_candidate, want_value, want_accepted) = got, want
    assert accepted.tolist() == want_accepted.tolist()
    assert candidate[accepted].tobytes() == want_candidate[accepted].tobytes()
    assert value[accepted].tobytes() == want_value[accepted].tobytes()


def _checked_searches(monkeypatch) -> list[int]:
    """Check every line search of the fits that follow against the search of
    one scale a call; returns each search's objective calls, as they come."""
    objectives, backtrack = baselines._platt_objectives, baselines._backtrack
    calls: list[int] = []
    total = [0]

    def counted(*args):
        total[0] += 1
        return objectives(*args)

    def checked(design, z, theta, step, current):
        before = total[0]
        got = backtrack(design, z, theta, step, current)
        calls.append(total[0] - before)
        *want, _ = backtrack_by_scale(objectives, design, z, theta, step, current)
        _same_search(got, want)
        return got

    monkeypatch.setattr(baselines, "_platt_objectives", counted)
    monkeypatch.setattr(baselines, "_backtrack", checked)
    return calls


# Rows of width 6 of every kind: separable, one-class, constant scores, and
# three stragglers, whose searches near the optimum halve the step 20 to 30
# times before the objective stops rising.
_STRAGGLERS = (
    ([0.2763, 0.9007, 0.5866, 0.8965, 0.3508, 0.5459], [0, 1, 1, 0, 1, 0]),
    ([0.5286, 0.2953, 0.6808, 0.9962, 0.4656, 0.1191], [0, 0, 1, 0, 0, 0]),
    ([0.9304, 0.5973, 0.8188, 0.9444, 0.6361, 0.6198], [1, 0, 0, 1, 1, 1]),
)
_KINDS = (
    ([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], [0, 0, 0, 1, 1, 1]),
    ([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], [1, 1, 1, 0, 0, 0]),
    ([0.2, 0.5, 0.8, 0.3, 0.6, 0.9], [1, 1, 1, 1, 1, 1]),
    ([0.5] * 6, [0, 1, 1, 0, 1, 0]),
    ([0.5] * 6, [0, 0, 0, 0, 0, 0]),
    *_STRAGGLERS,
    *_EDGE_ROWS,
)


def test_blocked_backtracking_keeps_every_rows_bits_in_fewer_calls(monkeypatch):
    calls = _checked_searches(monkeypatch)
    with np.errstate(over="ignore"):
        slopes, biases = fit_platt_rows(*_rows(*_KINDS))
        for t, row in enumerate(_KINDS):
            (slope, bias), _ = platt_by_full_newton(*row)
            assert (float(slopes[t]).hex(), float(biases[t]).hex()) == (slope.hex(), bias.hex())
    # The full step, then at most seven blocks of eight halvings.
    assert calls and max(calls) <= 8
    for row in _STRAGGLERS:  # each one alone searches past its first block
        calls.clear()
        fit_platt_rows(*_rows(row))
        assert max(calls) >= 3


@st.composite
def _line_searches(draw):
    """``(design, z, theta, step, current)`` of a drawn stack of rows, with
    steps from tiny to huge, downhill and uphill, so some rows accept the
    full step, some a deep halving and some no step at all."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.normal(0.0, 3.0, (rows, n))
    design = np.stack([t, np.ones_like(t)], axis=2)
    z = (rng.random((rows, n)) < 0.5).astype(float)
    theta = rng.normal(0.0, 2.0, (rows, 2, 1))
    step = rng.normal(0.0, 1.0, (rows, 2, 1)) * 10.0 ** rng.integers(-12, 6, (rows, 1, 1))
    return design, z, theta, step, baselines._platt_objectives(design, z, theta)


@settings(max_examples=300)
@given(_line_searches())
def test_blocked_backtracking_equals_the_search_of_one_scale_a_call(search):
    with np.errstate(over="ignore"):
        got = baselines._backtrack(*search)
        *want, _ = backtrack_by_scale(baselines._platt_objectives, *search)
    _same_search(got, want)


def test_fit_platt_rows_validates_inputs():
    with pytest.raises(DataError, match="2-d"):
        fit_platt_rows([0.5, 0.6], [0, 1])
    with pytest.raises(DataError, match="2-d"):
        fit_platt_rows(np.empty((2, 0)), np.empty((2, 0)))
    with pytest.raises(DataError, match="same shape"):
        fit_platt_rows([[0.5, 0.6]], [[0, 1], [1, 0]])
    with pytest.raises(DataError, match="non-finite"):
        fit_platt_rows([[0.5, np.nan]], [[0, 1]])
    with pytest.raises(DataError, match="0 or 1"):
        fit_platt_rows([[0.5, 0.6]], [[0, 2]])
    with pytest.raises(DataError, match="non-finite"):
        apply_platt_rows(np.zeros(1), np.zeros(1), [[np.inf]])


def test_platt_past_the_exp_overflow_warns_nothing_and_keeps_its_bits():
    # Logits below about -709 overflow exp(-u); the sigmoid's limit there, 0,
    # is the right value, so neither the fit nor the map may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_platt([0.4999, 0.5001, 1e-6], [0, 1, 0])
        out = apply_platt(model, [1e-6, 0.2])
    assert (model.slope.hex(), model.bias.hex()) == (
        "0x1.809f67f1257c5p+7", "0x1.00d57b8b00000p-47"
    )
    assert [float(v).hex() for v in out] == ["0x0.0p+0", "0x1.4c8678da805fap-385"]


def test_fit_platt_validates_inputs():
    with pytest.raises(DataError):
        fit_platt([], [])
    with pytest.raises(DataError):
        fit_platt([0.5], [2])
    with pytest.raises(DataError):
        fit_platt([0.5, 0.6], [1])


def _noisy_batch(n=50, seed=7):
    gen = np.random.default_rng(seed)
    scores = gen.uniform(0.05, 0.95, size=n)
    labels = (gen.random(n) < scores).astype(int)
    if labels.min() == labels.max():  # keep both classes present
        labels[0] = 1 - labels[0]
    return scores, labels


def test_fitted_nll_matches_grid_refinement():
    scores, labels = _noisy_batch()
    model = fit_platt(scores, labels)
    fitted = platt_nll(scores, labels, model.slope, model.bias)
    reference = platt_nll_by_grid(scores.tolist(), labels.tolist())
    assert fitted == pytest.approx(reference, abs=1e-6)
    assert fitted <= reference + 1e-6


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15)
def test_fitted_nll_never_loses_to_nearby_parameters(seed):
    scores, labels = _noisy_batch(n=30, seed=seed)
    model = fit_platt(scores, labels)
    best = platt_nll(scores, labels, model.slope, model.bias)
    for da in (-0.05, 0.05):
        for db in (-0.05, 0.05):
            assert best <= platt_nll(scores, labels, model.slope + da, model.bias + db) + 1e-9


def test_recalibration_with_positive_slope_preserves_auroc():
    scores, labels = _noisy_batch(n=80, seed=3)
    model = fit_platt(scores, labels)
    assert model.slope > 0
    recalibrated = np.asarray(apply_platt(model, scores))
    assert auroc(recalibrated, labels) == pytest.approx(auroc(scores, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# score files
# ---------------------------------------------------------------------------


def test_score_rows_round_trip_with_stable_key_order(tmp_path):
    path = tmp_path / "scores.jsonl"
    write_scores(str(path), [
        ("token_prob", ["q1"], [0], np.array([0.5]), None),
        ("tt_sc", ["q1"], None, [1.0], None),
        ("verbal_conf", ["q2", 'q"\u00e9'], [1, 2], [0.7, 0.1 + 0.2], np.array([True, False])),
    ])
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert list(json.loads(lines[0])) == ["query_id", "sample_index", "method", "confidence"]
    assert list(json.loads(lines[1])) == ["query_id", "method", "confidence"]
    assert list(json.loads(lines[2])) == [
        "query_id",
        "sample_index",
        "method",
        "confidence",
        "imputed",
    ]
    # Every line is json's own compact text of its object.
    assert text == "".join(
        json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")) + "\n"
        for line in lines
    )
    loaded = load_scores(str(path))
    assert [r["confidence"] for r in loaded] == [0.5, 1.0, 0.7, 0.1 + 0.2]
    assert [r.get("imputed") for r in loaded] == [None, None, True, False]
    assert loaded[3]["query_id"] == 'q"\u00e9'


def test_write_scores_writes_non_finite_confidences_as_json_does(tmp_path):
    path = tmp_path / "scores.jsonl"
    write_scores(str(path), [("distilled", ["q1", "q1"], [0, 1], [float("nan"), 0.5], None)])
    assert path.read_text(encoding="utf-8") == (
        '{"query_id":"q1","sample_index":0,"method":"distilled","confidence":NaN}\n'
        '{"query_id":"q1","sample_index":1,"method":"distilled","confidence":0.5}\n'
    )


def test_load_scores_rejects_malformed_rows(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"query_id": "q1", "method": "token_prob"}\n', encoding="utf-8")
    with pytest.raises(RecordError, match="confidence"):
        load_scores(str(path))
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(RecordError, match="invalid JSON"):
        load_scores(str(path))
    path.write_text('{"confidence": ' + "9" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(RecordError, match=r":1: invalid JSON \(integer too long\)$"):
        load_scores(str(path))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_scores_rejects_non_finite_confidences(tmp_path, token):
    path = tmp_path / "scores.jsonl"
    path.write_text(
        '{"query_id":"q1","method":"token_prob","confidence":0.5}\n'
        f'{{"query_id":"q1","method":"token_prob","confidence":{token}}}\n',
        encoding="utf-8",
    )
    with pytest.raises(RecordError) as excinfo:
        load_scores(str(path))
    assert str(excinfo.value) == f"{path}:2: confidence must be a finite number"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)


def test_load_scores_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(b'{"query_id": "q1", "method": "m", "confidence": 0.5}\n"\xff"\n')
    with pytest.raises(RecordError) as excinfo:
        load_scores(str(path))
    assert str(excinfo.value) == f"{path}:2: invalid JSON (not UTF-8 text)"
    assert excinfo.value.line == 2
