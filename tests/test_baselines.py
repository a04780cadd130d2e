"""Single-response confidence baselines and logistic recalibration."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conscal.baselines import (
    PlattModel,
    answer_prob_score,
    apply_platt,
    fit_platt,
    impute_verbal,
    load_scores,
    parse_verbal_confidence,
    platt_nll,
    token_prob_score,
    write_scores,
)
from conscal.errors import DataError, RecordError
from conscal.metrics import auroc

from oracles import platt_by_full_newton, platt_nll_by_grid

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


def test_impute_fills_missing_entries_with_the_batch_mean():
    out = impute_verbal([0.5, None, 0.9])
    assert [v.value for v in out] == pytest.approx([0.5, 0.7, 0.9])
    assert [v.imputed for v in out] == [False, True, False]
    assert [v.raw for v in out] == [0.5, None, 0.9]


def test_impute_falls_back_to_half_when_nothing_parsed():
    out = impute_verbal([None, None])
    assert [v.value for v in out] == [0.5, 0.5]
    assert all(v.imputed for v in out)


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
    out = impute_verbal(values)
    assert len(out) == len(values)
    for got, raw in zip(out, values):
        assert 0.0 <= got.value <= 1.0
        if raw is not None:
            assert got.value == raw and not got.imputed


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


def test_platt_model_validates_its_clip():
    with pytest.raises(DataError):
        PlattModel(slope=1.0, bias=0.0, input_clip=0.7)


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
    with np.errstate(over="ignore"):  # exp(-u) of a far-off logit
        model = fit_platt(*batch)
        (slope, bias), _ = platt_by_full_newton(*batch)
    assert (model.slope.hex(), model.bias.hex()) == (slope.hex(), bias.hex())


def test_fit_platt_validates_inputs():
    with pytest.raises(DataError):
        fit_platt([], [])
    with pytest.raises(DataError):
        fit_platt([0.5], [2])
    with pytest.raises(DataError):
        fit_platt([0.5, 0.6], [1])
    with pytest.raises(DataError):
        fit_platt([0.5], [1], eps=0.7)


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
    rows = [
        {"query_id": "q1", "sample_index": 0, "method": "token_prob", "confidence": 0.5},
        {"query_id": "q1", "method": "tt_sc", "confidence": 1.0},
        {
            "query_id": "q2",
            "sample_index": 1,
            "method": "verbal_conf",
            "confidence": 0.7,
            "imputed": True,
        },
    ]
    path = tmp_path / "scores.jsonl"
    write_scores(str(path), rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert list(json.loads(lines[0])) == ["query_id", "sample_index", "method", "confidence"]
    assert list(json.loads(lines[1])) == ["query_id", "method", "confidence"]
    assert list(json.loads(lines[2])) == [
        "query_id",
        "sample_index",
        "method",
        "confidence",
        "imputed",
    ]
    loaded = load_scores(str(path))
    assert [r["confidence"] for r in loaded] == [0.5, 1.0, 0.7]
    assert loaded[2]["imputed"] is True


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
