"""Scaler, ridge, isotonic stage, and the fitted pipeline."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conscal.calibrator import (
    CalibratorModel,
    IsotonicModel,
    RidgeModel,
    ScalerParams,
    decision_score,
    fit_isotonic,
    fit_isotonic_rows,
    fit_pipeline,
    fit_pipeline_rows,
    fit_ridge,
    fit_scaler,
    apply_scaler,
    isotonic_predict,
    load_model,
    model_document,
    pava,
    predict,
    predict_rows,
    ridge_predict,
    save_model,
)
from conscal.errors import DataError

from oracles import (
    isotonic_by_enumeration,
    isotonic_by_pava,
    ridge_by_cholesky,
    ridge_by_elimination,
)

# ---------------------------------------------------------------------------
# scaler
# ---------------------------------------------------------------------------


def test_scaler_uses_population_moments():
    params = fit_scaler([[0.0], [2.0]])
    assert params.means.tolist() == [1.0]
    assert params.scales.tolist() == [1.0]  # population std of {0, 2} is 1


def test_constant_columns_fall_back_to_unit_scale():
    params = fit_scaler([[5.0, 1.0], [5.0, 3.0]])
    assert params.scales.tolist() == [1.0, 1.0]
    standardized = apply_scaler(params, [[5.0, 1.0]])
    assert standardized.tolist() == [[0.0, -1.0]]


def test_scaler_needs_two_rows_and_matching_dimensions():
    with pytest.raises(DataError):
        fit_scaler([[1.0, 2.0]])
    params = fit_scaler([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DataError, match="dimension"):
        apply_scaler(params, [[1.0, 2.0, 3.0]])


def test_non_finite_features_are_rejected():
    with pytest.raises(DataError):
        fit_scaler([[0.0], [float("nan")]])


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


def test_tiny_alpha_approaches_ordinary_least_squares():
    model = fit_ridge([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0], alpha=1e-8)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-6)
    assert model.intercept == pytest.approx(0.0, abs=1e-6)


def test_huge_alpha_collapses_predictions_to_the_target_mean():
    model = fit_ridge([[0.0], [1.0], [2.0]], [0.0, 1.0, 5.0], alpha=1e12)
    preds = ridge_predict(model, [[0.0], [1.0], [2.0]])
    assert np.allclose(preds, 2.0, atol=1e-6)


def test_ridge_matches_the_elimination_oracle_on_a_fixed_instance():
    gen = np.random.default_rng(5)
    X = gen.normal(size=(5, 3))
    y = gen.normal(size=5)
    model = fit_ridge(X, y, alpha=1.0)
    w_ref, b_ref = ridge_by_elimination(X.tolist(), y.tolist(), 1.0)
    assert np.max(np.abs(model.weights - w_ref)) < 1e-8
    assert abs(model.intercept - b_ref) < 1e-8


@given(
    n=st.integers(min_value=2, max_value=30),
    d=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60)
def test_ridge_agrees_with_elimination_on_random_instances(n, d, alpha, seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    y = gen.normal(size=n)
    model = fit_ridge(X, y, alpha=alpha)
    w_ref, b_ref = ridge_by_elimination(X.tolist(), y.tolist(), alpha)
    assert np.max(np.abs(model.weights - w_ref)) < 1e-7
    assert abs(model.intercept - b_ref) < 1e-7


@st.composite
def _ridge_problems(draw):
    """Features in [-10, 10]; each column after the first is drawn afresh,
    a multiple of an earlier column (collinear), or a constant."""
    n = draw(st.integers(min_value=2, max_value=60))
    d = draw(st.integers(min_value=1, max_value=20))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = gen.uniform(-10.0, 10.0, size=(n, d))
    for j in range(1, d):
        kind = draw(st.sampled_from(["fresh", "multiple", "constant"]))
        if kind == "multiple":
            factor = draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]))
            X[:, j] = factor * X[:, draw(st.integers(min_value=0, max_value=j - 1))]
        elif kind == "constant":
            X[:, j] = draw(st.floats(min_value=-10.0, max_value=10.0))
    y = gen.uniform(0.0, 1.0, size=n)
    return X, y, draw(st.floats(min_value=1e-2, max_value=1e3))


@given(_ridge_problems())
@settings(max_examples=300, deadline=None)
def test_ridge_agrees_with_the_cholesky_solve_to_the_conditioning(problem):
    # A backward-stable solve of the same Gram matrix differs from the
    # Cholesky route by a few rounding errors times the condition number.
    # The intercept ybar - xbar @ w is scaled by the size of its terms.
    X, y, alpha = problem
    model = fit_ridge(X, y, alpha=alpha)
    w_ref, b_ref, gram = ridge_by_cholesky(X, y, alpha)
    bound = 1e-14 * np.linalg.cond(gram)
    w_scale = np.max(np.abs(w_ref))
    assert np.max(np.abs(model.weights - w_ref)) <= bound * w_scale
    b_scale = w_scale * (1.0 + np.sum(np.abs(X.mean(axis=0)))) + abs(b_ref)
    assert abs(model.intercept - b_ref) <= bound * b_scale


def test_shifting_targets_shifts_only_the_intercept():
    gen = np.random.default_rng(6)
    X = gen.normal(size=(10, 2))
    y = gen.normal(size=10)
    base = fit_ridge(X, y, alpha=0.5)
    shifted = fit_ridge(X, y + 3.0, alpha=0.5)
    assert np.allclose(base.weights, shifted.weights, atol=1e-10)
    assert shifted.intercept == pytest.approx(base.intercept + 3.0, abs=1e-9)


def test_ridge_rejects_bad_shapes_and_alphas():
    with pytest.raises(DataError):
        fit_ridge([[1.0]], [1.0])  # one row
    with pytest.raises(DataError):
        fit_ridge([[1.0], [2.0]], [1.0])  # length mismatch
    with pytest.raises(DataError):
        fit_ridge([[1.0], [2.0]], [1.0, 2.0], alpha=0.0)
    with pytest.raises(DataError):
        fit_ridge([[1.0], [2.0]], [1.0, 2.0], alpha=float("inf"))


# ---------------------------------------------------------------------------
# pava and the isotonic stage
# ---------------------------------------------------------------------------


def test_pava_leaves_sorted_input_unchanged():
    assert pava([1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]


def test_pava_pools_a_full_violation_to_the_mean():
    assert pava([0.3, 0.1, 0.2]).tolist() == pytest.approx([0.2, 0.2, 0.2])


def test_pava_pools_only_the_violating_pair():
    assert pava([0.1, 0.3, 0.2, 0.4]).tolist() == pytest.approx([0.1, 0.25, 0.25, 0.4])


def test_pava_respects_weights():
    assert pava([1.0, 0.0], [3.0, 1.0]).tolist() == pytest.approx([0.75, 0.75])


def test_pava_rejects_nonpositive_weights_and_misaligned_shapes():
    with pytest.raises(DataError):
        pava([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        pava([1.0, 2.0], [1.0, 0.0])


@given(
    values=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=8
    ),
    weights=st.one_of(
        st.none(),
        st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=8, max_size=8),
    ),
)
@settings(max_examples=120)
@example(values=[0.0, 1e-08], weights=None)  # already monotone; must not be pooled
def test_pava_matches_partition_enumeration(values, weights):
    if weights is not None:
        weights = weights[: len(values)]
    fitted = pava(values, weights)
    reference = isotonic_by_enumeration(values, weights)
    assert np.max(np.abs(fitted - reference)) < 1e-9


@given(
    values=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=12
    )
)
def test_pava_output_is_monotone_and_mean_preserving(values):
    fitted = pava(values)
    assert np.all(np.diff(fitted) >= -1e-12)
    assert np.mean(fitted) == pytest.approx(np.mean(values), abs=1e-9)
    # Projection onto a convex cone is idempotent.
    assert np.max(np.abs(pava(fitted) - fitted)) < 1e-12


def test_fit_isotonic_pools_tied_scores_before_fitting():
    model = fit_isotonic([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert model.knot_inputs.tolist() == [1.0, 2.0]
    assert model.knot_outputs.tolist() == [0.5, 1.0]


def test_fit_isotonic_clips_fitted_values_into_the_unit_interval():
    model = fit_isotonic([0.0, 1.0], [-1.0, 2.0])
    assert model.knot_outputs.tolist() == [0.0, 1.0]


def test_identity_like_data_keeps_its_knots():
    model = fit_isotonic([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert model.knot_inputs.tolist() == [1.0, 2.0, 3.0]
    assert model.knot_outputs.tolist() == pytest.approx([0.1, 0.2, 0.3])


def _same_bits(model, scores, targets):
    knot_inputs, knot_outputs = isotonic_by_pava(scores, targets)
    assert model.knot_inputs.tobytes() == knot_inputs.tobytes()
    assert model.knot_outputs.tobytes() == knot_outputs.tobytes()


# Signed zeros tie with each other; the knot keeps the sign of the run's first.
_SCORE_POOL = np.array([-0.0, 0.0, -1.5, 0.1, 0.2, 0.30000000000000004, 1e-300, 3.0])


def _tied_rows(gen, trials, n):
    """Rows of n scores with 1..n distinct values each, drawn with ties."""
    rows = []
    for _ in range(trials):
        pool = np.concatenate([_SCORE_POOL, gen.normal(size=n)])
        distinct = gen.choice(pool, size=gen.integers(1, n + 1), replace=False)
        rows.append(gen.choice(distinct, size=n))
    return np.array(rows)


@given(trials=st.integers(1, 6), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(trials=1, n=2, seed=0)
def test_each_isotonic_row_equals_a_fit_of_that_row_alone(trials, n, seed):
    gen = np.random.default_rng(seed)
    scores = _tied_rows(gen, trials, n)
    targets = np.round(gen.uniform(size=(trials, n)), int(gen.integers(0, 4)))
    models = fit_isotonic_rows(scores, targets)
    assert len(models) == trials
    for model, s, y in zip(models, scores, targets):
        _same_bits(model, s, y)


def test_isotonic_rows_pool_long_runs_signed_zeros_and_all_tied_rows_bit_for_bit():
    gen = np.random.default_rng(7)
    scores = np.array(
        [
            [0.5] * 20,  # all tied: one knot
            [0.0, -0.0] * 10,  # signed zeros tie
            [-0.0] + [0.0] * 11 + [1.0] * 8,  # runs of 12 and 8
            gen.permutation(np.repeat([0.25, -1.0, 2.0, 0.75], [9, 1, 8, 2])),
        ]
    )
    targets = gen.uniform(size=scores.shape)
    models = fit_isotonic_rows(scores, targets)
    assert [m.knot_inputs.size for m in models] == [1, 1, 2, 4]
    assert np.signbit([m.knot_inputs[0] for m in models[1:3]]).tolist() == [False, True]
    for model, s, y in zip(models, scores, targets):
        _same_bits(model, s, y)


@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fit_isotonic_clips_like_a_fit_alone_for_targets_outside_the_unit_interval(n, seed):
    gen = np.random.default_rng(seed)
    scores = _tied_rows(gen, 1, n)[0]
    targets = gen.uniform(-1.0, 2.0, size=n)
    _same_bits(fit_isotonic(scores, targets), scores, targets)


def test_isotonic_rows_check_their_shapes_and_values():
    with pytest.raises(DataError, match="same shape"):
        fit_isotonic_rows(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(DataError, match="2-d"):
        fit_isotonic_rows(np.zeros(3), np.zeros(3))
    with pytest.raises(DataError, match="scores contains non-finite"):
        fit_isotonic_rows(np.array([[0.0, np.inf]]), np.zeros((1, 2)))


def test_isotonic_predict_interpolates_and_clamps():
    model = IsotonicModel(
        knot_inputs=np.array([0.0, 1.0]), knot_outputs=np.array([0.0, 1.0])
    )
    assert isotonic_predict(model, 0.5) == 0.5
    assert isotonic_predict(model, -3.0) == 0.0
    assert isotonic_predict(model, 7.0) == 1.0
    batch = isotonic_predict(model, [0.25, 2.0])
    assert isinstance(batch, np.ndarray)
    assert batch.tolist() == [0.25, 1.0]


def test_isotonic_predict_rejects_non_finite_scores():
    model = fit_isotonic([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DataError):
        isotonic_predict(model, float("nan"))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _monotone_data(n=200, d=4, seed=3):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    w = np.linspace(0.5, 1.5, d)
    y = 1.0 / (1.0 + np.exp(-(X @ w)))
    return X, y


def test_constant_targets_are_reproduced_exactly():
    gen = np.random.default_rng(1)
    X = gen.normal(size=(20, 3))
    y = np.full(20, 0.37)
    model = fit_pipeline(X, y, seed=0)
    preds = predict(model, X)
    assert np.all(preds == 0.37)


def test_noiseless_monotone_targets_are_recovered_closely():
    X, y = _monotone_data()
    model = fit_pipeline(X, y, seed=0)
    preds = predict(model, X)
    assert np.mean(np.abs(preds - y)) < 0.02
    assert np.all((preds >= 0.0) & (preds <= 1.0))


def test_predictions_are_monotone_in_the_decision_score():
    X, y = _monotone_data(n=120)
    model = fit_pipeline(X, y, seed=1)
    scores = np.asarray(decision_score(model, X))
    preds = np.asarray(predict(model, X))
    order = np.argsort(scores)
    assert np.all(np.diff(preds[order]) >= -1e-12)


@pytest.mark.parametrize("layout", ["C", "F", "column stride", "row stride"])
def test_the_one_row_scores_equal_the_plain_formulas_in_any_layout(layout):
    X, y = _monotone_data(n=60)
    model = fit_pipeline(X, y, seed=2)
    base = np.random.default_rng(3).normal(size=(40, 3 * X.shape[1]))
    Q = {
        "C": np.ascontiguousarray(base[:17, : X.shape[1]]),
        "F": np.asfortranarray(base[:17, : X.shape[1]]),
        "column stride": base[:17, 1::3],
        "row stride": base[::2, : X.shape[1]],
    }[layout]
    # Both formulas follow the input's layout, as matmul's summation does.
    def score_of(features):
        standardized = (features - model.scaler.means) / model.scaler.scales
        return standardized, standardized @ model.ridge.weights + model.ridge.intercept

    standardized, score = score_of(Q)
    assert apply_scaler(model.scaler, Q).tobytes() == standardized.tobytes()
    assert ridge_predict(model.ridge, Q).tobytes() == (
        Q @ model.ridge.weights + model.ridge.intercept
    ).tobytes()
    assert np.asarray(decision_score(model, Q)).tobytes() == score.tobytes()
    assert decision_score(model, Q[3]) == float(score_of(Q[3][None])[1][0])


def test_pipeline_requires_enough_rows_for_both_halves():
    X = np.zeros((3, 2))
    with pytest.raises(DataError):
        fit_pipeline(X, [0.1, 0.2, 0.3], seed=0)
    X = np.random.default_rng(0).normal(size=(10, 2))
    y = np.linspace(0, 1, 10)
    with pytest.raises(DataError, match="underfills"):
        fit_pipeline(X, y, split_frac=0.1, seed=0)


def test_pipeline_validates_targets_split_and_source():
    X = np.random.default_rng(0).normal(size=(8, 2))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        fit_pipeline(X, np.linspace(-0.5, 1.0, 8), seed=0)
    with pytest.raises(DataError, match="split_frac"):
        fit_pipeline(X, np.linspace(0, 1, 8), split_frac=1.0, seed=0)
    with pytest.raises(DataError, match="feature_source"):
        fit_pipeline(X, np.linspace(0, 1, 8), feature_source="nope", seed=0)


def _bits(model):
    return json.dumps(model_document(model), sort_keys=True)


@given(
    trials=st.integers(1, 6),
    n=st.integers(4, 30),
    d=st.integers(1, 5),
    split_frac=st.sampled_from([0.3, 0.5, 0.7]),
    alpha=st.sampled_from([1e-3, 1.0, 50.0]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_each_pipeline_row_equals_a_fit_of_that_row_alone(trials, n, d, split_frac, alpha, seed):
    n_b = int(np.floor(split_frac * n))
    assume(n_b >= 2 and n - n_b >= 2)
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n + 7, d))
    X[:, 0] = 0.25  # a constant column takes the unit scale
    rows = np.stack([gen.permutation(n + 7)[:n] for _ in range(trials)])
    targets = np.round(gen.uniform(size=(trials, n)), 1)  # ties for the isotonic stage
    seeds = gen.integers(0, 2**32, size=trials).tolist()
    models = fit_pipeline_rows(X, rows, targets, split_frac=split_frac, seeds=seeds, alpha=alpha)
    picked = np.stack([gen.permutation(n + 7)[:5] for _ in range(trials)])
    predictions = predict_rows(models, X, picked)
    for t, model in enumerate(models):
        alone = fit_pipeline(
            X[rows[t]], targets[t], split_frac=split_frac, seed=seeds[t], alpha=alpha
        )
        assert _bits(model) == _bits(alone)
        assert predictions[t].tobytes() == np.asarray(predict(alone, X[picked[t]])).tobytes()


def test_pipeline_rows_check_their_alignment_and_the_feature_dimension():
    X = np.random.default_rng(0).normal(size=(10, 3))
    rows = np.stack([np.arange(8), np.arange(2, 10)])
    targets = np.full((2, 8), 0.5)
    with pytest.raises(DataError, match="align"):
        fit_pipeline_rows(X, rows, targets[:, :6], seeds=[0, 1])
    with pytest.raises(DataError, match="align"):
        fit_pipeline_rows(X, rows, targets, seeds=[0])
    with pytest.raises(DataError, match="non-finite"):
        fit_pipeline_rows(X, rows, np.full((2, 8), np.nan), seeds=[0, 1])
    models = fit_pipeline_rows(X, rows, targets, seeds=[0, 1])
    with pytest.raises(DataError, match="feature dimension 2 does not match scaler dimension 3"):
        predict_rows(models, X[:, :2], rows)


def test_predict_and_predict_rows_reject_an_overflowing_score_alike():
    model = CalibratorModel(
        scaler=ScalerParams(means=np.zeros(2), scales=np.ones(2)),
        ridge=RidgeModel(weights=np.full(2, 1e300), intercept=0.0, alpha=1.0),
        isotonic=IsotonicModel(
            knot_inputs=np.array([0.0, 1.0]), knot_outputs=np.array([0.2, 0.8])
        ),
        feature_source="response_embedding",
    )
    X = np.array([[1.0, -1.0], [1e10, 1e10]])
    assert predict_rows([model], X, [[0]]).tolist() == [[0.2]]
    with np.errstate(over="ignore"):
        assert np.isinf(np.asarray(decision_score(model, X))).tolist() == [False, True]
        with pytest.raises(DataError) as alone:
            predict(model, X)
        with pytest.raises(DataError) as rows:
            predict_rows([model, model], X, [[0, 0], [0, 1]])
    assert str(alone.value) == str(rows.value) == "scores contain non-finite entries"


def test_same_seed_reproduces_the_model_different_seed_may_not():
    X, y = _monotone_data(n=60)
    doc_a = model_document(fit_pipeline(X, y, seed=5))
    doc_b = model_document(fit_pipeline(X, y, seed=5))
    doc_c = model_document(fit_pipeline(X, y, seed=6))
    assert doc_a == doc_b
    assert doc_a != doc_c


def test_positive_affine_feature_maps_leave_predictions_unchanged():
    X, y = _monotone_data(n=80)
    scales = np.array([10.0, 0.2, 3.0, 7.0])
    shifts = np.array([-4.0, 2.0, 0.5, 100.0])
    base = fit_pipeline(X, y, seed=2)
    mapped = fit_pipeline(X * scales + shifts, y, seed=2)
    probe = X[:13]
    assert np.allclose(
        np.asarray(predict(base, probe)),
        np.asarray(predict(mapped, probe * scales + shifts)),
        atol=1e-9,
    )


def test_single_feature_vector_predicts_a_scalar():
    X, y = _monotone_data(n=40)
    model = fit_pipeline(X, y, seed=0)
    out = predict(model, X[0])
    assert isinstance(out, float)
    assert 0.0 <= out <= 1.0


def test_training_meta_records_the_fit_settings():
    X, y = _monotone_data(n=40)
    model = fit_pipeline(X, y, split_frac=0.4, seed=9)
    assert model.training_meta == {"split_frac": 0.4, "seed": 9, "n_targets": 40}


# ---------------------------------------------------------------------------
# artifact round trip
# ---------------------------------------------------------------------------


def test_save_load_round_trip_is_exact(tmp_path):
    X, y = _monotone_data(n=50)
    model = fit_pipeline(X, y, seed=4)
    path = tmp_path / "model.json"
    save_model(str(path), model)
    loaded = load_model(str(path))
    assert loaded.scaler.means.tolist() == model.scaler.means.tolist()
    assert loaded.scaler.scales.tolist() == model.scaler.scales.tolist()
    assert loaded.ridge.weights.tolist() == model.ridge.weights.tolist()
    assert loaded.ridge.intercept == model.ridge.intercept
    assert loaded.ridge.alpha == model.ridge.alpha
    assert loaded.isotonic.knot_inputs.tolist() == model.isotonic.knot_inputs.tolist()
    assert loaded.isotonic.knot_outputs.tolist() == model.isotonic.knot_outputs.tolist()
    assert loaded.feature_source == model.feature_source
    assert dict(loaded.training_meta) == dict(model.training_meta)
    probe = X[:7]
    assert np.asarray(predict(loaded, probe)).tolist() == np.asarray(
        predict(model, probe)
    ).tolist()


def test_model_document_layout_is_frozen():
    X, y = _monotone_data(n=40)
    doc = model_document(fit_pipeline(X, y, seed=0))
    assert list(doc) == [
        "format",
        "feature_source",
        "scaler",
        "ridge",
        "isotonic",
        "training_meta",
    ]
    assert doc["format"] == "conscal-model/1"


def _document(tmp_path, mutate):
    X, y = _monotone_data(n=40)
    doc = model_document(fit_pipeline(X, y, seed=0))
    mutate(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(format="other/9"), "format tag"),
        (lambda d: d.update(feature_source="bogus"), "feature_source"),
        (lambda d: d["scaler"].update(scales=[0.0] * 4), "scales"),
        (lambda d: d["ridge"].update(weights=[1.0]), "weights"),
        (lambda d: d["ridge"].update(alpha=-1.0), "alpha"),
        (
            lambda d: d["isotonic"].update(knot_inputs=[1.0, 1.0], knot_outputs=[0.1, 0.2]),
            "strictly increase",
        ),
        (
            lambda d: d["isotonic"].update(knot_inputs=[0.0, 1.0], knot_outputs=[0.2, 0.1]),
            "nondecreasing",
        ),
        (
            lambda d: d["isotonic"].update(knot_inputs=[0.0, 1.0], knot_outputs=[0.5, 1.5]),
            r"\[0, 1\]",
        ),
        (lambda d: d.update(training_meta=[1, 2]), "training_meta"),
    ],
)
def test_load_model_rejects_corrupt_artifacts(tmp_path, mutate, message):
    path = _document(tmp_path, mutate)
    with pytest.raises(DataError, match=message):
        load_model(path)


def test_load_model_accepts_a_single_knot(tmp_path):
    path = _document(
        tmp_path,
        lambda d: d["isotonic"].update(knot_inputs=[0.5], knot_outputs=[0.8]),
    )
    model = load_model(path)
    assert isotonic_predict(model.isotonic, -10.0) == 0.8
    assert isotonic_predict(model.isotonic, 10.0) == 0.8
