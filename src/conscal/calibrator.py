"""The distilled confidence model: standardize -> ridge -> isotonic.

Training data is a matrix of response features paired with self-consistency
targets in [0, 1].  The rows are split once into two halves: half A fits the
feature scaler and a ridge regression, half B calibrates the ridge outputs
with isotonic regression.  Prediction composes the three stages, so outputs
are always inside [0, 1] and monotone in the underlying ridge score.

Each stage is deliberately plain:

* scaler: column means and population standard deviations (zero-variance
  columns fall back to scale 1 so constant features pass through centered);
* ridge: minimizes ||y - Xw - b||^2 + alpha * ||w||^2 with an unpenalized
  intercept, solved on centered data as one dense linear system
  (Xc'Xc + alpha*I) w = Xc'y_c, b = mean(y) - mean(X) @ w;
* isotonic: least-squares nondecreasing fit by pool-adjacent-violators, ties
  in the input scores pre-pooled to their target mean, fitted values clipped
  to [0, 1]; prediction interpolates linearly between knots and clamps to the
  first/last knot output outside the fitted range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from . import seeding
from .errors import ConfigError, DataError, is_finite_real, json_error_reason, require_real
from .records import write_json

MODEL_FORMAT = "conscal-model/1"

FEATURE_SOURCES = ("response_embedding", "question_embedding")


def _as_matrix(features: Any, name: str = "features") -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DataError(f"{name} must be a nonempty 2-d array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError(f"{name} contains non-finite entries")
    return X


def _as_vector(values: Any, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise DataError(f"{name} must be a nonempty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError(f"{name} contains non-finite entries")
    return v


# ---------------------------------------------------------------------------
# scaler
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalerParams:
    means: np.ndarray
    scales: np.ndarray


def fit_scaler(features: Any) -> ScalerParams:
    """Column means and population standard deviations (ddof=0).

    Requires at least two rows.  Columns with zero variance get scale 1.
    """
    X = _as_matrix(features)
    if X.shape[0] < 2:
        raise DataError(f"fit_scaler needs at least 2 rows, got {X.shape[0]}")
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    return ScalerParams(means=means, scales=scales)


def apply_scaler(params: ScalerParams, features: Any) -> np.ndarray:
    X = _as_matrix(features)
    if X.shape[1] != params.means.shape[0]:
        raise DataError(
            f"feature dimension {X.shape[1]} does not match scaler dimension "
            f"{params.means.shape[0]}"
        )
    return (X - params.means) / params.scales


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float


def fit_ridge(features: Any, targets: Any, alpha: float = 1.0) -> RidgeModel:
    """Ridge regression with an unpenalized intercept.

    Solves (Xc'Xc + alpha*I) w = Xc'y_c on column-centered data with
    ``np.linalg.solve``; the intercept is mean(y) - mean(X) @ w.
    """
    X = _as_matrix(features)
    y = _as_vector(targets, "targets")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"features have {X.shape[0]} rows but targets have {y.shape[0]}")
    if X.shape[0] < 2:
        raise DataError(f"fit_ridge needs at least 2 rows, got {X.shape[0]}")
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DataError(f"alpha must be a positive real, got {alpha!r}")
    x_means = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_means
    yc = y - y_mean
    gram = Xc.T @ Xc + alpha * np.eye(X.shape[1])
    weights = np.linalg.solve(gram, Xc.T @ yc)
    intercept = float(y_mean - x_means @ weights)
    return RidgeModel(weights=weights, intercept=intercept, alpha=float(alpha))


def ridge_predict(model: RidgeModel, features: Any) -> np.ndarray:
    X = _as_matrix(features)
    if X.shape[1] != model.weights.shape[0]:
        raise DataError(
            f"feature dimension {X.shape[1]} does not match ridge dimension "
            f"{model.weights.shape[0]}"
        )
    return X @ model.weights + model.intercept


# ---------------------------------------------------------------------------
# isotonic
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IsotonicModel:
    """Nondecreasing step-linear map stored as knots.

    ``knot_inputs`` are the distinct training scores in strictly increasing
    order; ``knot_outputs`` are the clipped fitted values, nondecreasing and
    inside [0, 1].
    """

    knot_inputs: np.ndarray
    knot_outputs: np.ndarray


def pava(values: Any, weights: Any | None = None) -> np.ndarray:
    """Weighted least-squares nondecreasing fit by pool-adjacent-violators.

    Returns the fitted vector (no clipping).  Within each pooled block the
    fit equals the block's weighted target mean, so block means and the
    global weighted mean are preserved.
    """
    v = _as_vector(values, "values")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = _as_vector(weights, "weights")
        if w.shape != v.shape:
            raise DataError("weights must align with values")
        if np.any(w <= 0):
            raise DataError("weights must be positive")
    # Each stack entry is one maximal block: (mean, weight, count).
    means: list[float] = []
    sizes: list[int] = []
    wsums: list[float] = []
    for i in range(v.shape[0]):
        mean = float(v[i])
        wsum = float(w[i])
        count = 1
        while means and means[-1] > mean:
            prev_w = wsums.pop()
            prev_m = means.pop()
            prev_c = sizes.pop()
            total = prev_w + wsum
            mean = (prev_m * prev_w + mean * wsum) / total
            wsum = total
            count += prev_c
        means.append(mean)
        wsums.append(wsum)
        sizes.append(count)
    return np.repeat(np.asarray(means), np.asarray(sizes, dtype=int))


def fit_isotonic(scores: Any, targets: Any) -> IsotonicModel:
    """Isotonic regression of targets on scores, ties pre-pooled.

    Rows sharing a score are replaced by one weighted point at their target
    mean before running PAVA; fitted values are clipped to [0, 1].
    """
    s = _as_vector(scores, "scores")
    t = _as_vector(targets, "targets")
    if s.shape != t.shape:
        raise DataError("scores and targets must have the same length")
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    distinct, start = np.unique(s_sorted, return_index=True)
    counts = np.diff(np.append(start, s_sorted.shape[0]))
    pooled = np.add.reduceat(t_sorted, start) / counts
    fitted = pava(pooled, weights=counts)
    fitted = np.clip(fitted, 0.0, 1.0)
    return IsotonicModel(knot_inputs=distinct, knot_outputs=fitted)


def isotonic_predict(model: IsotonicModel, scores: Any) -> np.ndarray | float:
    """Linear interpolation between knots; clamped to edge outputs outside."""
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite entries")
    out = np.interp(s, model.knot_inputs, model.knot_outputs)
    if s.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CalibratorModel:
    scaler: ScalerParams
    ridge: RidgeModel
    isotonic: IsotonicModel
    feature_source: str
    training_meta: Mapping[str, Any] = field(default_factory=dict)


def check_fit_settings(alpha: Any, split_frac: Any) -> None:
    """Raise :class:`ConfigError` unless ``alpha`` is a positive real and
    ``split_frac`` a real inside (0, 1), the settings :func:`fit_pipeline` takes."""
    require_real("alpha", alpha)
    require_real("split_frac", split_frac)
    if alpha <= 0:
        raise ConfigError("alpha must be a positive real")
    if not 0.0 < split_frac < 1.0:
        raise ConfigError(f"split_frac must be inside (0, 1), got {split_frac!r}")


def fit_pipeline(
    features: Any,
    targets: Any,
    *,
    split_frac: float = 0.5,
    seed: int = 0,
    alpha: float = 1.0,
    feature_source: str = "response_embedding",
) -> CalibratorModel:
    """Fit the two-stage calibrator on features and agreement targets.

    Rows are partitioned by a seeded shuffle: floor(split_frac * n) rows form
    the isotonic half B, the rest form half A for the scaler and ridge.  Both
    halves must keep at least two rows.  Ridge predictions on half B paired
    with B's targets fit the isotonic stage.
    """
    X = _as_matrix(features)
    y = _as_vector(targets, "targets")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"features have {X.shape[0]} rows but targets have {y.shape[0]}")
    if np.any((y < 0.0) | (y > 1.0)):
        raise DataError("targets must lie in [0, 1]")
    if feature_source not in FEATURE_SOURCES:
        raise DataError(f"unknown feature_source {feature_source!r}")
    n = X.shape[0]
    if n < 4:
        raise DataError(f"fit_pipeline needs at least 4 rows, got {n}")
    if not 0.0 < split_frac < 1.0:
        raise DataError(f"split_frac must be inside (0, 1), got {split_frac!r}")
    n_b = int(np.floor(split_frac * n))
    n_a = n - n_b
    if n_a < 2 or n_b < 2:
        raise DataError(
            f"split_frac {split_frac!r} underfills one half ({n_a} vs {n_b} rows of {n})"
        )
    perm = seeding.generator(seed).permutation(n)
    b_idx = perm[:n_b]
    a_idx = perm[n_b:]
    scaler = fit_scaler(X[a_idx])
    ridge = fit_ridge(apply_scaler(scaler, X[a_idx]), y[a_idx], alpha=alpha)
    preds_b = ridge_predict(ridge, apply_scaler(scaler, X[b_idx]))
    isotonic = fit_isotonic(preds_b, y[b_idx])
    meta = {"split_frac": float(split_frac), "seed": int(seed), "n_targets": int(n)}
    return CalibratorModel(
        scaler=scaler,
        ridge=ridge,
        isotonic=isotonic,
        feature_source=feature_source,
        training_meta=meta,
    )


def decision_score(model: CalibratorModel, features: Any) -> np.ndarray | float:
    """The pre-isotonic linear score (standardize + ridge)."""
    X = np.asarray(features, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    out = ridge_predict(model.ridge, apply_scaler(model.scaler, X))
    return float(out[0]) if squeeze else out


def predict(model: CalibratorModel, features: Any) -> np.ndarray | float:
    """Confidence in [0, 1] for one feature vector or a stack of them."""
    scores = decision_score(model, features)
    return isotonic_predict(model.isotonic, scores)


# ---------------------------------------------------------------------------
# artifact round trip
# ---------------------------------------------------------------------------


def model_document(model: CalibratorModel) -> dict[str, Any]:
    return {
        "format": MODEL_FORMAT,
        "feature_source": model.feature_source,
        "scaler": {
            "means": model.scaler.means.tolist(),
            "scales": model.scaler.scales.tolist(),
        },
        "ridge": {
            "weights": model.ridge.weights.tolist(),
            "intercept": model.ridge.intercept,
            "alpha": model.ridge.alpha,
        },
        "isotonic": {
            "knot_inputs": model.isotonic.knot_inputs.tolist(),
            "knot_outputs": model.isotonic.knot_outputs.tolist(),
        },
        "training_meta": dict(model.training_meta),
    }


def save_model(path: str, model: CalibratorModel) -> None:
    write_json(path, model_document(model))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DataError(f"invalid model artifact: {message}")


def _section(doc: dict[str, Any], key: str) -> dict[str, Any]:
    section = doc.get(key, {})
    _require(isinstance(section, dict), f"{key} must be an object")
    return section


def _finite_vector(section: dict[str, Any], key: str, message: str) -> np.ndarray:
    """A JSON array of finite numbers as a float vector (empty when absent)."""
    value = section.get(key, [])
    _require(isinstance(value, list) and all(map(is_finite_real, value)), message)
    return np.asarray(value, dtype=float)


def load_model(path: str) -> CalibratorModel:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise DataError(
                f"invalid model artifact: invalid JSON ({json_error_reason(exc)})"
            ) from exc
    _require(isinstance(doc, dict), "not a JSON object")
    _require(doc.get("format") == MODEL_FORMAT, f"format tag must be {MODEL_FORMAT!r}")
    _require(doc.get("feature_source") in FEATURE_SOURCES, "unknown feature_source")
    scaler_doc = _section(doc, "scaler")
    ridge_doc = _section(doc, "ridge")
    iso_doc = _section(doc, "isotonic")
    means = _finite_vector(scaler_doc, "means", "bad scaler means")
    scales = _finite_vector(scaler_doc, "scales", "bad scaler scales")
    weights = _finite_vector(ridge_doc, "weights", "bad ridge weights")
    knot_in = _finite_vector(iso_doc, "knot_inputs", "bad knot inputs")
    knot_out = _finite_vector(iso_doc, "knot_outputs", "bad knot outputs")
    _require(means.size > 0, "bad scaler means")
    _require(scales.shape == means.shape and np.all(scales > 0), "bad scaler scales")
    _require(weights.shape == means.shape, "bad ridge weights")
    intercept = ridge_doc.get("intercept")
    alpha = ridge_doc.get("alpha")
    _require(is_finite_real(intercept), "bad intercept")
    _require(is_finite_real(alpha) and alpha > 0, "bad alpha")
    _require(knot_in.size >= 1, "isotonic needs at least one knot")
    _require(bool(np.all(np.diff(knot_in) > 0)), "knot inputs must strictly increase")
    _require(knot_out.shape == knot_in.shape, "knot arrays must align")
    _require(
        bool(np.all((knot_out >= 0.0) & (knot_out <= 1.0))), "knot outputs must lie in [0, 1]"
    )
    _require(bool(np.all(np.diff(knot_out) >= 0)), "knot outputs must be nondecreasing")
    meta = doc.get("training_meta", {})
    _require(isinstance(meta, dict), "training_meta must be an object")
    return CalibratorModel(
        scaler=ScalerParams(means=means, scales=scales),
        ridge=RidgeModel(weights=weights, intercept=float(intercept), alpha=float(alpha)),
        isotonic=IsotonicModel(knot_inputs=knot_in, knot_outputs=knot_out),
        feature_source=doc["feature_source"],
        training_meta=meta,
    )
