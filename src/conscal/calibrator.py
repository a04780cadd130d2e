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

:func:`fit_pipeline_rows` and :func:`predict_rows` run the stages of many
fits as one stack, each fit with the bits it has alone: the scaler and ridge
stages as stacked products, the isotonic stages through
:func:`fit_isotonic_rows`, which pools the ties of every fit in one pass and
runs one PAVA loop per fit.  :func:`fit_pipeline`, :func:`fit_isotonic` and
:func:`pava` are the one-fit cases, and :func:`decision_score` (so
:func:`predict`) the one-model case of the stacked scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from . import seeding
from .errors import ConfigError, DataError, is_finite_real, require_real
from .records import read_json, write_json

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


def _scaler_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and scales of each ``(n, d)`` slice of a ``(T, n, d)``
    stack, as two ``(T, d)`` arrays."""
    means = X.mean(axis=1)
    scales = X.std(axis=1)
    scales[scales == 0.0] = 1.0
    return means, scales


def fit_scaler(features: Any) -> ScalerParams:
    """Column means and population standard deviations (ddof=0).

    Requires at least two rows.  Columns with zero variance get scale 1.
    """
    X = _as_matrix(features)
    if X.shape[0] < 2:
        raise DataError(f"fit_scaler needs at least 2 rows, got {X.shape[0]}")
    means, scales = _scaler_rows(X[None])
    return ScalerParams(means=means[0], scales=scales[0])


def _standardize_rows(Z: np.ndarray, means: np.ndarray, scales: np.ndarray) -> None:
    """Standardize each slice of a ``(T, m, d)`` stack in place under its
    row of ``(T, d)`` means and scales."""
    Z -= means[:, None]
    Z /= scales[:, None]


def _check_dimension(X: np.ndarray, dim: int, stage: str) -> None:
    if X.shape[1] != dim:
        raise DataError(f"feature dimension {X.shape[1]} does not match {stage} dimension {dim}")


def apply_scaler(params: ScalerParams, features: Any) -> np.ndarray:
    """Standardized features: the one-row case of the stacked standardize."""
    X = _as_matrix(features)
    _check_dimension(X, params.means.shape[0], "scaler")
    # order="K" keeps the input's layout, which matmul's summation follows.
    Z = X[None].copy(order="K")
    _standardize_rows(Z, params.means[None], params.scales[None])
    return Z[0]


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float


def _ridge_rows(X: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Ridge weights ``(T, d)`` and intercepts ``(T,)`` of each slice of a
    ``(T, n, d)`` stack against its row of ``(T, n)`` targets.

    Every product is a per-row ``np.matmul`` and the solve one
    ``np.linalg.solve`` over the stack, so each row has the bits of a
    one-row fit.
    """
    x_means = X.mean(axis=1)
    y_mean = y.mean(axis=1)
    Xc = X - x_means[:, None]
    yc = y - y_mean[:, None]
    Xct = Xc.transpose(0, 2, 1)
    gram = Xct @ Xc + alpha * np.eye(X.shape[2])
    weights = np.linalg.solve(gram, Xct @ yc[:, :, None])[:, :, 0]
    return weights, y_mean - (x_means[:, None, :] @ weights[:, :, None])[:, 0, 0]


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise DataError(f"alpha must be a positive real, got {alpha!r}")


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
    _check_alpha(alpha)
    weights, intercepts = _ridge_rows(X[None], y[None], alpha)
    return RidgeModel(weights=weights[0], intercept=float(intercepts[0]), alpha=float(alpha))


def _ridge_outputs(Z: np.ndarray, weights: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """Ridge outputs ``(T, m)`` of each slice of a ``(T, m, d)`` stack under
    its row of ``(T, d)`` weights and ``(T,)`` intercepts."""
    return (Z @ weights[:, :, None])[:, :, 0] + intercepts[:, None]


def ridge_predict(model: RidgeModel, features: Any) -> np.ndarray:
    """Ridge outputs: the one-row case of the stacked ridge outputs."""
    X = _as_matrix(features)
    _check_dimension(X, model.weights.shape[0], "ridge")
    return _ridge_outputs(X[None], model.weights[None], np.array([model.intercept]))[0]


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
    means, sizes = _pava_blocks(v.tolist(), w.tolist())
    return np.repeat(np.asarray(means), np.asarray(sizes, dtype=int))


def _pava_blocks(
    values: list[float], weights: list[float] | list[int]
) -> tuple[list[float], list[int]]:
    """The PAVA loop over Python numbers, which step faster than numpy
    scalars: the mean and length of each maximal block of the nondecreasing
    fit, in order."""
    # Each stack entry is one maximal block: (mean, weight, count).
    means: list[float] = []
    sizes: list[int] = []
    wsums: list[float] = []
    for mean, wsum in zip(values, weights):
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
    return means, sizes


def fit_isotonic(scores: Any, targets: Any) -> IsotonicModel:
    """Isotonic regression of targets on scores, ties pre-pooled.

    Rows sharing a score are replaced by one weighted point at their target
    mean before running PAVA; fitted values are clipped to [0, 1].  The
    one-row case of :func:`fit_isotonic_rows`.
    """
    s = _as_vector(scores, "scores")
    t = _as_vector(targets, "targets")
    if s.shape != t.shape:
        raise DataError("scores and targets must have the same length")
    (model,) = fit_isotonic_rows(s[None], t[None])
    return model


def fit_isotonic_rows(scores: Any, targets: Any) -> list[IsotonicModel]:
    """:func:`fit_isotonic` of each row of ``(T, n)`` scores and targets.

    The ties of every row are pooled in one pass: one stable row sort, one
    mask of run starts and one ``np.add.reduceat`` over the flattened
    targets, which reduces each run as a one-row fit does.  PAVA then runs
    once per row, so every model has the bits of a fit of its row alone.
    """
    S = _as_matrix(scores, "scores")
    Y = _as_matrix(targets, "targets")
    if S.shape != Y.shape:
        raise DataError("scores and targets must have the same shape")
    order = np.argsort(S, axis=1, kind="stable")
    s = np.take_along_axis(S, order, axis=1)
    t = np.take_along_axis(Y, order, axis=1)
    new = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=s.size)
    pooled = np.add.reduceat(t.ravel(), starts) / counts
    ends = np.cumsum(new.sum(axis=1)).tolist()
    means: list[float] = []
    sizes: list[int] = []
    lo = 0
    for hi in ends:
        # Row by row, so few Python floats live at once; the integer counts
        # convert exactly wherever they meet a float.
        row_means, row_sizes = _pava_blocks(pooled[lo:hi].tolist(), counts[lo:hi].tolist())
        means += row_means
        sizes += row_sizes
        lo = hi
    fitted = np.clip(np.repeat(np.asarray(means), np.asarray(sizes, dtype=int)), 0.0, 1.0)
    cuts = ends[:-1]
    return [
        IsotonicModel(knot_inputs=inputs, knot_outputs=outputs)
        for inputs, outputs in zip(np.split(s[new], cuts), np.split(fitted, cuts))
    ]


def _check_scores(scores: np.ndarray) -> None:
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite entries")


def isotonic_predict(model: IsotonicModel, scores: Any) -> np.ndarray | float:
    """Linear interpolation between knots; clamped to edge outputs outside."""
    s = np.asarray(scores, dtype=float)
    _check_scores(s)
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
    with B's targets fit the isotonic stage.  The one-row case of
    :func:`fit_pipeline_rows`.
    """
    X = _as_matrix(features)
    y = _as_vector(targets, "targets")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"features have {X.shape[0]} rows but targets have {y.shape[0]}")
    (model,) = fit_pipeline_rows(
        X,
        np.arange(X.shape[0])[None],
        y[None],
        split_frac=split_frac,
        seeds=[seed],
        alpha=alpha,
        feature_source=feature_source,
    )
    return model


def _decisions(
    Z: np.ndarray,
    means: np.ndarray,
    scales: np.ndarray,
    weights: np.ndarray,
    intercepts: np.ndarray,
) -> np.ndarray:
    """Standardize + ridge of each slice of a fresh ``(T, m, d)`` stack,
    which is overwritten, under its row's ``(T, d)`` parameters: ``(T, m)``."""
    _standardize_rows(Z, means, scales)
    return _ridge_outputs(Z, weights, intercepts)


def fit_pipeline_rows(
    features: Any,
    rows: Any,
    targets: Any,
    *,
    split_frac: float = 0.5,
    seeds: Sequence[int],
    alpha: float = 1.0,
    feature_source: str = "response_embedding",
) -> list[CalibratorModel]:
    """:func:`fit_pipeline` of each row of a ``(T, n)`` index matrix: row t
    fits on ``features[rows[t]]`` and ``targets[t]``, split by ``seeds[t]``.

    The scaler and ridge stages run over all T half-A stacks at once, and
    the isotonic stages over all T half-B score rows at once
    (:func:`fit_isotonic_rows`), with the bits of T separate fits.
    """
    X = _as_matrix(features)
    picks = np.asarray(rows, dtype=np.intp)
    y = np.asarray(targets, dtype=float)
    if y.ndim != 2 or y.shape != picks.shape or len(seeds) != y.shape[0]:
        raise DataError("targets, rows and seeds must align: one row and one seed per fit")
    if not np.all(np.isfinite(y)):
        raise DataError("targets contains non-finite entries")
    if np.any((y < 0.0) | (y > 1.0)):
        raise DataError("targets must lie in [0, 1]")
    if feature_source not in FEATURE_SOURCES:
        raise DataError(f"unknown feature_source {feature_source!r}")
    n = y.shape[1]
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
    _check_alpha(alpha)
    perms = np.array([rng.permutation(n) for rng in seeding.generators(seeds)])
    b_pos, a_pos = perms[:, :n_b], perms[:, n_b:]
    XA = X[np.take_along_axis(picks, a_pos, axis=1)]
    means, scales = _scaler_rows(XA)
    _standardize_rows(XA, means, scales)
    weights, intercepts = _ridge_rows(XA, np.take_along_axis(y, a_pos, axis=1), alpha)
    del XA
    preds_b = _decisions(
        X[np.take_along_axis(picks, b_pos, axis=1)], means, scales, weights, intercepts
    )
    isotonics = fit_isotonic_rows(preds_b, np.take_along_axis(y, b_pos, axis=1))
    return [
        CalibratorModel(
            scaler=ScalerParams(means=means[t], scales=scales[t]),
            ridge=RidgeModel(
                weights=weights[t], intercept=float(intercepts[t]), alpha=float(alpha)
            ),
            isotonic=isotonic,
            feature_source=feature_source,
            training_meta={"split_frac": float(split_frac), "seed": int(seed), "n_targets": int(n)},
        )
        for t, (seed, isotonic) in enumerate(zip(seeds, isotonics))
    ]


def decision_score(model: CalibratorModel, features: Any) -> np.ndarray | float:
    """The pre-isotonic linear score (standardize + ridge): the one-row case
    of :func:`predict_rows`' scores."""
    X = np.asarray(features, dtype=float)
    squeeze = X.ndim == 1
    X = _as_matrix(X[None, :] if squeeze else X)
    _check_dimension(X, model.scaler.means.shape[0], "scaler")
    (out,) = _decisions(
        X[None].copy(order="K"),  # as in apply_scaler
        model.scaler.means[None],
        model.scaler.scales[None],
        model.ridge.weights[None],
        np.array([model.ridge.intercept]),
    )
    return float(out[0]) if squeeze else out


def predict(model: CalibratorModel, features: Any) -> np.ndarray | float:
    """Confidence in [0, 1] for one feature vector or a stack of them."""
    scores = decision_score(model, features)
    return isotonic_predict(model.isotonic, scores)


def predict_rows(models: Sequence[CalibratorModel], features: Any, rows: Any) -> np.ndarray:
    """:func:`predict` of each model on the features its row of a ``(T, m)``
    index matrix picks, as a ``(T, m)`` matrix."""
    X = _as_matrix(features)
    means = np.stack([m.scaler.means for m in models])
    _check_dimension(X, means.shape[1], "scaler")
    scores = _decisions(
        X[np.asarray(rows, dtype=np.intp)],
        means,
        np.stack([m.scaler.scales for m in models]),
        np.stack([m.ridge.weights for m in models]),
        np.array([m.ridge.intercept for m in models]),
    )
    _check_scores(scores)
    # Row by row: np.interp's compiled kernel may fuse its multiply-add,
    # which separate numpy operations would not.
    return np.array(
        [
            np.interp(row, m.isotonic.knot_inputs, m.isotonic.knot_outputs)
            for m, row in zip(models, scores)
        ]
    )


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
    doc = read_json(path, "invalid model artifact")
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
