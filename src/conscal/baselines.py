"""Reference confidence baselines for a single sampled response.

* token probability: geometric mean of the per-token probabilities, i.e.
  ``exp(mean(token_logprobs))`` (length-normalized sequence likelihood);
* answer probability: the same geometric mean restricted to the answer span;
* verbalized confidence: a probability the response itself states inside a
  ``\\boxed{p}`` group, imputed with the batch mean where absent;
* Platt scaling: the supervised reference that refits a logistic map on top
  of the token-probability score using correctness labels.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .consistency import boxed_groups
from .errors import DataError, RecordError, is_finite_real
from .records import json_lines

_DECIMAL = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)$")


def _logprob_vector(logprobs: Any, name: str) -> np.ndarray:
    arr = np.asarray(logprobs, dtype=float)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise DataError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    if np.any(arr > 0.0):
        raise DataError(f"{name} contains positive log-probabilities")
    return arr


def token_prob_score(token_logprobs: Any) -> float:
    """Geometric mean of token probabilities: ``exp(mean(logprobs))``."""
    arr = _logprob_vector(token_logprobs, "token_logprobs")
    return float(np.exp(arr.mean()))


def answer_prob_score(answer_token_logprobs: Any) -> float:
    """Geometric mean over the answer span's tokens."""
    if answer_token_logprobs is None:
        raise DataError("generation lacks answer-span log-probabilities")
    arr = _logprob_vector(answer_token_logprobs, "answer_token_logprobs")
    return float(np.exp(arr.mean()))


def parse_verbal_confidence(response_text: str) -> float | None:
    """Self-stated probability from the last numeric ``\\boxed{p}`` group.

    Scans the balanced boxed groups from the end and takes the first whose
    content is a plain decimal literal; a value outside [0, 1] yields None
    rather than continuing the scan.
    """
    for content in reversed(boxed_groups(response_text)):
        stripped = content.strip()
        if _DECIMAL.match(stripped):
            value = float(stripped)
            return value if 0.0 <= value <= 1.0 else None
    return None


@dataclass(frozen=True)
class VerbalConfidence:
    """A verbal-confidence score after batch imputation."""

    value: float
    imputed: bool
    raw: float | None = None


def impute_verbal(values: Sequence[float | None]) -> list[VerbalConfidence]:
    """Fill missing entries with the mean of the present ones.

    Present values pass through untouched.  When nothing parsed anywhere in
    the batch, missing entries fall back to 0.5.
    """
    if len(values) == 0:
        raise DataError("impute_verbal needs at least one entry")
    present = [v for v in values if v is not None]
    for v in present:
        if not np.isfinite(v) or not 0.0 <= v <= 1.0:
            raise DataError(f"verbal confidence {v!r} outside [0, 1]")
    fill = float(np.mean(present)) if present else 0.5
    return [
        VerbalConfidence(value=float(v), imputed=False, raw=float(v))
        if v is not None
        else VerbalConfidence(value=fill, imputed=True, raw=None)
        for v in values
    ]


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlattModel:
    """Logistic recalibration ``sigmoid(slope * logit(s) + bias)``.

    ``input_clip`` bounds scores away from {0, 1} before the logit.
    """

    slope: float
    bias: float
    input_clip: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.input_clip < 0.5:
            raise DataError(f"input_clip must be inside (0, 0.5), got {self.input_clip!r}")


def _logit(scores: np.ndarray, eps: float) -> np.ndarray:
    clipped = np.clip(scores, eps, 1.0 - eps)
    return np.log(clipped) - np.log1p(-clipped)


def platt_nll(scores: Any, labels: Any, slope: float, bias: float, *, eps: float = 1e-6,
              penalty: float = 1e-6) -> float:
    """Penalized negative log-likelihood minimized by :func:`fit_platt`."""
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    u = slope * _logit(s, eps) + bias
    nll = float(np.sum(np.logaddexp(0.0, u) - z * u))
    return nll + penalty * (slope * slope + bias * bias)


def fit_platt(
    scores: Any,
    labels: Any,
    *,
    eps: float = 1e-6,
    penalty: float = 1e-6,
) -> PlattModel:
    """Maximum-likelihood logistic fit on logit-transformed scores.

    Damped Newton iterations on the Bernoulli log-likelihood with a tiny
    quadratic penalty that keeps one-class and separable batches finite.
    Convergence: gradient norm below 1e-8, 100 iterations, or an accepted
    step that leaves ``theta`` bit for bit where it was (every later
    iteration would repeat it).
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    if s.ndim != 1 or s.shape[0] == 0:
        raise DataError("scores must be a nonempty 1-d array")
    if s.shape != z.shape:
        raise DataError("scores and labels must have the same length")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite entries")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise DataError("labels must be 0 or 1")
    if not 0.0 < eps < 0.5:
        raise DataError(f"eps must be inside (0, 0.5), got {eps!r}")
    t = _logit(s, eps)
    design = np.column_stack([t, np.ones_like(t)])
    theta = np.zeros(2)

    def objective(th: np.ndarray) -> float:
        u = design @ th
        return float(np.sum(np.logaddexp(0.0, u) - z * u) + penalty * (th @ th))

    current = objective(theta)
    for _ in range(100):
        u = design @ theta
        p = 1.0 / (1.0 + np.exp(-u))
        grad = design.T @ (p - z) + 2.0 * penalty * theta
        if np.linalg.norm(grad) < 1e-8:
            break
        curvature = p * (1.0 - p)
        hessian = design.T @ (design * curvature[:, None]) + 2.0 * penalty * np.eye(2)
        step = np.linalg.solve(hessian, grad)
        # Backtrack if the full Newton step overshoots.
        scale = 1.0
        for _ in range(50):
            candidate = theta - scale * step
            value = objective(candidate)
            if value <= current:
                break
            scale *= 0.5
        else:
            break
        if candidate.tobytes() == theta.tobytes():
            break  # a step that rounds back to theta: every later one would too
        theta, current = candidate, value
    return PlattModel(slope=float(theta[0]), bias=float(theta[1]), input_clip=eps)


def apply_platt(model: PlattModel, scores: Any) -> np.ndarray | float:
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite entries")
    u = model.slope * _logit(s, model.input_clip) + model.bias
    out = 1.0 / (1.0 + np.exp(-u))
    if s.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# score export
# ---------------------------------------------------------------------------


def write_scores(path: str, rows: Iterable[dict[str, Any]]) -> None:
    """Write per-generation confidence rows.

    Each row carries ``query_id``, ``method``, ``confidence`` and optionally
    ``sample_index`` and ``imputed``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            obj: dict[str, Any] = {"query_id": row["query_id"]}
            if "sample_index" in row:
                obj["sample_index"] = row["sample_index"]
            obj["method"] = row["method"]
            obj["confidence"] = row["confidence"]
            if row.get("imputed") is not None:
                obj["imputed"] = bool(row["imputed"])
            handle.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def load_scores(path: str) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    for lineno, obj, reason in json_lines(path):
        if reason is not None:
            raise RecordError(f"{path}:{lineno}: invalid JSON ({reason})", path=path, line=lineno)
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("query_id"), str)
            or not isinstance(obj.get("method"), str)
            or not isinstance(obj.get("confidence"), (int, float))
            or isinstance(obj.get("confidence"), bool)
        ):
            raise RecordError(
                f"{path}:{lineno}: score rows need query_id, method, confidence",
                path=path,
                line=lineno,
            )
        if not is_finite_real(obj["confidence"]):
            raise RecordError(
                f"{path}:{lineno}: confidence must be a finite number",
                path=path,
                line=lineno,
            )
        rows.append(obj)
    return rows
