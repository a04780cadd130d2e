"""Reference confidence baselines for a single sampled response.

* token probability: geometric mean of the per-token probabilities, i.e.
  ``exp(mean(token_logprobs))`` (length-normalized sequence likelihood);
* answer probability: the same geometric mean restricted to the answer span;
* verbalized confidence: a probability the response itself states inside a
  ``\\boxed{p}`` group, imputed with the batch mean where absent;
* Platt scaling: the supervised reference that refits a logistic map on top
  of the token-probability score using correctness labels.

:func:`token_probs` and :func:`answer_probs` score listed rows of a
generation batch as columns, equal bit for bit to the per-response scores;
:func:`impute_verbal` returns a column and its imputed mask.
:func:`fit_platt_rows` fits the rows of a matrix in one Newton loop, each
row with the bits :func:`fit_platt` gives it alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .consistency import boxed_groups
from .errors import DataError
from .records import GenerationBatch

_DECIMAL = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)$")
# Platt scaling clips scores to [_CLIP, 1 - _CLIP] before the logit, and its
# fit adds _PENALTY * (slope**2 + bias**2) to the negative log-likelihood.
_CLIP = 1e-6
_PENALTY = 1e-6


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


def _mean_probs(values: np.ndarray, offsets: np.ndarray, rows: np.ndarray, name: str) -> np.ndarray:
    """``exp(mean)`` of each listed row's segment of ``values``.

    The rows of one segment length ``L`` form one ``(rows, L)`` block,
    summed along axis 1 and divided by ``L``, the arithmetic of ``np.mean``.
    The first listed row that is empty, non-finite or positive raises the
    per-response scorer's error; rows not listed are not read.
    """
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    out = np.empty(rows.shape[0])
    bad = lengths == 0
    for length in np.flatnonzero(np.bincount(lengths[~bad])).tolist():
        picked = np.flatnonzero(lengths == length)
        block = values[starts[picked, None] + np.arange(length)]
        ok = (np.isfinite(block) & (block <= 0.0)).all(axis=1)
        if ok.all():
            out[picked] = np.exp(block.sum(axis=1) / length)
        else:
            bad[picked[~ok]] = True
    if bad.any():
        first = int(rows[np.argmax(bad)])
        _logprob_vector(values[offsets[first] : offsets[first + 1]], name)  # raises
    return out


def token_probs(batch: GenerationBatch, rows: Sequence[int]) -> np.ndarray:
    """:func:`token_prob_score` of each listed row of ``batch``."""
    picked = np.asarray(rows, dtype=np.intp)
    return _mean_probs(batch.token_logprobs, batch.token_offsets, picked, "token_logprobs")


def answer_probs(batch: GenerationBatch, rows: Sequence[int]) -> np.ndarray:
    """:func:`answer_prob_score` of each listed row of ``batch``, NaN for a
    row without an answer span."""
    picked = np.asarray(rows, dtype=np.intp)
    values, offsets = batch.answer_token_logprobs, batch.answer_token_offsets
    spanned = offsets[picked + 1] > offsets[picked]
    out = np.full(picked.shape[0], np.nan)
    out[spanned] = _mean_probs(values, offsets, picked[spanned], "answer_token_logprobs")
    return out


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


def impute_verbal(values: Sequence[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """Fill missing entries with the mean of the present ones.

    Returns the filled values and a mask of the imputed entries.  Present
    values pass through untouched.  When nothing parsed anywhere in the
    batch, missing entries fall back to 0.5.
    """
    if len(values) == 0:
        raise DataError("impute_verbal needs at least one entry")
    present = [v for v in values if v is not None]
    for v in present:
        if not np.isfinite(v) or not 0.0 <= v <= 1.0:
            raise DataError(f"verbal confidence {v!r} outside [0, 1]")
    fill = float(np.mean(present)) if present else 0.5
    filled = np.array([fill if v is None else v for v in values], dtype=float)
    return filled, np.array([v is None for v in values], dtype=bool)


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlattModel:
    """Logistic recalibration ``sigmoid(slope * logit(s) + bias)``."""

    slope: float
    bias: float


def _logit(scores: np.ndarray) -> np.ndarray:
    clipped = np.clip(scores, _CLIP, 1.0 - _CLIP)
    return np.log(clipped) - np.log1p(-clipped)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # exp(-u) overflows to inf once u < -709; 1 / (1 + inf) is then the
    # right limit, 0, so the overflow is no error.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def platt_nll(scores: Any, labels: Any, slope: float, bias: float) -> float:
    """Penalized negative log-likelihood minimized by :func:`fit_platt`."""
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    u = slope * _logit(s) + bias
    nll = float(np.sum(np.logaddexp(0.0, u) - z * u))
    return nll + _PENALTY * (slope * slope + bias * bias)


def _platt_objectives(design: np.ndarray, z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """:func:`platt_nll` of each row: ``design`` is ``(T, n, 2)``, ``theta``
    ``(T, 2, 1)``; every product is a per-row ``np.matmul``."""
    u = (design @ theta)[:, :, 0]
    data = (np.logaddexp(0.0, u) - z * u).sum(axis=1)
    return data + _PENALTY * (theta.transpose(0, 2, 1) @ theta)[:, 0, 0]


# A Newton step backtracks over the scales 2**-i, i = 0 ... 49: the full
# step first, then the halvings _BLOCK at a time.
_HALVINGS = 50
_BLOCK = 8


def _backtrack(
    design: np.ndarray, z: np.ndarray, theta: np.ndarray, step: np.ndarray, current: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's first trial ``theta - 2**-i * step`` whose objective does
    not exceed ``current``, as ``(candidate, value, accepted)``; a row that
    finds none is not accepted.

    Every row tries the full step in one call.  The rows it overshoots try
    the other scales in blocks: each searching row's block of trials is
    stacked into one :func:`_platt_objectives` call.  A trial's objective
    depends on its own row and theta alone, so it has the bits a call on
    that one trial gives, and the scale accepted is the one a search of one
    scale a call accepts.
    """
    candidate = theta - step
    value = _platt_objectives(design, z, candidate)
    accepted = value <= current
    searching = np.flatnonzero(~accepted)
    for first in range(1, _HALVINGS, _BLOCK):
        if not searching.size:
            break
        scales = np.ldexp(1.0, -np.arange(first, min(first + _BLOCK, _HALVINGS)))
        width = scales.size
        trials = theta[searching, None] - scales[:, None, None] * step[searching, None]
        values = _platt_objectives(
            np.repeat(design[searching], width, axis=0),
            np.repeat(z[searching], width, axis=0),
            trials.reshape(-1, 2, 1),
        ).reshape(-1, width)
        ok = values <= current[searching, None]
        found = ok.any(axis=1)
        rows, first_ok = np.flatnonzero(found), ok.argmax(axis=1)[found]
        done = searching[rows]
        candidate[done], value[done] = trials[rows, first_ok], values[rows, first_ok]
        accepted[done] = True
        searching = searching[~found]
    return candidate, value, accepted


def fit_platt_rows(scores: Any, labels: Any) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fit_platt` of each row of ``(T, n)`` scores and labels, as
    ``(slopes, biases)``, two ``(T,)`` arrays.

    One damped Newton loop runs every row at once; a row that stops leaves
    the active set.  Each product is a per-row ``np.matmul`` over stacks
    shaped like the one-row products, each solve one ``np.linalg.solve``
    over a stack, and each sum a row sum, so every row gets the bits a fit
    of that row alone gets.  An iteration's backtracking tries the full
    step on every row in one objective call, then the halvings eight
    scales a call on the rows still searching (:func:`_backtrack`): at
    most eight calls an iteration.
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    if s.ndim != 2 or s.shape[1] == 0:
        raise DataError("scores must be a nonempty 2-d array")
    if s.shape != z.shape:
        raise DataError("scores and labels must have the same shape")
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite entries")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise DataError("labels must be 0 or 1")
    t = _logit(s)
    design = np.stack([t, np.ones_like(t)], axis=2)
    theta = np.zeros((s.shape[0], 2, 1))
    current = _platt_objectives(design, z, theta)
    active = np.arange(s.shape[0])
    for _ in range(100):
        if not active.size:
            break
        d, zz, th = design[active], z[active], theta[active]
        dt = d.transpose(0, 2, 1)
        p = _sigmoid((d @ th)[:, :, 0])
        grad = dt @ (p - zz)[:, :, None] + 2.0 * _PENALTY * th
        # The gradient norm as np.linalg.norm takes it: sqrt of a dot.
        moving = ~(np.sqrt((grad.transpose(0, 2, 1) @ grad)[:, 0, 0]) < 1e-8)
        active, d, dt, zz, th, p, grad = (
            a[moving] for a in (active, d, dt, zz, th, p, grad)
        )
        curvature = p * (1.0 - p)
        hessian = dt @ (d * curvature[:, :, None]) + 2.0 * _PENALTY * np.eye(2)
        step = np.linalg.solve(hessian, grad)
        candidate, value, accepted = _backtrack(d, zz, th, step, current[active])
        # A step that rounds back to theta would repeat forever: compare bytes.
        moved = ~(candidate.view(np.int64) == th.view(np.int64)).all(axis=(1, 2))
        keep = accepted & moved
        active = active[keep]
        theta[active], current[active] = candidate[keep], value[keep]
    return theta[:, 0, 0], theta[:, 1, 0]


def fit_platt(scores: Any, labels: Any) -> PlattModel:
    """Maximum-likelihood logistic fit on logit-transformed scores.

    Damped Newton iterations on the Bernoulli log-likelihood with a tiny
    quadratic penalty that keeps one-class and separable batches finite.
    Convergence: gradient norm below 1e-8, 100 iterations, or an accepted
    step that leaves ``theta`` bit for bit where it was (every later
    iteration would repeat it).  The one-row case of :func:`fit_platt_rows`.
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    if s.ndim != 1 or s.shape[0] == 0:
        raise DataError("scores must be a nonempty 1-d array")
    if s.shape != z.shape:
        raise DataError("scores and labels must have the same length")
    slopes, biases = fit_platt_rows(s[None], z[None])
    return PlattModel(slope=float(slopes[0]), bias=float(biases[0]))


def apply_platt(model: PlattModel, scores: Any) -> np.ndarray | float:
    """The fitted map of a score or an array of them: the one-row case of
    :func:`apply_platt_rows`."""
    s = np.asarray(scores, dtype=float)
    out = apply_platt_rows(np.array([model.slope]), np.array([model.bias]), s.reshape(1, -1))
    return float(out[0, 0]) if s.ndim == 0 else out[0].reshape(s.shape)


def apply_platt_rows(slopes: np.ndarray, biases: np.ndarray, scores: Any) -> np.ndarray:
    """``sigmoid(slope * logit(s) + bias)`` of each row of ``(T, m)`` scores
    under its own slope and bias, as :func:`fit_platt_rows` returns them."""
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise DataError("scores contain non-finite entries")
    return _sigmoid(slopes[:, None] * _logit(s) + biases[:, None])

