"""Calibration and discrimination metrics over (confidence, correctness) pairs.

Expected calibration error uses equal-mass bins: the pairs are sorted by
confidence (stable sort) and bin ``b`` of ``B`` covers sorted positions
``[floor(b*n/B), floor((b+1)*n/B))``, so bin sizes differ by at most one and
every bin is populated whenever ``n >= B``.  With ``w_b = n_b / n``,
``acc_b`` the bin's mean label, and ``conf_b`` the bin's mean confidence,

    ECE_p = ( sum_b w_b * |acc_b - conf_b|**p ) ** (1/p)        p in {1, 2}
    MCE   = max_b |acc_b - conf_b|

Brier score is the mean squared error ``mean((c - z)**2)``.  AUROC is the
rank-based Mann-Whitney statistic with average ranks, so tied score pairs
count 0.5; a single-class input has no defined AUROC: ``auroc()`` returns
None for it and a report table holds NaN in its row, which downstream
reporting propagates as absent (never 0 or 0.5).

Every metric is computed for a ``(T, n)`` matrix of T evaluation sets of one
size at once, one row per set, with the row-wise form of each reduction the
one-set code would take; so row ``t`` holds the bits a call on that row alone
gives.  One evaluation set, a vector, is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .errors import DataError, require_integer

REPORT_FORMAT = "conscal-report/1"

HISTOGRAM_BUCKETS = 20


def _checked_confidences(confidences: Any, *, rows: bool = False) -> np.ndarray:
    """Finite confidences as a nonempty 1-d array; with ``rows`` a nonempty
    ``(T, n)`` matrix is accepted too."""
    c = np.asarray(confidences, dtype=float)
    if not (c.ndim == 1 or (rows and c.ndim == 2)) or c.size == 0:
        shape = "1-d array or (trials, n) matrix" if rows else "1-d array"
        raise DataError(f"confidences must be a nonempty {shape}")
    if not np.all(np.isfinite(c)):
        raise DataError("confidences contain non-finite entries")
    return c


def _checked_labels(labels: Any, shape: tuple[int, ...]) -> np.ndarray:
    z = np.asarray(labels, dtype=float)
    if z.shape != shape:
        size = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
        raise DataError(f"labels must align with confidences (expected {size})")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise DataError("labels must be 0 or 1")
    return z


def _bin_spans(n: int, bins: int) -> list[tuple[int, int]]:
    require_integer("bins", bins, 1)
    if n < bins:
        raise DataError(f"need at least {bins} points for {bins} bins, got {n}")
    edges = [(b * n) // bins for b in range(bins + 1)]
    return list(zip(edges, edges[1:]))


def equal_mass_bins(confidences: Any, bins: int) -> list[tuple[int, int]]:
    """Index ranges ``[lower, upper)`` into the stable-sorted order."""
    return _bin_spans(_checked_confidences(confidences).shape[0], bins)


def _aurocs(s_sorted: np.ndarray, z_sorted: np.ndarray) -> np.ndarray:
    """Row-wise Mann-Whitney AUROC of row-sorted scores; NaN for a row with
    one class.

    A run of equal scores at sorted positions ``[a, b)`` gets the average
    1-based rank ``(a + b + 1) / 2``, the value ``scipy.stats.rankdata``
    gives it.  Ranks are multiples of one half, so the positives' rank sum
    is exact in any summation order.
    """
    n = s_sorted.shape[1]
    position = np.arange(n)
    # Each position's run start is the last run start at or before it, and
    # its run end the first run end at or after it.
    tie = s_sorted[:, 1:] == s_sorted[:, :-1]
    starts = np.where(np.pad(tie, ((0, 0), (1, 0))), 0, position)
    ends = np.where(np.pad(tie, ((0, 0), (0, 1))), n, position + 1)
    starts = np.maximum.accumulate(starts, axis=1)
    ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    rank_sum = ((starts + ends + 1) / 2.0 * z_sorted).sum(axis=1)
    n_pos = z_sorted.sum(axis=1)
    pairs = n_pos * (n - n_pos)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return np.divide(u, pairs, out=np.full(u.shape, np.nan), where=pairs > 0)


def _histograms(c: np.ndarray, buckets: int) -> np.ndarray:
    """Row-wise counts of a ``(T, n)`` matrix in ``buckets`` equal-width
    buckets over [0, 1].

    Bucket ``i`` is ``[e_i, e_{i+1})`` for the ``linspace`` edges ``e``, the
    last one is closed, and values outside [0, 1] fall in none, as with
    ``np.histogram(c, buckets, range=(0, 1))``.

    A value's bucket is ``floor(c * buckets)`` of ``c`` clipped to [0, 1],
    at most the last bucket, then moved one step up where ``c`` reaches the
    next edge, or one step down where it lies below the bucket's own.  The
    rounded product and the rounded edges differ by less than one bucket,
    so one step is the whole correction, and the bucket is the one a
    ``searchsorted`` of the edges gives.
    """
    rows = c.shape[0]
    edges = np.linspace(0.0, 1.0, buckets + 1)
    bucket = np.minimum(np.floor(np.clip(c, 0.0, 1.0) * buckets), buckets - 1).astype(np.intp)
    bucket += (c >= edges[bucket + 1]) & (bucket < buckets - 1)
    bucket -= c < edges[bucket]
    # Row t counts into slots [t * buckets, (t + 1) * buckets) of one bincount.
    bucket += np.arange(rows)[:, None] * buckets
    inside = (c >= edges[0]) & (c <= edges[-1])
    return np.bincount(bucket[inside], minlength=rows * buckets).reshape(rows, buckets)


@dataclass(frozen=True, eq=False)
class ReportTable:
    """All metrics for T evaluation sets of ``n`` pairs each, one row per
    set: ``(T,)`` columns, ``(T, bins)`` bin means over the shared ``spans``
    and ``(T, buckets)`` histogram counts.  ``auroc`` is NaN where a set has
    one class.  One evaluation set is a one-row table."""

    ece1: np.ndarray
    ece2: np.ndarray
    mce: np.ndarray
    brier: np.ndarray
    auroc: np.ndarray
    spans: tuple[tuple[int, int], ...]
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    histogram: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.ece1.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReportTable):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs
        )


def _report_table(c: np.ndarray, z: np.ndarray, bins: int) -> ReportTable:
    """Every metric of each row of validated ``(T, n)`` matrices.

    One row-wise stable sort feeds the equal-mass bins and the AUROC ranks.
    A bin's mean is its row slice's sum over its count, the float
    ``ndarray.mean`` gives.  Every sum runs along the rows of C-contiguous
    arrays, which gives each row the bits a 1-d call on it gives;
    ``np.add.reduceat`` does not.
    """
    n = c.shape[1]
    spans = _bin_spans(n, bins)
    order = np.argsort(c, axis=1, kind="stable")
    c_sorted = np.take_along_axis(c, order, axis=1)
    z_sorted = np.take_along_axis(z, order, axis=1)
    mean_confidence = np.stack(
        [c_sorted[:, lo:hi].sum(axis=1) / (hi - lo) for lo, hi in spans], axis=1
    )
    accuracy = np.stack([z_sorted[:, lo:hi].sum(axis=1) / (hi - lo) for lo, hi in spans], axis=1)
    w = np.array([hi - lo for lo, hi in spans], dtype=float) / n
    gap = np.abs(accuracy - mean_confidence)
    return ReportTable(
        ece1=np.sum(w * gap, axis=1),
        ece2=np.sqrt(np.sum(w * gap**2, axis=1)),
        mce=gap.max(axis=1),
        brier=np.mean((c - z) ** 2, axis=1),
        auroc=_aurocs(c_sorted, z_sorted),
        spans=tuple(spans),
        mean_confidence=mean_confidence,
        accuracy=accuracy,
        histogram=_histograms(c, HISTOGRAM_BUCKETS),
        n=n,
    )


def compute_report(confidences: Any, labels: Any, bins: int = 12) -> ReportTable:
    """Every metric of T evaluation sets, from one validation and one sort.

    Scores the rows of a ``(T, n)`` matrix of confidences, with labels of the
    same shape, at once; a vector is one evaluation set and gives a one-row
    table.
    """
    c = _checked_confidences(confidences, rows=True)
    z = _checked_labels(labels, c.shape)
    return _report_table(np.atleast_2d(c), np.atleast_2d(z), bins)


def _one_row(confidences: Any, labels: Any, bins: int) -> ReportTable:
    """The one-row table of a single evaluation set; a matrix is refused."""
    return compute_report(_checked_confidences(confidences), labels, bins)


def ece(confidences: Any, labels: Any, bins: int = 12, p: int = 1) -> float:
    """Equal-mass expected calibration error with exponent ``p``."""
    if isinstance(p, bool) or p not in (1, 2):
        raise DataError(f"p must be 1 or 2, got {p!r}")
    table = _one_row(confidences, labels, bins)
    return float((table.ece1 if p == 1 else table.ece2)[0])


def mce(confidences: Any, labels: Any, bins: int = 12) -> float:
    """Maximum calibration error: the largest per-bin gap."""
    return float(_one_row(confidences, labels, bins).mce[0])


def brier(confidences: Any, labels: Any) -> float:
    """Mean squared error between confidence and the 0/1 outcome."""
    c = _checked_confidences(confidences)
    return float(np.mean((c - _checked_labels(labels, c.shape)) ** 2))


def auroc(scores: Any, labels: Any) -> float | None:
    """Mann-Whitney AUROC with average ranks (ties count one half).

    Returns None when either class is empty.
    """
    s = _checked_confidences(scores)
    z = _checked_labels(labels, s.shape)
    order = np.argsort(s, kind="stable")
    value = float(_aurocs(s[None, order], z[None, order])[0])
    return None if math.isnan(value) else value


def reliability_data(confidences: Any, labels: Any, bins: int = 12) -> list[dict[str, float]]:
    """Per-bin rows for reliability diagrams: the bin's ``lower``/``upper``
    positions in the sorted order, its ``count``, ``mean_confidence`` and
    ``accuracy``."""
    table = _one_row(confidences, labels, bins)
    return [
        {"lower": lo, "upper": hi, "count": hi - lo, "mean_confidence": conf, "accuracy": acc}
        for (lo, hi), conf, acc in zip(
            table.spans, table.mean_confidence[0].tolist(), table.accuracy[0].tolist()
        )
    ]


def confidence_histogram(confidences: Any, buckets: int = HISTOGRAM_BUCKETS) -> list[int]:
    """Equal-width bucket counts of confidences over [0, 1]."""
    c = _checked_confidences(confidences)
    require_integer("buckets", buckets, 1)
    return _histograms(c[None], buckets)[0].tolist()
