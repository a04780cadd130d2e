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
count 0.5; a single-class input has no defined AUROC and yields None, which
downstream reporting propagates as absent (never 0 or 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DataError

REPORT_FORMAT = "conscal-report/1"

HISTOGRAM_BUCKETS = 20


def _confidence_vector(confidences: Any) -> np.ndarray:
    c = np.asarray(confidences, dtype=float)
    if c.ndim != 1 or c.shape[0] == 0:
        raise DataError("confidences must be a nonempty 1-d array")
    if not np.all(np.isfinite(c)):
        raise DataError("confidences contain non-finite entries")
    return c


def _label_vector(labels: Any, n: int) -> np.ndarray:
    z = np.asarray(labels, dtype=float)
    if z.shape != (n,):
        raise DataError(f"labels must align with confidences (expected length {n})")
    if not np.all((z == 0.0) | (z == 1.0)):
        raise DataError("labels must be 0 or 1")
    return z


def equal_mass_bins(confidences: Any, bins: int) -> list[tuple[int, int]]:
    """Index ranges ``[lower, upper)`` into the stable-sorted order."""
    c = _confidence_vector(confidences)
    n = c.shape[0]
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    if n < bins:
        raise DataError(f"need at least {bins} points for {bins} bins, got {n}")
    edges = [(b * n) // bins for b in range(bins + 1)]
    return [(edges[b], edges[b + 1]) for b in range(bins)]


def _sorted_pairs(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order of ``c`` and both vectors taken in it."""
    order = np.argsort(c, kind="stable")
    return order, c[order], z[order]


def _bin_stats(c_sorted: np.ndarray, z_sorted: np.ndarray, bins: int) -> tuple[BinStat, ...]:
    """One binning of already-validated, already-sorted arrays.

    A bin's mean is its sum over its count, the float ``ndarray.mean``
    returns, without the per-call overhead of ``mean``.
    """
    return tuple(
        BinStat(
            lower=lo,
            upper=hi,
            count=hi - lo,
            mean_confidence=float(c_sorted[lo:hi].sum()) / (hi - lo),
            accuracy=float(z_sorted[lo:hi].sum()) / (hi - lo),
        )
        for lo, hi in equal_mass_bins(c_sorted, bins)
    )


def _calibration_errors(stats: tuple[BinStat, ...]) -> tuple[float, float, float]:
    """(ECE_1, ECE_2, MCE) from a full set of bins; the last bin ends at ``n``."""
    w = np.array([b.count for b in stats], dtype=float) / stats[-1].upper
    gap = np.abs(
        np.array([b.accuracy for b in stats]) - np.array([b.mean_confidence for b in stats])
    )
    return (
        float(np.sum(w * gap)),
        float(np.sqrt(np.sum(w * gap**2))),
        float(gap.max()),
    )


def _checked_bin_stats(confidences: Any, labels: Any, bins: int) -> tuple[BinStat, ...]:
    c = _confidence_vector(confidences)
    _, c_sorted, z_sorted = _sorted_pairs(c, _label_vector(labels, c.shape[0]))
    return _bin_stats(c_sorted, z_sorted, bins)


def ece(confidences: Any, labels: Any, bins: int = 12, p: int = 1) -> float:
    """Equal-mass expected calibration error with exponent ``p``."""
    if p not in (1, 2):
        raise DataError(f"p must be 1 or 2, got {p!r}")
    ece1, ece2, _ = _calibration_errors(_checked_bin_stats(confidences, labels, bins))
    return ece1 if p == 1 else ece2


def mce(confidences: Any, labels: Any, bins: int = 12) -> float:
    """Maximum calibration error: the largest per-bin gap."""
    return _calibration_errors(_checked_bin_stats(confidences, labels, bins))[2]


def _brier(c: np.ndarray, z: np.ndarray) -> float:
    return float(np.mean((c - z) ** 2))


def brier(confidences: Any, labels: Any) -> float:
    """Mean squared error between confidence and the 0/1 outcome."""
    c = _confidence_vector(confidences)
    return _brier(c, _label_vector(labels, c.shape[0]))


def _auroc(order: np.ndarray, s_sorted: np.ndarray, z: np.ndarray) -> float | None:
    """Mann-Whitney AUROC from the stable order of the scores.

    A run of equal scores at sorted positions ``[a, b)`` gets the average
    1-based rank ``(a + b + 1) / 2``, the value ``scipy.stats.rankdata``
    gives it, and the positives' ranks are summed in original index order.
    """
    n = s_sorted.shape[0]
    n_pos = int(z.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    starts = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    u = ranks[z == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auroc(scores: Any, labels: Any) -> float | None:
    """Mann-Whitney AUROC with average ranks (ties count one half).

    Returns None when either class is empty.
    """
    s = _confidence_vector(scores)
    z = _label_vector(labels, s.shape[0])
    order = np.argsort(s, kind="stable")
    return _auroc(order, s[order], z)


@dataclass(frozen=True)
class BinStat:
    """One equal-mass reliability bin over the sorted order."""

    lower: int
    upper: int
    count: int
    mean_confidence: float
    accuracy: float


def reliability_data(confidences: Any, labels: Any, bins: int = 12) -> list[BinStat]:
    """Per-bin mean confidence and accuracy for reliability diagrams."""
    return list(_checked_bin_stats(confidences, labels, bins))


def _histogram(c_sorted: np.ndarray, buckets: int) -> list[int]:
    """Counts of a sorted vector in ``buckets`` equal-width buckets over [0, 1].

    Bucket ``i`` is ``[e_i, e_{i+1})`` for the ``linspace`` edges ``e``, the
    last one is closed, and values outside [0, 1] fall in none, as with
    ``np.histogram(c, buckets, range=(0, 1))``.
    """
    edges = np.linspace(0.0, 1.0, buckets + 1)
    cuts = np.searchsorted(c_sorted, edges, side="left")
    cuts[-1] = np.searchsorted(c_sorted, edges[-1], side="right")
    return np.diff(cuts).tolist()


def confidence_histogram(confidences: Any, buckets: int = HISTOGRAM_BUCKETS) -> list[int]:
    """Equal-width bucket counts of confidences over [0, 1]."""
    c = _confidence_vector(confidences)
    if buckets < 1:
        raise DataError(f"buckets must be >= 1, got {buckets}")
    return _histogram(np.sort(c), buckets)


@dataclass(frozen=True)
class MetricReport:
    """All metrics for one method on one evaluation set."""

    ece1: float
    ece2: float
    mce: float
    brier: float
    auroc: float | None
    bins: tuple[BinStat, ...]
    histogram: tuple[int, ...]
    n: int


def compute_report(confidences: Any, labels: Any, bins: int = 12) -> MetricReport:
    """Every metric for one evaluation set, from one validation and one sort.

    The stable order feeds the equal-mass bins, the AUROC ranks and the
    histogram counts.
    """
    c = _confidence_vector(confidences)
    z = _label_vector(labels, c.shape[0])
    order, c_sorted, z_sorted = _sorted_pairs(c, z)
    stats = _bin_stats(c_sorted, z_sorted, bins)
    ece1, ece2, worst = _calibration_errors(stats)
    return MetricReport(
        ece1=ece1,
        ece2=ece2,
        mce=worst,
        brier=_brier(c, z),
        auroc=_auroc(order, c_sorted, z),
        bins=stats,
        histogram=tuple(_histogram(c_sorted, HISTOGRAM_BUCKETS)),
        n=int(c.shape[0]),
    )
