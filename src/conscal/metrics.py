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
import scipy.stats

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


def _bin_stats(c: np.ndarray, z: np.ndarray, bins: int) -> tuple[BinStat, ...]:
    """One stable sort and one binning of already-validated arrays."""
    order = np.argsort(c, kind="stable")
    c_sorted = c[order]
    z_sorted = z[order]
    return tuple(
        BinStat(
            lower=lo,
            upper=hi,
            count=hi - lo,
            mean_confidence=float(c_sorted[lo:hi].mean()),
            accuracy=float(z_sorted[lo:hi].mean()),
        )
        for lo, hi in equal_mass_bins(c, bins)
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
    return _bin_stats(c, _label_vector(labels, c.shape[0]), bins)


def ece(confidences: Any, labels: Any, bins: int = 12, p: int = 1) -> float:
    """Equal-mass expected calibration error with exponent ``p``."""
    if p not in (1, 2):
        raise DataError(f"p must be 1 or 2, got {p!r}")
    ece1, ece2, _ = _calibration_errors(_checked_bin_stats(confidences, labels, bins))
    return ece1 if p == 1 else ece2


def mce(confidences: Any, labels: Any, bins: int = 12) -> float:
    """Maximum calibration error: the largest per-bin gap."""
    return _calibration_errors(_checked_bin_stats(confidences, labels, bins))[2]


def brier(confidences: Any, labels: Any) -> float:
    """Mean squared error between confidence and the 0/1 outcome."""
    c = _confidence_vector(confidences)
    z = _label_vector(labels, c.shape[0])
    return float(np.mean((c - z) ** 2))


def auroc(scores: Any, labels: Any) -> float | None:
    """Mann-Whitney AUROC with average ranks (ties count one half).

    Returns None when either class is empty.
    """
    s = _confidence_vector(scores)
    z = _label_vector(labels, s.shape[0])
    n_pos = int(z.sum())
    n_neg = z.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = scipy.stats.rankdata(s)
    u = ranks[z == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


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


def confidence_histogram(confidences: Any, buckets: int = HISTOGRAM_BUCKETS) -> list[int]:
    """Equal-width bucket counts of confidences over [0, 1]."""
    c = _confidence_vector(confidences)
    if buckets < 1:
        raise DataError(f"buckets must be >= 1, got {buckets}")
    counts, _ = np.histogram(c, bins=buckets, range=(0.0, 1.0))
    return counts.astype(int).tolist()


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
    """Every metric for one evaluation set, from a single binning pass."""
    c = _confidence_vector(confidences)
    z = _label_vector(labels, c.shape[0])
    stats = _bin_stats(c, z, bins)
    ece1, ece2, worst = _calibration_errors(stats)
    return MetricReport(
        ece1=ece1,
        ece2=ece2,
        mce=worst,
        brier=brier(c, z),
        auroc=auroc(c, z),
        bins=stats,
        histogram=tuple(confidence_histogram(c)),
        n=int(c.shape[0]),
    )
