"""Equal-mass binning, calibration errors, AUROC, and report assembly."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conscal import metrics
from conscal.errors import DataError
from conscal.metrics import (
    HISTOGRAM_BUCKETS,
    ReportTable,
    auroc,
    brier,
    compute_report,
    confidence_histogram,
    ece,
    equal_mass_bins,
    mce,
    reliability_data,
)

from oracles import (
    auroc_by_pair_counting,
    auroc_by_rankdata,
    ece_by_loops,
    histogram_by_edges,
    histogram_by_searchsorted,
)

# A strategy for aligned (confidences, labels) with at least `bins` points.
def _instances(min_size=2, max_size=40, discrete=False):
    value = (
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        if discrete
        else st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    return st.lists(
        st.tuples(value, st.integers(min_value=0, max_value=1)),
        min_size=min_size,
        max_size=max_size,
    )


# ---------------------------------------------------------------------------
# equal-mass bins
# ---------------------------------------------------------------------------


def test_bins_are_singletons_when_counts_match():
    spans = equal_mass_bins(np.linspace(0, 1, 12), bins=12)
    assert spans == [(i, i + 1) for i in range(12)]


def test_five_points_in_two_bins_split_two_three():
    spans = equal_mass_bins([0.1, 0.2, 0.3, 0.4, 0.5], bins=2)
    assert spans == [(0, 2), (2, 5)]


def test_more_bins_than_points_is_an_error():
    with pytest.raises(DataError):
        equal_mass_bins([0.1, 0.2, 0.3], bins=5)
    with pytest.raises(DataError, match="bins must be >= 1, got 0"):
        equal_mass_bins([0.1], bins=0)
    for bins in (2.0, True, "2", None):
        with pytest.raises(DataError, match="bins must be an integer"):
            equal_mass_bins([0.1, 0.2], bins=bins)
        with pytest.raises(DataError, match="bins must be an integer"):
            compute_report([0.1, 0.2], [0, 1], bins=bins)
        with pytest.raises(DataError, match="bins must be an integer"):
            ece([0.1, 0.2], [0, 1], bins=bins)


@given(_instances(min_size=4), st.integers(min_value=1, max_value=4))
def test_bins_partition_the_sorted_order(pairs, bins):
    confidences = [c for c, _ in pairs]
    spans = equal_mass_bins(confidences, bins)
    assert spans[0][0] == 0
    assert spans[-1][1] == len(confidences)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi == lo
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1
    assert all(size >= 1 for size in sizes)


# ---------------------------------------------------------------------------
# calibration errors
# ---------------------------------------------------------------------------

_FOUR_CONF = [0.3, 0.4, 0.8, 0.9]
_FOUR_LABELS = [0, 1, 1, 1]


def test_four_point_instance_has_gap_point_15_everywhere():
    # Two bins: (conf .35, acc .5) and (conf .85, acc 1.0); both gaps 0.15.
    assert ece(_FOUR_CONF, _FOUR_LABELS, bins=2) == pytest.approx(0.15, abs=1e-12)
    assert ece(_FOUR_CONF, _FOUR_LABELS, bins=2, p=2) == pytest.approx(0.15, abs=1e-12)
    assert mce(_FOUR_CONF, _FOUR_LABELS, bins=2) == pytest.approx(0.15, abs=1e-12)


def test_reliability_rows_for_the_four_point_instance():
    rows = reliability_data(_FOUR_CONF, _FOUR_LABELS, bins=2)
    assert [(r["lower"], r["upper"], r["count"]) for r in rows] == [(0, 2, 2), (2, 4, 2)]
    assert rows[0]["mean_confidence"] == pytest.approx(0.35)
    assert rows[0]["accuracy"] == 0.5
    assert rows[1]["mean_confidence"] == pytest.approx(0.85)
    assert rows[1]["accuracy"] == 1.0
    assert all(list(r) == ["lower", "upper", "count", "mean_confidence", "accuracy"] for r in rows)


def test_totally_wrong_and_perfect_confidence_hit_the_extremes():
    assert ece([1.0, 1.0], [0, 0], bins=1) == 1.0
    assert ece([1.0, 1.0], [1, 1], bins=1) == 0.0
    assert mce([0.0, 0.0], [1, 1], bins=1) == 1.0


def test_ece_rejects_other_exponents_and_misaligned_labels():
    with pytest.raises(DataError):
        ece([0.5, 0.5], [1, 0], p=3)
    with pytest.raises(DataError, match="p must be 1 or 2, got True"):
        ece([0.5, 0.5], [1, 0], p=True)
    with pytest.raises(DataError):
        ece([0.5, 0.5], [1])
    with pytest.raises(DataError):
        ece([0.5, float("nan")], [1, 0])
    with pytest.raises(DataError):
        ece([0.5, 0.5], [1, 2])


@given(_instances(min_size=6), st.integers(min_value=1, max_value=6))
def test_power_mean_ordering_ece1_ece2_mce(pairs, bins):
    confidences = [c for c, _ in pairs]
    labels = [z for _, z in pairs]
    e1 = ece(confidences, labels, bins=bins)
    e2 = ece(confidences, labels, bins=bins, p=2)
    worst = mce(confidences, labels, bins=bins)
    assert -1e-12 <= e1 <= e2 + 1e-12
    assert e2 <= worst + 1e-12
    assert worst <= 1.0 + 1e-12


def test_tied_confidences_use_stable_sort_order():
    # All confidences equal: one bin mean against the pooled accuracy.
    assert ece([0.5] * 4, [1, 0, 1, 0], bins=2) == pytest.approx(0.0, abs=1e-12)
    assert ece([0.5] * 4, [0, 0, 0, 0], bins=2) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# brier and auroc
# ---------------------------------------------------------------------------


def test_brier_reference_values():
    assert brier([1.0, 0.0], [1, 0]) == 0.0
    assert brier([0.5], [1]) == 0.25
    assert brier([0.0, 1.0], [1, 0]) == 1.0


def test_auroc_reference_values():
    assert auroc([0.9, 0.1], [1, 0]) == 1.0
    assert auroc([0.7, 0.7], [1, 0]) == 0.5
    assert auroc([0.8, 0.8, 0.2], [1, 0, 0]) == 0.75


def test_auroc_is_none_for_single_class_inputs():
    assert auroc([0.9, 0.1], [1, 1]) is None
    assert auroc([0.9, 0.1], [0, 0]) is None


@given(_instances(min_size=2, max_size=30, discrete=True))
@settings(max_examples=200)
def test_auroc_matches_pair_counting_under_heavy_ties(pairs):
    scores = [c for c, _ in pairs]
    labels = [z for _, z in pairs]
    expected = auroc_by_pair_counting(scores, labels)
    got = auroc(scores, labels)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=1e-12)


@given(_instances(min_size=2, max_size=30))
def test_auroc_is_invariant_under_strictly_increasing_transforms(pairs):
    scores = np.array([c for c, _ in pairs])
    labels = [z for _, z in pairs]
    base = auroc(scores, labels)
    transformed = auroc(np.expm1(2.0 * scores), labels)
    if base is None:
        assert transformed is None
    else:
        assert transformed == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# histogram and the combined report
# ---------------------------------------------------------------------------


def test_histogram_buckets_cover_the_unit_interval():
    counts = confidence_histogram([0.0, 1.0])
    assert len(counts) == 20
    assert counts[0] == 1 and counts[19] == 1
    assert sum(counts) == 2


def test_histogram_rejects_bad_bucket_counts():
    with pytest.raises(DataError, match="buckets must be >= 1, got 0"):
        confidence_histogram([0.5], buckets=0)
    for buckets in (2.5, 2.0, True):
        with pytest.raises(DataError, match="buckets must be an integer"):
            confidence_histogram([0.5], buckets=buckets)


@given(_instances(min_size=6, max_size=60), st.integers(min_value=1, max_value=6))
def test_compute_report_is_consistent_with_the_individual_metrics(pairs, bins):
    confidences = [c for c, _ in pairs]
    labels = [z for _, z in pairs]
    n = len(pairs)
    report = compute_report(confidences, labels, bins=bins)
    assert isinstance(report, ReportTable) and len(report) == 1
    assert report.ece1[0] == ece(confidences, labels, bins=bins)
    assert report.ece2[0] == ece(confidences, labels, bins=bins, p=2)
    assert report.mce[0] == mce(confidences, labels, bins=bins)
    assert report.brier[0] == brier(confidences, labels)
    want_auroc = auroc(confidences, labels)
    if want_auroc is None:
        assert np.isnan(report.auroc[0])
    else:
        assert report.auroc[0] == want_auroc
    rows = reliability_data(confidences, labels, bins=bins)
    assert [(r["lower"], r["upper"]) for r in rows] == list(report.spans)
    assert [r["mean_confidence"] for r in rows] == report.mean_confidence[0].tolist()
    assert [r["accuracy"] for r in rows] == report.accuracy[0].tolist()
    assert len(report.spans) == bins
    assert sum(r["count"] for r in rows) == n
    assert report.histogram.shape == (1, 20)
    assert report.histogram.sum() == n
    assert report.n == n


@given(_instances(min_size=12, max_size=399), st.integers(min_value=1, max_value=12))
def test_bin_means_equal_numpy_mean_exactly(pairs, bins):
    confidences = np.array([c for c, _ in pairs])
    labels = np.array([z for _, z in pairs], dtype=float)
    order = np.argsort(confidences, kind="stable")
    report = compute_report(confidences, labels, bins=bins)
    for (lo, hi), conf, acc in zip(report.spans, report.mean_confidence[0], report.accuracy[0]):
        assert conf == float(np.mean(confidences[order][lo:hi]))
        assert acc == float(np.mean(labels[order][lo:hi]))


@given(_instances(min_size=12, max_size=60, discrete=True), st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_compute_report_matches_per_bin_loops_under_heavy_ties(pairs, bins):
    confidences = [c for c, _ in pairs]
    labels = [z for _, z in pairs]
    ece1, ece2, worst, rows = ece_by_loops(confidences, labels, bins)
    report = compute_report(confidences, labels, bins=bins)
    assert report.ece1[0] == pytest.approx(ece1, abs=1e-12)
    assert report.ece2[0] == pytest.approx(ece2, abs=1e-12)
    assert report.mce[0] == pytest.approx(worst, abs=1e-12)
    assert [(lo, hi, hi - lo) for lo, hi in report.spans] == [r[:3] for r in rows]
    for got_conf, got_acc, (_, _, _, conf, acc) in zip(
        report.mean_confidence[0], report.accuracy[0], rows
    ):
        assert got_conf == pytest.approx(conf, abs=1e-12)
        assert got_acc == pytest.approx(acc, abs=1e-12)


# ---------------------------------------------------------------------------
# exact agreement of the sorted-order kernels with their oracles
# ---------------------------------------------------------------------------


@st.composite
def _edge_instances(draw, buckets=st.integers(min_value=1, max_value=40), min_size=1):
    """(values, labels, buckets): values from the bucket edges (as ``k/B`` and
    as ``linspace`` gives them), their float neighbours, 0.0, -0.0, 1.0 and
    points outside [0, 1], often from a pool of a few values so ties are heavy."""
    b = draw(buckets)
    edges = np.linspace(0.0, 1.0, b + 1)
    specials = [0.0, -0.0, 1.0, -0.5, 1.5, -1e-300, 1.0 + 2**-52]
    specials += [k / b for k in range(b + 1)] + edges.tolist()
    specials += np.nextafter(edges, -1.0).tolist() + np.nextafter(edges, 2.0).tolist()
    value = st.one_of(
        st.sampled_from(specials),
        st.floats(min_value=-0.25, max_value=1.25, allow_nan=False),
    )
    if draw(st.booleans()):
        value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=4)))
    values = draw(st.lists(value, min_size=min_size, max_size=60))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(values), max_size=len(values)))
    return values, labels, b


@given(_edge_instances())
@settings(max_examples=300)
def test_auroc_equals_the_rankdata_formula_exactly(instance):
    values, labels, _ = instance
    assert auroc(values, labels) == auroc_by_rankdata(values, labels)


@given(_edge_instances())
@settings(max_examples=300)
def test_confidence_histogram_equals_the_edge_scan_exactly(instance):
    values, _, buckets = instance
    counts = confidence_histogram(values, buckets)
    assert counts == histogram_by_edges(values, buckets)
    assert counts == np.histogram(values, bins=buckets, range=(0.0, 1.0))[0].tolist()
    assert all(type(count) is int for count in counts)


@given(_edge_instances(buckets=st.just(HISTOGRAM_BUCKETS), min_size=12), st.integers(1, 12))
@settings(max_examples=300)
def test_compute_report_auroc_and_histogram_are_exact(instance, bins):
    values, labels, _ = instance
    report = compute_report(values, labels, bins=bins)
    want_auroc = auroc_by_rankdata(values, labels)
    if want_auroc is None:
        assert np.isnan(report.auroc[0])
    else:
        assert report.auroc[0] == want_auroc
    assert report.histogram[0].tolist() == histogram_by_edges(values, HISTOGRAM_BUCKETS)
    assert report.histogram.dtype.kind == "i"


def _every_edge(buckets):
    """Every ``linspace`` edge of ``buckets`` buckets, its float neighbours,
    0.0, -0.0, 1.0, subnormals and values outside [0, 1] out to the
    largest finite floats."""
    edges = np.linspace(0.0, 1.0, buckets + 1)
    exact = [k / buckets for k in range(buckets + 1)]
    extremes = [0.0, -0.0, 1.0, 5e-324, -5e-324, -0.25, 1.25, 1.0 + 2**-52, 1e308, -1e308]
    neighbours = [np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]
    return np.concatenate([edges, *neighbours, exact, extremes])


def test_histogram_buckets_by_arithmetic_equal_the_searchsorted_formula_at_every_edge():
    rng = np.random.default_rng(0)
    for buckets in [*range(1, 65), 100, 127, 1000, 4099]:
        values = _every_edge(buckets)
        matrix = np.stack([values, rng.permutation(values), rng.uniform(-0.1, 1.1, values.size)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow from the largest values
            counts = metrics._histograms(matrix, buckets)
        assert counts.tolist() == histogram_by_searchsorted(matrix, buckets).tolist(), buckets


@given(st.lists(_edge_instances(min_size=1), min_size=1, max_size=4))
@settings(max_examples=200)
def test_histogram_rows_equal_the_searchsorted_formula_exactly(instances):
    buckets = instances[0][2]
    width = min(len(values) for values, _, _ in instances)
    matrix = np.array([values[:width] for values, _, _ in instances])
    counts = metrics._histograms(matrix, buckets)
    assert counts.tolist() == histogram_by_searchsorted(matrix, buckets).tolist()
