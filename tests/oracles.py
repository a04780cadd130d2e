"""Independent reference implementations used to check the fast paths.

Each oracle favors obviousness over speed: exhaustive enumeration, textbook
elimination, quadratic pair counting, per-bin and per-row loops,
character-by-character scans, string counting, entry-by-entry validation,
plain grid refinement, ``json.dumps`` of each record's object,
``scipy.stats.rankdata`` and a per-value scan of histogram edges.
They share no code with the package beyond the standard library (numpy only
for array plumbing, scipy only for ranking), so agreement between the two
routes is meaningful evidence.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.stats


def isotonic_by_enumeration(
    values: Sequence[float], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Weighted least-squares nondecreasing fit by trying every partition.

    A monotone fit is constant on contiguous blocks, and on each block the
    optimum is the block's weighted mean.  Enumerate all 2**(n-1) contiguous
    partitions, keep those whose block means are nondecreasing, and return
    the fitted vector with the smallest weighted squared error.  Means and
    errors are exact rationals, so no rounding or tolerance decides which
    partition wins.  Only viable for small n; that is the point.
    """
    v = [Fraction(float(x)) for x in values]
    n = len(v)
    w = [Fraction(1)] * n if weights is None else [Fraction(float(x)) for x in weights]
    assert len(w) == n and n >= 1
    best_sse: Fraction | None = None
    best_fit: list[Fraction] | None = None
    # Bit b of the mask says "cut between positions b and b+1".
    for mask in range(1 << (n - 1)):
        cuts = [0] + [b + 1 for b in range(n - 1) if mask >> b & 1] + [n]
        means = []
        feasible = True
        for lo, hi in zip(cuts, cuts[1:]):
            wsum = sum(w[lo:hi])
            mean = sum(w[i] * v[i] for i in range(lo, hi)) / wsum
            if means and mean < means[-1]:
                feasible = False
                break
            means.append(mean)
        if not feasible:
            continue
        fit = []
        for (lo, hi), mean in zip(zip(cuts, cuts[1:]), means):
            fit.extend([mean] * (hi - lo))
        sse = sum(w[i] * (v[i] - fit[i]) ** 2 for i in range(n))
        if best_sse is None or sse < best_sse:
            best_sse = sse
            best_fit = fit
    assert best_fit is not None
    return np.asarray([float(x) for x in best_fit])


def ridge_by_elimination(
    features: Sequence[Sequence[float]], targets: Sequence[float], alpha: float
) -> tuple[np.ndarray, float]:
    """Ridge with an unpenalized intercept, solved by Gaussian elimination.

    Centers the columns and the targets, forms the normal equations
    ``(Xc'Xc + alpha*I) w = Xc'yc`` as plain Python floats, and solves them
    with partial pivoting.  Returns ``(weights, intercept)``.
    """
    X = [[float(v) for v in row] for row in features]
    y = [float(v) for v in targets]
    n = len(X)
    d = len(X[0])
    x_means = [sum(row[j] for row in X) / n for j in range(d)]
    y_mean = sum(y) / n
    Xc = [[row[j] - x_means[j] for j in range(d)] for row in X]
    yc = [v - y_mean for v in y]
    # A = Xc'Xc + alpha*I, b = Xc'yc
    A = [
        [sum(Xc[i][p] * Xc[i][q] for i in range(n)) + (alpha if p == q else 0.0) for q in range(d)]
        for p in range(d)
    ]
    b = [sum(Xc[i][p] * yc[i] for i in range(n)) for p in range(d)]
    # Forward elimination with partial pivoting.
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(A[r][col]))
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        assert A[col][col] != 0.0, "normal equations are singular"
        for row in range(col + 1, d):
            factor = A[row][col] / A[col][col]
            for k in range(col, d):
                A[row][k] -= factor * A[col][k]
            b[row] -= factor * b[col]
    # Back substitution.
    w = [0.0] * d
    for col in range(d - 1, -1, -1):
        acc = b[col] - sum(A[col][k] * w[k] for k in range(col + 1, d))
        w[col] = acc / A[col][col]
    intercept = y_mean - sum(x_means[j] * w[j] for j in range(d))
    return np.asarray(w), intercept


def auroc_by_pair_counting(
    scores: Sequence[float], labels: Sequence[int]
) -> float | None:
    """Probability a random positive outscores a random negative, ties half.

    Direct O(n_pos * n_neg) loop over all pairs; None with a single class.
    """
    pos = [float(s) for s, z in zip(scores, labels) if z == 1]
    neg = [float(s) for s, z in zip(scores, labels) if z == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            total += 1.0
        elif p == q:
            total += 0.5
    return total / (len(pos) * len(neg))


def auroc_by_rankdata(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """Mann-Whitney AUROC from ``scipy.stats.rankdata`` average ranks.

    The positives' ranks are summed in index order, so this is the exact
    float the metric must produce, not just a close one.
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    n_pos = int(z.sum())
    n_neg = z.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = scipy.stats.rankdata(s)
    u = ranks[z == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def histogram_by_edges(values: Sequence[float], buckets: int) -> list[int]:
    """Bucket counts over the ``linspace(0, 1, buckets + 1)`` edges, one value
    at a time: bucket ``i`` is ``[e_i, e_{i+1})``, the last one also takes
    ``1.0``, and values outside [0, 1] are dropped."""
    edges = np.linspace(0.0, 1.0, buckets + 1).tolist()
    counts = [0] * buckets
    for value in map(float, values):
        for i in range(buckets):
            if edges[i] <= value < edges[i + 1] or (i == buckets - 1 and value == edges[i + 1]):
                counts[i] += 1
                break
    return counts


def ece_by_loops(
    confidences: Sequence[float], labels: Sequence[int], bins: int
) -> tuple[float, float, float, list[tuple[int, int, int, float, float]]]:
    """Equal-mass ECE_1, ECE_2, MCE and the bins, by plain per-bin loops.

    Sorts the (confidence, label) pairs by confidence with Python's stable
    sort, cuts sorted positions at ``floor(b*n/B)``, and averages each bin
    by hand.  Bins are ``(lower, upper, count, mean_confidence, accuracy)``.
    """
    n = len(confidences)
    order = sorted(range(n), key=lambda i: float(confidences[i]))
    rows = []
    for b in range(bins):
        lo, hi = b * n // bins, (b + 1) * n // bins
        conf = sum(float(confidences[i]) for i in order[lo:hi]) / (hi - lo)
        acc = sum(float(labels[i]) for i in order[lo:hi]) / (hi - lo)
        rows.append((lo, hi, hi - lo, conf, acc))
    gaps = [abs(acc - conf) for _, _, _, conf, acc in rows]
    weights = [count / n for _, _, count, _, _ in rows]
    ece1 = sum(w * g for w, g in zip(weights, gaps))
    ece2 = math.sqrt(sum(w * g * g for w, g in zip(weights, gaps)))
    return ece1, ece2, max(gaps), rows


def _penalized_nll(
    scores: np.ndarray, labels: np.ndarray, slope: float, bias: float, eps: float, penalty: float
) -> float:
    clipped = np.clip(scores, eps, 1.0 - eps)
    t = np.log(clipped) - np.log1p(-clipped)
    u = slope * t + bias
    nll = float(np.sum(np.logaddexp(0.0, u) - labels * u))
    return nll + penalty * (slope * slope + bias * bias)


def platt_nll_by_grid(
    scores: Sequence[float],
    labels: Sequence[int],
    *,
    eps: float = 1e-6,
    penalty: float = 1e-6,
    half_width: float = 15.0,
    points: int = 61,
    rounds: int = 9,
) -> float:
    """Minimum penalized logistic NLL found by iterative grid refinement.

    Starts from a coarse (slope, bias) grid over ``[-half_width, half_width]``
    squared, then repeatedly re-grids around the best cell.  The objective is
    smooth and convex, so the refined minimum is accurate to far better than
    1e-6 after a handful of rounds.
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    center = (0.0, 0.0)
    h = half_width
    best = math.inf
    for _ in range(rounds):
        slopes = np.linspace(center[0] - h, center[0] + h, points)
        biases = np.linspace(center[1] - h, center[1] + h, points)
        for a in slopes:
            for b in biases:
                value = _penalized_nll(s, z, float(a), float(b), eps, penalty)
                if value < best:
                    best = value
                    center = (float(a), float(b))
        spacing = 2.0 * h / (points - 1)
        h = 2.0 * spacing
    return best


def segmented_logprobs_by_loop(
    rng: np.random.Generator,
    ln_gm: Sequence[float],
    count_range: tuple[int, int],
    jitter_scale: float,
) -> list[list[float]]:
    """Token log-probability rows built one row at a time.

    Draws the row lengths, then one flat normal jitter array, from ``rng`` in
    that order; row ``j`` is its own slice of the jitter, centred with
    ``ndarray.mean``, shifted to ``ln_gm[j]`` and clipped at 0.
    """
    k = len(ln_gm)
    lengths = rng.integers(count_range[0], count_range[1], size=k)
    jitter = rng.normal(0.0, jitter_scale, size=int(lengths.sum()))
    rows: list[list[float]] = []
    offset = 0
    for j in range(k):
        seg = jitter[offset : offset + lengths[j]]
        offset += lengths[j]
        row = np.minimum(seg - seg.mean() + ln_gm[j], 0.0)
        rows.append(row.tolist())
    return rows


def boxed_groups_by_scan(text: str) -> list[str]:
    """Contents of every balanced ``\\boxed{...}`` group, in start order.

    For each occurrence of the marker, walks forward one character at a time
    counting brace depth; a group whose depth never returns to zero is
    skipped.
    """
    marker = "\\boxed{"
    groups: list[str] = []
    for start in range(len(text)):
        if not text.startswith(marker, start):
            continue
        depth = 1
        i = start + len(marker)
        while i < len(text) and depth > 0:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        if depth == 0:
            groups.append(text[start + len(marker) : i - 1])
    return groups


def modal_by_counter(answers: Sequence[str | None]) -> tuple[str, int, int] | None:
    """(modal answer, its count, position of its first carrier), or None.

    Counts the non-None answer strings, keeps the most frequent, breaks ties
    toward the smallest string with ``min``, then scans for the first
    position holding it.  None when no position has an answer.
    """
    counts = Counter(a for a in answers if a is not None)
    if not counts:
        return None
    best = max(counts.values())
    modal = min(a for a, c in counts.items() if c == best)
    return modal, best, list(answers).index(modal)


def check_vector_by_entry(
    value: object, name: str, *, max_value: float | None = None
) -> list[str]:
    """Problems with one record vector field, found one entry at a time.

    The field must be a nonempty list.  Walking it in order, the first entry
    that is not an int or float (booleans excluded) or is not finite as a
    float (an integer too large for a float is not) is reported, as is the
    first entry above ``max_value``, whichever comes first; at most one
    message is returned.
    """
    if not isinstance(value, list) or not value:
        return [f"{name} must be a nonempty array of numbers"]
    for entry in value:
        finite = False
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            try:
                finite = math.isfinite(float(entry))
            except OverflowError:
                pass
        if not finite:
            return [f"{name} contains a non-finite or non-numeric entry"]
        if max_value is not None and entry > max_value:
            return [f"{name} contains an entry above {max_value:g}"]
    return []


def _object_by_fields(fields: list[tuple[str, object]], extra: dict) -> dict:
    obj = {name: value for name, value in fields if value is not None}
    for key in sorted(extra):
        obj.setdefault(key, extra[key])
    return obj


def record_line_by_json(record) -> str:
    """A record's file line, as ``json.dumps`` writes the record's object.

    The object holds the known fields in file order, leaving out those that
    are None, then each ``extra`` key in sorted order unless a known field
    already took it.  A sample set gives the lines of its samples.
    """
    if hasattr(record, "samples"):
        return "".join(record_line_by_json(sample) for sample in record.samples)
    if hasattr(record, "z"):
        obj = {"query_id": record.query_id, "sample_index": record.sample_index, "z": record.z}
    elif hasattr(record, "response_text"):
        meta = record.sampling_meta
        spans = record.answer_token_logprobs
        obj = _object_by_fields(
            [
                ("query_id", record.query_id),
                ("sample_index", record.sample_index),
                ("response_text", record.response_text),
                ("answer", record.answer),
                ("token_logprobs", list(record.token_logprobs)),
                ("answer_token_logprobs", list(spans) if spans is not None else None),
                ("embedding", list(record.embedding)),
                ("sampling_meta", dict(meta) if meta is not None else None),
            ],
            record.extra,
        )
    else:
        gold = record.gold_answers
        qemb = record.question_embedding
        obj = _object_by_fields(
            [
                ("query_id", record.query_id),
                ("text", record.text),
                ("group", record.group),
                ("gold_answers", list(gold) if gold is not None else None),
                ("question_embedding", list(qemb) if qemb is not None else None),
            ],
            record.extra,
        )
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
