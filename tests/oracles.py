"""Independent reference implementations used to check the fast paths.

Each oracle favors obviousness over speed: exhaustive enumeration, textbook
elimination, quadratic pair counting, per-bin, per-row and per-trial loops,
character-by-character scans, string counting, entry-by-entry validation,
plain grid refinement, ``json.dumps`` of each record's object, per-row
bucket grouping, record loaders that judge one line at a time,
``scipy.stats.rankdata``, a ``scipy.linalg`` Cholesky solve, a per-value
scan of histogram edges and a ``searchsorted`` of them.  They share no code
with the package beyond the standard library (numpy only for array
plumbing, scipy only for ranking and the Cholesky solve), so agreement
between the two routes is meaningful evidence.

:func:`load_scores` is the exception: no command reads ``scores.jsonl``
back, so its reader lives here, on the package's line decoder.
:func:`drawn_by_choice` draws through numpy's own ``choice``, and
:func:`raw_words_by_generator` reads numpy's own raw words, from one stream
of the package's at a time, each built alone.
:func:`distilled_trial_by_fit` takes the package's seeded streams and
targets, which it does not re-derive; its own part is the linear stage as
one trial's 2-d products and the isotonic stage as :func:`isotonic_by_pava`.
:func:`backtrack_by_scale` takes the objective it searches with, so only
its search over the scales, one a call, is its own.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Any, Sequence

import numpy as np
import scipy.linalg
import scipy.stats

from conscal.errors import RecordError, is_finite_real, json_error_reason


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


def isotonic_by_pava(
    scores: Sequence[float], targets: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Isotonic ``(knot_inputs, knot_outputs)`` of one score vector, fitted alone.

    Ties are pooled to their target mean after one stable sort, with
    ``np.unique`` finding the runs and one ``np.add.reduceat`` summing them;
    PAVA then runs over numpy scalars one point at a time, and the fit is
    clipped to [0, 1].  The arithmetic and its order are those of a one-row
    fit, so a fit of many rows at once must match it bit for bit.
    """
    s = np.asarray(scores, dtype=float)
    t = np.asarray(targets, dtype=float)
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    distinct, start = np.unique(s_sorted, return_index=True)
    counts = np.diff(np.append(start, s_sorted.shape[0]))
    pooled = np.add.reduceat(t_sorted, start) / counts
    w = np.asarray(counts, dtype=float)
    means: list[float] = []
    sizes: list[int] = []
    wsums: list[float] = []
    for i in range(pooled.shape[0]):
        mean = float(pooled[i])
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
    fitted = np.repeat(np.asarray(means), np.asarray(sizes, dtype=int))
    return distinct, np.clip(fitted, 0.0, 1.0)


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


def ridge_by_cholesky(
    features: np.ndarray, targets: np.ndarray, alpha: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Ridge with an unpenalized intercept, solved by Cholesky factorization.

    The same centered normal equations ``(Xc'Xc + alpha*I) w = Xc'yc`` as
    the package, factored with ``scipy.linalg.cho_factor`` and solved with
    ``cho_solve``.  Returns ``(weights, intercept, gram)``; the Gram matrix
    ``Xc'Xc + alpha*I`` lets a caller scale its tolerance by its condition.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    x_means = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_means
    gram = Xc.T @ Xc + alpha * np.eye(X.shape[1])
    factor = scipy.linalg.cho_factor(gram, lower=True)
    weights = scipy.linalg.cho_solve(factor, Xc.T @ (y - y_mean))
    return weights, float(y_mean - x_means @ weights), gram


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


def histogram_by_searchsorted(values: np.ndarray, buckets: int) -> np.ndarray:
    """Row-wise bucket counts of a ``(T, n)`` matrix by a ``searchsorted`` of
    the ``linspace(0, 1, buckets + 1)`` edges: a value's bucket is the last
    edge at or below it, ``1.0`` goes in the last bucket, and values outside
    [0, 1] are dropped."""
    edges = np.linspace(0.0, 1.0, buckets + 1)
    counts = np.zeros((values.shape[0], buckets), dtype=np.intp)
    for row, c in zip(counts, np.asarray(values, dtype=float)):
        bucket = np.searchsorted(edges, c, side="right") - 1
        bucket[c == edges[-1]] = buckets - 1
        inside = (c >= edges[0]) & (c <= edges[-1])
        np.add.at(row, bucket[inside], 1)
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


def verbal_confidence_by_scan(text: str) -> float | None:
    """The value of the last group of :func:`boxed_groups_by_scan`, in start
    order, whose stripped content is a decimal literal, or None when there is
    none or that value is outside [0, 1].

    A decimal literal is an optional sign, then decimal digits with at most
    one point among them and at least one digit.
    """
    for content in reversed(boxed_groups_by_scan(text)):
        literal = content.strip()
        unsigned = literal[1:] if literal.startswith(("+", "-")) else literal
        whole, _, fraction = unsigned.partition(".")
        if (whole + fraction).isdecimal():  # False for no digit at all
            value = float(literal)
            return value if 0.0 <= value <= 1.0 else None
    return None


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


def batch_row(batch, row: int) -> dict:
    """Row ``row`` of a generation batch as the dict of its fields.

    Reads each column at the row on its own: an empty answer-span segment
    gives None, and the vectors come back as lists of floats.
    """
    tokens = batch.token_offsets.tolist()
    spans = batch.answer_token_offsets.tolist()
    span = batch.answer_token_logprobs.tolist()[spans[row] : spans[row + 1]]
    return {
        "query_id": batch.query_id[row],
        "sample_index": batch.sample_index[row],
        "response_text": batch.response_text[row],
        "answer": batch.answer[row],
        "token_logprobs": batch.token_logprobs.tolist()[tokens[row] : tokens[row + 1]],
        "answer_token_logprobs": span or None,
        "embedding": batch.embedding[row].tolist(),
    }


def token_row(batch, row: int) -> np.ndarray:
    """Row ``row``'s token log-probabilities, a slice of the batch's column."""
    return batch.token_logprobs[batch.token_offsets[row] : batch.token_offsets[row + 1]]


def answer_token_row(batch, row: int) -> np.ndarray | None:
    """Row ``row``'s answer-span log-probabilities, or None when it has none."""
    start, stop = batch.answer_token_offsets[row : row + 2]
    return batch.answer_token_logprobs[start:stop] if stop > start else None


def record_line_by_json(record, row: int | None = None, sampling_meta=None) -> str:
    """A query's or a generation row's file line, as ``json.dumps`` writes
    its object.

    The object holds the fields in file order, leaving out those that are
    None.  With ``row``, ``record`` is a generation batch and the line is
    that row's, read with :func:`batch_row`, followed by ``sampling_meta``.
    """
    if row is not None:
        fields = {**batch_row(record, row), "sampling_meta": sampling_meta}
    else:
        gold = record.gold_answers
        qemb = record.question_embedding
        fields = {
            "query_id": record.query_id,
            "text": record.text,
            "group": record.group,
            "gold_answers": list(gold) if gold is not None else None,
            "question_embedding": list(qemb) if qemb is not None else None,
        }
    obj = {name: value for name, value in fields.items() if value is not None}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


def label_lines_by_json(batch, z) -> str:
    """The labels file of a ``z`` column: a ``json.dumps`` line for each row
    of ``batch`` whose label is 0 or 1, in row order."""
    return "".join(
        json.dumps(
            {"query_id": batch_row(batch, i)["query_id"],
             "sample_index": batch.sample_index[i], "z": int(z[i])},
            ensure_ascii=False, separators=(",", ":"),
        ) + "\n"
        for i in range(len(batch))
        if z[i] in (0, 1)
    )


def group_generations_by_buckets(queries, batch):
    """Per-query sample sets of a generation batch, by one bucket per query.

    Walks the rows one at a time, appends each to its query's bucket (a row
    of an unknown query is an orphan: one message each, in row order),
    sorts each bucket by ``sample_index`` with Python's stable sort and
    drops the queries whose bucket stays empty.  Returns
    ``([(query, rows), ...], orphan messages, warning text or None)``.
    """
    messages = []
    by_query = {q.query_id: [] for q in queries}
    for i in range(len(batch)):
        query_id = batch_row(batch, i)["query_id"]
        bucket = by_query.get(query_id)
        if bucket is None:
            messages.append(f"generation references unknown query_id {query_id!r}")
            continue
        bucket.append(i)
    sets = []
    dropped = []
    for query in queries:
        bucket = by_query[query.query_id]
        if not bucket:
            dropped.append(query.query_id)
            continue
        bucket.sort(key=lambda i: batch.sample_index[i])
        sets.append((query, tuple(bucket)))
    warning = None
    if dropped:
        preview = ", ".join(dropped[:5])
        more = "" if len(dropped) <= 5 else f" (+{len(dropped) - 5} more)"
        warning = f"dropping {len(dropped)} queries with zero generations: {preview}{more}"
    return sets, messages, warning


def _objects_by_line(path: str, checked: frozenset):
    """Each line of a JSONL file as ``(lineno, object or None, problems)``.

    A line that is not JSON or not an object gets one problem and no
    object.  An object's problems are its top-level fields outside
    ``checked`` that hold a non-finite float, looked for only when the line
    has a ``NaN``, ``Infinity`` or ``-Infinity`` token.  The file must be
    UTF-8 text.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            tokens: list[str] = []

            def constant(token: str) -> float:
                tokens.append(token)
                return float(token)

            try:
                obj = json.loads(line, parse_constant=constant)
            except json.JSONDecodeError as exc:
                yield lineno, None, [f"invalid JSON ({exc.msg})"]
                continue
            try:  # UTF-8 cannot encode a surrogate that is not part of a pair
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                yield lineno, None, ["invalid JSON (unpaired surrogate escape)"]
                continue
            if not isinstance(obj, dict):
                yield lineno, None, ["record must be a JSON object"]
                continue

            def non_finite(value) -> bool:
                if isinstance(value, float):
                    return not math.isfinite(value)
                if isinstance(value, dict):
                    value = list(value.values())
                return isinstance(value, list) and any(map(non_finite, value))

            yield lineno, obj, [
                f"{key} contains NaN or Infinity"
                for key, value in obj.items()
                if tokens and key not in checked and non_finite(value)
            ]


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def scan_generations_by_row(path: str):
    """Rows and problems of a generations file, judged one line at a time.

    Each line is checked in full before the next is read: its fields, each
    vector with :func:`check_vector_by_entry`, then, only for a line with
    no problem so far, the duplicate ``(query_id, sample_index)`` check
    and the embedding dimension against the first valid row's.  Returns
    ``(rows, [(line, message), ...])``: the valid rows as dicts of their
    fields in file order, without ``sampling_meta`` or unknown keys, and
    the problems, those of lines that are not JSON objects first, then the
    others in line order.
    """
    fields = ("query_id", "sample_index", "response_text", "answer", "token_logprobs",
              "answer_token_logprobs", "embedding")
    unreadable, problems_by_line, rows = [], [], []
    seen = set()
    embed_dim = None
    for lineno, obj, problems in _objects_by_line(path, frozenset(fields)):
        if obj is None:
            unreadable.extend((lineno, p) for p in problems)
            continue
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        if not _is_index(obj.get("sample_index")):
            problems.append("sample_index must be a nonnegative integer")
        if not isinstance(obj.get("response_text"), str):
            problems.append("response_text must be a string")
        if obj.get("answer") is not None and not isinstance(obj["answer"], str):
            problems.append("answer must be a string when present")
        problems += check_vector_by_entry(
            obj.get("token_logprobs"), "token_logprobs", max_value=0.0
        )
        if obj.get("answer_token_logprobs") is not None:
            problems += check_vector_by_entry(
                obj["answer_token_logprobs"], "answer_token_logprobs", max_value=0.0
            )
        problems += check_vector_by_entry(obj.get("embedding"), "embedding")
        if obj.get("sampling_meta") is not None and not isinstance(obj["sampling_meta"], dict):
            problems.append("sampling_meta must be an object when present")
        if not problems:
            pair = (query_id, obj["sample_index"])
            if pair in seen:
                problems.append(f"duplicate (query_id, sample_index) {pair!r}")
            else:
                seen.add(pair)
        if not problems:
            dim = len(obj["embedding"])
            if embed_dim is None:
                embed_dim = dim
            elif dim != embed_dim:
                problems.append(
                    f"query {query_id}: embedding dimension {dim} differs from {embed_dim}"
                )
        if problems:
            problems_by_line.extend((lineno, p) for p in problems)
            continue
        rows.append({name: obj.get(name) for name in fields})
    return rows, unreadable + problems_by_line


def scan_labels_by_row(path: str, known=None):
    """Labels and problems of a labels file, judged one line at a time.

    ``known``, when given, is the set of ``(query_id, sample_index)`` pairs
    a label may name.  Returns ``([(query_id, sample_index, z), ...],
    [(line, message), ...])``, ordered as :func:`scan_generations_by_row`
    orders its problems.
    """
    fields = frozenset(("query_id", "sample_index", "z"))
    unreadable, problems_by_line, labels = [], [], []
    seen = set()
    for lineno, obj, problems in _objects_by_line(path, fields):
        if obj is None:
            unreadable.extend((lineno, p) for p in problems)
            continue
        query_id = obj.get("query_id")
        if not isinstance(query_id, str) or not query_id:
            problems.append("query_id must be a nonempty string")
        if not _is_index(obj.get("sample_index")):
            problems.append("sample_index must be a nonnegative integer")
        z = obj.get("z")
        if not isinstance(z, int) or isinstance(z, bool) or z not in (0, 1):
            problems.append("z must be 0 or 1")
        if not problems:
            pair = (query_id, obj["sample_index"])
            if pair in seen:
                problems.append(f"duplicate label for {pair!r}")
            elif known is not None and pair not in known:
                problems.append(f"label references unknown generation {pair!r}")
            else:
                seen.add(pair)
        if problems:
            problems_by_line.extend((lineno, p) for p in problems)
            continue
        labels.append((query_id, obj["sample_index"], z))
    return labels, unreadable + problems_by_line


def platt_by_full_newton(
    scores: Sequence[float], labels: Sequence[int], *, eps: float = 1e-6, penalty: float = 1e-6
) -> tuple[tuple[float, float], int]:
    """Platt ``(slope, bias)`` from damped Newton run to its 100-iteration cap.

    Stops only on a gradient norm below 1e-8 or when backtracking finds no
    step in 50 halvings, never because a step left the parameters
    unchanged.  Also returns the number of iterations run.
    """
    s = np.asarray(scores, dtype=float)
    z = np.asarray(labels, dtype=float)
    clipped = np.clip(s, eps, 1.0 - eps)
    t = np.log(clipped) - np.log1p(-clipped)
    design = np.column_stack([t, np.ones_like(t)])
    theta = np.zeros(2)

    def objective(th):
        u = design @ th
        return float(np.sum(np.logaddexp(0.0, u) - z * u) + penalty * (th @ th))

    current = objective(theta)
    iterations = 0
    for _ in range(100):
        iterations += 1
        u = design @ theta
        p = 1.0 / (1.0 + np.exp(-u))
        grad = design.T @ (p - z) + 2.0 * penalty * theta
        if np.linalg.norm(grad) < 1e-8:
            break
        curvature = p * (1.0 - p)
        hessian = design.T @ (design * curvature[:, None]) + 2.0 * penalty * np.eye(2)
        step = np.linalg.solve(hessian, grad)
        scale = 1.0
        for _ in range(50):
            candidate = theta - scale * step
            value = objective(candidate)
            if value <= current:
                theta = candidate
                current = value
                break
            scale *= 0.5
        else:
            break
    return (float(theta[0]), float(theta[1])), iterations


def backtrack_by_scale(objective, design, z, theta, step, current):
    """Each row's first trial ``theta - 2**-i * step``, i = 0 ... 49, whose
    ``objective`` does not exceed ``current``, as ``(candidate, value,
    accepted, calls)``: one scale a call over the rows still searching,
    halving the scale after each call.  ``objective`` takes the stacked
    ``(rows, n, 2)`` design, ``(rows, n)`` labels and ``(rows, 2, 1)``
    thetas; ``calls`` counts its calls."""
    candidate = np.empty_like(theta)
    value = np.empty(theta.shape[0])
    accepted = np.zeros(theta.shape[0], dtype=bool)
    searching = np.arange(theta.shape[0])
    scale, calls = 1.0, 0
    for _ in range(50):
        trial = theta[searching] - scale * step[searching]
        trial_value = objective(design[searching], z[searching], trial)
        calls += 1
        ok = trial_value <= current[searching]
        done = searching[ok]
        candidate[done], value[done], accepted[done] = trial[ok], trial_value[ok], True
        searching = searching[~ok]
        if not searching.size:
            break
        scale *= 0.5
    return candidate, value, accepted, calls


def drawn_by_choice(n: int, k: int, seed: int) -> list[int]:
    """The set ``seeding.generator(seed).choice(n, k, replace=False)`` draws,
    sorted: numpy's own draw from one generator built for one stream."""
    from conscal import seeding

    return sorted(seeding.generator(seed).choice(n, k, replace=False).tolist())


def raw_words_by_generator(seeds, count: int) -> np.ndarray:
    """``seeding.generator(s).bit_generator.random_raw(count)`` for each of
    ``seeds``, as the rows of a ``(rows, count)`` ``uint64`` matrix: numpy's
    own PCG64 words from one generator built per stream."""
    from conscal import seeding

    rows = [seeding.generator(int(s)).bit_generator.random_raw(count) for s in seeds]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), count)


def distilled_trial_by_fit(data, config, tseed: int, cal_idx, test_idx) -> np.ndarray:
    """One trial's ``distilled`` test-side confidences, fit on that trial alone.

    The calibration side's targets are the modal shares, or under
    ``k_subsample`` the shares among k samples drawn per query.  A seeded
    shuffle splits the side into halves; half A's scaler and ridge are 2-d
    products of that trial's rows, and half B's ridge outputs fit the
    isotonic stage that maps the test side.
    """
    from conscal import evaluation, seeding
    from conscal.consistency import subsample_shares

    if config.k_subsample is None:
        y = data.targets_s[cal_idx]
    else:
        y = subsample_shares(
            data.codes,
            cal_idx,
            config.k_subsample,
            [seeding.mix(tseed, evaluation._S_SUBSAMPLE, int(i)) for i in cal_idx],
        )
    X = data.features[cal_idx]
    n_b = int(np.floor(config.split_frac * len(cal_idx)))
    perm = seeding.generator(seeding.mix(tseed, evaluation._S_PIPELINE)).permutation(len(cal_idx))
    half_a, half_b = perm[n_b:], perm[:n_b]
    means = X[half_a].mean(axis=0)
    scales = X[half_a].std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    standardized = (X[half_a] - means) / scales
    x_means = standardized.mean(axis=0)
    y_mean = y[half_a].mean()
    Xc = standardized - x_means
    gram = Xc.T @ Xc + config.alpha * np.eye(X.shape[1])
    weights = np.linalg.solve(gram, Xc.T @ (y[half_a] - y_mean))
    intercept = float(y_mean - x_means @ weights)
    knot_inputs, knot_outputs = isotonic_by_pava(
        ((X[half_b] - means) / scales) @ weights + intercept, y[half_b]
    )
    test = (data.features[test_idx] - means) / scales
    return np.interp(test @ weights + intercept, knot_inputs, knot_outputs)


def reports_by_trial_loop(
    confidences: np.ndarray, labels: np.ndarray, bins: int, buckets: int = 20
) -> list[dict]:
    """Every metric of each row of a ``(T, n)`` matrix, one row at a time.

    Per row: one stable sort, a loop over the equal-mass bins that sums each
    sorted slice, average ranks scattered back to the input order and summed
    over the positives in index order, and a ``searchsorted`` scan of the
    ``linspace`` histogram edges.  Each row gives a dict keyed like a metric
    report; its bins are ``(lower, upper, count, mean_confidence, accuracy)``.
    """
    reports = []
    for c, z in zip(np.asarray(confidences, dtype=float), np.asarray(labels, dtype=float)):
        n = c.shape[0]
        order = np.argsort(c, kind="stable")
        c_sorted, z_sorted = c[order], z[order]
        edges = [(b * n) // bins for b in range(bins + 1)]
        rows = [
            (lo, hi, hi - lo, float(c_sorted[lo:hi].sum()) / (hi - lo),
             float(z_sorted[lo:hi].sum()) / (hi - lo))
            for lo, hi in zip(edges, edges[1:])
        ]
        w = np.array([row[2] for row in rows], dtype=float) / n
        gap = np.abs(np.array([row[4] for row in rows]) - np.array([row[3] for row in rows]))
        n_pos = int(z.sum())
        n_neg = n - n_pos
        auroc = None
        if n_pos and n_neg:
            starts = np.flatnonzero(np.concatenate(([True], c_sorted[1:] != c_sorted[:-1])))
            ends = np.append(starts[1:], n)
            ranks = np.empty(n)
            ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
            u = ranks[z == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
            auroc = float(u / (n_pos * n_neg))
        bucket_edges = np.linspace(0.0, 1.0, buckets + 1)
        cuts = np.searchsorted(c_sorted, bucket_edges, side="left")
        cuts[-1] = np.searchsorted(c_sorted, bucket_edges[-1], side="right")
        reports.append({
            "ece1": float(np.sum(w * gap)),
            "ece2": float(np.sqrt(np.sum(w * gap**2))),
            "mce": float(gap.max()),
            "brier": float(np.mean((c - z) ** 2)),
            "auroc": auroc,
            "bins": rows,
            "histogram": np.diff(cuts).tolist(),
            "n": n,
        })
    return reports


def selective_by_trial_loop(
    confidences: np.ndarray, labels: np.ndarray, rates: Sequence[float], query_ids=None
) -> list[list[dict]]:
    """Each row's selective curve, one row and one rate at a time.

    Per row: sort by confidence, ties by ascending query id in Python's
    ``str`` order (a stable sort without ids), abstain on the first
    ``ceil(rate * n)`` and take plain means of both sides; an empty side
    gives None.
    """
    curves = []
    for t, (c, z) in enumerate(
        zip(np.asarray(confidences, dtype=float), np.asarray(labels, dtype=float))
    ):
        n = c.shape[0]
        if query_ids is None:
            order = np.argsort(c, kind="stable")
        else:
            ids = [str(i) for i in query_ids[t]]
            order = np.array(sorted(range(n), key=lambda i: (c[i], ids[i])), dtype=np.intp)
        z_sorted, c_sorted = z[order], c[order]

        def mean(values):
            return float(values.sum()) / values.size if values.size else None

        base = mean(z_sorted)
        points = []
        for rate in rates:
            cut = int(math.ceil(round(rate * n, 9)))
            accuracy = mean(z_sorted[cut:])
            points.append({
                "rate": float(rate),
                "abstained": cut,
                "answered": n - cut,
                "accuracy": accuracy,
                "confidence": mean(c_sorted[cut:]),
                "abstained_accuracy": mean(z_sorted[:cut]),
                "abstained_confidence": mean(c_sorted[:cut]),
                "gain": None if accuracy is None else accuracy - base,
            })
        curves.append(points)
    return curves


def aggregate_by_trial_loop(
    reports: list[dict], accuracies: list[float], curves: list[list[dict]]
) -> dict:
    """Means over trials of per-trial reports, accuracies and selective
    curves, gathered into per-trial lists: weighted bin means by ``np.dot``
    over the trials, AUROC over the trials where it is defined, and each
    selective field over the trials where it is present."""
    aurocs = [r["auroc"] for r in reports if r["auroc"] is not None]
    reliability = []
    for stats in zip(*(r["bins"] for r in reports)):
        weights = np.array([s[2] for s in stats], dtype=float)
        total = weights.sum()
        reliability.append({
            "lower": float(np.mean([s[0] for s in stats])),
            "upper": float(np.mean([s[1] for s in stats])),
            "count": float(weights.mean()),
            "mean_confidence": float(np.dot(weights, [s[3] for s in stats]) / total),
            "accuracy": float(np.dot(weights, [s[4] for s in stats]) / total),
        })
    selective = []
    for rows in zip(*curves):
        def over_trials(name):
            values = [p[name] for p in rows if p[name] is not None]
            return float(np.mean(values)) if values else None

        selective.append({
            "rate": rows[0]["rate"],
            "answered": rows[0]["answered"],
            "accuracy": over_trials("accuracy"),
            "confidence": over_trials("confidence"),
            "abstained_accuracy": over_trials("abstained_accuracy"),
            "gain": over_trials("gain"),
        })
    return {
        **{
            name: float(np.mean([r[name] for r in reports]))
            for name in ("ece1", "ece2", "mce", "brier")
        },
        "auroc": float(np.mean(aurocs)) if aurocs else None,
        "accuracy": float(np.mean(accuracies)),
        "reliability": reliability,
        "histogram": [float(v) for v in np.mean([r["histogram"] for r in reports], axis=0)],
        "selective": selective,
    }


def load_scores(path: str) -> list[dict[str, Any]]:
    """The rows of a ``conscal score`` file; a malformed or non-finite row
    raises a RecordError naming its line."""
    rows: list[dict[str, Any]] = []
    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            reason = None
            try:
                line.encode("utf-8")
                obj = json.loads(line)
                # UTF-8 cannot encode a surrogate that is not part of a pair.
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                reason = "not UTF-8 text" if exc.object is line else "unpaired surrogate escape"
            except (ValueError, RecursionError) as exc:
                reason = json_error_reason(exc)
            if reason is not None:
                raise RecordError(
                    f"{path}:{lineno}: invalid JSON ({reason})", path=path, line=lineno
                )
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
