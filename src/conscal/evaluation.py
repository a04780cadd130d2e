"""Evaluation protocols: repeated-trial benchmarking, selective prediction,
and group-shift studies.

The unit of evaluation is the query.  Each query contributes one deployment
response — the logged generation with the lowest sample index — and the
remaining samples exist only to form agreement targets and the test-time
majority-vote baseline.  A trial splits queries into a calibration side and a
test side, fits whatever the scored methods need on the calibration side
(the distilled calibrator on agreement targets, the supervised reference on
correctness labels), scores the test side, and reports calibration metrics.
Trials differ only in their seed-derived splits; aggregation averages the
per-trial reports.  Each method's trials are scored together, as the rows
of one (trials x test queries) matrix, and a trained method is fit for
every trial at once.

Correctness of a response comes from the labels file when it covers the
(query, sample) pair and otherwise falls back to whether the extracted
answer is one of the query's normalized gold answers.  A deployment response
with neither is an error; the modal-answer sample that ``tt_sc`` is judged
by needs one only when ``tt_sc`` is scored.

Methods (this module's table, which ``conscal score`` shares):

* ``distilled`` — the trained feature calibrator on deployment responses;
* ``token_prob``, ``answer_prob``, ``verbal_conf`` — the single-pass
  baselines of :data:`SINGLE_PASS`: the geometric-mean token probability,
  the same over the answer span, and self-stated confidence with batch-mean
  imputation.  A missing answer span is an error only if ``answer_prob`` is
  scored;
* ``supervised`` — logistic recalibration of ``token_prob`` on
  calibration-side correctness labels (a reference, not a competitor);
* ``tt_sc`` — test-time majority vote: the modal answer's share, judged by
  the modal answer's correctness.

:func:`check_methods` checks a method list against the table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import seeding
from .baselines import (
    answer_probs,
    apply_platt_rows,
    fit_platt_rows,
    impute_verbal,
    parse_verbal_confidence,
    token_probs,
)
from .calibrator import FEATURE_SOURCES, check_fit_settings, fit_pipeline_rows, predict_rows
from .consistency import (
    AnswerCodes,
    answer_codes,
    build_target,
    gold_set,
    subsample_shares,
)
from .errors import ConfigError, DataError, require_integer, require_real, require_size
from .metrics import (
    REPORT_FORMAT,
    ReportTable,
    _checked_confidences,
    _checked_labels,
    compute_report,
)
from .records import GenerationBatch, SampleSets

# The single-pass methods: a column scorer over ``(batch, rows)`` each, giving
# the rows' confidences (NaN without an answer span; see require_spans) and,
# for a method that imputes, the imputed mask.  ``build_dataset`` scores the
# deployment rows with them, ``conscal score`` every row.
SINGLE_PASS: dict[str, Callable[[GenerationBatch, np.ndarray], tuple[np.ndarray, Any]]] = {
    "token_prob": lambda batch, rows: (token_probs(batch, rows), None),
    "answer_prob": lambda batch, rows: (answer_probs(batch, rows), None),
    "verbal_conf": lambda batch, rows: impute_verbal(
        [parse_verbal_confidence(batch.response_text[i]) for i in rows.tolist()]
    ),
}
# Every method, in report order; distilled and supervised are fit per trial.
DEFAULT_METHODS = ("distilled", *SINGLE_PASS, "supervised", "tt_sc")
# supervised fits on correctness labels, which ``conscal score`` does not read.
SCORE_METHODS = tuple(m for m in DEFAULT_METHODS if m != "supervised")


def check_methods(methods: Any, allowed: Sequence[str] = DEFAULT_METHODS) -> tuple[str, ...]:
    """``methods`` as a tuple; :class:`ConfigError` unless it is a nonempty
    list of distinct names from ``allowed``."""
    if not isinstance(methods, (list, tuple)) or not all(isinstance(m, str) for m in methods):
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    if not methods:
        raise ConfigError("methods must not be empty")
    unknown = sorted(set(methods) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown or unavailable methods: {', '.join(unknown)} "
            f"(choose from {', '.join(allowed)})"
        )
    if len(set(methods)) != len(methods):
        raise ConfigError("methods contains duplicates")
    return tuple(methods)


def require_spans(
    confidences: np.ndarray, query_ids: Sequence[str], sample_index: Sequence[int]
) -> None:
    """Raise :class:`DataError` for the first NaN of a single-pass column:
    that row, named by ``query_ids`` and ``sample_index``, has no answer span."""
    missing = np.isnan(confidences)
    if missing.any():
        i = int(missing.argmax())
        raise DataError(
            f"query {query_ids[i]} sample {sample_index[i]}: record lacks the "
            "answer-span log-probabilities needed by answer_prob"
        )


# Per-trial sub-stream tags (fixed forever; changing them changes all results).
_S_SPLIT = 1
_S_PIPELINE = 2
_S_SUBSAMPLE = 3


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EvalDataset:
    """Per-query arrays precomputed once so trials stay cheap.

    The generation batch is not kept: ``codes`` holds each query's answers,
    extracted once, which is all the ``k_subsample`` ablation needs.
    """

    codes: tuple[AnswerCodes, ...]
    query_ids: tuple[str, ...]
    groups: tuple[str, ...]
    feature_source: str
    features: np.ndarray
    targets_s: np.ndarray  # modal-answer share: distilled targets and tt_sc confidence
    # One column per SINGLE_PASS method, named for it.
    token_prob: np.ndarray
    answer_prob: np.ndarray  # NaN where the deployment response has no answer span
    verbal_conf: np.ndarray
    deploy_correct: np.ndarray
    tt_correct: np.ndarray  # NaN where the modal sample has no correctness source

    @property
    def n(self) -> int:
        return len(self.query_ids)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "EvalDataset":
        idx = np.asarray(indices, dtype=int)
        parts: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value[idx]
            elif isinstance(value, tuple):
                value = tuple(value[i] for i in idx)
            parts[f.name] = value
        return EvalDataset(**parts)


def feature_matrix(sets: SampleSets, feature_source: str) -> np.ndarray:
    """The ``(queries, d)`` features a trained calibrator consumes: each
    query's deployment response embedding or its question embedding."""
    if feature_source == "response_embedding":
        features = sets.batch.embedding[sets.deploy_rows]
        if len(sets) and not features.shape[1]:
            first = sets.queries[0].query_id
            raise DataError(f"query {first}: deployment response has no embedding")
        return features
    if feature_source == "question_embedding":
        missing = [q.query_id for q in sets.queries if not q.question_embedding]
        if missing:
            raise DataError(f"query {missing[0]}: query has no question_embedding")
        try:
            return np.array([q.question_embedding for q in sets.queries], dtype=float)
        except ValueError as exc:
            raise DataError(f"inconsistent feature dimensions across queries: {exc}") from None
    raise ConfigError(f"unknown feature_source {feature_source!r}")


def _correctness(
    z: np.ndarray | None, row: int, gold: frozenset[str] | None, answer: str | None
) -> float:
    """Row ``row``'s label, else whether its normalized ``answer`` is a gold
    answer, else NaN: unknown."""
    if z is not None and z[row] >= 0:
        return float(z[row])
    return math.nan if gold is None else float(answer in gold)


_NO_SOURCE = "query {} sample {}: no correctness source (provide labels or gold_answers)"


def build_dataset(
    sets: SampleSets,
    z: np.ndarray | None = None,
    *,
    feature_source: str = "response_embedding",
) -> EvalDataset:
    """Precompute every per-query quantity the trial loop needs.

    ``z`` holds a correctness label per row of ``sets.batch``, -1 where a
    row has none (as :func:`conscal.records.load_labels` returns).
    """
    if len(sets) == 0:
        raise DataError("evaluation needs at least one query with generations")
    if feature_source not in FEATURE_SOURCES:
        raise ConfigError(f"unknown feature_source {feature_source!r}")
    batch = sets.batch
    if z is not None and len(z) != len(batch):
        raise DataError(f"z has {len(z)} entries for {len(batch)} generation rows")
    features = feature_matrix(sets, feature_source)
    codes = answer_codes(sets)
    rows = sets.rows.tolist()
    s_vals: list[float] = []
    deploy_z: list[float] = []
    tt_z: list[float] = []
    for query, coded, start in zip(sets.queries, codes, sets.offsets.tolist()):
        target = build_target(coded)
        s_vals.append(target.s)
        gold = gold_set(query.gold_answers) if query.gold_answers else None
        deploy_code = int(coded.codes[0])
        deploy_answer = coded.answers[deploy_code] if deploy_code >= 0 else None
        deploy_z.append(_correctness(z, rows[start], gold, deploy_answer))
        if math.isnan(deploy_z[-1]):
            raise DataError(_NO_SOURCE.format(query.query_id, coded.sample_index[0]))
        selected = rows[start + coded.sample_index.index(target.selected_sample_index)]
        tt_z.append(_correctness(z, selected, gold, target.answer))
    deploy_rows = sets.deploy_rows
    return EvalDataset(
        codes=tuple(codes),
        query_ids=sets.query_ids,
        groups=tuple(q.group for q in sets.queries),
        feature_source=feature_source,
        features=features,
        targets_s=np.array(s_vals, dtype=float),
        **{method: score(batch, deploy_rows)[0] for method, score in SINGLE_PASS.items()},
        deploy_correct=np.array(deploy_z, dtype=float),
        tt_correct=np.array(tt_z, dtype=float),
    )


# ---------------------------------------------------------------------------
# trial configuration and splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    """Trial settings, valid once constructed: an impossible value raises
    :class:`ConfigError` from the constructor.  ``methods`` and
    ``selective_rates`` are kept as tuples, so a config is hashable."""

    n_trials: int = 200
    cal_fraction: float = 0.4
    master_seed: int = 0
    bins: int = 12
    methods: tuple[str, ...] = DEFAULT_METHODS
    feature_source: str = "response_embedding"
    k_subsample: int | None = None
    alpha: float = 1.0
    split_frac: float = 0.5
    selective_rates: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        require_size("n_trials", self.n_trials)
        require_integer("master_seed", self.master_seed)
        require_size("bins", self.bins)
        require_real("cal_fraction", self.cal_fraction)
        check_fit_settings(self.alpha, self.split_frac)
        if not 0.0 < self.cal_fraction < 1.0:
            raise ConfigError(f"cal_fraction must be inside (0, 1), got {self.cal_fraction!r}")
        object.__setattr__(self, "methods", check_methods(self.methods))
        if self.feature_source not in FEATURE_SOURCES:
            raise ConfigError(f"unknown feature_source {self.feature_source!r}")
        if self.k_subsample is not None:
            require_size("k_subsample", self.k_subsample)
        if not isinstance(self.selective_rates, (list, tuple)):
            raise ConfigError(f"selective_rates must be a list, got {self.selective_rates!r}")
        object.__setattr__(self, "selective_rates", tuple(self.selective_rates))
        for r in self.selective_rates:
            require_real("abstention rate", r)
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"abstention rate must lie in [0, 1), got {r!r}")


def split_cal_test_rows(
    n: int, cal_fraction: float, seeds: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One seeded disjoint split over ``range(n)`` per seed, as the rows of a
    ``(T, n_cal)`` and a ``(T, n_test)`` matrix; each row sorted, each side
    at least 2 wide.

    Row t splits by ``seeding.generator(seeds[t]).permutation(n)``, drawn
    from one generator reseeded per row (:func:`seeding.generators`) as
    ``permutation`` draws it, by shuffling ``arange(n)`` in place; one row
    sort per side then orders every row at once.
    """
    if not 0.0 < cal_fraction < 1.0:
        raise DataError(f"cal_fraction must be inside (0, 1), got {cal_fraction!r}")
    n_cal = int(np.floor(cal_fraction * n))
    n_test = n - n_cal
    if n_cal < 2 or n_test < 2:
        raise DataError(
            f"cal_fraction {cal_fraction!r} leaves too little data ({n_cal} cal / "
            f"{n_test} test of {n}); both sides need at least 2 queries"
        )
    perms = np.empty((len(seeds), n), dtype=np.intp)
    perms[:] = np.arange(n)
    for row, rng in zip(perms, seeding.generators(seeds)):
        rng.shuffle(row)
    return np.sort(perms[:, :n_cal], axis=1), np.sort(perms[:, n_cal:], axis=1)


def split_cal_test(n: int, cal_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint split over ``range(n)``; both sides sorted, size >= 2.
    The one-row case of :func:`split_cal_test_rows`."""
    cal, test = split_cal_test_rows(n, cal_fraction, [seed])
    return cal[0], test[0]


# ---------------------------------------------------------------------------
# selective prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectivePoint:
    """One abstention rate: counts, then mean confidence and accuracy of the
    answered and abstained sides, each a ``(T,)`` array over the T trials
    (absent when a side is empty)."""

    rate: float
    abstained: int
    answered: int
    accuracy: np.ndarray | None
    confidence: np.ndarray | None
    abstained_accuracy: np.ndarray | None
    abstained_confidence: np.ndarray | None
    gain: np.ndarray | None


def _ranks(values: Sequence[Any]) -> np.ndarray:
    """Each value's position in the stable sort of ``values``, by Python's
    own comparisons."""
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[sorted(range(len(values)), key=values.__getitem__)] = np.arange(len(values))
    return ranks


def selective_curve(
    confidences: Any,
    labels: Any,
    rates: Sequence[float],
    query_ids: Sequence[str] | np.ndarray | None = None,
) -> list[SelectivePoint]:
    """Accuracy among answered queries after abstaining on the least
    confident ``ceil(rate * n)``.

    Ties in confidence break by ascending ``query_ids`` (original order when
    ids are not given) so the abstention set is deterministic: strings in
    Python's ``str`` order, through their ranks (numpy's ``str`` dtype would
    drop trailing NULs), and an integer array numerically, so a caller may
    pass ranks it took once (as :func:`run_trials` does).  ``gain`` is
    answered accuracy minus the accuracy with no abstention, exactly 0.0 at
    rate 0.  Both sides' mean confidence and accuracy are recorded; empty
    sides report them as absent.

    Scores the T trials of a ``(T, n)`` matrix of confidences, with labels
    and ``query_ids`` of the same shape, at once: each point's means are
    ``(T,)`` arrays.  A vector is one trial and gives ``(1,)`` arrays.
    Confidences and labels are checked as :func:`metrics.compute_report`
    checks them.
    """
    c = _checked_confidences(confidences, rows=True)
    z = _checked_labels(labels, c.shape)
    if query_ids is None:
        order = np.argsort(c, axis=-1, kind="stable")
    else:
        keys = query_ids
        if not (isinstance(keys, np.ndarray) and keys.dtype.kind in "iu"):
            ids = np.asarray(query_ids, dtype=object)
            keys = _ranks(ids.ravel().tolist()).reshape(ids.shape)
        if keys.shape != c.shape:
            raise DataError("query_ids must align with confidences")
        order = np.lexsort((keys, c), axis=-1)
    n = c.shape[-1]
    sorted_labels = np.atleast_2d(np.take_along_axis(z, order, axis=-1))
    sorted_conf = np.atleast_2d(np.take_along_axis(c, order, axis=-1))

    def mean(values: np.ndarray) -> np.ndarray | None:
        # Row sums over counts: the floats ndarray.mean returns per row.
        return values.sum(axis=1) / values.shape[1] if values.shape[1] else None

    base_accuracy = mean(sorted_labels)
    points: list[SelectivePoint] = []
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise DataError(f"abstention rate must lie in [0, 1), got {rate!r}")
        abstained = int(math.ceil(round(rate * n, 9)))
        accuracy = mean(sorted_labels[:, abstained:])
        points.append(
            SelectivePoint(
                rate=float(rate),
                abstained=abstained,
                answered=n - abstained,
                accuracy=accuracy,
                confidence=mean(sorted_conf[:, abstained:]),
                abstained_accuracy=mean(sorted_labels[:, :abstained]),
                abstained_confidence=mean(sorted_conf[:, :abstained]),
                gain=None if accuracy is None else accuracy - base_accuracy,
            )
        )
    return points


@dataclass(frozen=True)
class SelectiveSummary:
    """One abstention rate's means over the trials; an empty side's means
    are None."""

    rate: float
    answered: int
    accuracy: float | None
    confidence: float | None
    abstained_accuracy: float | None
    gain: float | None


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSummary:
    method: str
    ece1: float
    ece2: float
    mce: float
    brier: float
    auroc: float | None
    accuracy: float
    reliability: tuple[dict[str, float], ...]
    histogram: tuple[float, ...]
    per_trial: ReportTable
    selective: tuple[SelectiveSummary, ...] = ()


@dataclass(frozen=True)
class EvalResult:
    kind: str
    n_queries: int
    n_cal: int
    n_test: int
    n_trials: int
    bins: int
    feature_source: str
    methods: dict[str, MethodSummary] = field(default_factory=dict)


def _require_sources(data: EvalDataset, methods: Sequence[str]) -> None:
    """Raise :class:`DataError` unless every column the methods score is
    whole: an answer span for each deployment response under ``answer_prob``,
    a correctness source for each modal sample under ``tt_sc``.  Checked over
    every query, so the error does not depend on the splits.  The methods
    are checked in their listed order, so the first faulty one is named."""
    for method in methods:
        if method in SINGLE_PASS:
            column = getattr(data, method)
            require_spans(column, data.query_ids, [c.sample_index[0] for c in data.codes])
        elif method == "tt_sc" and np.isnan(data.tt_correct).any():
            i = int(np.isnan(data.tt_correct).argmax())
            sample = build_target(data.codes[i]).selected_sample_index
            raise DataError(_NO_SOURCE.format(data.query_ids[i], sample))


def _distilled_targets(
    data: EvalDataset, config: TrialConfig, tseeds: Sequence[int] | np.ndarray, cal: np.ndarray
) -> np.ndarray:
    """Each trial's calibration-side targets as a ``(T, n_cal)`` matrix: the
    modal shares, or under ``k_subsample`` the shares among k samples drawn
    per query and trial."""
    k = config.k_subsample
    # A draw of k from a set of k samples is the whole set, and build_dataset
    # refused every set without an answer, so no such draw can fail.
    if k is None or all(c.codes.size == k for c in data.codes):
        return data.targets_s[cal]
    # Every (trial, query) seed in one fold and every draw in one call,
    # trial-major, so the first failing trial, then query, names the error.
    seeds = seeding.mix_each(seeding.words(tseeds)[:, None], _S_SUBSAMPLE, cal)
    rows = [data.codes[i] for i in cal.ravel().tolist()]
    return subsample_shares(rows, k, seeds.ravel()).reshape(cal.shape)


def _method_trials(
    data: EvalDataset,
    config: TrialConfig,
    method: str,
    tseeds: Sequence[int] | np.ndarray,
    cal: np.ndarray,
    test: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every trial's test-side confidences under ``method`` as a ``(T,
    n_test)`` matrix, and the correctness they are judged by: the modal
    answer's for ``tt_sc``, the deployment response's for the rest.

    ``cal`` and ``test`` stack the trials' calibration and test sides; a
    precomputed column needs one gather, and a trained method one batched
    fit over every trial's calibration side."""
    if method == "tt_sc":
        return data.targets_s[test], data.tt_correct[test]
    labels = data.deploy_correct[test]
    if method in SINGLE_PASS:
        return getattr(data, method)[test], labels
    if method == "supervised":
        slopes, biases = fit_platt_rows(data.token_prob[cal], data.deploy_correct[cal])
        return apply_platt_rows(slopes, biases, data.token_prob[test]), labels
    models = fit_pipeline_rows(
        data.features,
        cal,
        _distilled_targets(data, config, tseeds, cal),
        split_frac=config.split_frac,
        seeds=seeding.mix_each(tseeds, _S_PIPELINE),
        alpha=config.alpha,
        feature_source=data.feature_source,
    )
    return predict_rows(models, data.features, test), labels


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values))


def _mean_if_any(values: np.ndarray | None) -> float | None:
    return None if values is None else _mean(values)


def _aggregate(
    method: str,
    reports: ReportTable,
    labels: np.ndarray,
    selective: Sequence[SelectivePoint],
) -> MethodSummary:
    """Means over the trials: ``reports`` and ``selective`` score the rows
    of the ``(T, n_test)`` matrix ``labels``.  Each mean reads a contiguous
    ``(T,)`` column, as ``np.mean`` of a per-trial list would."""
    aurocs = reports.auroc[~np.isnan(reports.auroc)]
    trials = len(reports)
    reliability: list[dict[str, float]] = []
    for b, (lo, hi) in enumerate(reports.spans):
        weights = np.full(trials, hi - lo, dtype=float)
        total = weights.sum()
        reliability.append(
            {
                "lower": float(lo),
                "upper": float(hi),
                "count": float(hi - lo),
                "mean_confidence": float(
                    np.dot(weights, np.ascontiguousarray(reports.mean_confidence[:, b])) / total
                ),
                "accuracy": float(
                    np.dot(weights, np.ascontiguousarray(reports.accuracy[:, b])) / total
                ),
            }
        )
    selective_rows = tuple(
        SelectiveSummary(
            rate=p.rate,
            answered=p.answered,
            accuracy=_mean_if_any(p.accuracy),
            confidence=_mean_if_any(p.confidence),
            abstained_accuracy=_mean_if_any(p.abstained_accuracy),
            gain=_mean_if_any(p.gain),
        )
        for p in selective
    )
    return MethodSummary(
        method=method,
        ece1=_mean(reports.ece1),
        ece2=_mean(reports.ece2),
        mce=_mean(reports.mce),
        brier=_mean(reports.brier),
        auroc=_mean(aurocs) if aurocs.size else None,
        accuracy=_mean(labels.mean(axis=1)),
        reliability=tuple(reliability),
        histogram=tuple(reports.histogram.mean(axis=0).tolist()),
        per_trial=reports,
        selective=selective_rows,
    )


def _trial_seeds(config: TrialConfig) -> np.ndarray:
    """Trial t's seed ``mix(master_seed, t)`` for every trial, in one fold."""
    return seeding.mix_each(config.master_seed, np.arange(config.n_trials))


def _evaluate(
    data: EvalDataset, config: TrialConfig, cal: np.ndarray, test: np.ndarray, kind: str
) -> EvalResult:
    """Check every method's data, then score each method over all trials at
    once.  Row t of ``cal`` and ``test`` is trial t's calibration and test
    side; the fits seed from the trials' seeds, :func:`_trial_seeds`.

    The selective curves break confidence ties by query id: the ids are
    ranked once, in Python's ``str`` order, and the test sides' ranks are
    passed as integer keys."""
    n_cal, n_test = cal.shape[1], test.shape[1]
    if n_test < config.bins:
        raise DataError(
            f"test side has {n_test} queries but {config.bins} equal-mass bins "
            "need at least one query each"
        )
    _require_sources(data, config.methods)
    tseeds = _trial_seeds(config)
    test_ids = _ranks(data.query_ids)[test] if config.selective_rates else None
    summaries = {}
    for method in config.methods:
        confidences, labels = _method_trials(data, config, method, tseeds, cal, test)
        summaries[method] = _aggregate(
            method,
            compute_report(confidences, labels, bins=config.bins),
            labels,
            selective_curve(confidences, labels, config.selective_rates, query_ids=test_ids)
            if config.selective_rates
            else (),
        )
    return EvalResult(
        kind=kind,
        n_queries=data.n,
        n_cal=n_cal,
        n_test=n_test,
        n_trials=config.n_trials,
        bins=config.bins,
        feature_source=config.feature_source,
        methods=summaries,
    )


def run_trials(data: EvalDataset, config: TrialConfig) -> EvalResult:
    """The main protocol: seeded random cal/test splits, retrained per trial.

    Trial t splits by the seed ``mix(mix(master_seed, t), _S_SPLIT)``; every
    trial's seed comes from one fold and every split from
    :func:`split_cal_test_rows`."""
    if data.feature_source != config.feature_source:
        raise ConfigError(
            f"dataset was built with feature_source {data.feature_source!r} but the "
            f"trial config asks for {config.feature_source!r}"
        )
    cal, test = split_cal_test_rows(
        data.n, config.cal_fraction, seeding.mix_each(_trial_seeds(config), _S_SPLIT)
    )
    return _evaluate(data, config, cal, test, kind="eval")


def check_groups(train_groups: Sequence[str], test_groups: Sequence[str]) -> None:
    """Raise :class:`ConfigError` unless both sides name a group and no
    group is on both, as :func:`shift_eval` requires."""
    train, test = set(train_groups), set(test_groups)
    if not train or not test:
        raise ConfigError("train_groups and test_groups must both be nonempty")
    overlap = train & test
    if overlap:
        raise ConfigError(f"groups cannot be on both sides: {', '.join(sorted(overlap))}")


def shift_eval(
    data: EvalDataset,
    config: TrialConfig,
    train_groups: Sequence[str],
    test_groups: Sequence[str],
) -> dict[str, EvalResult]:
    """Out-of-domain protocol: calibrate on some groups, test on others.

    Returns ``{"in_domain": ..., "shifted": ...}``.  The in-domain arm runs
    the random-split protocol inside the training groups; the shifted arm
    keeps the group split fixed and varies only fitting randomness across
    trials.
    """
    check_groups(train_groups, test_groups)
    train, test = set(train_groups), set(test_groups)
    present = set(data.groups)
    missing = (train | test) - present
    if missing:
        raise ConfigError(f"unknown groups: {', '.join(sorted(missing))}")
    train_idx = np.array([i for i, g in enumerate(data.groups) if g in train], dtype=int)
    test_idx = np.array([i for i, g in enumerate(data.groups) if g in test], dtype=int)

    # run_trials checks the feature source, which the shifted arm shares.
    in_domain = run_trials(data.subset(train_idx), config)
    fixed = [np.broadcast_to(idx, (config.n_trials, idx.size)) for idx in (train_idx, test_idx)]
    shifted = _evaluate(data, config, *fixed, kind="shift")
    return {"in_domain": in_domain, "shifted": shifted}


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _method_object(summary: MethodSummary) -> dict[str, Any]:
    return {
        "ece1": summary.ece1,
        "ece2": summary.ece2,
        "mce": summary.mce,
        "brier": summary.brier,
        "auroc": summary.auroc,
        "accuracy": summary.accuracy,
        "reliability": list(summary.reliability),
        "histogram": list(summary.histogram),
        "selective": [asdict(row) for row in summary.selective],
    }


def report_document(result: EvalResult, config_echo: Mapping[str, Any]) -> dict[str, Any]:
    """The JSON report body; ``config_echo`` records the exact run settings."""
    return {
        "format": REPORT_FORMAT,
        "kind": result.kind,
        "config": dict(config_echo),
        "n_queries": result.n_queries,
        "n_cal": result.n_cal,
        "n_test": result.n_test,
        "n_trials": result.n_trials,
        "bins": result.bins,
        "feature_source": result.feature_source,
        "methods": {m: _method_object(s) for m, s in result.methods.items()},
    }


def trial_table(result: EvalResult) -> str:
    """Per-trial metrics as a TSV table (one row per trial x method)."""
    lines = ["trial\tmethod\tece1\tece2\tmce\tbrier\tauroc"]
    for method, summary in result.methods.items():
        table = summary.per_trial
        columns = zip(
            table.ece1.tolist(), table.ece2.tolist(), table.mce.tolist(),
            table.brier.tolist(), table.auroc.tolist(),
        )
        for t, (ece1, ece2, mce, brier, auroc) in enumerate(columns):
            auroc_text = "" if math.isnan(auroc) else f"{auroc:.6f}"
            lines.append(
                f"{t}\t{method}\t{ece1:.6f}\t{ece2:.6f}\t{mce:.6f}\t{brier:.6f}\t{auroc_text}"
            )
    return "\n".join(lines) + "\n"


def config_echo(config: TrialConfig, **extra: Any) -> dict[str, Any]:
    """A JSON-friendly snapshot of the trial settings for report headers."""
    echo = {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in asdict(config).items()
    }
    if not config.selective_rates:
        del echo["selective_rates"]
    echo.update(extra)
    return echo
