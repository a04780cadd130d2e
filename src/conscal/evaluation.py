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
of one (trials x test queries) matrix.

Correctness of a response comes from the labels file when it covers the
(query, sample) pair and otherwise falls back to matching the extracted
answer against the query's gold answers; having neither is an error.

Method identifiers:

* ``distilled``     — the trained feature calibrator, scored on deployment
                      responses;
* ``token_prob``    — exponentiated mean token log-probability;
* ``answer_prob``   — the same, restricted to the answer span;
* ``verbal_conf``   — self-stated confidence with batch-mean imputation;
* ``supervised``    — logistic recalibration of ``token_prob`` fit on
                      calibration-side correctness labels (a supervised
                      reference point, not an unsupervised competitor);
* ``tt_sc``         — test-time majority vote: confidence is the modal
                      answer's share, correctness is the modal answer's.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import seeding
from .baselines import (
    answer_prob_score,
    apply_platt,
    fit_platt,
    impute_verbal,
    parse_verbal_confidence,
    token_prob_score,
)
from .calibrator import FEATURE_SOURCES, check_fit_settings, fit_pipeline, predict
from .consistency import (
    AnswerCodes,
    AnswerKey,
    answer_codes,
    build_target,
    is_match,
    subsample_targets,
)
from .errors import ConfigError, DataError, require_integer, require_real
from .metrics import REPORT_FORMAT, ReportTable, compute_report
from .records import SampleSet, shared_batch

DEFAULT_METHODS = (
    "distilled",
    "token_prob",
    "answer_prob",
    "verbal_conf",
    "supervised",
    "tt_sc",
)
# The methods whose confidences are a precomputed EvalDataset column, and
# that column; distilled and supervised are fit per trial instead.
_COLUMNS = {
    "token_prob": "token_prob",
    "answer_prob": "answer_prob",
    "verbal_conf": "verbal_conf",
    "tt_sc": "targets_s",
}

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
    token_prob: np.ndarray
    answer_prob: np.ndarray | None
    verbal_conf: np.ndarray
    deploy_correct: np.ndarray
    tt_correct: np.ndarray

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


def feature_row(sample_set: SampleSet, feature_source: str) -> Sequence[float]:
    """The feature vector a trained calibrator consumes for one query."""
    if feature_source == "response_embedding":
        row = sample_set.batch.embedding[sample_set.rows[0]]
        if not row.size:
            raise DataError(
                f"query {sample_set.query_id}: deployment response has no embedding"
            )
        return row
    if feature_source == "question_embedding":
        row = sample_set.query.question_embedding
        if row is None or not row:
            raise DataError(f"query {sample_set.query_id}: query has no question_embedding")
        return row
    raise ConfigError(f"unknown feature_source {feature_source!r}")


def _correctness(
    z: np.ndarray | None,
    row: int,
    key: AnswerKey | None,
    query_id: str,
    sample_index: int,
    answer: str | None,
) -> float:
    if z is not None and z[row] >= 0:
        return float(z[row])
    if key is not None:
        return float(answer is not None and is_match(answer, key))
    raise DataError(
        f"query {query_id} sample {sample_index}: no correctness source "
        "(provide labels or gold_answers)"
    )


def build_dataset(
    sets: Sequence[SampleSet],
    z: np.ndarray | None = None,
    *,
    feature_source: str = "response_embedding",
) -> EvalDataset:
    """Precompute every per-query quantity the trial loop needs.

    ``z`` holds a correctness label per row of the sets' shared batch, -1
    where a row has none (as :func:`conscal.records.load_labels` returns).
    """
    if len(sets) == 0:
        raise DataError("evaluation needs at least one query with generations")
    if feature_source not in FEATURE_SOURCES:
        raise ConfigError(f"unknown feature_source {feature_source!r}")
    if z is not None and len(z) != len(shared_batch(sets)):
        raise DataError(f"z has {len(z)} entries for {len(sets[0].batch)} generation rows")
    rows: list[Sequence[float]] = []
    tp: list[float] = []
    ap: list[float] = []
    ap_missing = False
    vc_raw: list[float | None] = []
    codes: list[AnswerCodes] = []
    s_vals: list[float] = []
    deploy_z: list[float] = []
    tt_z: list[float] = []
    for sample_set in sets:
        batch, deploy = sample_set.batch, sample_set.rows[0]
        rows.append(feature_row(sample_set, feature_source))
        tp.append(token_prob_score(batch.token_row(deploy)))
        span = batch.answer_token_row(deploy)
        if span is None:
            ap_missing = True
        elif not ap_missing:
            ap.append(answer_prob_score(span))
        vc_raw.append(parse_verbal_confidence(batch.response_text[deploy]))
        coded = answer_codes(sample_set)
        codes.append(coded)
        target = build_target(coded)
        s_vals.append(target.s)
        key = (
            AnswerKey.from_gold(sample_set.query.gold_answers)
            if sample_set.query.gold_answers
            else None
        )
        deploy_code = int(coded.codes[0])
        deploy_z.append(
            _correctness(
                z, deploy, key, sample_set.query_id, coded.sample_index[0],
                coded.answers[deploy_code] if deploy_code >= 0 else None,
            )
        )
        selected = sample_set.rows[coded.sample_index.index(target.selected_sample_index)]
        tt_z.append(
            _correctness(
                z, selected, key, sample_set.query_id, target.selected_sample_index,
                target.answer,
            )
        )
    try:
        features = np.array(rows, dtype=float)
    except ValueError as exc:
        raise DataError(f"inconsistent feature dimensions across queries: {exc}") from None
    if features.ndim != 2:
        raise DataError("inconsistent feature dimensions across queries")
    return EvalDataset(
        codes=tuple(codes),
        query_ids=tuple(s.query_id for s in sets),
        groups=tuple(s.query.group for s in sets),
        feature_source=feature_source,
        features=features,
        targets_s=np.array(s_vals, dtype=float),
        token_prob=np.array(tp, dtype=float),
        answer_prob=None if ap_missing else np.array(ap, dtype=float),
        verbal_conf=np.array([v.value for v in impute_verbal(vc_raw)], dtype=float),
        deploy_correct=np.array(deploy_z, dtype=float),
        tt_correct=np.array(tt_z, dtype=float),
    )


# ---------------------------------------------------------------------------
# trial configuration and splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
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

    def validate(self) -> None:
        require_integer("n_trials", self.n_trials, 1)
        require_integer("master_seed", self.master_seed)
        require_integer("bins", self.bins, 1)
        require_real("cal_fraction", self.cal_fraction)
        check_fit_settings(self.alpha, self.split_frac)
        if not 0.0 < self.cal_fraction < 1.0:
            raise ConfigError(f"cal_fraction must be inside (0, 1), got {self.cal_fraction!r}")
        methods = self.methods
        if not isinstance(methods, (list, tuple)) or not all(isinstance(m, str) for m in methods):
            raise ConfigError(f"methods must be a list of method names, got {methods!r}")
        if not methods:
            raise ConfigError("methods must not be empty")
        unknown = [m for m in methods if m not in DEFAULT_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(sorted(unknown))}")
        if len(set(methods)) != len(methods):
            raise ConfigError("methods contains duplicates")
        if self.feature_source not in FEATURE_SOURCES:
            raise ConfigError(f"unknown feature_source {self.feature_source!r}")
        if self.k_subsample is not None:
            require_integer("k_subsample", self.k_subsample, 1)
        if not isinstance(self.selective_rates, (list, tuple)):
            raise ConfigError(f"selective_rates must be a list, got {self.selective_rates!r}")
        for r in self.selective_rates:
            require_real("abstention rate", r)
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"abstention rate must lie in [0, 1), got {r!r}")


def split_cal_test(n: int, cal_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint split over ``range(n)``; both sides sorted, size >= 2."""
    if not 0.0 < cal_fraction < 1.0:
        raise DataError(f"cal_fraction must be inside (0, 1), got {cal_fraction!r}")
    n_cal = int(np.floor(cal_fraction * n))
    n_test = n - n_cal
    if n_cal < 2 or n_test < 2:
        raise DataError(
            f"cal_fraction {cal_fraction!r} leaves too little data ({n_cal} cal / "
            f"{n_test} test of {n}); both sides need at least 2 queries"
        )
    perm = seeding.generator(seed).permutation(n)
    return np.sort(perm[:n_cal]), np.sort(perm[n_cal:])


# ---------------------------------------------------------------------------
# selective prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectivePoint:
    """One abstention rate: counts, then mean confidence and accuracy of the
    answered and abstained sides (absent when a side is empty).  For a
    ``(T, n)`` matrix of trials each mean is a ``(T,)`` array over the
    trials."""

    rate: float
    abstained: int
    answered: int
    accuracy: float | np.ndarray | None
    confidence: float | np.ndarray | None
    abstained_accuracy: float | np.ndarray | None
    abstained_confidence: float | np.ndarray | None
    gain: float | np.ndarray | None


def selective_curve(
    confidences: Any,
    labels: Any,
    rates: Sequence[float],
    query_ids: Sequence[str] | np.ndarray | None = None,
) -> list[SelectivePoint]:
    """Accuracy among answered queries after abstaining on the least
    confident ``ceil(rate * n)``.

    Ties in confidence break by ascending ``query_ids`` (original order when
    ids are not given) so the abstention set is deterministic.  ``gain`` is
    answered accuracy minus the accuracy with no abstention, exactly 0.0 at
    rate 0.  Both sides' mean confidence and accuracy are recorded; empty
    sides report them as absent.

    A ``(T, n)`` matrix of confidences, with labels and ``query_ids`` of the
    same shape, scores T trials at once, and each point's means are then
    ``(T,)`` arrays; a vector is the one-row case and gives floats.
    """
    conf = np.asarray(confidences, dtype=float)
    lab = np.asarray(labels, dtype=float)
    if conf.ndim not in (1, 2) or conf.shape != lab.shape:
        raise DataError("confidences and labels must be 1-d or (trials, n) and the same shape")
    one_row = conf.ndim == 1
    if one_row:
        conf, lab = conf[None], lab[None]
    n = conf.shape[1]
    if n == 0:
        raise DataError("selective prediction needs at least one query")
    if query_ids is None:
        order = np.argsort(conf, axis=1, kind="stable")
    else:
        ids = np.array(query_ids, dtype=str)[None] if one_row else np.asarray(query_ids)
        if ids.shape != conf.shape:
            raise DataError("query_ids must align with confidences")
        order = np.lexsort((ids, conf), axis=1)
    sorted_labels = np.take_along_axis(lab, order, axis=1)
    sorted_conf = np.take_along_axis(conf, order, axis=1)

    def mean(values: np.ndarray) -> float | np.ndarray | None:
        # Row sums over counts: the floats ndarray.mean returns per row.
        if not values.shape[1]:
            return None
        means = values.sum(axis=1) / values.shape[1]
        return float(means[0]) if one_row else means

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
    rate: float
    answered: int
    accuracy: float
    confidence: float
    abstained_accuracy: float | None
    gain: float


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


def _fitted_trial(
    data: EvalDataset,
    config: TrialConfig,
    method: str,
    tseed: int,
    cal_idx: np.ndarray,
    test_idx: np.ndarray,
) -> np.ndarray:
    """One trial's test-side confidences under ``distilled`` or
    ``supervised``, fit on that trial's calibration side."""
    if method == "supervised":
        platt = fit_platt(data.token_prob[cal_idx], data.deploy_correct[cal_idx])
        return apply_platt(platt, data.token_prob[test_idx])
    if config.k_subsample is None:
        s_cal = data.targets_s[cal_idx]
    else:
        s_cal = np.array(
            [
                subsample_targets(
                    data.codes[i],
                    config.k_subsample,
                    seed=seeding.mix(tseed, _S_SUBSAMPLE, int(i)),
                ).s
                for i in cal_idx
            ]
        )
    model = fit_pipeline(
        data.features[cal_idx],
        s_cal,
        split_frac=config.split_frac,
        seed=seeding.mix(tseed, _S_PIPELINE),
        alpha=config.alpha,
        feature_source=data.feature_source,
    )
    return predict(model, data.features[test_idx])


def _method_trials(
    data: EvalDataset,
    config: TrialConfig,
    method: str,
    tseeds: Sequence[int],
    sides: Sequence[tuple[np.ndarray, np.ndarray]],
    test: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every trial's test-side confidences under ``method`` as a ``(T,
    n_test)`` matrix, and the correctness they are judged by: the modal
    answer's for ``tt_sc``, the deployment response's for the rest.

    ``sides`` holds each trial's (cal, test) indices and ``test`` stacks
    the test sides; a precomputed column needs only one gather."""
    labels = (data.tt_correct if method == "tt_sc" else data.deploy_correct)[test]
    if method in ("distilled", "supervised"):
        rows = [
            _fitted_trial(data, config, method, tseed, cal_idx, test_idx)
            for tseed, (cal_idx, test_idx) in zip(tseeds, sides)
        ]
        return np.array(rows, dtype=float), labels
    column = getattr(data, _COLUMNS[method])
    if column is None:  # only answer_prob can be absent
        raise ConfigError(
            "answer_prob requires answer-span log-probabilities on every "
            "deployment response"
        )
    return column[test], labels


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values))


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
            accuracy=float("nan") if p.accuracy is None else _mean(p.accuracy),
            confidence=float("nan") if p.confidence is None else _mean(p.confidence),
            abstained_accuracy=(
                None if p.abstained_accuracy is None else _mean(p.abstained_accuracy)
            ),
            gain=float("nan") if p.gain is None else _mean(p.gain),
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


def _evaluate(
    data: EvalDataset,
    config: TrialConfig,
    splits: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    kind: str,
) -> EvalResult:
    """Split every trial, then score each method over all trials at once."""
    config.validate()
    if data.feature_source != config.feature_source:
        raise ConfigError(
            f"dataset was built with feature_source {data.feature_source!r} but the "
            f"trial config asks for {config.feature_source!r}"
        )
    tseeds = [seeding.mix(config.master_seed, t) for t in range(config.n_trials)]
    sides = [splits(t, tseed) for t, tseed in enumerate(tseeds)]
    n_cal, n_test = len(sides[0][0]), len(sides[0][1])
    if n_test < config.bins:
        raise DataError(
            f"test side has {n_test} queries but {config.bins} equal-mass bins "
            "need at least one query each"
        )
    test = np.stack([test_idx for _, test_idx in sides])
    test_ids = np.array(data.query_ids, dtype=str)[test] if config.selective_rates else None
    summaries = {}
    for method in config.methods:
        confidences, labels = _method_trials(data, config, method, tseeds, sides, test)
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
    """The main protocol: seeded random cal/test splits, retrained per trial."""

    def splits(t: int, tseed: int) -> tuple[np.ndarray, np.ndarray]:
        return split_cal_test(data.n, config.cal_fraction, seeding.mix(tseed, _S_SPLIT))

    return _evaluate(data, config, splits, kind="eval")


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
    train = set(train_groups)
    test = set(test_groups)
    if not train or not test:
        raise ConfigError("train_groups and test_groups must both be nonempty")
    overlap = train & test
    if overlap:
        raise ConfigError(f"groups cannot be on both sides: {', '.join(sorted(overlap))}")
    present = set(data.groups)
    missing = (train | test) - present
    if missing:
        raise ConfigError(f"unknown groups: {', '.join(sorted(missing))}")
    train_idx = np.array([i for i, g in enumerate(data.groups) if g in train], dtype=int)
    test_idx = np.array([i for i, g in enumerate(data.groups) if g in test], dtype=int)

    in_domain = run_trials(data.subset(train_idx), config)

    def splits(t: int, tseed: int) -> tuple[np.ndarray, np.ndarray]:
        return train_idx, test_idx

    shifted = _evaluate(data, config, splits, kind="shift")
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
