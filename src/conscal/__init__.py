"""conscal: distill repeated-sampling agreement into a calibrated
single-pass confidence score.

The workflow: log k sampled responses per query offline, measure how often
each query's modal answer recurs (`consistency`), train a small pipeline
from response features to that agreement rate (`calibrator`), then at
deployment score one response with one forward pass.  Baselines, metrics,
evaluation protocols, and a ground-truth synthetic generator round out the
benchmark; `cli` wires it all into the `conscal` command.
"""

from .baselines import (
    PlattModel,
    answer_prob_score,
    apply_platt,
    fit_platt,
    impute_verbal,
    parse_verbal_confidence,
    token_prob_score,
)
from .calibrator import (
    CalibratorModel,
    decision_score,
    fit_isotonic,
    fit_pipeline,
    fit_ridge,
    fit_scaler,
    isotonic_predict,
    load_model,
    pava,
    predict,
    save_model,
)
from .consistency import (
    AnswerKey,
    ConsistencyTarget,
    answer_codes,
    build_target,
    extract_boxed,
    normalize_answer,
    subsample_targets,
)
from .errors import ConfigError, DataError, RecordError
from .evaluation import (
    DEFAULT_METHODS,
    EvalDataset,
    EvalResult,
    TrialConfig,
    build_dataset,
    run_trials,
    selective_curve,
    shift_eval,
    split_cal_test,
)
from .metrics import auroc, brier, compute_report, ece, equal_mass_bins, mce
from .records import (
    GenerationBatch,
    QueryRecord,
    SampleSet,
    load_generations,
    load_labels,
    load_queries,
)
from .synth import GroupShift, SynthConfig, generate, query_truth

__version__ = "0.1.0"

__all__ = [
    "AnswerKey",
    "CalibratorModel",
    "ConfigError",
    "ConsistencyTarget",
    "DEFAULT_METHODS",
    "DataError",
    "EvalDataset",
    "EvalResult",
    "GenerationBatch",
    "GroupShift",
    "PlattModel",
    "QueryRecord",
    "RecordError",
    "SampleSet",
    "SynthConfig",
    "TrialConfig",
    "answer_codes",
    "answer_prob_score",
    "apply_platt",
    "auroc",
    "brier",
    "build_dataset",
    "build_target",
    "compute_report",
    "decision_score",
    "ece",
    "equal_mass_bins",
    "extract_boxed",
    "fit_isotonic",
    "fit_pipeline",
    "fit_platt",
    "fit_ridge",
    "fit_scaler",
    "generate",
    "impute_verbal",
    "isotonic_predict",
    "load_generations",
    "load_labels",
    "load_model",
    "load_queries",
    "mce",
    "normalize_answer",
    "parse_verbal_confidence",
    "pava",
    "predict",
    "query_truth",
    "run_trials",
    "save_model",
    "selective_curve",
    "shift_eval",
    "split_cal_test",
    "subsample_targets",
    "token_prob_score",
]
