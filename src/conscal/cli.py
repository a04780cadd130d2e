"""Command-line interface.

Subcommands::

    conscal synth      write a synthetic dataset (queries/generations/labels/truth)
    conscal validate   check record files, printing every problem found
    conscal targets    build agreement targets from logged generations
    conscal train      fit the calibrator and save the model artifact
    conscal score      score deployment responses with trained/baseline methods
    conscal eval       repeated-trial benchmark with metric reports
    conscal selective  abstention curves averaged over trials
    conscal shift      train on some groups, test on others

Exit codes: 0 success, 1 data problems (malformed records, impossible values,
failed validation), 2 usage and I/O problems (bad flags, unknown names,
unreadable paths).

Every command writes its outputs under ``--out`` (default: a fresh
``runs/<timestamp>-<confighash>`` directory) with fixed file names, plus a
``config.json`` echoing the fully resolved settings.  File contents are
deterministic given the same inputs and seed; rerunning with the same
``--out`` reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Any, Sequence

import numpy as np

from . import baselines, calibrator, consistency, evaluation, records, seeding, synth
from .errors import ConfigError, DataError, json_error_reason

_SCORE_METHODS = ("distilled", "token_prob", "answer_prob", "verbal_conf", "tt_sc")


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _read_json(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: invalid JSON ({json_error_reason(exc)})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


def _write_json(path: str, obj: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def _out_dir(args: argparse.Namespace, config_obj: dict[str, Any]) -> str:
    if args.out:
        out = args.out
    else:
        digest = hashlib.sha256(
            json.dumps(config_obj, sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out = os.path.join("runs", f"{stamp}-{digest}")
    os.makedirs(out, exist_ok=True)
    return out


def _csv(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    return [part for part in items if part]


def _parse_methods(text: str | None, allowed: Sequence[str]) -> tuple[str, ...]:
    if text is None:
        return tuple(allowed)
    names = _csv(text)
    if not names:
        raise ConfigError("--methods must name at least one method")
    unknown = [m for m in names if m not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown or unavailable methods: {', '.join(unknown)} "
            f"(choose from {', '.join(allowed)})"
        )
    if len(set(names)) != len(names):
        raise ConfigError("--methods contains duplicates")
    return tuple(names)


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in _csv(text))
    except ValueError as exc:
        raise ConfigError(f"--rates must be comma-separated numbers: {exc}") from None
    if not rates:
        raise ConfigError("--rates must name at least one abstention rate")
    return rates


def _load_sets(args: argparse.Namespace) -> list[records.SampleSet]:
    queries = records.load_queries(args.queries)
    return records.load_generations(args.generations, queries)


def _load_labels(path: str | None, sets: Sequence[records.SampleSet]) -> np.ndarray | None:
    if path is None:
        return None
    return records.load_labels(path, sets)


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------


def _synth_config(args: argparse.Namespace) -> synth.SynthConfig:
    preset = synth.PRESETS.get(args.preset)
    if preset is None:
        raise ConfigError(
            f"unknown preset {args.preset!r} (choose from {', '.join(sorted(synth.PRESETS))})"
        )
    overrides: dict[str, Any] = {}
    if args.config:
        file_cfg = _read_json(args.config)
        allowed = {f.name for f in dataclasses.fields(synth.SynthConfig)}
        unknown = set(file_cfg) - allowed
        if unknown:
            raise ConfigError(f"unknown synth config keys: {', '.join(sorted(unknown))}")
        shift = file_cfg.get("group_shift")
        if shift is not None:
            if not isinstance(shift, dict):
                raise ConfigError("group_shift must be an object")
            try:
                file_cfg["group_shift"] = synth.GroupShift(**shift)
            except TypeError as exc:
                raise ConfigError(f"bad group_shift: {exc}") from None
        overrides.update(file_cfg)
    kwargs: dict[str, Any] = dict(overrides)
    if args.n_queries is not None:
        kwargs["n_queries"] = args.n_queries
    if args.k is not None:
        kwargs["k"] = args.k
    kwargs["seed"] = args.seed
    try:
        config = preset(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad synth configuration: {exc}") from None
    config.validate()
    return config


def _trial_config(args: argparse.Namespace, **extra: Any) -> evaluation.TrialConfig:
    base: dict[str, Any] = {}
    if getattr(args, "config", None):
        file_cfg = _read_json(args.config)
        allowed = {f.name for f in dataclasses.fields(evaluation.TrialConfig)}
        unknown = set(file_cfg) - allowed
        if unknown:
            raise ConfigError(f"unknown trial config keys: {', '.join(sorted(unknown))}")
        for key in ("methods", "selective_rates"):
            if key in file_cfg and isinstance(file_cfg[key], list):
                file_cfg[key] = tuple(file_cfg[key])
        base.update(file_cfg)
    if args.trials is not None:
        base["n_trials"] = args.trials
    if args.cal_frac is not None:
        base["cal_fraction"] = args.cal_frac
    if args.bins is not None:
        base["bins"] = args.bins
    if args.seed is not None:
        base["master_seed"] = args.seed
    if args.methods is not None:
        base["methods"] = _parse_methods(args.methods, evaluation.DEFAULT_METHODS)
    if args.feature_source is not None:
        base["feature_source"] = args.feature_source
    if args.k is not None:
        base["k_subsample"] = args.k
    base.update(extra)
    try:
        config = evaluation.TrialConfig(**base)
    except TypeError as exc:
        raise ConfigError(f"bad trial configuration: {exc}") from None
    config.validate()
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config = _synth_config(args)
    config_obj = {"command": "synth", "preset": args.preset, **dataclasses.asdict(config)}
    out = _out_dir(args, config_obj)
    queries, generations, z = synth.generate(config)
    records.write_queries(os.path.join(out, "queries.jsonl"), queries)
    records.write_generations(os.path.join(out, "generations.jsonl"), generations)
    records.write_labels(os.path.join(out, "labels.jsonl"), generations, z)
    truths = synth.write_truth(os.path.join(out, "truth.jsonl"), config, queries)
    _write_json(os.path.join(out, "config.json"), config_obj)
    mean_pi = sum(t.pi for t in truths) / len(truths)
    accuracy = int(z.sum()) / len(z)
    print(
        f"wrote {len(queries)} queries x {config.k} samples to {out} "
        f"(mean pi {mean_pi:.4f}, sample accuracy {accuracy:.4f})"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = records.validate_files(
        args.queries, generations_path=args.generations, labels_path=args.labels
    )
    for diag in diagnostics:
        where = diag.path if diag.line is None else f"{diag.path}:{diag.line}"
        print(f"{where}: {diag.message}", file=sys.stderr)
    if diagnostics:
        print(f"FAIL: {len(diagnostics)} problem(s) found")
        return 1
    print("OK: records are valid")
    return 0


def cmd_targets(args: argparse.Namespace) -> int:
    sets = _load_sets(args)
    config_obj = {
        "command": "targets",
        "queries": args.queries,
        "generations": args.generations,
        "k_subsample": args.k,
        "seed": args.seed,
    }
    out = _out_dir(args, config_obj)
    targets = []
    warnings = 0
    for position, sample_set in enumerate(sets):
        coded = consistency.answer_codes(sample_set)
        try:
            if args.k is None:
                targets.append(consistency.build_target(coded))
            else:
                targets.append(
                    consistency.subsample_targets(
                        coded, args.k, seed=seeding.mix(args.seed, position)
                    )
                )
        except DataError as exc:
            warnings += 1
            print(f"warning: skipping {sample_set.query_id}: {exc}", file=sys.stderr)
    consistency.write_targets(os.path.join(out, "targets.jsonl"), targets)
    _write_json(os.path.join(out, "config.json"), config_obj)
    print(f"wrote {len(targets)} targets to {out} ({warnings} warning(s))")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    sets = _load_sets(args)
    if args.targets:
        loaded = consistency.load_targets(args.targets)
        by_query = {t.query_id: t for t in loaded}
        known = {s.query_id for s in sets}
        foreign = sorted(set(by_query) - known)
        if foreign:
            raise DataError(
                f"targets reference {len(foreign)} unknown queries (first: {foreign[0]})"
            )
        missing = sorted(known - set(by_query))
        if missing:
            raise DataError(
                f"targets missing for {len(missing)} queries (first: {missing[0]})"
            )
        s_values = [by_query[s.query_id].s for s in sets]
    else:
        s_values = [consistency.build_target(consistency.answer_codes(s)).s for s in sets]
    features = [evaluation.feature_row(s, args.feature_source) for s in sets]
    config_obj = {
        "command": "train",
        "queries": args.queries,
        "generations": args.generations,
        "targets": args.targets,
        "feature_source": args.feature_source,
        "alpha": args.alpha,
        "split_frac": args.split_frac,
        "seed": args.seed,
    }
    out = _out_dir(args, config_obj)
    model = calibrator.fit_pipeline(
        features,
        s_values,
        split_frac=args.split_frac,
        seed=args.seed,
        alpha=args.alpha,
        feature_source=args.feature_source,
    )
    calibrator.save_model(os.path.join(out, "model.json"), model)
    _write_json(os.path.join(out, "config.json"), config_obj)
    print(f"trained on {len(sets)} queries; model written to {out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    """Score every generation with each method (tt_sc scores per query)."""
    methods = _parse_methods(args.methods, _SCORE_METHODS)
    sets = _load_sets(args)
    model = None
    if "distilled" in methods:
        if not args.model:
            raise ConfigError("scoring the distilled method requires --model")
        model = calibrator.load_model(args.model)
    config_obj = {
        "command": "score",
        "queries": args.queries,
        "generations": args.generations,
        "model": args.model,
        "methods": list(methods),
    }
    out = _out_dir(args, config_obj)
    # The sets index one loaded batch; score rows follow set order.
    positions = [i for s in sets for i in s.rows]
    keys = [(s.query_id, s.batch.sample_index[i]) for s in sets for i in s.rows]
    rows: list[dict[str, Any]] = []
    for method in methods:
        if not positions:
            break
        batch = sets[0].batch
        imputed: list[bool | None] = [None] * len(positions)
        if method == "distilled":
            assert model is not None
            if model.feature_source == "question_embedding":
                features: Any = [
                    evaluation.feature_row(s, model.feature_source)
                    for s in sets
                    for _ in s.rows
                ]
            else:
                features = batch.embedding[positions]
                expected = int(model.scaler.means.shape[0])
                if features.shape[1] != expected:
                    raise DataError(
                        f"query {keys[0][0]} sample {keys[0][1]}: embedding has "
                        f"{features.shape[1]} dimensions, model expects {expected}"
                    )
            confidences = [
                float(v) for v in np.atleast_1d(calibrator.predict(model, features))
            ]
        elif method == "token_prob":
            confidences = [baselines.token_prob_score(batch.token_row(i)) for i in positions]
        elif method == "answer_prob":
            confidences = []
            for (query_id, sample_index), i in zip(keys, positions):
                span = batch.answer_token_row(i)
                if span is None:
                    raise DataError(
                        f"query {query_id} sample {sample_index}: record lacks the "
                        "answer-span log-probabilities needed by answer_prob"
                    )
                confidences.append(baselines.answer_prob_score(span))
        elif method == "verbal_conf":
            raw = [baselines.parse_verbal_confidence(batch.response_text[i]) for i in positions]
            verbal = baselines.impute_verbal(raw)
            confidences = [vc.value for vc in verbal]
            imputed = [vc.imputed for vc in verbal]
        else:  # tt_sc
            for s in sets:
                share = consistency.build_target(consistency.answer_codes(s)).s
                rows.append({"query_id": s.query_id, "method": method, "confidence": share})
            continue
        # write_scores leaves out an "imputed" of None.
        rows.extend(
            {"query_id": query_id, "sample_index": sample_index, "method": method,
             "confidence": confidence, "imputed": flag}
            for (query_id, sample_index), confidence, flag in zip(keys, confidences, imputed)
        )
    baselines.write_scores(os.path.join(out, "scores.jsonl"), rows)
    _write_json(os.path.join(out, "config.json"), config_obj)
    print(f"wrote {len(rows)} score rows ({len(methods)} methods) to {out}")
    return 0


def _eval_command(args: argparse.Namespace, kind: str) -> int:
    extra: dict[str, Any] = {}
    if kind == "selective":
        extra["selective_rates"] = _parse_rates(args.rates)
    config = _trial_config(args, **extra)
    if kind in ("eval", "selective") and args.labels is None:
        raise ConfigError(f"the {kind} command needs --labels (correctness per sample)")
    sets = _load_sets(args)
    z = _load_labels(args.labels, sets)
    data = evaluation.build_dataset(sets, z, feature_source=config.feature_source)
    config_obj = {
        "command": kind,
        "queries": args.queries,
        "generations": args.generations,
        "labels": args.labels,
        **evaluation.config_echo(config),
    }
    if kind == "shift":
        train_groups = _csv(args.train_groups)
        test_groups = _csv(args.test_groups)
        config_obj["train_groups"] = train_groups
        config_obj["test_groups"] = test_groups
    out = _out_dir(args, config_obj)
    if kind == "shift":
        results = evaluation.shift_eval(data, config, train_groups, test_groups)
        arm_echo = evaluation.config_echo(
            config, train_groups=train_groups, test_groups=test_groups
        )
        document = {
            "format": evaluation.REPORT_FORMAT,
            "kind": "shift",
            "config": config_obj,
            "in_domain": evaluation.report_document(results["in_domain"], arm_echo),
            "shifted": evaluation.report_document(results["shifted"], arm_echo),
        }
        _write_json(os.path.join(out, "report.json"), document)
        with open(os.path.join(out, "trials.tsv"), "w", encoding="utf-8") as handle:
            handle.write(evaluation.trial_table(results["shifted"]))
        headline = results["shifted"]
    else:
        result = evaluation.run_trials(data, config)
        if kind == "selective":
            result = dataclasses.replace(result, kind="selective")
        document = evaluation.report_document(result, config_obj)
        _write_json(os.path.join(out, "report.json"), document)
        with open(os.path.join(out, "trials.tsv"), "w", encoding="utf-8") as handle:
            handle.write(evaluation.trial_table(result))
        headline = result
    _write_json(os.path.join(out, "config.json"), config_obj)
    summary = ", ".join(
        f"{m}: ece1={s.ece1:.4f}" for m, s in headline.methods.items()
    )
    print(f"{kind} over {headline.n_trials} trials ({headline.n_queries} queries) -> {out}")
    print(summary)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    return _eval_command(args, "eval")


def cmd_selective(args: argparse.Namespace) -> int:
    return _eval_command(args, "selective")


def cmd_shift(args: argparse.Namespace) -> int:
    return _eval_command(args, "shift")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_data_flags(parser: argparse.ArgumentParser, *, labels: bool = True) -> None:
    parser.add_argument("--queries", required=True, help="queries JSONL file")
    parser.add_argument("--generations", required=True, help="generations JSONL file")
    if labels:
        parser.add_argument("--labels", default=None, help="correctness labels JSONL file")


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON file of trial settings")
    parser.add_argument("--trials", type=int, default=None, help="number of trials")
    parser.add_argument("--cal-frac", type=float, default=None, help="calibration fraction")
    parser.add_argument("--bins", type=int, default=None, help="equal-mass bin count")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--methods", default=None, help="comma-separated method ids")
    parser.add_argument(
        "--feature-source",
        default=None,
        choices=calibrator.FEATURE_SOURCES,
        help="which embedding the calibrator consumes",
    )
    parser.add_argument(
        "--k", type=int, default=None, help="subsample each query to k samples for targets"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conscal",
        description="Distill sampling agreement into a single-pass confidence score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset with known truth")
    p.add_argument("--preset", default="benchmark", help="benchmark, premise, or shift")
    p.add_argument("--n-queries", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="samples per query")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="check record files for problems")
    p.add_argument("--queries", required=True)
    p.add_argument("--generations", default=None)
    p.add_argument("--labels", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("targets", help="build agreement targets from generations")
    _add_data_flags(p, labels=False)
    p.add_argument("--k", type=int, default=None, help="subsample each query to k samples")
    p.add_argument("--seed", type=int, default=0, help="subsampling seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("train", help="fit the calibrator and save its artifact")
    _add_data_flags(p, labels=False)
    p.add_argument("--targets", default=None, help="precomputed targets JSONL file")
    p.add_argument(
        "--feature-source", default="response_embedding", choices=calibrator.FEATURE_SOURCES
    )
    p.add_argument("--alpha", type=float, default=1.0, help="ridge strength")
    p.add_argument("--split-frac", type=float, default=0.5, help="isotonic holdout fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score deployment responses")
    _add_data_flags(p, labels=False)
    p.add_argument("--model", default=None, help="model artifact from `conscal train`")
    p.add_argument(
        "--methods",
        default=None,
        help=f"comma-separated subset of: {', '.join(_SCORE_METHODS)}",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="repeated-trial benchmark")
    _add_data_flags(p)
    _add_trial_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selective", help="abstention curves averaged over trials")
    _add_data_flags(p)
    _add_trial_flags(p)
    p.add_argument("--rates", default="0.1,0.2,0.3,0.5", help="comma-separated rates in [0,1)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_selective)

    p = sub.add_parser("shift", help="calibrate on some groups, test on others")
    _add_data_flags(p)
    _add_trial_flags(p)
    p.add_argument("--train-groups", required=True, help="comma-separated group names")
    p.add_argument("--test-groups", required=True, help="comma-separated group names")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shift)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
