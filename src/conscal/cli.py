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
``--out`` reproduces byte-identical files.  A command checks its settings
and reads its inputs before it creates the directory, so a rejected run
leaves none behind; ``synth`` draws its dataset as it writes it.  A failed
write leaves none of the command's file names (see :func:`_publish`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import calibrator, consistency, evaluation, records, seeding, synth
from .errors import ConfigError, DataError, require_size

_SELECTIVE_RATES = (0.1, 0.2, 0.3, 0.5)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _check_utf8(args: argparse.Namespace) -> None:
    """Reject an argument that is not UTF-8 (the OS hands such bytes over as
    lone surrogates), which the JSON writers could not echo."""
    for name, value in vars(args).items():
        try:
            if isinstance(value, str):
                value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"--{name.replace('_', '-')} is not UTF-8: {value!r}") from None


def _publish(
    args: argparse.Namespace,
    config_obj: dict[str, Any],
    writers: dict[str | tuple[str, ...], Callable[..., Any]],
) -> str:
    """Into ``--out`` (default: a fresh ``runs/<timestamp>-<confighash>``),
    call each writer of ``writers`` with the path of its file name, or of
    each of its tuple of names, then write ``config.json``; return the
    directory.  If a writer raises, every file of those names goes, and so
    does the directory if this call created it."""
    out = args.out
    if not out:
        digest = hashlib.sha256(
            json.dumps(config_obj, sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out = os.path.join("runs", f"{stamp}-{digest}")
    created = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)
    named = [
        ((names,) if isinstance(names, str) else names, write)
        for names, write in {
            **writers, "config.json": lambda path: records.write_json(path, config_obj)
        }.items()
    ]
    try:
        for names, write in named:
            write(*(os.path.join(out, name) for name in names))
    except BaseException:
        for names, _ in named:
            for name in names:
                with contextlib.suppress(OSError):  # a directory, say, is not ours to remove
                    os.remove(os.path.join(out, name))
        if created:
            with contextlib.suppress(OSError):
                os.rmdir(out)
        raise
    return out


def _check_size_flags(args: argparse.Namespace, *names: str) -> None:
    """Raise :class:`ConfigError` naming the flag for each of ``names`` that
    is set to a size outside 1 to ``MAX_SIZE`` (the config it fills checks
    the same bound, but names the setting)."""
    for name in names:
        value = getattr(args, name)
        if value is not None:
            require_size(f"--{name.replace('_', '-')}", value)


def _csv(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    return [part for part in items if part]


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in _csv(text))
    except ValueError as exc:
        raise ConfigError(f"--rates must be comma-separated numbers: {exc}") from None
    if not rates:
        raise ConfigError("--rates must name at least one abstention rate")
    return rates


def _load_sets(args: argparse.Namespace) -> records.SampleSets:
    queries = records.load_queries(args.queries)
    return records.load_generations(args.generations, queries)


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------


def _settings(
    path: str | None, kind: str, cls: type, flags: dict[str, Any]
) -> dict[str, Any]:
    """The ``--config`` file's settings for the dataclass ``cls`` with the
    ``flags`` that are set (not None) laid over them."""
    settings = records.read_json(path) if path else {}
    unknown = set(settings) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {kind} config keys: {', '.join(sorted(unknown))}")
    settings.update((name, value) for name, value in flags.items() if value is not None)
    return settings


def _synth_config(args: argparse.Namespace) -> synth.SynthConfig:
    _check_size_flags(args, "n_queries", "k")
    preset = synth.PRESETS.get(args.preset)
    if preset is None:
        raise ConfigError(
            f"unknown preset {args.preset!r} (choose from {', '.join(sorted(synth.PRESETS))})"
        )
    settings = _settings(
        args.config, "synth", synth.SynthConfig,
        {"n_queries": args.n_queries, "k": args.k, "seed": args.seed},
    )
    shift = settings.get("group_shift")
    if shift is not None:
        if not isinstance(shift, dict):
            raise ConfigError("group_shift must be an object")
        try:
            settings["group_shift"] = synth.GroupShift(**shift)
        except TypeError as exc:
            raise ConfigError(f"bad group_shift: {exc}") from None
    return preset(**settings)


def _trial_config(args: argparse.Namespace) -> evaluation.TrialConfig:
    """The trial config of ``eval``, ``selective`` or ``shift``.  ``selective``
    scores ``--rates`` if given, else the ``--config`` file's nonempty
    ``selective_rates``, else ``_SELECTIVE_RATES``."""
    selective = args.command == "selective"
    rates = _parse_rates(args.rates) if selective and args.rates is not None else None
    _check_size_flags(args, "trials", "bins", "k")
    methods = None if args.methods is None else _csv(args.methods)
    settings = _settings(
        args.config, "trial", evaluation.TrialConfig,
        {"n_trials": args.trials, "cal_fraction": args.cal_frac, "bins": args.bins,
         "master_seed": args.seed, "methods": methods,
         "feature_source": args.feature_source, "k_subsample": args.k,
         "selective_rates": rates},
    )
    if selective and settings.get("selective_rates") in (None, []):
        settings["selective_rates"] = _SELECTIVE_RATES
    return evaluation.TrialConfig(**settings)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    config = _synth_config(args)
    config_obj = {"command": "synth", "preset": args.preset, **dataclasses.asdict(config)}
    written: list[tuple[list[float], int]] = []
    out = _publish(args, config_obj, {
        synth.DATASET_FILES: lambda *paths: written.append(synth.write_dataset(config, *paths)),
    })
    [(pis, correct)] = written
    mean_pi = sum(pis) / len(pis)
    accuracy = correct / (len(pis) * config.k)
    print(
        f"wrote {len(pis)} queries x {config.k} samples to {out} "
        f"(mean pi {mean_pi:.4f}, sample accuracy {accuracy:.4f})"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = records.validate_files(
        args.queries, generations_path=args.generations, labels_path=args.labels
    )
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if diagnostics:
        print(f"FAIL: {len(diagnostics)} problem(s) found")
        return 1
    print("OK: records are valid")
    return 0


def _target_or_error(coded: consistency.AnswerCodes) -> records.ConsistencyTarget | DataError:
    try:
        return consistency.build_target(coded)
    except DataError as error:
        return error


def cmd_targets(args: argparse.Namespace) -> int:
    _check_size_flags(args, "k")
    sets = _load_sets(args)
    config_obj = {
        "command": "targets",
        "queries": args.queries,
        "generations": args.generations,
        "k_subsample": args.k,
        "seed": args.seed,
    }
    coded = consistency.answer_codes(sets)
    if args.k is None:
        outcomes = [_target_or_error(c) for c in coded]
    else:
        seeds = seeding.mix_each(args.seed, np.arange(len(coded)))
        outcomes = consistency.subsample_targets_each(coded, args.k, seeds)
    targets = []
    for c, outcome in zip(coded, outcomes):
        if isinstance(outcome, DataError):
            print(f"warning: skipping {c.query_id}: {outcome}", file=sys.stderr)
        else:
            targets.append(outcome)
    skipped = len(coded) - len(targets)
    out = _publish(args, config_obj,
                   {"targets.jsonl": lambda path: records.write_targets(path, targets)})
    print(f"wrote {len(targets)} targets to {out} (skipped {skipped} queries)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    calibrator.check_fit_settings(args.alpha, args.split_frac)
    sets = _load_sets(args)
    if args.targets:
        loaded = records.load_targets(args.targets)
        by_query = {t.query_id: t for t in loaded}
        known = set(sets.query_ids)
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
        s_values = [by_query[query_id].s for query_id in sets.query_ids]
    else:
        s_values = [consistency.build_target(c).s for c in consistency.answer_codes(sets)]
    features = evaluation.feature_matrix(sets, args.feature_source)
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
    model = calibrator.fit_pipeline(
        features,
        s_values,
        split_frac=args.split_frac,
        seed=args.seed,
        alpha=args.alpha,
        feature_source=args.feature_source,
    )
    out = _publish(args, config_obj,
                   {"model.json": lambda path: calibrator.save_model(path, model)})
    print(f"trained on {len(sets)} queries; model written to {out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    """Score every generation with each method (tt_sc scores per query)."""
    names = evaluation.SCORE_METHODS if args.methods is None else _csv(args.methods)
    methods = evaluation.check_methods(names, evaluation.SCORE_METHODS)
    model = None
    if "distilled" in methods:
        if not args.model:
            raise ConfigError("scoring the distilled method requires --model")
        model = calibrator.load_model(args.model)
    sets = _load_sets(args)
    config_obj = {
        "command": "score",
        "queries": args.queries,
        "generations": args.generations,
        "model": args.model,
        "methods": list(methods),
    }
    # Score rows follow the sets' rows: query by query, by sample_index.
    batch, rows = sets.batch, sets.rows
    positions = rows.tolist()
    query_ids = list(map(batch.query_id.__getitem__, positions))
    sample_index = list(map(batch.sample_index.__getitem__, positions))
    columns: list[tuple[str, list[str], Any, Any, Any]] = []
    for method in methods if len(sets) else ():  # no rows: an empty score file
        if method == "tt_sc":
            shares = [consistency.build_target(c).s for c in consistency.answer_codes(sets)]
            columns.append((method, list(sets.query_ids), None, shares, None))
        elif method == "distilled":
            assert model is not None
            # One check of the gathered features; the first row names a mismatch.
            if model.feature_source == "question_embedding":
                per_query = evaluation.feature_matrix(sets, model.feature_source)
                features = np.repeat(per_query, np.diff(sets.offsets), axis=0)
                where = f"query {query_ids[0]}: question_embedding"
            else:
                features = batch.embedding[rows]
                where = f"query {query_ids[0]} sample {sample_index[0]}: embedding"
            expected = int(model.scaler.means.shape[0])
            if features.shape[1] != expected:
                raise DataError(
                    f"{where} has {features.shape[1]} dimensions, model expects {expected}"
                )
            confidences = calibrator.predict(model, features)
            columns.append((method, query_ids, sample_index, confidences, None))
        else:
            confidences, imputed = evaluation.SINGLE_PASS[method](batch, rows)
            evaluation.require_spans(confidences, query_ids, sample_index)
            columns.append((method, query_ids, sample_index, confidences, imputed))
    out = _publish(args, config_obj,
                   {"scores.jsonl": lambda path: records.write_scores(path, columns)})
    n_rows = sum(len(c[1]) for c in columns)
    print(f"wrote {n_rows} score rows ({len(methods)} methods) to {out}")
    return 0


def cmd_trials(args: argparse.Namespace) -> int:
    """``eval``, ``selective`` or ``shift``, the command named by ``args``."""
    kind = args.command
    config = _trial_config(args)
    if kind in ("eval", "selective") and args.labels is None:
        raise ConfigError(f"the {kind} command needs --labels (correctness per sample)")
    if kind == "shift":
        train_groups = _csv(args.train_groups)
        test_groups = _csv(args.test_groups)
        evaluation.check_groups(train_groups, test_groups)
    queries = records.load_queries(args.queries)
    sets, z = records.load_generations_and_labels(args.generations, queries, args.labels)
    data = evaluation.build_dataset(sets, z, feature_source=config.feature_source)
    config_obj = {
        "command": kind,
        "queries": args.queries,
        "generations": args.generations,
        "labels": args.labels,
        **evaluation.config_echo(config),
    }
    if kind == "shift":
        config_obj["train_groups"] = train_groups
        config_obj["test_groups"] = test_groups
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
        headline = results["shifted"]
    else:
        headline = evaluation.run_trials(data, config)
        if kind == "selective":
            headline = dataclasses.replace(headline, kind="selective")
        document = evaluation.report_document(headline, config_obj)
    table = evaluation.trial_table(headline)
    out = _publish(args, config_obj, {
        "report.json": lambda path: records.write_json(path, document),
        "trials.tsv": lambda path: pathlib.Path(path).write_text(table, encoding="utf-8"),
    })
    summary = ", ".join(
        f"{m}: ece1={s.ece1:.4f}" for m, s in headline.methods.items()
    )
    print(f"{kind} over {headline.n_trials} trials ({headline.n_queries} queries) -> {out}")
    print(summary)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_data_flags(parser: argparse.ArgumentParser, *, labels: bool = True) -> None:
    parser.add_argument("--queries", required=True, help="queries JSONL file")
    parser.add_argument("--generations", required=True, help="generations JSONL file")
    if labels:
        parser.add_argument("--labels", default=None, help="correctness labels JSONL file")


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every command run by :func:`cmd_trials` takes."""
    _add_data_flags(parser)
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
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=cmd_trials)


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
    p.add_argument("--seed", type=int, default=None, help="overrides the config file's seed")
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
        help=f"comma-separated subset of: {', '.join(evaluation.SCORE_METHODS)}",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    _add_trial_flags(sub.add_parser("eval", help="repeated-trial benchmark"))

    p = sub.add_parser("selective", help="abstention curves averaged over trials")
    _add_trial_flags(p)
    p.add_argument("--rates", help="comma-separated rates in [0,1) (default: the --config "
                   f"file's selective_rates, else {','.join(map(str, _SELECTIVE_RATES))})")

    p = sub.add_parser("shift", help="calibrate on some groups, test on others")
    _add_trial_flags(p)
    p.add_argument("--train-groups", required=True, help="comma-separated group names")
    p.add_argument("--test-groups", required=True, help="comma-separated group names")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_utf8(args)
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
