"""End-to-end command-line behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from conscal import baselines, calibrator, consistency, records
from conscal.cli import build_parser, main

from conftest import make_generation, make_query


def _read_bytes(path):
    return path.read_bytes()


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(
        ["synth", "--preset", "benchmark", "--n-queries", "40", "--k", "6",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli") / "model"
    code = main(
        ["train", "--queries", str(data_dir / "queries.jsonl"),
         "--generations", str(data_dir / "generations.jsonl"),
         "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    return out


def _data_flags(data_dir, *, labels=True):
    flags = [
        "--queries", str(data_dir / "queries.jsonl"),
        "--generations", str(data_dir / "generations.jsonl"),
    ]
    if labels:
        flags += ["--labels", str(data_dir / "labels.jsonl")]
    return flags


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_a_complete_validated_dataset(data_dir, capsys):
    for name in ("queries.jsonl", "generations.jsonl", "labels.jsonl",
                 "truth.jsonl", "config.json"):
        assert (data_dir / name).exists()
    code = main(
        ["validate", "--queries", str(data_dir / "queries.jsonl"),
         "--generations", str(data_dir / "generations.jsonl"),
         "--labels", str(data_dir / "labels.jsonl")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: records are valid" in out
    config = _read_json(data_dir / "config.json")
    assert config["command"] == "synth"
    assert config["n_queries"] == 40 and config["k"] == 6 and config["seed"] == 3


def test_synth_reruns_are_byte_identical(data_dir, tmp_path):
    out = tmp_path / "again"
    argv = ["synth", "--preset", "benchmark", "--n-queries", "40", "--k", "6",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0  # second run overwrites in place
    for name in ("queries.jsonl", "generations.jsonl", "labels.jsonl",
                 "truth.jsonl", "config.json"):
        assert _read_bytes(out / name) == _read_bytes(data_dir / name), name


_DIGESTS = pathlib.Path(__file__).parent / "data" / "synth_digests_n20_k8_seed0.json"


@pytest.mark.parametrize("preset", ["benchmark", "premise", "shift"])
def test_synth_output_matches_the_recorded_digests(preset, tmp_path, capsys):
    # Recorded from `conscal synth --preset P --n-queries 20 --k 8 --seed 0`;
    # a declared change to any output byte re-records the file.
    recorded = _read_json(_DIGESTS)[preset]
    out = tmp_path / "out"
    argv = ["synth", "--preset", preset, "--n-queries", "20", "--k", "8", "--seed", "0",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.replace(str(out), "{out}") == recorded["stdout"]
    digests = {
        name: hashlib.sha256(_read_bytes(out / name)).hexdigest() for name in recorded["files"]
    }
    assert digests == recorded["files"]


def test_synth_headline_reports_sizes(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert main(["synth", "--n-queries", "5", "--k", "2", "--out", str(out)]) == 0
    assert "wrote 5 queries x 2 samples" in capsys.readouterr().out


def test_synth_rejects_impossible_sizes(tmp_path, capsys):
    code = main(["synth", "--n-queries", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_synth_rejects_unknown_preset_and_config_keys(tmp_path, capsys):
    assert main(["synth", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2
    assert "unknown preset" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    code = main(["synth", "--config", str(cfg), "--n-queries", "4",
                 "--out", str(tmp_path / "y")])
    assert code == 2
    assert "unknown synth config keys: bogus" in capsys.readouterr().err


def test_synth_config_file_overrides_take_effect(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"embedding_dim": 3, '
        '"group_shift": {"tag": "hard", "difficulty_alpha": 0.3, "difficulty_beta": 0.6}}'
    )
    out = tmp_path / "shifted"
    code = main(["synth", "--config", str(cfg), "--n-queries", "4", "--k", "2",
                 "--out", str(out)])
    assert code == 0
    queries = records.load_queries(str(out / "queries.jsonl"))
    assert len(queries) == 8  # the shifted group doubles the query count
    assert {q.group for q in queries} == {"main", "hard"}
    assert all(len(q.question_embedding) == 3 for q in queries)
    assert _read_json(out / "config.json")["embedding_dim"] == 3


def test_synth_rejects_malformed_group_shift(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group_shift": {"tag": "hard", "wrong_key": 1}}')
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "bad group_shift" in capsys.readouterr().err


def test_synth_without_out_creates_a_runs_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n-queries", "4", "--k", "2"]) == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "queries.jsonl").exists()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reports_each_problem_with_its_location(data_dir, tmp_path, capsys):
    corrupted = tmp_path / "queries.jsonl"
    lines = (data_dir / "queries.jsonl").read_text().splitlines()
    corrupted.write_text("\n".join(lines + [lines[0]]) + "\n")  # duplicate id
    code = main(["validate", "--queries", str(corrupted)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"{corrupted}:{len(lines) + 1}: duplicate query_id" in captured.err
    assert "FAIL: 1 problem(s) found" in captured.out


def test_validate_diagnoses_integers_too_large_for_a_float(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    generations = tmp_path / "generations.jsonl"
    records.write_generations(str(generations), [make_generation("q1", 0, answer="a")])
    row = json.loads(generations.read_text(encoding="utf-8"))
    row.update(sample_index=1, token_logprobs=[-(10**400)])
    with generations.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    code = main(["validate", "--queries", str(queries), "--generations", str(generations)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"{generations}:2: token_logprobs contains a non-finite or non-numeric entry\n"
    )
    assert captured.out == "FAIL: 1 problem(s) found\n"


def test_validate_missing_file_is_a_usage_error(tmp_path, capsys):
    code = main(["validate", "--queries", str(tmp_path / "absent.jsonl")])
    assert code == 2
    assert "io error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


def test_targets_full_and_subsampled_at_full_k_agree(data_dir, tmp_path, capsys):
    full = tmp_path / "full"
    sub = tmp_path / "sub"
    base = ["targets"] + _data_flags(data_dir, labels=False)
    assert main(base + ["--out", str(full)]) == 0
    assert main(base + ["--k", "6", "--seed", "0", "--out", str(sub)]) == 0
    assert _read_bytes(full / "targets.jsonl") == _read_bytes(sub / "targets.jsonl")
    targets = consistency.load_targets(str(full / "targets.jsonl"))
    assert len(targets) == 40
    for t in targets:
        assert t.k == 6
        assert math.isclose(t.s * t.k, round(t.s * t.k), abs_tol=1e-9)
    assert "wrote 40 targets" in capsys.readouterr().out


def test_subsampled_targets_match_the_recorded_files(tmp_path):
    # Recorded from the string-counting target builder over the same data.
    recorded = _read_json(
        pathlib.Path(__file__).parent / "data" / "subsample_n40_k20_seed0.json"
    )["targets_jsonl"]
    data = tmp_path / "data"
    assert main(["synth", "--n-queries", "40", "--k", "20", "--seed", "0",
                 "--out", str(data)]) == 0
    for k, expected in recorded.items():
        out = tmp_path / f"targets-{k}"
        assert main(["targets"] + _data_flags(data, labels=False)
                    + ["--k", k, "--seed", "3", "--out", str(out)]) == 0
        assert (out / "targets.jsonl").read_text(encoding="utf-8") == expected


def test_targets_are_unanimous_when_difficulty_is_pinned_to_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"difficulty_constant": 1.0}')
    data = tmp_path / "easy"
    assert main(["synth", "--config", str(cfg), "--n-queries", "6", "--k", "4",
                 "--out", str(data)]) == 0
    out = tmp_path / "targets"
    assert main(["targets", "--queries", str(data / "queries.jsonl"),
                 "--generations", str(data / "generations.jsonl"),
                 "--out", str(out)]) == 0
    assert all(t.s == 1.0 for t in consistency.load_targets(str(out / "targets.jsonl")))


def test_targets_skip_boxless_queries_with_a_warning(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1"), make_query("q2")])
    records.write_generations(
        str(generations),
        [
            make_generation("q1", 0, answer="a"),
            make_generation("q1", 1, answer="a"),
            make_generation("q2", 0),  # no boxed answer anywhere
        ],
    )
    out = tmp_path / "targets"
    code = main(["targets", "--queries", str(queries),
                 "--generations", str(generations), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote 1 targets" in captured.out and "1 warning(s)" in captured.out
    assert "skipping q2" in captured.err
    (target,) = consistency.load_targets(str(out / "targets.jsonl"))
    assert target.query_id == "q1" and target.s == 1.0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_a_loadable_deterministic_artifact(data_dir, model_dir, tmp_path):
    model = calibrator.load_model(str(model_dir / "model.json"))
    assert model.feature_source == "response_embedding"
    again = tmp_path / "retrain"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--seed", "5", "--out", str(again)]) == 0
    assert _read_bytes(again / "model.json") == _read_bytes(model_dir / "model.json")


def test_train_from_a_targets_file_matches_training_from_scratch(
    data_dir, model_dir, tmp_path
):
    targets_out = tmp_path / "targets"
    assert main(["targets"] + _data_flags(data_dir, labels=False)
                + ["--out", str(targets_out)]) == 0
    trained = tmp_path / "trained"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--targets", str(targets_out / "targets.jsonl"),
                   "--seed", "5", "--out", str(trained)]) == 0
    assert _read_bytes(trained / "model.json") == _read_bytes(model_dir / "model.json")


def test_train_rejects_targets_for_unknown_queries(data_dir, tmp_path, capsys):
    bad = tmp_path / "targets.jsonl"
    rows = [consistency.ConsistencyTarget("zzz", 0, "a", 1.0, 6)]
    consistency.write_targets(str(bad), rows)
    code = main(["train"] + _data_flags(data_dir, labels=False)
                + ["--targets", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "targets reference 1 unknown queries (first: zzz)" in capsys.readouterr().err


def test_train_on_question_embeddings_sets_the_artifact_source(data_dir, tmp_path):
    out = tmp_path / "qmodel"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--feature-source", "question_embedding", "--out", str(out)]) == 0
    assert calibrator.load_model(str(out / "model.json")).feature_source == "question_embedding"


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_rows_match_library_computations(data_dir, model_dir, tmp_path):
    out = tmp_path / "scores"
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--model", str(model_dir / "model.json"),
                   "--methods", "distilled,token_prob,tt_sc", "--out", str(out)])
    assert code == 0
    rows = baselines.load_scores(str(out / "scores.jsonl"))
    queries = records.load_queries(str(data_dir / "queries.jsonl"))
    sets = records.load_generations(str(data_dir / "generations.jsonl"), queries)
    generations = [g for s in sets for g in s.samples]

    distilled = [r for r in rows if r["method"] == "distilled"]
    model = calibrator.load_model(str(model_dir / "model.json"))
    expected = calibrator.predict(model, [g.embedding for g in generations])
    assert [r["confidence"] for r in distilled] == [float(v) for v in expected]
    assert [(r["query_id"], r["sample_index"]) for r in distilled] == [
        (g.query_id, g.sample_index) for g in generations
    ]

    token = [r for r in rows if r["method"] == "token_prob"]
    assert [r["confidence"] for r in token] == [
        baselines.token_prob_score(g.token_logprobs) for g in generations
    ]

    vote = [r for r in rows if r["method"] == "tt_sc"]
    assert len(vote) == len(sets)  # one row per query, not per sample
    assert all("sample_index" not in r for r in vote)
    shares = dict(zip((s.query_id for s in sets),
                      (consistency.test_time_sc(s)[1] for s in sets)))
    assert all(r["confidence"] == shares[r["query_id"]] for r in vote)


def test_score_verbal_rows_flag_imputation(data_dir, tmp_path):
    out = tmp_path / "verbal"
    assert main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "verbal_conf", "--out", str(out)]) == 0
    rows = baselines.load_scores(str(out / "scores.jsonl"))
    assert rows and all(isinstance(r["imputed"], bool) for r in rows)
    assert any(r["imputed"] for r in rows)  # the generator omits some statements
    assert all(0.0 <= r["confidence"] <= 1.0 for r in rows)


def test_score_distilled_without_a_model_is_a_usage_error(data_dir, tmp_path, capsys):
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "distilled", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "requires --model" in capsys.readouterr().err


def test_score_rejects_methods_it_cannot_compute(data_dir, tmp_path, capsys):
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "supervised", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown or unavailable methods: supervised" in capsys.readouterr().err


def test_score_reports_embedding_dimension_mismatches(model_dir, tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    records.write_generations(str(generations), [make_generation("q1", 0, answer="a")])
    code = main(["score", "--queries", str(queries), "--generations", str(generations),
                 "--model", str(model_dir / "model.json"),
                 "--methods", "distilled", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "query q1 sample 0: embedding has 2 dimensions, model expects 16" in captured.err


_BAD_MODELS = {
    "truncated": ('{"format": "conscal-model/1", "scaler": {"means": [0.1, ',
                  "invalid JSON (Expecting value)"),
    "not_utf8": (b'{"format": "\xff"}', "invalid JSON (not UTF-8 text)"),
    "deep": ("[" * 100_000 + "]" * 100_000, "invalid JSON (nested too deeply)"),
    "scaler_list": (lambda d: d.update(scaler=[1, 2]), "scaler must be an object"),
    "string_means": (lambda d: d["scaler"].update(means=["a"]), "bad scaler means"),
    "huge_intercept": (lambda d: d["ridge"].update(intercept=10**400), "bad intercept"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MODELS))
def test_score_reports_a_malformed_model_in_one_line(data_dir, model_dir, tmp_path, capsys, case):
    content, reason = _BAD_MODELS[case]
    path = tmp_path / "model.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        doc = _read_json(model_dir / "model.json")
        content(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "distilled", "--model", str(path),
                   "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"error: invalid model artifact: {reason}\n"


def test_score_with_no_generations_writes_an_empty_file(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    generations.write_text("")
    out = tmp_path / "scores"
    code = main(["score", "--queries", str(queries), "--generations", str(generations),
                 "--methods", "token_prob", "--out", str(out)])
    assert code == 0
    assert (out / "scores.jsonl").read_text() == ""
    assert "wrote 0 score rows" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval / selective / shift
# ---------------------------------------------------------------------------


def test_eval_writes_report_trials_and_config(data_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval"] + _data_flags(data_dir)
                + ["--trials", "2", "--bins", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "report.json")
    assert report["format"] == "conscal-report/1"
    assert report["kind"] == "eval"
    assert set(report["methods"]) == {
        "distilled", "token_prob", "answer_prob", "verbal_conf", "supervised", "tt_sc",
    }
    assert report["n_trials"] == 2 and report["bins"] == 4
    tsv = (out / "trials.tsv").read_text().splitlines()
    assert tsv[0].startswith("trial\tmethod")
    assert len(tsv) == 1 + 2 * 6
    assert _read_json(out / "config.json")["n_trials"] == 2
    assert "eval over 2 trials (40 queries)" in capsys.readouterr().out


def test_eval_reruns_are_byte_identical(data_dir, tmp_path):
    out = tmp_path / "eval"
    argv = (["eval"] + _data_flags(data_dir)
            + ["--trials", "2", "--bins", "4", "--methods", "distilled,token_prob",
               "--seed", "7", "--out", str(out)])
    assert main(argv) == 0
    first = {n: _read_bytes(out / n) for n in ("report.json", "trials.tsv", "config.json")}
    assert main(argv) == 0
    for name, blob in first.items():
        assert _read_bytes(out / name) == blob, name


def test_eval_respects_the_requested_method_subset(data_dir, tmp_path):
    out = tmp_path / "subset"
    assert main(["eval"] + _data_flags(data_dir)
                + ["--trials", "1", "--bins", "4", "--methods", "tt_sc",
                   "--out", str(out)]) == 0
    assert set(_read_json(out / "report.json")["methods"]) == {"tt_sc"}


def test_eval_requires_labels(data_dir, tmp_path, capsys):
    code = main(["eval"] + _data_flags(data_dir, labels=False)
                + ["--trials", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "needs --labels" in capsys.readouterr().err


def test_eval_config_file_merges_under_flag_overrides(data_dir, tmp_path):
    cfg = tmp_path / "trial.json"
    cfg.write_text('{"n_trials": 9, "bins": 4, "methods": ["token_prob"]}')
    out = tmp_path / "eval"
    assert main(["eval"] + _data_flags(data_dir)
                + ["--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["n_trials"] == 2  # the flag wins
    assert set(report["methods"]) == {"token_prob"}  # the file fills the rest


def test_eval_rejects_unknown_trial_config_keys(data_dir, tmp_path, capsys):
    cfg = tmp_path / "trial.json"
    cfg.write_text('{"bogus": true}')
    code = main(["eval"] + _data_flags(data_dir)
                + ["--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown trial config keys: bogus" in capsys.readouterr().err


def test_config_with_an_integer_too_long_to_parse_is_a_data_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "trial.json"
    cfg.write_text('{"n_trials": ' + "9" * 5000 + "}")
    code = main(["eval"] + _data_flags(data_dir)
                + ["--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}: invalid JSON (integer too long)\n"


def test_selective_reports_zero_gain_at_rate_zero(data_dir, tmp_path):
    out = tmp_path / "sel"
    assert main(["selective"] + _data_flags(data_dir)
                + ["--trials", "2", "--bins", "4", "--rates", "0,0.2",
                   "--methods", "token_prob,tt_sc", "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["kind"] == "selective"
    for summary in report["methods"].values():
        rates = [row["rate"] for row in summary["selective"]]
        assert rates == [0.0, 0.2]
        assert summary["selective"][0]["gain"] == 0.0
        assert summary["selective"][0]["abstained_accuracy"] is None


def test_selective_rejects_unparseable_and_out_of_range_rates(data_dir, tmp_path, capsys):
    base = ["selective"] + _data_flags(data_dir) + ["--trials", "1"]
    assert main(base + ["--rates", "0.2,oops", "--out", str(tmp_path / "x")]) == 2
    assert "--rates" in capsys.readouterr().err
    assert main(base + ["--rates", "1.0", "--out", str(tmp_path / "y")]) == 2
    assert "abstention rate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def shift_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "shiftdata"
    code = main(["synth", "--preset", "shift", "--n-queries", "16", "--k", "5",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    return out


def test_shift_reports_both_arms(shift_dir, tmp_path, capsys):
    out = tmp_path / "shift"
    code = main(["shift"] + _data_flags(shift_dir)
                + ["--trials", "2", "--bins", "4", "--methods", "distilled,token_prob",
                   "--train-groups", "main", "--test-groups", "shifted",
                   "--out", str(out)])
    assert code == 0
    report = _read_json(out / "report.json")
    assert report["kind"] == "shift"
    assert report["in_domain"]["kind"] == "eval"
    assert report["shifted"]["kind"] == "shift"
    assert report["config"]["train_groups"] == ["main"]
    assert report["config"]["test_groups"] == ["shifted"]
    assert report["in_domain"]["n_queries"] == 16
    assert report["shifted"]["n_test"] == 16
    assert "shift over 2 trials" in capsys.readouterr().out


def test_shift_without_out_hashes_the_groups_into_the_run_name(
    shift_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    base = ["shift"] + _data_flags(shift_dir) + ["--trials", "1", "--bins", "4",
                                                 "--methods", "token_prob"]
    assert main(base + ["--train-groups", "main", "--test-groups", "shifted"]) == 0
    assert main(base + ["--train-groups", "shifted", "--test-groups", "main"]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2
    assert runs[0].name.split("-")[-1] != runs[1].name.split("-")[-1]
    capsys.readouterr()


def test_shift_rejects_overlapping_groups(shift_dir, tmp_path, capsys):
    code = main(["shift"] + _data_flags(shift_dir)
                + ["--trials", "1", "--train-groups", "main,shifted",
                   "--test-groups", "shifted", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "both sides" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_unknown_flags_and_commands_exit_2(capsys):
    assert main(["synth", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "sub"
    result = subprocess.run(
        [sys.executable, "-m", "conscal", "synth", "--n-queries", "4", "--k", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote 4 queries x 2 samples" in result.stdout
    assert (out / "labels.jsonl").exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import conscal.cli, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    in_sh = False
    pending = ""
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        if not in_sh:
            continue
        text = pending + line.strip()
        if text.endswith("\\"):
            pending = text[:-1] + " "
            continue
        pending = ""
        if text.startswith("conscal "):
            commands.append(text)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {shlex.split(c)[1] for c in commands} >= {
        "synth", "validate", "train", "score", "eval", "selective", "shift"
    }
    parser = build_parser()
    for command in commands:
        try:
            args = parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        assert callable(args.func)
