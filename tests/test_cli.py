"""End-to-end command-line behavior: exit codes, outputs, determinism."""

from __future__ import annotations

import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

from conscal import baselines, calibrator, consistency, evaluation, parts, records, seeding, synth
from conscal.cli import build_parser, main
from conscal.errors import MAX_SIZE

import golden
from conftest import make_batch, make_generation, make_query
from oracles import load_scores, token_row


def _read_bytes(path):
    return path.read_bytes()


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def _read_strict_json(path):
    """The values of a .json file or of each line of a .jsonl file, read as
    strict JSON: UTF-8, and no NaN or Infinity."""
    text = path.read_bytes().decode("utf-8")
    lines = text.splitlines() if path.suffix == ".jsonl" else [text]
    return [json.loads(line, parse_constant=_no_constant) for line in lines]


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


@pytest.mark.parametrize("preset", ["benchmark", "premise", "shift"])
def test_synth_output_matches_the_recorded_digests(preset, tmp_path):
    # Recorded from `conscal synth --preset P --n-queries 20 --k 8 --seed 0`;
    # a declared change to any output byte re-records the file.
    recorded = _read_json(golden.SYNTH_DIGESTS)[preset]
    assert golden.synth(preset, tmp_path / "out") == recorded


def _synth_parts(preset, n_queries, k):
    """The query ranges that ``conscal synth`` writes in parts."""
    total = n_queries * (2 if preset == "shift" else 1)
    return parts.part_ranges(range(0, total * k + 1, k), synth._ROWS_PER_PART)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork does not exist here")
@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("preset", ["benchmark", "premise", "shift"])
def test_synth_output_matches_the_recorded_digests_in_parts(
    preset, cpus, tmp_path, monkeypatch
):
    monkeypatch.setattr(synth, "_ROWS_PER_PART", 1)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: cpus)
    ranges = _synth_parts(preset, 20, 8)
    assert len(ranges) == cpus
    if preset == "shift":
        # Two parts cut at the group boundary, query 20; three cut inside both groups.
        cuts = [part.start for part in ranges[1:]]
        assert cuts == {2: [20], 3: [14, 27], 8: [5, 10, 15, 20, 25, 30, 35]}[cpus]
    test_synth_output_matches_the_recorded_digests(preset, tmp_path)
    with pytest.raises(ChildProcessError):  # every part was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork does not exist here")
@pytest.mark.parametrize("preset", ["benchmark", "premise", "shift"])
def test_synth_writes_the_same_bytes_in_every_part_count(preset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(synth, "_ROWS_PER_PART", 1)
    argv = ["synth", "--preset", preset, "--n-queries", "3", "--k", "4", "--seed", "2"]
    outputs = {}
    # 8 CPUs are more than the 3 queries (6 with the shifted group).
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(parts, "_usable_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert main([*argv, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "{out}")
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        outputs[len(_synth_parts(preset, 3, 4))] = (stdout, files)
    total = 6 if preset == "shift" else 3
    assert sorted(outputs) == sorted({1, 2, 3, total})
    first = outputs[1]
    assert list(first[1]) == ["config.json", *sorted(synth.DATASET_FILES)]
    for count, output in outputs.items():
        assert output == first, count


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


def test_synth_seed_comes_from_the_flag_then_the_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 5, "n_queries": 10, "k": 3}')
    runs = {
        "file": ["--config", str(cfg)],
        "flag": ["--config", str(cfg), "--seed", "7"],
        "default": ["--n-queries", "10", "--k", "3"],
        "zero": ["--n-queries", "10", "--k", "3", "--seed", "0"],
    }
    for name, flags in runs.items():
        assert main(["synth", *flags, "--out", str(tmp_path / name)]) == 0
    seeds = {name: _read_json(tmp_path / name / "config.json")["seed"] for name in runs}
    assert seeds == {"file": 5, "flag": 7, "default": 0, "zero": 0}
    for name in ("queries.jsonl", "generations.jsonl", "labels.jsonl", "truth.jsonl",
                 "config.json"):
        assert _read_bytes(tmp_path / "default" / name) == _read_bytes(tmp_path / "zero" / name)
    assert _read_bytes(tmp_path / "file" / "queries.jsonl") != _read_bytes(
        tmp_path / "default" / "queries.jsonl"
    )


def test_synth_rejects_malformed_group_shift(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group_shift": {"tag": "hard", "wrong_key": 1}}')
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "bad group_shift" in capsys.readouterr().err


def test_a_config_file_that_is_not_an_object_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: expected a JSON object\n"
    assert not (tmp_path / "x").exists()


def test_an_argument_that_is_not_utf8_is_a_usage_error_before_any_output(
    data_dir, tmp_path, monkeypatch, capsys
):
    # The OS hands over a non-UTF-8 byte such as 0xff as the lone surrogate \udcff.
    monkeypatch.chdir(tmp_path)
    queries = str(tmp_path / "q\udcff.jsonl")
    code = main(["targets", "--queries", queries,
                 "--generations", str(data_dir / "generations.jsonl"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: --queries is not UTF-8: {queries!r}\n"
    assert main(["eval", *_data_flags(data_dir), "--labels", str(tmp_path / "\udcff")]) == 2
    assert "--labels is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert not (tmp_path / "runs").exists()


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
    records.write_generations(str(generations), make_batch([make_generation("q1", 0, answer="a")]))
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


def _with_surrogate(source, target, key):
    """``source`` with the unpaired surrogate escape \\ud800 put at the start of
    the first line's ``key`` string."""
    first, rest = source.read_text(encoding="utf-8").split("\n", 1)
    target.write_text(first.replace(f'"{key}":"', f'"{key}":"\\ud800', 1) + "\n" + rest,
                      encoding="utf-8")
    return str(target)


def test_an_unpaired_surrogate_escape_stops_every_command_before_it_writes(
    data_dir, tmp_path, capsys
):
    queries = _with_surrogate(data_dir / "queries.jsonl", tmp_path / "q.jsonl", "text")
    generations = _with_surrogate(
        data_dir / "generations.jsonl", tmp_path / "g.jsonl", "response_text"
    )
    assert main(["validate", "--queries", queries]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{queries}:1: invalid JSON (unpaired surrogate escape)\n"
    assert captured.out == "FAIL: 1 problem(s) found\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group_shift": {"tag": "sh\\ud800"}}', encoding="utf-8")
    runs = {
        "targets": ["targets", "--queries", queries,
                    "--generations", str(data_dir / "generations.jsonl")],
        "score": ["score", "--queries", str(data_dir / "queries.jsonl"),
                  "--generations", generations, "--methods", "token_prob"],
        "synth": ["synth", "--config", str(cfg), "--n-queries", "4"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unpaired surrogate escape" in err, name
        assert not (tmp_path / name).exists(), name
    assert err == f"error: {cfg}: invalid JSON (unpaired surrogate escape, line 1)\n"


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
    targets = records.load_targets(str(full / "targets.jsonl"))
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


@pytest.mark.parametrize("k", ["0", "-2"])
def test_targets_reject_a_k_below_one_before_reading(k, data_dir, tmp_path, capsys):
    code = main(["targets"] + _data_flags(data_dir, labels=False)
                + ["--k", k, "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: --k must be >= 1, got {k}\n"
    assert not (tmp_path / "x").exists()


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
    assert all(t.s == 1.0 for t in records.load_targets(str(out / "targets.jsonl")))


def test_targets_skip_boxless_queries_with_a_warning(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1"), make_query("q2")])
    records.write_generations(
        str(generations),
        make_batch(
            [
                make_generation("q1", 0, answer="a"),
                make_generation("q1", 1, answer="a"),
                make_generation("q2", 0),  # no boxed answer anywhere
            ]
        ),
    )
    out = tmp_path / "targets"
    code = main(["targets", "--queries", str(queries),
                 "--generations", str(generations), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == f"wrote 1 targets to {out} (skipped 1 queries)\n"
    assert "skipping q2" in captured.err
    (target,) = records.load_targets(str(out / "targets.jsonl"))
    assert target.query_id == "q1" and target.s == 1.0


def test_subsampled_targets_skip_small_and_answerless_queries_in_order(tmp_path, capsys):
    # One draw for every query; each skipped query still warns in its turn,
    # and each target is the one its query's own draw gives.
    answers = {"q1": ["a", "b", "a"], "q2": ["a"], "q3": [None, None], "q4": ["b", "b", "a"]}
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query(q) for q in answers])
    records.write_generations(str(generations), make_batch([
        make_generation(q, j, answer=a) for q, row in answers.items() for j, a in enumerate(row)
    ]))
    out = tmp_path / "targets"
    code = main(["targets", "--queries", str(queries), "--generations", str(generations),
                 "--k", "2", "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "warning: skipping q2: query q2: cannot subsample 2 of 1 samples\n"
        "warning: skipping q3: query q3: no extractable answer in any of 2 samples\n"
    )
    assert captured.out == f"wrote 2 targets to {out} (skipped 2 queries)\n"
    coded = consistency.answer_codes(
        records.load_generations(str(generations), records.load_queries(str(queries)))
    )
    assert records.load_targets(str(out / "targets.jsonl")) == [
        consistency.subsample_targets(coded[i], 2, seed=seeding.mix(5, i)) for i in (0, 3)
    ]


def test_targets_summary_counts_skipped_queries_apart_from_disagreements(
    tmp_path, capsys, caplog
):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    disagreeing = {**make_generation("q1", 1, answer="a"), "answer": "b"}
    records.write_generations(
        str(generations), make_batch([make_generation("q1", 0, answer="a"), disagreeing])
    )
    out = tmp_path / "targets"
    code = main(["targets", "--queries", str(queries),
                 "--generations", str(generations), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 pre-extracted answers disagree with the boxed answer: q1/1" in caplog.text
    assert captured.out == f"wrote 1 targets to {out} (skipped 0 queries)\n"


def test_sample_indices_beyond_int64_survive_targets_and_trials(tmp_path):
    base = 2**70
    answers = ["b", "a", "a", None]
    queries = [make_query(f"q{i}") for i in range(8)]
    generations = [
        make_generation(q.query_id, base + j, answer=answer, embedding=(float(i), float(j)))
        for i, q in enumerate(queries)
        for j, answer in enumerate(answers)
    ]
    data = tmp_path / "data"
    data.mkdir()
    records.write_queries(str(data / "queries.jsonl"), queries)
    records.write_generations(str(data / "generations.jsonl"), make_batch(generations))
    flags = _data_flags(data, labels=False)
    for k_flags in ([], ["--k", "2"]):
        out = tmp_path / f"targets{len(k_flags)}"
        assert main(["targets", *flags, *k_flags, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "targets.jsonl").read_text().splitlines()]
        assert len(rows) == len(queries)
        for row in rows:
            position = row["selected_sample_index"] - base
            assert answers[position] == row["answer"]
            if not k_flags:
                assert position == 1

    sets = records.load_generations(str(data / "generations.jsonl"), queries)
    dataset = evaluation.build_dataset(sets)
    assert all(codes.sample_index == tuple(base + j for j in range(4)) for codes in dataset.codes)
    config = evaluation.TrialConfig(
        n_trials=2, cal_fraction=0.5, bins=2, methods=("distilled", "tt_sc"), k_subsample=2
    )
    result = evaluation.run_trials(dataset, config)
    assert result.methods["tt_sc"].accuracy == 1.0


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
    rows = [records.ConsistencyTarget("zzz", 0, "a", 1.0, 6)]
    records.write_targets(str(bad), rows)
    code = main(["train"] + _data_flags(data_dir, labels=False)
                + ["--targets", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "targets reference 1 unknown queries (first: zzz)" in capsys.readouterr().err


def test_train_rejects_targets_missing_a_query(data_dir, tmp_path, capsys):
    targets_out = tmp_path / "targets"
    assert main(["targets"] + _data_flags(data_dir, labels=False)
                + ["--out", str(targets_out)]) == 0
    capsys.readouterr()
    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        "".join((targets_out / "targets.jsonl").read_text().splitlines(keepends=True)[1:])
    )
    code = main(["train"] + _data_flags(data_dir, labels=False)
                + ["--targets", str(partial), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "targets missing for 1 queries (first: q000000)" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--alpha", "0"], "alpha must be a positive real"),
        (["--alpha", "nan"], "alpha must be a finite real, got nan"),
        (["--split-frac", "0"], "split_frac must be inside (0, 1), got 0.0"),
        (["--split-frac", "1.5"], "split_frac must be inside (0, 1), got 1.5"),
    ],
)
def test_train_rejects_bad_fit_settings_before_creating_a_run(
    flags, message, data_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    code = main(["train"] + _data_flags(data_dir, labels=False) + flags)
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_train_on_question_embeddings_sets_the_artifact_source(data_dir, tmp_path):
    out = tmp_path / "qmodel"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--feature-source", "question_embedding", "--out", str(out)]) == 0
    assert calibrator.load_model(str(out / "model.json")).feature_source == "question_embedding"


def test_the_feature_sources_are_the_two_embeddings(data_dir, tmp_path, capsys):
    assert calibrator.FEATURE_SOURCES == ("response_embedding", "question_embedding")
    code = main(["train"] + _data_flags(data_dir, labels=False)
                + ["--feature-source", "external_embedding", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "invalid choice: 'external_embedding'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_rows_match_library_computations(data_dir, model_dir, tmp_path):
    out = tmp_path / "scores"
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--model", str(model_dir / "model.json"),
                   "--methods", "distilled,token_prob,tt_sc", "--out", str(out)])
    assert code == 0
    rows = load_scores(str(out / "scores.jsonl"))
    queries = records.load_queries(str(data_dir / "queries.jsonl"))
    sets = records.load_generations(str(data_dir / "generations.jsonl"), queries)
    batch = sets.batch
    positions = sets.rows.tolist()

    distilled = [r for r in rows if r["method"] == "distilled"]
    model = calibrator.load_model(str(model_dir / "model.json"))
    expected = calibrator.predict(model, [batch.embedding[i] for i in positions])
    assert [r["confidence"] for r in distilled] == [float(v) for v in expected]
    assert [(r["query_id"], r["sample_index"]) for r in distilled] == [
        (batch.query_id[i], batch.sample_index[i]) for i in positions
    ]

    token = [r for r in rows if r["method"] == "token_prob"]
    assert [r["confidence"] for r in token] == [
        baselines.token_prob_score(token_row(batch, i)) for i in positions
    ]

    vote = [r for r in rows if r["method"] == "tt_sc"]
    assert len(vote) == len(sets)  # one row per query, not per sample
    assert all("sample_index" not in r for r in vote)
    shares = dict(zip(sets.query_ids,
                      (consistency.build_target(c).s for c in consistency.answer_codes(sets))))
    assert all(r["confidence"] == shares[r["query_id"]] for r in vote)


def test_score_gives_each_sample_its_querys_question_embedding_prediction(data_dir, tmp_path):
    model_path = tmp_path / "qmodel" / "model.json"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--feature-source", "question_embedding", "--seed", "2",
                   "--out", str(model_path.parent)]) == 0
    out = tmp_path / "scores"
    assert main(["score"] + _data_flags(data_dir, labels=False)
                + ["--model", str(model_path), "--methods", "distilled", "--out", str(out)]) == 0
    rows = load_scores(str(out / "scores.jsonl"))
    queries = records.load_queries(str(data_dir / "queries.jsonl"))
    sets = records.load_generations(str(data_dir / "generations.jsonl"), queries)
    model = calibrator.load_model(str(model_path))
    pairs = [(sets.batch.query_id[i], sets.batch.sample_index[i]) for i in sets.rows.tolist()]
    by_id = {q.query_id: q.question_embedding for q in queries}
    expected = calibrator.predict(model, [by_id[query_id] for query_id, _ in pairs])
    assert [r["confidence"] for r in rows] == [float(v) for v in expected]
    assert [(r["query_id"], r["sample_index"]) for r in rows] == pairs
    by_query = {}
    for r in rows:
        by_query.setdefault(r["query_id"], set()).add(r["confidence"])
    assert all(len(values) == 1 for values in by_query.values())


def test_score_answer_prob_names_the_first_row_without_a_span(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1"), make_query("q2")])
    # File order puts q2's spanless row first; set order (queries, then
    # sample_index) reaches q1's sample 1 first.
    records.write_generations(str(generations), make_batch([
        make_generation("q2", 0, answer="a", answer_token_logprobs=None),
        make_generation("q1", 1, answer="a", answer_token_logprobs=None),
        make_generation("q1", 0, answer="a"),
    ]))
    out = tmp_path / "scores"
    code = main(["score", "--queries", str(queries), "--generations", str(generations),
                 "--methods", "token_prob,answer_prob", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: query q1 sample 1: record lacks the answer-span log-probabilities "
        "needed by answer_prob\n"
    )
    assert not out.exists()


def test_a_missing_answer_span_is_one_data_error_in_eval_and_score(data_dir, tmp_path, capsys):
    # Strip the answer span from one deployment response (sample 0 of q000002).
    lines = (data_dir / "generations.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    (target,) = [r for r in rows if (r["query_id"], r["sample_index"]) == ("q000002", 0)]
    del target["answer_token_logprobs"]
    generations = tmp_path / "generations.jsonl"
    generations.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    flags = ["--queries", str(data_dir / "queries.jsonl"), "--generations", str(generations)]
    labels = ["--labels", str(data_dir / "labels.jsonl"), "--trials", "2", "--bins", "4"]
    message = (
        "error: query q000002 sample 0: record lacks the answer-span log-probabilities "
        "needed by answer_prob\n"
    )
    for command in (["eval", *flags, *labels], ["score", *flags]):
        out = tmp_path / command[0]
        assert main([*command, "--methods", "answer_prob", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()
    out = tmp_path / "token_prob"
    assert main(["eval", *flags, *labels, "--methods", "token_prob", "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_score_verbal_rows_flag_imputation(data_dir, tmp_path):
    out = tmp_path / "verbal"
    assert main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "verbal_conf", "--out", str(out)]) == 0
    rows = load_scores(str(out / "scores.jsonl"))
    assert rows and all(isinstance(r["imputed"], bool) for r in rows)
    assert any(r["imputed"] for r in rows)  # the generator omits some statements
    assert all(0.0 <= r["confidence"] <= 1.0 for r in rows)


def test_score_distilled_without_a_model_is_a_usage_error(data_dir, tmp_path, capsys):
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "distilled", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "requires --model" in capsys.readouterr().err


def test_score_checks_the_model_before_reading_the_data(tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    generations.write_text("not json\n", encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text("{", encoding="utf-8")
    base = ["score", "--queries", str(queries), "--generations", str(generations),
            "--methods", "distilled", "--out", str(tmp_path / "x")]
    assert main(base) == 2
    assert capsys.readouterr().err == (
        "usage error: scoring the distilled method requires --model\n"
    )
    assert main(base + ["--model", str(model)]) == 1
    assert "invalid model artifact" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_score_rejects_methods_it_cannot_compute(data_dir, tmp_path, capsys):
    code = main(["score"] + _data_flags(data_dir, labels=False)
                + ["--methods", "supervised", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: unknown or unavailable methods: supervised (choose from distilled, "
        "token_prob, answer_prob, verbal_conf, tt_sc)\n"
    )
    for methods, message in ((",", "methods must not be empty"),
                             ("token_prob,token_prob", "methods contains duplicates")):
        code = main(["score"] + _data_flags(data_dir, labels=False)
                    + ["--methods", methods, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_score_reports_embedding_dimension_mismatches(model_dir, tmp_path, capsys):
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1")])
    records.write_generations(str(generations), make_batch([make_generation("q1", 0, answer="a")]))
    code = main(["score", "--queries", str(queries), "--generations", str(generations),
                 "--model", str(model_dir / "model.json"),
                 "--methods", "distilled", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "query q1 sample 0: embedding has 2 dimensions, model expects 16" in captured.err


def test_score_reports_question_embedding_dimension_mismatches(data_dir, tmp_path, capsys):
    model = tmp_path / "qmodel"
    assert main(["train"] + _data_flags(data_dir, labels=False)
                + ["--feature-source", "question_embedding", "--out", str(model)]) == 0
    queries = tmp_path / "queries.jsonl"
    generations = tmp_path / "generations.jsonl"
    records.write_queries(str(queries), [make_query("q1", question_embedding=(0.5, 1.0))])
    records.write_generations(str(generations), make_batch([make_generation("q1", 0, answer="a")]))
    code = main(["score", "--queries", str(queries), "--generations", str(generations),
                 "--model", str(model / "model.json"),
                 "--methods", "distilled", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: query q1: question_embedding has 2 dimensions, model expects 16\n"
    )


_BAD_MODELS = {
    "truncated": ('{"format": "conscal-model/1", "scaler": {"means": [0.1, ',
                  "invalid JSON (Expecting value, line 1)"),
    "not_utf8": (b'{"format": "\xff"}', "invalid JSON (not UTF-8 text)"),
    "deep": ("[" * 100_000 + "]" * 100_000, "invalid JSON (nested too deeply)"),
    "scaler_list": (lambda d: d.update(scaler=[1, 2]), "scaler must be an object"),
    "string_means": (lambda d: d["scaler"].update(means=["a"]), "bad scaler means"),
    "huge_intercept": (lambda d: d["ridge"].update(intercept=10**400), "bad intercept"),
    "surrogate": (lambda d: d["training_meta"].update(note="\ud800"),
                  "invalid JSON (unpaired surrogate escape, line 1)"),
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


def test_eval_whose_write_fails_leaves_none_of_its_files(data_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    argv = ["eval", *_data_flags(data_dir), "--trials", "2", "--bins", "4", "--out", str(out)]
    assert main(argv) == 0
    (out / "trials.tsv").unlink()
    (out / "trials.tsv").mkdir()  # the rerun writes report.json, then cannot write this
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "trials.tsv" in err
    assert os.listdir(out) == ["trials.tsv"]


def test_eval_respects_the_requested_method_subset(data_dir, tmp_path):
    out = tmp_path / "subset"
    assert main(["eval"] + _data_flags(data_dir)
                + ["--trials", "1", "--bins", "4", "--methods", "tt_sc",
                   "--out", str(out)]) == 0
    assert set(_read_json(out / "report.json")["methods"]) == {"tt_sc"}


def test_eval_with_more_bins_than_test_queries_writes_nothing(data_dir, tmp_path, capsys):
    code = main(["eval"] + _data_flags(data_dir)
                + ["--trials", "1", "--bins", "40", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "equal-mass bins" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_eval_requires_labels(data_dir, tmp_path, capsys):
    code = main(["eval"] + _data_flags(data_dir, labels=False)
                + ["--trials", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "needs --labels" in capsys.readouterr().err


def test_eval_logs_its_label_coverage_once(data_dir, tmp_path, caplog):
    labels = tmp_path / "deploy_labels.jsonl"
    lines = (data_dir / "labels.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    labels.write_text(
        "".join(line for line in lines if json.loads(line)["sample_index"] == 0),
        encoding="utf-8",
    )
    argv = ["eval", *_data_flags(data_dir, labels=False), "--labels", str(labels),
            "--methods", "distilled,token_prob", "--trials", "2", "--out", str(tmp_path / "out")]
    with caplog.at_level("INFO", logger="conscal.records"):
        assert main(argv) == 0
    coverage = [r.getMessage() for r in caplog.records if "label coverage" in r.getMessage()]
    assert coverage == ["label coverage: 40 of 240 generations (16.7%)"]


def test_eval_trial_methods_are_checked_by_the_trial_config(data_dir, tmp_path, capsys):
    code = main(["eval"] + _data_flags(data_dir)
                + ["--methods", "bogus,tt_sc", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: unknown or unavailable methods: bogus (choose from distilled, "
        "token_prob, answer_prob, verbal_conf, supervised, tt_sc)\n"
    )
    assert not (tmp_path / "x").exists()


def _without_field(source, target, field):
    """The JSONL file ``source`` with ``field`` dropped from every line."""
    rows = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    target.write_text("".join(
        json.dumps({k: v for k, v in row.items() if k != field}) + "\n" for row in rows
    ))
    return str(target)


def test_eval_on_question_embeddings_needs_them_on_every_query(data_dir, tmp_path, capsys):
    queries = _without_field(
        data_dir / "queries.jsonl", tmp_path / "queries.jsonl", "question_embedding"
    )
    code = main(["eval", "--queries", queries,
                 "--generations", str(data_dir / "generations.jsonl"),
                 "--labels", str(data_dir / "labels.jsonl"),
                 "--feature-source", "question_embedding", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: query q000000: query has no question_embedding\n"
    assert not (tmp_path / "x").exists()


def test_only_tt_sc_needs_a_correctness_source_for_the_modal_sample(
    data_dir, tmp_path, capsys
):
    # Labels on each deployment response only, and no gold answers to fall back on.
    queries = _without_field(data_dir / "queries.jsonl", tmp_path / "queries.jsonl",
                             "gold_answers")
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(
        line for line in (data_dir / "labels.jsonl").read_text().splitlines(keepends=True)
        if json.loads(line)["sample_index"] == 0
    ))
    flags = ["--queries", queries, "--generations", str(data_dir / "generations.jsonl"),
             "--labels", str(labels), "--trials", "2", "--bins", "4"]
    out = tmp_path / "deployed"
    assert main(["eval", *flags, "--methods", "distilled,token_prob", "--out", str(out)]) == 0
    labelled = tmp_path / "labelled"
    assert main(["eval", *_data_flags(data_dir), "--trials", "2", "--bins", "4",
                 "--methods", "distilled,token_prob", "--out", str(labelled)]) == 0
    # The same scores as with every label: only the echoed paths differ.
    assert _read_bytes(out / "trials.tsv") == _read_bytes(labelled / "trials.tsv")
    assert _read_json(out / "report.json")["methods"] == (
        _read_json(labelled / "report.json")["methods"]
    )
    capsys.readouterr()
    assert main(["eval", *flags, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: query q0000") and err.endswith(
        ": no correctness source (provide labels or gold_answers)\n"
    )
    assert not (tmp_path / "x").exists()


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


_SHIFT = {"tag": "hard", "difficulty_alpha": 0.3, "difficulty_beta": 0.6}


@pytest.mark.parametrize(
    ("command", "config", "message"),
    [
        ("eval", '{"n_trials": 1e400}', "n_trials must be an integer, got inf"),
        ("eval", '{"bins": "5"}', "bins must be an integer, got '5'"),
        ("eval", '{"master_seed": 1.5}', "master_seed must be an integer, got 1.5"),
        ("eval", '{"methods": "distilled"}',
         "methods must be a list of method names, got 'distilled'"),
        ("synth", '{"n_queries": 1e400}', "n_queries must be an integer, got inf"),
        ("synth", '{"embedding_dim": 2.5}', "embedding_dim must be an integer, got 2.5"),
        ("synth", '{"distractor_count": true}', "distractor_count must be an integer, got True"),
        ("synth", '{"temperature": 1e400}', "temperature must be a finite real, got inf"),
        ("synth", json.dumps({"group_shift": {**_SHIFT, "difficulty_alpha": -1}}),
         "group_shift difficulty_alpha must be a positive real, got -1"),
        ("synth", json.dumps({"group_shift": {**_SHIFT, "tag": 5}}),
         "group_shift tag must be a nonempty string that differs from the main tag"),
        ("synth", '{"group_shift": 3}', "group_shift must be an object"),
        ("synth", '{"noise_scale": -1}', "noise_scale must be a nonnegative real"),
    ],
)
def test_config_values_of_the_wrong_type_are_usage_errors(
    command, config, message, data_dir, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    flags = _data_flags(data_dir) if command == "eval" else []
    code = main([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x").exists()


_HUGE = 10**29


@pytest.mark.parametrize(
    ("command", "setting"),
    [("synth", "n_queries"), ("synth", "k"), ("synth", "distractor_count"),
     ("synth", "embedding_dim"), ("eval", "n_trials"), ("eval", "bins"),
     ("eval", "k_subsample")],
)
def test_a_size_setting_past_the_bound_is_a_usage_error(
    command, setting, data_dir, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({setting: _HUGE}))
    flags = _data_flags(data_dir) if command == "eval" else []
    code = main([command, *flags, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    message = f"{setting} must be <= {MAX_SIZE}, got {_HUGE}"
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    ("command", "flag"),
    [("synth", "--n-queries"), ("synth", "--k"), ("targets", "--k"), ("eval", "--trials"),
     ("eval", "--bins"), ("eval", "--k"), ("selective", "--trials"), ("shift", "--k")],
)
@pytest.mark.parametrize("value", [0, MAX_SIZE + 1, _HUGE])
def test_a_size_flag_out_of_range_is_a_usage_error_naming_the_flag(
    command, flag, value, data_dir, tmp_path, capsys
):
    flags = [] if command == "synth" else _data_flags(data_dir, labels=command != "targets")
    if command == "shift":
        flags += ["--train-groups", "main", "--test-groups", "shifted"]
    code = main([command, *flags, flag, str(value), "--out", str(tmp_path / "x")])
    assert code == 2
    bound = ">= 1" if value < 1 else f"<= {MAX_SIZE}"
    assert capsys.readouterr().err == f"usage error: {flag} must be {bound}, got {value}\n"
    assert not (tmp_path / "x").exists()


def test_sizes_up_to_the_bound_are_valid_settings():
    assert synth.SynthConfig(n_queries=MAX_SIZE, k=MAX_SIZE, distractor_count=MAX_SIZE,
                             embedding_dim=MAX_SIZE).k == MAX_SIZE
    assert evaluation.TrialConfig(n_trials=MAX_SIZE, bins=MAX_SIZE,
                                  k_subsample=MAX_SIZE).n_trials == MAX_SIZE


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


def test_selective_writes_null_for_the_answered_side_when_every_query_abstains(
    data_dir, tmp_path
):
    out = tmp_path / "sel"
    assert main(["selective"] + _data_flags(data_dir)
                + ["--trials", "2", "--rates", "0.99", "--methods", "token_prob",
                   "--out", str(out)]) == 0
    (report,) = _read_strict_json(out / "report.json")
    (row,) = report["methods"]["token_prob"]["selective"]
    assert row["answered"] == 0
    assert row["accuracy"] is row["confidence"] is row["gain"] is None
    assert 0.0 <= row["abstained_accuracy"] <= 1.0


def test_selective_rejects_unparseable_and_out_of_range_rates(data_dir, tmp_path, capsys):
    base = ["selective"] + _data_flags(data_dir) + ["--trials", "1"]
    assert main(base + ["--rates", "0.2,oops", "--out", str(tmp_path / "x")]) == 2
    assert "--rates" in capsys.readouterr().err
    assert main(base + ["--rates", "1.0", "--out", str(tmp_path / "y")]) == 2
    assert "abstention rate" in capsys.readouterr().err
    assert main(base + ["--rates", ",", "--out", str(tmp_path / "z")]) == 2
    assert capsys.readouterr().err == (
        "usage error: --rates must name at least one abstention rate\n"
    )


def test_selective_names_the_rate_it_cannot_parse(data_dir, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["selective"] + _data_flags(data_dir)
                + ["--rates", "0.1,x", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: --rates must be comma-separated numbers: "
        "could not convert string to float: 'x'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("file_rates", "flag", "scored"),
    [
        ([0.25], ["--rates", "0.4,0.05"], [0.4, 0.05]),
        ([0.25], [], [0.25]),
        ([], [], [0.1, 0.2, 0.3, 0.5]),
        (None, [], [0.1, 0.2, 0.3, 0.5]),
    ],
    ids=["the flag over the file", "the file", "the default, for an empty list",
         "the default, with no file"],
)
def test_selective_scores_the_flag_then_the_config_file_then_the_default_rates(
    data_dir, tmp_path, file_rates, flag, scored
):
    config = []
    if file_rates is not None:
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"selective_rates": file_rates}))
        config = ["--config", str(cfg)]
    out = tmp_path / "sel"
    assert main(["selective"] + _data_flags(data_dir) + config + flag
                + ["--trials", "1", "--methods", "token_prob", "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert [row["rate"] for row in report["methods"]["token_prob"]["selective"]] == scored
    assert _read_json(out / "config.json")["selective_rates"] == scored


def test_eval_names_a_cal_fraction_that_leaves_too_few_queries(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--n-queries", "20", "--k", "4", "--seed", "0",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "report"
    code = main(["eval"] + _data_flags(data) + ["--cal-frac", "0.05", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: cal_fraction 0.05 leaves too little data (1 cal / 19 test of 20); "
        "both sides need at least 2 queries\n"
    )
    assert not out.exists()


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
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    ("groups", "message"),
    [
        (["--train-groups", "main", "--test-groups", "main"],
         "groups cannot be on both sides: main"),
        (["--train-groups", ",", "--test-groups", "shifted"],
         "train_groups and test_groups must both be nonempty"),
    ],
)
def test_shift_checks_the_groups_before_reading_the_data(groups, message, tmp_path, capsys):
    flags = []
    for name in ("queries", "generations", "labels"):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        flags += [f"--{name}", str(path)]
    code = main(["shift", *flags, *groups, "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

def _golden_digests():
    """Run the golden commands of ``golden.py`` in the working directory,
    after the two synth runs they read, and return the sha256 of each file
    they wrote, keyed ``<out>/<name>``."""
    for preset in ("benchmark", "shift"):
        golden.synth(preset, golden.SYNTH_OUTS[preset])
    return golden.command_digests()


def test_cli_outputs_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    # Recorded before a refactor that must keep every output byte; a declared
    # change to any output byte re-records the file from _golden_digests()
    # run in an empty directory.
    monkeypatch.chdir(tmp_path)
    assert _golden_digests() == _read_json(golden.CLI_DIGESTS)
    capsys.readouterr()
    # Every JSON file the commands wrote, the two datasets included, is strict JSON.
    written = sorted(tmp_path.glob("*/*.json*"))
    assert len(written) == 30
    for path in written:
        assert _read_strict_json(path), path


def test_cli_outputs_keep_their_digests_when_generations_are_read_in_parts(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(records, "_BYTES_PER_PART", 4096)
    monkeypatch.setattr(parts, "_usable_cpus", lambda: 3)
    count = parts.part_count(20 * 8 * 500, records._BYTES_PER_PART)
    assert count == (3 if hasattr(os, "fork") else 1)
    assert _golden_digests() == _read_json(golden.CLI_DIGESTS)
    capsys.readouterr()


def test_interleaved_queries_give_the_same_outputs_in_every_part_count(
    data_dir, model_dir, tmp_path, monkeypatch, capsys
):
    original = data_dir / "generations.jsonl"
    lines = original.read_text(encoding="utf-8").splitlines(keepends=True)
    # Ordered by (sample_index, query_id), no two rows of a query are adjacent.
    keys = [(row["sample_index"], row["query_id"]) for row in map(json.loads, lines)]
    interleaved = tmp_path / "interleaved.jsonl"
    interleaved.write_text("".join(line for _, line in sorted(zip(keys, lines))), "utf-8")
    assert len({query_id for _, query_id in sorted(keys)[:40]}) == 40
    monkeypatch.setattr(records, "_BYTES_PER_PART", 4096)
    outputs = {}
    for cpus in (1, 3):
        monkeypatch.setattr(parts, "_usable_cpus", lambda: cpus)
        count = parts.part_count(interleaved.stat().st_size, records._BYTES_PER_PART)
        assert count == (cpus if hasattr(os, "fork") else 1)
        for generations in (original, interleaved):
            flags = ["--queries", str(data_dir / "queries.jsonl"),
                     "--generations", str(generations)]
            out = tmp_path / f"{generations.stem}-{cpus}"
            assert main(["eval", *flags, "--labels", str(data_dir / "labels.jsonl"),
                         "--trials", "3", "--bins", "4", "--seed", "2",
                         "--out", str(out / "eval")]) == 0
            assert main(["score", *flags, "--model", str(model_dir / "model.json"),
                         "--out", str(out / "score")]) == 0
            outputs[generations.stem, cpus] = [
                (out / "eval" / "trials.tsv").read_bytes(),
                (out / "score" / "scores.jsonl").read_bytes(),
                (out / "eval" / "report.json").read_bytes().replace(
                    str(generations).encode(), b"{generations}"
                ),
            ]
    capsys.readouterr()
    first = outputs["generations", 1]
    assert b"{generations}" in first[2]
    for key, output in outputs.items():
        assert output == first, key


# ---------------------------------------------------------------------------
# output names, and the exit codes of malformed input
# ---------------------------------------------------------------------------

# Each writing command's file names, config.json aside.
_OUTPUT_NAMES = {
    "synth": ["generations.jsonl", "labels.jsonl", "queries.jsonl", "truth.jsonl"],
    "targets": ["targets.jsonl"],
    "train": ["model.json"],
    "score": ["scores.jsonl"],
    "eval": ["report.json", "trials.tsv"],
    "selective": ["report.json", "trials.tsv"],
    "shift": ["report.json", "trials.tsv"],
}


def _contract_argv(base):
    """Every command's arguments, but --out, over the files in ``base``."""
    data = ["--queries", str(base / "queries.jsonl"),
            "--generations", str(base / "generations.jsonl")]
    labels = ["--labels", str(base / "labels.jsonl")]
    trial = [*data, *labels, "--config", str(base / "trial.json")]
    return {
        "synth": ["synth", "--preset", "shift", "--n-queries", "40", "--k", "4",
                  "--config", str(base / "synth.json")],
        "validate": ["validate", *data, *labels],
        "targets": ["targets", *data],
        "train": ["train", *data, "--targets", str(base / "targets.jsonl")],
        "score": ["score", *data, "--model", str(base / "model.json")],
        "eval": ["eval", *trial],
        "selective": ["selective", *trial],
        "shift": ["shift", *trial, "--train-groups", "main", "--test-groups", "shifted"],
    }


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """40x4 shift-preset records with their targets, model and scores, and a
    synth and a trial --config file."""
    base = tmp_path_factory.mktemp("contract")
    assert main(["synth", "--preset", "shift", "--n-queries", "40", "--k", "4",
                 "--seed", "0", "--out", str(base)]) == 0
    (base / "synth.json").write_text(json.dumps(
        {"n_queries": 40, "k": 4, "seed": 1, "group_shift": _SHIFT}), encoding="utf-8")
    (base / "trial.json").write_text(json.dumps(
        {"n_trials": 2, "bins": 4, "methods": ["distilled", "token_prob", "tt_sc"]}),
        encoding="utf-8")
    argv = _contract_argv(base)
    for command in ("targets", "train", "score"):
        assert main([*argv[command], "--out", str(base)]) == 0, command
    return base


@pytest.mark.parametrize("command", sorted(_OUTPUT_NAMES))
def test_a_command_writes_its_file_names_and_config_json_only(
    contract_dir, tmp_path, capsys, command
):
    out = tmp_path / "out"
    assert main([*_contract_argv(contract_dir)[command], "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted([*_OUTPUT_NAMES[command], "config.json"])
    capsys.readouterr()


# Values a swap puts in place of a field or entry, among them a size past
# what a run can hold, and byte strings a splice inserts.
_SWAPS = [None, True, -1, 0.5, "x", "\ud800", [], {}, [1.5], float("inf"), 10**29]
_SPLICES = [b"\xff", b'"', b"{", b"]", b",", b"\\ud800", b"NaN", b"1e400", b"\r", b"\x00",
            b"9" * 400]


def _containers(value):
    """Every dict and list in the JSON value ``value``, ``value`` first."""
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, list):
        items = value
    else:
        return []
    return [value, *(found for item in items for found in _containers(item))]


def _mutate(blob, kind, rng, jsonl):
    """``blob``, the bytes of a JSONL file (``jsonl``) or a JSON file, with
    one mutation of ``kind`` where ``rng`` picks: a byte string spliced into
    a line, or a field or entry of one line's value or of the document
    swapped, deleted or added."""
    lines = blob.splitlines(keepends=True)
    if kind == "splice":
        row = rng.randrange(len(lines))
        at = rng.randrange(len(lines[row]))
        lines[row] = lines[row][:at] + rng.choice(_SPLICES) + lines[row][at:]
        return b"".join(lines)
    row = rng.randrange(len(lines)) if jsonl else None
    value = json.loads(lines[row] if jsonl else blob)
    if kind == "add":
        target = rng.choice([c for c in _containers(value) if isinstance(c, dict)])
        target["unknown_key"] = rng.choice(_SWAPS)
    else:
        target = rng.choice([c for c in _containers(value) if c])
        key = rng.choice(list(target) if isinstance(target, dict) else range(len(target)))
        if kind == "delete":
            del target[key]
        else:
            target[key] = rng.choice(_SWAPS)
    text = json.dumps(value).encode("utf-8")
    if not jsonl:
        return text
    lines[row] = text + b"\n"
    return b"".join(lines)


@pytest.mark.parametrize("source", [
    "queries.jsonl", "generations.jsonl", "labels.jsonl", "targets.jsonl", "scores.jsonl",
    "model.json", "synth.json", "trial.json",
])
def test_malformed_input_ends_in_an_exit_code_and_leaves_no_output(
    contract_dir, tmp_path, capsys, source
):
    # No command reads scores.jsonl: it goes where the labels go.
    slot = str(contract_dir / ("labels.jsonl" if source == "scores.jsonl" else source))
    rng = random.Random(source)
    blob = (contract_dir / source).read_bytes()
    for case, kind in enumerate(("splice", "swap", "delete", "add") * 2):
        mutated = tmp_path / f"{case}-{kind}-{source}"
        mutated.write_bytes(_mutate(blob, kind, rng, source.endswith(".jsonl")))
        for command, argv in _contract_argv(contract_dir).items():
            if slot not in argv:
                continue
            argv = [str(mutated) if arg == slot else arg for arg in argv]
            out = tmp_path / f"{case}-{command}"
            if command != "validate":
                argv += ["--out", str(out)]
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{command} on {mutated.name}: {exc!r} escaped main")
            assert code in (0, 1, 2), (command, mutated.name)
            if code:
                assert not out.exists(), (command, mutated.name)
            elif command != "validate":
                for path in out.iterdir():
                    if path.suffix in (".json", ".jsonl"):
                        _read_strict_json(path)
    capsys.readouterr()


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
        [sys.executable, "-c", "import conscal.cli, sys; "
         "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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


def test_readme_library_example_runs(data_dir, capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    source = blocks[0].split("```")[0]
    assert "runs/data" in source
    exec(compile(source.replace("runs/data", str(data_dir)), "README.md", "exec"), {})
    ece2 = float(capsys.readouterr().out)
    assert 0.0 <= ece2 <= 1.0
