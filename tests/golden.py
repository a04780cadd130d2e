"""The golden runs: ``conscal synth`` over 20 queries x 8 samples with seed 0,
then every command over its files, and the sha256 of each file they write.

``data/synth_digests_n20_k8_seed0.json`` and ``data/cli_digests_n20_k8_seed0.json``
beside this module record those digests; ``test_cli.py`` checks them.  Run
as a script in an empty directory, this module checks all of them again
with nothing but the standard library and an installed ``conscal``:

    mkdir golden && cd golden && python /path/to/tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from conscal.cli import main

RECORDED = pathlib.Path(__file__).parent / "data"
SYNTH_DIGESTS = RECORDED / "synth_digests_n20_k8_seed0.json"
CLI_DIGESTS = RECORDED / "cli_digests_n20_k8_seed0.json"

# Each preset's run and the directory it writes; the commands read data/ and shiftdata/.
SYNTH_OUTS = {"benchmark": "data", "premise": "premisedata", "shift": "shiftdata"}

_DATA = ["--queries", "data/queries.jsonl", "--generations", "data/generations.jsonl"]
_LABELS = ["--labels", "data/labels.jsonl"]
_SHIFT_DATA = ["--queries", "shiftdata/queries.jsonl",
               "--generations", "shiftdata/generations.jsonl",
               "--labels", "shiftdata/labels.jsonl"]
# Each command's --out and its other arguments.  targets_k5 and eval_k4
# draw their k-subsamples through seeding.choice_sets.
COMMANDS = {
    "targets": ["targets", *_DATA],
    "targets_k5": ["targets", *_DATA, "--k", "5", "--seed", "2"],
    "train": ["train", *_DATA, "--seed", "1"],
    "train_question": ["train", *_DATA, "--targets", "targets/targets.jsonl",
                       "--feature-source", "question_embedding", "--alpha", "0.5",
                       "--split-frac", "0.4"],
    "score": ["score", *_DATA, "--model", "train/model.json"],
    "eval": ["eval", *_DATA, *_LABELS, "--trials", "3", "--bins", "4", "--seed", "1"],
    "eval_k4": ["eval", *_DATA, *_LABELS, "--trials", "2", "--bins", "3", "--k", "4"],
    "eval_config": ["eval", *_DATA, *_LABELS, "--config", "trial.json", "--seed", "4"],
    "selective": ["selective", *_DATA, *_LABELS, "--trials", "2", "--bins", "4",
                  "--rates", "0,0.25,0.5", "--methods", "supervised,tt_sc,distilled"],
    "shift": ["shift", *_SHIFT_DATA, "--trials", "2", "--bins", "4",
              "--train-groups", "main", "--test-groups", "shifted"],
}
# The trial.json that eval_config reads.
TRIAL_JSON = {
    "n_trials": 2, "bins": 4, "cal_fraction": 0.5, "alpha": 0.5, "split_frac": 0.4,
    "methods": ["distilled", "verbal_conf", "answer_prob"],
    "feature_source": "question_embedding",
}


def _read_json(path: pathlib.Path):
    return json.loads(path.read_text(encoding="utf-8"))


def digests(out: str | pathlib.Path) -> dict[str, str]:
    """The sha256 of every file in the directory ``out``, keyed by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(pathlib.Path(out).iterdir())
    }


def synth(preset: str, out: str | pathlib.Path) -> dict:
    """Run ``conscal synth --preset <preset>`` into ``out``; what it printed,
    with ``out`` as ``{out}``, and the digests of what it wrote, in the
    form the synth digests file records."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(["synth", "--preset", preset, "--n-queries", "20", "--k", "8",
                     "--seed", "0", "--out", str(out)])
    assert code == 0, preset
    return {"files": digests(out), "stdout": printed.getvalue().replace(str(out), "{out}")}


def command_digests() -> dict[str, str]:
    """Run every command of :data:`COMMANDS` in the working directory, which
    holds the ``data`` and ``shiftdata`` synth runs, and return the digest of
    each file it wrote, keyed ``<out>/<name>``."""
    pathlib.Path("trial.json").write_text(json.dumps(TRIAL_JSON), encoding="utf-8")
    written = {}
    for out, argv in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        assert code == 0, out
        written.update({f"{out}/{name}": digest for name, digest in digests(out).items()})
    return written


def check() -> int:
    """Run every preset and every command in the working directory and
    assert that they print and write the recorded bytes; the number of
    command files checked."""
    recorded = _read_json(SYNTH_DIGESTS)
    for preset, out in SYNTH_OUTS.items():
        assert synth(preset, out) == recorded[preset], preset
    written = command_digests()
    assert written == _read_json(CLI_DIGESTS)
    return len(written)


if __name__ == "__main__":
    count = check()
    print(count, f"command outputs and {len(SYNTH_OUTS)} synth runs match the recorded digests")
