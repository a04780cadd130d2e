"""The package binds its modules and its version: names are imported from
the modules that define them."""

from __future__ import annotations

import pathlib
import re
import types

import conscal

_PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_the_package_binds_only_its_modules_and_its_version():
    public = {name: value for name, value in vars(conscal).items() if not name.startswith("_")}
    assert {"baselines", "calibrator", "consistency", "errors", "evaluation", "metrics",
            "records", "synth"} <= set(public)
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"conscal.{name}"
    # pyproject.toml declares the version too; Python 3.10 has no tomllib.
    declared = re.search(r'^version = "([^"]+)"$', _PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert conscal.__version__ == declared.group(1)
