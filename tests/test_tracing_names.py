"""The benchmark tracer wraps package functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    """``perfbench/tracing.py``, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_conscal_module():
    # Tracer.installed() looks each name up with getattr, so a name that is
    # gone fails every traced op of the benchmark.
    tracing = _tracing_module()
    names = [*tracing.SPANNED, *tracing.COUNTED]
    assert "records.write_generations" in names and "synth.write_truth" in names
    missing = []
    for name in names:
        module_name, function = name.split(".")
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(name)
    assert missing == []
