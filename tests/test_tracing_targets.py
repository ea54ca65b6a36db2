"""Every function the benchmark's tracer wraps still exists under its traced name."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_traced_target_resolves(name):
    modname, path = tracing.TARGETS[name]
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
