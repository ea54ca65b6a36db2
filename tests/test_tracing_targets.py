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


def test_counted_writer_is_the_one_cli_binds():
    # install() also rebinds runio.atomic_write_text by identity to count the
    # bytes written; cli must hold that same object for its SVGs to be counted
    runio = importlib.import_module("kgbreather.runio")
    cli = importlib.import_module("kgbreather.cli")
    assert callable(runio.atomic_write_text)
    assert cli.atomic_write_text is runio.atomic_write_text
