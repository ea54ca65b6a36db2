"""Every function the benchmark's tracer wraps still exists under its traced name."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
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


# a traced two-member integrate, run in its own interpreter because install()
# rebinds kgbreather's functions for good; prints each span's call count
TRACED_STACK = """
import dataclasses, json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from kgbreather import FieldState, SimParams, initial_state, stepping
p = SimParams(t_end=4.0)
starts = [initial_state(dataclasses.replace(p, amplitude=a)) for a in (0.02, 0.12)]
stepping.integrate(p, FieldState(t=[s.t for s in starts], u=[s.u for s in starts], v=[s.v for s in starts]))
print(json.dumps({name: calls for name, (calls, _, _) in tracer.totals.items()}))
"""

# the spans that the per-layer metrics of an integrate divide up
HOT_LOOP_SPANS = (
    "stepping.integrate",
    "stepping.solve",
    "accel.stage_matvec",
    "spectral.cube_hat",
    "spectral.dft_forward",
    "spectral.dft_inverse",
    "core.odd_part",
    "dynamics.energy",
    "dynamics.momentum",
)


def test_the_integrate_loop_calls_every_traced_hot_function():
    # a span that the loop stops calling would read 0 in its per-layer metric
    # without any other check failing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_STACK], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    calls = json.loads(out.stdout.splitlines()[-1])
    never = [name for name in HOT_LOOP_SPANS if calls.get(name, 0) == 0]
    assert not never, f"never called: {never}"
