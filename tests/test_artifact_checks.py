"""Short CLI runs pass the benchmark's independent output checks.

perfbench/checks.py recomputes what it compares against with numpy alone:
bit-exact oddness of the snapshots, tracer samples equal to snapshot samples,
energies and rotation counts, file digests and the mode label. Running it on
a few short runs keeps those checks in the unit suite.
"""

import importlib.util
import pathlib

from kgbreather.cli import main

CHECKS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def run_cli(capsys, *argv):
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_simulate_passes_every_check(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(capsys, "simulate", "--config", config(tmp_path, "t_end = 64\n"), "--out", out)
    run, drift, expected = checks.check_run(str(out))
    assert run.steps == 512
    assert 0.0 < drift <= checks.DRIFT_LIMIT
    assert expected is not None


def test_three_stage_simulate_passes_every_check(tmp_path, capsys):
    # every benchmark workload uses two stages; this covers the s = 3 scheme
    out = tmp_path / "run"
    cfg = config(tmp_path, "irk_stages = 3\nt_end = 64\n")
    run_cli(capsys, "simulate", "--config", cfg, "--out", out)
    run, drift, _ = checks.check_run(str(out))
    assert run.steps == 512
    assert drift <= checks.DRIFT_LIMIT


def test_sweep_members_pass_every_check(tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = config(tmp_path, "t_end = 64\n")
    run_cli(capsys, "sweep", "--config", cfg, "--amplitudes", "0.02,0.12", "--out", out)
    rows = checks.load_sweep(str(out / "sweep.csv"))
    assert [row["A"] for row in rows] == [0.02, 0.12]
    for amp, row in zip((0.02, 0.12), rows):
        run, _, expected = checks.check_run(str(out / f"A_{amp!r}"))
        checks.check_sweep_row(row, run, expected)


def test_record_run_passes_every_check(tmp_path, capsys):
    # a snapshot every step, as in the benchmark's record workload
    out = tmp_path / "run"
    cfg = config(tmp_path, "amplitude = 0.12\nt_end = 32\nsnapshot_every = 0.125\n")
    run_cli(capsys, "simulate", "--config", cfg, "--out", out)
    run, _, expected = checks.check_run(str(out))
    assert run.snap_t.size == 257
    checks.check_classify_output(run_cli(capsys, "classify", "--out", out), expected, str(out))
