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


def test_sweep_members_match_solo_simulates(tmp_path, capsys):
    # members share one step loop, yet each writes the bytes its solo run writes
    out = tmp_path / "sweep"
    cfg = config(tmp_path, "t_end = 64\n")
    run_cli(capsys, "sweep", "--config", cfg, "--amplitudes", "0.02,0.12", "--out", out)
    for amp in (0.02, 0.12):
        solo = tmp_path / f"solo_{amp!r}"
        cfg = config(tmp_path, f"t_end = 64\namplitude = {amp!r}\n")
        run_cli(capsys, "simulate", "--config", cfg, "--out", solo)
        member = out / f"A_{amp!r}"
        checks.check_same_run(checks.Run(str(member)), checks.Run(str(solo)))
        for name in ("snapshots.csv", "diagnostics.csv", "tracers.csv"):
            assert (member / name).read_bytes() == (solo / name).read_bytes()


def test_record_run_passes_every_check(tmp_path, capsys):
    # a snapshot every step, as in the benchmark's record workload
    out = tmp_path / "run"
    cfg = config(tmp_path, "amplitude = 0.12\nt_end = 32\nsnapshot_every = 0.125\n")
    run_cli(capsys, "simulate", "--config", cfg, "--out", out)
    run, _, expected = checks.check_run(str(out))
    assert run.snap_t.size == 257
    checks.check_classify_output(run_cli(capsys, "classify", "--out", out), expected, str(out))


def test_snapshot_cadence_that_does_not_divide_t_end(tmp_path, capsys):
    # snapshot_every need not divide t_end: snapshots stop at the last
    # multiple of it (64), while the tracers and the final state reach 72
    out = tmp_path / "run"
    cfg = config(tmp_path, "t_end = 72\nsnapshot_every = 16\n")
    run_cli(capsys, "simulate", "--config", cfg, "--out", out)
    run, _, expected = checks.check_run(str(out))
    assert run.steps == 576
    assert run.snap_t.tolist() == [0.0, 16.0, 32.0, 48.0, 64.0]
    assert run.trk_u.shape == (2, 577)
    printed = run_cli(capsys, "classify", "--out", out)
    checks.check_classify_output(printed, expected, str(out))
    assert "final_t=64.0" in printed
