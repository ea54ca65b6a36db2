"""End-to-end command line behavior through subprocesses."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import kgbreather
from kgbreather.runio import read_diagnostics, read_sweep

# the child process imports the same package source as this test process
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kgbreather.__file__)))


def run_cli(*argv):
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "kgbreather.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else "")),
    )


@pytest.fixture()
def cfg64(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_end = 64\ngrid_points = 64\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def finished_run(tmp_path, cfg64):
    out = str(tmp_path / "run")
    res = run_cli("simulate", "--config", cfg64, "--out", out)
    assert res.returncode == 0, res.stderr
    return out


def test_simulate_writes_all_artifacts(tmp_path, cfg64):
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", cfg64, "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "wrote" in res.stdout
    names = sorted(os.listdir(out))
    assert names == ["diagnostics.csv", "manifest.json", "snapshots.csv", "tracers.csv"]
    rows = read_diagnostics(out / "diagnostics.csv")
    assert [r.t for r in rows] == [0.0, 16.0, 32.0, 48.0, 64.0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["steps"] == 512
    assert sorted(manifest["files"]) == ["diagnostics.csv", "snapshots.csv", "tracers.csv"]
    assert manifest["params"]["t_end"] == 64.0
    assert manifest["grid"]["n"] == 64


def test_simulate_zero_t_end_writes_one_snapshot(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0\ngrid_points = 32\n", encoding="utf-8")
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = (out / "snapshots.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 32  # header plus exactly one state


def test_simulate_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt = -1\n", encoding="utf-8")
    res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert res.returncode == 2
    assert "dt" in res.stderr


def test_simulate_repeated_probe_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("probes = 2, 2\nt_end = 64\ngrid_points = 64\n", encoding="utf-8")
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2
    assert "probes must be distinct" in res.stderr
    assert not (out / "tracers.csv").exists()


def test_simulate_infinite_t_end_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = inf\n", encoding="utf-8")
    res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert res.returncode == 2
    assert "t_end must be finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_simulate_grid_points_beyond_float_range_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_points = {10**400}\n", encoding="utf-8")
    res = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert res.returncode == 2
    assert "grid_points must be even and in [8, 2**53]" in res.stderr
    assert "Traceback" not in res.stderr


def test_simulate_missing_config_exits_3(tmp_path):
    res = run_cli("simulate", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x"))
    assert res.returncode == 3
    assert "io error" in res.stderr


def test_simulate_diverging_run_exits_2_with_failure_manifest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stage_max_iter = 1\ngrid_points = 64\nt_end = 64\n", encoding="utf-8")
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failure"]["error"] == "StageSolveDiverged"
    assert manifest["failure"]["t"] == 0.0
    assert not (out / "snapshots.csv").exists()


def test_no_subcommand_exits_1():
    res = run_cli()
    assert res.returncode == 1
    assert "usage error" in res.stderr


def test_unknown_subcommand_exits_1():
    res = run_cli("explode")
    assert res.returncode == 1


def test_classify_matches_manifest_label(finished_run):
    manifest = json.loads(pathlib.Path(finished_run, "manifest.json").read_text())
    res = run_cli("classify", "--out", finished_run)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == manifest["classification"]
    for name in ("m_left=", "m_right=", "rot_left=", "rot_origin=", "final_t="):
        assert name in lines[1]


def test_classify_truncated_diagnostics_exits_2(finished_run):
    with open(os.path.join(finished_run, "diagnostics.csv"), "w") as fh:
        fh.write("t,energy\n")
    res = run_cli("classify", "--out", finished_run)
    assert res.returncode == 2
    assert "error" in res.stderr


def test_classify_rejects_an_edited_rot_left_cell(finished_run):
    path = os.path.join(finished_run, "diagnostics.csv")
    lines = pathlib.Path(path).read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    col = lines[0].rstrip("\n").split(",").index("rot_left")
    digit = cells[col][-1]
    cells[col] = cells[col][:-1] + str((int(digit) + 1) % 10)
    lines[-1] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.write("".join(lines))
    res = run_cli("classify", "--out", finished_run)
    assert res.returncode == 2
    assert "diagnostics.csv: digest mismatch" in res.stderr
    assert res.stdout == ""


def edit_manifest(run_dir, change):
    path = os.path.join(run_dir, "manifest.json")
    manifest = json.loads(pathlib.Path(path).read_text())
    change(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def test_classify_and_plot_reject_a_manifest_that_is_not_json(finished_run):
    with open(os.path.join(finished_run, "manifest.json"), "w") as fh:
        fh.write('{"params": {')
    for command in ("classify", "plot"):
        res = run_cli(command, "--out", finished_run)
        assert res.returncode == 2, command
        assert "manifest.json is not a JSON manifest" in res.stderr
        assert "Traceback" not in res.stderr


def test_classify_and_plot_reject_a_manifest_without_params(finished_run):
    edit_manifest(finished_run, lambda m: m.pop("params"))
    for command in ("classify", "plot"):
        res = run_cli(command, "--out", finished_run)
        assert res.returncode == 2, command
        assert "it has no params" in res.stderr
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"bogus": 1}, "unknown parameter keys: ['bogus']"),
        ({"snapshot_every": "16"}, "has unusable params: snapshot_every must be a number"),
        ({"domain_length": 0}, "domain_length must be > 0"),
    ],
    ids=["unknown_key", "string_snapshot_every", "zero_domain_length"],
)
def test_classify_and_plot_reject_unusable_params(finished_run, edit, message):
    edit_manifest(finished_run, lambda m: m["params"].update(edit))
    for command in ("classify", "plot"):
        res = run_cli(command, "--out", finished_run)
        assert res.returncode == 2, command
        assert message in res.stderr
        assert "Traceback" not in res.stderr


def test_classify_rejects_a_manifest_without_file_digests(finished_run):
    edit_manifest(finished_run, lambda m: m.pop("files"))
    path = os.path.join(finished_run, "diagnostics.csv")
    lines = pathlib.Path(path).read_text().splitlines(keepends=True)
    last = lines[-1].rstrip("\n")
    lines[-1] = last[:-1] + str((int(last[-1]) + 1) % 10) + "\n"
    with open(path, "w") as fh:
        fh.write("".join(lines))
    res = run_cli("classify", "--out", finished_run)
    assert res.returncode == 2
    assert "records no digest for diagnostics.csv, tracers.csv" in res.stderr
    assert res.stdout == ""


def test_classify_missing_run_exits_3(tmp_path):
    res = run_cli("classify", "--out", str(tmp_path / "nowhere"))
    assert res.returncode == 3


def test_plot_writes_both_views(finished_run):
    res = run_cli("plot", "--out", finished_run)
    assert res.returncode == 0, res.stderr
    wave = pathlib.Path(finished_run, "waveform.svg").read_text()
    phase = pathlib.Path(finished_run, "phase.svg").read_text()
    assert wave.startswith("<svg ")
    assert phase.startswith("<svg ")
    assert "t = 64" in wave


def test_plot_kind_selects_one_view(finished_run):
    res = run_cli("plot", "--out", finished_run, "--kind", "phase")
    assert res.returncode == 0, res.stderr
    assert os.path.exists(os.path.join(finished_run, "phase.svg"))
    assert not os.path.exists(os.path.join(finished_run, "waveform.svg"))


def test_plot_specific_time_and_miss(finished_run):
    res = run_cli("plot", "--out", finished_run, "--time", "16", "--kind", "waveform")
    assert res.returncode == 0, res.stderr
    assert "t = 16" in pathlib.Path(finished_run, "waveform.svg").read_text()
    res = run_cli("plot", "--out", finished_run, "--time", "17")
    assert res.returncode == 2
    assert "no snapshot" in res.stderr


def test_plot_rejects_an_edited_snapshots_file(finished_run):
    path = os.path.join(finished_run, "snapshots.csv")
    text = pathlib.Path(path).read_text()
    with open(path, "w") as fh:
        fh.write(text.replace("\n64.0,", "\n64.5,", 1))
    os.remove(os.path.join(finished_run, "tracers.csv"))
    res = run_cli("plot", "--out", finished_run)
    assert res.returncode == 2
    assert "snapshots.csv: digest mismatch" in res.stderr
    assert "tracers.csv: listed in manifest but missing" in res.stderr
    assert not os.path.exists(os.path.join(finished_run, "waveform.svg"))


def test_plot_is_byte_deterministic(finished_run):
    run_cli("plot", "--out", finished_run)
    first = pathlib.Path(finished_run, "phase.svg").read_bytes()
    run_cli("plot", "--out", finished_run)
    second = pathlib.Path(finished_run, "phase.svg").read_bytes()
    assert first == second


def test_sweep_runs_each_amplitude(tmp_path, cfg64):
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "0.02,0.04")
    assert res.returncode == 0, res.stderr
    entries = read_sweep(out / "sweep.csv")
    assert [e["A"] for e in entries] == [0.02, 0.04]
    for e in entries:
        assert e["label"] in ("breather", "ordinary", "indeterminate")
    assert (out / "A_0.02" / "manifest.json").exists()
    assert (out / "A_0.04" / "manifest.json").exists()


def test_sweep_rejects_non_increasing_amplitudes(tmp_path, cfg64):
    res = run_cli("sweep", "--config", cfg64, "--out", str(tmp_path / "s"), "--amplitudes", "0.04,0.02")
    assert res.returncode == 1
    assert "strictly increasing" in res.stderr
    res = run_cli("sweep", "--config", cfg64, "--out", str(tmp_path / "s"), "--amplitudes", " , ")
    assert res.returncode == 1


def test_sweep_rejects_an_invalid_member_before_running_any(tmp_path, cfg64):
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "0.01,nan")
    assert res.returncode == 2
    assert "amplitude must be finite, got nan" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_sweep_all_failures_exits_2_with_placeholder_rows(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stage_max_iter = 1\ngrid_points = 64\nt_end = 64\n", encoding="utf-8")
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--amplitudes", "0.02,0.04")
    assert res.returncode == 2
    assert "failed" in res.stderr
    entries = read_sweep(out / "sweep.csv")
    assert len(entries) == 2
    assert all(e["label"] == "indeterminate" for e in entries)
    assert all(e["max_drift"] != e["max_drift"] for e in entries)  # nan


def test_two_simulates_write_identical_csv_bytes(tmp_path, cfg64):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("simulate", "--config", cfg64, "--out", str(out_a)).returncode == 0
    assert run_cli("simulate", "--config", cfg64, "--out", str(out_b)).returncode == 0
    for name in ("snapshots.csv", "diagnostics.csv", "tracers.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
