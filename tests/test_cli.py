"""End-to-end command line behavior through subprocesses."""

import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import kgbreather
from kgbreather import FieldState, InvalidParams, SimParams, cli, errors, fixed_points, params_from_dict
from kgbreather.cli import main, run_members
from kgbreather.runio import (
    file_digest,
    params_digest,
    read_diagnostics,
    read_snapshots,
    read_sweep,
    read_tracers,
)
from kgbreather.svgplot import phase_svg, waveform_svg

# the child process imports the same package source as this test process
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kgbreather.__file__)))

CHECKS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


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
    canonical = json.dumps(manifest["params"], sort_keys=True, separators=(",", ":"))
    assert manifest["params_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert manifest["params"]["grid_points"] == 64
    # stage_sweep_counts[k - 1] steps took k sweeps
    counts = manifest["stage_sweep_counts"]
    assert sum(counts) == manifest["steps"]
    assert sum(k * n for k, n in enumerate(counts, 1)) == manifest["total_stage_sweeps"]


def test_simulate_zero_t_end_writes_one_snapshot(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0\ngrid_points = 32\n", encoding="utf-8")
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = (out / "snapshots.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 32  # header plus exactly one state


def test_simulate_bad_config_value_exits_2(tmp_path):
    cases = [
        ("dt = -1\n", "dt"),
        # rounds to zero steps between snapshots
        ("snapshot_every = 1e-14\n", "snapshot_every = 1e-14 is not a positive integer multiple"),
        ("domain_length = 12\nprobes = 3\n", "domain_length must be a multiple of 8"),
        # a whole number of steps, 2.048e303 of them: more than one time axis can index
        ("dt = 1e-300\n", "t_end / dt must be at most 2**53 steps, got 2.0479999999999998e+303"),
    ]
    for i, (text, message) in enumerate(cases):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / f"run{i}"
        res = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2, text
        assert message in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


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


@pytest.mark.parametrize(
    "edit",
    [lambda m: m["params"].update(mu=1e-4), lambda m: m.pop("params_sha256")],
    ids=["edited_mu", "no_params_digest"],
)
def test_classify_and_plot_reject_params_that_miss_their_digest(finished_run, edit):
    # mu = 1e-4 is a valid value, so without the digest classify would exit 0
    # and count rot_left -0.00729 in place of the run's 0.00146
    edit_manifest(finished_run, edit)
    for command in ("classify", "plot"):
        res = run_cli(command, "--out", finished_run)
        assert res.returncode == 2, command
        assert "records no params_sha256 matching its params" in res.stderr
        assert res.stdout == ""


def test_classify_and_plot_name_the_retired_dealias_key(finished_run):
    # a run written while dealias was a key has to be simulated again
    def add_dealias(manifest):
        manifest["params"]["dealias"] = "pad2x"
        manifest["params_sha256"] = params_digest(manifest["params"])

    edit_manifest(finished_run, add_dealias)
    for command in ("classify", "plot"):
        res = run_cli(command, "--out", finished_run)
        assert res.returncode == 2, command
        assert "unknown parameter keys: ['dealias']" in res.stderr
        assert res.stdout == ""


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


ERRORS = [
    obj
    for _, obj in inspect.getmembers(errors, inspect.isclass)
    if issubclass(obj, errors.KgError) and obj.__module__ == errors.__name__
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: error.__name__)
def test_every_package_error_exits_2_with_its_message(tmp_path, monkeypatch, capsys, error):
    # no caller tells the package's errors apart: each is exit 2 and its message
    exc = error(["a rule broken"]) if error is InvalidParams else error("a rule broken")

    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "classify", fail)
    assert main(["classify", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: a rule broken\n"


def test_classify_and_plot_read_a_manifest_with_the_retired_grid_block(finished_run):
    # manifests once restated N, L and dx beside the params; readers ignore the copy
    edit_manifest(finished_run, lambda m: m.update(grid={"n": 64, "length": 8.0, "dx": 0.125}))
    assert main(["classify", "--out", finished_run]) == 0
    assert main(["plot", "--out", finished_run]) == 0


def rewrite_with_digest(run_dir, name, change):
    """Apply change to the bytes of a run file and record its new digest in the manifest."""
    path = pathlib.Path(run_dir, name)
    path.write_bytes(change(path.read_bytes()))
    edit_manifest(run_dir, lambda m: m["files"].update({name: file_digest(path)}))
    return path


def test_classify_of_diagnostics_with_nan_times_finds_no_rows_past_the_transient(finished_run, capsys):
    def nan_times(raw):
        header, *rows = raw.decode().splitlines(keepends=True)
        return (header + "".join("nan" + row[row.index(",") :] for row in rows)).encode()

    rewrite_with_digest(finished_run, "diagnostics.csv", nan_times)
    assert main(["classify", "--out", finished_run]) == 2
    assert capsys.readouterr().err == "error: no diagnostics rows past the transient window\n"


@pytest.mark.parametrize(
    "command, name, line, fault",
    [
        ("classify", "diagnostics.csv", 3, ", line 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        ("plot", "snapshots.csv", 1, " has header ['t', '\ufffd', 'u', 'v'], expected ['t', 'x', 'u', 'v']"),
    ],
    ids=["data_row", "header"],
)
def test_a_byte_that_is_not_utf8_exits_2_naming_the_line(finished_run, capsys, command, name, line, fault):
    def poke(raw):
        lines = raw.split(b"\n")
        lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][3:]
        return b"\n".join(lines)

    path = rewrite_with_digest(finished_run, name, poke)
    assert main([command, "--out", finished_run]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}{fault}")


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


@pytest.fixture(scope="module")
def record_run(tmp_path_factory):
    """A short run with a snapshot at each of its 32 steps: 33 states of 32 rows."""
    base = tmp_path_factory.mktemp("record")
    cfg = base / "run.cfg"
    cfg.write_text("grid_points = 32\nt_end = 4\nsnapshot_every = 0.125\namplitude = 0.1195\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(base / "run")]) == 0
    return base / "run"


def svgs_of_the_full_read(run, sel):
    """The waveform and phase SVG bytes of state sel, drawn from the full read_snapshots stack."""
    params = params_from_dict(json.loads((run / "manifest.json").read_text())["params"])
    nodes, states = read_snapshots(run / "snapshots.csv")
    state = FieldState(t=states.t[sel], u=states.u[sel], v=states.v[sel])
    prev = dict(u_prev=states.u[sel - 1], t_prev=float(states.t[sel - 1])) if sel else {}
    wave = waveform_svg(nodes, params.domain_length, state.u, state.t, **prev)
    track = read_tracers(run / "tracers.csv")[0]
    keep = track.t <= state.t + 1e-9
    phase = phase_svg(state, fixed_points(params).as_list(), trail_u=track.u[keep], trail_v=track.v[keep])
    return wave.encode(), phase.encode()


@pytest.mark.parametrize("time, sel", [(None, 32), ("0", 0), ("2", 16), ("4", 32)])
def test_plot_draws_what_the_full_read_draws(record_run, time, sel):
    # plot parses only the selected state and the one before it
    assert main(["plot", "--out", str(record_run), *(["--time", time] if time else [])]) == 0
    wave, phase = svgs_of_the_full_read(record_run, sel)
    assert (record_run / "waveform.svg").read_bytes() == wave
    assert (record_run / "phase.svg").read_bytes() == phase


def test_plot_at_a_missing_time_names_the_first_eight(record_run, capsys):
    assert main(["plot", "--out", str(record_run), "--time", "0.3"]) == 2
    have = "0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875"
    assert capsys.readouterr().err == f"error: no snapshot at t=0.3; run starts {have} ...\n"


def drop_last_row(text):
    return text[: text.rstrip("\n").rfind("\n") + 1]


def blank_line_after_line_100(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:100] + ["\n"] + lines[100:])


def other_t_on_line_1030(text):
    # the last state, at t = 4, takes lines 1026 to 1057
    lines = text.splitlines(keepends=True)
    assert lines[1029].startswith("4.0,")
    lines[1029] = "4.5" + lines[1029][len("4.0") :]
    return "".join(lines)


@pytest.mark.parametrize(
    "edit, fault",
    [
        (drop_last_row, "line 1026: a state of 31 rows, expected 32"),
        (blank_line_after_line_100, "line 101: blank line"),
        (lambda text: text[:-1], "line 1057: no final newline, cut inside its last cell"),
        (other_t_on_line_1030, "line 1030: t=4.5 inside the state at t=4.0"),
    ],
    ids=["not_whole_states", "blank_line", "cut_final_newline", "other_t_in_the_drawn_state"],
)
def test_plot_rejects_a_broken_snapshots_file_whose_digest_matches(record_run, tmp_path, capsys, edit, fault):
    run = tmp_path / "run"
    shutil.copytree(record_run, run, ignore=shutil.ignore_patterns("*.svg"))
    path = run / "snapshots.csv"
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    edit_manifest(run, lambda m: m["files"].update({"snapshots.csv": file_digest(path)}))
    assert main(["plot", "--out", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {path}, {fault}\n"
    assert not (run / "waveform.svg").exists()


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


def test_sweep_takes_a_list_that_starts_with_a_minus_sign_after_an_equals_sign(tmp_path, cfg64):
    # argparse reads a separate "-0.04,0.04" as an option, not as the list
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "-0.04,0.04")
    assert res.returncode == 1
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes=-0.04,0.04")
    assert res.returncode == 0, res.stderr
    assert [e["A"] for e in read_sweep(out / "sweep.csv")] == [-0.04, 0.04]
    assert (out / "A_-0.04" / "manifest.json").exists()


def test_sweep_rejects_non_increasing_amplitudes(tmp_path, cfg64):
    res = run_cli("sweep", "--config", cfg64, "--out", str(tmp_path / "s"), "--amplitudes", "0.04,0.02")
    assert res.returncode == 1
    assert "strictly increasing" in res.stderr
    res = run_cli("sweep", "--config", cfg64, "--out", str(tmp_path / "s"), "--amplitudes", " , ")
    assert res.returncode == 1


def test_sweep_rejects_an_amplitude_that_is_not_a_number(tmp_path, cfg64, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "0.01,abc"]) == 1
    assert capsys.readouterr().err == "usage error: bad amplitude value: could not convert string to float: 'abc'\n"
    assert not out.exists()


def test_sweep_rejects_an_invalid_member_before_running_any(tmp_path, cfg64):
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "0.01,nan")
    assert res.returncode == 2
    assert "amplitude must be finite, got nan" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()
    cfg = tmp_path / "l12.cfg"
    cfg.write_text("domain_length = 12\nprobes = 3\nt_end = 64\n", encoding="utf-8")
    res = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--amplitudes", "0.01")
    assert res.returncode == 2
    assert "domain_length must be a multiple of 8" in res.stderr
    assert not out.exists()
    # L/8 = 1e13 + 0.5 is half a sine period off, though within 1e-12 of L/8 relative
    cfg.write_text("domain_length = 80000000000004.0\nprobes =\nt_end = 64\n", encoding="utf-8")
    res = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--amplitudes", "0.01")
    assert res.returncode == 2
    assert "domain_length must be a multiple of 8" in res.stderr
    assert not out.exists()


def test_run_members_rejects_members_that_differ_beyond_amplitude(tmp_path):
    # the stack runs with one set of params: a member at its own mu would be
    # integrated at the first member's mu and written with its own
    base = SimParams(t_end=64.0)
    dirs = [str(tmp_path / name) for name in ("a", "b", "c")]
    with pytest.raises(InvalidParams) as err:
        run_members([base, dataclasses.replace(base, mu=0.008)], dirs[:2])
    assert err.value.violations == ["members may differ only in amplitude, not in mu"]
    members = [
        base,
        dataclasses.replace(base, amplitude=0.08, mu=0.008),
        dataclasses.replace(base, amplitude=0.12, dt=0.25),
    ]
    with pytest.raises(InvalidParams) as err:
        run_members(members, dirs)
    assert err.value.violations == [
        "members may differ only in amplitude, not in mu",
        "members may differ only in amplitude, not in dt",
    ]
    assert not any(os.path.exists(d) for d in dirs)


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


def test_sweep_survives_members_that_fail_apart_from_the_others(tmp_path, cfg64):
    # A = 1e200 overflows the cube in its first step and A = 25 stalls the
    # stage solve at t = 0; A = 0.02 runs to the end. A NonFinite carries
    # the end of its step (0.125), a StageSolveDiverged the start of its step
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--config", cfg64, "--out", str(out), "--amplitudes", "0.02,25,1e200")
    assert res.returncode == 0, res.stderr
    assert "A=25.0: failed (stage residual stalled" in res.stderr
    assert "A=1e+200: failed (cubic term overflowed)" in res.stderr
    for name, error, t in (("A_1e+200", "NonFinite", 0.125), ("A_25.0", "StageSolveDiverged", 0.0)):
        manifest = json.loads((out / name / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"]["error"] == error
        assert manifest["failure"]["t"] == t
        assert manifest["files"] == {}
    run, _, expected = checks.check_run(str(out / "A_0.02"))
    assert run.steps == 512
    entries = read_sweep(out / "sweep.csv")
    assert [e["A"] for e in entries] == [0.02, 25.0, 1e200]
    checks.check_sweep_row(entries[0], run, expected)
    for e in entries[1:]:
        assert e["label"] == "indeterminate"
        assert all(e[k] != e[k] for k in ("m_left", "m_right", "rot_left", "rot_origin", "max_drift"))


def test_sweep_survives_a_member_whose_diagnostics_overflow(tmp_path, capsys):
    # the energy of A = 1e80 overflows at t = 0; A = 0.04 writes its solo bytes
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 0\ngrid_points = 32\n", encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--amplitudes", "0.04,1e80"]) == 0
    assert capsys.readouterr().err == "A=1e+80: failed (energy non-finite at t=0.0)\n"
    solo = tmp_path / "solo"
    assert main(["simulate", "--config", str(cfg), "--out", str(solo)]) == 0
    for name in ("snapshots.csv", "diagnostics.csv", "tracers.csv"):
        assert (out / "A_0.04" / name).read_bytes() == (solo / name).read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (out / "A_0.04", solo)]
    for manifest in manifests:
        del manifest["wall_clock_seconds"]
    assert manifests[0] == manifests[1]
    manifest = json.loads((out / "A_1e+80" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["files"] == {}
    assert manifest["failure"] == {"t": 0.0, "error": "NonFinite", "message": "energy non-finite at t=0.0"}
    assert sorted(os.listdir(out / "A_1e+80")) == ["manifest.json"]
    entries = read_sweep(out / "sweep.csv")
    assert [e["A"] for e in entries] == [0.04, 1e80]
    assert entries[1]["label"] == "indeterminate"
    assert all(entries[1][k] != entries[1][k] for k in ("m_left", "m_right", "rot_left", "rot_origin", "max_drift"))


def test_two_simulates_write_identical_csv_bytes(tmp_path, cfg64):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("simulate", "--config", cfg64, "--out", str(out_a)).returncode == 0
    assert run_cli("simulate", "--config", cfg64, "--out", str(out_b)).returncode == 0
    for name in ("snapshots.csv", "diagnostics.csv", "tracers.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
