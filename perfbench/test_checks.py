"""Each output check passes on a real run and rejects a tampered copy.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import csv
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, "-m", "kgbreather.cli", *argv], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A short run with a snapshot every step, plus what classify printed."""
    base = tmp_path_factory.mktemp("run")
    cfg = base / "run.cfg"
    cfg.write_text("amplitude = 0.12\nt_end = 32.0\nsnapshot_every = 0.125\n", encoding="utf-8")
    out = str(base / "run")
    cli("simulate", "--config", str(cfg), "--out", out)
    return out, cli("classify", "--out", out)


@pytest.fixture()
def copy(finished, tmp_path):
    dst = str(tmp_path / "run")
    shutil.copytree(finished[0], dst)
    return dst


def rewrite(path, edit):
    """Apply edit(rows) to the data rows of a CSV file, header kept."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([rows[0]] + body)


def test_every_check_passes_on_the_real_run(finished):
    run_dir, printed = finished
    run, drift, expected = checks.check_run(run_dir)
    assert 0.0 < drift <= checks.DRIFT_LIMIT
    checks.check_classify_output(printed, expected, run_dir)
    checks.check_same_run(run, checks.Run(run_dir))


def test_changed_digit_in_diagnostics_fails_the_digest(copy):
    col = checks.DIAGNOSTICS_HEADER.index("rot_left")

    def edit(rows):
        cell = rows[-1][col]
        last = cell[-1] if cell[-1].isdigit() else cell[cell.index("e") - 1]
        rows[-1][col] = cell.replace(last, str((int(last) + 1) % 10), 1)
        return rows

    rewrite(os.path.join(copy, "diagnostics.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.check_digests(copy, checks.read_manifest(copy))


def test_tracers_cut_at_a_row_boundary_are_rejected(copy):
    rewrite(os.path.join(copy, "tracers.csv"), lambda rows: rows[: len(rows) // 2])
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.check_digests(copy, checks.read_manifest(copy))
    with pytest.raises(checks.CheckFailed, match="tracer rows"):
        checks.Run(copy)


def test_missing_or_garbled_artifact_is_a_failed_check(copy):
    os.remove(os.path.join(copy, "tracers.csv"))
    with pytest.raises(checks.CheckFailed, match="tracers.csv"):
        checks.Run(copy)
    with pytest.raises(checks.CheckFailed, match="tracers.csv"):
        checks.check_digests(copy, checks.read_manifest(copy))
    with open(os.path.join(copy, "manifest.json"), "w") as fh:
        fh.write("{")
    with pytest.raises(checks.CheckFailed, match="not JSON"):
        checks.read_manifest(copy)
    with pytest.raises(checks.CheckFailed, match="sweep.csv"):
        checks.load_sweep(os.path.join(copy, "sweep.csv"))


def test_tracers_cut_mid_row_are_rejected(copy):
    path = os.path.join(copy, "tracers.csv")
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    mid = len(lines) // 2
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:mid] + [lines[mid][: lines[mid].index(",", 4) + 3]]))
    with pytest.raises(checks.CheckFailed, match="malformed rows"):
        checks.Run(copy)


def test_snapshot_made_non_odd_is_rejected(copy):
    def edit(rows):
        for row in rows[len(rows) // 2 :]:
            u = float(row[2])
            if u != 0.0:
                row[2] = repr(float(np.nextafter(u, np.inf)))
                return rows
        raise AssertionError("no nonzero sample")

    rewrite(os.path.join(copy, "snapshots.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="not odd"):
        checks.check_odd(checks.Run(copy))


def test_energy_off_by_1e6_relative_is_rejected(copy):
    col = checks.DIAGNOSTICS_HEADER.index("energy")

    def edit(rows):
        rows[-1][col] = repr(float(rows[-1][col]) * (1.0 + 1e-6))
        return rows

    rewrite(os.path.join(copy, "diagnostics.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="energy at t="):
        checks.check_energy(checks.Run(copy))


def test_momentum_above_roundoff_is_rejected(copy):
    col = checks.DIAGNOSTICS_HEADER.index("momentum")

    def edit(rows):
        rows[-1][col] = "1e-12"
        return rows

    rewrite(os.path.join(copy, "diagnostics.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="momentum"):
        checks.check_momentum(checks.Run(copy))


def test_rotation_column_off_by_1e6_turns_is_rejected(copy):
    col = checks.DIAGNOSTICS_HEADER.index("rot_origin")

    def edit(rows):
        rows[-1][col] = repr(float(rows[-1][col]) + 1e-6)
        return rows

    rewrite(os.path.join(copy, "diagnostics.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="rot_origin"):
        checks.check_rotations(checks.Run(copy))


def test_tracer_value_unlike_its_snapshot_is_rejected(copy):
    def edit(rows):
        rows[100][2] = repr(float(rows[100][2]) * (1.0 + 1e-15))
        return rows

    rewrite(os.path.join(copy, "tracers.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="differs from snapshots"):
        checks.check_tracers_match_snapshots(checks.Run(copy))


def test_wrong_label_or_evidence_from_classify_is_rejected(finished):
    run_dir, printed = finished
    expected = checks.expected_label(checks.Run(run_dir))
    other = "ordinary" if expected[0] != "ordinary" else "indeterminate"
    with pytest.raises(checks.CheckFailed, match="classify says"):
        checks.check_classify_output(printed.replace(expected[0], other, 1), expected, run_dir)
    shifted = (expected[0], expected[1], expected[2], expected[3] + 1e-6, expected[4])
    with pytest.raises(checks.CheckFailed, match="rot_left"):
        checks.check_classify_output(printed, shifted, run_dir)


def test_label_rule_follows_the_readme():
    class Fake:
        pass

    run = Fake()
    run.params = {"mu": 1.0, "beta": 1.0, "snapshot_every": 1.0}
    run.length = 4.0
    run.nodes = np.arange(4.0)
    run.snap_t = np.arange(5.0)
    run.probes = [1.0]
    ang = np.linspace(0.0, 2.5 * np.pi, 200)
    # confined halves: u > 0 on the left, u < 0 on the right
    run.u = np.tile([0.0, 0.5, 0.0, -0.5], (5, 1))
    # a track circling (1, 0) but not the origin
    run.trk_u, run.trk_v = (1.0 + 0.5 * np.cos(ang))[None], (0.5 * np.sin(ang))[None]
    assert checks.expected_label(run)[0] == "breather"
    # the same track with a left half that dips below zero
    run.u = np.tile([0.0, -0.5, 0.0, -0.5], (5, 1))
    assert checks.expected_label(run)[0] == "indeterminate"
    # a track circling the origin
    run.trk_u, run.trk_v = (2.0 * np.cos(ang))[None], (2.0 * np.sin(ang))[None]
    assert checks.expected_label(run)[0] == "ordinary"


def test_sweep_member_unlike_its_solo_run_is_rejected(finished, copy):
    col = checks.SNAPSHOT_HEADER.index("u")

    def edit(rows):
        row = rows[-5]
        row[col] = repr(float(row[col]) + 1e-6)
        return rows

    rewrite(os.path.join(copy, "snapshots.csv"), edit)
    with pytest.raises(checks.CheckFailed, match="differs from the solo run"):
        checks.check_same_run(checks.Run(copy), checks.Run(finished[0]))
