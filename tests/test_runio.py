"""CSV round trips, digests, manifests, and atomic publication."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from kgbreather import (
    DiagnosticsRow,
    FieldState,
    InsufficientData,
    SimParams,
    TracerTrack,
    make_grid,
)
from kgbreather.runio import (
    atomic_write_text,
    file_digest,
    fmt,
    inventory_digests,
    read_diagnostics,
    read_manifest,
    read_snapshots,
    read_sweep,
    read_tracers,
    verify_digests,
    write_diagnostics,
    write_manifest,
    write_snapshots,
    write_sweep,
    write_tracers,
)


def test_fmt_round_trips_awkward_floats():
    cases = [0.1, 1.0 / 3.0, math.pi, 2.0 ** -52, -1.2937156164893862e-07,
             6.02e23, 0.0, -0.0, 5.0]
    for x in cases:
        assert float(fmt(x)) == x
    assert fmt(float("nan")) == "nan"


def random_states(rng, count, grid, dt):
    """A stack of count random states at times 0, dt, 2 dt, ..."""
    u, v = np.array(
        [(rng.standard_normal(grid.n), rng.standard_normal(grid.n)) for _ in range(count)]
    ).transpose(1, 0, 2)
    return FieldState(t=dt * np.arange(count), u=u, v=v)


def sample_states(grid):
    return random_states(np.random.default_rng(11), 3, grid, 16.0)


def test_snapshots_round_trip_exactly(tmp_path):
    grid = make_grid(32, 8.0)
    states = sample_states(grid)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    nodes, back = read_snapshots(path)
    assert np.array_equal(nodes, grid.nodes)
    assert back.u.shape == (3, grid.n)
    assert back.t.tolist() == states.t.tolist() == [0.0, 16.0, 32.0]
    assert np.array_equal(back.u, states.u)
    assert np.array_equal(back.v, states.v)


def test_snapshots_reject_wrong_header(tmp_path):
    path = tmp_path / "snapshots.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(InsufficientData):
        read_snapshots(path)


def test_snapshots_reject_empty_and_header_only(tmp_path):
    path = tmp_path / "snapshots.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InsufficientData):
        read_snapshots(path)
    path.write_text("t,x,u,v\n", encoding="utf-8")
    with pytest.raises(InsufficientData):
        read_snapshots(path)


def test_snapshots_reject_non_numeric_cell(tmp_path):
    path = tmp_path / "snapshots.csv"
    path.write_text("t,x,u,v\n0.0,0.0,oops,0.0\n", encoding="utf-8")
    with pytest.raises(InsufficientData):
        read_snapshots(path)


def test_snapshots_reject_inconsistent_nodes(tmp_path):
    grid = make_grid(16, 8.0)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, sample_states(grid), grid)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # line 0 is the header; the snapshot at t = 16 takes lines 17 to 32
    t, _, u, v = lines[20].split(",")
    lines[20] = ",".join((t, "0.123", u, v))
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(InsufficientData, match="t=16.0 has inconsistent nodes"):
        read_snapshots(path)


def test_snapshots_read_peaks_below_three_tables(tmp_path):
    grid = make_grid(128, 8.0)
    states = random_states(np.random.default_rng(5), 256, grid, 0.125)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    del states
    table_bytes = 256 * grid.n * 4 * 8
    tracemalloc.start()
    try:
        _, back = read_snapshots(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.u.shape == (256, grid.n)
    assert peak < 3 * table_bytes, f"peak {peak / table_bytes:.2f} tables"


def test_snapshots_write_peaks_below_two_and_a_half_files(tmp_path):
    # one state's rows at a time are formatted into one buffer, so the peak
    # stays near twice the file's size (2.02 times, measured)
    grid = make_grid(128, 8.0)
    states = random_states(np.random.default_rng(5), 256, grid, 0.125)
    path = tmp_path / "snapshots.csv"
    tracemalloc.start()
    try:
        write_snapshots(path, states, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 2.5 * size, f"peak {peak / size:.2f} times the file's size"


def cut_inside_last_row(path):
    """Drop the end of the file from the middle of the last row's second cell."""
    text = path.read_text(encoding="utf-8")
    last = text.rstrip("\n").rfind("\n") + 1
    second = text.index(",", last) + 1
    path.write_text(text[: second + 2], encoding="utf-8")


def test_snapshots_cut_mid_row_are_rejected(tmp_path):
    p = SimParams(grid_points=16)
    g = make_grid(p.grid_points, p.domain_length)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, FieldState(t=[0.0], u=[np.sin(g.nodes)], v=[np.cos(g.nodes)]), g)
    cut_inside_last_row(path)
    with pytest.raises(InsufficientData, match="line 17"):
        read_snapshots(path)


def test_tracers_cut_mid_row_are_rejected(tmp_path):
    track = TracerTrack(probe_x=2.0, t=np.arange(9.0), u=np.linspace(0.1, 0.9, 9), v=np.ones(9))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    cut_inside_last_row(path)
    with pytest.raises(InsufficientData, match="tracers.csv, line 10"):
        read_tracers(path)


def test_tracers_cut_inside_last_cell_are_rejected(tmp_path):
    # the row keeps its width and the cut cell still parses, to a shorter number
    track = TracerTrack(probe_x=2.0, t=np.arange(3.0), u=np.ones(3), v=np.full(3, 0.000345574078778584))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    text = path.read_text(encoding="utf-8")
    assert text.endswith(",0.000345574078778584\n")
    path.write_text(text[: -len("78584\n")], encoding="utf-8")
    with pytest.raises(InsufficientData, match="tracers.csv, line 4: no final newline"):
        read_tracers(path)


def sample_rows():
    rng = np.random.default_rng(13)
    return [
        DiagnosticsRow(
            t=16.0 * i,
            energy=float(rng.standard_normal()),
            momentum=float(rng.standard_normal() * 1e-12),
            energy_drift=float(rng.standard_normal() * 1e-9),
            u_min_left=float(rng.standard_normal()),
            u_max_left=float(rng.standard_normal()),
            u_min_right=float(rng.standard_normal()),
            u_max_right=float(rng.standard_normal()),
            rot_origin=float(rng.standard_normal()),
            rot_left=float(rng.standard_normal()),
            rot_right=float(rng.standard_normal()),
        )
        for i in range(5)
    ]


def test_diagnostics_round_trip_exactly(tmp_path):
    rows = sample_rows()
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, rows)
    assert read_diagnostics(path) == rows


def test_tracers_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(17)
    tracks = [
        TracerTrack(probe_x=px, t=np.arange(9.0), u=rng.standard_normal(9), v=rng.standard_normal(9))
        for px in (2.0, 6.0)
    ]
    path = tmp_path / "tracers.csv"
    write_tracers(path, tracks)
    back = read_tracers(path)
    assert [trk.probe_x for trk in back] == [2.0, 6.0]
    for orig, got in zip(tracks, back):
        assert np.array_equal(got.t, orig.t)
        assert np.array_equal(got.u, orig.u)
        assert np.array_equal(got.v, orig.v)


def test_sweep_round_trip(tmp_path):
    entries = [
        {"A": 0.02, "label": "breather", "m_left": 0.01, "m_right": -0.01,
         "rot_left": 1.5, "rot_origin": 0.1, "max_drift": 3e-11},
        {"A": 0.08, "label": "indeterminate", "m_left": float("nan"),
         "m_right": float("nan"), "rot_left": float("nan"),
         "rot_origin": float("nan"), "max_drift": float("nan")},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep(path, entries)
    back = read_sweep(path)
    assert len(back) == 2
    assert back[0]["label"] == "breather"
    assert back[0]["A"] == 0.02
    assert back[1]["label"] == "indeterminate"
    assert math.isnan(back[1]["m_left"])


def sweep_file(tmp_path):
    entry = {"A": 0.02, "label": "breather", "m_left": 0.01, "m_right": -0.01,
             "rot_left": 1.5, "rot_origin": 0.1, "max_drift": 3.35020664224661e-11}
    path = tmp_path / "sweep.csv"
    write_sweep(path, [entry, dict(entry, A=0.04)])
    text = path.read_text(encoding="utf-8")
    assert text.endswith(",3.35020664224661e-11\n")
    return path, text


def test_sweep_cut_inside_last_cell_is_rejected(tmp_path):
    # the cut cell would still parse, to 3.0
    path, text = sweep_file(tmp_path)
    path.write_text(text[: -len(".35020664224661e-11\n")], encoding="utf-8")
    with pytest.raises(InsufficientData, match="sweep.csv, line 3: no final newline"):
        read_sweep(path)


def test_sweep_row_short_of_cells_is_rejected(tmp_path):
    path, text = sweep_file(tmp_path)
    path.write_text(text[: text.rindex(",")] + "\n", encoding="utf-8")
    with pytest.raises(InsufficientData, match="sweep.csv, line 3: 6 cells, expected 7"):
        read_sweep(path)


def test_manifest_round_trip_and_digests(tmp_path):
    grid = make_grid(16, 8.0)
    write_snapshots(tmp_path / "snapshots.csv", sample_states(grid), grid)
    write_diagnostics(tmp_path / "diagnostics.csv", sample_rows())
    files = inventory_digests(tmp_path, ["snapshots.csv", "diagnostics.csv", "manifest.json"])
    assert sorted(files) == ["diagnostics.csv", "snapshots.csv"]
    manifest = {"params": {"dt": 0.125}, "files": files}
    write_manifest(tmp_path / "manifest.json", manifest)
    back = read_manifest(tmp_path / "manifest.json")
    assert back == manifest
    assert verify_digests(back, tmp_path) == []


def test_verify_digests_flags_mutation_and_removal(tmp_path):
    grid = make_grid(16, 8.0)
    write_snapshots(tmp_path / "snapshots.csv", sample_states(grid), grid)
    manifest = {"files": inventory_digests(tmp_path, ["snapshots.csv"])}
    # flip one byte
    raw = bytearray((tmp_path / "snapshots.csv").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (tmp_path / "snapshots.csv").write_bytes(bytes(raw))
    problems = verify_digests(manifest, tmp_path)
    assert problems == ["snapshots.csv: digest mismatch"]
    os.remove(tmp_path / "snapshots.csv")
    problems = verify_digests(manifest, tmp_path)
    assert problems == ["snapshots.csv: listed in manifest but missing"]


def test_digest_is_stable_for_identical_content(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,x\n1.0,2.0\n", encoding="utf-8")
    b.write_text("t,x\n1.0,2.0\n", encoding="utf-8")
    assert file_digest(a) == file_digest(b)
    assert len(file_digest(a)) == 64


def test_writers_leave_no_temp_files(tmp_path):
    grid = make_grid(16, 8.0)
    write_snapshots(tmp_path / "snapshots.csv", sample_states(grid), grid)
    write_diagnostics(tmp_path / "diagnostics.csv", sample_rows())
    write_manifest(tmp_path / "manifest.json", {"files": {}})
    leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
    assert leftovers == []


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "manifest.json"
    atomic_write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new \ud800\n")  # a lone surrogate has no utf-8 form
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_identical_runs_write_identical_bytes(tmp_path):
    grid = make_grid(32, 8.0)
    states = sample_states(grid)
    write_snapshots(tmp_path / "one.csv", states, grid)
    write_snapshots(tmp_path / "two.csv", states, grid)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
