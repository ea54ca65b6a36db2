"""CSV round trips, digests, manifests, and atomic publication."""

import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from kgbreather import (
    DIAGNOSTICS_COLUMNS,
    FieldState,
    InsufficientData,
    LengthMismatch,
    SimParams,
    TracerTrack,
    integrate,
    make_grid,
)
from kgbreather import runio
from kgbreather.cli import main
from kgbreather.runio import (
    SWEEP_COLUMNS,
    atomic_write_text,
    file_digest,
    fmt,
    inventory_digests,
    read_diagnostics,
    read_manifest,
    read_snapshots,
    read_sweep,
    read_tracers,
    snapshot_index,
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


# floats that stress a text round trip: the smallest subnormal, negative zero,
# the largest finite float and one ulp of 1
AWKWARD = (5e-324, -0.0, 1.7976931348623157e308, 2.0 ** -52)


def bits(values):
    """Raw float64 bytes, so -0.0 and 0.0 (and nan payloads) count as different."""
    return np.asarray(values, dtype=np.float64).tobytes()


def random_states(rng, count, grid, dt):
    """A stack of count random states at times 0, dt, 2 dt, ..."""
    u, v = np.array(
        [(rng.standard_normal(grid.n), rng.standard_normal(grid.n)) for _ in range(count)]
    ).transpose(1, 0, 2)
    return FieldState(t=dt * np.arange(count), u=u, v=v)


def sample_states(grid):
    states = random_states(np.random.default_rng(11), 3, grid, 16.0)
    u, v = states.u.copy(), states.v.copy()
    u[1, : len(AWKWARD)] = AWKWARD
    v[2, -len(AWKWARD) :] = AWKWARD
    return FieldState(t=states.t, u=u, v=v)


def test_snapshots_round_trip_exactly(tmp_path):
    grid = make_grid(32, 8.0)
    states = sample_states(grid)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    nodes, back = read_snapshots(path)
    assert np.array_equal(nodes, grid.nodes)
    assert back.u.shape == (3, grid.n)
    assert back.t.tolist() == states.t.tolist() == [0.0, 16.0, 32.0]
    assert bits(back.u) == bits(states.u)
    assert bits(back.v) == bits(states.v)


def reference_snapshots_text(states, grid):
    """snapshots.csv as formatting every value of every row gives it."""
    n = grid.n
    lines = ["t,x,u,v\n"]
    t, u, v = np.reshape(states.t, -1), states.u.reshape(-1, n), states.v.reshape(-1, n)
    for t, u, v in zip(t.tolist(), u.tolist(), v.tolist()):
        lines += [f"{t!r},{x!r},{a!r},{b!r}\n" for x, a, b in zip(grid.nodes.tolist(), u, v)]
    return "".join(lines)


def mirror(left):
    """Rows whose nodes N/2+1..N-1 are the bitwise negations of nodes N/2-1..1; left holds nodes 0..N/2."""
    left = np.atleast_2d(left)
    return np.concatenate([left, -left[:, -2:0:-1]], axis=-1)


def odd_cases():
    """Writer byte-test params: states, grid, and whether each state's u and each state's v is mirrored."""
    grid = make_grid(8, 8.0)
    rng = np.random.default_rng(3)
    odd = mirror(rng.standard_normal((2, 5)))
    pos_zero = odd.copy()
    pos_zero[:, [1, 7]] = 0.0  # equal in value to their negations, not bit for bit
    signed = mirror([[0.5, 0.0, -0.0, 1.0, -2.0], [-0.0, -0.0, 0.0, 0.0, 0.0]])
    awkward = mirror([[5e-324, 1e-05, 1.5e16, -2.5e-300, 3.0], [-5e-324, -1e-05, -1.5e16, 2.5e-300, 0.0]])
    plain = rng.standard_normal((2, 8))
    # 300 states, so the stack spans more than one block of the writer's oddness check
    mixed_u = mirror(rng.standard_normal((300, 5)))
    mixed_u[::3] = rng.standard_normal((100, 8))
    mixed_v = mirror(rng.standard_normal((300, 5)))
    mixed_v[1::3] = rng.standard_normal((100, 8))
    two, none = [True, True], [False, False]
    return [
        pytest.param(FieldState(t=[0.0, 0.125], u=odd, v=-odd), grid, two, two, id="odd"),
        pytest.param(FieldState(t=[0.0, 0.125], u=pos_zero, v=odd), grid, none, two, id="positive zeros"),
        pytest.param(FieldState(t=[0.0, 1e-05], u=signed, v=signed[::-1]), grid, two, two, id="signed zeros"),
        pytest.param(FieldState(t=[1.5e16, 2.5e-300], u=awkward, v=awkward[::-1]), grid, two, two, id="exponents"),
        pytest.param(FieldState(t=[0.0, 1.0], u=plain, v=plain[::-1]), grid, none, none, id="not odd"),
        pytest.param(
            FieldState(t=0.125 * np.arange(300), u=mixed_u, v=mixed_v),
            grid,
            (np.arange(300) % 3 != 0).tolist(),
            (np.arange(300) % 3 != 1).tolist(),
            id="mixed stack",
        ),
        pytest.param(FieldState(t=2.0, u=odd[0], v=plain[0]), grid, [True], [False], id="one state"),
    ]


@pytest.mark.parametrize("states, grid, u_odd, v_odd", odd_cases())
def test_snapshots_write_the_bytes_of_formatting_every_value(tmp_path, states, grid, u_odd, v_odd):
    # a mirrored u or v has only its left half formatted, and must still write these bytes
    n = grid.n
    assert runio._mirrored(states.u.reshape(-1, n)).tolist() == u_odd
    assert runio._mirrored(states.v.reshape(-1, n)).tolist() == v_odd
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    assert path.read_text(encoding="utf-8") == reference_snapshots_text(states, grid)


def test_simulate_writes_the_bytes_of_formatting_every_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 4\nsnapshot_every = 0.125\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "snapshots.csv"
    p = SimParams()
    grid = make_grid(p.grid_points, p.domain_length)
    nodes, states = read_snapshots(path)
    assert bits(nodes) == bits(grid.nodes)
    # every state after the first, whose v is all +0.0, is written from its left halves
    assert runio._mirrored(states.u).all() and runio._mirrored(states.v)[1:].all()
    assert path.read_text(encoding="utf-8") == reference_snapshots_text(states, grid)


def test_one_state_reads_back_as_a_stack_of_one(tmp_path):
    grid = make_grid(16, 8.0)
    state = FieldState(t=3.0, u=np.sin(grid.nodes), v=np.cos(grid.nodes))
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, state, grid)
    nodes, back = read_snapshots(path)
    assert bits(nodes) == bits(grid.nodes)
    assert back.t.tolist() == [3.0]
    assert back.u.shape == back.v.shape == (1, grid.n)
    assert bits(back.u) == bits(state.u)
    assert bits(back.v) == bits(state.v)


def test_snapshots_on_another_grid_are_rejected(tmp_path):
    # they would be cut to the grid's rows, or leave rows without a node
    states = random_states(np.random.default_rng(2), 2, make_grid(128, 8.0), 1.0)
    path = tmp_path / "snapshots.csv"
    with pytest.raises(LengthMismatch, match="states of 128 nodes for a grid of 64$"):
        write_snapshots(path, states, make_grid(64, 8.0))
    assert not path.exists()


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
    path.write_text("t,x,u,v", encoding="utf-8")
    with pytest.raises(InsufficientData, match="snapshots.csv, line 1: no final newline, cut inside its last cell$"):
        read_snapshots(path)


def test_snapshots_reject_non_numeric_cell(tmp_path):
    path = tmp_path / "snapshots.csv"
    path.write_text("t,x,u,v\n0.0,0.0,oops,0.0\n", encoding="utf-8")
    with pytest.raises(InsufficientData):
        read_snapshots(path)


def test_quoted_cell_is_rejected(tmp_path):
    # no writer quotes, so a quoted number is not unquoted as a csv reader would
    cases = [
        (read_snapshots, "snapshots.csv", "t,x,u,v", '0.0,0.0,"3",0.0'),
        (read_diagnostics, "diagnostics.csv", ",".join(DIAGNOSTICS_COLUMNS), ",".join(['"3"'] * 11)),
        (read_tracers, "tracers.csv", "probe_x,t,u,v", '2.0,0.0,"3",0.0'),
        (read_sweep, "sweep.csv", ",".join(SWEEP_COLUMNS), '"3",breather,1,1,1,1,1'),
    ]
    for reader, name, header, row in cases:
        path = tmp_path / name
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        match = f"{name}, line 2: could not convert string '\"3\"' to float64 in column"
        with pytest.raises(InsufficientData, match=match):
            reader(path)


@pytest.mark.parametrize(
    "row, detail",
    [("2.0,1.0,0.5", "3 cells, expected 4$"), ("2.0,1.0,x,0.5", "could not convert string 'x'")],
    ids=["short_row", "bad_cell"],
)
def test_a_bad_row_inside_the_body_is_named_by_its_file_line(tmp_path, row, detail):
    # header on line 1, so the fourth data row is on line 5 for either fault
    path = tmp_path / "tracers.csv"
    rows = ["2.0,0.0,0.1,0.2"] * 3 + [row] + ["2.0,2.0,0.1,0.2"] * 2
    path.write_text("probe_x,t,u,v\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(InsufficientData, match=f"tracers.csv, line 5: {detail}"):
        read_tracers(path)


def test_header_only_diagnostics_and_tracers_read_back_empty(tmp_path):
    diagnostics = tmp_path / "diagnostics.csv"
    write_diagnostics(diagnostics, sample_rows()[:0])
    tracers = tmp_path / "tracers.csv"
    write_tracers(tracers, [])
    assert diagnostics.read_text(encoding="utf-8").count("\n") == 1
    assert tracers.read_text(encoding="utf-8") == "probe_x,t,u,v\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a file with no data rows
        assert len(read_diagnostics(diagnostics)) == 0
        assert read_tracers(tracers) == []


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


def test_a_range_of_states_reads_the_rows_of_the_full_read(tmp_path):
    grid = make_grid(16, 8.0)
    states = sample_states(grid)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    index = snapshot_index(path)
    assert index.n == 16
    assert index.t.tolist() == [0.0, 16.0, 32.0]
    _, full = read_snapshots(path)
    for start, stop in [(0, 1), (1, 3), (2, None), (-2, -1)]:
        nodes, part = read_snapshots(path, start, stop, index)
        assert bits(nodes) == bits(grid.nodes)
        assert bits(part.t) == bits(full.t[start:stop])
        assert bits(part.u) == bits(full.u[start:stop])
        assert bits(part.v) == bits(full.v[start:stop])
    with pytest.raises(InsufficientData, match="has no state in 3:None"):
        read_snapshots(path, 3)


def test_states_longer_than_the_first_parse_are_found(tmp_path):
    # the first run of equal t is sought in parses of 256, 512, ... rows
    grid = make_grid(384, 8.0)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, random_states(np.random.default_rng(7), 2, grid, 0.5), grid)
    assert snapshot_index(path).n == 384
    write_snapshots(path, random_states(np.random.default_rng(7), 1, grid, 0.5), grid)
    assert snapshot_index(path).n == 384


def test_snapshots_that_are_not_whole_states_are_rejected(tmp_path):
    grid = make_grid(16, 8.0)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, sample_states(grid), grid)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rstrip("\n").rfind("\n") + 1], encoding="utf-8")  # drop the last row
    with pytest.raises(InsufficientData, match="snapshots.csv, line 34: a state of 15 rows, expected 16$"):
        snapshot_index(path)


def test_a_state_with_a_row_of_another_t_is_rejected_where_it_is_read(tmp_path):
    grid = make_grid(16, 8.0)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, sample_states(grid), grid)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # line 0 is the header; the snapshot at t = 16 takes lines 17 to 32
    lines[20] = "16.5" + lines[20][len("16.0") :]
    path.write_text("".join(lines), encoding="utf-8")
    index = snapshot_index(path)  # the first row of each state holds its t
    assert index.t.tolist() == [0.0, 16.0, 32.0]
    for start, stop in [(0, None), (1, 2)]:
        with pytest.raises(InsufficientData, match="snapshots.csv, line 21: t=16.5 inside the state at t=16.0$"):
            read_snapshots(path, start, stop, index)
    _, part = read_snapshots(path, 2, 3, index)
    assert part.t.tolist() == [32.0]


def test_a_state_that_repeats_the_t_before_it_is_rejected(tmp_path):
    grid = make_grid(16, 8.0)
    states = sample_states(grid)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, FieldState(t=[0.0, 16.0, 16.0], u=states.u, v=states.v), grid)
    with pytest.raises(InsufficientData, match="snapshots.csv, line 34: the state at t=16.0 repeats the t before it$"):
        snapshot_index(path)


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


def test_snapshot_index_peaks_below_three_indexes(tmp_path):
    # the byte pass keeps one int64 start per line; its per-block newline arrays
    # are freed once concatenated, and the blank-line check runs block by block,
    # so no second copy of the index is held (2.03 times the index, measured;
    # 3.15 with a copy)
    grid = make_grid(128, 8.0)
    states = random_states(np.random.default_rng(5), 2048, grid, 0.125)
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, states, grid)
    del states
    tracemalloc.start()
    try:
        index = snapshot_index(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.body.count == 1 << 18
    index_bytes = index.body.starts.nbytes
    assert peak < 3 * index_bytes, f"peak {peak / index_bytes:.2f} indexes"


def test_snapshots_write_peaks_below_half_a_file(tmp_path):
    # one state's text at a time streams into the file, so the peak is a
    # small share of the file's size (0.145 times, measured)
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
    assert peak < 0.5 * size, f"peak {peak / size:.2f} times the file's size"


def test_tracers_write_peaks_below_half_a_file(tmp_path):
    # rows stream into the file runio._ROWS at a time, so the peak is a small
    # share of the file's size (0.09 times, measured), not a copy of its text
    rng = np.random.default_rng(3)
    t = 0.125 * np.arange(16385)
    tracks = [
        TracerTrack(probe_x=px, t=t, u=rng.standard_normal(t.size), v=rng.standard_normal(t.size))
        for px in (2.0, 6.0)
    ]
    path = tmp_path / "tracers.csv"
    tracemalloc.start()
    try:
        write_tracers(path, tracks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.5 * size, f"peak {peak / size:.2f} times the file's size"


def test_diagnostics_write_peaks_below_half_a_file(tmp_path):
    # records become Python floats runio._ROWS at a time, so the peak is a small
    # share of the file's size (0.19 times, measured); one .tolist() of the
    # whole record would hold 1.8 times the file
    columns = np.random.default_rng(5).standard_normal((len(DIAGNOSTICS_COLUMNS), 16385))
    diagnostics = np.rec.fromarrays(columns, names=DIAGNOSTICS_COLUMNS)
    path = tmp_path / "diagnostics.csv"
    tracemalloc.start()
    try:
        write_diagnostics(path, diagnostics)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.5 * size, f"peak {peak / size:.2f} times the file's size"


def cut_inside_last_row(path):
    """Drop the end of the file from the middle of the last row's second cell."""
    text = path.read_text(encoding="utf-8")
    last = text.rstrip("\n").rfind("\n") + 1
    second = text.index(",", last) + 1
    path.write_text(text[: second + 2], encoding="utf-8")


def test_snapshots_cut_mid_row_are_rejected(tmp_path):
    p = SimParams(grid_points=16)
    g = p.grid
    path = tmp_path / "snapshots.csv"
    write_snapshots(path, FieldState(t=[0.0], u=[np.sin(g.nodes)], v=[np.cos(g.nodes)]), g)
    cut_inside_last_row(path)
    with pytest.raises(InsufficientData, match="snapshots.csv, line 17: 2 cells, expected 4$"):
        read_snapshots(path)


def test_tracers_cut_mid_row_are_rejected(tmp_path):
    track = TracerTrack(probe_x=2.0, t=np.arange(9.0), u=np.linspace(0.1, 0.9, 9), v=np.ones(9))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    cut_inside_last_row(path)
    with pytest.raises(InsufficientData, match="tracers.csv, line 10: 2 cells, expected 4$"):
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


def blank_line_after(path, line):
    """Insert an empty line after the given file line (the header is line 1)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(lines[:line] + [""] + lines[line:]), encoding="utf-8")


def test_tracers_with_a_blank_line_are_rejected(tmp_path):
    # np.loadtxt alone would skip the blank line and read one shorter track
    track = TracerTrack(probe_x=2.0, t=np.arange(3.0), u=np.ones(3), v=np.zeros(3))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    blank_line_after(path, 2)
    with pytest.raises(InsufficientData, match="tracers.csv, line 3: blank line$"):
        read_tracers(path)


def test_snapshots_with_a_blank_line_are_rejected(tmp_path):
    p = SimParams(grid_points=16)
    g = p.grid
    path = tmp_path / "snapshots.csv"
    states = FieldState(t=[0.0, 1.0], u=[np.sin(g.nodes)] * 2, v=[np.cos(g.nodes)] * 2)
    write_snapshots(path, states, g)
    # between the two snapshots, and at the end of the file
    blank_line_after(path, 17)
    with pytest.raises(InsufficientData, match="snapshots.csv, line 18: blank line$"):
        read_snapshots(path)
    write_snapshots(path, states, g)
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    with pytest.raises(InsufficientData, match="snapshots.csv, line 34: blank line$"):
        read_snapshots(path)


def test_a_blank_line_across_a_block_boundary_is_rejected(tmp_path):
    # the byte pass reads 1 MiB blocks after the header line: the newline
    # before the blank line ends the first block and the blank line's own
    # newline starts the second
    n = 40000
    track = TracerTrack(probe_x=2.0, t=0.125 * np.arange(n), u=np.linspace(0.0, 1.0, n), v=np.full(n, 1 / 3))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    text = path.read_text(encoding="utf-8")
    boundary = text.index("\n") + 1 + (1 << 20)
    q = text.rfind("\n", 0, boundary - 1)
    # trailing zeros on that line's last cell move its newline to the block's last byte
    text = text[:q] + "0" * (boundary - 1 - q) + "\n\n" + text[q + 1 :]
    assert text[boundary - 1 : boundary + 1] == "\n\n"
    path.write_text(text, encoding="utf-8")
    line = text[:boundary].count("\n") + 1
    with pytest.raises(InsufficientData, match=f"tracers.csv, line {line}: blank line$"):
        read_tracers(path)


def test_cut_final_newline_after_a_blank_line_is_named_by_its_file_line(tmp_path):
    # the last row sits on line 5, not on line 1 + the 3 rows read
    track = TracerTrack(probe_x=2.0, t=np.arange(3.0), u=np.ones(3), v=np.zeros(3))
    path = tmp_path / "tracers.csv"
    write_tracers(path, [track])
    blank_line_after(path, 2)
    path.write_text(path.read_text(encoding="utf-8")[:-1], encoding="utf-8")
    with pytest.raises(InsufficientData, match="tracers.csv, line 5: no final newline"):
        read_tracers(path)


def sample_rows():
    """Five diagnostics records, every 16 time units, of random values."""
    values = np.random.default_rng(13).standard_normal((5, 10)) * [1.0, 1e-12, 1e-9, *[1.0] * 7]
    return np.rec.fromarrays([16.0 * np.arange(5), *values.T], names=DIAGNOSTICS_COLUMNS)


def test_diagnostics_round_trip_exactly(tmp_path):
    awkward = np.rec.fromarrays([[x] for x in (80.0, *AWKWARD, *AWKWARD, *AWKWARD[:2])], names=DIAGNOSTICS_COLUMNS)
    rows = np.concatenate([sample_rows(), awkward]).view(np.recarray)
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, rows)
    back = read_diagnostics(path)
    assert back.dtype == rows.dtype
    assert back.tobytes() == rows.tobytes()


def test_integrate_and_read_diagnostics_share_one_record_dtype(tmp_path):
    # one read-only (S,) record of a float64 field per column both ways; a
    # header-only file reads back as an empty one
    _, _, diagnostics, _ = integrate(SimParams(grid_points=32, t_end=64.0))
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, diagnostics)
    back = read_diagnostics(path)
    path.write_text(",".join(DIAGNOSTICS_COLUMNS) + "\n", encoding="utf-8")
    empty = read_diagnostics(path)
    assert len(diagnostics) == len(back) == 5 and len(empty) == 0
    for record in (diagnostics, back, empty):
        assert isinstance(record, np.recarray)
        assert record.dtype.names == DIAGNOSTICS_COLUMNS
        assert all(record.dtype[name] == np.float64 for name in DIAGNOSTICS_COLUMNS)
        assert record.dtype == diagnostics.dtype
        assert not record.flags.writeable
    assert back[-1].rot_left == back.rot_left[-1] == diagnostics.rot_left[-1]


def test_tracers_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(17)
    tracks = [
        TracerTrack(probe_x=px, t=np.arange(9.0), u=rng.standard_normal(9), v=rng.standard_normal(9))
        for px in (2.0, 6.0)
    ]
    tracks[0] = dataclasses.replace(tracks[0], u=np.r_[AWKWARD, tracks[0].u[len(AWKWARD) :]])
    tracks[1] = dataclasses.replace(tracks[1], v=np.r_[tracks[1].v[: -len(AWKWARD)], AWKWARD])
    path = tmp_path / "tracers.csv"
    write_tracers(path, tracks)
    back = read_tracers(path)
    assert [trk.probe_x for trk in back] == [2.0, 6.0]
    for orig, got in zip(tracks, back):
        assert bits(got.t) == bits(orig.t)
        assert bits(got.u) == bits(orig.u)
        assert bits(got.v) == bits(orig.v)


def test_sweep_round_trip(tmp_path):
    entries = [
        {"A": 0.02, "label": "breather", "m_left": 5e-324, "m_right": -0.0,
         "rot_left": 1.7976931348623157e308, "rot_origin": 2.0 ** -52, "max_drift": 3e-11},
        {"A": 0.08, "label": "indeterminate", "m_left": float("nan"),
         "m_right": float("nan"), "rot_left": float("nan"),
         "rot_origin": float("nan"), "max_drift": float("nan")},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep(path, entries)
    back = read_sweep(path)
    assert len(back) == 2
    assert back[0]["label"] == "breather"
    assert back[1]["label"] == "indeterminate"
    assert math.isnan(back[1]["m_left"])
    numeric = [c for c in SWEEP_COLUMNS if c != "label"]
    for orig, got in zip(entries, back):
        assert bits([got[c] for c in numeric]) == bits([orig[c] for c in numeric])


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
    with pytest.raises(InsufficientData, match="sweep.csv, line 3: 6 cells, expected 7$"):
        read_sweep(path)


def reference_csv_text(header, rows):
    """A CSV as formatting each value on its own gives it: repr of each float cell, a str cell as it is."""
    return "".join(
        ",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n" for row in [header, *rows]
    )


# values whose text is easy to get wrong: signed zeros, the smallest
# subnormal and exponent forms of both signs
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-05, -2.5e-300, 1.5e16, 1.7976931348623157e308)


def edge_column(rng, count):
    """count values: EDGE_VALUES first, then random normals."""
    return np.r_[EDGE_VALUES, rng.standard_normal(count)][:count]


def tracer_cases():
    rng = np.random.default_rng(23)
    long = 2 * runio._ROWS + 3  # spans three chunks, the last one short
    t = 0.125 * np.arange(long)
    return [
        pytest.param([], id="no probes"),
        pytest.param(
            [TracerTrack(probe_x=2.0, t=t[:9], u=edge_column(rng, 9), v=-edge_column(rng, 9)[::-1])],
            id="edge values",
        ),
        pytest.param(
            [
                TracerTrack(probe_x=px, t=t, u=edge_column(rng, long), v=rng.standard_normal(long))
                for px in (2.0, 6.0)
            ],
            id="longer than a chunk",
        ),
        pytest.param(
            [TracerTrack(probe_x=0.0, t=t[: runio._ROWS], u=np.zeros(runio._ROWS), v=np.ones(runio._ROWS))],
            id="one full chunk",
        ),
    ]


@pytest.mark.parametrize("tracks", tracer_cases())
def test_tracers_write_the_bytes_of_formatting_every_value(tmp_path, tracks):
    path = tmp_path / "tracers.csv"
    write_tracers(path, tracks)
    rows = [
        (trk.probe_x, t, u, v) for trk in tracks for t, u, v in zip(trk.t.tolist(), trk.u.tolist(), trk.v.tolist())
    ]
    assert path.read_text(encoding="utf-8") == reference_csv_text(("probe_x", "t", "u", "v"), rows)


def test_a_run_without_probes_writes_a_header_only_tracers_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1\nprobes = \n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tracers.csv").read_text(encoding="utf-8") == "probe_x,t,u,v\n"


@pytest.mark.parametrize("count", [0, 5, 2 * runio._ROWS + 3], ids=["header only", "short", "longer than a chunk"])
def test_diagnostics_write_the_bytes_of_formatting_every_value(tmp_path, count):
    rng = np.random.default_rng(29)
    columns = [edge_column(rng, count) for _ in DIAGNOSTICS_COLUMNS]
    path = tmp_path / "diagnostics.csv"
    write_diagnostics(path, np.rec.fromarrays(columns, names=DIAGNOSTICS_COLUMNS))
    expected = reference_csv_text(DIAGNOSTICS_COLUMNS, zip(*columns))
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("count", [3, 2 * runio._ROWS + 3], ids=["short", "longer than a chunk"])
def test_sweep_writes_the_bytes_of_formatting_every_value(tmp_path, count):
    # every third entry is a failed member's, with NaN evidence
    rng = np.random.default_rng(31)
    nan = float("nan")
    numeric = [c for c in SWEEP_COLUMNS if c != "label"]
    columns = {c: edge_column(rng, count).tolist() for c in numeric}
    entries = [
        {
            "label": "indeterminate" if k % 3 else "breather",
            **{c: nan if k % 3 == 2 and c != "A" else columns[c][k] for c in numeric},
        }
        for k in range(count)
    ]
    path = tmp_path / "sweep.csv"
    write_sweep(path, entries)
    text = path.read_text(encoding="utf-8")
    assert text == reference_csv_text(SWEEP_COLUMNS, [tuple(e[c] for c in SWEEP_COLUMNS) for e in entries])
    assert ",nan,nan,nan,nan,nan\n" in text


def test_manifest_round_trip_and_digests(tmp_path):
    grid = make_grid(16, 8.0)
    write_snapshots(tmp_path / "snapshots.csv", sample_states(grid), grid)
    write_diagnostics(tmp_path / "diagnostics.csv", sample_rows())
    files = inventory_digests(tmp_path, ["snapshots.csv", "diagnostics.csv"])
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
