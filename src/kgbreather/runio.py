"""On-disk run artifacts: CSV streams, the digest manifest, atomic writes.

Floats are written as their shortest round-tripping decimal so every file
reloads to the exact binary value. All writers build the whole payload first
and publish it with os.replace, so a crash never leaves a half-written file.
Every CSV ends with a newline; the readers reject one that does not, since
it was cut inside its last cell.
"""

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from .core import DIAGNOSTICS_COLUMNS, DiagnosticsRow, FieldState
from .errors import InsufficientData
from .geometry import TracerTrack

SNAPSHOTS_FILE = "snapshots.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
TRACERS_FILE = "tracers.csv"
MANIFEST_FILE = "manifest.json"
SWEEP_FILE = "sweep.csv"

SWEEP_COLUMNS = ("A", "label", "m_left", "m_right", "rot_left", "rot_origin", "max_drift")


def fmt(x):
    """Shortest decimal that round-trips a float64."""
    return repr(float(x))


def atomic_write_text(path, text):
    """Publish text at path by os.replace of a synced temp file unique to this call.

    If the write fails, the temp file is removed and path keeps what it held.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # the mode open() would give a new file: 0o666 less the umask
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(fh.fileno(), 0o666 & ~mask)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _ends_with_newline(path):
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def _read_csv(path, expect_header, text_columns=()):
    """Data rows as lists of floats; cells of the columns named in text_columns stay text."""
    kinds = [str if name in text_columns else float for name in expect_header]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InsufficientData(f"{path} is empty") from None
        if tuple(header) != tuple(expect_header):
            raise InsufficientData(f"{path} has header {header}, expected {list(expect_header)}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise InsufficientData(
                    f"{path}, line {reader.line_num}: {len(row)} cells, expected {len(header)}"
                )
            try:
                rows.append([kind(cell) for kind, cell in zip(kinds, row)])
            except ValueError as exc:
                raise InsufficientData(
                    f"{path}, line {reader.line_num}: non-numeric cell ({exc})"
                ) from None
    if not _ends_with_newline(path):
        raise InsufficientData(
            f"{path}, line {reader.line_num}: no final newline, cut inside its last cell"
        )
    return rows


def write_snapshots(path, snapshots, grid):
    rows = (
        (fmt(s.t), fmt(x), fmt(u), fmt(v))
        for s in snapshots
        for x, u, v in zip(grid.nodes, s.u, s.v)
    )
    atomic_write_text(path, _csv_text(("t", "x", "u", "v"), rows))


def read_snapshots(path):
    """Returns (node array, list of FieldState) grouped by the t column."""
    data = _read_csv(path, ("t", "x", "u", "v"))
    if not data:
        raise InsufficientData(f"{path} has no data rows")
    states = []
    cur_t = None
    xs, us, vs = [], [], []
    nodes = None

    def flush():
        nonlocal nodes
        if cur_t is None:
            return
        if nodes is None:
            nodes = np.array(xs)
        elif len(xs) != nodes.size or not np.array_equal(np.array(xs), nodes):
            raise InsufficientData(f"{path}: snapshot at t={cur_t} has inconsistent nodes")
        states.append(FieldState(t=cur_t, u=np.array(us), v=np.array(vs)))

    for t, x, u, v in data:
        if cur_t is None or t != cur_t:
            flush()
            cur_t = t
            xs, us, vs = [], [], []
        xs.append(x)
        us.append(u)
        vs.append(v)
    flush()
    return nodes, states


def write_diagnostics(path, rows):
    payload = (
        tuple(fmt(getattr(r, name)) for name in DIAGNOSTICS_COLUMNS) for r in rows
    )
    atomic_write_text(path, _csv_text(DIAGNOSTICS_COLUMNS, payload))


def read_diagnostics(path):
    return [
        DiagnosticsRow(**dict(zip(DIAGNOSTICS_COLUMNS, row)))
        for row in _read_csv(path, DIAGNOSTICS_COLUMNS)
    ]


def write_tracers(path, tracks):
    rows = (
        (fmt(trk.probe_x), fmt(t), fmt(u), fmt(v))
        for trk in tracks
        for t, u, v in zip(trk.t, trk.u, trk.v)
    )
    atomic_write_text(path, _csv_text(("probe_x", "t", "u", "v"), rows))


def read_tracers(path):
    """Returns TracerTracks grouped by probe_x in file order."""
    data = _read_csv(path, ("probe_x", "t", "u", "v"))
    order = []
    groups = {}
    for px, t, u, v in data:
        if px not in groups:
            groups[px] = ([], [], [])
            order.append(px)
        g = groups[px]
        g[0].append(t)
        g[1].append(u)
        g[2].append(v)
    return [
        TracerTrack(probe_x=px, t=np.array(groups[px][0]), u=np.array(groups[px][1]), v=np.array(groups[px][2]))
        for px in order
    ]


def write_sweep(path, entries):
    """entries: iterable of dicts keyed by SWEEP_COLUMNS (label stays a string)."""
    rows = (
        tuple(e["label"] if c == "label" else fmt(e[c]) for c in SWEEP_COLUMNS)
        for e in entries
    )
    atomic_write_text(path, _csv_text(SWEEP_COLUMNS, rows))


def read_sweep(path):
    return [
        dict(zip(SWEEP_COLUMNS, row))
        for row in _read_csv(path, SWEEP_COLUMNS, text_columns=("label",))
    ]


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def inventory_digests(run_dir, names):
    """sha256 of each named file that exists in run_dir (manifest never listed)."""
    out = {}
    for name in names:
        if name == MANIFEST_FILE:
            continue
        p = os.path.join(run_dir, name)
        if os.path.exists(p):
            out[name] = file_digest(p)
    return out


def write_manifest(path, manifest):
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify_digests(manifest, run_dir):
    """List of mismatch descriptions between recorded and current file digests."""
    problems = []
    for name, recorded in sorted(manifest.get("files", {}).items()):
        p = os.path.join(run_dir, name)
        if not os.path.exists(p):
            problems.append(f"{name}: listed in manifest but missing")
        elif file_digest(p) != recorded:
            problems.append(f"{name}: digest mismatch")
    return problems
