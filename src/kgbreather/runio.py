"""On-disk run artifacts: CSV streams, the digest manifest, atomic writes.

Floats are written as their shortest round-tripping decimal so every file
reloads to the exact binary value. All writers build the whole payload first
and publish it with os.replace, so a crash never leaves a half-written file.
Every CSV ends with a newline; the readers reject one that does not, since
it was cut inside its last cell. The numeric readers collect a file into one
float64 table, and a snapshot or a tracer track is a run of equal values in
its key column (t or probe_x). Snapshots travel as one stacked FieldState
both ways.
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
            # in slices: encoding the whole text at once would add a full copy as bytes
            for i in range(0, len(text), 1 << 16):
                fh.write(text[i : i + (1 << 16)])
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
    """Yield data rows as lists of floats; cells of the columns named in text_columns stay text.

    The final-newline check runs once the rows are exhausted; every reader
    consumes all of them, so none skips it.
    """
    kinds = [str if name in text_columns else float for name in expect_header]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InsufficientData(f"{path} is empty") from None
        if tuple(header) != tuple(expect_header):
            raise InsufficientData(f"{path} has header {header}, expected {list(expect_header)}")
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise InsufficientData(
                    f"{path}, line {reader.line_num}: {len(row)} cells, expected {len(header)}"
                )
            try:
                yield [kind(cell) for kind, cell in zip(kinds, row)]
            except ValueError as exc:
                raise InsufficientData(
                    f"{path}, line {reader.line_num}: non-numeric cell ({exc})"
                ) from None
    if not _ends_with_newline(path):
        raise InsufficientData(
            f"{path}, line {reader.line_num}: no final newline, cut inside its last cell"
        )


def _read_table(path, header):
    """Data rows as one (rows, columns) float64 array."""
    return np.fromiter(_read_csv(path, header), dtype=np.dtype((np.float64, len(header))))


def _runs(key):
    """(start, stop) of each run of equal consecutive values of key."""
    if not len(key):
        return []
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(key)]))


def write_snapshots(path, snapshots, grid):
    """Write a stacked FieldState as t,x,u,v rows, one run of grid.n rows per state.

    One chunk per state goes into one buffer, which keeps the peak near twice the file's size.
    """
    buf = io.StringIO()
    buf.write("t,x,u,v\n")
    xs = [fmt(x) for x in grid.nodes.tolist()]
    for t, u, v in zip(map(fmt, snapshots.t.tolist()), snapshots.u, snapshots.v):
        buf.write("".join(f"{t},{x},{a!r},{b!r}\n" for x, a, b in zip(xs, u.tolist(), v.tolist())))
    atomic_write_text(path, buf.getvalue())


def read_snapshots(path):
    """Returns (node array, stacked FieldState), one state per run of equal t."""
    t, x, u, v = _read_table(path, ("t", "x", "u", "v")).T
    if not len(t):
        raise InsufficientData(f"{path} has no data rows")
    runs = _runs(t)
    nodes = x[slice(*runs[0])].copy()
    for a, b in runs:
        if not np.array_equal(x[a:b], nodes):
            raise InsufficientData(f"{path}: snapshot at t={float(t[a])} has inconsistent nodes")
    # every run holds the nodes, so the rows split into states of nodes.size
    n = nodes.size
    return nodes, FieldState(t=t[::n], u=u.reshape(-1, n), v=v.reshape(-1, n))


def write_diagnostics(path, rows):
    payload = (
        tuple(fmt(getattr(r, name)) for name in DIAGNOSTICS_COLUMNS) for r in rows
    )
    atomic_write_text(path, _csv_text(DIAGNOSTICS_COLUMNS, payload))


def read_diagnostics(path):
    return [DiagnosticsRow(*row) for row in _read_table(path, DIAGNOSTICS_COLUMNS).tolist()]


def write_tracers(path, tracks):
    rows = (
        (fmt(trk.probe_x), fmt(t), fmt(u), fmt(v))
        for trk in tracks
        for t, u, v in zip(trk.t, trk.u, trk.v)
    )
    atomic_write_text(path, _csv_text(("probe_x", "t", "u", "v"), rows))


def read_tracers(path):
    """Returns TracerTracks, one per run of equal probe_x, in file order."""
    px, t, u, v = _read_table(path, ("probe_x", "t", "u", "v")).T
    return [
        TracerTrack(probe_x=float(px[a]), t=t[a:b], u=u[a:b], v=v[a:b]) for a, b in _runs(px)
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
