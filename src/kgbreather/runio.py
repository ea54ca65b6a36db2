"""On-disk run artifacts: CSV streams, the digest manifest, atomic writes.

Floats are written as their shortest round-tripping decimal so every file
reloads to the exact binary value. Every writer streams its text into a temp
file, snapshots.csv one state at a time and the others in slices of one
string, and publishes it with os.replace, so a crash never leaves a
half-written file.
Writers join cells with bare commas and never quote. One parser,
numpy.loadtxt in _read_table, reads each CSV into one table and rejects a
wrong header, a row with too few or too many cells, a blank line, a cell
that is not a plain number (a quoted one included), and a file without a
final newline, which was cut inside its last cell. A snapshot or a tracer track is a run of
equal values in its key column (t or probe_x); snapshots travel as one
stacked FieldState both ways.
"""

import hashlib
import io
import json
import os
import tempfile
import warnings

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


def _publish(path, chunks):
    """Write the str chunks to a synced temp file unique to this call and os.replace it onto path.

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
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Publish the str text at path as _publish does."""
    # in slices: encoding the whole text at once would add a full copy as bytes
    _publish(path, (text[i : i + (1 << 16)] for i in range(0, len(text), 1 << 16)))


def _csv_text(header, rows):
    """Comma-joined lines; no cell a writer emits holds a comma, quote or newline."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    buf.writelines(",".join(row) + "\n" for row in rows)
    return buf.getvalue()


def _line_count(fh):
    """(lines from fh's position to its end, the last one counted even without a newline, and
    whether it has one)."""
    count = 0
    last = "\n"
    for block in iter(lambda: fh.read(1 << 16), ""):
        count += block.count("\n")
        last = block[-1]
    return count + (last != "\n"), last == "\n"


def _bad_line_error(path, fh, width, parse, exc):
    """InsufficientData naming the file line of the first body row that parse rejects.

    numpy's own row numbers count neither from the header nor alike for
    every fault, so the body is parsed again one line at a time.
    """
    fh.seek(0)
    fh.readline()
    for k, line in enumerate(fh, 2):
        try:
            parse([line])
        except ValueError as line_exc:
            cells = line.rstrip("\n").count(",") + 1
            if cells != width:
                return InsufficientData(f"{path}, line {k}: {cells} cells, expected {width}")
            return InsufficientData(f"{path}, line {k}: {str(line_exc).replace(' at row 0,', ' in')}")
    return InsufficientData(f"{path}: {exc}")


def _read_table(path, header, dtype=np.float64):
    """Data rows as one (rows, columns) array of dtype, or as (rows,) records if dtype is structured.

    The body parses into one field per header name, so a row with too few
    or too many cells fails, and so does a blank line. A failure names the
    file line of the first row that does not parse, counting the header as
    line 1.
    """
    records = np.dtype(dtype).names is not None
    fields = dtype if records else [(name, dtype) for name in header]

    def parse(lines):
        return np.loadtxt(lines, fields, delimiter=",", comments=None, ndmin=1)

    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise InsufficientData(f"{path} is empty")
        names = first.rstrip("\n").split(",")
        if names != list(header):
            raise InsufficientData(f"{path} has header {names}, expected {list(header)}")
        with warnings.catch_warnings():
            # a header-only file is an empty table, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = parse(fh)
            except ValueError as exc:
                raise _bad_line_error(path, fh, len(header), parse, exc) from None
        fh.seek(0)
        lines, newline_at_end = _line_count(fh)
        if not newline_at_end:
            raise InsufficientData(f"{path}, line {lines}: no final newline, cut inside its last cell")
        if lines != 1 + len(table):  # np.loadtxt skips a blank line without a word
            fh.seek(0)
            k = next(k for k, line in enumerate(fh, 1) if line == "\n")
            raise InsufficientData(f"{path}, line {k}: blank line")
    return table if records else table.view(dtype).reshape(-1, len(header))


def _runs(key):
    """(start, stop) of each run of equal consecutive values of key."""
    if not len(key):
        return []
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(key)]))


def write_snapshots(path, snapshots, grid):
    """Write a stacked FieldState as t,x,u,v rows, one run of grid.n rows per state.

    One chunk per state streams into the file, so no more than one state's text is held at once.
    """
    xs = [fmt(x) for x in grid.nodes.tolist()]

    def chunks():
        yield "t,x,u,v\n"
        for t, u, v in zip(map(fmt, snapshots.t.tolist()), snapshots.u, snapshots.v):
            yield "".join(f"{t},{x},{a!r},{b!r}\n" for x, a, b in zip(xs, u.tolist(), v.tolist()))

    _publish(path, chunks())


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
    buf = io.StringIO()
    buf.write("probe_x,t,u,v\n")
    for trk in tracks:
        # a track's probe cell is one string, and {!r} of a float is fmt's text; the
        # columns become Python floats 512 rows at a time, which bounds the memory
        row = fmt(trk.probe_x) + ",{!r},{!r},{!r}\n"
        for i in range(0, len(trk), 512):
            buf.writelines(map(row.format, *(x[i : i + 512].tolist() for x in (trk.t, trk.u, trk.v))))
    atomic_write_text(path, buf.getvalue())


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
    dtype = [(name, object if name == "label" else np.float64) for name in SWEEP_COLUMNS]
    return [dict(zip(SWEEP_COLUMNS, row)) for row in _read_table(path, SWEEP_COLUMNS, dtype).tolist()]


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def params_digest(params):
    """sha256 of a manifest params mapping as canonical JSON (sorted keys, compact)."""
    text = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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
