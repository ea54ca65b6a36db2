"""On-disk run artifacts: CSV streams, the digest manifest, atomic writes.

Floats are written as their shortest round-tripping decimal so every file
reloads to the exact binary value. Every writer streams its text into a temp
file and publishes it with os.replace, so a crash never leaves a
half-written file: snapshots.csv one state at a time, the other CSVs
_ROWS rows at a time, and the manifest and SVGs in slices of one string.
Writers join cells with bare commas and never quote. Every reader starts
with one pass over the file's bytes, in 1 MiB blocks, that finds where each
line starts. It rejects a wrong header, a blank line and a file without a
final newline, which was cut inside its last cell. One parser,
numpy.loadtxt, then reads a range of lines into one table, and rejects a
row with too few or too many cells and a cell that is not a plain number (a
quoted one included). A tracer track is a run of equal values in its
probe_x column. snapshots.csv holds states of n rows each, one row per
node, every row of a state at its t, and no state at the t of the one
before it; snapshot_index finds n and each state's t from the byte pass and
a parse of each state's first row, so read_snapshots can parse the rows of
a range of states alone. Snapshots travel as one stacked FieldState both
ways; one state is written as a stack of one, and a state with another node
count than the grid is rejected. Of a state's u or v whose right half is its
left half negated bit for bit, as in every state of an exactly odd run, only
nodes 0..N/2 are formatted and node N - j takes the text of node j with its
sign flipped: the bytes are those of formatting every value.
"""

import hashlib
import io
import itertools
import json
import os
import tempfile
from typing import NamedTuple

import numpy as np

from .core import DIAGNOSTICS_COLUMNS, FieldState
from .errors import InsufficientData, LengthMismatch
from .geometry import TracerTrack

SNAPSHOTS_FILE = "snapshots.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
TRACERS_FILE = "tracers.csv"
MANIFEST_FILE = "manifest.json"
SWEEP_FILE = "sweep.csv"

SNAPSHOT_COLUMNS = ("t", "x", "u", "v")
TRACER_COLUMNS = ("probe_x", "t", "u", "v")

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


# rows of tracers.csv, diagnostics.csv and sweep.csv formatted into one chunk,
# so a writer holds that many rows' text at a time, not the file's
_ROWS = 512


def _csv_chunks(header, rows):
    """The header line, then the rows (tuples of cell texts) as comma-joined lines, _ROWS lines a chunk.

    No cell a writer emits holds a comma, quote or newline.
    """
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _ROWS)):
        yield "".join(",".join(row) + "\n" for row in chunk)


class _Body:
    """The body of one CSV file, indexed by one pass over its bytes and parsed a range of lines at a time.

    The pass reads 1 MiB binary blocks and finds the newlines in each. It
    checks the header and the structure that a read of part of the body
    relies on: a final newline and no blank line, which it looks for block
    by block, across each block boundary too. Body line k (0 is the line
    after the header, file line k + 2) spans bytes starts[k] to starts[k + 1].
    """

    def __init__(self, path, header, dtype=np.float64):
        self.path = path
        self.width = len(header)
        self.fields = dtype if np.dtype(dtype).names is not None else [(name, dtype) for name in header]
        with open(path, "rb") as fh:
            first = fh.readline()
            if not first:
                raise InsufficientData(f"{path} is empty")
            # a byte that is not UTF-8 decodes to U+FFFD, which no header holds
            names = first.decode("utf-8", "replace").rstrip("\n").split(",")
            if names != list(header):
                raise InsufficientData(f"{path} has header {names}, expected {list(header)}")
            if not first.endswith(b"\n"):
                raise InsufficientData(f"{path}, line 1: no final newline, cut inside its last cell")
            ends, size, blank = [np.array([len(first)])], len(first), None
            last, count = len(first), 1  # the end of the last line so far, and the line ends so far
            for block in iter(lambda: fh.read(1 << 20), b""):
                end = np.flatnonzero(np.frombuffer(block, np.uint8) == 10) + (size + 1)
                # a blank line ends one byte after the line before it, which may end in an earlier block
                gap = np.flatnonzero(np.diff(end, prepend=last) == 1)
                if gap.size and blank is None:
                    blank = count + int(gap[0]) + 1  # its file line
                ends.append(end)
                last, count, size = end[-1] if end.size else last, count + end.size, size + len(block)
        self.starts = np.concatenate(ends)
        del ends  # freed before a cut final row copies the index
        self.count = len(self.starts) - 1
        if size > self.starts[-1]:
            # a cut row that no longer parses is named for its fault, one that still parses for the cut
            self.starts = np.append(self.starts, size)
            self.rows(range(self.count, self.count + 1))
            raise InsufficientData(f"{path}, line {self.count + 2}: no final newline, cut inside its last cell")
        if blank is not None:  # np.loadtxt would skip it without a word
            raise InsufficientData(f"{path}, line {blank}: blank line")

    def _parse(self, lines, count):
        return np.loadtxt(lines, self.fields, delimiter=",", comments=None, ndmin=1, max_rows=count)

    def _text(self, lines):
        """Each body line in the range lines as str, each read from its own offset."""
        with open(self.path, "rb", buffering=0) as fh:
            for k in lines:
                fh.seek(self.starts[k])
                try:
                    yield fh.read(self.starts[k + 1] - self.starts[k]).decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InsufficientData(f"{self.path}, line {k + 2}: not UTF-8 text: {exc}") from None

    def rows(self, lines):
        """The body lines in the range lines as (len(lines),) records, parsed by one numpy.loadtxt call.

        Each line parses into one field per header name, so a row with too
        few or too many cells fails. A failure names the file line of the
        first line that does not parse, counting the header as line 1.
        """
        if not len(lines):
            return np.empty(0, self.fields)
        try:
            if lines.step != 1:
                return self._parse(self._text(lines), len(lines))
            with open(self.path, "rb") as raw:  # one run streams from its first line on
                raw.seek(self.starts[lines.start])
                with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                    return self._parse(fh, len(lines))
        except ValueError as exc:
            # numpy's own row numbers count neither from the header nor alike
            # for every fault, so the lines are parsed again one at a time
            for k, line in zip(lines, self._text(lines)):
                try:
                    self._parse([line], 1)
                except ValueError as line_exc:
                    cells = line.rstrip("\n").count(",") + 1
                    if cells != self.width:
                        detail = f"{cells} cells, expected {self.width}"
                    else:
                        detail = str(line_exc).replace(" at row 0,", " in")
                    raise InsufficientData(f"{self.path}, line {k + 2}: {detail}") from None
            raise InsufficientData(f"{self.path}: {exc}") from None


def _read_table(path, header, dtype=np.float64):
    """Data rows as (rows,) records, one field per header name, each of dtype unless dtype is structured."""
    body = _Body(path, header, dtype)
    return body.rows(range(body.count))


def _runs(key):
    """(start, stop) of each run of equal consecutive values of key."""
    if not len(key):
        return []
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(key)]))


# the sign bit of a float64 as int64: x ^ _SIGN is -x bit for bit
_SIGN = np.int64(-(1 << 63))
# states whose oddness is decided by one set of array operations, so no
# temporary grows with the run
_ODD_BLOCK = 256


def _mirrored(block):
    """For each row of a (states, N) block: True if node N - j holds -(node j) bit for bit, 0 < j < N/2."""
    bits = block.view(np.int64)
    h = bits.shape[-1] // 2
    return (bits[:, h + 1 :] == bits[:, h - 1 : 0 : -1] ^ _SIGN).all(axis=-1)


def _texts(row, odd):
    """fmt of each value of row. Of a mirrored row, only nodes 0..N/2 are formatted.

    Node N - j then takes the text of node j with its sign flipped, which is
    fmt(-x) for every finite x, -0.0 and exponent forms included; FieldState
    holds no other.
    """
    if not odd:
        return list(map(repr, row.tolist()))
    h = len(row) // 2
    left = list(map(repr, row[: h + 1].tolist()))
    return left + [s[1:] if s[0] == "-" else "-" + s for s in left[h - 1 : 0 : -1]]


def write_snapshots(path, snapshots, grid):
    """Write a FieldState, one state or a stack, as t,x,u,v rows, one run of grid.n rows per state.

    One chunk per state streams into the file, so no more than one state's
    text is held at once. Of a u or v whose right half is its left half negated
    bit for bit, as in every state of an odd run, only the left half is
    formatted; the bytes are those of formatting every value.
    """
    n = snapshots.u.shape[-1]
    if n != grid.n:
        raise LengthMismatch(f"states of {n} nodes for a grid of {grid.n}")
    t, u, v = np.reshape(snapshots.t, -1), snapshots.u.reshape(-1, n), snapshots.v.reshape(-1, n)
    # row k of a state is slots 6k..6k+5: t, ",x,", u, ",", v, "\n"
    slots = [None] * (6 * n)
    slots[1::6] = [f",{fmt(x)}," for x in grid.nodes.tolist()]
    slots[3::6] = [","] * n
    slots[5::6] = ["\n"] * n

    def chunks():
        yield ",".join(SNAPSHOT_COLUMNS) + "\n"
        for a in range(0, len(t), _ODD_BLOCK):
            block = slice(a, a + _ODD_BLOCK)
            rows = zip(
                map(fmt, t[block].tolist()),
                u[block], _mirrored(u[block]).tolist(),
                v[block], _mirrored(v[block]).tolist(),
            )
            for tk, uk, u_odd, vk, v_odd in rows:
                slots[0::6] = [tk] * n
                slots[2::6] = _texts(uk, u_odd)
                slots[4::6] = _texts(vk, v_odd)
                yield "".join(slots)

    _publish(path, chunks())


class SnapshotIndex(NamedTuple):
    """Where the states of a snapshots.csv lie: n rows a state, state k from body line k * n on, at t[k]."""

    body: _Body
    n: int
    t: np.ndarray


def snapshot_index(path):
    """SnapshotIndex of the snapshots.csv at path, parsing only the rows it needs.

    A state is a run of n rows of equal t, n the length of the first run.
    The body must be whole states, and no state may have the t of the one
    before it. Each state's t is the t cell of its first row, parsed with
    the same fields as every row.
    """
    body = _Body(path, SNAPSHOT_COLUMNS)
    if not body.count:
        raise InsufficientData(f"{path} has no data rows")
    head = 0
    while True:  # the first run of equal t, in parses of doubling length
        head = min(2 * head or 256, body.count)
        t = body.rows(range(head))["t"]
        change = np.flatnonzero(t[1:] != t[0])
        if change.size or head == body.count:
            break
    n = int(change[0]) + 1 if change.size else head
    if body.count % n:
        line = body.count - body.count % n + 2
        raise InsufficientData(f"{path}, line {line}: a state of {body.count % n} rows, expected {n}")
    t = body.rows(range(0, body.count, n))["t"]
    again = np.flatnonzero(t[1:] == t[:-1])
    if again.size:
        k = int(again[0]) + 1
        raise InsufficientData(f"{path}, line {k * n + 2}: the state at t={float(t[k])} repeats the t before it")
    return SnapshotIndex(body, n, t)


def read_snapshots(path, start=0, stop=None, index=None):
    """Returns (node array, stacked FieldState) of states start to stop - 1, every state by default.

    Their rows parse in one numpy.loadtxt call. Each state must keep one t
    in every row and the nodes of the first state read. index is
    snapshot_index(path), for a caller that holds it already.
    """
    if index is None:
        index = snapshot_index(path)
    n = index.n
    a, b, _ = slice(start, stop).indices(len(index.t))
    if a >= b:
        raise InsufficientData(f"{path} has no state in {start}:{stop}")
    table = index.body.rows(range(a * n, b * n))
    t, x, u, v = (table[name].reshape(-1, n) for name in SNAPSHOT_COLUMNS)
    off = np.flatnonzero(t != t[:, :1])
    if off.size:
        k = off[0]
        raise InsufficientData(
            f"{path}, line {a * n + k + 2}: t={float(t.flat[k])} inside the state at t={float(t[k // n, 0])}"
        )
    off = np.flatnonzero(x != x[0])
    if off.size:
        k = off[0]
        raise InsufficientData(
            f"{path}, line {a * n + k + 2}: snapshot at t={float(t[k // n, 0])} has inconsistent nodes"
        )
    return x[0].copy(), FieldState(t=t[:, 0], u=u, v=v)


def write_diagnostics(path, diagnostics):
    """Write the (S,) diagnostics record, whose fields become Python floats _ROWS records at a time."""
    rows = (
        map(fmt, row) for a in range(0, len(diagnostics), _ROWS) for row in diagnostics[a : a + _ROWS].tolist()
    )
    _publish(path, _csv_chunks(DIAGNOSTICS_COLUMNS, rows))


def read_diagnostics(path):
    """The rows of diagnostics.csv as one read-only (S,) numpy.recarray, the form integrate returns."""
    diagnostics = _read_table(path, DIAGNOSTICS_COLUMNS).view(np.recarray)
    diagnostics.setflags(write=False)
    return diagnostics


def write_tracers(path, tracks):
    def chunks():
        yield ",".join(TRACER_COLUMNS) + "\n"
        for trk in tracks:
            # a track's probe cell is one string, and {!r} of a float is fmt's text; the
            # columns become Python floats _ROWS rows at a time, which bounds the memory
            row = fmt(trk.probe_x) + ",{!r},{!r},{!r}\n"
            for i in range(0, len(trk), _ROWS):
                yield "".join(map(row.format, *(x[i : i + _ROWS].tolist() for x in (trk.t, trk.u, trk.v))))

    _publish(path, chunks())


def read_tracers(path):
    """Returns TracerTracks, one per run of equal probe_x, in file order."""
    table = _read_table(path, TRACER_COLUMNS)
    px, t, u, v = (table[name] for name in TRACER_COLUMNS)
    return [
        TracerTrack(probe_x=float(px[a]), t=t[a:b], u=u[a:b], v=v[a:b]) for a, b in _runs(px)
    ]


def write_sweep(path, entries):
    """entries: iterable of dicts keyed by SWEEP_COLUMNS (label stays a string)."""
    rows = (
        tuple(e["label"] if c == "label" else fmt(e[c]) for c in SWEEP_COLUMNS)
        for e in entries
    )
    _publish(path, _csv_chunks(SWEEP_COLUMNS, rows))


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
    """sha256 of each named file in run_dir, which must exist; the manifest lists these."""
    return {name: file_digest(os.path.join(run_dir, name)) for name in names}


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
