"""Output checks made apart from the program.

Every check reads the run artifacts with numpy and the standard library only
and recomputes what it compares against: energies from the snapshot samples
with its own spectral derivative, rotation counts from the tracer tracks with
numpy.unwrap, the mode label from its own margins and turns, digests with
hashlib. Nothing here imports kgbreather, and nothing compares against a
stored copy of an earlier output. A failed check raises CheckFailed.
"""

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

SNAPSHOT_HEADER = ("t", "x", "u", "v")
TRACER_HEADER = ("probe_x", "t", "u", "v")
DIAGNOSTICS_HEADER = (
    "t",
    "energy",
    "momentum",
    "energy_drift",
    "u_min_left",
    "u_max_left",
    "u_min_right",
    "u_max_right",
    "rot_origin",
    "rot_left",
    "rot_right",
)
SWEEP_HEADER = ("A", "label", "m_left", "m_right", "rot_left", "rot_origin", "max_drift")
CSV_FILES = ("snapshots.csv", "diagnostics.csv", "tracers.csv")

# Tolerances; the README explains each one.
ENERGY_REL_TOL = 1e-12  # |E_program - E_recomputed| / sum of |energy terms|
MOMENTUM_REL_TOL = 1e-12  # |P| / (dx * sum |v| |Du|), over the whole run
DRIFT_LIMIT = 1e-8  # max |relative energy drift|
DRIFT_COLUMN_TOL = 1e-15  # energy_drift column against (E - E0) / |E0|
TIME_TOL = 1e-9  # time stamps against step * dt
TURN_TOL = 1e-9  # rot_* columns and printed turns against numpy.unwrap
CENTER_EPS = 1e-12  # track points this close to a center carry no angle
SOLO_REL_TOL = 1e-9  # sweep member against solo run, per column scale


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _open(path, mode="r"):
    """open(), with a missing or unreadable artifact reported as a failed check."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc.strerror}") from None


def load_csv(path, header):
    """Numeric CSV body as a 2-d float array; header and row width checked."""
    with _open(path) as fh:
        first = fh.readline().rstrip("\n")
        require(tuple(first.split(",")) == tuple(header), f"{path}: header {first!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{path}: malformed rows ({exc})") from None
    require(data.shape[0] > 0 and data.shape[1] == len(header), f"{path}: shape {data.shape}")
    return data


def read_manifest(run_dir):
    path = os.path.join(run_dir, "manifest.json")
    with _open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CheckFailed(f"{path}: not JSON ({exc})") from None


def check_digests(run_dir, manifest):
    files = manifest.get("files", {})
    require(sorted(files) == sorted(CSV_FILES), f"{run_dir}: manifest lists {sorted(files)}")
    for name, recorded in files.items():
        h = hashlib.sha256()
        with _open(os.path.join(run_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        require(h.hexdigest() == recorded, f"{run_dir}/{name}: sha256 differs from the manifest")


class Run:
    """The artifacts of one finished run directory, loaded as arrays."""

    def __init__(self, run_dir):
        self.dir = run_dir
        self.manifest = read_manifest(run_dir)
        require(self.manifest.get("status") == "ok", f"{run_dir}: status {self.manifest.get('status')}")
        p = self.manifest["params"]
        self.params = p
        self.n = int(p["grid_points"])
        self.length = float(p["domain_length"])
        self.dt = float(p["dt"])
        self.steps = int(round(p["t_end"] / p["dt"]))
        self.stride = int(round(p["snapshot_every"] / p["dt"]))
        snap = load_csv(os.path.join(run_dir, "snapshots.csv"), SNAPSHOT_HEADER)
        require(snap.shape[0] % self.n == 0, f"{run_dir}: snapshot rows not a multiple of N")
        snap = snap.reshape(-1, self.n, 4)
        self.snap_t = snap[:, 0, 0]
        require(np.all(snap[:, :, 0] == self.snap_t[:, None]), f"{run_dir}: mixed times in a snapshot")
        nodes = np.arange(self.n) * (self.length / self.n)
        require(
            np.allclose(snap[:, :, 1], nodes[None, :], rtol=0.0, atol=TIME_TOL),
            f"{run_dir}: snapshot nodes are not the grid",
        )
        self.nodes = nodes
        self.u = snap[:, :, 2]
        self.v = snap[:, :, 3]
        self.snap_steps = np.arange(0, self.steps + 1, self.stride)
        require(
            self.snap_t.size == self.snap_steps.size
            and np.allclose(self.snap_t, self.snap_steps * self.dt, rtol=0.0, atol=TIME_TOL),
            f"{run_dir}: snapshot times are not every snapshot_every",
        )
        self.diag = load_csv(os.path.join(run_dir, "diagnostics.csv"), DIAGNOSTICS_HEADER)
        self.col = {name: self.diag[:, i] for i, name in enumerate(DIAGNOSTICS_HEADER)}
        require(
            self.diag.shape[0] == self.snap_t.size and np.array_equal(self.col["t"], self.snap_t),
            f"{run_dir}: diagnostics times differ from snapshot times",
        )
        trc = load_csv(os.path.join(run_dir, "tracers.csv"), TRACER_HEADER)
        probes = [float(x) for x in p["probes"]]
        require(trc.shape[0] == len(probes) * (self.steps + 1), f"{run_dir}: {trc.shape[0]} tracer rows")
        trc = trc.reshape(len(probes), self.steps + 1, 4)
        require(np.array_equal(trc[:, 0, 0], probes), f"{run_dir}: tracer probes {trc[:, 0, 0]}")
        require(np.all(trc[:, :, 0] == trc[:, :1, 0]), f"{run_dir}: tracer probe column mixed")
        step_t = np.arange(self.steps + 1) * self.dt
        require(
            np.allclose(trc[:, :, 1], step_t[None, :], rtol=0.0, atol=TIME_TOL),
            f"{run_dir}: tracer times are not every step",
        )
        self.probes = probes
        self.trk_u = trc[:, :, 2]
        self.trk_v = trc[:, :, 3]


def derivative(u, length):
    """Spectral d/dx along the last axis, Nyquist mode dropped."""
    n = u.shape[-1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    k[-1] = 0.0
    return np.fft.irfft(1j * k * np.fft.rfft(u, axis=-1), n=n, axis=-1)


def check_energy(run):
    """Energy column against the benchmark's own spectral energy, and drift."""
    p = run.params
    sigma = 1.0 if p["laplacian_sign"] == "standard_wave" else -1.0
    dx = run.length / run.n
    du = derivative(run.u, run.length)
    terms = (
        0.5 * run.v**2,
        0.5 * sigma * p["alpha"] * du**2,
        -0.5 * p["mu"] * run.u**2,
        0.25 * p["beta"] * run.u**4,
    )
    energy = dx * sum(terms).sum(axis=1)
    scale = dx * sum(np.abs(t) for t in terms).sum(axis=1)
    err = np.abs(run.col["energy"] - energy)
    worst = int(np.argmax(err / scale))
    require(
        err[worst] <= ENERGY_REL_TOL * scale[worst],
        f"{run.dir}: energy at t={run.snap_t[worst]} is {run.col['energy'][worst]!r},"
        f" recomputed {energy[worst]!r}",
    )
    e = run.col["energy"]
    drift = (e - e[0]) / max(abs(e[0]), 1e-30)
    require(
        np.all(np.abs(run.col["energy_drift"] - drift) <= DRIFT_COLUMN_TOL * np.maximum(1.0, np.abs(drift))),
        f"{run.dir}: energy_drift column disagrees with the energy column",
    )
    max_drift = float(np.max(np.abs(drift)))
    require(max_drift <= DRIFT_LIMIT, f"{run.dir}: max |energy drift| {max_drift:.3e} > {DRIFT_LIMIT}")
    reported = run.manifest["max_abs_energy_drift"]
    require(
        abs(reported - max_drift) <= DRIFT_COLUMN_TOL * max(1.0, max_drift),
        f"{run.dir}: manifest drift {reported!r}, diagnostics give {max_drift!r}",
    )
    return max_drift


def check_momentum(run):
    """|momentum| at roundoff, in the column and recomputed from the samples."""
    dx = run.length / run.n
    du = derivative(run.u, run.length)
    scale = dx * float(np.max(np.sum(np.abs(run.v) * np.abs(du), axis=1)))
    recomputed = dx * np.sum(run.v * du, axis=1)
    for what, values in (("column", run.col["momentum"]), ("recomputed", recomputed)):
        worst = float(np.max(np.abs(values)))
        require(
            worst <= MOMENTUM_REL_TOL * scale,
            f"{run.dir}: {what} |momentum| {worst:.3e} above roundoff (scale {scale:.3e})",
        )


def reflect(u):
    """Samples of u(L - x) along the last axis: index j maps to (N - j) mod N."""
    return np.roll(u[..., ::-1], 1, axis=-1)


def check_odd(run):
    """Every snapshot of an odd start stays odd bit for bit."""
    for name, f in (("u", run.u), ("v", run.v)):
        bad = np.flatnonzero(np.any(f != -reflect(f), axis=1))
        require(bad.size == 0, f"{run.dir}: {name} not odd at t={run.snap_t[bad[:1]]}")


def check_tracers_match_snapshots(run):
    """Each tracer value equals the snapshot value at the same node and time."""
    for p, x in enumerate(run.probes):
        j = int(round(x * run.n / run.length))
        require(run.nodes[j] == x, f"{run.dir}: probe {x} is not a node")
        for name, trk, field in (("u", run.trk_u, run.u), ("v", run.trk_v, run.v)):
            ok = trk[p, run.snap_steps] == field[:, j]
            require(np.all(ok), f"{run.dir}: tracer {name} at x={x} differs from snapshots")


def cumulative_turns(u, v, center):
    """Turns about center along a track, from numpy.unwrap, at every sample."""
    du = u - center[0]
    dv = v - center[1]
    keep = np.hypot(du, dv) >= CENTER_EPS
    ang = np.arctan2(dv, du)
    out = np.zeros(u.size)
    if np.count_nonzero(keep):
        idx = np.flatnonzero(keep)
        turns = (np.unwrap(ang[idx]) - ang[idx[0]]) / (2.0 * np.pi)
        # a skipped sample keeps the count of the last kept one
        out[idx[0]:] = turns[np.searchsorted(idx, np.arange(idx[0], u.size), side="right") - 1]
    return out


def vacuum(params):
    return math.sqrt(params["mu"] / params["beta"])


def _nearest_fixed_point(params, u0):
    if params["mu"] <= 0 or params["beta"] <= 0:
        return (0.0, 0.0)
    ustar = vacuum(params)
    return (-ustar, 0.0) if u0 < 0 else (ustar, 0.0)


def check_rotations(run):
    """rot_origin / rot_left / rot_right columns against unwrapped tracks."""
    if not run.probes:
        return
    columns = [("rot_origin", 0, (0.0, 0.0)), ("rot_left", 0, None)]
    if len(run.probes) > 1:
        columns.append(("rot_right", 1, None))
    for name, p, center in columns:
        if center is None:
            center = _nearest_fixed_point(run.params, run.trk_u[p, 0])
        turns = cumulative_turns(run.trk_u[p], run.trk_v[p], center)[run.snap_steps]
        err = float(np.max(np.abs(run.col[name] - turns)))
        require(err <= TURN_TOL, f"{run.dir}: {name} column off by {err:.3e} turns")


def expected_label(run):
    """(label, m_left, m_right, rot_left, rot_origin) by the README's rule.

    Margins come from the snapshot samples of the last seven eighths of the
    run; turns from the whole first-probe track, 0 when the center lies on
    the track.
    """
    final_t = float(run.snap_t[-1])
    if final_t < 4.0 * run.params["snapshot_every"] or not run.probes:
        return None
    kept = run.snap_t >= final_t / 8.0
    half = run.length / 2.0
    left = (run.nodes > 0) & (run.nodes < half)
    right = (run.nodes > half) & (run.nodes < run.length)
    m_left = float(np.min(run.u[kept][:, left]))
    m_right = float(np.max(run.u[kept][:, right]))

    def turns(center):
        u, v = run.trk_u[0], run.trk_v[0]
        if float(np.min(np.hypot(u - center[0], v - center[1]))) < CENTER_EPS:
            return 0.0
        return float(cumulative_turns(u, v, center)[-1])

    rot_left = turns((vacuum(run.params), 0.0))
    rot_origin = turns((0.0, 0.0))
    if m_left > 0.0 and m_right < 0.0 and abs(rot_left) >= 1.0:
        label = "breather"
    elif abs(rot_origin) >= 1.0 and (m_left <= 0.0 or m_right >= 0.0):
        label = "ordinary"
    else:
        label = "indeterminate"
    return label, m_left, m_right, rot_left, rot_origin


def check_manifest_label(run, expected):
    got = run.manifest.get("classification")
    want = expected[0] if expected else None
    require(got == want, f"{run.dir}: manifest label {got!r}, rule gives {want!r}")


def check_classify_output(stdout, expected, run_dir):
    """The label and evidence numbers that `classify` prints."""
    lines = stdout.strip().splitlines()
    require(len(lines) == 2, f"{run_dir}: classify printed {lines!r}")
    label, m_left, m_right, rot_left, rot_origin = expected
    require(lines[0].strip() == label, f"{run_dir}: classify says {lines[0]!r}, rule gives {label!r}")
    printed = dict(item.split("=", 1) for item in lines[1].split())
    require(
        float(printed["m_left"]) == m_left and float(printed["m_right"]) == m_right,
        f"{run_dir}: classify margins {printed}, recomputed {m_left!r}, {m_right!r}",
    )
    for key, want in (("rot_left", rot_left), ("rot_origin", rot_origin)):
        got = float(printed[key])
        require(abs(got - want) <= TURN_TOL, f"{run_dir}: classify {key}={got!r}, recomputed {want!r}")


def check_svgs(run_dir, names=("waveform.svg", "phase.svg")):
    for name in names:
        root = ET.parse(os.path.join(run_dir, name)).getroot()
        require(root.tag.endswith("svg") and len(root) > 0, f"{run_dir}/{name}: not an svg drawing")


def check_run(run_dir, odd=True):
    """All single-run checks; returns (Run, max |energy drift|, expected label)."""
    run = Run(run_dir)
    check_digests(run_dir, run.manifest)
    drift = check_energy(run)
    check_momentum(run)
    if odd:
        check_odd(run)
    check_tracers_match_snapshots(run)
    check_rotations(run)
    expected = expected_label(run)
    check_manifest_label(run, expected)
    return run, drift, expected


def load_sweep(path):
    with _open(path) as fh:
        lines = fh.read().strip().split("\n")
    require(tuple(lines[0].split(",")) == SWEEP_HEADER, f"{path}: header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(SWEEP_HEADER), f"{path}: row {line!r}")
        row = dict(zip(SWEEP_HEADER, cells))
        for key in SWEEP_HEADER:
            if key != "label":
                row[key] = float(row[key])
        rows.append(row)
    return rows


def check_sweep_row(row, run, expected):
    """One sweep.csv row against its member's artifacts."""
    where = f"{run.dir}: sweep.csv"
    require(row["label"] == (expected[0] if expected else "indeterminate"), f"{where} label {row['label']}")
    require(row["max_drift"] == run.manifest["max_abs_energy_drift"], f"{where} max_drift {row['max_drift']!r}")
    if expected:
        require(row["m_left"] == expected[1] and row["m_right"] == expected[2], f"{where} margins")
        require(abs(row["rot_left"] - expected[3]) <= TURN_TOL, f"{where} rot_left {row['rot_left']!r}")
        require(abs(row["rot_origin"] - expected[4]) <= TURN_TOL, f"{where} rot_origin {row['rot_origin']!r}")


def check_same_run(member, solo):
    """A sweep member against a solo run of the same parameters."""
    require(member.params == solo.params, f"{member.dir}: params differ from the solo run")
    pairs = [
        ("u", member.u, solo.u),
        ("v", member.v, solo.v),
        ("tracer u", member.trk_u, solo.trk_u),
        ("tracer v", member.trk_v, solo.trk_v),
    ] + [(name, member.col[name], solo.col[name]) for name in DIAGNOSTICS_HEADER]
    for name, a, b in pairs:
        require(a.shape == b.shape, f"{member.dir}: {name} shape {a.shape} vs {b.shape}")
        scale = max(float(np.max(np.abs(b))), 1e-300)
        err = float(np.max(np.abs(a - b)))
        require(err <= SOLO_REL_TOL * scale, f"{member.dir}: {name} differs from the solo run by {err:.3e}")
    require(
        member.manifest.get("classification") == solo.manifest.get("classification"),
        f"{member.dir}: label differs from the solo run",
    )
