"""Command line front end: simulate | sweep | classify | plot.

Exit codes: 0 success, 1 usage problem, 2 model or data failure (bad config
values, a diverged solve, unusable run output), 3 operating system I/O error.
"""

import argparse
import dataclasses
import os
import sys
import time

from .configfile import parse_config
from .core import FieldState, SimParams, make_grid, params_from_dict, params_to_dict, validate_params
from .dynamics import fixed_points
from .errors import (
    InsufficientData,
    InvalidParams,
    KgError,
    MissingSnapshot,
    NonFinite,
    StageSolveDiverged,
)
from .geometry import classify_mode
from .runio import (
    DIAGNOSTICS_FILE,
    MANIFEST_FILE,
    SNAPSHOTS_FILE,
    SWEEP_FILE,
    TRACERS_FILE,
    atomic_write_text,
    fmt,
    inventory_digests,
    read_diagnostics,
    read_manifest,
    read_snapshots,
    read_tracers,
    verify_digests,
    write_diagnostics,
    write_manifest,
    write_snapshots,
    write_sweep,
    write_tracers,
)
from .stepping import integrate
from .svgplot import phase_svg, waveform_svg

WAVEFORM_SVG = "waveform.svg"
PHASE_SVG = "phase.svg"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value run configuration file")
    common.add_argument(
        "--out", metavar="DIR", default="out", help="run directory (written or read; default: out)"
    )
    parser = _Parser(prog="kgbreather", description="periodic nonlinear field runs and phase-plane analysis")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("simulate", parents=[common], help="run once and write csv + manifest artifacts")
    p_sweep = sub.add_parser("sweep", parents=[common], help="run a list of amplitudes into subdirectories")
    p_sweep.add_argument(
        "--amplitudes", required=True, metavar="LIST", help="comma separated amplitude values"
    )
    sub.add_parser("classify", parents=[common], help="recompute the mode label of a finished run")
    p_plot = sub.add_parser("plot", parents=[common], help="write waveform and phase-plane svg views")
    p_plot.add_argument("--time", type=float, default=None, help="snapshot time (default: last)")
    p_plot.add_argument(
        "--kind",
        choices=("waveform", "phase", "both"),
        default="both",
        help="which view to write (default: both)",
    )
    return parser


def _load_params(args):
    return parse_config(args.config) if args.config else SimParams()


def _grid_entry(grid):
    return {"n": grid.n, "length": grid.length, "dx": grid.dx}


def run_and_write(params, out_dir):
    """Integrate, write all artifacts into out_dir, return (manifest, classify result)."""
    os.makedirs(out_dir, exist_ok=True)
    grid = make_grid(params.grid_points, params.domain_length)
    from . import __version__

    manifest = {
        "tool": "kgbreather",
        "tool_version": __version__,
        "params": params_to_dict(params),
        "grid": _grid_entry(grid),
    }
    start = time.monotonic()
    try:
        summary, snapshots, diagnostics, tracks = integrate(params, grid)
    except (StageSolveDiverged, NonFinite) as exc:
        manifest.update(
            {
                "wall_clock_seconds": time.monotonic() - start,
                "status": "failed",
                "failure": {
                    "t": getattr(exc, "t", None),
                    "error": type(exc).__name__,
                    "message": str(exc),
                },
                "files": {},
            }
        )
        write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
        raise
    wall = time.monotonic() - start
    write_snapshots(os.path.join(out_dir, SNAPSHOTS_FILE), snapshots, grid)
    write_diagnostics(os.path.join(out_dir, DIAGNOSTICS_FILE), diagnostics)
    write_tracers(os.path.join(out_dir, TRACERS_FILE), tracks)
    try:
        result = classify_mode(diagnostics, tracks[0] if tracks else None, params)
    except InsufficientData:
        result = None
    manifest.update(
        {
            "wall_clock_seconds": wall,
            "status": "ok",
            "steps": summary.steps,
            "max_abs_energy_drift": summary.max_abs_drift,
            "max_stage_residual": summary.max_residual,
            "total_stage_sweeps": summary.total_sweeps,
            "classification": result.label.value if result else None,
            "files": inventory_digests(out_dir, [SNAPSHOTS_FILE, DIAGNOSTICS_FILE, TRACERS_FILE]),
        }
    )
    write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
    return manifest, result


def cmd_simulate(args):
    params = _load_params(args)
    manifest, result = run_and_write(params, args.out)
    label = result.label.value if result else "none"
    print(f"wrote {args.out}: classification={label} max_drift={manifest['max_abs_energy_drift']:.3e}")
    return 0


def _parse_amplitudes(raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise _UsageError("amplitude list is empty")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"bad amplitude value: {exc}") from None
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _UsageError("amplitudes must be strictly increasing")
    return values


def cmd_sweep(args):
    base = _load_params(args)
    members = [dataclasses.replace(base, amplitude=a) for a in _parse_amplitudes(args.amplitudes)]
    # every member is checked before the first one runs or writes anything
    violations = [v for params in members for v in validate_params(params)]
    if violations:
        raise InvalidParams(violations)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    succeeded = 0
    for params in members:
        amp = params.amplitude
        sub_dir = os.path.join(args.out, f"A_{fmt(amp)}")
        entry = {
            "A": amp,
            "label": "indeterminate",
            "m_left": float("nan"),
            "m_right": float("nan"),
            "rot_left": float("nan"),
            "rot_origin": float("nan"),
            "max_drift": float("nan"),
        }
        try:
            manifest, result = run_and_write(params, sub_dir)
        except (StageSolveDiverged, NonFinite) as exc:
            # failed run keeps its default row; the subdirectory manifest
            # carries the failure detail
            print(f"A={fmt(amp)}: failed ({exc})", file=sys.stderr)
        else:
            succeeded += 1
            entry["max_drift"] = manifest["max_abs_energy_drift"]
            if result is not None:
                entry["label"] = result.label.value
                entry["m_left"] = result.m_left
                entry["m_right"] = result.m_right
                entry["rot_left"] = result.rot_left
                entry["rot_origin"] = result.rot_origin
            print(f"A={fmt(amp)}: {entry['label']}")
        entries.append(entry)
    write_sweep(os.path.join(args.out, SWEEP_FILE), entries)
    print(f"wrote {os.path.join(args.out, SWEEP_FILE)} ({len(entries)} rows)")
    if succeeded == 0:
        print("error: every amplitude failed", file=sys.stderr)
        return 2
    return 0


def _read_verified_manifest(run_dir, names):
    """The run's SimParams, once its manifest lists each of names and every
    file it lists still has its recorded digest."""
    path = os.path.join(run_dir, MANIFEST_FILE)
    try:
        manifest = read_manifest(path)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InsufficientData(f"{path} is not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict) or "params" not in manifest:
        raise InsufficientData(f"{path} is not a run manifest: it has no params")
    files = manifest.get("files")
    unlisted = [name for name in names if not isinstance(files, dict) or name not in files]
    if unlisted:
        raise InsufficientData(f"{path} records no digest for {', '.join(unlisted)}")
    problems = verify_digests(manifest, run_dir)
    if problems:
        raise InsufficientData(f"{run_dir} does not match its manifest: " + "; ".join(problems))
    try:
        params = params_from_dict(manifest["params"])
        problems = validate_params(params)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [str(exc)]
    if problems:
        raise InsufficientData(f"{path} has unusable params: " + "; ".join(problems))
    return params


def cmd_classify(args):
    params = _read_verified_manifest(args.out, [DIAGNOSTICS_FILE, TRACERS_FILE])
    diagnostics = read_diagnostics(os.path.join(args.out, DIAGNOSTICS_FILE))
    tracks = read_tracers(os.path.join(args.out, TRACERS_FILE))
    result = classify_mode(diagnostics, tracks[0] if tracks else None, params)
    print(result.label.value)
    print(
        f"  m_left={fmt(result.m_left)} m_right={fmt(result.m_right)}"
        f" rot_left={fmt(result.rot_left)} rot_origin={fmt(result.rot_origin)}"
        f" final_t={fmt(result.final_t)}"
    )
    return 0


def cmd_plot(args):
    draw_phase = args.kind in ("phase", "both")
    names = [SNAPSHOTS_FILE, TRACERS_FILE] if draw_phase else [SNAPSHOTS_FILE]
    params = _read_verified_manifest(args.out, names)
    nodes, states = read_snapshots(os.path.join(args.out, SNAPSHOTS_FILE))
    times = states.t.tolist()
    sel = len(times) - 1
    if args.time is not None:
        matches = [k for k, t in enumerate(times) if abs(t - args.time) <= 1e-9]
        if not matches:
            have = ", ".join(fmt(t) for t in times[:8])
            raise MissingSnapshot(f"no snapshot at t={args.time}; run starts {have} ...")
        sel = matches[0]
    state = FieldState(t=times[sel], u=states.u[sel], v=states.v[sel])
    written = []
    if args.kind in ("waveform", "both"):
        wave = waveform_svg(
            nodes,
            params.domain_length,
            state.u,
            state.t,
            u_prev=states.u[sel - 1] if sel > 0 else None,
            t_prev=times[sel - 1] if sel > 0 else None,
        )
        path = os.path.join(args.out, WAVEFORM_SVG)
        atomic_write_text(path, wave)
        written.append(path)
    if draw_phase:
        trail_u = trail_v = None
        tracks = read_tracers(os.path.join(args.out, TRACERS_FILE))
        if tracks:
            keep = tracks[0].t <= state.t + 1e-9
            trail_u = tracks[0].u[keep]
            trail_v = tracks[0].v[keep]
        phase = phase_svg(state, fixed_points(params).as_list(), trail_u=trail_u, trail_v=trail_v)
        path = os.path.join(args.out, PHASE_SVG)
        atomic_write_text(path, phase)
        written.append(path)
    print(f"wrote {' and '.join(written)}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
    "plot": cmd_plot,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
