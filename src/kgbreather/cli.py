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
from .core import (
    FieldState,
    SimParams,
    initial_state,
    params_from_dict,
    params_to_dict,
    validate_params,
)
from .dynamics import fixed_points
from .errors import InsufficientData, InvalidParams, KgError
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
    params_digest,
    read_diagnostics,
    read_manifest,
    read_snapshots,
    read_tracers,
    snapshot_index,
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


def write_run(params, out_dir, outcome, wall):
    """Write one run's artifacts into out_dir and return (manifest, classify result).

    outcome is what integrate gives for the run: its results, or the
    exception it failed with, which gets a failure manifest and no result.
    """
    os.makedirs(out_dir, exist_ok=True)
    from . import __version__

    manifest = {
        "tool": "kgbreather",
        "tool_version": __version__,
        "params": params_to_dict(params),
        "params_sha256": params_digest(params_to_dict(params)),
        "wall_clock_seconds": wall,
    }
    if isinstance(outcome, Exception):
        manifest.update(
            {
                "status": "failed",
                "failure": {
                    "t": getattr(outcome, "t", None),
                    "error": type(outcome).__name__,
                    "message": str(outcome),
                },
                "files": {},
            }
        )
        write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
        return manifest, None
    summary, snapshots, diagnostics, tracks = outcome
    write_snapshots(os.path.join(out_dir, SNAPSHOTS_FILE), snapshots, params.grid)
    write_diagnostics(os.path.join(out_dir, DIAGNOSTICS_FILE), diagnostics)
    write_tracers(os.path.join(out_dir, TRACERS_FILE), tracks)
    try:
        result = classify_mode(diagnostics, tracks[0] if tracks else None, params)
    except InsufficientData:
        result = None
    manifest.update(
        {
            "status": "ok",
            "steps": summary.steps,
            "max_abs_energy_drift": summary.max_abs_drift,
            "max_stage_residual": summary.max_residual,
            "total_stage_sweeps": summary.total_sweeps,
            "stage_sweep_counts": list(summary.sweep_counts),
            "classification": result.label.value if result else None,
            "files": inventory_digests(out_dir, [SNAPSHOTS_FILE, DIAGNOSTICS_FILE, TRACERS_FILE]),
        }
    )
    write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
    return manifest, result


def run_members(members, out_dirs):
    """Integrate the members as one stack and write each into its out_dir.

    The members may differ only in amplitude, their start; any other field
    that differs raises InvalidParams before a member runs. Returns one
    (outcome, manifest, classify result) per member, where outcome is what
    integrate gave it; every member reports the wall time of the shared run.
    """
    first = members[0]
    differ = [
        f.name
        for f in dataclasses.fields(SimParams)
        if f.name != "amplitude" and any(getattr(p, f.name) != getattr(first, f.name) for p in members[1:])
    ]
    if differ:
        raise InvalidParams([f"members may differ only in amplitude, not in {name}" for name in differ])
    start = time.monotonic()
    starts = [initial_state(params) for params in members]
    stack = FieldState(t=[s.t for s in starts], u=[s.u for s in starts], v=[s.v for s in starts])
    outcomes = integrate(first, stack)
    wall = time.monotonic() - start
    return [
        (outcome, *write_run(params, out_dir, outcome, wall))
        for params, out_dir, outcome in zip(members, out_dirs, outcomes)
    ]


def cmd_simulate(args):
    [(outcome, manifest, result)] = run_members([_load_params(args)], [args.out])
    if isinstance(outcome, Exception):  # its failure manifest is written
        raise outcome
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
    runs = run_members(members, [os.path.join(args.out, f"A_{fmt(p.amplitude)}") for p in members])
    nan = float("nan")
    # a failed member, or one too short to classify, keeps NaN evidence
    entries = [
        {
            "A": params.amplitude,
            "label": result.label.value if result else "indeterminate",
            **{k: getattr(result, k, nan) for k in ("m_left", "m_right", "rot_left", "rot_origin")},
            "max_drift": manifest.get("max_abs_energy_drift", nan),
        }
        for params, (_, manifest, result) in zip(members, runs)
    ]
    for entry, (outcome, _, _) in zip(entries, runs):
        if isinstance(outcome, Exception):
            print(f"A={fmt(entry['A'])}: failed ({outcome})", file=sys.stderr)
        else:
            print(f"A={fmt(entry['A'])}: {entry['label']}")
    write_sweep(os.path.join(args.out, SWEEP_FILE), entries)
    print(f"wrote {os.path.join(args.out, SWEEP_FILE)} ({len(entries)} rows)")
    if all(isinstance(outcome, Exception) for outcome, _, _ in runs):
        print("error: every amplitude failed", file=sys.stderr)
        return 2
    return 0


def _read_verified_manifest(run_dir, names):
    """The run's SimParams, once its manifest lists each of names, every
    file it lists still has its recorded digest, and its params hash to its
    recorded params_sha256."""
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
    if manifest.get("params_sha256") != params_digest(manifest["params"]):
        raise InsufficientData(f"{path} records no params_sha256 matching its params")
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
    source = os.path.join(args.out, SNAPSHOTS_FILE)
    index = snapshot_index(source)
    times = index.t.tolist()
    sel = len(times) - 1
    if args.time is not None:
        matches = [k for k, t in enumerate(times) if abs(t - args.time) <= 1e-9]
        if not matches:
            have = ", ".join(fmt(t) for t in times[:8])
            raise InsufficientData(f"no snapshot at t={args.time}; run starts {have} ...")
        sel = matches[0]
    # the selected state and the one before it, which the waveform draws dotted
    nodes, states = read_snapshots(source, max(sel - 1, 0), sel + 1, index)
    state = FieldState(t=times[sel], u=states.u[-1], v=states.v[-1])
    written = []
    if args.kind in ("waveform", "both"):
        wave = waveform_svg(
            nodes,
            params.domain_length,
            state.u,
            state.t,
            u_prev=states.u[0] if sel > 0 else None,
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
