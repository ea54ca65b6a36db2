"""kgbreather benchmark: time, memory and accuracy on three workloads.

One run of one workload:

    python3 perfbench/run.py --workload simulate_default --seed 1 --seconds 38 --trace 0

Every workload, ten seeds each plus one traced run, with a results history:

    python3 perfbench/run.py --all --history perfbench/BENCH_baseline.json

Run from the root of a source checkout: the program is imported from
./src. Each round of a workload runs in a fresh child interpreter with
numpy's BLAS/OpenMP threads pinned to 1; rounds repeat, one at a time, until
the next one would end past --seconds. A fixed numpy loop (reference.py) runs
in its own interpreter before and after every round, and setup_s and wall_s
are scaled by its time to a fixed host speed. The run then prints every metric by
name with its unit and, as its last line, one JSON object. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead instead of the end-to-end metrics. See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 2  # import-only children before every round, for the setup_s median
# setup_s and wall_s are scaled to a host on which reference.py's loop takes
# this long; the host's speed drifts by up to 1.7x over minutes (README.md)
REFERENCE_SECONDS = 0.5
REPEATS = 10  # seeds per workload in --all; a history compares only at equal counts
CHILD_TIMEOUT = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "max_energy_drift": "ratio",
}
PER_LAYER = {
    "stepping.ms_per_step": "ms",
    "stepping.sweeps_per_step": "count",
    "stepping.solve_s": "s",
    "accel.stage_matvec_s": "s",
    "spectral.cube_calls_per_step": "count",
    "spectral.cube_s": "s",
    "spectral.synthesis_s": "s",
    "spectral.analysis_s": "s",
    "spectral.fft_calls_per_step": "count",
    "core.odd_part_s": "s",
    "stepping.integrate_self_s": "s",
    "cli.member_overhead_s": "s",
    "dynamics.diagnostics_s": "s",
    "runio.write_s": "s",
    "runio.bytes_written": "bytes",
    "runio.digest_s": "s",
    "runio.read_s": "s",
    "geometry.classify_s": "s",
    "geometry.rotation_s": "s",
    "svgplot.render_s": "s",
    "trace.overhead_share": "ratio",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work_dir, commands, trace=False):
    """One fresh interpreter; returns its result with setup_s added."""
    os.makedirs(work_dir, exist_ok=True)
    plan = os.path.join(work_dir, "plan.json")
    result = os.path.join(work_dir, "result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "trace": trace}, fh)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), plan, result],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["setup_s"] = data["ready"] - start
    data["wall_s"] = sum(c["seconds"] for c in data["commands"])
    return data


def reference_s():
    """Seconds of reference.py's loop, in its own interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "reference.py")],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"reference loop exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout)


def summarize(values):
    """median, first and third quartile and count of a list of numbers."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(trace, stats):
    """Per-layer numbers of one traced round."""
    totals = trace["totals"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def secs(*names):
        return sum(totals.get(n, [0, 0.0, 0.0])[1] for n in names)

    steps = max(stats["steps"], 1)
    members = max(calls("stepping.integrate"), 1)
    return {
        "stepping.ms_per_step": 1e3 * secs("stepping.integrate") / steps,
        "stepping.sweeps_per_step": stats["sweeps"] / steps,
        "stepping.solve_s": secs("stepping.solve"),
        "accel.stage_matvec_s": secs("accel.stage_matvec"),
        "spectral.cube_calls_per_step": calls("spectral.cube_hat") / steps,
        "spectral.cube_s": secs("spectral.cube_hat"),
        "spectral.synthesis_s": secs("spectral.dft_inverse"),
        "spectral.analysis_s": secs("spectral.dft_forward"),
        "spectral.fft_calls_per_step": trace["fft_calls_in_integrate"] / steps,
        "core.odd_part_s": secs("core.odd_part"),
        "stepping.integrate_self_s": totals.get("stepping.integrate", [0, 0.0, 0.0])[2],
        "cli.member_overhead_s": (secs("cli.simulate", "cli.sweep") - secs("stepping.integrate")) / members,
        "dynamics.diagnostics_s": secs("dynamics.energy", "dynamics.momentum"),
        "runio.write_s": secs(
            "runio.write_snapshots",
            "runio.write_diagnostics",
            "runio.write_tracers",
            "runio.write_manifest",
            "runio.write_sweep",
        ),
        "runio.bytes_written": float(trace["bytes_written"]),
        "runio.digest_s": secs("runio.inventory_digests"),
        "runio.read_s": secs(
            "runio.read_snapshots", "runio.read_diagnostics", "runio.read_tracers", "runio.read_manifest"
        ),
        "geometry.classify_s": secs("geometry.classify_mode"),
        "geometry.rotation_s": secs("geometry.cumulative_rotation"),
        "svgplot.render_s": secs("svgplot.waveform_svg", "svgplot.phase_svg"),
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
        "reference_seconds": REFERENCE_SECONDS,
    }


def run_workload(name, seed, seconds, trace):
    """One run: set-up probes, timed rounds, checks. Returns the run record."""
    wl = WORKLOADS[name]
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = wl.inputs(seed, run_dir)
    problems = []
    attempted = failed = 0
    drift = 0.0

    def tally(outcome):
        nonlocal attempted, failed, drift
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        drift = max(drift, outcome["drift"])

    # untimed first import: fills the bytecode cache, which users keep too
    run_child(os.path.join(run_dir, "warmup"), [])
    refs = [reference_s()]
    rounds = []
    prev_dir = None
    start = time.monotonic()
    while True:
        probes = [run_child(os.path.join(run_dir, "setup"), [])["setup_s"] for _ in range(SETUP_PROBES)]
        traced = trace and len(rounds) % 2 == 1
        round_dir = os.path.join(run_dir, f"round{len(rounds)}")
        res = run_child(round_dir, wl.commands(inputs, round_dir), traced)
        refs.append(reference_s())
        # the probes and the round sit between these two reference loops
        scale = REFERENCE_SECONDS / statistics.mean(refs[-2:])
        try:
            outcome = wl.check(inputs, round_dir, res)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
            outcome = {"attempted": wl.ops_per_round, "failed": 0, "drift": 0.0, "steps": 0, "sweeps": 0}
        tally(outcome)
        for cmd in res["commands"]:
            if cmd["error"]:
                print(f"{name}: {cmd['argv'][0]} raised:\n{cmd['error']}", file=sys.stderr)
        setups = probes + [res["setup_s"]]
        rounds.append(
            {
                "traced": traced,
                "reference_s": refs[-2:],
                "scale": scale,
                "setup_raw_s": setups,
                "wall_raw_s": res["wall_s"],
                "setup_s": [x * scale for x in setups],
                "wall_s": res["wall_s"] * scale,
                "cpu_s": sum(c["cpu_seconds"] for c in res["commands"]),
                "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
                "codes": [c["code"] for c in res["commands"]],
                "layers": layer_metrics(res["trace"], outcome) if traced else None,
                "spans": res["trace"]["totals"] if traced else None,
            }
        )
        if prev_dir:
            shutil.rmtree(prev_dir)
        prev_dir = round_dir
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and (not trace or len(rounds) >= 2):
            break
    if hasattr(wl, "finish"):
        try:
            tally(wl.finish(inputs, run_dir, prev_dir, run_child))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
            tally({"attempted": 1, "failed": 0, "drift": 0.0})
    shutil.rmtree(prev_dir)

    plain = [r for r in rounds if not r["traced"]]
    samples = {
        "setup_s": [x for r in rounds for x in r["setup_s"]],
        "wall_s": [r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "max_energy_drift": [drift],
    }
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        samples = {key: [r["layers"][key] for r in traced_rounds] for key in traced_rounds[0]["layers"]}
        # each traced round against the untraced round just before it
        samples["trace.overhead_share"] = [
            b["wall_s"] / a["wall_s"] - 1.0 for a, b in zip(rounds[0::2], rounds[1::2])
        ]
    units = PER_LAYER if trace else END_TO_END
    summary = {key: dict(summarize(samples[key]), unit=units[key]) for key in units}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "metrics": summary,
        "environment": environment(),
    }
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record):
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"{head} rounds={len(record['rounds'])} attempted={record['attempted']} failed={record['failed']}")
    for key, m in record["metrics"].items():
        print(f"  {key} {m['median']:.6g} {m['unit']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(record):
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["median"], "unit": m["unit"]} for k, m in record["metrics"].items()},
        }
    )


def run_all(seconds, history):
    """Every workload at seeds 1..REPEATS, then one traced run at seed 1."""
    out = {"environment": environment(), "repeats": REPEATS, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in range(1, REPEATS + 1):
            record = run_workload(name, seed, seconds, False)
            print_record(record)
            runs.append(record)
        traced = run_workload(name, 1, seconds, True)
        print_record(traced)
        metrics = {}
        for key, unit in END_TO_END.items():
            s = summarize([r["metrics"][key]["median"] for r in runs])
            s["unit"] = unit
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            metrics[key] = s
        entry = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "per_layer": {"seed": 1, "attempted": traced["attempted"], "failed": traced["failed"],
                          "metrics": traced["metrics"]},
        }
        out["workloads"][name] = entry
        ok = ok and entry["correct"]
        print(f"{name}: {REPEATS} runs, attempted={entry['attempted']} failed={entry['failed']}")
        for key, s in metrics.items():
            print(
                f"  {key} median {s['median']:.6g} {s['unit']}"
                f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}, spread {s['spread']:.3f})"
            )
    with open(history, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {history}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help=f"every workload, {REPEATS} seeds each")
    parser.add_argument("--history", default=os.path.join(OUT, "BENCH_latest.json"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kgbreather", "cli.py")):
        print(f"error: no kgbreather sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seconds, args.history)
    if args.workload is None:
        parser.error("give --workload or --all")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
