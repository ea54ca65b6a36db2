"""The three workloads: their inputs from a seed, their commands, their checks.

An operation is one CLI command, or one member of a sweep. Each workload's
check returns the round's operation counts and what the manifests report;
a failed check raises checks.CheckFailed.
"""

import os
import re

import numpy as np

import checks

# Sweep amplitude bands: one amplitude is drawn from each. The gap between
# 0.04 and 0.098 is left out because there, at t_end = 128, the tracer makes
# close to one turn about the origin (-0.99 turns at A = 0.07), so the label
# would sit on the rule's threshold.
SWEEP_BANDS = (
    (0.010, 0.011),
    (0.020, 0.021),
    (0.030, 0.031),
    (0.039, 0.040),
    (0.099, 0.100),
    (0.119, 0.120),
    (0.139, 0.140),
    (0.159, 0.160),
)
SWEEP_T_END = 128.0
RECORD_BAND = (0.119, 0.120)
RECORD_T_END = 256.0


def _draw(rng, band):
    lo, hi = band
    return round(lo + (hi - lo) * float(rng.random()), 7)


def _write_config(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v!r}\n" for k, v in entries.items())
    return path


def _outcome(attempted, failed=0, drift=0.0, steps=0, sweeps=0):
    return {"attempted": attempted, "failed": failed, "drift": drift, "steps": steps, "sweeps": sweeps}


def _ok(cmd):
    return cmd["code"] == 0 and cmd["error"] is None


class SimulateDefault:
    name = "simulate_default"
    ops_per_round = 1

    def inputs(self, seed, run_dir):
        return {}  # the paper's defaults do not depend on the seed

    def commands(self, inputs, round_dir):
        return [["simulate", "--out", os.path.join(round_dir, "run")]]

    def check(self, inputs, round_dir, result):
        (cmd,) = result["commands"]
        if not _ok(cmd):
            return _outcome(1, failed=1)
        run, drift, expected = checks.check_run(os.path.join(round_dir, "run"))
        printed = re.search(r"classification=(\S+)", cmd["stdout"])
        want = expected[0] if expected else "none"
        checks.require(printed and printed.group(1) == want, f"simulate printed {cmd['stdout']!r}")
        return _outcome(1, drift=drift, steps=run.steps, sweeps=run.manifest["total_stage_sweeps"])


class SweepAmplitudes:
    name = "sweep_amplitudes"
    ops_per_round = len(SWEEP_BANDS)

    def inputs(self, seed, run_dir):
        rng = np.random.default_rng(seed)
        amps = [_draw(rng, band) for band in SWEEP_BANDS]
        solo = int(rng.integers(len(amps)))
        return {
            "amplitudes": amps,
            "solo": solo,
            "config": _write_config(os.path.join(run_dir, "sweep.cfg"), {"t_end": SWEEP_T_END}),
            "solo_config": _write_config(
                os.path.join(run_dir, "solo.cfg"), {"amplitude": amps[solo], "t_end": SWEEP_T_END}
            ),
        }

    def commands(self, inputs, round_dir):
        amps = ",".join(repr(a) for a in inputs["amplitudes"])
        out = os.path.join(round_dir, "sweep")
        return [["sweep", "--config", inputs["config"], "--amplitudes", amps, "--out", out]]

    @staticmethod
    def member_dir(round_dir, amp):
        return os.path.join(round_dir, "sweep", f"A_{amp!r}")

    def check(self, inputs, round_dir, result):
        (cmd,) = result["commands"]
        amps = inputs["amplitudes"]
        if cmd["error"] is not None or cmd["code"] not in (0, 2):
            return _outcome(len(amps), failed=len(amps))
        rows = checks.load_sweep(os.path.join(round_dir, "sweep", "sweep.csv"))
        checks.require([r["A"] for r in rows] == amps, f"sweep.csv amplitudes {[r['A'] for r in rows]}")
        out = _outcome(len(amps))
        for amp, row in zip(amps, rows):
            if checks.read_manifest(self.member_dir(round_dir, amp)).get("status") != "ok":
                out["failed"] += 1
                continue
            run, drift, expected = checks.check_run(self.member_dir(round_dir, amp))
            checks.check_sweep_row(row, run, expected)
            out["drift"] = max(out["drift"], drift)
            out["steps"] += run.steps
            out["sweeps"] += run.manifest["total_stage_sweeps"]
        return out

    def finish(self, inputs, run_dir, last_round_dir, run_child):
        """A solo simulate of one member's parameters must match that member."""
        amp = inputs["amplitudes"][inputs["solo"]]
        solo_dir = os.path.join(run_dir, "solo")
        argv = ["simulate", "--config", inputs["solo_config"], "--out", os.path.join(solo_dir, "run")]
        res = run_child(solo_dir, [argv])
        if not _ok(res["commands"][0]):
            return _outcome(1, failed=1)
        solo, drift, _ = checks.check_run(os.path.join(solo_dir, "run"))
        member = checks.Run(self.member_dir(last_round_dir, amp))
        checks.check_same_run(member, solo)
        return _outcome(1, drift=drift)


class RecordAndAnalyze:
    name = "record_and_analyze"
    ops_per_round = 3

    def inputs(self, seed, run_dir):
        amp = _draw(np.random.default_rng(seed), RECORD_BAND)
        cfg = {"amplitude": amp, "t_end": RECORD_T_END, "snapshot_every": 0.125}
        return {"amplitude": amp, "config": _write_config(os.path.join(run_dir, "record.cfg"), cfg)}

    def commands(self, inputs, round_dir):
        out = os.path.join(round_dir, "run")
        return [
            ["simulate", "--config", inputs["config"], "--out", out],
            ["classify", "--out", out],
            ["plot", "--out", out],
        ]

    def check(self, inputs, round_dir, result):
        simulate, classify, plot = result["commands"]
        out = _outcome(3, failed=sum(not _ok(c) for c in result["commands"]))
        if not _ok(simulate):
            return out
        run_dir = os.path.join(round_dir, "run")
        run, drift, expected = checks.check_run(run_dir)
        out.update(drift=drift, steps=run.steps, sweeps=run.manifest["total_stage_sweeps"])
        if _ok(classify):
            checks.check_classify_output(classify["stdout"], expected, run_dir)
        if _ok(plot):
            checks.check_svgs(run_dir)
        return out


WORKLOADS = {w.name: w for w in (SimulateDefault(), SweepAmplitudes(), RecordAndAnalyze())}
