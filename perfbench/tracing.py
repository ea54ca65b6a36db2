"""In-memory spans around calls into kgbreather's public functions.

The program is not changed: install() replaces each traced function, in every
kgbreather module namespace that holds it, by a wrapper that records a span.
Spans aggregate per name into calls, total time and self time (total minus
the time of traced children). The numpy.fft calls made while
stepping.integrate runs are counted, and the bytes of CSV and SVG text
written.
"""

import functools
import os
import sys
import time

import numpy as np

# span name -> (module, attribute path)
TARGETS = {
    "stepping.integrate": ("kgbreather.stepping", "integrate"),
    "stepping.solve": ("kgbreather.stepping", "StageSolver.solve"),
    "accel.stage_matvec": ("kgbreather.accel", "stage_matvec"),
    "spectral.cube_hat": ("kgbreather.spectral", "cube_hat"),
    "spectral.dft_forward": ("kgbreather.spectral", "dft_forward"),
    "spectral.dft_inverse": ("kgbreather.spectral", "dft_inverse"),
    "core.odd_part": ("kgbreather.core", "odd_part"),
    "dynamics.energy": ("kgbreather.dynamics", "energy"),
    "dynamics.momentum": ("kgbreather.dynamics", "momentum"),
    "runio.write_snapshots": ("kgbreather.runio", "write_snapshots"),
    "runio.write_diagnostics": ("kgbreather.runio", "write_diagnostics"),
    "runio.write_tracers": ("kgbreather.runio", "write_tracers"),
    "runio.write_manifest": ("kgbreather.runio", "write_manifest"),
    "runio.write_sweep": ("kgbreather.runio", "write_sweep"),
    "runio.inventory_digests": ("kgbreather.runio", "inventory_digests"),
    "runio.read_snapshots": ("kgbreather.runio", "read_snapshots"),
    "runio.read_diagnostics": ("kgbreather.runio", "read_diagnostics"),
    "runio.read_tracers": ("kgbreather.runio", "read_tracers"),
    "runio.read_manifest": ("kgbreather.runio", "read_manifest"),
    "geometry.classify_mode": ("kgbreather.geometry", "classify_mode"),
    "geometry.cumulative_rotation": ("kgbreather.geometry", "cumulative_rotation"),
    "svgplot.waveform_svg": ("kgbreather.svgplot", "waveform_svg"),
    "svgplot.phase_svg": ("kgbreather.svgplot", "phase_svg"),
}
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.totals = {}  # name -> [calls, total seconds, self seconds]
        self.fft_calls_in_integrate = 0
        self.in_integrate = 0
        self.bytes_written = 0

    def span(self, name, fn, *args, **kwargs):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[1]
            self.stack.pop()
            agg = self.totals.get(name)
            if agg is None:
                agg = self.totals[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[2]
            if self.stack:
                self.stack[-1][2] += dur

    def wrap(self, name, fn):
        if name == "stepping.integrate":

            def traced(*args, **kwargs):
                self.in_integrate += 1
                try:
                    return self.span(name, fn, *args, **kwargs)
                finally:
                    self.in_integrate -= 1

        else:

            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return functools.wraps(fn)(traced)

    def count_fft(self, fn):
        def counted(*args, **kwargs):
            if self.in_integrate:
                self.fft_calls_in_integrate += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def count_bytes(self, fn):
        def counted(path, text):
            # the manifest holds a wall-clock time, so its length varies
            if os.path.basename(path) != "manifest.json":
                self.bytes_written += len(text.encode("utf-8"))
            return fn(path, text)

        return functools.wraps(fn)(counted)

    def summary(self):
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "fft_calls_in_integrate": self.fft_calls_in_integrate,
            "bytes_written": self.bytes_written,
        }


def _rebind(orig, replacement):
    """Point every kgbreather module global bound to orig at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname == "kgbreather" or modname.startswith("kgbreather."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)


def install(tracer):
    """Wrap every TARGETS function and numpy.fft; kgbreather must be imported."""
    import kgbreather.cli  # noqa: F401  (loads every module that holds a target)

    for name, (modname, path) in TARGETS.items():
        owner = sys.modules[modname]
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        wrapped = tracer.wrap(name, orig)
        setattr(owner, leaf, wrapped)
        _rebind(orig, wrapped)
    write = sys.modules["kgbreather.runio"].atomic_write_text
    _rebind(write, tracer.count_bytes(write))
    for fname in FFT_FUNCTIONS:
        setattr(np.fft, fname, tracer.count_fft(getattr(np.fft, fname)))
