"""Configuration, grid construction, and the state/record types shared by all modules."""

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParams, LengthMismatch, NonFinite

LAPLACIAN_SIGNS = ("standard_wave", "as_written")

# Guard used in energy_drift = (E - E0)/max(|E0|, DRIFT_GUARD); keeps the drift
# well-defined for the zero state without distorting it for any physical one.
DRIFT_GUARD = 1e-30

_REL_TOL = 1e-12

# Largest grid whose node indices are exact as floats; the probe check does
# float arithmetic with N, which for a far larger integer would overflow.
_MAX_GRID_POINTS = 2**53


@dataclass(frozen=True)
class SimParams:
    """All scalar coefficients and discretization controls of one run."""

    alpha: float = 2.0 ** -8
    beta: float = 1.0
    mu: float = 0.00305
    amplitude: float = 0.04
    domain_length: float = 8.0
    grid_points: int = 128
    dt: float = 0.125
    t_end: float = 2048.0
    snapshot_every: float = 16.0
    laplacian_sign: str = "standard_wave"
    irk_stages: int = 2
    stage_tol: float = 1e-13
    stage_max_iter: int = 100
    probes: tuple = (2.0, 6.0)

    @property
    def sigma(self):
        """Sign of the dispersive term: +1 keeps the standard wave operator."""
        return 1.0 if self.laplacian_sign == "standard_wave" else -1.0

    @functools.cached_property
    def grid(self):
        """make_grid(grid_points, domain_length), built once per params; not a field."""
        return make_grid(self.grid_points, self.domain_length)


def _is_integer_multiple(value, unit):
    """value / unit is a positive integer to relative tolerance; unit must be positive."""
    ratio = value / unit
    return (
        math.isfinite(ratio)
        and round(ratio) >= 1
        and abs(ratio - round(ratio)) <= _REL_TOL * max(1.0, abs(ratio))
    )


def _holds_sine_periods(length):
    """L/8 is a positive integer to an absolute 1e-12, so A sin(pi x/4) is L-periodic."""
    ratio = length / 8.0
    return math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= _REL_TOL


def _probe_node(x, n, length):
    """Index j of the node x = jL/N, 0 <= j < N, to relative tolerance; None off the nodes."""
    r = x * n / length
    j = int(round(r))
    return j if abs(r - j) <= _REL_TOL * max(1.0, abs(r)) and 0 <= j < n else None


def _is_number(value, kind=numbers.Real):
    return isinstance(value, kind) and not isinstance(value, bool)


def _show(value):
    """repr of value, or a placeholder where an integer has too many digits to print."""
    try:
        return repr(value)
    except ValueError:  # int-to-str refuses past sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


def validate_params(params):
    """Return the list of invariant violations; empty means valid. Never raises."""
    v = []
    for f in fields(SimParams):
        value = getattr(params, f.name)
        if f.type is float and not _is_number(value):
            v.append(f"{f.name} must be a number, got {_show(value)}")
        elif f.type is int and not _is_number(value, numbers.Integral):
            v.append(f"{f.name} must be an integer, got {_show(value)}")
        elif f.type is float and not abs(value) <= sys.float_info.max:  # nan, inf, huge ints
            v.append(f"{f.name} must be finite, got {_show(value)}")
    if not isinstance(params.probes, tuple) or not all(map(_is_number, params.probes)):
        v.append(f"probes must be a tuple of numbers, got {_show(params.probes)}")
    if v:  # the checks below do arithmetic with these values
        return v
    if not params.alpha > 0:
        v.append(f"alpha must be > 0, got {params.alpha}")
    if not params.beta > 0:
        v.append(f"beta must be > 0, got {params.beta}")
    if not params.mu > 0:
        v.append(f"mu must be > 0, got {params.mu}")
    if not params.domain_length > 0:
        v.append(f"domain_length must be > 0, got {params.domain_length}")
    elif not _holds_sine_periods(params.domain_length):
        v.append(
            f"domain_length must be a multiple of 8 for the sine profile, got {params.domain_length}"
        )
    if not params.dt > 0:
        v.append(f"dt must be > 0, got {params.dt}")
    if params.t_end < 0:
        v.append(f"t_end must be >= 0, got {params.t_end}")
    n = params.grid_points
    if n % 2 != 0 or not 8 <= n <= _MAX_GRID_POINTS:
        v.append(f"grid_points must be even and in [8, 2**53], got {_show(n)}")
    if params.snapshot_every <= 0:
        v.append(f"snapshot_every must be positive, got {params.snapshot_every}")
    elif params.dt > 0 and not _is_integer_multiple(params.snapshot_every, params.dt):
        v.append(
            f"snapshot_every = {params.snapshot_every} is not a positive integer multiple"
            f" of dt = {params.dt}"
        )
    if params.dt > 0 and params.t_end > 0 and not _is_integer_multiple(params.t_end, params.dt):
        v.append(f"t_end = {params.t_end} is not a positive integer multiple of dt = {params.dt}")
    if params.laplacian_sign not in LAPLACIAN_SIGNS:
        v.append(
            f"laplacian_sign must be one of {LAPLACIAN_SIGNS}, got {params.laplacian_sign!r}"
        )
    if params.irk_stages not in (1, 2, 3):
        v.append(f"irk_stages must be 1, 2, or 3, got {_show(params.irk_stages)}")
    if not params.stage_tol > 0:
        v.append(f"stage_tol must be > 0, got {params.stage_tol}")
    if params.stage_max_iter < 1:
        v.append(f"stage_max_iter must be >= 1, got {_show(params.stage_max_iter)}")
    if len(set(params.probes)) != len(params.probes):
        v.append(f"probes must be distinct, got {_show(params.probes)}")
    length = params.domain_length
    for x in params.probes:
        if not (0 <= x < length):
            v.append(f"probe {_show(x)} outside [0, {length})")
            continue
        if length > 0 and 0 < n <= _MAX_GRID_POINTS and _probe_node(x, n, length) is None:
            v.append(f"probe {x} not on a grid node (N = {n}, L = {length})")
    return v


def params_to_dict(params):
    """Resolved parameter mapping, probes as a list (manifest/serialization form)."""
    out = {}
    for f in fields(SimParams):
        value = getattr(params, f.name)
        if f.name == "probes":
            value = list(value)
        out[f.name] = value
    return out


def params_from_dict(mapping):
    known = {f.name for f in fields(SimParams)}
    unknown = set(mapping) - known
    if unknown:
        raise KeyError(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = dict(mapping)
    if "probes" in kwargs:
        kwargs["probes"] = tuple(float(x) for x in kwargs["probes"])
    return SimParams(**kwargs)


@dataclass(frozen=True)
class Grid:
    """Periodic collocation grid: nodes x_j = jL/N and the half-spectrum wavenumbers 2*pi*m/L, m = 0..N/2."""

    n: int
    length: float
    nodes: np.ndarray = field(repr=False)
    wavenumbers: np.ndarray = field(repr=False)

    @property
    def dx(self):
        return self.length / self.n


def make_grid(n, length):
    if n % 2 != 0 or n < 8 or length <= 0:
        raise InvalidParams([f"need even n >= 8 and length > 0, got n={n}, length={length}"])
    nodes = np.arange(n) * (length / n)
    wavenumbers = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    nodes.setflags(write=False)
    wavenumbers.setflags(write=False)
    return Grid(n=int(n), length=float(length), nodes=nodes, wavenumbers=wavenumbers)


def clean_samples(t, u, v, what):
    """Read-only float64 copies of t, u and v, checked to be finite, with u and v of one shape."""
    t, u, v = (np.array(x, dtype=np.float64) for x in (t, u, v))
    if u.ndim == 0 or u.shape != v.shape:
        raise LengthMismatch(f"{what} u and v must share one shape, got {u.shape} and {v.shape}")
    if not all(np.isfinite(x).all() for x in (t, u, v)):
        raise NonFinite(f"non-finite {what} entries")
    for x in (t, u, v):
        x.setflags(write=False)
    return t, u, v


@dataclass(frozen=True)
class FieldState:
    """Collocated samples of u and v = du/dt on the periodic grid, by the last-axis rule.

    One state has (N,) samples at a float t; a stack of S states has (S, N)
    samples, row k at t[k] of a read-only (S,) float64 array.
    """

    t: float
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        t, u, v = clean_samples(self.t, self.u, self.v, "field")
        if t.shape != u.shape[:-1]:
            raise LengthMismatch(f"t has shape {t.shape}, the states {u.shape[:-1]}")
        object.__setattr__(self, "t", float(t) if t.ndim == 0 else t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def initial_state(params):
    """Profile A*sin(pi x/4) at rest, exactly odd on params.grid; L must keep it periodic."""
    grid = params.grid
    if not _holds_sine_periods(grid.length):
        raise InvalidParams([f"domain_length must be a multiple of 8 for the sine profile, got {grid.length}"])
    # the profile is odd about x = 0 and x = L/2; mirror the sampled half so
    # u[N - j] = -u[j] holds bit for bit and integrate keeps the run odd
    h = grid.n // 2
    u = np.zeros(grid.n)
    u[1:h] = params.amplitude * np.sin(np.pi * grid.nodes[1:h] / 4.0)
    u[h + 1:] = -u[1:h][::-1]
    v = np.zeros(grid.n)
    return FieldState(t=0.0, u=u, v=v)


@functools.cache
def _reflection(n):
    """The index (n - j) mod n of each j < n, read-only."""
    index = -np.arange(n) % n
    index.setflags(write=False)
    return index


def reflect(u):
    """Samples of u(L - x) along the last axis, so a block row by row: index j maps to (N - j) mod N."""
    return np.take(u, _reflection(np.shape(u)[-1]), axis=-1)


def is_odd(u):
    """True when u(L - x) = -u(x) holds exactly at every node (of every row of a block)."""
    return bool(np.array_equal(u, -reflect(u)))


def odd_part(u):
    """(u - Ru)/2 with R the reflection x -> L - x.

    Exact in IEEE arithmetic: the result is odd bit for bit, and an exactly odd
    u comes back unchanged.
    """
    return 0.5 * (u - reflect(u))


# The diagnostics of a run, one float64 field per name in this order: the
# fields of the read-only (S,) numpy.recarray that integrate returns and
# read_diagnostics reads, one record per snapshot (conserved quantities,
# confinement margins, rotation counts), and the columns of diagnostics.csv.
DIAGNOSTICS_COLUMNS = (
    "t", "energy", "momentum", "energy_drift",
    "u_min_left", "u_max_left", "u_min_right", "u_max_right",
    "rot_origin", "rot_left", "rot_right",
)


def half_domain_masks(grid):
    """Boolean masks for the strict interiors 0 < x < L/2 and L/2 < x < L."""
    x = grid.nodes
    half = grid.length / 2.0
    return (x > 0) & (x < half), (x > half) & (x < grid.length)


def probe_indices(params):
    n, length = params.grid.n, params.grid.length
    idx = [_probe_node(x, n, length) for x in params.probes]
    if None in idx:
        x = params.probes[idx.index(None)]
        raise InvalidParams([f"probe {x} not on a grid node (N = {n}, L = {length})"])
    return idx
