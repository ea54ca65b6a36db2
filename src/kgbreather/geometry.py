"""Phase-plane geometry: loops, winding numbers, rotation counts, crossings.

At a fixed time the field traces the closed curve x -> (u(x), v(x)) over one
period, so the loop of a one-state FieldState is its own (u, v); a tracer at
a fixed x traces an open track t -> (u(t), v(t)). Both are treated as
polylines. Winding numbers and rotation counts sum principal-value angle
steps (_turns); a track sample within CENTER_EPS of the center carries none.
A tracer turns about the origin and the vacuum on its starting side
(vacuum_on_side), alike in the rot_* columns and in cumulative_rotation,
which classify_mode uses. Crossings are exact segment-pair intersections.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import clean_samples
from .dynamics import fixed_points
from .errors import CenterOnLoop, DegenerateLoop, InsufficientData, InvalidParams, LengthMismatch, NonFinite

# Absolute distance below which a point coincides with a rotation center.
CENTER_EPS = 1e-12
# Crossing tolerance as a fraction of the loop diameter.
CROSSING_REL_EPS = 1e-12


@dataclass(frozen=True)
class TracerTrack:
    """Open (u, v) polyline sampled at increasing times at one probe location; arrays as FieldState's."""

    probe_x: float
    t: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        t, u, v = clean_samples(self.t, self.u, self.v, "track")
        if u.ndim != 1 or t.shape != u.shape:
            raise LengthMismatch(f"track t, u and v must share one 1-d shape, got {t.shape}, {u.shape}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __len__(self):
        return self.u.size


def _dedup_closed(state):
    """Vertices of a one-state FieldState's loop, less consecutive and closing duplicates."""
    if state.u.ndim != 1:
        raise LengthMismatch(f"a loop is one state, got a stack of shape {state.u.shape}")
    u, v = state.u, state.v
    keep = np.ones(u.size, dtype=bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v = u[keep], v[keep]
    if u.size > 1 and u[-1] == u[0] and v[-1] == v[0]:
        u, v = u[:-1], v[:-1]
    return u, v


def _turns(u, v, center):
    """Cumulative signed turns about center at every sample of the polyline (u, v).

    Angle steps are taken as principal values in (-pi, pi]. Samples within
    CENTER_EPS of the center carry no angle: the count holds its value over
    them and the next step is measured from the last sample that had one.
    """
    if not np.isfinite(center).all():
        raise NonFinite(f"center ({center[0]}, {center[1]}) is not finite")
    du = u - center[0]
    dv = v - center[1]
    keep = np.hypot(du, dv) >= CENTER_EPS
    d = np.diff(np.arctan2(dv[keep], du[keep]))
    d = np.where(d > math.pi, d - 2.0 * math.pi, d)
    d = np.where(d <= -math.pi, d + 2.0 * math.pi, d)
    # sequential sum, so every prefix is the running total
    cum = np.concatenate([[0.0], np.cumsum(d)]) / (2.0 * math.pi)
    # position among the kept samples of the latest one at or before each sample
    last = np.cumsum(keep) - 1
    return cum[np.maximum(last, 0)]


def winding_number(state, center):
    """Signed integer turns about center of the closed loop of a one-state FieldState.

    The principal-value angle steps of a closed loop sum to a whole number of
    turns up to rounding, which round removes. Raises CenterOnLoop when a
    vertex sits within CENTER_EPS of the center, NonFinite for a non-finite
    center and DegenerateLoop below 3 distinct consecutive vertices.
    """
    cu, cv = float(center[0]), float(center[1])
    u, v = _dedup_closed(state)
    if u.size < 3:
        raise DegenerateLoop(f"loop reduces to {u.size} vertices")
    if float(np.min(np.hypot(u - cu, v - cv))) < CENTER_EPS:
        raise CenterOnLoop(f"center ({cu}, {cv}) lies on the loop")
    return round(float(_turns(np.append(u, u[0]), np.append(v, v[0]), (cu, cv))[-1]))


def cumulative_rotation(track, center):
    """Signed turns of an open track about a finite center, else NonFinite; samples within CENTER_EPS add none."""
    if len(track) < 2:
        raise InsufficientData(f"track has {len(track)} samples; need at least 2")
    return float(_turns(track.u, track.v, center)[-1])


@dataclass(frozen=True)
class CrossingSet:
    """Transverse self-intersections of a loop: edge indices, parameters, points."""

    seg_a: np.ndarray = field(repr=False)
    seg_b: np.ndarray = field(repr=False)
    ta: np.ndarray = field(repr=False)
    tb: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)

    @property
    def count(self):
        return int(self.seg_a.size)

    def __len__(self):
        return self.count


def _segment_hits(px, py, eps):
    """Index pairs (i, j), i + 2 <= j, of non-adjacent closed-polyline edges that meet.

    Returns (i, j, ta, tb) with the edge parameters of each meeting point;
    eps is an absolute tolerance, turned into a per-edge parameter tolerance.
    """
    m = px.shape[0]
    i, j = np.triu_indices(m, k=2)
    keep = ~((i == 0) & (j == m - 1))  # the closing edge is adjacent to edge 0
    i, j = i[keep], j[keep]
    inx = (i + 1) % m
    jnx = (j + 1) % m
    rx = px[inx] - px[i]
    ry = py[inx] - py[i]
    sx = px[jnx] - px[j]
    sy = py[jnx] - py[j]
    qpx = px[j] - px[i]
    qpy = py[j] - py[i]
    denom = rx * sy - ry * sx
    ok = denom != 0.0
    denom_safe = np.where(ok, denom, 1.0)
    ta = (qpx * sy - qpy * sx) / denom_safe
    tb = (qpx * ry - qpy * rx) / denom_safe
    et = eps / np.hypot(rx, ry)
    eu = eps / np.hypot(sx, sy)
    hit = ok & (ta >= -et) & (ta <= 1.0 + et) & (tb >= -eu) & (tb <= 1.0 + eu)
    return i[hit].astype(np.int64), j[hit].astype(np.int64), ta[hit], tb[hit]


def self_intersections(state):
    """All crossings between non-adjacent edges of the closed loop of a one-state FieldState.

    Touch tolerance is CROSSING_REL_EPS times the loop's max pairwise diameter,
    applied per segment in parameter space. Exactly parallel segment pairs are
    skipped. Results are ordered lexicographically by (seg_a, seg_b).
    """
    u, v = _dedup_closed(state)
    m = u.size
    # after deduplication two surviving vertices can never coincide
    if m < 2:
        raise DegenerateLoop("all loop points coincide")
    diam = float(np.max(np.hypot(u[:, None] - u[None, :], v[:, None] - v[None, :])))
    eps = CROSSING_REL_EPS * diam
    i, j, ta, tb = _segment_hits(u, v, eps)
    px = u[i] + ta * (u[(i + 1) % m] - u[i])
    py = v[i] + ta * (v[(i + 1) % m] - v[i])
    return CrossingSet(seg_a=i, seg_b=j, ta=ta, tb=tb, points=np.column_stack([px, py]))


class ModeLabel(enum.Enum):
    BREATHER = "breather"
    ORDINARY = "ordinary"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ClassifyResult:
    label: ModeLabel
    m_left: float
    m_right: float
    rot_left: float
    rot_origin: float
    final_t: float


def vacuum_on_side(params, u0):
    """The vacuum on a track's starting side: (-u*, 0) if u0 < 0, else (u*, 0); (0, 0) with no double well."""
    try:
        fps = fixed_points(params)
    except InvalidParams:
        return (0.0, 0.0)
    return fps.minus if u0 < 0 else fps.plus


def classify_mode(diagnostics, track, params):
    """Label a finished run as breather, ordinary, or indeterminate.

    diagnostics is the (S,) record of integrate or read_diagnostics. final_t is the
    last snapshot's t; the span final_t - t0 from the first snapshot's t0 must cover 4
    snapshot intervals, and the margins use the snapshots at t >= t0 + span/8 (the
    first eighth is transient): m_left is the worst (smallest) left half minimum of u,
    m_right the worst (largest) right half maximum. The turns are the
    cumulative_rotation of the whole first-probe track, where a sample within
    CENTER_EPS of the center carries no angle. They run to t_end, so they equal the
    last rot_* row only when snapshot_every divides t_end, and else run past it:
    rot_left about the vacuum on its starting side, rot_origin about the origin.
    Breather: left half stays positive, right half stays negative, and the tracer
    completes at least one turn about its vacuum. Ordinary: at least one full turn
    about the origin while confinement fails on either side.
    """
    if not len(diagnostics):
        raise InsufficientData("no diagnostics rows")
    if track is None or len(track) < 2:
        raise InsufficientData("first-probe track missing or too short")
    t0, final_t = float(diagnostics.t[0]), float(diagnostics.t[-1])
    span = final_t - t0
    if span < 4.0 * params.snapshot_every:
        raise InsufficientData(
            f"run covers t={span}; need at least 4 snapshot intervals "
            f"({4.0 * params.snapshot_every})"
        )
    kept = diagnostics[diagnostics.t >= t0 + span / 8.0]
    if not len(kept):
        raise InsufficientData("no diagnostics rows past the transient window")
    m_left, m_right = float(kept.u_min_left.min()), float(kept.u_max_right.max())
    fixed_points(params)  # the label needs the vacua: InvalidParams without a double well
    rot_left = cumulative_rotation(track, vacuum_on_side(params, track.u[0]))
    rot_origin = cumulative_rotation(track, (0.0, 0.0))
    if m_left > 0.0 and m_right < 0.0 and abs(rot_left) >= 1.0:
        label = ModeLabel.BREATHER
    elif abs(rot_origin) >= 1.0 and (m_left <= 0.0 or m_right >= 0.0):
        label = ModeLabel.ORDINARY
    else:
        label = ModeLabel.INDETERMINATE
    return ClassifyResult(
        label=label,
        m_left=m_left,
        m_right=m_right,
        rot_left=rot_left,
        rot_origin=rot_origin,
        final_t=final_t,
    )
