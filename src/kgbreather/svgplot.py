"""Hand-built SVG output for the two standard views of a run.

No plotting library: the same inputs always produce byte-identical markup,
which keeps the images digest-stable in the manifest. Coordinates are written
with two decimals; data values appearing in labels use %g.
"""

import numpy as np

_FONT = "font-family=\"Helvetica, Arial, sans-serif\" font-size=\"12\""


def _num(x):
    return f"{x:.2f}"


def _poly(xs, ys, extra):
    pts = " ".join(f"{_num(a)},{_num(b)}" for a, b in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" {extra}/>'


class _Frame:
    """Maps data coordinates into a margined pixel box (y grows upward)."""

    def __init__(self, width, height, x_lo, x_hi, y_lo, y_hi):
        self.width = width
        self.height = height
        self.ml, self.mr, self.mt, self.mb = 56.0, 16.0, 36.0, 44.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x):
        f = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.ml + f * (self.width - self.ml - self.mr)

    def py(self, y):
        f = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.height - self.mb - f * (self.height - self.mt - self.mb)

    def open_tag(self, title):
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}" viewBox="0 0 {self.width:.0f} {self.height:.0f}">\n'
            f'<rect width="{self.width:.0f}" height="{self.height:.0f}" fill="white"/>\n'
            f'<text x="{_num(self.width / 2)}" y="22" text-anchor="middle" {_FONT}>{title}</text>\n'
        )

    def box(self):
        x0, y0 = self.ml, self.mt
        w = self.width - self.ml - self.mr
        h = self.height - self.mt - self.mb
        return (
            f'<rect x="{_num(x0)}" y="{_num(y0)}" width="{_num(w)}" height="{_num(h)}" '
            f'fill="none" stroke="#444444" stroke-width="1"/>\n'
        )

    def axis_labels(self, x_name, y_name):
        parts = [
            f'<text x="{_num(self.px((self.x_lo + self.x_hi) / 2))}" '
            f'y="{_num(self.height - 10)}" text-anchor="middle" {_FONT}>{x_name}</text>\n',
            f'<text x="16" y="{_num(self.py((self.y_lo + self.y_hi) / 2))}" '
            f'text-anchor="middle" {_FONT}>{y_name}</text>\n',
        ]
        for val in (self.x_lo, self.x_hi):
            parts.append(
                f'<text x="{_num(self.px(val))}" y="{_num(self.height - self.mb + 16)}" '
                f'text-anchor="middle" {_FONT}>{val:g}</text>\n'
            )
        for val in (self.y_lo, self.y_hi):
            parts.append(
                f'<text x="{_num(self.ml - 6)}" y="{_num(self.py(val) + 4)}" '
                f'text-anchor="end" {_FONT}>{val:g}</text>\n'
            )
        return "".join(parts)


def waveform_svg(nodes, length, u_now, t_now, u_prev=None, t_prev=None):
    """u over x at one snapshot (solid), optional earlier snapshot (dotted)."""
    stack = [np.asarray(u_now)]
    if u_prev is not None:
        stack.append(np.asarray(u_prev))
    amp = max(float(np.max(np.abs(np.concatenate(stack)))), 1e-12) * 1.1
    fr = _Frame(640, 420, 0.0, float(length), -amp, amp)
    parts = [fr.open_tag(f"u(x) at t = {t_now:g}")]
    parts.append(
        f'<line x1="{_num(fr.px(fr.x_lo))}" y1="{_num(fr.py(0.0))}" '
        f'x2="{_num(fr.px(fr.x_hi))}" y2="{_num(fr.py(0.0))}" '
        f'stroke="#bbbbbb" stroke-width="1"/>\n'
    )
    if u_prev is not None:
        label = "earlier" if t_prev is None else f"t = {t_prev:g}"
        parts.append(
            _poly(
                [fr.px(x) for x in nodes],
                [fr.py(y) for y in u_prev],
                f'stroke="#888888" stroke-width="1.2" stroke-dasharray="2 4"',
            )
            + "\n"
        )
        parts.append(
            f'<text x="{_num(fr.width - fr.mr)}" y="{_num(fr.mt - 6)}" text-anchor="end" '
            f'{_FONT} fill="#888888">{label} (dotted)</text>\n'
        )
    parts.append(
        _poly(
            [fr.px(x) for x in nodes],
            [fr.py(y) for y in u_now],
            'stroke="#1f4e9c" stroke-width="1.6"',
        )
        + "\n"
    )
    parts.append(fr.box())
    parts.append(fr.axis_labels("x", "u"))
    parts.append("</svg>\n")
    return "".join(parts)


def phase_svg(state, fixed_pts, trail_u=None, trail_v=None, max_trail=512):
    """The closed (u, v) loop of a one-state FieldState, the equilibria, and an optional tracer trail."""
    us = [state.u, np.array([p[0] for p in fixed_pts])]
    vs = [state.v, np.array([p[1] for p in fixed_pts])]
    if trail_u is not None:
        us.append(np.asarray(trail_u))
        vs.append(np.asarray(trail_v))
    span_u = float(np.max(np.abs(np.concatenate(us))))
    span_v = float(np.max(np.abs(np.concatenate(vs))))
    span = max(span_u, span_v, 1e-12) * 1.15
    fr = _Frame(480, 480, -span, span, -span, span)
    parts = [fr.open_tag(f"phase plane at t = {state.t:g}")]
    parts.append(
        f'<line x1="{_num(fr.px(-span))}" y1="{_num(fr.py(0.0))}" '
        f'x2="{_num(fr.px(span))}" y2="{_num(fr.py(0.0))}" stroke="#dddddd" stroke-width="1"/>\n'
        f'<line x1="{_num(fr.px(0.0))}" y1="{_num(fr.py(-span))}" '
        f'x2="{_num(fr.px(0.0))}" y2="{_num(fr.py(span))}" stroke="#dddddd" stroke-width="1"/>\n'
    )
    if trail_u is not None and len(trail_u) > 0:
        n = len(trail_u)
        stride = max(1, -(-n // max_trail))
        for a, b in zip(trail_u[::stride], trail_v[::stride]):
            parts.append(
                f'<circle cx="{_num(fr.px(a))}" cy="{_num(fr.py(b))}" r="1" '
                f'fill="#c08030" fill-opacity="0.55"/>\n'
            )
    lu = np.concatenate([state.u, state.u[:1]])
    lv = np.concatenate([state.v, state.v[:1]])
    parts.append(
        _poly(
            [fr.px(a) for a in lu],
            [fr.py(b) for b in lv],
            'stroke="#1f4e9c" stroke-width="1.4"',
        )
        + "\n"
    )
    for (a, b) in fixed_pts:
        parts.append(
            f'<circle cx="{_num(fr.px(a))}" cy="{_num(fr.py(b))}" r="3.5" fill="none" '
            f'stroke="#b02020" stroke-width="1.4"/>\n'
        )
    parts.append(fr.box())
    parts.append(fr.axis_labels("u", "v"))
    parts.append("</svg>\n")
    return "".join(parts)
