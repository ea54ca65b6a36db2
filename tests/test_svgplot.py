"""Deterministic SVG markup for the waveform and phase views."""

import math

import numpy as np

from kgbreather import FieldState, SimParams, fixed_points, initial_state
from kgbreather.svgplot import phase_svg, waveform_svg


def default_setup():
    p = SimParams()
    return p, p.grid, initial_state(p)


def test_waveform_markup_shape():
    p, g, s = default_setup()
    svg = waveform_svg(g.nodes, p.domain_length, s.u, s.t)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 1
    assert "t = 0" in svg
    assert "stroke-dasharray" not in svg


def test_waveform_with_earlier_snapshot_dotted():
    p, g, s = default_setup()
    svg = waveform_svg(g.nodes, p.domain_length, s.u, 32.0, u_prev=0.5 * s.u, t_prev=16.0)
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg
    assert "t = 16 (dotted)" in svg


def test_waveform_is_byte_deterministic():
    p, g, s = default_setup()
    a = waveform_svg(g.nodes, p.domain_length, s.u, s.t)
    b = waveform_svg(g.nodes, p.domain_length, s.u, s.t)
    assert a == b


def test_waveform_flat_field_still_renders():
    p, g, _ = default_setup()
    svg = waveform_svg(g.nodes, p.domain_length, np.zeros(g.n), 0.0)
    assert "<polyline" in svg
    assert "nan" not in svg


def test_phase_markup_shape():
    p, g, s = default_setup()
    fps = fixed_points(p)
    svg = phase_svg(s, [fps.minus, fps.center, fps.plus])
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    # loop polyline plus one ring per equilibrium
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 3
    assert "phase plane at t = 0" in svg


def test_phase_loop_polyline_is_closed():
    loop = FieldState(t=0.0, u=np.array([1.0, 0.0, -1.0, 0.0]), v=np.array([0.0, 1.0, 0.0, -1.0]))
    svg = phase_svg(loop, [(0.0, 0.0)])
    line = next(part for part in svg.split("\n") if "<polyline" in part)
    pts = line.split('points="')[1].split('"')[0].split()
    assert len(pts) == 5
    assert pts[0] == pts[-1]


def test_phase_trail_is_thinned_to_max_trail():
    loop = FieldState(t=0.0, u=np.cos(np.linspace(0.0, 6.0, 30)), v=np.sin(np.linspace(0.0, 6.0, 30)))
    n = 5000
    ang = np.linspace(0.0, 20.0 * math.pi, n)
    svg = phase_svg(
        loop,
        [(0.0, 0.0)],
        trail_u=0.5 * np.cos(ang),
        trail_v=0.5 * np.sin(ang),
    )
    dots = svg.count('r="1"')
    assert 0 < dots <= 512
    assert svg.count("<circle") == dots + 1


def test_phase_is_byte_deterministic():
    p, g, s = default_setup()
    fps = fixed_points(p)
    args = (s, [fps.minus, fps.center, fps.plus])
    assert phase_svg(*args) == phase_svg(*args)
