"""Force terms, conserved functionals, and fixed points."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import force

from kgbreather import (
    InvalidParams,
    SimParams,
    energy,
    energy_drift,
    fixed_points,
    initial_state,
    momentum,
)


U_STAR = math.sqrt(0.00305)  # 0.05522680508593630


@pytest.fixture()
def setup():
    p = SimParams()
    g = p.grid
    return p, g


def _bandlimited(rng, g, width, scale=1.0):
    c = np.zeros(g.n, dtype=complex)
    m = np.arange(1, width + 1)
    amps = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    c[m] = amps
    c[-m] = np.conj(amps)
    c[0] = rng.standard_normal()
    return scale * np.real(np.fft.ifft(c) * g.n) / g.n


def test_rhs_vanishes_at_all_fixed_points(setup):
    p, g = setup
    for u0 in (0.0, U_STAR, -U_STAR):
        dv = force(np.full(g.n, u0), p)
        assert np.max(np.abs(dv)) <= 1e-15


def test_rhs_constant_field_arithmetic(setup):
    p, g = setup
    dv = force(np.full(g.n, 0.01), p)
    assert np.max(np.abs(dv - 2.95e-5)) <= 1e-17


def test_rhs_default_profile_linear_coefficient(setup):
    p, _ = setup
    s = initial_state(p)
    dv = force(s.u, p)
    coeff = -p.alpha * (math.pi / 4.0) ** 2 + p.mu
    assert coeff == pytest.approx(6.40e-4, abs=5e-7)
    # the single-mode cube is band-limited, so the pointwise cube is exact
    want = coeff * s.u - p.beta * s.u ** 3
    assert np.max(np.abs(dv - want)) <= 1e-15


def test_rhs_sign_mode_flips_laplacian(setup):
    p, _ = setup
    s = initial_state(p)
    p_flip = dataclasses.replace(p, laplacian_sign="as_written")
    dv_std = force(s.u, p)
    dv_flip = force(s.u, p_flip)
    k1 = 2 * np.pi / p.domain_length
    # difference is exactly twice the laplacian term
    want = 2.0 * p.alpha * (-(k1 ** 2)) * s.u
    assert np.max(np.abs((dv_std - dv_flip) - want)) <= 1e-15


def test_energy_zero_state(setup):
    p, g = setup
    assert energy(np.zeros(g.n), np.zeros(g.n), p) == 0.0


def test_energy_vacuum_value(setup):
    p, g = setup
    e = energy(np.full(g.n, U_STAR), np.zeros(g.n), p)
    want = -2.0 * p.mu ** 2  # L * (-mu^2/(4 beta)) with L = 8, beta = 1
    assert e == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(-1.8605e-5, abs=1e-9)


def test_energy_matches_fine_trapezoid_oracle(setup):
    p, _ = setup
    s = initial_state(p)
    e = energy(s.u, s.v, p)
    m = 4096
    x = np.arange(m) * (p.domain_length / m)
    u = p.amplitude * np.sin(np.pi * x / 4.0)
    ux = p.amplitude * (np.pi / 4.0) * np.cos(np.pi * x / 4.0)
    dens = 0.5 * p.sigma * p.alpha * ux ** 2 - 0.5 * p.mu * u ** 2 + 0.25 * p.beta * u ** 4
    oracle = (p.domain_length / m) * float(np.sum(dens))  # trapezoid == sum on a periodic grid
    assert abs(e - oracle) <= 1e-12 * abs(oracle)


def test_momentum_zero_velocity(setup):
    p, _ = setup
    s = initial_state(p)
    assert momentum(s.u, s.v, p) == 0.0


def test_momentum_sine_cosine_pair(setup):
    p, g = setup
    k = 2 * np.pi / 8.0
    u, v = np.sin(k * g.nodes), np.cos(k * g.nodes)
    assert momentum(u, v, p) == pytest.approx(math.pi, rel=1e-12)


def test_energy_momentum_cyclic_shift_invariance(setup):
    p, g = setup
    rng = np.random.default_rng(17)
    u = _bandlimited(rng, g, g.n // 3)
    v = _bandlimited(rng, g, g.n // 3)
    e0, p0 = energy(u, v, p), momentum(u, v, p)
    for shift in (1, 7, 64):
        us, vs = np.roll(u, shift), np.roll(v, shift)
        assert energy(us, vs, p) == pytest.approx(e0, rel=1e-12)
        assert momentum(us, vs, p) == pytest.approx(p0, rel=1e-12, abs=1e-14)


def test_discrete_gradient_consistency(setup):
    """Central differences of E converge at second order onto the pairing with (v, force)."""
    p, g = setup
    for seed in (7, 21, 99):
        rng = np.random.default_rng(seed)
        width = g.n // 6  # cube stays in band, so the pairing identity is exact
        u0 = _bandlimited(rng, g, width, 3.0)
        v0 = _bandlimited(rng, g, width, 3.0)
        du_dir = _bandlimited(rng, g, width, 3.0)
        dv_dir = _bandlimited(rng, g, width, 3.0)
        dv = force(u0, p)
        pairing = g.dx * (float(np.dot(v0, dv_dir)) - float(np.dot(dv, du_dir)))
        errs = []
        for eps in (1e-4, 1e-5):
            ep = energy(u0 + eps * du_dir, v0 + eps * dv_dir, p)
            em = energy(u0 - eps * du_dir, v0 - eps * dv_dir, p)
            errs.append(abs((ep - em) / (2 * eps) - pairing))
        assert errs[1] <= 1e-9
        # O(eps^2): tenfold smaller eps shrinks the error about a hundredfold
        assert 30.0 <= errs[0] / max(errs[1], 1e-18) <= 300.0


def test_linearized_mode_satisfies_rhs(setup):
    p, _ = setup
    m_coef = 1.0
    p_lin = dataclasses.replace(
        p, alpha=1.0, beta=0.0, mu=-(m_coef ** 2), domain_length=2 * math.pi, grid_points=32
    )
    g = p_lin.grid
    k = 2.0
    omega = math.sqrt(p_lin.alpha * k ** 2 + m_coef ** 2)

    def mode(t):
        return np.sin(k * g.nodes) * math.cos(omega * t), -omega * np.sin(k * g.nodes) * math.sin(omega * t)

    h, energies = 1e-4, []
    for t in (0.0, 0.3, 1.7):
        u, v = mode(t)
        dv = force(u, p_lin)
        assert np.max(np.abs(dv - (-(omega ** 2)) * u)) <= 1e-12
        # centred differences in t: v is du/dt, and force(u) is dv/dt
        (u_minus, v_minus), (u_plus, v_plus) = mode(t - h), mode(t + h)
        assert np.max(np.abs((u_plus - u_minus) / (2 * h) - v)) <= 1e-6
        assert np.max(np.abs((v_plus - v_minus) / (2 * h) - dv)) <= 1e-6
        energies.append(float(energy(u, v, p_lin)))
    # (pi/2) (omega^2 sin^2 + (k^2 + m^2) cos^2) = 5 pi/2 at every t
    assert energies == pytest.approx([2.5 * math.pi] * 3, rel=1e-14)
    assert max(energies) - min(energies) <= 1e-14


def test_energy_drift_guard():
    assert energy_drift(1.0, 0.0) == pytest.approx(1e30)
    assert energy_drift(2.0, 1.0) == 1.0
    assert energy_drift(-1.2937e-7, -1.2937e-7) == 0.0


def test_fixed_points_values():
    fps = fixed_points(SimParams())
    assert fps.center == (0.0, 0.0)
    assert fps.plus[0] == pytest.approx(0.05522680508593630, abs=1e-15)
    assert fps.minus[0] == -fps.plus[0]
    assert fixed_points(dataclasses.replace(SimParams(), mu=1.0)).plus == (1.0, 0.0)
    assert fixed_points(dataclasses.replace(SimParams(), mu=4.0)).plus == (2.0, 0.0)


def test_fixed_points_zero_force():
    p = SimParams()
    for u, _ in fixed_points(p).as_list():
        assert abs(p.beta * u ** 3 - p.mu * u) <= 1e-15


@pytest.mark.parametrize("field,value", [("mu", 0.0), ("mu", -0.5), ("beta", 0.0), ("beta", -1.0)])
def test_fixed_points_needs_double_well(field, value):
    with pytest.raises(InvalidParams):
        fixed_points(dataclasses.replace(SimParams(), **{field: value}))
