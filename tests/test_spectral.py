"""Half-spectrum transforms, spectral derivatives, and the alias-free cube."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from conftest import force

import kgbreather
from kgbreather import (
    LengthMismatch,
    NonFinite,
    SimParams,
    dft_forward,
    dft_inverse,
    energy,
    first_derivative,
    initial_state,
    make_grid,
    momentum,
)
from kgbreather.core import odd_part, reflect
from kgbreather.dynamics import linear_symbol
from kgbreather.spectral import cube_hat


def cube(u):
    """u^3 on the collocation grid through the stepper's coefficient-space cube."""
    return dft_inverse(cube_hat(dft_forward(u)))


def laplacian(u, grid):
    """u_xx on grid from the force: with alpha = 1 and mu = beta = 0, dv/dt is the laplacian term."""
    return force(u, SimParams(alpha=1.0, mu=0.0, beta=0.0, grid_points=grid.n, domain_length=grid.length))


def random_band(rng, grid, width):
    """Half-spectrum with random complex modes 1..width and nothing else."""
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    c[1 : width + 1] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return c


def test_forward_constant_field():
    c = dft_forward(np.ones(32))
    assert c.size == 17
    assert c[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(c[1:])) <= 1e-15


def test_forward_single_sine():
    g = make_grid(64, 8.0)
    c = dft_forward(np.sin(2 * np.pi * g.nodes / 8.0))
    assert c.size == 33
    # the -1 partner, conj(c[1]) = 0.5j, is implied and not stored
    assert c[1] == pytest.approx(-0.5j, abs=1e-15)
    mask = np.ones(c.size, bool)
    mask[1] = False
    assert np.max(np.abs(c[mask])) <= 1e-15


def test_forward_default_profile_is_one_mode_pair():
    c = dft_forward(initial_state(SimParams()).u)
    assert abs(c[1]) == pytest.approx(0.02, abs=1e-15)
    mask = np.ones(c.size, bool)
    mask[1] = False
    assert np.max(np.abs(c[mask])) <= 1e-16


def test_round_trip_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        u = rng.standard_normal(64)
        back = dft_inverse(dft_forward(u))
        assert np.max(np.abs(back - u)) <= 1e-13 * max(1.0, np.max(np.abs(u)))


def test_parseval_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(128)
        c = dft_forward(u)
        # every mode but m = 0 and the Nyquist also stands for its partner -m
        weight = np.full(c.size, 2.0)
        weight[[0, -1]] = 1.0
        lhs = float(np.sum(u * u)) / u.size
        total = float(np.sum(weight * np.abs(c) ** 2))
        assert abs(lhs - total) <= 1e-12 * abs(lhs)


def test_forward_rejects_bad_shapes():
    for shape in (0, (3, 0)):
        with pytest.raises(LengthMismatch):
            dft_forward(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_samples(bad):
    u = np.zeros((2, 8))
    u[1, 3] = bad
    with pytest.raises(NonFinite, match="^samples have non-finite entries$"):
        dft_forward(u)


@pytest.mark.parametrize("shape", [0, 1, (3, 1)])
def test_inverse_rejects_fewer_than_two_coefficients(shape):
    with pytest.raises(LengthMismatch, match="expected half-spectra of >= 2 coefficients"):
        dft_inverse(np.zeros(shape, dtype=complex))


def test_first_derivative_of_sine():
    g = make_grid(64, 8.0)
    k = 2 * np.pi / 8.0
    du = first_derivative(np.sin(k * g.nodes), g)
    assert np.max(np.abs(du - k * np.cos(k * g.nodes))) <= 1e-14


def test_first_derivative_annihilates_nyquist():
    g = make_grid(32, 8.0)
    u = np.cos(g.wavenumbers[-1] * g.nodes)  # alternating +-1 samples
    assert np.max(np.abs(first_derivative(u, g))) == 0.0


def test_rhs_laplacian_keeps_nyquist():
    g = make_grid(32, 8.0)
    kn = g.wavenumbers[-1]
    u = np.cos(kn * g.nodes)
    d2 = laplacian(u, g)
    assert np.max(np.abs(d2 - (-(kn ** 2)) * u)) <= 1e-11


def test_rhs_laplacian_matches_twice_first_derivative():
    g = make_grid(64, 8.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = dft_inverse(random_band(rng, g, g.n // 4))  # band-limited to N/4
        d2 = laplacian(u, g)
        dd = first_derivative(first_derivative(u, g), g)
        assert np.max(np.abs(d2 - dd)) <= 1e-10 * max(1.0, np.max(np.abs(d2)))


def test_linear_symbol_is_mu_minus_sigma_alpha_k_squared():
    p = SimParams(grid_points=16)
    k = p.grid.wavenumbers
    lam = linear_symbol(p)
    assert lam.shape == (9,)
    assert np.array_equal(lam, p.mu - p.alpha * k ** 2)  # Nyquist included
    flipped = linear_symbol(dataclasses.replace(p, laplacian_sign="as_written"))
    assert np.array_equal(flipped, p.mu + p.alpha * k ** 2)


def test_cube_constant_both_modes():
    out = cube(np.full(32, 2.0))
    assert np.max(np.abs(out - 8.0)) <= 1e-12


def test_cube_sine_identity_exact():
    # sin^3 = 0.75 sin - 0.25 sin(3.)
    for n in (16, 32, 128):
        g = make_grid(n, 8.0)
        k = 2 * np.pi / 8.0
        u = np.sin(k * g.nodes)
        want = 0.75 * np.sin(k * g.nodes) - 0.25 * np.sin(3 * k * g.nodes)
        out = cube(u)
        assert np.max(np.abs(out - want)) <= 1e-15


def test_cube_sine_identity_coefficientwise():
    # the exact half-spectrum of sin(2 pi x/8) on 32 nodes: c[1] = -0.5j
    c = np.zeros(17, dtype=complex)
    c[1] = -0.5j
    c = cube_hat(c)
    assert c.size == 17
    assert c[1] == pytest.approx(0.75 * (-0.5j), abs=1e-16)
    assert c[3] == pytest.approx(-0.25 * (-0.5j), abs=1e-16)
    mask = np.ones(c.size, bool)
    mask[[1, 3]] = False
    assert np.max(np.abs(c[mask])) <= 1e-16


def test_cube_modes_agree_for_narrow_band_inputs():
    # cubing triples the bandwidth, so inputs within n/6 stay alias-free and
    # the padded cube and the pointwise (aliased) grid cube must coincide
    g = make_grid(96, 8.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = dft_inverse(random_band(rng, g, g.n // 6))
        a = u ** 3
        b = cube(u)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_cube_modes_differ_at_highest_retained_mode():
    g = make_grid(16, 8.0)
    u = np.cos(g.wavenumbers[7] * g.nodes)  # highest non-Nyquist mode
    a = u ** 3
    b = cube(u)
    # the aliased cos(3k) term folds back in the pointwise cube; padding removes it
    assert np.max(np.abs(a - b)) > 0.1


def test_cube_hermitian_output_round_trips():
    g = make_grid(64, 8.0)
    rng = np.random.default_rng(9)
    u = 0.05 * rng.standard_normal(g.n)
    c = cube_hat(dft_forward(u))
    # a half-spectrum can only break the symmetry of a real field in the
    # imaginary parts of its m = 0 and Nyquist coefficients
    assert c.shape == (g.n // 2 + 1,)
    assert c[0].imag == 0.0 and c[-1].imag == 0.0
    out = dft_inverse(c)
    assert out.shape == u.shape
    assert np.all(np.isfinite(out))


def test_stacked_half_spectra_act_row_by_row():
    # the stepper cubes and synthesizes its (M, 2s, N/2 + 1) stage blocks in
    # one call, and integrate takes each diagnostic of a chunk of its (M, S, N)
    # snapshots in one, so every row of a 3-d block must be that row alone
    p = SimParams(grid_points=64)
    g = p.grid
    rng = np.random.default_rng(11)
    u = 0.05 * rng.standard_normal((2, 3, g.n))
    v = 0.05 * rng.standard_normal((2, 3, g.n))
    c = dft_forward(u)
    cubes = cube_hat(c)
    samples = dft_inverse(c)
    du = first_derivative(u, g)
    e, mom = energy(u, v, p), momentum(u, v, p)
    assert cubes.shape == c.shape == (2, 3, g.n // 2 + 1)
    assert samples.shape == du.shape == reflect(u).shape == odd_part(u).shape == (2, 3, g.n)
    assert e.shape == mom.shape == (2, 3)
    for row in np.ndindex(2, 3):
        assert np.array_equal(c[row], dft_forward(u[row]))
        assert np.array_equal(cubes[row], cube_hat(c[row]))
        assert np.array_equal(samples[row], dft_inverse(c[row]))
        assert np.array_equal(du[row], first_derivative(u[row], g))
        assert np.array_equal(reflect(u)[row], reflect(u[row]))
        assert np.array_equal(odd_part(u)[row], odd_part(u[row]))
        assert e[row] == energy(u[row], v[row], p)
        assert mom[row] == momentum(u[row], v[row], p)
    # one row at amplitude 1e80: u^4 overflows the energy, and with v at 1e240
    # (a cosine, so v Du keeps one sign) v Du overflows the momentum; the row
    # comes back inf, nothing raises, and the other rows keep their values
    kx = 2 * np.pi * g.nodes / g.length
    big_u, big_v = u.copy(), v.copy()
    big_u[1, 0], big_v[1, 0] = 1e80 * np.sin(kx), 1e240 * np.cos(kx)
    with np.errstate(over="ignore", invalid="ignore"):
        big_e, big_mom = energy(big_u, big_v, p), momentum(big_u, big_v, p)
    assert big_e[1, 0] == big_mom[1, 0] == np.inf
    others = np.ones((2, 3), dtype=bool)
    others[1, 0] = False
    assert np.array_equal(big_e[others], e[others]) and np.array_equal(big_mom[others], mom[others])


def test_dealiasing_premise_holds_over_the_default_run(default_run):
    """cube_hat's 2x padding cubes exactly only fields band-limited to |m| <= N/6.

    The tail ratio of a snapshot is max |c_m| over m > N/6 divided by max |c|
    of its u. Over the default run it peaks at 3.79e-16, at t = 768. The
    record-shaped run (A = 0.1195, t_end = 256, a snapshot every step) leaves
    the premise: its ratio reaches 7.1e-8 at t = 135.4.
    """
    c = np.abs(dft_forward(default_run.snapshots.u))
    tail = np.arange(c.shape[-1]) > default_run.params.grid_points / 6
    assert np.max(c[:, tail].max(axis=1) / c.max(axis=1)) <= 1e-15


def scaled_cube_hat(c):
    """cube_hat with the transforms' scalings as separate products."""
    h = c.shape[-1] - 1
    m = 4 * h
    c = c.copy()
    c[..., h] *= 0.5
    u = np.fft.irfft(c, m) * m
    w = np.fft.rfft(u * u * u) / m
    out = w[..., : h + 1]
    out[..., h] = 2.0 * w[..., h].real
    return out


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_norm_forward_equals_the_separate_scalings_at_powers_of_two(n):
    # scaling by 2^k is exact, so the transforms' norm="forward" changes no bit
    rng = np.random.default_rng(n)
    g = make_grid(n, 8.0)
    c = np.stack([random_band(rng, g, n // 6) for _ in range(3)])
    u = np.fft.irfft(c) * n
    assert np.array_equal(dft_forward(u), np.fft.rfft(u) / n)
    assert np.array_equal(dft_inverse(c), u)
    assert np.array_equal(cube_hat(c), scaled_cube_hat(c))


TRANSFORMS = {"fft", "ifft", "rfft", "irfft"}


def test_only_spectral_calls_a_transform_and_only_as_an_np_fft_attribute():
    # perfbench counts np.fft.<name> calls, so a transform reached any other way would go uncounted
    for path in sorted(pathlib.Path(kgbreather.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        imports = [ast.unparse(n) for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert not any("fft" in line for line in imports), path.name
        # a name whose attribute is taken is a namespace, such as the np.fft of np.fft.rfftfreq
        spaces = [n.value for n in nodes if isinstance(n, ast.Attribute)]
        refs = [
            n
            for n in nodes
            if (getattr(n, "attr", None) or getattr(n, "id", None)) in TRANSFORMS
            and not any(n is space for space in spaces)
        ]
        if path.name == "spectral.py":
            called = [n.func for n in nodes if isinstance(n, ast.Call)]
            assert refs and all(any(r is f for f in called) for r in refs)
            assert all(ast.unparse(r) == f"np.fft.{r.attr}" for r in refs)
        else:
            assert refs == [], path.name
