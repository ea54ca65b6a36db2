"""Grid construction, parameter validation, and state containers."""

import dataclasses
import math

import numpy as np
import pytest

from kgbreather import (
    DIAGNOSTICS_COLUMNS,
    DiagnosticsRow,
    FieldState,
    IncompatibleDomain,
    InvalidGrid,
    LengthMismatch,
    NonFinite,
    SimParams,
    half_domain_masks,
    initial_state,
    make_grid,
    params_from_dict,
    params_to_dict,
    probe_indices,
    validate_params,
)
from kgbreather.core import is_odd, odd_part, reflect


def test_make_grid_wavenumber_set():
    g = make_grid(8, 8.0)
    expected = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    assert np.allclose(g.wavenumbers, expected, rtol=0.0, atol=1e-12)


def test_make_grid_integer_wavenumbers_on_2pi():
    g = make_grid(8, 2 * math.pi)
    assert np.allclose(g.wavenumbers, [0, 1, 2, 3, 4], atol=1e-15)


def test_make_grid_nodes_and_dx():
    g = make_grid(128, 8.0)
    assert g.dx == 8.0 / 128
    assert np.array_equal(g.nodes, np.arange(128) * (8.0 / 128))
    assert g.nodes[0] == 0.0 and g.nodes[-1] < 8.0


def test_make_grid_wavenumbers_closed_under_negation_except_nyquist():
    # the half-spectrum stores m = 0..N/2; with the implied partners -k_m of
    # 0 < m < N/2 it covers N distinct modes, and only the Nyquist is unpaired
    g = make_grid(32, 8.0)
    half = g.wavenumbers
    assert half.size == 17 and half[0] == 0.0 and np.all(np.diff(half) > 0.0)
    ks = set(np.round(np.concatenate([half, -half[1:-1]]), 12))
    assert len(ks) == 32
    nyquist = half[-1]
    for k in ks:
        if k == round(nyquist, 12):
            assert -k not in ks
        else:
            assert round(-k, 12) in ks


@pytest.mark.parametrize("n,length", [(6, 8.0), (7, 8.0), (128, 0.0), (128, -8.0), (0, 8.0)])
def test_make_grid_rejects_bad_shapes(n, length):
    with pytest.raises(InvalidGrid):
        make_grid(n, length)


def test_initial_state_probe_values():
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    s = initial_state(p, g)
    assert s.t == 0.0
    assert s.u[32] == pytest.approx(0.04, abs=1e-17)   # x = 2
    assert abs(s.u[64]) <= 1e-17                        # x = 4
    assert s.u[96] == pytest.approx(-0.04, abs=1e-17)   # x = 6
    assert np.all(s.v == 0.0)


def test_initial_state_longer_periodic_domain():
    p = dataclasses.replace(SimParams(), domain_length=16.0, grid_points=256)
    g = make_grid(256, 16.0)
    s = initial_state(p, g)
    # same profile repeated; x = 2 sits at index 32 again
    assert s.u[32] == pytest.approx(0.04, abs=1e-17)
    assert s.u[32 + 128] == pytest.approx(0.04, abs=1e-17)


@pytest.mark.parametrize("length,n", [(8.0, 128), (16.0, 256), (8.0, 8)])
def test_initial_state_is_exactly_odd(length, n):
    p = dataclasses.replace(SimParams(), domain_length=length, grid_points=n)
    s = initial_state(p, make_grid(n, length))
    # u(L - x) = -u(x) bit for bit, with exact zeros at x = 0 and x = L/2
    assert np.array_equal(s.u[1:][::-1], -s.u[1:])
    assert s.u[0] == 0.0 and s.u[n // 2] == 0.0


def test_reflect_maps_index_j_to_minus_j():
    u = np.arange(8.0)
    assert reflect(u).tolist() == [0.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def test_odd_part_is_exact():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(64)
    w = odd_part(u)
    assert is_odd(w)
    assert np.array_equal(odd_part(w), w)
    assert np.allclose(w + 0.5 * (u + reflect(u)), u, rtol=0.0, atol=1e-15)


def test_block_projection_matches_rows():
    # integrate projects the (2, N) block of (u, v) samples in one call
    rng = np.random.default_rng(6)
    block = rng.standard_normal((2, 64))
    odd = odd_part(block)
    for k in range(2):
        assert np.array_equal(reflect(block)[k], reflect(block[k]))
        assert np.array_equal(odd[k], odd_part(block[k]))
    mixed = np.stack([odd[0], block[1]])
    for b in (block, odd, mixed):
        assert is_odd(b) == all(is_odd(row) for row in b)
    assert is_odd(odd) and not is_odd(mixed)


@pytest.mark.parametrize("length", [4.0, 7.0, 12.0])
def test_initial_state_rejects_non_multiple_domain(length):
    n = 128
    p = dataclasses.replace(SimParams(), domain_length=length)
    g = make_grid(n, length)
    with pytest.raises(IncompatibleDomain):
        initial_state(p, g)


def test_validate_params_defaults_clean():
    assert validate_params(SimParams()) == []


@pytest.mark.parametrize(
    "field,value,word",
    [
        ("dt", -1.0, "dt"),
        ("dt", 0.0, "dt"),
        ("alpha", 0.0, "alpha"),
        ("beta", -1.0, "beta"),
        ("mu", 0.0, "mu"),
        ("domain_length", -8.0, "domain_length"),
        ("grid_points", 9, "grid_points"),
        ("grid_points", 6, "grid_points"),
        ("t_end", -1.0, "t_end"),
        ("snapshot_every", 0.3, "snapshot_every"),
        ("t_end", 5.1, "t_end"),
        ("irk_stages", 0, "irk_stages"),
        ("irk_stages", 4, "irk_stages"),
        ("stage_tol", 0.0, "stage_tol"),
        ("stage_max_iter", 0, "stage_max_iter"),
        ("laplacian_sign", "upside_down", "laplacian_sign"),
        ("dealias", "pad3x", "dealias"),
        ("probes", (2.51,), "probe"),
        ("probes", (-0.5,), "probe"),
        ("probes", (8.0,), "probe"),
        ("probes", (2.0, 6.0, 2.0), "distinct"),
        ("t_end", math.inf, "t_end must be finite"),
        ("t_end", math.nan, "t_end must be finite"),
        ("snapshot_every", math.inf, "snapshot_every must be finite"),
        ("snapshot_every", math.nan, "snapshot_every must be finite"),
        ("dt", math.inf, "dt must be finite"),
        ("amplitude", -math.inf, "amplitude must be finite"),
        ("stage_tol", math.nan, "stage_tol must be finite"),
        ("snapshot_every", "16", "snapshot_every must be a number, got '16'"),
        ("alpha", True, "alpha must be a number, got True"),
        ("grid_points", "128", "grid_points must be an integer, got '128'"),
        ("grid_points", 128.0, "grid_points must be an integer, got 128.0"),
        ("irk_stages", True, "irk_stages must be an integer, got True"),
        ("stage_max_iter", None, "stage_max_iter must be an integer, got None"),
        ("probes", 5, "probes must be a tuple of numbers"),
        ("probes", ("2",), "probes must be a tuple of numbers"),
        pytest.param("grid_points", 10**400, "grid_points must be even and in", id="huge_grid_points"),
        pytest.param(
            "grid_points", 10**5000, "grid_points must be even and in", id="grid_points_5000_digits"
        ),
        pytest.param(
            "stage_max_iter", -(10**5000), "stage_max_iter must be >= 1", id="stage_max_iter_5000_digits"
        ),
        pytest.param("alpha", 10**400, "alpha must be finite", id="alpha_int_beyond_float_range"),
    ],
)
def test_validate_params_flags_each_violation(field, value, word):
    p = dataclasses.replace(SimParams(), **{field: value})
    violations = validate_params(p)
    assert violations, f"expected a violation for {field}={value}"
    assert any(word in v for v in violations)


def test_validate_params_reports_a_step_count_beyond_float_range():
    p = dataclasses.replace(SimParams(), dt=1e-10, t_end=1e300, snapshot_every=1e300)
    assert any("t_end = 1e+300 is not an integer multiple" in v for v in validate_params(p))


def test_validate_params_probe_on_node_is_fine():
    # 2.5 / dx = 40 exactly for N = 128, L = 8
    p = dataclasses.replace(SimParams(), probes=(2.5,))
    assert validate_params(p) == []


def test_validate_params_zero_t_end_allowed():
    p = dataclasses.replace(SimParams(), t_end=0.0)
    assert validate_params(p) == []


def test_params_dict_round_trip():
    p = dataclasses.replace(SimParams(), amplitude=0.07, probes=(1.0, 2.5, 6.0))
    d = params_to_dict(p)
    assert d["probes"] == [1.0, 2.5, 6.0]
    assert params_from_dict(d) == p


def test_params_from_dict_rejects_unknown_keys():
    d = params_to_dict(SimParams())
    d["wavelength"] = 3.0
    with pytest.raises(KeyError):
        params_from_dict(d)


def test_sigma_follows_laplacian_sign():
    assert SimParams().sigma == 1.0
    assert dataclasses.replace(SimParams(), laplacian_sign="as_written").sigma == -1.0


def test_field_state_is_immutable_and_checked():
    s = FieldState(t=0.0, u=np.zeros(8), v=np.zeros(8))
    with pytest.raises(ValueError):
        s.u[0] = 1.0
    with pytest.raises(LengthMismatch):
        FieldState(t=0.0, u=np.zeros(8), v=np.zeros(7))
    with pytest.raises(NonFinite):
        FieldState(t=0.0, u=np.array([np.nan] * 8), v=np.zeros(8))
    with pytest.raises(NonFinite):
        FieldState(t=0.0, u=np.zeros(8), v=np.array([np.inf] * 8))


def test_field_state_holds_a_stack_along_the_leading_axis():
    t = np.array([0.0, 16.0, 32.0])
    s = FieldState(t=t, u=np.zeros((3, 8)), v=np.ones((3, 8)))
    t[0] = 5.0
    assert s.t.tolist() == [0.0, 16.0, 32.0]
    assert s.t.dtype == np.float64
    with pytest.raises(ValueError):
        s.t[0] = 1.0
    with pytest.raises(ValueError):
        s.v[0, 0] = 1.0
    assert isinstance(FieldState(t=np.float64(2.0), u=np.zeros(8), v=np.zeros(8)).t, float)
    # t takes the shape of the leading axes, no other
    for bad_t in (0.0, [0.0, 1.0], np.zeros((3, 1))):
        with pytest.raises(LengthMismatch):
            FieldState(t=bad_t, u=np.zeros((3, 8)), v=np.zeros((3, 8)))
    with pytest.raises(LengthMismatch):
        FieldState(t=[0.0], u=np.zeros(8), v=np.zeros(8))
    with pytest.raises(LengthMismatch):
        FieldState(t=0.0, u=np.float64(1.0), v=np.float64(1.0))
    with pytest.raises(NonFinite):
        FieldState(t=t, u=np.zeros((3, 8)), v=np.full((3, 8), np.nan))


def test_field_state_copies_input():
    u = np.zeros(8)
    s = FieldState(t=0.0, u=u, v=np.zeros(8))
    u[0] = 5.0
    assert s.u[0] == 0.0


def test_half_domain_masks_are_strict_interiors():
    g = make_grid(128, 8.0)
    left, right = half_domain_masks(g)
    x = g.nodes
    assert np.array_equal(np.where(left)[0], np.where((x > 0) & (x < 4))[0])
    assert np.array_equal(np.where(right)[0], np.where((x > 4) & (x < 8))[0])
    assert not left[0] and not left[64] and not right[64]


def test_probe_indices_defaults():
    p = SimParams()
    g = make_grid(p.grid_points, p.domain_length)
    assert probe_indices(p, g) == [32, 96]


def test_diagnostics_columns_match_row_fields():
    names = tuple(f.name for f in dataclasses.fields(DiagnosticsRow))
    assert names == DIAGNOSTICS_COLUMNS
