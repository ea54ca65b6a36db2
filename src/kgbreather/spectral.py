"""Fourier collocation primitives: transforms, the derivative, and the dealiased cube.

Coefficient convention: a real field sampled at x_j = jL/N (N even) is held as
its half-spectrum c = rfft(u)/N, the N/2 + 1 coefficients of the modes
exp(i k_m x) with k_m = 2*pi*m/L, m = 0..N/2. The m = 0 and Nyquist
coefficients are real, and the negative modes c[-m] = conj(c[m]) are implied,
so u = N * irfft(c) and every coefficient array stands for a real field.
Every function here acts along the last axis, so one call serves a stack of
fields, such as the (s, N/2 + 1) stage block of the stepper or the (S, N)
snapshot samples of a run. This module is the only one that calls a
transform.
"""

import numpy as np

from .errors import LengthMismatch, NonFinite


def dft_forward(u):
    """Half-spectra rfft(u)/N of the real N-point sample vectors along u's last axis."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] == 0:
        raise LengthMismatch(f"expected samples along a nonempty last axis, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NonFinite("samples have non-finite entries")
    return np.fft.rfft(u) / u.shape[-1]


def dft_inverse(c):
    """Real samples of the N = 2*(n - 1) point fields whose n-coefficient half-spectra run along c's last axis."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim < 1 or c.shape[-1] < 2:
        raise LengthMismatch(f"expected half-spectra of >= 2 coefficients, got shape {c.shape}")
    return np.fft.irfft(c) * (2 * (c.shape[-1] - 1))


def first_derivative(u, grid):
    """du/dx; the Nyquist mode, whose centered derivative is zero, drops out."""
    mult = 1j * grid.wavenumbers
    mult[-1] = 0.0
    return dft_inverse(mult * dft_forward(u))


def _cube_samples(u):
    # overflow is reported below as NonFinite, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        w = u * u * u
    if not np.all(np.isfinite(w)):
        raise NonFinite("cubic term overflowed")
    return w


def _cube_hat_none(c):
    """Pointwise cube on the native grid, back to coefficients. Aliased."""
    n = 2 * (c.shape[-1] - 1)
    return np.fft.rfft(_cube_samples(np.fft.irfft(c) * n)) / n


def _cube_hat_pad2x(c):
    """Cube via synthesis on a 2x grid; exact for inputs band-limited to |m| <= n/6.

    On the padded grid the Nyquist coefficient stands for the two modes +n/2
    and -n/2, so it is halved there: the padded field stays real and has the
    same values at the original nodes, and both halves fold back into the one
    output Nyquist coefficient. The only product that can still fold back is
    (Nyquist)^3 landing on -Nyquist; for any resolved field that term is far
    below roundoff.
    """
    h = c.shape[-1] - 1
    m = 4 * h
    c = c.copy()
    c[..., h] *= 0.5
    # irfft to m points zero-pads the half-spectrum to 2h + 1 coefficients
    w = np.fft.rfft(_cube_samples(np.fft.irfft(c, m) * m)) / m
    out = w[..., : h + 1]
    out[..., h] = 2.0 * w[..., h].real
    return out


def cube_hat(c, mode):
    """Half-spectra of u^3 from those of u (last axis), alias-free when mode='pad2x'."""
    c = np.asarray(c, dtype=np.complex128)
    if mode == "pad2x":
        return _cube_hat_pad2x(c)
    return _cube_hat_none(c)
