"""Fourier collocation primitives: transforms, the derivative, and the alias-free cube.

Coefficient convention: a real field sampled at x_j = jL/N (N even) is held as
its half-spectrum c = rfft(u)/N, the N/2 + 1 coefficients of the modes
exp(i k_m x) with k_m = 2*pi*m/L, m = 0..N/2. The m = 0 and Nyquist
coefficients are real, and the negative modes c[-m] = conj(c[m]) are implied,
so u = N * irfft(c) and every coefficient array stands for a real field.
The transforms take these scalings as norm="forward" (rfft scaled by 1/N,
irfft unscaled). Scaling by a power of two is exact, so at N = 2^k this is
bit for bit the separate division and product; at other N a sample may
differ in the last bit.
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
    return np.fft.rfft(u, norm="forward")


def dft_inverse(c):
    """Real samples of the N = 2*(n - 1) point fields whose n-coefficient half-spectra run along c's last axis."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim < 1 or c.shape[-1] < 2:
        raise LengthMismatch(f"expected half-spectra of >= 2 coefficients, got shape {c.shape}")
    return np.fft.irfft(c, norm="forward")


def first_derivative(u, grid):
    """du/dx; the Nyquist mode, whose centered derivative is zero, drops out."""
    mult = 1j * grid.wavenumbers
    mult[-1] = 0.0
    return dft_inverse(mult * dft_forward(u))


def cube_hat(c):
    """Half-spectra of u^3 from those of u (last axis), by synthesis on a 2x grid.

    Exact for inputs band-limited to |m| <= n/6: the padded grid holds every
    product mode, so none aliases (Orszag, J. Atmos. Sci. 28, 1971). On the
    padded grid the Nyquist coefficient stands for the two modes +n/2 and
    -n/2, so it is halved there: the padded field stays real and has the same
    values at the original nodes, and both halves fold back into the one
    output Nyquist coefficient. The only product that can still fold back is
    (Nyquist)^3 landing on -Nyquist; for any resolved field that term is far
    below roundoff. An overflowing cube comes back non-finite; the caller
    checks for it.
    """
    c = np.array(c, dtype=np.complex128)
    h = c.shape[-1] - 1
    c[..., h] *= 0.5
    # irfft to 4h points zero-pads the half-spectrum to 2h + 1 coefficients
    u = np.fft.irfft(c, 4 * h, norm="forward")
    w = np.fft.rfft(u * u * u, norm="forward")
    out = w[..., : h + 1]
    out[..., h] = 2.0 * w[..., h].real
    return out
