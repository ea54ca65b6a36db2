"""Fourier collocation primitives: transforms, derivatives, and the dealiased cube.

Coefficient convention: c = fft(u)/n, so c[m] multiplies exp(i k_m x) with
k_m = 2*pi*m/L in FFT order and u = n * ifft(c). Real fields have Hermitian
spectra c[-m] = conj(c[m]); every synthesis routine checks that before
touching the data.
"""

import numpy as np

from .errors import LengthMismatch, NonFinite, NonHermitianSpectrum

# Hermitian-symmetry tolerance, applied to max(1, n * max|c|). The floor of 1
# keeps plain roundoff asymmetry in small-amplitude spectra from tripping the
# check while O(1) corruption is still caught.
HERMITIAN_TOL = 1e-13


def dft_forward(u):
    """Normalized DFT of a real sample vector."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise LengthMismatch(f"expected a nonempty 1-d array, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NonFinite("samples have non-finite entries")
    return np.fft.fft(u) / u.size


def _check_hermitian(c):
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise LengthMismatch(f"expected a nonempty 1-d array, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFinite("spectrum has non-finite entries")
    # c[-m] = conj(c[m]) in FFT order is c reversed then rolled by one;
    # the m=0 and Nyquist imaginary parts fall out of the same comparison.
    crev = np.roll(c[::-1], 1)
    scale = max(1.0, c.size * float(np.max(np.abs(c))))
    asym = float(np.max(np.abs(crev - np.conj(c))))
    if asym > HERMITIAN_TOL * scale:
        raise NonHermitianSpectrum(
            f"spectrum asymmetry {asym:.3e} exceeds {HERMITIAN_TOL:.0e} * {scale:.3e}"
        )
    return c


def dft_inverse(c):
    """Synthesize real samples from Hermitian coefficients (checked)."""
    c = _check_hermitian(c)
    return np.real(np.fft.ifft(c) * c.size)


def derivative_multipliers(grid):
    """(first, second) spectral multipliers: ik with Nyquist zeroed, and -k^2."""
    k = grid.wavenumbers
    first = 1j * k.copy()
    first[grid.n // 2] = 0.0  # asymmetric mode; its centered derivative is zero
    second = -(k ** 2)
    return first, second


def first_derivative(u, grid):
    c = dft_forward(u)
    mult, _ = derivative_multipliers(grid)
    return dft_inverse(mult * c)


def second_derivative(u, grid):
    c = dft_forward(u)
    _, mult = derivative_multipliers(grid)
    return dft_inverse(mult * c)


def _cube_samples(u):
    # overflow is reported below as NonFinite, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        w = u * u * u
    if not np.all(np.isfinite(w)):
        raise NonFinite("cubic term overflowed")
    return w


def _cube_hat_none(c):
    """Pointwise cube on the native grid, back to coefficients. Aliased."""
    n = c.size
    u = np.real(np.fft.ifft(c) * n)
    return np.fft.fft(_cube_samples(u)) / n


def _cube_hat_pad2x(c):
    """Cube via synthesis on a 2x grid; exact for inputs band-limited to |m| <= n/6.

    The Nyquist coefficient is split evenly between +n/2 and -n/2 on the padded
    grid so the padded field stays real and has the same values at the original
    nodes. The only product that can still fold back is (Nyquist)^3 landing on
    -Nyquist; for any resolved field that term is far below roundoff.
    """
    n = c.size
    m = 2 * n
    cpad = np.zeros(m, dtype=np.complex128)
    h = n // 2
    cpad[:h] = c[:h]
    cpad[h] = 0.5 * c[h]
    cpad[m - h] = 0.5 * c[h]
    cpad[m - h + 1:] = c[h + 1:]
    upad = np.real(np.fft.ifft(cpad) * m)
    w = np.fft.fft(_cube_samples(upad)) / m
    out = np.empty(n, dtype=np.complex128)
    out[:h] = w[:h]
    out[h] = w[m - h] + w[h]
    out[h + 1:] = w[m - h + 1:]
    return out


def cube_hat(c, mode):
    c = np.asarray(c, dtype=np.complex128)
    if mode == "pad2x":
        return _cube_hat_pad2x(c)
    return _cube_hat_none(c)


def cube_dealiased(u, mode="pad2x"):
    """u^3 on the collocation grid, computed alias-free when mode='pad2x'."""
    if mode == "none":
        return _cube_samples(np.asarray(u, dtype=np.float64))
    return dft_inverse(cube_hat(dft_forward(u), mode))
