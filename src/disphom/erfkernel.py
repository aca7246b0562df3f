"""Stable evaluation of the complex error function and the damped dip kernel.

The windowed coincidence-rate formula multiplies exp(-rho*tau^2/2) by
Re[erf(x + i*y)] with y proportional to the delay tau.  Re[erf(x+iy)] grows
like exp(y^2), so the two factors overflow/underflow separately long before
their product leaves the representable range.  Everything here is organised
around the Faddeeva function w(z) = exp(-z^2) erfc(-iz), which is bounded on
the closed upper half plane, so that the physically relevant combination

    scaled_dip_term(x, y) = exp(-y^2) * Re[erf(x + i*y)]

stays finite and accurate for |y| up to 1e3 and beyond.

On the real axis erf comes from the C library (math.erf), element by
element; the code below serves only points off the real axis.  Evaluation
regions there (calibrated against a 60-digit reference):
  * |z| <= 2          Maclaurin series of erf (cancellation growth <= e^4).
  * 2 < |zeta| < 12   Weideman rational approximation of w (N = 48 terms,
                      max relative error ~1e-15 on the upper half plane).
  * |zeta| >= 12      Laplace continued fraction of w, 16 levels
                      (~3e-16 worst case); 6 levels where |zeta| >= 100,
                      which give the 16-level value bit for bit there.

A pure Maclaurin region extending to |z| = 4..5 loses 6+ digits near the
diagonals (round-off is amplified by ~exp(|z|^2)), which is why the series
region stops at |z| = 2.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# erf(z) = (2/sqrt(pi)) * z * P(z^2) with P(u) = sum_n (-u)^n / (n! (2n+1)).
# 40 terms keep the truncation error below 1e-21 for |z| <= 2.
_SERIES_TERMS = 40
_SERIES_COEFFS = np.array(
    [(-1.0) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(_SERIES_TERMS)]
)[::-1]

# Overflow guard: |erf(x+iy)| ~ exp(y^2 - x^2) / (sqrt(pi) |z|) for large |y|.
_OVERFLOW_LIMIT = 708.0

_WEIDEMAN_N = 48
_CF_RADIUS = 12.0
_CF_DEPTH = 16
# From this radius on, 6 levels give the same doubles as 16.  Of random
# upper-half-plane points, none differed among 3e7 in [66, 100), 3e7 in
# [100, 200) and 3e6 in each of [100, 1e3), [1e3, 1e4) and [1e4, 1e8); in
# [50, 66) about one in a million does (the largest at |zeta| = 65.6).
_CF_FAR_RADIUS = 100.0
_CF_FAR_DEPTH = 6


def _weideman_coeffs(n_terms):
    """Polynomial coefficients of Weideman's rational Faddeeva approximation."""
    m = 2 * n_terms
    k = np.arange(-m + 1, m)
    shift = math.sqrt(n_terms / math.sqrt(2.0))
    t = shift * np.tan(k * np.pi / (2 * m))
    f = np.exp(-t * t) * (shift * shift + t * t)
    f = np.concatenate(([0.0], f))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return shift, a[1 : n_terms + 1][::-1]


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coeffs(_WEIDEMAN_N)


def _w_weideman(zeta):
    """Faddeeva w on the upper half plane, rational approximation (|zeta| < 12)."""
    # 2 p(Z) / (L - i zeta)^2 + (1/sqrt(pi)) / (L - i zeta) for Z = (L + i zeta) / (L - i zeta)
    izeta = 1j * zeta
    denom = _WEIDEMAN_L - izeta
    big_z = (_WEIDEMAN_L + izeta) / denom
    p = np.full_like(big_z, _WEIDEMAN_A[0])
    for a in _WEIDEMAN_A[1:]:
        p = p * big_z + a
    return 2.0 * p / denom**2 + (1.0 / _SQRT_PI) / denom


def _cf_levels(zeta, r, top, bottom):
    """Levels top down to bottom + 1 of the Laplace continued fraction, in
    place on r: r = (n/2) / (zeta - r) for n = top, ..., bottom + 1."""
    for n in range(top, bottom, -1):
        np.subtract(zeta, r, out=r)
        np.divide(0.5 * n, r, out=r)
    return r


def _w_cf(zeta, modulus):
    """Faddeeva w by Laplace continued fraction (accurate for |zeta| >= 12).

    Every point takes the bottom _CF_FAR_DEPTH levels; only points inside
    _CF_FAR_RADIUS take the levels above them, up to _CF_DEPTH.
    """
    r = np.zeros_like(zeta)
    near = modulus < _CF_FAR_RADIUS
    if near.any():
        r[near] = _cf_levels(zeta[near], r[near], _CF_DEPTH, _CF_FAR_DEPTH)
    _cf_levels(zeta, r, _CF_FAR_DEPTH, 0)
    np.subtract(zeta, r, out=r)
    return np.divide(1j / _SQRT_PI, r, out=r)


def _faddeeva_upper(zeta):
    """w(zeta) for Im(zeta) >= 0; array valued."""
    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty_like(zeta)
    modulus = np.abs(zeta)
    big = modulus >= _CF_RADIUS
    if big.any():
        out[big] = _w_cf(zeta[big], modulus[big])
    if (~big).any():
        out[~big] = _w_weideman(zeta[~big])
    return out


def _erf_series(z):
    """Maclaurin series of erf for a complex array; well conditioned for |z| <= 2."""
    u = z * z
    p = np.full_like(u, _SERIES_COEFFS[0])
    for c in _SERIES_COEFFS[1:]:
        p = p * u + c
    return _TWO_OVER_SQRT_PI * z * p


def _erf_quadrant(x, y):
    """erf(x+iy) for x >= 0, y >= 0, |z| > 2, via 1 - exp(-z^2) w(iz)."""
    z = x + 1j * y
    return 1.0 - np.exp(-z * z) * _faddeeva_upper(1j * z)


def erf_real(x):
    """Real-axis error function: the C library's erf, element by element.

    An array gives a float array of the same shape; a scalar or 0-d array
    gives a Python float.  The coincidence-rate formula takes its window
    terms from here, and scaled_dip_term(x, 0) and erf_complex(x + 0j) call
    this same function, so the tau = 0 cancellation between window and dip
    is exact.
    """
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return out if out.ndim else float(out)


def erf_complex(z):
    """Error function of a complex argument.

    Accuracy is ~1e-13 relative or better away from the (isolated) complex
    zeros of erf.  Satisfies erf(-z) = -erf(z) and erf(conj z) = conj(erf z)
    exactly: erf is evaluated at (|x|, |y|) in the first quadrant, and one
    sign rule maps it back, the real part times sign(x) and the imaginary
    part times sign(y).  So the real part is exactly 0 at x = 0, where
    erf(iy) = i erfi(y).

    Raises OverflowError once |erf(z)| would exceed the double range
    (Im(z)^2 - Re(z)^2 > 708); callers that only need the damped combination
    exp(-Im(z)^2) * Re[erf(z)] should use scaled_dip_term instead.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("erf_complex requires a finite argument")
    x, y = z.real, z.imag
    if y * y - x * x > _OVERFLOW_LIMIT:
        raise OverflowError(
            "erf(z) exceeds the double-precision range for this argument; "
            "use scaled_dip_term for the damped combination"
        )
    if y == 0.0:
        return complex(erf_real(x), 0.0)
    ax, ay = abs(x), abs(y)
    if ax * ax + ay * ay <= 4.0:
        base = complex(_erf_series(np.asarray(complex(ax, ay))))
    else:
        with np.errstate(under="ignore"):
            base = complex(_erf_quadrant(np.asarray(ax), np.asarray(ay)))
    return complex(np.sign(x) * base.real, np.sign(y) * base.imag)


def scaled_dip_term(x, y):
    """exp(-y^2) * Re[erf(x + i*y)], finite and accurate for any finite x, y.

    Broadcasts over array input.  Identities honoured exactly:
    scaled_dip_term(x, 0) = erf(x) and scaled_dip_term(0, y) = 0.  Re erf is
    odd in x and even in y, so off the real axis the term is evaluated at
    (|x|, |y|) and multiplied by sign(x); at x = 0 that gives a zero of
    either sign.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scaled_dip_term requires finite arguments")
    x_b, y_b = (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)
    shape = x_b.shape
    x_b = x_b.reshape(-1)
    y_b = y_b.reshape(-1)
    out = np.empty(x_b.shape, dtype=float)

    ax = np.abs(x_b)
    ay = np.abs(y_b)
    on_axis = y_b == 0.0
    small = (ax * ax + ay * ay <= 4.0) & ~on_axis
    general = ~(on_axis | small)

    if on_axis.any():
        out[on_axis] = erf_real(x_b[on_axis])
    if small.any():
        with np.errstate(under="ignore"):
            val = _erf_series(ax[small] + 1j * ay[small]).real
            out[small] = np.sign(x_b[small]) * np.exp(-ay[small] ** 2) * val
    if general.any():
        xs, ys = ax[general], ay[general]
        with np.errstate(under="ignore"):
            w = _faddeeva_upper(-ys + 1j * xs)
            phase = 2.0 * xs * ys
            out[general] = np.sign(x_b[general]) * (np.exp(-ys * ys) - np.exp(-xs * xs) * (
                np.cos(phase) * w.real + np.sin(phase) * w.imag
            ))
    if shape == ():
        return float(out[0])
    return out.reshape(shape)
