"""Stable evaluation of the complex error function and the damped dip kernel.

The windowed coincidence-rate formula multiplies exp(-rho*tau^2/2) by
Re[erf(x + i*y)] with y proportional to the delay tau.  Re[erf(x+iy)] grows
like exp(y^2), so the two factors overflow/underflow separately long before
their product leaves the representable range.  Everything here is organised
around the Faddeeva function w(z) = exp(-z^2) erfc(-iz), which is bounded on
the closed upper half plane, so that the physically relevant combination

    scaled_dip_term(x, y) = exp(-y^2) * Re[erf(x + i*y)]

stays finite and accurate for |y| up to 1e3 and beyond.

Evaluation regions (calibrated against a 60-digit reference):
  * |z| <= 2          Maclaurin series of erf (cancellation growth <= e^4).
  * 2 < |zeta| < 12   Weideman rational approximation of w (N = 48 terms,
                      max relative error ~1e-15 on the upper half plane).
  * |zeta| >= 12      Laplace continued fraction of w, 16 levels
                      (~3e-16 worst case).

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
    # 2 p(Z) / (L - i zeta)^2 + (1/sqrt(pi)) / (L - i zeta) for
    # Z = (L + i zeta) / (L - i zeta), reusing buffers wherever that gives
    # the same result bit for bit
    izeta = 1j * zeta
    denom = _WEIDEMAN_L - izeta
    big_z = np.add(_WEIDEMAN_L, izeta, out=izeta)
    big_z /= denom
    p = np.full_like(big_z, _WEIDEMAN_A[0])
    for a in _WEIDEMAN_A[1:]:
        # not p *= Z: numpy takes another loop for an in-place complex
        # product of a one-element array, which can differ in the last bit
        p = p * big_z
        p += a
    p *= 2.0
    p /= denom**2
    p += np.divide(1.0 / _SQRT_PI, denom, out=denom)
    return p


def _w_cf(zeta):
    """Faddeeva w by Laplace continued fraction (accurate for |zeta| >= 12)."""
    r = np.zeros_like(zeta)
    for n in range(_CF_DEPTH, 0, -1):
        # r = (n/2) / (zeta - r), in place
        np.subtract(zeta, r, out=r)
        np.divide(0.5 * n, r, out=r)
    np.subtract(zeta, r, out=r)
    return np.divide(1j / _SQRT_PI, r, out=r)


def _faddeeva_upper(zeta):
    """w(zeta) for Im(zeta) >= 0; array valued."""
    zeta = np.asarray(zeta, dtype=complex)
    out = np.empty_like(zeta)
    big = np.abs(zeta) >= _CF_RADIUS
    if big.any():
        out[big] = _w_cf(zeta[big])
    if (~big).any():
        out[~big] = _w_weideman(zeta[~big])
    return out


def _erf_series(z):
    """Maclaurin series of erf; only well conditioned for |z| <= 2.

    z is a float or complex array.  Float input is summed in float64: on the
    real axis that is the same arithmetic as the real part of the complex
    sum, bit for bit.
    """
    z = np.asarray(z)
    u = z * z
    p = np.full_like(u, _SERIES_COEFFS[0])
    for c in _SERIES_COEFFS[1:]:
        p = p * u  # not in place, as in _w_weideman
        p += c
    return _TWO_OVER_SQRT_PI * z * p


def _erf_quadrant(x, y):
    """erf(x+iy) for x > 0, y >= 0, |z| > 2, via 1 - exp(-z^2) w(iz)."""
    z = x + 1j * y
    return 1.0 - np.exp(-z * z) * _faddeeva_upper(1j * z)


def erf_real(x):
    """Real-axis error function, array valued; shares the kernel's code paths.

    Used by the coincidence-rate formula for its window terms so that the
    tau = 0 cancellation against scaled_dip_term(x, 0) is bit-exact.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= 2.0
    if small.any():
        out[small] = _erf_series(ax[small])
    if (~small).any():
        a = ax[~small]
        with np.errstate(under="ignore"):
            # w(i*a) is real and positive for real a; imaginary round-off discarded.
            out[~small] = 1.0 - np.exp(-a * a) * _faddeeva_upper(1j * a).real
    result = np.copysign(out, x) if out.ndim else math.copysign(float(out), float(x))
    return result


def erf_complex(z):
    """Error function of a complex argument.

    Accuracy is ~1e-13 relative or better away from the (isolated) complex
    zeros of erf.  Satisfies erf(-z) = -erf(z) and erf(conj z) = conj(erf z)
    exactly, by symmetry reduction to the first quadrant.

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
    elif x == 0.0:
        # Purely imaginary argument: erf(iy) = i*erfi(y); force exact purity.
        with np.errstate(under="ignore"):
            val = 1.0 - math.exp(ay * ay) * complex(_faddeeva_upper(np.asarray(-ay + 0j)))
        base = complex(0.0, -val.imag)
    else:
        with np.errstate(under="ignore"):
            base = complex(_erf_quadrant(np.asarray(ax), np.asarray(ay)))
    if x < 0.0:
        base = complex(-base.real, base.imag)
    if y < 0.0:
        base = base.conjugate()
    return base


def scaled_dip_term(x, y):
    """exp(-y^2) * Re[erf(x + i*y)], finite and accurate for any finite x, y.

    Broadcasts over array input.  Identities honoured exactly:
    scaled_dip_term(x, 0) = erf(x) and scaled_dip_term(0, y) = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scaled_dip_term requires finite arguments")
    x_b, y_b = np.broadcast_arrays(x, y)
    shape = x_b.shape
    x_b = x_b.reshape(-1)
    y_b = y_b.reshape(-1)
    out = np.empty(x_b.shape, dtype=float)

    ax = np.abs(x_b)
    ay = np.abs(y_b)
    on_axis = y_b == 0.0
    zero_x = x_b == 0.0
    small = (ax * ax + ay * ay <= 4.0) & ~on_axis & ~zero_x
    general = ~(on_axis | zero_x | small)

    if zero_x.any():
        out[zero_x] = 0.0
    axis_only = on_axis & ~zero_x
    if axis_only.any():
        out[axis_only] = erf_real(x_b[axis_only])
    if small.any():
        with np.errstate(under="ignore"):
            val = _erf_series(ax[small] + 1j * ay[small]).real
            out[small] = np.exp(-ay[small] ** 2) * val
            out[small] *= np.where(np.signbit(x_b[small]), -1.0, 1.0)
    if general.any():
        xs, ys = ax[general], ay[general]
        with np.errstate(under="ignore"):
            w = _faddeeva_upper(-ys + 1j * xs)
            phase = 2.0 * xs * ys
            out[general] = np.exp(-ys * ys) - np.exp(-xs * xs) * (
                np.cos(phase) * w.real + np.sin(phase) * w.imag
            )
        out[general] *= np.where(np.signbit(x_b[general]), -1.0, 1.0)
    if shape == ():
        return float(out[0])
    return out.reshape(shape)
