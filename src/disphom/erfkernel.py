"""Stable evaluation of the complex error function and the damped dip kernel.

The windowed coincidence-rate formula multiplies exp(-rho*tau^2/2) by
Re[erf(x + i*y)] with y proportional to the delay tau.  Re[erf(x+iy)] grows
like exp(y^2), so the two factors overflow/underflow separately long before
their product leaves the representable range.  Everything here is organised
around the Faddeeva function w(z) = exp(-z^2) erfc(-iz), which is bounded on
the closed upper half plane, so that the physically relevant combination

    scaled_dip_term(x, y) = exp(-y^2) * Re[erf(x + i*y)]

stays finite and accurate for |y| up to 1e3 and beyond.

On the real axis erf_real sums, for a whole array at once, the 6-term
Taylor polynomial of erf about the nearest of the nodes k/256 on [0, 6],
from a table built at import; the C library's math.erf supplies only the
values at the nodes.  It stays within 2 ulp of erf (at most 1.39 ulp
measured).  Off the real axis the evaluation regions are (calibrated
against a 60-digit reference):
  * |z| <= 2          Maclaurin series of erf (cancellation growth <= e^4).
  * 2 < |zeta| < 66   Weideman rational approximation of w (N = 48 terms,
                      max relative error ~1e-15 on the upper half plane;
                      4e-16 against 30-digit mpmath on 12 <= |zeta| < 66).
  * |zeta| >= 66      Laplace continued fraction of w, 6 levels.  From
                      |zeta| = 66 on they give the 16-level fraction's value
                      (~3e-16 worst case) bit for bit; below 66 the two
                      start to differ in the last bit.

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

# erf_real's table: at the nodes x0 = k/_ERF_NODES_PER_UNIT on [0, _ERF_SATURATION]
# the Taylor coefficients erf^(j)(x0)/j! for j < _ERF_TERMS.  With |x - x0| at
# most 1/512 the first term left out stays below 1e-17 of erf(x).  128 nodes
# per unit with 7 terms cost one more gather and reached 1.99 ulp near
# x = 0.0044, where erf(x0) and the Taylor tail cancel by about half.
_ERF_NODES_PER_UNIT = 256  # a power of two: x0 and h = x - x0 are exact
_ERF_TERMS = 6
_ERF_SATURATION = 6.0  # from here on erf(x) rounds to 1


def _erf_taylor_table():
    """Rows j = 0 .. _ERF_TERMS - 1 of erf^(j)(x0)/j! at every node x0.

    Row 0 is math.erf(x0).  For j >= 1, erf^(j)(x0) =
    (2/sqrt(pi)) (-1)^(j-1) H_(j-1)(x0) exp(-x0^2), with the physicists'
    Hermite polynomials from H_(n+1) = 2x H_n - 2n H_(n-1).
    """
    x0 = np.arange(round(_ERF_SATURATION * _ERF_NODES_PER_UNIT) + 1) / _ERF_NODES_PER_UNIT
    table = np.empty((_ERF_TERMS, x0.size))
    table[0] = [math.erf(v) for v in x0.tolist()]
    gauss = _TWO_OVER_SQRT_PI * np.exp(-x0 * x0)
    hermite_prev, hermite = np.zeros_like(x0), np.ones_like(x0)
    for j in range(1, _ERF_TERMS):
        table[j] = (-1) ** (j - 1) * gauss * hermite / math.factorial(j)
        hermite_prev, hermite = hermite, 2.0 * x0 * hermite - 2.0 * (j - 1) * hermite_prev
    return table


_ERF_TABLE = _erf_taylor_table()

_WEIDEMAN_N = 48
# From _CF_RADIUS on, 6 levels of the continued fraction give the same
# doubles as 16.  Of random upper-half-plane points, none differed among 3e7
# in [66, 100), 3e7 in [100, 200) and 3e6 in each of [100, 1e3), [1e3, 1e4)
# and [1e4, 1e8); in [50, 66) about one in a million does (the largest at
# |zeta| = 65.6), so the radius is 66 and Weideman's form serves below it.
_CF_RADIUS = 66.0
_CF_DEPTH = 6


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
    """Faddeeva w on the upper half plane, rational approximation (|zeta| < 66)."""
    # 2 p(Z) / (L - i zeta)^2 + (1/sqrt(pi)) / (L - i zeta) for Z = (L + i zeta) / (L - i zeta)
    izeta = 1j * zeta
    denom = _WEIDEMAN_L - izeta
    big_z = (_WEIDEMAN_L + izeta) / denom
    p = np.full_like(big_z, _WEIDEMAN_A[0])
    for a in _WEIDEMAN_A[1:]:
        p = p * big_z + a
    return 2.0 * p / denom**2 + (1.0 / _SQRT_PI) / denom


def _w_cf(zeta):
    """Faddeeva w by the Laplace continued fraction at _CF_DEPTH levels
    (|zeta| >= _CF_RADIUS, where it gives the 16-level value bit for bit)."""
    r = np.zeros_like(zeta)
    for n in range(_CF_DEPTH, 0, -1):
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
    """Maclaurin series of erf for a complex array; well conditioned for |z| <= 2."""
    u = z * z
    p = np.full_like(u, _SERIES_COEFFS[0])
    for c in _SERIES_COEFFS[1:]:
        p = p * u + c
    return _TWO_OVER_SQRT_PI * z * p


def erf_real(x):
    """Real-axis error function from a table of Taylor coefficients.

    |x| is clipped to 6 and rounded to its nearest node x0 = k/256; the
    6-term Taylor polynomial at x0 is summed by Horner's rule in the exact
    h = |x| - x0 (|h| <= 1/512) and takes the sign of x.  So erf is exactly
    odd, -0.0 gives -0.0, NaN gives NaN, and from |x| = 6 on the result is
    exactly +-1.  Against 40-digit mpmath the error was at most 1.39 ulp,
    over 20 000 uniform points in [0, 6], the nodes, the points halfway
    between them and 1 ulp either side, and the test suite's points; the C
    library's math.erf, which supplies the values at the nodes, reached
    0.96 ulp on the same points.

    Every step is one correctly rounded operation on each element alone, so
    a value does not depend on the array it came in.  An array gives a float
    array of the same shape; a scalar or 0-d array gives a Python float.
    The coincidence-rate formula takes its window terms from here, and
    scaled_dip_term(x, 0) calls this same function, so the tau = 0
    cancellation between window and dip is exact.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    a = np.minimum(np.abs(flat), _ERF_SATURATION)
    # np.fmin sends a NaN to the last node, where its h stays NaN
    node = np.rint(np.fmin(a * _ERF_NODES_PER_UNIT, _ERF_SATURATION * _ERF_NODES_PER_UNIT))
    h = a - node * (1.0 / _ERF_NODES_PER_UNIT)
    index = node.astype(np.intp)
    out = _ERF_TABLE[-1].take(index)
    for row in _ERF_TABLE[-2::-1]:
        out *= h
        out += row.take(index)
    np.copysign(out, flat, out=out)
    return out.reshape(x.shape) if x.ndim else float(out[0])


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
