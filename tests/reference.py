"""Reference functions that only the tests call.

Each checks a part of the package from outside its pipeline: the dispersed
difference amplitude that the oracle's rate density is checked against, erf
of a complex argument built on the kernel's own series and Faddeeva parts,
the size of the sinc-to-Gaussian stand-in, the inversion of a fitted rho
back to the crystal's group-index difference, and the per-dataset rmsre
that lm_fit reports.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from disphom.erfkernel import _erf_series, _faddeeva_upper, erf_real
from disphom.model import (
    C_MM_PER_PS,
    ChannelParams,
    FilterConvention,
    FilterParams,
    broadened_rho,
    filter_variance,
)

# Overflow guard: |erf(x+iy)| ~ exp(y^2 - x^2) / (sqrt(pi) |z|) for large |y|.
_OVERFLOW_LIMIT = 708.0


def beta_minus_time(t_ps, rho, fiber_length_km, beta2_ps2_per_km):
    """Time-domain difference amplitude after dispersion (complex, unit L2 norm).

    The frequency-domain amplitude is a chirped Gaussian exp(-a w^2) with
    a = (1/rho + i L beta2)/2; its Fourier transform is proportional to
    a^(-1/2) exp(-t^2/(4a)).  Normalized so that the intensity integrates to
    one, which makes |amplitude|^2 = sqrt(rho'/pi) exp(-rho' t^2) with rho'
    the broadened width.
    """
    if not rho > 0:
        raise ValueError("rho must be > 0")
    t = np.asarray(t_ps, dtype=float)
    a = 0.5 * (1.0 / rho + 1j * fiber_length_km * beta2_ps2_per_km)
    rho_p = broadened_rho(rho, ChannelParams(fiber_length_km, beta2_ps2_per_km))
    norm = math.sqrt(abs(a)) * (rho_p / math.pi) ** 0.25
    with np.errstate(under="ignore"):
        amp = norm / np.sqrt(a) * np.exp(-t * t / (4.0 * a))
    if np.isscalar(t_ps):
        return complex(amp)
    return amp


def _erf_quadrant(x, y):
    """erf(x+iy) for x >= 0, y >= 0, |z| > 2, via 1 - exp(-z^2) w(iz)."""
    z = x + 1j * y
    return 1.0 - np.exp(-z * z) * _faddeeva_upper(1j * z)


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


def sinc_gaussian_check(x_values):
    """Deviation report for the small-argument Gaussian stand-in of sinc.

    Returns (max_deviation, x_at_max) of |sinc(x) - exp(-x^2/6)| over the
    given points.  The deviation grows like x^4/180 for small |x|: its
    maximum is 0.0050 over |x| <= 1 and 0.0223 over |x| <= 1.5.  The
    replacement is useless in the tails (hence the bandpass filter in the
    derivation).
    """
    x = np.asarray(x_values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x_values must be finite")
    sinc = np.sinc(x / np.pi)  # numpy sinc is sin(pi x)/(pi x)
    dev = np.abs(sinc - np.exp(-x * x / 6.0))
    i = int(dev.argmax())
    return float(dev[i]), float(x[i])


def group_index_bounds(rho, filt: FilterParams, crystal_length_mm) -> tuple[float, float]:
    """Invert a fitted rho back to |group-index difference| bounds.

    Removes the filter contribution for each matching convention
    (1/r = 1/rho - 1/s), converts r to |gamma_i - gamma_s| for the given
    crystal length, and applies the symmetric-phase-matching relation
    |dn_g| = c |gamma_i - gamma_s| / 2.  Returns the (low, high) pair for the
    two filter conventions.
    """
    if not rho > 0:
        raise ValueError("rho must be > 0")
    if not crystal_length_mm > 0:
        raise ValueError("crystal_length_mm must be > 0")
    bounds = []
    for convention in (FilterConvention.FIELD_LEVEL, FilterConvention.INTENSITY_LEVEL):
        s = filter_variance(replace(filt, convention=convention))
        if math.isfinite(s):
            if rho >= s:
                raise ValueError("filter narrower than fitted spectrum (rho >= s)")
            r = 1.0 / (1.0 / rho - 1.0 / s)
        else:
            r = rho
        gamma_diff = math.sqrt(24.0 / r) / crystal_length_mm
        bounds.append(C_MM_PER_PS * gamma_diff / 2.0)
    low, high = sorted(bounds)
    return low, high


def rmsre(residuals, data_values) -> float:
    """Root mean square relative error sqrt(mean (r/y)^2), zero bins excluded."""
    r = np.asarray(residuals, dtype=float)
    y = np.asarray(data_values, dtype=float)
    valid = y > 0
    if not valid.any():
        raise ValueError("no valid points: all data values are zero")
    ratio = r[valid] / y[valid]
    return float(np.sqrt(np.mean(ratio * ratio)))
