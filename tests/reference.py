"""Reference functions that only the tests call.

Each checks a part of the package from outside its pipeline: the dispersed
difference amplitude that the oracle's rate density is checked against, erf
of a complex argument built on the kernel's own series and Faddeeva parts,
the size of the sinc-to-Gaussian stand-in, the windowed rate of the full
joint spectrum, which the difference-frequency model reduces, the
inversion of a fitted rho back to the crystal's group-index difference, and
the per-dataset rmsre that lm_fit reports.
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
    derive_gammas,
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


# 40-point Gauss-Legendre nodes and weights on [-1, 1]: jsa_rate's panels
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)
# a panel spans at most this many radians of the interference phase, or one
# width 1/sqrt(scale) of a Gaussian envelope
_PANEL_RADIANS = 40.0
# where a Gaussian envelope has fallen below exp(-45) ~ 3e-20 it is dropped
_NEGLIGIBLE_EXPONENT = 45.0


def _gauss_legendre(end, panels):
    """Nodes and weights of `panels` equal Gauss-Legendre panels over [0, end]."""
    half = 0.5 * end / panels
    centres = half * (2 * np.arange(panels) + 1.0)
    return (centres[:, None] + half * _GL_NODES).ravel(), np.tile(half * _GL_WEIGHTS, panels)


def joint_spectrum_scales(source, filt, channel: ChannelParams):
    """(S, D, kappa): the joint spectrum's rate density after the sum-time integral.

    The joint spectral amplitude is exp(-(1/2) W^T K W), W = (W_s, W_i).  K
    sums the pump exp(-(W_s + W_i)^2 / (4 sigma_p^2)), 1/(2 sigma_p^2) on
    every entry; the phase matching exp(-x^2/6) with x = (gamma_s W_s +
    gamma_i W_i) d/2, (d^2/12) gamma gamma^T; the filters exp(-W^2/(2s)),
    1/s on the diagonal; and the fiber's phase, i L beta2 on the diagonal.
    The time amplitude is A(t_s, t_i) ~ exp(-(1/2) t^T M t) with M = K^-1.
    With the idler delayed by tau, a splitter of
    reflectivity eta and clicks at t1 = t+ + t/2 and t2 = t+ - t/2, the
    density |eta A(t1, t2 - tau) - (1 - eta) A(t2, t1 - tau)|^2, integrated
    over t+ in closed form and divided by the pair total
    int int |A|^2 = pi / sqrt(det Re M), is

    c(tau, t) = sqrt(S/pi) [eta^2 exp(-S (t + tau)^2) + (1-eta)^2 exp(-S (t - tau)^2)
                - 2 eta (1-eta) exp(-S tau^2 - D t^2) cos(2 kappa tau t)].

    With e = (1, 1), f = (1/2, -1/2), alpha = e^T Re M e, mu = f^T M f and
    nu = e^T M f: S = Re mu - (Re nu)^2/alpha, D = Re mu + (Im nu)^2/alpha
    and kappa = Im mu - Re nu Im nu / alpha.  M is K0^-1 - w w^T/(2 sigma_p^2
    + e^T w), w = K0^-1 e, for K = K0 + e e^T/(2 sigma_p^2), so that nothing
    cancels as sigma_p -> 0.  There nu^2/alpha -> 0: D = S = rho'/2 and kappa
    is the chirp of the difference-frequency model, whose rate is the
    closed form.  Away from it the sum coordinate sets D apart from S.
    K without the pump must be invertible, as it is with a filter or a fiber.
    """
    if not source.pump_sigma_radps > 0:
        raise ValueError("pump_sigma_radps must be > 0")
    gamma = np.array(derive_gammas(source))
    fiber = channel.fiber_length_km * channel.beta2_ps2_per_km
    inverse = np.linalg.inv((source.crystal_length_mm**2 / 12.0) * np.outer(gamma, gamma)
                            + (1.0 / filter_variance(filt) + 1j * fiber) * np.eye(2))
    e, f = np.ones(2), np.array([0.5, -0.5])
    w = inverse @ e
    width = 2.0 * source.pump_sigma_radps**2
    m = inverse - np.outer(w, w) / (width + e @ w)
    alpha = (width * (e @ w) / (width + e @ w)).real
    mu = f @ m @ f
    nu = width * (w @ f) / (width + e @ w)
    return (mu.real - nu.real**2 / alpha, mu.real + nu.imag**2 / alpha,
            mu.imag - nu.real * nu.imag / alpha)


def jsa_rate(tau_ps, window_half_width_ps, eta, source, filt, channel: ChannelParams):
    """Windowed coincidence rate of the full Gaussian joint spectrum.

    The window integral of joint_spectrum_scales' density c(tau, t) over
    t in [-T, T].  Its two direct terms are equal there by t -> -t, and its
    cross term is even in t, so the rate is

    sqrt(S/pi) [(eta^2 + (1-eta)^2) int_0^T exp(-S (tau+t)^2) + exp(-S (tau-t)^2) dt
                - 4 eta (1-eta) exp(-S tau^2) int_0^T exp(-D t^2) cos(2 kappa tau t) dt],

    even in tau; each distinct |tau| is integrated once.  Both integrals are
    composite 40-point Gauss-Legendre, on panels no wider than one envelope
    width and, for the cross term, no wider than _PANEL_RADIANS of its phase
    2 kappa tau t, so a delay's panels grow with the chirp kappa |tau| T.
    The cross term is dropped where exp(-S tau^2) < exp(-45), and cut at
    the t where exp(-D t^2) falls as low.  In the CW limit it is the closed
    form's rate c = p + eta' q, the plateau's scale included.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    window_t = window_half_width_ps
    s, d, kappa = joint_spectrum_scales(source, filt, channel)
    magnitudes, back = np.unique(np.abs(np.asarray(tau_ps, dtype=float)), return_inverse=True)
    t, weights = _gauss_legendre(window_t, max(1, math.ceil(window_t * math.sqrt(s))))
    with np.errstate(under="ignore"):
        direct = (np.exp(-s * (magnitudes[:, None] + t) ** 2)
                  + np.exp(-s * (magnitudes[:, None] - t) ** 2)) @ weights
    cross = np.zeros_like(magnitudes)
    end = min(window_t, math.sqrt(_NEGLIGIBLE_EXPONENT / d))
    for i, tau in enumerate(magnitudes):
        if s * tau * tau >= _NEGLIGIBLE_EXPONENT:
            break
        phase = 2.0 * kappa * tau
        panels = max(1, math.ceil(end * math.sqrt(d)), math.ceil(abs(phase) * end / _PANEL_RADIANS))
        t, weights = _gauss_legendre(end, panels)
        with np.errstate(under="ignore"):
            cross[i] = math.exp(-s * tau * tau) * ((np.exp(-d * t * t) * np.cos(phase * t)) @ weights)
    rate = math.sqrt(s / math.pi) * (
        (eta * eta + (1.0 - eta) ** 2) * direct - 4.0 * eta * (1.0 - eta) * cross)
    return rate[back].reshape(np.shape(tau_ps))


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
