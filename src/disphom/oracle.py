"""Brute-force numerical reference for the windowed coincidence rate.

Evaluates the time-resolved two-photon rate directly from the dispersed
difference amplitude and integrates it over the coincidence window with an
adaptive Gauss-Kronrod (G7-K15) rule.  Exists to validate the closed-form
model: it shares no code with the closed form beyond the broadened-width
helper used in its own contracts.

Two exact symmetries halve the work.  Mirroring sigma swaps the splitter
arms, c(tau, -sigma; eta) = c(tau, sigma; 1 - eta), so the integral over
the symmetric window [-T, T] is the integral over [0, T] of the folded
density c(tau, sigma) + c(tau, -sigma), which holds one bump (at
sigma = |tau|) where the unfolded density holds two.  The folded density
depends on tau through |tau| alone, so the windowed rate is even in tau and
each distinct |tau| of a grid is integrated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, broadened_rho


@dataclass(frozen=True)
class QuadratureSpec:
    """Configuration of the adaptive Gauss-Kronrod (G7-K15) integrator.

    max_subdivisions is the number of bisection levels a panel may go through.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 24

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot reach the requested tolerance.

    Carries the achieved estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def max_workers() -> int:
    """Threads the oracle uses: one, as delays are integrated one after another.

    perfbench records this figure with every run."""
    return 1


def _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km):
    """k = Im(1/(4a)), a as in beta_minus_time: the amplitude's phase is -k t^2."""
    return (0.5 / (1.0 / rho + 1j * fiber_length_km * beta2_ps2_per_km)).imag


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


def differential_rate(tau_ps, sigma_ps, eta, rho, fiber_length_km, beta2_ps2_per_km):
    """Time-resolved rate density c(tau, sigma) before the window integral.

    c(tau, sigma) = (1/sqrt(2)) |eta b((tau+sigma)/sqrt2) - (1-eta) b((tau-sigma)/sqrt2)|^2,
    with b the unit-normalized difference amplitude; the sum-coordinate
    intensity integral is unity and is absorbed.  As b(t) is
    (rho'/pi)^(1/4) exp(-rho' t^2/2 - i k t^2) times a constant phase, the
    square is expanded in real arithmetic; cos(2 k tau sigma) carries the
    interference.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    rho_p = broadened_rho(rho, ChannelParams(fiber_length_km, beta2_ps2_per_km))
    k = _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km)
    tau = np.asarray(tau_ps, dtype=float)
    sigma = np.asarray(sigma_ps, dtype=float)
    half = 0.5 * rho_p
    with np.errstate(under="ignore"):
        out = (
            (eta * eta) * np.exp(-half * (tau + sigma) ** 2)
            + ((1.0 - eta) * (1.0 - eta)) * np.exp(-half * (tau - sigma) ** 2)
            - (2.0 * eta * (1.0 - eta))
            * np.exp(-half * (tau * tau + sigma * sigma))
            * np.cos(2.0 * k * tau * sigma)
        )
        out *= math.sqrt(rho_p / (2.0 * math.pi))
    if np.isscalar(tau_ps) and np.isscalar(sigma_ps):
        return float(out)
    return out


def _folded_rate(t, sigma, eta, rho_p, k):
    """c(t, sigma) + c(t, -sigma) for t, sigma >= 0: the folded window integrand.

    rho_p is the broadened width and k the chirp wavenumber.  With
    u = exp(-rho' t sigma) <= 1 the sum is
    sqrt(rho'/2pi) exp(-rho' (t - sigma)^2 / 2)
    * [(eta^2 + (1-eta)^2)(1 + u^2) - 4 eta (1-eta) u cos(2 k t sigma)];
    for non-negative t and sigma no factor can overflow (a cosh form would,
    as rho' t sigma reaches ~1e6 without dispersion).
    """
    with np.errstate(under="ignore"):
        u = np.exp(-rho_p * t * sigma)
        out = np.exp(-0.5 * rho_p * (t - sigma) ** 2) * (
            (eta * eta + (1.0 - eta) * (1.0 - eta)) * (1.0 + u * u)
            - (4.0 * eta * (1.0 - eta)) * u * np.cos(2.0 * k * t * sigma)
        )
    out *= math.sqrt(rho_p / (2.0 * math.pi))
    return out


# Gauss-Kronrod G7-K15 on [-1, 1] (QUADPACK's qk15): the Kronrod nodes in
# ascending order, the K15 weights, and K15 minus G7, whose sum is the
# rule's error estimate (G7 uses every second node; its weight is 0 elsewhere).
_GK_HALF_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_K15_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_G7_HALF = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_GK_NODES = np.concatenate([-_GK_HALF_NODES[:-1], _GK_HALF_NODES[::-1]])
_K15 = np.concatenate([_K15_HALF[:-1], _K15_HALF[::-1]])
_K15_MINUS_G7 = _K15 - np.concatenate([_G7_HALF[:-1], _G7_HALF[::-1]])
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


def _gauss_kronrod(f, breakpoints, abs_tol, rel_tol, max_levels):
    """Adaptive G7-K15 over [breakpoints[0], breakpoints[-1]]; level-synchronous.

    Returns (integral, error_bound).  The panels between the sorted
    breakpoints are the starting grid: the error estimator only sees
    structure its nodes sample, so narrow features and fast oscillations
    must be resolved by the breakpoints.  Each level evaluates f once on an
    (open panels x 15) node array.  A panel is accepted once
    |K15 - G7| <= max(abs_tol, rel_tol |estimate|) (width / span), or once
    |K15 - G7| is at the rounding floor of the panel's own K15 sum,
    50 eps |K15|: a panel far narrower than the span, as a bump's in a wide
    window, is given a share of the tolerance below that floor, and
    bisecting it would not lower its error.  QUADPACK's floor takes the
    integral of |f| in place of |K15|; the two agree for the non-negative
    rate, and |K15| is never the larger.  The rest are bisected, at most
    max_levels times.
    """
    a, b = breakpoints[:-1], breakpoints[1:]
    span = breakpoints[-1] - breakpoints[0]
    integral = 0.0
    bound = 0.0
    for level in range(max_levels + 1):
        centre = 0.5 * (a + b)
        half = 0.5 * (b - a)
        values = f(centre[:, None] + half[:, None] * _GK_NODES)
        kronrod = half * (values @ _K15)
        err = np.abs(half * (values @ _K15_MINUS_G7))
        estimate = integral + float(np.sum(kronrod))
        share = half * (2.0 * max(abs_tol, rel_tol * abs(estimate)) / span)
        done = err <= np.maximum(share, _ROUNDING_FLOOR * np.abs(kronrod))
        integral += float(np.sum(kronrod[done]))
        bound += float(np.sum(err[done]))
        keep = ~done
        if not keep.any():
            return integral, bound
        if level < max_levels:
            mid = centre[keep]
            a, b = np.concatenate([a[keep], mid]), np.concatenate([mid, b[keep]])

    raise QuadratureError(
        f"quadrature did not converge within {max_levels} subdivision levels",
        estimate,
        bound + float(np.sum(err[keep])),
    )


def windowed_rate_numeric(
    tau_ps,
    window_half_width_ps,
    eta,
    rho,
    fiber_length_km,
    beta2_ps2_per_km,
    spec: QuadratureSpec | None = None,
):
    """Window integral of the time-resolved rate: c(tau) = int_{-T}^{T} c(tau, s) ds.

    Computed as the integral over [0, T] of the folded density
    c(|tau|, s) + c(|tau|, -s), which equals the symmetric-window integral
    because c(tau, -s; eta) = c(tau, s; 1 - eta).  The result is even in
    tau, bit for bit: tau_ps may be a scalar or a grid, and each distinct
    |tau| is integrated once and scattered back in the input's shape.
    Matches the closed-form rate up to one global positive scale (which is
    unity for this normalization).
    """
    if not (math.isfinite(window_half_width_ps) and window_half_width_ps > 0):
        raise ValueError("window half-width T must be finite and > 0")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    inputs = (("rho", rho), ("fiber length", fiber_length_km), ("beta2", beta2_ps2_per_km))
    for name, value in inputs:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    tau = np.asarray(tau_ps, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("tau must be finite")
    spec = spec or QuadratureSpec()
    window_t = float(window_half_width_ps)

    # Feature scales of the folded integrand: the pair-amplitude intensity
    # has a bump of width 1/sqrt(rho') centered at sigma = |tau|, and the
    # interference term carries a chirp phase whose local wavenumber in sigma
    # is 2|tau| |k|.  The initial panels over [0, T] are cut only at the
    # bump's seeds and on the chirp grid; the adaptive rule refines the rest.
    # The seeds reach 8 widths out, so that the bump's tails hold nodes even
    # where the window is far wider than the bump.
    # rho' first: it refuses a rho <= 0, at which the chirp wavenumber divides by 0
    rho_p = broadened_rho(rho, ChannelParams(fiber_length_km, beta2_ps2_per_km))
    if not rho_p > 0:
        raise ValueError("rho_prime must be > 0 (L beta2 rho too large)")
    k = _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km)
    bump_width = 1.0 / math.sqrt(rho_p)

    def _breakpoints(t):
        seeds = [t + bump_width * np.array([-8.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 8.0])]
        wavenumber = 2.0 * t * abs(k)
        # where the interference envelope exp(-rho'(t^2+sigma^2)/2) still matters
        cross_exponent = 0.5 * rho_p * t * t
        if wavenumber > 0.0 and cross_exponent < 50.0:
            sigma_cut = math.sqrt(2.0 * (50.0 - cross_exponent) / rho_p)
            half_span = min(window_t, sigma_cut)
            # ~1.1 panels per oscillation period; non-integer to avoid resonance
            step = 2.0 * math.pi / (wavenumber * 1.1)
            count = int(min(half_span / step, 1e5))
            if count > 1:
                seeds.append(np.linspace(0.0, half_span, count))
        seeds = np.concatenate(seeds)
        inside = seeds[(0.0 < seeds) & (seeds < window_t)]
        return np.unique(np.concatenate([[0.0, window_t], inside]))

    def one(t):
        value, _ = _gauss_kronrod(
            lambda sigma: _folded_rate(t, sigma, eta, rho_p, k),
            _breakpoints(t), spec.abs_tol, spec.rel_tol, spec.max_subdivisions,
        )
        return value

    distinct, inverse = np.unique(np.abs(tau), return_inverse=True)
    values = np.array([one(t) for t in distinct.tolist()], dtype=float)
    out = values[inverse].reshape(tau.shape)
    if np.isscalar(tau_ps):
        return float(out)
    return out


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
