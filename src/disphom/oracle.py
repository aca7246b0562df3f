"""Brute-force numerical reference for the windowed coincidence rate.

Evaluates the time-resolved two-photon rate directly from the dispersed
difference amplitude and integrates it over the coincidence window with an
adaptive Simpson rule.  Exists to validate the closed-form model: it shares
no code with the closed form beyond the broadened-width helper used in its
own contracts.

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
from enum import Enum

import numpy as np

from .model import ChannelParams, broadened_rho


class QuadratureMethod(str, Enum):
    ADAPTIVE_SIMPSON = "adaptive-simpson"
    FIXED_SIMPSON = "fixed-simpson"


@dataclass(frozen=True)
class QuadratureSpec:
    """Integrator configuration.

    For the adaptive rule max_subdivisions is the dyadic refinement depth;
    for the fixed rule the panel count is 2**max_subdivisions.
    """

    method: QuadratureMethod = QuadratureMethod.ADAPTIVE_SIMPSON
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


def _simpson_panels(lo_edges, hi_edges, f_lo, f_mid, f_hi):
    width = hi_edges - lo_edges
    return width / 6.0 * (f_lo + 4.0 * f_mid + f_hi)


def _halves(first, second, keep):
    """The kept panels' left-half values, then their right-half values."""
    return np.concatenate([first[keep], second[keep]])


def _adaptive_simpson(f, lo, hi, abs_tol, rel_tol, max_levels, seeds=()):
    """Adaptive Simpson over [lo, hi]; level-synchronous, numpy-batched.

    Returns (integral, error_bound).  seeds are extra initial breakpoints:
    the error estimator only sees structure its nodes sample, so narrow
    features and fast oscillations must be resolved by the starting grid
    (a uniform grid can hit an integer panels-per-period resonance and
    silently alias an oscillatory integrand).  The oracle integrates the
    folded density over [0, T], so its seeds cover one bump, at sigma =
    |tau|, and the chirp on [0, T] only; the mirror-image bump and chirp
    at negative sigma are folded onto them.

    Each level evaluates f at the quarter points of the open panels only:
    a panel's halves, as Simpson sums, become the next level's coarse sums,
    and the accepted panels' integral and bound are kept as running sums.
    The initial grid's nodes are evaluated once, shared endpoints included.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float)).ravel()
    grid = np.unique(np.concatenate([np.linspace(lo, hi, 65), seeds[(lo < seeds) & (seeds < hi)]]))
    f_grid = f(grid)
    a, b = grid[:-1], grid[1:]
    fa, fb = f_grid[:-1], f_grid[1:]
    m = 0.5 * (a + b)
    fm = f(m)
    coarse = _simpson_panels(a, b, fa, fm, fb)

    total_width = hi - lo
    integral = 0.0
    bound = 0.0
    estimate = float(np.sum(coarse))
    for _level in range(max_levels):
        ml = 0.5 * (a + m)
        mr = 0.5 * (m + b)
        fml = f(ml)
        fmr = f(mr)
        left = _simpson_panels(a, m, fa, fml, fm)
        right = _simpson_panels(m, b, fm, fmr, fb)
        fine = left + right
        err = np.abs(fine - coarse) / 15.0
        tol = max(abs_tol, rel_tol * abs(estimate)) * (b - a) / total_width
        done = err <= tol
        if done.any():
            integral += float(np.sum(fine[done] + (fine[done] - coarse[done]) / 15.0))
            bound += float(np.sum(err[done]))
        keep = ~done
        if not keep.any():
            return integral, bound
        a, m, b = _halves(a, m, keep), _halves(ml, mr, keep), _halves(m, b, keep)
        fa, fm, fb = _halves(fa, fm, keep), _halves(fml, fmr, keep), _halves(fm, fb, keep)
        coarse = _halves(left, right, keep)
        estimate = integral + float(np.sum(coarse))

    raise QuadratureError(
        f"quadrature did not converge within {max_levels} subdivision levels",
        estimate,
        bound + float(np.sum(np.abs(coarse))),
    )


def _fixed_simpson(f, lo, hi, abs_tol, rel_tol, depth):
    """Composite Simpson with 2**depth panels plus a halved-step error check."""
    n = 2 ** min(depth, 22)
    grid = np.linspace(lo, hi, 2 * n + 1)
    fv = f(grid)
    h = (hi - lo) / (2 * n)
    fine = h / 3.0 * (fv[0] + fv[-1] + 4.0 * np.sum(fv[1::2]) + 2.0 * np.sum(fv[2:-1:2]))
    coarse = (2 * h) / 3.0 * (
        fv[0] + fv[-1] + 4.0 * np.sum(fv[2::4]) + 2.0 * np.sum(fv[4:-1:4])
    )
    bound = abs(fine - coarse) / 15.0
    if bound > max(abs_tol, rel_tol * abs(fine)):
        raise QuadratureError(
            f"fixed Simpson with {n} panels did not reach tolerance", float(fine), float(bound)
        )
    return float(fine), float(bound)


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
    # is 2|tau| |k|.  Both must be resolved by the initial grid.
    k = _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km)
    rho_p = broadened_rho(rho, ChannelParams(fiber_length_km, beta2_ps2_per_km))
    if not rho_p > 0:
        raise ValueError("rho_prime must be > 0 (L beta2 rho too large)")
    bump_width = 1.0 / math.sqrt(rho_p)

    def _initial_seeds(t):
        seeds = [t + bump_width * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])]
        wavenumber = 2.0 * t * abs(k)
        # where the interference envelope exp(-rho'(t^2+sigma^2)/2) still matters
        cross_exponent = 0.5 * rho_p * t * t
        if wavenumber > 0.0 and cross_exponent < 50.0:
            sigma_cut = math.sqrt(2.0 * (50.0 - cross_exponent) / rho_p)
            half_span = min(window_t, sigma_cut)
            # ~6.1 nodes per oscillation period; non-integer to avoid resonance
            step = 2.0 * math.pi / (wavenumber * 6.1)
            count = int(min(half_span / step, 1e5))
            if count > 1:
                seeds.append(np.linspace(0.0, half_span, count))
        return np.concatenate(seeds)

    def one(t):
        def integrand(sigma):
            return _folded_rate(t, sigma, eta, rho_p, k)

        if spec.method is QuadratureMethod.ADAPTIVE_SIMPSON:
            value, _ = _adaptive_simpson(
                integrand,
                0.0,
                window_t,
                spec.abs_tol,
                spec.rel_tol,
                spec.max_subdivisions,
                seeds=_initial_seeds(t),
            )
        else:
            value, _ = _fixed_simpson(
                integrand, 0.0, window_t, spec.abs_tol, spec.rel_tol, spec.max_subdivisions
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
