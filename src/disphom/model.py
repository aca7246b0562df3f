"""Domain types, the crystal-to-spectrum derivation chain, the closed-form
windowed coincidence rate, and curve analyzers (dip FWHM, side-lobe period,
group-index inversion).

Unit system: times in ps, angular frequencies in rad/ps, spectral variance
scales (rho, r, s) in ps^-2, fiber dispersion beta2 in ps^2/km, fiber length
in km, crystal length in mm.  With these choices L*beta2*rho is
dimensionless.  External interfaces carry explicit unit suffixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .erfkernel import erf_real, scaled_dip_term

C_MM_PER_PS = 0.299792458
"""Vacuum speed of light in mm/ps."""

C_NM_PER_PS = 299792.458
"""Vacuum speed of light in nm/ps."""

EPM_REL_TOL = 0.15
"""check_epm's tolerance on the relative mismatch; a real ppKTP source with
mismatch ~0.12 still counts as approximately phase matched."""


class FilterConvention(str, Enum):
    """How the quoted (rectangular) bandpass width maps onto the Gaussian model.

    FIELD_LEVEL matches the quoted FWHM to the Gaussian field amplitude,
    INTENSITY_LEVEL to the field squared; the resulting variance scales
    differ by exactly a factor of two.
    """

    FIELD_LEVEL = "field"
    INTENSITY_LEVEL = "intensity"


@dataclass(frozen=True)
class SourceParams:
    """Crystal and pump description.

    delta_ng_* are dimensionless group-index differences between pump and
    signal/idler; poling_period_um is metadata only (phase matching is taken
    as zeroed at degeneracy).
    """

    delta_ng_signal: float
    delta_ng_idler: float
    crystal_length_mm: float
    pump_wavelength_nm: float
    pump_sigma_radps: float
    poling_period_um: float = 0.0

    def __post_init__(self):
        if not self.crystal_length_mm > 0:
            raise ValueError("crystal_length_mm must be > 0")
        if not self.pump_wavelength_nm > 0:
            raise ValueError("pump_wavelength_nm must be > 0")
        if self.pump_sigma_radps < 0:
            raise ValueError("pump_sigma_radps must be >= 0")


@dataclass(frozen=True)
class FilterParams:
    """Gaussian-model bandpass filter; fwhm_nm = inf means no filter."""

    center_wavelength_nm: float
    fwhm_nm: float
    convention: FilterConvention = FilterConvention.FIELD_LEVEL

    def __post_init__(self):
        if not self.fwhm_nm > 0:
            raise ValueError("fwhm_nm must be > 0")
        if not self.center_wavelength_nm > 0:
            raise ValueError("center_wavelength_nm must be > 0")
        # accept the plain strings "field" / "intensity" from JSON configs
        object.__setattr__(self, "convention", FilterConvention(self.convention))


@dataclass(frozen=True)
class ChannelParams:
    """Dispersive fiber link; both polarization modes share beta2."""

    fiber_length_km: float
    beta2_ps2_per_km: float

    def __post_init__(self):
        if self.fiber_length_km < 0:
            raise ValueError("fiber_length_km must be >= 0")


@dataclass(frozen=True)
class DerivedSpectral:
    """Spectral quantities derived from crystal, pump and filter.

    gamma_* in ps/mm, sigma_pm in rad/ps, r / r_p / s / rho in ps^-2.
    sigma_pm and the gamma_tilde pair are infinite in the exact
    extended-phase-matching limit (gamma_idler == -gamma_signal); r and rho
    remain valid there.
    """

    gamma_signal: float
    gamma_idler: float
    gamma_tilde_signal: float
    gamma_tilde_idler: float
    sigma_pm: float
    r: float
    r_p: float
    s: float
    rho: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be > 0")
        if not self.s > 0:
            raise ValueError("s must be > 0")
        if not self.rho > 0:
            raise ValueError("rho must be > 0")
        if self.rho > min(self.r, self.s) * (1 + 1e-12):
            raise ValueError("rho must not exceed min(r, s)")
        if math.isfinite(self.gamma_tilde_signal) and math.isfinite(self.gamma_tilde_idler):
            if abs(self.gamma_tilde_signal + self.gamma_tilde_idler - 2.0) > 1e-9:
                raise ValueError("gamma_tilde values must sum to 2")


@dataclass
class HomCurve:
    """A sampled coincidence curve: strictly increasing delays + rates/counts."""

    tau_ps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.tau_ps = np.asarray(self.tau_ps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.tau_ps.ndim != 1 or self.values.ndim != 1:
            raise ValueError("tau_ps and values must be one-dimensional")
        if self.tau_ps.shape != self.values.shape:
            raise ValueError("tau_ps and values must have equal length")
        if not (np.isfinite(self.tau_ps).all() and np.isfinite(self.values).all()):
            raise ValueError("curve samples must be finite")
        if self.tau_ps.size > 1 and not (np.diff(self.tau_ps) > 0).all():
            raise ValueError("tau_ps must be strictly increasing")
        if (self.values < 0).any():
            raise ValueError("curve values must be nonnegative")

    def __len__(self):
        return self.tau_ps.size


@dataclass
class Dataset:
    """One measured or synthetic coincidence curve plus its configuration."""

    curve: HomCurve
    window_half_width_ps: float
    fiber_length_km: float
    label: str = ""

    def __post_init__(self):
        if not 0 < self.window_half_width_ps < math.inf:
            raise ValueError("window_half_width_ps must be finite and > 0")
        if not 0 <= self.fiber_length_km < math.inf:
            raise ValueError("fiber_length_km must be finite and >= 0")


class EpmCheck(NamedTuple):
    mismatch: float
    within_tolerance: bool


class FwhmResult(NamedTuple):
    fwhm_ps: float
    baseline: float
    minimum: float
    left_crossing_ps: float
    right_crossing_ps: float


def derive_gammas(source: SourceParams) -> tuple[float, float]:
    """Group-delay mismatch rates (ps/mm) from the group-index differences."""
    return (
        source.delta_ng_signal / C_MM_PER_PS,
        source.delta_ng_idler / C_MM_PER_PS,
    )


def check_epm(gamma_signal, gamma_idler) -> EpmCheck:
    """Extended-phase-matching check: how far gamma_idler is from -gamma_signal.

    Returns the relative mismatch |gamma_i + gamma_s| / max(|gamma_i|, |gamma_s|)
    and whether it is within EPM_REL_TOL.
    """
    scale = max(abs(gamma_signal), abs(gamma_idler))
    if scale == 0.0:
        raise ValueError("degenerate phase matching: both gammas are zero")
    mismatch = abs(gamma_idler + gamma_signal) / scale
    return EpmCheck(mismatch, mismatch <= EPM_REL_TOL)


def filter_variance(filt: FilterParams) -> float:
    """Gaussian variance scale s (ps^-2) matching the quoted filter width.

    The quoted FWHM (nm) at the center wavelength converts to an angular
    frequency width dw = 2*pi*c*dl/lambda^2 (rad/ps); the field-level
    convention gives s = dw^2/(8 ln 2), the intensity-level one twice that.
    """
    d_omega = 2.0 * math.pi * C_NM_PER_PS * filt.fwhm_nm / filt.center_wavelength_nm**2
    if filt.convention is FilterConvention.FIELD_LEVEL:
        return d_omega**2 / (8.0 * math.log(2.0))
    return d_omega**2 / (4.0 * math.log(2.0))


def derive_spectral(source: SourceParams, filt: FilterParams) -> DerivedSpectral:
    """Full derivation chain from crystal/pump/filter to the spectral scales.

    Raises if gamma_idler == gamma_signal (difference bandwidth degenerate).
    In the exact EPM limit gamma_idler == -gamma_signal the sum-coordinate
    quantities sigma_pm and gamma_tilde are flagged infinite while r and rho
    stay valid.
    """
    gamma_s, gamma_i = derive_gammas(source)
    d = source.crystal_length_mm
    if gamma_i == gamma_s:
        raise ValueError("r undefined (degenerate difference bandwidth)")
    gamma_sum = gamma_i + gamma_s
    if gamma_sum == 0.0:
        sigma_pm = math.inf
        gt_i = math.copysign(math.inf, gamma_i)
        gt_s = math.copysign(math.inf, gamma_s)
    else:
        sigma_pm = 4.0 * math.sqrt(6.0) / (gamma_sum * d)
        gt_i = 2.0 * gamma_i / gamma_sum
        gt_s = 2.0 * gamma_s / gamma_sum
    r = 24.0 / ((gamma_i - gamma_s) * d) ** 2
    r_p = source.pump_sigma_radps**2 / 4.0
    s = filter_variance(filt)
    rho = 1.0 / (1.0 / r + 1.0 / s) if math.isfinite(s) else r
    return DerivedSpectral(
        gamma_signal=gamma_s,
        gamma_idler=gamma_i,
        gamma_tilde_signal=gt_s,
        gamma_tilde_idler=gt_i,
        sigma_pm=sigma_pm,
        r=r,
        r_p=r_p,
        s=s,
        rho=rho,
    )


def broadened_rho(rho: float, channel: ChannelParams) -> float:
    """Difference-frequency variance scale after dispersive propagation.

    rho' = rho / (1 + (L*beta2*rho)^2); equals rho iff L*beta2 == 0.
    """
    if not rho > 0:
        raise ValueError("rho must be > 0")
    chirp = channel.fiber_length_km * channel.beta2_ps2_per_km * rho
    return rho / (1.0 + chirp * chirp)


def canonical_eta(eta: float) -> float:
    """Fold eta onto the identifiable representative in [1/2, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    return max(eta, 1.0 - eta)


def eta_prime(eta: float) -> float:
    """Splitter visibility constant (2*eta - 1)^2, symmetric about 1/2.

    eta is folded by canonical_eta first, so eta and 1 - eta give the same
    value bit for bit.
    """
    return (2.0 * canonical_eta(eta) - 1.0) ** 2


def _check_rate_params(rho, rho_prime, window_t):
    """Scalars or arrays; every element must satisfy each condition."""
    if not np.greater(rho_prime, 0).all():
        raise ValueError("rho_prime must be > 0")
    if np.less(rho, rho_prime).any():
        raise ValueError("rho must be >= rho_prime")
    if not np.greater(window_t, 0).all():
        raise ValueError("window half-width T must be > 0")


def coincidence_parts(tau_grid_ps, rho, rho_prime, window_half_width_ps):
    """The windowed coincidence rate c = p + eta' q as its two parts, one array (p, q).

    With the erf window sum
    A = erf(sqrt(rho'/2)(T+tau)) + erf(sqrt(rho'/2)(T-tau)) and the
    enveloped dip term
    B = exp(-rho tau^2/2) Re erf(sqrt(rho'/2) T + i sqrt((rho-rho')/2) tau),
    the rate is (1+eta')/4 A - (1-eta')/2 B, so p = A/4 - B/2 and
    q = A/4 + B/2, and one model pass serves every eta'.  B is evaluated
    through the damped kernel, so the bounded product never overflows.
    This is the only statement of the rate; coincidence_curve and the fit's
    FitProblem evaluate it.

    rho_prime and window_half_width_ps may be per-point arrays that
    broadcast against the delays, so that several datasets' grids,
    concatenated, take one call.  The evaluation is element by element:
    each point's (p, q) is the same, bit for bit, as in a call on its own
    dataset.  The delays need not be increasing.

    Where it is not accurate: at eta' = 0 (eta = 1/2) the rate is p alone,
    and A/4 and B/2 cancel ever more as the window narrows below the bump
    width 1/sqrt(rho').  p keeps an error of a few ulp of A, not of itself.
    Measured at L = 29 km (a bump ~2400 ps wide), eta = 1/2, against
    scipy.integrate.quad of oracle.differential_rate over the window:
    T = 1 ps agrees to 3e-11 at tau = 5 and 50 ps; T = 1e-3 ps gives
    1.941e-18 against 1.827e-18 (6%) at tau = 5 ps; T = 1e-6 ps gives
    3.4e-19 against 1.8e-25 at tau = 50 ps.  For eta' > 0 the rate there is
    about eta' A / 2: at eta = 0.52, T = 1e-6 ps and tau = 50 ps the closed
    form is within 6e-7 of the reference.
    """
    _check_rate_params(rho, rho_prime, window_half_width_ps)
    tau = np.asarray(tau_grid_ps, dtype=float)
    window_t = window_half_width_ps
    edge = np.sqrt(0.5 * rho_prime)
    # the dip first: its kernel temporaries are the largest, and no other
    # per-point result is held while they live
    dip = scaled_dip_term(edge * window_t, np.sqrt(0.5 * (rho - rho_prime)) * tau)
    window = erf_real(np.array([edge * (window_t + tau), edge * (window_t - tau)]))
    a = 0.25 * (window[0] + window[1])
    with np.errstate(under="ignore"):
        b = 0.5 * np.exp(-0.5 * rho_prime * tau * tau) * dip
    return a + np.multiply.outer((-1.0, 1.0), b)  # (a - b, a + b) as one array


# Maclaurin series in u = phi^2 of sin(phi)/phi = sum_n (-1)^n u^n / (2n+1)! and
# of (cos phi - sin(phi)/phi) / phi^2 = sum_n (-1)^(n+1) 2(n+1) / (2n+3)! u^n, one
# column each, lowest power first; below |phi| = 1/2 eight terms reach 1e-17
_SINC_BEND_SERIES = np.array([[(-1.0) ** n / math.factorial(2 * n + 1),
                               (-1.0) ** (n + 1) * 2 * (n + 1) / math.factorial(2 * n + 3)]
                              for n in range(8)])
_SERIES_POWERS = np.arange(8.0)[:, None]


def _sinc_and_bend(phi):
    """cos phi, sin(phi)/phi and (cos phi - sin(phi)/phi)/phi^2, for phi >= 0.

    Below phi = 1/2, where the last cancels and phi may be 0, both quotients
    come from their series, summed as one array.
    """
    cos = np.cos(phi)
    square = phi * phi
    small = phi < 0.5
    large = ~small
    sinc = np.sin(phi)
    np.divide(sinc, phi, out=sinc, where=large)
    bend = cos - sinc
    np.divide(bend, square, out=bend, where=large)
    terms = square[small][:, None, None] ** _SERIES_POWERS * _SINC_BEND_SERIES
    sinc[small], bend[small] = terms.sum(axis=1).T
    return cos, sinc, bend


def _window_derivatives(tau, a, t):
    """w_p and w_pp of the window part w = A/4, for a = rho'/2; both edges t +- tau in one array."""
    edges = np.array([t + tau, t - tau])
    with np.errstate(under="ignore"):
        moments = edges * np.exp(-a * edges * edges)
    scale = (8.0 * math.sqrt(math.pi)) * np.sqrt(a)
    slope = (moments[0] + moments[1]) / scale
    moments *= edges * edges
    return slope, -0.25 * slope / a - 0.5 * (moments[0] + moments[1]) / scale


def _dip_derivatives(tau, a, d, t, dip):
    """b_p, b_pp, b_r, b_rp and b_rr of the dip part b = B/2, for tau >= 0, from dip = B."""
    root_a = np.sqrt(a)
    x = root_a * t
    tau2 = tau * tau
    t2 = t * t
    with np.errstate(under="ignore"):
        g = (0.5 / math.sqrt(math.pi)) * np.exp(-a * (tau2 + t2))  # G/4
    cos, sinc, bend = _sinc_and_bend(2.0 * x * np.sqrt(d) * tau)
    g_x = x * tau2 * g
    along = 0.5 * x / a * g * cos  # B's a-derivative at fixed e through x, over 4
    across = g_x * sinc  # and through y, negated
    bent = a * t2 * tau2 * g_x * bend  # B_ee = -tau^2 B_e + 8 bent
    half_t2 = 0.5 * t2
    b_r = across - 0.25 * tau2 * dip
    return (along - across,
            (0.5 * tau2 + t2 - half_t2 * d / a) * across
            - (0.25 / a + tau2 + half_t2) * along + bent,
            b_r,
            -half_t2 * across - bent,
            bent - 0.5 * tau2 * b_r)


def coincidence_parts_derivatives(tau_grid_ps, rho, rho_prime, window_half_width_ps, p, q):
    """First and second derivatives of coincidence_parts' (p, q) in (rho', rho).

    p and q are that call's result at the same arguments.  The derivatives
    are those of the window part w = (p + q)/2 = A/4 and the dip part
    b = (q - p)/2 = B/2, so that p = w - b and q = w + b, as one array of
    shape (7, n): w_p, w_pp, b_p, b_pp, b_r, b_rp and b_rr, where a
    subscript p is d/drho' at fixed rho and r is d/drho.  w depends on rho'
    alone.

    With a = rho'/2 and e = a + d = rho/2,
    A = erf(sqrt(a)(T+tau)) + erf(sqrt(a)(T-tau)) and
    B = exp(-e tau^2) Re erf(x + iy) for x = sqrt(a) T, y = sqrt(d) tau.
    With d Re erf/dx = (2/sqrt(pi)) e^(y^2-x^2) cos phi
    and d Re erf/dy = (2/sqrt(pi)) e^(y^2-x^2) sin phi, phi = 2xy, B's
    derivatives in a at fixed e are the bounded
    G = (2/sqrt(pi)) exp(-a(tau^2+T^2)) times cos phi, sin(phi)/phi or
    (cos phi - sin(phi)/phi)/phi^2, and only those in e, through the
    envelope, add multiples of B.  So no further error function is needed,
    nothing overflows, and nothing divides by sqrt(d): the derivatives stay
    finite at d = 0 (L = 0 or beta2 = 0).  phi is taken at |tau|, so the
    derivatives are even in tau bit for bit, like (p, q).

    B = q - p carries the rounding of p and q, and where y >> 1 the
    rho-derivatives are small differences of multiples of B and G terms.
    At campaign delays (y up to ~4000) that leaves the first derivatives
    good to ~1e-8 and the second ones in rho to ~1e-6 relative, against
    40-digit references; a Newton matrix needs no more.
    """
    tau = np.abs(np.asarray(tau_grid_ps, dtype=float))
    a = 0.5 * rho_prime
    return np.array([*_window_derivatives(tau, a, window_half_width_ps),
                     *_dip_derivatives(tau, a, 0.5 * (rho - rho_prime), window_half_width_ps,
                                       q - p)])


def coincidence_curve(tau_grid_ps, rho, rho_prime, eta_p, window_half_width_ps) -> HomCurve:
    """The rate max(p + eta' q, 0) of coincidence_parts over a strictly increasing grid.

    The rate is nonnegative analytically; the clip removes round-off-level
    negatives in the deep tails.  Even in tau; zero at tau = 0 for a
    balanced splitter (eta' = 0); tends to 0 as |tau| grows beyond the
    window.
    """
    if not 0.0 <= eta_p <= 1.0:
        raise ValueError("eta_prime must be in [0, 1]")
    grid = np.asarray(tau_grid_ps, dtype=float)
    p, q = coincidence_parts(grid, rho, rho_prime, window_half_width_ps)
    return HomCurve(grid, np.maximum(p + eta_p * q, 0.0))


def oscillation_period(rho, rho_prime, window_half_width_ps) -> float:
    """Period (ps) of the window-induced side lobes: 2*pi / (T sqrt(rho'(rho-rho')))."""
    if not window_half_width_ps > 0:
        raise ValueError("window half-width T must be > 0")
    if not 0 < rho_prime < rho:
        raise ValueError("no oscillations without dispersion (requires rho > rho_prime > 0)")
    return 2.0 * math.pi / (window_half_width_ps * math.sqrt(rho_prime * (rho - rho_prime)))


def extract_fwhm(curve: HomCurve) -> FwhmResult:
    """Full width at half maximum of a coincidence dip.

    Baseline is the curve maximum over the scanned range, the dip level its
    global minimum; the half level is their midpoint and each crossing is the
    first half-level crossing found moving outward from the minimum, located
    by linear interpolation.  Scale-free and deterministic on oscillatory
    curves.

    The dip counts as not resolved, and a ValueError is raised, when the
    scan ends on a rise: the maximum lies in the outer tenth of the samples
    on one side, and there the mean of that outer tenth exceeds the mean of
    the tenth next inward by more than a tenth of the dip depth (baseline -
    minimum).  The maximum is then the slope, not the plateau.  A plateau
    that reaches the scan edge, flat or noisy, is measured.
    """
    tau = curve.tau_ps
    values = curve.values
    if len(curve) < 5:
        raise ValueError("no dip found: need at least 5 points")
    baseline = float(values.max())
    i_min = int(values.argmin())
    minimum = float(values[i_min])
    if i_min == 0 or i_min == values.size - 1 or not minimum < baseline:
        raise ValueError("no dip found")
    k = max(1, values.size // 10)
    for edge in (values, values[::-1]):
        outer = edge[:k]
        if outer.max() == baseline and outer.mean() - edge[k : 2 * k].mean() > 0.1 * (
            baseline - minimum
        ):
            raise ValueError("dip not resolved in scan range")
    half = 0.5 * (baseline + minimum)

    def _cross(direction):
        i = i_min
        while 0 <= i + direction < values.size:
            j = i + direction
            if values[j] >= half:
                # interpolate on the segment between i and j
                frac = (half - values[i]) / (values[j] - values[i])
                return float(tau[i] + frac * (tau[j] - tau[i]))
            i = j
        raise ValueError("dip not resolved in scan range")

    left = _cross(-1)
    right = _cross(+1)
    return FwhmResult(right - left, baseline, minimum, left, right)


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
