"""Derivation chain, closed-form rate properties, and curve analyzers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disphom import (
    C_MM_PER_PS,
    ChannelParams,
    FilterConvention,
    FilterParams,
    HomCurve,
    SourceParams,
    broadened_rho,
    check_epm,
    coincidence_curve,
    derive_gammas,
    derive_spectral,
    eta_prime,
    extract_fwhm,
    filter_variance,
    oscillation_period,
)
from disphom import model
from disphom.model import coincidence_parts, coincidence_parts_derivatives, delay_grid
from conftest import DN_IDLER_REF, DN_SIGNAL_REF, RHO_REF, BETA2_REF, reference_filter
from reference import group_index_bounds


def _source(dn_s=DN_SIGNAL_REF, dn_i=DN_IDLER_REF, d=10.0, sigma_p=2.0):
    return SourceParams(dn_s, dn_i, d, 775.0, sigma_p, 46.2)


# --- derivation chain --------------------------------------------------------

def test_derive_gammas_zero():
    gs, gi = derive_gammas(_source(0.0, 0.0))
    assert gs == 0.0 and gi == 0.0


def test_derive_gammas_reference_crystal():
    gs, gi = derive_gammas(_source())
    assert gs == pytest.approx(0.15710868883832962, rel=1e-14)
    assert gi == pytest.approx(-0.13842909950723312, rel=1e-14)


def test_derive_gammas_unit_case():
    gs, _ = derive_gammas(_source(C_MM_PER_PS, 0.1))
    assert gs == 1.0


def test_check_epm_exact():
    res = check_epm(1.0, -1.0)
    assert res.mismatch == 0.0 and res.within_tolerance


def test_check_epm_reference_crystal():
    gs, gi = derive_gammas(_source())
    res = check_epm(gs, gi)
    assert res.mismatch == pytest.approx(0.11889596602972394, rel=1e-12)
    assert res.within_tolerance  # default tolerance admits the real crystal


def test_check_epm_anti():
    res = check_epm(1.0, 1.0)
    assert res.mismatch == 2.0 and not res.within_tolerance


def test_check_epm_degenerate():
    with pytest.raises(ValueError, match="degenerate phase matching"):
        check_epm(0.0, 0.0)


def test_filter_variance_values():
    filt = reference_filter()
    # d_omega = 2 pi c dl / l^2 = 9.408457... rad/ps at 12 nm / 1550 nm
    assert filter_variance(filt) == pytest.approx(15.963252895623894, rel=1e-12)
    intensity = filter_variance(reference_filter(convention=FilterConvention.INTENSITY_LEVEL))
    assert intensity == pytest.approx(2.0 * filter_variance(filt), rel=1e-15)


def test_derive_spectral_epm_symmetric():
    g = 0.03
    src = SourceParams(g, -g, 5.0, 775.0, 1.0)
    ds = derive_spectral(src, reference_filter())
    # r = 6 / (gamma d)^2 under exact symmetry
    gamma = g / C_MM_PER_PS
    assert ds.r == pytest.approx(6.0 / (gamma * 5.0) ** 2, rel=1e-12)
    assert ds.rho < ds.r  # filter always narrows


def test_derive_spectral_reference_crystal():
    ds = derive_spectral(_source(), reference_filter())
    assert ds.r == pytest.approx(2.747800535249048, rel=1e-12)
    assert 1.0 / ds.rho == pytest.approx(1.0 / ds.r + 1.0 / ds.s, rel=1e-12)


def test_derive_spectral_no_filter_limit():
    ds = derive_spectral(_source(), FilterParams(1550.0, math.inf))
    assert ds.rho == ds.r


def test_derive_spectral_degenerate_difference():
    with pytest.raises(ValueError, match="degenerate difference bandwidth"):
        derive_spectral(_source(0.02, 0.02), reference_filter())


@pytest.mark.parametrize("field, value", [
    ("fwhm_nm", 1e-200),
    ("fwhm_nm", 1e-155),  # s is subnormal: 1/s overflows, and rho would be 0
    ("crystal_length_mm", 1e-200),
    ("center_wavelength_nm", 1e-200),
    ("fwhm_nm", 1e200),
    ("crystal_length_mm", 1e200),
    ("delta_ng_signal", 1e300),
])
def test_derive_spectral_out_of_float_range_names_the_input(field, value):
    # the params accept each value; the scale it puts out of range must not
    # surface as a ZeroDivisionError or an OverflowError naming nothing
    source, filt = _source(), reference_filter()
    if field in ("fwhm_nm", "center_wavelength_nm"):
        filt = replace(filt, **{field: value})
    else:
        source = replace(source, **{field: value})
    with pytest.raises(ValueError, match=field):
        derive_spectral(source, filt)


@pytest.mark.parametrize("field, value", [
    ("pump_sigma_radps", math.nan), ("pump_sigma_radps", math.inf),
    ("pump_wavelength_nm", math.inf), ("pump_wavelength_nm", math.nan),
])
def test_source_params_refuse_a_non_finite_pump(field, value):
    # no derived scale reads the pump fields, so nothing after SourceParams
    # would catch such a value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(_source(), **{field: value})


def test_broadened_rho_no_fiber():
    assert broadened_rho(3.7, ChannelParams(0.0, 21.39)) == 3.7


def test_broadened_rho_reference_config():
    got = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    assert got == pytest.approx(1.5042248936175193e-06, rel=1e-12)


def test_broadened_rho_unit_chirp():
    rho = 5.0
    channel = ChannelParams(2.0, 1.0 / (2.0 * rho))
    assert broadened_rho(rho, channel) == pytest.approx(rho / 2.0, rel=1e-12)


def test_broadened_rho_even_in_beta2():
    a = broadened_rho(7.0, ChannelParams(3.0, 8.5))
    b = broadened_rho(7.0, ChannelParams(3.0, -8.5))
    assert a == b


def test_eta_prime_values():
    assert eta_prime(0.5) == 0.0
    assert eta_prime(0.0) == 1.0
    assert eta_prime(1.0) == 1.0
    assert eta_prime(0.75) == pytest.approx(0.25, rel=1e-15)
    assert eta_prime(0.3) == eta_prime(0.7)


def test_eta_prime_domain():
    with pytest.raises(ValueError):
        eta_prime(1.2)


# --- coincidence rate ---------------------------------------------------------

def test_rate_perfect_dip_exact_zero():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        channel = ChannelParams(rng.uniform(0.0, 30.0), rng.uniform(-30.0, 30.0))
        rho_p = broadened_rho(rho, channel)
        window = float(np.exp(rng.uniform(np.log(10.0), np.log(2000.0))))
        assert coincidence_curve([0.0], rho, rho_p, eta_prime(0.5), window).values[0] == 0.0


def test_rate_dispersionless_gaussian_dip():
    rho, window = RHO_REF, 5000.0
    taus = np.linspace(-1.2, 1.2, 41)
    curve = coincidence_curve(taus, rho, rho, 0.0, window)
    reference = 0.5 * (1.0 - np.exp(-rho * taus**2 / 2.0))
    assert np.abs(curve.values - reference).max() <= 1e-12


def test_rate_symmetric_in_tau():
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    rng = np.random.default_rng(9)
    taus = rng.uniform(0.0, 900.0, 200)
    for tau in taus:
        plus = coincidence_curve([tau], RHO_REF, rho_p, 0.01, 400.0).values[0]
        minus = coincidence_curve([-tau], RHO_REF, rho_p, 0.01, 400.0).values[0]
        assert abs(plus - minus) <= 1e-12


def test_rate_nonnegative_and_vanishing_tails():
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    taus = np.linspace(-2000.0, 2000.0, 801)
    curve = coincidence_curve(taus, RHO_REF, rho_p, 0.0, 400.0)
    assert (curve.values >= 0.0).all()
    plateau = curve.values.max()
    far = 400.0 + 20.0 / math.sqrt(rho_p)
    assert coincidence_curve([far], RHO_REF, rho_p, 0.0, 400.0).values[0] < 1e-3 * plateau


def test_rate_monotone_in_window():
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    windows = np.linspace(50.0, 1500.0, 30)
    for tau in (0.0, 35.0, 240.0, 800.0):
        values = [coincidence_curve([tau], RHO_REF, rho_p, 0.04, w).values[0] for w in windows]
        assert (np.diff(values) >= -1e-14).all()


def test_rate_infinite_window_is_dispersion_free():
    # for very wide windows the curve collapses onto the beta2-independent
    # Gaussian dip (local dispersion cancellation)
    for length in (1.0, 10.0, 29.0):
        rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
        window = 100.0 / math.sqrt(rho_p)
        taus = np.linspace(-5.0 / math.sqrt(RHO_REF), 5.0 / math.sqrt(RHO_REF), 101)
        eta_p = eta_prime(0.47)
        curve = coincidence_curve(taus, RHO_REF, rho_p, eta_p, window)
        reference = (1 + eta_p) / 2.0 - (1 - eta_p) / 2.0 * np.exp(-RHO_REF * taus**2 / 2.0)
        assert np.abs(curve.values - reference).max() <= 1e-6


def test_rate_preconditions():
    with pytest.raises(ValueError):
        coincidence_curve([0.0], 1.0, 2.0, 0.0, 100.0).values[0]  # rho < rho'
    with pytest.raises(ValueError):
        coincidence_curve([0.0], 1.0, 1.0, 1.5, 100.0).values[0]  # eta' out of range
    with pytest.raises(ValueError):
        coincidence_curve([0.0], 1.0, 1.0, 0.0, -5.0).values[0]  # bad window


def test_curve_empty_and_single():
    assert len(coincidence_curve([], 1.0, 1.0, 0.0, 10.0)) == 0
    single = coincidence_curve([0.0], 1.0, 1.0, 0.0, 10.0)
    assert single.values[0] == 0.0


def test_curve_matches_looped_rate():
    rho_p = broadened_rho(RHO_REF, ChannelParams(15.0, BETA2_REF))
    taus = np.linspace(-700.0, 700.0, 173)
    curve = coincidence_curve(taus, RHO_REF, rho_p, 0.09, 450.0)
    looped = np.array(
        [coincidence_curve([t], RHO_REF, rho_p, 0.09, 450.0).values[0] for t in taus]
    )
    assert np.array_equal(curve.values, looped)


# --- stacked model pass and rate properties (hypothesis) -----------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

rhos = st.floats(0.5, 50.0)
windows_ps = st.floats(100.0, 2000.0)  # T from 0.1 to 2 ns
lengths_km = st.one_of(st.just(0.0), st.floats(0.0, 29.0))
beta2s = st.floats(-30.0, 30.0)


@st.composite
def mixed_dataset(draw):
    """(taus, L, T) with an unequal, asymmetric, not necessarily sorted grid.

    A few delays within 1 ps of zero reach the kernel's series region, so
    region subsets of one element and of several both occur.
    """
    window = draw(windows_ps)
    lo = draw(st.floats(-3.0, 0.5)) * window
    hi = lo + draw(st.floats(0.01, 3.0)) * window
    n = draw(st.integers(1, 40))
    near_zero = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    taus = np.concatenate([np.linspace(lo, hi, n), near_zero])
    return taus, draw(lengths_km), window


@PROPERTY_SETTINGS
@given(rho=rhos, beta2=beta2s, sets=st.lists(mixed_dataset(), min_size=1, max_size=6))
# tau = 0.37 ps is alone in the series region of its own call and one of
# three in the stacked call; an in-place complex Horner product rounds it
# differently (numpy treats a one-element in-place product specially)
@example(rho=RHO_REF, beta2=BETA2_REF, sets=[
    (np.array([-300.0, 0.37, 300.0]), 10.0, 400.0),
    (np.array([-0.25, 0.0, 0.35]), 16.0, 600.0),
    (np.linspace(-150.0, 250.0, 5), 0.0, 100.0),
])
def test_stacked_parts_equal_per_dataset_bit_for_bit(rho, beta2, sets):
    singles = []
    rho_ps = []
    for taus, length, window in sets:
        rho_p = broadened_rho(rho, ChannelParams(length, beta2))
        singles.append(coincidence_parts(taus, rho, rho_p, window))
        rho_ps.append(rho_p)
    sizes = [taus.size for taus, _, _ in sets]
    p, q = coincidence_parts(
        np.concatenate([taus for taus, _, _ in sets]),
        rho,
        np.repeat(rho_ps, sizes),
        np.repeat([window for _, _, window in sets], sizes),
    )
    assert np.array_equal(p, np.concatenate([sp for sp, _ in singles]))
    assert np.array_equal(q, np.concatenate([sq for _, sq in singles]))


def test_parts_even_in_tau_bit_for_bit():
    # the stacked fit pass evaluates each |tau| once and reuses it for -tau
    rng = np.random.default_rng(31)
    n = 5000
    windows = rng.uniform(100.0, 2000.0, n)
    lengths = rng.choice([0.0, 1.0, 10.0, 29.0, rng.uniform(0.0, 29.0)], n)
    rho_ps = np.array([broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
                       for length in lengths])
    taus = rng.uniform(-3.0, 3.0, n) * windows
    taus[:40] = rng.uniform(-1.0, 1.0, 40)  # the kernel's series region
    taus[40] = 0.0
    taus = rng.permutation(taus)
    p, q = coincidence_parts(taus, RHO_REF, rho_ps, windows)
    p_mirror, q_mirror = coincidence_parts(-taus, RHO_REF, rho_ps, windows)
    assert np.array_equal(p, p_mirror)
    assert np.array_equal(q, q_mirror)


# --- derivatives of the parts --------------------------------------------------

def _rhos(x, y, window, tau):
    """(rho, rho') that put the kernel at x + iy.

    x = sqrt(rho'/2) T and y = sqrt((rho - rho')/2) tau.
    """
    a = (x / window) ** 2
    d = 0.0 if y == 0.0 else (y / tau) ** 2
    return 2.0 * (a + d), 2.0 * a


# (rho, rho', T, tau)
DERIVATIVE_POINTS = {
    "series": (*_rhos(0.8, 1.0, 400.0, 150.0), 400.0, 150.0),
    "weideman": (*_rhos(1.5, 2.0, 400.0, 150.0), 400.0, 150.0),
    "continued-fraction": (*_rhos(0.5, 12.5, 900.0, 60.0), 900.0, 60.0),
    "campaign": (RHO_REF, broadened_rho(RHO_REF, ChannelParams(29.0, BETA2_REF)), 800.0, 500.0),
    "tau-zero": (RHO_REF, broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF)), 400.0, 0.0),
    "small-phi": (*_rhos(1.0, 1e-3, 400.0, 150.0), 400.0, 150.0),
    "no-dispersion": (*_rhos(1.0, 0.0, 400.0, 150.0), 400.0, 150.0),
}

# Difference stencils (offsets, first-derivative weights, second-derivative
# weights), all with an error O(h^2).  The one-sided one serves d = 0, where
# rho may not step below rho'.
CENTRAL = ((-1, 0, 1), (-0.5, 0.0, 0.5), (1.0, -2.0, 1.0))
FORWARD = ((0, 1, 2, 3), (-1.5, 2.0, -0.5, 0.0), (2.0, -5.0, 4.0, -1.0))


@pytest.mark.parametrize("point", sorted(DERIVATIVE_POINTS))
def test_parts_derivatives_match_differences(point):
    rho, rho_p, window, tau = DERIVATIVE_POINTS[point]
    taus = np.array([tau])
    parts = coincidence_parts(taus, rho, rho_p, window)
    w_p, w_pp, b_p, b_pp, b_r, b_rp, b_rr = coincidence_parts_derivatives(
        taus, rho, rho_p, window, *parts)
    # p = w - b and q = w + b: first[k] holds the (p, q) derivatives in the
    # k-th of (rho, rho'), second[k] those in (rho rho, rho rho', rho' rho')
    sign = np.array([[-1.0], [1.0]])
    first = np.array([sign * b_r, w_p + sign * b_p])
    second = np.array([sign * b_rr, sign * b_rp, w_pp + sign * b_pp])
    # two directions in (rho, rho'): along a_dir only rho'/2 moves, along
    # d_dir only (rho - rho')/2.  Their lengths are the scales on which the
    # rate varies: rho' and rho themselves, or less where the phase
    # phi = sqrt(rho'(rho - rho')) T tau turns many times over.
    unit = 1.0 / (1.0 + math.sqrt(rho_p * (rho - rho_p)) * window * tau)
    a_dir = unit * np.array([rho_p, rho_p])
    d_dir = unit * np.array([rho, 0.0])
    h0 = 2.0**-4
    d_stencil = CENTRAL if rho - rho_p >= 4.0 * h0 * d_dir[0] else FORWARD

    def along(u, v=None):
        if v is None:
            return np.tensordot(u, first, axes=1)[:, 0]
        pairs = (u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1])
        return np.tensordot(pairs, second, axes=1)[:, 0]

    exact = {"a": along(a_dir), "d": along(d_dir), "aa": along(a_dir, a_dir),
             "ad": along(a_dir, d_dir), "dd": along(d_dir, d_dir)}
    scale = max(abs(parts[0][0]), abs(parts[1][0]))

    def rate(i, j, h):
        r = rho + h * (i * a_dir[0] + j * d_dir[0])
        r_p = rho_p + h * (i * a_dir[1] + j * d_dir[1])
        return np.array(coincidence_parts(taus, r, r_p, window))[:, 0]

    steps = h0 / 2.0 ** np.arange(9)
    errors = {key: [] for key in exact}
    for h in steps:
        a_off, a_w1, a_w2 = CENTRAL
        d_off, d_w1, d_w2 = d_stencil
        estimate = {
            "a": sum(w * rate(i, 0, h) for i, w in zip(a_off, a_w1)) / h,
            "aa": sum(w * rate(i, 0, h) for i, w in zip(a_off, a_w2)) / h**2,
            "d": sum(w * rate(0, j, h) for j, w in zip(d_off, d_w1)) / h,
            "dd": sum(w * rate(0, j, h) for j, w in zip(d_off, d_w2)) / h**2,
            "ad": sum(wi * wj * rate(i, j, h) for i, wi in zip(a_off, a_w1)
                      for j, wj in zip(d_off, d_w1)) / h**2,
        }
        for key in exact:
            errors[key].append(np.abs(estimate[key] - exact[key]).max() / scale)

    eps = np.finfo(float).eps
    for key, errs in errors.items():
        order = len(key)
        # rounding in the differences: the rate's own error over h or h^2
        floor = 64.0 * eps / steps**order
        # the truncation error falls at least as h^2 until rounding takes over
        assert np.all(errs <= 1.5 * errs[0] * (steps / h0) ** 2 + floor), (key, errs)
        # and where it stands clear of rounding, it falls as h^2
        clear = [k for k in range(len(steps) - 1) if errs[k + 1] > 100.0 * floor[k + 1]]
        for k in clear:
            assert 3.0 <= errs[k] / errs[k + 1] <= 5.0, (key, k, errs)
        assert clear or errs[0] <= 100.0 * floor[0], (key, errs)


def test_parts_derivatives_even_in_tau_bit_for_bit():
    # the stacked fit pass evaluates each |tau| once and reuses it for -tau
    rng = np.random.default_rng(37)
    n = 5000
    windows = rng.uniform(100.0, 2000.0, n)
    lengths = rng.choice([0.0, 1.0, 10.0, 29.0, rng.uniform(0.0, 29.0)], n)
    rho_ps = np.array([broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
                       for length in lengths])
    taus = rng.uniform(-3.0, 3.0, n) * windows
    taus[:40] = rng.uniform(-1.0, 1.0, 40)  # the kernel's series region, small phi
    taus[40] = 0.0
    taus = rng.permutation(taus)
    plus = coincidence_parts_derivatives(
        taus, RHO_REF, rho_ps, windows, *coincidence_parts(taus, RHO_REF, rho_ps, windows))
    minus = coincidence_parts_derivatives(
        -taus, RHO_REF, rho_ps, windows, *coincidence_parts(-taus, RHO_REF, rho_ps, windows))
    for got, mirror in zip(plus, minus):
        assert np.isfinite(got).all()  # L = 0 among the lengths: d = 0
        assert np.array_equal(got, mirror)


# The derivative helpers as first written, in a = rho'/2 and d = (rho - rho')/2
# directly, kept as the reference for the current ones.
_REFERENCE_BEND_COEFFS = np.array(
    [(-1.0) ** n * 2 * n / math.factorial(2 * n + 1) for n in range(1, 9)]
)[::-1]


def _reference_sinc_and_bend(phi):
    cos = np.cos(phi)
    sinc = np.ones_like(phi)
    np.divide(np.sin(phi), phi, out=sinc, where=phi > 0)
    small = phi < 0.5
    square = phi * phi
    bend = np.empty_like(phi)
    np.divide(cos - sinc, square, out=bend, where=~small)
    series = np.full_like(square[small], _REFERENCE_BEND_COEFFS[0])
    for c in _REFERENCE_BEND_COEFFS[1:]:
        series = series * square[small] + c
    bend[small] = series
    return cos, sinc, bend


def _reference_window_derivatives(tau, a, t):
    outer = t + tau
    inner = t - tau
    with np.errstate(under="ignore"):
        e_outer = np.exp(-a * outer * outer)
        e_inner = np.exp(-a * inner * inner)
    moment1 = outer * e_outer + inner * e_inner
    moment3 = outer**3 * e_outer + inner**3 * e_inner
    scale = math.sqrt(math.pi) * np.sqrt(a)
    return moment1 / scale, -(0.5 * moment1 / a + moment3) / scale


def _reference_dip_derivatives(tau, a, d, t, b):
    root_a = np.sqrt(a)
    tau2 = tau * tau
    t2 = t * t
    with np.errstate(under="ignore"):
        g = (2.0 / math.sqrt(math.pi)) * np.exp(-a * (tau2 + t2))
    cos, sinc, bend = _reference_sinc_and_bend(2.0 * root_a * t * np.sqrt(d) * tau)
    g_cos = g * cos
    g_sinc = g * sinc
    b_a = -tau2 * b + 0.5 * t * g_cos / root_a
    b_d = -tau2 * b + root_a * t * tau2 * g_sinc
    b_aa = -tau2 * b_a - 0.5 * t * (
        (0.5 / a + tau2 + t2) * g_cos + 2.0 * d * t2 * tau2 * g_sinc
    ) / root_a
    b_ad = tau2 * tau2 * b - root_a * t * tau2 * (tau2 + t2) * g_sinc
    b_dd = -tau2 * b_d + 2.0 * a * root_a * t * t2 * tau2 * tau2 * g * bend
    return b_a, b_d, b_aa, b_ad, b_dd


def _reference_term_scales(tau, a, d, t, b):
    """The sum of the magnitudes of the terms each reference formula adds up."""
    root_a = np.sqrt(a)
    tau2 = tau * tau
    t2 = t * t
    with np.errstate(under="ignore"):
        g = (2.0 / math.sqrt(math.pi)) * np.exp(-a * (tau2 + t2))
        e_outer, e_inner = np.exp(-a * (t + tau) ** 2), np.exp(-a * (t - tau) ** 2)
    cos, sinc, bend = _reference_sinc_and_bend(2.0 * root_a * t * np.sqrt(d) * tau)
    g_cos, g_sinc, b = np.abs(g * cos), np.abs(g * sinc), np.abs(b)
    s_a = tau2 * b + 0.5 * t * g_cos / root_a
    s_d = tau2 * b + root_a * t * tau2 * g_sinc
    s_aa = tau2 * s_a + 0.5 * t * ((0.5 / a + tau2 + t2) * g_cos
                                   + 2.0 * d * t2 * tau2 * g_sinc) / root_a
    s_ad = tau2 * tau2 * b + root_a * t * tau2 * (tau2 + t2) * g_sinc
    s_dd = tau2 * s_d + 2.0 * a * root_a * t * t2 * tau2 * tau2 * g * np.abs(bend)
    scale = math.sqrt(math.pi) * root_a
    moment1 = (np.abs(t + tau) * e_outer + np.abs(t - tau) * e_inner) / scale
    moment3 = (np.abs(t + tau) ** 3 * e_outer + np.abs(t - tau) ** 3 * e_inner) / scale
    # in the order of coincidence_parts_derivatives' rows
    return np.array([moment1 / 8.0, (0.5 * moment1 / a + moment3) / 16.0, (s_a + s_d) / 4.0,
                     (s_aa + 2.0 * s_ad + s_dd) / 8.0, s_d / 4.0, (s_ad + s_dd) / 8.0, s_dd / 8.0])


def test_parts_derivatives_match_the_reference_formulas():
    # 1e5 points: campaign delays out to 3 T, delays below 0.01 ps (phi < 1/2,
    # the series), tau = 0, and L = 0 (d = 0) among the lengths
    rng = np.random.default_rng(53)
    n = 100_000
    windows = rng.uniform(100.0, 2000.0, n)
    lengths = rng.choice([0.0, 0.5, 1.0, 10.0, 29.0, rng.uniform(0.0, 29.0)], n)
    rho = RHO_REF * rng.uniform(0.5, 2.0)
    rho_ps = rho / (1.0 + (lengths * BETA2_REF * rho) ** 2)
    taus = rng.uniform(-3.0, 3.0, n) * windows
    taus[:2000] = rng.uniform(-1e-2, 1e-2, 2000)
    taus[2000:2100] = 0.0
    p, q = coincidence_parts(taus, rho, rho_ps, windows)
    got = coincidence_parts_derivatives(taus, rho, rho_ps, windows, p, q)
    tau, a, d, b = np.abs(taus), 0.5 * rho_ps, 0.5 * (rho - rho_ps), q - p
    phi = 2.0 * np.sqrt(a * d) * windows * tau
    assert (phi < 0.5).sum() > 2000 and (d == 0.0).sum() > 10_000
    a_a, a_aa = _reference_window_derivatives(tau, a, windows)
    b_a, b_d, b_aa, b_ad, b_dd = _reference_dip_derivatives(tau, a, d, windows, b)
    # to w = A/4 in rho' and b = B/2 in (rho' at fixed rho, rho)
    reference = np.array([a_a / 8.0, a_aa / 16.0, (b_a - b_d) / 4.0,
                          (b_aa - 2.0 * b_ad + b_dd) / 8.0, b_d / 4.0,
                          (b_ad - b_dd) / 8.0, b_dd / 8.0])
    scales = _reference_term_scales(tau, a, d, windows, b)
    eps = np.finfo(float).eps
    # a few ulp of each term's scale; below 1e-280, where the products on the
    # way underflow to subnormals, the error counts against 1e-280
    ulps = np.abs(got - reference) / (eps * np.maximum(scales, 1e-280))
    assert ulps.max() <= 8.0, ulps.max(axis=1)
    cos, sinc, bend = model._sinc_and_bend(phi)
    for value, expected in zip((cos, sinc, bend), _reference_sinc_and_bend(phi)):
        assert np.all(np.abs(value - expected) <= 4.0 * eps * np.abs(expected))


def test_stacked_parts_check_every_point():
    taus = np.zeros(3)
    with pytest.raises(ValueError, match="rho must be >= rho_prime"):
        coincidence_parts(taus, 1.0, np.array([0.5, 2.0, 0.5]), 100.0)
    with pytest.raises(ValueError, match="T must be > 0"):
        coincidence_parts(taus, 1.0, 0.5, np.array([100.0, 0.0, 100.0]))


@PROPERTY_SETTINGS
@given(rho=rhos, beta2=beta2s, length=lengths_km, window=windows_ps,
       eta=st.floats(0.0, 1.0), scaled_taus=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30))
def test_rate_properties(rho, beta2, length, window, eta, scaled_taus):
    rho_p = broadened_rho(rho, ChannelParams(length, beta2))
    taus = np.array(scaled_taus) * window
    values = coincidence_curve(np.unique(taus), rho, rho_p, eta_prime(eta), window).values
    p, q = coincidence_parts(np.unique(taus), rho, rho_p, window)
    assert np.array_equal(values, np.maximum(p + eta_prime(eta) * q, 0.0))  # the one formula
    mirrored = coincidence_curve(np.unique(-taus), rho, rho_p, eta_prime(eta), window).values
    assert np.array_equal(values, mirrored[::-1])  # even in tau
    assert (values >= 0.0).all()
    flipped = coincidence_curve(np.unique(taus), rho, rho_p, eta_prime(1.0 - eta), window)
    assert np.array_equal(flipped.values, values)  # eta <-> 1 - eta
    assert coincidence_curve([0.0], rho, rho_p, eta_prime(0.5), window).values[0] == 0.0


# --- delay grid ----------------------------------------------------------------

@pytest.mark.parametrize("points", [151, 201, 401])
@pytest.mark.parametrize("window_ns", [0.3, 0.4, 0.5, 0.8, 1.0])
def test_delay_grid_is_linspace_at_the_campaign_windows(window_ns, points):
    # the test suite's small_campaign, CI's campaign.json and the benchmark's
    # CLI campaign scan +-1.5 T at these (T, points): the mirrored grid, and
    # so gen's files, must keep np.linspace's bits there
    window_ps = 1000.0 * window_ns
    lo, hi = -1.5 * window_ps, 1.5 * window_ps
    assert delay_grid(lo, hi, points).tobytes() == np.linspace(lo, hi, points).tobytes()


def test_delay_grid_of_an_asymmetric_range_is_linspace():
    assert delay_grid(-500.0, 700.0, 64).tobytes() == np.linspace(-500.0, 700.0, 64).tobytes()


@PROPERTY_SETTINGS
@given(hi=st.floats(1e-3, 1e7), n=st.integers(2, 2000))
@example(hi=1.5 * 794.0, n=401)  # np.linspace pairs 116 of its 200 +-tau here
@example(hi=1.5 * 794.0, n=400)
def test_delay_grid_pairs_every_delay(hi, n):
    grid = delay_grid(-hi, hi, n)
    assert grid.size == n and grid[0] == -hi and grid[-1] == hi
    assert (np.diff(grid) > 0).all()
    assert np.array_equal(grid, -grid[::-1])
    assert np.abs(grid - np.linspace(-hi, hi, n)).max() <= 2.0 * math.ulp(hi)


# --- analyzers -----------------------------------------------------------------

def test_oscillation_period_reference_value():
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    assert oscillation_period(RHO_REF, rho_p, 400.0) == pytest.approx(
        3.3599336908529556, rel=1e-12
    )


def test_oscillation_period_scales_inversely_with_window():
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    assert oscillation_period(RHO_REF, rho_p, 800.0) == pytest.approx(
        0.5 * oscillation_period(RHO_REF, rho_p, 400.0), rel=1e-14
    )


def test_oscillation_period_degenerate():
    with pytest.raises(ValueError, match="no oscillations"):
        oscillation_period(RHO_REF, RHO_REF, 400.0)


def test_fwhm_gaussian_dip():
    taus = np.arange(-5.0, 5.0, 0.002)
    curve = coincidence_curve(taus, RHO_REF, RHO_REF, 0.0, 5000.0)
    result = extract_fwhm(curve)
    assert result.fwhm_ps == pytest.approx(0.617767300869324, rel=1e-4)
    assert result.left_crossing_ps == pytest.approx(-result.right_crossing_ps, abs=1e-6)


def test_fwhm_scale_and_translation_invariant():
    taus = np.arange(-5.0, 5.0, 0.002)
    curve = coincidence_curve(taus, RHO_REF, RHO_REF, 0.0, 5000.0)
    scaled = HomCurve(curve.tau_ps, 137.5 * curve.values)
    binary_scaled = HomCurve(curve.tau_ps, 0.125 * curve.values)
    shifted = HomCurve(curve.tau_ps + 42.0, curve.values)
    # scaling by 137.5 rounds every sample, so only a power of two, which
    # float64 scales exactly, can give a bit-identical width
    assert extract_fwhm(binary_scaled).fwhm_ps == extract_fwhm(curve).fwhm_ps
    assert extract_fwhm(scaled).fwhm_ps == pytest.approx(
        extract_fwhm(curve).fwhm_ps, rel=1e-12
    )
    assert extract_fwhm(shifted).fwhm_ps == pytest.approx(
        extract_fwhm(curve).fwhm_ps, rel=1e-12
    )


def test_fwhm_flat_curve_rejected():
    flat = HomCurve(np.linspace(0, 1, 10), np.ones(10))
    with pytest.raises(ValueError, match="no dip found"):
        extract_fwhm(flat)


def test_fwhm_monotone_curve_rejected():
    ramp = HomCurve(np.linspace(0, 1, 10), np.linspace(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="no dip found"):
        extract_fwhm(ramp)


def test_fwhm_unresolved_dip_rejected():
    taus = np.linspace(-0.2, 0.25, 21)  # window never reaches the half level
    values = 0.5 * (1.0 - np.exp(-RHO_REF * taus**2 / 2.0))
    with pytest.raises(ValueError, match="not resolved"):
        extract_fwhm(HomCurve(taus, values))


def test_fwhm_plateau_at_scan_edge_measured():
    # a scan to +-4 standard deviations ends within 3.4e-4 of the plateau,
    # still rising by a hair; the width is that of the full scan
    sigma = 1.0 / math.sqrt(RHO_REF)
    full = coincidence_curve(np.linspace(-5.0, 5.0, 2001), RHO_REF, RHO_REF, 0.0, 5000.0)
    short = coincidence_curve(
        np.linspace(-4.0 * sigma, 4.0 * sigma, 201), RHO_REF, RHO_REF, 0.0, 5000.0
    )
    assert short.values[-1] == short.values.max()
    assert extract_fwhm(short).fwhm_ps == pytest.approx(extract_fwhm(full).fwhm_ps, rel=1e-3)


def test_fwhm_noisy_plateau_with_edge_maximum_measured():
    taus = np.linspace(-5.0, 5.0, 201)
    means = 1e4 * (1.0 - 0.9 * np.exp(-RHO_REF * taus**2 / 2.0))
    counts = np.random.default_rng(3).poisson(means).astype(float)
    counts[-1] = counts.max() + 1.0  # the plateau's maximum lands on the edge
    result = extract_fwhm(HomCurve(taus, counts))
    assert result.fwhm_ps == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0) / RHO_REF), rel=0.1)


def test_group_index_round_trip():
    g = 0.0471
    src = SourceParams(g, -g, 2.0, 775.0, 1.0)
    filt = reference_filter()
    rho = derive_spectral(src, filt).rho
    low, high = group_index_bounds(rho, filt, 2.0)
    assert low == pytest.approx(g, rel=1e-12)  # field-level convention inverts exactly
    assert high > low


def test_group_index_bounds_no_filter_coincide():
    low, high = group_index_bounds(RHO_REF, FilterParams(1550.0, math.inf), 2.0)
    assert low == high


def test_group_index_bounds_convention_ratio():
    # removing half the filter contribution changes the bound by exactly
    # sqrt((1/rho - 1/(2s)) / (1/rho - 1/s))
    filt = reference_filter()
    s = filter_variance(filt)
    low, high = group_index_bounds(RHO_REF, filt, 2.0)
    expected = math.sqrt((1.0 / RHO_REF - 1.0 / (2 * s)) / (1.0 / RHO_REF - 1.0 / s))
    assert high / low == pytest.approx(expected, rel=1e-12)


def test_group_index_bounds_filter_too_narrow():
    with pytest.raises(ValueError, match="filter narrower"):
        group_index_bounds(40.0, reference_filter(), 2.0)


# --- type validation ------------------------------------------------------------

def test_homcurve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        HomCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="nonnegative"):
        HomCurve(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="equal length"):
        HomCurve(np.array([0.0, 1.0]), np.zeros(3))


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(0.1, -0.1, -1.0, 775.0, 1.0)
    with pytest.raises(ValueError):
        SourceParams(0.1, -0.1, 1.0, 775.0, -1.0)
