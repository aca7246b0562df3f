"""Brute-force reference: amplitude identities, quadrature behavior, and the
single-configuration closed-form comparison (the full grid runs in the
acceptance suite)."""

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from disphom import (
    ChannelParams,
    QuadratureError,
    QuadratureSpec,
    beta_minus_time,
    broadened_rho,
    coincidence_curve,
    differential_rate,
    eta_prime,
    profile_scale,
    sinc_gaussian_check,
    windowed_rate_numeric,
)
from disphom import oracle
from disphom.oracle import _chirp_wavenumber, _folded_rate, _gauss_kronrod
from conftest import BETA2_REF, RHO_REF


def test_amplitude_dispersionless_is_real():
    t = np.linspace(-3.0, 3.0, 101)
    amp = beta_minus_time(t, RHO_REF, 0.0, BETA2_REF)
    assert np.abs(amp.imag).max() == 0.0


def test_amplitude_unit_norm():
    for length in (0.0, 1.0, 10.0):
        rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
        span = 12.0 / math.sqrt(rho_p)
        t = np.linspace(-span, span, 200001)
        amp = beta_minus_time(t, RHO_REF, length, BETA2_REF)
        norm = np.trapezoid(np.abs(amp) ** 2, t)
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_amplitude_intensity_matches_broadened_width():
    # |amplitude|^2 must equal sqrt(rho'/pi) exp(-rho' t^2); this doubles as
    # the numerical cross-check of the broadening formula.
    for length in (0.0, 2.0, 10.0, 29.0):
        rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
        t = np.linspace(-6.0 / math.sqrt(rho_p), 6.0 / math.sqrt(rho_p), 4001)
        intensity = np.abs(beta_minus_time(t, RHO_REF, length, BETA2_REF)) ** 2
        reference = np.sqrt(rho_p / np.pi) * np.exp(-rho_p * t * t)
        assert np.abs(intensity - reference).max() <= 1e-12 * reference.max()


def test_amplitude_intensity_variance():
    # fitted Gaussian variance of the time-domain intensity is 1/(2 rho')
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    span = 14.0 / math.sqrt(rho_p)
    t = np.linspace(-span, span, 400001)
    intensity = np.abs(beta_minus_time(t, RHO_REF, 10.0, BETA2_REF)) ** 2
    variance = np.trapezoid(t * t * intensity, t) / np.trapezoid(intensity, t)
    assert variance == pytest.approx(1.0 / (2.0 * rho_p), rel=1e-6)


def test_amplitude_matches_fft_of_frequency_form():
    # numerical Fourier transform of the chirped frequency-domain Gaussian,
    # 2^17 samples spanning +-12 standard deviations; the time grid then
    # spans about +-7.8 broadened widths 1/sqrt(rho'), so the chirped pulse
    # does not wrap around into the +-6-width comparison region
    rho, length, beta2 = RHO_REF, 10.0, BETA2_REF
    sigma_w = math.sqrt(rho / 2.0)
    n = 2**17
    omega = np.linspace(-12.0 * sigma_w, 12.0 * sigma_w, n, endpoint=False)
    spectrum = np.exp(-omega**2 / (2.0 * rho) - 0.5j * length * beta2 * omega**2)
    d_omega = omega[1] - omega[0]
    # continuous FT, f(t) = (1/2pi) int F(w) exp(-i w t) dw, via FFT
    t = np.fft.fftshift(np.fft.fftfreq(n, d=d_omega / (2.0 * np.pi)))
    phases = np.exp(-1j * omega[0] * t)
    field = np.fft.fftshift(np.fft.fft(spectrum)) * d_omega / (2.0 * np.pi) * phases
    norm = math.sqrt(np.trapezoid(np.abs(field) ** 2, t))
    field /= norm
    closed = beta_minus_time(t, rho, length, beta2)
    rho_p = broadened_rho(rho, ChannelParams(length, beta2))
    central = np.abs(t) <= 6.0 / math.sqrt(rho_p)
    assert not central[0] and not central[-1]
    scale = np.abs(closed[central]).max()
    err = np.abs(field[central] - closed[central]) / scale
    assert err.max() <= 1e-6


def test_differential_rate_balanced_zero_sigma():
    for tau in (-40.0, 0.0, 3.3, 700.0):
        assert differential_rate(tau, 0.0, 0.5, RHO_REF, 10.0, BETA2_REF) == 0.0


def test_differential_rate_single_path():
    tau, sigma = 12.0, -7.0
    got = differential_rate(tau, sigma, 1.0, RHO_REF, 10.0, BETA2_REF)
    amp = beta_minus_time((tau + sigma) / math.sqrt(2.0), RHO_REF, 10.0, BETA2_REF)
    assert got == pytest.approx(abs(amp) ** 2 / math.sqrt(2.0), rel=1e-14)


def test_differential_rate_matches_amplitude_form():
    # the real-arithmetic density against |eta b+ - (1-eta) b-|^2 / sqrt(2)
    # built from the complex amplitude, interference term included
    rng = np.random.default_rng(29)
    for length in (0.0, 5.0, 29.0):
        rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
        peak = math.sqrt(rho_p / (2.0 * math.pi))
        span = 3.0 / math.sqrt(rho_p)
        tau = rng.uniform(-span, span, 400)
        sigma = rng.uniform(-span, span, 400)
        plus = beta_minus_time((tau + sigma) / math.sqrt(2.0), RHO_REF, length, BETA2_REF)
        minus = beta_minus_time((tau - sigma) / math.sqrt(2.0), RHO_REF, length, BETA2_REF)
        for eta in rng.uniform(0.0, 1.0, 3):
            reference = np.abs(eta * plus - (1.0 - eta) * minus) ** 2 / math.sqrt(2.0)
            got = differential_rate(tau, sigma, eta, RHO_REF, length, BETA2_REF)
            assert np.abs(got - reference).max() <= 1e-12 * peak


def test_differential_rate_mirror_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(50):
        tau = rng.uniform(-60, 60)
        sigma = rng.uniform(-60, 60)
        eta = rng.uniform(0.0, 1.0)
        a = differential_rate(tau, sigma, eta, RHO_REF, 10.0, BETA2_REF)
        b = differential_rate(tau, -sigma, 1.0 - eta, RHO_REF, 10.0, BETA2_REF)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


def test_folded_rate_matches_mirrored_sum():
    # the folded integrand is c(t, s) + c(t, -s), also where rho' t s is far
    # past exp's range (no dispersion, t and s at 600 ps: ~5e6)
    rng = np.random.default_rng(41)
    for length in (0.0, 5.0, 29.0):
        rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
        k = _chirp_wavenumber(RHO_REF, length, BETA2_REF)
        peak = math.sqrt(rho_p / (2.0 * math.pi))
        t = rng.uniform(0.0, 600.0, 600)
        near = np.abs(t[:300] + rng.uniform(-4.0, 4.0, 300) / math.sqrt(rho_p))
        sigma = np.concatenate([near, rng.uniform(0.0, 600.0, 300)])
        t = np.append(t, 600.0)
        sigma = np.append(sigma, 600.0)
        for eta in (0.0, 0.5, *rng.uniform(0.0, 1.0, 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _folded_rate(t, sigma, eta, rho_p, k)
                reference = differential_rate(
                    t, sigma, eta, RHO_REF, length, BETA2_REF
                ) + differential_rate(t, -sigma, eta, RHO_REF, length, BETA2_REF)
            assert np.abs(got - reference).max() <= 1e-14 * peak


def _unfolded_reference(tau, window_t, eta, length):
    # adaptive G7-K15 of c(tau, s) over [-T, T] from a dense uniform start
    # (~100 nodes per chirp period at tau = 1.4 T, L = 5 km) plus both bumps
    rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
    width = 1.0 / math.sqrt(rho_p)
    breakpoints = np.concatenate([
        np.linspace(-window_t, window_t, 2**16 + 1),
        *(c + width * np.linspace(-4.0, 4.0, 33) for c in (-tau, tau)),
    ])
    value, _ = _gauss_kronrod(
        lambda s: differential_rate(tau, s, eta, RHO_REF, length, BETA2_REF),
        np.unique(np.clip(breakpoints, -window_t, window_t)), 1e-14, 1e-10, 24,
    )
    return value


@pytest.mark.parametrize("length", [0.0, 5.0, 29.0])
@pytest.mark.parametrize("eta", [0.3, 0.52])
def test_windowed_matches_unfolded_reference(eta, length):
    window_t = 400.0
    taus = np.array([0.0, 37.0, window_t, 1.4 * window_t])
    rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
    grid = np.linspace(-1.5 * window_t, 1.5 * window_t, 201)
    plateau = coincidence_curve(grid, RHO_REF, rho_p, eta_prime(eta), window_t).values.max()
    got = windowed_rate_numeric(taus, window_t, eta, RHO_REF, length, BETA2_REF)
    reference = np.array([_unfolded_reference(t, window_t, eta, length) for t in taus])
    assert np.abs(got - reference).max() <= 1e-8 * plateau


def test_windowed_even_in_tau():
    for tau in (0.5, 37.0, 399.0, 400.0, 561.3):
        plus = windowed_rate_numeric(tau, 400.0, 0.3, RHO_REF, 10.0, BETA2_REF)
        assert windowed_rate_numeric(-tau, 400.0, 0.3, RHO_REF, 10.0, BETA2_REF) == plus
    taus = np.linspace(-600.0, 600.0, 201)
    curve = windowed_rate_numeric(taus, 400.0, 0.52, RHO_REF, 10.0, BETA2_REF)
    assert np.array_equal(curve, curve[::-1])


@pytest.mark.parametrize("position, value", [
    (0, math.nan), (0, math.inf), (1, math.inf), (3, math.inf), (4, math.inf), (4, -math.inf),
    (5, math.nan), (4, 1e200), (3, 0.0),
], ids=["nan-tau", "inf-tau", "inf-window", "inf-rho", "inf-length", "minus-inf-length",
        "nan-beta2", "rho-prime-underflow", "zero-rho"])
def test_windowed_rejects_non_finite_input(position, value):
    # non-finite inputs, a rho of 0, and an L beta2 rho so large that rho' is
    # 0; at depth 4 a runaway refinement would end in QuadratureError instead
    args = [37.0, 400.0, 0.5, RHO_REF, 10.0, BETA2_REF]
    args[position] = value
    with pytest.raises(ValueError):
        windowed_rate_numeric(*args, QuadratureSpec(max_subdivisions=4))
    args[0] = np.array([0.0, args[0]])
    with pytest.raises(ValueError):
        windowed_rate_numeric(*args, QuadratureSpec(max_subdivisions=4))


def test_windowed_balanced_zero_delay():
    value = windowed_rate_numeric(0.0, 400.0, 0.5, RHO_REF, 10.0, BETA2_REF)
    assert abs(value) <= 1e-12


def test_windowed_matches_closed_form_reference_config():
    # T = 400 ps, L = 10 km: two hundred and one delays across +-1.5 T
    taus = np.linspace(-600.0, 600.0, 201)
    numeric = windowed_rate_numeric(taus, 400.0, 0.5, RHO_REF, 10.0, BETA2_REF)
    rho_p = broadened_rho(RHO_REF, ChannelParams(10.0, BETA2_REF))
    closed = coincidence_curve(taus, RHO_REF, rho_p, eta_prime(0.5), 400.0).values
    scale = profile_scale(numeric, closed)
    assert scale == pytest.approx(1.0, abs=1e-5)
    plateau = closed.max()
    deviation = np.abs(scale * numeric - closed)
    assert (deviation <= np.maximum(1e-6 * np.abs(closed), 1e-9 * plateau)).all()


@pytest.mark.parametrize("length, window", [(0.0, 1e5), (0.001, 1e5), (0.0, 1e8), (0.001, 1e8)],
                         ids=["0.0", "0.001", "0.0-1e8ps", "0.001-1e8ps"])
def test_windowed_matches_closed_form_in_a_wide_window(length, window):
    # T = 100 ns: the window is some 10^5 bump widths (~0.5 ps) wide, so the
    # quadrature must find the bump's tails from its own seeds.  At T = 100 us
    # the bump's panels get a share of the tolerance below their own rounding,
    # and must be accepted at it rather than bisected until memory runs out
    taus = np.linspace(-600.0, 600.0, 121)
    numeric = windowed_rate_numeric(taus, window, 0.52, RHO_REF, length, BETA2_REF)
    rho_p = broadened_rho(RHO_REF, ChannelParams(length, BETA2_REF))
    closed = coincidence_curve(taus, RHO_REF, rho_p, eta_prime(0.52), window).values
    assert np.abs(numeric - closed).max() <= 1e-12 * closed.max()


def _mpmath_windowed_rate(tau, window_t, eta, length, pieces):
    # int_{-T}^{T} |eta b((tau+s)/sqrt2) - (1-eta) b((tau-s)/sqrt2)|^2 / sqrt2 ds in
    # 40-digit arithmetic, from the complex amplitude b(t) = (rho'/pi)^(1/4)
    # exp(-q t^2), q = 1/(2 (1/rho + i L beta2)): no cancellation is lost at
    # this precision.  Each span between the cuts at 0 and +-tau is split into
    # `pieces` intervals, enough to follow the chirp's oscillations
    with mp.workdps(40):
        q = 1 / (2 * (1 / mp.mpf(RHO_REF) + 1j * mp.mpf(length) * mp.mpf(BETA2_REF)))
        norm = (2 * q.real / mp.pi) ** mp.mpf(0.25)
        tau, eta, window_t = mp.mpf(tau), mp.mpf(eta), mp.mpf(window_t)

        def density(s):
            plus, minus = (tau + s) / mp.sqrt(2), (tau - s) / mp.sqrt(2)
            amplitude = eta * mp.exp(-q * plus**2) - (1 - eta) * mp.exp(-q * minus**2)
            return (norm * abs(amplitude)) ** 2 / mp.sqrt(2)

        cuts = sorted({-window_t, mp.mpf(0), window_t, *(x for x in (-tau, tau) if abs(x) < window_t)})
        points = [lo + (hi - lo) * i / pieces for lo, hi in zip(cuts, cuts[1:]) for i in range(pieces)]
        return float(mp.quad(density, [*points, window_t]))


@pytest.mark.parametrize("length, window, tau, pieces", [
    (1e10, 400.0, 5.0, 1), (1e10, 400.0, 50.0, 1), (1e10, 400.0, 600.0, 1),
    (29.0, 1e-3, 5.0, 1), (29.0, 1e-3, 50.0, 1), (29.0, 400.0, 5.0, 8), (29.0, 400.0, 600.0, 8),
])
def test_windowed_matches_mpmath_where_the_expanded_density_cancels(length, window, tau, pieces):
    # at eta = 1/2 the density's two intensities and its interference term
    # cancel to ~1e-27 of each at L = 1e10 km (where the expanded integrand
    # summed to 0.0) and to ~1e-16 in a 1 fs window; the 400 ps rows cross
    # the chirp's oscillations
    reference = _mpmath_windowed_rate(tau, window, 0.5, length, pieces)
    got = windowed_rate_numeric(tau, window, 0.5, RHO_REF, length, BETA2_REF)
    assert abs(got - reference) <= 1e-8 * reference


def test_chirp_grid_panels_are_accepted_unbisected(monkeypatch):
    # the chirp grid's panel width comes from G7's own error bound, so at
    # the reference configuration the first level accepts nearly every panel
    sizes = []
    folded = oracle._folded_rate

    def counted(t, sigma, *args):
        sizes.append(np.size(sigma))
        return folded(t, sigma, *args)

    monkeypatch.setattr(oracle, "_folded_rate", counted)
    taus = np.linspace(-600.0, 600.0, 201)
    windowed_rate_numeric(taus, 400.0, 0.52, RHO_REF, 10.0, BETA2_REF)
    distinct = np.unique(np.abs(taus)).size
    assert sum(sizes) <= 2200 * distinct
    assert len(sizes) <= 1.2 * distinct


_RUNAWAY = """
import resource, sys
limit = 2_500_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from disphom import QuadratureError, windowed_rate_numeric
try:
    windowed_rate_numeric(np.array([0.0, 5.0, 50.0, 600.0]), 1e9, 0.52, 14.53, 29.0, 21.39)
except QuadratureError:
    sys.exit(0)
sys.exit("converged")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_windowed_runaway_ends_in_quadrature_error_under_a_memory_cap():
    # T = 1 ms at L = 29 km: at tau = 600 ps rounding of the chirp's phase
    # keeps ever more panels above their rounding floor.  The panel cap must
    # end the refinement with QuadratureError within 20 s; without it the
    # open panels grow until memory runs out, so this runs only in a child
    # process whose address space is capped at 2.5 GB
    src = str(Path(oracle.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", _RUNAWAY], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert time.perf_counter() - start <= 20.0


def test_windowed_monotone_in_window():
    for tau in (0.0, 120.0, 500.0):
        small = windowed_rate_numeric(tau, 200.0, 0.45, RHO_REF, 10.0, BETA2_REF)
        large = windowed_rate_numeric(tau, 400.0, 0.45, RHO_REF, 10.0, BETA2_REF)
        assert large >= small - 1e-12


def test_windowed_convergence_bound():
    # tightening the tolerance moves the estimate by less than the coarse
    # run's own error bound
    loose = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    tight = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
    a = windowed_rate_numeric(37.0, 400.0, 0.5, RHO_REF, 10.0, BETA2_REF, loose)
    b = windowed_rate_numeric(37.0, 400.0, 0.5, RHO_REF, 10.0, BETA2_REF, tight)
    assert abs(a - b) <= 1e-6 * abs(b)


def test_windowed_nonconvergence_reports_estimate():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=2)
    with pytest.raises(QuadratureError) as err:
        windowed_rate_numeric(37.0, 400.0, 0.5, RHO_REF, 0.0, BETA2_REF, spec)
    assert err.value.estimate is not None
    assert err.value.error_bound > 0


def test_windowed_converges_at_nonconvergence_tolerances():
    # the tolerances above are reachable: only the level limit makes that test raise
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
    value = windowed_rate_numeric(37.0, 400.0, 0.5, RHO_REF, 0.0, BETA2_REF, spec)
    closed = coincidence_curve(np.array([37.0]), RHO_REF, RHO_REF, eta_prime(0.5), 400.0)
    assert closed.values[0] == pytest.approx(0.5, abs=1e-15)
    assert abs(value - closed.values[0]) <= 1e-12


def test_gauss_kronrod_exact_integrals():
    # K15 is exact to degree 22: one panel, no bisection, every panel accepted
    poly = np.polynomial.Polynomial(np.random.default_rng(5).standard_normal(23))
    exact = poly.integ()(1.0) - poly.integ()(-1.0)
    value, _ = _gauss_kronrod(poly, np.array([-1.0, 1.0]), math.inf, 1e-14, 0)
    assert abs(value - exact) <= 1e-14 * abs(exact)
    value, _ = _gauss_kronrod(
        lambda x: np.exp(-x * x), np.array([0.0, 1.0, 2.0, 3.0]), 1e-15, 1e-14, 24
    )
    assert abs(value - 0.5 * math.sqrt(math.pi) * math.erf(3.0)) <= 1e-13
    value, _ = _gauss_kronrod(np.cos, np.linspace(0.0, 100.0, 17), 1e-15, 1e-14, 24)
    assert abs(value - math.sin(100.0)) <= 1e-13


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_sinc_gaussian_at_zero():
    dev, _ = sinc_gaussian_check(np.array([0.0]))
    assert dev == 0.0


def _sinc_gaussian_deviation(x):
    # |sinc x - exp(-x^2/6)| ~ x^4/180 grows monotonically with |x|, so the
    # largest deviation on a symmetric grid sits at its endpoints
    return abs(math.sin(x) / x - math.exp(-x * x / 6.0))


def test_sinc_gaussian_small_arguments():
    dev, x_at = sinc_gaussian_check(np.linspace(-1.0, 1.0, 20001))
    assert dev == pytest.approx(_sinc_gaussian_deviation(1.0), rel=1e-12)
    assert abs(x_at) == 1.0


def test_sinc_gaussian_moderate_arguments():
    dev, x_at = sinc_gaussian_check(np.linspace(-1.5, 1.5, 20001))
    assert dev == pytest.approx(_sinc_gaussian_deviation(1.5), rel=1e-12)
    assert abs(x_at) == 1.5


def test_sinc_gaussian_invalid_in_tails():
    # at x = pi the sinc vanishes but the Gaussian stand-in does not; the
    # replacement is only a small-argument tool
    dev, x_at = sinc_gaussian_check(np.array([math.pi]))
    assert dev == pytest.approx(math.exp(-math.pi**2 / 6.0), rel=1e-12)
    assert x_at == pytest.approx(math.pi)
