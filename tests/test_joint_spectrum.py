"""The difference-frequency model against the full Gaussian joint spectrum.

The closed form sees only the difference frequency, so the pump bandwidth
and the sum-coordinate phase matching never enter it.  reference.jsa_rate
keeps them.  On small_campaign's six configurations (eta = 0.52) these
tests measure how far the model stands from the joint spectrum, and how
far that moves a noise-free fit's beta2 and rho, in units of the standard
errors of small_campaign(seed=3)'s Poisson fit.  Three sources span the
extended-phase-matching range: the engineered one (mismatch 0), the
reference ppKTP crystal (0.12) and one far from it (1).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from disphom import (
    ChannelParams, Dataset, FitParams, HomCurve, broadened_rho, coincidence_curve,
    derive_gammas, derive_spectral, eta_prime, filter_variance, generate_synthetic, lm_fit,
)
from disphom.model import delay_grid
from conftest import BETA2_REF, DN_IDLER_REF, DN_SIGNAL_REF, reference_filter, reference_source, small_campaign
from reference import joint_spectrum_scales, jsa_rate

ETA = 0.52
SOURCES = {
    "epm": reference_source(),
    "reference": replace(reference_source(), delta_ng_signal=DN_SIGNAL_REF, delta_ng_idler=DN_IDLER_REF),
    "far": replace(reference_source(), delta_ng_signal=DN_SIGNAL_REF, delta_ng_idler=0.0),
}
CW = 1e-3  # rad/ps: a pump this narrow is the CW limit to ~1e-10 of the plateau
PUMPS = (CW, 2.0, 10.0)


def _source(name, pump_sigma_radps):
    return replace(SOURCES[name], pump_sigma_radps=pump_sigma_radps)


@pytest.fixture(scope="module")
def standard_errors():
    """sigma(beta2) and sigma(rho) of small_campaign(seed=3), fitted from the truth."""
    datasets, rho = generate_synthetic(small_campaign(seed=3))
    fit = lm_fit(datasets, FitParams(BETA2_REF, rho))
    return fit.beta2_sigma_ps2_per_km, fit.rho_sigma_ps2_inv


@pytest.fixture(scope="module")
def campaigns():
    """Per (source, sigma_p): derive_spectral's rho, the worst |jsa_rate -
    coincidence_curve| over the six curves as a fraction of each curve's
    plateau, and the six jsa_rate curves at 1e4 peak counts, noise-free."""
    out = {}
    filt = reference_filter()
    config = small_campaign()
    for name in SOURCES:
        for pump in PUMPS:
            source = _source(name, pump)
            rho = derive_spectral(source, filt).rho
            worst, datasets = 0.0, []
            for window_ns in config.windows_ns:
                for length_km in config.fiber_lengths_km:
                    window_ps = 1000.0 * window_ns
                    taus = delay_grid(-1.5 * window_ps, 1.5 * window_ps, config.tau_points)
                    channel = ChannelParams(length_km, BETA2_REF)
                    closed = coincidence_curve(taus, rho, broadened_rho(rho, channel),
                                               eta_prime(ETA), window_ps).values
                    rate = jsa_rate(taus, window_ps, ETA, source, filt, channel)
                    worst = max(worst, float(np.abs(rate - closed).max() / closed.max()))
                    datasets.append(Dataset(HomCurve(taus, 1e4 * rate / rate.max()), window_ps, length_km))
            out[name, pump] = rho, worst, datasets
    return out


def _fit_shift(campaigns, name, pump):
    """(beta2, rho) of a fit of the joint-spectrum campaign from the truth, less the truth."""
    rho, _, datasets = campaigns[name, pump]
    fit = lm_fit(datasets, FitParams(BETA2_REF, rho))
    assert fit.converged
    return fit.params.beta2_ps2_per_km - BETA2_REF, fit.params.rho_ps2_inv - rho


@pytest.mark.parametrize("name", ["far", "reference"])
@pytest.mark.parametrize("pump", [CW, 2.0])
def test_sum_time_integral_matches_quadrature(name, pump):
    # the density |eta A(t1, t2 - tau) - (1-eta) A(t2, t1 - tau)|^2 with
    # A = exp(-t^T K^-1 t / 2) from K inverted as it stands, integrated
    # over t+ by the trapezoid rule (spectrally accurate for a Gaussian),
    # against joint_spectrum_scales' closed form
    source, filt, channel = _source(name, pump), reference_filter(), ChannelParams(1.0, BETA2_REF)
    gamma = np.array(derive_gammas(source))
    k = (1.0 / (2.0 * pump**2) + (source.crystal_length_mm**2 / 12.0) * np.outer(gamma, gamma)
         + (1.0 / filter_variance(filt) + 1j * BETA2_REF) * np.eye(2))
    m = np.linalg.inv(k)
    alpha = m.real.sum()
    t_sum = np.linspace(-12.0, 12.0, 4001) / math.sqrt(alpha)
    s, d, kappa = joint_spectrum_scales(source, filt, channel)

    def amplitude(first, second):
        return np.exp(-0.5 * (m[0, 0] * first**2 + 2 * m[0, 1] * first * second + m[1, 1] * second**2))

    for tau, t in [(0.0, 30.0), (15.0, -40.0), (60.0, 25.0), (120.0, 100.0)]:
        t1, t2 = t_sum + 0.5 * t, t_sum - 0.5 * t
        density = np.abs(ETA * amplitude(t1, t2 - tau) - (1 - ETA) * amplitude(t2, t1 - tau)) ** 2
        numeric = density.sum() * (t_sum[1] - t_sum[0]) * math.sqrt(np.linalg.det(m.real)) / math.pi
        closed = math.sqrt(s / math.pi) * (
            ETA**2 * math.exp(-s * (t + tau) ** 2) + (1 - ETA) ** 2 * math.exp(-s * (t - tau) ** 2)
            - 2 * ETA * (1 - ETA) * math.exp(-s * tau**2 - d * t**2) * math.cos(2 * kappa * tau * t))
        assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-12 * math.sqrt(s))


@pytest.mark.parametrize("name, pump", [("epm", CW), ("reference", CW), ("far", CW), ("epm", 2.0)])
def test_closed_form_is_the_joint_spectrum_where_the_sum_coordinate_separates(campaigns, name, pump):
    # a CW pump fixes the sum frequency whatever the mismatch, and extended
    # phase matching separates it for any pump
    assert campaigns[name, pump][1] <= 1e-9


def test_joint_spectrum_sees_the_pump_far_from_epm(campaigns):
    # the test has teeth: away from the CW and EPM limits the two rates differ
    assert campaigns["far", 2.0][1] >= 1e-4


@pytest.mark.parametrize("name", list(SOURCES))
@pytest.mark.parametrize("pump", PUMPS)
def test_no_source_or_pump_moves_beta2(campaigns, standard_errors, name, pump):
    beta2_shift, _ = _fit_shift(campaigns, name, pump)
    assert abs(beta2_shift) <= 0.1 * standard_errors[0]


@pytest.mark.parametrize("pump", PUMPS)
def test_reference_crystal_keeps_rho(campaigns, standard_errors, pump):
    _, rho_shift = _fit_shift(campaigns, "reference", pump)
    assert abs(rho_shift) <= 0.1 * standard_errors[1]


def test_far_from_epm_a_broad_pump_moves_rho(campaigns, standard_errors):
    # the model's known limit: at mismatch 1 and sigma_p = 10 rad/ps the
    # fitted rho is the joint spectrum's, about a standard error above
    # derive_spectral's
    _, rho_shift = _fit_shift(campaigns, "far", 10.0)
    assert rho_shift >= 0.5 * standard_errors[1]
