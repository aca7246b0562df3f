"""Profiled-scale metric and the global Levenberg-Marquardt fit."""

import math

import numpy as np
import pytest

from disphom import (
    ChannelParams,
    Dataset,
    FitParams,
    HomCurve,
    broadened_rho,
    coincidence_curve,
    eta_prime,
    global_loss,
    lm_fit,
    profile_scale,
    rmsre,
)
from disphom import fitting
from disphom.io import poisson_counts
from disphom.model import coincidence_parts
from conftest import BETA2_REF, RHO_REF


def make_dataset(window_ns, length_km, eta=0.52, peak=1e4, points=201, seed=None,
                 beta2=BETA2_REF, rho=RHO_REF):
    window_ps = 1000.0 * window_ns
    taus = np.linspace(-1.5 * window_ps, 1.5 * window_ps, points)
    rho_p = broadened_rho(rho, ChannelParams(length_km, beta2))
    model = coincidence_curve(taus, rho, rho_p, eta_prime(eta), window_ps).values
    means = model / model.max() * peak
    if seed is None:
        counts = means
    else:
        counts = poisson_counts(means, seed).astype(float)
    return Dataset(HomCurve(taus, counts), window_ps, length_km,
                   label=f"T{window_ns}_L{length_km}")


def standard_sets(seed0=100, eta=0.52, peak=1e4):
    sets = []
    for i, (window_ns, length_km) in enumerate(
        [(0.3, 1.0), (0.3, 16.0), (0.5, 4.0), (0.5, 22.0), (0.8, 10.0),
         (0.8, 29.0), (1.0, 7.0), (1.0, 13.0), (0.4, 19.0), (0.4, 25.0)]
    ):
        sets.append(make_dataset(window_ns, length_km, eta=eta, peak=peak, seed=seed0 + i))
    return sets


# --- profile scale -------------------------------------------------------------

def test_profile_scale_identity():
    y = np.array([1.0, 2.0, 5.0, 0.5])
    assert profile_scale(y, y) == 1.0


def test_profile_scale_half():
    y = np.array([1.0, 2.0, 5.0, 0.5])
    assert profile_scale(2.0 * y, y) == 0.5


def test_profile_scale_matches_golden_section(rng):
    def golden_minimize(fun, lo, hi, tol=1e-13):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        while abs(b - a) > tol:
            if fun(c) < fun(d):
                b, d = d, c
                c = b - phi * (b - a)
            else:
                a, c = c, d
                d = a + phi * (b - a)
        return 0.5 * (a + b)

    for _ in range(5):
        f = rng.uniform(0.1, 3.0, 40)
        y = rng.uniform(0.1, 3.0, 40)

        def loss(s):
            return np.sum((s * f - y) ** 2)

        s_closed = profile_scale(f, y)
        s_searched = golden_minimize(loss, -10.0, 10.0)
        # E(s) = E(s*) + (f.f)(s - s*)^2 is evaluated with a relative error
        # of about eps, so a search on it cannot place s* closer than
        # sqrt(eps E / (f.f)); the closed form is the exact minimizer.
        eps = np.finfo(float).eps
        resolution = math.sqrt(eps * loss(s_closed) / np.dot(f, f))
        assert s_searched == pytest.approx(s_closed, abs=2.0 * resolution)
        # within that resolution the two computed losses differ by rounding
        assert loss(s_closed) <= loss(s_searched) * (1.0 + 4.0 * eps)


def test_profile_scale_weighted():
    f = np.array([1.0, 2.0, 4.0])
    y = np.array([1.0, 3.0, 2.0])
    w = np.array([1.0, 0.5, 0.25])
    assert profile_scale(f, y, w) == pytest.approx(np.dot(w * f, y) / np.dot(w * f, f), rel=1e-15)
    assert profile_scale(f, y, np.ones(3)) == profile_scale(f, y)


def test_profile_scale_all_zero_model():
    with pytest.raises(ValueError, match="scale undefined"):
        profile_scale(np.zeros(5), np.ones(5))


# --- global loss ----------------------------------------------------------------

def test_global_loss_empty():
    loss, residuals = global_loss(FitParams(BETA2_REF, RHO_REF, []), [])
    assert loss == 0.0 and residuals == []


def test_global_loss_self_consistency():
    sets = [make_dataset(0.4, 10.0), make_dataset(0.8, 20.0)]
    params = FitParams(BETA2_REF, RHO_REF, [0.52, 0.52])
    loss, _ = global_loss(params, sets)
    total = sum(np.sum(ds.curve.values**2) for ds in sets)
    assert loss <= 1e-18 * total


def test_global_loss_scale_invariant_value():
    sets = [make_dataset(0.4, 10.0, seed=1)]
    params = FitParams(BETA2_REF, RHO_REF, [0.52])
    loss1, _ = global_loss(params, sets)
    scaled = Dataset(
        HomCurve(sets[0].curve.tau_ps, 7.0 * sets[0].curve.values),
        sets[0].window_half_width_ps,
        sets[0].fiber_length_km,
    )
    loss2, _ = global_loss(params, [scaled])
    assert loss2 == pytest.approx(49.0 * loss1, rel=1e-12)


def test_global_loss_sums_over_mixed_datasets():
    # one stacked pass over unequal grids, windows, lengths (L = 0 among
    # them) and etas gives each dataset's own loss
    sets = [
        make_dataset(0.4, 10.0, seed=11),
        make_dataset(0.8, 0.0, eta=0.6, points=57, seed=12),
        make_dataset(0.3, 29.0, eta=0.5, points=130, seed=13),
    ]
    sets.append(Dataset(HomCurve(sets[0].curve.tau_ps[40:] + 3.5, sets[0].curve.values[40:]),
                        650.0, 4.0))
    etas = [0.52, 0.6, 0.5, 0.7]
    params = FitParams(BETA2_REF * 1.02, RHO_REF * 0.97, etas)
    loss, residuals = global_loss(params, sets)
    singles = [global_loss(FitParams(params.beta2_ps2_per_km, params.rho_ps2_inv, [eta]), [ds])
               for ds, eta in zip(sets, etas)]
    assert loss == pytest.approx(sum(single for single, _ in singles), rel=1e-12)
    for block, (_, single) in zip(residuals, singles):
        assert np.array_equal(block, single[0])


# --- the stacked model pass -----------------------------------------------------

MIRRORED = np.linspace(-600.0, 600.0, 201)

# each case: (delays, window half-width ps, fiber length km) per dataset
STACKED_CASES = {
    "mirrored": [(MIRRORED, 400.0, 10.0), (np.linspace(-1200.0, 1200.0, 151), 800.0, 29.0)],
    "asymmetric": [
        (np.linspace(-300.0, 500.0, 81), 400.0, 10.0),
        (np.linspace(-90.5, 1200.0, 64), 650.0, 4.0),
        # near-zero delays reach the kernel's series region on both sides
        (np.array([-0.25, 0.0, 0.35, 0.37, 300.0]), 600.0, 16.0),
    ],
    "holds_zero": [(np.linspace(-400.0, 400.0, 9), 300.0, 22.0)],
    "replicas": [(MIRRORED, 400.0, 10.0), (MIRRORED, 400.0, 10.0)],
    "mixed_t_and_l": [
        (MIRRORED, 400.0, 10.0), (MIRRORED, 800.0, 0.0),
        (MIRRORED, 400.0, 0.0), (MIRRORED, 800.0, 10.0), (MIRRORED[50:], 400.0, 10.0),
    ],
}


def kernel_points(monkeypatch, datasets, beta2=BETA2_REF, rho=RHO_REF):
    """One stacked pass's (p, q) blocks and the number of points it evaluated."""
    sizes = []

    def counted(taus, *args):
        sizes.append(np.size(taus))
        return coincidence_parts(taus, *args)

    monkeypatch.setattr(fitting, "coincidence_parts", counted)
    parts = fitting._StackedPass(datasets)(beta2, rho)
    assert len(sizes) == 1
    return parts, sizes[0]


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_pass_equals_per_dataset_parts(case, monkeypatch):
    sets = STACKED_CASES[case]
    datasets = [Dataset(HomCurve(taus, np.ones_like(taus)), window, length)
                for taus, window, length in sets]
    beta2, rho = BETA2_REF * 1.03, RHO_REF * 0.98
    parts, points = kernel_points(monkeypatch, datasets, beta2, rho)
    for (p, q), (taus, window, length) in zip(parts, sets):
        single_p, single_q = coincidence_parts(
            taus, rho, broadened_rho(rho, ChannelParams(length, beta2)), window)
        assert np.array_equal(p, single_p)
        assert np.array_equal(q, single_q)
    distinct = {(window, length, abs(t)) for taus, window, length in sets for t in taus}
    assert points == len(distinct)


def test_stacked_pass_evaluates_each_distinct_point_once(monkeypatch):
    # two replicas of a 201-point mirrored grid share their 101 |tau|
    replica = make_dataset(0.4, 10.0)
    assert kernel_points(monkeypatch, [replica, replica])[1] == 101
    assert kernel_points(monkeypatch, [replica, make_dataset(0.4, 0.0)])[1] == 202


def test_objective_derivatives_match_differences():
    # lm_fit's gradient, Newton matrix and J^T J are exact derivatives of the
    # projected loss, for datasets with eta' free and held at the bound 0
    sets = [make_dataset(0.4, 10.0, eta=0.5, seed=7),
            make_dataset(0.8, 0.0, eta=0.6, points=57, seed=2),
            make_dataset(0.3, 29.0, eta=0.55, points=130, seed=3),
            make_dataset(1.0, 4.0, seed=4)]
    objective = fitting._Objective(sets)
    x = np.array([BETA2_REF * 1.01 / 10.0, math.log(RHO_REF * 0.99)])
    solved = objective.solve(x)
    assert solved.eta_ps[0] == 0.0 and 0.0 < min(solved.eta_ps[1:])
    exact = objective.derivatives(x, solved)

    def half_loss(x):
        return 0.5 * objective.solve(x).loss

    def weighted_residuals(x):
        res = objective.solve(x).res
        return np.concatenate([np.sqrt(w2) * r for w2, r in zip(objective.weights2, res)])

    steps = 2.0 ** -np.arange(10, 19)
    errors = []
    for h in steps:
        e = h * np.eye(2)
        grad = np.array([half_loss(x + e[i]) - half_loss(x - e[i]) for i in range(2)]) / (2 * h)
        newton = np.array([[half_loss(x + e[i] + e[j]) - half_loss(x + e[i] - e[j])
                            - half_loss(x - e[i] + e[j]) + half_loss(x - e[i] - e[j])
                            for j in range(2)] for i in range(2)]) / (4 * h * h)
        jac = np.array([weighted_residuals(x + e[i]) - weighted_residuals(x - e[i])
                        for i in range(2)]) / (2 * h)
        errors.append([np.abs(estimate - value).max() / np.abs(value).max()
                       for estimate, value in zip((grad, jac @ jac.T, newton), exact)])
    # each difference's error falls as h^2 down to a floor: the rounding of
    # the loss for the gradient and J^T J, and for the Newton matrix the
    # cancellation that the second derivatives in rho carry where
    # sqrt(rho) |tau| >> 1 (about 1e-6 per point, 1e-5 here)
    for errs, floor in zip(np.transpose(errors), (1e-8, 1e-8, 3e-5)):
        assert np.all(errs <= 1.5 * errs[0] * (steps / steps[0]) ** 2 + floor), errs


def test_model_passes_counts_kernel_calls(monkeypatch):
    # one coincidence_parts call per trial point: the derivatives and the
    # covariance cost none
    calls = []

    def counted(*args):
        calls.append(1)
        return coincidence_parts(*args)

    monkeypatch.setattr(fitting, "coincidence_parts", counted)
    for seed0, eta in ((100, 0.52), (700, 0.5)):
        sets = standard_sets(seed0=seed0, eta=eta)
        calls.clear()
        result = lm_fit(sets, FitParams(20.0, 13.0))
        assert result.converged
        assert result.model_passes == len(calls)
        assert result.model_passes <= 1 + 2 * result.iterations


# --- rmsre ----------------------------------------------------------------------

def test_rmsre_zero_residuals():
    assert rmsre(np.zeros(10), np.ones(10)) == 0.0


def test_rmsre_constant_fraction():
    y = np.linspace(1.0, 9.0, 20)
    assert rmsre(0.1 * y, y) == pytest.approx(0.1, rel=1e-12)


def test_rmsre_excludes_zero_bins():
    y = np.array([0.0, 2.0, 4.0])
    r = np.array([99.0, 0.2, 0.4])
    assert rmsre(r, y) == pytest.approx(0.1, rel=1e-12)


def test_rmsre_all_zero_rejected():
    with pytest.raises(ValueError, match="no valid points"):
        rmsre(np.ones(3), np.zeros(3))


def test_rmsre_near_poisson_floor():
    # converged fits on Poisson data should sit within a factor two of the
    # sqrt(mean 1/y) floor
    for seed in (5, 6, 7):
        sets = standard_sets(seed0=1000 * seed)
        init = FitParams(BETA2_REF, RHO_REF, [0.52] * len(sets))
        result = lm_fit(sets, init)
        assert result.converged
        for ds, got in zip(sets, result.rmsre_per_dataset):
            y = ds.curve.values
            floor = math.sqrt(np.mean(1.0 / y[y > 0]))
            assert floor / 2.0 <= got <= 2.0 * floor


# --- lm_fit ----------------------------------------------------------------------

def test_lm_fit_fixed_point():
    sets = [make_dataset(0.4, 10.0), make_dataset(0.8, 15.0), make_dataset(0.3, 1.0)]
    init = FitParams(BETA2_REF, RHO_REF, [0.52] * 3)
    result = lm_fit(sets, init)
    assert result.converged and result.iterations <= 3
    assert result.params.beta2_ps2_per_km == pytest.approx(BETA2_REF, rel=1e-8)
    assert result.params.rho_ps2_inv == pytest.approx(RHO_REF, rel=1e-8)
    for eta in result.params.etas:
        assert eta == pytest.approx(0.52, rel=1e-8)


def test_lm_fit_recovers_noisy_truth():
    sets = standard_sets()
    init = FitParams(20.0, RHO_REF * 1.05, [0.501] * len(sets))
    result = lm_fit(sets, init)
    assert result.converged
    assert abs(result.params.beta2_ps2_per_km - BETA2_REF) <= 3.0 * result.beta2_sigma_ps2_per_km
    assert abs(result.params.rho_ps2_inv - RHO_REF) <= 3.0 * result.rho_sigma_ps2_inv


def test_lm_fit_scale_invariance():
    sets = standard_sets(seed0=300)
    init = FitParams(BETA2_REF, RHO_REF, [0.52] * len(sets))
    base = lm_fit(sets, init)
    scaled_sets = list(sets)
    scaled_sets[3] = Dataset(
        HomCurve(sets[3].curve.tau_ps, 11.0 * sets[3].curve.values),
        sets[3].window_half_width_ps,
        sets[3].fiber_length_km,
    )
    scaled = lm_fit(scaled_sets, init)
    assert scaled.params.beta2_ps2_per_km == pytest.approx(
        base.params.beta2_ps2_per_km, rel=1e-6
    )
    assert scaled.params.rho_ps2_inv == pytest.approx(base.params.rho_ps2_inv, rel=1e-6)
    assert scaled.scales[3] == pytest.approx(11.0 * base.scales[3], rel=1e-6)
    for i in (0, 1, 2, 4):
        assert scaled.scales[i] == pytest.approx(base.scales[i], rel=1e-6)


def test_lm_fit_delay_sign_symmetry():
    sets = standard_sets(seed0=400)
    init = FitParams(BETA2_REF, RHO_REF, [0.52] * len(sets))
    base = lm_fit(sets, init)
    reversed_sets = [
        Dataset(
            HomCurve(-ds.curve.tau_ps[::-1], ds.curve.values[::-1]),
            ds.window_half_width_ps,
            ds.fiber_length_km,
        )
        for ds in sets
    ]
    mirrored = lm_fit(reversed_sets, init)
    assert mirrored.params.beta2_ps2_per_km == pytest.approx(
        base.params.beta2_ps2_per_km, rel=1e-6
    )
    assert mirrored.params.rho_ps2_inv == pytest.approx(base.params.rho_ps2_inv, rel=1e-6)


def test_lm_fit_eta_canonical_and_mirror_init():
    sets = standard_sets(seed0=500, eta=0.58)
    up = lm_fit(sets, FitParams(BETA2_REF, RHO_REF, [0.57] * len(sets)))
    down = lm_fit(sets, FitParams(BETA2_REF, RHO_REF, [0.43] * len(sets)))
    for result in (up, down):
        assert all(e >= 0.5 for e in result.params.etas)
    for a, b in zip(up.params.etas, down.params.etas):
        ep_a = (2 * a - 1) ** 2
        ep_b = (2 * b - 1) ** 2
        assert ep_b == pytest.approx(ep_a, abs=1e-6)


def test_lm_fit_balanced_splitter_converges():
    # at eta = 1/2 the best eta' of several datasets is the bound 0, which
    # the fit holds exactly instead of approaching it step by step
    sets = standard_sets(seed0=700, eta=0.5)
    result = lm_fit(sets, FitParams(20.0, 13.0, [0.6] * len(sets)))
    assert result.converged and result.iterations <= 30
    assert 0.5 in result.params.etas
    # the datasets held at eta = 1/2 leave the covariance, which inverts the rest
    held = [i for i, eta in enumerate(result.params.etas) if eta == 0.5]
    assert result.etas_held_at_bound == held
    assert not result.pseudo_inverse_used
    assert math.isfinite(result.jtj_condition)
    rows = [2 + i for i in held]
    assert not result.covariance[rows].any() and not result.covariance[:, rows].any()
    assert abs(result.params.beta2_ps2_per_km - BETA2_REF) <= 3.0 * result.beta2_sigma_ps2_per_km
    assert abs(result.params.rho_ps2_inv - RHO_REF) <= 3.0 * result.rho_sigma_ps2_inv


def test_lm_fit_l0_beta2_unidentifiable():
    taus = np.linspace(-3.0, 3.0, 301)
    model = coincidence_curve(taus, RHO_REF, RHO_REF, 0.0, 400.0).values
    ds = Dataset(HomCurve(taus, 1e4 * model), 400.0, 0.0)
    result = lm_fit([ds], FitParams(20.0, 14.0, [0.501]))
    assert result.converged
    assert result.pseudo_inverse_used
    assert result.jtj_condition > 1e12
    assert result.params.rho_ps2_inv == pytest.approx(RHO_REF, rel=1e-6)


def test_lm_fit_sigma_shrinks_with_replicas():
    small = [make_dataset(0.4, 10.0, seed=9000 + i) for i in range(4)]
    large = small + [make_dataset(0.4, 10.0, seed=9100 + i) for i in range(12)]
    init_small = FitParams(BETA2_REF, RHO_REF, [0.52] * len(small))
    init_large = FitParams(BETA2_REF, RHO_REF, [0.52] * len(large))
    sigma_small = lm_fit(small, init_small).beta2_sigma_ps2_per_km
    sigma_large = lm_fit(large, init_large).beta2_sigma_ps2_per_km
    expected = math.sqrt(len(large) / len(small))
    ratio = sigma_small / sigma_large
    assert expected / 1.5 <= ratio <= expected * 1.5


def test_lm_fit_input_validation():
    with pytest.raises(ValueError, match="at least one dataset"):
        lm_fit([], FitParams(20.0, 14.0, []))
    # the init gives beta2 and rho only: no etas are needed, and any given are not read
    sets = [make_dataset(0.4, 10.0), make_dataset(0.8, 15.0), make_dataset(0.3, 1.0)]
    result = lm_fit(sets, FitParams(BETA2_REF, RHO_REF))
    assert len(result.params.etas) == len(sets)
    with_etas = lm_fit(sets, FitParams(BETA2_REF, RHO_REF, [0.9]))
    assert with_etas.params == result.params and with_etas.loss == result.loss
    tiny = make_dataset(0.4, 10.0, points=5)
    # 5 points but p + 1 = 4 needed -> fine; shrink below the limit
    with pytest.raises(ValueError, match="p \\+ 1"):
        lm_fit(
            [Dataset(HomCurve(tiny.curve.tau_ps[:3], tiny.curve.values[:3]), 400.0, 10.0)],
            FitParams(20.0, 14.0, [0.501]),
        )


def test_fit_params_canonicalize():
    params = FitParams(BETA2_REF, RHO_REF, [0.3, 0.5, 0.9])
    assert params.etas == [0.7, 0.5, 0.9]
    with pytest.raises(ValueError):
        FitParams(BETA2_REF, -1.0, [])
