"""Profiled-scale metric and the global Levenberg-Marquardt fit."""

import math

import numpy as np
import pytest

from disphom import (
    ChannelParams,
    Dataset,
    FitParams,
    FitProblem,
    HomCurve,
    broadened_rho,
    coincidence_curve,
    eta_prime,
    generate_synthetic,
    lm_fit,
    model_values,
    profile_scale,
    rmsre,
)
from disphom import fitting
from disphom.io import poisson_counts
from disphom.model import coincidence_parts, coincidence_parts_derivatives
from conftest import BETA2_REF, RHO_REF, small_campaign


def make_dataset(window_ns, length_km, eta=0.52, peak=1e4, points=201, seed=None,
                 beta2=BETA2_REF, rho=RHO_REF, taus=None):
    window_ps = 1000.0 * window_ns
    if taus is None:
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


def test_profile_scale_all_zero_model():
    with pytest.raises(ValueError, match="scale undefined"):
        profile_scale(np.zeros(5), np.ones(5))


# --- the fit's objective --------------------------------------------------------

def test_fit_problem_empty():
    with pytest.raises(ValueError, match="at least one dataset"):
        FitProblem([])


def test_fit_problem_self_consistency():
    sets = [make_dataset(0.4, 10.0), make_dataset(0.8, 20.0)]
    solved = FitProblem(sets).solve(BETA2_REF, RHO_REF)
    total = sum(np.sum(fitting._poisson_weights(ds.curve.values) * ds.curve.values**2)
                for ds in sets)
    assert solved.loss <= 1e-18 * total


def test_fit_problem_scale_invariant_value():
    sets = [make_dataset(0.4, 10.0, seed=1)]
    loss1 = FitProblem(sets).solve(BETA2_REF, RHO_REF).loss
    scaled = Dataset(
        HomCurve(sets[0].curve.tau_ps, 7.0 * sets[0].curve.values),
        sets[0].window_half_width_ps,
        sets[0].fiber_length_km,
    )
    loss2 = FitProblem([scaled]).solve(BETA2_REF, RHO_REF).loss
    assert loss2 == pytest.approx(loss1, rel=1e-12)


def test_fit_problem_sums_over_mixed_datasets():
    # over unequal grids, windows, lengths (L = 0 among them) and etas, the
    # loss is the sum of each dataset's own loss, and each dataset's scale,
    # eta' and residuals are its own problem's, bit for bit
    sets = [
        make_dataset(0.4, 10.0, seed=11),
        make_dataset(0.8, 0.0, eta=0.6, points=57, seed=12),
        make_dataset(0.3, 29.0, eta=0.5, points=130, seed=13),
    ]
    sets.append(Dataset(HomCurve(sets[0].curve.tau_ps[40:] + 3.5, sets[0].curve.values[40:]),
                        650.0, 4.0))
    beta2, rho = BETA2_REF * 1.02, RHO_REF * 0.97
    problem = FitProblem(sets)
    solved = problem.solve(beta2, rho)
    singles = [FitProblem([ds]).solve(beta2, rho) for ds in sets]
    assert solved.loss == pytest.approx(sum(single.loss for single in singles), rel=1e-12)
    for block, scale, eta_p, single in zip(problem.split(solved.res), solved.scales,
                                           solved.eta_ps, singles):
        assert np.array_equal(block, single.res)
        assert [scale, eta_p] == [single.scales[0], single.eta_ps[0]]


@pytest.mark.parametrize("beta2", [20.0, -20.0], ids=["plus", "minus"])
def test_fit_problem_reproduces_lm_fit_result(monkeypatch, beta2):
    # the fit evaluates its loss only through FitProblem.solve, so at the
    # reported params the public objective gives its loss, scales and held
    # etas bit for bit.  From a negative start every point the fit takes,
    # its last included, has beta2 < 0, and the model is even in beta2.
    # FitParams stores |beta2|, so the negative start is set after it.
    datasets, _ = generate_synthetic(small_campaign())
    init = FitParams(20.0, 10.0)
    init.beta2_ps2_per_km = beta2
    points = []
    solve = FitProblem.solve

    def recorded(self, *point):
        points.append(point[0])
        return solve(self, *point)

    monkeypatch.setattr(FitProblem, "solve", recorded)
    result = lm_fit(datasets, init)
    assert result.converged
    assert all(math.copysign(1.0, point) == math.copysign(1.0, beta2) for point in points)
    solved = FitProblem(datasets).solve(result.params.beta2_ps2_per_km,
                                        result.params.rho_ps2_inv)
    assert solved.loss == result.loss
    assert solved.scales.tolist() == result.scales
    assert np.flatnonzero(solved.held).tolist() == result.etas_held_at_bound


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
    """One model pass's (p, q) per dataset and the number of points it evaluated."""
    sizes = []

    def counted(taus, *args):
        sizes.append(np.size(taus))
        return coincidence_parts(taus, *args)

    monkeypatch.setattr(fitting, "coincidence_parts", counted)
    objective = FitProblem(datasets)
    distinct = objective.parts(beta2, rho)
    parts = [tuple(block) for block in objective.split(objective.expand(distinct))]
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
    # projected loss, for datasets with eta' free and held at the bounds 0 and 1
    sets = [make_dataset(0.4, 10.0, eta=0.5, seed=7),
            make_dataset(0.8, 0.0, eta=0.6, points=57, seed=2),
            make_dataset(0.3, 29.0, eta=0.55, points=130, seed=3),
            make_dataset(1.0, 4.0, seed=4),
            make_dataset(0.4, 0.0, eta=1.0, seed=4)]
    objective = FitProblem(sets)
    x = np.array([BETA2_REF * 1.01, math.log(RHO_REF * 0.99)])
    solved = objective.solve(x[0], math.exp(x[1]))
    assert solved.eta_ps[0] == 0.0 and 0.0 < min(solved.eta_ps[1:])
    assert solved.eta_ps[4] == 1.0
    assert_eliminated_blocks_match_differences(objective, x)


def assert_eliminated_blocks_match_differences(objective, x):
    """_eliminate's J^T r, J^T J and N at x equal central differences of the loss."""
    solved = objective.solve(x[0], math.exp(x[1]))
    exact = fitting._eliminate(objective.blocks(x[0], math.exp(x[1]), solved), ~solved.held)

    def half_loss(x):
        return 0.5 * objective.solve(x[0], math.exp(x[1])).loss

    def weighted_residuals(x):
        return np.sqrt(objective._w2) * objective.solve(x[0], math.exp(x[1])).res

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


def test_fold_keeps_datasets_apart():
    # two replicas share (T, L) and grid, so their distinct points, but each
    # has its own counts and eta, so its own folded points; an asymmetric
    # grid pairs no +-tau, and a grid through tau = 0 leaves that point
    # unpaired
    sets = [make_dataset(0.4, 10.0, eta=0.52, seed=21),
            make_dataset(0.4, 10.0, eta=0.6, peak=3e3, seed=22),
            make_dataset(0.65, 4.0, eta=0.55, seed=23, taus=np.linspace(-90.5, 1200.0, 64)),
            make_dataset(0.3, 22.0, eta=0.58, seed=24, taus=np.linspace(-200.0, 450.0, 66))]
    assert np.array_equal(sets[0].curve.tau_ps, sets[1].curve.tau_ps)
    assert 0.0 in sets[3].curve.tau_ps
    problem = FitProblem(sets)
    folded = [np.unique(np.abs(ds.curve.tau_ps)).size for ds in sets]
    assert folded == [101, 101, 64, 46]
    assert problem._folded.size == sum(folded)
    beta2, rho = BETA2_REF * 1.02, RHO_REF * 0.97
    solved = problem.solve(beta2, rho)
    for ds, scale, eta_p in zip(sets, solved.scales, solved.eta_ps):
        single = FitProblem([ds]).solve(beta2, rho)
        assert scale == pytest.approx(single.scales[0], rel=1e-12)
        assert eta_p == pytest.approx(single.eta_ps[0], rel=1e-12)
    assert_eliminated_blocks_match_differences(
        problem, np.array([BETA2_REF * 1.01, math.log(RHO_REF * 0.99)]))


def test_solve_matches_dense_eta_scan():
    # one stacked solve gives each dataset the best eta' in [0, 1], each
    # with its closed-form weighted scale: an interior eta', eta' = 0
    # (eta = 1/2, where the unconstrained eta' is negative) and eta' = 1
    # (eta = 1 at L = 0, where it exceeds 1)
    sets = [make_dataset(0.8, 10.0, eta=0.6, seed=2),
            make_dataset(0.4, 10.0, eta=0.5, seed=7),
            make_dataset(0.4, 0.0, eta=1.0, seed=4)]
    objective = FitProblem(sets)
    solved = objective.solve(BETA2_REF, RHO_REF)
    assert 0.0 < solved.eta_ps[0] < 1.0 and list(solved.eta_ps[1:]) == [0.0, 1.0]
    assert list(solved.held) == [False, True, True]
    scan = np.linspace(0.0, 1.0, 2001)
    parts = objective.split(objective.expand(objective.parts(BETA2_REF, RHO_REF)))
    for (p, q), ds, w2, r, s, eta_p in zip(parts, sets, objective.split(objective._w2),
                                           objective.split(solved.res), solved.scales,
                                           solved.eta_ps):
        y = ds.curve.values
        f = p + scan[:, None] * q
        scales = (w2 * f) @ y / np.sum(w2 * f * f, axis=1)
        losses = np.sum(w2 * (scales[:, None] * f - y) ** 2, axis=1)
        best = int(losses.argmin())
        assert abs(eta_p - scan[best]) <= scan[1]
        assert np.dot(w2 * r, r) <= losses[best] * (1.0 + 1e-12)
        f = p + eta_p * q
        assert s == pytest.approx(np.dot(w2 * f, y) / np.dot(w2 * f, f), rel=1e-12)


@pytest.mark.parametrize("seed, eta", [(8, 0.5), (10, 0.52)])
def test_lm_fit_stops_at_rounding_floor(seed, eta):
    # from the truth the loss reaches its rounding floor in a few steps; the
    # fit stops on the predicted decrease there instead of damping trial
    # steps down to zero, which took 14 and 20 passes over 5 iterations
    datasets, _ = generate_synthetic(small_campaign(seed=seed, etas=eta))
    result = lm_fit(datasets, FitParams(BETA2_REF, RHO_REF))
    assert result.converged
    assert result.model_passes <= 2 + result.iterations


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


def test_newton_check_derivatives_serve_the_covariance(monkeypatch):
    # the per-point derivatives of the Newton check that ends a fit also give
    # its covariance: one evaluation per iteration and one more, not two
    calls = []

    def counted(*args):
        calls.append(1)
        return coincidence_parts_derivatives(*args)

    monkeypatch.setattr(fitting, "coincidence_parts_derivatives", counted)
    for seed0, eta in ((100, 0.52), (700, 0.5)):
        calls.clear()
        result = lm_fit(standard_sets(seed0=seed0, eta=eta), FitParams(20.0, 13.0))
        assert result.converged
        assert len(calls) == result.iterations + 1


# --- the loop's 2x2 algebra -------------------------------------------------------

def random_symmetric(rng, kind):
    """A symmetric 2x2 matrix of the given kind, as (m00, m10, m11)."""
    if kind == "positive-definite":
        root = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3, 2)
        matrix = root @ root.T + 1e-3 * np.diag(np.diag(root @ root.T))
        return matrix[0, 0], matrix[1, 0], matrix[1, 1]
    if kind == "indefinite":
        m00, m11 = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, 2)
        off = math.sqrt(abs(m00 * m11)) * rng.uniform(1.01, 10.0)  # |m10| > sqrt(|m00 m11|)
        return m00, math.copysign(off, rng.normal()), m11
    if kind == "semidefinite":  # exactly singular: (k, m)(k, m)^T for a power of two k
        k, m = 2.0 ** rng.integers(-8, 8), float(rng.integers(-1000, 1000))
        return k * k, k * m, m * m
    return 0.0, rng.normal(), rng.normal()  # a zero diagonal entry


MATRIX_KINDS = ["positive-definite", "indefinite", "semidefinite", "zero-diagonal"]


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_solve_2x2_matches_numpy(kind):
    rng = np.random.default_rng(MATRIX_KINDS.index(kind))
    eps = np.finfo(float).eps
    for _ in range(2000):
        m00, m10, m11 = random_symmetric(rng, kind)
        g = rng.normal(size=2)
        matrix = np.array([[m00, m10], [m10, m11]])
        solved = fitting._solve_2x2(m00, m10, m11, *g)
        try:
            lower = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            assert solved is None
            continue
        assert kind == "positive-definite"
        step, predicted = solved
        # the solve is as good as the matrix's condition allows
        expected = np.linalg.solve(matrix, g)
        bound = 16.0 * eps * np.linalg.cond(matrix) * np.abs(expected).max()
        assert np.all(np.abs(np.array(step) - expected) <= bound)
        half_step = np.linalg.solve(lower, g)
        assert predicted == pytest.approx(half_step @ half_step,
                                          rel=1e3 * eps * np.linalg.cond(matrix))


def test_damping_floor_on_an_indefinite_newton_matrix():
    # N + lam diag(d) is singular at the floor and positive definite beyond it;
    # lm_fit starts at twice the floor, where the least eigenvalue of
    # diag(d)^-1/2 (N + lam diag(d)) diag(d)^-1/2 equals the floor itself
    rng = np.random.default_rng(41)
    for _ in range(2000):
        n00, n10, n11 = random_symmetric(rng, "indefinite")
        d = 10.0 ** rng.uniform(-3, 3, 2)
        floor = fitting._damping_floor(n00, n10, n11, *d)
        assert floor > 0
        scaled = np.array([[n00, n10], [n10, n11]]) / np.sqrt(np.outer(d, d))
        for factor, least in ((1.0, 0.0), (2.0, floor)):
            eigenvalues = np.linalg.eigvalsh(scaled + factor * floor * np.eye(2))
            assert abs(eigenvalues[0] - least) <= 1e-12 * np.abs(eigenvalues).max()
        assert fitting._solve_2x2(n00 + 2.0 * floor * d[0], n10, n11 + 2.0 * floor * d[1],
                                  1.0, 1.0) is not None
    for _ in range(200):  # nothing to lift where N is positive definite already
        assert fitting._damping_floor(*random_symmetric(rng, "positive-definite"),
                                      *10.0 ** rng.uniform(-3, 3, 2)) == 0.0


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
    # no data point moves with beta2: it is left out of the inverted block
    # with an infinite variance, and what the data see is well conditioned
    assert result.beta2_sigma_ps2_per_km == math.inf
    assert 0 < result.rho_sigma_ps2_inv < math.inf
    assert 1 <= result.jtj_condition < 1e3
    assert result.params.rho_ps2_inv == pytest.approx(RHO_REF, rel=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("overrides", [
    dict(fiber_lengths_km=[0.0]),
    dict(beta2_ps2_per_km=0.0, fiber_lengths_km=[10.0, 20.0]),
], ids=["zero-length", "zero-beta2"])
def test_lm_fit_sigma_covers_truth_on_degenerate_campaigns(seed, overrides):
    # at L = 0, or at beta2 = 0, the dip is far narrower than the 6 ps delay
    # step, so the data barely see rho: its sigma must be large, not 0, and
    # the truth must lie within 3 sigma of each estimate
    config = small_campaign(seed=seed, windows_ns=[0.4], tau_points=201, **overrides)
    datasets, _ = generate_synthetic(config)
    result = lm_fit(datasets, FitParams(20.0, 10.0))
    assert abs(result.params.rho_ps2_inv - RHO_REF) <= 3.0 * result.rho_sigma_ps2_inv
    beta2 = config.beta2_ps2_per_km
    assert abs(result.params.beta2_ps2_per_km - beta2) <= 3.0 * result.beta2_sigma_ps2_per_km


def test_lm_fit_sigma_is_infinite_where_the_covariance_keeps_no_digits(monkeypatch):
    # at rho ~ 67 on a beta2 = 0 campaign the data see only a combination of
    # beta2 and rho: J^T J in correlation form has a condition of ~1e16, and
    # its inverse, which once gave sigma = 0 here, holds no digit
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 0)
    config = small_campaign(seed=3, windows_ns=[0.4], tau_points=201, beta2_ps2_per_km=0.0,
                            fiber_lengths_km=[10.0, 20.0])
    datasets, _ = generate_synthetic(config)
    result = lm_fit(datasets, FitParams(0.0021, 67.0))
    assert result.jtj_condition >= 1e14
    assert result.beta2_sigma_ps2_per_km == math.inf
    assert result.rho_sigma_ps2_inv == math.inf


@pytest.mark.parametrize("seed, beta2, rho", [(3, 3.0, 1.0), (3, 5.0, 10.0), (5, 0.2, 30.0)])
def test_lm_fit_rejects_trial_steps_without_a_model(seed, beta2, rho):
    # from these starts a trial step overflowed rho = e^x1 or rho' = rho / g
    # and escaped as an exception; such a step is rejected like a loss rise
    datasets, _ = generate_synthetic(small_campaign(seed=seed))
    result = lm_fit(datasets, FitParams(beta2, rho))
    assert isinstance(result, fitting.FitResult)
    assert math.isfinite(result.loss)


def far_and_near_sets():
    # both at T = 0.4 ns and L = 10 km; the far grid lies 1000-1100 ps from the
    # center, where the model is 0 in floating point once a small beta2 has
    # narrowed the bump (below about 1.5 ps^2/km)
    near = make_dataset(0.4, 10.0, seed=6)
    far = make_dataset(0.4, 10.0, taus=np.linspace(1000.0, 1100.0, 21), seed=5)
    far.label = "far"
    return [near, far]


def test_solve_has_no_model_where_a_dataset_is_zero():
    problem = FitProblem(far_and_near_sets())
    assert problem.solve(BETA2_REF, RHO_REF) is not None
    assert problem.solve(1.0, RHO_REF) is None


def test_lm_fit_rejects_trial_steps_where_a_model_is_zero(monkeypatch):
    # from rho = 30 a trial step reaches a point where the far dataset's model
    # is 0; it is rejected like a loss rise, and the fit goes on to the truth
    solve = FitProblem.solve
    missing = []

    def counted(self, beta2, rho):
        solved = solve(self, beta2, rho)
        missing.append(solved is None)
        return solved

    monkeypatch.setattr(FitProblem, "solve", counted)
    result = lm_fit(far_and_near_sets(), FitParams(BETA2_REF, 30.0))
    assert not missing[0] and any(missing)
    assert result.converged
    assert abs(result.params.beta2_ps2_per_km - BETA2_REF) <= 3.0 * result.beta2_sigma_ps2_per_km
    assert abs(result.params.rho_ps2_inv - RHO_REF) <= 3.0 * result.rho_sigma_ps2_inv


def test_lm_fit_names_the_dataset_without_a_model_at_the_start():
    with pytest.raises(ValueError, match="init: no scale fits dataset far") as raised:
        lm_fit(far_and_near_sets(), FitParams(1.0, RHO_REF))
    assert "rho'" not in str(raised.value)
    with pytest.raises(ValueError, match="init: rho'"):
        lm_fit(far_and_near_sets(), FitParams(1e200, RHO_REF))


def test_lm_fit_all_zero_dataset_leaves_sigma():
    # an all-zero dataset brings neither points nor parameters to the
    # degrees of freedom, so the covariance does not shrink
    datasets, _ = generate_synthetic(small_campaign(seed=3))
    taus = datasets[0].curve.tau_ps
    blank = Dataset(HomCurve(taus, np.zeros_like(taus)), 400.0, 10.0)
    base = lm_fit(datasets, FitParams(BETA2_REF, RHO_REF))
    padded = lm_fit(datasets + [blank], FitParams(BETA2_REF, RHO_REF))
    assert padded.beta2_sigma_ps2_per_km == pytest.approx(base.beta2_sigma_ps2_per_km, rel=1e-12)
    assert padded.rho_sigma_ps2_inv == pytest.approx(base.rho_sigma_ps2_inv, rel=1e-12)


def test_lm_fit_folds_beta2_sign():
    # the model sees beta2 only through (L beta2 rho)^2: both signs of the
    # start give the same fit, reported at beta2 > 0.  FitParams stores
    # |beta2|, so the negative start is set after it.
    datasets, _ = generate_synthetic(small_campaign(seed=3))
    plus = lm_fit(datasets, FitParams(20.0, 10.0))
    negative = FitParams(20.0, 10.0)
    negative.beta2_ps2_per_km = -20.0
    minus = lm_fit(datasets, negative)
    assert plus.params.beta2_ps2_per_km > 0
    assert minus.params == plus.params
    assert np.array_equal(minus.covariance, plus.covariance)


def test_lm_fit_dataset_order_invariance():
    # the fit sums over datasets, so their order changes it at rounding level
    # only, and every per-dataset output follows its dataset
    datasets, _ = generate_synthetic(small_campaign(seed=3))
    order = [4, 1, 5, 0, 3, 2]
    base = lm_fit(datasets, FitParams(BETA2_REF, RHO_REF))
    permuted = lm_fit([datasets[i] for i in order], FitParams(BETA2_REF, RHO_REF))
    for field in ("beta2_ps2_per_km", "rho_ps2_inv"):
        assert getattr(permuted.params, field) == pytest.approx(
            getattr(base.params, field), rel=1e-12)
    assert permuted.loss == pytest.approx(base.loss, rel=1e-12)
    assert permuted.iterations == base.iterations
    for got, want in ((permuted.params.etas, base.params.etas),
                      (permuted.scales, base.scales),
                      (permuted.rmsre_per_dataset, base.rmsre_per_dataset)):
        assert got == pytest.approx([want[i] for i in order], rel=1e-9)
    index = [0, 1] + [2 + i for i in order]
    expected = base.covariance[np.ix_(index, index)]
    assert np.abs(permuted.covariance - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize(
    "cap, init",
    [(None, (BETA2_REF, RHO_REF)), (2, (20.0, 10.0)), (5, (20.0, 10.0))],
    ids=["converged", "capped-2", "capped-5"],
)
def test_lm_fit_covariance_matches_differences(monkeypatch, cap, init):
    # the covariance is (J^T J)^-1 loss / (n - p) for the Jacobian of the
    # weighted residuals in (|beta2|, rho, eta_1..eta_D), each scale profiled:
    # here J is taken by central differences of model_values.  A fit cut at
    # the iteration limit must take it at its last point, as a converged one does.
    if cap is not None:
        monkeypatch.setattr(fitting, "_MAX_ITERATIONS", cap)
    datasets, _ = generate_synthetic(small_campaign(seed=3, etas=0.55))
    result = lm_fit(datasets, FitParams(*init))
    assert result.converged == (cap is None) and result.etas_held_at_bound == []
    weights = [np.sqrt(fitting._poisson_weights(ds.curve.values)) for ds in datasets]

    def weighted_residuals(theta):
        out = []
        for ds, w, eta in zip(datasets, weights, theta[2:]):
            f, y = w * model_values(ds, theta[0], theta[1], eta), w * ds.curve.values
            out.append(np.dot(f, y) / np.dot(f, f) * f - y)
        return np.concatenate(out)

    theta = np.array([result.params.beta2_ps2_per_km, result.params.rho_ps2_inv,
                      *result.params.etas])
    jac = []
    for i, h in enumerate(1e-6 * theta):
        e = np.zeros_like(theta)
        e[i] = h
        jac.append((weighted_residuals(theta + e) - weighted_residuals(theta - e)) / (2 * h))
    jac = np.array(jac)
    n_points, n_params = jac.shape[1], 2 + 2 * len(datasets)
    expected = np.linalg.inv(jac @ jac.T) * result.loss / (n_points - n_params)
    sigma = np.sqrt(np.diag(expected))
    assert result.covariance_order == (["beta2_ps2_per_km", "rho_ps2_inv"]
                                       + [f"eta[{i}]" for i in range(len(datasets))])
    assert np.all(np.abs(result.covariance - expected) <= 1e-5 * np.outer(sigma, sigma))


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
    # one dataset brings p = 4 parameters (beta2, rho, its eta and its
    # scale), so p + 1 = 5 points are needed; 3 are too few
    with pytest.raises(ValueError, match="p \\+ 1"):
        lm_fit(
            [Dataset(HomCurve(tiny.curve.tau_ps[:3], tiny.curve.values[:3]), 400.0, 10.0)],
            FitParams(20.0, 14.0, [0.501]),
        )
    # two datasets of 3 points: 6 points for 6 parameters leave no degree
    # of freedom for the covariance
    pair = [make_dataset(0.4, 10.0, points=3), make_dataset(0.8, 20.0, points=3)]
    with pytest.raises(ValueError, match="p \\+ 1"):
        lm_fit(pair, FitParams(20.0, 14.0))


def test_fit_params_canonicalize():
    params = FitParams(BETA2_REF, RHO_REF, [0.3, 0.5, 0.9])
    assert params.etas == [0.7, 0.5, 0.9]
    assert FitParams(-BETA2_REF, RHO_REF).beta2_ps2_per_km == BETA2_REF
    with pytest.raises(ValueError):
        FitParams(BETA2_REF, -1.0, [])
