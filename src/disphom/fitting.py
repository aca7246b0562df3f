"""Global nonlinear least-squares fit of the windowed coincidence model.

All datasets share the fiber dispersion beta2 and the spectral scale rho;
each dataset gets its own splitter reflectivity eta_i and a profiled
amplitude s_i, which makes the metric agnostic to the unknown pair rate.
global_loss is the plain sum E = sum_i |s_i0 f_i - y_i|^2 with the closed
form s_i0 = (f.y)/(f.f).

lm_fit minimizes a Poisson chi-square instead: each bin weighs by its
counts, and each dataset's sum is divided by its peak, so that rescaling
one curve (for example from counts to rates) changes neither its weight nor
the fit.  The model is affine in eta' = (2 eta - 1)^2, so for given
(beta2, rho) each dataset's (s_i, eta'_i) is a bounded 2x2 linear
least-squares solve, and the Levenberg-Marquardt loop runs over
(beta2/10, log rho) alone (variable projection).  Its Newton matrix comes
from central finite differences of the projected residuals, so the
dependence of s_i and eta'_i on the parameters is part of every derivative.
lm_fit has no options: it reads beta2 and rho from its init, and its
iteration limit, tolerance, damping and difference step are the module
constants below.

Every model evaluation, in lm_fit's search, its covariance and
global_loss, is one stacked pass (_StackedPass): all datasets share
(beta2, rho), so the distinct (T, L, |tau|) points of all their grids
(window half-width, fiber length, delay) are found once and go through
model.coincidence_parts in a single call, with each point's broadened rho.
The rate is even in tau, so a grid symmetric about tau = 0 costs half its
points.  The covariance reuses the last accepted step's pass, and its
J^T J is assembled block by block, since each eta column touches only its
own dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ChannelParams,
    HomCurve,
    broadened_rho,
    coincidence_curve,
    coincidence_parts,
    eta_prime,
)


@dataclass
class Dataset:
    """One measured or synthetic coincidence curve plus its configuration."""

    curve: HomCurve
    window_half_width_ps: float
    fiber_length_km: float
    label: str = ""

    def __post_init__(self):
        if not self.window_half_width_ps > 0:
            raise ValueError("window_half_width_ps must be > 0")
        if self.fiber_length_km < 0:
            raise ValueError("fiber_length_km must be >= 0")


@dataclass
class FitParams:
    """Shared (beta2, rho) and per-dataset eta, canonicalized to eta >= 1/2.

    eta and 1 - eta are indistinguishable through the model (only
    (2 eta - 1)^2 enters), so the upper representative is reported.
    """

    beta2_ps2_per_km: float
    rho_ps2_inv: float
    etas: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.rho_ps2_inv > 0:
            raise ValueError("rho must be > 0")
        self.etas = [canonical_eta(e) for e in self.etas]


_MAX_ITERATIONS = 200
_LOSS_REL_TOL = 1e-10
_DAMPING_INIT = 1e-3
_DAMPING_FACTOR = 10.0
_FD_REL_STEP = 1e-6


@dataclass
class FitResult:
    params: FitParams
    beta2_sigma_ps2_per_km: float
    rho_sigma_ps2_inv: float
    scales: list[float]
    rmsre_per_dataset: list[float]
    covariance: np.ndarray
    covariance_order: list[str]
    loss: float
    iterations: int
    converged: bool
    pseudo_inverse_used: bool
    jtj_condition: float
    etas_held_at_bound: list[int]


def canonical_eta(eta: float) -> float:
    """Fold eta onto the identifiable representative in [1/2, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    return max(eta, 1.0 - eta)


def profile_scale(model_values, data_values, weights=None) -> float:
    """Closed-form amplitude minimizing sum w |s*f - y|^2 (w = 1 by default)."""
    f = np.asarray(model_values, dtype=float)
    y = np.asarray(data_values, dtype=float)
    wf = f if weights is None else np.asarray(weights, dtype=float) * f
    denom = float(np.dot(wf, f))
    if denom == 0.0:
        raise ValueError("scale undefined: model values are all zero")
    return float(np.dot(wf, y)) / denom


def model_values(dataset: Dataset, beta2, rho, eta) -> np.ndarray:
    """Model curve for one dataset's delay grid and configuration."""
    rho_p = broadened_rho(rho, ChannelParams(dataset.fiber_length_km, beta2))
    curve = coincidence_curve(
        dataset.curve.tau_ps, rho, rho_p, eta_prime(eta), dataset.window_half_width_ps
    )
    return curve.values


class _StackedPass:
    """Every dataset's (p, q) at one (beta2, rho) from one coincidence_parts call.

    The rate depends on a point only through its window half-width T, its
    fiber length L and its delay, and it is even in the delay, bit for bit.
    So the distinct (T, L, |tau|) over all datasets' points are found once;
    each call evaluates only those, with one broadened rho per distinct L,
    and expands (p, q) back to every point before splitting them into
    per-dataset blocks.  A grid symmetric about tau = 0 costs half its
    points, and datasets that repeat a (T, L) and grid cost nothing more.
    The blocks equal per-dataset calls bit for bit.
    """

    def __init__(self, datasets):
        sizes = [len(ds.curve) for ds in datasets]
        self._ends = np.cumsum(sizes)[:-1]
        keys = np.stack([
            np.repeat([ds.window_half_width_ps for ds in datasets], sizes),
            np.repeat([ds.fiber_length_km for ds in datasets], sizes),
            np.abs(np.concatenate([ds.curve.tau_ps for ds in datasets])),
        ])
        # one lexsort: np.unique over rows sorts them some 30 times slower
        order = np.lexsort(keys[::-1])
        keys = keys[:, order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        self._inverse = np.empty(order.size, dtype=np.intp)
        self._inverse[order] = np.cumsum(first) - 1
        self._windows, lengths, self._taus = np.ascontiguousarray(keys[:, first])
        self._lengths, self._length_index = np.unique(lengths, return_inverse=True)

    def split(self, stacked):
        """Per-dataset blocks of a per-point array (or of its rows)."""
        return np.split(stacked, self._ends)

    def __call__(self, beta2, rho):
        rho_ps = np.array([broadened_rho(rho, ChannelParams(length, beta2))
                           for length in self._lengths])
        p, q = coincidence_parts(self._taus, rho, rho_ps[self._length_index], self._windows)
        return list(zip(self.split(p[self._inverse]), self.split(q[self._inverse])))


def global_loss(params: FitParams, datasets) -> tuple[float, list[np.ndarray]]:
    """Total scale-agnostic loss E = sum_i sum_x |s_i0 f(x) - y_x|^2.

    f_i = p_i + eta'_i q_i is the model of lm_fit, from one stacked pass.
    """
    if len(datasets) == 0:
        return 0.0, []
    if len(params.etas) != len(datasets):
        raise ValueError("need one eta per dataset")
    residuals = []
    parts = _StackedPass(datasets)(params.beta2_ps2_per_km, params.rho_ps2_inv)
    for (p, q), ds, eta in zip(parts, datasets, params.etas):
        f = p + eta_prime(eta) * q
        residuals.append(profile_scale(f, ds.curve.values) * f - ds.curve.values)
    loss = float(sum(np.dot(r, r) for r in residuals))
    return loss, residuals


def rmsre(residuals, data_values) -> float:
    """Root mean square relative error sqrt(mean (r/y)^2), zero bins excluded."""
    r = np.asarray(residuals, dtype=float)
    y = np.asarray(data_values, dtype=float)
    valid = y > 0
    if not valid.any():
        raise ValueError("no valid points: all data values are zero")
    ratio = r[valid] / y[valid]
    return float(np.sqrt(np.mean(ratio * ratio)))


# --- the fit ------------------------------------------------------------------


def _poisson_weights(y):
    """Squared per-point weights 1/(max(y, y_min) max(y)) of the lm_fit objective.

    y_min is the smallest positive value, so empty bins weigh like the
    faintest filled one.  Both factors scale with the curve, so rescaling it
    leaves the weighted residuals unchanged; a curve of zeros weighs 1.
    """
    peak = float(y.max())
    if not peak > 0:
        return np.ones_like(y)
    return 1.0 / (np.maximum(y, y[y > 0].min()) * peak)


def _profile_amplitudes(p, q, y, w2):
    """Scale s and eta' in [0, 1] minimizing sum w2 |s (p + eta' q) - y|^2.

    The pair (s, s eta') enters linearly, so the unconstrained 2x2 weighted
    least-squares solution is taken when s > 0 and its eta' lies in [0, 1];
    otherwise eta' sits at whichever bound, 0 or 1, fits better.
    """
    wp = w2 * p
    wq = w2 * q
    pp, pq, qq = float(np.dot(wp, p)), float(np.dot(wp, q)), float(np.dot(wq, q))
    py, qy = float(np.dot(wp, y)), float(np.dot(wq, y))
    det = pp * qq - pq * pq
    if det > 0:
        s = (qq * py - pq * qy) / det
        t = (pp * qy - pq * py) / det
        if s > 0 and 0 <= t <= s:
            return s, t / s
    best = None
    for eta_p in (0.0, 1.0):
        f = p + eta_p * q
        s = profile_scale(f, y, w2)
        loss = float(np.dot(w2, (s * f - y) ** 2))
        if best is None or loss < best[0]:
            best = (loss, s, eta_p)
    return best[1], best[2]


def _eta_from_prime(eta_p):
    """Canonical eta >= 1/2 with (2 eta - 1)^2 = eta'."""
    return 0.5 + 0.5 * math.sqrt(eta_p)


def lm_fit(datasets, init: FitParams) -> FitResult:
    """Levenberg-Marquardt global fit with per-dataset amplitudes solved exactly.

    The objective is sum_i sum_x |s_i f_i(x) - y_x|^2 / (max(y_x, y_i,min)
    max(y_i)): a Poisson chi-square, in which each bin weighs by its counts,
    divided by each dataset's peak, so that rescaling one curve (counts to
    rates, say) changes neither its weight nor the fit.  A dataset's model
    is s_i (p_i + eta'_i q_i) for eta' = (2 eta - 1)^2, so for given
    (beta2, rho) its amplitude s_i and its eta'_i in [0, 1] follow from a
    2x2 linear least-squares problem (variable projection).  The LM loop
    therefore runs over (beta2/10, log rho) alone, whatever the number of
    datasets; it starts from init's beta2 and rho, and init's etas are not
    read.  Each evaluation at one (beta2, rho) is a single stacked call of
    model.coincidence_parts over the distinct (T, L, |tau|) points of all
    datasets; its (p, q), expanded to every point, equal per-dataset calls
    bit for bit.

    Each step solves (N + lam diag(J^T J)) dx = -J^T r, where N is J^T J
    plus the residuals' own curvature (see derivatives below).  The damping
    lam starts at 1e-3, grows tenfold on a rejected step or while the
    damped matrix is not positive definite, and shrinks tenfold on an
    accepted step.  Iteration stops when the relative loss decrease of an
    accepted step falls below 1e-10 or after 200 iterations (a
    non-converged result is returned, never an exception).
    FitResult.loss is the weighted objective.  The covariance of (beta2, rho,
    eta_1..eta_D) is (JtJ)^-1 * loss / (n - p), from central differences of
    the weighted residuals with only the scales profiled; J^T J is summed
    block by block, never forming the n x (2 + D) Jacobian.  A dataset whose
    eta' sits at a bound, 0 or 1, is held there: it is listed in
    etas_held_at_bound, its eta row and column of the covariance are 0, and
    the rest is inverted without it.  Only a singular remainder (an
    unidentifiable beta2 at L = 0, say) falls back to the pseudo-inverse,
    which is flagged.  rmsre_per_dataset is computed on the unweighted
    residuals.
    """
    datasets = list(datasets)
    if len(datasets) == 0:
        raise ValueError("need at least one dataset")
    n_points = sum(len(ds.curve) for ds in datasets)
    n_params = 2 + len(datasets)
    if n_points < n_params + 1:
        raise ValueError("need at least p + 1 data points for p parameters")

    data = [ds.curve.values for ds in datasets]
    weights2 = [_poisson_weights(y) for y in data]
    roots = [np.sqrt(w2) for w2 in weights2]

    model_pass = _StackedPass(datasets)

    def solve(x):
        """Weighted residuals, unweighted blocks, scales, eta' and (p, q) at x."""
        res, scales, eta_ps = [], [], []
        parts = model_pass(10.0 * x[0], math.exp(x[1]))
        for (p, q), y, w2 in zip(parts, data, weights2):
            s, eta_p = _profile_amplitudes(p, q, y, w2)
            res.append(s * (p + eta_p * q) - y)
            scales.append(s)
            eta_ps.append(eta_p)
        weighted = np.concatenate([w * r for w, r in zip(roots, res)])
        return weighted, res, scales, eta_ps, parts

    def loss_of(r):
        return float(np.dot(r, r))

    def derivatives(x, r):
        """Jacobian J and Newton matrix J^T J + sum_j r_j d2r_j of the residuals.

        Central differences give J and the diagonal second derivatives; one
        more point gives the mixed one.  The curvature term matters: at a
        converged campaign fit it was 0.7 of J^T J in the beta2 entry, and
        Gauss-Newton steps without it overshot in beta2 and took 50-200
        iterations to converge.  On data the model fits exactly it vanishes
        with r.
        """
        steps = [_FD_REL_STEP * max(1.0, abs(v)) for v in x]
        jac = np.empty((r.size, 2))
        curvature = np.zeros((2, 2))
        plus = []
        for k, h in enumerate(steps):
            xp = x.copy()
            xn = x.copy()
            xp[k] += h
            xn[k] -= h
            rp, rn = solve(xp)[0], solve(xn)[0]
            jac[:, k] = (rp - rn) / (2.0 * h)
            curvature[k, k] = np.dot(r, rp - 2.0 * r + rn) / (h * h)
            plus.append(rp)
        r_both = solve(x + np.array(steps))[0]
        curvature[0, 1] = curvature[1, 0] = np.dot(
            r, r_both - plus[0] - plus[1] + r
        ) / (steps[0] * steps[1])
        jtj = jac.T @ jac
        return jac, jtj, jtj + curvature

    x = np.array([init.beta2_ps2_per_km / 10.0, math.log(init.rho_ps2_inv)])
    r, res, scales, eta_ps, parts = solve(x)
    loss = loss_of(r)
    lam = _DAMPING_INIT
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        jac, jtj, newton = derivatives(x, r)
        grad = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(), 1e-30)
        accepted = False
        while lam < 1e14:
            damped = newton + lam * np.diag(diag)
            try:
                np.linalg.cholesky(damped)
            except np.linalg.LinAlgError:
                # not positive definite yet: more damping, towards steepest descent
                lam *= _DAMPING_FACTOR
                continue
            x_new = x + np.linalg.solve(damped, -grad)
            trial = solve(x_new)
            loss_new = loss_of(trial[0])
            if loss_new <= loss:
                accepted = True
                lam = max(lam / _DAMPING_FACTOR, 1e-14)
                break
            lam *= _DAMPING_FACTOR
        if not accepted:
            break
        rel_drop = (loss - loss_new) / max(loss, 1e-300)
        x, loss = x_new, loss_new
        r, res, scales, eta_ps, parts = trial
        if rel_drop < _LOSS_REL_TOL:
            converged = True
            break

    beta2, rho = 10.0 * x[0], math.exp(x[1])
    etas = [_eta_from_prime(e) for e in eta_ps]
    params = FitParams(beta2, rho, etas)

    # Covariance in external units (beta2, rho, eta_1..eta_D): central
    # differences of the weighted residuals with each eta'_i held and only
    # the scales profiled.  The model is affine in eta', so the eta'_i column
    # needs no model pass beyond the one at the fit, and d eta'/d eta =
    # 4 (2 eta - 1) carries it to eta_i without stepping outside [1/2, 1].
    def held_block(f, y, w2, w):
        return w * (profile_scale(f, y, w2) * f - y)

    def held_residuals(beta2, rho):
        return np.concatenate([
            held_block(p + eta_p * q, y, w2, w)
            for (p, q), y, w2, w, eta_p
            in zip(model_pass(beta2, rho), data, weights2, roots, eta_ps)
        ])

    shared = np.empty((n_points, 2))
    h = _FD_REL_STEP * max(1.0, abs(beta2))
    shared[:, 0] = (held_residuals(beta2 + h, rho) - held_residuals(beta2 - h, rho)) / (2.0 * h)
    h = _FD_REL_STEP * max(1.0, rho)
    shared[:, 1] = (held_residuals(beta2, rho + h) - held_residuals(beta2, rho - h)) / (2.0 * h)

    # J^T J block by block: the shared 2 x 2, each free eta column against
    # the shared rows of its own dataset, and the eta diagonal.  An eta'
    # held at a bound has no column (at eta' = 0 it would be zero).
    held = [i for i, e in enumerate(eta_ps) if e in (0.0, 1.0)]
    free = [i for i in range(len(datasets)) if i not in held]
    jtj_ext = np.zeros((2 + len(free), 2 + len(free)))
    jtj_ext[:2, :2] = shared.T @ shared
    h = _FD_REL_STEP
    shared_blocks = model_pass.split(shared)
    for k, i in enumerate(free, start=2):
        (p, q), y, w2, w = parts[i], data[i], weights2[i], roots[i]
        up = held_block(p + (eta_ps[i] + h) * q, y, w2, w)
        down = held_block(p + (eta_ps[i] - h) * q, y, w2, w)
        column = 4.0 * (2.0 * etas[i] - 1.0) * (up - down) / (2.0 * h)
        jtj_ext[:2, k] = jtj_ext[k, :2] = shared_blocks[i].T @ column
        jtj_ext[k, k] = np.dot(column, column)
    dof = max(n_points - n_params, 1)
    variance = loss / dof
    cond = float(np.linalg.cond(jtj_ext))
    pseudo = not np.isfinite(cond) or cond > 1e12
    if pseudo:
        cov_free = np.linalg.pinv(jtj_ext, rcond=1e-12) * variance
    else:
        cov_free = np.linalg.inv(jtj_ext) * variance
    kept = [0, 1] + [2 + i for i in free]
    cov = np.zeros((n_params, n_params))
    cov[np.ix_(kept, kept)] = 0.5 * (cov_free + cov_free.T)

    rmsre_list = []
    for block, ds in zip(res, datasets):
        if (ds.curve.values > 0).any():
            rmsre_list.append(rmsre(block, ds.curve.values))
        else:
            rmsre_list.append(math.nan)

    order = ["beta2_ps2_per_km", "rho_ps2_inv"] + [
        f"eta[{i}]" for i in range(len(datasets))
    ]
    return FitResult(
        params=params,
        beta2_sigma_ps2_per_km=float(np.sqrt(max(cov[0, 0], 0.0))),
        rho_sigma_ps2_inv=float(np.sqrt(max(cov[1, 1], 0.0))),
        scales=[float(s) for s in scales],
        rmsre_per_dataset=rmsre_list,
        covariance=cov,
        covariance_order=order,
        loss=loss,
        iterations=iterations,
        converged=converged,
        pseudo_inverse_used=bool(pseudo),
        jtj_condition=cond,
        etas_held_at_bound=held,
    )
