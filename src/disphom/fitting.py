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
x = (beta2/10, log rho) alone (variable projection).  Its gradient and
Newton matrix are exact: model.coincidence_parts_derivatives gives the
first and second derivatives of a pass's (p, q), a chain rule per fiber
length carries them to x, and per dataset the Hessian of the projected
loss is f_xx - f_xz f_zz^-1 f_zx in the linear coefficients z = (s, s eta').
A dataset whose eta' sits at a bound, 0 or 1, is held there: its z is s
alone.  The covariance takes its Jacobian from the same derivatives, so a
fit makes one model pass per trial point and no other.  lm_fit has no
options: it reads beta2 and rho from its init, and its iteration limit,
tolerance and damping are the module constants below.

Every model evaluation, in lm_fit's search and global_loss, is one stacked
pass (_StackedPass): all datasets share (beta2, rho), so the distinct
(T, L, |tau|) points of all their grids (window half-width, fiber length,
delay) are found once and go through model.coincidence_parts in a single
call, with each point's broadened rho.  The rate is even in tau, so a grid
symmetric about tau = 0 costs half its points.  The covariance's J^T J is
assembled block by block, since each eta column touches only its own
dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    ChannelParams,
    HomCurve,
    broadened_rho,
    coincidence_curve,
    coincidence_parts,
    coincidence_parts_derivatives,
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
    model_passes: int


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
    each pass evaluates only those, with one broadened rho per distinct L,
    and blocks expands a per-point result back to every point and splits it
    into per-dataset blocks.  A grid symmetric about tau = 0 costs half its
    points, and datasets that repeat a (T, L) and grid cost nothing more.
    The blocks equal per-dataset calls bit for bit.  passes counts the
    coincidence_parts calls.
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
        self.passes = 0

    def _rho_primes(self, beta2, rho):
        return np.array([broadened_rho(rho, ChannelParams(length, beta2))
                         for length in self._lengths])

    def parts(self, beta2, rho):
        """(p, q) at the distinct points, shape (2, points): one model pass."""
        self.passes += 1
        rho_ps = self._rho_primes(beta2, rho)[self._length_index]
        return np.array(coincidence_parts(self._taus, rho, rho_ps, self._windows))

    def expand(self, distinct):
        """A per-distinct-point array, along its last axis, at every point."""
        return distinct[..., self._inverse]

    def blocks(self, distinct):
        """Per-dataset blocks of a per-distinct-point array, along its last axis."""
        return np.split(self.expand(distinct), self._ends, axis=-1)

    def __call__(self, beta2, rho):
        return [tuple(block) for block in self.blocks(self.parts(beta2, rho))]

    def derivatives(self, beta2, rho, parts):
        """Derivatives of a pass's (p, q) in x = (beta2/10, log rho), at every point.

        parts is parts(beta2, rho).  The result has shape (5, 2, points): the
        derivatives in x0, x1, x0 x0, x0 x1 and x1 x1 of p and of q.  They
        come from model.coincidence_parts_derivatives in (rho, rho') by the
        chain rule through rho = e^x1 and, for each fiber length L,
        rho' = rho / g with g = 1 + chi^2 and chi = 10 L x0 rho.
        """
        rho_p = self._rho_primes(beta2, rho)
        chi = self._lengths * beta2 * rho
        slope = 10.0 * self._lengths * rho  # d chi / d x0; d chi / d x1 = chi
        g = 1.0 + chi * chi
        # derivatives of log rho', then of rho' itself
        w_0 = -2.0 * slope * chi / g
        w_1 = (1.0 - chi * chi) / g
        w_00 = -2.0 * slope * slope / g + w_0 * w_0
        w_01 = -4.0 * slope * chi / (g * g)
        w_11 = -4.0 * chi * chi / (g * g)
        rp_0, rp_1, rp_00, rp_01, rp_11 = (
            (rho_p * w)[self._length_index]
            for w in (w_0, w_1, w_00 + w_0 * w_0, w_01 + w_0 * w_1, w_11 + w_1 * w_1)
        )
        (f_r, f_p), (f_rr, f_rp, f_pp) = coincidence_parts_derivatives(
            self._taus, rho, rho_p[self._length_index], self._windows, *parts)
        out = np.empty((5,) + parts.shape)
        out[0] = f_p * rp_0
        out[1] = f_r * rho + f_p * rp_1
        out[2] = f_pp * rp_0 * rp_0 + f_p * rp_00
        out[3] = f_rp * rho * rp_0 + f_pp * rp_0 * rp_1 + f_p * rp_01
        out[4] = (f_rr * rho + 2.0 * f_rp * rp_1 + f_r) * rho + f_pp * rp_1 * rp_1 + f_p * rp_11
        return self.expand(out)


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


def _at_bound(eta_p):
    """Whether a solved eta' sits at a bound, 0 or 1, where the fit holds it."""
    return eta_p in (0.0, 1.0)


def _eta_from_prime(eta_p):
    """Canonical eta >= 1/2 with (2 eta - 1)^2 = eta'."""
    return 0.5 + 0.5 * math.sqrt(eta_p)


class _Solved(NamedTuple):
    """The objective at one x: its value, the residuals and what solved them."""

    loss: float
    res: list  # unweighted residual blocks
    scales: list
    eta_ps: list
    parts: np.ndarray  # the model pass's (p, q) at the distinct points


class _Objective:
    """lm_fit's loss over x = (beta2/10, log rho), each dataset's s and eta' solved.

    solve evaluates it with one model pass.  derivatives gives its exact
    gradient and Hessian at a solved point, and covariance_jtj the J^T J of
    the covariance, from that pass alone.  Both work on all datasets' points
    at once and sum per dataset with reduceat.

    A dataset's model s (p + eta' q) = s f lies in the span of the basis
    (f, q), with the linear coefficients z = (s, 0) at the solution.  A
    dataset whose eta' is held at a bound, 0 or 1, has the basis f alone.
    """

    def __init__(self, datasets):
        self._data = [ds.curve.values for ds in datasets]
        self.weights2 = [_poisson_weights(y) for y in self._data]
        self._roots = [np.sqrt(w2) for w2 in self.weights2]
        self.model_pass = _StackedPass(datasets)
        self._sizes = [len(y) for y in self._data]
        self._starts = np.cumsum([0] + self._sizes[:-1])
        self._w2 = np.concatenate(self.weights2)

    def solve(self, x) -> _Solved:
        res, scales, eta_ps = [], [], []
        parts = self.model_pass.parts(10.0 * x[0], math.exp(x[1]))
        for (p, q), y, w2 in zip(self.model_pass.blocks(parts), self._data, self.weights2):
            s, eta_p = _profile_amplitudes(p, q, y, w2)
            res.append(s * (p + eta_p * q) - y)
            scales.append(s)
            eta_ps.append(eta_p)
        weighted = np.concatenate([w * r for w, r in zip(self._roots, res)])
        return _Solved(float(np.dot(weighted, weighted)), res, scales, eta_ps, parts)

    def _sums(self, rows):
        """Per-dataset sums of per-point rows: shape (..., points) to (..., datasets)."""
        return np.add.reduceat(rows, self._starts, axis=-1)

    def _projection(self, basis, d_basis, r, s):
        """Jacobian of the projected residuals, and the terms of their curvature.

        basis (k, points) holds each dataset's linear basis functions and
        d_basis (k, m, points) their derivatives in m parameters; r are the
        residuals at the optimal coefficients z = (s, 0, ...).  Moving a
        parameter moves z by dz = -G^-1 (B^T W J_z + C), with the Gram matrix
        G = B^T W B, the Jacobian J_z = s d_basis[0] at fixed z and the cross
        term C = sum w2 r d_basis, per dataset.  A basis row that is zero on
        a dataset is absent from it: a unit diagonal in G keeps its
        coefficient at rest.  Returns the Jacobian J_z + B^T dz
        (m, points), dz (datasets, k, m) and C (k, m, datasets).
        """
        wr = self._w2 * r
        fixed = s * d_basis[0]
        weighted = self._w2 * basis
        gram = np.moveaxis(self._sums(weighted[:, None] * basis), -1, 0)
        diagonal = np.arange(len(basis))
        gram[:, diagonal, diagonal] += gram[:, diagonal, diagonal] == 0
        cross = self._sums(wr * d_basis)
        rhs = self._sums(weighted[:, None] * fixed) + cross
        dz = -np.linalg.solve(gram, np.moveaxis(rhs, -1, 0))
        moved = np.repeat(dz, self._sizes, axis=0)
        return fixed + np.einsum("nkm,kn->mn", moved, basis), dz, cross

    def _per_point(self, x, solved):
        """Every point's f = p + eta' q, q, the derivatives of f (5 rows) and of
        q (first 2), s and residual, and the free mask over datasets."""
        p, q = self.model_pass.expand(solved.parts)
        d_pq = self.model_pass.derivatives(10.0 * x[0], math.exp(x[1]), solved.parts)
        free = np.array([not _at_bound(e) for e in solved.eta_ps])
        s, eta_p = (np.repeat(v, self._sizes) for v in (solved.scales, solved.eta_ps))
        d_f = d_pq[:, 0] + eta_p * d_pq[:, 1]
        # a copy, so that the (5, 2, points) d_pq is freed on return
        return p + eta_p * q, q, d_f, d_pq[:2, 1].copy(), s, np.concatenate(solved.res), free

    def derivatives(self, x, solved: _Solved):
        """J^T r and N, half the loss's gradient and Hessian, and J^T J.

        J is the Jacobian of the weighted projected residuals.  Per dataset,
        N = f_xx - f_xz f_zz^-1 f_zx for half its loss f: J^T J, plus the
        residuals' curvature at fixed z, plus the terms through which z
        moves with x.
        """
        f, q, d_f, d_q, s, r, free = self._per_point(x, solved)
        q_in_basis = np.repeat(free, self._sizes)
        jac, dz, cross = self._projection(
            np.array([f, q_in_basis * q]), np.array([d_f[:2], q_in_basis * d_q]), r, s)
        wr = self._w2 * r
        curv = (s * d_f[2:]) @ wr
        jtj = (self._w2 * jac) @ jac.T
        mixed = np.einsum("kmd,dkl->ml", cross, dz)
        newton = jtj + mixed + mixed.T + np.array([curv[:2], curv[1:]])
        return jac @ wr, jtj, newton

    def covariance_jtj(self, x, solved: _Solved):
        """J^T J of the weighted residuals in (x, eta'_i of each free dataset).

        Each eta' is held and only the scales are profiled, so the basis is
        f alone and eta'_i is one more parameter, in which f moves by q.
        J^T J is summed block by block: the shared 2 x 2, each free eta'
        column against the shared rows of its own dataset, and the eta'
        diagonal.
        """
        f, q, d_f, _, s, r, free = self._per_point(x, solved)
        jac = self._projection(f[None], np.array([[d_f[0], d_f[1], q]]), r, s)[0]
        blocks = self._sums(self._w2 * jac[:, None] * jac)
        n_free = int(free.sum())
        jtj = np.empty((2 + n_free, 2 + n_free))
        jtj[:2, :2] = blocks[:2, :2].sum(axis=-1)
        jtj[2:, :2] = blocks[2, :2, free]
        jtj[:2, 2:] = jtj[2:, :2].T
        jtj[2:, 2:] = np.diag(blocks[2, 2, free])
        return jtj


def lm_fit(datasets, init: FitParams) -> FitResult:
    """Levenberg-Marquardt global fit with per-dataset amplitudes solved exactly.

    The objective is sum_i sum_x |s_i f_i(x) - y_x|^2 / (max(y_x, y_i,min)
    max(y_i)): a Poisson chi-square, in which each bin weighs by its counts,
    divided by each dataset's peak, so that rescaling one curve (counts to
    rates, say) changes neither its weight nor the fit.  A dataset's model
    is s_i (p_i + eta'_i q_i) for eta' = (2 eta - 1)^2, so for given
    (beta2, rho) its amplitude s_i and its eta'_i in [0, 1] follow from a
    2x2 linear least-squares problem (variable projection).  The LM loop
    therefore runs over x = (beta2/10, log rho) alone, whatever the number
    of datasets; it starts from init's beta2 and rho, and init's etas are
    not read.  Each evaluation at one (beta2, rho) is a single stacked call
    of model.coincidence_parts over the distinct (T, L, |tau|) points of all
    datasets; its (p, q), expanded to every point, equal per-dataset calls
    bit for bit.  That call is the only model pass: a fit makes one per
    trial point, and model_passes counts them.

    The derivatives are exact and cost no pass: the model's
    coincidence_parts_derivatives turns a pass's (p, q) into their first
    and second derivatives, which the chain rule carries to x.  With z the
    linear coefficients, z = (s, s eta'), or z = s alone for a dataset whose
    eta' is held at a bound, 0 or 1, the projected loss F(x) = min_z f(x, z)
    has the gradient f_x and the Hessian f_xx - f_xz f_zz^-1 f_zx, both
    summed from dot products per dataset (_Objective.derivatives).  Each step
    solves (N + lam diag(J^T J)) dx = -J^T r, where J is the Jacobian of the
    projected residuals, J^T r half the gradient and N half the Hessian.
    N is J^T J plus the residuals' own curvature; at a converged campaign
    fit the curvature was 0.7 of J^T J in the beta2 entry, and Gauss-Newton
    steps without it overshot in beta2 and took 50-200 iterations.  The
    damping lam starts at 1e-3, grows tenfold on a rejected step or while
    the damped matrix is not positive definite, and shrinks tenfold on an
    accepted step.  Iteration stops when the relative loss decrease of an
    accepted step falls below 1e-10 or after 200 iterations (a
    non-converged result is returned, never an exception).

    FitResult.loss is the weighted objective.  The covariance of (beta2,
    rho, eta_1..eta_D) is (J^T J)^-1 * loss / (n - p), from the exact
    Jacobian of the weighted residuals with each eta' held and only the
    scales profiled, from the final pass's (p, q); J^T J is summed block by
    block, never forming the n x (2 + D) Jacobian.  A dataset whose eta'
    sits at a bound is held there: it is listed in etas_held_at_bound, its
    eta row and column of the covariance are 0, and the rest is inverted
    without it.  Only a singular remainder (an unidentifiable beta2 at
    L = 0, say) falls back to the pseudo-inverse, which is flagged.
    rmsre_per_dataset is computed on the unweighted residuals.
    """
    datasets = list(datasets)
    if len(datasets) == 0:
        raise ValueError("need at least one dataset")
    n_points = sum(len(ds.curve) for ds in datasets)
    n_params = 2 + len(datasets)
    if n_points < n_params + 1:
        raise ValueError("need at least p + 1 data points for p parameters")

    objective = _Objective(datasets)
    x = np.array([init.beta2_ps2_per_km / 10.0, math.log(init.rho_ps2_inv)])
    state = objective.solve(x)
    loss = state.loss
    lam = _DAMPING_INIT
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        grad, jtj, newton = objective.derivatives(x, state)
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
            trial = objective.solve(x_new)
            loss_new = trial.loss
            if loss_new <= loss:
                accepted = True
                lam = max(lam / _DAMPING_FACTOR, 1e-14)
                break
            lam *= _DAMPING_FACTOR
        if not accepted:
            break
        rel_drop = (loss - loss_new) / max(loss, 1e-300)
        x, loss, state = x_new, loss_new, trial
        if rel_drop < _LOSS_REL_TOL:
            converged = True
            break

    res, scales, eta_ps = state.res, state.scales, state.eta_ps
    beta2, rho = 10.0 * x[0], math.exp(x[1])
    etas = [_eta_from_prime(e) for e in eta_ps]
    params = FitParams(beta2, rho, etas)

    # Covariance in external units (beta2, rho, eta_1..eta_D): J^T J in x and
    # each free eta', scaled by d x / d (beta2, rho) = (1/10, 1/rho) and
    # d eta'/d eta = 4 (2 eta - 1).  An eta' held at a bound has no column
    # (at eta' = 0 it would be zero).
    held = [i for i, e in enumerate(eta_ps) if _at_bound(e)]
    free = [i for i in range(len(datasets)) if i not in held]
    units = np.array([0.1, 1.0 / rho] + [4.0 * (2.0 * etas[i] - 1.0) for i in free])
    jtj_ext = objective.covariance_jtj(x, state) * np.outer(units, units)
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
        model_passes=objective.model_pass.passes,
    )
