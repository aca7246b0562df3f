"""Global nonlinear least-squares fit of the windowed coincidence model.

All datasets (model.Dataset) share the fiber dispersion beta2 and the
spectral scale rho; each gets its own splitter reflectivity eta_i and a
profiled amplitude s_i, which makes the objective agnostic to the unknown
pair rate.  FitProblem(datasets) is that objective, the one lm_fit
minimizes: a peak-normalized Poisson chi-square, whose solve(beta2, rho)
gives the loss at one (beta2, rho) with every dataset's s_i and
eta'_i = (2 eta_i - 1)^2 solved.

lm_fit minimizes it by variable projection: the model is affine in eta',
so for given (beta2, rho) each dataset's (s_i, eta'_i) is a bounded 2x2
linear least-squares solve, and the Levenberg-Marquardt loop runs over
x = (beta2, log rho) alone.  The model sees beta2 only through its square,
so |beta2| is reported.  The gradient and Newton matrix are exact, from
model.coincidence_parts_derivatives, and the loop stops once a full Newton
step would remove less than its tolerance of the loss.  lm_fit has no
options: it reads beta2 and rho from its init, and its iteration limit,
tolerance and damping are the module constants below.

FitProblem owns the stacked problem, the data and weights, the solve at one
(beta2, rho) and the derivative blocks there, over three layouts of the
campaign's points.  The point layout holds every data point, in dataset
order; the residuals and the loss live there.  The distinct layout holds
each distinct (T, L, |tau|) once; the model pass and its derivatives are
evaluated there.  The folded layout holds each (dataset, |tau|) once, with
the summed weights of the one or two points it stands for; every Gram sum
of the solve and the blocks runs there, on about half the points of a grid
symmetric about tau = 0.  Every per-dataset step of the fit (the 2x2
solves, the scales, the derivative sums) runs on these layouts as
whole-array operations, with no loop over datasets.  One Jacobian serves
both the step and the covariance:
FitProblem.blocks gives each dataset's J^T r, J^T J and half-Hessian in
(x0, x1, eta'), with only its scale projected out.  For the step,
_eliminate takes each free eta' out of its dataset's blocks by a Schur
complement and sums the datasets; for the covariance, the blocks' J^T J is
the arrowhead over x and the free eta'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    ChannelParams,
    Dataset,
    broadened_rho,
    canonical_eta,
    coincidence_curve,
    coincidence_parts,
    coincidence_parts_derivatives,
    eta_prime,
)


@dataclass
class FitParams:
    """Shared (beta2, rho) and per-dataset eta, canonicalized to beta2 >= 0
    and eta >= 1/2.

    beta2 and -beta2 are indistinguishable through the model (only
    (L beta2 rho)^2 enters), and so are eta and 1 - eta (only
    (2 eta - 1)^2 enters), so |beta2| and the upper eta are stored.

    etas is the fit's output, one per dataset: lm_fit solves every eta, so
    the etas of a start are not read and may be left empty.
    """

    beta2_ps2_per_km: float
    rho_ps2_inv: float
    etas: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not math.isfinite(self.beta2_ps2_per_km):
            raise ValueError("beta2_ps2_per_km must be finite")
        if not 0 < self.rho_ps2_inv < math.inf:
            raise ValueError("rho_ps2_inv must be finite and > 0")
        self.beta2_ps2_per_km = abs(self.beta2_ps2_per_km)
        self.etas = [canonical_eta(e) for e in self.etas]


_MAX_ITERATIONS = 200
_LOSS_REL_TOL = 1e-10
_DAMPING_INIT = 1e-3
_DAMPING_FACTOR = 10.0


@dataclass
class FitResult:
    """What lm_fit found, and how.

    params: the fitted |beta2|, rho and each dataset's canonical eta >= 1/2.
    beta2_sigma_ps2_per_km, rho_sigma_ps2_inv: square roots of the
        covariance's first two diagonal entries.  Infinite for a parameter
        no data point moves with, as beta2 when every dataset has L = 0.
    scales: each dataset's profiled amplitude s_i.
    rmsre_per_dataset: each dataset's rmsre of the unweighted residuals
        s_i f_i - y; NaN for a dataset whose counts are all 0.
    covariance: (J^T J)^-1 loss / (n - p) in the external parameters,
        ordered as covariance_order.  J is the Jacobian of the weighted
        residuals in (|beta2|, rho) and each free eta, with the scales
        profiled.  J^T J is inverted in correlation form: each row and
        column is divided by the square root of its diagonal, the result is
        inverted, and the inverse is scaled back.  A parameter whose J^T J
        diagonal is 0 is unseen: it is left out of the inversion, and its
        variance is infinite with covariances 0.  The row and column of an
        eta held at a bound are 0.
    covariance_order: the covariance's row names, "beta2_ps2_per_km",
        "rho_ps2_inv", then "eta[0]" .. "eta[D-1]" in dataset order.
    loss: FitProblem's loss at params, bit for bit:
        FitProblem(datasets).solve(params.beta2_ps2_per_km,
        params.rho_ps2_inv).loss.
    iterations: the LM iterations, each one damped step however many trials
        it took; the Newton check that ends a fit is not one.
    converged: the Newton check or a negligible loss decrease ended the
        fit, not the iteration limit or exhausted damping.
    jtj_condition: the 2-norm condition number of J^T J in correlation form
        over the parameters that are neither unseen nor held.  It does not
        depend on the parameters' units: 1 where they are uncorrelated, and
        large where the data see a combination of them rather than each.
        Infinite where that block is exactly singular.  From 1e14 on its
        inverse keeps under two digits, and its variances are infinite too.
    etas_held_at_bound: the datasets whose eta' = (2 eta - 1)^2 sits at 0
        or 1, where the fit holds it; their etas have no covariance.
    model_passes: the model passes the fit made, one stacked
        coincidence_parts call per point at which the loss was taken.
    """

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
    jtj_condition: float
    etas_held_at_bound: list[int]
    model_passes: int


def profile_scale(model_values, data_values) -> float:
    """Closed-form amplitude minimizing sum |s*f - y|^2."""
    f = np.asarray(model_values, dtype=float)
    y = np.asarray(data_values, dtype=float)
    denom = float(np.dot(f, f))
    if denom == 0.0:
        raise ValueError("scale undefined: model values are all zero")
    return float(np.dot(f, y)) / denom


def model_values(dataset: Dataset, beta2, rho, eta) -> np.ndarray:
    """Model curve for one dataset's delay grid and configuration.

    The fit does not call it: FitProblem evaluates all datasets in one
    stacked pass.  It stays as the per-dataset reference that
    test_lm_fit_covariance_matches_differences takes finite differences
    of, and as a name the benchmark's traced run wraps.
    """
    rho_p = broadened_rho(rho, ChannelParams(dataset.fiber_length_km, beta2))
    curve = coincidence_curve(
        dataset.curve.tau_ps, rho, rho_p, eta_prime(eta), dataset.window_half_width_ps
    )
    return curve.values


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


class _Solved(NamedTuple):
    """FitProblem.solve at one (beta2, rho): the loss, the residuals and what solved them."""

    loss: float
    res: np.ndarray  # unweighted residuals at every point
    scales: np.ndarray
    eta_ps: np.ndarray
    held: np.ndarray  # per dataset: eta' sits at a bound, 0 or 1, where the fit holds it
    parts: np.ndarray  # the model pass's (p, q) at the distinct points
    model: np.ndarray  # f = p + eta' q at the folded points


class FitProblem:
    """The fit's objective over a campaign: its loss at any (beta2, rho),
    each dataset's s and eta' solved, and the derivative blocks there.

    solve(beta2, rho) is the one evaluation, in FitParams' units; lm_fit
    builds one FitProblem and evaluates every start and trial point
    through it, so at a fit's params it gives the fit's loss bit for bit.

    Three layouts of the campaign's points serve the fit:
    - point: all datasets' points concatenated in order.  The data, their
      squared weights and the residuals live here, and split cuts a
      per-point array into its datasets.
    - distinct: each distinct (T, L, |tau|) over all datasets once.  The
      rate depends on a point only through its window half-width T, its
      fiber length L and its delay, and it is even in the delay, bit for
      bit.  So parts evaluates only these points in one coincidence_parts
      call, the model pass, with one broadened rho per distinct L, and
      expand takes a result back to every point; the expanded (p, q) equal
      per-dataset calls bit for bit.  A grid symmetric about tau = 0 costs
      half its points, and datasets that repeat a (T, L) and grid cost
      nothing more.  passes counts the model passes.
    - folded: each (dataset, |tau|) once, in dataset order, with the summed
      weights W = sum w^2 and Wy = sum w^2 y of the one or two points it
      stands for and the index of its distinct point.  Two datasets that
      share (T, L) and grid share distinct points but not folded ones, as
      each has its own s and eta'.  sums adds a folded array up per
      dataset, and at gives per-dataset values at every folded point.
    A weighted sum over a dataset's points of anything that depends on the
    point only through its model, sum w^2 g(f), is sum W g(f) over its
    folded points, so solve's Gram sums and every sum of blocks run folded,
    on half the points of a symmetric grid.  The loss does not: it is
    sum w^2 r^2 over the points, of residuals r = s f - y formed per point.
    Folded, it would be s^2 sum W f^2 - 2 s sum Wy f + sum w^2 y^2, whose
    terms cancel some 4 digits at 1e4 counts, too many for lm_fit's 1e-10
    stop.

    solve evaluates the loss with one model pass.  blocks takes a solved
    point to each dataset's derivative sums in theta = (x0, x1, eta'), for
    x = (beta2, log rho), from that pass alone, with only the scale s
    projected out; _eliminate then takes each free eta' out of them.
    """

    def __init__(self, datasets):
        if len(datasets) == 0:
            raise ValueError("need at least one dataset")
        sizes = [len(ds.curve) for ds in datasets]
        if 0 in sizes:  # reduceat cannot sum an empty block
            raise ValueError("every dataset needs at least one point")
        self._starts = np.cumsum([0] + sizes[:-1])
        # each point's (T, L) as its rank among the distinct pairs: one lexsort with |tau|
        configs = [(ds.window_half_width_ps, ds.fiber_length_km) for ds in datasets]
        distinct_configs = sorted(set(configs))
        config = np.repeat([distinct_configs.index(c) for c in configs], sizes)
        taus = np.abs(np.concatenate([ds.curve.tau_ps for ds in datasets]))
        order = np.lexsort((taus, config))
        config, taus = config[order], taus[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (config[1:] != config[:-1]) | (taus[1:] != taus[:-1])
        self._inverse = np.empty(order.size, dtype=np.intp)
        self._inverse[order] = np.cumsum(first) - 1
        config, self._taus = config[first], taus[first]
        windows, lengths = np.array(distinct_configs).T
        self._lengths, config_lengths = np.unique(lengths, return_inverse=True)
        self._windows, self._length_index = windows[config], config_lengths[config]
        self._set_lengths = np.searchsorted(self._lengths, [length for _, length in configs])
        self._w2 = np.concatenate([_poisson_weights(ds.curve.values) for ds in datasets])
        self._y = np.concatenate([ds.curve.values for ds in datasets])
        # the folded layout: one point per (dataset, |tau|), in dataset order
        n_distinct = self._taus.size
        folded, self._fold = np.unique(  # each point's folded point
            np.repeat(np.arange(len(datasets)), sizes) * n_distinct + self._inverse,
            return_inverse=True)
        self._folded = folded % n_distinct  # each folded point's distinct point
        self._folded_sizes = np.bincount(folded // n_distinct)
        self._folded_starts = np.cumsum(np.concatenate(([0], self._folded_sizes[:-1])))
        self._weights = np.array([np.bincount(self._fold, self._w2),
                                  np.bincount(self._fold, self._w2 * self._y)])
        self.passes = 0

    def _chirp(self, beta2, rho):
        """chi = L beta2 rho and g = 1 + chi^2 per distinct L: rho / g is broadened_rho."""
        chi = self._lengths * beta2 * rho
        return chi, 1.0 + chi * chi

    def parts(self, beta2, rho):
        """(p, q) at the distinct points, shape (2, points): one model pass.

        None, and no pass, where some rho' = rho / g is not in (0, inf), as
        for a rho of 0 or inf.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            rho_p = rho / self._chirp(beta2, rho)[1]
        if not ((rho_p > 0) & (rho_p < math.inf)).all():
            return None
        self.passes += 1
        return coincidence_parts(self._taus, rho, rho_p[self._length_index], self._windows)

    def expand(self, distinct):
        """A per-distinct-point array, along its last axis, at every point."""
        return distinct.take(self._inverse, axis=-1)

    def split(self, values):
        """A per-point array, along its last axis, cut into its datasets."""
        return np.split(values, self._starts[1:], axis=-1)

    def sums(self, values):
        """Per-dataset sums of a folded array: shape (..., folded) to (..., datasets)."""
        return np.add.reduceat(values, self._folded_starts, axis=-1)

    def at(self, values):
        """Per-dataset values at every folded point: shape (..., datasets) to (..., folded)."""
        return np.repeat(values, self._folded_sizes, axis=-1)

    def _rho_p_derivatives(self, beta2, rho):
        """rho' = rho / g per distinct fiber length, and u of shape (5, datasets):
        d rho' / d x0, x1, x0 x0, x0 x1 and x1 x1 at each dataset's length."""
        chi, g = self._chirp(beta2, rho)
        rho_p = rho / g
        chi2 = chi * chi
        slope = self._lengths * rho  # d chi / d x0; d chi / d x1 = chi
        v = rho_p / g
        u_0 = -2.0 * v * chi * slope
        u = np.array([u_0, v * (1.0 - chi2), 2.0 * v * slope * slope * (3.0 * chi2 - 1.0) / g,
                      u_0 * (3.0 - chi2) / g, v * (chi2 * (chi2 - 6.0) + 1.0) / g])
        return rho_p, u[:, self._set_lengths]

    def solve(self, beta2, rho) -> _Solved | None:
        """The loss at (beta2, rho), with every dataset's s and eta' in [0, 1] minimizing it.

        The loss is sum_i sum_x w_x |s_i (p + eta'_i q)(x) - y_x|^2 with the
        squared weights w of _poisson_weights.

        The pair (s, s eta') enters linearly, so one set of sums gives every
        dataset's 2x2 weighted least-squares problem.  Its five Gram sums,
        p.Wp, p.Wq, q.Wq, p.Wy and q.Wy, are taken over the folded points
        from their summed weights W and Wy, with (p, q) gathered there from
        the distinct points; the loss and the residuals, at every point,
        are not (see FitProblem).  Its unconstrained
        solution is taken where s > 0 and its eta' lies in [0, 1]; elsewhere
        eta' sits at whichever bound, 0 or 1, fits better, each bound with
        its own profiled scale.  The same sums choose the bound: a bound's
        model g = p + eta' q has the scale g.Wy / g.Wg, and y.Wy less its
        loss is its moment g.Wy times that scale.  An eta' of exactly 0 or
        1, however it was reached, is held there.  The residuals are formed
        once, for the chosen solution.  None where there is no model: where
        rho or some rho' is not in (0, inf), or where a dataset's p.Wp or
        (p+q).W(p+q) is 0, which no scale fits.
        """
        parts = self.parts(beta2, rho)
        if parts is None:
            return None
        folded = parts.take(self._folded, axis=-1)
        w2, w2y = self._weights
        (pp, pq), (_, qq) = self.sums(folded[:, None] * (w2 * folded))
        py, qy = self.sums(folded * w2y)
        p, q = folded
        det = pp * qq - pq * pq
        det[det <= 0] = np.nan  # no unconstrained solution
        s = (qq * py - pq * qy) / det
        t = (pp * qy - pq * py) / det
        interior = (s > 0) & (0 <= t) & (t <= s)
        eta_p = np.divide(t, s, out=np.zeros_like(s), where=interior)
        if not interior.all():
            moments = np.array([py, py + qy])
            norms = np.array([pp, pp + 2.0 * pq + qq])
            if not norms.all():  # a model whose sum of squares is 0 has no scale
                return None
            bound_s = moments / norms
            # y.Wy less each bound's loss is its moment times its scale
            upper = ~interior & (moments[1] * bound_s[1] > moments[0] * bound_s[0])
            s = np.where(interior, s, np.choose(upper, bound_s))
            eta_p[upper] = 1.0
        model = p + self.at(eta_p) * q
        r = (self.at(s) * model)[self._fold] - self._y
        return _Solved(float(np.dot(self._w2 * r, r)), r, s, eta_p, (eta_p == 0.0) | (eta_p == 1.0),
                       parts, model)

    def blocks(self, beta2, rho, solved: _Solved):
        """Each dataset's J^T r (3, D), J^T J (3, 3, D) and N (3, 3, D) in
        theta = (x0, x1, eta') for x = (beta2, log rho), at solve(beta2, rho).

        J is the Jacobian of the weighted residuals r = s f - y, f = p + eta' q,
        with the scale s kept at its optimum for every theta, and N is half
        the Hessian of the loss so projected.  Moving theta moves s by
        ds = -(f.W s df + C) / f.Wf, with the cross term C = sum w r df, so
        J = s df + f ds and N = J^T J + C ds^T + ds C^T + s sum w r d2f.  In
        eta', df = q, d2f / dx deta' = dq / dx and d2f / deta'^2 = 0.

        Every sum runs on the folded points: the model's derivatives in
        (rho', rho) are taken at the distinct points and gathered there, the
        per-point w^2 r is folded by np.bincount, and w^2 is the folded W.
        f = (1 + eta') w + (eta' - 1) b in the parts' window and dip parts
        w and b, so df/dx0 and df/dx1 follow from w's and b's first
        derivatives and those of rho' per dataset.  sum w r d2f is linear
        in the derivatives, so it is taken from the sums of w r times each
        of the seven and carried to x per dataset.
        """
        rho_p, u = self._rho_p_derivatives(beta2, rho)
        derivs = coincidence_parts_derivatives(
            self._taus, rho, rho_p[self._length_index], self._windows, *solved.parts
        ).take(self._folded, axis=-1)  # w_p, w_pp, b_p, b_pp, b_r, b_rp, b_rr
        scales, alpha, beta = solved.scales, 1.0 + solved.eta_ps, solved.eta_ps - 1.0
        s, alpha_f, beta_f, u0_f, u1_f, rho_beta = self.at(
            np.array([scales, alpha, beta, u[0], u[1], rho * beta]))
        f = solved.model
        f_p = alpha_f * derivs[0] + beta_f * derivs[2]
        # df / dtheta, and f last
        first = np.array([u0_f * f_p, u1_f * f_p + rho_beta * derivs[4],
                          solved.parts[1][self._folded], f])
        w2, wr = self._weights[0], np.bincount(self._fold, self._w2 * solved.res)
        cross = self.sums(wr * first)
        moments = self.sums((w2 * f) * first)
        ds = -(scales * moments[:3] + cross[:3]) / moments[3]
        jac = s * first[:3] + self.at(ds) * f
        jtj = self.sums(w2 * jac[:, None] * jac)
        # s sum w r d2f: f's second derivatives in x, and q's first
        raw = self.sums(wr * derivs)
        f_p, f_pp = alpha * raw[:2] + beta * raw[2:4]
        f_r, f_rp, f_rr = beta * raw[4:]
        q_p = raw[0] + raw[2]
        u_0, u_1, u_00, u_01, u_11 = u
        c00 = u_0 * u_0 * f_pp + u_00 * f_p
        c01 = u_0 * (u_1 * f_pp + rho * f_rp) + u_01 * f_p
        c11 = u_1 * (u_1 * f_pp + 2.0 * rho * f_rp) + rho * (rho * f_rr + f_r) + u_11 * f_p
        c0e, c1e = u_0 * q_p, u_1 * q_p + rho * raw[4]
        curv = scales * np.array([[c00, c01, c0e], [c01, c11, c1e], [c0e, c1e, np.zeros_like(c00)]])
        mixed = cross[:3, None] * ds
        jtr = scales * cross[:3] + ds * cross[3]
        return jtr, jtj, jtj + mixed + mixed.swapaxes(0, 1) + curv


def _eliminate(blocks, free):
    """lm_fit's J^T r, J^T J and N in x alone, from FitProblem.blocks.

    A free eta' sits at the loss's minimum, so it moves with x by
    d eta' = -k . dx with k = N_x,eta' / N_eta',eta': its dataset's Jacobian
    in x is J_x - k J_eta', and its N the Schur complement
    N_xx - k N_eta',x.  J^T r and J^T J so stay those of the residuals with
    s and eta' both projected out.  A held eta' does not move, and its
    dataset brings its x block alone.  free is per dataset.
    """
    jtr, jtj, newton = blocks
    k = np.divide(newton[:2, 2], newton[2, 2], out=np.zeros_like(jtr[:2]), where=free)
    kj = k[:, None] * jtj[2, :2]  # k J_eta'^T J_x
    return ((jtr[:2] - k * jtr[2]).sum(axis=-1),
            (jtj[:2, :2] - kj - kj.swapaxes(0, 1) + k[:, None] * k * jtj[2, 2]).sum(axis=-1),
            (newton[:2, :2] - k[:, None] * newton[2, :2]).sum(axis=-1))


def _solve_2x2(m00, m10, m11, g0, g1):
    """(M^-1 g, g . M^-1 g) on floats for M = [[m00, m10], [m10, m11]], by its
    LDL^T factors; None where M is not positive definite."""
    if not m00 > 0:
        return None
    lower = m10 / m00
    schur = m11 - lower * m10
    if not schur > 0:
        return None
    z = g1 - lower * g0
    y1 = z / schur
    return (g0 / m00 - lower * y1, y1), g0 * g0 / m00 + z * z / schur


def _damping_floor(n00, n10, n11, d0, d1):
    """The least lam >= 0 at which N + lam diag(d) is positive semidefinite: minus
    the least eigenvalue of diag(d)^-1/2 N diag(d)^-1/2, or 0, for d > 0."""
    mean, half_gap = 0.5 * (n00 / d0 + n11 / d1), 0.5 * (n00 / d0 - n11 / d1)
    return max(0.0, math.hypot(half_gap, n10 / math.sqrt(d0) / math.sqrt(d1)) - mean)


def lm_fit(datasets, init: FitParams) -> FitResult:
    """Levenberg-Marquardt global fit with per-dataset amplitudes solved exactly.

    The objective is FitProblem(datasets), the sum
    sum_i sum_x |s_i f_i(x) - y_x|^2 / (max(y_x, y_i,min) max(y_i)): a
    Poisson chi-square, in which each bin weighs by its counts,
    divided by each dataset's peak, so that rescaling one curve (counts to
    rates, say) changes neither its weight nor the fit.  A dataset's model
    is s_i (p_i + eta'_i q_i) for eta' = (2 eta - 1)^2, so for given
    (beta2, rho) its amplitude s_i and its eta'_i in [0, 1] follow from a
    2x2 linear least-squares problem (variable projection).  The LM loop
    therefore runs over x = (beta2, log rho) alone, whatever the number of
    datasets; it starts from init's beta2 and rho, and init's etas are not
    read.  The start and every trial point are evaluated by one FitProblem's
    solve(beta2, rho), with rho = e^x1: a single stacked call of
    model.coincidence_parts over the distinct (T, L, |tau|) points of all
    datasets, the only model pass, which model_passes counts, and one set of
    per-dataset sums for every (s_i, eta'_i) and the bound, 0 or 1, where an
    eta' must go to one (FitProblem names the layouts these run on).

    The derivatives are exact and cost no pass: the model's
    coincidence_parts_derivatives turns a pass's (p, q) into their first
    and second derivatives, which the chain rule carries to x.  Per
    dataset, FitProblem.blocks sums J^T r, J^T J and N, half the gradient
    and Hessian, in theta = (x0, x1, eta') of the loss with the scale
    projected out.  A free eta' sits at its minimum, so _eliminate projects
    it out too, by one Schur complement per dataset: with
    k = N_x,eta' / N_eta',eta' the Jacobian in x is J_x - k J_eta' and N is
    N_xx - k N_eta',x.  A dataset whose eta' is held at a bound, 0 or 1,
    brings its x block alone.  The projected loss F(x) then has the
    gradient 2 J^T r and the Hessian 2 N, summed over the datasets.
    N is J^T J plus the residuals' own curvature; at a converged campaign
    fit the curvature was 0.7 of J^T J in the beta2 entry, and Gauss-Newton
    steps without it overshot in beta2 and took 50-200 iterations.

    Each step solves (N + lam diag(J^T J)) dx = -J^T r, where J is the
    Jacobian of the projected residuals.  Damping by diag(J^T J) makes the
    step the same under any rescaling of x0 or x1 (Marquardt 1963), so x0
    is beta2 in its own units.  This 2x2 algebra runs in closed form on
    floats (_solve_2x2).  lam starts at 1e-3, grows tenfold on a rejected
    step or while the damped matrix is not positive definite, and shrinks
    tenfold on an accepted step.  Where N is not positive definite, an
    iteration starts lam at no less than twice lam*, the least damping at
    which the damped matrix is positive semidefinite (_damping_floor; Moré
    and Sorensen 1983), so that its step never comes from a barely positive
    definite matrix.  The fit has converged when the loss a full Newton
    step predicts to remove, J^T r . N^-1 J^T r for a positive definite N,
    is at most 1e-10 of the loss.  This is checked before each iteration's
    trials and is not counted as an iteration; at the loss's rounding floor
    no trial step can lower the loss, and rejected trials would only grow
    lam.  An accepted step whose relative loss decrease is below 1e-10
    converges too.  After 200 iterations, or once lam passes 1e14, a
    non-converged result is returned, never an exception.  A trial x at
    which the model does not exist, where rho = e^x1 overflows, some rho'
    is not in (0, inf) or some dataset's model has a sum of squares of 0, is
    rejected like a trial that raises the loss; at the start, the last two
    raise a ValueError, the last one naming the dataset.

    The model sees beta2 only through (L beta2 rho)^2, so the loop may end
    at x0 < 0; FitParams stores |beta2|, at which FitProblem.solve gives the
    same loss, scales and etas bit for bit.  The covariance is taken from the
    blocks' J^T J, the Jacobian of the weighted residuals in x and each
    free eta' with only the scales profiled: an arrowhead, as each eta'
    meets only x and itself, summed block by block without forming the
    n x (2 + D) Jacobian, so the step and the covariance read one Jacobian;
    the blocks are taken at the start and after each accepted step.
    p counts beta2, rho, and each dataset's eta and scale; a
    dataset whose counts are all 0 brings neither points nor parameters.
    The same n and p give the covariance's loss / (n - p) and the input
    check: a fit needs n >= p + 1.  FitResult says how the covariance is
    inverted and what each of its fields holds.
    """
    datasets = list(datasets)
    problem = FitProblem(datasets)
    # beta2, rho, and each dataset's eta and scale; an all-zero dataset
    # brings neither points nor parameters
    has_counts = [ds.curve.values.any() for ds in datasets]
    n_points = sum(len(ds.curve) for ds, c in zip(datasets, has_counts) if c)
    n_params = 2 + 2 * sum(has_counts)
    if n_points < n_params + 1:
        raise ValueError("need at least p + 1 data points for p parameters")

    x0, x1 = init.beta2_ps2_per_km, math.log(init.rho_ps2_inv)
    rho = math.exp(x1)
    state = problem.solve(x0, rho)
    if state is None:
        if problem.parts(x0, rho) is None:
            raise ValueError("init: rho' = rho / (1 + (L beta2 rho)^2) is not in (0, inf)")
        label = next(ds.label or f"#{i}" for i, ds in enumerate(datasets)
                     if FitProblem([ds]).solve(x0, rho) is None)
        raise ValueError(f"init: no scale fits dataset {label}: its model's sum of squares is 0")
    lam = _DAMPING_INIT
    converged = False
    iterations = 0
    blocks = problem.blocks(x0, rho, state)

    while iterations < _MAX_ITERATIONS:
        (g0, g1), ((d0, _), (_, d1)), ((n00, _), (n10, n11)) = (
            a.tolist() for a in _eliminate(blocks, ~state.held))
        # g . N^-1 g, the loss a full Newton step would remove, where N is positive definite
        newton = _solve_2x2(n00, n10, n11, g0, g1)
        if newton is not None and newton[1] <= _LOSS_REL_TOL * state.loss:
            converged = True
            break
        iterations += 1
        fill = max(d0, d1, 1e-30)
        d0, d1 = (d if d > 0 else fill for d in (d0, d1))
        lam = max(lam, 2.0 * _damping_floor(n00, n10, n11, d0, d1))
        while lam < 1e14:
            step = _solve_2x2(n00 + lam * d0, n10, n11 + lam * d1, -g0, -g1)
            if step is None:
                # not positive definite yet: more damping, towards steepest descent
                lam *= _DAMPING_FACTOR
                continue
            (dx0, dx1), _ = step
            x0_new, x1_new = x0 + dx0, x1 + dx1
            try:
                rho_new = math.exp(x1_new)
            except OverflowError:  # past the double range: no model there
                lam *= _DAMPING_FACTOR
                continue
            trial = problem.solve(x0_new, rho_new)
            if trial is not None and trial.loss <= state.loss:
                lam = max(lam / _DAMPING_FACTOR, 1e-14)
                break
            lam *= _DAMPING_FACTOR
        else:  # the damping is exhausted
            break
        rel_drop = (state.loss - trial.loss) / max(state.loss, 1e-300)
        x0, x1, rho, state = x0_new, x1_new, rho_new, trial
        blocks = problem.blocks(x0, rho, state)
        if rel_drop < _LOSS_REL_TOL:
            converged = True
            break

    etas = 0.5 + 0.5 * np.sqrt(state.eta_ps)  # canonical eta >= 1/2 with (2 eta - 1)^2 = eta'
    params = FitParams(x0, rho, etas.tolist())

    # Covariance in external units (|beta2|, rho, eta_1..eta_D): the arrowhead
    # J^T J in x and each free eta' from the blocks' J^T J, inverted in
    # correlation form and scaled by d x / d (|beta2|, rho) = (sign(x0), 1/rho)
    # and d eta'/d eta = 4 (2 eta - 1).  An eta' held at a bound has no column
    # (at eta' = 0 it would be zero).
    free = ~state.held
    per_set = blocks[1]
    arrowhead = np.diag(np.concatenate(([0.0, 0.0], per_set[2, 2, free])))
    arrowhead[:2, :2] = per_set[:2, :2].sum(axis=-1)
    arrowhead[2:, :2] = per_set[2, :2, free]
    arrowhead[:2, 2:] = arrowhead[2:, :2].T
    root = np.sqrt(np.diag(arrowhead))
    seen = np.flatnonzero(root)  # no data point moves with an unseen parameter
    corr = arrowhead[np.ix_(seen, seen)] / np.outer(root[seen], root[seen])
    units = np.concatenate(([math.copysign(1.0, x0), 1.0 / rho], 4.0 * (2.0 * etas[free] - 1.0)))
    scale = (units * root)[seen]
    cov_free = np.diag(np.full(root.size, math.inf))
    try:  # a singular block, or one whose inverse keeps under two digits, stays infinite
        inverse = np.linalg.inv(corr)
        cond = float(np.linalg.cond(corr))
        if cond < 1e14:
            cov_free[np.ix_(seen, seen)] = (inverse / np.outer(scale, scale)
                                            * state.loss / (n_points - n_params))
    except np.linalg.LinAlgError:
        cond = math.inf
    kept = np.concatenate(([0, 1], 2 + np.flatnonzero(free)))
    order = ["beta2_ps2_per_km", "rho_ps2_inv"] + [f"eta[{i}]" for i in range(len(datasets))]
    cov = np.zeros((len(order), len(order)))
    cov[np.ix_(kept, kept)] = 0.5 * (cov_free + cov_free.T)

    rmsre_list = [rmsre(r, ds.curve.values) if counts else math.nan for r, ds, counts
                  in zip(problem.split(state.res), datasets, has_counts)]
    return FitResult(
        params=params,
        beta2_sigma_ps2_per_km=float(np.sqrt(max(cov[0, 0], 0.0))),
        rho_sigma_ps2_inv=float(np.sqrt(max(cov[1, 1], 0.0))),
        scales=state.scales.tolist(),
        rmsre_per_dataset=rmsre_list,
        covariance=cov,
        covariance_order=order,
        loss=state.loss,
        iterations=iterations,
        converged=converged,
        jtj_condition=cond,
        etas_held_at_bound=np.flatnonzero(state.held).tolist(),
        model_passes=problem.passes,
    )
