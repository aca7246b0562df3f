"""Brute-force numerical reference for the windowed coincidence rate.

Evaluates the time-resolved two-photon rate directly from the dispersed
difference amplitude and integrates it over the coincidence window with an
adaptive Gauss-Kronrod (G30-K61) rule.  Exists to validate the closed-form
model: it shares no code with the closed form beyond the broadened-width
helper used in its own contracts.  Its one tolerance is rel_tol: each window
integral is accepted by QUADPACK's per-integral error test, once its error
bound is at most max(1e-12, rel_tol |estimate|).

Two exact symmetries halve the work.  Mirroring sigma swaps the splitter
arms, c(tau, -sigma; eta) = c(tau, sigma; 1 - eta), so the integral over
the symmetric window [-T, T] is the integral over [0, T] of the folded
density c(tau, sigma) + c(tau, -sigma), which holds one bump (at
sigma = |tau|) where the unfolded density holds two.  The folded density
depends on tau through |tau| alone, so the windowed rate is even in tau and
each distinct |tau| of a grid is integrated once.  The start breakpoints
of all the distinct delays are built in one pass.  Consecutive delays are
then integrated together, one group per adaptive pass, for as long as
their start panels fit a fixed budget.  Each one's result does not depend
on the group it falls in.

The integrand's interference term is sin^2 of a chirp phase that reaches
thousands of radians.  The phase is reduced mod pi, sin^2's period, with pi
in three parts (Cody and Waite, 1980) before the sine is taken: numpy's
sine costs about half as much on [-pi/2, pi/2], and the reduced sin^2 is
within a few 1e-16 of that of the unreduced phase.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ChannelParams, broadened_rho


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot reach the requested tolerance.

    Carries the achieved estimate and its error bound: those of the first
    integral left open, where several are integrated together.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def max_workers() -> int:
    """Threads the oracle uses: one, as groups of delays are integrated one after another.

    perfbench records this figure with every run."""
    return 1


def _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km):
    """k = Im(1/(4a)) with a = (1/rho + i L beta2)/2, the chirped Gaussian's
    exp(-a w^2) in frequency: the time-domain amplitude's phase is -k t^2."""
    return (0.5 / (1.0 / rho + 1j * fiber_length_km * beta2_ps2_per_km)).imag


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


# pi in three parts for the Cody-Waite reduction of a phase mod pi (Cody and
# Waite, Software Manual for the Elementary Functions, 1980): the first two
# hold 33 bits each, so m times either is exact for |m| < 2^20, and
# theta - m _PI_1 is exact by Sterbenz's lemma; the third is pi's next 53 bits
_PI_1 = float.fromhex("0x1.921fb544p+1")
_PI_2 = float.fromhex("0x1.0b4611a6p-33")
_PI_3 = float.fromhex("0x1.3198a2e037073p-68")


def _sin_squared(theta):
    """sin(theta)^2, computed in theta's own array (a float64 ndarray), which it returns.

    theta is first reduced mod pi, sin^2's period: r = theta - m pi with
    m = rint(theta / pi), m pi subtracted in the parts _PI_1, _PI_2 and
    _PI_3.  r differs from the exact remainder of the double theta by about
    an ulp of pi/2 at most.  A call in which some |m| reaches 2^20, where
    m _PI_1 may not be exact, takes the sine of theta as it is.
    """
    m = np.multiply(theta, 1.0 / math.pi)
    np.rint(m, out=m)
    if max(m.max(), -m.min()) < 2.0**20:
        part = np.multiply(m, _PI_1)
        theta -= part
        theta -= np.multiply(m, _PI_2, out=part)
        theta -= np.multiply(m, _PI_3, out=part)
    np.sin(theta, out=theta)
    return np.square(theta, out=theta)


def _folded_rate(t, sigma, eta, rho_p, k):
    """c(t, sigma) + c(t, -sigma) for t, sigma >= 0: the folded window integrand.

    rho_p is the broadened width and k the chirp wavenumber.  With
    u = exp(-rho' t sigma) <= 1 the sum is
    sqrt(rho'/2pi) exp(-rho' (t - sigma)^2 / 2)
    * [(eta^2 + (1-eta)^2)(1 + u^2) - 4 eta (1-eta) u cos(2 k t sigma)];
    for non-negative t and sigma no factor can overflow (a cosh form would,
    as rho' t sigma reaches ~1e6 without dispersion).  The bracket is
    evaluated as a (1-u)^2 + 2 eta' u + 4 b u sin^2(k t sigma), with
    a = eta^2 + (1-eta)^2, b = 2 eta (1-eta), eta' = (1 - 2 eta)^2 and
    1 - u = -expm1(-rho' t sigma): every term is non-negative, so the
    bracket keeps its digits where u -> 1 and k t sigma -> 0 (a long fiber
    at a small delay), where the expanded form cancels to 0.  The factor
    sqrt(rho'/2pi) is taken into the bracket's coefficients, and each
    step after the first writes into an array already made.
    """
    scale = math.sqrt(rho_p / (2.0 * math.pi))
    with np.errstate(under="ignore"):
        out = _sin_squared((k * t) * sigma)
        out *= scale * (8.0 * eta * (1.0 - eta))
        out += scale * (2.0 * (1.0 - 2.0 * eta) ** 2)
        # expm1 is u - 1 = -(1 - u)
        u_minus_1 = np.multiply(-rho_p * t, sigma)
        np.expm1(u_minus_1, out=u_minus_1)
        out *= u_minus_1 + 1.0
        np.square(u_minus_1, out=u_minus_1)
        u_minus_1 *= scale * (eta * eta + (1.0 - eta) * (1.0 - eta))
        out += u_minus_1
        envelope = np.subtract(t, sigma, out=u_minus_1)
        np.square(envelope, out=envelope)
        envelope *= -0.5 * rho_p
        out *= np.exp(envelope, out=envelope)
    return out


# Gauss-Kronrod G30-K61 on [-1, 1] (QUADPACK's qk61): the Kronrod nodes in
# ascending order, the K61 weights, and K61 minus G30, whose sum is the
# rule's error estimate (G30 uses every second node; its weight is 0 elsewhere).
# Computed in 120-digit arithmetic and rounded to 33 decimals.
_GK_HALF_NODES = np.array([
    0.999484410050490637571325895705811, 0.996893484074649540271630050918695,
    0.991630996870404594858628366109486, 0.983668123279747209970032581605663,
    0.973116322501126268374693868423707, 0.960021864968307512216871025581798,
    0.944374444748559979415831324037439, 0.926200047429274325879324277080474,
    0.905573307699907798546522558925958, 0.882560535792052681543116462530226,
    0.857205233546061098958658510658944, 0.829565762382768397442898119732502,
    0.799727835821839083013668942322683, 0.767777432104826194917977340974503,
    0.733790062453226804726171131369528, 0.697850494793315796932292388026640,
    0.660061064126626961370053668149271, 0.620526182989242861140477556431189,
    0.579345235826361691756024932172540, 0.536624148142019899264169793311073,
    0.492480467861778574993693061207709, 0.447033769538089176780609900322854,
    0.400401254830394392535476211542661, 0.352704725530878113471037207089374,
    0.304073202273625077372677107199257, 0.254636926167889846439805129817805,
    0.204525116682309891438957671002025, 0.153869913608583546963794672743256,
    0.102806937966737030147096751318001, 0.051471842555317695833025213166723,
    0.0,
])
_K61_HALF = np.array([
    0.001389013698677007624551591226760, 0.003890461127099884051267201844516,
    0.006630703915931292173319826369750, 0.009273279659517763428441146892024,
    0.011823015253496341742232898853251, 0.014369729507045804812451432443580,
    0.016920889189053272627572289420322, 0.019414141193942381173408951050128,
    0.021828035821609192297167485738339, 0.024191162078080601365686370725232,
    0.026509954882333101610601709335075, 0.028754048765041292843978785354334,
    0.030907257562387762472884252943092, 0.032981447057483726031814191016854,
    0.034979338028060024137499670731468, 0.036882364651821229223911065617136,
    0.038678945624727592950348651532281, 0.040374538951535959111995279752468,
    0.041969810215164246147147541285970, 0.043452539701356069316831728117073,
    0.044814800133162663192355551616723, 0.046059238271006988116271735559374,
    0.047185546569299153945261478181099, 0.048185861757087129140779492298305,
    0.049055434555029778887528165367238, 0.049795683427074206357811569379942,
    0.050405921402782346840893085653585, 0.050881795898749606492297473049805,
    0.051221547849258772170656282604944, 0.051426128537459025933862879215781,
    0.051494729429451567558340433647099,
])
_G30_HALF = np.array([
    0.0, 0.007968192496166605615465883474674, 0.0, 0.018466468311090959142302131912047,
    0.0, 0.028784707883323369349719179611292, 0.0, 0.038799192569627049596801936446348,
    0.0, 0.048402672830594052902938140422808, 0.0, 0.057493156217619066481721689402056,
    0.0, 0.065974229882180495128128515115962, 0.0, 0.073755974737705206268243850022191,
    0.0, 0.080755895229420215354694938460530, 0.0, 0.086899787201082979802387530715126,
    0.0, 0.092122522237786128717632707087619, 0.0, 0.096368737174644259639468626351810,
    0.0, 0.099593420586795267062780282103569, 0.0, 0.101762389748405504596428952168554,
    0.0, 0.102852652893558840341285636705415, 0.0,
])
_GK_NODES = np.concatenate([-_GK_HALF_NODES[:-1], _GK_HALF_NODES[::-1]])
_K61 = np.concatenate([_K61_HALF[:-1], _K61_HALF[::-1]])
_K61_MINUS_G30 = _K61 - np.concatenate([_G30_HALF[:-1], _G30_HALF[::-1]])
# G30's error on cos(w s) over a panel of width h is at most C h (w h)^60, with
# C = (30!)^4 / (61 (60!)^3) ~ 1.41e-118 the n = 30 Gauss-Legendre constant
_G30_COS_ERROR = math.factorial(30) ** 4 / (61 * math.factorial(60) ** 3)
# the window integral's absolute tolerance, met where rel_tol |estimate| is smaller
_ABS_TOL = 1e-12
# bisection levels a start panel may go through
_MAX_LEVELS = 24
# open panels a level may hold: a full 5e4-panel chirp grid can still be
# bisected once, and a (panels x 61) node array stays near 64 MB
_MAX_OPEN_PANELS = 2**17
# start panels of the delays integrated together.  On 201-delay curves
# (T = 300-800 ps, L = 5-29 km) on a 2-vCPU Xeon, groups of 880 took 9-14%
# longer than groups of 560, in perfbench's oracle_grid and in a tight loop
# alike.  320 was fastest in the loop, where the node arrays stay in cache,
# but no faster in perfbench, whose ops run between other work
_GROUP_PANELS = 560
# the bump's seeds, in widths 1/sqrt(rho') from sigma = |tau|
_BUMP_SEEDS = np.array([-8.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 8.0])


def _gauss_kronrod(f, breakpoints, owner, abs_tol, rel_tol, max_levels, name="integral {}".format):
    """Adaptive G30-K61 over several integrals at once; level-synchronous.

    Integral i runs over breakpoints[owner == i]: owner is sorted, counts
    0, 1, 2, ..., and each integral's breakpoints are ascending.  Returns
    (integrals, error_bounds), one entry of each per integral.  The panels
    between an integral's breakpoints are its starting grid: the error
    estimator only sees structure its nodes sample, so narrow features and
    fast oscillations must be resolved by the breakpoints.  Each level
    evaluates f(x, own) once on an (open panels x 61) node array x, whose
    row j belongs to integral own[j].  Each integral's tolerance is
    max(abs_tol, rel_tol |estimate|).  A panel is accepted once its
    |K61 - G30| is within its share of it, width / span, with its own
    integral's span.  After a level that leaves panels open, an integral
    whose accepted and open panels' |K61 - G30| sum to at most its tolerance
    is closed with all its panels accepted: QUADPACK's per-integral error
    test (Piessens et al., QUADPACK, 1983, routine qag).  It accepts the
    panels whose share is below their rounding, which bisection cannot
    lower, as a bump's in a wide window.  The rest are bisected, at most
    max_levels times, and while no more than 2^17 panels would be open:
    past either limit QuadratureError names the first integral left open,
    name(i), and the number still open, and reports that integral's
    estimate and bound.  The limits bound time and memory where neither
    test can be met, as for noise or a tolerance below rounding.

    No integral's result depends on the others: the weights are applied row
    by row and each integral's panels are summed in their own order, so an
    integral comes out the same, bit for bit, whatever it is grouped with.
    """
    count = int(owner[-1]) + 1
    same = owner[1:] == owner[:-1]
    a, b, own = breakpoints[:-1][same], breakpoints[1:][same], owner[1:][same]
    index = np.arange(count)
    first = np.searchsorted(owner, index)
    last = np.searchsorted(owner, index, side="right") - 1
    span = breakpoints[last] - breakpoints[first]
    integral = np.zeros(count)
    bound = np.zeros(count)
    for level in range(max_levels + 1):
        centre = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = np.multiply.outer(half, _GK_NODES)
        x += centre[:, None]
        values = f(x, own)
        kronrod = half * np.einsum("ij,j->i", values, _K61)
        err = np.abs(half * np.einsum("ij,j->i", values, _K61_MINUS_G30))
        estimate = integral + np.bincount(own, kronrod, count)
        tol = np.maximum(abs_tol, rel_tol * np.abs(estimate))
        done = err <= half * (2.0 * tol / span)[own]
        if not done.all():
            done |= (bound + np.bincount(own, err, count) <= tol)[own]
        integral += np.bincount(own[done], kronrod[done], count)
        bound += np.bincount(own[done], err[done], count)
        keep = ~done
        still_open = int(np.count_nonzero(keep))
        if not still_open:
            return integral, bound
        if level == max_levels or 2 * still_open > _MAX_OPEN_PANELS:
            break
        mid = centre[keep]
        a, b = np.concatenate([a[keep], mid]), np.concatenate([mid, b[keep]])
        own = np.concatenate([own[keep], own[keep]])

    unconverged = np.unique(own[keep])
    i = int(unconverged[0])
    raise QuadratureError(
        f"quadrature did not converge at {name(i)}: {unconverged.size} of {count} integrals "
        f"and {still_open} panels open after {level} subdivision levels "
        f"(limits: {max_levels} levels, {_MAX_OPEN_PANELS} panels)",
        float(estimate[i]),
        float(bound[i] + np.sum(err[keep & (own == i)])),
    )


def windowed_rate_numeric(
    tau_ps,
    window_half_width_ps,
    eta,
    rho,
    fiber_length_km,
    beta2_ps2_per_km,
    rel_tol=1e-9,
):
    """Window integral of the time-resolved rate: c(tau) = int_{-T}^{T} c(tau, s) ds.

    Computed as the integral over [0, T] of the folded density
    c(|tau|, s) + c(|tau|, -s), which equals the symmetric-window integral
    because c(tau, -s; eta) = c(tau, s; 1 - eta).  The result is even in
    tau, bit for bit: tau_ps may be a scalar or a grid, and each distinct
    |tau| is integrated once and scattered back in the input's shape.  A
    grid gives, bit for bit, what each of its delays gives alone.
    Matches the closed-form rate up to one global positive scale (which is
    unity for this normalization).

    Each delay's integral is accepted once the quadrature's error bound is
    at most max(1e-12, rel_tol |estimate|); rel_tol must be in (0, 1), since
    a tolerance of 1 or more accepts any estimate.
    A start panel is bisected at most 24 times.  If the delays cannot all
    reach the tolerance, QuadratureError names the smallest |tau| left open,
    with its estimate and bound.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must be finite and > 0, and < 1")
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
    window_t = float(window_half_width_ps)

    # Feature scales of the folded integrand: the pair-amplitude intensity
    # has a bump of width 1/sqrt(rho') centered at sigma = |tau|, and the
    # interference term carries a chirp phase whose local wavenumber in sigma
    # is w = 2|tau| |k|.  The initial panels over [0, T] are cut only at the
    # bump's seeds and on the chirp grid; the adaptive rule refines the rest.
    # The seeds reach 8 widths out, so that the bump's tails hold nodes even
    # where the window is far wider than the bump.  A grid whose step is at
    # most half a bump width already puts two or more panels across the
    # bump, so its delay keeps only the seeds past the grid's span.
    # The chirp grid's panels are sized to be accepted at the first level.
    # A panel of width h is given h rel_tol mean(f) of the tolerance, and
    # G30's error on an oscillation of amplitude A is at most A C h (w h)^60;
    # with A up to 3 mean(f), w h = (rel_tol / (3 C))^(1/60) meets the share
    # (64.0 rad, 10.2 periods per panel, at rel_tol = 1e-9).  The result is
    # K61's, whose own bound on cos, C' h (w h)^92 with C' ~ 2.2e-201, allows
    # wider panels at every rel_tol below 8e37, so it never binds here.
    # rho' first: it refuses a rho <= 0, at which the chirp wavenumber divides by 0
    rho_p = broadened_rho(rho, ChannelParams(fiber_length_km, beta2_ps2_per_km))
    if not rho_p > 0:
        raise ValueError("rho_prime must be > 0 (L beta2 rho too large)")
    k = _chirp_wavenumber(rho, fiber_length_km, beta2_ps2_per_km)
    bump_width = 1.0 / math.sqrt(rho_p)
    phase_step = (rel_tol / (3.0 * _G30_COS_ERROR)) ** (1.0 / 60.0)

    distinct, inverse = np.unique(np.abs(tau), return_inverse=True)
    # the chirp grid spans sigma up to where the interference envelope
    # exp(-rho'(t^2+sigma^2)/2) falls below e^-50: none past t = 10/sqrt(rho')
    cross_exponent = 0.5 * rho_p * distinct * distinct
    half_span = np.minimum(window_t, np.sqrt(2.0 * np.maximum(50.0 - cross_exponent, 0.0) / rho_p))
    wavenumber = 2.0 * distinct * abs(k)
    chirp_panels = np.minimum(np.ceil(half_span * wavenumber / phase_step), 50_000)
    grid_points = np.where(chirp_panels > 1, chirp_panels + 1, 0).astype(np.int64)

    # the sorted distinct start breakpoints of every delay, and each one's delay
    delay = np.arange(distinct.size)
    grid_owner = np.repeat(delay, grid_points)
    last = np.cumsum(grid_points)
    index = np.arange(grid_owner.size) - np.repeat(last - grid_points, grid_points)
    has_grid = grid_points > 0
    step = half_span / np.maximum(grid_points - 1, 1)
    grid = index * step[grid_owner]
    grid[last[has_grid] - 1] = half_span[has_grid]
    # seeds at or below lowest, or at or past T, are dropped.  The grid
    # lies in [0, half_span], within [0, T]: its 0, and its last point
    # where half_span = T, repeat the window's ends, and the dedup
    # below drops them
    seeds = distinct[:, None] + bump_width * _BUMP_SEEDS
    lowest = np.where(has_grid & (step <= 0.5 * bump_width), half_span, 0.0)
    inside = (lowest[:, None] < seeds) & (seeds < window_t)
    sigma = np.concatenate([np.tile([0.0, window_t], distinct.size), seeds[inside], grid])
    owner = np.concatenate([np.repeat(delay, 2), np.nonzero(inside)[0], grid_owner])
    order = np.lexsort((sigma, owner))
    sigma, owner = sigma[order], owner[order]
    new = np.ones(sigma.size, dtype=bool)
    new[1:] = (sigma[1:] != sigma[:-1]) | (owner[1:] != owner[:-1])
    sigma, owner = sigma[new], owner[new]

    # consecutive delays are integrated together while their start panels
    # fit in _GROUP_PANELS; a delay that alone exceeds it gets a group to
    # itself.  panels[j] counts those of delays 0..j, whose breakpoints end
    # at index panels[j] + j + 1
    panels = np.cumsum(np.bincount(owner) - 1)
    values = np.empty(distinct.size)
    start = 0
    while start < distinct.size:
        base = int(panels[start - 1]) if start else 0
        stop = max(int(np.searchsorted(panels, base + _GROUP_PANELS, side="right")), start + 1)
        group = slice(base + start, int(panels[stop - 1]) + stop)
        t = distinct[start:stop]
        values[start:stop], _ = _gauss_kronrod(
            lambda x, own: _folded_rate(t[own][:, None], x, eta, rho_p, k),
            sigma[group], owner[group] - start, _ABS_TOL, rel_tol, _MAX_LEVELS,
            name=lambda i: f"|tau| = {float(t[i])!r} ps",
        )
        start = stop
    out = values[inverse].reshape(tau.shape)
    if np.isscalar(tau_ps):
        return float(out)
    return out
