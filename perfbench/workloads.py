"""The benchmark's workloads: inputs made from the run seed, one op each, and
the check every op's output must pass.

An op ends in one of four states: "ok", "raised" (an exception, or a CLI
error exit), "not_converged" (the fit says so, or the CLI exits 3) or
"wrong_answer" (an output the program presented as valid fails its check).
Every state but "ok" is a failed op; none is dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import disphom
from disphom import cli, fitting, oracle

# The reference ppKTP / SMF-28 configuration of the test suite.
BETA2 = 21.39  # ps^2/km
RHO = 14.53  # ps^-2
DN_ENGINEERED = 0.02886251969406823  # gives RHO exactly with a 2 mm crystal and a 12 nm filter
SIGMA_LIMIT = 5.0  # a fit must land within this many standard errors of the truth

# (window half-width ns, fiber km) of the test suite's standard_sets campaign.
STANDARD_SETS = [
    (0.3, 1.0), (0.3, 16.0), (0.5, 4.0), (0.5, 22.0), (0.8, 10.0),
    (0.8, 29.0), (1.0, 7.0), (1.0, 13.0), (0.4, 19.0), (0.4, 25.0),
]
INIT_STRATA = 8  # the warm-start offsets are stratified over blocks of this many fits

CLI_WINDOWS_NS = [0.3, 0.5, 0.8, 1.0]
CLI_LENGTHS_KM = [1.0, 5.0, 10.0, 16.0, 22.0, 29.0]
CLI_POINTS = 401

# Oracle configurations (T ps, L km): the corners and the middle of
# T = 300-800 ps x L = 5-29 km.  Cost grows like T^2 / L, so a fixed cycle
# keeps the mix of cheap and expensive curves equal in every run.
ORACLE_CYCLE = [(300.0, 5.0), (800.0, 29.0), (550.0, 17.0), (300.0, 29.0), (800.0, 5.0), (425.0, 11.0)]
ORACLE_ETA = 0.52
ORACLE_DELAYS = 201


def _within_sigma(value, truth, sigma):
    return math.isfinite(sigma) and sigma > 0 and abs(value - truth) <= SIGMA_LIMIT * sigma


def _fit_status(converged, beta2, beta2_sigma, rho, rho_sigma):
    if not converged:
        return "not_converged"
    if _within_sigma(beta2, BETA2, beta2_sigma) and _within_sigma(rho, RHO, rho_sigma):
        return "ok"
    return "wrong_answer"


class FitWarm:
    """In-process lm_fit of a fresh 10 x 201 Poisson campaign, warm start."""

    name = "fit_warm"
    # Distinct ops per second of --seconds: 16 in 20 s, two blocks of strata.
    # Fit cost depends on the start, so the median needs many fits more than
    # it needs repeats of each.
    ops_per_s = 0.8
    fits = True

    def make(self, seed, i, workdir):
        # Op i fits the same fresh campaign in every run, like the test
        # suite's fixed-seed standard_sets; the run seed moves the start.
        # Noise decides how many iterations a fit takes, so drawing it from
        # the run seed as well would make the run medians wander.
        noise = np.random.default_rng([1, i])
        rng = np.random.default_rng([seed, 1, i])
        datasets = []
        for window_ns, length_km in STANDARD_SETS:
            window_ps = 1000.0 * window_ns
            taus = np.linspace(-1.5 * window_ps, 1.5 * window_ps, 201)
            rho_p = disphom.broadened_rho(RHO, disphom.ChannelParams(length_km, BETA2))
            model = disphom.coincidence_curve(
                taus, RHO, rho_p, disphom.eta_prime(0.52), window_ps
            ).values
            counts = noise.poisson(model / model.max() * 1e4).astype(float)
            datasets.append(
                disphom.Dataset(disphom.HomCurve(taus, counts), window_ps, length_km)
            )
        # Latin-hypercube start: beta2 and rho within +-5 % of the truth and
        # one eta in [0.5, 0.7] for every dataset each visit every stratum
        # once per block, so every run sees the same spread of starts.
        k = i % INIT_STRATA
        beta2_frac, rho_frac, eta_frac = (
            ((a * k + b) % INIT_STRATA + rng.uniform()) / INIT_STRATA
            for a, b in ((1, 0), (5, 3), (3, 5))
        )
        init = disphom.FitParams(
            BETA2 * (0.95 + 0.1 * beta2_frac),
            RHO * (0.95 + 0.1 * rho_frac),
            [0.5 + 0.2 * eta_frac] * len(datasets),
        )
        return datasets, init

    def run(self, inp, tracer):
        datasets, init = inp
        return fitting.lm_fit(datasets, init)

    def check(self, inp, result):
        return _fit_status(
            result.converged,
            result.params.beta2_ps2_per_km, result.beta2_sigma_ps2_per_km,
            result.params.rho_ps2_inv, result.rho_sigma_ps2_inv,
        )

    def cleanup(self, inp):
        pass


class CliCampaign:
    """`disphom gen` then `disphom fit` (default init) on 24 x 401 datasets."""

    name = "cli_campaign"
    # Ops are long (4-10 s), so a 20 s run holds six campaigns and runs each
    # once.
    ops_per_s = 0.3
    fits = True

    def make(self, seed, i, workdir):
        # As in fit_warm, op i generates the same campaign in every run and
        # the run seed moves it: each dataset's eta is jittered by up to
        # +-0.01.  Converged cold-start fits take 5-13 s depending on the
        # campaign, too wide a spread to draw afresh for a few ops a run.
        corpus = np.random.default_rng([2, i])
        rng = np.random.default_rng([seed, 2, i])
        n_sets = len(CLI_WINDOWS_NS) * len(CLI_LENGTHS_KM)
        etas = np.clip(corpus.uniform(0.5, 0.7, n_sets) + rng.uniform(-0.01, 0.01, n_sets),
                       0.5, 0.7)
        config = disphom.CampaignConfig(
            source=disphom.SourceParams(DN_ENGINEERED, -DN_ENGINEERED, 2.0, 775.0, 2.0, 46.2),
            filter=disphom.FilterParams(1550.0, 12.0),
            beta2_ps2_per_km=BETA2,
            fiber_lengths_km=CLI_LENGTHS_KM,
            windows_ns=CLI_WINDOWS_NS,
            etas=[float(e) for e in etas],
            tau_points=CLI_POINTS,
            peak_counts=1e4,
            seed=int(corpus.integers(2**31)),
        )
        op_dir = Path(workdir) / f"{self.name}-{i}"
        op_dir.mkdir(parents=True, exist_ok=True)
        path = op_dir / "campaign.json"
        path.write_text(json.dumps(config.to_json_dict()), encoding="utf-8")
        return op_dir

    def run(self, op_dir, tracer):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with tracer.span("cli.gen") if tracer else contextlib.nullcontext():
                gen_rc = cli.main(
                    ["gen", "--config", str(op_dir / "campaign.json"),
                     "--out-dir", str(op_dir / "data")]
                )
            if gen_rc != 0:
                return gen_rc, None, out.getvalue()
            with tracer.span("cli.fit") if tracer else contextlib.nullcontext():
                fit_rc = cli.main(
                    ["fit", "--data-dir", str(op_dir / "data"),
                     "--report", str(op_dir / "report.json")]
                )
        return gen_rc, fit_rc, out.getvalue()

    def check(self, op_dir, result):
        gen_rc, fit_rc, _output = result
        rc = fit_rc if gen_rc == 0 else gen_rc
        if rc == 3:
            return "not_converged"
        if rc != 0:
            return "raised"
        try:
            report = json.loads((op_dir / "report.json").read_text(encoding="utf-8"))
            return _fit_status(
                report["converged"] is True,
                report["beta2_ps2_per_km"], report["beta2_sigma_ps2_per_km"],
                report["rho_ps2_inv"], report["rho_sigma_ps2_inv"],
            )
        except (OSError, ValueError, KeyError, TypeError):
            return "wrong_answer"

    def cleanup(self, op_dir):
        shutil.rmtree(op_dir / "data", ignore_errors=True)
        (op_dir / "report.json").unlink(missing_ok=True)


class OracleGrid:
    """Quadrature oracle on 201 delays across +-1.5 T, checked against the closed form."""

    name = "oracle_grid"
    ops_per_s = 0.3  # 6 in 20 s: one cycle of ORACLE_CYCLE
    fits = False

    def make(self, seed, i, workdir):
        rng = np.random.default_rng([seed, 3, i])
        window_t, length_km = ORACLE_CYCLE[i % len(ORACLE_CYCLE)]
        # +-1 % jitter, kept inside the spanned ranges
        window_t = min(max(window_t * (1.0 + 0.02 * (rng.uniform() - 0.5)), 300.0), 800.0)
        length_km = min(max(length_km * (1.0 + 0.02 * (rng.uniform() - 0.5)), 5.0), 29.0)
        taus = np.linspace(-1.5 * window_t, 1.5 * window_t, ORACLE_DELAYS)
        return taus, window_t, length_km

    def run(self, inp, tracer):
        taus, window_t, length_km = inp
        return oracle.windowed_rate_numeric(taus, window_t, ORACLE_ETA, RHO, length_km, BETA2)

    def check(self, inp, numeric):
        """The bound of test_windowed_matches_closed_form_reference_config."""
        taus, window_t, length_km = inp
        rho_p = disphom.broadened_rho(RHO, disphom.ChannelParams(length_km, BETA2))
        closed = disphom.coincidence_curve(
            taus, RHO, rho_p, disphom.eta_prime(ORACLE_ETA), window_t
        ).values
        scale = disphom.profile_scale(numeric, closed)
        deviation = np.abs(scale * numeric - closed)
        bound = np.maximum(1e-6 * np.abs(closed), 1e-9 * closed.max())
        if abs(scale - 1.0) <= 1e-5 and (deviation <= bound).all():
            return "ok"
        return "wrong_answer"

    def cleanup(self, inp):
        pass


WORKLOADS = {w.name: w for w in (FitWarm(), CliCampaign(), OracleGrid())}
