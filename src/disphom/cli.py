"""Command-line front-end.

Subcommands: simulate (closed-form curve), oracle (quadrature curve plus
deviation report), derive-source (crystal/filter to spectral scales), gen
(synthetic campaign), fit (global fit of a data directory), fwhm, and
osc-period.  Windows are given in ns on the command line (half-width of the
symmetric coincidence window) and converted to ps internally; all JSON
output carries unit-suffixed keys.  User errors are ValueErrors, raised where
the input enters; main alone turns them, and an oracle that cannot reach its
tolerance (QuadratureError), into `error: ...` on stderr and exit code 2,
never a traceback.  `fit` exits 0 only when the optimizer converged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as dio
from .fitting import FitParams, lm_fit, profile_scale
from .model import (
    ChannelParams,
    Dataset,
    FilterConvention,
    FilterParams,
    HomCurve,
    SourceParams,
    broadened_rho,
    check_epm,
    coincidence_curve,
    delay_grid,
    derive_spectral,
    eta_prime,
    extract_fwhm,
    oscillation_period,
)
from .oracle import QuadratureError, windowed_rate_numeric

_DEFAULT_INIT = {"beta2_ps2_per_km": 20.0, "rho_ps2_inv": 10.0}
"""The fit's start where --init is not given or lacks a key."""


def _tau_grid(args):
    if not (math.isfinite(args.tau_min_ps) and math.isfinite(args.tau_max_ps)):
        raise ValueError("--tau-min-ps and --tau-max-ps must be finite")
    if not args.tau_max_ps > args.tau_min_ps:
        raise ValueError("--tau-max-ps must exceed --tau-min-ps")
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    return delay_grid(args.tau_min_ps, args.tau_max_ps, args.points)


def _model_inputs(args):
    if not (math.isfinite(args.window_ns) and args.window_ns > 0):
        raise ValueError("--window-ns must be finite and > 0 (half-width of the window)")
    eta = getattr(args, "eta", 0.5)
    if not 0 <= eta <= 1:
        raise ValueError("--eta must be in [0, 1]")
    if not (math.isfinite(args.rho) and args.rho > 0):
        raise ValueError("--rho must be finite and > 0 (ps^-2)")
    for flag, value in (("--length-km", args.length_km), ("--beta2", args.beta2)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")
    window_ps = 1000.0 * args.window_ns
    rho_p = broadened_rho(args.rho, ChannelParams(args.length_km, args.beta2))
    return window_ps, rho_p, eta_prime(eta)


def _write_curve(path, taus, values, window_ns, length_km, label):
    dataset = Dataset(
        curve=HomCurve(taus, values),
        window_half_width_ps=1000.0 * window_ns,
        fiber_length_km=length_km,
        label=label,
    )
    dio.write_dataset(dataset, path)


def _cmd_simulate(args):
    window_ps, rho_p, eta_p = _model_inputs(args)
    taus = _tau_grid(args)
    curve = coincidence_curve(taus, args.rho, rho_p, eta_p, window_ps)
    _write_curve(args.out, taus, curve.values, args.window_ns, args.length_km, "simulate")
    print(f"wrote {args.out} ({taus.size} points)")
    return 0


def _cmd_oracle(args):
    window_ps, rho_p, eta_p = _model_inputs(args)
    taus = _tau_grid(args)
    numeric = windowed_rate_numeric(
        taus, window_ps, args.eta, args.rho, args.length_km, args.beta2, args.rel_tol
    )
    closed = coincidence_curve(taus, args.rho, rho_p, eta_p, window_ps).values
    scale = profile_scale(numeric, closed)
    plateau = float(closed.max())
    deviation = np.abs(scale * numeric - closed)
    floor = np.maximum(np.abs(closed), 1e-9 * plateau) if plateau > 0 else 1.0
    max_dev = float((deviation / floor).max()) if plateau > 0 else float(deviation.max())
    _write_curve(args.out, taus, numeric, args.window_ns, args.length_km, "oracle")
    print(f"wrote {args.out} ({taus.size} points)")
    print(f"matched_scale={scale!r}")
    print(f"max_scale_matched_relative_deviation={max_dev!r}")
    return 0


def _cmd_derive_source(args):
    data = dio.read_json_object(args.config)
    source = dio.from_json_fields(SourceParams, data, args.config, "source")
    filt = dio.from_json_fields(FilterParams, data, args.config, "filter")
    report = {}
    for convention in (FilterConvention.FIELD_LEVEL, FilterConvention.INTENSITY_LEVEL):
        derived = derive_spectral(source, replace(filt, convention=convention))
        values = {
            "gamma_signal_ps_per_mm": derived.gamma_signal,
            "gamma_idler_ps_per_mm": derived.gamma_idler,
            "r_ps2_inv": derived.r,
            "s_ps2_inv": derived.s,
            "rho_ps2_inv": derived.rho,
        }
        # without a filter s is infinite: JSON has no inf
        report[convention.value] = {key: _json_number(value) for key, value in values.items()}
    epm = check_epm(derived.gamma_signal, derived.gamma_idler)
    report["epm_mismatch"] = epm.mismatch
    report["epm_within_tolerance"] = epm.within_tolerance
    dio.write_json_object(args.out, report)
    print(f"wrote {args.out}")
    return 0


def _cmd_gen(args):
    config = dio.CampaignConfig.from_json(args.config)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise dio.DatasetFormatError(f"{out_dir}: cannot write ({exc.strerror})") from None
    datasets, rho = dio.generate_synthetic(config)
    for dataset in datasets:
        dio.write_dataset(dataset, out_dir / f"ds_{dataset.label}.csv")
    echo = config.to_json_dict()
    echo[dio.DERIVED_RHO_KEY] = rho
    dio.write_json_object(out_dir / "campaign.json", echo)
    print(f"wrote {len(datasets)} datasets to {out_dir} (rho={rho:.6g} ps^-2)")
    return 0


def _cmd_fit(args):
    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        raise ValueError(f"{data_dir}: not a directory")
    paths = sorted(p for p in data_dir.glob("*.csv"))
    if not paths:
        raise ValueError(f"{data_dir}: no .csv datasets found")
    datasets = [dio.read_dataset(p) for p in paths]
    given = {} if args.init is None else dio.read_json_object(args.init)
    # the fit solves every eta: an eta or etas entry is accepted and not read
    start = {key: value for key, value in given.items() if key not in ("eta", "etas")}
    init = dio.from_json_fields(FitParams, {**_DEFAULT_INIT, **start}, args.init)
    result = lm_fit(datasets, init)
    report = _fit_report(result, datasets, paths)
    dio.write_json_object(args.report, report)
    status = "converged" if result.converged else "NOT converged"
    print(
        f"{status} after {result.iterations} iterations: "
        f"|beta2| = {result.params.beta2_ps2_per_km:.4f} +- {result.beta2_sigma_ps2_per_km:.4f} ps^2/km, "
        f"rho = {result.params.rho_ps2_inv:.4f} +- {result.rho_sigma_ps2_inv:.4f} ps^-2"
    )
    print(f"wrote {args.report}")
    return 0 if result.converged else 3


def _json_number(value):
    """value, or None (JSON null) where it is not finite: RFC 8259 has no inf or NaN."""
    return value if math.isfinite(value) else None


def _fit_report(result, datasets, paths):
    per_dataset = []
    for dataset, path, eta, scale, err in zip(
        datasets, paths, result.params.etas, result.scales, result.rmsre_per_dataset
    ):
        rho = result.params.rho_ps2_inv
        rho_p = broadened_rho(
            rho, ChannelParams(dataset.fiber_length_km, result.params.beta2_ps2_per_km)
        )
        if rho_p < rho:
            p_osc = oscillation_period(rho, rho_p, dataset.window_half_width_ps)
        else:
            p_osc = None
        try:
            fwhm = extract_fwhm(dataset.curve).fwhm_ps
        except ValueError:
            fwhm = None
        per_dataset.append(
            {
                "label": dataset.label,
                "file": str(path),
                "file_sha256": dio.sha256_of(path),
                "meta_sha256": dio.sha256_of(dio._meta_path(Path(path))),
                "window_half_width_ns": dataset.window_half_width_ps / 1000.0,
                "fiber_length_km": dataset.fiber_length_km,
                "n_points": len(dataset.curve),
                "eta": eta,
                "scale": scale,
                "rmsre": None if math.isnan(err) else err,
                "zero_count_bins": int((dataset.curve.values == 0).sum()),
                "fwhm_ps": fwhm,
                "predicted_oscillation_period_ps": p_osc,
            }
        )
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "loss": result.loss,
        "beta2_ps2_per_km": result.params.beta2_ps2_per_km,
        "beta2_sigma_ps2_per_km": _json_number(result.beta2_sigma_ps2_per_km),
        "rho_ps2_inv": result.params.rho_ps2_inv,
        "rho_sigma_ps2_inv": _json_number(result.rho_sigma_ps2_inv),
        "covariance_order": result.covariance_order,
        "covariance": [[_json_number(v) for v in row] for row in result.covariance.tolist()],
        "jtj_condition": _json_number(result.jtj_condition),
        "diagnostics": {
            "etas_held_at_bound": [
                result.covariance_order[2 + i] for i in result.etas_held_at_bound
            ],
            "model_passes": result.model_passes,
        },
        "datasets": per_dataset,
    }


def _cmd_fwhm(args):
    curve = dio.read_dataset(args.infile).curve
    try:
        res = extract_fwhm(curve)
    except ValueError as exc:
        raise ValueError(f"{args.infile}: {exc}") from None
    dio.write_json_object(args.out, res._asdict())
    print(f"wrote {args.out}")
    return 0


def _cmd_osc_period(args):
    window_ps, rho_p, _ = _model_inputs(args)
    period = oscillation_period(args.rho, rho_p, window_ps)
    print(json.dumps({"oscillation_period_ps": _json_number(period)}))
    return 0


def _add_model_flags(parser, with_eta=True):
    parser.add_argument("--rho", type=float, required=True, help="spectral scale rho (ps^-2)")
    parser.add_argument("--beta2", type=float, required=True, help="fiber dispersion (ps^2/km)")
    parser.add_argument("--length-km", type=float, required=True, help="fiber length (km)")
    parser.add_argument(
        "--window-ns", type=float, required=True,
        help="coincidence window half-width T of [-T, T] (ns)",
    )
    if with_eta:
        parser.add_argument("--eta", type=float, default=0.5, help="splitter reflectivity")
        parser.add_argument("--tau-min-ps", type=float, required=True)
        parser.add_argument("--tau-max-ps", type=float, required=True)
        parser.add_argument("--points", type=int, default=201)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disphom",
        description="Windowed Hong-Ou-Mandel coincidence model for dispersed photon pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a closed-form coincidence curve")
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="write the quadrature curve and its deviation from the closed form")
    _add_model_flags(p)
    p.add_argument("--rel-tol", type=float, default=1e-9, help="bound on each window "
                   "integral's error estimate, relative to the integral (or 1e-12 absolute); "
                   "in (0, 1)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("derive-source", help="crystal/filter to spectral scales (both filter conventions)")
    p.add_argument("--config", required=True, help="JSON with source and filter blocks")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_derive_source)

    p = sub.add_parser("gen", help="generate a synthetic Poisson campaign")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="global fit of all datasets in a directory",
                       description="Global fit of all datasets in a directory.  The data see "
                       "beta2 only through (L beta2 rho)^2, so they do not determine its sign: "
                       "the fit prints |beta2|, and the report's beta2_ps2_per_km is |beta2|.")
    p.add_argument("--data-dir", required=True)
    p.add_argument(
        "--init",
        default=None,
        help="JSON object with the starting beta2_ps2_per_km and rho_ps2_inv "
        "(defaults 20 and 10); etas are solved per dataset, so an eta or etas key "
        "is not read, and any other key is an error",
    )
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fwhm", help="dip width of a stored curve")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fwhm)

    p = sub.add_parser("osc-period", help="predicted side-lobe period")
    _add_model_flags(p, with_eta=False)
    p.set_defaults(func=_cmd_osc_period)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
