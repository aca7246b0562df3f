"""Command-line interface: subcommands, file contracts, exit codes."""

import json

import numpy as np
import pytest

from disphom import (
    CampaignConfig, Dataset, HomCurve, QuadratureError, cli, read_dataset, write_dataset,
)
from disphom.cli import main
from conftest import BETA2_REF, DN_ENGINEERED, RHO_REF, small_campaign


def run(args):
    return main(list(args))


def source_config(tmp_path):
    path = tmp_path / "source.json"
    path.write_text(
        json.dumps(
            {
                "source": {
                    "delta_ng_signal": 0.0471,
                    "delta_ng_idler": -0.0415,
                    "crystal_length_mm": 2.0,
                    "pump_wavelength_nm": 775.0,
                    "pump_sigma_radps": 2.0,
                    "poling_period_um": 46.2,
                },
                "filter": {"center_wavelength_nm": 1550.0, "fwhm_nm": 12.0},
            }
        )
    )
    return path


def campaign_config(tmp_path, **overrides):
    config = small_campaign(**overrides)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config.to_json_dict(), indent=2))
    return path


def test_simulate_balanced_minimum_at_zero(tmp_path):
    out = tmp_path / "sim.csv"
    rc = run(
        [
            "simulate", "--rho", "14.53", "--beta2", "21.39", "--length-km", "10",
            "--window-ns", "0.4", "--eta", "0.5", "--tau-min-ps", "-600",
            "--tau-max-ps", "600", "--points", "201", "--out", str(out),
        ]
    )
    assert rc == 0
    ds = read_dataset(out)
    center = int(np.argmin(np.abs(ds.curve.tau_ps)))
    assert abs(ds.curve.values[center]) <= 1e-12
    assert ds.curve.values.min() >= 0.0


def test_simulate_deterministic_bytes(tmp_path):
    args = [
        "simulate", "--rho", "14.53", "--beta2", "21.39", "--length-km", "10",
        "--window-ns", "0.4", "--eta", "0.45", "--tau-min-ps", "-500",
        "--tau-max-ps", "500", "--points", "101",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_subcommand_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    rc = run(
        [
            "oracle", "--rho", "14.53", "--beta2", "21.39", "--length-km", "10",
            "--window-ns", "0.4", "--eta", "0.5", "--tau-min-ps", "-600",
            "--tau-max-ps", "600", "--points", "41", "--rel-tol", "1e-9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    deviation = float(stdout.split("max_scale_matched_relative_deviation=")[1].split()[0])
    assert deviation <= 1e-6
    assert out.exists()


def test_oracle_nonconvergence_is_clean_error(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise QuadratureError("quadrature did not converge", 0.5, 1e-3)

    monkeypatch.setattr(cli, "windowed_rate_numeric", refuse)
    flags = [f"{k}={v}" for k, v in _MODEL_FLAGS.items()]
    out = tmp_path / "x.csv"
    assert run(["oracle", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature did not converge")
    assert "Traceback" not in err
    assert not out.exists()


_MODEL_FLAGS = {
    "--rho": "14.53", "--beta2": "21.39", "--length-km": "10", "--window-ns": "0.4",
    "--tau-min-ps": "-600", "--tau-max-ps": "600", "--points": "11",
}


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("flag, value", [
    ("--window-ns", "inf"), ("--tau-max-ps", "inf"), ("--tau-min-ps", "-inf"),
    ("--beta2", "nan"), ("--length-km", "inf"), ("--rho", "inf"),
])
def test_non_finite_model_flag_is_clean_error(tmp_path, capsys, command, flag, value):
    # the oracle refined forever on such inputs: NaN integrands never converge
    flags = {**_MODEL_FLAGS, flag: value}
    out = tmp_path / "x.csv"
    assert run([command, *(f"{k}={v}" for k, v in flags.items()), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_derive_source_both_conventions(tmp_path):
    out = tmp_path / "derived.json"
    rc = run(["derive-source", "--config", str(source_config(tmp_path)), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["intensity"]["s_ps2_inv"] == pytest.approx(
        2.0 * report["field"]["s_ps2_inv"], rel=1e-12
    )
    assert report["epm_mismatch"] == pytest.approx(0.1188959660, rel=1e-8)
    # every numeric key is unit-suffixed or dimensionless by construction
    for block in ("field", "intensity"):
        for key in report[block]:
            assert key.endswith(("_ps_per_mm", "_radps", "_ps2_inv")) or key.startswith(
                "gamma_tilde"
            )


def test_derive_source_is_strict_json_at_the_epm_limit(tmp_path):
    # the reference source meets extended phase matching exactly: sigma_pm
    # and the gamma_tilde are infinite and must be written as null
    config = tmp_path / "source.json"
    config.write_text(json.dumps({"source": small_campaign().to_json_dict()["source"],
                                  "filter": {"center_wavelength_nm": 1550.0, "fwhm_nm": 12.0}}))
    out = tmp_path / "derived.json"
    assert run(["derive-source", "--config", str(config), "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"derive-source wrote {constant}, which is not JSON")

    report = json.loads(out.read_text(), parse_constant=refuse)
    for block in ("field", "intensity"):
        assert report[block]["sigma_pm_radps"] is None
        assert report[block]["gamma_tilde_signal"] is None
        assert report[block]["gamma_tilde_idler"] is None
        assert report[block]["rho_ps2_inv"] > 0
    assert report["field"]["rho_ps2_inv"] == pytest.approx(RHO_REF, rel=1e-12)


def test_gen_fit_end_to_end(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = run(["gen", "--config", str(campaign_config(tmp_path, seed=2024)), "--out-dir", str(data_dir)])
    assert rc == 0
    csvs = sorted(data_dir.glob("*.csv"))
    assert len(csvs) == 6
    assert (data_dir / "campaign.json").exists()

    init = tmp_path / "init.json"
    init.write_text(
        json.dumps({"beta2_ps2_per_km": BETA2_REF, "rho_ps2_inv": RHO_REF, "eta": 0.52})
    )
    report_path = tmp_path / "report.json"
    rc = run(
        ["fit", "--data-dir", str(data_dir), "--init", str(init), "--report", str(report_path)]
    )
    assert rc == 0  # converged
    report = json.loads(report_path.read_text())
    assert report["converged"] is True
    assert abs(report["beta2_ps2_per_km"] - BETA2_REF) <= 3.0 * report["beta2_sigma_ps2_per_km"]
    assert abs(report["rho_ps2_inv"] - RHO_REF) <= 3.0 * report["rho_sigma_ps2_inv"]
    for entry in report["datasets"]:
        assert len(entry["file_sha256"]) == 64
        assert entry["predicted_oscillation_period_ps"] > 0
        assert entry["window_half_width_ns"] in (0.4, 0.8)


def test_gen_campaign_echo_loads_and_round_trips(tmp_path):
    # gen's campaign.json carries the extra key derived_rho_ps2_inv
    config = small_campaign(seed=3)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config.to_json_dict()))
    assert run(["gen", "--config", str(path), "--out-dir", str(tmp_path / "data")]) == 0
    echo_path = tmp_path / "data" / "campaign.json"
    assert "derived_rho_ps2_inv" in json.loads(echo_path.read_text())
    back = CampaignConfig.from_json(echo_path)
    assert back == config
    assert back.to_json_dict() == config.to_json_dict()


def test_gen_deterministic_bytes(tmp_path):
    config = campaign_config(tmp_path, seed=5)
    dirs = [tmp_path / "d1", tmp_path / "d2"]
    for d in dirs:
        assert run(["gen", "--config", str(config), "--out-dir", str(d)]) == 0
    for name in sorted(p.name for p in dirs[0].iterdir()):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("windows_ns", [[0.4, 0.4], [0.4, 0.4000001]], ids=["duplicate", "same-to-6-digits"])
def test_gen_rejects_shared_labels_before_writing(tmp_path, capsys, windows_ns):
    echo = small_campaign().to_json_dict()
    echo["windows_ns"] = windows_ns
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(echo))
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", str(path), "--out-dir", str(data_dir)]) == 2
    err = capsys.readouterr().err
    assert "campaign.json" in err and "'T0.4ns_L1km'" in err
    assert not data_dir.exists()


def test_gen_zero_model_curve_names_dataset(tmp_path, capsys):
    config = campaign_config(tmp_path, windows_ns=[0.4], fiber_lengths_km=[10.0],
                             tau_min_ps=1e7, tau_max_ps=2e7)
    assert run(["gen", "--config", str(config), "--out-dir", str(tmp_path / "data")]) == 2
    assert "T0.4ns_L10km" in capsys.readouterr().err


def test_fwhm_subcommand(tmp_path):
    curve = tmp_path / "dip.csv"
    rc = run(
        [
            "simulate", "--rho", "14.53", "--beta2", "0", "--length-km", "0",
            "--window-ns", "5", "--eta", "0.5", "--tau-min-ps", "-5",
            "--tau-max-ps", "5", "--points", "2001", "--out", str(curve),
        ]
    )
    assert rc == 0
    out = tmp_path / "fwhm.json"
    assert run(["fwhm", "--in", str(curve), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fwhm_ps"] == pytest.approx(0.617767300869324, rel=1e-3)


def test_fwhm_without_dip_names_file(tmp_path, capsys):
    # at L = 0 the dip is ~0.6 ps wide against a 6 ps grid step, and the
    # counts are exactly 0 beyond |tau| ~ T: the minimum is the first sample
    config = campaign_config(tmp_path, fiber_lengths_km=[0.0], windows_ns=[0.4])
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", str(config), "--out-dir", str(data_dir)]) == 0
    csv = data_dir / "ds_T0.4ns_L0km.csv"
    assert run(["fwhm", "--in", str(csv), "--out", str(tmp_path / "w.json")]) == 2
    err = capsys.readouterr().err
    assert "ds_T0.4ns_L0km.csv: no dip found" in err


@pytest.mark.parametrize(
    "length_km, window_ns, expected",
    [("10", "0.4", pytest.approx(3.3599336908529556, rel=1e-9)),
     # a period past the double range is written as null, never as Infinity
     ("1e10", "1e-300", None)],
    ids=["finite", "past-double-range"],
)
def test_osc_period_subcommand(capsys, length_km, window_ns, expected):
    rc = run(
        ["osc-period", "--rho", "14.53", "--beta2", "21.39", "--length-km", length_km,
         "--window-ns", window_ns]
    )
    assert rc == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1], parse_constant=refuse)
    assert out["oscillation_period_ps"] == expected




def test_fit_without_datasets_is_clean_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run(["fit", "--data-dir", str(empty), "--report", str(tmp_path / "r.json")])
    assert rc != 0
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--does-not-exist", "1"])
    assert exc.value.code != 0


def test_fit_report_keys_unit_suffixed(tmp_path):
    data_dir = tmp_path / "data"
    run(["gen", "--config", str(campaign_config(tmp_path, seed=8, windows_ns=[0.4],
                                                 fiber_lengths_km=[10.0])),
         "--out-dir", str(data_dir)])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"beta2_ps2_per_km": BETA2_REF, "rho_ps2_inv": RHO_REF,
                                "eta": 0.52}))
    report_path = tmp_path / "report.json"
    run(["fit", "--data-dir", str(data_dir), "--init", str(init), "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    dimensioned = [k for k in report if isinstance(report[k], (int, float)) and k not in
                   ("converged", "iterations", "loss", "jtj_condition")]
    for key in dimensioned:
        assert key.endswith(("_ps2_per_km", "_ps2_inv")), key


def test_fit_reports_etas_held_at_bound(tmp_path):
    data_dir = tmp_path / "data"
    run(["gen", "--config", str(campaign_config(tmp_path, seed=8, etas=0.5)),
         "--out-dir", str(data_dir)])
    init = tmp_path / "init.json"
    # an eta entry is ignored, whatever its length: the fit solves every eta
    init.write_text(json.dumps({"beta2_ps2_per_km": BETA2_REF, "rho_ps2_inv": RHO_REF,
                                "eta": [0.6]}))
    report_path = tmp_path / "report.json"
    assert run(["fit", "--data-dir", str(data_dir), "--init", str(init),
                "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    held = report["diagnostics"]["etas_held_at_bound"]
    assert held
    # the start and at least one trial point per iteration, one model pass each
    assert report["diagnostics"]["model_passes"] >= 1 + report["iterations"]
    order = report["covariance_order"]
    for name in held:
        assert report["datasets"][order.index(name) - 2]["eta"] == 0.5
        assert not any(report["covariance"][order.index(name)])


def test_fit_report_at_zero_length(tmp_path):
    # at L = 0, rho' = rho: no side lobes are predicted and no width is measured
    config = campaign_config(tmp_path, seed=3, fiber_lengths_km=[0.0, 10.0], windows_ns=[0.4])
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", str(config), "--out-dir", str(data_dir)]) == 0
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"beta2_ps2_per_km": BETA2_REF, "rho_ps2_inv": RHO_REF}))
    report_path = tmp_path / "report.json"
    assert run(["fit", "--data-dir", str(data_dir), "--init", str(init),
                "--report", str(report_path)]) == 0
    entries = {e["fiber_length_km"]: e for e in json.loads(report_path.read_text())["datasets"]}
    assert entries[0.0]["predicted_oscillation_period_ps"] is None
    assert entries[0.0]["fwhm_ps"] is None
    assert entries[10.0]["predicted_oscillation_period_ps"] > 0
    assert entries[10.0]["fwhm_ps"] > 0


def test_fit_report_is_strict_json_when_beta2_is_unidentifiable(tmp_path):
    # at L = 0 alone no data point moves with beta2: its sigma is infinite,
    # and the report writes that, like every non-finite number, as null
    config = campaign_config(tmp_path, seed=3, fiber_lengths_km=[0.0], windows_ns=[0.4],
                             tau_min_ps=-3.0, tau_max_ps=3.0, tau_points=301)
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", str(config), "--out-dir", str(data_dir)]) == 0
    report_path = tmp_path / "report.json"
    assert run(["fit", "--data-dir", str(data_dir), "--report", str(report_path)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(report_path.read_text(), parse_constant=refuse)
    assert report["beta2_sigma_ps2_per_km"] is None
    # the condition number is that of the parameters the data see, without beta2
    assert 1 <= report["jtj_condition"] < float("inf")
    assert 0 < report["rho_sigma_ps2_inv"] < float("inf")


def _simulate_into_missing_dir(tmp_path):
    out = str(tmp_path / "missing" / "sim.csv")
    return ["simulate", "--rho", "14.53", "--beta2", "21.39", "--length-km", "10",
            "--window-ns", "0.4", "--tau-min-ps", "-600", "--tau-max-ps", "600",
            "--out", out], out


def _fwhm_into_missing_dir(tmp_path):
    curve = tmp_path / "dip.csv"
    assert run(["simulate", "--rho", "14.53", "--beta2", "0", "--length-km", "0",
                "--window-ns", "5", "--tau-min-ps", "-5", "--tau-max-ps", "5",
                "--points", "2001", "--out", str(curve)]) == 0
    out = str(tmp_path / "missing" / "fwhm.json")
    return ["fwhm", "--in", str(curve), "--out", out], out


def _derive_source_into_missing_dir(tmp_path):
    out = str(tmp_path / "missing" / "source.json")
    return ["derive-source", "--config", str(source_config(tmp_path)), "--out", out], out


def _fit_report_into_missing_dir(tmp_path):
    config = campaign_config(tmp_path, seed=8, windows_ns=[0.4], fiber_lengths_km=[10.0])
    data_dir = tmp_path / "data"
    assert run(["gen", "--config", str(config), "--out-dir", str(data_dir)]) == 0
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"beta2_ps2_per_km": BETA2_REF, "rho_ps2_inv": RHO_REF}))
    out = str(tmp_path / "missing" / "report.json")
    return ["fit", "--data-dir", str(data_dir), "--init", str(init), "--report", out], out


def _gen_into_existing_file(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["gen", "--config", str(campaign_config(tmp_path)), "--out-dir", str(taken)], str(taken)


@pytest.mark.parametrize("make_args", [
    _simulate_into_missing_dir, _fwhm_into_missing_dir, _derive_source_into_missing_dir,
    _fit_report_into_missing_dir, _gen_into_existing_file,
], ids=["simulate", "fwhm", "derive-source", "fit-report", "gen-out-dir-is-file"])
def test_unwritable_output_is_clean_error(tmp_path, capsys, make_args):
    args, path = make_args(tmp_path)
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and "cannot write" in err
    assert "Traceback" not in err


def _dataset_dir(tmp_path, meta=None):
    """A directory holding one small valid dataset, optionally with another sidecar."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    taus = np.linspace(-600.0, 600.0, 41)
    write_dataset(Dataset(HomCurve(taus, 1.0 + taus**2), 400.0, 10.0, "x"), data_dir / "x.csv")
    if meta is not None:
        (data_dir / "x.meta.json").write_text(meta)
    return data_dir


def _fwhm_of_missing_file(tmp_path):
    return ["fwhm", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.json")], \
        "nope.csv"


def _fit_with_directory_named_csv(tmp_path):
    data_dir = _dataset_dir(tmp_path)
    (data_dir / "y.csv").mkdir()
    return ["fit", "--data-dir", str(data_dir), "--report", str(tmp_path / "r.json")], "y.csv"


def _fwhm_of_non_utf8_csv(tmp_path):
    data_dir = _dataset_dir(tmp_path)
    (data_dir / "x.csv").write_bytes(b"tau_ps,counts\n0.0,1\n1.0,\xff2\n")
    return ["fwhm", "--in", str(data_dir / "x.csv"), "--out", str(tmp_path / "w.json")], "x.csv"


@pytest.mark.parametrize("make_args", [
    _fwhm_of_missing_file, _fit_with_directory_named_csv, _fwhm_of_non_utf8_csv,
], ids=["missing-file", "directory-named-csv", "non-utf8-csv"])
def test_unreadable_path_is_clean_error(tmp_path, capsys, make_args):
    args, name = make_args(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "cannot read" in err
    assert "Traceback" not in err


def _fit_with_init(tmp_path, text):
    (tmp_path / "init.json").write_text(text)
    return ["fit", "--data-dir", str(_dataset_dir(tmp_path)), "--init",
            str(tmp_path / "init.json"), "--report", str(tmp_path / "r.json")], "init.json"


def _fwhm_with_sidecar(tmp_path, text):
    data_dir = _dataset_dir(tmp_path, meta=text)
    return ["fwhm", "--in", str(data_dir / "x.csv"), "--out", str(tmp_path / "w.json")], \
        "x.meta.json"


def _gen_with(tmp_path, **fields):
    path = campaign_config(tmp_path)
    config = json.loads(path.read_text())
    config.update(fields)
    path.write_text(json.dumps(config))
    return ["gen", "--config", str(path), "--out-dir", str(tmp_path / "out")], "campaign.json"


@pytest.mark.parametrize("make_args, key", [
    (lambda tmp: _fit_with_init(tmp, "[1, 2]"), None),
    (lambda tmp: _fit_with_init(tmp, '{"rho_ps2_inv": null}'), "rho_ps2_inv"),
    (lambda tmp: _fwhm_with_sidecar(tmp, "5"), None),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": null, "fiber_length_km": 10.0, "label": "x"}'),
     "window_half_width_ns"),
    (lambda tmp: _gen_with(tmp, tau_points=7.5), "tau_points"),
    (lambda tmp: _gen_with(tmp, seed=7.5), "seed"),
    (lambda tmp: _gen_with(tmp, seed="abc"), "seed"),
    (lambda tmp: _gen_with(tmp, peak_count=5.0), "peak_count"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": 0.4, "fiber_length_km": NaN, "label": "x"}'),
     "fiber_length_km"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": 0.4, "fiber_length_km": Infinity, "label": "x"}'),
     "fiber_length_km"),
    (lambda tmp: _fit_with_init(tmp, '{"beta2_ps2_per_km": NaN}'), "beta2_ps2_per_km"),
    (lambda tmp: _gen_with(tmp, fiber_lengths_km=[float("nan")]), "fiber_lengths_km"),
    (lambda tmp: _gen_with(tmp, seed=True), "seed"),
    (lambda tmp: _gen_with(tmp, etas=True), "etas"),
    (lambda tmp: _gen_with(tmp, etas=[True, 0.5, 0.5, 0.5, 0.5, False]), "etas"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": Infinity, "fiber_length_km": 10.0, "label": "x"}'),
     "window_half_width_ns"),
    (lambda tmp: _gen_with(tmp, peak_counts=1e19), "peak_counts"),
    (lambda tmp: _gen_with(tmp, beta2_ps2_per_km="21.39"), "beta2_ps2_per_km"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": 0.4, "fiber_length_km": "10.0", "label": "x"}'),
     "fiber_length_km"),
    (lambda tmp: _fit_with_init(tmp, '{"rho_ps2_inv": "14.53"}'), "rho_ps2_inv"),
    (lambda tmp: _fit_with_init(tmp, '{"beta2_ps2_per_km": 60, "rho_ps2_inv_typo": 30}'),
     "rho_ps2_inv_typo"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": 0.4, "fiber_length_km": 10.0, "label": "x", '
             '"jitter_ps": 20}'),
     "jitter_ps"),
    (lambda tmp: _fwhm_with_sidecar(
        tmp, '{"window_half_width_ns": 0.4, "fiber_length_km": 10.0, "label": null}'),
     "label"),
], ids=["init-list", "init-null-rho", "sidecar-number", "sidecar-null-window",
        "campaign-fractional-tau-points", "campaign-fractional-seed", "campaign-string-seed",
        "campaign-unknown-key", "sidecar-nan-length", "sidecar-infinite-length", "init-nan-beta2",
        "campaign-nan-length", "campaign-boolean-seed", "campaign-boolean-etas",
        "campaign-boolean-eta-element", "sidecar-infinite-window", "campaign-huge-peak-counts",
        "campaign-string-beta2", "sidecar-string-length", "init-string-rho",
        "init-unknown-key", "sidecar-unknown-key", "sidecar-null-label"])
def test_malformed_json_input_is_clean_error(tmp_path, capsys, make_args, key):
    args, name = make_args(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert key is None or key in err
    assert "Traceback" not in err
