"""Command-line interface: subcommands, file contracts, exit codes."""

import json

import numpy as np
import pytest

from disphom import CampaignConfig, Dataset, HomCurve, read_dataset, write_dataset
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


def test_osc_period_subcommand(capsys):
    rc = run(
        ["osc-period", "--rho", "14.53", "--beta2", "21.39", "--length-km", "10",
         "--window-ns", "0.4"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["oscillation_period_ps"] == pytest.approx(3.3599336908529556, rel=1e-9)




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
    assert held and not report["diagnostics"]["covariance_pseudo_inverse"]
    # the start and at least one trial point per iteration, one model pass each
    assert report["diagnostics"]["model_passes"] >= 1 + report["iterations"]
    order = report["covariance_order"]
    for name in held:
        assert report["datasets"][order.index(name) - 2]["eta"] == 0.5
        assert not any(report["covariance"][order.index(name)])


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
], ids=["init-list", "init-null-rho", "sidecar-number", "sidecar-null-window",
        "campaign-fractional-tau-points", "campaign-fractional-seed", "campaign-string-seed",
        "campaign-unknown-key"])
def test_malformed_json_input_is_clean_error(tmp_path, capsys, make_args, key):
    args, name = make_args(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert key is None or key in err
    assert "Traceback" not in err
