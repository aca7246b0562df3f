"""Dataset files, campaign configs, and the seeded Poisson generator."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disphom import (
    CampaignConfig,
    ChannelParams,
    Dataset,
    DatasetFormatError,
    FitParams,
    HomCurve,
    broadened_rho,
    coincidence_curve,
    eta_prime,
    generate_synthetic,
    lm_fit,
    poisson_counts,
    read_dataset,
    write_dataset,
)
from disphom import io as dio
from conftest import BETA2_REF, RHO_REF, small_campaign


def random_dataset(rng, n=37):
    taus = np.sort(rng.uniform(-500, 500, n))
    while not (np.diff(taus) > 0).all():
        taus = np.sort(rng.uniform(-500, 500, n))
    values = rng.uniform(0, 1e4, n)
    values[rng.integers(0, n)] = 0.0  # zeros are legal
    return Dataset(HomCurve(taus, values), 400.0, 10.0, label="random")


def test_round_trip(tmp_path, rng):
    ds = random_dataset(rng)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.curve.tau_ps, ds.curve.tau_ps)
    assert np.array_equal(back.curve.values, ds.curve.values)
    assert back.window_half_width_ps == ds.window_half_width_ps
    assert back.fiber_length_km == ds.fiber_length_km
    assert back.label == ds.label


def test_decimal_counts_accepted(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("tau_ps,counts\n-1.0,0.25\n0.0,0.5\n1.0,1.75\n")
    (tmp_path / "rates.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    ds = read_dataset(path)
    assert ds.curve.values[1] == 0.5


def test_comment_lines_ignored(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# provenance\ntau_ps,counts\n# mid comment\n0.0,1\n1.0,2\n")
    (tmp_path / "c.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    assert len(read_dataset(path).curve) == 2


def test_out_of_order_tau_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tau_ps,counts\n0.0,1\n2.0,1\n1.5,1\n")
    (tmp_path / "bad.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:4.*increasing"):
        read_dataset(path)


def test_negative_counts_names_line(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("tau_ps,counts\n0.0,1\n1.0,-3\n")
    (tmp_path / "neg.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    with pytest.raises(DatasetFormatError, match=r"neg\.csv:3.*negative"):
        read_dataset(path)


@pytest.mark.parametrize("data, line, reason", [
    ("0,1\n1,2,3\n", 3, "expected two columns"),
    ("0,1\n1,abc\n", 3, "non-numeric value"),
    ("0,1\n1,nan\n", 3, "non-finite value"),
    ("0,1\ninf,2\n", 3, "non-finite value"),
    ("0,1\n1,1e400\n", 3, "non-finite value"),
    ("0,1\n0,2\n", 3, "tau_ps not strictly increasing"),
    ("0,1\n1,-2\n", 3, "negative counts"),
    ("0,1\n# a comment\n1,-2\n", 4, "negative counts"),
    ("0,1\n1,-2\n2,x\n", 3, "negative counts"),
    ("0,1\n1,x\n2,-2\n", 3, "non-numeric value"),
    ("0\n1,2\n", 2, "expected two columns"),
    ("0,1,2,3\n1,2\n", 2, "expected two columns"),
    ("0,\n1,2\n", 2, "non-numeric value"),
    ("0x10,1\n1,2\n", 2, "non-numeric value"),
    # as many commas as lines, but not one per line: a single split of the
    # whole body would read (1, 2), (3, 4)
    ("1,2,3\n4\n", 2, "expected two columns"),
], ids=[
    "three-columns", "non-numeric", "nan", "inf", "overflow", "repeated-tau",
    "negative", "comment-counted", "bad-value-before-malformed",
    "malformed-before-bad-value", "first-one-column", "first-four-columns",
    "first-empty-cell", "first-hex", "commas-balanced-across-lines",
])
def test_bad_data_line_names_file_line_and_reason(tmp_path, data, line, reason):
    path = tmp_path / "lines.csv"
    path.write_text("tau_ps,counts\n" + data)
    (tmp_path / "lines.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    with pytest.raises(DatasetFormatError, match=rf"lines\.csv:{line}: {reason}$"):
        read_dataset(path)


SAMPLE = ([-1.5, 0.0, 2.25], [3.0, 0.0, 7.5])


@pytest.mark.parametrize("text, expected", [
    ("tau_ps,counts\r\n-1.5,3\r\n0,0\r\n2.25,7.5\r\n", SAMPLE),
    ("tau_ps,counts\n-1.5,3\r\n0,0\r\n2.25,7.5\r\n", SAMPLE),
    ("# run 7\ntau_ps,counts\n-1.5,3\n# gate moved\n0,0\n2.25,7.5\n", SAMPLE),
    ("\ntau_ps,counts\n\n-1.5,3\n\n0,0\n2.25,7.5\n\n\n", SAMPLE),
    (" tau_ps , counts \n -1.5 , 3 \n0,0\t\n2.25 ,7.5\n", SAMPLE),
    ("tau_ps,counts\n -1.5 , 3 \n0,0\t\n2.25 ,7.5\n", SAMPLE),
    ("tau_ps,counts\n-1.5,3\n0,0\n2.25,7.5", SAMPLE),
    ("tau_ps,counts\n-1.5,3\n0,x\n2.25,7.5\n", ":3: non-numeric value"),
    ("tau_ps,counts\r\n-1.5,3\r\n0,x\r\n", ":3: non-numeric value"),
    ("tau_ps,counts\n-1.5,3\n0,inf\n", ":3: non-finite value"),
    ("tau_ps,counts\n-1.5,3\n-1.5,0\n", ":3: tau_ps not strictly increasing"),
    ("tau_ps,counts\n-1.5,3\n0,-1", ":3: negative counts"),
    ("# run 7\ntau_ps,counts\n\n-1.5,3\n0,-1\n", ":5: negative counts"),
    # float() takes digit-group underscores and any Unicode decimal digit
    ("tau_ps,counts\n-1,1_000\n", ":2: non-numeric value"),
    ("tau_ps,counts\n-1,3\n0,\u0661\n", ":3: non-numeric value"),
    ("# \u00e9t\u00e9 run\ntau_ps,counts\n-1.5,3\n0,0\n2.25,7.5\n", SAMPLE),
    # a CR is whitespace, not a line end: lines are numbered as grep -n numbers them
    ("tau_ps,counts\r\n-1.5,3\r\n\t \r\r\n0,x\r\n", ":4: non-numeric value"),
    # so lines that end with a bare CR are one line, which is not the header
    ("tau_ps,counts\r-1.5,3\r0,0\r2.25,7.5\r",
     ":1: expected header 'tau_ps,counts', got 'tau_ps,counts\\r-1.5,3\\r0,0\\r2.25,7.5'"),
], ids=[
    "crlf", "crlf-after-lf-header", "comments", "blank-lines", "spaces-and-header-spaces",
    "spaces", "no-final-newline", "non-numeric", "crlf-non-numeric", "inf",
    "non-increasing", "negative-no-final-newline", "negative-after-comment-and-blank",
    "digit-group-underscore", "arabic-indic-digit", "non-ascii-comment",
    "whitespace-and-cr-line", "bare-cr",
])
def test_layouts_read_to_the_same_dataset_or_message(tmp_path, text, expected):
    # every layout reads to the arrays of the plain file, and a bad line is
    # named by its number in the file as written
    path = tmp_path / "layout.csv"
    path.write_bytes(text.encode("utf-8"))
    (tmp_path / "layout.meta.json").write_text(
        json.dumps({"window_half_width_ns": 0.4, "fiber_length_km": 1.0, "label": "x"})
    )
    if isinstance(expected, str):
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}{expected}"
    else:
        curve = read_dataset(path).curve
        assert curve.tau_ps.tolist() == expected[0]
        assert curve.values.tolist() == expected[1]


def reference_csv(taus, values):
    """A dataset's CSV text as a per-row loop writes it: repr of each tau, and
    of each count, an integer-valued count as an int."""
    lines = ["tau_ps,counts"]
    for tau, value in zip(taus.tolist(), values.tolist()):
        value_repr = repr(int(value)) if value.is_integer() else repr(value)
        lines.append(f"{tau!r},{value_repr}")
    return "\n".join(lines) + "\n"


@st.composite
def curve_samples(draw):
    """Strictly increasing finite delays and nonnegative counts of every kind
    the writer tells apart."""
    taus = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=1, max_size=30, unique=True)))
    counts = st.one_of(
        st.integers(0, 2**53).map(float),
        st.floats(0.0, 1e18),
        st.floats(2.0**53, 1e18),
        st.floats(0.0, 2.2250738585072014e-308),  # zero and subnormals
        st.floats(1e18, 1e300),
        st.just(-0.0),
    )
    values = draw(st.lists(counts, min_size=len(taus), max_size=len(taus)))
    return np.array(taus), np.array(values)


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sample=curve_samples())
@example(sample=(np.array([-0.0, 1.0, 2.0, 3.0, 4.0]),
                 np.array([2.0**63 - 1024, 2.0**63, 1e19, 5e-324, 0.5])))
def test_write_matches_per_row_formatter_and_reads_back_bit_for_bit(sample):
    taus, values = sample
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(Dataset(HomCurve(taus, values), 400.0, 10.0, "p"), path)
        text = path.read_bytes().decode("utf-8")
        assert text == reference_csv(taus, values)
        curve = read_dataset(path).curve
    # a count of -0.0 is written as the integer 0, which reads back as +0.0;
    # adding +0.0 maps -0.0 to +0.0 and leaves every other double as it is
    assert same_bits(curve.tau_ps, taus)
    assert same_bits(curve.values, values + 0.0)


FILLER_LINES = ["", " ", "\t ", "#", "# tau_ps,counts, re-exported", "  # indented",
                "# \u00e9t\u00e9 run, gate 5 \u00b5s"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sample=curve_samples(), data=st.data())
def test_decorated_file_reads_to_the_clean_arrays_and_names_a_corrupted_line(sample, data):
    # comment, blank and whitespace-only lines, CRLF line ends, padded cells
    # and header, and no final newline leave the arrays as the clean file
    # gives them; a corrupted data line is named by its number in the
    # decorated file, with _first_bad_line's reason
    taus, values = sample
    fillers = st.lists(st.sampled_from(FILLER_LINES), max_size=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset(Dataset(HomCurve(taus, values), 400.0, 10.0, "p"), path)
        clean = read_dataset(path).curve
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        pads = iter(data.draw(st.lists(st.text(" \t", max_size=2), min_size=4 * len(rows),
                                       max_size=4 * len(rows))))
        lines, data_linenos = [], []
        for row in rows:
            lines += data.draw(fillers)
            lines.append(",".join(next(pads) + cell + next(pads) for cell in row))
            data_linenos.append(len(lines))
        lines += data.draw(fillers)
        del data_linenos[0]  # the header's
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                                  max_size=len(lines)))
        ends[-1] = data.draw(st.sampled_from(["\n", "\r\n", ""]))

        def read(lines):
            path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
            return read_dataset(path).curve

        curve = read(lines)
        assert same_bits(curve.tau_ps, clean.tau_ps)
        assert same_bits(curve.values, clean.values)

        k = data.draw(st.integers(0, len(data_linenos) - 1))
        tau, count = rows[1 + k]
        corruptions = [
            (f"{tau},{count},1", "expected two columns"),
            (f"{tau},abc", "non-numeric value"),
            (f"{tau},1_000", "non-numeric value"),
            (f"{tau},-1", "negative counts"),
        ]
        if k > 0:
            corruptions.append((f"{rows[k][0]},{count}", "tau_ps not strictly increasing"))
        corrupted, reason = data.draw(st.sampled_from(corruptions))
        lineno = data_linenos[k]
        with pytest.raises(DatasetFormatError) as info:
            read(lines[:lineno - 1] + [corrupted] + lines[lineno:])
        assert str(info.value) == f"{path}:{lineno}: {reason}"


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("tau,counts\n0.0,1\n")
    with pytest.raises(DatasetFormatError, match="tau_ps,counts"):
        read_dataset(path)


@pytest.mark.parametrize("text", [
    "tau_ps,counts\n", "# run 7\ntau_ps,counts\n# no bins kept\n\n",
], ids=["header-only", "header-and-comments"])
def test_header_without_data_lines_names_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match=r"empty\.csv: no data lines"):
        read_dataset(path)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "lonely.csv"
    path.write_text("tau_ps,counts\n0.0,1\n1.0,2\n")
    with pytest.raises(DatasetFormatError, match="sidecar"):
        read_dataset(path)


def test_missing_sidecar_key(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("tau_ps,counts\n0.0,1\n1.0,2\n")
    (tmp_path / "k.meta.json").write_text(json.dumps({"fiber_length_km": 1.0, "label": "x"}))
    with pytest.raises(DatasetFormatError, match="window_half_width_ns"):
        read_dataset(path)


# --- Poisson sampler -----------------------------------------------------------

def test_poisson_deterministic():
    a = poisson_counts(np.full(500, 17.3), 777)
    b = poisson_counts(np.full(500, 17.3), 777)
    assert np.array_equal(a, b)
    c = poisson_counts(np.full(500, 17.3), 778)
    assert not np.array_equal(a, c)


def test_poisson_zero_mean():
    assert (poisson_counts(np.zeros(10), 1) == 0).all()


@pytest.mark.parametrize("lam", [0.3, 5.0, 9.9, 10.1, 29.9, 30.1, 2000.0])
def test_poisson_moments(lam):
    n = 60000 if lam < 100 else 20000
    draws = poisson_counts(np.full(n, lam), 424242)
    # mean and variance of a Poisson law are both lam; allow 6 standard
    # errors on each estimate
    se_mean = math.sqrt(lam / n)
    assert abs(draws.mean() - lam) <= 6 * se_mean
    assert abs(draws.var() / lam - 1.0) <= 0.1


def test_poisson_rejects_bad_means():
    with pytest.raises(ValueError):
        poisson_counts(np.array([-1.0]), 1)


# --- synthetic campaigns ----------------------------------------------------------

def test_generate_synthetic_deterministic(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        out.mkdir()
        datasets, _ = generate_synthetic(small_campaign(seed=11))
        blob = b""
        for ds in datasets:
            path = out / f"{ds.label}.csv"
            write_dataset(ds, path)
            blob += path.read_bytes() + (out / f"{ds.label}.meta.json").read_bytes()
        digests.append(blob)
    assert digests[0] == digests[1]


def test_generate_synthetic_seed_changes_output():
    a, _ = generate_synthetic(small_campaign(seed=1))
    b, _ = generate_synthetic(small_campaign(seed=2))
    assert not np.array_equal(a[0].curve.values, b[0].curve.values)


def test_generate_synthetic_rho_and_shape():
    config = small_campaign()
    datasets, rho = generate_synthetic(config)
    assert rho == pytest.approx(RHO_REF, rel=1e-12)
    assert len(datasets) == len(config.windows_ns) * len(config.fiber_lengths_km)
    for ds in datasets:
        assert len(ds.curve) == config.tau_points
        assert ds.curve.values.max() <= 5.0 * config.peak_counts


@pytest.mark.parametrize("overrides", [
    dict(fiber_lengths_km=[0.0, 10.0, 20.0], etas=[0.5, 0.52, 0.6, 0.7, 1.0, 0.0]),
    dict(tau_min_ps=-500.0, tau_max_ps=700.0, tau_points=64),
], ids=["mirrored", "asymmetric"])
def test_generate_synthetic_means_equal_per_dataset_curves(monkeypatch, overrides):
    # the whole campaign is one stacked model pass, evaluated element by
    # element: each dataset's Poisson means are those of its own
    # coincidence_curve, bit for bit, drawn with its own key
    config = small_campaign(**overrides)
    drawn = []

    def recorded(means, key):
        drawn.append((means, key))
        return poisson_counts(means, key)

    monkeypatch.setattr(dio, "poisson_counts", recorded)
    datasets, rho = generate_synthetic(config)
    assert len(drawn) == len(datasets) == 6
    for index, (ds, (means, key)) in enumerate(zip(datasets, drawn)):
        rho_p = broadened_rho(rho, ChannelParams(ds.fiber_length_km, config.beta2_ps2_per_km))
        curve = coincidence_curve(ds.curve.tau_ps, rho, rho_p, eta_prime(config.etas[index]),
                                  ds.window_half_width_ps).values
        assert np.array_equal(means, curve / curve.max() * config.peak_counts)
        assert key == (config.seed * 0x9E3779B97F4A7C15 + index) % 2**64


def test_generate_synthetic_names_the_first_all_zero_dataset(monkeypatch):
    # far outside a 0.4 ns window the model is exactly 0, inside a 1 us
    # window it is not; the error names the first zero dataset, and no
    # counts are drawn before it is raised
    config = small_campaign(windows_ns=[1000.0, 0.4], fiber_lengths_km=[10.0, 20.0],
                            tau_min_ps=1e5, tau_max_ps=2e5)

    def refused(means, key):
        raise AssertionError("counts drawn before the zero curve was named")

    monkeypatch.setattr(dio, "poisson_counts", refused)
    with pytest.raises(ValueError, match=r"^dataset T0\.4ns_L10km: the model curve is zero"):
        generate_synthetic(config)


@pytest.mark.parametrize("overrides", [
    dict(windows_ns=[0.794], tau_points=401),
    dict(windows_ns=[0.794], tau_points=400),
    dict(tau_min_ps=-1191.0, tau_max_ps=1191.0, tau_points=201),
], ids=["default-range-odd", "default-range-even", "given-range"])
def test_generate_synthetic_grids_pair_every_delay(overrides):
    # neither 1.5 x 794 ps nor 1191 ps rounds well enough for np.linspace to
    # pair its +-tau; each grid is mirror-exact, so the fit's fold keeps one
    # point per |tau|
    config = small_campaign(fiber_lengths_km=[10.0], **overrides)
    datasets, _ = generate_synthetic(config)
    for ds in datasets:
        taus = ds.curve.tau_ps
        assert np.array_equal(taus, -taus[::-1])
        assert np.unique(np.abs(taus)).size == (config.tau_points + 1) // 2


def test_generate_synthetic_balanced_dip_survives_noise():
    config = small_campaign(etas=0.5, seed=33, windows_ns=[0.4],
                            fiber_lengths_km=[10.0], tau_points=201)
    datasets, _ = generate_synthetic(config)
    values = datasets[0].curve.values
    assert values.min() < 0.05 * values.max()


def test_recovery_improves_with_counts():
    def misfit(peak, seed):
        config = small_campaign(peak_counts=peak, seed=seed,
                                windows_ns=[0.4, 0.8], fiber_lengths_km=[4.0, 10.0, 22.0])
        datasets, rho = generate_synthetic(config)
        init = FitParams(BETA2_REF, rho, [0.52] * len(datasets))
        result = lm_fit(datasets, init)
        assert result.converged
        return abs(result.params.beta2_ps2_per_km - BETA2_REF)

    low = np.median([misfit(1e2, s) for s in (1, 2, 3)])
    high = np.median([misfit(1e6, s) for s in (1, 2, 3)])
    assert high < low


def test_campaign_config_json_round_trip(tmp_path):
    config = small_campaign()
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config.to_json_dict(), indent=2))
    back = CampaignConfig.from_json(path)
    assert back.to_json_dict() == config.to_json_dict()


def test_campaign_config_validation():
    with pytest.raises(ValueError, match="one eta per dataset"):
        small_campaign(etas=[0.5, 0.5])
    with pytest.raises(ValueError, match="windows"):
        small_campaign(windows_ns=[-0.4])
    with pytest.raises(ValueError, match="tau_min_ps"):
        small_campaign(tau_min_ps=-100.0)
