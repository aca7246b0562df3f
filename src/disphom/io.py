"""Dataset serialization, campaign configuration, and synthetic generation.

Datasets are CSV files with the exact header ``tau_ps,counts`` (lines starting
with ``#`` are comments) plus a ``<name>.meta.json`` sidecar, whose keys
_Sidecar documents.  Counts may be non-integer (rates are allowed);
model.HomCurve alone decides what a valid curve is.  write_dataset builds a
file's text with C-level map and join.  read_dataset converts every layout
(CRLF line ends, comments, blank lines, padded cells) in one whole-text pass
and one numpy conversion; the line walk runs only when that conversion or
HomCurve has refused the file, to name the bad line.  Every JSON input
(sidecars, campaign and source configs, fit starts) is read by
read_json_object, and dataclasses are built from it field by field by
from_json_fields; every JSON output is written by write_json_object.
Synthetic campaigns draw Poisson counts with numpy's sampler
(Generator.poisson) on a counter-based Philox stream keyed by the campaign
seed and the dataset index, so the output is fixed per seed for a given
numpy version: identical configurations produce identical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import re
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .model import (
    ChannelParams,
    Dataset,
    FilterParams,
    HomCurve,
    SourceParams,
    broadened_rho,
    coincidence_parts,
    delay_grid,
    derive_spectral,
    eta_prime,
)


class DatasetFormatError(ValueError):
    """A dataset file or sidecar violates the on-disk contract."""


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _read_text(path) -> str:
    """A file's UTF-8 text, its line ends as they are; errors name the file.

    No newline translation: a line ends only at LF, and a CR is whitespace,
    so lines are numbered as grep -n and sed number them."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DatasetFormatError(
            f"{path}: cannot read (not UTF-8 text: byte {exc.start} is {byte:#04x})"
        ) from None


def _write_text(path, text) -> None:
    """Write UTF-8 text to a file; errors name the file."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot write ({exc.strerror})") from None


def read_json_object(path) -> dict:
    """The JSON object in a file; errors name the file."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def write_json_object(path, data) -> None:
    """Write data as sorted, 2-space-indented UTF-8 JSON with a trailing newline."""
    _write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _number(data, key, path) -> float:
    """data[key] as a float.  Only a JSON number is one: not a string, not a
    boolean and not NaN; infinities are."""
    value = data[key]
    is_number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not is_number or math.isnan(value):
        raise DatasetFormatError(f"{path}: '{key}' must be a number, got {value!r}")
    return float(value)


def _refuse_unknown_keys(data, known, path) -> None:
    """An error naming the file and every key of data that is not in known."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise DatasetFormatError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _finite(value) -> bool:
    """Whether a JSON value is a finite number; booleans are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# a dataclass's hints, evaluated from its string annotations once per class
_type_hints = functools.cache(typing.get_type_hints)


def from_json_fields(cls, data: dict, path, key=None):
    """An instance of dataclass cls from a JSON object, one key per field.

    data is the object, or with key given, holds it under that key.  A
    missing key takes the field's default, a float field must convert to a
    float, and a dataclass field is read the same way from its own object;
    a key that names no field is an error.  Errors, the class's own
    validation included, name the file and the key.
    """
    if key is not None:
        if key not in data:
            raise DatasetFormatError(f"{path}: missing config key '{key}'")
        data = data[key]
        if not isinstance(data, dict):
            raise DatasetFormatError(f"{path}: '{key}' must be a JSON object")
    _refuse_unknown_keys(data, [f.name for f in fields(cls)], path)
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            kwargs[f.name] = from_json_fields(hint, data, path, f.name)
        elif f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise DatasetFormatError(f"{path}: missing config key '{f.name}'")
        elif hint is float:
            kwargs[f.name] = _number(data, f.name, path)
        else:
            kwargs[f.name] = data[f.name]
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: bad config ({exc})") from None


def _first_bad_line(cells):
    """(index, reason) of the first bad data line, or None; each line is checked
    in the order two columns, numeric, finite, increasing tau, nonnegative counts.
    A cell with a '_' or a non-ASCII character is not numeric, though float()
    takes digit-group underscores and any Unicode digit: 4_2 must not load as 42."""
    previous_tau = -math.inf
    for k, row in enumerate(cells):
        if len(row) != 2:
            return k, "expected two columns"
        if "_" in row[0] + row[1] or not (row[0] + row[1]).isascii():
            return k, "non-numeric value"
        try:
            tau, count = float(row[0]), float(row[1])
        except ValueError:
            return k, "non-numeric value"
        if not (math.isfinite(tau) and math.isfinite(count)):
            return k, "non-finite value"
        if not tau > previous_tau:
            return k, "tau_ps not strictly increasing"
        if count < 0:
            return k, "negative counts"
        previous_tau = tau
    return None


_SKIPPED_LINES = re.compile(r"\n[^\S\n]*(?:#[^\n]*)?(?=\n|\Z)")
"""Matches, with the newline before it, a blank, whitespace-only or '#' line."""

_TWO_COMMAS = re.compile(r",[^\n]*,")
"""Matches a line that holds two commas."""


def _curve(path, text):
    """The curve of a dataset text, in one whole-text conversion.

    One substitution drops blank, whitespace-only and '#' lines; the first
    line left is the header, which may carry spaces.  C-level string checks
    then prove that every data line holds exactly one comma (the commas
    number the lines, and no line holds two) and no '_' or non-ASCII
    character, and one np.array call converts every cell, padded as it may
    be.  Where a check fails, or the conversion or HomCurve raises
    ValueError, _bad_line_error names the file and line.
    """
    kept = _SKIPPED_LINES.sub("", "\n" + text)
    header, _, rows = kept[1:].partition("\n")
    n = rows.count("\n") + 1
    try:
        if ([c.strip() for c in header.split(",")] != ["tau_ps", "counts"] or not rows
                or "_" in rows or not rows.isascii() or rows.count(",") != n
                or _TWO_COMMAS.search(rows)):
            raise ValueError("a bad header, or a bad data line")
        values = np.array(rows.replace("\n", ",").split(","), dtype=float).reshape(n, 2)
        return HomCurve(*np.ascontiguousarray(values.T))
    except ValueError as exc:
        raise _bad_line_error(path, text, exc) from None


def _bad_line_error(path, text, exc):
    """The error for a dataset text that _curve refused, from a walk over its
    lines: blank and '#' lines are skipped as _curve skips them, and a bad
    data line is named by its line number and _first_bad_line's reason."""
    lines = [
        (lineno, raw)
        for lineno, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines:
        return DatasetFormatError(f"{path}: missing 'tau_ps,counts' header")
    lineno, header = lines.pop(0)
    header = header.strip()
    if [c.strip() for c in header.split(",")] != ["tau_ps", "counts"]:
        return DatasetFormatError(
            f"{path}:{lineno}: expected header 'tau_ps,counts', got {header!r}"
        )
    if not lines:
        return DatasetFormatError(f"{path}: no data lines")
    bad = _first_bad_line([raw.split(",") for _, raw in lines])
    if bad is None:  # numpy refused what float() accepts
        return DatasetFormatError(f"{path}: unreadable data ({exc})")
    k, reason = bad
    return DatasetFormatError(f"{path}:{lines[k][0]}: {reason}")


@dataclass
class _Sidecar:
    """A dataset's <name>.meta.json sidecar, one field per key: the window
    half-width in ns (finite and > 0), the fiber length in km and the label,
    a string.  Dataset checks the length."""

    window_half_width_ns: float
    fiber_length_km: float
    label: str

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"'label' must be a string, got {self.label!r}")
        if not 0 < 1000.0 * self.window_half_width_ns < math.inf:
            raise ValueError("window_half_width_ns must be finite and > 0")


def read_dataset(path) -> Dataset:
    """Parse a dataset CSV and its metadata sidecar.

    Every error is a DatasetFormatError naming the file and the offending
    line or key: wrong header, unparsable numbers (a '_' or a non-ASCII
    character among them), non-finite numbers, non-monotone tau, negative
    counts, missing or unknown sidecar keys, a label that is not a string.
    Every layout (CRLF line ends, whose CR is whitespace, comments, blank
    lines, padded cells) takes the one conversion of _curve;
    the line walk runs only once that has failed, to name the bad line.
    """
    path = Path(path)
    curve = _curve(path, _read_text(path))
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise DatasetFormatError(f"{meta_path}: missing metadata sidecar")
    meta = from_json_fields(_Sidecar, read_json_object(meta_path), meta_path)
    try:
        return Dataset(curve, 1000.0 * meta.window_half_width_ns, meta.fiber_length_km, meta.label)
    except ValueError as exc:
        raise DatasetFormatError(f"{meta_path}: {exc}") from None


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset CSV plus sidecar; floats round-trip losslessly.

    Each line is repr(tau),repr(count), with an integer-valued count written
    as an integer.  The text is built by C-level map and join: counts below
    2**63 become ints through one int64 cast, larger integer values through
    int().
    """
    path = Path(path)
    values = dataset.curve.values
    counts = values.astype(object)
    whole = values == np.trunc(values)
    fits = whole & (values < 2.0**63)
    counts[fits] = values[fits].astype(np.int64)
    huge = whole & ~fits
    counts[huge] = [int(v) for v in values[huge].tolist()]
    rows = zip(map(repr, dataset.curve.tau_ps.tolist()), map(repr, counts.tolist()))
    _write_text(path, "tau_ps,counts\n" + "\n".join(map(",".join, rows)) + "\n")
    meta = _Sidecar(dataset.window_half_width_ps / 1000.0, dataset.fiber_length_km, dataset.label)
    write_json_object(_meta_path(path), asdict(meta))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def poisson_counts(means, seed_key) -> np.ndarray:
    """Seeded Poisson draw for an array of means, as int64 in the shape of means.

    numpy's Generator.poisson on a Philox stream keyed by seed_key draws the
    counts, so they are fixed per seed for a given numpy version (numpy does
    not promise the same stream across versions).
    """
    means = np.asarray(means, dtype=float)
    if (means < 0).any() or not np.isfinite(means).all():
        raise ValueError("Poisson means must be finite and nonnegative")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed_key)))
    return np.asarray(gen.poisson(means), dtype=np.int64)


# --- campaign configuration ---------------------------------------------------

DERIVED_RHO_KEY = "derived_rho_ps2_inv"
"""Key of the derived rho that gen adds to its echo of the campaign config."""


def _label(window_ns, length_km) -> str:
    """A campaign dataset's label, which also names its files."""
    return f"T{window_ns:g}ns_L{length_km:g}km"


@dataclass
class CampaignConfig:
    """Synthetic measurement campaign over windows x fiber lengths.

    etas may be a single float (applied to every dataset) or one value per
    (window, length) pair in row-major order (windows outer).  A null tau
    range means each dataset scans +-1.5 T on `tau_points` samples.  A
    symmetric scan, that one or a given tau_min_ps = -tau_max_ps, is
    mirror-exact: its delays pair as +-tau bit for bit (delay_grid).  Each
    dataset is labelled T<window>ns_L<length>km with its values in %g form,
    and no two datasets may share a label, since it names their files.
    """

    source: SourceParams
    filter: FilterParams
    beta2_ps2_per_km: float
    fiber_lengths_km: list[float]
    windows_ns: list[float]
    etas: float | list[float] = 0.5
    tau_points: int = 201
    tau_min_ps: float | None = None
    tau_max_ps: float | None = None
    peak_counts: float = 1e4
    seed: int = 0

    def __post_init__(self):
        if not self.fiber_lengths_km or not self.windows_ns:
            raise ValueError("need at least one fiber length and one window")
        if not all(_finite(w) and w > 0 for w in self.windows_ns):
            raise ValueError("windows_ns must be finite and > 0")
        if not all(_finite(length) and length >= 0 for length in self.fiber_lengths_km):
            raise ValueError("fiber_lengths_km must be finite and >= 0")
        if not _finite(self.beta2_ps2_per_km):
            raise ValueError("beta2_ps2_per_km must be finite")
        for key in ("tau_points", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.tau_points < 5:
            raise ValueError("tau_points must be >= 5")
        # numpy's Poisson sampler refuses means above ~9.2e18
        if not (_finite(self.peak_counts) and 0 < self.peak_counts <= 1e18):
            raise ValueError("peak_counts must be > 0 and <= 1e18")
        self.seed = int(self.seed)  # a numpy integer would overflow the Philox key arithmetic
        if (self.tau_min_ps is None) != (self.tau_max_ps is None):
            raise ValueError("tau_min_ps and tau_max_ps must be given together")
        if self.tau_min_ps is not None:
            if not (_finite(self.tau_min_ps) and _finite(self.tau_max_ps)):
                raise ValueError("tau_min_ps and tau_max_ps must be finite")
            if not self.tau_max_ps > self.tau_min_ps:
                raise ValueError("tau_max_ps must exceed tau_min_ps")
        n = len(self.windows_ns) * len(self.fiber_lengths_km)
        if isinstance(self.etas, numbers.Real):
            self.etas = [self.etas] * n
        elif len(self.etas) != n:
            raise ValueError(f"need one eta per dataset ({n}), got {len(self.etas)}")
        if not all(_finite(e) and 0 <= e <= 1 for e in self.etas):
            raise ValueError("etas must be numbers in [0, 1]")
        self.etas = [float(e) for e in self.etas]
        labels = [_label(w, length) for w in self.windows_ns for length in self.fiber_lengths_km]
        for k, label in enumerate(labels):
            if label in labels[:k]:
                raise ValueError(f"two datasets share the label {label!r}")

    @classmethod
    def from_json(cls, path) -> "CampaignConfig":
        """The config in a JSON file; the DERIVED_RHO_KEY that gen echoes is skipped."""
        data = read_json_object(path)
        data.pop(DERIVED_RHO_KEY, None)
        return from_json_fields(cls, data, path)

    def to_json_dict(self) -> dict:
        """The fields as nested dicts; the filter convention is a str enum,
        which json writes as its value."""
        return asdict(self)


def generate_synthetic(config: CampaignConfig):
    """Noisy datasets for every (window, length) pair of the campaign.

    The model curves of all datasets are evaluated in one stacked
    coincidence_parts call over their concatenated grids, with each point's
    broadened rho' and window half-width, as FitProblem.parts passes them.
    The rate is evaluated element by element, so each curve equals
    coincidence_curve on its own grid bit for bit.  Each grid comes from
    delay_grid, so a symmetric range (the default +-1.5 T among them) is
    mirror-exact: tau[k] == -tau[n-1-k] bit for bit.  A model curve that
    is not finite somewhere on its grid, as for a window too wide for the
    closed form, or is zero on its whole grid, is an error naming the
    first such dataset, raised before any counts are drawn.  Each curve
    is then scaled so its maximum equals peak_counts, and each bin is
    drawn from a Poisson law with that mean by poisson_counts.  The
    Philox key mixes the campaign seed with the dataset index, so datasets
    are independent but fixed per seed for a given numpy version.
    """
    rho = derive_spectral(config.source, config.filter).rho
    pairs = [(window_ns, length_km) for window_ns in config.windows_ns
             for length_km in config.fiber_lengths_km]
    windows_ps = [1000.0 * window_ns for window_ns, _ in pairs]
    grids = [delay_grid(-1.5 * window_ps, 1.5 * window_ps, config.tau_points)
             if config.tau_min_ps is None
             else delay_grid(config.tau_min_ps, config.tau_max_ps, config.tau_points)
             for window_ps in windows_ps]
    rho_ps = [broadened_rho(rho, ChannelParams(length_km, config.beta2_ps2_per_km))
              for _, length_km in pairs]

    def per_point(values):
        return np.repeat(values, config.tau_points)

    eta_ps = per_point([eta_prime(eta) for eta in config.etas])
    # a window too wide for the closed form overflows it: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = coincidence_parts(np.concatenate(grids), rho, per_point(rho_ps),
                                 per_point(windows_ps))
        curves = np.maximum(p + eta_ps * q, 0.0).reshape(len(pairs), config.tau_points)
    labels = [_label(window_ns, length_km) for window_ns, length_km in pairs]
    peaks = curves.max(axis=1)  # NaN or inf wherever the curve is not finite
    for label, curve, peak in zip(labels, curves, peaks):
        if not math.isfinite(peak):
            raise ValueError(f"dataset {label}: the model curve is not finite at "
                             f"{np.count_nonzero(~np.isfinite(curve))} of its {curve.size} delays")
        if not peak > 0:
            raise ValueError(f"dataset {label}: the model curve is zero on its whole tau grid")
    datasets = []
    for index, (taus, curve, peak, window_ps, (_, length_km), label) in enumerate(
            zip(grids, curves, peaks, windows_ps, pairs, labels)):
        key = (config.seed * 0x9E3779B97F4A7C15 + index) % 2**64
        counts = poisson_counts(curve / peak * config.peak_counts, key)
        datasets.append(Dataset(HomCurve(taus, counts.astype(float)), window_ps, length_km, label))
    return datasets, rho
