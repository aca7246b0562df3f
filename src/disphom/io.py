"""Dataset serialization, campaign configuration, and synthetic generation.

Datasets are CSV files with the exact header ``tau_ps,counts`` (lines starting
with ``#`` are comments) plus a ``<name>.meta.json`` sidecar carrying
``window_half_width_ns``, ``fiber_length_km`` and ``label``.  Counts may be
non-integer (rates are allowed).  Every JSON input (sidecars, campaign and
source configs, fit starts) is read by read_json_object, and dataclasses
are built from it field by field by from_json_fields.  Synthetic campaigns
draw Poisson counts from a counter-based generator (Philox) keyed by the
campaign seed and the dataset index, so identical configurations produce
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .fitting import Dataset
from .model import (
    FilterParams,
    HomCurve,
    SourceParams,
    broadened_rho,
    ChannelParams,
    coincidence_curve,
    eta_prime,
)


class DatasetFormatError(ValueError):
    """A dataset file or sidecar violates the on-disk contract."""


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def _read_text(path) -> str:
    """A file's UTF-8 text; errors name the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DatasetFormatError(
            f"{path}: cannot read (not UTF-8 text: byte {exc.start} is {byte:#04x})"
        ) from None


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


def _number(data, key, path) -> float:
    try:
        return float(data[key])
    except (TypeError, ValueError):
        raise DatasetFormatError(f"{path}: '{key}' must be a number, got {data[key]!r}") from None


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
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise DatasetFormatError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
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


def _malformed(cells):
    """Why a data line's cells are not two numbers, or None if they are."""
    if len(cells) != 2:
        return "expected two columns"
    try:
        float(cells[0]), float(cells[1])
    except ValueError:
        return "non-numeric value"
    return None


def read_dataset(path) -> Dataset:
    """Parse a dataset CSV and its metadata sidecar.

    Errors name the offending line or key: wrong header, non-monotone tau,
    negative counts, unparsable numbers, missing sidecar keys.  The text is
    split and converted once, and the value checks run on whole columns;
    the line reported is the first bad one, and on it the first failed
    check in the order two columns, numeric, finite, increasing tau,
    nonnegative counts.
    """
    path = Path(path)
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(_read_text(path).split("\n"), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines:
        raise DatasetFormatError(f"{path}: missing 'tau_ps,counts' header")
    lineno, header = lines.pop(0)
    if [c.strip() for c in header.split(",")] != ["tau_ps", "counts"]:
        raise DatasetFormatError(
            f"{path}:{lineno}: expected header 'tau_ps,counts', got {header!r}"
        )
    cells = [line.split(",") for _, line in lines]
    try:
        # every line two numbers, the usual case: one conversion
        values = np.array(cells, dtype=float).reshape(len(cells), 2)
        parsed = len(cells)
    except ValueError:
        parsed = next(k for k, row in enumerate(cells) if _malformed(row))
        values = np.array(cells[:parsed], dtype=float).reshape(parsed, 2)
    taus, counts = np.ascontiguousarray(values.T)
    failed = np.stack([
        ~(np.isfinite(taus) & np.isfinite(counts)),
        np.concatenate(([False], taus[1:] <= taus[:-1])),
        counts < 0,
    ])
    messages = ["non-finite value", "tau_ps not strictly increasing", "negative counts"]
    bad = failed.any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        raise DatasetFormatError(f"{path}:{lines[k][0]}: {messages[int(failed[:, k].argmax())]}")
    if parsed < len(cells):
        raise DatasetFormatError(f"{path}:{lines[parsed][0]}: {_malformed(cells[parsed])}")

    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise DatasetFormatError(f"{meta_path}: missing metadata sidecar")
    meta = read_json_object(meta_path)
    for key in ("window_half_width_ns", "fiber_length_km", "label"):
        if key not in meta:
            raise DatasetFormatError(f"{meta_path}: missing key '{key}'")
    return Dataset(
        curve=HomCurve(taus, counts),
        window_half_width_ps=1000.0 * _number(meta, "window_half_width_ns", meta_path),
        fiber_length_km=_number(meta, "fiber_length_km", meta_path),
        label=str(meta["label"]),
    )


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset CSV plus sidecar; floats round-trip losslessly."""
    path = Path(path)
    lines = ["tau_ps,counts"]
    for tau, value in zip(dataset.curve.tau_ps.tolist(), dataset.curve.values.tolist()):
        value_repr = repr(int(value)) if value.is_integer() else repr(value)
        lines.append(f"{tau!r},{value_repr}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {
        "window_half_width_ns": dataset.window_half_width_ps / 1000.0,
        "fiber_length_km": dataset.fiber_length_km,
        "label": dataset.label,
    }
    _meta_path(path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- Poisson sampling --------------------------------------------------------
# Counts come from a Philox (counter-based) stream: sequential-search
# inversion below mean 30 and Hormann's PTRS transformed rejection above.
# Both consume the generator's uniforms only, which pins the byte-for-byte
# output across platforms for a given seed.

_PTRS_CUTOFF = 30.0


def _poisson_inversion(uniform, lam):
    u = uniform()
    p = math.exp(-lam)
    cdf = p
    k = 0
    while u > cdf:
        k += 1
        p *= lam / k
        cdf += p
        if p < 1e-300 and cdf < u:  # guard against an unreachable tail
            break
    return k


def _poisson_ptrs(uniform, lam):
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_lam = math.log(lam)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= k * log_lam - lam - math.lgamma(
            k + 1.0
        ):
            return int(k)


def poisson_counts(means, seed_key) -> np.ndarray:
    """Seeded Poisson draw for an array of means (Philox counter stream)."""
    means = np.asarray(means, dtype=float)
    if (means < 0).any() or not np.isfinite(means).all():
        raise ValueError("Poisson means must be finite and nonnegative")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed_key)))
    uniform = gen.random
    out = np.empty(means.size, dtype=np.int64)
    flat = means.ravel()
    for i, lam in enumerate(flat):
        if lam == 0.0:
            out[i] = 0
        elif lam < _PTRS_CUTOFF:
            out[i] = _poisson_inversion(uniform, lam)
        else:
            out[i] = _poisson_ptrs(uniform, lam)
    return out.reshape(means.shape)


# --- campaign configuration ---------------------------------------------------

DERIVED_RHO_KEY = "derived_rho_ps2_inv"
"""Key of the derived rho that gen adds to its echo of the campaign config."""


@dataclass
class CampaignConfig:
    """Synthetic measurement campaign over windows x fiber lengths.

    etas may be a single float (applied to every dataset) or one value per
    (window, length) pair in row-major order (windows outer).  A null tau
    range means each dataset scans +-1.5 T on `tau_points` samples.
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
        if any(w <= 0 for w in self.windows_ns):
            raise ValueError("windows must be > 0")
        if any(length < 0 for length in self.fiber_lengths_km):
            raise ValueError("fiber lengths must be >= 0")
        if not isinstance(self.tau_points, numbers.Integral):
            raise ValueError(f"tau_points must be an integer, got {self.tau_points!r}")
        if self.tau_points < 5:
            raise ValueError("tau_points must be >= 5")
        if not self.peak_counts > 0:
            raise ValueError("peak_counts must be > 0")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed)  # a numpy integer would overflow the Philox key arithmetic
        if (self.tau_min_ps is None) != (self.tau_max_ps is None):
            raise ValueError("tau_min_ps and tau_max_ps must be given together")
        if self.tau_min_ps is not None and not self.tau_max_ps > self.tau_min_ps:
            raise ValueError("tau_max_ps must exceed tau_min_ps")
        n = len(self.windows_ns) * len(self.fiber_lengths_km)
        if isinstance(self.etas, (int, float)):
            self.etas = [float(self.etas)] * n
        elif len(self.etas) != n:
            raise ValueError(f"need one eta per dataset ({n}), got {len(self.etas)}")
        if any(not 0 <= e <= 1 for e in self.etas):
            raise ValueError("etas must be in [0, 1]")

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

    The model curve is scaled so its maximum equals peak_counts, then each
    bin is drawn from a Poisson law with that mean.  The Philox key mixes
    the campaign seed with the dataset index, so datasets are independent
    but fully reproducible.
    """
    from .model import derive_spectral

    rho = derive_spectral(config.source, config.filter).rho
    datasets = []
    index = 0
    for window_ns in config.windows_ns:
        for length_km in config.fiber_lengths_km:
            window_ps = 1000.0 * window_ns
            if config.tau_min_ps is None:
                taus = np.linspace(-1.5 * window_ps, 1.5 * window_ps, config.tau_points)
            else:
                taus = np.linspace(config.tau_min_ps, config.tau_max_ps, config.tau_points)
            eta = config.etas[index]
            rho_p = broadened_rho(rho, ChannelParams(length_km, config.beta2_ps2_per_km))
            curve = coincidence_curve(taus, rho, rho_p, eta_prime(eta), window_ps)
            means = curve.values / curve.values.max() * config.peak_counts
            key = (config.seed * 0x9E3779B97F4A7C15 + index) % 2**64
            counts = poisson_counts(means, key)
            label = f"T{window_ns:g}ns_L{length_km:g}km"
            datasets.append(
                Dataset(
                    curve=HomCurve(taus, counts.astype(float)),
                    window_half_width_ps=window_ps,
                    fiber_length_km=length_km,
                    label=label,
                )
            )
            index += 1
    return datasets, rho
