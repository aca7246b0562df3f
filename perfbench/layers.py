"""Which library functions the traced run wraps, what each counts, and the
per-layer metrics derived from the spans.

Counts are hardware independent: kernel elements, curve points, model
passes, LM iterations, quadrature nodes, Poisson draws and bytes moved.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from disphom import cli, erfkernel, fitting, io, model, oracle
from tracer import summarize

# The library's own modules.  The package namespace is left out: the library
# never looks a name up there, only the benchmark's inputs and checks do.
MODULES = (erfkernel, model, fitting, oracle, io, cli)

# Kernel inputs kept for the accuracy check: a few elements of every call,
# up to a fixed total, evaluated against scipy after the timed run.
_SAMPLES_PER_CALL = 4
_SAMPLE_CAP = 20000


class KernelSampler:
    def __init__(self):
        self.dip = []  # (x, y) fed to scaled_dip_term
        self.erf = []  # x fed to erf_real
        self.size = 0

    def take(self, into, *arrays):
        if self.size >= _SAMPLE_CAP:
            return
        flat = [np.ravel(a) for a in np.broadcast_arrays(*arrays)]
        step = max(1, flat[0].size // _SAMPLES_PER_CALL)
        picked = np.stack([f[::step][:_SAMPLES_PER_CALL] for f in flat], axis=-1)
        into.append(picked)
        self.size += len(picked)


def _size(a):
    return int(np.size(a))


def _files_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _dataset_bytes(csv):
    """Bytes of a dataset: its CSV and the sidecar beside it."""
    return _files_bytes(csv, io._meta_path(Path(csv)))


def targets(sampler):
    """Original function -> (span name, measure(args, kwargs, result))."""

    def dip(args, kwargs, result):
        sampler.take(sampler.dip, args[0], args[1])
        return max(_size(args[0]), _size(args[1])), ""  # one of the two is a scalar or both match

    def erf(args, kwargs, result):
        sampler.take(sampler.erf, args[0])
        return _size(args[0]), ""

    def fit(args, kwargs, result):
        note = "" if result is None else f"iterations={result.iterations}"
        return len(args[0]), note

    return {
        erfkernel.scaled_dip_term: ("erfkernel.scaled_dip_term", dip),
        erfkernel.erf_real: ("erfkernel.erf_real", erf),
        model.coincidence_curve: ("model.coincidence_curve", lambda a, k, r: (_size(a[0]), "")),
        fitting.model_values: (
            "fitting.model_values", lambda a, k, r: (len(a[0].curve), "")
        ),
        fitting.lm_fit: ("fitting.lm_fit", fit),
        oracle.windowed_rate_numeric: (
            "oracle.windowed_rate_numeric", lambda a, k, r: (_size(a[0]), "")
        ),
        oracle.differential_rate: (
            "oracle.differential_rate", lambda a, k, r: (_size(a[1]), "")
        ),
        io.poisson_counts: ("io.poisson_counts", lambda a, k, r: (_size(a[0]), "")),
        io.write_dataset: ("io.write_dataset", lambda a, k, r: (_dataset_bytes(a[1]), "")),
        io.read_dataset: ("io.read_dataset", lambda a, k, r: (_dataset_bytes(a[0]), "")),
        io.sha256_of: ("io.sha256_of", lambda a, k, r: (_files_bytes(a[0]), "")),
        io.generate_synthetic: (
            "io.generate_synthetic", lambda a, k, r: (0 if r is None else len(r[0]), "")
        ),
    }


# Per-op counts that must repeat exactly between runs of the same code:
# (count key, span name, field of summarize()).
COUNTS = [
    ("kernel_dip_elements", "erfkernel.scaled_dip_term", "count"),
    ("kernel_erf_elements", "erfkernel.erf_real", "count"),
    ("curve_points", "model.coincidence_curve", "count"),
    ("model_passes", "fitting.model_values", "calls"),
    ("model_points", "fitting.model_values", "count"),
    ("quadrature_delays", "oracle.windowed_rate_numeric", "count"),
    ("quadrature_nodes", "oracle.differential_rate", "count"),
    ("poisson_draws", "io.poisson_counts", "count"),
    ("bytes_written", "io.write_dataset", "count"),
    ("bytes_read", "io.read_dataset", "count"),
    ("bytes_hashed", "io.sha256_of", "count"),
]


def iterations(spans):
    """(LM iterations summed over the fits that returned, number of such fits)."""
    done = [int(s[7].split("=")[1]) for s in spans
            if s[2] == "fitting.lm_fit" and s[7].startswith("iterations=")]
    return sum(done), len(done)


def _ratio(num, den):
    return num / den if den else 0.0


def kernel_max_rel_err(sampler):
    """Largest error of the sampled kernel values against scipy.special.wofz.

    The error is taken relative to the largest term of the reference's own
    cancellation, exp(-y^2) - Re[exp(-x^2 - 2ixy) w(-y + ix)], so that
    values near a sign change are judged at the scale both methods can
    resolve.  Returns (error, samples).
    """
    from scipy.special import wofz

    worst = 0.0
    samples = 0
    if sampler.dip:
        xy = np.concatenate(sampler.dip)
        x, y = xy[:, 0], xy[:, 1]
        a, b = np.abs(x), np.abs(y)
        with np.errstate(under="ignore"):
            head = np.exp(-b * b)
            tail = np.exp(-a * a) * (np.exp(-2j * a * b) * wofz(-b + 1j * a)).real
        ref = np.where(np.signbit(x), -1.0, 1.0) * (head - tail)  # odd in x
        got = erfkernel.scaled_dip_term(x, y)
        scale = np.maximum.reduce([np.abs(ref), head, np.abs(tail), np.full_like(ref, 1e-300)])
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
        samples += x.size
    if sampler.erf:
        x = np.concatenate(sampler.erf)[:, 0]
        a = np.abs(x)
        with np.errstate(under="ignore"):
            tail = np.exp(-a * a) * wofz(1j * a).real
        ref = np.where(np.signbit(x), -1.0, 1.0) * (1.0 - tail)
        got = erfkernel.erf_real(x)
        scale = np.maximum.reduce([np.abs(ref), tail, np.full_like(ref, 1e-300)])
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
        samples += x.size
    return worst, samples


def per_layer(table, spans, statuses, fits, workers, sampler):
    """The per-layer metrics, name -> (value, unit); every name on every workload."""

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    out = {}
    for span in ("erfkernel.scaled_dip_term", "erfkernel.erf_real"):
        out[f"{span}.calls"] = (get(span, "calls"), "count")
        out[f"{span}.elements"] = (get(span, "count"), "count")
        out[f"{span}.s"] = (get(span, "s"), "s")
        out[f"{span}.ns_per_element"] = (1e9 * _ratio(get(span, "s"), get(span, "count")), "ns")
    err, _samples = kernel_max_rel_err(sampler)
    out["erfkernel.max_rel_err"] = (err, "1")

    span = "model.coincidence_curve"
    out[f"{span}.calls"] = (get(span, "calls"), "count")
    out[f"{span}.points"] = (get(span, "count"), "count")
    out[f"{span}.s"] = (get(span, "s"), "s")
    out[f"{span}.self_s"] = (get(span, "self_s"), "s")

    span = "fitting.lm_fit"
    fits_run = get(span, "calls")
    out[f"{span}.calls"] = (fits_run, "count")
    out[f"{span}.s"] = (get(span, "s"), "s")
    out[f"{span}.self_s"] = (get(span, "self_s"), "s")
    datasets = get(span, "count")
    out["fitting.iterations_per_fit"] = (_ratio(*iterations(spans)), "count")
    # model_values calls per dataset, per fit
    out["fitting.model_passes_per_fit"] = (
        _ratio(get("fitting.model_values", "calls"), datasets), "count"
    )
    out["fitting.model_points_per_fit"] = (
        _ratio(get("fitting.model_values", "count"), fits_run), "count"
    )
    for cause in ("raised", "not_converged", "wrong_answer"):
        out[f"fitting.{cause}"] = (statuses.count(cause) if fits else 0, "count")

    span = "oracle.windowed_rate_numeric"
    out[f"{span}.calls"] = (get(span, "calls"), "count")
    out[f"{span}.delays"] = (get(span, "count"), "count")
    out[f"{span}.s"] = (get(span, "s"), "s")
    span = "oracle.differential_rate"
    out[f"{span}.calls"] = (get(span, "calls"), "count")
    out[f"{span}.nodes"] = (get(span, "count"), "count")
    out[f"{span}.busy_s"] = (get(span, "s"), "s")
    out[f"{span}.ns_per_node"] = (1e9 * _ratio(get(span, "s"), get(span, "count")), "ns")
    out["oracle.nodes_per_delay"] = (
        _ratio(get(span, "count"), get("oracle.windowed_rate_numeric", "count")), "count"
    )
    out["oracle.workers"] = (workers, "count")
    out["oracle.parallel_efficiency"] = (
        _ratio(get(span, "s"), get("oracle.windowed_rate_numeric", "s") * workers), "1"
    )

    out["io.poisson_counts.draws"] = (get("io.poisson_counts", "count"), "count")
    out["io.poisson_counts.s"] = (get("io.poisson_counts", "s"), "s")
    for name in ("write_dataset", "read_dataset", "sha256_of"):
        span = f"io.{name}"
        out[f"{span}.calls"] = (get(span, "calls"), "count")
        out[f"{span}.bytes"] = (get(span, "count"), "B")
        out[f"{span}.s"] = (get(span, "s"), "s")
    out["io.generate_synthetic.s"] = (get("io.generate_synthetic", "s"), "s")
    out["cli.gen.s"] = (get("cli.gen", "s"), "s")
    out["cli.fit.s"] = (get("cli.fit", "s"), "s")
    out["cli.fit.self_s"] = (get("cli.fit", "self_s"), "s")
    return out


def op_counts(spans, owner):
    """Hardware-independent counts of every op span, keyed by op index."""
    by_op = {}
    for span in spans:
        op = owner.get(span[0])
        if op is not None:
            by_op.setdefault(op, []).append(span)
    result = {}
    for op_id, group in by_op.items():
        op_span = next(s for s in group if s[0] == op_id)
        table = summarize(group)
        counts = {key: table.get(name, {}).get(field, 0) for key, name, field in COUNTS}
        counts["lm_iterations"] = iterations(group)[0]
        result[str(op_span[6])] = counts
    return result
