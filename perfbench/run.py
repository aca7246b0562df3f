"""Benchmark of the disphom pipeline: one workload per invocation.

    python3 perfbench/run.py --workload fit_warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  --trace 0 measures the
end-to-end metrics with no wrappers installed; their times are scaled to
reference host speed (see hostspeed.py).  --trace 1 runs half as many ops
twice each, once plain and once with every library layer wrapped, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
attempted and failed count distinct ops, so they do not depend on how many
repeat passes the host's speed allows.  Spans, per-op counts and the full
result go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("fit_warm", "cli_campaign", "oracle_grid")
SETUP_PROBES = 5  # set-up is measured this many times, each in a fresh process
MIN_OPS = 3

END_TO_END = ("setup_s", "op_s.p50_by_op", "peak_rss_mb")


def _die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import disphom and the workload table from this checkout; seconds taken."""
    if not (SRC / "disphom" / "__init__.py").is_file():
        _die(f"no disphom package under {SRC}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import disphom

    workloads = importlib.import_module("workloads")
    elapsed = time.perf_counter() - start
    if Path(disphom.__file__).resolve().parent != (SRC / "disphom").resolve():
        _die(f"imported disphom from {disphom.__file__}, not from {SRC}")
    return workloads, elapsed


def _planned_ops(workload, seconds, trace):
    """Distinct ops of a run, set by `seconds` alone, never by the time the
    ops take; a traced run runs each op twice and plans half as many."""
    return max(MIN_OPS, round(seconds * workload.ops_per_s / (2 if trace else 1)))


def _setup_probe(args):
    """Child process: import the library and build the run's inputs, timed."""
    workloads, import_s = _import_library()
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "tmp" / f"probe-{os.getpid()}"
    start = time.perf_counter()
    try:
        for i in range(_planned_ops(workload, args.seconds, args.trace)):
            workload.make(args.seed, i, workdir)
        print(json.dumps({"s": import_s + time.perf_counter() - start}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import_probe():
    """Child process: time `import numpy`, the host-speed reference for set-up."""
    start = time.perf_counter()
    import numpy  # noqa: F401

    print(json.dumps({"s": time.perf_counter() - start}))


def _measure(args, probe):
    """Seconds reported by one fresh process run with `probe`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), probe,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        _die(f"{probe} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["s"]


def _measure_setup(args):
    """(set-up seconds, mean `import numpy` seconds just before and after)."""
    before = _measure(args, "--import-probe")
    setup = _measure(args, "--setup-probe")
    after = _measure(args, "--import-probe")
    return setup, 0.5 * (before + after)


class SetupProbes:
    """SETUP_PROBES set-up measurements spread evenly over a run.

    The host's speed drifts over seconds to minutes, so probes taken one
    after another all see the same state; spread over the run, their median
    does not hang on the state the run started in.
    """

    def __init__(self, args):
        self.args = args
        self.values = []
        self.began = time.perf_counter()

    def due(self):
        """Take a probe if the run has reached the next probe's slot."""
        slot = len(self.values) * self.args.seconds / SETUP_PROBES
        if len(self.values) < SETUP_PROBES and time.perf_counter() - self.began >= slot:
            self.values.append(_measure_setup(self.args))

    def finish(self):
        while len(self.values) < SETUP_PROBES:
            self.values.append(_measure_setup(self.args))
        return self.values


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _environment():
    import numpy as np

    from disphom import oracle

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "oracle_max_workers": oracle.max_workers(),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "disphom_threads_env": os.environ.get("DISPHOM_THREADS"),
    }


def _code_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("disphom/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _run_op(speed, i, workload, inp, tracer=None, around=contextlib.nullcontext):
    """One op run: (op index, wall seconds, status, note, loop seconds).

    `around()` encloses the op alone (the traced run installs its wrappers
    there); the output check runs after it and is not timed.  Reference
    loops bracket the timed part.
    """

    def timed():
        start = time.perf_counter()
        try:
            with around():
                result = workload.run(inp, tracer)
        except Exception as exc:  # the benchmark records every failure and goes on
            return time.perf_counter() - start, None, exc
        return time.perf_counter() - start, result, None

    (elapsed, result, exc), loop_s = speed.bracket(timed)
    if exc is not None:
        return i, elapsed, "raised", f"{type(exc).__name__}: {exc}", loop_s
    return i, elapsed, workload.check(inp, result), "", loop_s


def _tail(times):
    """Highest whole percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(times)
    for q in range(99, 0, -1):
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10:
            return q, ordered[rank - 1]
    return None, None


def _op_statuses(runs):
    """Each distinct op's status: "ok" only if every run of it passed."""
    statuses = {}
    for i, _, status, _, _ in runs:
        if statuses.get(i, "ok") == "ok":
            statuses[i] = status
    return statuses


def _end_to_end(runs, setup_values, speed):
    """The end-to-end metrics of the untraced op runs, times scaled to
    reference speed as hostspeed.py describes: an op by the mean of its own
    loops and the run's, a set-up probe by the numpy imports around it.

    op_s.* take every op run, a failed one as +inf: it misses any limit.
    The gated op_s.p50_by_op takes each op's median pass, then the median
    over ops, a failed op at the time it took.  Which ops fail depends on
    the seed (1-4 of 16 fits), so ranking failures last would make the gated
    time follow the failure count from seed to seed; failures are counted
    exactly in `failed` instead, which one seed always reproduces.
    fail_frac counts distinct ops.
    """
    scaled = [(i, speed.op_time(t, loop_s), status) for i, t, status, _, loop_s in runs]
    times = [t if status == "ok" else math.inf for _, t, status in scaled]
    statuses = _op_statuses(runs)
    op_wall = sum(t for _, t, _ in scaled)
    passes = {}
    for i, t, _ in scaled:
        passes.setdefault(i, []).append(t)
    by_op = [statistics.median(ts) for ts in passes.values()]
    tail_q, tail_value = _tail(times)
    failed_ops = sum(1 for status in statuses.values() if status != "ok")
    metrics = {}
    if setup_values:
        metrics["setup_s"] = {
            "value": statistics.median(speed.setup_time(s, imp) for s, imp in setup_values),
            "unit": "s", "samples": len(setup_values)}
    metrics.update({
        "op_s.p50": {"value": statistics.median(times), "unit": "s", "samples": len(times)},
        "op_s.tail": {"value": tail_value, "unit": "s", "samples": len(times),
                      "percentile": tail_q, "beyond": None if tail_q is None else
                      len(times) - max(1, math.ceil(tail_q / 100.0 * len(times)))},
        "ok_per_s": {"value": sum(1 for t in times if t != math.inf) / op_wall,
                     "unit": "1/s", "samples": len(runs)},
        "fail_frac": {"value": failed_ops / len(statuses), "unit": "1", "samples": len(statuses)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "unit": "MB", "samples": 1},
        "op_s.p50_by_op": {"value": statistics.median(by_op), "unit": "s", "samples": len(by_op)},
    })
    return metrics


def _json_number(value):
    """+inf (a failed op's time) as the string "+inf"; JSON has no infinity."""
    return "+inf" if value == math.inf else value


def _run_plain(workload, args, workdir, probes, speed):
    """Every planned op once, then further passes until the run has measured
    for `seconds`, with the set-up probes and host-speed samples taken
    between op runs.

    The first pass runs every planned op, so each run holds the same ops;
    later passes repeat them while time is left, so a slow host shortens the
    run instead of stretching it.  Repeats only refine the times.
    """
    runs = []  # (op index, seconds, status, note, loop seconds)

    def run(i, inp):
        probes.due()
        runs.append(_run_op(speed, i, workload, inp))
        workload.cleanup(inp)

    inputs = [workload.make(args.seed, i, workdir)
              for i in range(_planned_ops(workload, args.seconds, args.trace))]
    began = time.perf_counter()
    for i, inp in enumerate(inputs):
        run(i, inp)
    while time.perf_counter() - began < args.seconds:
        for i, inp in enumerate(inputs):
            if time.perf_counter() - began < args.seconds:
                run(i, inp)
    return runs


def _run_traced(workload, args, workdir, speed):
    """Each planned op twice, plain and traced, alternating which goes first.

    The number of ops is fixed by --seconds alone, never by the time taken,
    so the totals of the per-layer counts do not depend on the host's speed.
    """
    import layers
    from tracer import Tracer, op_of, summarize

    tracer = Tracer()
    sampler = layers.KernelSampler()
    targets = layers.targets(sampler)
    plain, traced = [], []

    @contextlib.contextmanager
    def installed(i):
        tracer.install(layers.MODULES, targets)
        try:
            with tracer.span("op", count=i):
                yield
        finally:
            tracer.uninstall()

    for i in range(_planned_ops(workload, args.seconds, args.trace)):
        inp = workload.make(args.seed, i, workdir)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(_run_op(speed, i, workload, inp, tracer, lambda: installed(i)))
            else:
                plain.append(_run_op(speed, i, workload, inp))
            workload.cleanup(inp)

    from disphom import oracle

    spans = tracer.spans
    table = summarize(spans)
    statuses = [status for _, _, status, _, _ in traced]
    metrics = layers.per_layer(table, spans, statuses, workload.fits, oracle.max_workers(), sampler)
    overhead = sum(t for _, t, *_ in traced) / sum(t for _, t, *_ in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")

    counts = layers.op_counts(spans, op_of(spans))
    mismatches = _check_counts(args, counts)
    metrics["trace.count_mismatches"] = (len(mismatches), "count")

    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    span_path = OUT / "traces" / f"{workload.name}-seed{args.seed}.spans.tsv.gz"
    tracer.write(span_path)
    return plain, traced, metrics, counts, mismatches, span_path, len(spans)


def _check_counts(args, counts):
    """Compare per-op counts with an earlier traced run of the same code and seed."""
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}.json"
    digest = _code_digest()
    mismatches = []
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier.get("code") == digest:
            for op, row in counts.items():
                for key, value in row.items():
                    old = earlier["ops"].get(op, {}).get(key, value)
                    if old != value:
                        mismatches.append({"op": op, "count": key, "earlier": old, "now": value})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": digest, "ops": counts}, indent=1), encoding="utf-8")
    return mismatches


def _print_table(title, rows):
    print(title)
    print(f"  {'metric':<42} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"  {name:<42} {shown:>14}  {unit:<6} {samples}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _die("--seconds must be > 0")
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        _setup_probe(args)
        return 0
    if args.import_probe:
        _import_probe()
        return 0

    workloads, import_s = _import_library()
    from hostspeed import REFERENCE_S, HostSpeed  # numpy: only after the timed import

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # Workloads never run concurrently: each run holds this lock throughout.
    with open(OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        start = time.perf_counter()
        speed = HostSpeed()
        workdir = OUT / "tmp" / f"run-{os.getpid()}"
        try:
            traced, setup_values = [], []
            if args.trace:
                ops, traced, layer_metrics, counts, mismatches, span_path, n_spans = _run_traced(
                    workload, args, workdir, speed)
            else:
                probes = SetupProbes(args)
                ops = _run_plain(workload, args, workdir, probes, speed)
                setup_values = probes.finish()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        total_s = time.perf_counter() - start
        e2e = _end_to_end(ops, setup_values, speed)
        env = _environment()

    # End-to-end figures come from untraced ops only.  attempted and failed
    # count distinct ops: an op fails if any run of it, plain or traced,
    # failed.  Every failed op run is listed with its cause.
    causes = {}
    for _, _, status, note, _ in ops + traced:
        if status != "ok":
            key = f"{status}: {note}" if note else status
            causes[key] = causes.get(key, 0) + 1
    statuses = _op_statuses(ops + traced)
    attempted = len(statuses)
    failed = sum(1 for status in statuses.values() if status != "ok")
    correct = all(status != "wrong_answer" for _, _, status, _, _ in ops + traced)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {attempted}  op runs {len(ops) + len(traced)}  "
          f"wall {total_s:.1f} s")
    print("environment " + json.dumps(env))
    _print_table("end-to-end (times at reference host speed; a failed op run counts as "
                 "+inf in op_s.*)", [
        (name, m["value"] if m["value"] is not None else "n/a", m["unit"],
         m["samples"] if name != "op_s.tail" else
         f"{m['samples']} (p{m['percentile']}, {m['beyond']} beyond)")
        for name, m in e2e.items()
    ])
    for cause, n in sorted(causes.items()):
        print(f"  failed op: {n} x {cause}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "wall_s": total_s,
        "setup_s_samples": [{"s": s, "import_s": imp} for s, imp in setup_values],
        "setup_s_in_run": import_s,
        "host_speed": {"reference_s": REFERENCE_S, "run_loop_s": speed.run_loop_s(),
                       "loop_s_samples": speed.samples},
        "end_to_end": {k: {f: _json_number(v) for f, v in m.items()} for k, m in e2e.items()},
        "ops": [{"op": i, "s": t, "loop_s": loop_s, "status": s, "note": n}
                for i, t, s, n, loop_s in ops + traced],
        "failure_causes": causes,
    }
    if args.trace:
        _print_table("per-layer (traced pass)", [
            (name, value, unit, "") for name, (value, unit) in layer_metrics.items()
        ])
        if mismatches:
            for m in mismatches:
                print(f"  count differs from the earlier run: {m}")
        print(f"spans: {n_spans} written to {span_path.relative_to(ROOT)}")
        detail["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        detail["op_counts"] = counts
        detail["count_mismatches"] = mismatches
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in END_TO_END}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
