"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads fit_warm cli_campaign --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs are made one after another, never concurrently.  The spread of a
metric is the distance between the first and third quartiles of its values
as a share of their median.  Equal infinities agree (spread 0); a mix of
finite and infinite values has an infinite spread.  Gated metrics are the
end_to_end entries of BENCHMARK.json; the others are the full set of
end-to-end figures from each run's result file.  With --out the per-run
values, medians and spreads are written as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    if all(math.isinf(v) for v in values) and len(set(values)) == 1:
        return 0.0
    if any(math.isinf(v) for v in values):
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else (0.0 if q3 == q1 else math.inf)


def _number(value):
    if isinstance(value, str):
        return {"+inf": math.inf, "-inf": -math.inf}.get(value, math.nan)
    return math.nan if value is None else float(value)


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return value


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        gated = {name: [] for name in bounds}
        full = {}
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in gated:
                gated[name].append(line["metrics"][name]["value"])
            detail = json.loads(
                (ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
            )
            for name, metric in detail["end_to_end"].items():
                full.setdefault(name, []).append(_number(metric["value"]))
            runs.append({"seed": seed, "attempted": line["attempted"], "failed": line["failed"],
                         "correct": line["correct"], "failure_causes": detail["failure_causes"],
                         "end_to_end": detail["end_to_end"], "environment": detail["environment"]})
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{k}={line['metrics'][k]['value']:.4g}" for k in gated)
                  + f"  attempted={line['attempted']} failed={line['failed']}", flush=True)
        summary = {}
        for name, values in full.items():
            clean = [v for v in values if not math.isnan(v)]
            summary[name] = {
                "median": _jsonable(statistics.median(clean)) if clean else None,
                "spread": _jsonable(spread(clean)) if len(clean) >= 2 else None,
                "bound": bounds.get(name),
            }
            if name in bounds:
                s = spread(gated[name])
                flag = "ok" if s <= bounds[name] / 3 else ("within bound" if s <= bounds[name] else "TOO WIDE")
                print(f"  {name:<14} median {statistics.median(gated[name]):.5g}  "
                      f"spread {s:.3f}  bound {bounds[name]}  {flag}")
            else:
                print(f"  {name:<14} median {summary[name]['median']}  spread {summary[name]['spread']}"
                      "  (not gated)")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
