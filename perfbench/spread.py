"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pipeline --seeds 5
    python3 perfbench/spread.py --seeds 10 --out perfbench/baseline.json

Runs the benchmark command from BENCHMARK.json once per seed and workload
(every workload BENCHMARK.json lists when none is named), then reports for
each metric the median, the quartiles and the spread (Q3 - Q1) / median.
With --out the result is written as JSON together with the machine it ran on
and the per-layer metrics of one traced run per workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace=0) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": 1, "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # the workloads BENCHMARK.json gates by default; any in spec.json by name
    known = json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"]
    parser.add_argument("--workload", action="append", choices=list(known))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(spec["command"], workload, seed, spec["run_seconds"]))
            print(f"{workload:<14} seed {seed:<4} "
                  f"elapsed={runs[-1]['elapsed_s']:.1f} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        metrics = {}
        for name in bounds:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            m = metrics[name]
            print(f"{workload:<14} {name:<12} median {m['median']:<12.6g} "
                  f"spread {m['spread']:.4f} (bound {bounds[name]})", flush=True)
        report["workloads"][workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "ops": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
        if args.out:
            traced = run_once(spec["command"], workload, args.first_seed,
                              spec["run_seconds"], trace=1)
            report["workloads"][workload]["traced_seed"] = args.first_seed
            report["workloads"][workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        report["machine"] = machine()
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
