"""Benchmark of the anisomax package, one workload per run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  A run generates a fixed list of distinct ops from --seed and
--seconds (workloads.py), runs them in a closed loop with one client in this
process, checks every op's outputs against reference/<workload>.json, and
prints one metric per line followed by a JSON result as the last line.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_REPEATS fresh processes of the time from process start until every op
is ready (imports, input generation, load_config); half of them start before
the timed ops and half after, so a spell of slow host time hits fewer.

--trace 1 runs the op list twice, untraced and then with timing wrappers
installed around the package's public calls (tracing.py), and reports the
per-layer metrics of the traced pass; the spans go to _out/.
"""

import os

# pinned before numpy loads, here and in the set-up probes this starts
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402  (plain data; does not import the package)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 6
PROBE_TIMEOUT_S = 60
READY = "ready"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup(workload, seed: int, seconds: float, classes: dict, work: Path) -> list:
    """Everything before the first op: imports, inputs, load_config."""
    import anisomax.cli  # noqa: F401  (the import cost every CLI call pays)
    import ops

    prepared = []
    for pos, op_seed in enumerate(
            workloads.op_seeds(workload, seed, seconds, classes)):
        prepared.append(ops.prepare(op_seed, workload.make(op_seed), pos, work))
    return prepared


def measure_setup(argv: list, repeats: int) -> list:
    """Seconds from spawning a fresh process until its ops are ready."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, __file__, *argv, "--setup-probe"],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = ""
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline().strip()
            samples.append(perf_counter() - t0)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != READY or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def run_pass(prepared: list, tracer=None):
    """Run every op once; returns per-op seconds, results and wall seconds."""
    import ops

    times, results = [], []
    start = perf_counter()
    for i, prep in enumerate(prepared):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            result = ops.execute(prep)
        except Exception:  # an op that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            result = None
        times.append(perf_counter() - t0)
        results.append(result)
    return times, results, perf_counter() - start


def count_failures(prepared: list, results: list, reference: dict) -> int:
    import check
    import ops

    failed = 0
    for prep, result in zip(prepared, results):
        if result is None:
            failed += 1
            continue
        ref = reference.get(str(prep.op_seed))
        if ref is None or ref["spec"] != ops.spec_digest(prep.op):
            problems = ["no reference recorded for this op"]
        else:
            problems = check.compare(ops.collect(prep, result), ref["outputs"])
        if problems:
            failed += 1
            print(f"op {prep.op_seed} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed


def excluded_cell_frac(cfg) -> float:
    """Share of the lattice inside E, rebuilt from public calls."""
    import numpy as np
    from anisomax import decomposition, maximal

    entries = cfg.entries()
    wres = decomposition.whitney_decompose(entries, cfg.alpha)
    if not wres.selected:
        return 0.0
    kept = [entries[i] for i in sorted(wres.assigned)]
    sres = decomposition.stopping_time(wres.selected, kept, cfg.alpha)
    pts = maximal.make_lattice(cfg.lattice["box"],
                               tuple(cfg.lattice["shape"])).points()
    inside = np.zeros(len(pts), dtype=bool)
    for primitive in sres.exceptional:
        inside |= primitive.contains_points(pts)
    return float(inside.mean())


def layer_metrics(tracer, prepared: list, untraced_times: list,
                  wall_untraced: float, wall_traced: float) -> dict:
    import layers

    tracer.enabled = False
    pipeline = [p.cfg for p in prepared
                if p.cfg is not None and p.op["experiment"] == "full-pipeline"]
    fracs = [excluded_cell_frac(cfg) for cfg in pipeline]
    written = sum(f.stat().st_size for p in prepared if p.out_dir is not None
                  for f in p.out_dir.iterdir())
    return layers.metrics(tracer, {
        "maximal.excluded_cell_frac": statistics.mean(fracs) if fracs else 0.0,
        "experiments.bytes_written": written,
        "bench.op_s.p90": layers.p90(untraced_times),
        "bench.trace_overhead_frac": wall_traced / wall_untraced - 1.0,
    })


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "anisomax" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    reference_path = HERE / "reference" / f"{workload.name}.json"
    if not reference_path.is_file():
        return _fail(f"no reference file {reference_path}; run record.py")
    reference = json.loads(reference_path.read_text())["ops"]
    classes = {int(op_seed): ref["class"] for op_seed, ref in reference.items()}

    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        if args.setup_probe:
            setup(workload, args.seed, args.seconds, classes, work)
            print(READY, flush=True)
            return 0
        return measure(args, workload, argv, reference, classes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, argv: list, reference: dict, classes: dict,
            work: Path) -> int:
    import anisomax

    if Path(anisomax.__file__).resolve().parent != SRC / "anisomax":
        return _fail(f"imported anisomax from {anisomax.__file__}, not {SRC}")
    if args.trace == 0:
        setup_samples = measure_setup(argv, SETUP_REPEATS // 2)
        prepared = setup(workload, args.seed, args.seconds, classes, work)
        times, results, wall = run_pass(prepared)
        setup_samples += measure_setup(argv, SETUP_REPEATS - SETUP_REPEATS // 2)
        failed = count_failures(prepared, results, reference)
        attempted = len(prepared)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall, "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    else:
        from tracing import Tracer

        prepared = setup(workload, args.seed, args.seconds, classes,
                         work / "untraced")
        times, results, wall_untraced = run_pass(prepared)
        failed = count_failures(prepared, results, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced = setup(workload, args.seed, args.seconds, classes,
                           work / "traced")
            _, results, wall_traced = run_pass(traced, tracer)
            metrics = layer_metrics(tracer, traced, times, wall_untraced,
                                    wall_traced)
        finally:
            tracer.uninstall()
        failed += count_failures(traced, results, reference)
        attempted = 2 * len(prepared)
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload.name}-s{args.seed}.npz")

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"{'ops':<44} {attempted:>16d} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
