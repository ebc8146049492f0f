"""Record the reference outputs of every op in a workload's pool.

    python3 perfbench/record.py --workload pipeline [--workload ...]

Writes reference/<workload>.json: for each op seed, a digest of the op data,
its cost class and its outputs at the current commit.  Run it only when a
workload's ops change; run.py checks every op against this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ops  # noqa: E402
import workloads  # noqa: E402


def record(workload) -> dict:
    work = HERE / "_work" / f"record-{workload.name}-p{os.getpid()}"
    entries = {}
    try:
        for op_seed in range(workload.pool):
            op = workload.make(op_seed)
            # position 0 is never a mutation position
            prep = ops.prepare(op_seed, op, 0, work)
            outputs = ops.collect(prep, ops.execute(prep))
            entries[str(op_seed)] = {
                "spec": ops.spec_digest(op),
                "class": workload.cost_class(op_seed, outputs),
                "outputs": outputs,
            }
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "recorded_with": {"python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__},
        "ops": entries,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        data = record(workloads.WORKLOADS[name])
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(data['ops'])} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
