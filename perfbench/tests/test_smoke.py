"""Smoke test of the benchmark at a reduced size.

    python3 -m pytest perfbench/tests -q

Runs the benchmark command for one second of ops per workload, checks that
every metric named in BENCHMARK.json prints with its unit, that the
correctness check rejects outputs against a perturbed reference, and that
the command fails without the package source beside it.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())["ops"]


def test_declarations_agree():
    # BENCHMARK.json gates a subset; the rest run by hand (spec.json)
    names = list(workloads.WORKLOADS)
    assert names == list(SPEC["workloads"])
    assert {w["name"] for w in BENCH["workloads"]} <= set(names)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == list(layers.PER_LAYER)
    for name in names:
        ref = _reference(name)
        assert sorted(map(int, ref)) == list(range(workloads.WORKLOADS[name].pool))


@pytest.mark.parametrize("workload,trace", [
    ("decomposition", 0), ("weak-type", 0), ("decomposition", 1), ("pipeline", 1)])
def test_every_metric_prints_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


def _run_op(workload, op_seed, tmp_path):
    op = workloads.WORKLOADS[workload].make(op_seed)
    prep = ops.prepare(op_seed, op, 0, tmp_path)
    return ops.collect(prep, ops.execute(prep))


def test_check_rejects_perturbed_reference(tmp_path):
    # an experiment op: one float nudged past the tolerance, one tag flipped
    ref = _reference("surface-scan")["0"]["outputs"]
    got = _run_op("surface-scan", 0, tmp_path)
    assert check.compare(got, ref) == []

    text = ref["files"]["classification.csv"]
    row = text.splitlines()[1].split(",")
    worst = float(row[4])
    for factor, should_fail in ((1 + 10 * check.RTOL, True),
                                (1 + check.RTOL / 10, False)):
        bad = copy.deepcopy(ref)
        bad["files"]["classification.csv"] = text.replace(
            row[4], repr(worst * factor), 1)
        assert bool(check.compare(got, bad)) == should_fail, factor

    bad = copy.deepcopy(ref)
    bad["files"]["summary.txt"] = bad["files"]["summary.txt"].replace(
        "PASS", "FAIL", 1)
    assert check.compare(got, bad)

    # a decomposition op: any change to the discrete outputs is caught
    ref = _reference("decomposition")["0"]["outputs"]
    got = _run_op("decomposition", 0, tmp_path)
    assert check.compare(got, ref) == []
    bad = dict(ref, digest="0" * 16)
    assert check.compare(got, bad)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run("decomposition", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
