"""Turn op data into package calls, run them, and collect their outputs.

Every call into the package goes through a module attribute
(``config.load_config``, ``decomposition.whitney_decompose``, ...) so that a
traced run, which replaces those attributes, sees each call.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from anisomax import config, decomposition, dilation, experiments, grid, maximal

from workloads import MUTATE_EVERY

FIELD_FILE = "maximal_field.bin"
# manifest.json records interpreter and library versions, not op outputs;
# the binary field is compared through its peak and norms
SKIPPED_FILES = ("manifest.json", FIELD_FILE)


def spec_digest(op: dict) -> str:
    return hashlib.sha256(json.dumps(op, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Prepared:
    op_seed: int
    op: dict
    mutate: bool
    out_dir: Path = None
    cfg: object = None
    entries: list = None


def prepare(op_seed: int, op: dict, position: int, work: Path) -> Prepared:
    """Write and load the op's config, or build its mass instance."""
    mutate = op["kind"] == "decomposition" and position % MUTATE_EVERY == MUTATE_EVERY - 1
    prep = Prepared(op_seed=op_seed, op=op, mutate=mutate)
    if op["kind"] == "experiment":
        op_dir = work / f"op{position:04d}"
        op_dir.mkdir(parents=True, exist_ok=True)
        path = op_dir / "config.yaml"
        path.write_text(yaml.safe_dump(op["config"], sort_keys=True))
        prep.out_dir = op_dir / "out"
        prep.cfg = config.load_config(path, out_dir=prep.out_dir)
    else:
        D = dilation.validate_dilation(op["matrix"])
        entries = []
        for row in op["entries"]:
            cube = grid.GridCube(0, row["tau"], tuple(row["index"]), D)
            entries.append((cube, op["alpha"] * cube.volume * row["ratio"]))
        prep.entries = entries
    return prep


def execute(prep: Prepared):
    """The timed part of an op; returns what collect() needs."""
    if prep.op["kind"] == "experiment":
        return experiments.run_experiment(prep.cfg, prep.op["experiment"])
    alpha, entries = prep.op["alpha"], prep.entries
    wres = decomposition.whitney_decompose(entries, alpha)
    wrep = decomposition.verify_whitney(wres, entries, alpha, c_w=16.0)
    if not wres.selected:
        return wres, wrep, None, None, None
    kept = [entries[i] for i in sorted(wres.assigned)]
    sres = decomposition.stopping_time(wres.selected, kept, alpha)
    srep = decomposition.verify_stopping(sres, wres.selected, kept, alpha,
                                         C=100.0, C_iv=32.0, seed=prep.op_seed)
    mrep = None
    if prep.mutate:
        # an entry forced below every selected cube must fail the host check
        saved = dict(sres.kappa)
        sres.kappa[max(sres.kappa)] = -100
        mrep = decomposition.verify_stopping(sres, wres.selected, kept, alpha,
                                             C=100.0, C_iv=32.0, seed=prep.op_seed)
        sres.kappa = saved
    return wres, wrep, sres, srep, mrep


def collect(prep: Prepared, result) -> dict:
    """The op's outputs in the form the reference file stores."""
    if prep.op["kind"] == "experiment":
        files = {}
        for path in sorted(prep.out_dir.iterdir()):
            if path.name in SKIPPED_FILES:
                continue
            files[path.name] = path.read_text()
        out = {"status": int(result), "files": files}
        if (prep.out_dir / FIELD_FILE).exists():
            field = maximal.read_field_binary(prep.out_dir / FIELD_FILE)
            values = field.values
            cell = field.lattice.cell_volume
            out["field"] = [float(values.max()), float(np.abs(values).sum() * cell),
                            float(np.sqrt((values ** 2).sum() * cell))]
        return out
    wres, wrep, sres, srep, mrep = result
    discrete = {
        "selected": [(S.tau, S.index) for S in wres.selected],
        "assigned": sorted(wres.assigned.items()),
        "leftover": wres.leftover,
        "whitney_checks": [(n, ok) for n, ok, _ in wrep.checks],
    }
    if sres is not None:
        discrete.update({
            "kappa": sorted(sres.kappa.items()),
            "classification": sorted(sres.classification.items()),
            "exceptional": [(p.kind, p.cube.sigma, p.cube.tau, p.cube.index)
                            for p in sres.exceptional],
            "stopping_checks": [(n, ok) for n, ok, _ in srep.checks],
        })
    digest = hashlib.sha256(json.dumps(discrete).encode()).hexdigest()[:16]
    return {
        "digest": digest,
        "verified": bool(wrep.passed and (srep is None or srep.passed)),
        "mutated_rejected": None if mrep is None else (not mrep.passed),
    }
