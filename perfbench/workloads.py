"""Seeded op generators for the benchmark workloads.

An op is plain data made from an integer op seed in [0, pool), so the
reference file can be keyed by op seed and the package sees only the
generated configs and inputs.  Each op also has a cost class, recorded with
its reference outputs (record.py); a run takes its ops round-robin over the
classes in a seeded order, so every run does a comparable amount of work
whatever its seed.
"""

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

DIAG24 = [[2.0, 0.0], [0.0, 4.0]]
DIAG42 = [[4.0, 0.0], [0.0, 2.0]]
LAM_RANGE = (0.1, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    op_s: float  # nominal seconds per op, used only to size the op list
    pool: int  # op seeds with a recorded reference
    make: Callable  # op seed -> op dict
    cost_class: Callable  # (op seed, reference outputs) -> int


def op_count(workload: Workload, seconds: float, n_classes: int) -> int:
    """Ops in a run of the given length, capped at the reference pool.

    Rounded down to the same number of ops from every cost class, so that
    the run's median op falls between the same classes whatever the seed.
    """
    want = round(seconds / workload.op_s)
    return min(workload.pool, max(n_classes, want - want % n_classes))


def op_seeds(workload: Workload, seed: int, seconds: float, classes: dict) -> list:
    """The run's distinct op seeds, balanced over cost classes, fixed by seed.

    classes maps each op seed of the pool to its recorded cost class.
    """
    rng = random.Random(seed)
    queues = {}
    for op_seed in range(workload.pool):
        queues.setdefault(classes[op_seed], []).append(op_seed)
    for queue in queues.values():
        rng.shuffle(queue)
    out = []
    want = op_count(workload, seconds, len(queues))
    while len(out) < want:
        order = sorted(c for c, queue in queues.items() if queue)
        rng.shuffle(order)
        for c in order[:want - len(out)]:
            out.append(queues[c].pop())
    return out


def _atom_list(rng, taus, index_bounds, profile):
    """Explicit atom rows; index_bounds(tau) gives the per-axis index range."""
    rows = []
    for tau in taus:
        lo, hi = index_bounds(tau)
        rows.append({
            "tau": int(tau),
            "index": [int(v) for v in rng.integers(lo, hi + 1, size=2)],
            "lam": float(rng.uniform(*LAM_RANGE)),
            "seed": int(rng.integers(2 ** 31)),
            "profile": profile,
        })
    return rows


def _inside(tau):
    # tau-0 cubes lie within [-3, 3]^2, so every measure node shifted by
    # A^k, k <= 0, lands on the [-4, 4]^2 lattice; finer atoms use the
    # default index span
    return (-3, 2) if tau == 0 else (-6, 6)


def _weak_type(op_seed: int) -> dict:
    rng = np.random.default_rng([1, op_seed])
    taus = [0, 0, -1, -1, -2, -3]
    return {
        "kind": "experiment",
        "experiment": "maximal-weak-type",
        "config": {
            "seed": op_seed,
            "atoms": {"list": _atom_list(rng, taus, _inside, "haar")},
        },
    }


def _spread(tau):
    # unit-tau cubes anywhere on the [-6, 6] lattice, so some sit away from
    # the mass that E is built around
    return (-6, 5) if tau == 0 else (-6, 6)


def _pipeline(op_seed: int) -> dict:
    rng = np.random.default_rng([2, op_seed])
    taus = [0, 0, 0, -1, -1, -1, -2, -2]
    return {
        "kind": "experiment",
        "experiment": "full-pipeline",
        "config": {
            "seed": op_seed,
            "matrix": DIAG42,
            "alpha": 16.0,
            "atoms": {"list": _atom_list(rng, taus, _spread, "bump")},
            "lattice": {"box": [[-6.0, 6.0], [-6.0, 6.0]], "shape": [512, 512]},
            "n_gl": 32,
        },
    }


SURFACE_SCANS = (
    {"surface": {"kind": "circle-arc"}, "matrix": DIAG24, "s_range": [0, 4]},
    {"surface": {"kind": "quartic-flat"}, "matrix": DIAG42, "s_range": [4, 13]},
)


def _tendrils(op_seed: int, outputs) -> int:
    # the mask costs one lattice pass per tendril primitive of E
    rows = outputs["files"]["exceptional_volume.csv"].splitlines()
    return min(4, sum(1 for row in rows if row.startswith("tendril,")))


def _surface_scan(op_seed: int) -> dict:
    rng = np.random.default_rng([3, op_seed])
    eps = 0.25
    config = dict(SURFACE_SCANS[op_seed % len(SURFACE_SCANS)])
    config.update({
        "seed": op_seed,
        "eps": eps,
        # zeta = eps/8 within 2%: distinct thresholds, same work per op
        "zeta": float(eps / 8.0 * rng.uniform(0.98, 1.02)),
    })
    return {"kind": "experiment", "experiment": "surface-classify",
            "config": config}


DECOMP_SIZES = ((1, 10), (11, 20), (21, 30), (31, 40), (41, 50))


def _decomposition_class(op_seed: int, outputs=None) -> int:
    return op_seed % (2 * len(DECOMP_SIZES))


def _decomposition(op_seed: int) -> dict:
    """A criterion 1-2 style mass instance: 1-50 entries, spread alpha."""
    rng = np.random.default_rng([4, op_seed])
    stratum = _decomposition_class(op_seed)
    matrix = (DIAG24, DIAG42)[stratum % 2]
    lo, hi = DECOMP_SIZES[stratum // 2]
    n = int(rng.integers(lo, hi + 1))
    alpha = float(10.0 ** rng.uniform(-0.5, 0.5))
    entries = []
    for _ in range(n):
        tau = int(rng.integers(-6, 1))
        index = [int(v) for v in rng.integers(-6, 7, size=2)]
        ratio = float(10.0 ** rng.uniform(-2.0, 1.3))
        entries.append({"tau": tau, "index": index, "ratio": ratio})
    return {"kind": "decomposition", "seed": op_seed, "matrix": matrix,
            "alpha": alpha, "entries": entries}


# why each workload exists and which inputs its ops share: spec.json
WORKLOADS = {w.name: w for w in (
    Workload("weak-type", op_s=2.2, pool=32, make=_weak_type,
             cost_class=lambda op_seed, outputs: 0),
    Workload("pipeline", op_s=2.4, pool=48, make=_pipeline,
             cost_class=_tendrils),
    Workload("surface-scan", op_s=2.0, pool=32, make=_surface_scan,
             cost_class=lambda op_seed, outputs: op_seed % len(SURFACE_SCANS)),
    Workload("decomposition", op_s=0.08, pool=800, make=_decomposition,
             cost_class=_decomposition_class),
)}

# every MUTATE_EVERY-th op of a decomposition run also re-verifies a kappa
# assignment forced below its hosts, which the verifier must reject
MUTATE_EVERY = 4
