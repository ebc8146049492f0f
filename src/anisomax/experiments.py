"""Named experiments over the modules, with manifest, CSVs, and summary.

Each experiment reads everything from an ExperimentConfig, writes its
artifacts into the configured output directory, and reports pass/fail
lines.  Outputs are deterministic for a fixed config and seed: floats
are serialized with repr, no timestamps are recorded, and all random
draws flow from the configured seed.
"""

import json
import platform
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .decomposition import (
    C_IV,
    C_STOP,
    C_W,
    STOPPING_SAMPLES,
    CheckReport,
    exceptional_volume,
    stopping_time,
    verify_stopping,
    verify_whitney,
    whitney_decompose,
)
from .dilation import SCAN_LIMIT, _left_sum, cube_diameter, fit_diameter_exponent
from .errors import ConfigInvalidError, TailNotNegligibleWarning
from .maximal import (
    THRESHOLD_COUNT,
    THRESHOLD_FLOOR,
    TAIL_FRACTION,
    _excluded_mask,
    make_lattice,
    weak_type_report,
    weak_type_reports,
    write_field_binary,
)
from .surface import (
    DECAY_N_SHELLS,
    DECAY_SLOPE_CUT,
    FINE_POINTS,
    KERNEL_BINS,
    KERNEL_SMOOTH_CELLS,
    PIECE_BOUND_FACTOR,
    PIECE_GL_NODES,
    autocorrelation_kernel,
    check_kernel_decay,
    classify_pieces,
    fit_excluded_growth,
    partition_measure,
    surface_quadrature,
)

# first and last tau of the diameter-growth fit in validate-dilation
DIAMETER_FIT_TAU = (-40, -10)

MODULE_CONSTANTS = {
    "c_iv": C_IV,
    "c_stop": C_STOP,
    "c_w": C_W,
    "classify_fine_points": FINE_POINTS,
    "decay_n_shells": DECAY_N_SHELLS,
    "decay_slope_cut": DECAY_SLOPE_CUT,
    "diameter_fit_tau": list(DIAMETER_FIT_TAU),
    "kernel_bins": KERNEL_BINS,
    "kernel_smooth_cells": KERNEL_SMOOTH_CELLS,
    "maximal_tail_fraction": TAIL_FRACTION,
    "maximal_threshold_count": THRESHOLD_COUNT,
    "maximal_threshold_floor": THRESHOLD_FLOOR,
    "partition_cap_spread": "1/(2 sqrt(2 (d-1)))",
    "piece_bound_factor": PIECE_BOUND_FACTOR,
    "piece_gl_nodes": PIECE_GL_NODES,
    "power_scan_window": SCAN_LIMIT,
    "stopping_samples": STOPPING_SAMPLES,
}


# ------------------------------------------------------------- plumbing


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _joined(vector) -> str:
    parts = np.atleast_1d(np.asarray(vector)).tolist()
    return ";".join(repr(float(v)) for v in parts)


def _index_str(index) -> str:
    return ";".join(str(int(v)) for v in index)


def _write_manifest(out: Path, config, experiment: str) -> None:
    # the one reader of scipy here: a process that writes no manifest (a
    # benchmark op that calls the decompositions) never loads it
    import scipy

    manifest = {
        "experiment": experiment,
        "seed": config.seed,
        "config": config.as_dict(),
        "module_constants": MODULE_CONSTANTS,
        "versions": {
            "anisomax": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
    }
    out.joinpath("manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run_experiment(config, experiment: str) -> int:
    """Run one named experiment; 0 when every summary line passes."""
    if experiment not in EXPERIMENT_NAMES:
        raise ConfigInvalidError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENT_NAMES}")
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalidError(
            f"cannot create the output directory {str(out)!r}: {exc.strerror}")
    runner = _RUNNERS[experiment]
    summary = CheckReport()
    runner(config, out, summary)
    out.joinpath("summary.txt").write_text(summary.render())
    _write_manifest(out, config, experiment)
    return 0 if summary.passed else 1


# ---------------------------------------------------------- experiments


def _run_validate_dilation(config, out: Path, summary: CheckReport) -> None:
    D = config.dilation()
    summary.add("dilation_valid", True,
                f"a={D.det_scale:g}, r={D.r_min:g}, n={D.block_size}, "
                f"norm_power={D.norm_power}")
    fit_lo, fit_hi = DIAMETER_FIT_TAU
    taus = list(range(fit_lo, 1))
    _write_csv(out / "diameters.csv", ["tau", "diameter"],
               [(t, cube_diameter(D, t)) for t in taus])
    p = fit_diameter_exponent(D, range(fit_lo, fit_hi + 1))
    summary.add("diameter_exponent", True,
                f"p={p!r} over tau in [{fit_lo},{fit_hi}]")


def _run_whitney(config, out: Path, summary: CheckReport) -> None:
    entries = config.entries()
    alpha = config.alpha
    result = whitney_decompose(entries, alpha)
    report = verify_whitney(result, entries, alpha)
    rows = [(S.tau, _index_str(S.index), S.volume,
             _left_sum(entries[i][1] for i, j in result.assigned.items() if j == sid))
            for sid, S in enumerate(result.selected)]
    _write_csv(out / "selected.csv",
               ["tau", "index", "volume", "assigned_mass"], rows)
    summary.add("selection", True,
                f"{len(result.selected)} cubes from {len(entries)} entries, "
                f"alpha={alpha!r}")
    summary.checks.extend(report.checks)


def _pipeline_decomposition(config, f):
    """f's entries -> Whitney -> kept entries -> stopping, shared by two runs."""
    entries = [(atom.support, lam) for atom, lam in f.terms]
    alpha = config.alpha
    wres = whitney_decompose(entries, alpha)
    wrep = verify_whitney(wres, entries, alpha)
    if not wres.selected:
        return entries, wres, wrep, None, None, []
    kept = [entries[i] for i in sorted(wres.assigned)]
    sres = stopping_time(wres.selected, kept, alpha)
    srep = verify_stopping(sres, wres.selected, kept, alpha, seed=config.seed)
    return entries, wres, wrep, sres, srep, kept


def _stopping_rows(sres, kept):
    """Per-entry kappa rows, the kappa histogram and the exceptional
    primitives' volume terms of a stopping result; all empty when no
    Whitney cube was selected (sres is None)."""
    if sres is None:
        return [], [], []
    per_entry = []
    for i, (cube, lam) in enumerate(kept):
        per_entry.append((i, cube.tau, _index_str(cube.index), lam,
                          sres.kappa[i], sres.classification[i]))
    values = sorted(set(sres.kappa.values()))
    hist = [(k, sum(1 for v in sres.kappa.values() if v == k)) for k in values]
    return per_entry, hist, [(p.kind, p.volume_term) for p in sres.exceptional]


def _run_stopping(config, out: Path, summary: CheckReport) -> None:
    entries, wres, wrep, sres, srep, kept = _pipeline_decomposition(
        config, config.atomic_sum())
    summary.add("whitney", wrep.passed,
                f"{len(wres.selected)} cubes from {len(entries)} entries")
    per_entry, hist, volumes = _stopping_rows(sres, kept)
    _write_csv(out / "kappa.csv",
               ["entry", "tau", "index", "lam", "kappa", "class"], per_entry)
    _write_csv(out / "kappa_hist.csv", ["kappa", "count"], hist)
    _write_csv(out / "exceptional.csv", ["kind", "volume_term"], volumes)
    if sres is None:
        summary.add("stopping", True, "no cubes selected; nothing to stop")
    else:
        summary.checks.extend(srep.checks)


def _run_surface_classify(config, out: Path, summary: CheckReport) -> None:
    surface = config.surface_obj()
    D = config.dilation()
    s_values = config.s_values()
    rows = []
    counts = []
    for s in s_values:
        pieces = partition_measure(surface, s, config.eps)
        records = classify_pieces(pieces, surface, D, config.eps, config.zeta)
        excluded = sum(1 for r in records if r.excluded)
        counts.append(excluded)
        summary.add(f"scale_s{s}", True,
                    f"{len(records)} pieces, {excluded} excluded")
        for r in records:
            rows.append((r.s, r.rho, _joined(r.center), r.min_curvature,
                         r.worst_mass_ratio, r.worst_tau,
                         int(r.in_I1), int(r.in_I2)))
    _write_csv(out / "classification.csv",
               ["s", "rho", "center", "min_curvature", "worst_mass_ratio",
                "worst_tau", "in_I1", "in_I2"], rows)
    if len(set(s_values)) >= 5:
        growth = fit_excluded_growth(surface.dim, config.eps, s_values, counts)
        summary.add("excluded_growth", True,
                    f"eta={growth.eta!r}, counts={growth.counts}")


def _run_kernel_decay(config, out: Path, summary: CheckReport) -> None:
    surface = config.surface_obj()
    measure = surface_quadrature(surface, config.n_gl)
    kernel = autocorrelation_kernel(measure)
    report = check_kernel_decay(kernel)
    _write_csv(out / "shells.csv", ["radius", "maximum"],
               list(zip(report.radii, report.maxima)))
    summary.add("kernel_decay", report.ok,
                f"slope={report.slope!r} over {len(report.radii)} shells")


def _run_maximal_weak_type(config, out: Path, summary: CheckReport) -> None:
    f = config.atomic_sum()
    if not f.terms:
        raise ConfigInvalidError("maximal-weak-type needs a nonempty atom list")
    measure = surface_quadrature(config.surface_obj(), config.n_gl)
    lattice = make_lattice(config.lattice["box"], tuple(config.lattice["shape"]))
    k_range = tuple(int(v) for v in config.k_range)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        mf, report, ratio = weak_type_report(f, measure, k_range, lattice)
    rows = []
    if report is not None:
        rows = [(lam, mu, lam * mu) for lam, mu
                in zip(report.thresholds, report.measures)]
    _write_csv(out / "distribution.csv",
               ["threshold", "size", "product"], rows)
    write_field_binary(mf, out / "maximal_field.bin")
    tails = mf.provenance["tail_fractions"]
    summary.add("weak_type_ratio", ratio <= C_STOP,
                f"ratio={ratio!r} over {THRESHOLD_COUNT} thresholds")
    summary.add("range_tails", True,
                f"end fractions {tails[0]!r}, {tails[1]!r}")


def _run_full_pipeline(config, out: Path, summary: CheckReport) -> None:
    f = config.atomic_sum()
    if not f.terms:
        raise ConfigInvalidError("full-pipeline needs a nonempty atom list")
    alpha = config.alpha
    entries, wres, wrep, sres, srep, kept = _pipeline_decomposition(config, f)
    summary.add("whitney", wrep.passed,
                f"{len(wres.selected)} cubes from {len(entries)} entries")
    _, hist, volumes = _stopping_rows(sres, kept)
    _write_csv(out / "kappa_hist.csv", ["kappa", "count"], hist)
    _write_csv(out / "exceptional_volume.csv", ["kind", "volume_term"], volumes)
    exclude = []
    if sres is None:
        summary.add("stopping", True, "no cubes selected; E is empty")
    else:
        summary.add("stopping", srep.passed,
                    "; ".join(n for n, _ in srep.failures()) or "all checks hold")
        e_volume, bound = exceptional_volume(sres, wres.selected, kept, alpha)
        summary.add("exceptional_volume", e_volume <= bound,
                    f"sum={e_volume!r} vs bound={bound!r}")
        exclude = [p.region() for p in sres.exceptional]

    surface = config.surface_obj()
    s0 = config.s_values()[0]
    pieces = partition_measure(surface, s0, config.eps)
    records = classify_pieces(pieces, surface, f.dilation, config.eps, config.zeta)
    _write_csv(out / "pieces.csv",
               ["s", "rho", "min_curvature", "worst_mass_ratio",
                "in_I1", "in_I2"],
               [(r.s, r.rho, r.min_curvature, r.worst_mass_ratio,
                 int(r.in_I1), int(r.in_I2)) for r in records])
    usable = sum(1 for r in records if not r.excluded)
    summary.add("piece_split", True,
                f"s={s0}: {usable} of {len(records)} pieces kept")

    measure = surface_quadrature(surface, config.n_gl)
    lattice = make_lattice(config.lattice["box"], tuple(config.lattice["shape"]))
    excluded = _excluded_mask(lattice, exclude)
    k_range = tuple(int(v) for v in config.k_range)
    cap = C_STOP / alpha
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        reports = weak_type_reports(f, measure, k_range, lattice,
                                    excluded=excluded)
    rows = [(key, len(part.terms), part.h1_norm(), ratio)
            for key, (part, _, _, ratio) in reports.items()]
    _write_csv(out / "weak_type.csv", ["tau", "atoms", "h1", "ratio"], rows)
    total = reports["all"][3]
    summary.add("weak_type_outside_E", all(row[3] <= cap for row in rows),
                f"overall ratio={total!r} vs cap={cap!r}")


_RUNNERS = {
    "validate-dilation": _run_validate_dilation,
    "whitney": _run_whitney,
    "stopping": _run_stopping,
    "surface-classify": _run_surface_classify,
    "kernel-decay": _run_kernel_decay,
    "maximal-weak-type": _run_maximal_weak_type,
    "full-pipeline": _run_full_pipeline,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)
