"""Config loading, experiment runners, and the command-line interface."""

import collections
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from pytest import approx

from anisomax.atoms import AtomicSum
from anisomax.cli import main
from anisomax.config import DEFAULTS, load_config
from anisomax import config as anisomax_config
from anisomax import experiments, maximal
from anisomax.decomposition import stopping_time, whitney_decompose
from anisomax.errors import (
    ConfigInvalidError,
    TailNotNegligibleWarning,
    WindowExhaustedError,
)
from anisomax.experiments import run_experiment
from anisomax.grid import Parallelepiped, TendrilBound
from anisomax.maximal import _excluded_mask, make_lattice, weak_type_report
from anisomax.surface import surface_quadrature

FAST = [
    "--override", "atoms.count=3",
    "--override", "atoms.index_span=1",
    "--override", "atoms.tau_range=[-1,0]",
    "--override", "lattice.box=[[-2,2],[-2,2]]",
    "--override", "lattice.shape=[128,128]",
    "--override", "k_range=[-2,2]",
    "--override", "n_gl=48",
]


# ------------------------------------------------------------------ config


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg.matrix == [[2.0, 0.0], [0.0, 4.0]]
    assert cfg.eps == approx(0.25)
    assert cfg.dilation().det_scale == approx(8.0)
    assert cfg.surface_obj().catalog_id == "circle-arc"
    assert cfg.s_values() == list(range(4, 17))


def test_yaml_file_and_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("matrix: [[4.0, 0.0], [0.0, 2.0]]\neps: 0.2\n")
    cfg = load_config(path, overrides=["surface.kind=quartic-flat",
                                       "atoms.count=5"],
                      seed=11, out_dir=tmp_path / "out")
    assert cfg.matrix == [[4.0, 0.0], [0.0, 2.0]]
    assert cfg.eps == approx(0.2)
    assert cfg.surface["kind"] == "quartic-flat"
    assert cfg.atoms["count"] == 5
    assert cfg.seed == 11
    f = cfg.atomic_sum()
    assert len(f.terms) == 5
    assert f.dilation.matrix[0, 0] == approx(4.0)


def test_atomic_sum_is_seed_stable():
    one = load_config(None, seed=3).atomic_sum()
    two = load_config(None, seed=3).atomic_sum()
    assert [(a.support.tau, a.support.index) for a, _ in one.terms] == \
           [(a.support.tau, a.support.index) for a, _ in two.terms]
    assert [lam for _, lam in one.terms] == [lam for _, lam in two.terms]


def test_explicit_atom_list():
    cfg = load_config(None, overrides=[
        "atoms.list=[{tau: 0, index: [0, 0], lam: 1.5, profile: haar}]"])
    f = cfg.atomic_sum()
    assert len(f.terms) == 1
    atom, lam = f.terms[0]
    assert atom.support.tau == 0 and lam == approx(1.5)


def test_custom_polynomial_coeff_keys():
    cfg = load_config(None, overrides=[
        "surface.kind=custom-polynomial", 'surface.coeffs={"4": 1.0}'])
    assert cfg.surface_obj().catalog_id == "custom-polynomial"


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["not_a_key=1"])
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["matrix=[[1,0],[0,1]]"])  # not expanding
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["eps=-0.1"])
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["k_range=[3,1]"])
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["lattice.shape=[0,4]"])
    with pytest.raises(ConfigInvalidError, match="lam_range"):
        load_config(None, overrides=["atoms.lam_range=[2.0,1.0]"])
    # a short window would crash classify_pieces and an inverted one would
    # leave its tau loop empty, a vacuous PASS; a negative seed or span
    # would reach numpy as a ValueError
    for bad in ("tau_window=[3]", "tau_window=[0,-5]", "tau_window=[0.5,1]",
                "seed=-1", "atoms.seed=-2", "atoms.index_span=-3",
                'atoms.list=[{tau: 0, index: [0, 0], lam: 1.0, seed: -4}]'):
        with pytest.raises(ConfigInvalidError):
            load_config(None, overrides=[bad])
    with pytest.raises(ConfigInvalidError):
        load_config(None, overrides=["badly formed"])
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigInvalidError):
        load_config(bad)
    with pytest.raises(ConfigInvalidError):
        load_config(tmp_path / "missing.yaml")


DIAG234 = "matrix=[[2,0,0],[0,3,0],[0,0,4]]"


def test_config_dimensions_must_agree():
    with pytest.raises(ConfigInvalidError, match="dimensions disagree"):
        load_config(None, overrides=[DIAG234])
    with pytest.raises(ConfigInvalidError, match="dimensions disagree"):
        load_config(None, overrides=["lattice.box=[[-1,1],[-1,1],[-1,1]]",
                                     "lattice.shape=[8,8,8]"])
    cfg = load_config(None, overrides=[
        DIAG234, "surface.kind=paraboloid", "surface.dim=3",
        "lattice.box=[[-1,1],[-1,1],[-1,1]]", "lattice.shape=[8,8,8]"])
    assert cfg.dilation().dim == 3


def test_run_experiment_rejects_unknown_name(tmp_path):
    cfg = load_config(None, out_dir=tmp_path)
    with pytest.raises(ConfigInvalidError):
        run_experiment(cfg, "no-such-experiment")


# --------------------------------------------------------------------- cli


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


def test_cli_validate_dilation(tmp_path):
    out = tmp_path / "vd"
    res = _run(["run", "--experiment", "validate-dilation", "--out", str(out)])
    assert res.exit_code == 0
    assert "a=8, r=2, n=1, norm_power=1" in res.output
    assert (out / "diameters.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "validate-dilation"
    assert manifest["seed"] == 7
    assert manifest["config"]["eps"] == approx(0.25)
    assert "numpy" in manifest["versions"]
    assert manifest["module_constants"] == {
        "c_iv": 32.0,
        "c_stop": 100.0,
        "c_w": 16.0,
        "classify_fine_points": 4096,
        "decay_n_shells": 12,
        "decay_slope_cut": -0.7,
        "diameter_fit_tau": [-40, -10],
        "kernel_bins": 255,
        "kernel_smooth_cells": 1.0,
        "maximal_tail_fraction": 0.01,
        "maximal_threshold_count": 64,
        "maximal_threshold_floor": 0.001,
        "partition_cap_spread": "1/(2 sqrt(2 (d-1)))",
        "piece_bound_factor": 64.0,
        "piece_gl_nodes": 24,
        "power_scan_window": 64,
        "stopping_samples": 1000,
    }


def test_cli_whitney_empty_atoms(tmp_path):
    out = tmp_path / "wh"
    res = _run(["run", "--experiment", "whitney", "--out", str(out),
                "--override", "atoms.count=0"])
    assert res.exit_code == 0
    assert "RESULT PASS" in res.output
    assert (out / "selected.csv").read_text() == \
        "tau,index,volume,assigned_mass\n"


def test_cli_exit_code_config_error(tmp_path):
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", "matrix=[[1,0],[0,1]]"])
    assert res.exit_code == 2
    res = _run(["run", "--experiment", "nonsense", "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("override", [
    "eps=.inf", "zeta=.nan", "alpha=.inf", "alpha=.nan",
    "atoms.lam_range=[0.1, .inf]", "atoms.lam_range=[.nan, 1.0]",
    "atoms.list=[{tau: 0, index: [0, 0], lam: .inf}]",
    "atoms.list=[{tau: 0, index: [0, 0], lam: .nan}]",
])
def test_non_finite_numbers_are_config_errors(override):
    # nan fails every comparison and inf passes every lower bound, so each
    # would reach the decompositions or the fits as a number no check holds
    with pytest.raises(ConfigInvalidError, match="finite"):
        load_config(None, overrides=[override])


def test_cli_infinite_alpha_is_a_config_error(tmp_path):
    # it used to reach whitney_decompose and die there with an OverflowError
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", "alpha=.inf"])
    assert res.exit_code == 2
    assert "positive and finite" in res.output


def test_cli_short_tau_window_is_a_config_error(tmp_path):
    res = _run(["run", "--experiment", "surface-classify", "--out", str(tmp_path),
                "--override", "tau_window=[3]"])
    assert res.exit_code == 2
    assert "config error" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("override, field", [
    ("k_range=[-2.5,2]", "k_range"),
    ("s_range=[4.9,5.2]", "s_range"),
    ("atoms.count=2.7", "atoms.count"),
    ("lattice.shape=[64.5,64]", "lattice.shape"),
    ("n_gl=100.5", "n_gl"),
    ("n_gl=40.0", "n_gl"),
    ("surface.dim=2.5", "surface.dim"),
    ("surface.coeffs={'4.5': 1.0}", "surface.coeffs"),
    ("atoms.index_span=2.5", "atoms.index_span"),
    ("atoms.tau_range=[-2.5,0]", "atoms.tau_range"),
    ("atoms.list=[{tau: -1.5, index: [0, 0], lam: 1.0}]", "atoms.list[0]"),
    ("atoms.list=[{tau: 0, index: [0.5, 0], lam: 1.0}]", "atoms.list[0]"),
])
def test_cli_non_integer_count_field_is_a_config_error(tmp_path, override, field):
    # int() would truncate these where they are used (k in -2..2, s in
    # [4, 5], 2 atoms, 64 cells, a tau of -1), leaving the manifest a value
    # the run did not use, or they die in numpy with exit 1 (n_gl, a
    # coefficient key), so each is rejected as tau_window is
    res = _run(["run", "--experiment", "validate-dilation", "--out", str(tmp_path),
                "--override", override])
    assert res.exit_code == 2
    assert "config error" in res.output and field in res.output
    assert "Traceback" not in res.output
    whole = override.split("=")[0] + "=" + re.sub(r"\.\d+", "", override.split("=")[1])
    assert load_config(None, overrides=[whole])


def test_cli_rejects_a_constant_nothing_reads(tmp_path):
    # the manifest records the config, so a key no code reads is refused
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", "constants.c_pair=64"])
    assert res.exit_code == 2
    assert "unknown config key: constants" in res.output
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("source", ["override", "yaml"])
@pytest.mark.parametrize("override", [
    "constants.c_w=16.0", "constants.c_w=.inf", "constants.c_iv=.nan",
    "n_bins=255", "n_bins=100.5",
])
def test_cli_rejects_a_removed_constant_as_unknown(tmp_path, override, source):
    # C_W, C_STOP, C_IV and KERNEL_BINS are module constants, recorded in
    # the manifest's module_constants; a config that sets one, to its own
    # value or to any other, is refused before anything runs
    key, _, value = override.partition("=")
    top, *sub = key.split(".")
    out = tmp_path / "out"
    args = ["run", "--experiment", "whitney", "--out", str(out)]
    if source == "override":
        args += ["--override", override]
    else:
        path = tmp_path / "run.yaml"
        path.write_text(f"{top}: {{{sub[0]}: {value}}}\n" if sub else f"{top}: {value}\n")
        args += ["--config", str(path)]
    res = _run(args)
    assert res.exit_code == 2
    assert f"unknown config key: {top}" in res.output
    assert not (out / "manifest.json").exists()


def test_cli_exit_code_dimension_mismatch(tmp_path):
    res = _run(["run", "--experiment", "maximal-weak-type",
                "--out", str(tmp_path), "--override", DIAG234])
    assert res.exit_code == 2
    assert "dimensions disagree" in res.output


def test_cli_exit_code_zero_weight_atoms(tmp_path):
    # ||f|| = 0 would make every weak-type ratio 0 and pass vacuously
    res = _run(["run", "--experiment", "maximal-weak-type",
                "--out", str(tmp_path),
                "--override", "atoms.lam_range=[0.0,0.0]",
                "--override", "atoms.count=3",
                "--override", "atoms.tau_range=[0,0]",
                "--override", "lattice.shape=[128,128]",
                "--override", "n_gl=32"])
    assert res.exit_code == 2
    assert "lam_range" in res.output
    assert "PASS" not in res.output


def test_cli_exit_code_zero_weight_list_row(tmp_path):
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(tmp_path),
                "--override", "atoms.list=[{tau: 0, index: [0, 0], lam: 1.0},"
                " {tau: -1, index: [2, 0], lam: 0.0}]"])
    assert res.exit_code == 2
    assert "lam > 0" in res.output
    assert "PASS" not in res.output


def test_cli_exit_code_not_normalized(tmp_path):
    # 1.5 I needs two steps to contract by half, so it has no tendril bounds
    res = _run(["run", "--experiment", "stopping", "--out", str(tmp_path),
                "--override", "matrix=[[1.5,0],[0,1.5]]"])
    assert res.exit_code == 2
    assert "norm_power" in res.output


def test_cli_exit_code_numerical_failure(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise WindowExhaustedError("no level in the scan window")

    monkeypatch.setattr(experiments, "fit_diameter_exponent", fail)
    res = _run(["run", "--experiment", "validate-dilation",
                "--out", str(tmp_path)])
    assert res.exit_code == 4
    assert "numerical failure" in res.output


def test_cli_exit_code_budget(tmp_path):
    res = _run(["run", "--experiment", "surface-classify",
                "--out", str(tmp_path), "--override", "s_range=[80,84]"])
    assert res.exit_code == 3


def test_cli_exit_code_cube_keys_past_exact_floats(tmp_path):
    res = _run(["run", "--experiment", "surface-classify",
                "--out", str(tmp_path), "--override", "s_range=[0,4]",
                "--override", "tau_window=[-40,-20]"])
    assert res.exit_code == 2
    assert "2^53" in res.output
    assert "PASS" not in res.output


def test_cli_surface_classify_growth_fits_the_printed_counts(tmp_path):
    # the growth line must fit the counts of the scale lines, which honour
    # tau_window, not a second classification under the default window
    res = _run(["run", "--experiment", "surface-classify",
                "--out", str(tmp_path), "--override", "s_range=[0,4]",
                "--override", "tau_window=[0,0]"])
    assert res.exit_code == 0, res.output
    printed = [int(v) for v in re.findall(r"(\d+) excluded", res.output)]
    assert len(printed) == 5
    fitted = re.search(r"counts=\[([^\]]*)\]", res.output).group(1)
    assert [int(v) for v in fitted.split(",")] == printed


def test_cli_out_dir_precedence(tmp_path):
    env_dir = tmp_path / "from_env"
    res = _run(["run", "--experiment", "validate-dilation"],
               env={"ANISOMAX_OUT": str(env_dir)})
    assert res.exit_code == 0
    assert (env_dir / "summary.txt").exists()
    flag_dir = tmp_path / "from_flag"
    res = _run(["run", "--experiment", "validate-dilation",
                "--out", str(flag_dir)],
               env={"ANISOMAX_OUT": str(tmp_path / "ignored")})
    assert res.exit_code == 0
    assert (flag_dir / "summary.txt").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_seeded_reruns_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / name for name in ("one", "two", "three"))
    for out in (a, b):
        res = _run(["run", "--experiment", "stopping", "--out", str(out),
                    "--seed", "21"])
        assert res.exit_code == 0
    for name in ("kappa.csv", "kappa_hist.csv", "exceptional.csv",
                 "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    res = _run(["run", "--experiment", "stopping", "--out", str(c),
                "--seed", "22"])
    assert res.exit_code == 0
    assert (a / "kappa.csv").read_bytes() != (c / "kappa.csv").read_bytes()


def test_cli_maximal_weak_type_small(tmp_path):
    out = tmp_path / "mw"
    res = _run(["run", "--experiment", "maximal-weak-type",
                "--out", str(out)] + FAST)
    assert res.exit_code == 0
    assert "weak_type_ratio" in res.output
    assert (out / "maximal_field.bin").read_bytes()[:8] == b"ANISOFLD"
    lines = (out / "distribution.csv").read_text().strip().split("\n")
    assert lines[0] == "threshold,size,product"
    assert len(lines) == 65


def test_cli_full_pipeline_small(tmp_path):
    out = tmp_path / "fp"
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(out),
                "--override", "alpha=16.0", "--override", "s_range=[4,4]"]
               + FAST)
    assert res.exit_code == 0, res.output
    assert "RESULT PASS" in res.output
    rows = (out / "weak_type.csv").read_text().strip().split("\n")
    assert rows[0] == "tau,atoms,h1,ratio"
    assert rows[-1].startswith("all,")
    assert (out / "kappa_hist.csv").exists()
    assert (out / "exceptional_volume.csv").exists()
    assert (out / "pieces.csv").exists()


# diag(4, 2) at alpha = 16: the tau = -2 atom is heavy enough to select a
# cube, and its exceptional set covers part of the [-6, 6]^2 lattice; 384
# cells a side keep the spacing under an eighth of that atom's diameter,
# as the resolution guard requires
MASKED_PIPELINE = [
    "--override", "matrix=[[4.0, 0.0], [0.0, 2.0]]",
    "--override", "alpha=16.0",
    "--override", "atoms.list=[{tau: 0, index: [-1, 0], lam: 1.4, profile: bump},"
                  " {tau: -2, index: [5, -3], lam: 1.2, profile: bump}]",
    "--override", "lattice.box=[[-6, 6], [-6, 6]]",
    "--override", "lattice.shape=[384, 384]",
    "--override", "k_range=[-2, 2]",
    "--override", "n_gl=48",
    "--override", "s_range=[4, 4]",
]


def _masked_pipeline_lattice():
    """The MASKED_PIPELINE config, its lattice and the cell mask of its E."""
    cfg = load_config(None, overrides=MASKED_PIPELINE[1::2])
    entries = cfg.entries()
    wres = whitney_decompose(entries, cfg.alpha)
    kept = [entries[i] for i in sorted(wres.assigned)]
    exceptional = stopping_time(wres.selected, kept, cfg.alpha).exceptional
    lattice = make_lattice(cfg.lattice["box"], tuple(cfg.lattice["shape"]))
    return cfg, lattice, _excluded_mask(lattice, [p.region() for p in exceptional])


def test_cli_full_pipeline_masks_part_of_the_lattice(tmp_path):
    out = tmp_path / "fp"
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(out)]
               + MASKED_PIPELINE)
    assert res.exit_code == 0, res.output
    assert "RESULT PASS" in res.output
    _, _, excluded = _masked_pipeline_lattice()
    coverage = excluded.mean()
    assert 0.0 < coverage < 1.0
    # superlevel cells remain outside E, so the ratio is measured, not 0
    total = (out / "weak_type.csv").read_text().strip().split("\n")[-1]
    assert total.startswith("all,") and float(total.split(",")[-1]) > 0.0


def test_full_pipeline_validates_its_dilation_once(tmp_path, monkeypatch):
    # the run builds its atomic sum once: the decompositions take their
    # entries from its terms and classify_pieces takes its dilation
    cfg = load_config(None, overrides=MASKED_PIPELINE[1::2], out_dir=tmp_path)
    calls = []
    validate = anisomax_config.validate_dilation

    def counting(matrix):
        calls.append(matrix)
        return validate(matrix)

    monkeypatch.setattr(anisomax_config, "validate_dilation", counting)
    assert run_experiment(cfg, "full-pipeline") == 0
    assert len(calls) == 1


def test_cli_full_pipeline_rows_match_separate_reports(tmp_path):
    # one field run serves every tau group and the total; each row must be
    # what weak_type_report gives on that sum alone, to the last digit
    out = tmp_path / "fp"
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(out)]
               + MASKED_PIPELINE)
    assert res.exit_code == 0, res.output
    cfg, lattice, excluded = _masked_pipeline_lattice()
    f = cfg.atomic_sum()
    measure = surface_quadrature(cfg.surface_obj(), cfg.n_gl)
    k_range = tuple(int(v) for v in cfg.k_range)
    taus = sorted({atom.support.tau for atom, _ in f.terms})
    assert len(taus) == 2
    parts = [(tau, AtomicSum([(a, lam) for a, lam in f.terms
                              if a.support.tau == tau], f.dilation))
             for tau in taus] + [("all", f)]
    want = ["tau,atoms,h1,ratio"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        for key, part in parts:
            ratio = weak_type_report(part, measure, k_range, lattice,
                                     excluded=excluded)[2]
            want.append(f"{key},{len(part.terms)},{part.h1_norm()!r},{ratio!r}")
    assert (out / "weak_type.csv").read_text() == "\n".join(want) + "\n"


# [[4, 1], [1, 3]] at alpha = 16: the tau = -2 atom selects a cube whose
# exceptional set covers about a ninth of the lattice; the mask is built
# from cell centers and the fields by the windowed scatter, end to end
NON_DIAGONAL_PIPELINE = [
    "--override", "matrix=[[4.0, 1.0], [1.0, 3.0]]",
    "--override", "alpha=16.0",
    "--override", "atoms.list=[{tau: 0, index: [-1, 0], lam: 1.4, profile: bump},"
                  " {tau: -2, index: [5, -3], lam: 1.2, profile: bump}]",
    "--override", "lattice.box=[[-6, 6], [-6, 6]]",
    "--override", "lattice.shape=[448, 448]",
    "--override", "k_range=[-2, 2]",
    "--override", "n_gl=32",
    "--override", "s_range=[4, 4]",
]


def test_cli_full_pipeline_non_diagonal_reruns_identically(tmp_path, monkeypatch):
    calls = collections.Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    counting(maximal, "_add_scatter")
    counting(TendrilBound, "contains_points")
    counting(TendrilBound, "contains_grid")
    counting(Parallelepiped, "contains_grid")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        res = _run(["run", "--experiment", "full-pipeline", "--out", str(out)]
                   + NON_DIAGONAL_PIPELINE)
        assert res.exit_code == 0, res.output
        assert "RESULT PASS" in res.output
    assert calls["_add_scatter"] > 0 and calls["contains_points"] > 0
    assert calls["contains_grid"] == 0
    total = (outs[0] / "weak_type.csv").read_text().strip().split("\n")[-1]
    assert total.startswith("all,") and float(total.split(",")[-1]) > 0.0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        first, second = ((out / name).read_bytes() for out in outs)
        if name == "manifest.json":
            # the manifests differ only in the output directory they record
            first, second = (json.loads(text) for text in (first, second))
            for manifest in (first, second):
                manifest["config"].pop("out_dir")
        assert first == second, name


# ------------------------------------------------------------- cold start


def test_cli_import_leaves_scipy_ndimage_to_the_kernel():
    # scipy.ndimage loads about as many modules as the rest of the package
    # and only autocorrelation_kernel smooths with it, so a CLI process
    # imports it only once a kernel is asked for
    code = "\n".join([
        "import sys",
        "import anisomax.cli",
        "from anisomax.surface import autocorrelation_kernel, make_surface, surface_quadrature",
        "assert 'scipy.ndimage' not in sys.modules, 'loaded by import anisomax.cli'",
        "autocorrelation_kernel(surface_quadrature(make_surface('circle-arc'), 24), n_bins=63)",
        "assert 'scipy.ndimage' in sys.modules, 'not loaded by autocorrelation_kernel'",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------- YAML loaders

needs_libyaml = pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                                   reason="PyYAML built without libyaml")

# a full-pipeline config with an explicit atom list, in block and flow
# style and with the float spellings YAML 1.1 resolves
PIPELINE_YAML = """\
matrix:
  - [4.0, 0.0]
  - [0.0, 2.0]
alpha: 16.
eps: 2.5e-1
zeta: .03125
atoms:
  list:
    - {tau: 0, index: [-1, 0], lam: 1.4, profile: bump}
    - tau: -2
      index: [5, -3]
      lam: 1.2
      profile: bump
lattice:
  box: [[-6, 6], [-6, 6]]
  shape: [384, 384]
k_range: [-2, 2]
n_gl: 48
s_range: [4, 4]
"""


def _resolved(monkeypatch, loader, path=None, overrides=()):
    """repr of load_config's as_dict(), so floats compare by repr, with
    yaml.CSafeLoader replaced by loader, or removed when loader is None."""
    with monkeypatch.context() as m:
        if loader is None:
            m.delattr(yaml, "CSafeLoader", raising=False)
        else:
            m.setattr(yaml, "CSafeLoader", loader)
        return repr(load_config(path, overrides=overrides).as_dict())


@needs_libyaml
def test_config_parses_with_libyaml_when_pyyaml_has_it(tmp_path, monkeypatch):
    streams = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            streams.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    path = tmp_path / "run.yaml"
    path.write_text("eps: 0.2\n")
    cfg = load_config(path, overrides=["alpha=16.0"])
    assert len(streams) == 2 and cfg.eps == 0.2 and cfg.alpha == 16.0


@needs_libyaml
@pytest.mark.parametrize("fallback", [yaml.SafeLoader, None], ids=["SafeLoader", "absent"])
@pytest.mark.parametrize("case", ["defaults-dump", "fast", "masked-pipeline", "atom-list"])
def test_config_is_the_same_under_either_loader(tmp_path, monkeypatch, case, fallback):
    path, overrides = None, ()
    if case == "defaults-dump":
        path = tmp_path / "defaults.yaml"
        path.write_text(yaml.safe_dump(DEFAULTS))
    elif case == "fast":
        overrides = FAST[1::2]
    elif case == "masked-pipeline":
        overrides = MASKED_PIPELINE[1::2]
    else:
        path = tmp_path / "pipeline.yaml"
        path.write_text(PIPELINE_YAML)
    fast = _resolved(monkeypatch, yaml.CSafeLoader, path, overrides)
    assert _resolved(monkeypatch, fallback, path, overrides) == fast
    if case == "atom-list":
        cfg = load_config(path)
        assert len(cfg.atoms["list"]) == 2 and cfg.eps == 0.25 and cfg.zeta == 0.03125
        assert cfg.alpha == 16.0


@needs_libyaml
@pytest.mark.parametrize("fallback", [yaml.SafeLoader, None], ids=["SafeLoader", "absent"])
@pytest.mark.parametrize("override", [
    "lattice.box=[[-2,2],[-2,2]]",
    "surface.kind=quartic-flat",
    "alpha=16.0",
    "out_dir=[unclosed",
])
def test_overrides_are_the_same_under_either_loader(monkeypatch, override, fallback):
    fast = _resolved(monkeypatch, yaml.CSafeLoader, overrides=[override])
    assert _resolved(monkeypatch, fallback, overrides=[override]) == fast
    if override.startswith("out_dir"):
        # not valid YAML, so the raw text is the value
        assert "'out_dir': '[unclosed'" in fast


@pytest.mark.parametrize("fallback", [False, True], ids=["default", "absent"])
def test_malformed_yaml_is_a_config_error(tmp_path, monkeypatch, fallback):
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "broken.yaml"
    path.write_text("matrix: [[4.0, 0.0], [0.0, 2.0]\neps: 0.2\n")
    with pytest.raises(ConfigInvalidError, match="not valid YAML"):
        load_config(path)
    res = _run(["run", "--experiment", "validate-dilation", "--config", str(path),
                "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert not (tmp_path / "out").exists()
