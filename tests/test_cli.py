"""Config loading, experiment runners, and the command-line interface."""

import collections
import importlib
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy
import pytest
import scipy
import yaml
from click.testing import CliRunner
from pytest import approx

from anisomax import __version__
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
from anisomax.grid import TendrilBound
from anisomax.maximal import _excluded_mask, _weak_type, maximal_field
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
    # a negative seed or span would reach numpy as a ValueError
    for bad in ("seed=-1", "atoms.index_span=-3",
                'atoms.list=[{tau: 0, index: [0, 0], lam: 1.0, seed: -4}]'):
        with pytest.raises(ConfigInvalidError):
            load_config(None, overrides=[bad])
    # the seed argument meets the rule of seed=: int() read 2.7 as 2, True as
    # 1, and raised ValueError on "abc"
    for bad in (2.7, True, "abc"):
        with pytest.raises(ConfigInvalidError, match="seed must be a nonnegative integer"):
            load_config(None, seed=bad)
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


@pytest.mark.parametrize("override", [
    "matrix=null", "matrix=5", "matrix=abc", "matrix={a: 1}", "matrix=[2,4]",
    "matrix=[[2,0],[0]]", "matrix=[[2,0,0],[0,4,0]]", "matrix=[]", "matrix=[[]]",
    "matrix=[[2e0, 0], [0, 4]]", "matrix=[[true, 0], [0, 4]]", "matrix=[[.nan, 0], [0, 4]]",
    "matrix=[[.inf, 0], [0, 4]]", "matrix=[[1,0],[0,1]]", "matrix=[[2, null], [0, 4]]",
    "matrix=[['2', 0], [0, 4]]",
    "surface.kind=nope", "surface.kind=null", "surface.dim=2.5", "surface.dim=true",
    "surface.dim=null", "surface.dim=1", "surface.dim=3", "surface.coeffs=5",
    "surface.coeffs=[1,2]", "surface.coeffs=abc", "surface.coeffs={'4.5': 1.0}",
    "n_gl=100.5", "n_gl=40.0", "n_gl=true", "n_gl=null", "n_gl=abc", "n_gl=16", "n_gl=34",
    "lattice.box=null", "lattice.box=5", "lattice.box={a: 1}", "lattice.box=abc",
    "lattice.box=[-4, 4]", "lattice.box=[[-4, 4e0], [-4, 4]]",
    "lattice.box=[[-4, true], [-4, 4]]", "lattice.box=[[-.inf, 4], [-4, 4]]",
    "lattice.box=[[4, -4], [-4, 4]]", "lattice.box=[[1, 1], [-4, 4]]", "lattice.box=[[-4, 4]]",
    "lattice.box=[[-4, 4, 5], [-4, 4]]", "lattice.box=[]",
    "lattice.shape=null", "lattice.shape=[0,4]", "lattice.shape=[-1,4]",
    "lattice.shape=[64.5,64]", "lattice.shape=[true, 4]", "lattice.shape=[64]",
    "lattice.shape=[64,64,64]", "lattice.shape=abc", "lattice.shape={a: 1}",
    "lattice.shape=[[1,2],3]", "lattice.shape=[]", "lattice.shape=0", "lattice.shape=64.5",
    "lattice.shape=true",
    "k_range=[1,2,3]", "k_range=[3,1]", "k_range=[-2.5,2]", "k_range=null", "k_range=5",
    "k_range=[true, 2]", "k_range=abc", "k_range={a: 1}", "k_range=[]",
])
def test_config_field_is_checked_by_the_module_that_owns_its_rule(override):
    # the config builds each of these fields with its module (validate_dilation,
    # make_surface, check_node_count, make_lattice, the engine's k-range rule)
    # and labels the module's reason with the key
    key = override.partition("=")[0].partition(".")[0]
    with pytest.raises(ConfigInvalidError) as info:
        load_config(None, overrides=[override])
    assert str(info.value).startswith(f"{key}: ")


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
    # the manifest writer imports scipy only to read its version
    assert manifest["versions"] == {"anisomax": __version__, "numpy": numpy.__version__,
                                    "python": platform.python_version(),
                                    "scipy": scipy.__version__}
    assert manifest["module_constants"] == {
        "atom_draw_lam_range": [0.1, 2.0],
        "atom_draw_profile": "haar",
        "c_iv": 32.0,
        "c_stop": 100.0,
        "c_w": 16.0,
        "classify_fine_points": 4096,
        "decay_n_shells": 12,
        "decay_slope_cut": -0.7,
        "diameter_fit_tau": [-40, -10],
        "kernel_bins": 255,
        "kernel_pair_budget": 16_000_000,
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


@pytest.mark.parametrize("module,name", [
    ("decomposition", "C_W"), ("decomposition", "C_STOP"), ("decomposition", "C_IV"),
    ("surface", "KERNEL_BINS"), ("surface", "PIECE_BOUND_FACTOR"),
    ("surface", "KERNEL_PAIR_BUDGET"),
])
def test_readme_quotes_the_module_constants(module, name):
    # the README copies these values by hand; each copy must be the code's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(rf"`(?:{module}\.)?{name}` = ([0-9.]+)", readme)
    assert quoted, f"README does not quote {name}"
    value = getattr(importlib.import_module(f"anisomax.{module}"), name)
    assert all(float(q) == value for q in quoted), (name, quoted, value)


def test_cli_whitney_empty_atoms(tmp_path):
    out = tmp_path / "wh"
    res = _run(["run", "--experiment", "whitney", "--out", str(out),
                "--override", "atoms.count=0"])
    assert res.exit_code == 0
    assert "RESULT PASS" in res.output
    assert (out / "selected.csv").read_text() == \
        "tau,index,volume,assigned_mass\n"


# recorded before the empty case shared the main path's write calls
NOTHING_SELECTED = {
    "stopping": ({
        "summary.txt": "PASS whitney: 0 cubes from 3 entries\n"
                       "PASS stopping: no cubes selected; nothing to stop\n"
                       "RESULT PASS\n",
        "kappa.csv": "entry,tau,index,lam,kappa,class\n",
        "kappa_hist.csv": "kappa,count\n",
        "exceptional.csv": "kind,volume_term\n",
    }, 0),
    "full-pipeline": ({
        "summary.txt": "PASS whitney: 0 cubes from 3 entries\n"
                       "PASS stopping: no cubes selected; E is empty\n"
                       "PASS piece_split: s=4: 0 of 7 pieces kept\n"
                       "FAIL weak_type_outside_E: overall ratio=0.48087131459210103 "
                       "vs cap=0.0001\n"
                       "RESULT FAIL\n",
        "kappa_hist.csv": "kappa,count\n",
        "exceptional_volume.csv": "kind,volume_term\n",
    }, 1),
}


@pytest.mark.parametrize("experiment", list(NOTHING_SELECTED))
def test_cli_nothing_selected_writes_the_recorded_outputs(tmp_path, experiment):
    # alpha above every entry's mass selects no Whitney cube, so nothing is
    # stopped: the summary says so and the stopping CSVs hold headers only
    expected, status = NOTHING_SELECTED[experiment]
    out = tmp_path / experiment
    res = _run(["run", "--experiment", experiment, "--out", str(out), *FAST,
                "--override", "alpha=1000000.0"])
    assert res.exit_code == status
    assert res.output == expected["summary.txt"]
    for name, text in expected.items():
        assert (out / name).read_text() == text, name


def test_cli_exit_code_config_error(tmp_path):
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", "matrix=[[1,0],[0,1]]"])
    assert res.exit_code == 2
    res = _run(["run", "--experiment", "nonsense", "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("override", [
    "eps=.inf", "zeta=.nan", "alpha=.inf", "alpha=.nan",
    "atoms.list=[{tau: 0, index: [0, 0], lam: .inf}]",
    "atoms.list=[{tau: 0, index: [0, 0], lam: .nan}]",
])
def test_non_finite_numbers_are_config_errors(override):
    # nan fails every comparison and inf passes every lower bound, so each
    # would reach the decompositions or the fits as a number no check holds
    with pytest.raises(ConfigInvalidError, match="finite"):
        load_config(None, overrides=[override])


@pytest.mark.parametrize("override, field", [
    ("alpha=1e6", "alpha"),
    ("alpha=true", "alpha"),
    ("eps=1e-1", "eps"),
    ('zeta="0.03"', "zeta"),
    ("zeta=true", "zeta"),
    ("atoms.lam_range=[1e-1, 2.0]", "atoms.lam_range"),
    ("atoms.lam_range=[true, 2.0]", "atoms.lam_range"),
    ("atoms.lam_range=0.5", "atoms.lam_range"),
    ("atoms.list=[{tau: 0, index: [0, 0], lam: 1e-1}]", "atoms.list[0].lam"),
    ("atoms.list=[{tau: 0, index: [0, 0], lam: 1.0}, {tau: 0, index: [1, 0], lam: true}]",
     "atoms.list[1].lam"),
    ("atoms.list=[{tau: 0, index: [0, 0]}]", "atoms.list[0].lam"),
])
def test_number_fields_reject_strings_and_bools(override, field):
    # YAML 1.1 reads 1e6 (no dot) as a string; float() accepted it and the
    # string reached the run, and True ran as 1
    with pytest.raises(ConfigInvalidError) as info:
        load_config(None, overrides=[override])
    assert field in str(info.value)


@pytest.mark.parametrize("experiment, override", [
    ("stopping", "alpha=1e6"),
    ("full-pipeline", "alpha=1e6"),
    ("surface-classify", "eps=1e-1"),
])
def test_cli_string_number_is_a_config_error(tmp_path, experiment, override):
    # each used to die in the run with a TypeError traceback (exit 1)
    res = _run(["run", "--experiment", experiment, "--out", str(tmp_path), *FAST,
                "--override", override])
    assert res.exit_code == 2
    assert "config error" in res.output and override.split("=")[0] in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "manifest.json").exists()


SQUARE_REALS = "matrix: expected a square matrix of real numbers"


@pytest.mark.parametrize("override, message", [
    # each id names the field the override sets
    pytest.param(override, message, id=f"{override}-{override.partition('=')[0]}")
    for override, message in [
        ("lattice.box=[[-4, 4e0], [-4, 4]]", "lattice: lattice box sides must be"),
        ("lattice.box=[[-4, true], [-4, 4]]", "lattice: lattice box sides must be"),
        ("lattice.box=[[-.inf, 4], [-4, 4]]", "lattice: lattice box sides must be"),
        ("lattice.box=[-4, 4]", "lattice: lattice box sides must be"),
        ("matrix=[[2e0, 0], [0, 4]]", SQUARE_REALS),
        ("matrix=[[true, 0], [0, 4]]", SQUARE_REALS),
        ("matrix=[[.nan, 0], [0, 4]]", "matrix: matrix entries must be finite"),
        ("matrix=[[2, 0], [0]]", SQUARE_REALS),
    ]])
def test_cli_geometry_number_is_a_config_error(tmp_path, override, message):
    # float() and validate_dilation's float array took the string '4e0' or
    # '2e0' and True as numbers, so the manifest recorded them as given;
    # True in the matrix failed as "eigenvalue 1 is not > 1", a nan matrix
    # died in numpy's LinAlgError, a ragged one and a bare side in a
    # traceback (exit 1), and an infinite side loaded
    res = _run(["run", "--experiment", "validate-dilation", "--out", str(tmp_path),
                "--override", override])
    assert res.exit_code == 2
    assert "config error" in res.output and message in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("override, message", [
    ("atoms=5", "atoms must be a mapping"),
    ("lattice=5", "lattice must be a mapping"),
    ("surface=5", "surface must be a mapping"),
    ("atoms.list=5", "atoms.list must be a list of mappings"),
    ("atoms.list=[1,2]", "atoms.list must be a list of mappings"),
    pytest.param("surface.coeffs=5", "surface: coefficients must be a mapping",
                 id="surface.coeffs=5-surface.coeffs must be a mapping"),
    ("atoms.list=[{tau: 0, index: [0, 0], lam: 1.0, extra: 1}]",
     "unknown config key: atoms.list[0].extra"),
    ("atoms.list=[{tau: 0, index: [0, 0], lam: 1.0}, "
     "{tau: 0, index: [1, 0], lam: 1.0, profil: bump}]",
     "unknown config key: atoms.list[1].profil"),
    ("n_gl=16", "n_gl=16 would build 32 nodes per axis: surface_quadrature takes "
     "max(8, n_gl // 4) Gauss nodes on each of 4 panels"),
    ("n_gl=34", "n_gl=34 would build 32 nodes per axis"),
    ("n_gl=35", "n_gl=35 would build 32 nodes per axis"),
])
def test_cli_config_of_the_wrong_shape_is_a_config_error(tmp_path, override, message):
    # a section or an atom list of the wrong type used to end in a
    # TypeError or AttributeError traceback (exit 1), and a row key the
    # run does not read ran: a misspelt profile ran a haar atom; an n_gl
    # the quadrature rule rounds ran the 32-node rule while the manifest
    # recorded the n_gl asked for
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", override])
    assert res.exit_code == 2
    assert "config error" in res.output and message in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("coeff", ["abc", "null", ".nan", ".inf", "1e400", "true"])
def test_cli_malformed_coefficient_is_a_config_error(tmp_path, coeff):
    # float() raised on abc and null (exit 1), nan and inf passed the unit
    # ball test and died downstream, 1e400 is a string in YAML 1.1, and
    # true loaded as the coefficient 1.0
    res = _run(["run", "--experiment", "kernel-decay", "--out", str(tmp_path),
                "--override", "surface.kind=custom-polynomial",
                "--override", f'surface.coeffs={{"4": {coeff}}}'])
    assert res.exit_code == 2
    assert "config error" in res.output and "coefficient of (4,)" in res.output
    assert "Traceback" not in res.output


def test_cli_infinite_alpha_is_a_config_error(tmp_path):
    # it used to reach whitney_decompose and die there with an OverflowError
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", "alpha=.inf"])
    assert res.exit_code == 2
    assert "positive and finite" in res.output


@pytest.mark.parametrize("override", ["tau_window=[-40,-20]", "atoms.seed=3"])
def test_cli_removed_keys_are_unknown(tmp_path, override):
    # the I2 window is always (-s - 8, 0) and a draw always uses seed, so
    # neither is a key a config may set
    res = _run(["run", "--experiment", "surface-classify", "--out", str(tmp_path),
                "--override", override])
    assert res.exit_code == 2
    assert "unknown config key: " + override.split("=")[0] in res.output
    assert "Traceback" not in res.output


def test_cli_has_no_seed_flag(tmp_path):
    # --override seed=N sets the seed, under the config's own check
    res = CliRunner().invoke(main, ["run", "--experiment", "stopping", "--out",
                                    str(tmp_path), "--seed", "21"])
    assert res.exit_code == 2
    assert "No such option" in res.output and "--seed" in res.output
    assert not tmp_path.joinpath("summary.txt").exists()


@pytest.mark.parametrize("override, quoted", [
    ("k_range=[-2.5,2]", "k_range"),
    ("s_range=[4.9,5.2]", "s_range"),
    ("atoms.count=2.7", "atoms.count"),
    pytest.param("lattice.shape=[64.5,64]", "lattice: lattice shape must be positive integers",
                 id="lattice.shape=[64.5,64]-lattice.shape"),
    ("n_gl=100.5", "n_gl"),
    ("n_gl=40.0", "n_gl"),
    pytest.param("surface.dim=2.5", "surface: ambient dimension must be an integer",
                 id="surface.dim=2.5-surface.dim"),
    ("surface.coeffs={'4.5': 1.0}", "surface.coeffs"),
    ("atoms.index_span=2.5", "atoms.index_span"),
    ("atoms.tau_range=[-2.5,0]", "atoms.tau_range"),
    ("atoms.list=[{tau: -1.5, index: [0, 0], lam: 1.0}]", "atoms.list[0]"),
    ("atoms.list=[{tau: 0, index: [0.5, 0], lam: 1.0}]", "atoms.list[0]"),
])
def test_cli_non_integer_count_field_is_a_config_error(tmp_path, override, quoted):
    # int() would truncate these where they are used (k in -2..2, s in
    # [4, 5], 2 atoms, 64 cells, a tau of -1), leaving the manifest a value
    # the run did not use, or they die in numpy with exit 1 (n_gl, a
    # coefficient key), so each is rejected
    res = _run(["run", "--experiment", "validate-dilation", "--out", str(tmp_path),
                "--override", override])
    assert res.exit_code == 2
    assert "config error" in res.output and quoted in res.output
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
    "n_bins=255", "n_bins=100.5", "atoms.profile=bump", "atoms.lam_range=[0.1, 2.0]",
])
def test_cli_rejects_a_removed_constant_as_unknown(tmp_path, override, source):
    # C_W, C_STOP, C_IV, KERNEL_BINS and the seeded draw's profile and weight
    # range are module constants, recorded in the manifest's
    # module_constants; a config that sets one, to its own value or to any
    # other, is refused before anything runs
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
    # ||f|| = 0 would make every weak-type ratio 0 and pass vacuously; the
    # seeded draw's weights are fixed in atoms.DRAW_LAM_RANGE, so a config
    # that asks for zero weights there names a key that no longer exists
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


@pytest.mark.parametrize("matrix", ["[[2.0, 0.0], [0.0, 4.0]]", "[[10.0, 0.0], [0.0, 10.0]]"])
def test_cli_exit_code_mass_ratio_past_the_float_range(tmp_path, matrix):
    # under diag(2, 4) the Whitney ladder spends its level budget; under
    # diag(10, 10) it selects tau 154 and the density guard lifts that cube
    # to tau 155, whose volume 100^155 overflows
    res = _run(["run", "--experiment", "whitney", "--out", str(tmp_path),
                "--override", f"matrix={matrix}", "--override", "alpha=1.0e-300",
                "--override", "atoms.list=[{tau: 0, index: [0, 0], lam: 1.0e+10}]"])
    assert res.exit_code == 3, res.output
    assert "budget exceeded" in res.output


def test_cli_exit_code_power_past_the_float_range(tmp_path):
    # k up to 1100 asks for A^512 under diag(2,4), whose entries overflow;
    # nan node positions used to pass the window test and end in numpy's
    # "Maximum allowed dimension exceeded" ValueError (exit 1)
    res = _run(["run", "--experiment", "maximal-weak-type", "--out", str(tmp_path),
                "--override", "k_range=[-4, 1100]", "--override", "lattice.shape=[64, 64]",
                "--override", "n_gl=32",
                "--override", "atoms.list=[{tau: 0, index: [0, 0], lam: 1.0}]"])
    assert res.exit_code == 3, res.output
    assert "budget exceeded: A^512 leaves the float range" in res.output


def test_cli_exit_code_cube_keys_past_exact_floats(tmp_path):
    # at s = 20 the I2 window reaches tau = -28, where the first cap's
    # pulled coordinates pass 2^53 under diag(2,4)
    res = _run(["run", "--experiment", "surface-classify",
                "--out", str(tmp_path), "--override", "s_range=[20,20]"])
    assert res.exit_code == 2
    assert "s = 20, tau -28" in res.output and "2^53" in res.output
    assert "PASS" not in res.output


def test_cli_surface_classify_growth_fits_the_printed_counts(tmp_path):
    # the growth line must fit the counts of the scale lines, not those of a
    # second classification
    res = _run(["run", "--experiment", "surface-classify",
                "--out", str(tmp_path), "--override", "s_range=[0,4]"])
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


@pytest.mark.parametrize("source", ["flag", "env"])
def test_cli_out_dir_that_cannot_be_made_is_a_config_error(tmp_path, source):
    # an existing file as the output directory used to end in a
    # FileExistsError traceback from mkdir (exit 1, "an assertion failed")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    args = ["run", "--experiment", "validate-dilation"]
    if source == "flag":
        res = _run(args + ["--out", str(taken)])
    else:
        res = _run(args, env={"ANISOMAX_OUT": str(taken)})
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("config error: cannot create the output directory")
    assert str(taken) in res.stderr and res.stderr.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


def test_cli_seeded_reruns_are_byte_identical(tmp_path):
    a, b, c = (tmp_path / name for name in ("one", "two", "three"))
    for out in (a, b):
        res = _run(["run", "--experiment", "stopping", "--out", str(out),
                    "--override", "seed=21"])
        assert res.exit_code == 0
    for name in ("kappa.csv", "kappa_hist.csv", "exceptional.csv",
                 "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    res = _run(["run", "--experiment", "stopping", "--out", str(c),
                "--override", "seed=22"])
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


def test_cli_lattice_shape_may_be_one_count(tmp_path):
    # make_lattice reads one count as that count on every axis
    outs = []
    for shape in ("64", "[64, 64]"):
        outs.append(tmp_path / f"shape{len(outs)}")
        res = _run(["run", "--experiment", "maximal-weak-type", "--out", str(outs[-1])]
                   + FAST + ["--override", f"lattice.shape={shape}"])
        assert res.exit_code == 0, res.output
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        first, second = ((out / name).read_bytes() for out in outs)
        if name == "manifest.json":
            # each manifest records the shape as given
            first, second = (json.loads(text)["config"] for text in (first, second))
            assert (first["lattice"]["shape"], second["lattice"]["shape"]) == (64, [64, 64])
            for config in (first, second):
                config.pop("out_dir")
                config["lattice"].pop("shape")
        assert first == second, name


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
    lattice = cfg.lattice_obj()
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
    # the weak-type ratio outside the mask of that sum's own maximal field
    # on the whole lattice, to the last digit
    out = tmp_path / "fp"
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(out)]
               + MASKED_PIPELINE)
    assert res.exit_code == 0, res.output
    cfg, lattice, excluded = _masked_pipeline_lattice()
    f = cfg.atomic_sum()
    measure = surface_quadrature(cfg.surface_obj(), cfg.n_gl)
    k_range = cfg.k_range
    taus = sorted({atom.support.tau for atom, _ in f.terms})
    assert len(taus) == 2
    parts = [(tau, AtomicSum([(a, lam) for a, lam in f.terms
                              if a.support.tau == tau], f.dilation))
             for tau in taus] + [("all", f)]
    want = ["tau,atoms,h1,ratio"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        for key, part in parts:
            ratio = _weak_type(maximal_field(part, measure, k_range, lattice),
                               part.h1_norm(), excluded)[2]
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


# diag(4, 3, 2) on a paraboloid at alpha = 1: the two heavy tau = 0 atoms at
# z index -10 select two cubes, whose tendril bounds cover the lower part of
# the [-4, 4]^3 lattice (their quadrupled cubes lie below it); the field of
# the two light atoms near the origin reaches outside E
PIPELINE_3D = [
    "--override", "matrix=[[4,0,0],[0,3,0],[0,0,2]]",
    "--override", "surface.kind=paraboloid",
    "--override", "surface.dim=3",
    "--override", "lattice.box=[[-4,4],[-4,4],[-4,4]]",
    "--override", "lattice.shape=[40,40,40]",
    "--override", "alpha=1.0",
    "--override", "atoms.list=[{tau: 0, index: [0, 0, 0], lam: 1.0, profile: bump},"
                  " {tau: 0, index: [-1, 1, 0], lam: 0.7, profile: bump},"
                  " {tau: 0, index: [0, 0, -10], lam: 2.0, profile: bump},"
                  " {tau: 0, index: [0, 1, -10], lam: 1.5, profile: bump}]",
    "--override", "k_range=[-2, 2]",
    "--override", "n_gl=32",
    "--override", "s_range=[4, 4]",
]

# the outputs of PIPELINE_3D, recorded when a quadrupled cube still had a
# per-axis mask test and a check (ii) certificate of its own
PIPELINE_3D_OUTPUTS = {
    "summary.txt": (
        "PASS whitney: 2 cubes from 4 entries\n"
        "PASS stopping: all checks hold\n"
        "PASS exceptional_volume: sum=130.0 vs bound=550.0\n"
        "PASS piece_split: s=4: 49 of 81 pieces kept\n"
        "PASS weak_type_outside_E: overall ratio=0.002755463080760361 vs cap=100.0\n"
        "RESULT PASS\n"),
    "weak_type.csv": (
        "tau,atoms,h1,ratio\n"
        "0,4,5.2,0.002755463080760361\n"
        "all,4,5.2,0.002755463080760361\n"),
    "exceptional_volume.csv": (
        "kind,volume_term\n"
        "tendril,1.0\n"
        "tendril,1.0\n"
        "quad,64.0\n"
        "quad,64.0\n"),
}


def test_cli_full_pipeline_3d_writes_the_recorded_outputs(tmp_path):
    cfg = load_config(None, overrides=PIPELINE_3D[1::2])
    entries = cfg.entries()
    wres = whitney_decompose(entries, cfg.alpha)
    kept = [entries[i] for i in sorted(wres.assigned)]
    exceptional = stopping_time(wres.selected, kept, cfg.alpha).exceptional
    lattice = cfg.lattice_obj()
    coverage = _excluded_mask(lattice, [p.region() for p in exceptional]).mean()
    assert 0.0 < coverage < 1.0
    out = tmp_path / "fp"
    res = _run(["run", "--experiment", "full-pipeline", "--out", str(out)] + PIPELINE_3D)
    assert res.exit_code == 0, res.output
    for name, text in PIPELINE_3D_OUTPUTS.items():
        assert (out / name).read_text() == text, name


# ------------------------------------------------------------- cold start


def test_cli_import_leaves_scipy_ndimage_to_the_kernel():
    # scipy.ndimage loads about as many modules as the rest of the package
    # and only autocorrelation_kernel smooths with it, so a CLI process
    # imports it only once a kernel is asked for; scipy itself is left to
    # the manifest writer, which reads its version
    code = "\n".join([
        "import sys",
        "import anisomax.cli",
        "from anisomax.surface import autocorrelation_kernel, make_surface, surface_quadrature",
        "assert 'scipy' not in sys.modules, 'loaded by import anisomax.cli'",
        "autocorrelation_kernel(surface_quadrature(make_surface('circle-arc'), 32), n_bins=63)",
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
