"""Dilated convolution fields, the maximal operator, and weak-type ratios.

Frozen reference values:
  chi mass of the circle measure = 0.7696560773850898
  the 1-d hat profile integrates to 0.3838172639958133 (scipy oracle),
  so an amplitude 1/(|Q| 0.3838^2) plateau atom has unit mass in d = 2
  a haar atom on the tau = 1 cube under diag(2, 4) is flat 1/8 on its
  positive half, making the convolution exactly mass/8 deep inside
"""

import collections
import hashlib
import itertools
import math
import struct
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx

from anisomax import experiments, maximal
from anisomax.atoms import Atom, AtomicSum, make_atom
from anisomax.config import load_config
from anisomax.decomposition import stopping_time, whitney_decompose
from anisomax.dilation import cube_diameter, validate_dilation
from anisomax.errors import (
    InputInvalidError,
    ResolutionTooCoarseError,
    TailNotNegligibleWarning,
)
from anisomax.grid import GridCube, Parallelepiped, TendrilBound, expand_cube, tendril_of
from anisomax.maximal import (
    Lattice,
    SampledField,
    _excluded_mask,
    convolve_dilated,
    distribution_function,
    make_lattice,
    maximal_field,
    read_field_binary,
    weak_type_ratio,
    weak_type_report,
    weak_type_reports,
    write_field_binary,
)
from anisomax.experiments import run_experiment
from anisomax.surface import make_surface, plateau_profile, surface_quadrature

from _oracles import compose_dilation

CHI_MASS = 0.7696560773850898
HAT_MASS = 0.3838172639958133


def _diag24():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _circle_measure(n_gl=200):
    return surface_quadrature(make_surface("circle-arc"), n_gl)


def _haar_sum(D, tau=0, index=(0, 0), lam=1.0, seed=1):
    atom = make_atom(GridCube(0, tau, index, D), "haar", seed=seed)
    return AtomicSum(terms=[(atom, lam)], dilation=D)


# ------------------------------------------------------------------ lattice


def test_lattice_basic():
    lat = make_lattice([(0.0, 1.0), (0.0, 2.0)], (4, 8))
    assert lat.spacing == approx((0.25, 0.25))
    assert lat.cell_volume == approx(0.0625)
    assert lat.axis_centers(0) == approx([0.125, 0.375, 0.625, 0.875])
    pts = lat.points()
    assert pts.shape == (32, 2)
    # C order: the second axis varies fastest, matching values.ravel()
    assert pts[1] == approx([0.125, 0.375])
    window = lat.window((0.3, 0.0), (0.8, 0.6))
    assert window == (slice(1, 3), slice(0, 2))
    assert lat.window((5.0, 5.0), (6.0, 6.0)) is None
    with pytest.raises(InputInvalidError):
        make_lattice([(0.0, 1.0)], (2, 2))
    with pytest.raises(InputInvalidError):
        make_lattice([(1.0, 0.0)], 4)
    with pytest.raises(InputInvalidError):
        Lattice(origin=(0.0,), spacing=(0.5, 0.5), shape=(2,))


@pytest.mark.parametrize("make", [
    lambda: make_lattice([(0.0, 1.0), (0.0, 1.0)], (64.5, 64)),
    lambda: make_lattice([(0.0, 1.0), (0.0, 1.0)], (True, 3)),
    lambda: make_lattice([(0.0, 1.0), (0.0, 1.0)], True),
    lambda: make_lattice([(0.0, 1.0), (0.0, 1.0)], 4.0),
    lambda: make_lattice([(0.0, np.inf), (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([(-np.inf, 0.0), (0.0, 1.0)], (4, 4)),
    lambda: Lattice(origin=(0.0, np.nan), spacing=(0.5, 0.5), shape=(2, 2)),
    lambda: Lattice(origin=(np.inf, 0.0), spacing=(0.5, 0.5), shape=(2, 2)),
    lambda: Lattice(origin=(0.0, 0.0), spacing=(np.nan, 0.5), shape=(2, 2)),
    lambda: Lattice(origin=(0.0, 0.0), spacing=(0.5, np.inf), shape=(2, 2)),
    lambda: Lattice(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(2.0, 2)),
    lambda: make_lattice([], []),
    lambda: Lattice(origin=(), spacing=(), shape=()),
    lambda: make_lattice([("x", 1.0), (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([(None, 1.0), (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([None, (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([1.0, (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([("4e0", 5.0), (0.0, 1.0)], (4, 4)),
    lambda: make_lattice([(True, 5.0), (0.0, 1.0)], (4, 4)),
], ids=["half-cell", "bool-count", "bool-shape", "float-shape", "infinite-side",
        "minus-infinite-side", "nan-origin", "infinite-origin", "nan-spacing",
        "infinite-spacing", "float-count", "no-axes", "zero-dim", "string-end",
        "none-end", "none-side", "bare-side", "numeric-string-end", "bool-end"])
def test_lattice_rejects_non_integer_counts_and_non_finite_geometry(make):
    # 64.5 used to be truncated to 64 cells and True read as 1; nan or inf
    # geometry gave cell centers no window test can trust; a lattice of no
    # axes was built, with one 0-d cell; a side that is not a pair of real
    # numbers raised ValueError or TypeError, or float() read "4e0" and True
    with pytest.raises(InputInvalidError):
        make()


def test_lattice_accepts_numpy_integer_counts():
    lat = make_lattice([(0.0, 1.0), (0.0, 2.0)], (np.int64(4), np.int32(8)))
    assert lat.shape == (4, 8) and all(type(n) is int for n in lat.shape)
    assert make_lattice([(0.0, 1.0)] * 2, np.int64(3)).shape == (3, 3)
    # numpy-real sides, as classify_pieces builds them, load
    lat = make_lattice([(np.int64(-2), np.int64(2)), np.array([0.0, 1.0])], (4, 4))
    assert lat.origin == (-2.0, 0.0) and lat.spacing == (1.0, 0.25)


def test_sampled_field_validation():
    lat = make_lattice([(0.0, 1.0), (0.0, 1.0)], (4, 4))
    with pytest.raises(InputInvalidError):
        SampledField(lat, np.zeros((3, 4)))
    with pytest.raises(InputInvalidError):
        SampledField(lat, np.full((4, 4), np.nan))


# -------------------------------------------------------------- convolution


def test_convolve_flat_mass():
    # every measure translate stays in the positive haar half, so the
    # field is exactly (total mass) x (amplitude 1/8) on this window
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D, tau=1)
    lat = make_lattice([(0.49, 0.51), (0.2, 1.8)], (4, 64))
    fld = convolve_dilated(f, meas, 0, lat)
    assert fld.values == approx(np.full(lat.shape, meas.mass / 8.0), abs=1e-14)


def test_convolve_ring_profile():
    from scipy.integrate import quad

    D = _diag24()
    meas = _circle_measure(400)
    Q = GridCube(0, -4, (0, 0), D)
    amp = 1.0 / (Q.volume * HAT_MASS ** 2)
    f = AtomicSum(terms=[(Atom(support=Q, profile="plateau", axis=0,
                               amplitude=amp), 1.0)], dilation=D)
    lat = make_lattice([(-0.6, 0.6), (-0.05, 0.25)], (384, 96))
    fld = convolve_dilated(f, meas, 0, lat)
    pts, flat = lat.points(), fld.values.ravel()
    for x1, tol in ((0.1, 1e-3), (-0.3, 5e-2)):
        psi = 1.0 - np.sqrt(1.0 - x1 * x1)
        i = np.argmin(np.sum((pts - (x1 + 0.03125, psi + 0.00195)) ** 2, axis=1))
        x = pts[i]

        def integrand(y):
            p = np.array([y, 1.0 - np.sqrt(1.0 - y * y)])
            return plateau_profile(np.array([y / 0.48]))[0] * \
                f.evaluate((x - p)[None, :])[0]

        oracle = quad(integrand, x[0] - 0.0625, x[0], limit=400)[0]
        assert flat[i] == approx(oracle, rel=tol)


def test_convolve_resolution_guard():
    D = _diag24()
    f = _haar_sum(D)
    coarse = make_lattice([(-2.0, 2.0), (-2.0, 2.0)], (8, 8))
    with pytest.raises(ResolutionTooCoarseError):
        convolve_dilated(f, _circle_measure(), 0, coarse)


def test_resolution_guard_sizes_each_tau_once(monkeypatch):
    D = _diag24()
    taus = (0, -1, 0, -1, 0)
    mixed = AtomicSum(terms=[
        (make_atom(GridCube(0, tau, (i, 0), D), "haar", seed=i), 1.0)
        for i, tau in enumerate(taus)], dilation=D)
    asked = []

    def counting(D, tau):
        asked.append(tau)
        return cube_diameter(D, tau)

    monkeypatch.setattr(maximal, "cube_diameter", counting)
    assert maximal._min_atom_diameter(mixed) == cube_diameter(D, -1)
    assert sorted(asked) == [-1, 0]


def test_convolve_empty_sum():
    D = _diag24()
    empty = AtomicSum(terms=[], dilation=D)
    lat = make_lattice([(0.0, 1.0), (0.0, 1.0)], (8, 8))
    fld = convolve_dilated(empty, _circle_measure(), 0, lat)
    assert np.all(fld.values == 0.0)


def test_atom_decay_at_large_k():
    # cancellation against the spreading dilate kills the sup
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D)
    lat = make_lattice([(-1.0, 2.0), (-1.0, 2.0)], (96, 96))
    sups = [float(np.abs(convolve_dilated(f, meas, k, lat).values).max())
            for k in (4, 6, 8)]
    assert sups[0] > sups[1] > sups[2]


def test_dilation_covariance():
    # (mu_{k+1} * f)(A x) = (mu_k * (f o A))(x): with the image lattice
    # scaled through A the two fields agree exactly
    D = _diag24()
    meas = _circle_measure()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    f = AtomicSum(terms=[(atom, 1.0)], dilation=D)
    g = AtomicSum(terms=[(compose_dilation(atom, -1), 1.0 / D.det_scale)],
                  dilation=D)
    lat = make_lattice([(-1.0, 2.0), (-1.0, 2.0)], (96, 96))
    image = make_lattice([(-2.0, 4.0), (-4.0, 8.0)], (96, 96))
    lhs = convolve_dilated(f, meas, 1, image)
    rhs = convolve_dilated(g, meas, 0, lat)
    assert lhs.values == approx(rhs.values, abs=1e-14)


# ------------------------------------------- separable path vs the scatter


def _scatter_field(f, measure, k, lattice, monkeypatch):
    """The windowed scatter, the oracle, forced on any dilation."""
    with monkeypatch.context() as patch:
        patch.setattr(maximal, "_is_diagonal", lambda matrix: False)
        return convolve_dilated(f, measure, k, lattice).values


def _assert_same_field(got, want):
    peak = np.abs(want).max()
    assert peak > 0
    assert np.abs(got - want).max() <= 1e-12 * peak
    assert np.array_equal(got == 0.0, want == 0.0)


def _distinct_weights(measure, seed=5):
    """The measure's nodes with every weight scaled by its own factor.

    The two paths add the same node terms in different orders, so a sum
    that cancels exactly in one (mirrored nodes of the symmetric arc under
    a haar step) can leave a rounding residue in the other.  With distinct
    weights no terms cancel exactly, and identical zero cells then mean
    identical windows.
    """
    rng = np.random.default_rng(seed)
    weights = measure.quad_weights * rng.uniform(0.5, 1.5, len(measure.quad_weights))
    return types.SimpleNamespace(quad_points=measure.quad_points,
                                 quad_weights=weights)


def _profile_sum(D, profile, cubes, seed=3):
    rng = np.random.default_rng(seed)
    terms = []
    for tau, index in cubes:
        Q = GridCube(0, tau, index, D)
        if profile == "plateau":
            atom = Atom(support=Q, profile="plateau", axis=0,
                        amplitude=1.0 / Q.volume)
        else:
            atom = make_atom(Q, profile, seed=int(rng.integers(2 ** 31)))
        terms.append((atom, float(rng.uniform(0.1, 2.0))))
    return AtomicSum(terms=terms, dilation=D)


def _mixed_sum(D):
    """Haar, bump and plateau atoms split along different axes, so that
    every axis sees several factor kinds."""
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 2)), (0, (-2, -1))])
    f.terms.append((make_atom(GridCube(0, 0, (1, -2), D), "haar", seed=1), 0.6))
    f.terms.append((make_atom(GridCube(0, -1, (-3, 1), D), "haar", seed=5), 1.1))
    Q = GridCube(0, -1, (2, -1), D)
    f.terms.append((Atom(support=Q, profile="plateau", axis=1,
                         amplitude=1.0 / Q.volume), 0.9))
    return f


@pytest.mark.parametrize("profile", ["haar", "bump", "plateau", "mixed"])
@pytest.mark.parametrize("matrix", [[[2.0, 0.0], [0.0, 4.0]],
                                    [[4.0, 0.0], [0.0, 2.0]]])
def test_separable_matches_scatter(profile, matrix, monkeypatch):
    D = validate_dilation(matrix)
    if profile == "mixed":
        f = _mixed_sum(D)
    else:
        f = _profile_sum(D, profile, [(0, (0, 0)), (0, (-2, 1)), (-1, (3, -2))])
    arc = _circle_measure(48)
    meas = _distinct_weights(arc)
    lat = make_lattice([(-3.0, 3.0), (-3.0, 3.0)], (160, 160))
    for k in (-1, 0, 1):
        got = convolve_dilated(f, meas, k, lat).values
        _assert_same_field(got, _scatter_field(f, meas, k, lat, monkeypatch))
        # the symmetric arc itself: equal up to rounding
        got = convolve_dilated(f, arc, k, lat).values
        want = _scatter_field(f, arc, k, lat, monkeypatch)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("profile", ["haar", "bump"])
def test_separable_matches_scatter_in_3d(profile, monkeypatch):
    D = validate_dilation(np.diag([2.0, 3.0, 4.0]))
    f = _profile_sum(D, profile, [(0, (0, 0, 0)), (0, (-1, 1, -2))])
    meas = _distinct_weights(surface_quadrature(make_surface("paraboloid", dim=3), 32))
    lat = make_lattice([(-3.0, 3.0)] * 3, (32, 36, 40))
    for k in (-1, 0):
        got = convolve_dilated(f, meas, k, lat).values
        _assert_same_field(got, _scatter_field(f, meas, k, lat, monkeypatch))


@pytest.mark.parametrize("profile", ["haar", "bump"])
def test_separable_matches_scatter_in_1d(profile, monkeypatch):
    # one axis: the contraction has no Khatri-Rao factor, only the last axis
    D = validate_dilation([[2.0]])
    f = _profile_sum(D, profile, [(0, (0,)), (-1, (3,)), (-2, (-5,))])
    meas = types.SimpleNamespace(quad_points=np.array([[0.1], [0.35], [-0.4]]),
                                 quad_weights=np.array([0.5, 0.3, 0.7]))
    lat = make_lattice([(-3.0, 3.0)], (200,))
    for k in (-1, 0, 1):
        got = convolve_dilated(f, meas, k, lat).values
        _assert_same_field(got, _scatter_field(f, meas, k, lat, monkeypatch))


def test_separable_haar_edges_on_cell_centers(monkeypatch):
    # node shifts are multiples of the spacing, so the support edges and
    # the split fall exactly on cell centers: half-open [0, 1) decides them
    D = _diag24()
    f = _profile_sum(D, "haar", [(0, (0, 0)), (1, (-1, 0))])
    nodes = types.SimpleNamespace(
        quad_points=np.array([[0.0, 0.0], [0.25, 0.5], [-0.5, 0.125]]),
        quad_weights=np.array([1.0, 0.5, 0.25]))
    lat = make_lattice([(-4.0625, 3.9375), (-4.0625, 3.9375)], (64, 64))
    assert 0.0 in lat.axis_centers(0) and 0.5 in lat.axis_centers(1)
    atom = f.terms[0][0]
    u = np.array([-0.0625, 0.0, 0.4375, 0.5, 0.9375, 1.0])
    assert list(atom.axis_factor(atom.axis, u)) == [0, 1, 1, -1, -1, 0]
    assert list(atom.axis_factor(1 - atom.axis, u)) == [0, 1, 1, 1, 1, 0]
    got = convolve_dilated(f, nodes, 0, lat).values
    want = _scatter_field(f, nodes, 0, lat, monkeypatch)
    assert np.array_equal(got, want)
    # brute force over every cell agrees, edges included
    pts = lat.points()
    brute = sum(w * f.evaluate(pts - p) for p, w
                in zip(nodes.quad_points, nodes.quad_weights))
    assert np.array_equal(got.ravel(), brute)


def test_separable_keeps_the_window_rule(monkeypatch):
    # cell 159's center is at local coordinate u = 0 exactly for the first
    # node, inside the haar atom's cube, but the window rule, which rounds
    # (lo - origin) / spacing, leaves it out; the second node's window
    # holds it, so the separable path computes it and must leave the first
    # node's term out
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    f = _profile_sum(D, "haar", [(0, (4, 0))])
    lat = Lattice(origin=(-15.387155820125052, 0.0),
                  spacing=(0.025086177308678785, 0.125), shape=(200, 8))
    s = -15.385910539390785
    nodes = types.SimpleNamespace(quad_points=np.array([[s, 0.0], [s - 0.5, 0.0]]),
                                  quad_weights=np.array([1.0, 0.5]))
    blo, bhi = f.terms[0][0].support.realize().bbox()
    assert lat.axis_centers(0)[159] - s - blo[0] == 0.0
    assert lat.window(blo + nodes.quad_points[0],
                      bhi + nodes.quad_points[0])[0] == slice(160, 199)
    got = convolve_dilated(f, nodes, 0, lat).values
    assert np.array_equal(got, _scatter_field(f, nodes, 0, lat, monkeypatch))


def test_separable_nodes_leaving_the_lattice(monkeypatch):
    # at k = 2, 3 the dilated arc carries some windows partly and some
    # wholly off this small lattice
    D = _diag24()
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 2))])
    meas = _distinct_weights(_circle_measure(48))
    lat = make_lattice([(-0.5, 1.0), (-0.25, 1.5)], (48, 56))
    for k in (2, 3):
        shifted = meas.quad_points @ D.power(k).T
        blo, bhi = f.terms[0][0].support.realize().bbox()
        first, last = lat.window_bounds(blo + shifted, bhi + shifted)
        live = np.all(first <= last, axis=1)
        assert 0 < live.sum() < len(live)
        got = convolve_dilated(f, meas, k, lat).values
        _assert_same_field(got, _scatter_field(f, meas, k, lat, monkeypatch))


def test_separable_evaluates_factors_on_window_entries_only(monkeypatch):
    # one window pass per k finds every atom's node windows, and each axis
    # factor kind is evaluated in one call, on exactly the (cell, node)
    # entries of the live nodes' windows rather than on the union boxes
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    f = _mixed_sum(D)
    assert {(a.profile, a.axis) for a, _ in f.terms} >= {
        ("bump", 0), ("bump", 1), ("haar", 0), ("haar", 1)}
    meas = _distinct_weights(_circle_measure(48))
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (208, 144))
    calls = collections.Counter()
    sizes = collections.Counter()
    axis_factor, window_bounds = Atom.axis_factor, Lattice.window_bounds

    def factor(self, j, u):
        calls[j] += 1
        sizes[j] += np.size(u)
        return axis_factor(self, j, u)

    def bounds(self, lo, hi):
        calls["window_bounds"] += 1
        return window_bounds(self, lo, hi)

    monkeypatch.setattr(Atom, "axis_factor", factor)
    monkeypatch.setattr(Lattice, "window_bounds", bounds)
    for k in (0, 2):
        calls.clear()
        sizes.clear()
        convolve_dilated(f, meas, k, lat)
        shifted = meas.quad_points @ D.power(k).T
        entries, union = collections.Counter(), collections.Counter()
        for atom, _ in f.terms:
            lo, hi = atom.support.realize().bbox()
            first, last = window_bounds(lat, lo + shifted, hi + shifted)
            live = np.all(first <= last, axis=1)
            first, last = first[live], last[live]
            for j in range(2):
                entries[j] += int(np.sum(last[:, j] - first[:, j] + 1))
                union[j] += (last[:, j].max() - first[:, j].min() + 1) * live.sum()
        assert calls["window_bounds"] == 1
        for j in range(2):
            kinds = {(a.profile, j == a.axis) for a, _ in f.terms}
            assert calls[j] == len(kinds)
            assert sizes[j] == entries[j]
        if k == 2:
            # the dilated arc spreads the windows: the union boxes hold
            # several times the window entries
            assert union[0] + union[1] > 3 * (entries[0] + entries[1])


def test_non_diagonal_dilation_takes_the_scatter(monkeypatch):
    calls = collections.Counter()
    evaluate = Atom.evaluate

    def counting(self, points):
        calls["evaluate"] += 1
        return evaluate(self, points)

    monkeypatch.setattr(Atom, "evaluate", counting)
    meas = _distinct_weights(_circle_measure(48))
    lat = make_lattice([(-3.0, 3.0), (-3.0, 3.0)], (96, 96))
    skew = validate_dilation([[4.0, 1.0], [1.0, 3.0]])
    f = _profile_sum(skew, "bump", [(0, (0, 0)), (0, (-1, 1))])
    got = convolve_dilated(f, meas, 0, lat).values
    assert calls["evaluate"] > 0
    # the scatter is the sum of translates the brute force computes
    pts = lat.points()
    brute = sum(w * f.evaluate(pts - p) for p, w
                in zip(meas.quad_points, meas.quad_weights))
    _assert_same_field(got.ravel(), brute)
    calls.clear()
    diagonal = _profile_sum(_diag24(), "bump", [(0, (0, 0))])
    convolve_dilated(diagonal, meas, 0, lat)
    assert calls["evaluate"] == 0


# ---------------------------------------------------------------- maximal


def test_maximal_singleton_matches_convolution():
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D)
    lat = make_lattice([(-2.0, 3.0), (-2.0, 3.0)], (160, 160))
    with pytest.warns(TailNotNegligibleWarning):
        m = maximal_field(f, meas, (0, 0), lat)
    c = convolve_dilated(f, meas, 0, lat)
    assert m.values == approx(np.abs(c.values))
    assert m.provenance["tail_fractions"] == (1.0, 1.0)


def test_maximal_dominates_members():
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D)
    lat = make_lattice([(-2.0, 3.0), (-2.0, 3.0)], (160, 160))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        m = maximal_field(f, meas, (-2, 3), lat)
    members = [np.abs(convolve_dilated(f, meas, k, lat).values) for k in range(-2, 4)]
    for member in members:
        assert np.all(m.values >= member - 1e-15)
    # and nothing more: every cell's sup is attained at some k of the range
    assert np.array_equal(m.values, np.max(members, axis=0))


def test_maximal_range_robustness():
    # isotropic doubling: widening an already-slack range moves the
    # field max by far less than 1%
    I2 = validate_dilation([[2.0, 0.0], [0.0, 2.0]])
    meas = _circle_measure()
    f = _haar_sum(I2)
    lat = make_lattice([(-4.0, 4.0), (-4.0, 4.0)], (128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        narrow = maximal_field(f, meas, (-6, 10), lat)
        wide = maximal_field(f, meas, (-8, 12), lat)
    assert narrow.values.max() == approx(wide.values.max(), rel=0.01)
    # the expansion end is negligible; the contraction end is not, and
    # the report says so
    assert wide.provenance["tail_fractions"][1] < 0.01
    assert wide.provenance["tail_fractions"][0] > 0.5


def _live_nodes(f, measure, k, lattice):
    """Per atom, the nodes whose shifted support window meets the lattice."""
    shifted = measure.quad_points @ f.dilation.power(k).T
    counts = []
    for atom, _ in f.terms:
        lo, hi = atom.support.realize().bbox()
        first, last = lattice.window_bounds(lo + shifted, hi + shifted)
        counts.append(int(np.all(first <= last, axis=1).sum()))
    return counts


def _full_lattice_sup(f, measure, ks, lattice):
    """The sup over ks of |convolve_dilated|, one full-lattice pass per k,
    and its range-end tail fractions."""
    best = np.zeros(lattice.shape)
    ends = []
    for k in ks:
        fk = np.abs(convolve_dilated(f, measure, k, lattice).values)
        np.maximum(best, fk, out=best)
        ends.append(float(fk.max()))
    peak = float(best.max())
    return best, (ends[0] / peak, ends[-1] / peak)


def _hull_of(mf, lattice):
    """The index box of the lattice that mf, a weak_type_reports field on
    its hull's sub-lattice, covers."""
    assert mf.lattice.spacing == lattice.spacing
    start = np.rint(np.subtract(mf.lattice.origin, lattice.origin) / lattice.spacing)
    return tuple(slice(a, a + n) for a, n in zip(start.astype(int).tolist(), mf.values.shape))


def _placed(mf, lattice) -> np.ndarray:
    """mf's values at its hull in a lattice-shaped array of zeros."""
    values = np.zeros(lattice.shape)
    values[_hull_of(mf, lattice)] = mf.values
    return values


def _group_kind(members, regions, separable) -> str:
    """direct: a lone term folded as it is, on the separable path;
    buffered: a lone term in a buffer, on the scatter; overlapping: terms
    joined through regions that meet; merged: a group holding a term whose
    region meets no other member's, joined through the group's hull."""
    if len(members) == 1:
        return "direct" if separable else "buffered"
    for t in members:
        if not any(maximal._meet(regions[t], regions[u]) for u in members if u != t):
            return "merged"
    return "overlapping"


def _recorded_groups(monkeypatch, separable) -> set:
    """The kinds of the groups the engine folds in, added to the returned
    set as it runs, once each grouping is checked: the groups split the
    live terms, each lists its members ascending with their regions'
    bounding box as its hull, and no two hulls share a cell."""
    kinds = set()
    groups_of = maximal._disjoint_groups

    def recording(terms, regions):
        groups = groups_of(terms, regions)
        assert sorted(t for members, _ in groups for t in members) == sorted(terms)
        for members, hull in groups:
            assert members == sorted(members)
            assert hull == tuple(
                slice(min(regions[t][j].start for t in members),
                      max(regions[t][j].stop for t in members))
                for j in range(len(hull)))
            kinds.add(_group_kind(members, regions, separable))
        for (_, a), (_, b) in itertools.combinations(groups, 2):
            assert not maximal._meet(a, b)
        return groups

    monkeypatch.setattr(maximal, "_disjoint_groups", recording)
    return kinds


@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    [[4.0, 1.0], [1.0, 3.0]]])
def test_engine_fields_equal_separate_runs(matrix, monkeypatch):
    # diag(4, 2) takes the separable path, [[4, 1], [1, 3]] the scatter
    D = validate_dilation(matrix)
    # a lone term folds as it is on the separable path and in a buffer on
    # the scatter; overlapping terms share a buffer; all must give the
    # full-lattice result
    separable = maximal._is_diagonal(D.matrix)
    kinds = _recorded_groups(monkeypatch, separable)
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 0)), (0, (-3, -2)),
                                 (-1, (2, 0))])
    arc = _circle_measure(32)
    # the arc moved off the origin, so every window leaves the lattice
    # once A^k is large enough
    nodes = types.SimpleNamespace(quad_points=arc.quad_points + [0.75, 0.5],
                                  quad_weights=arc.quad_weights)
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (96, 64))
    ks = list(range(-1, 4))
    live = {k: _live_nodes(f, nodes, k, lat) for k in ks}
    # the first two atoms overlap, and the tau -1 pair sits side by side;
    # at some k one atom's nodes all miss the lattice while another's meet
    # it; the end k touches nothing
    (lo0, hi0), (lo1, hi1) = (a.support.realize().bbox() for a, _ in f.terms[:2])
    assert np.all(np.maximum(lo0, lo1) < np.minimum(hi0, hi1))
    assert any(0 in live[k] and max(live[k]) > 0 for k in ks)
    assert live[ks[-1]] == [0, 0, 0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        reports = weak_type_reports(f, nodes, (ks[0], ks[-1]), lat, None)
        assert kinds == {"direct" if separable else "buffered", "overlapping"}
        assert list(reports) == [-1, 0, "all"]
        for key, (part, mf, _, ratio) in reports.items():
            assert len(part.terms) == (4 if key == "all" else 2)
            alone = maximal_field(part, nodes, (ks[0], ks[-1]), lat)
            best, tails = _full_lattice_sup(part, nodes, ks, lat)
            for other in (alone.values, best):
                assert np.array_equal(_placed(mf, lat), other)
            assert alone.provenance["tail_fractions"] == tails
            assert mf.provenance["tail_fractions"] == tails
            assert tails[1] == 0.0
            assert ratio == weak_type_report(part, nodes, (ks[0], ks[-1]), lat)[2]
    # the total is not the sup of the group fields: the groups overlap
    groups = np.maximum(_placed(reports[-1][1], lat), _placed(reports[0][1], lat))
    assert not np.array_equal(reports["all"][1].values, groups)


def test_groups_fold_in_buffers_the_size_of_their_hulls(monkeypatch):
    # each part folds its terms in groups whose hulls are disjoint, so no
    # buffer is larger than the lattice and no k folds a cell of a part
    # twice; the tau groups of an atom list, sorted by tau or interleaved,
    # take the same groupings, and a term whose region meets no other can
    # still join a group through the group's hull
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    nodes = _distinct_weights(_circle_measure(32))
    # fine enough for the tau = -2 atom
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (208, 144))
    contiguous = [(0, (0, 0)), (0, (-2, -1)), (-1, (1, 0)), (-1, (2, 1)), (-2, (3, 2))]
    interleaved = [(0, (0, 0)), (-1, (1, 0)), (0, (-3, -2)), (-1, (2, 0))]
    # two unit cubes meeting at a corner, and a tau -1 cube in the empty
    # corner of their hull, clear of both at k = -2 and -1
    cornered = [(0, (0, 0)), (0, (1, 1)), (-1, (5, 0))]
    for cubes, ks, want in ((contiguous, (-1, 1), {"direct", "overlapping"}),
                            (interleaved, (-1, 1), {"direct", "overlapping"}),
                            (cornered, (-2, 1), {"direct", "overlapping", "merged"})):
        f = _profile_sum(D, "bump", cubes)
        with monkeypatch.context() as patch, warnings.catch_warnings():
            kinds = _recorded_groups(patch, True)
            warnings.simplefilter("ignore", TailNotNegligibleWarning)
            reports = weak_type_reports(f, nodes, ks, lat, None)
            assert kinds == want
            for key, (part, mf, _, _) in reports.items():
                alone = maximal_field(part, nodes, ks, lat)
                assert np.array_equal(_placed(mf, lat), alone.values)
                assert mf.provenance["tail_fractions"] == alone.provenance["tail_fractions"]
                best, tails = _full_lattice_sup(part, nodes, range(ks[0], ks[1] + 1), lat)
                assert np.array_equal(_placed(mf, lat), best)
                assert mf.provenance["tail_fractions"] == tails
        assert len(reports) == len({tau for tau, _ in cubes}) + 1


ENGINE_MATRICES = ([[4.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 4.0]],
                   [[4.0, 1.0], [1.0, 3.0]])


@settings(max_examples=30, deadline=None)
@given(matrix=st.sampled_from(ENGINE_MATRICES),
       atoms=st.lists(st.tuples(st.integers(-2, 0), st.sampled_from(["haar", "bump"]),
                                st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                st.tuples(st.integers(0, 3), st.integers(0, 3))),
                      min_size=1, max_size=8),
       ks=st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(sorted))
# two unit cubes meeting at a corner and a tau -1 cube in the empty corner
# of their hull: a group merged by its hull at k = -2 and -1
@example(matrix=ENGINE_MATRICES[0], ks=[-2, 1],
         atoms=[(0, "bump", (0, 0), (0, 0)), (0, "bump", (1, 1), (0, 0)),
                (-1, "bump", (1, 0), (1, 0))])
def test_engine_fields_equal_full_lattice_passes(matrix, atoms, ks):
    # each atom sits at a unit cell p: its cube is A^tau (index + [0,1]^2)
    # with index = A^-tau p, plus a jitter for tau < 0, so atoms share a
    # cell (overlapping groups), sit apart (lone terms) or fill the empty
    # corner of two cubes meeting at a corner (groups merged by their hull)
    D = validate_dilation(matrix)
    terms = []
    for n, (tau, profile, point, jitter) in enumerate(atoms):
        index = D.power(-tau).astype(int) @ point + (jitter if tau < 0 else 0)
        atom = make_atom(GridCube(0, tau, tuple(int(i) for i in index), D), profile, seed=n)
        terms.append((atom, 0.5 + 0.25 * n))
    f = AtomicSum(terms=terms, dilation=D)
    # the box holds every cube; the resolution guard sets the cell count
    cells = math.ceil(7.0 * 8 / maximal._min_atom_diameter(f))
    lat = make_lattice([(-3.0, 4.0), (-3.0, 4.0)], (cells, cells))
    arc = _circle_measure(32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        reports = weak_type_reports(f, arc, tuple(ks), lat, None)
    for key, (part, mf, _, _) in reports.items():
        # each field covers its hull's sub-lattice: placed there, it is the
        # full-lattice sup bit for bit, and that sup is exactly 0.0 outside
        best, tails = _full_lattice_sup(part, arc, range(ks[0], ks[1] + 1), lat)
        assert _placed(mf, lat).tobytes() == best.tobytes()
        outside = np.ones(lat.shape, dtype=bool)
        outside[_hull_of(mf, lat)] = False
        assert np.all(best[outside] == 0.0)
        assert mf.provenance["tail_fractions"] == tails


def _fault_guard_case():
    """One pipeline op's inputs, as the CI fault guard builds them:
    diag(4,2), 8 bump atoms over three taus, 512^2 cells, 32 nodes."""
    rows = [(0, -1, 0), (0, 1, -1), (0, 0, 1), (-1, -2, -3), (-1, 2, 2), (-1, -1, 4),
            (-2, 5, -3), (-2, -5, 4)]
    atoms = ", ".join(f"{{tau: {t}, index: [{i}, {j}], lam: 1.0, profile: bump}}"
                      for t, i, j in rows)
    cfg = load_config(None, overrides=[
        "matrix=[[4.0, 0.0], [0.0, 2.0]]", f"atoms.list=[{atoms}]",
        "lattice.box=[[-6, 6], [-6, 6]]", "lattice.shape=[512, 512]", "n_gl=32"])
    lat = make_lattice(cfg.lattice["box"], tuple(cfg.lattice["shape"]))
    measure = surface_quadrature(cfg.surface_obj(), cfg.n_gl)
    return cfg.atomic_sum(), measure, tuple(cfg.k_range), lat


def _traced_reports(f, measure, k_range, lat):
    """weak_type_reports under tracemalloc, with the bytes still held after
    it returns and the run's peak."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailNotNegligibleWarning)
            reports = weak_type_reports(f, measure, k_range, lat, None)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return reports, held, peak


def test_returned_fields_keep_one_float_per_cell_and_part():
    # a maximal field is its sup: the fields weak_type_reports returns keep
    # one (parts, *shape) float block alive and nothing else the size of the
    # lattice
    reports, held, _ = _traced_reports(*_fault_guard_case())
    assert len(reports) == 4
    assert held / (len(reports) * 512 * 512) <= 8.5


def test_engine_peak_stays_near_its_sup_block():
    # beside the 8 B per cell and part of the sup block, the engine holds
    # only buffers the size of its groups' hulls: its peak on the fault
    # guard's case reads 10.1 B per cell and part, where a lattice-sized
    # scratch array per sub-sum in use read 12.8
    reports, _, peak = _traced_reports(*_fault_guard_case())
    assert len(reports) == 4
    assert peak / (len(reports) * 512 * 512) <= 11.0


def test_sups_hold_the_cells_of_their_hulls():
    # each part's sup is carved in its hull's shape, the cells its terms
    # reach over the k range: on the fault guard's case the four sups hold
    # 1.19 lattice planes of cells, where a lattice-sized sup each held 4
    f, measure, k_range, lat = _fault_guard_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        reports = weak_type_reports(f, measure, k_range, lat, None)
    assert len(reports) == 4
    cells = sum(mf.values.size for _, mf, _, _ in reports.values())
    assert cells / math.prod(lat.shape) <= 1.25


def test_a_group_that_reaches_no_cell_has_no_field():
    # the tau -1 cube sits at (50, 50), far off the lattice, so its group
    # reaches no cell at any k: its report is None and its ratio 0, as a
    # vanishing field's, and it is given no field and no cells of the sup
    # block; the other group's field is the whole sum's
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (200, 100))])
    arc = _circle_measure(32)
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (96, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        reports = weak_type_reports(f, arc, (-1, 1), lat, None)
        part, mf, report, ratio = reports[-1]
        assert (mf, report, ratio) == (None, None, 0.0)
        assert weak_type_report(part, arc, (-1, 1), lat)[1:] == (None, 0.0)
        alone = reports[0][1]
        assert np.array_equal(reports["all"][1].values, alone.values)
        assert reports["all"][1].lattice == alone.lattice
    assert alone.values.size < math.prod(lat.shape)


def test_weak_type_reports_rejects_a_mask_of_another_shape():
    # a larger mask would slice to every hull without an error, so the
    # shape is checked against the lattice before any field is built
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 0))])
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (96, 64))
    for shape in ((64, 96), (96, 63), (97, 65), (96 * 64,)):
        with pytest.raises(InputInvalidError, match="excluded mask shape"):
            weak_type_reports(f, _circle_measure(32), (-1, 1), lat,
                              np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    [[4.0, 1.0], [1.0, 3.0]]])
def test_fold_rejects_a_non_finite_term(matrix, bad):
    # the fold takes |mu_k * f| in place and checks it is finite before it
    # can reach the sup, on the separable path and on the scatter
    D = validate_dilation(matrix)
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 0))])
    arc = _circle_measure(32)
    weights = arc.quad_weights.copy()
    weights[len(weights) // 2] = bad
    nodes = types.SimpleNamespace(quad_points=arc.quad_points, quad_weights=weights)
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (96, 64))
    with pytest.raises(InputInvalidError, match="field values must be finite") as err, \
            np.errstate(invalid="ignore"):
        maximal_field(f, nodes, (-1, 1), lat)
    assert err.traceback[-1].name == "fold"


def test_k_range_forms():
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D)
    lat = make_lattice([(-1.0, 2.0), (-1.0, 2.0)], (96, 96))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        a = maximal_field(f, meas, (-1, 2), lat)
        b = maximal_field(f, meas, [-1, 2], lat)
    # a list is the same (lo, hi) range as a tuple, never a set of k values
    assert np.array_equal(a.values, b.values)
    assert a.provenance == b.provenance
    # a bool is not a k: (False, True) used to run as k in 0..1
    for bad in ([2, 1], (3, 1), [], (False, True), (0, True), [np.True_, 2]):
        with pytest.raises(InputInvalidError):
            maximal_field(f, meas, bad, lat)


# ------------------------------------------------------------ distribution


def _small_field():
    lat = make_lattice([(0.0, 1.0), (0.0, 1.0)], (8, 8))
    values = np.zeros((8, 8))
    values[:4, :4] = 1.0
    values[:2, :2] = 3.0
    return SampledField(lat, values)


def test_distribution_trivials():
    fld = _small_field()
    report = distribution_function(fld, [0.5, 2.0, 4.0])
    # 16 cells above 0.5, 4 above 2, none above 4; cells are 1/64 each
    assert report.measures == approx([0.25, 0.0625, 0.0])
    assert np.all(np.diff(report.measures) <= 0)
    assert report.weak_ratio == approx(max(0.5 * 0.25, 2.0 * 0.0625))
    with pytest.raises(InputInvalidError):
        distribution_function(fld, [2.0, 0.5])
    with pytest.raises(InputInvalidError):
        distribution_function(fld, [])
    # nan passes the order check and inf bounds nothing: neither is a level
    for bad in ([np.nan, 1.0, 5.0], [0.5, np.nan], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(InputInvalidError, match="finite"):
            distribution_function(fld, bad)


def test_distribution_exclusion_never_grows():
    D = _diag24()
    fld = _small_field()
    cube = GridCube(0, -2, (0, 0), D)   # covers [0, 0.25) x [0, 0.0625)
    plain = distribution_function(fld, [0.5, 2.0])
    masked = distribution_function(
        fld, [0.5, 2.0], excluded=_excluded_mask(fld.lattice, [cube.realize()]))
    assert np.all(masked.measures <= plain.measures + 1e-15)
    assert masked.measures[0] < plain.measures[0]
    with pytest.raises(InputInvalidError):
        distribution_function(fld, [0.5], excluded=np.zeros((4, 4), dtype=bool))


def test_distribution_counts_match_per_threshold_passes():
    # one sort and a binary search per threshold count exactly what a pass
    # over the cells per threshold counts, ties on a threshold included
    rng = np.random.default_rng(11)
    lat = make_lattice([(0.0, 1.0), (0.0, 2.0)], (24, 40))
    thresholds = np.array([0.0, 0.125, 0.25, 0.25, 0.5, 0.75, 1.0, 2.0])
    values = rng.choice(np.concatenate([thresholds, rng.random(50)]), lat.shape)
    fld = SampledField(lat, values)
    before = fld.values.copy()
    cases = [(thresholds, excluded) for excluded in (
        None, rng.random(lat.shape) < 0.3, np.ones(lat.shape, dtype=bool))]
    cases += [
        # a negative lowest threshold: every cell lies above it
        (np.array([-0.5, 0.25, 1.0]), None),
        # a field entirely at or below the lowest threshold
        (np.array([2.0, 3.0]), None),
        # a mask that leaves no cell above the lowest threshold
        (thresholds[2:], values > thresholds[2]),
    ]
    for levels, excluded in cases:
        kept = values if excluded is None else values[~excluded]
        brute = np.array([lat.cell_volume * np.count_nonzero(kept > lam)
                          for lam in levels])
        report = distribution_function(fld, levels, excluded=excluded)
        assert np.array_equal(report.measures, brute)
        assert report.weak_ratio == float(np.max(levels * brute))
    assert brute.sum() == 0 and values.max() == 2.0
    assert np.array_equal(fld.values, before)   # the field is not sorted in place


# ------------------------------------------------------ exceptional-set mask

# A full-pipeline instance under diag(4, 2) whose E covers about a fifth of
# the [-6, 6]^2 lattice: two tendrils and two quadrupled cubes near the origin.
PIPELINE_OVERRIDES = [
    "matrix=[[4.0, 0.0], [0.0, 2.0]]",
    "alpha=16.0",
    "atoms.list=[{tau: 0, index: [-1, 0], lam: 1.4, profile: bump},"
    " {tau: 0, index: [1, -5], lam: 2.0, profile: bump},"
    " {tau: -1, index: [-2, -3], lam: 1.6, profile: bump},"
    " {tau: -2, index: [5, -3], lam: 1.2, profile: bump},"
    " {tau: -2, index: [-5, 4], lam: 0.4, profile: bump}]",
    "lattice.box=[[-6, 6], [-6, 6]]",
    "lattice.shape=[384, 384]",
    "k_range=[-2, 0]",
    "n_gl=32",
    "s_range=[4, 4]",
]


def _pipeline_exceptional_set(cfg):
    """The region() of every exceptional primitive of the pipeline."""
    entries = cfg.entries()
    wres = whitney_decompose(entries, cfg.alpha)
    kept = [entries[i] for i in sorted(wres.assigned)]
    return [p.region() for p in stopping_time(wres.selected, kept, cfg.alpha).exceptional]


def test_windowed_mask_matches_brute_force_union(tmp_path):
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES, out_dir=tmp_path)
    exceptional = _pipeline_exceptional_set(cfg)
    assert {type(r) for r in exceptional} == {TendrilBound, Parallelepiped}
    lat = make_lattice(cfg.lattice["box"], tuple(cfg.lattice["shape"]))
    pts = lat.points()
    brute = np.zeros(len(pts), dtype=bool)
    for region in exceptional:
        brute |= region.contains_points(pts)
        lo, hi = region.bbox()
        inside = pts[region.contains_points(pts)]
        assert np.all((inside >= lo) & (inside <= hi))
    assert 0.05 < brute.mean() < 0.5   # the lattice extends beyond E
    mask = _excluded_mask(lat, exceptional)
    assert mask.shape == lat.shape
    assert np.array_equal(mask.ravel(), brute)
    # a primitive off the lattice changes nothing
    far = GridCube(0, 0, (40, 40), _diag24()).realize()
    assert np.array_equal(_excluded_mask(lat, exceptional + [far]), mask)
    # the masked counts are those of the cells outside the brute-force union
    fld = SampledField(lat, np.random.default_rng(4).random(lat.shape))
    thresholds = np.geomspace(1e-3, 1.0, 16)
    skipped = distribution_function(fld, thresholds, excluded=mask)
    outside = fld.values.ravel()[~brute]
    assert np.array_equal(skipped.measures, lat.cell_volume * np.array(
        [np.count_nonzero(outside > lam) for lam in thresholds]))


def _mask_passes(cfg, monkeypatch):
    """Run full-pipeline; the sizes of the exclude lists it masks with, and
    the membership calls each region gets while the mask is built, keyed
    by (region, its type's name, method)."""
    masks, asked = [], collections.Counter()
    building = [False]

    def counting_mask(lattice, exclude):
        masks.append(len(exclude))
        building[0] = True
        try:
            return _excluded_mask(lattice, exclude)
        finally:
            building[0] = False

    def counting(owner, name):
        method = getattr(owner, name)

        def counted(self, arg):
            if building[0]:
                asked[id(self), type(self).__name__, name] += 1
            return method(self, arg)
        return counted

    monkeypatch.setattr(experiments, "_excluded_mask", counting_mask)
    for owner, name in ((TendrilBound, "contains_points"), (TendrilBound, "contains_grid"),
                        (Parallelepiped, "contains_points")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    assert run_experiment(cfg, "full-pipeline") == 0
    return masks, asked


def test_full_pipeline_asks_each_primitive_once_for_the_mask(tmp_path,
                                                              monkeypatch):
    # at most one membership pass per region: under diag(4, 2) each tendril
    # bound makes the per-axis one; both quadrupled cubes lie in cells the
    # tendrils already hold, so neither is asked (a quad asks contains_points
    # about the cells left, test_mask_decides_band_cells_like_the_points)
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES, out_dir=tmp_path)
    masks, asked = _mask_passes(cfg, monkeypatch)
    assert masks == [4]   # one mask per run, shared by every weak-type report
    assert {(kind, name) for _, kind, name in asked} == {("TendrilBound", "contains_grid")}
    assert len(asked) == 2 and max(asked.values()) == 1


def test_full_pipeline_asks_each_primitive_once_on_the_point_path(tmp_path,
                                                                  monkeypatch):
    # under [[4, 1], [1, 3]] the one pass per region is on cell centers;
    # the finer lattice keeps the tau = -2 atoms past the resolution guard
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES + [
        "matrix=[[4.0, 1.0], [1.0, 3.0]]", "lattice.shape=[448, 448]"], out_dir=tmp_path)
    masks, asked = _mask_passes(cfg, monkeypatch)
    assert masks == [6]
    assert {name for _, _, name in asked} == {"contains_points"}
    assert asked and max(asked.values()) == 1


def test_mask_decides_band_cells_like_the_points(monkeypatch):
    # a lattice whose axis-0 centers include ones within the rounding slack
    # of the tendril radius: the per-axis mask sends exactly those cells to
    # the bound's contains and must agree with contains_points everywhere;
    # the quad is asked about the cells the tendril left
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    cube = GridCube(0, -1, (0, 0), D)
    tendril = tendril_of(cube)
    quad = expand_cube(cube, 4.0)
    # the center of cell 100 on axis 0 pulls to the box's upper edge plus
    # the radius, to rounding; the slack is 1e-6 of that
    edge = (tendril.box_hi[0, 0] + tendril.radius) / tendril.pull[0, 0]
    h = 0.02
    origin = edge - 100.5 * h
    lat = make_lattice([(origin, origin + 320 * h), (-3.0, 3.0)], (320, 300))
    pts = lat.points()
    brute = tendril.contains_points(pts) | quad.contains_points(pts)
    assert 0.05 < brute.mean() < 0.95
    band = []
    contains = TendrilBound.contains

    def counting(self, y):
        band.append(y.shape[1])
        return contains(self, y)

    def refuse(self, points):
        raise AssertionError("a tendril's point pass under a diagonal A")

    monkeypatch.setattr(TendrilBound, "contains", counting)
    monkeypatch.setattr(TendrilBound, "contains_points", refuse)
    mask = _excluded_mask(lat, [tendril, quad])
    assert np.array_equal(mask.ravel(), brute)
    assert band and 0 < sum(band) <= 2 * lat.shape[1]


def test_non_diagonal_mask_keeps_the_point_path(tmp_path, monkeypatch):
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES
                      + ["matrix=[[4.0, 1.0], [1.0, 3.0]]"], out_dir=tmp_path)
    exceptional = _pipeline_exceptional_set(cfg)
    assert {type(r) for r in exceptional} == {TendrilBound, Parallelepiped}
    assert not any(r.axis_aligned for r in exceptional if isinstance(r, TendrilBound))
    lat = make_lattice(cfg.lattice["box"], tuple(cfg.lattice["shape"]))
    pts = lat.points()
    brute = np.zeros(len(pts), dtype=bool)
    for region in exceptional:
        brute |= region.contains_points(pts)
    assert 0.0 < brute.mean() < 1.0

    def refuse(self, axes):
        raise AssertionError("a per-axis pass under a non-diagonal A")

    monkeypatch.setattr(TendrilBound, "contains_grid", refuse)
    assert np.array_equal(_excluded_mask(lat, exceptional).ravel(), brute)


@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    np.diag([4.0, 3.0, 2.0]).tolist()])
def test_mask_of_tendrils_and_quads_is_the_union_of_their_points(matrix):
    # E in stopping_time's order, tendril bounds first and then quadrupled
    # cubes, under a diagonal A: each on-lattice quad holds cells no tendril
    # does, and the lattice's centers fall on the quads' faces (-3 + i h
    # with h a power of two).  The mask is the union of contains_points
    # over the cell centers, cell for cell.
    D = validate_dilation(matrix)
    d = D.dim
    n = 96 if d == 2 else 48
    h = 6.0 / n
    lat = make_lattice([(-3.0 - 0.5 * h, 3.0 - 0.5 * h)] * d, (n,) * d)
    pts = lat.points()
    tendrils = [tendril_of(GridCube(0, -3, (2,) + (-3,) * (d - 1), D)),
                tendril_of(GridCube(-1, -2, (-6,) + (4,) * (d - 1), D))]
    quads = [expand_cube(GridCube(0, -1, (-6,) + (-2,) * (d - 1), D), 4.0),
             expand_cube(GridCube(0, 0, (1,) * d, D), 4.0),
             expand_cube(GridCube(0, 0, (40,) * d, D), 4.0)]
    held = np.zeros(len(pts), dtype=bool)
    for region in tendrils:
        held |= region.contains_points(pts)
    brute = held.copy()
    for quad in quads[:2]:
        inside = quad.contains_points(pts)
        assert np.any(inside & ~held) and np.any(inside & held)
        # some cell centers lie on a face of the quad
        local = np.linalg.solve(quad.basis, (pts - quad.origin).T)
        assert np.any(inside & np.any((local == 0.0) | (local == 1.0), axis=0))
        brute |= inside
    assert not np.any(quads[2].contains_points(pts))
    assert 0.05 < brute.mean() < 0.95
    mask = _excluded_mask(lat, tendrils + quads)
    assert mask.shape == lat.shape
    assert np.array_equal(mask.ravel(), brute)


# -------------------------------------------------------------- weak type


def test_weak_type_dilate_invariance():
    # the A-dilated, a^{-1}-normalized family sees the same functional
    D = _diag24()
    meas = _circle_measure()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    f = AtomicSum(terms=[(atom, 1.0)], dilation=D)
    g = AtomicSum(terms=[(compose_dilation(atom, 1), 1.0)], dilation=D)
    lat = make_lattice([(-2.0, 3.0), (-2.0, 3.0)], (160, 160))
    image = make_lattice([(-4.0, 6.0), (-8.0, 12.0)], (160, 160))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        r_f = weak_type_ratio(f, meas, (-2, 4), lat)
        r_g = weak_type_ratio(g, meas, (-1, 5), image)
    assert r_f > 0
    assert r_g == approx(r_f, rel=0.10)


def test_weak_type_homogeneity():
    D = _diag24()
    meas = _circle_measure()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    one = AtomicSum(terms=[(atom, 1.0)], dilation=D)
    two = AtomicSum(terms=[(atom, 2.0)], dilation=D)
    lat = make_lattice([(-2.0, 3.0), (-2.0, 3.0)], (128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        r1 = weak_type_ratio(one, meas, (-2, 3), lat)
        r2 = weak_type_ratio(two, meas, (-2, 3), lat)
    assert r2 == approx(r1, rel=1e-12)


def test_weak_type_disjoint_sum():
    D = _diag24()
    meas = _circle_measure()
    lone = _haar_sum(D, index=(0, 0))
    parts = [make_atom(GridCube(0, 0, idx, D), "haar", seed=1)
             for idx in ((0, 0), (12, 0), (0, 9))]
    spread = AtomicSum(terms=[(a, 1.0) for a in parts], dilation=D)
    lat = make_lattice([(-2.0, 15.0), (-2.0, 12.0)], (160, 160))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        r1 = weak_type_ratio(lone, meas, (-2, 3), lat)
        rn = weak_type_ratio(spread, meas, (-2, 3), lat)
    assert rn == approx(r1, rel=1.0)   # within a factor of 2


def test_weak_type_rejects_zero_norm():
    D = _diag24()
    empty = AtomicSum(terms=[], dilation=D)
    lat = make_lattice([(0.0, 1.0), (0.0, 1.0)], (8, 8))
    with pytest.raises(InputInvalidError):
        weak_type_ratio(empty, _circle_measure(), (0, 1), lat)
    # zero-weight atoms: Mf vanishes, so a ratio of 0 would pass vacuously
    weightless = _haar_sum(D, lam=0.0)
    with pytest.raises(InputInvalidError):
        weak_type_report(weightless, _circle_measure(), (0, 1), lat)


# ------------------------------------------------- golden digests, as recorded


GOLDEN_FILE = Path(__file__).parent / "data" / "maximal_golden.txt"


def _shifted_arc(n_gl, offset):
    """The circle arc's nodes moved by offset, with distinct weights."""
    arc = _distinct_weights(_circle_measure(n_gl))
    return types.SimpleNamespace(quad_points=arc.quad_points + offset,
                                 quad_weights=arc.quad_weights)


def _golden_case(name):
    """(atomic sum, measure, k_range, lattice) of one golden case.

    Each measure sits off the origin, so at the upper k some node windows
    lie partly or wholly off the lattice.
    """
    if name == "diag(4,2) bump":
        # the pipeline shape: bump atoms at taus 0, -1, -2
        D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
        f = _profile_sum(D, "bump", [(0, (0, 0)), (0, (-2, -1)), (-1, (1, 0)),
                                     (-1, (2, 1)), (-2, (3, 2))])
        return f, _shifted_arc(32, [0.75, 0.5]), (-1, 3), make_lattice(
            [(-3.0, 3.0), (-2.0, 2.0)], (208, 144))
    if name == "diag(2,4) haar":
        # the weak-type shape: haar atoms over three taus
        D = _diag24()
        f = _profile_sum(D, "haar", [(0, (0, 0)), (0, (-2, 1)), (-1, (1, -2)),
                                     (-1, (-1, 0)), (-2, (2, 3))])
        return f, _shifted_arc(32, [-0.5, 0.25]), (-2, 2), make_lattice(
            [(-3.0, 3.0), (-3.0, 3.0)], (192, 192))
    if name == "[[4,1],[1,3]] bump":
        # the windowed scatter
        D = validate_dilation([[4.0, 1.0], [1.0, 3.0]])
        f = _profile_sum(D, "bump", [(0, (0, 0)), (0, (-1, 1)), (-1, (1, 0))])
        return f, _shifted_arc(32, [0.5, -0.25]), (-1, 2), make_lattice(
            [(-3.0, 3.0), (-3.0, 3.0)], (96, 96))
    if name == "diag(2,3,4) haar+bump":
        D = validate_dilation(np.diag([2.0, 3.0, 4.0]))
        f = _profile_sum(D, "bump", [(0, (0, 0, 0)), (0, (-1, 1, -2))])
        f.terms.append((make_atom(GridCube(0, 0, (1, -1, 0), D), "haar", seed=7), 0.8))
        para = _distinct_weights(surface_quadrature(make_surface("paraboloid", dim=3), 32))
        nodes = types.SimpleNamespace(quad_points=para.quad_points + [0.5, -0.25, 0.25],
                                      quad_weights=para.quad_weights)
        return f, nodes, (-1, 1), make_lattice([(-3.0, 3.0)] * 3, (32, 36, 40))
    if name == "diag(2) haar+bump":
        D = validate_dilation([[2.0]])
        f = _profile_sum(D, "bump", [(0, (0,)), (-1, (3,)), (-2, (-5,))])
        f.terms.append((make_atom(GridCube(0, -1, (1,), D), "haar", seed=2), 1.3))
        nodes = types.SimpleNamespace(quad_points=np.array([[0.1], [0.35], [-0.4], [1.2]]),
                                      quad_weights=np.array([0.5, 0.3, 0.7, 0.2]))
        return f, nodes, (-1, 3), make_lattice([(-3.0, 3.0)], (200,))
    raise KeyError(name)


GOLDEN_CASES = ("diag(4,2) bump", "diag(2,4) haar", "[[4,1],[1,3]] bump",
                "diag(2,3,4) haar+bump", "diag(2) haar+bump")


def _field_digest(fld):
    h = hashlib.sha256(fld.values.tobytes())
    tails = fld.provenance.get("tail_fractions")
    if tails is not None:
        h.update(repr(tails).encode())
    return h.hexdigest()[:16]


def golden_digests(name):
    """Digests of the case's convolve_dilated field at each k, its
    maximal_field, and every weak_type_reports field (each tau group,
    then f): values, and tail fractions where a field has them."""
    f, measure, (lo, hi), lat = _golden_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        fields = [convolve_dilated(f, measure, k, lat) for k in range(lo, hi + 1)]
        fields.append(maximal_field(f, measure, (lo, hi), lat))
        reports = weak_type_reports(f, measure, (lo, hi), lat, None)
        # each field covers its hull's sub-lattice; hashed at its hull in
        # the lattice, it has the bytes of the whole-lattice field
        fields += [SampledField(lat, _placed(mf, lat), mf.provenance)
                   for _, mf, _, _ in reports.values()]
    return [_field_digest(fld) for fld in fields]


def _read_golden():
    recorded = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digests = line.split(": ", 1)
            recorded[name] = digests.split()
    return recorded


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_maximal_outputs_match_the_golden_digests(name):
    # a faster engine must reproduce every field and tail
    # fraction bit for bit, on the separable path and on the scatter
    recorded = _read_golden()[name]
    got = golden_digests(name)
    assert len(got) == len(recorded)
    changed = [k for k, (a, b) in enumerate(zip(got, recorded)) if a != b]
    assert not changed, f"{name}: fields {changed} changed"


def record_golden():
    lines = [
        "# Digests of the maximal engine's outputs, one line per case of",
        "# _golden_case in tests/test_maximal.py: convolve_dilated at each k,",
        "# maximal_field, then every weak_type_reports field.  Re-record only",
        "# when an output is meant to change, and say why in CHANGES.md:",
        "#     PYTHONPATH=src python tests/test_maximal.py --record-golden",
    ]
    lines += [f"{name}: {' '.join(golden_digests(name))}" for name in GOLDEN_CASES]
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------- export


def test_binary_roundtrip(tmp_path):
    fld = _small_field()
    path = tmp_path / "field.bin"
    write_field_binary(fld, path)
    again = read_field_binary(path)
    assert again.lattice == fld.lattice
    assert again.values == approx(fld.values)
    twin = tmp_path / "field2.bin"
    write_field_binary(fld, twin)
    assert path.read_bytes() == twin.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAFLD0" + b"\x00" * 32)
    with pytest.raises(InputInvalidError):
        read_field_binary(bad)


@pytest.mark.parametrize("part, value", [
    ("spacing", np.nan), ("spacing", np.inf),
    ("origin", np.nan), ("origin", -np.inf)])
def test_binary_corrupt_geometry_is_invalid_input(tmp_path, part, value):
    # the header's doubles after magic, dim and the two counts: origin, then
    # spacing; a corrupt one used to come back as a lattice of nan centers
    path = tmp_path / "field.bin"
    write_field_binary(_small_field(), path)
    data = bytearray(path.read_bytes())
    at = len(maximal.MAGIC) + 4 + 2 * 4 + (16 if part == "spacing" else 0)
    data[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    with pytest.raises(InputInvalidError, match="finite"):
        read_field_binary(path)


def test_binary_zero_dimensional_file_is_invalid_input(tmp_path):
    # magic, dim 0 and one double used to read back as a lattice of no
    # axes holding a 0-d value
    path = tmp_path / "field.bin"
    path.write_bytes(maximal.MAGIC + struct.pack("<I", 0) + struct.pack("<d", 3.5))
    with pytest.raises(InputInvalidError, match="at least one dimension"):
        read_field_binary(path)


@pytest.mark.parametrize("keep", [-8, 10])
def test_binary_truncated_file_is_invalid_input(tmp_path, keep):
    # cut inside the values (the last cell) or inside the dimension header
    path = tmp_path / "field.bin"
    write_field_binary(_small_field(), path)
    data = path.read_bytes()
    path.write_bytes(data[:keep])
    with pytest.raises(InputInvalidError, match="truncated"):
        read_field_binary(path)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-golden"]:
        sys.exit("usage: python tests/test_maximal.py --record-golden")
    record_golden()
