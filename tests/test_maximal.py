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
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from anisomax import experiments, maximal
from anisomax.atoms import Atom, AtomicSum, compose_dilation, make_atom
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
    assert fld.provenance["k"] == 0
    assert "circle" in fld.provenance["measure"]


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
    meas = _distinct_weights(surface_quadrature(make_surface("paraboloid", dim=3), 8))
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
    assert np.all(m.provenance["argmax_k"] == 0)


def test_maximal_dominates_members():
    D = _diag24()
    meas = _circle_measure()
    f = _haar_sum(D)
    lat = make_lattice([(-2.0, 3.0), (-2.0, 3.0)], (160, 160))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        m = maximal_field(f, meas, (-2, 3), lat)
    for k in range(-2, 4):
        member = np.abs(convolve_dilated(f, meas, k, lat).values)
        assert np.all(m.values >= member - 1e-15)
    ks = m.provenance["argmax_k"]
    assert ks.min() >= -2 and ks.max() <= 3


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
    """The sup over ks of |convolve_dilated|, one full-lattice pass per k."""
    best = np.zeros(lattice.shape)
    argmax = np.full(lattice.shape, ks[0])
    ends = []
    for k in ks:
        fk = np.abs(convolve_dilated(f, measure, k, lattice).values)
        mask = fk > best
        best[mask] = fk[mask]
        argmax[mask] = k
        ends.append(float(fk.max()))
    peak = float(best.max())
    return best, argmax, (ends[0] / peak, ends[-1] / peak)


@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    [[4.0, 1.0], [1.0, 3.0]]])
def test_engine_fields_equal_separate_runs(matrix, monkeypatch):
    # diag(4, 2) takes the separable path, [[4, 1], [1, 3]] the scatter
    D = validate_dilation(matrix)
    # the fold walks the atoms' own slices at some k and their bounding
    # box at others; both must give the full-lattice result
    choices = set()
    fold_regions = maximal._fold_regions

    def recording(touched):
        regions = fold_regions(touched)
        if len(touched) > 1:
            choices.add("hull" if regions != touched else "slices")
        return regions

    monkeypatch.setattr(maximal, "_fold_regions", recording)
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 0)), (0, (-3, -2)),
                                 (-1, (2, 0))])
    arc = _circle_measure(24)
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
        assert list(reports) == [-1, 0, "all"]
        for key, (part, mf, _, ratio) in reports.items():
            assert len(part.terms) == (4 if key == "all" else 2)
            alone = maximal_field(part, nodes, (ks[0], ks[-1]), lat)
            best, argmax, tails = _full_lattice_sup(part, nodes, ks, lat)
            for other in (alone.values, best):
                assert np.array_equal(mf.values, other)
            for other in (alone.provenance["argmax_k"], argmax):
                assert np.array_equal(mf.provenance["argmax_k"], other)
            assert alone.provenance["tail_fractions"] == tails
            assert mf.provenance["tail_fractions"] == tails
            assert tails[1] == 0.0
            assert ratio == weak_type_report(part, nodes, (ks[0], ks[-1]), lat)[2]
    assert choices == {"hull", "slices"}
    # the total is not the sup of the group fields: the groups overlap
    groups = np.maximum(reports[-1][1].values, reports[0][1].values)
    assert not np.array_equal(reports["all"][1].values, groups)


def test_contiguous_groups_share_two_scratch_arrays(monkeypatch):
    # a sub-sum holds a scratch array from its first term to its fold, so
    # the tau groups of an atom list sorted by tau take turns with one
    # array beside f's; interleaved groups need one more
    D = validate_dilation([[4.0, 0.0], [0.0, 2.0]])
    nodes = _distinct_weights(_circle_measure(24))
    # fine enough for the tau = -2 atom
    lat = make_lattice([(-3.0, 3.0), (-2.0, 2.0)], (208, 144))
    take = maximal._ScratchPool.take
    arrays = set()

    def recording(self):
        got = take(self)
        arrays.add(id(got))
        return got

    monkeypatch.setattr(maximal._ScratchPool, "take", recording)
    contiguous = [(0, (0, 0)), (0, (-2, -1)), (-1, (1, 0)), (-1, (2, 1)), (-2, (3, 2))]
    interleaved = [(0, (0, 0)), (-1, (1, 0)), (0, (-3, -2)), (-1, (2, 0))]
    for cubes, want in ((contiguous, 2), (interleaved, 3)):
        f = _profile_sum(D, "bump", cubes)
        arrays.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailNotNegligibleWarning)
            reports = weak_type_reports(f, nodes, (-1, 1), lat, None)
            assert len(arrays) == want
            for key, (part, mf, _, _) in reports.items():
                alone = maximal_field(part, nodes, (-1, 1), lat)
                assert np.array_equal(mf.values, alone.values)
                assert np.array_equal(mf.provenance["argmax_k"],
                                      alone.provenance["argmax_k"])
        assert len(reports) == len({tau for tau, _ in cubes}) + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    [[4.0, 1.0], [1.0, 3.0]]])
def test_fold_rejects_a_non_finite_term(matrix, bad):
    # the fold takes |mu_k * f| in place and checks it is finite before it
    # can reach the sup, on the separable path and on the scatter
    D = validate_dilation(matrix)
    f = _profile_sum(D, "bump", [(0, (0, 0)), (-1, (1, 0))])
    arc = _circle_measure(24)
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
    assert np.array_equal(a.provenance["argmax_k"], b.provenance["argmax_k"])
    for bad in ([2, 1], (3, 1), []):
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
    by (region, method)."""
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
                asked[id(self), name] += 1
            return method(self, arg)
        return counted

    monkeypatch.setattr(experiments, "_excluded_mask", counting_mask)
    for owner in (TendrilBound, Parallelepiped):
        for name in ("contains_points", "contains_grid"):
            monkeypatch.setattr(owner, name, counting(owner, name))
    assert run_experiment(cfg, "full-pipeline") == 0
    return masks, asked


def test_full_pipeline_asks_each_primitive_once_for_the_mask(tmp_path,
                                                              monkeypatch):
    # one membership pass per region, the per-axis one under diag(4, 2)
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES, out_dir=tmp_path)
    masks, asked = _mask_passes(cfg, monkeypatch)
    assert masks == [4]   # one mask per run, shared by every weak-type report
    assert {name for _, name in asked} == {"contains_grid"}
    assert asked and max(asked.values()) == 1


def test_full_pipeline_asks_each_primitive_once_on_the_point_path(tmp_path,
                                                                  monkeypatch):
    # under [[4, 1], [1, 3]] the one pass per region is on cell centers;
    # the finer lattice keeps the tau = -2 atoms past the resolution guard
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES + [
        "matrix=[[4.0, 1.0], [1.0, 3.0]]", "lattice.shape=[448, 448]"], out_dir=tmp_path)
    masks, asked = _mask_passes(cfg, monkeypatch)
    assert masks == [6]
    assert {name for _, name in asked} == {"contains_points"}
    assert asked and max(asked.values()) == 1


def test_mask_decides_band_cells_like_the_points(monkeypatch):
    # a lattice whose axis-0 centers include ones within the rounding slack
    # of the tendril radius: the per-axis mask sends exactly those cells to
    # the bound's contains and must agree with contains_points everywhere
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
        raise AssertionError("a point pass under a diagonal A")

    monkeypatch.setattr(TendrilBound, "contains", counting)
    for owner in (TendrilBound, Parallelepiped):
        monkeypatch.setattr(owner, "contains_points", refuse)
    mask = _excluded_mask(lat, [tendril, quad])
    assert np.array_equal(mask.ravel(), brute)
    assert band and 0 < sum(band) <= 2 * lat.shape[1]


def test_non_diagonal_mask_keeps_the_point_path(tmp_path, monkeypatch):
    cfg = load_config(None, overrides=PIPELINE_OVERRIDES
                      + ["matrix=[[4.0, 1.0], [1.0, 3.0]]"], out_dir=tmp_path)
    exceptional = _pipeline_exceptional_set(cfg)
    assert {type(r) for r in exceptional} == {TendrilBound, Parallelepiped}
    assert not any(r.axis_aligned for r in exceptional)
    lat = make_lattice(cfg.lattice["box"], tuple(cfg.lattice["shape"]))
    pts = lat.points()
    brute = np.zeros(len(pts), dtype=bool)
    for region in exceptional:
        brute |= region.contains_points(pts)
    assert 0.0 < brute.mean() < 1.0

    def refuse(self, axes):
        raise AssertionError("a per-axis pass under a non-diagonal A")

    for owner in (TendrilBound, Parallelepiped):
        monkeypatch.setattr(owner, "contains_grid", refuse)
    assert np.array_equal(_excluded_mask(lat, exceptional).ravel(), brute)


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
        return f, _shifted_arc(16, [0.5, -0.25]), (-1, 2), make_lattice(
            [(-3.0, 3.0), (-3.0, 3.0)], (96, 96))
    if name == "diag(2,3,4) haar+bump":
        D = validate_dilation(np.diag([2.0, 3.0, 4.0]))
        f = _profile_sum(D, "bump", [(0, (0, 0, 0)), (0, (-1, 1, -2))])
        f.terms.append((make_atom(GridCube(0, 0, (1, -1, 0), D), "haar", seed=7), 0.8))
        para = _distinct_weights(surface_quadrature(make_surface("paraboloid", dim=3), 8))
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
    argmax = fld.provenance.get("argmax_k")
    if argmax is not None:
        h.update(argmax.dtype.str.encode() + argmax.tobytes())
        h.update(repr(fld.provenance["tail_fractions"]).encode())
    return h.hexdigest()[:16]


def golden_digests(name):
    """Digests of the case's convolve_dilated field at each k, its
    maximal_field, and every weak_type_reports field (each tau group,
    then f): values, argmax_k bytes and tail fractions."""
    f, measure, (lo, hi), lat = _golden_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotNegligibleWarning)
        fields = [convolve_dilated(f, measure, k, lat) for k in range(lo, hi + 1)]
        fields.append(maximal_field(f, measure, (lo, hi), lat))
        reports = weak_type_reports(f, measure, (lo, hi), lat, None)
        fields += [mf for _, mf, _, _ in reports.values()]
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
    # a faster engine must reproduce every field, argmax and tail
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
