"""Surface catalog, cap partitions, piece classification, and kernel checks.

Frozen reference values:
  circle-arc has curvature K identically 1; paraboloid in d = 3 has
  K(y) = (1 + |y|^2)^{-2}, so K((0.3, 0.4)) = 0.64
  quartic-flat in d = 2 has K(y) = 12 y^2 / (1 + 16 y^6)^{3/2}
  plateau_profile(0.75) = exp(-1/3)
  chi mass of the circle measure = 0.7696560773850898 (scipy quad oracle)
  circle deriv bound sup|psi'''| = 1.44 / 0.7696^{5/2} = 2.77141
  cap radius at s = 0, d = 2 is 1 / (2 sqrt 2); the circle splits into
  3 pieces at s = 0 and 11 at s = 8 (eps = 1/4)
  quartic-flat excluded counts over s in {4, 6, ..., 16} freeze to
  [5, 5, 5, 5, 7, 7, 9], giving eta = 0.1883
"""

import dataclasses
import hashlib
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial.legendre import leggauss
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from pytest import approx

from anisomax import surface
from anisomax.atoms import Atom, AtomicSum, make_atom
from anisomax.dilation import cube_diameter, validate_dilation
from anisomax.errors import (
    AnisoError,
    BudgetExceededError,
    DegenerateFitError,
    InputInvalidError,
    ResolutionTooCoarseError,
)
from anisomax.grid import GridCube
from anisomax.maximal import grid_points
from anisomax.surface import (
    GraphSurface,
    KernelField,
    SurfaceMeasure,
    SurfacePiece,
    _cube_masses,
    _leggauss,
    _piece_convolutions,
    autocorrelation_kernel,
    check_kernel_decay,
    check_linfty_bound,
    check_pair_bound,
    classify_pieces,
    excluded_piece_growth,
    gaussian_curvature,
    make_surface,
    partition_measure,
    plateau_profile,
    surface_quadrature,
)

from _oracles import meshgrid_radii, plateau_branches, unique_cube_masses

EPS = 0.25
ZETA = EPS / 8.0


def _transversal():
    # slow axis last: the graph normal at the flat spot lines up with
    # the slow direction of the dilation
    return validate_dilation([[4.0, 0.0], [0.0, 2.0]])


def _normal_perp():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _haar_sum(D, idx, tau, seed=1):
    atom = make_atom(GridCube(0, tau, idx, D), "haar", seed=seed)
    return AtomicSum(terms=[(atom, 1.0)], dilation=D)


def _plateau_sum(D, idx, tau):
    amp = D.det_scale ** (-tau)
    atom = Atom(support=GridCube(0, tau, idx, D), profile="plateau",
                axis=0, amplitude=amp)
    return AtomicSum(terms=[(atom, 1.0)], dilation=D)


def _classified_circle(s):
    circ = make_surface("circle-arc")
    pieces = partition_measure(circ, s=s, eps=EPS)
    classify_pieces(pieces, circ, _transversal(), eps=EPS, zeta=ZETA)
    return circ, pieces


# ---------------------------------------------------------------- curvature


def test_circle_curvature_constant():
    circ = make_surface("circle-arc")
    y = np.linspace(-0.48, 0.48, 33)[:, None]
    K = gaussian_curvature(circ, y)
    assert K == approx(np.ones(33))
    assert gaussian_curvature(circ, np.array([[0.5]]))[0] == approx(1.0)


def test_paraboloid_curvature():
    par2 = make_surface("paraboloid", dim=2)
    assert gaussian_curvature(par2, np.zeros((1, 1)))[0] == approx(1.0)
    par3 = make_surface("paraboloid", dim=3)
    assert gaussian_curvature(par3, np.zeros((1, 2)))[0] == approx(1.0)
    # K(y) = (1 + |y|^2)^{-2}; at (0.3, 0.4) that is 1.25^{-2}
    K = gaussian_curvature(par3, np.array([[0.3, 0.4]]))[0]
    assert K == approx(0.64)


def test_quartic_curvature_flat_point():
    quart = make_surface("quartic-flat")
    assert gaussian_curvature(quart, np.zeros((1, 1)))[0] == approx(0.0, abs=1e-14)
    expected = 12.0 * 0.09 / (1.0 + 16.0 * 0.3 ** 6) ** 1.5
    assert gaussian_curvature(quart, np.array([[0.3]]))[0] == approx(expected)


def _central_difference_hessian(surface, y, h=1e-4):
    p = y.shape[1]
    out = np.zeros((y.shape[0], p, p))
    for j in range(p):
        step = np.zeros(p)
        step[j] = h
        out[:, :, j] = (surface.grad(y + step) - surface.grad(y - step)) / (2.0 * h)
    return out


def test_curvature_matches_finite_differences():
    surfaces = [
        make_surface("circle-arc"),
        make_surface("paraboloid", dim=2),
        make_surface("quartic-flat"),
        make_surface("paraboloid", dim=3),
    ]
    rng = np.random.default_rng(7)
    for surface in surfaces:
        y = rng.uniform(-0.4, 0.4, size=(20, surface.dim - 1))
        exact = surface.hess(y)
        numeric = _central_difference_hessian(surface, y)
        assert np.max(np.abs(exact - numeric)) < 1e-5


def test_custom_polynomial_matches_quartic():
    quart = make_surface("quartic-flat")
    custom = make_surface("custom-polynomial", coeffs={(4,): 1.0})
    y = np.linspace(-0.45, 0.45, 17)[:, None]
    assert custom.psi(y) == approx(quart.psi(y))
    assert custom.grad(y) == approx(quart.grad(y))
    assert gaussian_curvature(custom, y) == approx(gaussian_curvature(quart, y))


def _closed_form_surface(kind, dim):
    """The catalog polynomials written out by hand: the oracle of the one
    polynomial rule that make_surface builds them through."""
    p = dim - 1
    if kind == "paraboloid":
        def psi(y):
            return 0.5 * np.sum(np.atleast_2d(y) ** 2, axis=1)

        def grad(y):
            return np.atleast_2d(y).copy()

        def hess(y):
            return np.broadcast_to(np.eye(p), (np.atleast_2d(y).shape[0], p, p)).copy()
    else:
        def psi(y):
            return np.sum(np.atleast_2d(y) ** 4, axis=1)

        def grad(y):
            return 4.0 * np.atleast_2d(y) ** 3

        def hess(y):
            y = np.atleast_2d(y)
            out = np.zeros((y.shape[0], p, p))
            for j in range(p):
                out[:, j, j] = 12.0 * y[:, j] ** 2
            return out
    return GraphSurface(kind, dim, psi, grad, hess)


@pytest.mark.parametrize("kind", ["paraboloid", "quartic-flat"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_catalog_polynomials_match_closed_forms_bit_for_bit(kind, dim):
    # a negative coordinate whose power underflows is left out: the hand
    # form keeps the sign of that zero gradient, the sum from 0.0 does not,
    # and the gradient only ever enters squared
    rng = np.random.default_rng(dim)
    y = rng.uniform(-0.48, 0.48, size=(2000, dim - 1))
    y[0] = 0.0
    y[1] = 1e-170
    surf, oracle = make_surface(kind, dim), _closed_form_surface(kind, dim)
    for name in ("psi", "grad", "hess"):
        got, want = getattr(surf, name)(y), getattr(oracle, name)(y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert gaussian_curvature(surf, y).tobytes() == \
        gaussian_curvature(oracle, y).tobytes()


def test_surface_input_validation():
    with pytest.raises(InputInvalidError):
        make_surface("torus")
    with pytest.raises(InputInvalidError):
        make_surface("paraboloid", dim=1)
    with pytest.raises(InputInvalidError):
        make_surface("circle-arc", dim=3)
    with pytest.raises(InputInvalidError):
        make_surface("custom-polynomial")
    with pytest.raises(InputInvalidError):
        make_surface("custom-polynomial", coeffs={(7,): 1.0})
    with pytest.raises(InputInvalidError):
        make_surface("custom-polynomial", coeffs={(1, 2): 1.0})


@pytest.mark.parametrize("kind, dim, coeffs", [
    ("paraboloid", 2.5, None),
    ("paraboloid", 3.0, None),
    ("paraboloid", "3", None),
    ("custom-polynomial", 2, [1.0]),
    ("custom-polynomial", 2, {(4,): "abc"}),
    ("custom-polynomial", 2, {(4,): None}),
    ("custom-polynomial", 2, {(4,): np.nan}),
    ("custom-polynomial", 2, {(4,): np.inf}),
    ("custom-polynomial", 2, {(4,): True}),
], ids=["half-dim", "float-dim", "string-dim", "list-coeffs",
        "string-coeff", "none-coeff", "nan-coeff", "inf-coeff", "bool-coeff"])
def test_surface_rejects_malformed_dims_and_coefficients(kind, dim, coeffs):
    # each raised TypeError, ValueError or AttributeError, or, for nan and
    # inf, passed the unit-ball test, whose radius > 1 is False for nan;
    # True loaded as the coefficient 1.0
    with pytest.raises(InputInvalidError):
        make_surface(kind, dim=dim, coeffs=coeffs)


def test_surfaces_stay_in_unit_ball():
    for kind in ("circle-arc", "paraboloid", "quartic-flat"):
        surface = make_surface(kind)
        y = np.linspace(-0.48, 0.48, 65)[:, None]
        pts = surface.points(y)
        assert np.max(np.linalg.norm(pts, axis=1)) <= 1.0 + 1e-12
    # a steep polynomial escapes the ball and is rejected outright
    with pytest.raises(InputInvalidError):
        make_surface("custom-polynomial", coeffs={(1,): 3.0})


# ------------------------------------------------------------- chi and mass


def test_plateau_profile_shape():
    u = np.array([0.0, 0.25, 0.5, -0.5, 0.75, -0.75, 1.0, 1.5, -2.0])
    vals = plateau_profile(u)
    assert vals[:4] == approx(np.ones(4))
    assert vals[4] == approx(np.exp(-1.0 / 3.0))
    assert vals[4] == approx(vals[5])
    assert vals[6:] == approx(np.zeros(3))


@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=-3.0, max_value=3.0))
def test_plateau_profile_bounds(u):
    val = plateau_profile(np.array([u]))[0]
    assert 0.0 <= val <= 1.0
    assert val == approx(plateau_profile(np.array([-u]))[0])


# the branch edges 1/2 and 1, their float neighbours, the largest float,
# whose 2|u| overflows, and the non-finite
_PLATEAU_EDGES = [v for e in (0.5, 1.0)
                  for v in (e, np.nextafter(e, 0.0), np.nextafter(e, 2.0))]
_PLATEAU_SPECIAL = sorted({s * v for v in _PLATEAU_EDGES + [np.finfo(float).max]
                           for s in (1.0, -1.0)}) + [0.0, -0.0, np.inf, -np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(u=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                    elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                       st.floats(-1.5, 1.5),
                                       st.sampled_from(_PLATEAU_SPECIAL))))
def test_plateau_profile_is_the_three_branches_byte_for_byte(u):
    got = plateau_profile(u)
    assert got.shape == u.shape
    assert got.tobytes() == plateau_branches(u).tobytes()


def test_plateau_profile_edges_byte_for_byte():
    u = np.array(_PLATEAU_SPECIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert plateau_profile(u).tobytes() == plateau_branches(u).tobytes()
    assert np.all(plateau_profile(u)[np.abs(u) <= 0.5] == 1.0)
    assert not np.any(plateau_profile(u)[~(np.abs(u) < 1.0)])


def test_chi_factorizes():
    par = make_surface("paraboloid", dim=3)
    y = np.array([[0.1, 0.3], [0.3, 0.3], [0.45, 0.1]])
    parts = plateau_profile(y[:, 0] / 0.48) * plateau_profile(y[:, 1] / 0.48)
    assert par.chi(y) == approx(parts)


def test_quadrature_mass_oracle():
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    assert meas.mass == approx(0.7696560773850898, abs=1e-10)
    finer = surface_quadrature(circ, 400)
    assert finer.mass == approx(meas.mass, abs=1e-11)


def test_gauss_legendre_rules_are_solved_once_and_read_only():
    for n in (8, 12, 24, 50):
        nodes, weights = _leggauss(n)
        want_nodes, want_weights = leggauss(n)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert _leggauss(n)[0] is nodes
        for part in (nodes, weights):
            with pytest.raises(ValueError):
                part[0] = 0.0


# ------------------------------------------------------------------ pieces


def test_partition_piece_counts():
    circ = make_surface("circle-arc")
    coarse = partition_measure(circ, s=0, eps=EPS)
    assert len(coarse) == 3
    assert coarse[0].scale == approx(1.0)
    assert coarse[0].partition.r_cap == approx(1.0 / (2.0 * np.sqrt(2.0)))
    finer = partition_measure(circ, s=8, eps=EPS)
    assert len(finer) == 11
    assert len(finer) <= 64 * 2 ** (EPS * 8)
    for piece in finer:
        assert piece.s == 8
        assert piece.scale == approx(2.0 ** (-EPS * 8))
        assert piece.eps == EPS


def test_partition_of_unity():
    circ = make_surface("circle-arc")
    pieces = partition_measure(circ, s=4, eps=EPS)
    rng = np.random.default_rng(11)
    y = rng.uniform(-0.55, 0.55, size=(1000, 1))
    total = np.zeros(1000)
    for piece in pieces:
        total += piece.bump(y)
    assert np.max(np.abs(total - circ.chi(y))) < 1e-8


def test_partition_mass_invariance():
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    for s in (0, 8):
        pieces = partition_measure(circ, s=s, eps=EPS)
        total = sum(p.measure().mass for p in pieces)
        assert abs(total - meas.mass) < 1e-6
    # in d = 3 the chi weight is a product, so the exact mass is the
    # square of the 1-d chi mass; the coarse full-measure quadrature is
    # less accurate than the partition itself here
    par = make_surface("paraboloid", dim=3)
    pieces3 = partition_measure(par, s=2, eps=EPS)
    exact = 0.7696560773850898 ** 2
    assert abs(sum(p.measure().mass for p in pieces3) - exact) < 1e-6


def test_a_partition_holds_no_nodes():
    # the 81 caps of a 3-D partition at s = 4 are geometry alone; with
    # their bump-weighted nodes they held about 13.5 MB
    par = make_surface("paraboloid", dim=3)
    tracemalloc.start()
    try:
        pieces = partition_measure(par, s=4, eps=EPS)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pieces) == 81
    assert held < 1_000_000


def test_measure_is_built_per_call_on_the_param_points():
    piece = partition_measure(make_surface("paraboloid", dim=3), s=2, eps=EPS)[4]
    first, second = piece.measure(), piece.measure()
    assert first is not second and first.quad_points is not second.quad_points
    assert first.param_points.tobytes() == piece.param_points.tobytes()
    assert first.quad_weights.tobytes() == second.quad_weights.tobytes()
    assert (first.scale, first.eps) == (piece.scale, piece.eps)


def _all_caps_raw(partition, y):
    u = (y[:, None, :] - partition.centers[None, :, :]) / partition.r_cap
    return np.prod(plateau_profile(u), axis=2)


@pytest.mark.parametrize("kind,dim,s", [("circle-arc", 2, 4), ("circle-arc", 2, 8),
                                        ("quartic-flat", 2, 13), ("paraboloid", 3, 4)])
def test_near_caps_match_all_caps_bit_for_bit(kind, dim, s):
    # raw evaluates only the caps that reach the points; every other column
    # must be the exact 0 of the plateau, so bumps and masses keep their bytes
    surf = make_surface(kind, dim)
    pieces = partition_measure(surf, s=s, eps=EPS)
    partition = pieces[0].partition
    rng = np.random.default_rng(s)
    samples = [p.param_points for p in pieces[::max(1, len(pieces) // 12)]]
    samples.append(rng.uniform(-0.55, 0.55, size=(500, dim - 1)))
    # small boxes whose edges fall inside some cap's taper
    for lo in rng.uniform(-0.5, 0.4, size=(20, dim - 1)):
        side = rng.uniform(0.25, 2.0) * partition.r_cap
        samples.append(rng.uniform(lo, lo + side, size=(50, dim - 1)))
    for y in samples:
        raw = _all_caps_raw(partition, y)
        assert partition.raw(y).tobytes() == raw.tobytes()
        total = np.sum(raw, axis=1)
        live = total > 0.0
        for rho in range(0, len(pieces), max(1, len(pieces) // 5)):
            want = np.zeros(len(y))
            want[live] = raw[live, rho] * surf.chi(y)[live] / total[live]
            assert partition.bump(y, rho).tobytes() == want.tobytes()
    assert partition.raw(np.zeros((0, dim - 1))).shape == (0, len(pieces))


@pytest.mark.parametrize("s, eps", [(-1, EPS), (4.5, EPS), (4.0, EPS), (True, EPS), (4, 1.0)])
def test_partition_rejects_a_bad_scale_or_eps(s, eps):
    # a fractional s would size the caps at 4.5 and classify them at 4
    with pytest.raises(InputInvalidError, match="integer s >= 0"):
        partition_measure(make_surface("circle-arc"), s=s, eps=eps)


def test_partition_budget_guard():
    circ = make_surface("circle-arc")
    with pytest.raises(BudgetExceededError):
        partition_measure(circ, s=80, eps=EPS)


# -------------------------------------------------------------- exclusions


def test_classify_circle_clean():
    _, pieces = _classified_circle(4)
    assert len(pieces) == 7
    for piece in pieces:
        assert not piece.in_I1
        assert not piece.in_I2
        assert not piece.excluded
        assert piece.min_curvature == approx(1.0, abs=1e-9)
        assert piece.worst_mass_ratio <= 1.0


def test_classify_quartic_flat_caps():
    quart = make_surface("quartic-flat")
    D = _transversal()
    pieces = partition_measure(quart, s=8, eps=EPS)
    classify_pieces(pieces, quart, D, eps=EPS, zeta=ZETA)
    flagged = [p for p in pieces if p.in_I1]
    assert len(flagged) == 5
    # the flagged caps are exactly the ones closest to the flat point
    order = sorted(pieces, key=lambda p: abs(float(p.center[0])))
    assert set(id(p) for p in flagged) == set(id(p) for p in order[:5])
    cut = 2.0 ** (-EPS * 8)
    for piece in pieces:
        assert piece.in_I1 == (piece.min_curvature < cut * (1.0 - 1e-9))
        assert not piece.in_I2


def test_classify_orientation_flip():
    flat = make_surface("custom-polynomial", coeffs={})
    pieces = partition_measure(flat, s=4, eps=EPS)
    classify_pieces(pieces, flat, _transversal(), eps=EPS, zeta=ZETA)
    assert all(not p.in_I2 for p in pieces)
    # same surface against the rotated dilation: the graph normal now
    # lies along the fast axis and every cap carries too much cube mass
    classify_pieces(pieces, flat, _normal_perp(), eps=EPS, zeta=ZETA)
    assert all(p.in_I2 for p in pieces)
    for piece in pieces:
        assert piece.worst_mass_ratio > 1.0
        assert piece.worst_tau is not None


def test_classify_monotone_exclusion():
    quart = make_surface("quartic-flat")
    D = _transversal()
    pieces = partition_measure(quart, s=8, eps=EPS)
    classify_pieces(pieces, quart, D, eps=EPS, zeta=ZETA)
    tight = [p.in_I1 for p in pieces]
    classify_pieces(pieces, quart, D, eps=EPS / 2.0, zeta=ZETA)
    loose = [p.in_I1 for p in pieces]
    for was_in, now_in in zip(tight, loose):
        if was_in:
            assert now_in
    assert sum(loose) >= sum(tight)


def test_classify_sizes_each_tau_once(monkeypatch):
    # the mass threshold and the parameter window depend on tau alone, so
    # one classification of many pieces asks for each tau's diameter once
    quart = make_surface("quartic-flat")
    D = _transversal()
    pieces = partition_measure(quart, s=8, eps=EPS)
    assert len(pieces) > 1
    asked = []

    def counting(D, tau):
        asked.append(tau)
        return cube_diameter(D, tau)

    monkeypatch.setattr(surface, "cube_diameter", counting)
    classify_pieces(pieces, quart, D, eps=EPS, zeta=ZETA)
    assert asked == list(range(0, -17, -1))


def test_classification_builds_no_cap_measure(monkeypatch):
    # I1 reads the cap rule's parameter points and I2 a lattice over the
    # cap; neither needs the bump-weighted nodes
    def refuse(piece):
        raise AssertionError("a cap measure was built")

    monkeypatch.setattr(SurfacePiece, "measure", refuse)
    quart = make_surface("quartic-flat")
    pieces = partition_measure(quart, s=8, eps=EPS)
    classify_pieces(pieces, quart, _transversal(), eps=EPS, zeta=ZETA)
    assert sum(p.in_I1 for p in pieces) == 5
    report = excluded_piece_growth(quart, _transversal(), eps=EPS, zeta=ZETA,
                                   s_values=range(4, 13, 2))
    assert report.counts == [5, 5, 5, 5, 7]


def test_classify_input_validation():
    circ = make_surface("circle-arc")
    D = _transversal()
    assert classify_pieces([], circ, D, eps=EPS, zeta=ZETA) == []
    mixed = partition_measure(circ, s=0, eps=EPS) + partition_measure(circ, s=4, eps=EPS)
    with pytest.raises(InputInvalidError):
        classify_pieces(mixed, circ, D, eps=EPS, zeta=ZETA)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_classify_grid_is_the_cell_centred_formula(dim, monkeypatch):
    # the fine grid is a Lattice over the cap's box; its centers and cell
    # volume are those of lo + (hi - lo)(i + 1/2)/n bit for bit
    p = dim - 1
    surf = make_surface("paraboloid", dim)
    D = validate_dilation(np.diag([5.0, 4.0, 3.0, 2.0][4 - dim:]))
    centers = np.array([[0.1] * p, [-0.2 / 3.0] * p])
    partition = surface._CapPartition(centers, 0.13, surf)
    pieces = [SurfacePiece(surface=surf, s=0, rho=rho, center=c, partition=partition,
                           scale=1.0, eps=EPS) for rho, c in enumerate(centers)]
    make_lattice, made = surface.make_lattice, []

    def recording(box, shape):
        made.append(make_lattice(box, shape))
        return made[-1]

    monkeypatch.setattr(surface, "make_lattice", recording)
    classify_pieces(pieces, surf, D, eps=EPS, zeta=ZETA)
    assert len(made) == len(pieces)
    for piece, lattice in zip(pieces, made):
        lo, hi = piece.center - 0.13, piece.center + 0.13
        n = max(2, int(round(surface.FINE_POINTS ** (1.0 / p))))
        axes = [lo[j] + (hi[j] - lo[j]) * (np.arange(n) + 0.5) / n for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        assert lattice.points().tobytes() == pts.tobytes()
        assert lattice.cell_volume == float(np.prod((hi - lo) / n))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cube_masses_match_unique_oracle(dim):
    # negative keys, and keys spanning more than 2^32 on an axis, where a
    # packed 1-D key of the columns would overflow
    rng = np.random.default_rng(dim)
    n = 3000
    keys = rng.integers(-3, 4, size=(n, dim))
    wide = rng.random(n) < 0.3
    keys[wide, 0] += rng.choice([-2 ** 52, 2 ** 40, 2 ** 52 - 1], size=int(wide.sum()))
    keys = keys.astype(np.int64)
    masses = rng.random(n)
    got = _cube_masses(keys, masses)
    want = unique_cube_masses(keys, masses)
    assert np.ptp(keys[:, 0]) > 2 ** 32
    assert np.array_equal(got, want)


def test_cube_masses_single_point_and_ties():
    keys = np.array([[5, -7]], dtype=np.int64)
    assert np.array_equal(_cube_masses(keys, np.array([0.25])), [0.25])
    # rows equal in column 0 must still split on column 1
    keys = np.array([[0, 1], [0, -1], [0, 1], [-1, 1]], dtype=np.int64)
    masses = np.array([1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(_cube_masses(keys, masses), unique_cube_masses(keys, masses))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), n=st.integers(1, 300))
def test_cube_masses_are_the_row_grouping_byte_for_byte(data, dim, n):
    # keys from a few values per column, so rows tie, and often on a prefix
    span = data.draw(st.integers(0, 3))
    keys = data.draw(hnp.arrays(np.int64, (n, dim), elements=st.integers(-span, span)))
    masses = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    got = _cube_masses(keys, masses)
    assert got.tobytes() == unique_cube_masses(keys, masses).tobytes()


@settings(max_examples=60, deadline=None)
@given(axes=st.lists(hnp.arrays(np.float64, st.integers(1, 5),
                                elements=st.floats(-10.0, 10.0)),
                     min_size=1, max_size=4))
def test_grid_points_is_the_raveled_meshgrid(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    want = np.column_stack([m.ravel() for m in mesh])
    assert grid_points(axes).tobytes() == want.tobytes()
    assert grid_points(axes).shape == want.shape


def test_classify_rejects_cube_keys_past_exact_floats():
    # under diag(2,4) the pulled coordinates pass 2^53 from tau = -28 on,
    # where float cube keys stop being exact (and int64 keys wrap at 2^63);
    # the window (-s - 8, 0) first reaches -28 at s = 20
    circ = make_surface("circle-arc")
    pieces = partition_measure(circ, s=20, eps=EPS)
    with pytest.raises(InputInvalidError, match="s = 20, tau -28: .* 2\\^53"):
        classify_pieces(pieces, circ, _normal_perp(), eps=EPS, zeta=ZETA)
    # at s = 19 the window stops at tau = -27, where this cap's cube keys
    # reach 2^51 and are still exact
    second = partition_measure(circ, s=19, eps=EPS)[1:2]
    classify_pieces(second, circ, _normal_perp(), eps=EPS, zeta=ZETA)


def test_growth_quartic_eta():
    quart = make_surface("quartic-flat")
    report = excluded_piece_growth(quart, _transversal(), eps=EPS, zeta=ZETA,
                                   s_values=range(4, 17, 2))
    assert report.counts == [5, 5, 5, 5, 7, 7, 9]
    assert report.eta == approx(0.1883, abs=1e-3)
    assert report.eta > 0.05


def test_growth_circle_eta():
    circ = make_surface("circle-arc")
    report = excluded_piece_growth(circ, _transversal(), eps=EPS, zeta=ZETA,
                                   s_values=range(4, 17, 2))
    assert report.counts == [0] * 7
    # zero excluded pieces at every scale puts the full budget into eta
    assert report.eta == approx(EPS)
    with pytest.raises(DegenerateFitError):
        excluded_piece_growth(circ, _transversal(), eps=EPS, zeta=ZETA,
                              s_values=(4, 8, 12))


# ----------------------------------------------------------- kernel checks


def test_autocorrelation_symmetry_and_mass():
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    kern = autocorrelation_kernel(meas)
    assert kern.values == approx(kern.values[::-1, ::-1], abs=1e-12)
    integral = kern.values.sum() * kern.cell_volume
    assert integral == approx(meas.mass ** 2, rel=0.02)
    # the peak sits at the origin cell
    peak = np.unravel_index(np.argmax(kern.values), kern.values.shape)
    center = np.array(kern.values.shape) // 2
    assert np.max(np.abs(np.array(peak) - center)) <= 1


def test_autocorrelation_resolution_guard():
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    with pytest.raises(ResolutionTooCoarseError):
        autocorrelation_kernel(meas, n_bins=8)


@pytest.mark.parametrize("n_bins", [0, -5, 2.5, True, 63.0])
def test_autocorrelation_kernel_takes_a_positive_integer_bin_count(n_bins):
    # 0 raised ZeroDivisionError, -5 ValueError, and 2.5 and True read as
    # a resolution too coarse
    meas = surface_quadrature(make_surface("circle-arc"), 32)
    with pytest.raises(InputInvalidError, match=r"n_bins must be an integer >= 1, got "):
        autocorrelation_kernel(meas, n_bins)
    assert autocorrelation_kernel(meas, np.int64(63)).values.shape == (63, 63)


@pytest.mark.parametrize("n_gl", [0, -4, 3, 2.5, 100.0, True, 4, 16, 34, 50])
def test_surface_quadrature_takes_an_integer_node_count_of_at_least_4(n_gl):
    # 0, -4 and 2.5 built 8-node panels without complaint, and 100.0 raised
    # TypeError; every count from 4 to 35 built the 32-node rule and 50
    # built 48, so only a count the rule builds exactly (a multiple of 4,
    # at least 32) is taken
    circ = make_surface("circle-arc")
    with pytest.raises(InputInvalidError,
                       match=r"n_gl must be an integer, got |n_gl=-?\d+ would build \d+ nodes"):
        surface_quadrature(circ, n_gl)
    assert len(surface_quadrature(circ, np.int64(32)).quad_weights) == 32
    assert len(surface_quadrature(circ, 36).quad_weights) == 36


@given(st.integers(1, 3), st.integers(1, 40),
       st.floats(1e-3, 1e3), st.floats(1e-4, 1e2))
def test_kernel_lattice_radii_are_the_meshgrid_radii(dim, n, half_width, spacing):
    # check_kernel_decay reads the radii off the kernel's Lattice: the same
    # bytes as the meshgrid of centers the kernel once built for itself
    kernel = KernelField(values=np.zeros((n,) * dim), half_width=half_width,
                         spacing=spacing, dim=dim, mass_squared=1.0)
    radii = np.linalg.norm(kernel.lattice.points(), axis=1)
    assert radii.tobytes() == meshgrid_radii(kernel).tobytes()


def test_kernel_decay_circle_band():
    circ = make_surface("circle-arc")
    kern = autocorrelation_kernel(surface_quadrature(circ, 200))
    report = check_kernel_decay(kern)
    assert -1.3 <= report.slope <= -0.7
    assert report.ok
    # on 6 x 6 cells of a third of half_width the decade's lower end, kept
    # 3 cells out, passes its upper one at 0.8 half_width
    coarse = KernelField(values=np.ones((6, 6)), half_width=0.3, spacing=0.1,
                         dim=2, mass_squared=1.0)
    with pytest.raises(DegenerateFitError, match="empty radius range"):
        check_kernel_decay(coarse)


def test_kernel_decay_constant_control():
    circ = make_surface("circle-arc")
    kern = autocorrelation_kernel(surface_quadrature(circ, 100))
    flat = KernelField(values=np.ones_like(kern.values), half_width=kern.half_width,
                       spacing=kern.spacing, dim=2, mass_squared=1.0)
    report = check_kernel_decay(flat)
    assert -0.2 <= report.slope <= 0.2
    assert not report.ok


def test_kernel_decay_paraboloid_3d():
    par = make_surface("paraboloid", dim=3)
    kern = autocorrelation_kernel(surface_quadrature(par, 48), n_bins=95)
    report = check_kernel_decay(kern)
    assert -1.3 <= report.slope <= -0.7
    assert report.ok


def test_linfty_bound_atom():
    _, pieces = _classified_circle(0)
    piece = next(p for p in pieces if not p.excluded)
    D = _transversal()
    rep = check_linfty_bound(_haar_sum(D, (0, 0), 0), piece,
                             sigma=0, zeta=ZETA, s=0)
    assert rep.sup_norm > 0.0
    assert 0.0 < rep.sup_ratio <= 64.0
    assert 0.0 < rep.l1_ratio <= 64.0
    assert rep.ok
    assert not rep.excluded


def test_linfty_homogeneity():
    _, pieces = _classified_circle(0)
    piece = next(p for p in pieces if not p.excluded)
    D = _transversal()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    one = AtomicSum(terms=[(atom, 1.0)], dilation=D)
    ten = AtomicSum(terms=[(atom, 10.0)], dilation=D)
    rep1 = check_linfty_bound(one, piece, sigma=0, zeta=ZETA, s=0)
    rep10 = check_linfty_bound(ten, piece, sigma=0, zeta=ZETA, s=0)
    assert rep10.sup_ratio == approx(rep1.sup_ratio, rel=1e-12)
    assert rep10.l1_ratio == approx(rep1.l1_ratio, rel=1e-12)
    assert rep10.sup_norm == approx(10.0 * rep1.sup_norm, rel=1e-12)


def test_linfty_excluded_rationales():
    D = _transversal()
    asum = _haar_sum(D, (0, 0), 0)
    quart = make_surface("quartic-flat")
    qp = partition_measure(quart, s=8, eps=EPS)
    classify_pieces(qp, quart, D, eps=EPS, zeta=ZETA)
    low_curv = next(p for p in qp if p.in_I1)
    rep = check_linfty_bound(asum, low_curv, sigma=0, zeta=ZETA, s=8)
    assert rep.excluded
    assert "curvature" in rep.rationale
    _, cp = _classified_circle(0)
    heavy = next(p for p in cp if p.in_I2)
    rep2 = check_linfty_bound(asum, heavy, sigma=0, zeta=ZETA, s=0)
    assert rep2.excluded
    assert "mass" in rep2.rationale


def test_pair_bound_spec_distance():
    D = _transversal()
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    rep = check_pair_bound(_haar_sum(D, (0, 0), -1), _haar_sum(D, (2, 0), -1),
                           meas, sigma_prime=-1, eps=EPS, s=0)
    assert rep.dist == approx(0.5)
    assert rep.precondition_met
    assert abs(rep.inner) > 0.0
    assert rep.ratio <= 64.0
    assert rep.ok
    # the same geometry with an overridden short distance fails the
    # separation precondition without raising
    short = check_pair_bound(_haar_sum(D, (0, 0), -1), _haar_sum(D, (2, 0), -1),
                             meas, sigma_prime=-1, eps=EPS, s=0, dist=0.25)
    assert not short.precondition_met


def test_pair_bound_distance_doubling():
    D = _transversal()
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    near = check_pair_bound(_haar_sum(D, (0, 0), -2), _haar_sum(D, (4, 0), -2),
                            meas, sigma_prime=-2, eps=EPS, s=0)
    far = check_pair_bound(_haar_sum(D, (0, 0), -2), _haar_sum(D, (8, 0), -2),
                           meas, sigma_prime=-2, eps=EPS, s=0)
    assert far.dist == approx(2.0 * near.dist)
    assert far.ratio <= 2.0 * near.ratio


def test_pair_control_shallow_decay():
    # without cancellation the inner product tracks the kernel itself,
    # decaying far slower than the claimed quadratic rate
    D = _transversal()
    circ = make_surface("circle-arc")
    meas = surface_quadrature(circ, 200)
    dists, inners = [], []
    for idx in (4, 8, 16):
        rep = check_pair_bound(_plateau_sum(D, (0, 0), -3), _plateau_sum(D, (idx, 0), -3),
                               meas, sigma_prime=-4, eps=EPS, s=0, spacing=0.004)
        dists.append(rep.dist)
        inners.append(abs(rep.inner))
    slope = np.polyfit(np.log(dists), np.log(inners), 1)[0]
    assert slope >= -1.5
    assert slope < 0.0


def _brute_convolution(atomic, measure, points):
    """(mu * f) at the points: the whole atomic sum once per measure node."""
    out = np.zeros(points.shape[0])
    for node, w in zip(measure.quad_points, measure.quad_weights):
        if w != 0.0:
            out += w * atomic.evaluate(points - node)
    return out


@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 2.0]],
                                    [[4.0, 1.0], [1.0, 3.0]]])
def test_kernel_checks_match_brute_force(matrix):
    # diag(4, 2) takes convolve_dilated's separable path and the sheared
    # matrix its windowed scatter; both must match one evaluation of the
    # sum per node on the cell centers of the check's lattice
    D = validate_dilation(matrix)
    piece = partition_measure(make_surface("circle-arc"), s=0, eps=EPS)[1]
    a = AtomicSum(terms=[
        (make_atom(GridCube(0, -1, (0, 0), D), "haar", seed=1), 1.0),
        (make_atom(GridCube(0, 0, (1, -1), D), "bump", seed=2), 0.5)],
        dilation=D)
    b = _haar_sum(D, (2, 0), -1)

    _, (fld,), _ = _piece_convolutions([a], piece)
    h = fld.lattice.spacing[0]
    field = _brute_convolution(a, piece.measure(), fld.lattice.points())
    peak = float(np.max(np.abs(field)))
    assert peak > 0.0
    rep = check_linfty_bound(a, piece, sigma=0, zeta=ZETA, s=0)
    assert rep.sup_norm == approx(peak, rel=0, abs=1e-12 * peak)
    assert rep.l1_norm == approx(np.sum(np.abs(field)) * h * h, rel=0,
                                 abs=1e-12 * peak * field.size * h * h)

    _, (fld, _), _ = _piece_convolutions([a, b], piece)
    h = fld.lattice.spacing[0]
    fa = _brute_convolution(a, piece.measure(), fld.lattice.points())
    fb = _brute_convolution(b, piece.measure(), fld.lattice.points())
    scale = float(np.max(np.abs(fa)) * np.max(np.abs(fb)))
    rep = check_pair_bound(a, b, piece, sigma_prime=-1, eps=EPS, s=0)
    assert abs(rep.inner) > 1e-6 * scale * h * h
    assert rep.inner == approx(float(np.sum(fa * fb)) * h * h, rel=0,
                               abs=1e-12 * scale * fa.size * h * h)


def test_linfty_bound_rejects_a_measure_without_cap_exponent():
    # the L1 bound 2^((zeta + eps(1 - d)) s) is stated per cap; the full
    # measure carries eps = 0 and must not be checked under a made-up eps
    D = _transversal()
    measure = surface_quadrature(make_surface("circle-arc"), 48)
    assert measure.eps == 0.0
    with pytest.raises(InputInvalidError, match="cap exponent"):
        check_linfty_bound(_haar_sum(D, (0, 0), -1), measure,
                           sigma=0, zeta=ZETA, s=0)


# ------------------------------------------------- golden digests, as recorded


GOLDEN_FILE = Path(__file__).parent / "data" / "surface_golden.txt"
GOLDEN_CASES = ("circle-arc s=0", "circle-arc s=4", "quartic-flat s=4",
                "paraboloid d=3 s=4")


def _golden_case(name):
    """(surface, dilation, s, atomic sums a and b, every nth piece checked)."""
    if name == "paraboloid d=3 s=4":
        D = validate_dilation(np.diag([4.0, 3.0, 2.0]))
        a = AtomicSum(terms=[
            (make_atom(GridCube(0, 0, (0, 0, 0), D), "haar", seed=1), 1.0),
            (make_atom(GridCube(0, 0, (-1, 1, 0), D), "bump", seed=2), 0.5)],
            dilation=D)
        return make_surface("paraboloid", dim=3), D, 4, a, _haar_sum(D, (1, 0, 0), 0), 20
    kind, s = name.split(" s=")
    D = _transversal()
    a = AtomicSum(terms=[
        (make_atom(GridCube(0, -1, (0, 0), D), "haar", seed=1), 1.0),
        (make_atom(GridCube(0, 0, (1, -1), D), "bump", seed=2), 0.5)],
        dilation=D)
    return make_surface(kind), D, int(s), a, _haar_sum(D, (2, 0), -1), 1


def _outcome(call):
    """call()'s value, or the type and message of the package error it raised."""
    try:
        return call()
    except AnisoError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _kernel_outputs(measure, n_bins):
    kernel = autocorrelation_kernel(measure, n_bins)
    decay = _outcome(lambda: dataclasses.astuple(check_kernel_decay(kernel)))
    return [kernel.values.tobytes(), kernel.half_width, kernel.spacing,
            kernel.mass_squared, decay]


def golden_digests(name):
    """Digests of the nodes and weights of each partition_measure piece's
    measure(), the classify_pieces fields, the autocorrelation kernel and its decay shells
    (full measure, then the first piece), and the check_linfty_bound and
    check_pair_bound reports on every nth piece; each with the error a call
    raised, if any."""
    surf, D, s, a, b, every = _golden_case(name)
    pieces = partition_measure(surf, s=s, eps=EPS)
    measures = [p.measure() for p in pieces]
    partition = [_digest(
        [m.param_points.tobytes(), m.quad_points.tobytes(), m.quad_weights.tobytes(),
         p.center.tobytes(), p.rho, p.s, p.eps, p.scale, m.mass])
        for p, m in zip(pieces, measures)]
    classify_pieces(pieces, surf, D, eps=EPS, zeta=ZETA)
    classes = [(p.in_I1, p.in_I2, p.excluded, p.min_curvature, p.worst_mass_ratio,
                p.worst_tau) for p in pieces]
    # a 255^3 histogram of every node pair is too large for a test in d = 3
    n_bins = surface.KERNEL_BINS if surf.dim == 2 else 63
    kernels = [_outcome(lambda: _kernel_outputs(surface_quadrature(surf, 32), n_bins)),
               _outcome(lambda: _kernel_outputs(measures[0], n_bins))]
    checked = pieces[::every]
    linfty = [_outcome(lambda: dataclasses.astuple(
        check_linfty_bound(a, p, sigma=0, zeta=ZETA, s=s))) for p in checked]
    pair = [_outcome(lambda: dataclasses.astuple(
        check_pair_bound(a, b, p, sigma_prime=-1, eps=EPS, s=s))) for p in checked]
    return [_digest(partition), _digest(classes), _digest(kernels[:1]),
            _digest(kernels[1:]), _digest(linfty), _digest(pair)]


def _read_golden():
    recorded = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digests = line.split(": ", 1)
            recorded[name] = digests.split()
    return recorded


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_surface_outputs_match_the_golden_digests(name):
    # a reshaped piece or check must reproduce every node, weight,
    # classification, kernel and report bit for bit
    recorded = _read_golden()[name]
    got = golden_digests(name)
    assert len(got) == len(recorded)
    changed = [k for k, (a, b) in enumerate(zip(got, recorded)) if a != b]
    assert not changed, f"{name}: outputs {changed} changed"


def record_golden():
    lines = [
        "# Digests of the surface module's outputs, one line per case of",
        "# _golden_case in tests/test_surface.py: partition_measure nodes and",
        "# weights, classify_pieces fields, the autocorrelation kernel and its",
        "# decay shells of the full measure and of the first piece, then the",
        "# check_linfty_bound and check_pair_bound reports.  Re-record only",
        "# when an output is meant to change, and say why in CHANGES.md:",
        "#     PYTHONPATH=src python tests/test_surface.py --record-golden",
    ]
    lines += [f"{name}: {' '.join(golden_digests(name))}" for name in GOLDEN_CASES]
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-golden"]:
        sys.exit("usage: python tests/test_surface.py --record-golden")
    record_golden()
