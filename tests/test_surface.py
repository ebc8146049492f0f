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

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial.legendre import leggauss
from hypothesis import strategies as st
from pytest import approx

from anisomax import surface
from anisomax.atoms import Atom, AtomicSum, make_atom
from anisomax.dilation import cube_diameter, validate_dilation
from anisomax.errors import (
    BudgetExceededError,
    DegenerateFitError,
    InputInvalidError,
    ResolutionTooCoarseError,
)
from anisomax.grid import GridCube
from anisomax.surface import (
    GraphSurface,
    KernelField,
    SurfaceMeasure,
    _conv_lattice,
    _cube_masses,
    _default_spacing,
    _leggauss,
    _support_boxes,
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
    assert coarse[0].radius == approx(1.0)
    assert coarse[0].partition.r_cap == approx(1.0 / (2.0 * np.sqrt(2.0)))
    finer = partition_measure(circ, s=8, eps=EPS)
    assert len(finer) == 11
    assert len(finer) <= 64 * 2 ** (EPS * 8)
    for piece in finer:
        assert piece.s == 8
        assert piece.radius == approx(2.0 ** (-EPS * 8))
        assert piece.scale == approx(piece.radius)


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
        total = sum(p.mass for p in pieces)
        assert abs(total - meas.mass) < 1e-6
    # in d = 3 the chi weight is a product, so the exact mass is the
    # square of the 1-d chi mass; the coarse full-measure quadrature is
    # less accurate than the partition itself here
    par = make_surface("paraboloid", dim=3)
    pieces3 = partition_measure(par, s=2, eps=EPS, n_gl=16)
    exact = 0.7696560773850898 ** 2
    assert abs(sum(p.mass for p in pieces3) - exact) < 1e-6


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
    classify_pieces(pieces, quart, D, eps=EPS, zeta=ZETA, tau_window=(-6, 0))
    assert asked == list(range(0, -7, -1))


def test_classify_input_validation():
    circ = make_surface("circle-arc")
    D = _transversal()
    assert classify_pieces([], circ, D, eps=EPS, zeta=ZETA) == []
    mixed = partition_measure(circ, s=0, eps=EPS) + partition_measure(circ, s=4, eps=EPS)
    with pytest.raises(InputInvalidError):
        classify_pieces(mixed, circ, D, eps=EPS, zeta=ZETA)


def _unique_oracle(keys, masses):
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    return np.bincount(inverse.ravel(), weights=masses)


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
    want = _unique_oracle(keys, masses)
    assert np.ptp(keys[:, 0]) > 2 ** 32
    assert np.array_equal(got, want)


def test_cube_masses_single_point_and_ties():
    keys = np.array([[5, -7]], dtype=np.int64)
    assert np.array_equal(_cube_masses(keys, np.array([0.25])), [0.25])
    # rows equal in column 0 must still split on column 1
    keys = np.array([[0, 1], [0, -1], [0, 1], [-1, 1]], dtype=np.int64)
    masses = np.array([1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(_cube_masses(keys, masses), _unique_oracle(keys, masses))


def test_classify_rejects_cube_keys_past_exact_floats():
    # under diag(2,4) the pulled coordinates pass 2^53 from tau = -28 on,
    # where float cube keys stop being exact (and int64 keys wrap at 2^63)
    circ = make_surface("circle-arc")
    pieces = partition_measure(circ, s=0, eps=EPS)
    with pytest.raises(InputInvalidError, match="2\\^53"):
        classify_pieces(pieces, circ, _normal_perp(), eps=EPS, zeta=ZETA,
                        tau_window=(-40, -20))
    classify_pieces(pieces, circ, _normal_perp(), eps=EPS, zeta=ZETA,
                    tau_window=(-27, -20))


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


def test_kernel_decay_circle_band():
    circ = make_surface("circle-arc")
    kern = autocorrelation_kernel(surface_quadrature(circ, 200))
    report = check_kernel_decay(kern)
    assert -1.3 <= report.slope <= -0.7
    assert report.ok
    with pytest.raises(DegenerateFitError):
        check_kernel_decay(kern, r_max=0.02)


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

    h = _default_spacing(a)
    lat = _conv_lattice(_support_boxes(a), piece.quad_points, h, 2.0 * h)
    field = _brute_convolution(a, piece, lat.points())
    peak = float(np.max(np.abs(field)))
    assert peak > 0.0
    rep = check_linfty_bound(a, piece, sigma=0, zeta=ZETA, s=0)
    assert rep.sup_norm == approx(peak, rel=0, abs=1e-12 * peak)
    assert rep.l1_norm == approx(np.sum(np.abs(field)) * h * h, rel=0,
                                 abs=1e-12 * peak * field.size * h * h)

    h = min(_default_spacing(a), _default_spacing(b))
    lat = _conv_lattice(_support_boxes(a, b), piece.quad_points, h, 2.0 * h)
    fa = _brute_convolution(a, piece, lat.points())
    fb = _brute_convolution(b, piece, lat.points())
    scale = float(np.max(np.abs(fa)) * np.max(np.abs(fb)))
    rep = check_pair_bound(a, b, piece, sigma_prime=-1, eps=EPS, s=0)
    assert abs(rep.inner) > 1e-6 * scale * h * h
    assert rep.inner == approx(float(np.sum(fa * fb)) * h * h, rel=0,
                               abs=1e-12 * scale * fa.size * h * h)


def test_linfty_bound_rejects_a_measure_without_cap_exponent():
    # the L1 bound 2^((zeta + eps(1 - d)) s) is stated per cap; the full
    # measure carries eps = 0 and must not be checked under a made-up eps
    D = _transversal()
    measure = surface_quadrature(make_surface("circle-arc"), 50)
    assert measure.eps == 0.0
    with pytest.raises(InputInvalidError, match="cap exponent"):
        check_linfty_bound(_haar_sum(D, (0, 0), -1), measure,
                           sigma=0, zeta=ZETA, s=0)
