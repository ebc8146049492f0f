"""Grid cubes, expansions, and tendril outer bounds.

Frozen reference values:
  cube (0, 0, (0,0)) under diag(2, 4) realizes to [0, 1]^2 with volume 1
  its double expansion is [-1/2, 3/2]^2
  rounded-box volume (4 + 16)^2 - (4 - pi) 64 for the 2I tendril calibration
"""

from itertools import product

import numpy as np
import pytest
from pytest import approx

from anisomax.dilation import validate_dilation
from anisomax.errors import InputInvalidError, NotNormalizedError
from anisomax.grid import (
    GridCube,
    Parallelepiped,
    TendrilBound,
    _ClampedProjector,
    _unit_corners,
    expand_cube,
    expand_parallelepiped,
    tendril_of,
    tendrils_cover_dilates,
)
from anisomax.maximal import grid_points

from _oracles import cube_contains, tau_parent


def _diag24():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _jordan2():
    return validate_dilation([[2.0, 1.0], [0.0, 2.0]])


def _double():
    return validate_dilation(2.0 * np.eye(2))


# ------------------------------------------------------------------ geometry


def test_realize_unit_cube():
    p = GridCube(0, 0, (0, 0), _diag24()).realize()
    assert p.origin == approx(np.zeros(2))
    assert p.volume == approx(1.0)
    lo, hi = p.bbox()
    assert lo == approx(np.zeros(2))
    assert hi == approx(np.ones(2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unit_corners_are_the_product_corners_and_read_only(d):
    # built once per dimension and shared by every Parallelepiped.vertices
    corners = _unit_corners(d)
    assert np.array_equal(corners, np.array(list(product((0.0, 1.0), repeat=d))))
    assert corners.dtype == np.float64 and corners.shape == (2 ** d, d)
    assert not corners.flags.writeable
    with pytest.raises(ValueError):
        corners[0, 0] = 1.0
    assert _unit_corners(d) is corners


def test_realize_scaled_cube():
    D = _diag24()
    p = GridCube(-1, -2, (1, 3), D).realize()
    # Pullback lower corner (0.5, 1.5) maps through A^-2 = diag(1/4, 1/16).
    assert p.origin == approx(np.array([0.5 / 4.0, 1.5 / 16.0]))
    assert p.volume == approx((2.0 ** -2) * (8.0 ** -2))


def test_volume_formula():
    D = _diag24()
    for sigma in (0, -1, -3):
        for tau in (-2, 0, 2):
            c = GridCube(sigma, tau, (0, 0), D)
            assert c.volume == approx(c.realize().volume, rel=1e-12)


def test_positive_sigma_rejected():
    with pytest.raises(InputInvalidError):
        GridCube(1, 0, (0, 0), _diag24())


@pytest.mark.parametrize("sigma, tau, index", [
    (0, 0.5, (0, 0)),
    (-0.5, 0, (0, 0)),
    (0, 0, (0.5, 0)),
    (0, 0, (0, 1.0)),
    (False, 0, (0, 0)),
    (0, True, (0, 0)),
    (0, 0, (np.bool_(True), 0)),
])
def test_non_integer_scale_or_index_rejected(sigma, tau, index):
    # GridCube(0, 0.5, ...) had volume 2.83 while realize() took A^0
    with pytest.raises(InputInvalidError, match="must be integers"):
        GridCube(sigma, tau, index, _diag24())


def test_numpy_integer_scale_and_index_accepted():
    D = _diag24()
    cube = GridCube(np.int64(0), np.int32(-1), (np.int64(2), np.int8(-3)), D)
    assert cube == GridCube(0, -1, (2, -3), D)
    assert cube.volume == GridCube(0, -1, (2, -3), D).volume


def test_expand_unit_cube():
    D = _diag24()
    star = expand_cube(GridCube(0, 0, (0, 0), D), 2.0)
    lo, hi = star.bbox()
    assert lo == approx(np.array([-0.5, -0.5]))
    assert hi == approx(np.array([1.5, 1.5]))


def test_expand_composes():
    D = _jordan2()
    c = GridCube(-1, -2, (3, -5), D)
    twice = expand_parallelepiped(expand_cube(c, 2.0), 2.0)
    quad = expand_cube(c, 4.0)
    assert twice.origin == approx(quad.origin)
    assert twice.basis == approx(quad.basis)


def test_cube_contains():
    D = _diag24()
    star = expand_cube(GridCube(0, 0, (0, 0), D), 2.0)
    assert cube_contains(star, GridCube(0, 0, (0, 0), D))
    assert cube_contains(star, GridCube(0, -1, (0, 0), D))
    assert not cube_contains(star, GridCube(0, 0, (2, 0), D))


def test_tau_parent_contains_child():
    D = _diag24()
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = tuple(int(v) for v in rng.integers(-40, 40, size=2))
        tau = int(rng.integers(-5, 1))
        child = GridCube(0, tau, idx, D)
        parent = tau_parent(child)
        assert parent.tau == tau + 1
        assert cube_contains(parent.realize(), child)


# ----------------------------------------------------------------- tendrils


def test_tendril_requires_normalized():
    with pytest.raises(NotNormalizedError):
        tendril_of(GridCube(0, 0, (0, 0), _jordan2()))


def _volume_estimate(bound, n_samples: int, seed: int) -> float:
    """Monte Carlo volume of the set contains_points accepts: uniform samples
    from bbox(), which holds the set."""
    lo, hi = bound.bbox()
    rng = np.random.default_rng(seed)
    pts = lo + rng.random((n_samples, len(lo))) * (hi - lo)
    return float(np.mean(bound.contains_points(pts))) * float(np.prod(hi - lo))


def test_tendril_box_calibration():
    # With A = 2I and tau = 0 the outer set is a rounded box whose exact
    # area is (4 + 16)^2 - (4 - pi) 8^2.
    D = _double()
    t = tendril_of(GridCube(0, 0, (0, 0), D))
    exact = 20.0 ** 2 - (4.0 - np.pi) * 64.0
    est = _volume_estimate(t, 200_000, seed=5)
    assert est == approx(exact, rel=0.01)


def test_tendril_estimate_scaling():
    D = _diag24()
    a = _volume_estimate(tendril_of(GridCube(0, -2, (0, 0), D)), 100_000, seed=2)
    b = _volume_estimate(tendril_of(GridCube(0, -3, (0, 0), D)), 100_000, seed=2)
    assert b / a == approx(1.0 / 8.0, rel=0.2)


def test_tendril_membership_property():
    # x in q*, |y| <= 1, k <= tau + 2 implies x + A^k y in the outer set.
    D = _diag24()
    rng = np.random.default_rng(21)
    q = GridCube(-1, -2, (3, 1), D)
    t = tendril_of(q)
    star = expand_cube(q, 2.0)
    for k in (q.tau + 2, q.tau, q.tau - 3):
        u = rng.random((1000, 2))
        x = star.origin + u @ star.basis.T
        raw = rng.normal(size=(1000, 2))
        radii = rng.random(1000) ** 0.5
        y = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii[:, None]
        pts = x + y @ D.power(k).T
        assert np.all(t.contains_points(pts))


def _projector_oracle(t):
    """The 3^d active-set projector on the pullback of q**, built directly."""
    D = t.cube.dilation
    pull = D.power(-(t.cube.tau + 2))
    quad = expand_cube(t.cube, 4.0)
    return pull, _ClampedProjector(pull @ quad.origin, pull @ quad.basis)


def _band_points(pull, proj, rng, count):
    """Points whose pullback lies near distance 2 from the set.

    Bisects along rays from the pullback center, where the distance grows
    monotonically, for the accepted limit 2 + 1e-9, then jitters the hit by
    up to 2e-9: the distances cover [2 - 1e-9, 2 + 3e-9] on both sides of
    the limit.
    """
    d = pull.shape[0]
    limit = 2.0 + 1e-9
    center = proj.origin + proj.basis @ np.full(d, 0.5)
    dirs = rng.normal(size=(count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lo = np.zeros(count)
    hi = np.full(count, 1.0)
    while True:
        short = proj.distance(center + hi[:, None] * dirs) < limit
        if not short.any():
            break
        hi[short] *= 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        outside = proj.distance(center + mid[:, None] * dirs) > limit
        hi = np.where(outside, mid, hi)
        lo = np.where(outside, lo, mid)
    t_hit = lo + rng.uniform(-2e-9, 2e-9, count)
    y = center + t_hit[:, None] * dirs
    return y @ np.linalg.inv(pull).T


@pytest.mark.parametrize("matrix", [
    [[2.0, 0.0], [0.0, 4.0]],
    [[4.0, 0.0], [0.0, 2.0]],
    [[4.0, 1.0], [1.0, 3.0]],
    [[2.0, -2.0], [2.0, 2.0]],
    np.diag([2.0, 3.0, 4.0]).tolist(),
])
def test_tendril_fast_membership_matches_projector(matrix):
    # The box and clamped-coordinate bounds never overrule the projector,
    # including on points within 1e-9 of the boundary distance.
    D = validate_dilation(matrix)
    d = D.dim
    rng = np.random.default_rng(31)
    mismatches = 0
    checked = 0
    for _ in range(6):
        sigma = int(rng.integers(-3, 1))
        tau = int(rng.integers(-4, 3))
        index = tuple(int(v) for v in rng.integers(-5, 6, size=d))
        t = tendril_of(GridCube(sigma, tau, index, D))
        pull, proj = _projector_oracle(t)
        lo, hi = t.bbox()
        span = hi - lo
        wide = lo - 0.25 * span + rng.random((6000, d)) * 1.5 * span
        band = _band_points(pull, proj, rng, 3000)
        for pts in (wide, band):
            expect = proj.distance(pts @ pull.T) <= 2.0 + 1e-9
            got = t.contains_points(pts)
            mismatches += int(np.sum(got != expect))
            checked += len(pts)
        inside = wide[proj.distance(wide @ pull.T) <= 2.0 + 1e-9]
        assert np.all((inside >= lo) & (inside <= hi))
    assert checked == 6 * 9000
    assert mismatches == 0


def test_cube_geometry_is_computed_per_call():
    # cubes and parallelepipeds keep no derived geometry: each call
    # computes it anew, with the same bits every time.  A tendril bound
    # computes its pullback when built, the same bits for every build
    cube = GridCube(0, -1, (2, -3), _jordan2())
    verts = cube.vertices()
    again = cube.vertices()
    assert again is not verts and np.array_equal(again, verts)
    assert np.array_equal(verts, cube.realize().vertices())
    # equality and hashing see only (sigma, tau, index)
    twin = GridCube(0, -1, (2, -3), cube.dilation)
    assert twin == cube and hash(twin) == hash(cube)
    box = expand_cube(cube, 4.0)
    fresh = Parallelepiped(origin=box.origin.copy(), basis=box.basis.copy())
    assert box.diameter() == box.diameter() == fresh.diameter()
    t = tendril_of(GridCube(0, -1, (2, -3), _diag24()))
    rebuilt = tendril_of(t.cube)
    assert rebuilt is not t and rebuilt.cube == t.cube
    for name in ("pull", "basis", "origin", "box_lo", "box_hi"):
        assert getattr(rebuilt, name).tobytes() == getattr(t, name).tobytes(), name
    assert rebuilt.slack == t.slack
    for value in (cube, box, t):
        assert not hasattr(value, "__dict__")


def _face_distance(p, origin, basis):
    """Exact distance from p to origin + basis [0, 1]^k, by recursion over
    faces: the projection onto the affine hull when it lands inside the
    face, the nearest facet otherwise."""
    k = basis.shape[1]
    if k == 0:
        return float(np.linalg.norm(p - origin))
    u = np.linalg.lstsq(basis, p - origin, rcond=None)[0]
    if np.all((u >= 0.0) & (u <= 1.0)):
        return float(np.linalg.norm(p - origin - basis @ u))
    return min(_face_distance(p, origin + side * basis[:, i], np.delete(basis, i, axis=1))
               for i in range(k) for side in (0.0, 1.0))


@pytest.mark.parametrize("matrix", [[[4.0, 1.0], [1.0, 3.0]],
                                    np.diag([2.0, 3.0, 4.0]).tolist()])
def test_clamped_projector_matches_face_recursion(matrix):
    D = validate_dilation(matrix)
    d = D.dim
    rng = np.random.default_rng(41)
    for tau in (-2, 0, 1):
        t = tendril_of(GridCube(-1, tau, tuple(int(v) for v in rng.integers(-3, 4, size=d)), D))
        pull, proj = _projector_oracle(t)
        lo, hi = t.bbox()
        pts = np.concatenate([(lo + rng.random((150, d)) * (hi - lo)) @ pull.T,
                              proj.origin + rng.random((30, d)) @ proj.basis.T])
        got = proj.distance(pts)
        expect = np.array([_face_distance(y, proj.origin, proj.basis) for y in pts])
        assert got == approx(expect, rel=1e-12, abs=1e-12)
        assert np.any(expect < 1e-9) and np.any(expect > 2.0)


def _layouts(pts):
    """The same (N, d) points as C-ordered, transposed-view, Fortran-ordered
    and strided arrays."""
    wide = np.zeros((pts.shape[0], 2 * pts.shape[1]))
    wide[:, ::2] = pts
    return {"C": np.ascontiguousarray(pts),
            "T view": np.ascontiguousarray(pts.T).T,
            "Fortran": np.asfortranarray(pts),
            "strided": wide[:, ::2]}


@pytest.mark.parametrize("matrix", [[[4.0, 1.0], [1.0, 3.0]],
                                    [[2.0, 0.0], [0.0, 4.0]],
                                    np.diag([2.0, 3.0, 4.0]).tolist()])
def test_coordinate_major_membership_on_any_layout(matrix):
    # contains_points takes (N, d) points in any memory layout; inside,
    # the kernels work on (d, N) columns.  The tendril bound must match
    # the projector, on band points within 3e-9 of the limit and on the
    # unjittered bisection hits on both sides of it, and the
    # parallelepiped must match its per-point solve.
    D = validate_dilation(matrix)
    d = D.dim
    rng = np.random.default_rng(43)
    for tau in (-3, 0, 2):
        cube = GridCube(-1, tau, tuple(int(v) for v in rng.integers(-4, 5, size=d)), D)
        t = tendril_of(cube)
        pull, proj = _projector_oracle(t)
        lo, hi = t.bbox()
        center = proj.origin + proj.basis @ np.full(d, 0.5)
        dirs = rng.normal(size=(400, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        b_lo, b_hi = np.zeros(400), np.full(400, 64.0 * float(np.max(hi - lo)))
        for _ in range(200):
            mid = 0.5 * (b_lo + b_hi)
            outside = proj.distance(center + mid[:, None] * dirs) > 2.0 + 1e-9
            b_hi = np.where(outside, mid, b_hi)
            b_lo = np.where(outside, b_lo, mid)
        edge = [(center + r[:, None] * dirs) @ np.linalg.inv(pull).T for r in (b_lo, b_hi)]
        pts = np.concatenate([lo + rng.random((600, d)) * (hi - lo),
                              _band_points(pull, proj, rng, 400)] + edge)
        expect = proj.distance(pts @ pull.T) <= 2.0 + 1e-9
        assert 0 < expect.sum() < len(pts)
        for name, arr in _layouts(pts).items():
            got = t.contains_points(arr)
            assert got.shape == (len(pts),)
            assert np.array_equal(got, expect), (name, np.flatnonzero(got != expect))

        quad = expand_cube(cube, 4.0)
        tol = 1e-12 * max(1.0, quad.diameter())
        corners = quad.vertices()[rng.integers(0, 2 ** d, size=300)]
        near_faces = corners + rng.uniform(-3.0, 3.0, size=(300, d)) * tol
        pts = np.concatenate([lo + rng.random((300, d)) * (hi - lo), near_faces])
        expect = np.array([
            bool(np.all((u >= -tol) & (u <= 1.0 + tol)))
            for u in (np.linalg.solve(quad.basis, x - quad.origin) for x in pts)])
        assert 0 < expect.sum() < len(pts)
        for name, arr in _layouts(pts).items():
            assert np.array_equal(quad.contains_points(arr), expect), name


def _edge_axes(t, rng, d):
    """Per-axis coordinates around a tendril bound: random ones over its
    bbox and beyond, and coordinates whose pulled gap to q**'s box is the
    radius to within 1e-8 of the slack, so that the cells they form with
    the box's own coordinates sit in the band contains_grid hands to
    contains."""
    lo, hi = t.bbox()
    radius, slack = t.radius, t.slack
    axes = []
    for j in range(d):
        span = hi[j] - lo[j]
        wide = lo[j] - 0.25 * span + rng.random(40) * 1.5 * span
        box = np.array([t.box_lo[j, 0], t.box_hi[j, 0]])
        gaps = radius + slack * np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
        pulled = np.concatenate([box[0] - gaps, box[1] + gaps, box])
        axes.append(np.concatenate([wide, pulled / t.pull[j, j]]))
    return axes


@pytest.mark.parametrize("matrix", [[[2.0, 0.0], [0.0, 4.0]],
                                    [[4.0, 0.0], [0.0, 2.0]],
                                    np.diag([2.0, 3.0, 4.0]).tolist()])
def test_grid_membership_matches_points_under_a_diagonal_dilation(matrix, monkeypatch):
    # Under a diagonal A a tendril bound answers for a whole grid from
    # per-axis tests; every cell must get contains_points' answer, including
    # cells in the rounding band, which contains_grid sends to the bound's
    # contains
    D = validate_dilation(matrix)
    d = D.dim
    rng = np.random.default_rng(61)
    contains = TendrilBound.contains
    band_cells = []

    def counting(self, y):
        band_cells.append(y.shape[1])
        return contains(self, y)

    checked = 0
    for tau in (-3, -1, 0, 2):
        cube = GridCube(int(rng.integers(-2, 1)), tau,
                        tuple(int(v) for v in rng.integers(-4, 5, size=d)), D)
        t = tendril_of(cube)
        assert t.axis_aligned
        axes = _edge_axes(t, rng, d)
        pts = grid_points(axes)
        want = t.contains_points(pts)
        assert 0 < want.sum() < len(pts)
        with monkeypatch.context() as patch:
            patch.setattr(TendrilBound, "contains", counting)
            got = t.contains_grid(axes)
        assert got.shape == tuple(len(a) for a in axes)
        assert np.array_equal(got.ravel(), want)
        checked += len(pts)
    assert checked > 0
    # the band branch ran, on a few cells of each tendril's grid only
    assert len(band_cells) == 4 and all(0 < n < 0.05 * checked for n in band_cells)


def test_only_a_diagonal_dilation_is_axis_aligned():
    for matrix in ([[4.0, 1.0], [1.0, 3.0]], [[2.0, -2.0], [2.0, 2.0]]):
        cube = GridCube(0, -1, (1, 2), validate_dilation(matrix))
        assert not tendril_of(cube).axis_aligned
    assert tendril_of(GridCube(0, -1, (1, 2), _diag24())).axis_aligned


def test_dilates_touching_the_outer_edge_go_to_sampling():
    # the certificate (tendrils_cover_dilates) accepts a dilate only while
    # it stays the rounding slack inside the set.  Under diag(2, 4) every
    # number below is exact: the rank-one spread A^2 diag(s, 0) pushes the
    # cube out along x by exactly s, so gap 0 touches the edge.
    D = _diag24()
    t = tendril_of(GridCube(0, 0, (0, 0), D))
    # q** pulls to [-3/8, 5/8] x [-3/32, 5/32]; Q pulls to [3/4, 13/16] x
    # [0, 1/256], its far side 3/16 off the face x = 5/8
    verts = GridCube(0, -2, (12, 0), D).vertices()
    limit = 2.0 + 1e-9
    slack = t.slack
    assert 0.0 < slack < 1e-5
    for gap, expect in ((0.0, False), (0.5 * slack, False), (2.0 * slack, True), (0.5, True)):
        s = limit - gap - 3.0 / 16.0
        spread = D.power(2) @ np.diag([s, 0.0])
        covered = tendrils_cover_dilates(D, np.array([[0, 0]]), np.array([[0, 0]]),
                                         np.array([0]), verts[:, None, :], spread[None, None])
        assert covered.tolist() == [[expect]], gap
        # the dilate's outermost points are in the set
        tips = verts + spread @ np.array([1.0, 0.0])
        assert np.all(t.contains_points(tips))
        if gap == 0.0:
            edge = tips[verts[:, 0] == verts[:, 0].max()]
    # at gap 0 they touch the edge: 1e-8 further out (pulled) is outside
    assert not np.any(t.contains_points(edge + [4e-8, 0.0]))
