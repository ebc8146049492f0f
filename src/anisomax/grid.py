"""Anisotropic dyadic grids and the parallelepiped geometry they generate.

A grid cube at scale (sigma, tau) is the image under A^tau of the dyadic cube
2^sigma ([0, 1)^d + index).  Cubes of a fixed scale tile space half-open; for
containment questions the closed hull is used with a diameter-relative
tolerance.  Expanded cubes and tendril outer bounds are parallelepipeds plus
dilated balls, handled exactly through pullback coordinates: each answers
membership, of points and of whole dilated cells, and gives an axis-aligned
box that holds it.

A cube is a slotted GridCube in the public API and a (sigma, tau, *index)
int row in batched code.  Each quantity has one row rule, which GridCube
calls: row_volume (the scalar power, in Python floats), row_tau_parent, and
cube_frames, the origin and basis of many rows, summed over the basis
columns left to right (_fold, no BLAS product, so no row's bits depend on
the others) as realize() sums them for one.  cube_vertices and the tendril
pullbacks (_pullbacks, for one TendrilBound and for tendrils_cover_dilates,
which decides the dilated cells of many bounds at once) build on
cube_frames; one diameter rule (dilation.span_diameter) serves
Parallelepiped.diameter and cube_diameter.  GridCube and Parallelepiped
carry no derived state.  A TendrilBound(cube) computes its pullback once,
when built, and keeps it: it is built per call, by the caller that asks it
questions, and never kept by a result.

Layout: public point arrays are (N, d), one point per row, in any memory
order.  The membership kernels work coordinate-major inside, on (d, N)
columns, so that every elementwise step runs along the N points.

Under a diagonal A every such set is axis_aligned: a cube's local
coordinate j, and a tendril bound's pulled coordinate j, depend on x_j
alone.  contains_grid then answers for a whole grid of points, given by
its per-axis coordinates, from per-axis tests combined by an outer AND or
an outer sum, with the same answers contains_points gives on the grid's
points.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import product

import numpy as np

from .dilation import DilationStructure, span_diameter
from .errors import InputInvalidError, NotNormalizedError

_CONTAIN_TOL = 1e-12
_TENDRIL_RADIUS = 2.0
_TENDRIL_TOL = 1e-9
# half-width, relative to the pullback box's extent, of the band of
# distances that the tendril bounds leave to the projector
_BAND_SLACK = 1e-6


@cache
def _unit_corners(d: int) -> np.ndarray:
    """The 2^d vertices of [0, 1]^d, (2^d, d) in product order, built once
    per dimension and shared, so read-only."""
    corners = np.array(list(product((0.0, 1.0), repeat=d)))
    corners.flags.writeable = False
    return corners


def _fold(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """basis @ c for every row c of coeffs, (..., d, d) by (..., k, d) to
    (..., k, d), summed over the columns left to right."""
    out = coeffs[..., 0, None] * basis[..., None, :, 0]
    for j in range(1, basis.shape[-1]):
        out = out + coeffs[..., j, None] * basis[..., None, :, j]
    return out


def _vertices(origin: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The 2^d vertices origin + basis c, c a corner of [0, 1]^d: (..., 2^d, d)."""
    return origin[..., None, :] + _fold(basis, _unit_corners(basis.shape[-1]))


def cube_frames(D: DilationStructure, scale: np.ndarray, index: np.ndarray):
    """(origin, basis), (N, d) and (N, d, d): row k is the origin and basis
    of GridCube(*scale[k], index[k]).realize(), bit for bit; scale holds
    (sigma, tau) rows.  The basis 2^sigma A^tau is scaled exactly."""
    basis = np.ldexp(D.powers(scale[:, 1].tolist()), scale[:, 0, None, None])
    return _fold(basis, index[:, None, :].astype(float))[:, 0], basis


def cube_vertices(D: DilationStructure, scale: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(2^d, N, d), vertex-major: [:, k] is GridCube(*scale[k], index[k])
    .realize().vertices(), bit for bit."""
    origin, basis = cube_frames(D, scale, index)
    # corner rows shaped (2^d, 1, 1, d) fold to (2^d, N, 1, d)
    return origin + _fold(basis, _unit_corners(D.dim)[:, None, None, :])[:, :, 0]


def row_volume(D: DilationStructure, row) -> float:
    """The volume 2^(d sigma) a^tau of the cube row (sigma, tau, ...), in
    Python floats: numpy's vector power can differ from the scalar one in
    the last bit, so rows are taken one at a time, as Python ints."""
    return (2.0 ** (D.dim * row[0])) * (D.det_scale ** row[1])


def row_tau_parent(D: DilationStructure, row) -> tuple:
    """The row (0, tau + 1, *index) of the cube of R_{0, tau+1} containing
    the center of the cube row (sigma, tau, *index)."""
    sigma, tau, *index = row
    pulled = np.linalg.solve(D.matrix, (2.0 ** sigma) * (np.asarray(index, dtype=float) + 0.5))
    return (0, tau + 1, *(int(np.floor(x)) for x in pulled))


def _is_diagonal(matrix: np.ndarray) -> bool:
    """True when every off-diagonal entry is exactly zero."""
    return not np.any(matrix[~np.eye(matrix.shape[0], dtype=bool)])


def _axis_view(values: np.ndarray, j: int, d: int) -> np.ndarray:
    """The 1-D values as axis j of a d-dimensional grid, for broadcasting."""
    shape = [1] * d
    shape[j] = -1
    return values.reshape(shape)


@dataclass(frozen=True, slots=True)
class GridCube:
    """One cube of the grid at scale (sigma, tau), addressed by integer index."""

    sigma: int
    tau: int
    index: tuple
    dilation: DilationStructure = field(compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.sigma > 0:
            raise InputInvalidError(f"sigma must be <= 0, got {self.sigma}")
        if len(self.index) != self.dilation.dim:
            raise InputInvalidError("index length does not match dimension")

    @property
    def volume(self) -> float:
        return row_volume(self.dilation, (self.sigma, self.tau))

    @property
    def side(self) -> float:
        return 2.0 ** self.sigma

    def realize(self) -> "Parallelepiped":
        basis = self.side * self.dilation.power(self.tau)
        origin = _fold(basis, np.asarray([self.index], dtype=float))[0]
        return Parallelepiped(origin=origin, basis=basis)

    def vertices(self) -> np.ndarray:
        return self.realize().vertices()

    def center(self) -> np.ndarray:
        n = np.asarray(self.index, dtype=float)
        return self.dilation.power(self.tau) @ (self.side * (n + 0.5))

    def tau_parent(self) -> "GridCube":
        """The cube of R_{0, tau+1} containing this cube's center."""
        _, tau, *index = row_tau_parent(self.dilation, (self.sigma, self.tau, *self.index))
        return GridCube(0, tau, tuple(index), self.dilation)


@dataclass(frozen=True, slots=True)
class Parallelepiped:
    """Affine image origin + basis [0, 1]^d of the unit cube."""

    origin: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def volume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    def vertices(self) -> np.ndarray:
        return _vertices(self.origin, self.basis)

    def diameter(self) -> float:
        """Largest vertex distance, by cube_diameter's rule (span_diameter)."""
        return span_diameter(self.basis)

    def contains_points(self, points) -> np.ndarray:
        """Closed-hull membership test with a diameter-relative tolerance."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = _CONTAIN_TOL * max(1.0, self.diameter())
        local = np.linalg.solve(self.basis, pts.T - self.origin[:, None])
        return np.all((local >= -tol) & (local <= 1.0 + tol), axis=0)

    @property
    def axis_aligned(self) -> bool:
        return _is_diagonal(self.basis)

    def contains_grid(self, axes) -> np.ndarray:
        """contains_points on the grid axes[0] x ... x axes[d-1], in the
        grid's shape; the basis must be diagonal (axis_aligned).

        Local coordinate j then depends on axis j alone, so the interval
        test runs once per axis value and the grid's answer is their outer
        AND.  The local coordinates come from the same solve as in
        contains_points, one column per axis value (rows padded with
        zeros), so every comparison sees the same number.
        """
        tol = _CONTAIN_TOL * max(1.0, self.diameter())
        d = self.dim
        rel = np.zeros((d, max(len(a) for a in axes)))
        for j, a in enumerate(axes):
            rel[j, :len(a)] = np.asarray(a, dtype=float) - self.origin[j]
        local = np.linalg.solve(self.basis, rel)
        inside = None
        for j, a in enumerate(axes):
            u = local[j, :len(a)]
            ok = _axis_view((u >= -tol) & (u <= 1.0 + tol), j, d)
            inside = ok if inside is None else inside & ok
        return inside

    def bbox(self):
        verts = self.vertices()
        return verts.min(axis=0), verts.max(axis=0)

    def covers_dilates(self, verts: np.ndarray, spreads: np.ndarray) -> np.ndarray:
        """(N, L) mask: cell n grown by spreads[l] B_1 lies in the hull.

        verts is (N, V, d), the vertices of N convex cells; spreads is
        (L, d, d).  A local coordinate of cell + M B_1 is affine on the cell
        plus the ball, so it ranges at most over the cell's vertex range
        widened by the norm of the matching row of basis^-1 M.  True only
        when every such range lies in [slack, 1 - slack], which
        contains_points then accepts for every point of the set.  slack
        follows the tendril bounds' rule, _BAND_SLACK relative to the
        extent of the hull in these local coordinates.
        """
        n, v, d = verts.shape
        offset = np.linalg.solve(self.basis, self.origin)
        extent = float(max(np.abs(offset).max(), np.abs(offset + 1.0).max()))
        slack = _BAND_SLACK * max(1.0, extent)
        local = np.linalg.solve(self.basis, verts.reshape(-1, d).T - self.origin[:, None])
        local = local.reshape(d, n, v)
        lo = local.min(axis=2).T[:, None, :]
        hi = local.max(axis=2).T[:, None, :]
        rows = np.sqrt(np.square(np.linalg.inv(self.basis) @ spreads).sum(axis=2))
        return np.all((lo - rows >= slack) & (hi + rows <= 1.0 - slack), axis=2)


def cube_contains(outer: Parallelepiped, inner: GridCube) -> bool:
    """True when every vertex of the inner cube lies in the closed outer hull."""
    return bool(np.all(outer.contains_points(inner.vertices())))


def expand_cube(cube: GridCube, factor: float) -> Parallelepiped:
    """Dilate the cube about its center by the given factor."""
    if factor <= 0:
        raise InputInvalidError("expansion factor must be positive")
    return expand_parallelepiped(cube.realize(), factor)


def expand_parallelepiped(p: Parallelepiped, factor: float) -> Parallelepiped:
    shift = 0.5 * (factor - 1.0) * (p.basis @ np.ones(p.dim))
    return Parallelepiped(origin=p.origin - shift, basis=factor * p.basis)


def _boxes_intersect_open(verts_a: np.ndarray, verts_b: np.ndarray, axes) -> bool:
    """SAT with strict overlap, so shared boundary faces do not count."""
    for axis in axes:
        pa = verts_a @ axis
        pb = verts_b @ axis
        span = max(pa.max() - pa.min(), pb.max() - pb.min(), 1e-300)
        if min(pa.max(), pb.max()) - max(pa.min(), pb.min()) <= 1e-12 * span:
            return False
    return True


# ------------------------------------------------------------------ tendrils


class _ClampedProjector:
    """Exact distance from points to origin + basis [0, 1]^d.

    Tries every active-set pattern (each coordinate free, clamped at 0, or
    clamped at 1); free coordinates solve a least-squares system and are then
    clamped, so every candidate is a point of the set and the minimum over
    patterns is the exact distance.
    """

    def __init__(self, origin: np.ndarray, basis: np.ndarray):
        self.origin = origin
        self.basis = basis
        self.patterns = []
        d = basis.shape[1]
        for pattern in product((None, 0.0, 1.0), repeat=d):
            free = [i for i, p in enumerate(pattern) if p is None]
            fixed = np.array([0.0 if p is None else p for p in pattern])
            base = origin + basis @ fixed
            sub = basis[:, free] if free else None
            pinv = np.linalg.pinv(sub) if free else None
            self.patterns.append((base, sub, pinv))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Distances of the (N, d) points, computed on (d, N) columns."""
        cols = np.asarray(points, dtype=float).T
        best = np.full(cols.shape[1], np.inf)
        for base, sub, pinv in self.patterns:
            resid = cols - base[:, None]
            if sub is not None:
                u_free = np.clip(pinv @ resid, 0.0, 1.0)
                resid = resid - sub @ u_free
            np.minimum(best, np.sqrt((resid * resid).sum(axis=0)), out=best)
        return best


def _pullbacks(D: DilationStructure, scale: np.ndarray, index: np.ndarray):
    """Per cube row (sigma, tau, index), stacked: A^-(tau+2), and the origin
    and basis of the pullback of q** = expand_cube(q, 4), each bit for bit
    the product one cube at a time gives."""
    origin, basis = cube_frames(D, scale, index)
    # expand_parallelepiped's shift, 0.5 (4 - 1) basis 1
    origin = origin - 1.5 * (basis @ np.ones(D.dim))
    pull = D.powers((-2 - scale[:, 1]).tolist())
    return pull, (pull @ origin[:, :, None])[:, :, 0], pull @ (4.0 * basis)


def _pullback_box(origin: np.ndarray, basis: np.ndarray):
    """(box_lo, box_hi, slack) of origin + basis [0, 1]^d, over any leading
    axes: the axis-aligned box and the rounding slack of the tendril
    bounds, _BAND_SLACK relative to the box's largest coordinate."""
    verts = _vertices(origin, basis)
    box_lo, box_hi = verts.min(axis=-2), verts.max(axis=-2)
    extent = np.abs(np.concatenate([box_lo, box_hi], axis=-1)).max(axis=-1)
    return box_lo, box_hi, _BAND_SLACK * np.maximum(1.0, extent)


class TendrilBound:
    """Outer bound for the tendril of a cube q: q** + A^(tau+2) B_2(0).

    Seen through pull = A^-(tau+2) it is the set {y : dist(y, P) <= r},
    where P = origin + basis [0, 1]^d is the pullback of q** = expand_cube(q,
    4) and r = 2 + 1e-9.  The constructor computes the pullback, its box and
    its rounding slack; a bound is built per call and dropped with it.

    Two exact bounds on dist(y, P) settle most points without the projector:
    the distance to the axis-aligned box of P is a lower bound, and the
    distance to the point of P at the clamped local coordinates of y is an
    upper bound.  A point whose bounds straddle r within the rounding slack
    goes to the projector, which is built on first use.  When P is an
    axis-aligned box both bounds are the exact distance, and contains_grid
    settles a grid of points from per-axis gaps.  tendrils_cover_dilates
    applies the upper bound to whole dilated cells of many bounds at once.
    """

    __slots__ = ("cube", "pull", "basis", "inv_basis", "origin", "box_lo", "box_hi",
                 "slack", "far_sq", "near_sq", "projector")
    radius = _TENDRIL_RADIUS + _TENDRIL_TOL

    def __init__(self, cube: GridCube):
        self.cube = cube
        rows = _pullbacks(cube.dilation, np.array([(cube.sigma, cube.tau)]),
                          np.array([cube.index]))
        pull, origin, basis = (part[0] for part in rows)
        self.pull = pull
        self.basis = basis
        self.inv_basis = np.linalg.inv(basis)
        box_lo, box_hi, slack = _pullback_box(origin, basis)
        # (d, 1) columns, broadcast along the points of a (d, N) array
        self.origin = origin.reshape(-1, 1).copy()
        self.box_lo = box_lo.reshape(-1, 1).copy()
        self.box_hi = box_hi.reshape(-1, 1).copy()
        self.slack = slack
        self.far_sq = (self.radius + slack) ** 2
        self.near_sq = (self.radius - slack) ** 2
        self.projector = None

    def _clamped_sq(self, rel: np.ndarray) -> np.ndarray:
        """Squared upper bounds on dist(y, P), from rel = y - origin as (d, N);
        rel is overwritten."""
        u = self.inv_basis @ rel
        np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
        rel -= self.basis @ u
        return np.square(rel, out=rel).sum(axis=0)

    def contains_points(self, points) -> np.ndarray:
        """Membership of the (N, d) points in q** + A^(tau+2) B_2(0), exact
        through pullback.

        A point x is in the set exactly when A^-(tau+2) x is within Euclidean
        distance 2 (plus 1e-9) of P.  That distance is decided by
        _ClampedProjector; box and clamped-coordinate bounds only settle the
        points whose answer the projector could not change.
        """
        return self.contains(self.pull @ np.atleast_2d(np.asarray(points, dtype=float)).T)

    def contains(self, y: np.ndarray) -> np.ndarray:
        """Membership of the pulled points y, given coordinate-major as (d, N)."""
        gap = self.box_lo - y
        np.maximum(gap, y - self.box_hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        inside = np.zeros(y.shape[1], dtype=bool)
        cand = np.flatnonzero(np.square(gap, out=gap).sum(axis=0) <= self.far_sq)
        if cand.size == 0:
            return inside
        # take, not fancy indexing: on a (d, N) array, y[:, cand] is an
        # order of magnitude slower
        rel = y.take(cand, axis=1)
        rel -= self.origin
        near = self._clamped_sq(rel) <= self.near_sq
        inside[cand] = near
        band = cand[~near]
        if band.size:
            if self.projector is None:
                self.projector = _ClampedProjector(self.origin[:, 0], self.basis)
            inside[band] = self.projector.distance(y.take(band, axis=1).T) <= self.radius
        return inside

    @property
    def axis_aligned(self) -> bool:
        """The pull and P's basis are diagonal, as under a diagonal A."""
        return _is_diagonal(self.pull) and _is_diagonal(self.basis)

    def contains_grid(self, axes) -> np.ndarray:
        """contains_points on the grid axes[0] x ... x axes[d-1], in the
        grid's shape, if axis_aligned.

        Pulled coordinate j is then pull_jj x_j, the product the matrix pull
        gives, and dist(y, P)^2 is the sum over axes of the squared gap
        between y_j and P's interval on axis j, summed in the order contains
        sums it.  Cells at most radius - slack away are inside and cells
        more than radius + slack away outside, as in contains; only the
        cells in the band between go to contains itself.
        """
        d = len(axes)
        axes = [self.pull[j, j] * np.asarray(a, dtype=float) for j, a in enumerate(axes)]
        sq = None
        for j, y in enumerate(axes):
            gap = self.box_lo[j, 0] - y
            np.maximum(gap, y - self.box_hi[j, 0], out=gap)
            np.maximum(gap, 0.0, out=gap)
            term = _axis_view(np.square(gap, out=gap), j, d)
            sq = term if sq is None else sq + term
        inside = sq <= self.near_sq
        band = np.nonzero((sq <= self.far_sq) & ~inside)
        if band[0].size:
            pulled = np.stack([y[cells] for y, cells in zip(axes, band)])
            inside[band] = self.contains(pulled)
        return inside

    def bbox(self):
        """Axis-aligned box holding every point contains_points accepts."""
        rows = self.cube.dilation.power(self.cube.tau + 2)
        reach = self.radius * np.sqrt((rows ** 2).sum(axis=1))
        lo, hi = expand_cube(self.cube, 4.0).bbox()
        return lo - reach, hi + reach


def tendril_of(cube: GridCube) -> TendrilBound:
    """Outer bound of the tendril of q, for normalized dilations only."""
    D = cube.dilation
    if D.norm_power != 1:
        raise NotNormalizedError(
            f"tendril bounds need norm_power 1, dilation has {D.norm_power}"
        )
    return TendrilBound(cube)


def tendrils_cover_dilates(D: DilationStructure, scale: np.ndarray, index: np.ndarray,
                           owner: np.ndarray, verts: np.ndarray,
                           spreads: np.ndarray) -> np.ndarray:
    """(E, L) mask: cell e grown by spreads[e, l] B_1 lies in the tendril
    bound of its owner, the cube of row owner[e] of (scale, index).

    verts is (V, E, d), vertex-major, the vertices of E convex cells;
    spreads is (E, L, d, d).  Pulled back by the owner, dist(., P) is convex,
    so over a pulled cell it peaks at a vertex, where the clamped-coordinate
    distance bounds it from above; the pulled ball pull spreads[e, l] B_1
    adds at most the Frobenius norm of pull spreads[e, l].  True only when
    the sum is within radius - slack, which the bound's contains accepts.
    Every owner's pullback is built in one stacked pass, and every cell is
    decided in one more, with the numbers a TendrilBound per owner gives.
    """
    pull, origin, basis = _pullbacks(D, scale, index)
    _, _, slack = _pullback_box(origin, basis)
    inv_basis = np.linalg.inv(basis)
    pull = pull.take(owner, axis=0)
    # (E, d, V): each cell's pulled vertices as columns, less its origin
    rel = pull @ verts.transpose(1, 2, 0)
    rel -= origin.take(owner, axis=0)[:, :, None]
    u = inv_basis.take(owner, axis=0) @ rel
    np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
    rel -= basis.take(owner, axis=0) @ u
    far = np.sqrt(np.square(rel, out=rel).sum(axis=1)).max(axis=1)
    reach = np.sqrt(np.square(pull[:, None] @ spreads).sum(axis=(2, 3)))
    limit = (_TENDRIL_RADIUS + _TENDRIL_TOL) - slack.take(owner)
    return far[:, None] + reach <= limit[:, None]
