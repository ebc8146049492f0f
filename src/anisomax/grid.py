"""Anisotropic dyadic grids and the parallelepiped geometry they generate.

A grid cube at scale (sigma, tau) is the image under A^tau of the dyadic cube
2^sigma ([0, 1)^d + index).  Cubes of a fixed scale tile space half-open; for
containment questions the closed hull is used with a diameter-relative
tolerance.  An expanded cube is a Parallelepiped, and a tendril outer
bound a parallelepiped plus a dilated ball, handled exactly through
pullback coordinates: one bound, the distance to the pullback's box,
rejects the far points, and the exact projector decides the rest.  Both
answer membership of points (contains_points) and give an axis-aligned
box that holds them (bbox).  A quadrupled cube of the exceptional set
answers nothing else: the mask asks it about the cell centers no tendril
bound holds, and check (ii) about its samples.  Tendril
bounds also answer for whole dilated cells (tendrils_cover_dilates, check
(ii)'s certificate) and, under a diagonal A, for whole grids
(contains_grid, the mask).

A cube is a slotted GridCube in the public API and a (sigma, tau, *index)
int row in batched code.  Each quantity has one row rule: row_volume (the
scalar power det_power: Python floats, BudgetExceededError past them),
which GridCube calls, row_tau_parent, which the Whitney guard calls, and
cube_frames, the origin and basis of many rows or, for realize(), of one,
summed over the basis columns left to right (_fold, no BLAS product, so
no row's bits depend on the others).  cube_vertices and the tendril
pullbacks (_pullbacks, for one TendrilBound and for
tendrils_cover_dilates) build on it, and one growth rule (_expanded) and
one diameter rule (dilation.span_diameter) serve cubes and parallelepipeds
alike.  GridCube and Parallelepiped carry no derived state.  A
TendrilBound(cube) computes its pullback once, when built, and keeps it:
it is built per call, by the caller that asks it questions, and never
kept by a result.

Layout: public point arrays are (N, d), one point per row, in any memory
order.  The membership kernels work coordinate-major inside, on (d, N)
columns, so that every elementwise step runs along the N points.

Under a diagonal A a tendril bound is axis_aligned: its pulled coordinate
j depends on x_j alone.  contains_grid then answers for a whole grid of
points, given by its per-axis coordinates, from per-axis gaps combined by
an outer sum, with the same answers contains_points gives on the grid's
points.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import product

import numpy as np

from .dilation import DilationStructure, _is_integer, span_diameter
from .errors import BudgetExceededError, InputInvalidError, NotNormalizedError

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
    of GridCube(*scale[k], index[k]); scale holds (sigma, tau) rows.  The
    basis 2^sigma A^tau is scaled exactly."""
    basis = np.ldexp(D.powers(scale[:, 1].tolist()), scale[:, 0, None, None])
    return _fold(basis, index[:, None, :].astype(float))[:, 0], basis


def cube_vertices(D: DilationStructure, scale: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(2^d, N, d), vertex-major: [:, k] is GridCube(*scale[k], index[k])
    .realize().vertices(), bit for bit."""
    origin, basis = cube_frames(D, scale, index)
    # corner rows shaped (2^d, 1, 1, d) fold to (2^d, N, 1, d)
    return origin + _fold(basis, _unit_corners(D.dim)[:, None, None, :])[:, :, 0]


def det_power(a: float, tau: int) -> float:
    """a^tau in Python floats; BudgetExceededError past the float range."""
    try:
        return a ** tau
    except OverflowError:
        raise BudgetExceededError(f"{a!r} ** {tau} leaves the float range") from None


def row_volume(D: DilationStructure, row) -> float:
    """The volume 2^(d sigma) a^tau of the cube row (sigma, tau, ...), in
    Python floats: numpy's vector power can differ from the scalar one in
    the last bit, so rows are taken one at a time, as Python ints."""
    return (2.0 ** (D.dim * row[0])) * det_power(D.det_scale, row[1])


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
        if not (_is_integer(self.sigma) and _is_integer(self.tau)
                and all(map(_is_integer, self.index))):
            raise InputInvalidError(
                f"sigma, tau and index must be integers, got {self.sigma!r}, "
                f"{self.tau!r}, {self.index!r}")
        if self.sigma > 0:
            raise InputInvalidError(f"sigma must be <= 0, got {self.sigma}")
        if len(self.index) != self.dilation.dim:
            raise InputInvalidError("index length does not match dimension")

    @property
    def volume(self) -> float:
        return row_volume(self.dilation, (self.sigma, self.tau))

    def realize(self) -> "Parallelepiped":
        origin, basis = cube_frames(self.dilation, np.array([(self.sigma, self.tau)]),
                                    np.array([self.index]))
        return Parallelepiped(origin=origin[0], basis=basis[0])

    def vertices(self) -> np.ndarray:
        return self.realize().vertices()


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

    def bbox(self):
        verts = self.vertices()
        return verts.min(axis=0), verts.max(axis=0)


def expand_cube(cube: GridCube, factor: float) -> Parallelepiped:
    """Dilate the cube about its center by the given factor."""
    if factor <= 0:
        raise InputInvalidError("expansion factor must be positive")
    return expand_parallelepiped(cube.realize(), factor)


def expand_parallelepiped(p: Parallelepiped, factor: float) -> Parallelepiped:
    return Parallelepiped(*_expanded(p.origin, p.basis, factor))


def _expanded(origin: np.ndarray, basis: np.ndarray, factor: float):
    """origin + basis [0, 1]^d grown about its center, over any leading axes."""
    shift = 0.5 * (factor - 1.0) * (basis @ np.ones(basis.shape[-1]))
    return origin - shift, factor * basis


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
    origin, basis = _expanded(*cube_frames(D, scale, index), 4.0)
    pull = D.powers((-2 - scale[:, 1]).tolist())
    return pull, (pull @ origin[:, :, None])[:, :, 0], pull @ basis


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

    The distance to the axis-aligned box of P, a lower bound on dist(y, P),
    rejects most points without the projector; every point it leaves goes
    to the projector, which is built on first use and decides it exactly.
    When P is an axis-aligned box the lower bound is the exact distance, and
    contains_grid settles a grid of points from per-axis gaps.
    tendrils_cover_dilates bounds dist(y, P) from above at the clamped local
    coordinates of y, for whole dilated cells of many bounds at once.
    """

    __slots__ = ("cube", "pull", "basis", "origin", "box_lo", "box_hi",
                 "slack", "far_sq", "near_sq", "projector")
    radius = _TENDRIL_RADIUS + _TENDRIL_TOL

    def __init__(self, cube: GridCube):
        self.cube = cube
        rows = _pullbacks(cube.dilation, np.array([(cube.sigma, cube.tau)]),
                          np.array([cube.index]))
        pull, origin, basis = (part[0] for part in rows)
        self.pull = pull
        self.basis = basis
        box_lo, box_hi, slack = _pullback_box(origin, basis)
        # (d, 1) columns, broadcast along the points of a (d, N) array
        self.origin = origin.reshape(-1, 1).copy()
        self.box_lo = box_lo.reshape(-1, 1).copy()
        self.box_hi = box_hi.reshape(-1, 1).copy()
        self.slack = slack
        self.far_sq = (self.radius + slack) ** 2
        self.near_sq = (self.radius - slack) ** 2
        self.projector = None

    def contains_points(self, points) -> np.ndarray:
        """Membership of the (N, d) points in q** + A^(tau+2) B_2(0), exact
        through pullback.

        A point x is in the set exactly when A^-(tau+2) x is within Euclidean
        distance 2 (plus 1e-9) of P.  That distance is decided by
        _ClampedProjector; the box bound only settles the points whose
        answer the projector could not change.
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
        if self.projector is None:
            self.projector = _ClampedProjector(self.origin[:, 0], self.basis)
        # take, not fancy indexing: on a (d, N) array, y[:, cand] is an
        # order of magnitude slower
        inside[cand] = self.projector.distance(y.take(cand, axis=1).T) <= self.radius
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
        sums it.  Cells at most radius - slack away are inside, as the
        projector finds them, and cells more than radius + slack away
        outside, as in contains; only the cells in the band between go to
        contains itself.
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
    limit = TendrilBound.radius - slack.take(owner)
    return far[:, None] + reach <= limit[:, None]
