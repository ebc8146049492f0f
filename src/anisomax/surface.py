"""Graph hypersurfaces with cutoff densities, cap partitions, and kernel checks.

A surface is the graph of a smooth map psi over the first d-1 coordinates,
weighted by a plateau cutoff chi; every polynomial graph, catalog or custom,
is a coefficient table under one rule.  The measure is split into caps whose
bumps, each from the caps that reach its points, sum back to chi.  A cap is
geometry, not nodes: SurfacePiece.measure() builds, per call, the measure
weighted by its bump, on the tensor rule surface_quadrature also uses.  Caps
are classified by curvature on that rule's points and by cube-mass
concentration on a maximal.Lattice over each cap, and the two
convolution-type bounds share one setup, the one place a cap becomes nodes:
a maximal.Lattice around the supports moved by the nodes, with the fields
computed by maximal.convolve_dilated at k = 0 (the nodes unmoved).  The
autocorrelation kernel is a KernelField, values on a centered cubic
maximal.Lattice that callers also build by hand.
"""

import numpy as np
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from numpy.polynomial.legendre import leggauss

from .dilation import DilationStructure, _is_integer, _number, cube_diameter
from .errors import (
    BudgetExceededError,
    DegenerateFitError,
    InputInvalidError,
    ResolutionTooCoarseError,
)
from .grid import det_power
from .maximal import Lattice, _min_atom_diameter, convolve_dilated, grid_points, make_lattice

CHI_RADIUS = 0.48
CATALOG = ("circle-arc", "paraboloid", "quartic-flat", "custom-polynomial")
# catalog polynomials sum_j c y_j^degree, one monomial per axis: (degree, c)
_AXIS_POWERS = {"paraboloid": (2, 0.5), "quartic-flat": (4, 1.0)}
_PIECE_BUDGET = 1_000_000
_PROBE_POINTS = 33
# largest pulled coordinate whose floor is still an exact cube key
_KEY_LIMIT = 2.0 ** 53
_MAX_POLY_DEGREE = 6
FINE_POINTS = 4096
KERNEL_SMOOTH_CELLS = 1.0
# histogram bins per axis of autocorrelation_kernel
KERNEL_BINS = 255
# most node pairs autocorrelation_kernel takes: n nodes build n^2 pairs of
# d + 1 floats, about 67 B per pair at the peak in 3-D.  The largest caller,
# a cap of the 3-D paraboloid at s = 4, has 3,600 nodes (12.96e6 pairs, an
# 860 MB peak); the 40,000 nodes of a 3-D surface at n_gl 200 would need 51 GB
KERNEL_PAIR_BUDGET = 16_000_000
DECAY_N_SHELLS = 12
DECAY_SLOPE_CUT = -0.7
# the constant C of the sup, L1 and pair bounds of the kernel-bound checks
PIECE_BOUND_FACTOR = 64.0
# surface_quadrature cuts each axis into QUADRATURE_PANELS Gauss panels of
# at least QUADRATURE_PANEL_FLOOR nodes each (check_node_count)
QUADRATURE_PANELS = 4
QUADRATURE_PANEL_FLOOR = 8
# each cap's Gauss rule (SurfacePiece._rule) puts PIECE_GL_NODES // 2 nodes
# in every panel of an axis
PIECE_GL_NODES = 24


def plateau_profile(u: np.ndarray) -> np.ndarray:
    """Smooth plateau: 1 on |u| <= 1/2, supported on |u| < 1."""
    # t is 0 on the plateau and 1 from |u| = 1 on, for inf and nan too (fmin drops a nan)
    with np.errstate(divide="ignore", over="ignore"):
        t = np.fmax(np.fmin(2.0 * np.abs(np.asarray(u, dtype=float)) - 1.0, 1.0), 0.0)
        return np.exp(1.0 - 1.0 / (1.0 - t * t))


@dataclass
class GraphSurface:
    """Graph of psi over [-CHI_RADIUS, CHI_RADIUS]^{d-1} with cutoff chi."""

    catalog_id: str
    dim: int
    psi: callable
    grad: callable
    hess: callable

    def chi(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.prod(plateau_profile(y / CHI_RADIUS), axis=1)

    def points(self, y: np.ndarray) -> np.ndarray:
        """Ambient points (y, psi(y))."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.column_stack([y, self.psi(y)])


def _poly_callables(coeffs: dict, p: int):
    """psi, grad and hess of sum c y^mono over the validated table of
    (exponents, coefficient, factor) terms.  A derivative in y_i drops the
    terms without y_i, lowers exponent i by one and multiplies the integer
    factor by it, so each entry of grad and hess is a table of its own; one
    loop evaluates every table, multiplying a coefficient by its factor
    once."""
    table = []
    for mono, c in coeffs.items():
        mono = tuple(int(k) for k in mono)
        if len(mono) != p or any(k < 0 for k in mono):
            raise InputInvalidError(f"bad monomial {mono} for {p} variables")
        if sum(mono) > _MAX_POLY_DEGREE:
            raise InputInvalidError(f"polynomial degree above {_MAX_POLY_DEGREE} not supported")
        if not _number(c):
            raise InputInvalidError(
                f"coefficient of {mono} must be a finite real number, got {c!r}")
        table.append((mono, float(c), 1))

    def derive(terms, i):
        return [(mono[:i] + (mono[i] - 1,) + mono[i + 1:], c, factor * mono[i])
                for mono, c, factor in terms if mono[i]]

    grads = [derive(table, i) for i in range(p)]
    hessians = [[derive(terms, j) for j in range(p)] for terms in grads]

    def evaluate(terms, y, out):
        """Add the table's terms at the points y to out, in table order."""
        for mono, c, factor in terms:
            t = np.full(y.shape[0], c * factor)
            for j, k in enumerate(mono):
                if k:
                    t = t * y[:, j] ** k
            out += t
        return out

    def psi(y):
        y = np.atleast_2d(y)
        return evaluate(table, y, np.zeros(y.shape[0]))

    def grad(y):
        y = np.atleast_2d(y)
        out = np.zeros_like(y)
        for i, terms in enumerate(grads):
            evaluate(terms, y, out[:, i])
        return out

    def hess(y):
        y = np.atleast_2d(y)
        out = np.zeros((y.shape[0], p, p))
        for i, row in enumerate(hessians):
            for j, terms in enumerate(row):
                evaluate(terms, y, out[:, i, j])
        return out

    return psi, grad, hess


def make_surface(kind: str, dim: int = 2, coeffs: dict = None) -> GraphSurface:
    """Build a catalog surface; raise InputInvalidError if it leaves the
    unit ball on the probe grid.  Polynomial kinds are coefficient tables
    {exponents: coefficient}, evaluated and differentiated by _poly_callables."""
    if kind not in CATALOG:
        raise InputInvalidError(f"unknown surface kind {kind!r}")
    if not (_is_integer(dim) and dim >= 2):
        raise InputInvalidError(f"ambient dimension must be an integer of at least 2, got {dim!r}")
    if not (coeffs is None or isinstance(coeffs, Mapping)):
        raise InputInvalidError(f"coefficients must be a mapping, got {coeffs!r}")
    p = dim - 1

    if kind == "circle-arc":
        if dim != 2:
            raise InputInvalidError("circle-arc is a planar curve")

        def psi(y):
            return 1.0 - np.sqrt(1.0 - np.atleast_2d(y)[:, 0] ** 2)

        def grad(y):
            t = np.atleast_2d(y)[:, 0]
            return (t / np.sqrt(1.0 - t * t))[:, None]

        def hess(y):
            t = np.atleast_2d(y)[:, 0]
            return ((1.0 - t * t) ** -1.5)[:, None, None]

    else:
        if kind in _AXIS_POWERS:
            degree, c = _AXIS_POWERS[kind]
            coeffs = {tuple(degree * (j == i) for j in range(p)): c for i in range(p)}
        elif coeffs is None:
            raise InputInvalidError("custom-polynomial needs coefficients")
        psi, grad, hess = _poly_callables(coeffs, p)

    surface = GraphSurface(kind, dim, psi, grad, hess)
    ambient = surface.points(grid_points([np.linspace(-CHI_RADIUS, CHI_RADIUS, _PROBE_POINTS)] * p))
    radius = float(np.max(np.linalg.norm(ambient, axis=1)))
    # written so that a nan radius fails it too
    if not radius <= 1.0:
        raise InputInvalidError(f"surface leaves the unit ball (radius {radius:.3f})")
    return surface


def gaussian_curvature(surface: GraphSurface, y) -> np.ndarray:
    """K = det psi'' / (1 + |grad psi|^2)^{(d+1)/2}."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dets = np.linalg.det(surface.hess(y))
    gsq = np.sum(surface.grad(y) ** 2, axis=1)
    return dets / (1.0 + gsq) ** (0.5 * (surface.dim + 1))


@dataclass
class SurfaceMeasure:
    """Quadrature discretization of a surface measure: the chi-weighted
    measure itself (surface_quadrature) or one cap of it
    (SurfacePiece.measure()).

    scale is the measure's length scale, 1 for the whole measure and the
    cap radius 2^(-eps s) for a cap; eps is the cap exponent, 0 for the
    whole measure.
    """

    surface: GraphSurface
    param_points: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    scale: float = 1.0
    eps: float = 0.0

    @property
    def mass(self) -> float:
        return float(np.sum(self.quad_weights))


@cache
def _leggauss(n: int):
    """leggauss(n), solved once per order and shared, so read-only."""
    rule = leggauss(n)
    for part in rule:
        part.flags.writeable = False
    return rule


def _gauss_panels_1d(lo: float, hi: float, cuts, n_panel: int):
    """Composite Gauss-Legendre nodes, one rule per panel between cuts."""
    edges = [lo] + [c for c in sorted(set(cuts)) if lo < c < hi] + [hi]
    nodes, weights = _leggauss(n_panel)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * weights)
    return np.concatenate(xs), np.concatenate(ws)


def _tensor_rule(panels):
    """(param_points, weights) of the tensor rule over the per-axis Gauss
    panels, each (nodes, weights): points in C order of the axes, weights
    the products of the axis weights."""
    return (grid_points([x for x, _ in panels]),
            np.prod(grid_points([w for _, w in panels]), axis=1))


def check_node_count(n_gl) -> None:
    """Raise InputInvalidError unless n_gl is an integer that
    surface_quadrature's rule, stated in the message, builds exactly."""
    if not _is_integer(n_gl):
        raise InputInvalidError(f"n_gl must be an integer, got {n_gl!r}")
    nodes = QUADRATURE_PANELS * max(QUADRATURE_PANEL_FLOOR, n_gl // QUADRATURE_PANELS)
    if nodes != n_gl:
        raise InputInvalidError(
            f"n_gl={n_gl} would build {nodes} nodes per axis: surface_quadrature "
            f"takes max({QUADRATURE_PANEL_FLOOR}, n_gl // {QUADRATURE_PANELS}) Gauss "
            f"nodes on each of {QUADRATURE_PANELS} panels, so n_gl must be a multiple "
            f"of {QUADRATURE_PANELS} and at least {QUADRATURE_PANELS * QUADRATURE_PANEL_FLOOR}")


def surface_quadrature(surface: GraphSurface, n_gl: int) -> SurfaceMeasure:
    """Full-measure nodes: composite Gauss-Legendre weighted by chi, with
    n_gl nodes per axis (check_node_count)."""
    check_node_count(n_gl)
    r = CHI_RADIUS
    panels = _gauss_panels_1d(-r, r, (-0.5 * r, 0.0, 0.5 * r), n_gl // QUADRATURE_PANELS)
    y, w = _tensor_rule([panels] * (surface.dim - 1))
    return SurfaceMeasure(surface, y, surface.points(y), w * surface.chi(y))


@dataclass
class _CapPartition:
    """Shared bump context: plateau caps normalized to sum to chi."""

    centers: np.ndarray
    r_cap: float
    surface: GraphSurface

    def raw(self, y: np.ndarray) -> np.ndarray:
        # only caps reaching the points' box are evaluated; any other has
        # |u| >= 1 on some axis, where the plateau is exactly 0, and keeps its
        # zero column so that row sums add the same values in the same order
        y = np.atleast_2d(y)
        out = np.zeros((y.shape[0], self.centers.shape[0]))
        lo = (y.min(axis=0, initial=np.inf) - self.centers) / self.r_cap
        hi = (y.max(axis=0, initial=-np.inf) - self.centers) / self.r_cap
        near = np.flatnonzero(np.all((lo < 1.0) & (hi > -1.0), axis=1))
        u = (y[:, None, :] - self.centers[None, near, :]) / self.r_cap
        out[:, near] = np.prod(plateau_profile(u), axis=2)
        return out

    def bump(self, y: np.ndarray, rho: int) -> np.ndarray:
        raw = self.raw(y)
        total = np.sum(raw, axis=1)
        return np.divide(raw[:, rho] * self.surface.chi(y), total,
                         out=np.zeros(len(raw)), where=total > 0.0)


@dataclass(kw_only=True)
class SurfacePiece:
    """One cap of the measure partition with its classification: geometry
    only, as param_points and measure() build the cap's rule on each call."""

    surface: GraphSurface
    s: int
    rho: int
    center: np.ndarray
    partition: _CapPartition
    scale: float
    eps: float
    in_I1: bool = False
    in_I2: bool = False
    min_curvature: float = None
    worst_mass_ratio: float = None
    worst_tau: int = None

    def bump(self, y) -> np.ndarray:
        return self.partition.bump(y, self.rho)

    @property
    def excluded(self) -> bool:
        return self.in_I1 or self.in_I2

    def _rule(self):
        """(param_points, weights) of the cap's Gauss rule over its box."""
        r_cap = self.partition.r_cap
        chi_cuts = (-CHI_RADIUS, -0.5 * CHI_RADIUS, 0.5 * CHI_RADIUS, CHI_RADIUS)
        panels = []
        for c in self.center:
            # The normalizer sum of plateau caps has features at quarter-cap
            # scale, so integrate per panel between the transition points.
            cuts = [c - 0.5 * r_cap, c, c + 0.5 * r_cap]
            cuts += [t for t in chi_cuts if c - r_cap < t < c + r_cap]
            panels.append(_gauss_panels_1d(c - r_cap, c + r_cap, cuts,
                                           PIECE_GL_NODES // 2))
        return _tensor_rule(panels)

    @property
    def param_points(self) -> np.ndarray:
        return self._rule()[0]

    def measure(self) -> SurfaceMeasure:
        """The measure weighted by the cap's bump, on the cap's rule."""
        y, w = self._rule()
        return SurfaceMeasure(self.surface, y, self.surface.points(y),
                              w * self.bump(y), scale=self.scale, eps=self.eps)


def partition_measure(surface: GraphSurface, s: int, eps: float) -> list:
    """Lay out the caps of ambient diameter about 2^(-eps s) that split the
    measure; no cap builds nodes here."""
    if not (_is_integer(s) and s >= 0 and 0.0 < eps < 1.0):
        raise InputInvalidError(f"need an integer s >= 0 and 0 < eps < 1, got {s!r}, {eps!r}")
    p = surface.dim - 1
    radius = 2.0 ** (-eps * s)
    r_cap = radius / (2.0 * np.sqrt(2.0 * p))
    m_side = int(np.ceil(CHI_RADIUS / r_cap - 0.5))
    if (2 * m_side + 1) ** p > _PIECE_BUDGET:
        raise BudgetExceededError("cap count exceeds the piece budget")
    centers = r_cap * grid_points([np.arange(-m_side, m_side + 1)] * p).astype(float)
    partition = _CapPartition(centers, r_cap, surface)
    return [SurfacePiece(surface=surface, s=s, rho=rho, center=c,
                         partition=partition, scale=radius, eps=eps)
            for rho, c in enumerate(centers)]


def _cube_masses(keys: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Summed mass per distinct key row, rows in lexicographic key order.

    Sorting the rows with column 0 as the primary key and cutting where
    any one sorted key column differs from its predecessor gives the
    grouping of np.unique(keys, axis=0), with no sorted copy of the rows;
    bincount then adds each group's masses in point order.
    """
    order = np.lexsort(keys.T[::-1])
    starts = np.arange(len(keys)) == 0
    for column in keys.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    return np.bincount(labels, weights=masses)


def classify_pieces(pieces: list, surface: GraphSurface, D: DilationStructure,
                    eps: float, zeta: float) -> list:
    """Flag each piece for low curvature (I1) and cube-mass excess (I2).

    I2 compares cube masses with their thresholds at every tau from 0 down
    to -s - 8.  The outcome is written onto the pieces (in_I1, in_I2,
    min_curvature, worst_mass_ratio, worst_tau), and the classified pieces
    are returned.  Raises InputInvalidError when a pulled point reaches
    2^53, past exact integer cube keys, as it does from tau = -28 on under
    diag(2, 4).
    """
    if not pieces:
        return []
    s = pieces[0].s
    if any(piece.s != s for piece in pieces):
        raise InputInvalidError("pieces must share the same scale s")
    a = D.det_scale
    curvature_cut = 2.0 ** (-eps * s)
    # cell-centred fine samples over each cap's box; the side count is 4096,
    # 64 or 16 for p = 1, 2, 3, a power of two, so the lattice's centers
    # lo + (h/n) x equal lo + h x / n bit for bit
    fine_side = max(2, int(round(FINE_POINTS ** (1.0 / (surface.dim - 1)))))
    # per tau, finest first: the mass threshold and the measure of the cube's
    # parameter window, the projection of an A^tau cell onto the graph
    # coordinates; no grid cube at that level can hold more mass than the
    # density cap times this window
    levels = []
    for tau in range(0, -s - 9, -1):
        threshold = (2.0 ** (zeta * s)) * det_power(a, tau) / cube_diameter(D, tau)
        window = float(np.prod(np.sum(np.abs(D.power(tau)[:-1, :]), axis=1)))
        levels.append((tau, threshold, window))

    for piece in pieces:
        kvals = np.abs(gaussian_curvature(surface, piece.param_points))
        min_k = float(np.min(kvals))
        # relative slack so that a curvature sitting exactly on the cut
        # (up to floating jitter) does not flip the flag
        piece.in_I1 = bool(min_k < curvature_cut * (1.0 - 1e-9))
        piece.min_curvature = min_k

        r_cap = piece.partition.r_cap
        fine = make_lattice(np.column_stack([piece.center - r_cap, piece.center + r_cap]),
                            fine_side)
        y = fine.points()
        bump_vals = piece.bump(y)
        masses = bump_vals * fine.cell_volume
        sup_bump = float(np.max(bump_vals)) if bump_vals.size else 0.0
        pts = surface.points(y)
        worst_ratio, worst_tau = 0.0, None
        for tau, threshold, window in levels:
            analytic = sup_bump * window
            if analytic <= threshold:
                ratio = analytic / threshold
                if ratio > worst_ratio:
                    worst_ratio, worst_tau = ratio, tau
                continue
            pulled = pts @ D.power(-tau).T
            # past 2^53 floats no longer hold every integer, and the int64
            # cast overflows past 2^63: the cube keys would be garbage
            if not np.all(np.abs(pulled) < _KEY_LIMIT):
                raise InputInvalidError(
                    f"s = {s}, tau {tau}: pulled coordinates reach 2^53, past "
                    "exact integer cube keys")
            cube_mass = _cube_masses(np.floor(pulled).astype(np.int64), masses)
            ratio = min(float(np.max(cube_mass)), analytic) / threshold
            if ratio > worst_ratio:
                worst_ratio, worst_tau = ratio, tau
        piece.in_I2 = bool(worst_ratio > 1.0)
        piece.worst_mass_ratio = worst_ratio
        piece.worst_tau = worst_tau
    return pieces


@dataclass
class GrowthReport:
    """Fitted growth of the excluded-piece count across scales."""

    eta: float
    growth: float
    s_values: list
    counts: list


def _scales(s_values) -> list:
    """The scales as Python ints; int() would truncate 4.5 to 4 unseen."""
    s_values = list(s_values)
    if not all(map(_is_integer, s_values)):
        raise InputInvalidError(f"scales must be integers, got {s_values!r}")
    return [int(s) for s in s_values]


def excluded_piece_growth(surface: GraphSurface, D: DilationStructure,
                          eps: float, zeta: float, s_values) -> GrowthReport:
    """Count |I1 union I2| at every scale and fit it with fit_excluded_growth."""
    s_values = _scales(s_values)
    counts = []
    for s in s_values:
        pieces = partition_measure(surface, s, eps)
        classify_pieces(pieces, surface, D, eps, zeta)
        counts.append(sum(1 for piece in pieces if piece.excluded))
    return fit_excluded_growth(surface.dim, eps, s_values, counts)


def fit_excluded_growth(dim: int, eps: float, s_values, counts) -> GrowthReport:
    """Fit excluded counts |I1 union I2| ~ 2^{g s}; eta = (d-1)eps - g."""
    s_values = _scales(s_values)
    if len(set(s_values)) < 5:
        raise DegenerateFitError("need at least 5 distinct scales")
    logs = np.log2(np.asarray(counts, dtype=float) + 1.0)
    growth = float(np.polyfit(np.asarray(s_values, dtype=float), logs, 1)[0])
    eta = (dim - 1) * eps - growth
    return GrowthReport(eta=eta, growth=growth, s_values=s_values, counts=counts)


@dataclass
class KernelField:
    """Sampled autocorrelation field on a centered cubic lattice."""

    values: np.ndarray
    half_width: float
    spacing: float
    dim: int
    mass_squared: float

    @property
    def cell_volume(self) -> float:
        # the values' normalizer; lattice.cell_volume can round apart in 3-D
        return self.spacing ** self.dim

    @property
    def lattice(self) -> Lattice:
        """The cubic grid of the values, from -half_width."""
        return Lattice(origin=(-self.half_width,) * self.dim,
                       spacing=(self.spacing,) * self.dim, shape=self.values.shape)


def autocorrelation_kernel(measure, n_bins: int = KERNEL_BINS) -> KernelField:
    """Histogram density of all pairwise node differences, then smooth.

    The first call imports scipy.ndimage for the smoothing.  It loads about
    as many modules as the rest of the package, so the import stays here,
    off the path of every run that asks for no kernel.
    """
    if not (_is_integer(n_bins) and n_bins >= 1):
        raise InputInvalidError(f"n_bins must be an integer >= 1, got {n_bins!r}")
    n = len(measure.quad_weights)
    if n * n > KERNEL_PAIR_BUDGET:
        raise BudgetExceededError(
            f"{n} nodes make {n * n} node pairs, budget is {KERNEL_PAIR_BUDGET}")
    from scipy.ndimage import gaussian_filter

    pts = measure.quad_points
    w = measure.quad_weights
    d = pts.shape[1]
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    half = 1.05 * extent
    spacing = 2.0 * half / n_bins
    half += 3.0 * spacing
    spacing = 2.0 * half / n_bins
    if spacing > measure.scale / 8.0:
        raise ResolutionTooCoarseError(
            f"spacing {spacing:.4g} too coarse for scale {measure.scale:.4g}")

    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, d)
    wpair = (w[:, None] * w[None, :]).ravel()
    hist, _ = np.histogramdd(diffs, bins=n_bins,
                             range=[(-half, half)] * d, weights=wpair)
    cell = spacing ** d
    values = gaussian_filter(hist, sigma=KERNEL_SMOOTH_CELLS, mode="constant") / cell
    return KernelField(values=values, half_width=half, spacing=spacing,
                       dim=d, mass_squared=float(np.sum(w)) ** 2)


@dataclass
class KernelDecayReport:
    slope: float
    radii: list
    maxima: list
    ok: bool


def check_kernel_decay(kernel: KernelField) -> KernelDecayReport:
    """Log-log slope of the shell maxima of |field| over one decade of radii,
    up to 0.8 half_width.  Raises DegenerateFitError when the decade's
    lower end, kept at least 3 cells out, reaches its upper one, or fewer
    than 3 shells hold a nonzero maximum."""
    r_max = 0.8 * kernel.half_width
    r_min = max(r_max / 10.0, 3.0 * kernel.spacing)
    if r_min >= r_max:
        raise DegenerateFitError("empty radius range")

    radii = np.linalg.norm(kernel.lattice.points(), axis=1)
    mags = np.abs(kernel.values).ravel()
    shell_r = np.geomspace(r_min, r_max, DECAY_N_SHELLS)
    g = np.sqrt(shell_r[1] / shell_r[0])
    used_r, used_m = [], []
    for r in shell_r:
        band = (radii >= r / g) & (radii < r * g)
        if not np.any(band):
            continue
        m = float(np.max(mags[band]))
        if m > 0.0:
            used_r.append(r)
            used_m.append(m)
    if len(used_r) < 3:
        raise DegenerateFitError("too few populated shells for a fit")
    slope = float(np.polyfit(np.log2(used_r), np.log2(used_m), 1)[0])
    return KernelDecayReport(slope=slope, radii=used_r, maxima=used_m,
                             ok=slope <= DECAY_SLOPE_CUT)


def _piece_convolutions(atomics, piece, spacing: float = None):
    """The setup of both piece-bound checks: each atomic sum's support box,
    shape (n, 2, d), the fields mu_rho * f of the sums f on one lattice, and
    that lattice's cell volume.  A piece's measure() is built here; a
    SurfaceMeasure is used as it is.

    The lattice has side spacing, by default a sixteenth of the smallest
    atom diameter (half what convolve_dilated allows), and holds every
    support box moved by every node of the piece, padded by two cells; it
    may have at most 4e6 cells.
    """
    if spacing is None:
        spacing = min(_min_atom_diameter(f) for f in atomics) / 16.0
    boxes = []
    for f in atomics:
        corners = np.array([atom.support.realize().bbox() for atom, _ in f.terms])
        boxes.append((corners[:, 0].min(axis=0), corners[:, 1].max(axis=0)))
    boxes = np.array(boxes)
    measure = piece.measure() if isinstance(piece, SurfacePiece) else piece
    nodes = measure.quad_points
    lo = boxes[:, 0].min(axis=0) + nodes.min(axis=0) - 2.0 * spacing
    hi = boxes[:, 1].max(axis=0) + nodes.max(axis=0) + 2.0 * spacing
    counts = np.maximum(2, np.ceil((hi - lo) / spacing).astype(int))
    if np.prod(counts.astype(float)) > 4e6:
        raise BudgetExceededError("convolution lattice too large")
    lattice = Lattice(origin=tuple(float(v) for v in lo),
                      spacing=(float(spacing),) * lo.size,
                      shape=tuple(int(n) for n in counts))
    fields = [convolve_dilated(f, measure, 0, lattice) for f in atomics]
    return boxes, fields, spacing ** lo.size


@dataclass
class KernelBoundReport:
    sup_norm: float
    l1_norm: float
    sup_ratio: float
    l1_ratio: float
    sup_bound: float
    l1_bound: float
    ok: bool
    excluded: bool
    rationale: str


def check_linfty_bound(atomic, piece, sigma: int, zeta: float, s: int) -> KernelBoundReport:
    """Compare sup and L1 norms of A_q * mu_rho against the scale bounds."""
    lam_q = atomic.h1_norm()
    if lam_q <= 0.0:
        raise InputInvalidError("the atomic sum must carry positive mass")
    eps = piece.eps
    if eps <= 0.0:
        raise InputInvalidError(
            "the L1 bound needs a cap exponent eps > 0: pass a piece of "
            "partition_measure, not the full measure")
    _, (field,), cell = _piece_convolutions([atomic], piece)
    d = piece.surface.dim
    sup = float(np.max(np.abs(field.values)))
    l1 = float(np.sum(np.abs(field.values))) * cell
    sup_core = 2.0 ** (-sigma + zeta * s) * lam_q
    l1_core = 2.0 ** ((zeta + eps * (1 - d)) * s) * lam_q
    excluded = piece.excluded
    rationale = ""
    if excluded:
        flags = []
        if piece.in_I1:
            flags.append("low curvature")
        if piece.in_I2:
            flags.append("cube-mass excess")
        rationale = "piece excluded (" + ", ".join(flags) + "); bound not claimed"
    C = PIECE_BOUND_FACTOR
    return KernelBoundReport(
        sup_norm=sup, l1_norm=l1,
        sup_ratio=sup / sup_core, l1_ratio=l1 / l1_core,
        sup_bound=C * sup_core, l1_bound=C * l1_core,
        ok=sup <= C * sup_core and l1 <= C * l1_core,
        excluded=excluded, rationale=rationale,
    )


@dataclass
class PairBoundReport:
    inner: float
    dist: float
    ratio: float
    bound: float
    ok: bool
    precondition_met: bool


def check_pair_bound(atomic_a, atomic_b, piece, sigma_prime: int, eps: float,
                     s: int, spacing: float = None) -> PairBoundReport:
    """Inner product of two convolved atom sums against the pair bound, at
    the distance between the centers of their support boxes."""
    lam_a, lam_b = atomic_a.h1_norm(), atomic_b.h1_norm()
    boxes, (f1, f2), cell = _piece_convolutions([atomic_a, atomic_b], piece, spacing)
    centers = boxes.mean(axis=1)
    dist = float(np.linalg.norm(centers[0] - centers[1]))
    inner = float(np.sum(f1.values * f2.values)) * cell
    d = piece.surface.dim
    core = 2.0 ** (sigma_prime + eps * s * (5 - d)) * lam_a * lam_b / dist ** 2
    C = PIECE_BOUND_FACTOR
    return PairBoundReport(
        inner=inner, dist=dist, ratio=abs(inner) / core, bound=C * core,
        ok=abs(inner) <= C * core,
        precondition_met=dist >= 2.0 ** sigma_prime,
    )
