"""Graph hypersurfaces with cutoff densities, cap partitions, and kernel checks.

A surface is the graph of a smooth map psi over the first d-1 coordinates,
weighted by a plateau cutoff chi; every polynomial graph, catalog or custom,
is a coefficient table under one rule.  The measure is split into caps whose
bumps, each from the caps that reach its points, sum back to chi; caps are
classified by curvature and by cube-mass concentration on a maximal.Lattice
over each cap, and convolution-type bounds are checked on a maximal.Lattice,
with the fields computed by maximal.convolve_dilated at k = 0 (the measure
nodes unmoved).
"""

import numpy as np
from dataclasses import dataclass
from functools import cache
from numpy.polynomial.legendre import leggauss

from .dilation import DilationStructure, cube_diameter
from .errors import (
    BudgetExceededError,
    DegenerateFitError,
    InputInvalidError,
    ResolutionTooCoarseError,
)
from .maximal import Lattice, _min_atom_diameter, convolve_dilated, make_lattice

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
DECAY_N_SHELLS = 12
DECAY_SLOPE_CUT = -0.7
# the constant C of the sup, L1 and pair bounds of the kernel-bound checks
PIECE_BOUND_FACTOR = 64.0
# Gauss-Legendre nodes per axis of each cap's quadrature in partition_measure
PIECE_GL_NODES = 24


def plateau_profile(u: np.ndarray) -> np.ndarray:
    """Smooth plateau: 1 on |u| <= 1/2, supported on |u| < 1."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    taper = (u > 0.5) & (u < 1.0)
    t = 2.0 * u[taper] - 1.0
    out[taper] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return out


@dataclass
class GraphSurface:
    """Graph of psi over [-chi_radius, chi_radius]^{d-1} with cutoff chi."""

    catalog_id: str
    dim: int
    psi: callable
    grad: callable
    hess: callable
    chi_radius: float = CHI_RADIUS

    def chi(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.prod(plateau_profile(y / self.chi_radius), axis=1)

    def points(self, y: np.ndarray) -> np.ndarray:
        """Ambient points (y, psi(y))."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.column_stack([y, self.psi(y)])


def _poly_callables(coeffs: dict, p: int):
    terms = []
    for mono, c in coeffs.items():
        mono = tuple(int(k) for k in mono)
        if len(mono) != p or any(k < 0 for k in mono):
            raise InputInvalidError(f"bad monomial {mono} for {p} variables")
        if sum(mono) > _MAX_POLY_DEGREE:
            raise InputInvalidError(f"polynomial degree above {_MAX_POLY_DEGREE} not supported")
        terms.append((mono, float(c)))

    def psi(y):
        y = np.atleast_2d(y)
        out = np.zeros(y.shape[0])
        for mono, c in terms:
            t = np.full(y.shape[0], c)
            for j, k in enumerate(mono):
                if k:
                    t = t * y[:, j] ** k
            out += t
        return out

    def grad(y):
        y = np.atleast_2d(y)
        out = np.zeros_like(y)
        for mono, c in terms:
            for i, ki in enumerate(mono):
                if ki == 0:
                    continue
                t = np.full(y.shape[0], c * ki)
                for j, k in enumerate(mono):
                    kk = k - 1 if j == i else k
                    if kk:
                        t = t * y[:, j] ** kk
                out[:, i] += t
        return out

    def hess(y):
        y = np.atleast_2d(y)
        out = np.zeros((y.shape[0], y.shape[1], y.shape[1]))
        for mono, c in terms:
            for i, ki in enumerate(mono):
                for j, kj in enumerate(mono):
                    drop = {i: 1, j: 1} if i != j else {i: 2}
                    factor = ki * (kj if i != j else ki - 1)
                    if factor == 0:
                        continue
                    t = np.full(y.shape[0], c * factor)
                    for m, k in enumerate(mono):
                        kk = k - drop.get(m, 0)
                        if kk:
                            t = t * y[:, m] ** kk
                    out[:, i, j] += t
        return out

    return psi, grad, hess


def make_surface(kind: str, dim: int = 2, coeffs: dict = None) -> GraphSurface:
    """Build a catalog surface; raise InputInvalidError if it leaves the
    unit ball on the probe grid.  Polynomial kinds are coefficient tables
    {exponents: coefficient}, evaluated and differentiated by _poly_callables."""
    if kind not in CATALOG:
        raise InputInvalidError(f"unknown surface kind {kind!r}")
    if dim < 2:
        raise InputInvalidError("ambient dimension must be at least 2")
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
    ambient = surface.points(_probe_grid(p, surface.chi_radius))
    radius = float(np.max(np.linalg.norm(ambient, axis=1)))
    if radius > 1.0:
        raise InputInvalidError(f"surface leaves the unit ball (radius {radius:.3f})")
    return surface


def _probe_grid(p: int, radius: float, n: int = _PROBE_POINTS) -> np.ndarray:
    axes = [np.linspace(-radius, radius, n)] * p
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def gaussian_curvature(surface: GraphSurface, y) -> np.ndarray:
    """K = det psi'' / (1 + |grad psi|^2)^{(d+1)/2}."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dets = np.linalg.det(surface.hess(y))
    gsq = np.sum(surface.grad(y) ** 2, axis=1)
    return dets / (1.0 + gsq) ** (0.5 * (surface.dim + 1))


@dataclass
class SurfaceMeasure:
    """Quadrature discretization of the chi-weighted surface measure."""

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


def _tensor_from_axes(axes, wts):
    mesh = np.meshgrid(*axes, indexing="ij")
    wmesh = np.meshgrid(*wts, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    w = np.prod(np.column_stack([m.ravel() for m in wmesh]), axis=1)
    return pts, w


def surface_quadrature(surface: GraphSurface, n_gl: int = 200) -> SurfaceMeasure:
    """Full-measure nodes: composite Gauss-Legendre weighted by chi."""
    p = surface.dim - 1
    r = surface.chi_radius
    x, w1 = _gauss_panels_1d(-r, r, (-0.5 * r, 0.0, 0.5 * r), max(8, n_gl // 4))
    y, w = _tensor_from_axes([x] * p, [w1] * p)
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
        y = np.atleast_2d(y)
        raw = self.raw(y)
        total = np.sum(raw, axis=1)
        chi = self.surface.chi(y)
        out = np.zeros(y.shape[0])
        live = total > 0.0
        out[live] = raw[live, rho] * chi[live] / total[live]
        return out


@dataclass
class SurfacePiece:
    """One cap of the measure partition with its own quadrature."""

    s: int
    rho: int
    center: np.ndarray
    radius: float
    eps: float
    surface: GraphSurface
    partition: _CapPartition
    param_points: np.ndarray
    quad_points: np.ndarray
    gl_weights: np.ndarray
    bump_values: np.ndarray
    in_I1: bool = False
    in_I2: bool = False
    min_curvature: float = None
    worst_mass_ratio: float = None
    worst_tau: int = None

    def bump(self, y) -> np.ndarray:
        return self.partition.bump(y, self.rho)

    @property
    def quad_weights(self) -> np.ndarray:
        return self.gl_weights * self.bump_values

    @property
    def mass(self) -> float:
        return float(np.sum(self.quad_weights))

    @property
    def scale(self) -> float:
        return self.radius

    @property
    def excluded(self) -> bool:
        return self.in_I1 or self.in_I2


def partition_measure(surface: GraphSurface, s: int, eps: float,
                      n_gl: int = PIECE_GL_NODES) -> list:
    """Split the measure into caps of ambient diameter about 2^(-eps s)."""
    if s < 0 or not 0.0 < eps < 1.0:
        raise InputInvalidError("need s >= 0 and 0 < eps < 1")
    if n_gl < 8:
        raise InputInvalidError("at least 8 quadrature nodes per axis")
    p = surface.dim - 1
    radius = 2.0 ** (-eps * s)
    r_cap = radius / (2.0 * np.sqrt(2.0 * p))
    m_side = int(np.ceil(surface.chi_radius / r_cap - 0.5))
    if (2 * m_side + 1) ** p > _PIECE_BUDGET:
        raise BudgetExceededError("cap count exceeds the piece budget")
    grids = np.meshgrid(*([np.arange(-m_side, m_side + 1)] * p), indexing="ij")
    centers = r_cap * np.column_stack([g.ravel() for g in grids]).astype(float)
    partition = _CapPartition(centers, r_cap, surface)

    chi_cuts = (-surface.chi_radius, -0.5 * surface.chi_radius,
                0.5 * surface.chi_radius, surface.chi_radius)
    pieces = []
    for rho, c in enumerate(centers):
        axes, wts = [], []
        for j in range(p):
            # The normalizer sum of plateau caps has features at quarter-cap
            # scale, so integrate per panel between the transition points.
            cuts = [c[j] - 0.5 * r_cap, c[j], c[j] + 0.5 * r_cap]
            cuts += [t for t in chi_cuts if c[j] - r_cap < t < c[j] + r_cap]
            x, w1 = _gauss_panels_1d(c[j] - r_cap, c[j] + r_cap, cuts,
                                     max(8, n_gl // 2))
            axes.append(x)
            wts.append(w1)
        y, w = _tensor_from_axes(axes, wts)
        bump = partition.bump(y, rho)
        pieces.append(SurfacePiece(
            s=s, rho=rho, center=c, radius=radius, eps=eps, surface=surface,
            partition=partition, param_points=y, quad_points=surface.points(y),
            gl_weights=w, bump_values=bump,
        ))
    return pieces


def _cube_masses(keys: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Summed mass per distinct key row, rows in lexicographic key order.

    Sorting the rows with column 0 as the primary key and cutting where a
    row differs from its predecessor gives the grouping of
    np.unique(keys, axis=0); bincount then adds each group's masses in
    point order.
    """
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    labels = np.empty(len(keys), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    return np.bincount(labels, weights=masses)


def classify_pieces(pieces: list, surface: GraphSurface, D: DilationStructure,
                    eps: float, zeta: float, tau_window=None) -> list:
    """Flag each piece for low curvature (I1) and cube-mass excess (I2).

    The outcome is written onto the pieces (in_I1, in_I2, min_curvature,
    worst_mass_ratio, worst_tau), and the classified pieces are returned.
    """
    if not pieces:
        return []
    s = pieces[0].s
    if any(piece.s != s for piece in pieces):
        raise InputInvalidError("pieces must share the same scale s")
    if tau_window is None:
        tau_window = (-s - 8, 0)
    tau_lo, tau_hi = int(tau_window[0]), int(tau_window[1])
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
    for tau in range(tau_hi, tau_lo - 1, -1):
        threshold = (2.0 ** (zeta * s)) * a ** tau / cube_diameter(D, tau)
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
                    f"tau {tau}: pulled coordinates reach 2^53, past exact "
                    "integer cube keys; narrow tau_window")
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


def excluded_piece_growth(surface: GraphSurface, D: DilationStructure,
                          eps: float, zeta: float, s_values) -> GrowthReport:
    """Count |I1 union I2| at every scale and fit it with fit_excluded_growth."""
    s_values = [int(s) for s in s_values]
    counts = []
    for s in s_values:
        pieces = partition_measure(surface, s, eps)
        classify_pieces(pieces, surface, D, eps, zeta)
        counts.append(sum(1 for piece in pieces if piece.excluded))
    return fit_excluded_growth(surface.dim, eps, s_values, counts)


def fit_excluded_growth(dim: int, eps: float, s_values, counts) -> GrowthReport:
    """Fit excluded counts |I1 union I2| ~ 2^{g s}; eta = (d-1)eps - g."""
    s_values = [int(s) for s in s_values]
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
        return self.spacing ** self.dim

    def axis_centers(self) -> np.ndarray:
        n = self.values.shape[0]
        return -self.half_width + (np.arange(n) + 0.5) * self.spacing

    def radii(self) -> np.ndarray:
        c = self.axis_centers()
        mesh = np.meshgrid(*([c] * self.dim), indexing="ij")
        return np.sqrt(sum(m * m for m in mesh))


def autocorrelation_kernel(measure, n_bins: int = KERNEL_BINS) -> KernelField:
    """Histogram density of all pairwise node differences, then smooth.

    The first call imports scipy.ndimage for the smoothing.  It loads about
    as many modules as the rest of the package, so the import stays here,
    off the path of every run that asks for no kernel.
    """
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


def check_kernel_decay(kernel: KernelField, r_max: float = None) -> KernelDecayReport:
    """Log-log slope of the shell maxima of |field| over one decade."""
    if r_max is None:
        r_max = 0.8 * kernel.half_width
    r_min = max(r_max / 10.0, 3.0 * kernel.spacing)
    if r_min >= r_max:
        raise DegenerateFitError("empty radius range")

    radii = kernel.radii().ravel()
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


def _support_boxes(*atomics) -> np.ndarray:
    """Box around the atom supports of each atomic sum, shape (n, 2, d)."""
    out = []
    for atomic in atomics:
        boxes = np.array([atom.support.realize().bbox() for atom, _ in atomic.terms])
        out.append((boxes[:, 0].min(axis=0), boxes[:, 1].max(axis=0)))
    return np.array(out)


def _conv_lattice(boxes, measure_points, spacing, pad) -> Lattice:
    """Lattice of side spacing holding every support box moved by every node."""
    lo = boxes[:, 0].min(axis=0) + measure_points.min(axis=0) - pad
    hi = boxes[:, 1].max(axis=0) + measure_points.max(axis=0) + pad
    counts = np.maximum(2, np.ceil((hi - lo) / spacing).astype(int))
    if np.prod(counts.astype(float)) > 4e6:
        raise BudgetExceededError("convolution lattice too large")
    return Lattice(origin=tuple(float(v) for v in lo),
                   spacing=(float(spacing),) * lo.size,
                   shape=tuple(int(n) for n in counts))


def _default_spacing(atomic):
    """A sixteenth of the smallest atom diameter, half what convolve_dilated allows."""
    return _min_atom_diameter(atomic) / 16.0


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


def check_linfty_bound(atomic, piece, sigma: int, zeta: float, s: int,
                       spacing: float = None) -> KernelBoundReport:
    """Compare sup and L1 norms of A_q * mu_rho against the scale bounds."""
    lam_q = atomic.h1_norm()
    if lam_q <= 0.0:
        raise InputInvalidError("the atomic sum must carry positive mass")
    eps = piece.eps
    if eps is None or eps <= 0.0:
        raise InputInvalidError(
            "the L1 bound needs a cap exponent eps > 0: pass a piece of "
            "partition_measure, not the full measure")
    if spacing is None:
        spacing = _default_spacing(atomic)
    lattice = _conv_lattice(_support_boxes(atomic), piece.quad_points, spacing,
                            pad=2.0 * spacing)
    vals = convolve_dilated(atomic, piece, 0, lattice).values
    d = piece.quad_points.shape[1]
    sup = float(np.max(np.abs(vals)))
    l1 = float(np.sum(np.abs(vals))) * spacing ** d
    sup_core = 2.0 ** (-sigma + zeta * s) * lam_q
    l1_core = 2.0 ** ((zeta + eps * (1 - d)) * s) * lam_q
    excluded = getattr(piece, "excluded", False)
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
                     s: int, dist: float = None, spacing: float = None) -> PairBoundReport:
    """Inner product of two convolved atom sums against the pair bound."""
    lam_a, lam_b = atomic_a.h1_norm(), atomic_b.h1_norm()
    if spacing is None:
        spacing = min(_default_spacing(atomic_a), _default_spacing(atomic_b))
    boxes = _support_boxes(atomic_a, atomic_b)
    if dist is None:
        centers = boxes.mean(axis=1)
        dist = float(np.linalg.norm(centers[0] - centers[1]))

    d = piece.quad_points.shape[1]
    lattice = _conv_lattice(boxes, piece.quad_points, spacing, pad=2.0 * spacing)
    f1 = convolve_dilated(atomic_a, piece, 0, lattice).values
    f2 = convolve_dilated(atomic_b, piece, 0, lattice).values
    inner = float(np.sum(f1 * f2)) * spacing ** d
    core = 2.0 ** (sigma_prime + eps * s * (5 - d)) * lam_a * lam_b / dist ** 2
    C = PIECE_BOUND_FACTOR
    return PairBoundReport(
        inner=inner, dist=dist, ratio=abs(inner) / core, bound=C * core,
        ok=abs(inner) <= C * core,
        precondition_met=dist >= 2.0 ** sigma_prime,
    )
