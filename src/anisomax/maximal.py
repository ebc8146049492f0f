"""Convolution with dilated surface measures and the maximal field.

The measure is a node cloud with weights (a full quadrature measure or a
single partition piece).  Convolving an atomic sum with its dilate by A^k
adds one copy of the atom profile per displaced measure node, on the
lattice cells of that node's window (the support cube's box, shifted).
Under a diagonal A every profile is a product of 1-D factors, so each
atom's sum over the nodes is one separable contraction of per-axis factor
matrices; any other A keeps the windowed scatter, one atom evaluation per
atom and node, which is also the test oracle.  The maximal field is the
pointwise sup of |mu_k * f| over a finite k range, with a reported tail
criterion in place of k in Z.

Superlevel-set sizes are cell counts times the cell volume, optionally
skipping the cells of a boolean mask, such as the cells of an exceptional
set E built once per lattice by _excluded_mask.  Every weak-type ratio comes
from weak_type_report.
"""

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomicSum
from .dilation import cube_diameter
from .errors import InputInvalidError, ResolutionTooCoarseError, TailNotNegligibleWarning

MAGIC = b"ANISOFLD"
THRESHOLD_COUNT = 64
THRESHOLD_FLOOR = 1e-3
TAIL_FRACTION = 0.01


# ------------------------------------------------------------------ lattice


@dataclass(frozen=True)
class Lattice:
    """Axis-aligned sample grid; values live at cell centers."""

    origin: tuple
    spacing: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.origin) == len(self.spacing) == len(self.shape)):
            raise InputInvalidError("lattice origin, spacing, shape disagree")
        if any(h <= 0 for h in self.spacing) or any(n <= 0 for n in self.shape):
            raise InputInvalidError("lattice spacing and shape must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, j: int) -> np.ndarray:
        return self.origin[j] + self.spacing[j] * (np.arange(self.shape[j]) + 0.5)

    def points(self) -> np.ndarray:
        """All cell centers, C order, matching values.ravel()."""
        axes = [self.axis_centers(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def window_bounds(self, lo, hi):
        """First and last index, per axis, of the cells centered in [lo, hi].

        lo and hi hold one box corner per row, shape (..., d); a box misses
        the lattice where first > last on some axis.
        """
        shape = np.asarray(self.shape)
        rel_lo = (np.asarray(lo, dtype=float) - self.origin) / self.spacing
        rel_hi = (np.asarray(hi, dtype=float) - self.origin) / self.spacing
        first = np.clip(np.ceil(rel_lo - 0.5), 0, shape)
        last = np.clip(np.floor(rel_hi - 0.5), -1, shape - 1)
        return first.astype(int), last.astype(int)

    def window(self, lo, hi):
        """Index slices of cells whose centers fall in [lo, hi], or None."""
        first, last = self.window_bounds(lo, hi)
        if np.any(first > last):
            return None
        return tuple(slice(int(a), int(b) + 1) for a, b in zip(first, last))

    def window_points(self, slices) -> np.ndarray:
        axes = [self.axis_centers(j)[slices[j]] for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def make_lattice(box, shape) -> Lattice:
    """Lattice over the axis-aligned box with the given cell counts."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if isinstance(shape, int):
        shape = (shape,) * len(box)
    shape = tuple(int(n) for n in shape)
    if len(shape) != len(box):
        raise InputInvalidError("box and shape dimensions disagree")
    for lo, hi in box:
        if not hi > lo:
            raise InputInvalidError("box sides must have positive length")
    origin = tuple(lo for lo, _ in box)
    spacing = tuple((hi - lo) / n for (lo, hi), n in zip(box, shape))
    return Lattice(origin=origin, spacing=spacing, shape=shape)


@dataclass
class SampledField:
    lattice: Lattice
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.lattice.shape:
            raise InputInvalidError("values shape does not match the lattice")
        if not np.all(np.isfinite(self.values)):
            raise InputInvalidError("field values must be finite")


@dataclass
class DistributionReport:
    thresholds: np.ndarray
    measures: np.ndarray
    weak_ratio: float
    h1: float = None


# -------------------------------------------------------------- convolution


def _measure_label(measure) -> str:
    label = getattr(getattr(measure, "surface", None), "catalog_id", "measure")
    rho = getattr(measure, "rho", None)
    if rho is not None:
        label = f"{label}/piece{rho}"
    return label


def _atomic_label(f: AtomicSum) -> str:
    taus = sorted(atom.support.tau for atom, _ in f.terms)
    if not taus:
        return "0 atoms"
    return f"{len(taus)} atoms, tau in [{taus[0]},{taus[-1]}]"


def _min_atom_diameter(f: AtomicSum) -> float:
    taus = {atom.support.tau for atom, _ in f.terms}
    return min(cube_diameter(f.dilation, tau) for tau in taus)


def _is_diagonal(matrix: np.ndarray) -> bool:
    """True when every off-diagonal entry is exactly zero."""
    return not np.any(matrix[~np.eye(matrix.shape[0], dtype=bool)])


def _add_scatter(values, lattice, atom, weights, shifted, first, last) -> None:
    """values += sum_i weights_i atom(x - shifted_i), one evaluation per node.

    Each node's atom is evaluated on the cells of its window, the lattice
    cells whose centers lie in the node's shifted support box.
    """
    for i in range(len(weights)):
        slices = tuple(slice(a, b + 1) for a, b in zip(first[i], last[i]))
        local = lattice.window_points(slices) - shifted[i]
        block = atom.evaluate(local).reshape(values[slices].shape)
        values[slices] += weights[i] * block


def _add_separable(values, lattice, atom, weights, shifted, first, last) -> None:
    """values += sum_i weights_i atom(x - shifted_i), for a diagonal dilation.

    The atom is amplitude x prod_j axis_factor(j, u_j), and under a diagonal
    A the local coordinate u_j depends on x_j alone.  G_j[c, i] is the axis-j
    factor at cell c for node i, with u_j computed as Atom.evaluate computes
    it and zeroed outside node i's window, so the result is the scatter
    path's up to summation order.  The sum over nodes is one contraction of
    the G_j over the union of the node windows: a Khatri-Rao product of all
    axes but the last, then one matrix product.
    """
    cube = atom.support
    scale = np.diag(cube.dilation.power(-cube.tau))
    lo, hi = first.min(axis=0), last.max(axis=0)
    factors = []
    for j in range(lattice.dim):
        cells = np.arange(lo[j], hi[j] + 1)[:, None]
        x = lattice.axis_centers(j)[lo[j]:hi[j] + 1, None]
        u = (x - shifted[:, j]) * scale[j] - float(cube.index[j])
        in_window = (cells >= first[:, j]) & (cells <= last[:, j])
        factors.append(np.where(in_window, atom.axis_factor(j, u), 0.0))
    rows = np.ones((1, len(weights)))
    for g in factors[:-1]:
        rows = (rows[:, None, :] * g[None, :, :]).reshape(-1, len(weights))
    block = rows @ ((weights * atom.amplitude)[:, None] * factors[-1].T)
    slices = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    values[slices] += block.reshape(values[slices].shape)


def convolve_dilated(f: AtomicSum, measure, k: int, lattice: Lattice) -> SampledField:
    """Field of (mu_k * f)(x) = sum_i w_i f(x - A^k p_i) at cell centers.

    Node i touches only the cells of its window, those whose centers lie in
    the atom's support box shifted by A^k p_i; nodes whose window misses the
    lattice are dropped.  Under a diagonal A each atom's sum over the nodes
    is a separable contraction (_add_separable).  Any other A keeps the
    windowed scatter (_add_scatter), one atom evaluation per atom and node,
    which is also the test oracle for the separable path.
    """
    if not f.terms:
        return SampledField(lattice, np.zeros(lattice.shape),
                            {"f": _atomic_label(f), "k": k})
    min_diam = _min_atom_diameter(f)
    if max(lattice.spacing) > min_diam / 8.0:
        raise ResolutionTooCoarseError(
            f"lattice spacing {max(lattice.spacing):.4g} exceeds an eighth "
            f"of the smallest atom diameter {min_diam:.4g}")

    D = f.dilation
    w = measure.quad_weights
    shifted = measure.quad_points @ D.power(k).T
    values = np.zeros(lattice.shape)
    add = _add_separable if _is_diagonal(D.matrix) else _add_scatter
    for atom, lam in f.terms:
        blo, bhi = atom.support.realize().bbox()
        first, last = lattice.window_bounds(blo + shifted, bhi + shifted)
        live = np.flatnonzero(np.all(first <= last, axis=1))
        if live.size:
            add(values, lattice, atom, lam * w[live], shifted[live],
                first[live], last[live])
    return SampledField(lattice, values, {
        "f": _atomic_label(f), "measure": _measure_label(measure), "k": k,
    })


def maximal_field(f: AtomicSum, measure, k_range, lattice: Lattice) -> SampledField:
    """Pointwise sup over k of |mu_k * f|, with per-cell argmax recorded.

    The ends of the truncated range must contribute less than 1% of the
    field maximum; otherwise a TailNotNegligibleWarning is emitted.  The
    measured end fractions are stored in the provenance either way.
    """
    ks = _normalize_k_range(k_range)
    best = np.zeros(lattice.shape)
    argmax = np.full(lattice.shape, ks[0], dtype=int)
    end_max = {}
    for k in ks:
        fk = np.abs(convolve_dilated(f, measure, k, lattice).values)
        if k in (ks[0], ks[-1]):
            end_max[k] = float(fk.max())
        mask = fk > best
        best[mask] = fk[mask]
        argmax[mask] = k
    peak = float(best.max())
    tails = (
        end_max[ks[0]] / peak if peak > 0 else 0.0,
        end_max[ks[-1]] / peak if peak > 0 else 0.0,
    )
    if max(tails) > TAIL_FRACTION:
        warnings.warn(
            f"range ends contribute {max(tails):.3f} of the field max",
            TailNotNegligibleWarning)
    return SampledField(lattice, best, {
        "f": _atomic_label(f), "measure": _measure_label(measure),
        "k_range": (ks[0], ks[-1]), "argmax_k": argmax,
        "tail_fractions": tails,
    })


def _normalize_k_range(k_range) -> list:
    if isinstance(k_range, tuple) and len(k_range) == 2 and all(
            isinstance(v, (int, np.integer)) for v in k_range):
        lo, hi = int(k_range[0]), int(k_range[1])
        if lo > hi:
            raise InputInvalidError("empty k range")
        return list(range(lo, hi + 1))
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise InputInvalidError("empty k range")
    return ks


# ------------------------------------------------------- distribution sizes


def _excluded_mask(lattice: Lattice, exclude) -> np.ndarray:
    """Cells whose centers lie in any exclude primitive, in the lattice shape.

    Each primitive is tested only on the cells of its bbox() padded by one
    cell, and only on the cells that no earlier primitive captured.
    """
    mask = np.zeros(lattice.shape, dtype=bool)
    pad = np.asarray(lattice.spacing)
    for primitive in exclude or ():
        lo, hi = primitive.bbox()
        slices = lattice.window(lo - pad, hi + pad)
        if slices is None:
            continue
        window = mask[slices]
        todo = ~window
        if not todo.any():
            continue
        window[todo] = primitive.contains_points(
            lattice.window_points(slices)[todo.ravel()])
    return mask


def distribution_function(field: SampledField, thresholds, h1: float = None,
                          excluded=None) -> DistributionReport:
    """Cell-count sizes of the superlevel sets {field > lambda}.

    excluded is a boolean cell mask in the lattice shape (for an exceptional
    set, from _excluded_mask); its cells are skipped, which never enlarges a
    superlevel set.  The kept values are sorted once and every threshold is
    counted by one binary search.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise InputInvalidError("thresholds must be a nonempty 1-d sequence")
    if np.any(np.diff(thresholds) < 0):
        raise InputInvalidError("thresholds must be sorted ascending")
    values = field.values.ravel()
    if excluded is not None:
        excluded = np.asarray(excluded, dtype=bool)
        if excluded.shape != field.lattice.shape:
            raise InputInvalidError("excluded mask shape does not match the lattice")
        values = values[~excluded.ravel()]
    kept = np.sort(values)
    above = kept.size - np.searchsorted(kept, thresholds, side="right")
    measures = field.lattice.cell_volume * above
    weak = float(np.max(thresholds * measures))
    return DistributionReport(thresholds=thresholds, measures=measures,
                              weak_ratio=weak, h1=h1)


def weak_type_report(f: AtomicSum, measure, k_range, lattice: Lattice,
                     excluded=None):
    """Maximal field, distribution report and weak-type ratio of f.

    The ratio is sup over a log-spaced grid of lambda of
    lambda |{Mf > lambda} \\ E| / ||f||, with E the cells of the boolean
    mask excluded.  The report is None, and the ratio 0, when Mf vanishes.
    """
    h1 = f.h1_norm()
    if h1 <= 0:
        raise InputInvalidError("the atomic sum must have positive norm")
    mf = maximal_field(f, measure, k_range, lattice)
    peak = float(mf.values.max())
    if peak <= 0:
        return mf, None, 0.0
    thresholds = np.geomspace(THRESHOLD_FLOOR * peak, peak, THRESHOLD_COUNT)
    report = distribution_function(mf, thresholds, h1=h1, excluded=excluded)
    return mf, report, report.weak_ratio / h1


def weak_type_ratio(f: AtomicSum, measure, k_range, lattice: Lattice,
                    excluded=None) -> float:
    """sup over a log-spaced grid of lambda |{Mf > lambda} \\ E| / ||f||."""
    return weak_type_report(f, measure, k_range, lattice, excluded=excluded)[2]


# ----------------------------------------------------------------- exports


def write_field_binary(field: SampledField, path) -> None:
    """Flat little-endian dump: magic, dims, shape, origin, spacing, values."""
    lat = field.lattice
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", lat.dim))
        fh.write(struct.pack(f"<{lat.dim}I", *lat.shape))
        fh.write(struct.pack(f"<{lat.dim}d", *lat.origin))
        fh.write(struct.pack(f"<{lat.dim}d", *lat.spacing))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field_binary(path) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise InputInvalidError(f"not a field file: bad magic {magic!r}")
        (dim,) = struct.unpack("<I", fh.read(4))
        shape = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        origin = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        spacing = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        count = int(np.prod(shape))
        values = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    lattice = Lattice(origin=origin, spacing=spacing, shape=shape)
    return SampledField(lattice, values.copy(), {"source": "binary"})


def write_field_csv(field: SampledField, path) -> None:
    """Cell centers and values, one row per cell, repr-exact floats."""
    lat = field.lattice
    pts = lat.points()
    flat = field.values.ravel()
    header = ",".join(f"x{j + 1}" for j in range(lat.dim)) + ",value"
    lines = [header]
    for row, val in zip(pts, flat):
        lines.append(",".join(repr(float(c)) for c in row) + f",{repr(float(val))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
