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

One engine (_maximal_fields) builds every maximal field: at each k it adds
each atom's windowed block once into the scratch array of every sub-sum
that holds the atom, and updates each sup and argmax only on the slices
written, or on their bounding box when it is smaller.  maximal_field is
its one-part case; convolve_dilated runs the same per-atom loop for a
single k.

Superlevel-set sizes are cell counts times the cell volume, optionally
skipping the cells of a boolean mask, such as the cells of an exceptional
set E built once per lattice by _excluded_mask.  Every weak-type ratio comes
from weak_type_report, or from weak_type_reports, which measures f and each
of its tau groups from one engine run.
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


def _atomic_label(terms) -> str:
    taus = sorted(atom.support.tau for atom, _ in terms)
    if not taus:
        return "0 atoms"
    return f"{len(taus)} atoms, tau in [{taus[0]},{taus[-1]}]"


def _min_atom_diameter(f: AtomicSum) -> float:
    taus = {atom.support.tau for atom, _ in f.terms}
    return min(cube_diameter(f.dilation, tau) for tau in taus)


def _is_diagonal(matrix: np.ndarray) -> bool:
    """True when every off-diagonal entry is exactly zero."""
    return not np.any(matrix[~np.eye(matrix.shape[0], dtype=bool)])


def _add_scatter(targets, lattice, atom, weights, shifted, first, last) -> tuple:
    """Each array in targets += sum_i weights_i atom(x - shifted_i).

    Each node's atom is evaluated once, on the cells of its window, the
    lattice cells whose centers lie in the node's shifted support box.
    Returns the slices of the box that holds every node window.
    """
    for i in range(len(weights)):
        slices = tuple(slice(a, b + 1) for a, b in zip(first[i], last[i]))
        local = lattice.window_points(slices) - shifted[i]
        block = weights[i] * atom.evaluate(local).reshape(targets[0][slices].shape)
        for values in targets:
            values[slices] += block
    return tuple(slice(a, b + 1) for a, b in zip(first.min(axis=0), last.max(axis=0)))


def _add_separable(targets, lattice, atom, weights, shifted, first, last) -> tuple:
    """Each array in targets += sum_i weights_i atom(x - shifted_i), diagonal A.

    The atom is amplitude x prod_j axis_factor(j, u_j), and under a diagonal
    A the local coordinate u_j depends on x_j alone.  G_j[c, i] is the axis-j
    factor at cell c for node i, with u_j computed as Atom.evaluate computes
    it and zeroed outside node i's window, so the result is the scatter
    path's up to summation order.  The sum over nodes is one contraction of
    the G_j over the union of the node windows: a Khatri-Rao product of all
    axes but the last, then one matrix product.  Returns the union's slices.
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
    block = block.reshape(targets[0][slices].shape)
    for values in targets:
        values[slices] += block
    return slices


def _support_boxes(f: AtomicSum, lattice: Lattice) -> list:
    """Each atom's support bbox, once the lattice passes the resolution guard."""
    if not f.terms:
        return []
    min_diam = _min_atom_diameter(f)
    if max(lattice.spacing) > min_diam / 8.0:
        raise ResolutionTooCoarseError(
            f"lattice spacing {max(lattice.spacing):.4g} exceeds an eighth "
            f"of the smallest atom diameter {min_diam:.4g}")
    return [atom.support.realize().bbox() for atom, _ in f.terms]


def _add_terms(f: AtomicSum, measure, k: int, lattice: Lattice, boxes,
               targets) -> list:
    """Add each term of mu_k * f into its arrays; targets[i] holds term i's.

    Node p of a term touches only the cells of its window, those whose
    centers lie in the atom's support box (boxes, from _support_boxes)
    shifted by A^k p; nodes whose window misses the lattice are dropped.
    Under a diagonal A each atom's sum over the nodes is a separable
    contraction (_add_separable).  Any other A keeps the windowed scatter
    (_add_scatter), one atom evaluation per atom and node, which is also
    the test oracle for the separable path.  Returns (i, slices) for each
    term i that met the lattice, slices holding every cell it wrote.
    """
    D = f.dilation
    w = measure.quad_weights
    shifted = measure.quad_points @ D.power(k).T
    add = _add_separable if _is_diagonal(D.matrix) else _add_scatter
    touched = []
    for i, ((atom, lam), (blo, bhi)) in enumerate(zip(f.terms, boxes)):
        first, last = lattice.window_bounds(blo + shifted, bhi + shifted)
        live = np.flatnonzero(np.all(first <= last, axis=1))
        if live.size:
            touched.append((i, add(targets[i], lattice, atom, lam * w[live],
                                   shifted[live], first[live], last[live])))
    return touched


def convolve_dilated(f: AtomicSum, measure, k: int, lattice: Lattice) -> SampledField:
    """Field of (mu_k * f)(x) = sum_i w_i f(x - A^k p_i) at cell centers.

    One k of the per-atom loop the maximal field runs (_add_terms), into a
    single array.
    """
    values = np.zeros(lattice.shape)
    if not f.terms:
        return SampledField(lattice, values, {"f": _atomic_label(f.terms), "k": k})
    boxes = _support_boxes(f, lattice)
    _add_terms(f, measure, k, lattice, boxes, [[values]] * len(f.terms))
    return SampledField(lattice, values, {
        "f": _atomic_label(f.terms), "measure": _measure_label(measure), "k": k,
    })


def _cells(slices) -> int:
    return int(np.prod([s.stop - s.start for s in slices]))


def _fold_regions(touched: list) -> list:
    """The slices touched, or their bounding box when it holds fewer cells.

    Either way no more cells are walked than the lattice holds, however
    many atoms' slices overlap.
    """
    if len(touched) < 2:
        return touched
    hull = tuple(slice(min(s[j].start for s in touched),
                       max(s[j].stop for s in touched))
                 for j in range(len(touched[0])))
    if _cells(hull) <= sum(_cells(s) for s in touched):
        return [hull]
    return touched


class _RunningSup:
    """Pointwise sup over k of |mu_k * g| and its argmax, for one sub-sum g.

    At each k the terms of g are added into scratch, and fold(k, touched)
    updates the sup and the argmax on the slices written (_fold_regions)
    only, with a strict >, which is idempotent where they overlap; cells
    outside them hold 0 and could not win.  The regions are zeroed only
    after all of them are folded, so scratch starts the next k at 0.
    """

    def __init__(self, lattice: Lattice, ks):
        self.scratch = np.zeros(lattice.shape)
        self.best = np.zeros(lattice.shape)
        self.ks = ks
        # argmax holds k - ks[0] in the narrowest type, until field()
        self.argmax = np.zeros(lattice.shape, np.min_scalar_type(ks[-1] - ks[0]))
        self.end_max = {}

    def fold(self, k: int, touched: list) -> None:
        """Fold |mu_k * g|, written into scratch on the slices touched."""
        regions = _fold_regions(touched)
        peak = 0.0
        for slices in regions:
            fk = np.abs(self.scratch[slices])
            top = float(fk.max())
            if not np.isfinite(top):
                raise InputInvalidError("field values must be finite")
            peak = max(peak, top)
            best = self.best[slices]
            mask = fk > best
            best[mask] = fk[mask]
            self.argmax[slices][mask] = k - self.ks[0]
        for slices in regions:
            self.scratch[slices] = 0.0
        if k in (self.ks[0], self.ks[-1]):
            self.end_max[k] = peak

    def field(self, lattice: Lattice, provenance: dict) -> SampledField:
        """The sup as a field, with argmax_k and the range-end tail fractions."""
        self.scratch = None
        peak = float(self.best.max())
        tails = tuple(self.end_max[k] / peak if peak > 0 else 0.0
                      for k in (self.ks[0], self.ks[-1]))
        if max(tails) > TAIL_FRACTION:
            warnings.warn(
                f"range ends contribute {max(tails):.3f} of the field max",
                TailNotNegligibleWarning)
        argmax = self.argmax.astype(int)
        argmax += self.ks[0]
        return SampledField(lattice, self.best, {
            **provenance, "k_range": (self.ks[0], self.ks[-1]),
            "argmax_k": argmax, "tail_fractions": tails,
        })


def _maximal_fields(f: AtomicSum, parts, measure, k_range,
                    lattice: Lattice) -> list:
    """maximal_field of each sub-sum of f in parts, from one pass over k.

    parts lists term positions of f, ascending.  At each k every atom's
    windowed contribution is computed once and added into the scratch
    array of every part that holds it, so each part's array gets the
    same blocks, in term order, as a run on that part alone would.
    """
    ks = _normalize_k_range(k_range)
    sups = [_RunningSup(lattice, ks) for _ in parts]
    holders = [[] for _ in f.terms]
    for j, part in enumerate(parts):
        for i in part:
            holders[i].append(j)
    targets = [[sups[j].scratch for j in holder] for holder in holders]
    boxes = _support_boxes(f, lattice)
    for k in ks:
        touched = [[] for _ in parts]
        for i, slices in _add_terms(f, measure, k, lattice, boxes, targets):
            for j in holders[i]:
                touched[j].append(slices)
        for sup, slices in zip(sups, touched):
            sup.fold(k, slices)
    # drop the references to the scratch arrays, which field() frees
    del targets
    return [sup.field(lattice, {
        "f": _atomic_label([f.terms[i] for i in part]),
        "measure": _measure_label(measure)}) for sup, part in zip(sups, parts)]


def maximal_field(f: AtomicSum, measure, k_range, lattice: Lattice) -> SampledField:
    """Pointwise sup over k = lo..hi of |mu_k * f|, k_range = (lo, hi),
    with per-cell argmax recorded.

    The ends of the truncated range must contribute less than 1% of the
    field maximum; otherwise a TailNotNegligibleWarning is emitted.  The
    measured end fractions are stored in the provenance either way.
    """
    return _maximal_fields(f, [range(len(f.terms))], measure, k_range, lattice)[0]


def _normalize_k_range(k_range) -> list:
    """The k values lo..hi of k_range = (lo, hi), given as a tuple or a list
    of two integers with lo <= hi."""
    if not (isinstance(k_range, (tuple, list)) and len(k_range) == 2 and all(
            isinstance(v, (int, np.integer)) for v in k_range)):
        raise InputInvalidError(f"k_range must be (lo, hi) integers, got {k_range!r}")
    lo, hi = int(k_range[0]), int(k_range[1])
    if lo > hi:
        raise InputInvalidError("empty k range")
    return list(range(lo, hi + 1))


# ------------------------------------------------------- distribution sizes


def _excluded_mask(lattice: Lattice, exclude) -> np.ndarray:
    """Cells whose centers lie in any exclude primitive, in the lattice shape.

    Each primitive is tested only on the cells of its bbox() padded by one
    cell, and only on the cells that no earlier primitive captured; the
    centers are built for those cells alone, in C order.
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
            _picked_centers(lattice, slices, todo))
    return mask


def _picked_centers(lattice: Lattice, slices, picked) -> np.ndarray:
    """Centers of the window cells where the boolean array picked holds, C order."""
    columns = []
    for j in range(lattice.dim):
        axis = [1] * lattice.dim
        axis[j] = -1
        centers = lattice.axis_centers(j)[slices[j]].reshape(axis)
        columns.append(np.broadcast_to(centers, picked.shape)[picked])
    return np.column_stack(columns)


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


def _positive_norm(f: AtomicSum) -> float:
    h1 = f.h1_norm()
    if h1 <= 0:
        raise InputInvalidError("the atomic sum must have positive norm")
    return h1


def _weak_type(mf: SampledField, h1: float, excluded):
    peak = float(mf.values.max())
    if peak <= 0:
        return mf, None, 0.0
    thresholds = np.geomspace(THRESHOLD_FLOOR * peak, peak, THRESHOLD_COUNT)
    report = distribution_function(mf, thresholds, h1=h1, excluded=excluded)
    return mf, report, report.weak_ratio / h1


def weak_type_report(f: AtomicSum, measure, k_range, lattice: Lattice,
                     excluded=None):
    """Maximal field, distribution report and weak-type ratio of f.

    The ratio is sup over a log-spaced grid of lambda of
    lambda |{Mf > lambda} \\ E| / ||f||, with E the cells of the boolean
    mask excluded.  The report is None, and the ratio 0, when Mf vanishes.
    """
    h1 = _positive_norm(f)
    return _weak_type(maximal_field(f, measure, k_range, lattice), h1, excluded)


def weak_type_reports(f: AtomicSum, measure, k_range, lattice: Lattice,
                      excluded) -> dict:
    """weak_type_report of each tau group of f and of f, from one field run.

    Keys are the taus of f, ascending, then "all" for f itself; each value
    is (atomic sum, maximal field, report, ratio), equal to what
    weak_type_report gives on that sum alone.  mu_k * f is the sum of the
    group fields at each k, so one _maximal_fields run convolves each atom
    once per k and feeds the group's array and f's.
    """
    positions = {}
    for i, (atom, _) in enumerate(f.terms):
        positions.setdefault(atom.support.tau, []).append(i)
    taus = sorted(positions)
    parts = [AtomicSum([f.terms[i] for i in positions[tau]], f.dilation)
             for tau in taus] + [f]
    norms = [_positive_norm(part) for part in parts]
    fields = _maximal_fields(
        f, [positions[tau] for tau in taus] + [range(len(f.terms))],
        measure, k_range, lattice)
    return {key: (part,) + _weak_type(mf, h1, excluded) for key, part, mf, h1
            in zip(taus + ["all"], parts, fields, norms)}


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


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise InputInvalidError(
            f"truncated field file: wanted {size} bytes, found {len(data)}")
    return data


def read_field_binary(path) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise InputInvalidError(f"not a field file: bad magic {magic!r}")
        (dim,) = struct.unpack("<I", _read_exact(fh, 4))
        shape = struct.unpack(f"<{dim}I", _read_exact(fh, 4 * dim))
        origin = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim))
        spacing = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim))
        count = int(np.prod(shape))
        values = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8").reshape(shape)
    lattice = Lattice(origin=origin, spacing=spacing, shape=shape)
    return SampledField(lattice, values.copy(), {"source": "binary"})

