"""Convolution with dilated surface measures and the maximal field.

The measure is a node cloud with weights (a full quadrature measure or a
single partition piece).  Convolving an atomic sum with its dilate by A^k
adds one copy of the atom profile per displaced measure node, on the
lattice cells of that node's window (the support cube's box, shifted).
At each k one window pass over the stacked (atoms, nodes) boxes finds
every node window.  Under a diagonal A every profile is a product of 1-D
factors, so each atom's sum over the nodes is one separable contraction of
per-axis factor matrices, whose factors are evaluated only on the (cell,
node) entries inside the windows, each factor kind in one call over all
atoms; any other A keeps the windowed scatter, one atom evaluation per atom
and node, which is also the test oracle.  The maximal field is the
pointwise sup of |mu_k * f| over a finite k range, with a reported tail
criterion in place of k in Z.

One engine (_maximal_fields) builds every maximal field: at each k it adds
each atom's windowed blocks, as they are computed, into the scratch array
of every sub-sum that holds the atom, and updates each sup and argmax only
on the slices written, or on their bounding box when it is smaller.  A
sub-sum holds a scratch array only from its first term to its fold after
its last, so sub-sums whose terms do not interleave (f's tau groups, whose
atoms are listed group by group) take turns with one array from a pool;
the fold works in that array and one bool buffer, allocating nothing the
size of the lattice.  The sub-sums' sups share one block, and their argmax
arrays another.  maximal_field is the engine's one-part case;
convolve_dilated adds the same blocks for a single k.

Superlevel-set sizes are cell counts times the cell volume, counted in a
sorted copy of only the cells above the lowest threshold, optionally
skipping the cells of a boolean mask, such as the cells of an exceptional
set E built once per lattice by _excluded_mask, from per-axis tests under a
diagonal A and from the cell centers otherwise.  Every weak-type ratio comes
from weak_type_report, or from weak_type_reports, which measures f and each
of its tau groups from one engine run.
"""

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomicSum
from .dilation import cube_diameter
from .errors import InputInvalidError, ResolutionTooCoarseError, TailNotNegligibleWarning
from .grid import _is_diagonal

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


def _add_scatter(centers, atom, weights, shifted, first, last):
    """Yield (slices, block), block = weights_i atom(x - shifted_i) on the
    slices of node i's window, one node at a time.

    Each node's atom is evaluated once, on the cells of its window, the
    lattice cells whose centers (centers, per axis) lie in the node's
    shifted support box.
    """
    for i in range(len(weights)):
        slices = tuple(slice(a, b + 1) for a, b in zip(first[i], last[i]))
        mesh = np.meshgrid(*[c[s] for c, s in zip(centers, slices)], indexing="ij")
        local = np.column_stack([m.ravel() for m in mesh]) - shifted[i]
        yield slices, weights[i] * atom.evaluate(local).reshape(mesh[0].shape)


def _axis_entries(f: AtomicSum, centers, shifted, atoms, nodes, first, last) -> list:
    """Per axis j, (cells, factors, bounds, counts) over the live (atom, node)
    pairs of one k, pair p being node nodes[p] of term atoms[p] with window
    first[p]..last[p], atom-major.

    Pair p's counts[p] entries are bounds[p]:bounds[p + 1]: its window's
    cells, ascending, and there that atom's axis_factor(j, u), u computed as
    Atom.evaluate computes it.  A factor depends on its atom only through
    the profile and whether j is the split axis, so each such kind is
    evaluated in one call over all its atoms' entries.
    """
    supports = [atom.support for atom, _ in f.terms]
    scale = np.array([np.diag(Q.dilation.power(-Q.tau)) for Q in supports])
    index = np.array([Q.index for Q in supports], dtype=float)
    out = []
    for j, x in enumerate(centers):
        counts = last[:, j] - first[:, j] + 1
        bounds = np.zeros(len(counts) + 1, dtype=int)
        np.cumsum(counts, out=bounds[1:])
        cells = np.repeat(first[:, j] - bounds[:-1], counts)
        cells += np.arange(bounds[-1])
        u = x[cells]
        u -= np.repeat(shifted[nodes, j], counts)
        u *= np.repeat(scale[atoms, j], counts)
        u -= np.repeat(index[atoms, j], counts)
        kinds = {}
        kind = [kinds.setdefault((atom.profile, j == atom.axis), len(kinds))
                for atom, _ in f.terms]
        if len(kinds) == 1:
            factors = f.terms[0][0].axis_factor(j, u)
        else:
            factors = np.empty_like(u)
            of_pair = np.array(kind)[atoms]
            for g in range(len(kinds)):
                picked = np.repeat(of_pair == g, counts)
                factors[picked] = f.terms[kind.index(g)][0].axis_factor(j, u[picked])
        out.append((cells, factors, bounds, counts))
    return out


def _add_separable(atom, weights, entries, pairs: slice, lo, hi) -> np.ndarray:
    """sum_i weights_i atom(x - shifted_i) on the union lo..hi of the node
    windows, under a diagonal A.

    The atom is amplitude x prod_j axis_factor(j, u_j), and under a diagonal
    A the local coordinate u_j depends on x_j alone.  G_j[c, i] is the axis-j
    factor at cell c for node i: entries (_axis_entries) holds it only on
    the (cell, node) entries inside node i's window, for the term's live
    pairs, and it is scattered into zeros, so the result is the scatter
    path's up to summation order.  The sum over nodes is one contraction of
    the G_j over the union of the node windows: a Khatri-Rao product of all
    axes but the last, then one matrix product.  The block is computed
    before the call returns, so the factor matrices are freed before it is
    added.
    """
    n = len(weights)
    factors = []
    for (cells, values, bounds, counts), a, b in zip(entries, lo, hi):
        e = slice(bounds[pairs.start], bounds[pairs.stop])
        g = np.zeros((b - a + 1, n))
        g[cells[e] - a, np.repeat(np.arange(n), counts[pairs])] = values[e]
        factors.append(g)
    # the Khatri-Rao product starts from G_0 itself, not from 1 x G_0
    rows = factors[0] if len(factors) > 1 else np.ones((1, n))
    for g in factors[1:-1]:
        rows = (rows[:, None, :] * g[None, :, :]).reshape(-1, n)
    # weighting the last factor in place: its transpose's layout, and so
    # the matrix product, is that of a weighted copy
    last = factors[-1]
    last *= weights * atom.amplitude
    return (rows @ last.T).reshape(tuple(hi - lo + 1))


def _support_boxes(f: AtomicSum, lattice: Lattice):
    """Every atom's support bbox, stacked as (lo, hi) of shape (atoms, d),
    once the lattice passes the resolution guard."""
    if not f.terms:
        return np.empty((0, lattice.dim)), np.empty((0, lattice.dim))
    min_diam = _min_atom_diameter(f)
    if max(lattice.spacing) > min_diam / 8.0:
        raise ResolutionTooCoarseError(
            f"lattice spacing {max(lattice.spacing):.4g} exceeds an eighth "
            f"of the smallest atom diameter {min_diam:.4g}")
    lo, hi = zip(*(atom.support.realize().bbox() for atom, _ in f.terms))
    return np.array(lo), np.array(hi)


def _term_blocks(f: AtomicSum, measure, k: int, lattice: Lattice, boxes):
    """For each term of mu_k * f in order, (region, blocks), or None when
    the term misses the lattice.

    Node p of a term touches only the cells of its window, those whose
    centers lie in the atom's support box (boxes, from _support_boxes)
    shifted by A^k p; nodes whose window misses the lattice are dropped.
    Every atom's node windows come from one window_bounds pass over the
    stacked (atoms, nodes, d) boxes.  region is the box holding every live
    window, and blocks yields (slices, block) pairs whose sum, added in
    turn, is the term's contribution.  Under a diagonal A that is one
    separable contraction per atom (_add_separable); any other A keeps the
    windowed scatter (_add_scatter), one atom evaluation per atom and node,
    which is also the test oracle for the separable path.
    """
    D = f.dilation
    w = measure.quad_weights
    shifted = measure.quad_points @ D.power(k).T
    blo, bhi = boxes
    first, last = lattice.window_bounds(blo[:, None] + shifted, bhi[:, None] + shifted)
    atoms, nodes = np.nonzero(np.all(first <= last, axis=2))
    first, last = first[atoms, nodes], last[atoms, nodes]
    starts = np.searchsorted(atoms, np.arange(len(f.terms) + 1))
    centers = [lattice.axis_centers(j) for j in range(lattice.dim)]
    separable = _is_diagonal(D.matrix)
    if separable:
        entries = _axis_entries(f, centers, shifted, atoms, nodes, first, last)
    for t, (atom, lam) in enumerate(f.terms):
        pairs = slice(starts[t], starts[t + 1])
        if pairs.start == pairs.stop:
            yield None
            continue
        lo, hi = first[pairs].min(axis=0), last[pairs].max(axis=0)
        region = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        weights = lam * w[nodes[pairs]]
        if separable:
            blocks = [(region, _add_separable(atom, weights, entries, pairs, lo, hi))]
        else:
            blocks = _add_scatter(centers, atom, weights, shifted[nodes[pairs]],
                                  first[pairs], last[pairs])
        yield region, blocks


def _add_blocks(blocks, arrays) -> None:
    """Add each (slices, block) of blocks into every array, as it comes."""
    for slices, block in blocks:
        for values in arrays:
            values[slices] += block


def convolve_dilated(f: AtomicSum, measure, k: int, lattice: Lattice) -> SampledField:
    """Field of (mu_k * f)(x) = sum_i w_i f(x - A^k p_i) at cell centers.

    The blocks the maximal field adds at one k (_term_blocks), added into
    a single array.
    """
    values = np.zeros(lattice.shape)
    if not f.terms:
        return SampledField(lattice, values, {"f": _atomic_label(f.terms), "k": k})
    for term in _term_blocks(f, measure, k, lattice, _support_boxes(f, lattice)):
        if term is not None:
            _add_blocks(term[1], [values])
    return SampledField(lattice, values, {
        "f": _atomic_label(f.terms), "measure": _measure_label(measure), "k": k,
    })


def _cells(slices) -> int:
    return math.prod(s.stop - s.start for s in slices)


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


class _ScratchPool:
    """The lattice-sized scratch buffers of one engine run (the sups and
    argmax arrays are blocks of their own, allocated by _maximal_fields).

    free holds zeroed float arrays that sub-sums take at their first term
    and give back after their fold; flags is the one bool buffer every
    fold writes its strict-> comparison into.  Arrays that are read before
    they are written are zero-filled with np.full rather than np.zeros: a
    fresh page of np.zeros' calloc read first faults twice, once for the
    shared zero page and again on the first write.
    """

    def __init__(self, shape):
        self.shape = shape
        self.free = []
        self.flags = np.empty(shape, dtype=bool)

    def take(self) -> np.ndarray:
        return self.free.pop() if self.free else np.full(self.shape, 0.0)


class _RunningSup:
    """Pointwise sup over k of |mu_k * g| and its argmax, for one sub-sum g.

    best and argmax are g's views of the engine's sup and argmax blocks
    (_maximal_fields), at 0 and ks[0] to start.  At each k the terms of g
    are added into a scratch array taken from the pool at g's first term
    that meets the lattice (add), and fold(k) updates the sup and the
    argmax on the slices written (_fold_regions) only, in place: |scratch|
    into scratch itself, the strict > against the sup into the pool's
    flags, which is idempotent where slices overlap; cells outside them
    hold 0 and could not win.  The regions are zeroed only after all of
    them are folded, and the array goes back to the pool at 0.
    """

    def __init__(self, best: np.ndarray, argmax: np.ndarray, ks):
        self.scratch = None
        self.touched = []
        self.best = best
        self.argmax = argmax
        self.ks = ks
        self.end_max = {}

    def add(self, region, pool: _ScratchPool) -> np.ndarray:
        """The scratch array for a term that writes within region."""
        if self.scratch is None:
            self.scratch = pool.take()
        self.touched.append(region)
        return self.scratch

    def fold(self, k: int, pool: _ScratchPool) -> None:
        """Fold |mu_k * g|, written into scratch since the last fold, and
        give the scratch array back to the pool."""
        regions = _fold_regions(self.touched)
        peak = 0.0
        for slices in regions:
            fk = self.scratch[slices]
            np.abs(fk, out=fk)
            top = float(fk.max())
            if not np.isfinite(top):
                raise InputInvalidError("field values must be finite")
            peak = max(peak, top)
            best = self.best[slices]
            gained = np.greater(fk, best, out=pool.flags[slices])
            np.copyto(self.argmax[slices], k, where=gained)
            np.copyto(best, fk, where=gained)
        if self.scratch is not None:
            for slices in regions:
                self.scratch[slices] = 0.0
            pool.free.append(self.scratch)
            self.scratch = None
        self.touched = []
        if k in (self.ks[0], self.ks[-1]):
            self.end_max[k] = peak

    def field(self, lattice: Lattice, provenance: dict) -> SampledField:
        """The sup as a field, with argmax_k and the range-end tail fractions."""
        peak = float(self.best.max())
        tails = tuple(self.end_max[k] / peak if peak > 0 else 0.0
                      for k in (self.ks[0], self.ks[-1]))
        if max(tails) > TAIL_FRACTION:
            warnings.warn(
                f"range ends contribute {max(tails):.3f} of the field max",
                TailNotNegligibleWarning)
        return SampledField(lattice, self.best, {
            **provenance, "k_range": (self.ks[0], self.ks[-1]),
            "argmax_k": self.argmax, "tail_fractions": tails,
        })


def _maximal_fields(f: AtomicSum, parts, measure, k_range,
                    lattice: Lattice) -> list:
    """maximal_field of each sub-sum of f in parts, from one pass over k.

    parts lists term positions of f, ascending.  At each k every atom's
    windowed blocks are computed once and added into the scratch array of
    every part that holds the atom, so each part's array gets the same
    blocks, in term order, as a run on that part alone would.  A part is
    folded right after its last term, which frees its array for the parts
    that start later.

    Every part's sup is a view of one (parts, *shape) block, and every
    part's argmax_k of another, so a returned field keeps every part's sup
    and argmax alive.  One large block is allocated and freed as a whole:
    freeing it raises glibc's adaptive mmap and trim thresholds above the
    run's working set, where lattice-sized arrays freed one by one would
    hand the heap back to the system after every run, to be faulted in
    again by the next.
    """
    ks = _normalize_k_range(k_range)
    best = np.full((len(parts), *lattice.shape), 0.0)   # see _ScratchPool
    # k itself, in the narrowest signed type that holds every k; cells that
    # never rise above 0 keep ks[0]
    argmax = np.full(best.shape, ks[0], np.min_scalar_type(-1 - max(map(abs, ks))))
    sups = [_RunningSup(b, a, ks) for b, a in zip(best, argmax)]
    holders = [[] for _ in f.terms]
    closing = [[] for _ in f.terms]
    for sup, part in zip(sups, parts):
        for i in part:
            holders[i].append(sup)
        if part:
            closing[max(part)].append(sup)
    boxes = _support_boxes(f, lattice)
    pool = _ScratchPool(lattice.shape)
    for k in ks:
        for i, term in enumerate(_term_blocks(f, measure, k, lattice, boxes)):
            if term is not None:
                region, blocks = term
                _add_blocks(blocks, [sup.add(region, pool) for sup in holders[i]])
            for sup in closing[i]:
                sup.fold(k, pool)
    return [sup.field(lattice, {
        "f": _atomic_label([f.terms[i] for i in part]),
        "measure": _measure_label(measure)}) for sup, part in zip(sups, parts)]


def maximal_field(f: AtomicSum, measure, k_range, lattice: Lattice) -> SampledField:
    """Pointwise sup over k = lo..hi of |mu_k * f|, k_range = (lo, hi),
    with per-cell argmax recorded (provenance "argmax_k", in the narrowest
    signed integer type that holds lo and hi).

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
    """Cells whose centers lie in any exclude region, in the lattice shape.

    exclude holds grid regions (TendrilBound, Parallelepiped), such as the
    region() of each exceptional primitive, built once by the caller.  Each
    is tested only on the cells of its bbox() padded by one cell.  An
    axis_aligned region (any under a diagonal A) answers for the whole
    window from the window's per-axis centers (contains_grid).  Any other
    is asked only about the cells that no earlier region captured, through
    contains_points on their centers, built for those cells alone in C
    order.  Either way each region makes one pass.
    """
    mask = np.zeros(lattice.shape, dtype=bool)
    pad = np.asarray(lattice.spacing)
    for region in exclude or ():
        lo, hi = region.bbox()
        slices = lattice.window(lo - pad, hi + pad)
        if slices is None:
            continue
        window = mask[slices]
        if window.all():
            continue
        if region.axis_aligned:
            window |= region.contains_grid(
                [lattice.axis_centers(j)[s] for j, s in enumerate(slices)])
            continue
        todo = ~window
        window[todo] = region.contains_points(
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


def distribution_function(field: SampledField, thresholds,
                          excluded=None) -> DistributionReport:
    """Cell-count sizes of the superlevel sets {field > lambda}.

    excluded is a boolean cell mask in the lattice shape (for an exceptional
    set, from _excluded_mask); its cells are skipped, which never enlarges a
    superlevel set.  Only the kept cells above the lowest threshold are
    copied; the copy is sorted in place once and every threshold is counted
    by one binary search.  The thresholds ascend, so every cell above one
    of them is in the copy and each count is exact.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise InputInvalidError("thresholds must be a nonempty 1-d sequence")
    if not (np.all(np.isfinite(thresholds)) and np.all(np.diff(thresholds) >= 0)):
        raise InputInvalidError("thresholds must be finite and sorted ascending")
    picked = field.values > thresholds[0]
    if excluded is not None:
        excluded = np.asarray(excluded, dtype=bool)
        if excluded.shape != field.lattice.shape:
            raise InputInvalidError("excluded mask shape does not match the lattice")
        picked &= ~excluded
    kept = field.values[picked]
    kept.sort()
    above = kept.size - np.searchsorted(kept, thresholds, side="right")
    measures = field.lattice.cell_volume * above
    weak = float(np.max(thresholds * measures))
    return DistributionReport(thresholds=thresholds, measures=measures, weak_ratio=weak)


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
    report = distribution_function(mf, thresholds, excluded=excluded)
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

