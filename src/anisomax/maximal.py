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

One engine (_maximal_fields) builds every maximal field.  It first finds
every k's node windows, so each sub-sum's hull, the bounding box of the
cells its terms reach over the k range, is known before its sup is made:
a sup can be nonzero only there, and it holds only those cells, carved
from one block of 8 bytes per lattice cell and sub-sum.  At each k the
engine splits each sub-sum's terms into groups whose hulls are disjoint.
A lone term on the separable path folds its one block straight into the
sup; every other group sums its blocks in a buffer the shape of its hull
and folds that.  Each atom's blocks are computed once and reach every
sub-sum that holds the atom.  The engine allocates no other array the
size of the lattice, and no k folds more cells per sub-sum than its hull
holds.  The fold keeps the per-k peak the tail fractions are read from.
maximal_field is the engine's one-part case, placed on the whole lattice;
convolve_dilated adds the same blocks for a single k.

Superlevel-set sizes are cell counts times the cell volume, counted in a
sorted copy of only the cells above the lowest threshold, optionally
skipping the cells of a boolean mask, such as the cells of an exceptional
set E built once per lattice by _excluded_mask: a tendril bound decides its
window from per-axis tests under a diagonal A, and every other region, a
quadrupled cube always, from the centers of the cells not yet in the mask.
Every weak-type ratio comes from weak_type_report, or from
weak_type_reports, which measures f and each of its tau groups from one
engine run, each on its hull's cells.
"""

import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atoms import AtomicSum
from .dilation import _is_integer, _number, cube_diameter
from .errors import InputInvalidError, ResolutionTooCoarseError, TailNotNegligibleWarning
from .grid import TendrilBound, _axis_view, _is_diagonal

MAGIC = b"ANISOFLD"
THRESHOLD_COUNT = 64
THRESHOLD_FLOOR = 1e-3
TAIL_FRACTION = 0.01


# ------------------------------------------------------------------ lattice


def grid_points(axes) -> np.ndarray:
    """The (N, len(axes)) points of the tensor grid over axes, in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True)
class Lattice:
    """Axis-aligned sample grid; values live at cell centers."""

    origin: tuple
    spacing: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.origin) == len(self.spacing) == len(self.shape)):
            raise InputInvalidError("lattice origin, spacing, shape disagree")
        if not self.shape:
            raise InputInvalidError("a lattice needs at least one dimension")
        if not all(_is_integer(n) and n > 0 for n in self.shape):
            raise InputInvalidError(
                f"lattice shape must be positive integers, got {self.shape!r}")
        # a corrupt field file header reads as nan or inf
        if not (all(0 < h < math.inf for h in self.spacing)
                and all(math.isfinite(v) for v in self.origin)):
            raise InputInvalidError("lattice spacing must be positive and finite, "
                                    "and the origin finite")

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
        return grid_points([self.axis_centers(j) for j in range(self.dim)])

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

    def sub(self, box) -> "Lattice":
        """The lattice of the cells in box, a tuple of index slices."""
        return Lattice(
            origin=tuple(o + h * s.start for o, h, s in zip(self.origin, self.spacing, box)),
            spacing=self.spacing, shape=_extent(box))


def make_lattice(box, shape) -> Lattice:
    """Lattice over the axis-aligned box with the given cell counts."""
    # float() would read "4e0" and True as sides and raise on None or "x"
    if not all(isinstance(side, (list, tuple, np.ndarray)) and len(side) == 2
               and all(map(_number, side)) for side in box):
        raise InputInvalidError(
            f"lattice box sides must be [lo, hi] pairs of finite real numbers, got {box!r}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if np.ndim(shape) == 0:
        shape = (shape,) * len(box)
    # int() would truncate 64.5 cells to 64 and read True as 1
    if not all(map(_is_integer, shape)):
        raise InputInvalidError(f"lattice shape must be integers, got {shape!r}")
    shape = tuple(int(n) for n in shape)
    if len(shape) != len(box):
        raise InputInvalidError("box and shape dimensions disagree")
    if not all(lo < hi for lo, hi in box):
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
        axes = [c[s] for c, s in zip(centers, slices)]
        local = grid_points(axes) - shifted[i]
        yield slices, weights[i] * atom.evaluate(local).reshape([len(x) for x in axes])


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
        factors = np.empty_like(u)
        of_pair = np.array(kind)[atoms]
        for g in range(len(kinds)):
            picked = np.repeat(of_pair == g, counts)
            factors[picked] = f.terms[kind.index(g)][0].axis_factor(j, u[picked])
        out.append((cells, factors, bounds, counts))
    return out


def _add_separable(atom, weights, entries, pairs: slice, region) -> np.ndarray:
    """sum_i weights_i atom(x - shifted_i) on region, the box of slices
    holding the node windows, under a diagonal A.

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
    for (cells, values, bounds, counts), s in zip(entries, region):
        e = slice(bounds[pairs.start], bounds[pairs.stop])
        g = np.zeros((s.stop - s.start, n))
        g[cells[e] - s.start, np.repeat(np.arange(n), counts[pairs])] = values[e]
        factors.append(g)
    # the Khatri-Rao product starts from G_0 itself, not from 1 x G_0
    rows = factors[0] if len(factors) > 1 else np.ones((1, n))
    for g in factors[1:-1]:
        rows = (rows[:, None, :] * g[None, :, :]).reshape(-1, n)
    # weighting the last factor in place: its transpose's layout, and so
    # the matrix product, is that of a weighted copy
    last = factors[-1]
    last *= weights * atom.amplitude
    return (rows @ last.T).reshape(_extent(region))


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


class _Windows(NamedTuple):
    """The live node windows of mu_k * f at one k (_node_windows).

    Pair p is node nodes[p], displaced to shifted[nodes[p]] = A^k p_i, of
    term atoms[p], with window first[p]..last[p], atom-major; pairs[t] is
    term t's slice of the pairs, and regions[t] the box of slices holding
    its windows, or None when the term misses the lattice.
    """

    shifted: np.ndarray
    atoms: np.ndarray
    nodes: np.ndarray
    first: np.ndarray
    last: np.ndarray
    pairs: list
    regions: list


def _node_windows(f: AtomicSum, measure, k: int, lattice: Lattice, boxes) -> _Windows:
    """Every live node window of mu_k * f, from one window_bounds pass.

    Node i of a term touches only the cells of its window, those whose
    centers lie in the atom's support box (boxes, from _support_boxes)
    shifted by A^k p_i; pairs whose window misses the lattice are dropped.
    One pass over the stacked (atoms, nodes, d) boxes finds them all, so
    every term's region is known before any block is computed.
    """
    shifted = measure.quad_points @ f.dilation.power(k).T
    blo, bhi = boxes
    first, last = lattice.window_bounds(blo[:, None] + shifted, bhi[:, None] + shifted)
    atoms, nodes = np.nonzero(np.all(first <= last, axis=2))
    first, last = first[atoms, nodes], last[atoms, nodes]
    starts = np.searchsorted(atoms, np.arange(len(f.terms) + 1))
    pairs = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
    regions = [None if p.start == p.stop else tuple(
        slice(a, b + 1) for a, b in zip(first[p].min(axis=0).tolist(),
                                        last[p].max(axis=0).tolist()))
        for p in pairs]
    return _Windows(shifted, atoms, nodes, first, last, pairs, regions)


def _term_blocks(f: AtomicSum, measure, lattice: Lattice, windows: _Windows):
    """blocks(t), for the terms of mu_k * f at the k of windows: it yields
    (slices, block) pairs whose sum, added in turn, is term t's
    contribution, on the cells of its region.

    Under a diagonal A a term's one block covers its region, from one
    separable contraction (_add_separable); any other A keeps the windowed
    scatter (_add_scatter), one block per node, which is also the test
    oracle for the separable path.
    """
    shifted, atoms, nodes, first, last, pairs, regions = windows
    w = measure.quad_weights
    centers = [lattice.axis_centers(j) for j in range(lattice.dim)]
    separable = _is_diagonal(f.dilation.matrix)
    if separable:
        entries = _axis_entries(f, centers, shifted, atoms, nodes, first, last)

    def blocks(t):
        atom, lam = f.terms[t]
        p = pairs[t]
        weights = lam * w[nodes[p]]
        if separable:
            return [(regions[t], _add_separable(atom, weights, entries, p, regions[t]))]
        return _add_scatter(centers, atom, weights, shifted[nodes[p]], first[p], last[p])

    return blocks


def convolve_dilated(f: AtomicSum, measure, k: int, lattice: Lattice) -> SampledField:
    """Field of (mu_k * f)(x) = sum_i w_i f(x - A^k p_i) at cell centers.

    The blocks the maximal field adds at one k (_term_blocks), added into
    a single array.
    """
    values = np.zeros(lattice.shape)
    if f.terms:
        windows = _node_windows(f, measure, k, lattice, _support_boxes(f, lattice))
        blocks = _term_blocks(f, measure, lattice, windows)
        for t, region in enumerate(windows.regions):
            if region is not None:
                for slices, block in blocks(t):
                    values[slices] += block
    return SampledField(lattice, values)


def _extent(box) -> tuple:
    """The shape of the box, a tuple of slices."""
    return tuple(s.stop - s.start for s in box)


def _meet(a, b) -> bool:
    """Whether the boxes a and b, tuples of slices, share a cell."""
    return all(s.start < r.stop and r.start < s.stop for s, r in zip(a, b))


def _hull(*boxes):
    """The bounding box of the boxes, tuples of slices, or None for none."""
    if not boxes:
        return None
    return tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                 for axis in zip(*boxes))


def _within(slices, box) -> tuple:
    """slices, a box inside box, at its offset in box."""
    return tuple(slice(s.start - b.start, s.stop - b.start) for s, b in zip(slices, box))


def _disjoint_groups(terms, regions) -> list:
    """terms split into (members, hull) groups whose hulls, the bounding
    boxes of their members' regions, are pairwise disjoint.

    Each term joins the groups its region meets, and the grown group keeps
    taking in every group its hull meets until it meets none, so regions
    that do not meet can still share a group through its hull.  Members
    ascend, so a group's blocks are added in term order.
    """
    groups = []
    for t in terms:
        members, hull = [t], regions[t]
        while met := [g for g in groups if _meet(g[1], hull)]:
            for g in met:
                groups.remove(g)
                members += g[0]
                hull = _hull(hull, g[1])
        groups.append((sorted(members), hull))
    return groups


class _RunningSup:
    """Pointwise sup over k of |mu_k * g|, for one sub-sum g, on g's hull.

    hull is the bounding box of the regions of g's terms over the whole k
    range, or None when no term of g reaches the lattice at any k; every
    cell outside it is 0 at every k and could not raise the sup.  best,
    carved from the engine's block (_maximal_fields), holds the sup on the
    hull's cells, 0 to start, and fold raises it on one box at a time, at
    the box's offset in the hull.  A k's groups of g (_disjoint_groups)
    cover disjoint boxes.  peaks holds max |mu_k * g| per k, so the field's
    peak and its tails need no pass over the cells.
    """

    def __init__(self, hull, best, ks):
        self.hull = hull
        self.best = best
        self.peaks = dict.fromkeys(ks, 0.0)

    @staticmethod
    def fold(sups, k: int, slices, values: np.ndarray) -> None:
        """Raise each sup of sups on slices by |values|: values, one group's
        sum of mu_k * g on those cells, is made absolute in place, once,
        and checked finite, then one np.maximum writes into each best."""
        np.abs(values, out=values)
        top = float(values.max())
        if not np.isfinite(top):
            raise InputInvalidError("field values must be finite")
        for sup in sups:
            sup.peaks[k] = max(sup.peaks[k], top)
            best = sup.best[_within(slices, sup.hull)]
            np.maximum(best, values, out=best)

    def provenance(self) -> dict:
        """The k range and the range-end tail fractions of the sup."""
        ks = list(self.peaks)
        peak = max(self.peaks.values())
        tails = tuple(self.peaks[k] / peak if peak > 0 else 0.0
                      for k in (ks[0], ks[-1]))
        if max(tails) > TAIL_FRACTION:
            warnings.warn(
                f"range ends contribute {max(tails):.3f} of the field max",
                TailNotNegligibleWarning)
        return {"k_range": (ks[0], ks[-1]), "tail_fractions": tails}


class _Buffer:
    """One group's sum of mu_k * g, folded into sup: zeros the shape of
    the group's hull from its first block on, each block added at its
    offset in the hull."""

    def __init__(self, sup: _RunningSup, hull):
        self.sup = sup
        self.hull = hull
        self.values = None

    def add(self, slices, block: np.ndarray) -> None:
        if self.values is None:
            self.values = np.zeros(_extent(self.hull))
        self.values[_within(slices, self.hull)] += block


def _maximal_fields(f: AtomicSum, parts, measure, k_range,
                    lattice: Lattice) -> list:
    """The running sup (_RunningSup) of each sub-sum of f in parts, from
    one pass over k.

    parts lists term positions of f, ascending.  Every k's node windows
    come first (_node_windows), one window pass per k, so each part's hull,
    the bounding box of its terms' regions over all k, is known before any
    sup is allocated.  At each k each part splits its live terms into
    groups whose hulls are disjoint (_disjoint_groups).  A group of one
    term on the separable path folds that term's one block as it is; every
    other group adds its blocks into a buffer the shape of its hull
    (_Buffer) and folds it after its last term.  Each atom's blocks are
    computed once and go into the buffers of every part that holds the
    atom before a direct fold makes them absolute.  So each cell sums the
    same blocks, in term order, from 0.0, as a run on that part alone
    would; a direct fold, which skips the 0.0, differs only in the sign of
    a zero, and the fold's abs removes it.

    Every part's sup is carved, in its hull's shape, from the start of one
    (parts, *shape) block, one after another, and only the carved cells are
    zeroed and written; a hull is never larger than the lattice, so the
    block holds them all.  A returned sup keeps the block alive.  The block
    is allocated with np.empty and freed as a whole: freeing it raises
    glibc's adaptive mmap and trim thresholds above the run's working set,
    where lattice-sized arrays freed one by one would hand the heap back to
    the system after every run, to be faulted in again by the next; and
    np.empty touches no page the carved sups do not use.
    """
    ks = _normalize_k_range(k_range)
    boxes = _support_boxes(f, lattice)
    windows = [_node_windows(f, measure, k, lattice, boxes) for k in ks]
    sup_block = np.empty((len(parts), *lattice.shape)).reshape(-1)
    sups, used = [], 0
    for part in parts:
        hull = _hull(*(w.regions[t] for w in windows for t in part
                       if w.regions[t] is not None))
        best = None
        if hull is not None:
            shape = _extent(hull)
            best = sup_block[used:used + math.prod(shape)].reshape(shape)
            best.fill(0.0)
            used += best.size
        sups.append(_RunningSup(hull, best, ks))
    separable = _is_diagonal(f.dilation.matrix)
    for k, w in zip(ks, windows):
        regions, blocks = w.regions, _term_blocks(f, measure, lattice, w)
        direct = [[] for _ in f.terms]     # sups that fold term t's block as it is
        adds = [[] for _ in f.terms]       # buffers that take term t's blocks
        closing = [[] for _ in f.terms]    # buffers folded after term t
        for sup, part in zip(sups, parts):
            live = [t for t in part if regions[t] is not None]
            for members, hull in _disjoint_groups(live, regions):
                if separable and len(members) == 1:
                    direct[members[0]].append(sup)
                    continue
                buffer = _Buffer(sup, hull)
                for t in members:
                    adds[t].append(buffer)
                closing[members[-1]].append(buffer)
        for t, region in enumerate(regions):
            if region is None:
                continue
            for slices, block in blocks(t):
                for buffer in adds[t]:
                    buffer.add(slices, block)
                if direct[t]:
                    _RunningSup.fold(direct[t], k, slices, block)
            for buffer in closing[t]:
                _RunningSup.fold([buffer.sup], k, buffer.hull, buffer.values)
                buffer.values = None
    return sups


def maximal_field(f: AtomicSum, measure, k_range, lattice: Lattice) -> SampledField:
    """Pointwise sup over k = lo..hi of |mu_k * f|, k_range = (lo, hi), on
    the whole lattice.

    The ends of the truncated range must contribute less than 1% of the
    field maximum; otherwise a TailNotNegligibleWarning is emitted.  The
    measured end fractions are stored in the provenance either way.
    """
    (sup,) = _maximal_fields(f, [range(len(f.terms))], measure, k_range, lattice)
    values = sup.best
    # a hull the size of the lattice is the lattice, carved in its layout,
    # so only a smaller one is placed into zeros
    if values is None or values.shape != lattice.shape:
        values = np.zeros(lattice.shape)
        if sup.hull is not None:
            values[sup.hull] = sup.best
    return SampledField(lattice, values, sup.provenance())


def _normalize_k_range(k_range) -> list:
    """The k values lo..hi of k_range = (lo, hi), given as a tuple or a list
    of two integers with lo <= hi."""
    if not (isinstance(k_range, (tuple, list)) and len(k_range) == 2 and all(
            map(_is_integer, k_range))):
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
    axis_aligned tendril bound (any under a diagonal A) answers for the
    whole window from the window's per-axis centers (contains_grid).  Any
    other region, a quadrupled cube included, is asked only about the cells
    that no earlier region captured, through contains_points on their
    centers, built for those cells alone in C order.  Either way each region
    makes one pass.
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
        if isinstance(region, TendrilBound) and region.axis_aligned:
            window |= region.contains_grid(
                [lattice.axis_centers(j)[s] for j, s in enumerate(slices)])
            continue
        todo = ~window
        window[todo] = region.contains_points(
            _picked_centers(lattice, slices, todo))
    return mask


def _picked_centers(lattice: Lattice, slices, picked) -> np.ndarray:
    """Centers of the window cells where the boolean array picked holds, C order."""
    return np.column_stack([
        np.broadcast_to(_axis_view(lattice.axis_centers(j)[s], j, lattice.dim),
                        picked.shape)[picked]
        for j, s in enumerate(slices)])


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
    excluded = _cell_mask(excluded, field.lattice)
    if excluded is not None:
        picked &= ~excluded
    kept = field.values[picked]
    kept.sort()
    above = kept.size - np.searchsorted(kept, thresholds, side="right")
    measures = field.lattice.cell_volume * above
    weak = float(np.max(thresholds * measures))
    return DistributionReport(thresholds=thresholds, measures=measures, weak_ratio=weak)


def _cell_mask(excluded, lattice: Lattice):
    """excluded as a boolean array in the lattice shape, or None."""
    if excluded is None:
        return None
    excluded = np.asarray(excluded, dtype=bool)
    if excluded.shape != lattice.shape:
        raise InputInvalidError("excluded mask shape does not match the lattice")
    return excluded


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
    is (atomic sum, maximal field, report, ratio), with the report and ratio
    equal to what weak_type_report gives on that sum alone.  mu_k * f is
    the sum of the group fields at each k, so one _maximal_fields run
    convolves each atom once per k and feeds the group's sup and f's.  A
    returned field covers its hull's sub-lattice (Lattice.sub), the cells
    the sum's dilates reach over the k range, and is measured there with
    the mask cut to the hull: every cell outside it is 0.0, which no
    positive threshold counts.  A sum whose atoms reach no cell at any k
    has no field: its field and report are None and its ratio 0.
    """
    excluded = _cell_mask(excluded, lattice)
    positions = {}
    for i, (atom, _) in enumerate(f.terms):
        positions.setdefault(atom.support.tau, []).append(i)
    taus = sorted(positions)
    parts = [AtomicSum([f.terms[i] for i in positions[tau]], f.dilation)
             for tau in taus] + [f]
    norms = [_positive_norm(part) for part in parts]
    sups = _maximal_fields(
        f, [positions[tau] for tau in taus] + [range(len(f.terms))],
        measure, k_range, lattice)
    reports = {}
    for key, part, sup, h1 in zip(taus + ["all"], parts, sups, norms):
        if sup.hull is None:
            reports[key] = (part, None, None, 0.0)
            continue
        mf = SampledField(lattice.sub(sup.hull), sup.best, sup.provenance())
        mask = None if excluded is None else excluded[sup.hull]
        reports[key] = (part,) + _weak_type(mf, h1, mask)
    return reports


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
    return SampledField(lattice, values.copy())

