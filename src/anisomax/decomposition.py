"""Mass decompositions over anisotropic grids.

Two constructions live here.  whitney_decompose selects disjoint cubes whose
doubles absorb concentrated mass, leaving a leftover family of controlled
density; verify_whitney re-checks the three defining conditions on every
output.  stopping_time runs a two-parameter refinement loop over scales
(sigma, tau), classifies every input cube with a stopping level kappa, and
assembles an exceptional set out of tendril bounds and quadrupled cubes;
verify_stopping re-checks its four defining conditions.

Inside, a cube is a (sigma, tau, *index) row of ints and a mass an item of
a list.  _entries validates the (GridCube, lam) entries a call takes and
turns them into (D, box set, masses) in one pass; GridCubes are built again
only for what results keep (WhitneyResult.selected and
ExceptionalPrimitive.cube).  A row's volume, tau-parent, origin and basis
follow grid's row rules, the ones GridCube calls.

Every cube relation (inside a cube, inside its double, overlap) is read
from one pullback box, a cube's bounding box in the units of the other
cube's grid, under one tolerance rule.  _BoxSet builds its rows' vertices
in one pass, pulls each tau back by one matrix product (the taus a
question needs together) and scales it exactly by 2^-sigma; its masks and
_star_groups answer for a whole list at once.  Masses are still summed one
entry at a time, in entry order, with _left_sum, and a step whose whole
mass is within its bound is skipped (_star_groups says why that is exact).

An exceptional primitive keeps only (kind, cube, volume_term); its region,
a grid.TendrilBound or the Parallelepiped 4S, is built on demand by the
caller that asks it questions.  stopping_time writes every volume_term,
and exceptional_volume sums them against the bound of check (i), for
verify_stopping and for full-pipeline's exceptional_volume line alike.

verify_stopping's check (ii), that each entry's dilates Q + A^j B_1 lie in
the exceptional set, certifies from geometry before it samples
(_certified_dilates, every tendril-owned entry in one stacked pass).  It
draws random points only when some pair is left, and asks each primitive
through its region(), built at most once per call.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress, product
from math import inf

import numpy as np

from .dilation import _left_sum, cube_diameter
from .errors import (
    BudgetExceededError,
    InputInvalidError,
    NotNormalizedError,
    NumericalFailureError,
)
from .grid import (
    GridCube,
    Parallelepiped,
    TendrilBound,
    cube_frames,
    cube_vertices,
    expand_cube,
    row_tau_parent,
    row_volume,
    tendril_of,
    tendrils_cover_dilates,
)

_LEVEL_BUDGET = 200
_TOL = 1e-9
# unit-ball points per entry and level in verify_stopping's check (ii)
STOPPING_SAMPLES = 1000
# the constructions' constants: a selected double carries at most C_W alpha
# |S| (the density guard and verify_whitney's condition 1), the exceptional
# set's volume is at most C_STOP (alpha^-1 sum lam + sum |S|) (check (i)),
# and stopped mass stacks to at most C_IV alpha 2^sigma a^tau in any double
# (check (iv))
C_W = 16.0
C_STOP = 100.0
C_IV = 32.0


# --------------------------------------------------------------- shared math


def _mass_sum(masses, ids) -> float:
    """_left_sum of masses[i] for i in ids, in the given order."""
    return _left_sum(map(masses.__getitem__, ids))


def _mass_of(masses, mask) -> float:
    """_left_sum of the masked masses, in entry order."""
    return _left_sum(compress(masses, mask.tolist()))


def _star_groups(boxes, ids, sigma: int, tau: int, masses=None, bound=None,
                 total=None) -> dict:
    """Map each index n to the ids, in the given order, whose cube lies in
    the double of (sigma, tau, n).

    The double of cube n is [n - 1/2, n + 3/2]^d in grid units, so each id's
    indices form a window of per-axis inequalities on its pullback box.

    Given masses (nonnegative, by id) and a bound, the map is left empty
    when no double's mass can exceed the bound: first, with no box
    computed, when the ids' masses sum in the given order to at most the
    bound (total, when given, is that sum, for a caller that asks about one
    list of ids at many levels), and then when the masses of the ids with a
    nonempty window, those that fit in some double, do.  Summed over its
    group, a double's mass sums a subsequence of either list's terms in the
    same order, and round-to-nearest is monotone, so by induction over the
    terms its rounded sum never exceeds the list's.  The induction is over
    left-to-right rounding, so these totals and every double mass they
    stand in for are taken with _left_sum.
    """
    groups = {}
    if not ids:
        return groups
    if bound is not None:
        if total is None:
            total = _mass_sum(masses, ids)
        if total <= bound:
            return groups
    lo, hi, tol = _split_box(boxes._pull(tau).take(ids, axis=1) * 2.0 ** -sigma)
    n_min = np.ceil(hi - 1.5 - tol).astype(np.int64)
    n_max = np.floor(lo + 0.5 + tol).astype(np.int64) + 1
    nonempty = (n_min < n_max).all(axis=1).tolist()
    if bound is not None and _mass_sum(masses, compress(ids, nonempty)) <= bound:
        return groups
    for i, ok, first, stop in zip(ids, nonempty, n_min.tolist(), n_max.tolist()):
        if ok:
            for n in product(*map(range, first, stop)):
                groups.setdefault(n, []).append(i)
    return groups


def _split_box(scaled):
    """(lo, hi, tol): a (min, max) pair stacked on axis -3, already scaled
    to its grid, and the rounding allowance of every comparison made on
    them."""
    size = np.abs(scaled)
    return (scaled[..., 0, :, :], scaled[..., 1, :, :],
            _TOL * np.maximum(1.0, size[..., 0, :, :] + size[..., 1, :, :]))


def _same_and_equal(hosts: np.ndarray, rows: np.ndarray):
    """(same, equal), each (H, N): row n of rows has the (sigma, tau) of
    host row h, and the whole row too."""
    match = hosts[:, None, :] == rows[None, :, :]
    same = match[:, :, 0] & match[:, :, 1]
    equal = same.copy()
    for j in range(2, match.shape[2]):
        equal &= match[:, :, j]
    return same, equal


def _row_array(rows) -> np.ndarray:
    """(N, 2 + d) int64 of (sigma, tau, *index) rows; (0, 2) for none."""
    return np.array(rows, dtype=np.int64) if rows else np.empty((0, 2), dtype=np.int64)


def _cube_rows(cubes) -> np.ndarray:
    """_row_array of GridCubes."""
    return _row_array([(Q.sigma, Q.tau, *Q.index) for Q in cubes])


def _entries(entries, alpha=None):
    """(D, boxes, masses) of (GridCube, lam) entries on the sigma = 0 grid:
    their dilation (None when there are none), the _BoxSet of their rows,
    and their masses as given.

    Raises InputInvalidError when alpha, if given, is not positive and
    finite, or when a cube is off sigma = 0, a mass is negative or not
    finite, or the entries do not share one dilation.
    """
    if alpha is not None and not 0 < alpha < inf:
        raise InputInvalidError(f"alpha must be positive and finite, got {alpha!r}")
    D = entries[0][0].dilation if entries else None
    for cube, lam in entries:
        if cube.sigma != 0:
            raise InputInvalidError("mass entries must live on sigma = 0 cubes")
        if not 0 <= lam < inf:
            raise InputInvalidError(f"masses must be nonnegative and finite, got {lam!r}")
        if cube.dilation is not D:
            raise InputInvalidError("entries must share one dilation structure")
    return D, _BoxSet(D, _cube_rows(cube for cube, _ in entries)), [lam for _, lam in entries]


def _share_dilation(cubes, D, what: str) -> None:
    """Raise InputInvalidError unless every cube has the entries' dilation D."""
    if any(Q.dilation is not D for Q in cubes):
        raise InputInvalidError(f"{what} must share the entries' dilation structure")


class _BoxSet:
    """Pullback boxes of one call's cube rows, one (N, d) set per grid level.

    ident holds the (sigma, tau, *index) rows, (N, 2 + d) int64, and verts
    their vertices, vertex-major (2^d, N, d), built once (grid.cube_vertices)
    or taken from a parent set by a row selection (rows).  A tau's pull is
    one flat (2^d N, d) product, reduced to its per-row min and max and kept
    for the call.  within_each and overlap_matrix answer containment and
    overlap as boolean arrays.
    """

    def __init__(self, D, ident: np.ndarray, verts=None, parent=None):
        self.D = D
        self.ident = ident
        if verts is None and len(ident):
            verts = cube_vertices(D, self.scale, self.index)
        self.verts = verts
        # tau -> (2, N, d): the per-cube min and max of the vertices pulled
        # back by A^-tau
        self._pulled = {}
        # (parent box set, ids) of a row selection
        self._parent = parent

    def __len__(self) -> int:
        return len(self.ident)

    @property
    def scale(self) -> np.ndarray:
        """(N, 2): each row's (sigma, tau)."""
        return self.ident[:, :2]

    @property
    def index(self) -> np.ndarray:
        """(N, d): each row's index."""
        return self.ident[:, 2:]

    def rows(self, ids) -> "_BoxSet":
        """The box set of rows ids: their rows and vertices, not a new build."""
        if not ids:
            return _BoxSet(self.D, self.ident[:0])
        return _BoxSet(self.D, self.ident.take(ids, axis=0), self.verts.take(ids, axis=1),
                       (self, ids))

    def pull_levels(self, taus) -> None:
        """Pull back by A^-tau for every tau of taus not pulled yet: one
        product against the stack of their powers (each stacked product is
        bit for bit the product alone), reduced to per-row min and max.  A
        row selection pulls through its parent and keeps its rows."""
        missing = [t for t in dict.fromkeys(taus) if t not in self._pulled]
        if not missing:
            return
        if self._parent is not None:
            parent, ids = self._parent
            parent.pull_levels(missing)
            for t in missing:
                self._pulled[t] = parent._pulled[t].take(ids, axis=1)
            return
        v, n, d = self.verts.shape
        powers = self.D.powers([-t for t in missing])
        pulled = (self.verts.reshape(v * n, d) @ powers.transpose(0, 2, 1)).reshape(-1, v, n, d)
        got = np.empty((len(missing), 2, n, d))
        np.minimum.reduce(pulled, axis=1, out=got[:, 0])
        np.maximum.reduce(pulled, axis=1, out=got[:, 1])
        self._pulled.update(zip(missing, got))

    def _pull(self, tau: int) -> np.ndarray:
        """(2, N, d): the per-cube min and max of the vertices times A^-tau."""
        got = self._pulled.get(tau)
        if got is None:
            self.pull_levels((tau,))
            got = self._pulled[tau]
        return got

    def boxes(self, sigma: int, tau: int):
        """The rows' bounding boxes in the units of the (sigma, tau) grid.

        The coordinates are 2^-sigma A^-tau x, in which the grid cube of
        index n is [n, n + 1)^d.  A box is exact because a cube is the convex
        hull of its vertices.  Returns (lo, hi, tol), each of shape (N, d),
        row k for row k; tol is the rounding allowance of every comparison
        made on that row and axis.

        A level's box is its tau's pulled min and max times 2^-sigma, which
        is exact and commutes with min and max: bit for bit the box of a
        product per level.
        """
        return _split_box(self._pull(tau) * 2.0 ** -sigma)

    def _host_rows(self, hosts: np.ndarray):
        """(lo, hi, tol), each (H, N, d): [h] is boxes() at the level of the
        host row hosts[h] (sigma, tau, ...), scaled from the pulled pair of
        its tau."""
        taus = {}
        pos = [taus.setdefault(t, len(taus)) for t in hosts[:, 1].tolist()]
        self.pull_levels(taus)
        if len(taus) == 1:
            pulled = self._pulled[next(iter(taus))][None]
        else:
            pulled = np.array([self._pulled[t] for t in taus]).take(pos, axis=0)
        return _split_box(pulled * np.ldexp(1.0, -hosts[:, 0, None, None, None]))

    @cached_property
    def volume(self) -> np.ndarray:
        """Each row's grid.row_volume."""
        return np.array([row_volume(self.D, row) for row in self.ident.tolist()])

    def within_each(self, hosts, factor: float) -> np.ndarray:
        """M[k, h]: row k lies inside host row hosts[h] grown about its
        center by factor, 1 for the host itself and 2 for its double.  hosts
        is an (H, 2 + d) int array of rows, or this box set itself.

        A cube of the host's own scale is inside either exactly when it is
        the host; any other cube's pullback box must fit the grown host's
        [n + 1/2 - factor/2, n + 1/2 + factor/2]^d.  Hosts of any mix of
        levels are compared in one broadcast over (host, cube, axis), each
        on the boxes of its own level, as one host at a time would be.
        """
        if not len(self) or not len(hosts):
            return np.zeros((len(self), len(hosts)), dtype=bool)
        if hosts is self:
            hosts = self.ident
            (lo, hi, tol), (same, equal) = self._own_rows, self._own_match
        else:
            lo, hi, tol = self._host_rows(hosts)
            same, equal = _same_and_equal(hosts, self.ident)
        center = hosts[:, None, 2:] + 0.5
        reach = 0.5 * factor
        out = lo < center - reach - tol
        out |= hi > center + reach + tol
        return np.where(same, equal, ~out.any(axis=2)).T

    @cached_property
    def _own_rows(self):
        """_host_rows with the cubes themselves as the hosts."""
        return self._host_rows(self.ident)

    @cached_property
    def _own_match(self):
        """_same_and_equal of the cubes against themselves."""
        return _same_and_equal(self.ident, self.ident)

    def overlap_matrix(self) -> np.ndarray:
        """M[k, m]: the interiors of the cubes of rows k and m overlap.

        The smaller cube's pullback box (row k's on equal volumes) is
        tested against the larger cube in the larger cube's grid.  That is
        exact when the grids nest (diagonal A); otherwise it may err towards
        overlap.  Two cubes of one scale overlap exactly when they are equal.
        Column m tests every cube no larger than row m's in row m's grid,
        on rows gathered as within_each gathers them; an entry whose row cube
        is the larger one is read from the transpose.
        """
        if not len(self):
            return np.zeros((0, 0), dtype=bool)
        lo, hi, tol = self._own_rows
        n = self.index[:, None, :]
        gap = np.minimum(hi, n + 1) - np.maximum(lo, n)
        meets = np.all(gap > tol, axis=2).T
        inner_first = self.volume[:, None] <= self.volume[None, :]
        out = np.where(inner_first, meets, meets.T)
        same, equal = self._own_match
        return np.where(same, equal, out)


# ------------------------------------------------------------------- whitney


@dataclass
class WhitneyResult:
    """Selected cubes, entry assignments (entry id -> selected id), leftovers."""

    selected: list
    assigned: dict
    leftover: list
    alpha: float


@dataclass
class CheckReport:
    """Named pass/fail outcomes, each with a witness or detail line.

    The verifiers fill one per run, and run_experiment renders one into
    summary.txt.
    """

    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str = None):
        self.checks.append((name, bool(passed), witness))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [(n, w) for n, ok, w in self.checks if not ok]

    def render(self) -> str:
        """One PASS/FAIL line per check, then the overall RESULT line."""
        out = []
        for name, ok, witness in self.checks:
            tag = "PASS" if ok else "FAIL"
            out.append(f"{tag} {name}: {witness}" if witness else f"{tag} {name}")
        out.append(f"RESULT {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"


def whitney_decompose(entries, alpha: float) -> WhitneyResult:
    """Select disjoint cubes S whose doubles carry the concentrated mass.

    entries is a list of (GridCube, lam) pairs on the sigma = 0 grid.  The
    level sweep runs from the coarsest potentially selectable level downward;
    a cube is selected when the still-unassigned mass inside its double
    exceeds alpha times its volume, and it absorbs that mass.  A second pass
    repairs leftover chains whose stacked density exceeds alpha, and a final
    pass merges nested selections.  All three defining conditions should be
    re-checked with verify_whitney on every instance.
    """
    D, boxes, masses = _entries(entries, alpha)
    if not entries:
        return WhitneyResult(selected=[], assigned={}, leftover=[], alpha=alpha)
    a = D.det_scale
    total = float(_left_sum(masses))
    t_lo = int(boxes.scale[:, 1].min())
    if total <= 0:
        return WhitneyResult(selected=[], assigned={}, leftover=list(range(len(entries))),
                             alpha=alpha)
    # Highest level at which any selection is possible: total > alpha a^t.
    t_hi = int(np.ceil(np.log(total / alpha) / np.log(a))) - 1
    while total > alpha * (a ** (t_hi + 1)):
        t_hi += 1
    while t_hi >= t_lo and total <= alpha * (a ** t_hi):
        t_hi -= 1
    t_hi = max(t_hi, t_lo - 1)
    if t_hi - t_lo > _LEVEL_BUDGET:
        raise BudgetExceededError(
            f"selection ladder spans {t_hi - t_lo} levels, budget is {_LEVEL_BUDGET}"
        )

    active = set(range(len(entries)))
    # selected rows (sigma, tau, *index), None once merged into another
    selected, assigned = [], {}

    # the sorted active ids and their mass total, taken again only after a
    # selection has absorbed entries
    active_ids, active_total = [], None
    boxes.pull_levels(range(t_hi, t_lo - 1, -1))
    for t in range(t_hi, t_lo - 1, -1):
        if not active:
            break
        if len(active_ids) != len(active):
            active_ids = sorted(active)
            active_total = _mass_sum(masses, active_ids)
        candidates = _star_groups(boxes, active_ids, 0, t, masses, alpha * (a ** t),
                                  active_total)
        for n in sorted(candidates):
            members = [i for i in candidates[n] if i in active]
            residual = _mass_sum(masses, members)
            if residual > alpha * (a ** t):
                s_id = len(selected)
                selected.append((0, t, *n))
                for i in members:
                    assigned[i] = s_id
                    active.discard(i)

    # Density repair: leftover chains whose stacked density exceeds alpha are
    # capped by selecting the shallowest offending cube of each chain.
    nodes = sorted(_leftover_nodes(boxes, masses, sorted(active)),
                   key=lambda rec: (-rec[1][1], rec[1][2:]))
    children = [[] for _ in nodes]
    roots = []
    node_boxes = boxes.rows([rec[2][0] for rec in nodes])
    inside = node_boxes.within_each(node_boxes, 1.0)
    volume = node_boxes.volume.tolist()
    for pos in range(len(nodes)):
        # the smallest node holding this one, the first of equal volumes
        parent = min((k for k, held in enumerate(inside[pos, :pos].tolist()) if held),
                     key=volume.__getitem__, default=None)
        (roots if parent is None else children[parent]).append(pos)

    # Depth first, children in order: the first node on a chain whose stacked
    # density exceeds alpha is selected with its whole subtree.
    stack = [(pos, 0.0) for pos in reversed(roots)]
    while stack:
        pos, prefix = stack.pop()
        mass, row, _ = nodes[pos]
        dens = prefix + mass / volume[pos]
        if dens > alpha:
            s_id = len(selected)
            selected.append(row)
            subtree = [pos]
            while subtree:
                sub = subtree.pop()
                for i in nodes[sub][2]:
                    assigned[i] = s_id
                    active.discard(i)
                subtree.extend(reversed(children[sub]))
        else:
            stack.extend((child, dens) for child in reversed(children[pos]))

    _merge_nested(D, selected, assigned)

    # Bounded-density guard: a selected double should not carry more than
    # C_W alpha times the cube volume.  Offenders are merged upward.
    for _ in range(_LEVEL_BUDGET):
        worst = None
        live_ids = [s_id for s_id, row in enumerate(selected) if row is not None]
        held = boxes.within_each(_row_array([selected[s_id] for s_id in live_ids]), 2.0)
        for col, s_id in enumerate(live_ids):
            full = _mass_of(masses, held[:, col])
            excess = full - C_W * alpha * row_volume(D, selected[s_id])
            if excess > _TOL * max(1.0, full) and (worst is None or excess > worst[1]):
                worst = (s_id, excess)
        if worst is None:
            break
        s_id = worst[0]
        selected[s_id] = row_tau_parent(D, selected[s_id])
        _merge_nested(D, selected, assigned)
    else:
        raise BudgetExceededError("density guard did not settle within budget")

    live_ids = [s_id for s_id, row in enumerate(selected) if row is not None]
    remap = {s_id: k for k, s_id in enumerate(live_ids)}
    return WhitneyResult(
        selected=[GridCube(sigma, tau, tuple(index), D)
                  for sigma, tau, *index in (selected[s_id] for s_id in live_ids)],
        assigned={i: remap[s] for i, s in assigned.items()},
        leftover=sorted(active), alpha=alpha)


def _leftover_nodes(boxes, masses, ids) -> list:
    """Group the ids by row, in first-seen order: one [mass, row, ids] per
    distinct row, its masses summed in the given order."""
    rows = boxes.ident.tolist()
    by_row = {}
    for i in ids:
        row = tuple(rows[i])
        rec = by_row.setdefault(row, [0.0, row, []])
        rec[0] += masses[i]
        rec[2].append(i)
    return list(by_row.values())


def _merge_nested(D, selected, assigned):
    """Drop selected rows contained in other selected rows, reassigning."""
    order = sorted((s_id for s_id, row in enumerate(selected) if row is not None),
                   key=lambda s_id: -row_volume(D, selected[s_id]))
    boxes = _BoxSet(D, _row_array([selected[s_id] for s_id in order]))
    inside = boxes.within_each(boxes, 1.0)
    meets = boxes.overlap_matrix()
    volume = boxes.volume.tolist()
    for small in range(len(order) - 1, -1, -1):
        small_id = order[small]
        for big, big_id in enumerate(order):
            if (selected[big_id] is None or big == small or selected[small_id] is None
                    or volume[big] < volume[small]):
                continue
            if inside[small, big]:
                for i, s in list(assigned.items()):
                    if s == small_id:
                        assigned[i] = big_id
                selected[small_id] = None
            elif meets[big, small]:
                raise NumericalFailureError(
                    "selected cubes overlap without containment; grid is not nested"
                )


def verify_whitney(result: WhitneyResult, entries, alpha: float, c_w: float = C_W) -> CheckReport:
    """Re-check disjointness and the three defining conditions with witnesses.

    Raises InputInvalidError when the entries or alpha are invalid, or when
    a selected cube does not share the entries' dilation.
    """
    D, entry_boxes, masses = _entries(entries, alpha)
    selected = result.selected
    _share_dilation(selected, D, "selected cubes")
    report = CheckReport()
    s_rows = _cube_rows(selected)
    s_boxes = _BoxSet(D, s_rows)

    ok, witness = True, None
    pairs = np.argwhere(np.triu(s_boxes.overlap_matrix(), 1))
    if len(pairs):
        i, j = pairs[0].tolist()
        ok, witness = False, f"cubes {i} and {j} overlap"
    report.add("disjoint", ok, witness)

    in_double = entry_boxes.within_each(s_rows, 2.0)

    ok, witness = True, None
    for i, s_id in result.assigned.items():
        if not in_double[i, s_id]:
            ok, witness = False, f"entry {i} not inside the double of its host {s_id}"
            break
    report.add("assignment", ok, witness)

    ok, witness = True, None
    s_volume = s_boxes.volume.tolist()
    for s_id, volume in enumerate(s_volume):
        full = _mass_of(masses, in_double[:, s_id])
        bound = c_w * alpha * volume
        if full > bound * (1.0 + 1e-9):
            ok, witness = False, f"host {s_id}: mass {full:.6g} > {bound:.6g}"
            break
    report.add("condition1_star_mass", ok, witness)

    total_volume = _left_sum(s_volume)
    total_mass = _left_sum(masses)
    ok = total_volume <= total_mass / alpha * (1.0 + 1e-9)
    report.add("condition2_total_volume", ok,
               None if ok else f"sum |S| = {total_volume:.6g} > {total_mass / alpha:.6g}")

    ok, witness = True, None
    recs = _leftover_nodes(entry_boxes, masses, result.leftover)
    rec_boxes = entry_boxes.rows([rec[2][0] for rec in recs])
    inside = rec_boxes.within_each(rec_boxes, 1.0)
    meets = rec_boxes.overlap_matrix()
    # a pair overlaps without nesting: the smaller cube (the first on equal
    # volumes) is not inside the other
    volume = rec_boxes.volume
    nested = np.where(volume[:, None] <= volume[None, :], inside, inside.T)
    conservative = bool(np.any(np.triu(meets & ~nested, 1)))
    if conservative:
        inside = inside | meets.T
    volume = volume.tolist()
    worst = 0.0
    for k, (_, row, _) in enumerate(recs):
        chain = 0.0
        for m in range(len(recs)):
            if m == k or inside[k, m]:
                chain += recs[m][0] / volume[m]
        if chain > worst:
            worst = chain
            if chain > alpha * (1.0 + 1e-9):
                # the cube named as GridCube's repr names it
                ok, witness = False, (f"leftover density {chain:.6g} > alpha at GridCube("
                                      f"sigma={row[0]}, tau={row[1]}, index={row[2:]})")
    suffix = " (conservative, non-nested leftovers)" if conservative else ""
    report.add("condition3_leftover_density", ok,
               (witness + suffix) if witness else None)
    return report


# ------------------------------------------------------------- stopping time


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One event of the stopping-time loop, for replay and verification."""

    kind: str
    sigma: int
    tau: int
    index: tuple = None
    entry: int = None
    mass: float = None
    action: str = None


@dataclass(frozen=True, slots=True)
class ExceptionalPrimitive:
    """One piece of the exceptional set: a tendril bound or a quadrupled cube.

    region() builds the set itself on each call, the TendrilBound of cube
    for kind "tendril" and the Parallelepiped 4S (S = cube) for kind "quad";
    a caller with many questions for one primitive builds its region() once
    and asks that.  volume_term is the number this primitive contributes
    when the size of the exceptional set is summed (exceptional_volume):
    stopping_time writes the geometric scale 2^sigma a^tau for tendril
    bounds and the exact volume 4^d |S| for quadrupled cubes.
    """

    kind: str
    cube: GridCube
    volume_term: float

    def region(self) -> TendrilBound | Parallelepiped:
        return tendril_of(self.cube) if self.kind == "tendril" else expand_cube(self.cube, 4.0)

    def contains_points(self, points) -> np.ndarray:
        return self.region().contains_points(points)


@dataclass
class StoppingResult:
    """Classification levels, exceptional primitives, and the full trace."""

    kappa: dict
    classification: dict
    host: dict
    assigned_primitive: dict
    exceptional: list
    trace: list
    tau0: int
    dimension_violations: list
    alpha: float


def stopping_time(S_list, entries, alpha: float) -> StoppingResult:
    """Run the two-parameter stopping loop over scales (sigma, tau).

    S_list holds pairwise disjoint sigma = 0 cubes under the entries'
    dilation; every entry cube must sit inside the double of at least one of
    them.  Stages run from tau0 - 1 down to the finest entry level.  Within
    a stage, sigma descends while at least one live entry still fits inside
    a double at that scale; all doubles whose live mass exceeds
    alpha 2^sigma a^tau are selected simultaneously, and the entries inside
    them stop with kappa = tau + 1.  Entries that survive to their own stage
    stop against their hosting S.  A final repair pass lifts kappa to
    tau(S) + 1 over every S whose double holds the entry.
    """
    D, boxes, masses = _entries(entries, alpha)
    if not entries:
        raise InputInvalidError("stopping_time needs at least one entry")
    if D.norm_power != 1:
        raise NotNormalizedError("stopping_time needs a dilation with norm_power 1")
    for s_cube in S_list:
        if s_cube.sigma != 0:
            raise InputInvalidError("S cubes must live on the sigma = 0 grid")
    _share_dilation(S_list, D, "S cubes")

    s_rows = _cube_rows(S_list)
    # each S's (tau, *index), and its tau
    s_keys = [tuple(row[1:]) for row in s_rows.tolist()]
    s_taus = [key[0] for key in s_keys]
    taus = boxes.scale[:, 1].tolist()
    hosts_of = {}
    for i, row in enumerate(boxes.within_each(s_rows, 2.0).tolist()):
        hosts_of[i] = [k for k, inside in enumerate(row) if inside]
        if not hosts_of[i]:
            raise InputInvalidError(f"entry {i} is not inside the double of any S")

    a = D.det_scale
    total = float(_left_sum(masses))
    tau_min, tau_max = min(taus), max(taus)
    tau0 = tau_max + 1
    while alpha * (a ** tau0) <= total:
        tau0 += 1
        if tau0 - tau_max > _LEVEL_BUDGET:
            raise BudgetExceededError("tau0 search exceeded the level budget")

    unit_diam = cube_diameter(D, 0)
    live = set(range(len(entries)))
    kappa, classification, host, assigned_primitive = {}, {}, {}, {}
    # the selected q, as (sigma, tau, index) row keys
    trace, dimension_violations, selected_qs = [], [], set()

    boxes.pull_levels(range(tau0 - 1, tau_min - 1, -1))
    for tau in range(tau0 - 1, tau_min - 1, -1):
        sigma = 0
        live_ids = None
        while live:
            if live_ids is None or len(live_ids) != len(live):
                # taken again only when entries have stopped: the sorted live
                # ids, their mass total, and the smallest diameter of a live
                # cube in this stage's grid, which a double must reach
                live_ids = sorted(live)
                live_total = _mass_sum(masses, live_ids)
                nearest = min(cube_diameter(D, t - tau) for t in {taus[i] for i in live_ids})
            if nearest > (2.0 ** (sigma + 1)) * unit_diam:
                break
            threshold = alpha * (2.0 ** sigma) * (a ** tau)
            candidates = _star_groups(boxes, live_ids, sigma, tau, masses, threshold,
                                      live_total)
            chosen = []
            for n in sorted(candidates):
                mass = _mass_sum(masses, candidates[n])
                if mass > threshold:
                    chosen.append((n, mass))
            trace.append(TraceEvent(kind="step", sigma=sigma, tau=tau))
            for n, mass in chosen:
                selected_qs.add((sigma, tau, n))
                trace.append(TraceEvent(kind="select", sigma=sigma, tau=tau,
                                        index=n, mass=mass))
            # chosen ascends, so the first chosen double holding a live
            # entry is the one that stops it
            for n, _ in chosen:
                for i in candidates[n]:
                    if i not in live:
                        continue
                    live.discard(i)
                    kappa[i] = tau + 1
                    classification[i] = "C1"
                    host[i] = ("q", sigma, tau, n)
                    trace.append(TraceEvent(kind="classify", sigma=sigma, tau=tau,
                                            index=n, entry=i, action="C1"))
            sigma -= 1
        finishing = [i for i in sorted(live) if taus[i] == tau]
        for i in finishing:
            hosts = hosts_of[i]
            host_taus = {s_taus[k] for k in hosts}
            if len(host_taus) > 1:
                dimension_violations.append((i, sorted(host_taus)))
            best = min(hosts, key=s_keys.__getitem__)
            live.discard(i)
            kappa[i] = s_taus[best] + 1
            classification[i] = "C2"
            host[i] = ("S", best)
            trace.append(TraceEvent(kind="classify", sigma=0, tau=tau,
                                    index=s_keys[best][1:], entry=i, action="C2"))

    for i in range(len(entries)):
        lift = max(s_taus[k] + 1 for k in hosts_of[i])
        if lift > kappa[i]:
            trace.append(TraceEvent(kind="repair", sigma=0, tau=taus[i],
                                    entry=i, action=f"kappa {kappa[i]} -> {lift}"))
            kappa[i] = lift

    # the tendril bounds in scale order, then the quadrupled S cubes
    q_keys = sorted(selected_qs)
    exceptional = [ExceptionalPrimitive("tendril", GridCube(sigma, tau, n, D),
                                        (2.0 ** sigma) * (a ** tau))
                   for sigma, tau, n in q_keys]
    exceptional += [ExceptionalPrimitive("quad", S, (4.0 ** D.dim) * S.volume) for S in S_list]
    primitive_of_q = {key: p for p, key in enumerate(q_keys)}
    for i in range(len(entries)):
        kind, *where = host[i]
        assigned_primitive[i] = (primitive_of_q[tuple(where)] if kind == "q"
                                 else len(q_keys) + where[0])

    return StoppingResult(
        kappa=kappa, classification=classification, host=host,
        assigned_primitive=assigned_primitive, exceptional=exceptional,
        trace=trace, tau0=tau0, dimension_violations=dimension_violations,
        alpha=alpha,
    )


def _certified_dilates(result: StoppingResult, boxes: _BoxSet, levels: np.ndarray) -> np.ndarray:
    """Mask over levels, an (entries, L) integer array: entry i's whole
    dilate Q + A^j B_1 at level j = levels[i, l] lies in its assigned
    primitive.

    Decided from geometry alone.  The entries owned by tendril bounds are
    decided together by grid.tendrils_cover_dilates, over the stacked
    pullbacks of their owners; each quad owner asks
    Parallelepiped.covers_dilates once about its entries and the distinct
    levels among them.  A True pair's samples are all accepted by that
    primitive; a False pair says nothing and is left to sampling.
    """
    D = boxes.D
    primitives = result.exceptional
    owner = [result.assigned_primitive[i] for i in range(len(boxes))]
    out = np.zeros(levels.shape, dtype=bool)
    tendril = [i for i, p in enumerate(owner) if primitives[p].kind == "tendril"]
    if tendril:
        # each owning tendril's row, in first-owner order
        row_of = {}
        pos = [row_of.setdefault(owner[i], len(row_of)) for i in tendril]
        rows = _cube_rows(primitives[p].cube for p in row_of)
        asked = levels[tendril]
        spreads = D.powers(asked.ravel().tolist()).reshape(*asked.shape, D.dim, D.dim)
        out[tendril] = tendrils_cover_dilates(D, rows[:, :2], rows[:, 2:], np.array(pos),
                                              boxes.verts.take(tendril, axis=1), spreads)
    for p in sorted({p for p in owner if primitives[p].kind == "quad"}):
        rows = [i for i, q in enumerate(owner) if q == p]
        uniq = sorted(set(levels[rows].ravel().tolist()))
        spreads = D.powers(uniq)
        verts = boxes.verts[:, rows].transpose(1, 0, 2)
        covered = primitives[p].region().covers_dilates(verts, spreads)
        out[rows] = covered[np.arange(len(rows))[:, None], np.searchsorted(uniq, levels[rows])]
    return out


def exceptional_volume(result: StoppingResult, S_list, entries, alpha: float,
                       C: float = C_STOP):
    """Check (i)'s pair (total, bound): the volume_terms of the exceptional
    primitives summed, and C (alpha^-1 sum lam + sum |S|).  Every sum is
    taken with _left_sum, in list order."""
    total = _left_sum(p.volume_term for p in result.exceptional)
    bound = C * (_left_sum(lam for _, lam in entries) / alpha
                 + _left_sum(S.volume for S in S_list))
    return total, bound


def verify_stopping(result: StoppingResult, S_list, entries, alpha: float,
                    C: float = C_STOP, C_iv: float = C_IV, seed: int = 0) -> CheckReport:
    """Re-check the four defining conditions of the stopping construction.

    (i) the summed volume terms of the exceptional primitives are controlled
    by C (alpha^-1 sum lam + sum |S|), both sums read from
    exceptional_volume; (ii) dilates of each entry at levels kappa - 1,
    kappa - 3 and kappa - 8 land inside the exceptional set;
    (iii) kappa exceeds tau(S) for every S whose double holds the entry;
    (iv) at every recorded step (sigma, tau), mass already stopped
    (kappa <= tau) stacks to at most C_iv alpha 2^sigma a^tau inside any
    double.

    Check (ii) certifies, then samples.  A pair (entry, level j) whose whole
    dilate Q + A^j B_1 provably lies in the entry's assigned primitive is
    settled by _certified_dilates.  Every other pair is tested at
    STOPPING_SAMPLES points of Q + A^j B_1, first against the assigned
    primitive and then, for the points it rejects, against the others; a
    point none accepts is a witness.  A certified pair's points would all
    have been accepted by the assigned primitive, so skipping them cannot
    change the outcome or the witness.  The random stream is the one a
    check without the certificate draws, the unit-ball points first and then
    n d uniforms per entry in entry order: the generator is created only
    when some pair is left to sample, and it advances past the uniforms of
    each entry whose pairs are all certified, so every sampled entry meets
    the same points.

    Raises InputInvalidError when entries is empty or invalid, when alpha
    is not positive and finite, when an S cube does not share the entries'
    dilation, or when kappa or assigned_primitive misses an entry.
    """
    D, boxes, masses = _entries(entries, alpha)
    if not entries:
        raise InputInvalidError("verify_stopping needs at least one entry")
    _share_dilation(S_list, D, "S cubes")
    for name in ("kappa", "assigned_primitive"):
        missing = set(range(len(entries))) - getattr(result, name).keys()
        if missing:
            raise InputInvalidError(f"{name} has no value for entry {min(missing)}")
    report = CheckReport()
    a = D.det_scale
    s_rows = _cube_rows(S_list)

    lhs, rhs = exceptional_volume(result, S_list, entries, alpha, C)
    report.add("i_volume_sum", lhs <= rhs,
               None if lhs <= rhs else f"{lhs:.6g} > {rhs:.6g}")

    ok, witness = True, None
    n = STOPPING_SAMPLES
    kappa = np.array([result.kappa[i] for i in range(len(entries))])
    levels = kappa[:, None] - np.array([1, 3, 8])
    certified = _certified_dilates(result, boxes, levels)
    rng = None
    for i in np.flatnonzero(~certified.all(axis=1)).tolist():
        if rng is None:
            rng = np.random.default_rng(seed)
            ball = rng.normal(size=(n, D.dim))
            ball = ball / np.linalg.norm(ball, axis=1, keepdims=True)
            ball = ball * (rng.random((n, 1)) ** (1.0 / D.dim))
            # samples are built as (d, n) columns; pts is their (n, d) view
            ball = np.ascontiguousarray(ball.T)
            # primitive index -> its region(), built on first ask
            region = cache(lambda p: result.exceptional[p].region())
            origin, basis = cube_frames(D, boxes.scale, boxes.index)
            due = 0  # the first entry whose uniforms are not yet drawn
        if i > due:
            # past the uniforms of entries due, ..., i - 1, all certified
            rng.bit_generator.advance((i - due) * n * D.dim)
        u = rng.random((n, D.dim))
        due = i + 1
        x = origin[i][:, None] + basis[i] @ u.T
        for j, sure in zip(levels[i].tolist(), certified[i].tolist()):
            if sure:
                continue
            pts = (x + D.power(j) @ ball).T
            inside = region(result.assigned_primitive[i]).contains_points(pts)
            if not np.all(inside):
                missing = np.where(~inside)[0]
                rest = np.zeros(len(missing), dtype=bool)
                for p_idx in range(len(result.exceptional)):
                    if p_idx == result.assigned_primitive[i]:
                        continue
                    rest |= region(p_idx).contains_points(pts[missing])
                    if np.all(rest):
                        break
                if not np.all(rest):
                    ok = False
                    witness = (f"entry {i}, level {j}: "
                               f"{int(np.sum(~rest))} of {n} samples escape")
                    break
        if not ok:
            break
    report.add("ii_dilates_covered", ok, witness)

    ok, witness = True, None
    bad = np.argwhere(boxes.within_each(s_rows, 2.0)
                      & (kappa[:, None] <= s_rows[None, :, 1]))
    if len(bad):
        i, k = bad[0].tolist()
        ok = False
        witness = f"entry {i}: kappa {result.kappa[i]} <= tau(S_{k}) {S_list[k].tau}"
    report.add("iii_kappa_exceeds_hosts", ok, witness)

    ok, witness = True, None
    steps = [(ev.sigma, ev.tau) for ev in result.trace if ev.kind == "step"]
    stopped_tau = None
    for sigma, tau in steps:
        if tau != stopped_tau:
            # the stopped entries and their total, once per run of one tau
            stopped_tau, stopped = tau, np.flatnonzero(kappa <= tau).tolist()
            stopped_total = _mass_sum(masses, stopped)
        bound = C_iv * alpha * (2.0 ** sigma) * (a ** tau)
        limit = bound * (1.0 + 1e-9)
        groups = _star_groups(boxes, stopped, sigma, tau, masses, limit, stopped_total)
        for n, members in groups.items():
            mass = _mass_sum(masses, members)
            if mass > limit:
                ok = False
                witness = (f"step ({sigma}, {tau}), cube {n}: "
                           f"stopped mass {mass:.6g} > {bound:.6g}")
                break
        if not ok:
            break
    report.add("iv_stopped_mass_bounded", ok, witness)

    return report


def replay_trace_masses(result: StoppingResult, entries):
    """Recompute each select event's mass from scratch by replaying the trace.

    Returns a list of (event, recomputed mass) pairs for every select event;
    a correct trace reproduces its recorded masses exactly.
    """
    _, boxes, masses = _entries(entries)
    live = set(range(len(entries)))
    pairs = []
    for ev in result.trace:
        if ev.kind == "select":
            members = _star_groups(boxes, sorted(live), ev.sigma, ev.tau).get(ev.index, [])
            pairs.append((ev, _mass_sum(masses, members)))
        elif ev.kind == "classify":
            live.discard(ev.entry)
    return pairs
