"""Reference rules the tests check the library against.

Each is a slow, direct statement of what a fast path computes, or, as
cube_center and tau_parent, a cube question that only tests ask: no run of
the package calls them, so they live beside the tests that read them.
star_groups is the unbounded double grouping that
decomposition._heavy_doubles filters by mass.
plateau_branches and unique_cube_masses are the branch-by-branch plateau
and the row-wise cube grouping that surface.plateau_profile and
surface._cube_masses replaced; two_loop_escaped, per_tau_sum and
meshgrid_radii are the check-(ii) count, the atomic-sum values and the
kernel radii as they were computed before decomposition._escaped,
AtomicSum.evaluate's sum over Atom.evaluate and KernelField.lattice.
stopping_hosts rebuilds each entry's host from its assigned primitive, the
record the golden digests hash.
"""

from itertools import product

import numpy as np

from anisomax.atoms import Atom, AtomicSum
from anisomax.decomposition import StoppingResult, _entries, _mass_sum, _split_box
from anisomax.grid import GridCube, Parallelepiped, TendrilBound, row_tau_parent


def cube_contains(outer: Parallelepiped, inner: GridCube) -> bool:
    """True when every vertex of the inner cube lies in the closed outer hull."""
    return bool(np.all(outer.contains_points(inner.vertices())))


def cube_center(cube: GridCube) -> np.ndarray:
    """The center A^tau 2^sigma (index + 1/2) of the cube."""
    n = np.asarray(cube.index, dtype=float)
    return cube.dilation.power(cube.tau) @ ((2.0 ** cube.sigma) * (n + 0.5))


def tau_parent(cube: GridCube) -> GridCube:
    """The cube of R_{0, tau+1} containing the cube's center, by the row rule
    grid.row_tau_parent that the Whitney guard uses."""
    _, tau, *index = row_tau_parent(cube.dilation, (cube.sigma, cube.tau, *cube.index))
    return GridCube(0, tau, tuple(index), cube.dilation)


def boxes_intersect_open(verts_a: np.ndarray, verts_b: np.ndarray, axes) -> bool:
    """SAT with strict overlap, so shared boundary faces do not count."""
    for axis in axes:
        pa = verts_a @ axis
        pb = verts_b @ axis
        span = max(pa.max() - pa.min(), pb.max() - pb.min(), 1e-300)
        if min(pa.max(), pb.max()) - max(pa.min(), pb.min()) <= 1e-12 * span:
            return False
    return True


def clamped_sq(region: TendrilBound, rel: np.ndarray) -> np.ndarray:
    """Squared upper bounds on dist(y, P) for the tendril bound's pulled
    q** P, from rel = y - origin as (d, N): the squared distance to the
    point of P at the clamped local coordinates of y.  rel is overwritten."""
    u = np.linalg.inv(region.basis) @ rel
    np.minimum(np.maximum(u, 0.0, out=u), 1.0, out=u)
    rel -= region.basis @ u
    return np.square(rel, out=rel).sum(axis=0)


def star_groups(boxes, ids, sigma: int, tau: int) -> dict:
    """Map each index n to the ids, in the given order, whose cube lies in
    the double of (sigma, tau, n), with no bound: the relation that
    decomposition._heavy_doubles filters by mass.

    The double of cube n is [n - 1/2, n + 3/2]^d in grid units, so each id's
    indices form a window of per-axis inequalities on its pullback box.
    """
    groups = {}
    if not ids:
        return groups
    lo, hi, tol = _split_box(boxes._pull(tau).take(ids, axis=1) * 2.0 ** -sigma)
    n_min = np.ceil(hi - 1.5 - tol).astype(np.int64)
    n_max = np.floor(lo + 0.5 + tol).astype(np.int64) + 1
    for i, first, stop in zip(ids, n_min.tolist(), n_max.tolist()):
        for n in product(*map(range, first, stop)):
            groups.setdefault(n, []).append(i)
    return groups


def replay_trace_masses(result: StoppingResult, entries):
    """Recompute each select event's mass from scratch by replaying the trace.

    Returns a list of (event, recomputed mass) pairs for every select event;
    a correct trace reproduces its recorded masses exactly.
    """
    _, boxes, masses = _entries(entries, result.alpha)
    live = set(range(len(entries)))
    pairs = []
    for ev in result.trace:
        if ev.kind == "select":
            members = star_groups(boxes, sorted(live), ev.sigma, ev.tau).get(ev.index, [])
            pairs.append((ev, _mass_sum(masses, members)))
        elif ev.kind == "classify":
            live.discard(ev.entry)
    return pairs


def stopping_hosts(result: StoppingResult) -> dict:
    """Each entry's host as stopping_time once stored it beside its
    assigned primitive: ("q", sigma, tau, index) for the selected double
    that stopped it, ("S", k) for S_list[k]; the quadrupled S cubes follow
    the tendril bounds in result.exceptional, in S_list order."""
    tendrils = sum(p.kind == "tendril" for p in result.exceptional)
    hosts = {}
    for i, p in result.assigned_primitive.items():
        cube = result.exceptional[p].cube
        hosts[i] = (("q", cube.sigma, cube.tau, cube.index) if p < tendrils
                    else ("S", p - tendrils))
    return hosts


def compose_dilation(atom: Atom, j: int) -> Atom:
    """Push the atom forward through A^j and rescale by a^-j.

    The image of an atom on Q under x -> a^-j atom(A^-j x) is an atom on the
    cube at tau + j with the same index, axis, and profile.
    """
    Q = atom.support
    shifted = GridCube(0, Q.tau + j, Q.index, Q.dilation)
    return Atom(
        support=shifted,
        profile=atom.profile,
        axis=atom.axis,
        amplitude=atom.amplitude * (Q.dilation.det_scale ** (-j)),
    )


def plateau_branches(u) -> np.ndarray:
    """The plateau by its three branches: 1 on |u| <= 1/2, the taper
    exp(1 - 1/(1 - t^2)), t = 2|u| - 1, on 1/2 < |u| < 1, and 0 elsewhere,
    nan included."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    taper = (u > 0.5) & (u < 1.0)
    t = 2.0 * u[taper] - 1.0
    out[taper] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return out


def unique_cube_masses(keys: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Summed mass per distinct key row, by np.unique over the rows."""
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    return np.bincount(inverse.ravel(), weights=masses)


def two_loop_escaped(regions, pts) -> int:
    """decomposition._escaped by two loops: the first region asked about
    every point, then each other region about every point the first
    rejects, until all are held."""
    regions = iter(regions)
    missing = np.flatnonzero(~next(regions).contains_points(pts))
    rest = np.zeros(len(missing), dtype=bool)
    for region in regions:
        if np.all(rest):
            break
        rest |= region.contains_points(pts[missing])
    return int(np.sum(~rest))


def per_tau_sum(f: AtomicSum, points) -> np.ndarray:
    """The atomic sum's values with one pullback per tau level, the terms
    added tau group by tau group, each atom the product of its axis
    factors."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    by_tau = {}
    for atom, lam in f.terms:
        by_tau.setdefault(atom.support.tau, []).append((atom, lam))
    for tau, group in by_tau.items():
        pulled = pts @ f.dilation.power(-tau).T
        for atom, lam in group:
            local = pulled - np.asarray(atom.support.index, dtype=float)
            shape = atom.axis_factor(0, local[:, 0])
            for j in range(1, local.shape[1]):
                shape = shape * atom.axis_factor(j, local[:, j])
            out += lam * atom.amplitude * shape
    return out


def meshgrid_radii(kernel) -> np.ndarray:
    """The distance of every kernel cell center from 0, in C order, from
    the centers -half_width + (n + 1/2) spacing on a meshgrid."""
    c = -kernel.half_width + (np.arange(kernel.values.shape[0]) + 0.5) * kernel.spacing
    mesh = np.meshgrid(*([c] * kernel.dim), indexing="ij")
    return np.sqrt(sum(m * m for m in mesh)).ravel()
