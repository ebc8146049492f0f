"""Tests for the mass decomposition and stopping-time constructions."""

import dataclasses
import gc
import hashlib
import operator
import sys
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng
from pytest import approx

from anisomax.atoms import make_atom
from anisomax.decomposition import (
    C_STOP,
    STOPPING_SAMPLES,
    ExceptionalPrimitive,
    TraceEvent,
    _BoxSet,
    _certified_dilates,
    _cube_rows,
    _heavy_doubles,
    _mass_sum,
    _merge_nested,
    _split_box,
    exceptional_volume,
    stopping_time,
    verify_stopping,
    verify_whitney,
    whitney_decompose,
    WhitneyResult,
)
from anisomax.dilation import _left_sum, validate_dilation
from anisomax.errors import (
    AnisoError,
    BudgetExceededError,
    InputInvalidError,
    NotNormalizedError,
    NumericalFailureError,
)
from anisomax.grid import (
    GridCube,
    cube_frames,
    det_power,
    expand_cube,
    row_tau_parent,
    row_volume,
    tendril_of,
)

from _oracles import (
    boxes_intersect_open,
    clamped_sq,
    cube_center,
    cube_contains,
    replay_trace_masses,
    star_groups,
    stopping_hosts,
    tau_parent,
    two_loop_escaped,
)


@pytest.fixture(scope="module")
def diag_dilation():
    return validate_dilation(np.array([[2.0, 0.0], [0.0, 4.0]]))


def _box_set(cubes):
    """The _BoxSet of a list of GridCubes, built from their rows."""
    return _BoxSet(cubes[0].dilation, _cube_rows(cubes))


def random_instance(D, alpha, n_entries, seed, tau_lo=-6, tau_hi=0, span=6):
    """Random mass instance with per-cube ratios lam/(alpha|Q|) in [0.01, 20]."""
    rng = default_rng(seed)
    entries = []
    for _ in range(n_entries):
        tau = int(rng.integers(tau_lo, tau_hi + 1))
        index = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        cube = GridCube(0, tau, index, D)
        ratio = 10.0 ** rng.uniform(-2.0, 1.3)
        entries.append((cube, alpha * cube.volume * ratio))
    return entries


# ---------------------------------------------------------------------------
# the left fold behind the mass sums and _heavy_doubles' skip


def test_left_sum_rounds_each_add():
    # each 1e-16 is under half an ulp of 1.0 and rounds away; a compensated
    # sum (Python 3.12's sum()) keeps their total and gives 1.0000000000000002
    assert _left_sum([1.0, 1e-16, 1e-16]) == 1.0
    assert _left_sum(v for v in [1.0, 1e-16, 1e-16]) == 1.0
    assert _left_sum([]) == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=40))
def test_left_sum_is_the_left_fold(values):
    assert repr(_left_sum(values)) == repr(reduce(operator.add, values))


def test_mass_sum_of_a_mask_is_the_left_fold():
    # the masked masses, as the Whitney guard and condition 1 pick them, add
    # one at a time in entry order, as the doubles' masses in _heavy_doubles'
    # skip argument do
    masses = [1.0, 1e-16, 3.0, 1e-16, 1e-16]
    mask = np.array([True, True, False, True, True])
    picked = [lam for lam, keep in zip(masses, mask) if keep]
    got = _mass_sum(masses, np.flatnonzero(mask).tolist())
    assert repr(got) == repr(reduce(operator.add, picked)) == "1.0"


# ---------------------------------------------------------------------------
# star windows: the indices whose double holds a cube


def _star_window(Q, sigma, tau):
    return list(star_groups(_box_set([Q]), [0], sigma, tau))


def test_star_window_same_level_is_singleton(diag_dilation):
    Q = GridCube(0, -2, (3, -1), diag_dilation)
    assert _star_window(Q, 0, -2) == [(3, -1)]


def test_star_window_coarser_level_count(diag_dilation):
    # A unit cube pulled back one dilation level spans at most two indices
    # per axis of the coarser grid.
    Q = GridCube(0, 0, (0, 0), diag_dilation)
    window = _star_window(Q, 0, 1)
    assert (0, 0) in window
    assert 1 <= len(window) <= 4
    for n in window:
        host = GridCube(0, 1, n, diag_dilation)
        assert host.volume == approx(8.0)


PREDICATE_MATRICES = [
    [[4, 1], [1, 3]],
    [[2, 1], [0, 2]],
    [[2, -2], [2, 2]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
    [[2, 0], [0, 4]],
    [[4, 0], [0, 2]],
]


def _interiors_meet(pa, pb):
    """Separating-axis oracle: do the two closed parallelepipeds share interior?"""
    axes = list(np.linalg.inv(pa.basis)) + list(np.linalg.inv(pb.basis))
    if pa.dim == 3:
        # the cross product of every edge direction of pa with every one of pb
        axes += list(np.cross(pa.basis.T[:, None], pb.basis.T[None, :]).reshape(9, 3))
    axes = [axis for axis in axes if np.linalg.norm(axis) > 1e-14]
    return boxes_intersect_open(pa.vertices(), pb.vertices(), axes)


def _holds(outer, verts) -> np.ndarray:
    """cube_contains of each inner cube, given their realized vertices as
    (N, 2^d, d), in one membership call."""
    n, v, d = verts.shape
    return outer.contains_points(verts.reshape(n * v, d)).reshape(n, v).all(axis=1)


@pytest.mark.parametrize("matrix", PREDICATE_MATRICES)
def test_cube_relations_match_parallelepiped_oracle(matrix):
    D = validate_dilation(matrix)
    rng = default_rng(5)
    diagonal = np.allclose(D.matrix, np.diag(np.diag(D.matrix)))
    hits = {1.0: 0, 2.0: 0, "overlap": 0}
    for _ in range(600):
        sigmas = rng.integers(-2, 1, size=2)
        taus = rng.integers(-4, 2, size=2)
        Q = GridCube(int(sigmas[0]), int(taus[0]),
                     tuple(int(v) for v in rng.integers(-3, 4, size=D.dim)), D)
        # a host near Q, so that containment holds on a fair share of pairs
        near = np.linalg.solve(D.power(int(taus[1])), cube_center(Q)) / 2.0 ** sigmas[1]
        index = tuple(int(np.floor(v)) + int(rng.integers(-1, 2)) for v in near)
        host = GridCube(int(sigmas[1]), int(taus[1]), index, D)
        boxes = _box_set([Q, host])
        for factor in (1.0, 2.0):
            inside = cube_contains(expand_cube(host, factor), Q)
            assert bool(boxes.within_each(_cube_rows([host]), factor)[0, 0]) == inside, \
                (Q, host, factor)
            hits[factor] += inside
        in_window = host.index in star_groups(boxes, [0], host.sigma, host.tau)
        assert in_window == cube_contains(expand_cube(host, 2.0), Q), (Q, host)
        meet = _interiors_meet(Q.realize(), host.realize())
        hits["overlap"] += meet
        meets = boxes.overlap_matrix()
        if diagonal:
            # nested grids: the pullback box is the cube itself
            assert meets[0, 1] == meets[1, 0] == meet, (Q, host)
        elif meet:
            # otherwise the box test may only err towards overlap
            assert meets[0, 1] and meets[1, 0], (Q, host)
    assert min(hits.values()) >= 10, hits


FOUND_MATRICES = [
    [[4, 1], [1, 3]],
    [[2, 1], [0, 2]],
    [[2, -2], [2, 2]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
]


def found_instances(D, count):
    """The random instances on which verify_whitney's known failures were
    found: default_rng(1) per matrix, 1-14 entries, tau in [-4, 0], indices
    in [-3, 3]^d, mass |Q| 10^U(-2, 1.3), alpha = 10^U(-0.5, 0.5)."""
    rng = default_rng(1)
    for _ in range(count):
        n = int(rng.integers(1, 15))
        alpha = float(10.0 ** rng.uniform(-0.5, 0.5))
        entries = []
        for _ in range(n):
            tau = int(rng.integers(-4, 1))
            index = tuple(int(v) for v in rng.integers(-3, 4, size=D.dim))
            cube = GridCube(0, tau, index, D)
            entries.append((cube, cube.volume * float(10.0 ** rng.uniform(-2.0, 1.3))))
        yield alpha, entries


HEAVY_MATRICES = [
    [[2, 0], [0, 4]],
    [[4, 0], [0, 2]],
    [[4, 1], [1, 3]],
    [[2, -2], [2, 2]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
]


def _left_fold(masses, members) -> float:
    return reduce(operator.add, (masses[i] for i in members))


def _heavy_oracle(boxes, masses, ids, sigma, tau, bound) -> dict:
    """star_groups kept where the left-folded mass exceeds the bound, each
    with its mass."""
    groups = star_groups(boxes, ids, sigma, tau)
    return {n: (members, _left_fold(masses, members)) for n, members in groups.items()
            if _mass_sum(masses, members) > bound}


@settings(max_examples=60, deadline=None)
@given(matrix=st.sampled_from(HEAVY_MATRICES), sigma=st.integers(-3, 0),
       tau=st.integers(-4, 1), seed=st.integers(0, 2 ** 32 - 1),
       share=st.floats(0.0, 1.0, exclude_max=True))
def test_heavy_doubles_are_the_star_groups_over_the_bound(matrix, sigma, tau, seed, share):
    # entries drawn as found_instances draws them; the ids are a subset in
    # any order, and the bound a share of their total
    D = validate_dilation(matrix)
    rng = default_rng(seed)
    cubes = [GridCube(0, int(rng.integers(-4, 1)),
                      tuple(int(v) for v in rng.integers(-3, 4, size=D.dim)), D)
             for _ in range(int(rng.integers(1, 15)))]
    masses = [Q.volume * float(10.0 ** rng.uniform(-2.0, 1.3)) for Q in cubes]
    ids = rng.permutation(len(cubes))[:int(rng.integers(1, len(cubes) + 1))].tolist()
    total = _mass_sum(masses, ids)

    def heavy(bound, boxes=None):
        boxes = _box_set(cubes) if boxes is None else boxes
        got = _heavy_doubles(boxes, masses, ids, total, sigma, tau, bound)
        return [(n, members, mass.hex()) for n, (members, mass) in got.items()]

    def oracle(bound):
        want = _heavy_oracle(_box_set(cubes), masses, ids, sigma, tau, bound)
        return [(n, members, mass.hex()) for n, (members, mass) in want.items()]

    assert heavy(share * total) == oracle(share * total)
    # a double whose mass equals the bound is not heavy (no double holds a
    # cube coarser than its grid's doubles)
    groups = star_groups(_box_set(cubes), ids, sigma, tau)
    for n in list(groups)[:3]:
        level = _mass_sum(masses, groups[n])
        assert heavy(level) == oracle(level)
        assert n not in [key for key, _, _ in heavy(level)]
    # a total within the bound computes no box
    for bound in (total, 2.0 * total):
        boxes = _box_set(cubes)
        assert heavy(bound, boxes) == [] and boxes._pulled == {}


def _near_indices(Q, sigma, tau):
    """Every index n whose double could hold Q: Q's center pulled back into
    the (sigma, tau) grid lies in the double's [n - 1/2, n + 3/2]^d."""
    D = Q.dilation
    c = np.linalg.solve(D.power(tau), cube_center(Q)) / 2.0 ** sigma
    return product(*(range(int(np.ceil(v - 1.5 - 1e-9)), int(np.floor(v + 0.5 + 1e-9)) + 1)
                     for v in c))


@pytest.mark.parametrize("matrix", FOUND_MATRICES)
def test_batched_relations_match_parallelepiped_oracles(matrix):
    # star_groups and the box-set masks answer containment and overlap for
    # a whole list of cubes at once; entry by entry they must agree with the
    # vertex test cube_contains and the separating-axis _interiors_meet.
    # Each cube, host and double is realized once per instance.
    D = validate_dilation(matrix)
    diagonal = np.allclose(D.matrix, np.diag(np.diag(D.matrix)))
    checked = {"members": 0, "outsiders": 0, "within": 0, "pairs": 0}
    for _, entries in found_instances(D, 30):
        cubes = [cube for cube, _ in entries]
        cubes += [GridCube(-1, c.tau, tuple(2 * v + 1 for v in c.index), D)
                  for c in cubes[:3]]
        realized = [Q.realize() for Q in cubes]
        verts = np.stack([p.vertices() for p in realized])
        boxes = _box_set(cubes)
        ids = list(range(len(cubes)))[::-1]
        for sigma, tau in ((0, -3), (0, 0), (0, 1), (-1, -1), (-2, 0)):
            groups = star_groups(boxes, ids, sigma, tau)
            near = {}
            for i in ids:
                for n in _near_indices(cubes[i], sigma, tau):
                    near.setdefault(n, []).append(i)
            doubles = {n: expand_cube(GridCube(sigma, tau, n, D), 2.0) for n in {*groups, *near}}
            for n, members in groups.items():
                # members keep the order of ids, and every one is inside
                assert members == [i for i in ids if i in members], (sigma, tau, n)
                assert _holds(doubles[n], verts[members]).all()
                checked["members"] += len(members)
            # and every cube inside a double is in that double's group
            for n, near_ids in near.items():
                for i, held in zip(near_ids, _holds(doubles[n], verts[near_ids]).tolist()):
                    assert (i in groups.get(n, [])) == held, (sigma, tau, n, i)
                    checked["outsiders"] += not held
        parents = [tau_parent(c) for c in cubes if c.sigma == 0]
        # sigma = -1 quarters of the parents: one within_each call meets
        # hosts of mixed (sigma, tau) levels, some holding their cube
        quarters = [GridCube(-1, p.tau, tuple(2 * v for v in p.index), D) for p in parents[:4]]
        hosts = cubes + parents + quarters
        for factor in (1.0, 2.0):
            inside = boxes.within_each(_cube_rows(hosts), factor)
            for h, host in enumerate(hosts):
                grown = expand_cube(host, factor)
                assert inside[:, h].tolist() == _holds(grown, verts).tolist()
                checked["within"] += int(inside[:, h].sum())
        meets = boxes.overlap_matrix()
        for k, a in enumerate(cubes):
            for m in range(k + 1, len(cubes)):
                meet = _interiors_meet(realized[k], realized[m])
                if diagonal:
                    assert meets[k, m] == meets[m, k] == meet, (a, cubes[m])
                elif meet:
                    assert meets[k, m] and meets[m, k], (a, cubes[m])
                checked["pairs"] += meet
    assert min(checked.values()) >= 20, checked


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]]] + FOUND_MATRICES)
def test_box_levels_are_bit_identical_to_a_product_per_level(matrix):
    # a box set pulls each tau once and scales the pulled min and max by
    # 2^-sigma.  Scaling by a power of two is exact, so every level must
    # equal, bit for bit, the box of its own product 2^-sigma A^-tau x,
    # whether its tau was pulled alone, with every other tau in one stacked
    # product (pull_levels), or by a row selection, which pulls its own rows
    D = validate_dilation(matrix)
    cubes = [cube for _, entries in found_instances(D, 4) for cube, _ in entries]
    cubes += [GridCube(-1, c.tau, tuple(2 * v + 1 for v in c.index), D) for c in cubes[:4]]
    verts = np.stack([Q.vertices() for Q in cubes])
    boxes = _box_set(cubes)
    together = _box_set(cubes)
    together.pull_levels(range(-6, 3))
    ids = list(range(len(cubes)))[1::2]
    picked = _box_set(cubes).rows(ids)
    levels = list(product(range(-8, 3), range(-6, 3)))
    # ask in a shuffled order, so a tau is first pulled at any sigma
    for k in default_rng(3).permutation(len(levels)):
        sigma, tau = levels[k]
        pulled = verts @ (2.0 ** -sigma * D.power(-tau)).T
        lo, hi = pulled.min(axis=1), pulled.max(axis=1)
        want = (lo, hi, 1e-9 * np.maximum(1.0, np.abs(lo) + np.abs(hi)))
        for box_set in (boxes, together):
            got = _split_box(box_set._pull(tau) * 2.0 ** -sigma)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (sigma, tau)
        got = _split_box(picked._pull(tau) * 2.0 ** -sigma)
        assert all(np.array_equal(a, b[ids]) for a, b in zip(got, want)), (sigma, tau)


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]], [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
                                    [[4, 1], [1, 3]], [[2, 1], [0, 2]], [[2, -2], [2, 2]]])
def test_box_set_vertices_are_the_realized_vertices_bit_for_bit(matrix):
    # _BoxSet builds every cube's vertices in one pass over the list,
    # vertex-major; each cube's column must be its own realize().vertices()
    # whatever the cubes around it, and a row selection must be the build
    # of its sub-list
    D = validate_dilation(matrix)
    cubes = [cube for _, entries in found_instances(D, 6) for cube, _ in entries]
    cubes += [GridCube(sigma, c.tau + 3, tuple(v * 2 ** -sigma + 1 for v in c.index), D)
              for sigma, c in zip((-1, -2, -3, -5), cubes)]
    assert {c.sigma for c in cubes} == {0, -1, -2, -3, -5}
    boxes = _box_set(cubes)
    for k, Q in enumerate(cubes):
        assert boxes.verts[:, k].tobytes() == Q.realize().vertices().tobytes(), Q
    ids = list(range(len(cubes)))[::-3]
    sub = boxes.rows(ids)
    built = _box_set([cubes[k] for k in ids])
    assert sub.verts.tobytes() == built.verts.tobytes()
    assert sub.ident.tobytes() == built.ident.tobytes()


@pytest.mark.parametrize("matrix", PREDICATE_MATRICES + [[[2, 0], [0, 17]]])
def test_row_rules_are_the_cube_rules_bit_for_bit(matrix):
    # the decompositions compute on (sigma, tau, *index) rows, GridCube on
    # its fields: volume, tau-parent, origin and basis must agree bit for
    # bit at every sigma in [-5, 0] and tau in [-60, 60].  A volume is the
    # scalar power in Python floats, row by row, also in a box set: numpy's
    # vector power differs from it in the last bit on some (a, tau)
    D = validate_dilation(matrix)
    rng = default_rng(11)
    cubes = [GridCube(sigma, tau, tuple(int(v) for v in rng.integers(-40, 41, size=D.dim)), D)
             for sigma in range(-5, 1) for tau in range(-60, 61)]
    rows = _cube_rows(cubes)
    volume = _box_set(cubes).volume.tolist()
    origin, basis = cube_frames(D, rows[:, :2], rows[:, 2:])
    for k, (Q, row) in enumerate(zip(cubes, rows.tolist())):
        scalar = (2.0 ** (D.dim * Q.sigma)) * (D.det_scale ** Q.tau)
        assert row_volume(D, row).hex() == Q.volume.hex() == volume[k].hex() == scalar.hex(), Q
        parent = tau_parent(Q)
        assert row_tau_parent(D, row) == (parent.sigma, parent.tau, *parent.index), Q
        realized = Q.realize()
        assert origin[k].tobytes() == realized.origin.tobytes(), Q
        assert basis[k].tobytes() == realized.basis.tobytes(), Q


def test_values_kept_by_results_have_no_instance_dict(diag_dilation):
    # cubes, parallelepipeds, tendril bounds, primitives and trace events
    # are slotted: nothing derived can be stashed on them
    cube = GridCube(-1, -2, (3, -1), diag_dilation)
    quad = expand_cube(cube, 4.0)
    values = [cube, quad, tendril_of(cube), ExceptionalPrimitive("quad", cube, 1.0),
              TraceEvent(kind="step", sigma=0, tau=-1)]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(value, "_cache", None)
    # a primitive keeps its cube and builds its region on each call
    got = ExceptionalPrimitive("quad", cube, 1.0).region()
    assert got.origin.tobytes() == quad.origin.tobytes()
    assert got.basis.tobytes() == quad.basis.tobytes()
    tendril = ExceptionalPrimitive("tendril", cube, 1.0)
    got, want = tendril.region(), tendril_of(cube)
    assert got is not tendril.region() and got.cube == want.cube == cube
    for name in ("pull", "basis", "origin", "box_lo", "box_hi"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]]] + FOUND_MATRICES)
def test_broadcast_relations_equal_the_host_by_host_loop(matrix):
    # within_each and overlap_matrix compare every host at once on rows
    # gathered from each host's level; the reference takes one host at a
    # time on its level's box, and the masks must be equal
    D = validate_dilation(matrix)
    for _, entries in found_instances(D, 10):
        cubes = [cube for cube, _ in entries]
        cubes += [GridCube(-1, c.tau, tuple(2 * v + 1 for v in c.index), D) for c in cubes[:3]]
        hosts = cubes + [tau_parent(c) for c in cubes if c.sigma == 0]
        boxes = _box_set(cubes)
        scale, index = boxes.scale, boxes.index
        for factor in (1.0, 2.0):
            reach = 0.5 * factor
            loop = []
            for host in hosts:
                lo, hi, tol = _split_box(boxes._pull(host.tau) * 2.0 ** -host.sigma)
                n = np.asarray(host.index)
                out = (lo < n + 0.5 - reach - tol) | (hi > n + 0.5 + reach + tol)
                same = (scale[:, 0] == host.sigma) & (scale[:, 1] == host.tau)
                loop.append(np.where(same, np.all(index == n, axis=1), ~np.any(out, axis=1)))
            assert np.array_equal(boxes.within_each(_cube_rows(hosts), factor),
                                  np.stack(loop, axis=1))
        meets = np.zeros((len(cubes), len(cubes)), dtype=bool)
        for m, outer in enumerate(cubes):
            lo, hi, tol = _split_box(boxes._pull(outer.tau) * 2.0 ** -outer.sigma)
            gap = np.minimum(hi, index[m] + 1) - np.maximum(lo, index[m])
            meets[:, m] = np.all(gap > tol, axis=1)
        inner_first = boxes.volume[:, None] <= boxes.volume[None, :]
        loop = np.where(inner_first, meets, meets.T)
        loop = np.where(np.all(scale[:, None] == scale[None, :], axis=2),
                        np.all(index[:, None] == index[None, :], axis=2), loop)
        assert np.array_equal(boxes.overlap_matrix(), loop)


# ---------------------------------------------------------------------------
# whitney selection: small frozen instances


def test_single_heavy_entry_selects_own_cube(diag_dilation):
    alpha = 1.0
    Q = GridCube(0, 0, (0, 0), diag_dilation)
    res = whitney_decompose([(Q, 2.0 * alpha)], alpha)
    assert len(res.selected) == 1
    S = res.selected[0]
    assert (S.tau, S.index) == (0, (0, 0))
    assert res.assigned == {0: 0}
    assert res.leftover == []
    assert verify_whitney(res, [(Q, 2.0 * alpha)], alpha).passed


def test_two_identical_cubes_share_one_selection(diag_dilation):
    alpha = 0.5
    Q = GridCube(0, -1, (2, 2), diag_dilation)
    lam = alpha * Q.volume
    entries = [(Q, lam), (GridCube(0, -1, (2, 2), diag_dilation), lam)]
    res = whitney_decompose(entries, alpha)
    assert len(res.selected) == 1
    assert res.selected[0].index == (2, 2)
    assert set(res.assigned) == {0, 1}
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_sparse_light_entries_all_leftover(diag_dilation):
    alpha = 1.0
    entries = []
    for i in range(10):
        cube = GridCube(0, -1, (3 * i, -3 * i), diag_dilation)
        entries.append((cube, 1e-3 * alpha * cube.volume))
    res = whitney_decompose(entries, alpha)
    assert res.selected == []
    assert sorted(res.leftover) == list(range(10))
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_heavy_stack_selects_coarser_host(diag_dilation):
    alpha = 1.0
    Q = GridCube(0, 0, (0, 0), diag_dilation)
    entries = [(Q, 0.9 * alpha)] * 18
    res = whitney_decompose(entries, alpha)
    assert len(res.selected) == 1
    assert res.selected[0].tau == 1
    assert len(res.assigned) == 18
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_sweep_selects_where_the_remaining_total_barely_fills_a_double(diag_dilation):
    # The sweep skips a level only when the whole remaining mass is within
    # alpha a^t.  Here it exceeds alpha a^0 by half, and the double of the
    # tau = 0 cube holds both entries, so that double is selected; a level
    # skipped too eagerly would leave the tau = -1 entry to select itself.
    alpha = 1.0
    entries = [(GridCube(0, 0, (0, 0), diag_dilation), 0.9 * alpha),
               (GridCube(0, -1, (0, 0), diag_dilation), 0.6 * alpha)]
    res = whitney_decompose(entries, alpha)
    assert [(s.tau, s.index) for s in res.selected] == [(0, (0, 0))]
    assert res.assigned == {0: 0, 1: 0}
    assert verify_whitney(res, entries, alpha).passed


def _nested_chain(D, alpha):
    """Six nested cubes, tau = 0 down to -5, each carrying density 0.3 alpha."""
    entries = []
    for tau in range(0, -6, -1):
        cube = GridCube(0, tau, (0, 0), D)
        entries.append((cube, 0.3 * alpha * cube.volume))
    return entries


def test_nested_chain_density_repair(diag_dilation):
    # No single level of the nested chain is heavy, but the leftover chain
    # would exceed density one, so the sweep must select a cube partway
    # down the chain.
    alpha = 1.0
    entries = _nested_chain(diag_dilation, alpha)
    res = whitney_decompose(entries, alpha)
    assert len(res.selected) == 1
    assert res.selected[0].tau == -3
    assert sorted(res.leftover) == [0, 1, 2]
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_nested_chain_sums_entries_per_cube(diag_dilation):
    # Splitting every entry of the chain in two leaves each cube's density,
    # so the repair selects the same cube and leaves the same cubes over.
    alpha = 1.0
    entries = []
    for cube, lam in _nested_chain(diag_dilation, alpha):
        entries += [(cube, 0.5 * lam), (cube, 0.5 * lam)]
    res = whitney_decompose(entries, alpha)
    assert [(s.tau, s.index) for s in res.selected] == [(-3, (0, 0))]
    assert res.leftover == [0, 1, 2, 3, 4, 5]
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_density_repair_selects_sibling_chains_in_order(diag_dilation):
    # A light root with two heavy children inside it: each chain crosses
    # alpha at its child, and the children are selected in index order.
    alpha = 1.0
    left = GridCube(0, -1, (0, 0), diag_dilation)
    right = GridCube(0, -1, (1, 3), diag_dilation)
    entries = [(GridCube(0, 0, (0, 0), diag_dilation), 0.1 * alpha),
               (right, 0.95 * alpha * right.volume),
               (left, 0.95 * alpha * left.volume)]
    res = whitney_decompose(entries, alpha)
    assert [(s.tau, s.index) for s in res.selected] == [(-1, (0, 0)), (-1, (1, 3))]
    assert res.assigned == {2: 0, 1: 1}
    assert res.leftover == [0]
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_merge_nested_folds_contained_selections(diag_dilation):
    # selections are (sigma, tau, *index) rows
    big, inner, apart = (0, 0, 0, 0), (0, -1, 1, 3), (0, -1, 4, 4)
    selected = [inner, big, apart]
    assigned = {0: 0, 1: 1, 2: 0, 3: 2}
    _merge_nested(diag_dilation, selected, assigned)
    assert selected == [None, big, apart]
    assert assigned == {0: 1, 1: 1, 2: 1, 3: 2}


def test_merge_nested_rejects_overlap_without_nesting():
    # under a shear a finer cube can straddle a coarser cube's boundary
    D = validate_dilation([[4, 1], [1, 3]])
    big, straddling = GridCube(0, 0, (0, 0), D), GridCube(0, -1, (0, 0), D)
    assert _interiors_meet(big.realize(), straddling.realize())
    assert not cube_contains(expand_cube(big, 1.0), straddling)
    with pytest.raises(NumericalFailureError):
        _merge_nested(D, [(0, 0, 0, 0), (0, -1, 0, 0)], {})


def test_whitney_decompose_leaves_no_reference_cycle(diag_dilation):
    # The density repair walks its tree with an explicit stack: a call must
    # free everything it built on return, leaving nothing for the collector.
    entries = _nested_chain(diag_dilation, 1.0)
    whitney_decompose(entries, 1.0)
    gc.collect()
    gc.disable()
    try:
        whitney_decompose(entries, 1.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_density_guard_lifts_an_overloaded_double(diag_dilation):
    # The sweep and the repair leave the second cube at tau = -2, where its
    # double holds 0.254 > 16 alpha |S| = 0.25; the guard lifts it to its
    # tau parent.  Without the guard condition 1 fails on this instance.
    alpha = 1.0
    entries = [(GridCube(0, -3, (0, 2), diag_dilation), 0.175),
               (GridCube(0, -3, (2, 2), diag_dilation), 0.079)]
    res = whitney_decompose(entries, alpha)
    assert [(s.tau, s.index) for s in res.selected] == [(-1, (-1, -1)), (-1, (0, 0))]
    rep = verify_whitney(res, entries, alpha)
    assert rep.passed, rep.failures()


def test_empty_instance_is_vacuous(diag_dilation):
    res = whitney_decompose([], 1.0)
    assert res.selected == [] and res.assigned == {} and res.leftover == []
    assert verify_whitney(res, [], 1.0).passed


def test_budget_guard_on_extreme_mass_ratio(diag_dilation):
    Q = GridCube(0, 0, (0, 0), diag_dilation)
    with pytest.raises(BudgetExceededError):
        whitney_decompose([(Q, 1.0)], alpha=1e-200)
    # mass / alpha past the float range: the ladder spends its level budget
    # before a^t overflows, as it does at any finite ratio
    with pytest.raises(BudgetExceededError):
        whitney_decompose([(Q, 1e10)], alpha=1e-300)
    # under diag(10, 10), a = 100 and 100.0 ** 155 overflows inside the
    # budget: that level's threshold exceeds every finite total, so the
    # Whitney ladder and stopping_time's tau0 climb both stop below it
    D = validate_dilation([[10, 0], [0, 10]])
    entries = [(GridCube(0, 0, (0, 0), D), 1e9)]
    res = whitney_decompose(entries, 1e-300)
    assert [S.tau for S in res.selected] == [154]
    assert verify_whitney(res, entries, 1e-300).passed
    stop = stopping_time(res.selected, entries, 1e-300)
    assert stop.tau0 == 155
    assert verify_stopping(stop, res.selected, entries, 1e-300).passed
    # at mass 1e10 the density guard lifts the tau-154 selection to its tau
    # parent at 155, whose volume 100^155 has no float value
    with pytest.raises(BudgetExceededError, match=r"\*\* 155 leaves the float range"):
        whitney_decompose([(GridCube(0, 0, (0, 0), D), 1e10)], 1e-300)


def test_powers_past_the_float_range_exceed_the_budget():
    # every row rule's a^tau: a cube's volume, an atom's amplitude and the
    # stopping thresholds, all through grid.det_power
    D = validate_dilation([[10, 0], [0, 10]])
    assert GridCube(0, 154, (0, 0), D).volume == D.det_scale ** 154
    assert row_volume(D, (-1, 154)) == 0.25 * D.det_scale ** 154
    with pytest.raises(BudgetExceededError):
        GridCube(0, 155, (0, 0), D).volume
    with pytest.raises(BudgetExceededError):
        row_volume(D, (0, 155, 0, 0))
    with pytest.raises(BudgetExceededError):
        make_atom(GridCube(0, -155, (0, 0), D), "haar", 0)
    assert det_power(D.det_scale, -400) == 0.0


def test_verifier_catches_undersized_selection(diag_dilation):
    # Hand-built result claiming the cube hosts far more mass than the
    # star-mass condition allows: the verifier must fail with a witness.
    alpha = 1.0
    Q = GridCube(0, 0, (0, 0), diag_dilation)
    entries = [(Q, 100.0 * alpha)]
    fake = WhitneyResult(selected=[Q], assigned={0: 0}, leftover=[], alpha=alpha)
    rep = verify_whitney(fake, entries, alpha)
    assert not rep.passed
    assert any(name == "condition1_star_mass" for name, _ in rep.failures())


def test_random_instances_verify_and_are_deterministic(diag_dilation):
    alpha = 0.7
    for seed in range(30):
        entries = random_instance(diag_dilation, alpha, 40, seed)
        res = whitney_decompose(entries, alpha)
        rep = verify_whitney(res, entries, alpha)
        assert rep.passed, (seed, rep.failures())
        res2 = whitney_decompose(entries, alpha)
        assert [(s.tau, s.index) for s in res2.selected] == [
            (s.tau, s.index) for s in res.selected
        ]
        assert res2.assigned == res.assigned and res2.leftover == res.leftover


def _whitney_failures(matrix, alpha, rows):
    D = validate_dilation(matrix)
    entries = [(GridCube(0, tau, index, D), mass) for tau, index, mass in rows]
    return verify_whitney(whitney_decompose(entries, alpha), entries, alpha).failures()


# Known verifier failures on whitney_decompose's own output, from the
# instances of found_instances.  Each test states the verifier's verdict
# as it should be and fails on the recorded witness; any other outcome,
# the wrong witness or a pass, fails the test outright.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the 16-alpha guard lifts S to its tau-parent, "
                          "multiplying |S| by |det A| = 24 > 16")
def test_whitney_total_volume_under_det_24():
    failures = _whitney_failures(
        np.diag([2.0, 3.0, 4.0]), 0.7210934041928476,
        [(0, (1, -1, 3), 14.795438088604186)])
    known = [("condition2_total_volume", "sum |S| = 24 > 20.5181")]
    if failures not in ([], known):
        pytest.fail(f"the known failure changed: {failures}")
    assert failures == [], failures


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="leftovers overlap without nesting, which the "
                          "density repair's containment tree does not see")
def test_whitney_leftover_density_under_shear():
    failures = _whitney_failures(
        [[4.0, 1.0], [1.0, 3.0]], 0.6334075780828453,
        [(-4, (-2, -1), 2.7251945599404263e-05),
         (-3, (-1, -2), 5.573249403672814e-05),
         (-4, (3, 1), 2.224246275363103e-06),
         (0, (0, 0), 0.24293671138841502)])
    known = [("condition3_leftover_density",
              "leftover density 0.674498 > alpha at GridCube(sigma=0, tau=0, "
              "index=(0, 0)) (conservative, non-nested leftovers)")]
    if failures not in ([], known):
        pytest.fail(f"the known failure changed: {failures}")
    assert failures == [], failures


# ---------------------------------------------------------------------------
# stopping time: frozen small instances


def test_huge_entry_stops_at_first_stage(diag_dilation):
    alpha = 1.0
    Q = GridCube(0, -2, (0, 0), diag_dilation)
    lam = 1e6 * alpha * Q.volume
    res = stopping_time([Q], [(Q, lam)], alpha)
    assert res.tau0 == 5
    assert res.kappa[0] == 5
    assert res.classification[0] == "C1"
    # The entry sits at the shared corner of four coarse windows, and all of
    # them carry its full mass above threshold, so all four are selected.
    selects = [ev for ev in res.trace if ev.kind == "select"]
    assert len(selects) == 4
    assert {(ev.sigma, ev.tau) for ev in selects} == {(0, 4)}
    assert stopping_hosts(res)[0] == ("q", 0, 4, (-1, -1))


def test_huge_alpha_yields_no_selections(diag_dilation):
    entries = random_instance(diag_dilation, 1.0, 12, seed=5)
    S_list = [GridCube(0, 1, (i, i), diag_dilation) for i in range(-6, 7)]
    alpha = 1e6 * sum(lam for _, lam in entries)
    usable = [(q, lam) for q, lam in entries]
    res = stopping_time(S_list, usable, alpha)
    assert all(kind == "C2" for kind in res.classification.values())
    assert not any(ev.kind == "select" for ev in res.trace)
    assert all(p.kind == "quad" for p in res.exceptional)
    hosts = stopping_hosts(res)
    for i, (q, _) in enumerate(usable):
        host = hosts[i]
        assert host[0] == "S"
        assert res.kappa[i] == S_list[host[1]].tau + 1


def test_multiple_hosts_repair_lifts_kappa(diag_dilation):
    alpha = 1e9
    Q = GridCube(0, -1, (0, 0), diag_dilation)
    S_small = GridCube(0, -1, (0, 0), diag_dilation)
    S_big = GridCube(0, 1, (0, 0), diag_dilation)
    res = stopping_time([S_small, S_big], [(Q, 1.0)], alpha)
    assert res.classification[0] == "C2"
    assert res.kappa[0] == S_big.tau + 1
    assert res.dimension_violations
    assert any(ev.kind == "repair" for ev in res.trace)
    rep = verify_stopping(res, [S_small, S_big], [(Q, 1.0)], alpha, seed=1)
    assert rep.passed, rep.failures()


def test_entry_without_host_rejected(diag_dilation):
    Q = GridCube(0, 0, (50, 50), diag_dilation)
    S = GridCube(0, 0, (0, 0), diag_dilation)
    with pytest.raises(InputInvalidError):
        stopping_time([S], [(Q, 1.0)], 1.0)


def test_jordan_dilation_rejected_for_stopping():
    D = validate_dilation(np.array([[2.0, 1.0], [0.0, 2.0]]))
    Q = GridCube(0, 0, (0, 0), D)
    with pytest.raises(NotNormalizedError):
        stopping_time([Q], [(Q, 1.0)], 1.0)


def _one_entry_stopping(D):
    Q = GridCube(0, -1, (2, -3), D)
    return [Q], [(Q, 1.0)], stopping_time([Q], [(Q, 1.0)], 1.0)


def test_verify_stopping_rejects_empty_entries(diag_dilation):
    S_list, _, res = _one_entry_stopping(diag_dilation)
    with pytest.raises(InputInvalidError, match="at least one entry"):
        verify_stopping(res, S_list, [], 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_verify_stopping_rejects_nonpositive_alpha(diag_dilation, alpha):
    S_list, entries, res = _one_entry_stopping(diag_dilation)
    with pytest.raises(InputInvalidError, match="alpha must be positive"):
        verify_stopping(res, S_list, entries, alpha)


def test_verify_stopping_rejects_kappa_missing_an_entry(diag_dilation):
    S_list, entries, res = _one_entry_stopping(diag_dilation)
    R = GridCube(0, -1, (3, -3), diag_dilation)
    with pytest.raises(InputInvalidError, match="kappa has no value for entry 1"):
        verify_stopping(res, S_list, entries + [(R, 1.0)], 1.0)


def _unit_and_child(D):
    """A unit cube of mass 5 beside a lighter cube of its double, at alpha 1."""
    return [(GridCube(0, 0, (0, 0), D), 5.0), (GridCube(0, -1, (1, 0), D), 0.5)]


@pytest.mark.parametrize("assigned, leftover, named", [
    ({}, [], "entry 0 is assigned or left over 0 times"),
    ({0: 0}, [], "entry 1 is assigned or left over 0 times"),
    ({0: 0, 1: 0}, [1], "entry 1 is assigned or left over 2 times"),
    ({0: 0}, [1, 1], "entry 1 is assigned or left over 2 times"),
    ({0: 0, 1: 0, 7: 0}, [], "entry id 7 is outside range"),
    ({-1: 0, 1: 0}, [0], "entry id -1 is outside range"),
    ({0: 0}, [1, 9], "entry id 9 is outside range"),
])
def test_verify_whitney_refuses_ids_that_do_not_partition_the_entries(
        diag_dilation, assigned, leftover, named):
    # mass 5 on a unit cube at alpha 1 has to be selected, yet the empty
    # result passed every check; entry 7 and leftover 9 raised IndexError,
    # and entry -1 wrapped around and passed
    entries = _unit_and_child(diag_dilation)
    wres = whitney_decompose(entries, 1.0)
    assert wres.assigned == {0: 0, 1: 0} and verify_whitney(wres, entries, 1.0).passed
    bad = WhitneyResult(wres.selected if assigned else [], assigned, leftover, 1.0)
    with pytest.raises(InputInvalidError, match=named):
        verify_whitney(bad, entries, 1.0)


@pytest.mark.parametrize("host", [1, 5, -1])
def test_verify_whitney_refuses_a_host_outside_the_selection(diag_dilation, host):
    # host 5 raised IndexError, and -1 read the last selected cube
    entries = _unit_and_child(diag_dilation)
    wres = whitney_decompose(entries, 1.0)
    bad = dataclasses.replace(wres, assigned={0: 0, 1: host})
    with pytest.raises(InputInvalidError, match=f"host {host} is outside range"):
        verify_whitney(bad, entries, 1.0)


def test_verify_stopping_refuses_a_primitive_outside_the_exceptional_set(diag_dilation):
    # primitive 99 raised IndexError, and -1 read the last primitive and
    # passed
    S_list, entries, res = _one_entry_stopping(diag_dilation)
    count = len(res.exceptional)
    for primitive in (99, -1, count):
        bad = dataclasses.replace(res, assigned_primitive={0: primitive})
        with pytest.raises(InputInvalidError,
                           match=rf"primitive {primitive} is outside range\({count}\)"):
            verify_stopping(bad, S_list, entries, 1.0)


def _every_entry_call(D):
    """Each public call that reads entries, as a function of (entries,
    alpha), on one valid stopping result."""
    S_list, entries, res = _one_entry_stopping(D)
    wres = whitney_decompose(entries, 1.0)
    return [
        lambda e, alpha: whitney_decompose(e, alpha),
        lambda e, alpha: verify_whitney(wres, e, alpha),
        lambda e, alpha: stopping_time(S_list, e, alpha),
        lambda e, alpha: verify_stopping(res, S_list, e, alpha),
        lambda e, alpha: replay_trace_masses(res, e),
    ]


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_every_entry_call_rejects_a_bad_mass(diag_dilation, lam):
    # a nan mass used to raise ValueError in whitney_decompose and an
    # infinite one OverflowError; verify_whitney and the replay checked
    # nothing
    entries = [(GridCube(0, -1, (2, -3), diag_dilation), lam)]
    for call in _every_entry_call(diag_dilation):
        with pytest.raises(InputInvalidError, match="masses must be nonnegative and finite"):
            call(entries, 1.0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0])
def test_every_alpha_call_rejects_a_bad_alpha(diag_dilation, alpha):
    # stopping_time accepted a nan alpha; the replay takes no alpha
    S_list, entries, _ = _one_entry_stopping(diag_dilation)
    for call in _every_entry_call(diag_dilation)[:-1]:
        with pytest.raises(InputInvalidError, match="alpha must be positive and finite"):
            call(entries, alpha)


def test_entries_of_two_dilations_are_rejected(diag_dilation):
    other = validate_dilation([[4, 0], [0, 2]])
    entries = [(GridCube(0, -1, (2, -3), diag_dilation), 1.0),
               (GridCube(0, -1, (2, -3), other), 1.0)]
    for call in _every_entry_call(diag_dilation):
        with pytest.raises(InputInvalidError, match="share one dilation"):
            call(entries, 1.0)


def test_cubes_of_another_dilation_than_the_entries_are_rejected(diag_dilation):
    # an S cube under diag(4, 2) beside a diag(2, 4) entry: its row was read
    # under the entries' dilation, and both verifiers passed the result
    other = validate_dilation([[4, 0], [0, 2]])
    S_list, entries, res = _one_entry_stopping(diag_dilation)
    wres = whitney_decompose(entries, 1.0)
    S = GridCube(0, 0, (0, 0), other)
    entry = [(GridCube(0, -1, (0, 0), diag_dilation), 1.0)]
    with pytest.raises(InputInvalidError, match="S cubes must share the entries' dilation"):
        stopping_time([S], entry, 1.0)
    with pytest.raises(InputInvalidError, match="S cubes must share the entries' dilation"):
        verify_stopping(res, [S], entries, 1.0)
    foreign = dataclasses.replace(wres, selected=[S])
    with pytest.raises(InputInvalidError,
                       match="selected cubes must share the entries' dilation"):
        verify_whitney(foreign, entries, 1.0)
    # an equal matrix validated twice is the same structure, so its S cube is
    # accepted and gives the original's result
    twin = GridCube(0, 0, (0, 0), validate_dilation([[2, 0], [0, 4]]))
    assert twin.dilation is diag_dilation
    original = stopping_time([GridCube(0, 0, (0, 0), diag_dilation)], entry, 1.0)
    assert repr(stopping_time([twin], entry, 1.0)) == repr(original)


# ---------------------------------------------------------------------------
# stopping time: pipeline instances and verification


def pipeline_instance(D, alpha, seed):
    """Whitney-decompose a random instance and keep the covered entries."""
    entries = random_instance(D, alpha, 40, seed)
    res = whitney_decompose(entries, alpha)
    if not res.selected:
        return None
    kept = [entries[i] for i in sorted(res.assigned)]
    return res.selected, kept


def test_pipeline_instances_pass_all_checks(diag_dilation):
    alpha = 0.7
    checked = 0
    seed = 0
    while checked < 10:
        built = pipeline_instance(diag_dilation, alpha, seed)
        seed += 1
        if built is None:
            continue
        S_list, kept = built
        res = stopping_time(S_list, kept, alpha)
        rep = verify_stopping(res, S_list, kept, alpha, seed=seed)
        assert rep.passed, (seed, rep.failures())
        checked += 1


# sheared, rotated, 3-D and swapped diagonal grids
BEYOND_DIAG24 = [
    [[4, 1], [1, 3]],
    [[2, -2], [2, 2]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
    [[4, 0], [0, 2]],
]


def found_pipeline_instances(matrix, count):
    """Whitney-decompose count found_instances and keep, for each with a
    selection, (alpha, selected cubes, covered entries)."""
    D = validate_dilation(matrix)
    for alpha, entries in found_instances(D, count):
        res = whitney_decompose(entries, alpha)
        if res.selected:
            yield alpha, res.selected, [entries[i] for i in sorted(res.assigned)]


@pytest.mark.parametrize("matrix", BEYOND_DIAG24)
def test_pipeline_instances_pass_all_checks_beyond_diag24(matrix):
    checked = 0
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 60)):
        res = stopping_time(S_list, kept, alpha)
        rep = verify_stopping(res, S_list, kept, alpha, seed=seed)
        assert rep.passed, (seed, rep.failures())
        checked += 1
    assert checked >= 40


def _stopping_primitives(kind, count=12):
    """(primitive, region) of every primitive of the given kind in the
    stopping results of count found_instances under diag(2, 4) and
    diag(4, 2)."""
    for matrix in ([[2, 0], [0, 4]], [[4, 0], [0, 2]]):
        for alpha, S_list, kept in found_pipeline_instances(matrix, count):
            for p in stopping_time(S_list, kept, alpha).exceptional:
                if p.kind == kind:
                    yield p, p.region()


def test_tendril_volume_term_formula():
    # stopping_time writes a tendril's term as the bare factor 2^sigma a^tau
    # and a quad's as the exact volume 4^d |S|
    seen = set()
    for kind in ("tendril", "quad"):
        for p, _ in _stopping_primitives(kind):
            D, (sigma, tau) = p.cube.dilation, (p.cube.sigma, p.cube.tau)
            want = ((2.0 ** sigma) * (D.det_scale ** tau) if kind == "tendril"
                    else (4.0 ** D.dim) * p.cube.volume)
            assert p.volume_term.hex() == want.hex(), p
            seen.add((kind, sigma))
    assert {("tendril", 0), ("tendril", -1), ("quad", 0)} <= seen


def test_exceptional_volume_is_check_i():
    # check (i) of verify_stopping and full-pipeline's exceptional_volume
    # line read one pair: the left sums of the volume terms, and of the
    # masses and S volumes under the bound C (alpha^-1 sum lam + sum |S|)
    failing = 0
    for matrix in ([[2, 0], [0, 4]], [[4, 1], [1, 3]]):
        for alpha, S_list, kept in found_pipeline_instances(matrix, 12):
            res = stopping_time(S_list, kept, alpha)
            for C in (100.0, 1e-3):
                total, bound = exceptional_volume(res, S_list, kept, alpha, C)
                assert total == _left_sum(p.volume_term for p in res.exceptional)
                assert bound == C * (_left_sum(lam for _, lam in kept) / alpha
                                     + _left_sum(S.volume for S in S_list))
                check = verify_stopping(res, S_list, kept, alpha, C=C).checks[0]
                assert check[:2] == ("i_volume_sum", total <= bound)
                failing += total > bound
    # C = 1e-3 makes check (i) fail on some instance
    assert failing > 0


def _region_areas(region, cells):
    """The area of the cells, on a cells^d grid over region.bbox() and on
    one of halved spacing, whose centers region.contains_points accepts."""
    lo, hi = region.bbox()
    areas = []
    for n in (cells, 2 * cells):
        h = (hi - lo) / n
        axes = [lo[j] + h[j] * (np.arange(n) + 0.5) for j in range(len(lo))]
        pts = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
        areas.append(np.count_nonzero(region.contains_points(pts)) * float(np.prod(h)))
    return areas


def test_quad_region_area_is_its_volume_term():
    # a quad's volume_term is the measure of the region the mask removes
    checked = 0
    for p, region in _stopping_primitives("quad"):
        coarse, fine = _region_areas(region, 100)
        assert abs(fine - p.volume_term) <= abs(fine - coarse) + 1e-9 * p.volume_term, p
        checked += 1
    assert checked >= 10


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: a tendril's volume_term is the bare "
                          "factor 2^sigma a^tau, 1e3-1e4 times below the area "
                          "of the region the mask removes")
def test_tendril_region_area_within_check_i_constant():
    # the region of each tendril, measured on a halved-spacing grid pair,
    # is at most C volume_term, the constant check (i) allows the sum
    ratios = []
    for p, region in _stopping_primitives("tendril"):
        coarse, fine = _region_areas(region, 100)
        ratios.append((fine - abs(fine - coarse)) / p.volume_term)
    assert len(ratios) >= 10
    assert max(ratios) <= C_STOP, f"area / volume_term up to {max(ratios):.4g}"


def test_classification_partitions_entries(diag_dilation):
    alpha = 0.7
    built = pipeline_instance(diag_dilation, alpha, seed=3)
    assert built is not None
    S_list, kept = built
    res = stopping_time(S_list, kept, alpha)
    assert set(res.classification) == set(range(len(kept)))
    assert set(res.classification.values()) <= {"C1", "C2"}
    assert set(res.kappa) == set(range(len(kept)))
    assert set(res.assigned_primitive) == set(range(len(kept)))


def test_sentinel_mutation_fails_host_check(diag_dilation):
    alpha = 0.7
    built = pipeline_instance(diag_dilation, alpha, seed=3)
    S_list, kept = built
    sentinel_cube = GridCube(0, -3, (10000, 10000), diag_dilation)
    sentinel_lam = 1e-6 * alpha * sentinel_cube.volume
    S_mut = list(S_list) + [sentinel_cube]
    kept_mut = list(kept) + [(sentinel_cube, sentinel_lam)]
    res = stopping_time(S_mut, kept_mut, alpha)
    sid = len(kept_mut) - 1
    assert res.classification[sid] == "C2"
    assert res.kappa[sid] == sentinel_cube.tau + 1

    broken = dict(res.kappa)
    broken[sid] -= 5
    mutated = res.__class__(
        kappa=broken,
        classification=res.classification,
        assigned_primitive=res.assigned_primitive,
        exceptional=res.exceptional,
        trace=res.trace,
        tau0=res.tau0,
        dimension_violations=res.dimension_violations,
        alpha=res.alpha,
    )
    rep = verify_stopping(mutated, S_mut, kept_mut, alpha, seed=7)
    assert not rep.passed
    assert any(name == "iii_kappa_exceeds_hosts" for name, _ in rep.failures())


def test_kappa_decrement_fails_stopped_mass_check(diag_dilation):
    # A second, light entry keeps the stage loop alive down to deep levels so
    # the trace records steps where the mutated index counts as stopped.
    alpha = 1.0
    Q = GridCube(0, -2, (0, 0), diag_dilation)
    lam = 1e6 * alpha * Q.volume
    # The light companion must sit outside the coarse-stage stars around the
    # origin (which reach out to |x| ~ 24), or it is absorbed immediately.
    far = GridCube(0, -2, (400, 400), diag_dilation)
    far_lam = 1e-3 * alpha * far.volume
    entries = [(Q, lam), (far, far_lam)]
    S_list = [Q, far]
    res = stopping_time(S_list, entries, alpha)
    assert res.kappa[0] == 5
    assert res.classification[1] == "C2"
    assert any(ev.kind == "step" and ev.tau == 0 for ev in res.trace)

    broken = dict(res.kappa)
    broken[0] = 0
    mutated = res.__class__(
        kappa=broken,
        classification=res.classification,
        assigned_primitive=res.assigned_primitive,
        exceptional=res.exceptional,
        trace=res.trace,
        tau0=res.tau0,
        dimension_violations=res.dimension_violations,
        alpha=res.alpha,
    )
    rep = verify_stopping(mutated, S_list, entries, alpha, seed=7)
    assert not rep.passed
    assert any(name == "iv_stopped_mass_bounded" for name, _ in rep.failures())


def test_dropped_primitive_fails_dilates_check(diag_dilation):
    # Two light entries, each stopped against its own S.  With entry 1's
    # quadrupled cube swapped for a far one, only 4 S_0 still covers part
    # of entry 1's dilates.  A quad certifies no pair, so both entries are
    # sampled, and entry 1 meets the points a sample-only check drew: the
    # witness is the one recorded before any certificate existed.
    alpha = 1e9
    S_list = [GridCube(0, -1, (2, -3), diag_dilation),
              GridCube(0, -1, (4, -3), diag_dilation)]
    entries = [(S, 1.0) for S in S_list]
    res = stopping_time(S_list, entries, alpha)
    assert res.assigned_primitive == {0: 0, 1: 1}
    assert verify_stopping(res, S_list, entries, alpha, seed=7).passed

    far = GridCube(0, -1, (40, 40), diag_dilation)
    exceptional = list(res.exceptional)
    exceptional[1] = dataclasses.replace(exceptional[1], cube=far)
    dropped = dataclasses.replace(res, exceptional=exceptional)
    levels = np.array([[-1, -3, -8]] * 2)
    assert _certified_dilates(dropped, _box_set(S_list), levels).tolist() == [[False] * 3] * 2
    rep = verify_stopping(dropped, S_list, entries, alpha, seed=7)
    assert rep.failures() == [
        ("ii_dilates_covered", "entry 1, level -1: 502 of 1000 samples escape")]


def _exhaustive_check_iv(result, entries, alpha, C_iv=32.0):
    """Check (iv) without the skip: every recorded step groups the stopped
    entries by double, whatever their total."""
    a = entries[0][0].dilation.det_scale
    boxes = _box_set([cube for cube, _ in entries])
    for ev in result.trace:
        if ev.kind != "step":
            continue
        stopped = [i for i in range(len(entries)) if result.kappa[i] <= ev.tau]
        bound = C_iv * alpha * (2.0 ** ev.sigma) * (a ** ev.tau)
        for n, members in star_groups(boxes, stopped, ev.sigma, ev.tau).items():
            mass = sum(entries[i][1] for i in members)
            if mass > bound * (1.0 + 1e-9):
                return ("iv_stopped_mass_bounded", False,
                        f"step ({ev.sigma}, {ev.tau}), cube {n}: "
                        f"stopped mass {mass:.6g} > {bound:.6g}")
    return ("iv_stopped_mass_bounded", True, None)


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]]] + BEYOND_DIAG24)
def test_stopped_mass_skip_matches_exhaustive_check(matrix):
    # verify_stopping skips a step of check (iv) when the whole stopped
    # mass is within the bound: each double's mass sums a subsequence of
    # the same nonnegative masses in the same order, and rounding is
    # monotone, so no double can exceed it.  Lowering every kappa by 1 or 2
    # stops more mass earlier, and C_iv = 1 lowers the bound, so that some
    # steps fail.  (The Jordan grid of FOUND_MATRICES has norm_power 2,
    # which stopping_time rejects.)
    seen = {"skipped": 0, "grouped": 0, "passed": 0, "failed": 0}
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 40)):
        a = kept[0][0].dilation.det_scale
        res = stopping_time(S_list, kept, alpha)
        for shift, C_iv in product((0, -1, -2), (32.0, 1.0)):
            shifted = dataclasses.replace(
                res, kappa={i: k + shift for i, k in res.kappa.items()})
            check = verify_stopping(shifted, S_list, kept, alpha, C_iv=C_iv,
                                    seed=seed).checks[-1]
            assert check == _exhaustive_check_iv(shifted, kept, alpha, C_iv), (seed, shift, C_iv)
            seen["passed" if check[1] else "failed"] += 1
            for ev in shifted.trace:
                if ev.kind == "step":
                    limit = C_iv * alpha * 2.0 ** ev.sigma * a ** ev.tau * (1.0 + 1e-9)
                    total = sum(lam for i, (_, lam) in enumerate(kept)
                                if shifted.kappa[i] <= ev.tau)
                    seen["skipped" if total <= limit else "grouped"] += 1
    assert min(seen.values()) >= 5, seen


def test_stopped_mass_check_judges_doubles_not_the_total(diag_dilation):
    # Two far-apart entries, both stopped at the one recorded step, each
    # alone in its double there.  Their total exceeds the bound, so the step
    # is grouped; the verdict is then each double's, within the 1e-9 slack.
    D, alpha = diag_dilation, 1.0
    S_list = [GridCube(0, -2, (0, 0), D), GridCube(0, -2, (400, 400), D)]
    bound = 32.0 * alpha * D.det_scale ** -2
    cases = [
        ((0.75 * bound, 0.75 * bound), True, None),
        ((bound * (1.0 + 5e-10), 0.5 * bound), True, None),
        ((1.25 * bound, 0.5 * bound), False,
         f"step (0, -2), cube (0, 0): stopped mass {1.25 * bound:.6g} > {bound:.6g}"),
    ]
    for masses, ok, witness in cases:
        entries = list(zip(S_list, masses))
        assert sum(masses) > bound * (1.0 + 1e-9)
        res = dataclasses.replace(stopping_time(S_list, entries, alpha), kappa={0: -2, 1: -2},
                                  trace=[TraceEvent(kind="step", sigma=0, tau=-2)])
        check = verify_stopping(res, S_list, entries, alpha, seed=7).checks[-1]
        assert check == ("iv_stopped_mass_bounded", ok, witness), masses
        assert check == _exhaustive_check_iv(res, entries, alpha), masses


def _dilate_samples(entries, levels, seed):
    """(entry, level position, points) for every pair of check (ii), drawn
    from the random stream the way verify_stopping draws them."""
    D = entries[0][0].dilation
    n = STOPPING_SAMPLES
    rng = default_rng(seed)
    ball = rng.normal(size=(n, D.dim))
    ball = ball / np.linalg.norm(ball, axis=1, keepdims=True)
    ball = ball * (rng.random((n, 1)) ** (1.0 / D.dim))
    for i, (cube, _) in enumerate(entries):
        base = cube.realize()
        x = base.origin + rng.random((n, D.dim)) @ base.basis.T
        for k, j in enumerate(levels[i].tolist()):
            yield i, k, x + ball @ D.power(j).T


def _covers_by_regions(result, kept, levels):
    """The certificate one entry and level at a time, through the owner's
    own region(): for a tendril, the clamped-coordinate bound at the pulled
    vertices plus the Frobenius norm of the pulled spread, within radius -
    slack; a quad certifies nothing."""
    D = kept[0][0].dilation
    out = np.zeros(levels.shape, dtype=bool)
    for i, (cube, _) in enumerate(kept):
        prim = result.exceptional[result.assigned_primitive[i]]
        if prim.kind == "quad":
            continue
        region = prim.region()
        spreads = np.stack([D.power(j) for j in levels[i].tolist()])
        far = np.sqrt(clamped_sq(region, region.pull @ cube.vertices().T - region.origin)).max()
        reach = np.sqrt(np.square(region.pull @ spreads).sum(axis=(1, 2)))
        out[i] = far + reach <= region.radius - region.slack
    return out


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]]] + BEYOND_DIAG24)
def test_certified_dilates_are_covered(matrix):
    # Soundness of the certificate: it decides every pair as the owner's own
    # region() does (_covers_by_regions), and whenever it accepts a pair, the
    # assigned primitive accepts the pair's samples, the cube's vertices,
    # and the vertices pushed by A^j along the axes, A^j's singular
    # directions and 256 fixed directions.  At alpha the entries stop
    # against tendril bounds; at 1e6 alpha nothing is selected and every
    # entry stops against its quadrupled S, whose pairs all go to sampling.
    # kappa + 4 grows the dilates until a share of the tendril pairs falls
    # to sampling.
    D = validate_dilation(matrix)
    d = D.dim
    rng = default_rng(53)
    dirs = rng.normal(size=(256, d))
    dirs = np.concatenate([dirs / np.linalg.norm(dirs, axis=1, keepdims=True), np.eye(d)])
    # (primitive kind, kappa shift) -> [sampled, certified] pairs
    counts = {key: [0, 0] for key in product(("tendril", "quad"), (0, 4))}
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 24)):
        boxes = _box_set([cube for cube, _ in kept])
        for scale, shift in product((1.0, 1e6), (0, 4)):
            res = stopping_time(S_list, kept, scale * alpha)
            kappa = np.array([res.kappa[i] for i in range(len(kept))]) + shift
            levels = kappa[:, None] - np.array([1, 3, 8])
            certified = _certified_dilates(res, boxes, levels)
            # the stacked pass decides as each owner's region() would
            assert np.array_equal(certified, _covers_by_regions(res, kept, levels))
            for i, k, pts in _dilate_samples(kept, levels, seed):
                prim = res.exceptional[res.assigned_primitive[i]]
                counts[prim.kind, shift][bool(certified[i, k])] += 1
                if not certified[i, k]:
                    continue
                power = D.power(levels[i, k])
                push = np.concatenate([dirs, np.linalg.svd(power)[2]])
                push = np.concatenate([push, -push]) @ power.T
                verts = kept[i][0].vertices()
                pushed = (verts[:, None, :] + push[None, :, :]).reshape(-1, d)
                where = (seed, scale, shift, i, k)
                assert np.all(prim.contains_points(pts)), where
                assert np.all(prim.contains_points(verts)), where
                assert np.all(prim.contains_points(pushed)), where
    # most plain tendril pairs are settled by geometry, and kappa + 4
    # leaves a share to sampling; no quad pair is settled
    sampled, sure = counts["tendril", 0]
    assert sure > 4 * sampled, counts
    assert min(counts["tendril", 4]) > 0, counts
    assert counts["quad", 0][0] > 0 and counts["quad", 4][0] > 0, counts
    assert counts["quad", 0][1] == counts["quad", 4][1] == 0, counts


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]]] + BEYOND_DIAG24)
def test_sampling_every_pair_gives_the_certified_report(matrix, monkeypatch):
    # the certificate only skips pairs whose samples would all be accepted,
    # and the random stream advances past the skipped entries' draws, so a
    # check that samples every pair reports the same outcome and witness;
    # a call whose pairs are all certified creates no generator.  kappa + 4
    # leaves pairs to sampling; the last entry's kappa + 5 or + 6 grows its
    # dilates past the exceptional set, so some of its points escape after
    # certified entries, and the witness counts them, so it moves with the
    # points; a kappa forced to -100 fails check (iii) as well
    import anisomax.decomposition as decomposition

    certify = decomposition._certified_dilates
    made = []
    default_rng_ = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed)
                        or default_rng_(seed))
    seen = {"no generator": 0, "generator": 0, "escape after a certified entry": 0}
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 20)):
        res = stopping_time(S_list, kept, alpha)
        last = len(kept) - 1
        variants = [res, dataclasses.replace(res, kappa={i: k + 4 for i, k in res.kappa.items()}),
                    dataclasses.replace(res, kappa={**res.kappa, last: -100})]
        variants += [dataclasses.replace(res, kappa={**res.kappa, last: res.kappa[last] + grow})
                     for grow in (5, 6)]
        for variant in variants:
            made.clear()
            report = verify_stopping(variant, S_list, kept, alpha, seed=seed)
            kappa = np.array([variant.kappa[i] for i in range(len(kept))])
            levels = kappa[:, None] - np.array([1, 3, 8])
            settled = certify(variant, _box_set([cube for cube, _ in kept]), levels).all(axis=1)
            assert made == ([] if settled.all() else [seed])
            seen["no generator" if settled.all() else "generator"] += 1
            monkeypatch.setattr(decomposition, "_certified_dilates",
                                lambda result, boxes, levels: np.zeros(levels.shape, bool))
            assert verify_stopping(variant, S_list, kept, alpha, seed=seed).checks == report.checks
            monkeypatch.setattr(decomposition, "_certified_dilates", certify)
            witness = report.checks[1][2]
            if witness is not None:
                i = int(witness.split(",")[0].split()[1])
                escaped = int(witness.split(": ")[1].split(" of ")[0])
                seen["escape after a certified entry"] += (
                    escaped < STOPPING_SAMPLES and bool(settled[:i].any()))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]], [[2, 0, 0], [0, 3, 0], [0, 0, 4]]])
def test_sampling_every_quad_pair_gives_the_report(matrix, monkeypatch):
    # at 1e6 alpha every entry stops against its quadrupled S (as in
    # test_certified_dilates_are_covered); check (ii) must report the same
    # outcome and witness whether or not any pair is settled before
    # sampling.  kappa + 4 and the last entry's kappa + 5 or + 6 grow the
    # dilates until points escape
    import anisomax.decomposition as decomposition

    seen = {"passed": 0, "witness": 0}
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 16)):
        alpha *= 1e6
        res = stopping_time(S_list, kept, alpha)
        assert {res.exceptional[p].kind for p in res.assigned_primitive.values()} == {"quad"}
        last = len(kept) - 1
        variants = [res, dataclasses.replace(res, kappa={i: k + 4 for i, k in res.kappa.items()})]
        variants += [dataclasses.replace(res, kappa={**res.kappa, last: res.kappa[last] + grow})
                     for grow in (5, 6)]
        for variant in variants:
            report = verify_stopping(variant, S_list, kept, alpha, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(decomposition, "_certified_dilates",
                              lambda result, boxes, levels: np.zeros(levels.shape, bool))
                sampled = verify_stopping(variant, S_list, kept, alpha, seed=seed)
            assert sampled.checks == report.checks, seed
            seen["passed" if report.checks[1][1] else "witness"] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("matrix", BEYOND_DIAG24)
def test_dilate_witness_matches_sampling_the_realized_cubes(matrix):
    # check (ii) draws each sampled entry's points from its row's origin and
    # basis; sampling every pair from each entry's realized cube, on the same
    # random stream, must find the same first escaping pair and count.  The
    # last entry's kappa + 5 or + 6 grows its dilates past the exceptional set
    seen = 0
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 12)):
        res = stopping_time(S_list, kept, alpha)
        last = len(kept) - 1
        for grow in (5, 6):
            variant = dataclasses.replace(res, kappa={**res.kappa, last: res.kappa[last] + grow})
            kappa = np.array([variant.kappa[i] for i in range(len(kept))])
            levels = kappa[:, None] - np.array([1, 3, 8])
            want = None
            for i, k, pts in _dilate_samples(kept, levels, seed):
                held = np.zeros(len(pts), dtype=bool)
                for prim in variant.exceptional:
                    held |= prim.contains_points(pts)
                if not held.all():
                    want = (f"entry {i}, level {levels[i, k]}: "
                            f"{int(np.sum(~held))} of {STOPPING_SAMPLES} samples escape")
                    break
            check = verify_stopping(variant, S_list, kept, alpha, seed=seed).checks[1]
            assert check == ("ii_dilates_covered", want is None, want), (seed, grow)
            seen += want is not None
    assert seen >= 5, seen


@pytest.mark.parametrize("matrix", [[[4, 0], [0, 2]], [[4, 1], [1, 3]]])
def test_one_covering_loop_gives_the_two_loop_report(matrix, monkeypatch):
    # check (ii) once asked the assigned primitive about every sample and
    # each other primitive about all the samples the assigned one rejected;
    # one covering loop asks each only about what is left, with the same
    # reports, witnesses included, on results mutated to fail: kappa + 2,
    # the last entry's kappa + 5 or -100, entry 0's primitive swapped for a
    # far quadrupled cube
    import anisomax.decomposition as decomposition

    seen = {"passed": 0, "witness": 0}
    for seed, (alpha, S_list, kept) in enumerate(found_pipeline_instances(matrix, 24)):
        res = stopping_time(S_list, kept, alpha)
        last = len(kept) - 1
        owner = res.exceptional[res.assigned_primitive[0]]
        far = GridCube(0, owner.cube.tau, tuple(v + 400 for v in owner.cube.index),
                       owner.cube.dilation)
        swapped = list(res.exceptional)
        swapped[res.assigned_primitive[0]] = ExceptionalPrimitive("quad", far, owner.volume_term)
        variants = [
            res,
            dataclasses.replace(res, kappa={i: k + 2 for i, k in res.kappa.items()}),
            dataclasses.replace(res, kappa={**res.kappa, last: res.kappa[last] + 5}),
            dataclasses.replace(res, kappa={**res.kappa, last: -100}),
            dataclasses.replace(res, exceptional=swapped),
        ]
        for variant in variants:
            report = verify_stopping(variant, S_list, kept, alpha, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(decomposition, "_escaped", two_loop_escaped)
                twin = verify_stopping(variant, S_list, kept, alpha, seed=seed)
            assert report.checks == twin.checks, seed
            seen["passed" if report.checks[1][1] else "witness"] += 1
    assert min(seen.values()) >= 5, seen


def test_replay_reproduces_recorded_masses(diag_dilation):
    alpha = 0.7
    checked = 0
    seed = 100
    while checked < 10:
        built = pipeline_instance(diag_dilation, alpha, seed)
        seed += 1
        if built is None:
            continue
        S_list, kept = built
        res = stopping_time(S_list, kept, alpha)
        for event, mass in replay_trace_masses(res, kept):
            assert mass == approx(event.mass, rel=0, abs=0)
        checked += 1


@pytest.mark.parametrize("matrix", BEYOND_DIAG24)
def test_replay_reproduces_recorded_masses_beyond_diag24(matrix):
    events = 0
    for alpha, S_list, kept in found_pipeline_instances(matrix, 60):
        res = stopping_time(S_list, kept, alpha)
        for event, mass in replay_trace_masses(res, kept):
            assert mass == approx(event.mass, rel=0, abs=0)
            events += 1
    assert events >= 150


def test_selected_windows_have_no_selected_ancestor(diag_dilation):
    # Once a window cube is selected every finer window inside it empties,
    # so no select event may sit below an earlier selection at the same tau.
    alpha = 0.7
    seed = 200
    checked = 0
    while checked < 10:
        built = pipeline_instance(diag_dilation, alpha, seed)
        seed += 1
        if built is None:
            continue
        S_list, kept = built
        res = stopping_time(S_list, kept, alpha)
        selected = {}
        for ev in res.trace:
            if ev.kind != "select":
                continue
            selected.setdefault(ev.tau, []).append((ev.sigma, ev.index))
        for tau, picks in selected.items():
            for sigma, index in picks:
                for up_sigma, up_index in picks:
                    if up_sigma <= sigma:
                        continue
                    shift = up_sigma - sigma
                    parent = tuple(int(np.floor(n / 2.0**shift)) for n in index)
                    assert parent != up_index, (tau, sigma, index, up_sigma)
        checked += 1


def test_dilation_covariance_shifts_kappa(diag_dilation):
    alpha = 0.7
    a = diag_dilation.det_scale
    checked = 0
    seed = 300
    while checked < 10:
        built = pipeline_instance(diag_dilation, alpha, seed)
        seed += 1
        if built is None:
            continue
        S_list, kept = built
        res = stopping_time(S_list, kept, alpha)

        S_up = [GridCube(0, S.tau + 1, S.index, diag_dilation) for S in S_list]
        kept_up = [
            (GridCube(0, q.tau + 1, q.index, diag_dilation), a * lam)
            for q, lam in kept
        ]
        res_up = stopping_time(S_up, kept_up, alpha)
        assert res_up.tau0 == res.tau0 + 1
        for i in res.kappa:
            assert res_up.kappa[i] == res.kappa[i] + 1
            assert res_up.classification[i] == res.classification[i]
        checked += 1


# ---------------------------------------------------------------------------
# golden digests: every output of the decompositions, as recorded

GOLDEN_FILE = Path(__file__).parent / "data" / "decomposition_golden.txt"
GOLDEN_MATRICES = {
    "diag(2,4)": [[2, 0], [0, 4]],
    "diag(4,2)": [[4, 0], [0, 2]],
    "[[4,1],[1,3]]": FOUND_MATRICES[0],
    "[[2,1],[0,2]]": FOUND_MATRICES[1],
    "[[2,-2],[2,2]]": FOUND_MATRICES[2],
    "diag(2,3,4)": FOUND_MATRICES[3],
    "diag(2,17)": [[2, 0], [0, 17]],
}
GOLDEN_COUNT = 100


def _outcome(call):
    """call()'s value, or the type and message of the package error it raised."""
    try:
        return call()
    except AnisoError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _stopping_outputs(res):
    return ("stopping", sorted(res.kappa.items()), sorted(res.classification.items()),
            sorted(stopping_hosts(res).items()), sorted(res.assigned_primitive.items()),
            [(p.kind, p.cube.sigma, p.cube.tau, p.cube.index, p.volume_term)
             for p in res.exceptional],
            [(ev.kind, ev.sigma, ev.tau, ev.index, ev.entry, ev.mass, ev.action)
             for ev in res.trace],
            res.tau0, res.dimension_violations, res.alpha)


def golden_digests(matrix):
    """One digest per found_instances instance of every output: the Whitney
    selection and its checks, then on the covered entries the stopping
    result (kappa, hosts, primitives, trace), the replayed masses and the
    checks of verify_stopping, plain and with the last entry's kappa forced
    to -100; each with its witnesses, or the error a call raised."""
    D = validate_dilation(matrix)
    for seed, (alpha, entries) in enumerate(found_instances(D, GOLDEN_COUNT)):
        rec = []
        wres = _outcome(lambda: whitney_decompose(entries, alpha))
        if isinstance(wres, tuple):
            rec.append(wres)
        else:
            rec.append(("whitney", [(S.sigma, S.tau, S.index) for S in wres.selected],
                        sorted(wres.assigned.items()), wres.leftover))
            rec.append(_outcome(lambda: verify_whitney(wres, entries, alpha).checks))
        if not isinstance(wres, tuple) and wres.selected:
            S_list = wres.selected
            kept = [entries[i] for i in sorted(wres.assigned)]
            sres = _outcome(lambda: stopping_time(S_list, kept, alpha))
            if isinstance(sres, tuple):
                rec.append(sres)
            else:
                rec.append(_stopping_outputs(sres))
                rec.append([(ev.index, mass) for ev, mass in replay_trace_masses(sres, kept)])
                rec.append(_outcome(lambda: verify_stopping(
                    sres, S_list, kept, alpha, seed=seed).checks))
                mutated = dataclasses.replace(sres, kappa={**sres.kappa, len(kept) - 1: -100})
                rec.append(_outcome(lambda: verify_stopping(
                    mutated, S_list, kept, alpha, seed=seed).checks))
        yield hashlib.sha256(repr(rec).encode()).hexdigest()[:16]


def _read_golden():
    recorded = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            name, digests = line.split(" ", 1)
            recorded[name] = digests.split()
    return recorded


@pytest.mark.parametrize("name", list(GOLDEN_MATRICES))
def test_decomposition_outputs_match_the_golden_digests(name):
    # a faster path must reproduce every output bit for bit, witnesses,
    # traces and raised errors included
    recorded = _read_golden()[name]
    got = list(golden_digests(GOLDEN_MATRICES[name]))
    assert len(got) == len(recorded) == GOLDEN_COUNT
    changed = [k for k, (a, b) in enumerate(zip(got, recorded)) if a != b]
    assert not changed, f"{name}: instances {changed[:10]} changed"


def record_golden():
    lines = [
        "# Digests of every decomposition output on found_instances, one line per",
        f"# matrix, one 16-hex digest per instance ({GOLDEN_COUNT} each); see",
        "# golden_digests in tests/test_decomposition.py.  Re-record only when an",
        "# output is meant to change, and say why in CHANGES.md:",
        "#     PYTHONPATH=src python tests/test_decomposition.py --record-golden",
    ]
    lines += [f"{name} {' '.join(golden_digests(matrix))}"
              for name, matrix in GOLDEN_MATRICES.items()]
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-golden"]:
        sys.exit("usage: python tests/test_decomposition.py --record-golden")
    record_golden()
