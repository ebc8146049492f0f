"""Atoms: amplitude bound, cancellation, profiles, and atomic sums.

Frozen reference values:
  amplitude of an atom on a tau = -2 cube under diag(2, 4) is 64
  the bump profile peaks at exactly the amplitude
  haar L1 mass is exactly amplitude times cube volume, which is 1
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from anisomax.atoms import (
    Atom,
    AtomicSum,
    make_atom,
    random_atomic_sum,
)
from anisomax.dilation import validate_dilation
from anisomax.errors import InputInvalidError
from anisomax.grid import GridCube

from _oracles import compose_dilation, per_tau_sum


def _diag24():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _cube_points(Q, n=64):
    """Midpoint grid transported onto the cube, with the cell measure."""
    D = Q.dilation
    u = (np.arange(n) + 0.5) / n
    mesh = np.stack(np.meshgrid(*([u] * D.dim)), axis=-1).reshape(-1, D.dim)
    pts = (mesh + np.asarray(Q.index, dtype=float)) @ D.power(Q.tau).T
    cell = Q.volume / (n ** D.dim)
    return pts, cell


def test_amplitude_reference():
    D = _diag24()
    atom = make_atom(GridCube(0, -2, (0, 0), D), "haar", seed=0)
    assert atom.amplitude == approx(64.0)


def test_haar_values_and_mass():
    D = _diag24()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    pts, cell = _cube_points(atom.support)
    vals = atom.evaluate(pts)
    assert np.max(np.abs(vals)) == approx(atom.amplitude)
    assert np.sum(vals) * cell == approx(0.0, abs=1e-12)
    assert np.sum(np.abs(vals)) * cell == approx(1.0)


def test_bump_peak_and_cancellation():
    D = _diag24()
    Q = GridCube(0, -1, (2, -1), D)
    atom = Atom(support=Q, profile="bump", axis=0, amplitude=8.0)
    # Peak sits at local (1/4, 1/2).
    peak_local = np.array([[0.25, 0.5]])
    peak = (peak_local + np.asarray(Q.index)) @ D.power(Q.tau).T
    assert atom.evaluate(peak)[0] == approx(8.0)
    pts, cell = _cube_points(Q, n=128)
    vals = atom.evaluate(pts)
    assert abs(np.sum(vals) * cell) <= 1e-8 * atom.amplitude
    assert np.sum(np.abs(vals)) * cell <= 1.0


def test_outside_support_is_zero():
    D = _diag24()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "bump", seed=2)
    far = np.array([[5.0, 5.0], [-0.01, 0.5], [0.5, 4.01]])
    assert atom.evaluate(far) == approx(np.zeros(3))


def test_make_atom_rejects_plateau():
    D = _diag24()
    with pytest.raises(InputInvalidError):
        make_atom(GridCube(0, 0, (0, 0), D), "plateau", seed=0)


def test_plateau_control_is_nonnegative():
    D = _diag24()
    atom = Atom(support=GridCube(0, 0, (0, 0), D), profile="plateau", axis=0, amplitude=1.0)
    pts, cell = _cube_points(atom.support)
    vals = atom.evaluate(pts)
    assert np.all(vals >= 0.0)
    assert np.sum(vals) * cell > 0.1


def test_atom_requires_sigma_zero():
    D = _diag24()
    with pytest.raises(InputInvalidError):
        Atom(support=GridCube(-1, 0, (0, 0), D), profile="haar", axis=0, amplitude=1.0)


def test_make_atom_seed_is_deterministic():
    D = _diag24()
    Q = GridCube(0, 0, (3, 3), D)
    a = make_atom(Q, "haar", seed=77)
    b = make_atom(Q, "haar", seed=77)
    assert a.axis == b.axis and a.amplitude == b.amplitude


@settings(max_examples=25, deadline=None)
@given(tau=st.integers(min_value=-4, max_value=0),
       n1=st.integers(min_value=-6, max_value=6),
       n2=st.integers(min_value=-6, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_atom_normalization_property(tau, n1, n2, seed):
    D = _diag24()
    atom = make_atom(GridCube(0, tau, (n1, n2), D), "haar", seed=seed)
    pts, cell = _cube_points(atom.support, n=32)
    vals = atom.evaluate(pts)
    assert np.max(np.abs(vals)) <= atom.amplitude + 1e-12
    assert abs(np.sum(vals)) * cell <= 1e-8
    assert np.sum(np.abs(vals)) * cell <= 1.0 + 1e-12


def test_atomic_sum_norm_and_eval():
    D = _diag24()
    a1 = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    a2 = make_atom(GridCube(0, -1, (1, 1), D), "bump", seed=2)
    f = AtomicSum(terms=[(a1, 0.25), (a2, 1.5)], dilation=D)
    assert f.h1_norm() == approx(1.75)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 2.0, size=(200, 2))
    direct = 0.25 * a1.evaluate(pts) + 1.5 * a2.evaluate(pts)
    assert f.evaluate(pts) == approx(direct)


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]], [[4, 1], [1, 3]],
                                    [[2, 0, 0], [0, 3, 0], [0, 0, 4]]])
def test_atomic_sum_adds_its_atoms_in_term_order(matrix):
    # the values are lambda_i a_i(x) added term by term, bit for bit, and
    # within 1e-12 of the peak of the per-tau grouping they replaced, whose
    # order of addition differs where taus interleave
    D = validate_dilation(matrix)
    for seed in range(4):
        # every support holds the origin's corner, so the terms stack
        f = random_atomic_sum(D, 40, range(-2, 1), (0.1, 2.0), seed, profile="bump",
                              index_span=0)
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2000, D.dim))
        direct = np.zeros(len(pts))
        for atom, lam in f.terms:
            direct += lam * atom.evaluate(pts)
        got = f.evaluate(pts)
        assert got.tobytes() == direct.tobytes()
        grouped = per_tau_sum(f, pts)
        assert np.abs(got - grouped).max() <= 1e-12 * np.abs(grouped).max()


def test_atomic_sum_norm_is_the_left_fold():
    # h1 divides every weak-type ratio and is printed in weak_type.csv, so it
    # is summed as one left fold on any Python; from 3.12 sum() compensates
    # and would give 1.0000000000000002e16
    D = _diag24()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    f = AtomicSum(terms=[(atom, 1e16), (atom, 1.0), (atom, 1.0)], dilation=D)
    assert repr(f.h1_norm()) == repr(1e16)


def test_atomic_sum_rejects_negative_weight():
    D = _diag24()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    with pytest.raises(InputInvalidError):
        AtomicSum(terms=[(atom, -0.5)], dilation=D)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_atomic_sum_rejects_weights_that_are_not_finite(lam):
    # h1_norm() would be nan or inf, as the decompositions' entries refuse
    D = _diag24()
    atom = make_atom(GridCube(0, 0, (0, 0), D), "haar", seed=1)
    with pytest.raises(InputInvalidError, match="nonnegative and finite"):
        AtomicSum(terms=[(atom, 1.0), (atom, lam)], dilation=D)


def test_compose_dilation_covariance():
    D = _diag24()
    atom = make_atom(GridCube(0, -1, (1, 2), D), "bump", seed=5)
    for j in (-2, 1):
        pushed = compose_dilation(atom, j)
        assert pushed.support.tau == atom.support.tau + j
        rng = np.random.default_rng(8)
        pts = rng.uniform(-3.0, 3.0, size=(300, 2))
        pulled = pts @ D.power(-j).T
        expected = (D.det_scale ** (-j)) * atom.evaluate(pulled)
        assert pushed.evaluate(pts) == approx(expected)


def test_compose_dilation_keeps_atom_valid():
    D = _diag24()
    atom = make_atom(GridCube(0, -2, (0, 0), D), "haar", seed=3)
    pushed = compose_dilation(atom, 1)
    assert pushed.amplitude == approx(D.det_scale ** (-pushed.support.tau))


def test_random_atomic_sum_reproducible():
    D = _diag24()
    f = random_atomic_sum(D, 12, range(-4, 1), (0.1, 2.0), seed=42)
    g = random_atomic_sum(D, 12, range(-4, 1), (0.1, 2.0), seed=42)
    assert f.h1_norm() == approx(g.h1_norm())
    assert [a.support.index for a, _ in f.terms] == [a.support.index for a, _ in g.terms]
