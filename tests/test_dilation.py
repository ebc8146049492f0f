"""Dilation structure, quasi-metric, and diameter asymptotics.

Frozen reference values:
  diag(2, 4): det_scale 8, r_min 2, block_size 1, norm_power 1
  [[2, 1], [0, 2]]: det_scale 4, r_min 2, block_size 2, norm_power 2
  quasi_metric(2I, 0, (3, 0)) = e^2, quasi_metric(2I, 0, (1, 0)) = 1
  cube_diameter(diag(2, 4), 0) = sqrt(2), tau = -1 gives sqrt(5)/4
  cube_diameter(2I, -3) = sqrt(2)/8 in d = 2
  [[2, -2], [2, 2]]: det_scale 8, r_min 2 sqrt(2), block_size 1, norm_power 1
"""

import numpy as np
import pytest
from pytest import approx

from anisomax.dilation import (
    cube_diameter,
    fit_diameter_exponent,
    quasi_metric,
    validate_dilation,
)
from anisomax.errors import (
    DegenerateFitError,
    EigenvalueNotExpandingError,
    NonSquareError,
    WindowExhaustedError,
)


def _diag24():
    return validate_dilation([[2.0, 0.0], [0.0, 4.0]])


def _jordan2():
    return validate_dilation([[2.0, 1.0], [0.0, 2.0]])


def _double(d=2):
    return validate_dilation(2.0 * np.eye(d))


# ---------------------------------------------------------------- validation


def test_diagonal_structure():
    D = _diag24()
    assert D.dim == 2
    assert D.det_scale == approx(8.0)
    assert D.r_min == approx(2.0)
    assert D.block_size == 1
    assert D.norm_power == 1


def test_jordan_structure():
    D = _jordan2()
    assert D.det_scale == approx(4.0)
    assert D.r_min == approx(2.0)
    assert D.block_size == 2
    assert D.norm_power == 2


def test_isotropic_norm_power():
    assert _double().norm_power == 1


def test_not_expanding_rejected():
    with pytest.raises(EigenvalueNotExpandingError):
        validate_dilation([[1.0, 0.0], [0.0, 2.0]])


def test_rotation_times_half_rejected():
    with pytest.raises(EigenvalueNotExpandingError):
        validate_dilation([[0.0, -0.5], [0.5, 0.0]])


def test_non_square_rejected():
    with pytest.raises(NonSquareError):
        validate_dilation([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


@pytest.mark.parametrize("matrix, det, r_min, norm_power", [
    ([[2.0, -2.0], [2.0, 2.0]], 8.0, 2.0 * np.sqrt(2.0), 1),
    ([[1.5, -1.2], [1.2, 1.5]], 3.69, np.sqrt(3.69), 2),
    ([[0.0, -2.0], [2.0, 0.0]], 4.0, 2.0, 1),
])
def test_planar_complex_pair_structure(matrix, det, r_min, norm_power):
    # In 2-D the real quadratic factor of a complex pair vanishes up to
    # rounding, so the slow eigenspace is the whole plane.
    D = validate_dilation(matrix)
    assert D.det_scale == approx(det)
    assert D.r_min == approx(r_min)
    assert D.block_size == 1
    assert D.norm_power == norm_power
    assert D.slow_subspace.shape == (2, 2)
    assert np.linalg.norm(D.slow_vector) == approx(1.0)


def test_normalization_power_matches_field():
    # norm_power is the smallest m >= 1 with operator norm of A^-m at most 1/2
    D = _jordan2()
    assert D.norm_power == 2
    assert np.linalg.norm(D.power(-1), 2) > 0.5
    assert np.linalg.norm(D.power(-2), 2) <= 0.5


# -------------------------------------------------------------- quasi-metric


def test_quasi_metric_reference_values():
    D = _double()
    assert quasi_metric(D, (0.0, 0.0), (3.0, 0.0)) == approx(np.exp(2.0))
    assert quasi_metric(D, (0.0, 0.0), (1.0, 0.0)) == approx(1.0)
    assert quasi_metric(D, (0.5, -1.0), (0.5, -1.0)) == 0.0


def test_quasi_metric_window_exhausted():
    D = _double()
    huge = (2.0 ** 70, 0.0)
    with pytest.raises(WindowExhaustedError):
        quasi_metric(D, (0.0, 0.0), huge)


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 4]], [[4, 1], [1, 3]], [[2, 1], [0, 2]],
                                    [[2, -2], [2, 2]], [[2, 0, 0], [0, 3, 0], [0, 0, 4]]])
def test_quasi_metric_matches_the_scan_one_k_at_a_time(matrix):
    # quasi_metric takes every k of the window from one stacked product;
    # the reference is the scan over k with one product each
    D = validate_dilation(matrix)
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1e-2, 1.0, 1e3, 1e8):
        for x, y in rng.uniform(-scale, scale, size=(60, 2, D.dim)):
            k = next(k for k in range(-64, 65)
                     if np.linalg.norm(D.power(-k) @ (y - x)) <= 1.0)
            assert quasi_metric(D, x, y) == float(np.exp(k)), (x, y)


def test_quasi_triangle_constant():
    D = _diag24()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-4.0, 4.0, size=(10_000, 3, 2))
    worst = 0.0
    for x, y, z in pts:
        through = quasi_metric(D, x, y) + quasi_metric(D, y, z)
        if through == 0.0:
            continue
        worst = max(worst, quasi_metric(D, x, z) / through)
    assert 0.0 < worst < 1e3


# ------------------------------------------------------------ cube diameters


def test_diameter_reference_values():
    D = _diag24()
    assert cube_diameter(D, 0) == approx(np.sqrt(2.0))
    assert cube_diameter(D, -1) == approx(np.sqrt(5.0) / 4.0)
    assert cube_diameter(_double(), -3) == approx(np.sqrt(2.0) / 8.0)


def test_diameter_strictly_increasing():
    for D in (_diag24(), _jordan2()):
        diams = [cube_diameter(D, t) for t in range(-20, 5)]
        assert all(a < b for a, b in zip(diams, diams[1:]))


def test_diameter_ratio_spread_is_bounded():
    for D, p in ((_diag24(), 0.0), (_jordan2(), 1.0)):
        ratios = []
        for t in range(-40, -9):
            model = (D.r_min ** t) * (abs(t) ** p)
            ratios.append(cube_diameter(D, t) / model)
        assert max(ratios) / min(ratios) < 10.0


def test_volume_scaling_law():
    for D in (_diag24(), _jordan2()):
        for t in range(-12, 4):
            vol = abs(np.linalg.det(D.power(t)))
            assert vol == approx(D.det_scale ** t, rel=1e-12)


# ----------------------------------------------------------- exponent fitting


def test_fitted_exponent_diagonal_near_zero():
    p = fit_diameter_exponent(_diag24(), range(-40, -9))
    assert abs(p) < 0.2


def test_fitted_exponent_jordan_near_one():
    p = fit_diameter_exponent(_jordan2(), range(-40, -9))
    assert abs(p - 1.0) < 0.2


def test_fitted_exponent_isotropic_3d():
    p = fit_diameter_exponent(_double(3), range(-40, -9))
    assert abs(p) < 0.2


def test_fit_requires_enough_points():
    with pytest.raises(DegenerateFitError):
        fit_diameter_exponent(_diag24(), [-12, -11, -10])
    with pytest.raises(DegenerateFitError):
        fit_diameter_exponent(_diag24(), range(-5, 6))


# -------------------------------------------------------- slowest direction


def test_slow_vector_diagonal():
    D = _diag24()
    v, W = D.slow_vector, D.slow_subspace
    assert v == approx(np.array([1.0, 0.0]))
    assert W.shape == (2, 1)
    assert abs(W[:, 0] @ np.array([1.0, 0.0])) == approx(1.0)


def test_slow_vector_isotropic_tie_break():
    v = _double().slow_vector
    assert v == approx(np.array([1.0, 0.0]))


def test_slow_vector_jordan_lies_in_generalized_eigenspace():
    D = _jordan2()
    v, W = D.slow_vector, D.slow_subspace
    # Generalized eigenspace of 2 is all of R^2; the true eigenvector is e1.
    assert W.shape == (2, 1)
    assert abs(W[:, 0] @ np.array([1.0, 0.0])) == approx(1.0, abs=1e-6)
    iterate = np.linalg.matrix_power(np.linalg.inv(D.matrix), 40) @ v
    iterate = iterate / np.linalg.norm(iterate)
    residual = iterate - W @ (W.T @ iterate)
    assert np.linalg.norm(residual) < 0.05


def test_slow_vector_complex_pair_plane():
    # Rotation scaled by 2 on the first two axes, fast axis 8 on the third.
    R = 2.0 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    A = np.zeros((3, 3))
    A[:2, :2] = R
    A[2, 2] = 8.0
    D = validate_dilation(A)
    v, W = D.slow_vector, D.slow_subspace
    assert W.shape == (3, 2)
    assert abs(v[2]) < 1e-9
    iterate = np.linalg.matrix_power(np.linalg.inv(A), 40) @ v
    iterate = iterate / np.linalg.norm(iterate)
    residual = iterate - W @ (W.T @ iterate)
    assert np.linalg.norm(residual) < 0.05
