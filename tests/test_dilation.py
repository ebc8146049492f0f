"""Dilation structure and diameter asymptotics.

Frozen reference values:
  diag(2, 4): det_scale 8, r_min 2, block_size 1, norm_power 1
  [[2, 1], [0, 2]]: det_scale 4, r_min 2, block_size 2, norm_power 2
  cube_diameter(diag(2, 4), 0) = sqrt(2), tau = -1 gives sqrt(5)/4
  cube_diameter(2I, -3) = sqrt(2)/8 in d = 2
  [[2, -2], [2, 2]]: det_scale 8, r_min 2 sqrt(2), block_size 1, norm_power 1
"""

import gc
import warnings
import weakref
from itertools import product

import numpy as np
import pytest
from numpy.random import default_rng
from pytest import approx

from anisomax.dilation import (
    _STRUCTURES,
    cube_diameter,
    fit_diameter_exponent,
    span_diameter,
    validate_dilation,
)
from anisomax.errors import (
    BudgetExceededError,
    DegenerateFitError,
    EigenvalueNotExpandingError,
    InputInvalidError,
    NonSquareError,
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
    # rounding, so its Jordan block has size 1.
    D = validate_dilation(matrix)
    assert D.det_scale == approx(det)
    assert D.r_min == approx(r_min)
    assert D.block_size == 1
    assert D.norm_power == norm_power


@pytest.mark.parametrize("matrix, block_size", [
    # eigenvalues 3, 2, 2 with one block of size 2; the computed copies of 2
    # lie 4.2e-8 apart, so the slowest group's representative is not the
    # smallest computed modulus
    ([[3.0, 2.0, 1.0], [0.0, 3.0, 1.0], [0.0, -1.0, 1.0]], 2),
    # [[C, I], [0, C]], C = [[2, -1], [1, 2]]: 2 +- i, each in one block of
    # size 2; the square of the real quadratic factor is zero up to
    # rounding (norm 8.9e-16), not a full-rank power
    ([[2, -1, 1, 0], [1, 2, 0, 1], [0, 0, 2, -1], [0, 0, 1, 2]], 2),
    ([[2.0, 0.0], [0.0, 4.0]], 1),
    ([[2.0, 1.0], [0.0, 2.0]], 2),
    ([[2.0, -2.0], [2.0, 2.0]], 1),
    ([[4.0, 1.0], [1.0, 3.0]], 1),
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], 3),
    (np.diag([5.0, 4.0, 3.0, 2.0]).tolist(), 1),
    # one block of size 3 at 2: eigvals splits it into 2.0000099 and
    # 1.9999950 +- 8.6e-6i, one cluster at the eps^(1/3) scale
    ([[0, -1, 2], [-1, 1, 1], [-3, -2, 5]], 3),
])
def test_block_size_of_the_slowest_eigenvalue(matrix, block_size):
    assert validate_dilation(matrix).block_size == block_size


def _exact_jordan_matrix(rng):
    """A = P J P^-1 in integers: J has eigenvalues 2 and 3 in blocks that
    sum to d in 2..4, and P is a product of elementary integer shears, so
    P^-1 is too.  Returns A and the largest block size at eigenvalue
    min(J)."""
    d = int(rng.integers(2, 5))
    sizes = []
    while sum(sizes) < d:
        sizes.append(int(rng.integers(1, d - sum(sizes) + 1)))
    eigs = [int(rng.choice([2, 3])) for _ in sizes]
    J = np.zeros((d, d), dtype=np.int64)
    start = 0
    for size, lam in zip(sizes, eigs):
        for i in range(start, start + size):
            J[i, i] = lam
            if i + 1 < start + size:
                J[i, i + 1] = 1
        start += size
    P, P_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    for _ in range(d):
        i, j = rng.choice(d, size=2, replace=False)
        c = int(rng.choice([-2, -1, 1, 2]))
        E, E_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
        E[i, j], E_inv[i, j] = c, -c
        P, P_inv = P @ E, E_inv @ P_inv
    slowest = min(eigs)
    return P @ J @ P_inv, max(s for s, lam in zip(sizes, eigs) if lam == slowest)


def test_exact_integer_jordan_matrices_are_analyzed():
    # every |eigenvalue| > 1, defective blocks included, is a dilation; the
    # slowest group once lost its representative to a tighter filter than
    # the grouping's and the analysis raised a bare ValueError
    rng = default_rng(1)
    right = 0
    for _ in range(300):
        A, block = _exact_jordan_matrix(rng)
        D = validate_dilation(A.tolist())
        assert 1 <= D.block_size <= D.dim
        right += D.block_size == block
    # eigenvalues clustered at the eps^(1/d) scale read every one right;
    # of 3,000 cases one still reads long (see CHANGES.md)
    assert right == 300


def test_normalization_power_matches_field():
    # norm_power is the smallest m >= 1 with operator norm of A^-m at most 1/2
    D = _jordan2()
    assert D.norm_power == 2
    assert np.linalg.norm(D.power(-1), 2) > 0.5
    assert np.linalg.norm(D.power(-2), 2) <= 0.5


# -------------------------------------------------- one structure per matrix


@pytest.mark.parametrize("given", [
    [[2, 0], [0, 4]],
    [[2.0, 0.0], [0.0, 4.0]],
    np.array([[2.0, 0.0], [0.0, 4.0]]),
    np.asfortranarray([[2.0, 0.0], [0.0, 4.0]]),
])
def test_an_equal_matrix_gets_the_same_structure(given):
    D = _diag24()
    assert validate_dilation(given) is D


def test_different_matrices_get_different_structures():
    D = _diag24()
    assert validate_dilation([[4.0, 0.0], [0.0, 2.0]]) is not D
    assert validate_dilation([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 2.0]]) is not D
    # -0.0 == 0.0, but its powers may carry other signs, so it is another key
    negative_zero = validate_dilation([[2.0, -0.0], [0.0, 4.0]])
    assert negative_zero is not D
    assert np.signbit(negative_zero.matrix[0, 1]) and not np.signbit(D.matrix[0, 1])


def test_the_structure_does_not_alias_its_argument():
    # a write to a float64 argument must not move the matrix away from the
    # det_scale it was analyzed with
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    D = validate_dilation(A)
    A[0, 0] = 9.0
    assert D.matrix[0, 0] == 2.0
    assert D.det_scale == approx(6.0)
    assert validate_dilation([[2.0, 1.0], [0.0, 3.0]]) is D


def test_shared_arrays_are_read_only():
    D = _jordan2()
    for array in (D.matrix, D.power(3), D.power(1), D.power(0), D.power(-2), D.power(-1)):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        D.power(2)[...] *= 2.0


def test_an_unreferenced_structure_is_collected():
    D = validate_dilation([[3.0, 1.0], [0.0, 5.0]])
    ref = weakref.ref(D)
    D.power(-3)
    del D
    gc.collect()
    assert ref() is None
    again = validate_dilation([[3.0, 1.0], [0.0, 5.0]])
    assert again.power(-3).tobytes() == np.linalg.matrix_power(again.matrix, -3).tobytes()


def test_a_rejected_matrix_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(EigenvalueNotExpandingError):
            validate_dilation([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NonSquareError):
            validate_dilation([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


@pytest.mark.parametrize("matrix, error", [
    ([[2.0, 0.0], [0.0]], NonSquareError),
    (np.zeros((0, 0)), NonSquareError),
    ([[np.nan, 0.0], [0.0, 4.0]], InputInvalidError),
    ([[np.inf, 0.0], [0.0, 4.0]], InputInvalidError),
    ([["a", 0.0], [0.0, 4.0]], InputInvalidError),
    (np.array([[2.0 + 1.0j, 0.0], [0.0, 4.75]]), InputInvalidError),
    (np.array([[2.0 + 0.0j, 0.0], [0.0, 4.75]]), InputInvalidError),
    (np.array([[2.0, 0.0], [0.0, 4.75]], dtype=np.complex64), InputInvalidError),
    ([[2.0 + 0.0j, 0.0], [0.0, 4.75]], InputInvalidError),
    ([[np.complex128(2.0), 0.0], [0.0, 4.75]], InputInvalidError),
    ([["2", 0], [0, "4.75"]], InputInvalidError),
    (np.array([["2", "0"], ["0", "4.75"]]), InputInvalidError),
    (np.array([["2", 0], [0, "4.75"]], dtype=object), InputInvalidError),
    ([[b"2", 0], [0, b"4.75"]], InputInvalidError),
    ([[2.0, False], [0.0, 4.75]], InputInvalidError),
    ([[2.0, 0.0], [np.False_, 4.75]], InputInvalidError),
    ([[True, 0.0], [0.0, 4.75]], InputInvalidError),
    (np.array([[2.0, False], [0.0, 4.75]], dtype=object), InputInvalidError),
    (np.array([[2.0, np.False_], [0.0, 4.75]], dtype=object), InputInvalidError),
    (np.array([[True, False], [False, True]]), InputInvalidError),
])
def test_malformed_matrices_raise_package_errors_and_are_not_kept(matrix, error):
    # ragged rows, an empty matrix and entries that are not finite real
    # numbers must not escape as numpy's ValueError or LinAlgError.  A
    # complex input (zero imaginary parts included) is not read as its real
    # part, nor text as the number it spells, nor a bool as 0 or 1, though
    # numpy converts all three: no ComplexWarning, and diag(2, 4.75), kept
    # by no other test, is not interned
    kept = set(_STRUCTURES.keys())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            with pytest.raises(error):
                validate_dilation(matrix)
    assert set(_STRUCTURES.keys()) == kept


@pytest.mark.parametrize("matrix", [
    [[2, False], [0, 4]],
    [[2, np.False_], [0, 4]],
    np.array([[2, False], [0, 4]], dtype=object),
    [[2, None], [0, 4]],
])
def test_a_bool_entry_does_not_find_the_structure_of_its_number(matrix):
    # False has 0.0's float bytes, so read as a number it would hand back
    # the interned diag(2, 4) instead of raising; None (YAML's null) is no
    # number either, though numpy reads it as nan
    D = _diag24()
    kept = set(_STRUCTURES.keys())
    with pytest.raises(InputInvalidError, match="not real numbers"):
        validate_dilation(matrix)
    assert set(_STRUCTURES.keys()) == kept
    assert validate_dilation([[2, 0], [0, 4]]) is D


# ------------------------------------------------------------ cube diameters


def test_diameter_reference_values():
    D = _diag24()
    assert cube_diameter(D, 0) == approx(np.sqrt(2.0))
    assert cube_diameter(D, -1) == approx(np.sqrt(5.0) / 4.0)
    assert cube_diameter(_double(), -3) == approx(np.sqrt(2.0) / 8.0)


# expanding matrices, the first one whose inverse powers round differently
# when chained: A^-1 times A^-(k-1) differs from matrix_power at k = -4, -7,
# -8 and below under [[4, 1], [1, 3]]
POWER_MATRICES = [
    [[4.0, 1.0], [1.0, 3.0]],
    [[2.0, 1.0], [0.0, 2.0]],
    [[2.0, -2.0], [2.0, 2.0]],
    [[1.7, 0.3], [-0.4, 2.9]],
    [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]],
    [[3.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]],
    [[2.1, -0.7, 0.4], [0.5, 1.9, -1.3], [0.2, 0.8, 2.6]],
]


@pytest.mark.parametrize("matrix", POWER_MATRICES)
def test_power_is_matrix_power_bit_for_bit(matrix):
    # power takes matrix_power's products in its order without its argument
    # checks; asked in a shuffled order, so a power meets every cache state
    D = validate_dilation(matrix)
    # the structure is shared, so an earlier test may have cached powers
    before = set(D._pow_cache)
    asked = default_rng(7).permutation(np.arange(-16, 17)).tolist()
    for k in asked:
        want = np.linalg.matrix_power(D.matrix, k)
        assert D.power(k).tobytes() == want.tobytes(), k
        assert D.power(np.int64(k)) is D.power(k)
    # only the powers asked for are kept
    assert set(D._pow_cache) - before == set(asked) - before


@pytest.mark.parametrize("k", [0.5, -0.5, 2.0000001, "2", None])
def test_a_power_that_is_not_an_integer_raises(k):
    # int(k) would truncate 0.5 and -0.5 to A^0 = I
    D = validate_dilation([[3.0, 1.0], [0.0, 7.0]])
    with pytest.raises(InputInvalidError, match="integer exponent"):
        D.power(k)
    assert np.array_equal(D.power(np.int32(-1)), np.linalg.inv(D.matrix))


def test_a_power_that_is_not_an_integer_raises_once_its_integer_is_cached():
    # 2.0 and True look up the cache entries of 2 and 1; the exponent is
    # checked before the look-up, so a fresh structure and a warm one agree
    D = validate_dilation([[3.0, 1.0], [0.0, 11.0]])
    for bad, k in ((2.0, 2), (True, 1), (np.float64(-1.0), -1)):
        with pytest.raises(InputInvalidError, match="integer exponent"):
            D.power(bad)
        assert np.array_equal(D.power(k), np.linalg.matrix_power(D.matrix, k))
        with pytest.raises(InputInvalidError, match="integer exponent"):
            D.power(bad)


def test_a_power_past_the_float_range_raises():
    # under diag(2,4), 4^512 overflows: inf entries from k = 512 and nan
    # from k = 513 would pass every window test and size a hull no array
    # can hold; the overflow raises, with no numpy warning, and is not cached
    D = validate_dilation([[2.0, 0.0], [0.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(D.power(511)).all()
        for k in (512, 513, 512):
            with pytest.raises(BudgetExceededError, match=f"A\\^{k} leaves the float range"):
                D.power(k)
    assert 512 not in D._pow_cache and 513 not in D._pow_cache


def _diameter_by_vectors(basis):
    """The reference rule: the largest norm of basis u, one u at a time."""
    best = 0.0
    for u in product((-1, 0, 1), repeat=basis.shape[0]):
        if any(u):
            best = max(best, float(np.linalg.norm(basis @ np.asarray(u, dtype=float))))
    return best


def test_span_diameter_is_the_per_vector_norm_bit_for_bit():
    # the stacked images and dot products give each |basis u| as norm gives
    # it; a plain (images ** 2).sum differs in the last bit on about one
    # matrix in ten
    rng = default_rng(11)
    for trial in range(1500):
        d = 2 + trial % 2
        basis = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-4, 4, size=(d, d))
        assert span_diameter(basis) == _diameter_by_vectors(basis), basis
    for matrix in POWER_MATRICES:
        D = validate_dilation(matrix)
        for tau in range(-8, 9):
            assert cube_diameter(D, tau) == _diameter_by_vectors(D.power(tau)), (matrix, tau)


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
