"""Expanding matrix dilations and the geometry they induce.

A dilation is an invertible real matrix A whose eigenvalues all have modulus
strictly greater than one.  Powers A^tau scale space anisotropically; this
module validates a matrix, extracts its scaling data (determinant scale,
minimal eigenvalue modulus, Jordan block size of the slowest eigenvalue),
and provides the cube-diameter asymptotics.
"""

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product
from operator import add

import numpy as np

from .errors import (
    DegenerateFitError,
    EigenvalueNotExpandingError,
    NonSquareError,
    WindowExhaustedError,
)

_EXPAND_TOL = 1e-9
_RANK_TOL = 1e-7
SCAN_LIMIT = 64


def _left_sum(values):
    """sum() with its rounding fixed: one add per term, left to right,
    from 0.  CPython's sum() adds floats this way up to 3.11; from 3.12 it
    compensates the rounding, which would move last bits.  Every float sum
    whose bits reach an output (masses, volumes, the atomic-sum norm) is
    taken with it."""
    return reduce(add, values, 0)


@dataclass
class DilationStructure:
    """Validated dilation matrix together with derived scaling data."""

    matrix: np.ndarray
    dim: int
    det_scale: float
    r_min: float
    block_size: int
    norm_power: int
    _pow_cache: dict = field(default_factory=dict, repr=False)
    # A^-1, the base of every negative power, computed on first use
    _inverse: np.ndarray = field(default=None, repr=False)
    # unit-side cube diameter per tau, for cube_diameter
    _diam_cache: dict = field(default_factory=dict, repr=False)

    def power(self, k: int) -> np.ndarray:
        """A^k for integer k, cached per k asked for.

        Bit for bit np.linalg.matrix_power(A, k), without its argument
        checks: the same products in the same order (A^-1 from inv, then
        A A and (A A) A for 2 and 3, else a binary decomposition from the
        least significant bit).  Only the asked-for powers are kept, not
        the intermediate ones.
        """
        got = self._pow_cache.get(k)
        if got is None:
            k = int(k)
            if k == 0:
                got = np.eye(self.dim)
            else:
                if k > 0:
                    base = self.matrix
                else:
                    if self._inverse is None:
                        self._inverse = np.linalg.inv(self.matrix)
                    base = self._inverse
                got = _matrix_power(base, abs(k))
            self._pow_cache[k] = got
        return got

    def powers(self, exponents) -> np.ndarray:
        """(N, d, d): A^k for each k of exponents, in order, gathered from
        a stack of the distinct powers."""
        distinct = {}
        pos = [distinct.setdefault(k, len(distinct)) for k in exponents]
        stack = np.array([self.power(k) for k in distinct])
        return stack if len(distinct) == len(pos) else stack.take(pos, axis=0)


def _matrix_power(a: np.ndarray, n: int) -> np.ndarray:
    """a^n for n >= 1 by np.linalg.matrix_power's products, in its order."""
    if n == 1:
        return a
    if n == 2:
        return a @ a
    if n == 3:
        return (a @ a) @ a
    z = result = None
    while n > 0:
        z = a if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _jordan_factor(A: np.ndarray, lam: complex, rank_tol: float):
    """The real factor M of A at eigenvalue lam, scaled to norm 1, and its norm.

    Works over the reals: for a complex pair the factor (A - lam)(A - conj lam)
    is the real quadratic A^2 - 2 Re(lam) A + |lam|^2 I.  A factor of norm at
    most rank_tol is returned unscaled.
    """
    d = A.shape[0]
    if abs(lam.imag) <= rank_tol:
        m_factor = A - lam.real * np.eye(d)
    else:
        m_factor = A @ A - 2.0 * lam.real * A + (abs(lam) ** 2) * np.eye(d)
    norm = _operator_norm(m_factor)
    if norm > rank_tol:
        m_factor = m_factor / norm
    return m_factor, norm


def _block_size(m_factor: np.ndarray, norm: float, rank_tol: float) -> int:
    """Size of the largest Jordan block: the first j at which rank(M^j) stabilizes."""
    if norm <= rank_tol:
        # a 2x2 complex pair: by Cayley-Hamilton the factor is 0 up to rounding
        return 1
    d = m_factor.shape[0]
    prev_rank = d
    power = np.eye(d)
    for j in range(1, d + 1):
        power = power @ m_factor
        scale = _operator_norm(power)
        if scale == 0.0:
            rank = 0
        else:
            rank = int(np.linalg.matrix_rank(power / scale, tol=rank_tol))
        if rank == prev_rank:
            return j - 1 if j > 1 else 1
        prev_rank = rank
    return d


def _eigen_groups(eigvals: np.ndarray, tol: float):
    """Group eigenvalues into conjugate-pair representatives (Im >= 0)."""
    reps = []
    for lam in eigvals:
        lam = complex(lam)
        if lam.imag < -tol:
            lam = lam.conjugate()
        if lam.imag < tol:
            lam = complex(lam.real, 0.0)
        if not any(abs(lam - r) <= tol * max(1.0, abs(r)) for r in reps):
            reps.append(lam)
    return reps


def _slowest_block(A: np.ndarray, eigvals: np.ndarray) -> int:
    """The largest Jordan block size among the eigenvalues of minimal modulus."""
    moduli = np.abs(eigvals)
    r = float(np.min(moduli))
    group_tol = 1e-8 * max(1.0, float(np.max(moduli)))
    reps = _eigen_groups(eigvals, group_tol)
    slow_reps = [lam for lam in reps if abs(abs(lam) - r) <= 1e-8 * r]
    rank_tol = _RANK_TOL * max(1.0, _operator_norm(A))
    return max(_block_size(*_jordan_factor(A, lam, rank_tol), rank_tol)
               for lam in slow_reps)


def validate_dilation(matrix) -> DilationStructure:
    """Validate an expanding matrix and compute its scaling structure.

    Raises NonSquareError for a non-square input and
    EigenvalueNotExpandingError when any eigenvalue modulus is <= 1 + 1e-9.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    d = A.shape[0]
    eigvals = np.linalg.eigvals(A)
    moduli = np.abs(eigvals)
    if np.min(moduli) <= 1.0 + _EXPAND_TOL:
        raise EigenvalueNotExpandingError(
            f"minimum eigenvalue modulus {np.min(moduli):.6g} is not > 1"
        )
    return DilationStructure(
        matrix=A,
        dim=d,
        det_scale=float(abs(np.linalg.det(A))),
        r_min=float(np.min(moduli)),
        block_size=_slowest_block(A, eigvals),
        norm_power=_norm_power(A),
    )


def _norm_power(A: np.ndarray) -> int:
    inv = np.linalg.inv(A)
    power = np.eye(A.shape[0])
    for m in range(1, SCAN_LIMIT + 1):
        power = power @ inv
        if _operator_norm(power) <= 0.5:
            return m
    raise WindowExhaustedError(
        f"no m <= {SCAN_LIMIT} gives an operator norm of A^-m at most 1/2"
    )


@cache
def _sign_vectors(d: int) -> np.ndarray:
    """The nonzero u in {-1, 0, 1}^d, (3^d - 1, d) in product order, built
    once per dimension and shared, so read-only."""
    signs = np.array([u for u in product((-1.0, 0.0, 1.0), repeat=d) if any(u)])
    signs.flags.writeable = False
    return signs


def span_diameter(basis: np.ndarray) -> float:
    """Diameter of origin + basis [0, 1]^d: the longest |basis u| over the
    vertex differences u in {-1, 0, 1}^d.

    Bit for bit the largest float(np.linalg.norm(basis @ u)) over u: the
    images are one product (u has entries 0 and 1 in magnitude, so every
    product is exact), and each squared length is the BLAS dot product
    that norm takes, one per row of a stacked matmul.
    """
    images = _sign_vectors(basis.shape[0]) @ basis.T
    squares = np.matmul(images[:, None, :], images[:, :, None])
    return float(np.sqrt(squares.max()))


def cube_diameter(D: DilationStructure, tau: int, sigma: int = 0) -> float:
    """Euclidean diameter of a grid cube at scale (sigma, tau).

    The cube is the image under A^tau of a dyadic cube of side 2^sigma, so the
    diameter is 2^sigma times span_diameter(A^tau).  The unit-side diameter is
    cached per tau on D.
    """
    best = D._diam_cache.get(tau)
    if best is None:
        best = D._diam_cache[int(tau)] = span_diameter(D.power(tau))
    return (2.0 ** sigma) * best


def fit_diameter_exponent(D: DilationStructure, tau_range) -> float:
    """Fit p in log diam(tau) = tau log r + p log|tau| + const.

    tau_range must contain at least 10 distinct negative integers; the known
    coefficient tau log r is subtracted and p is found by ordinary least
    squares against log|tau|.
    """
    taus = sorted(set(int(t) for t in tau_range))
    if len(taus) < 10:
        raise DegenerateFitError(f"need at least 10 tau values, got {len(taus)}")
    if any(t >= 0 for t in taus):
        raise DegenerateFitError("tau_range must contain negative integers only")
    logs = np.array([np.log(cube_diameter(D, t)) for t in taus])
    t_arr = np.array(taus, dtype=float)
    resid = logs - t_arr * np.log(D.r_min)
    design = np.stack([np.log(-t_arr), np.ones_like(t_arr)], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, resid, rcond=None)
    if rank < 2:
        raise DegenerateFitError("design matrix is rank-deficient")
    return float(coef[0])
