"""Expanding matrix dilations and the geometry they induce.

A dilation is an invertible real matrix A whose eigenvalues all have modulus
strictly greater than one.  Powers A^tau scale space anisotropically; this
module validates a matrix, extracts its scaling data (determinant scale,
minimal eigenvalue modulus, Jordan block size of the slowest eigenvalue),
and provides the cube-diameter asymptotics.

A process holds one structure per matrix while the structure is referenced:
validate_dilation returns the live structure of an equal matrix, so the
analysis runs once and every holder shares the powers and the cube
diameters computed so far.  Every derived field is a pure function of the
matrix, and power(k) is np.linalg.matrix_power in any cache order, so
sharing changes no result.  The shared arrays are read-only.
"""

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product
from operator import add

import numpy as np

from .errors import (
    BudgetExceededError,
    DegenerateFitError,
    EigenvalueNotExpandingError,
    InputInvalidError,
    NonSquareError,
    WindowExhaustedError,
)

_EXPAND_TOL = 1e-9
_RANK_TOL = 1e-7
# eigenvalues within _CLUSTER_SCALE eps^(1/d) of each other, relative, are
# one eigenvalue split by rounding (_eigen_clusters)
_CLUSTER_SCALE = 8.0
SCAN_LIMIT = 64

# (shape, float64 bytes) of a matrix -> its live structure; an entry goes
# when the last reference to its structure does.  The lock makes the look-up
# and the store one step, so two threads never keep two structures.
_STRUCTURES = weakref.WeakValueDictionary()
_STRUCTURES_LOCK = threading.Lock()

# entries numpy converts to float64 that are not real numbers: a bool shares
# 0's or 1's float bytes, so it would find that matrix's structure
_NOT_REAL = (bool, np.bool_, str, bytes, complex, np.complexfloating)


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not a count, an exponent or an
    index.  The one integer rule of the package's inputs; a plain int,
    the common case, is settled by its type alone."""
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def _number(value) -> bool:
    """A finite Python or numpy real, not a bool: the one real-number rule
    of the package's inputs.  nan and inf pass no bound downstream, and
    float() would pass a string (YAML 1.1 reads 1e6 as one) or a bool that
    the run then uses as it is."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def _left_sum(values):
    """sum() with its rounding fixed: one add per term, left to right,
    from 0.  CPython's sum() adds floats this way up to 3.11; from 3.12 it
    compensates the rounding, which would move last bits.  Every float sum
    whose bits reach an output (masses, volumes, the atomic-sum norm) is
    taken with it."""
    return reduce(add, values, 0)


@dataclass
class DilationStructure:
    """Validated dilation matrix together with derived scaling data.

    Build through validate_dilation, which shares one structure per matrix:
    matrix and every power are read-only arrays.
    """

    matrix: np.ndarray
    dim: int
    det_scale: float
    r_min: float
    block_size: int
    norm_power: int
    _pow_cache: dict = field(default_factory=dict, repr=False)
    # unit-side cube diameter per tau, for cube_diameter
    _diam_cache: dict = field(default_factory=dict, repr=False)

    def power(self, k: int) -> np.ndarray:
        """A^k for integer k: np.linalg.matrix_power, cached read-only per
        k asked for.  Raises InputInvalidError for a k that is not an
        integer (a bool included), whatever the cache holds: 2.0 and True
        hash as the cached 2 and 1 do.  Raises BudgetExceededError when an
        entry of A^k leaves the float range, as det_power does for a^k:
        inf and nan entries would pass every window test downstream."""
        # a plain int, the common case, skips the call
        if type(k) is not int and not _is_integer(k):
            raise InputInvalidError(f"matrix powers need an integer exponent, got {k!r}")
        got = self._pow_cache.get(k)
        if got is None:
            with np.errstate(over="ignore", invalid="ignore"):
                got = np.linalg.matrix_power(self.matrix, int(k))
            if not np.isfinite(got).all():
                raise BudgetExceededError(f"A^{int(k)} leaves the float range")
            got.flags.writeable = False
            self._pow_cache[int(k)] = got
        return got

    def powers(self, exponents) -> np.ndarray:
        """(N, d, d): A^k for each k of exponents, in order, gathered from
        a stack of the distinct powers."""
        distinct = {}
        pos = [distinct.setdefault(k, len(distinct)) for k in exponents]
        stack = np.array([self.power(k) for k in distinct])
        return stack if len(distinct) == len(pos) else stack.take(pos, axis=0)


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
        if scale <= rank_tol:
            # zero up to rounding: divided by its own norm it would read as
            # full rank
            rank = 0
        else:
            rank = int(np.linalg.matrix_rank(power / scale, tol=rank_tol))
        if rank == prev_rank:
            return j - 1 if j > 1 else 1
        prev_rank = rank
    return d


def _eigen_clusters(eigvals: np.ndarray, radius: float) -> list:
    """Centres of the eigenvalue clusters, one per conjugate pair (Im >= 0).

    eigvals returns a Jordan block of size m as a cluster of radius about
    eps^(1/m) around its eigenvalue, so the eigenvalues, conjugates folded
    into Im >= 0, are grouped by single linkage: two within radius x
    max(1, |lambda|) of each other share a cluster.  A centre is its
    cluster's mean, real when the mean lies within the radius of the real
    axis.
    """
    clusters = []
    for lam in eigvals:
        lam = complex(lam.real, abs(lam.imag))
        members = [lam]
        near = [c for c in clusters if any(
            abs(lam - mu) <= radius * max(1.0, abs(lam), abs(mu)) for mu in c)]
        for c in near:
            clusters.remove(c)
            members += c
        clusters.append(members)
    centres = []
    for members in clusters:
        mean = sum(members) / len(members)
        if abs(mean.imag) <= radius * max(1.0, abs(mean)):
            mean = complex(mean.real, 0.0)
        centres.append(mean)
    return centres


def _slowest_block(A: np.ndarray, eigvals: np.ndarray) -> int:
    """The largest Jordan block size among the eigenvalues of minimal modulus."""
    radius = _CLUSTER_SCALE * np.finfo(float).eps ** (1.0 / A.shape[0])
    centres = _eigen_clusters(eigvals, radius)
    r = min(abs(c) for c in centres)
    slow = [c for c in centres if abs(c) - r <= radius * max(1.0, abs(c))]
    rank_tol = _RANK_TOL * max(1.0, _operator_norm(A))
    return max(_block_size(*_jordan_factor(A, lam, rank_tol), rank_tol)
               for lam in slow)


def validate_dilation(matrix) -> DilationStructure:
    """Validate an expanding matrix and compute its scaling structure.

    One structure per matrix while it is referenced: a matrix whose float64
    entries and shape equal those of a live structure's, bit for bit (so
    -0.0 is not 0.0), gets that structure, powers and diameters included.
    Otherwise the matrix is analyzed and a new structure kept for the next
    call.  The structure's matrix is a private read-only C-ordered copy, so
    a later write to the argument does not reach it, and a write to it or
    to a power raises ValueError.

    block_size is the largest Jordan block among the eigenvalues of least
    modulus.  The computed eigenvalues are first clustered at radius
    8 eps^(1/d), relative, where a block of size m <= d splits by about
    eps^(1/m), and each cluster is read at its mean; the slowest clusters
    are those whose centres lie within the same radius of the least
    centre modulus.  A power of a Jordan factor whose norm is at most the
    rank tolerance counts as zero.

    Raises NonSquareError for an input that is not a nonempty square
    matrix (ragged rows included), InputInvalidError for an entry that is
    not a finite real number (a bool, a complex input, even with zero
    imaginary parts, and text that spells a number included), and
    EigenvalueNotExpandingError when any eigenvalue modulus is <= 1 + 1e-9;
    an input that raises is not kept, so it raises on every call.
    """
    try:
        # a list is scanned as the Python objects it holds: numpy would read
        # its bools as 0 and 1, and text as the numbers it spells
        raw = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
        if raw.dtype.kind in "bcSU" or (raw.dtype.kind == "O" and any(
                isinstance(v, _NOT_REAL) for v in raw.flat)):
            raise TypeError(f"entries of type {raw.dtype} are not real numbers")
        A = np.array(raw, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        # an object array keeps the nesting without converting the entries
        shape = np.array(matrix, dtype=object).shape
        error = InputInvalidError if len(shape) == 2 and shape[0] == shape[1] else NonSquareError
        raise error(f"expected a square matrix of real numbers: {exc}") from exc
    key = (A.shape, A.tobytes())
    with _STRUCTURES_LOCK:
        D = _STRUCTURES.get(key)
        if D is None:
            A.flags.writeable = False
            D = _STRUCTURES[key] = _analyze(A)
    return D


def _analyze(A: np.ndarray) -> DilationStructure:
    """The structure of a float64 matrix, or the error that rejects it."""
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise NonSquareError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputInvalidError("matrix entries must be finite")
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


def cube_diameter(D: DilationStructure, tau: int) -> float:
    """Euclidean diameter of a unit-side grid cube at level tau.

    The cube is the image under A^tau of a unit cube, so the diameter is
    span_diameter(A^tau), cached per tau on D.
    """
    best = D._diam_cache.get(tau)
    if best is None:
        best = D._diam_cache[int(tau)] = span_diameter(D.power(tau))
    return best


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
