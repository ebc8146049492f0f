"""Cancellative atoms on grid cubes and finite atomic sums.

An atom lives on a cube Q of the sigma = 0 grid, is bounded by the reciprocal
cube volume, and integrates to zero.  Two cancellative profiles are provided:
a two-sided step along one axis (haar) and a smooth mirror-difference bump.
The non-cancelling plateau profile exists only as a control object and is
rejected by make_atom.
"""

from dataclasses import dataclass
from math import inf

import numpy as np

from .dilation import DilationStructure, _is_integer, _left_sum
from .errors import InputInvalidError
from .grid import GridCube, det_power

PROFILES = ("haar", "bump")
CONTROL_PROFILES = ("plateau",)
# profile and weight range of the config's seeded draw (random_atomic_sum)
DRAW_PROFILE = "haar"
DRAW_LAM_RANGE = (0.1, 2.0)


def _smooth_hat(s: np.ndarray) -> np.ndarray:
    """exp(4 - 1/(s(1-s))) on (0, 1), zero elsewhere; peaks at 1 for s = 1/2."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


@dataclass(frozen=True)
class Atom:
    """A single atom: profile on a sigma = 0 cube with fixed amplitude."""

    support: GridCube
    profile: str
    axis: int
    amplitude: float

    def __post_init__(self):
        if self.support.sigma != 0:
            raise InputInvalidError("atoms live on sigma = 0 cubes")
        if self.profile not in PROFILES + CONTROL_PROFILES:
            raise InputInvalidError(f"unknown profile {self.profile!r}")
        if not 0 <= self.axis < self.support.dilation.dim:
            raise InputInvalidError("axis out of range")

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        D = self.support.dilation
        local = pts @ D.power(-self.support.tau).T - np.asarray(self.support.index, dtype=float)
        inside = np.all((local >= 0.0) & (local < 1.0), axis=1)
        vals = np.zeros(local.shape[0])
        if not np.any(inside):
            return vals
        u = local[inside]
        shape = self.axis_factor(0, u[:, 0])
        for j in range(1, u.shape[1]):
            shape = shape * self.axis_factor(j, u[:, j])
        vals[inside] = self.amplitude * shape
        return vals

    def axis_factor(self, j: int, u) -> np.ndarray:
        """The profile's 1-D factor along axis j at local coordinates u.

        Every profile is a product of these factors over the axes, each zero
        outside [0, 1): the +-1 step (haar) or the hat difference (bump) on
        the split axis, and 1 (haar) or the hat (bump, plateau) elsewhere.
        """
        u = np.asarray(u, dtype=float)
        if self.profile == "haar":
            inside = (u >= 0.0) & (u < 1.0)
            if j == self.axis:
                return np.where(inside, np.where(u < 0.5, 1.0, -1.0), 0.0)
            return inside.astype(float)
        if self.profile == "bump" and j == self.axis:
            return _smooth_hat(2.0 * u) - _smooth_hat(2.0 * u - 1.0)
        return _smooth_hat(u)


def _check_seed(seed) -> None:
    # numpy reads True as seed 1 and raises its own errors on -1 or 2.5
    if not (_is_integer(seed) and seed >= 0):
        raise InputInvalidError(f"seed must be a nonnegative integer, got {seed!r}")


def make_atom(Q: GridCube, profile: str, seed: int) -> Atom:
    """Build a cancellative atom on Q with the full allowed amplitude.

    The seed, a nonnegative integer, picks the split axis deterministically.
    The plateau control profile is rejected here because it does not
    integrate to zero.
    """
    if profile not in PROFILES:
        raise InputInvalidError(
            f"profile {profile!r} is not cancellative; valid choices: {PROFILES}"
        )
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(Q.dilation.dim))
    amplitude = det_power(Q.dilation.det_scale, -Q.tau)
    return Atom(support=Q, profile=profile, axis=axis, amplitude=amplitude)


@dataclass
class AtomicSum:
    """Finite combination sum_i lambda_i a_i with nonnegative finite weights."""

    terms: list
    dilation: DilationStructure

    def __post_init__(self):
        for atom, lam in self.terms:
            if not 0 <= lam < inf:
                raise InputInvalidError(
                    f"atomic weights must be nonnegative and finite, got {lam!r}")
            if atom.support.dilation is not self.dilation:
                raise InputInvalidError("all atoms must share the sum's dilation")

    def h1_norm(self) -> float:
        return float(_left_sum(lam for _, lam in self.terms))

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values: lambda_i a_i(points) added in term order."""
        out = np.zeros(np.atleast_2d(points).shape[0])
        for atom, lam in self.terms:
            out += lam * atom.evaluate(points)
        return out


def random_atomic_sum(D: DilationStructure, count: int, tau_range, lam_range,
                      seed: int, index_span: int, profile: str = DRAW_PROFILE) -> AtomicSum:
    """Seeded random atomic sum used by experiments and tests: count atoms
    at taus drawn from tau_range, index entries in [-index_span,
    index_span] and weights uniform on lam_range."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    taus = list(tau_range)
    terms = []
    for _ in range(count):
        tau = int(rng.choice(taus))
        idx = tuple(int(v) for v in rng.integers(-index_span, index_span + 1, size=D.dim))
        Q = GridCube(0, tau, idx, D)
        atom = make_atom(Q, profile, seed=int(rng.integers(2 ** 32)))
        lam = float(rng.uniform(*lam_range))
        terms.append((atom, lam))
    return AtomicSum(terms=terms, dilation=D)
