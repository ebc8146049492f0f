"""Cancellative atoms on grid cubes and finite atomic sums.

An atom lives on a cube Q of the sigma = 0 grid, is bounded by the reciprocal
cube volume, and integrates to zero.  Two cancellative profiles are provided:
a two-sided step along one axis (haar) and a smooth mirror-difference bump.
The non-cancelling plateau profile exists only as a control object and is
rejected by make_atom.
"""

from dataclasses import dataclass

import numpy as np

from .dilation import DilationStructure, _left_sum
from .errors import InputInvalidError
from .grid import GridCube

PROFILES = ("haar", "bump")
CONTROL_PROFILES = ("plateau",)


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
        return self._evaluate_local(local)

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

    def _evaluate_local(self, local: np.ndarray) -> np.ndarray:
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


def make_atom(Q: GridCube, profile: str, seed: int) -> Atom:
    """Build a cancellative atom on Q with the full allowed amplitude.

    The seed picks the split axis deterministically.  The plateau control
    profile is rejected here because it does not integrate to zero.
    """
    if profile not in PROFILES:
        raise InputInvalidError(
            f"profile {profile!r} is not cancellative; valid choices: {PROFILES}"
        )
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(Q.dilation.dim))
    amplitude = Q.dilation.det_scale ** (-Q.tau)
    return Atom(support=Q, profile=profile, axis=axis, amplitude=amplitude)


@dataclass
class AtomicSum:
    """Finite combination sum_i lambda_i a_i with nonnegative weights."""

    terms: list
    dilation: DilationStructure

    def __post_init__(self):
        for atom, lam in self.terms:
            if lam < 0:
                raise InputInvalidError("atomic weights must be nonnegative")
            if atom.support.dilation is not self.dilation:
                raise InputInvalidError("all atoms must share the sum's dilation")

    def h1_norm(self) -> float:
        return float(_left_sum(lam for _, lam in self.terms))

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values, vectorized with one pullback per tau level."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        by_tau = {}
        for atom, lam in self.terms:
            by_tau.setdefault(atom.support.tau, []).append((atom, lam))
        for tau, group in by_tau.items():
            pulled = pts @ self.dilation.power(-tau).T
            for atom, lam in group:
                local = pulled - np.asarray(atom.support.index, dtype=float)
                out += lam * atom._evaluate_local(local)
        return out


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


def random_atomic_sum(D: DilationStructure, count: int, tau_range, lam_range,
                      seed: int, profile: str = "haar", index_span: int = 8) -> AtomicSum:
    """Seeded random atomic sum used by experiments and tests."""
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
