"""Energy-constrained coherent-state training sets.

Three allocation schemes for a total energy budget ``E``:

* ``ERM1``  -- every one of the T states sits on the sphere of radius
  sqrt(2E), so each state carries energy E.
* ``ERM1P`` -- every state sits on the sphere of radius sqrt(2E/T), so the
  set as a whole carries energy E.
* ``ERM2``  -- a single parent vector is drawn uniformly from the sphere of
  radius sqrt(2E) in R^(2MT) and partitioned into T contiguous blocks of
  length 2M; the set as a whole carries energy E exactly.

``_sphere`` is the one definition of these spheres: sampling, the norm check
of a ``TrainingSet`` and the full-risk series all read it.  Sphere uniformity
comes from normalizing standard Gaussian vectors, which is exact in every
dimension.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import as_rng
from .errors import InvalidParameter, UnsupportedRegime


class Scheme(enum.Enum):
    """Training-energy allocation scheme."""

    ERM1 = "ERM1"
    ERM1P = "ERM1P"
    ERM2 = "ERM2"

    @classmethod
    def coerce(cls, value) -> "Scheme":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise InvalidParameter(f"unknown scheme {value!r}") from None


def _sphere(scheme: Scheme, modes: int, count: int, energy: float) -> tuple[int, float]:
    """Dimension and squared radius of the sphere a scheme draws its states on.

    ERM1 and ERM1P draw each of the ``count`` states on its own sphere in
    R^(2M); ERM2 draws the whole set as one point of the parent sphere in
    R^(2MT).
    """
    if scheme == Scheme.ERM2:
        return 2 * modes * count, 2.0 * energy
    if scheme == Scheme.ERM1P:
        return 2 * modes, 2.0 * energy / count
    return 2 * modes, 2.0 * energy


def sample_sphere(dim: int, radius: float, size: int, rng=None) -> np.ndarray:
    """Uniform points on the sphere of given radius in R^dim, stacked as rows."""
    if dim < 1 or size < 0:
        raise InvalidParameter("dim must be >= 1 and size >= 0")
    if radius < 0:
        raise InvalidParameter("radius must be nonnegative")
    rng = as_rng(rng)
    g = rng.standard_normal((size, dim))
    if radius == 0.0:
        return np.zeros((size, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms * radius


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """T coherent-state mean vectors plus the scheme and budget that produced them.

    ``states`` has shape (T, 2M); every row (ERM1, ERM1P) or the whole set
    (ERM2) lies on the scheme's sphere.
    """

    scheme: Scheme
    modes: int
    energy: float
    states: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 2 * self.modes or states.shape[0] < 1:
            raise InvalidParameter(f"states must have shape (T, {2 * self.modes})")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        self._check_norms()

    def _check_norms(self):
        dim, radius_sq = _sphere(self.scheme, self.modes, self.size, self.energy)
        norms_sq = np.sum(self.states.reshape(-1, dim) ** 2, axis=1)
        tol = 1e-9 * max(1.0, 2.0 * self.energy)
        if not np.all(np.abs(norms_sq - radius_sq) <= tol):
            raise InvalidParameter(f"state norms violate the {self.scheme.value} constraint")

    @property
    def parent(self) -> np.ndarray | None:
        """The ERM2 parent vector: the row-major concatenation of the states."""
        return self.states.reshape(-1) if self.scheme == Scheme.ERM2 else None

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def state_energies(self) -> np.ndarray:
        return np.sum(self.states**2, axis=1) / 2.0


def sample_training_set(scheme, modes: int, count: int, energy: float, seed=None) -> TrainingSet:
    """Draw a training set of ``count`` states on ``modes`` modes.

    Deterministic for a given integer seed.  With zero energy all states are
    the vacuum.  ERM2 with a single state degenerates to one full-energy state
    (identical to ERM1 at T=1).
    """
    scheme = Scheme.coerce(scheme)
    if modes < 1 or count < 1:
        raise InvalidParameter("modes and count must be >= 1")
    if energy < 0:
        raise InvalidParameter("energy must be nonnegative")
    dim, radius_sq = _sphere(scheme, modes, count, energy)
    points = sample_sphere(dim, math.sqrt(radius_sq), 2 * modes * count // dim, as_rng(seed))
    return TrainingSet(
        scheme=scheme,
        modes=modes,
        energy=float(energy),
        states=points.reshape(count, 2 * modes),
        seed=seed if isinstance(seed, int) else None,
    )


def marginal_log_normalization(modes: int, count: int, energy: float) -> float:
    """Log of the constant normalizing the single-block marginal density."""
    m, t = modes, count
    return (
        math.lgamma(m * t)
        - m * math.log(math.pi)
        - math.lgamma(m * (t - 1))
        - (m * t - 1) * math.log(2.0 * energy)
    )


def marginal_density(x1, modes: int, count: int, energy: float) -> float:
    """Probability density of a single 2M block of an ERM2 parent vector.

    On the support ``||x1||^2 < 2E`` the density is

        Gamma(MT) / (pi^M Gamma(M(T-1)) (2E)^(MT-1)) * (2E - ||x1||^2)^(M(T-1)-1)

    and zero outside.  Only defined for T >= 2; a single-state set is a point
    mass on the sphere, not a density.
    """
    if count < 2:
        raise UnsupportedRegime("the marginal is a density only for count >= 2")
    if modes < 1:
        raise InvalidParameter("modes must be >= 1")
    if energy <= 0:
        raise InvalidParameter("energy must be positive")
    x = np.asarray(x1, dtype=float)
    if x.size != 2 * modes:
        raise InvalidParameter(f"x1 must have length {2 * modes}")
    excess = 2.0 * energy - float(x @ x)
    if excess <= 0.0:
        return 0.0
    exponent = modes * (count - 1) - 1
    return math.exp(marginal_log_normalization(modes, count, energy) + exponent * math.log(excess))
