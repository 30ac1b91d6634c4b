"""Generalization-gap bounds and their empirical verification.

The bound calculators evaluate the closed-form high-probability bounds on
``|C - C_hat|`` for each training scheme exactly as displayed, with the
absolute constant ``C1 = 1 / (9 pi^3 ln 2)`` of the sphere-concentration
inequality.  The experiment helpers measure the actual gaps at empirically
minimized circuits and check the Lipschitz implications by direct sampling.
Full risks of all three schemes come from the exact sphere-moment series, and
comparisons carry a margin of 3 times its error estimate.  Where that estimate
exceeds ``TAIL_WARN`` (large ``2E kappa^2``, where the alternating series
cancels) the full risk falls back to a Monte-Carlo estimate and the margin is
3 stderr.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _child_seed,
    _matrix,
    _overlap_exponent,
    _realify_raw,
    complexify,
    random_linear_optical,
    spectral_distance,
    substream,
)
from .errors import ConvergenceWarning, InvalidParameter
from .optimize import OptimConfig, minimize
from .risk import TAIL_WARN, empirical_risk, full_risk_mc, series_full_risk
from .training import Scheme, sample_sphere, sample_training_set

C1 = 1.0 / (9.0 * math.pi**3 * math.log(2.0))
"""Absolute constant of the sphere-concentration inequality."""


@dataclass(frozen=True)
class BoundParams:
    """Arguments of the gap bounds: modes M, size T, energy E, confidence delta."""

    modes: int
    size: int | float
    energy: float
    delta: float

    def __post_init__(self):
        if self.modes < 1 or self.size < 1:
            raise InvalidParameter("modes and size must be >= 1")
        if self.energy < 0:
            raise InvalidParameter("energy must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParameter("delta must lie in (0, 1)")


def gap_bound_erm2(params: BoundParams) -> float:
    """High-probability bound on the ERM2 generalization gap."""
    m, t, e = params.modes, params.size, params.energy
    log_cover = math.log(6.0 * math.sqrt(C1 * m * t**3))
    radicand = 16.0 * e * m * log_cover / (C1 * t**3) + 16.0 * e * math.log(
        2.0 / params.delta
    ) / (C1 * m * t**3)
    if radicand < 0:
        raise InvalidParameter("bound undefined: negative radicand at these parameters")
    return math.sqrt(radicand) + 2.0 * math.sqrt(e / (C1 * m * t**3))


def gap_bound_erm1(params: BoundParams) -> float:
    """High-probability bound on the ERM1 generalization gap."""
    m, t, e = params.modes, params.size, params.energy
    radicand = 32.0 * e * m**2 * math.log(6.0 * math.sqrt(t)) / t + 32.0 * e * math.log(
        2.0 / params.delta
    ) / t
    return math.sqrt(radicand) + 2.0 * math.sqrt(e / t)


def gap_bound_erm1_prime(params: BoundParams) -> float:
    """ERM1 bound with the per-state energy lowered to E/T (total budget E)."""
    return gap_bound_erm1(replace(params, energy=params.energy / params.size))


_BOUNDS = {
    Scheme.ERM1: gap_bound_erm1,
    Scheme.ERM1P: gap_bound_erm1_prime,
    Scheme.ERM2: gap_bound_erm2,
}


def gap_bound(scheme, params: BoundParams) -> float:
    """Dispatch to the bound matching the training scheme."""
    return _BOUNDS[Scheme.coerce(scheme)](params)


def minimal_sufficient_size(scheme, modes: int, energy: float, delta: float, level: float = 1.0) -> float:
    """Smallest (real-valued) training size whose gap bound drops to ``level``."""
    scheme = Scheme.coerce(scheme)
    lo, hi = 1.0, 2.0
    for _ in range(80):
        if gap_bound(scheme, BoundParams(modes, hi, energy, delta)) <= level:
            break
        hi *= 2.0
    else:
        raise InvalidParameter("bound does not reach the requested level")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap_bound(scheme, BoundParams(modes, mid, energy, delta)) <= level:
            hi = mid
        else:
            lo = mid
    return hi


def _full_risk(scheme, target, hypothesis, modes, count, energy, samples, seed):
    """``(value, error)`` of a full risk: the series, or Monte-Carlo past ``TAIL_WARN``.

    ``error`` is the series error estimate, or the Monte-Carlo stderr when
    the series cannot be trusted at this energy and the estimate is drawn
    with ``samples`` points from ``seed``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        series = series_full_risk(target, hypothesis, energy, modes, scheme=scheme, count=count)
    if series.error_estimate <= TAIL_WARN:
        return series.value, series.error_estimate
    return full_risk_mc(scheme, target, hypothesis, modes, count, energy, samples, seed=seed)


@dataclass(frozen=True, eq=False)
class LipschitzReport:
    """Observed risk gaps of a circuit pair against the Lipschitz budgets."""

    epsilon_erm1: float
    epsilon_erm2: float
    empirical_gap_max: float
    empirical_violations: int
    full_gap_erm1: float
    full_gap_erm1_stderr: float
    full_gap_erm2: float
    full_gap_erm2_stderr: float
    full_violations: int
    worst_ratio: float
    trials: int


def lipschitz_check(
    first,
    second,
    energy: float,
    trials: int,
    seed=None,
    size: int = 3,
    mc_samples: int = 20000,
) -> LipschitzReport:
    """Sample training sets and verify the risk-continuity implications.

    With ``d = ||O_W - O_V||`` (spectral), every empirical risk gap and the
    ERM1 full-risk gap must stay below ``eps1 = d sqrt(E)``, and the ERM2
    full-risk gap below ``eps2 = d sqrt(E (2M+1) / (2MT-1))``.  The full risk
    of ``O_W`` against itself is 0, so each full-risk gap is the full risk of
    ``O_V`` against ``O_W``.  The ERM1 and ERM2 full risks come from the
    sphere-moment series (ERM1P, the ERM1 series at E/T, has no separate
    budget here) and a gap violates only when it exceeds its budget by more
    than 3 times its error estimate.  Where that estimate exceeds
    ``TAIL_WARN`` the full risk is a ``mc_samples``-point Monte-Carlo
    estimate instead, and the ``*_stderr`` fields hold its stderr.
    ``seed=None`` draws the trials and the Monte-Carlo samples from fresh
    entropy.
    """
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    o_w = np.asarray(_matrix(first), dtype=float)
    o_v = np.asarray(_matrix(second), dtype=float)
    modes = o_w.shape[0] // 2
    distance = spectral_distance(o_w, o_v)
    eps1 = distance * math.sqrt(energy)
    eps2 = distance * math.sqrt(energy * (2 * modes + 1) / (2 * modes * size - 1))
    g_w, g_v = complexify(o_w), complexify(o_v)
    worst = 0.0
    gap_max = 0.0
    violations = 0
    for trial in range(trials):
        rng = substream(seed, trial)
        for scheme in (Scheme.ERM1, Scheme.ERM2):
            training = sample_training_set(scheme, modes, size, energy, seed=rng)
            gap = abs(
                empirical_risk(training, o_w, g_w).value
                - empirical_risk(training, o_w, g_v).value
            )
            gap_max = max(gap_max, gap)
            if eps1 > 0:
                worst = max(worst, gap / eps1)
            if gap > eps1 + 1e-12:
                violations += 1

    def full_gap(scheme, eps):
        value, error = _full_risk(scheme, o_w, o_v, modes, size, energy, mc_samples, _child_seed(seed, 1))
        gap = abs(value)
        return gap, error, int(gap - 3.0 * error > eps)

    gap1, se1, v1 = full_gap(Scheme.ERM1, eps1)
    gap2, se2, v2 = full_gap(Scheme.ERM2, eps2)
    if eps1 > 0:
        worst = max(worst, gap1 / eps1)
    if eps2 > 0:
        worst = max(worst, gap2 / eps2)
    return LipschitzReport(
        epsilon_erm1=eps1,
        epsilon_erm2=eps2,
        empirical_gap_max=gap_max,
        empirical_violations=violations,
        full_gap_erm1=gap1,
        full_gap_erm1_stderr=se1,
        full_gap_erm2=gap2,
        full_gap_erm2_stderr=se2,
        full_violations=v1 + v2,
        worst_ratio=worst,
        trials=trials,
    )


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Measured gaps against the bound at one training size."""

    scheme: Scheme
    modes: int
    size: int
    energy: float
    delta: float
    bound_value: float
    empirical_gaps: tuple
    violation_fraction: float
    failures: int

    @property
    def median_gap(self) -> float:
        return float(np.median(self.empirical_gaps)) if self.empirical_gaps else math.nan

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "M": self.modes,
            "T": self.size,
            "E": self.energy,
            "delta": self.delta,
            "bound": self.bound_value,
            "gaps": list(self.empirical_gaps),
            "violation_fraction": self.violation_fraction,
            "failures": self.failures,
        }


def generalization_experiment(
    scheme,
    modes: int,
    energy: float,
    size_grid,
    delta: float,
    sets_per_size: int,
    seed=None,
    optim: OptimConfig | None = None,
    mc_samples: int = 200000,
    optimizer_replicas: int = 1,
) -> list:
    """Measure ``|C - C_hat|`` at empirically minimized circuits per size.

    For every size in the grid: draw training sets, minimize the empirical
    risk, evaluate the matching full risk at the minimizer, and compare the
    gap with the scheme's bound.  The full risk of ERM1, ERM1P (the ERM1
    series at E/T) and ERM2 (the parent-sphere series) is exact up to the
    series error estimate, and a gap violates the bound only beyond a margin
    of 3 times that estimate.  Where the estimate exceeds ``TAIL_WARN`` the
    full risk is a ``mc_samples``-point Monte-Carlo estimate instead, with a
    3-stderr margin.  ``optimizer_replicas`` independent minimizations per
    set average out the algorithm's direction-of-approach noise.  Sets where
    no replica converges are excluded and counted in ``failures``.
    ``seed=None`` draws targets, sets, starts and samples from fresh entropy.
    """
    scheme = Scheme.coerce(scheme)
    base = optim or OptimConfig(restarts=4, max_iters=3000)
    reports = []
    for size in size_grid:
        bound_value = gap_bound(scheme, BoundParams(modes, size, energy, delta))
        gaps = []
        failures = 0
        violations = 0
        for index in range(sets_per_size):
            run_seed = _child_seed(seed, size, index)
            target = random_linear_optical(modes, substream(run_seed, 0))
            training = sample_training_set(scheme, modes, size, energy, seed=substream(run_seed, 1))
            replica_gaps = []
            margin_ok = True
            for replica in range(optimizer_replicas):
                result = minimize(training, target, replace(base, seed=_child_seed(run_seed, 2, replica)))
                if not result.converged:
                    continue
                full, error = _full_risk(
                    scheme,
                    target,
                    _realify_raw(result.transfer.entries),
                    modes,
                    size,
                    energy,
                    mc_samples,
                    _child_seed(run_seed, 3, replica),
                )
                gap = abs(full - result.risk_final)
                replica_gaps.append(gap)
                if gap - 3.0 * error > bound_value:
                    margin_ok = False
            if not replica_gaps:
                failures += 1
                continue
            gaps.append(float(np.mean(replica_gaps)))
            if not margin_ok:
                violations += 1
        reports.append(
            BoundReport(
                scheme=scheme,
                modes=modes,
                size=int(size),
                energy=energy,
                delta=delta,
                bound_value=bound_value,
                empirical_gaps=tuple(gaps),
                violation_fraction=violations / max(1, len(gaps)),
                failures=failures,
            )
        )
    return reports


def sphere_gradient_bound_check(
    target, hypothesis, modes: int, size: int, energy: float, samples: int, seed=None
):
    """Max sampled gradient norms of the risk against the proof budgets.

    Returns ``(max_parent_grad, parent_budget, max_product_grad, product_budget)``
    where the parent parameterization (ERM2) must stay below ``4 sqrt(2E) / T``
    and the per-state product parameterization (ERM1) below ``4 sqrt(2E)``.
    """
    delta = np.asarray(_matrix(target), dtype=float) - np.asarray(_matrix(hypothesis), dtype=float)
    radius = math.sqrt(2.0 * energy)
    rng = substream(seed, 0)
    parent = sample_sphere(2 * modes * size, radius, samples, rng)
    product = sample_sphere(2 * modes, radius, samples * size, rng)
    maxima = []
    for points in (parent, product):
        blocks = points.reshape(samples, size, 2 * modes)
        d, q = _overlap_exponent(blocks, delta)
        grad = np.exp(-0.5 * q)[:, :, None] * (d @ delta) / size  # w L x per state
        maxima.append(float(np.sqrt(np.sum(grad**2, axis=(1, 2))).max()))
    return maxima[0], 4.0 * radius / size, maxima[1], 4.0 * radius


def concentration_tail_report(
    target, hypothesis, modes: int, size: int, energy: float, etas, samples: int, seed=None
):
    """Empirical tail probabilities of the overlap on the parent sphere.

    Returns a list of ``(eta, empirical_tail, bound)`` rows with the bound
    ``2 exp(-C1 (D+1) eta^2 / kappa^2)``, ``D + 1 = 2MT`` and the loose
    Lipschitz constant ``kappa = R ||L||``.
    """
    delta = np.asarray(_matrix(target), dtype=float) - np.asarray(_matrix(hypothesis), dtype=float)
    ell = delta.T @ delta
    radius = math.sqrt(2.0 * energy)
    kappa = radius * float(np.linalg.norm(ell, 2))
    dim = 2 * modes * size
    rng = substream(seed, 0)
    parent = sample_sphere(dim, radius, samples, rng)
    _, q = _overlap_exponent(parent[:, : 2 * modes], delta)
    values = np.exp(-0.5 * q)
    mean = values.mean()
    rows = []
    for eta in etas:
        tail = float(np.mean(np.abs(values - mean) >= eta))
        bound = 2.0 * math.exp(-C1 * dim * eta**2 / kappa**2) if kappa > 0 else 0.0
        rows.append((float(eta), tail, bound))
    return rows
