"""Risk functionals for learning a linear optical circuit from coherent states.

For pure coherent states the squared trace distance between target and
hypothesis outputs reduces to ``1 - exp(-x^T L x / 2)`` per training state,
with ``L = (O_U - O_V)^T (O_U - O_V)``.  The empirical risk is the mean of
these terms; the full risks average the same integrand over the uniform
measure on the relevant sphere (the single-state sphere for ERM1/ERM1P, the
parent sphere for ERM2).

The hypothesis matrix need not be unitary: penalty-method optimization
evaluates the risk off the unitary manifold, using the raw block matrix of G.

Monte-Carlo estimators draw fixed-size chunks with per-chunk substreams, so a
result is deterministic for a given ``(seed, chunk_size)`` pair; the chunk
layout is part of the interface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ComplexTransfer, _matrix, _realify_raw, as_rng, substream
from .errors import ConvergenceWarning, DimensionMismatch, InvalidParameter, NonUnitaryInput
from .training import Scheme, TrainingSet

SHELL_STOP = 1e-12
"""Shell magnitude below which the sphere-moment series is truncated."""

TAIL_WARN = 1e-8
"""Series error estimate above which a ConvergenceWarning is emitted."""


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Value and per-state terms of a risk evaluation."""

    value: float
    per_term: np.ndarray
    scheme: Scheme | None = None
    gradient: np.ndarray | None = None
    stderr: float | None = None
    shots: int | None = None

    def __post_init__(self):
        per_term = np.asarray(self.per_term, dtype=float)
        object.__setattr__(self, "per_term", per_term)

    def to_json(self) -> dict:
        data = {"value": self.value, "per_term": self.per_term.tolist()}
        if self.stderr is not None:
            data["stderr"] = self.stderr
        if self.shots is not None:
            data["shots"] = self.shots
        return data


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Truncated-series evaluation of a full risk."""

    value: float
    truncation_order: int
    singular_values: np.ndarray
    error_estimate: float


@dataclass(frozen=True)
class ShotModel:
    """Finite-shot model for overlap estimation by interference and counting."""

    shots: int
    seed: int | tuple | None = None

    def __post_init__(self):
        if self.shots < 1:
            raise InvalidParameter("shots must be >= 1")


def _check_states(training: TrainingSet, o_u: np.ndarray) -> np.ndarray:
    x = training.states
    if o_u.shape != (x.shape[1], x.shape[1]):
        raise DimensionMismatch(
            f"target shape {o_u.shape} does not match {x.shape[1]}-dimensional states"
        )
    return x


def _embed_complex(g: np.ndarray, modes, mode_count: int) -> np.ndarray:
    """Place a k x k complex block into an identity M x M matrix (1-based modes)."""
    full = np.eye(mode_count, dtype=complex)
    idx = np.asarray([m - 1 for m in modes], dtype=int)
    full[np.ix_(idx, idx)] = g
    return full


def _risk_core(x: np.ndarray, o_u: np.ndarray, g_full: np.ndarray):
    """Terms, per-term weights and block gradients of the empirical risk.

    Returns ``(terms, w, d_re, d_im)`` where ``w = exp(-q/2)`` per state and
    ``d_re``/``d_im`` are the derivative matrices of the mean risk with
    respect to the real and imaginary parts of the full transfer matrix.
    """
    o_v = _realify_raw(g_full)
    y = x @ (o_u - o_v).T
    q = np.einsum("ti,ti->t", y, y)
    w = np.exp(-0.5 * q)
    terms = 1.0 - w
    m = g_full.shape[0]
    t = x.shape[0]
    wy_q = (w[:, None] * y[:, :m]).T
    wy_p = (w[:, None] * y[:, m:]).T
    d_re = -(wy_q @ x[:, :m] + wy_p @ x[:, m:]) / t
    d_im = -(wy_q @ x[:, m:] - wy_p @ x[:, :m]) / t
    return terms, w, d_re, d_im


def _transfer_matrix(transfer) -> np.ndarray:
    g = np.asarray(_matrix(transfer), dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square transfer matrix, got {g.shape}")
    return g


def empirical_risk(training: TrainingSet, target, transfer, *, gradient: bool = False) -> RiskReport:
    """Mean squared trace-distance risk of ``transfer`` against ``target``.

    ``transfer`` may be any complex square matrix; unitarity is the
    optimizer's concern.  With ``gradient=True`` the report carries the
    2M^2-vector of derivatives with respect to (Re G, Im G), each block
    flattened row-major.
    """
    o_u = np.asarray(_matrix(target), dtype=float)
    x = _check_states(training, o_u)
    g = _transfer_matrix(transfer)
    if 2 * g.shape[0] != o_u.shape[0]:
        raise DimensionMismatch("transfer and target mode counts differ")
    terms, _, d_re, d_im = _risk_core(x, o_u, g)
    grad = np.concatenate([d_re.ravel(), d_im.ravel()]) if gradient else None
    return RiskReport(
        value=float(terms.mean()),
        per_term=terms,
        scheme=training.scheme,
        gradient=grad,
    )


def empirical_risk_gradient(training: TrainingSet, target, transfer) -> np.ndarray:
    """Analytic gradient of the empirical risk in the real parametrization."""
    report = empirical_risk(training, target, transfer, gradient=True)
    return report.gradient


def _scheme_sampling(scheme: Scheme, modes: int, count: int, energy: float):
    """Sphere dimension and radius of the Monte-Carlo sampling space."""
    if scheme == Scheme.ERM1:
        return 2 * modes, math.sqrt(2.0 * energy)
    if scheme == Scheme.ERM1P:
        return 2 * modes, math.sqrt(2.0 * energy / count)
    return 2 * modes * count, math.sqrt(2.0 * energy)


def full_risk_mc(
    scheme,
    target,
    hypothesis,
    modes: int,
    count: int,
    energy: float,
    samples: int,
    seed=None,
    chunk_size: int = 131072,
):
    """Monte-Carlo estimate ``(value, stderr)`` of the full risk.

    ERM1 and ERM1P integrate over the single-state sphere (radius sqrt(2E)
    and sqrt(2E/T) respectively); ERM2 integrates the first-block term over
    the parent sphere in R^(2MT).
    """
    scheme = Scheme.coerce(scheme)
    if samples < 2:
        raise InvalidParameter("samples must be >= 2")
    if modes < 1 or count < 1 or energy < 0:
        raise InvalidParameter("modes, count >= 1 and energy >= 0 required")
    o_u = np.asarray(_matrix(target), dtype=float)
    o_v = np.asarray(_matrix(hypothesis), dtype=float)
    if o_u.shape != (2 * modes, 2 * modes) or o_v.shape != o_u.shape:
        raise DimensionMismatch("matrix shapes do not match the mode count")
    delta = o_u - o_v
    dim, radius = _scheme_sampling(scheme, modes, count, energy)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < samples:
        n = min(chunk_size, samples - done)
        rng = substream(seed, chunk_index)
        g = rng.standard_normal((n, dim))
        if radius > 0.0:
            g *= radius / np.linalg.norm(g, axis=1, keepdims=True)
        else:
            g[:] = 0.0
        block = g[:, : 2 * modes]
        y = block @ delta.T
        vals = 1.0 - np.exp(-0.5 * np.einsum("ti,ti->t", y, y))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += n
        chunk_index += 1
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def _factor_coeffs(a: float, order: int) -> np.ndarray:
    """Power-series coefficients of (1 + a t)^(-1/2) up to ``order``."""
    c = np.empty(order + 1)
    c[0] = 1.0
    for s in range(1, order + 1):
        c[s] = c[s - 1] * (-a) * (2 * s - 1) / (2 * s)
    return c


def series_full_risk(
    target,
    hypothesis,
    energy: float,
    modes: int | None = None,
    order: int = 200,
    *,
    scheme=Scheme.ERM1,
    count: int = 1,
) -> SeriesResult:
    """Full risk of any training scheme from the sphere-moment series.

    Writing ``kappa_j`` for the singular values of ``O_U - O_V`` and ``c_s``
    for the degree-s coefficient of ``prod_j (1 + kappa_j^2 t / 2)^(-1/2)``,
    the ERM1 full risk (energy E per state, the sphere of radius sqrt(2E) in
    R^(2M)) is one minus

        sum_s (2E)^s Gamma(M) / Gamma(M + s) * c_s.

    ``ERM1P`` is the same series at energy ``E / count``.  For ``ERM2`` the
    first block of a uniform point on the parent sphere in R^(2MT),
    ``T = count``, is ``sqrt(2E B) u`` with ``B ~ Beta(M, M(T-1))``; since
    ``E[B^s] = (M)_s / (MT)_s`` the factor becomes ``Gamma(MT) / Gamma(MT + s)``.

    Shells are accumulated until their magnitude drops below 1e-12 or
    ``order`` is reached.  ``error_estimate`` is the magnitude of the last
    shell (the dropped tail) plus the rounding error of the alternating sum,
    ``max_s |shell_s| * 2^-52`` per shell; at large ``2E kappa^2`` the shells
    grow far beyond 1 and cancellation, not truncation, limits the accuracy.
    A ``ConvergenceWarning`` is emitted when the estimate exceeds
    ``TAIL_WARN``; there ``generalization_experiment`` and ``lipschitz_check``
    fall back to ``full_risk_mc``.
    """
    scheme = Scheme.coerce(scheme)
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    if count < 1 or energy < 0:
        raise InvalidParameter("count >= 1 and energy >= 0 required")
    o_u = np.asarray(_matrix(target), dtype=float)
    o_v = np.asarray(_matrix(hypothesis), dtype=float)
    if o_u.shape != o_v.shape:
        raise DimensionMismatch("matrix shapes differ")
    m = o_u.shape[0] // 2
    if modes is not None and modes != m:
        raise DimensionMismatch(f"matrices act on {m} modes, not {modes}")
    if scheme == Scheme.ERM1P:
        energy = energy / count
    dim = m * count if scheme == Scheme.ERM2 else m  # Gamma(dim) / Gamma(dim + s)
    kappa = np.sort(np.linalg.svd(o_u - o_v, compute_uv=False))[::-1]
    coeffs = np.zeros(order + 1)
    coeffs[0] = 1.0
    for k in kappa:
        if k == 0.0:
            continue
        coeffs = np.convolve(coeffs, _factor_coeffs(0.5 * k * k, order))[: order + 1]
    total = 0.0
    factor = 1.0  # (2E)^s Gamma(dim) / Gamma(dim + s)
    last = prev = math.inf
    largest = 0.0
    used = 0
    for s in range(order + 1):
        term = factor * coeffs[s]
        total += term
        used = s
        prev, last = last, abs(term)
        largest = max(largest, last)
        if s >= 1 and max(last, prev) < SHELL_STOP:
            break
        factor *= 2.0 * energy / (dim + s)
    if not math.isfinite(total):
        warnings.warn(
            "sphere-moment series overflowed; result is unusable at this energy",
            ConvergenceWarning,
        )
        return SeriesResult(math.nan, used, kappa, math.inf)
    error = last + largest * 2.0**-52 * (used + 1)
    if error > TAIL_WARN:
        warnings.warn(
            f"series error estimate {error:.3e} exceeds {TAIL_WARN:.1e} at order {used}",
            ConvergenceWarning,
        )
    value = 1.0 - total
    slack = 1e-9 + min(error, TAIL_WARN)  # clamp rounding, never a diverged sum
    if -slack <= value < 0.0:
        value = 0.0
    elif 1.0 < value <= 1.0 + slack:
        value = 1.0
    return SeriesResult(value, used, kappa, error)


def swap_test_fidelity_estimate(u: np.ndarray, v: np.ndarray, shots: int, rng) -> float:
    """Finite-shot overlap estimate for coherent states with means ``u`` and ``v``.

    Interfering the two states on balanced beamsplitters leaves the difference
    modes in a coherent state of total mean photon number ``||u - v||^2 / 4``,
    so a shot sees all-vacuum there with probability ``sqrt(F)``.  The
    estimator squares the observed vacuum fraction.
    """
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    p = math.exp(-0.25 * float(d @ d))
    return (rng.binomial(shots, p) / shots) ** 2


def swap_test_risk(training: TrainingSet, target, transfer, model: ShotModel) -> RiskReport:
    """Shot-noise estimate of the empirical risk via interference and counting.

    Per training state the target and hypothesis outputs are interfered on M
    balanced beamsplitters; the total count on the difference modes is Poisson
    with mean ``||a - b||^2 / 4`` and a shot records all-vacuum with
    probability ``sqrt(F)``.  As ``shots -> infinity`` the report converges to
    the closed-form empirical risk.
    """
    o_u = np.asarray(_matrix(target), dtype=float)
    x = _check_states(training, o_u)
    g = _transfer_matrix(transfer)
    wrapped = transfer if isinstance(transfer, ComplexTransfer) else ComplexTransfer(g)
    if not wrapped.is_unitary():
        raise NonUnitaryInput("swap-test risk requires a unitary transfer matrix")
    o_v = _realify_raw(g)
    d = x @ (o_u - o_v).T
    mu = 0.25 * np.einsum("ti,ti->t", d, d)
    p = np.exp(-mu)
    rng = as_rng(model.seed)
    fhat = (rng.binomial(model.shots, p) / model.shots) ** 2
    terms = 1.0 - fhat
    return RiskReport(
        value=float(terms.mean()),
        per_term=terms,
        scheme=training.scheme,
        shots=model.shots,
    )
