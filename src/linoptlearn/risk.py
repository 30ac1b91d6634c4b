"""Risk functionals for learning a linear optical circuit from coherent states.

For pure coherent states the squared trace distance between target and
hypothesis outputs reduces to ``1 - exp(-q / 2)`` per training state, with
``q = |(O_U - O_V) x|^2`` from ``core._overlap_exponent``, the one place that
exponent is formed.  The empirical risk is the mean of these terms; the full
risks average the same integrand over the uniform measure on the scheme's
sphere (``training._sphere``: the single-state sphere for ERM1/ERM1P, the
parent sphere for ERM2).

The hypothesis matrix need not be unitary: penalty-method optimization
evaluates the risk off the unitary manifold, using the raw block matrix of G.

Monte-Carlo estimators draw ``MC_CHUNK``-sample chunks with per-chunk
substreams, so a result is deterministic for a given seed; the chunk layout
is part of the interface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ComplexTransfer, _matrix, _overlap_exponent, _realify_raw, as_rng, substream
from .errors import ConvergenceWarning, DimensionMismatch, InvalidParameter, NonUnitaryInput
from .training import Scheme, TrainingSet, _sphere

SHELL_STOP = 1e-12
"""Shell magnitude below which the sphere-moment series is truncated."""

TAIL_WARN = 1e-8
"""Series error estimate above which a ConvergenceWarning is emitted."""

MC_CHUNK = 131072
"""Samples per Monte-Carlo chunk; chunk ``i`` draws from ``substream(seed, i)``."""


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Value and per-state terms of a risk evaluation."""

    value: float
    per_term: np.ndarray
    shots: int | None = None

    def __post_init__(self):
        per_term = np.asarray(self.per_term, dtype=float)
        object.__setattr__(self, "per_term", per_term)

    def to_json(self) -> dict:
        data = {"value": self.value, "per_term": self.per_term.tolist()}
        if self.shots is not None:
            data["shots"] = self.shots
        return data


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Truncated-series evaluation of a full risk."""

    value: float
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


def _risk_inputs(training: TrainingSet, target, transfer):
    """``(x, O_U, G)`` of a risk evaluation, with their shapes checked."""
    x = training.states
    o_u = np.asarray(_matrix(target), dtype=float)
    g = np.asarray(_matrix(transfer), dtype=complex)
    if o_u.shape != (x.shape[1], x.shape[1]):
        raise DimensionMismatch(
            f"target shape {o_u.shape} does not match {x.shape[1]}-dimensional states"
        )
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square transfer matrix, got {g.shape}")
    if 2 * g.shape[0] != o_u.shape[0]:
        raise DimensionMismatch("transfer and target mode counts differ")
    return x, o_u, g


def _embed_complex(g: np.ndarray, modes, mode_count: int) -> np.ndarray:
    """Place a k x k complex block into an identity M x M matrix (1-based modes)."""
    full = np.eye(mode_count, dtype=complex)
    idx = np.asarray([m - 1 for m in modes], dtype=int)
    full[np.ix_(idx, idx)] = g
    return full


def _risk_core(x: np.ndarray, o_u: np.ndarray, g_full: np.ndarray):
    """Terms of the empirical risk, plus what its gradient needs.

    Returns ``(terms, w, y)``: the per-state terms ``1 - w`` with overlaps
    ``w = exp(-q / 2)``, and the rows ``y = (O_U - O_V) x``.
    """
    y, q = _overlap_exponent(x, o_u - _realify_raw(g_full))
    w = np.exp(-0.5 * q)
    return 1.0 - w, w, y


def _risk_blocks(x: np.ndarray, w: np.ndarray, y: np.ndarray):
    """``(d_re, d_im)``: derivatives of the mean risk with respect to Re G and Im G.

    ``w`` and ``y`` come from ``_risk_core`` on the same states ``x``.
    """
    m = x.shape[1] // 2
    t = x.shape[0]
    wy_q = (w[:, None] * y[:, :m]).T
    wy_p = (w[:, None] * y[:, m:]).T
    d_re = -(wy_q @ x[:, :m] + wy_p @ x[:, m:]) / t
    d_im = -(wy_q @ x[:, m:] - wy_p @ x[:, :m]) / t
    return d_re, d_im


def empirical_risk(training: TrainingSet, target, transfer) -> RiskReport:
    """Mean squared trace-distance risk of ``transfer`` against ``target``.

    ``transfer`` may be any complex square matrix; unitarity is the
    optimizer's concern.
    """
    terms, _, _ = _risk_core(*_risk_inputs(training, target, transfer))
    return RiskReport(value=float(terms.mean()), per_term=terms)


def empirical_risk_gradient(training: TrainingSet, target, transfer) -> np.ndarray:
    """Analytic gradient of the empirical risk in the real parametrization.

    The 2M^2-vector of derivatives with respect to (Re G, Im G), each block
    flattened row-major.
    """
    x, o_u, g = _risk_inputs(training, target, transfer)
    _, w, y = _risk_core(x, o_u, g)
    d_re, d_im = _risk_blocks(x, w, y)
    return np.concatenate([d_re.ravel(), d_im.ravel()])


def _scheme_sampling(scheme: Scheme, modes: int, count: int, energy: float):
    """Sphere dimension and radius of the Monte-Carlo sampling space.

    Kept apart from ``training._sphere`` on purpose: as the oracle's own copy
    of the geometry, it lets the series-vs-MC tests check that geometry too.
    """
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
        n = min(MC_CHUNK, samples - done)
        rng = substream(seed, chunk_index)
        g = rng.standard_normal((n, dim))
        if radius > 0.0:
            g *= radius / np.linalg.norm(g, axis=1, keepdims=True)
        else:
            g[:] = 0.0
        _, q = _overlap_exponent(g[:, : 2 * modes], delta)
        vals = 1.0 - np.exp(-0.5 * q)
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

    Writing ``kappa_j`` for the singular values of ``O_U - O_V``, ``c_s``
    for the degree-s coefficient of ``prod_j (1 + kappa_j^2 t / 2)^(-1/2)``
    and ``(D, R^2)`` for the dimension and squared radius of the scheme's
    sphere (``training._sphere``), the full risk is one minus

        sum_s R^(2s) Gamma(D/2) / Gamma(D/2 + s) * c_s.

    For ERM1 (D = 2M, R^2 = 2E) this is the sphere-moment series of one
    state; ERM1P is the same series at ``R^2 = 2E / count``.  For ERM2
    (D = 2MT, ``T = count``) the first block of a uniform point on the parent
    sphere is ``sqrt(2E B) u`` with ``B ~ Beta(M, M(T-1))``; since
    ``E[B^s] = (M)_s / (MT)_s`` the ERM1 factor ``Gamma(M) / Gamma(M + s)``
    becomes ``Gamma(MT) / Gamma(MT + s)``.

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
    dim, radius_sq = _sphere(scheme, m, count, energy)
    kappa = np.sort(np.linalg.svd(o_u - o_v, compute_uv=False))[::-1]
    coeffs = np.zeros(order + 1)
    coeffs[0] = 1.0
    for k in kappa:
        if k == 0.0:
            continue
        coeffs = np.convolve(coeffs, _factor_coeffs(0.5 * k * k, order))[: order + 1]
    total = 0.0
    factor = 1.0  # R^(2s) Gamma(D/2) / Gamma(D/2 + s)
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
        factor *= radius_sq / (dim // 2 + s)
    if not math.isfinite(total):
        warnings.warn(
            "sphere-moment series overflowed; result is unusable at this energy",
            ConvergenceWarning,
        )
        return SeriesResult(math.nan, kappa, math.inf)
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
    return SeriesResult(value, kappa, error)


def swap_test_fidelity_estimate(q, shots: int, rng):
    """Finite-shot overlap estimate for coherent states with overlap exponent ``q``.

    For means ``u`` and ``v``, ``q = ||u - v||^2``.  Interfering the two
    states on balanced beamsplitters leaves the difference modes in a coherent
    state of total mean photon number ``q / 4``, so a shot sees all-vacuum
    there with probability ``sqrt(F)``.  The estimator squares the observed
    vacuum fraction; ``q`` may be an array of exponents.
    """
    return (rng.binomial(shots, np.exp(-0.25 * q)) / shots) ** 2


def swap_test_risk(training: TrainingSet, target, transfer, model: ShotModel) -> RiskReport:
    """Shot-noise estimate of the empirical risk via interference and counting.

    Per training state the target and hypothesis outputs are interfered on M
    balanced beamsplitters (``swap_test_fidelity_estimate``).  As
    ``shots -> infinity`` the report converges to the closed-form empirical
    risk.
    """
    x, o_u, g = _risk_inputs(training, target, transfer)
    if not ComplexTransfer(g).is_unitary():
        raise NonUnitaryInput("swap-test risk requires a unitary transfer matrix")
    _, q = _overlap_exponent(x, o_u - _realify_raw(g))
    terms = 1.0 - swap_test_fidelity_estimate(q, model.shots, as_rng(model.seed))
    return RiskReport(value=float(terms.mean()), per_term=terms, shots=model.shots)
