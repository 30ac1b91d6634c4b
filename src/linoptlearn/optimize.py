"""Penalty-method minimization of the empirical risk over raw matrix entries.

The objective is ``risk(G) + PENALTY_WEIGHT * ||G^dag G - I||_F^2`` over the
real and imaginary parts of G, descended with adaptive per-coordinate steps
(Adam) under a geometric learning-rate decay, from random near-unitary
starts.  Every run that has not stopped when Adam ends (on a plateau or at
``max_iters``) is handed to an L-BFGS-B polish, so that exact zeros of the
risk are resolved well below the reporting thresholds.  A fit converges when
its projected risk is below ``SUCCESS_RISK`` and its raw unitarity residual
at most ``core.UNITARITY_TOL``.  The risk and its gradient come from the
complex-form kernel of ``risk``, on the k x k matrix G itself; the variable
vector is ``[Re G, Im G]``, each flattened row-major.

Iterates are snapshotted at the start, every ``eval_stride`` Adam steps, when
Adam ends and at every polish step; each snapshot is scored by the risk of
its polar projection onto the unitary manifold.  A run stops at the first
snapshot within the unitarity gate below ``stop_risk``, moved back by
bisection to just under that level.  The best snapshot wins, ranked by the
gate first and the risk second, so ``risk_final`` never exceeds the risk of
any recorded snapshot within the gate.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.optimize

from .core import UNITARITY_TOL, ComplexTransfer, _matrix, _unitarity_defect, haar_unitary, substream
from .errors import DimensionMismatch, InvalidParameter, SingularMatrix
from .risk import _amplitudes, _risk_core, _risk_gradient
from .training import TrainingSet


LEARNING_RATE = 0.08
"""Initial Adam step size."""

LR_DECAY = 0.998
"""Geometric decay of the Adam step size per iteration."""

PENALTY_WEIGHT = 10.0
"""Weight of the unitarity penalty ``||G^dag G - I||_F^2`` in the objective."""

SUCCESS_RISK = 1e-7
"""Projected risk below which a fit counts as converged."""

INIT_NOISE = 0.1
"""Scale of the complex Gaussian perturbation added to each Haar start."""

POLISH_ITERS = 500
"""Iteration cap of the L-BFGS-B polish that follows Adam."""


@dataclass(frozen=True)
class OptimConfig:
    """Knobs of the penalty-method optimizer.

    ``stop_risk`` ends a run once the projected risk falls below it (defaults
    to ``SUCCESS_RISK``); set it lower when minima must be resolved beyond
    the success level, e.g. for stage-termination decisions.
    """

    max_iters: int = 4000
    restarts: int = 10
    stop_risk: float | None = None
    plateau_window: int = 800
    eval_stride: int = 25
    seed: int | tuple | None = None

    unitarity_threshold: ClassVar[float] = UNITARITY_TOL  # not a field

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 0:
            raise InvalidParameter("restarts >= 1 and max_iters >= 0 required")


@dataclass(frozen=True, eq=False)
class OptimResult:
    """Outcome of a minimization; ``transfer`` is already polar-projected."""

    transfer: ComplexTransfer
    risk_final: float
    unitarity_residual: float
    converged: bool
    iterations_used: int
    restarts_run: int
    modes: tuple | None = None


def polar_project(transfer) -> ComplexTransfer:
    """Nearest unitary in Frobenius norm: the unitary polar factor.

    Raises:
        SingularMatrix: if the input is numerically singular.
    """
    g = np.asarray(_matrix(transfer), dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {g.shape}")
    u, s, vh = np.linalg.svd(g)
    if s[-1] <= 1e-13 * max(s[0], 1.0):
        raise SingularMatrix("matrix is numerically singular; no nearest unitary")
    return ComplexTransfer(u @ vh)


def _theta_to_matrix(theta: np.ndarray, k: int) -> np.ndarray:
    g = np.empty((k, k), dtype=complex)
    g.real, g.imag = theta.reshape(2, k, k)
    return g


def _matrix_to_theta(g: np.ndarray) -> np.ndarray:
    return np.concatenate((g.real, g.imag), axis=None)


class _Problem:
    """Risk-plus-penalty objective restricted to an optional mode subset.

    The hypothesis is G on the subset's modes and the identity elsewhere.  The
    amplitudes on the subset and the fixed exponent of the other modes are
    formed once (``risk._amplitudes``), so an evaluation works on k x k
    complex matrices alone.  Its risk ``sum / T`` has ``mean``'s bits, faster.
    """

    def __init__(self, training: TrainingSet, target, modes=None):
        m = training.states.shape[1] // 2
        self.modes = tuple(int(j) for j in modes) if modes is not None else None
        if self.modes is not None:
            if not self.modes:
                raise InvalidParameter("modes subset must be nonempty")
            if len(set(self.modes)) != len(self.modes) or any(not 1 <= j <= m for j in self.modes):
                raise InvalidParameter(f"modes must be distinct and lie in 1..{m}")
        self.a, self.b, self.c = _amplitudes(training, target, self.modes)
        self.a_conj = self.a.conj()
        self.k = self.a.shape[1]

    def value_and_grad(self, theta: np.ndarray):
        g = _theta_to_matrix(theta, self.k)
        terms, w, z = _risk_core(self.a, self.b, g, self.c)
        h, residual = _unitarity_defect(g)
        grad = _risk_gradient(self.a_conj, w, z) + 4.0 * PENALTY_WEIGHT * (g @ h)
        return float(terms.sum() / len(terms)) + PENALTY_WEIGHT * residual, _matrix_to_theta(grad)

    def risk_value(self, g: np.ndarray) -> float:
        terms, _, _ = _risk_core(self.a, self.b, g, self.c)
        return float(terms.sum() / len(terms))


def _snapshot(problem: _Problem, theta: np.ndarray):
    """Score an iterate: raw residual plus risk of its polar projection."""
    g = _theta_to_matrix(theta, problem.k)
    _, residual = _unitarity_defect(g)
    try:
        projected = polar_project(g).entries
    except SingularMatrix:
        return None
    return problem.risk_value(projected), residual, projected


def _bisect_to_stop(problem: _Problem, above: np.ndarray, below: np.ndarray, stop_risk: float):
    """Point on the segment between two iterates whose risk just meets the stop level.

    Keeps stopped runs comparable: the reported risk lands in
    ``[0.6, 1.0) * stop_risk`` instead of wherever a step overshot to.
    """
    snap = _snapshot(problem, below)
    for _ in range(60):
        if snap is not None and 0.6 * stop_risk <= snap[0] < stop_risk and snap[1] <= UNITARITY_TOL:
            return below, snap
        mid = 0.5 * (above + below)
        mid_snap = _snapshot(problem, mid)
        if mid_snap is not None and mid_snap[0] < stop_risk and mid_snap[1] <= UNITARITY_TOL:
            below, snap = mid, mid_snap
        else:
            above = mid
    return below, snap


class _StopPolish(Exception):
    pass


@functools.cache
def _scipy_blas():
    """scipy's bundled OpenBLAS, or ``None`` where it is not found.

    A wheel install keeps it in ``scipy.libs`` next to the package; a scipy
    built against a system BLAS has none, and the polish then leaves that
    BLAS as it is.
    """
    folder = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in sorted(glob.glob(os.path.join(folder, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
        except (OSError, AttributeError):  # not loadable, or an OpenBLAS without these symbols
            continue
        return lib
    return None


def polish_blas_threads() -> int | None:
    """BLAS threads of the L-BFGS-B polish: 1, or ``None`` if scipy's OpenBLAS was not found."""
    return 1 if _scipy_blas() is not None else None


@contextlib.contextmanager
def _one_blas_thread():
    """Run scipy's OpenBLAS on one thread inside the block, then restore its count.

    L-BFGS-B on a few dozen variables wakes that library's worker thread,
    which then spins on a second core for the whole polish and slows the
    main thread through handoffs.  The problems are far too small to gain
    from a second thread, and the polish computes the same bits on one.
    The count is per process: polishes that overlap in threads of one
    process may restore it out of order, which changes speed, not results.
    """
    lib = _scipy_blas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(previous)


def _run_restart(problem: _Problem, theta0: np.ndarray, cfg: OptimConfig, stop_risk: float):
    best = None  # (ranking key, risk, residual, projected)
    stopped = False
    iters_done = 0
    theta_above = None  # last snapshotted iterate with risk >= stop_risk

    def consider(theta):
        nonlocal best, stopped, theta_above
        snap = _snapshot(problem, theta)
        if snap is None:
            return
        risk, residual, projected = snap
        if risk < stop_risk and residual <= UNITARITY_TOL:
            if theta_above is not None:
                _, adjusted = _bisect_to_stop(problem, theta_above, theta, stop_risk)
                if adjusted is not None:
                    risk, residual, projected = adjusted
            stopped = True
        else:
            theta_above = theta.copy()
        key = (residual > UNITARITY_TOL, risk, residual)
        if best is None or key < best[0]:
            best = (key, risk, residual, projected)

    theta = theta0.copy()
    consider(theta)
    if not stopped and cfg.max_iters > 0:
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = LEARNING_RATE
        f_best = np.inf
        theta_best = theta.copy()
        last_improve = 0
        for it in range(1, cfg.max_iters + 1):
            f, grad = problem.value_and_grad(theta)
            if f < f_best:
                if f < f_best - max(1e-16, 1e-4 * f_best):
                    last_improve = it
                f_best = f
                theta_best = theta.copy()
            # In place, with the rounding of m = beta1 m + (1 - beta1) grad,
            # v likewise, and theta -= lr mh / (sqrt(vh) + eps).
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            step = m / (1.0 - beta1**it)
            step *= lr
            denom = v / (1.0 - beta2**it)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            theta -= step
            lr *= LR_DECAY
            iters_done = it
            if it % cfg.eval_stride == 0:
                consider(theta)
                if stopped:
                    break
            if f_best < 1e-15 or (it - last_improve) > cfg.plateau_window:
                consider(theta)
                break
        if not stopped:
            theta = theta_best
            consider(theta)
    if not stopped:

        def callback(xk):
            consider(np.asarray(xk, dtype=float))
            if stopped:
                raise _StopPolish

        try:
            with _one_blas_thread():
                res = scipy.optimize.minimize(
                    problem.value_and_grad,
                    theta,
                    jac=True,
                    method="L-BFGS-B",
                    callback=callback,
                    options={"maxiter": POLISH_ITERS, "ftol": 1e-20, "gtol": 1e-14},
                )
            consider(res.x)
        except _StopPolish:
            pass
    return best, iters_done


def minimize(training: TrainingSet, target, config: OptimConfig | None = None, modes=None, initial=None) -> OptimResult:
    """Best-of-restarts minimization of the empirical risk against ``target``.

    ``modes`` restricts the hypothesis to act nontrivially on a 1-based mode
    subset (identity elsewhere); ``initial`` warm-starts the first restart.
    Restarts own independent random substreams, run in index order and stop
    early once one meets the success criteria.
    """
    cfg = config or OptimConfig()
    problem = _Problem(training, target, modes)
    stop_risk = cfg.stop_risk if cfg.stop_risk is not None else SUCCESS_RISK
    k = problem.k

    best = None
    best_iters = 0
    restarts_run = 0
    converged = False
    for r in range(cfg.restarts):
        if initial is not None and r == 0:
            g0 = np.asarray(_matrix(initial), dtype=complex)
            if g0.shape != (k, k):
                raise DimensionMismatch(f"initial transfer must be {k} x {k}")
            theta0 = _matrix_to_theta(g0)
        else:
            rng = substream(cfg.seed, r)
            noise = INIT_NOISE * (
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            ) / np.sqrt(2.0)
            theta0 = _matrix_to_theta(haar_unitary(k, rng) + noise)
        candidate, iters_done = _run_restart(problem, theta0, cfg, stop_risk)
        restarts_run += 1
        if candidate is not None and (best is None or candidate[0] < best[0]):
            best = candidate
            best_iters = iters_done
        if best is not None:
            _, risk, residual, _ = best
            converged = risk < SUCCESS_RISK and residual <= UNITARITY_TOL
            if converged:
                break
    if best is None:
        raise SingularMatrix("all restarts produced singular iterates")
    _, risk_final, residual, projected = best
    return OptimResult(
        transfer=ComplexTransfer(projected),
        risk_final=risk_final,
        unitarity_residual=residual,
        converged=converged,
        iterations_used=best_iters,
        restarts_run=restarts_run,
        modes=problem.modes,
    )
