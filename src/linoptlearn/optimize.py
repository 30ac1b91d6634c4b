"""Penalty-method minimization of the empirical risk over raw matrix entries.

The objective is ``risk(G) + PENALTY_WEIGHT * ||G^dag G - I||_F^2`` over the
real and imaginary parts of G, descended with adaptive per-coordinate steps
(Adam) under a geometric learning-rate decay, from random near-unitary
starts.  Runs that stall are handed to a quasi-Newton polish so that exact
zeros of the risk are resolved well below the reporting thresholds.  A fit
converges when its projected risk is below ``SUCCESS_RISK`` and its raw
unitarity residual at most ``core.UNITARITY_TOL``.

Candidate iterates are snapshotted on a fixed stride; each snapshot is scored
by the risk of its polar projection onto the unitary manifold, and the best
snapshot wins.  The reported ``risk_final`` therefore never exceeds the risk
at any logged trajectory point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.optimize

from .core import UNITARITY_TOL, ComplexTransfer, _matrix, _unitarity_defect, haar_unitary, substream
from .errors import DimensionMismatch, InvalidParameter, SingularMatrix
from .risk import _embed_complex, _risk_blocks, _risk_core
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
    track_trajectory: bool = False
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
    trajectory: tuple | None = None

    def to_json(self) -> dict:
        data = {
            "transfer": self.transfer.to_json(),
            "risk_final": self.risk_final,
            "unitarity_residual": self.unitarity_residual,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "restarts_run": self.restarts_run,
        }
        if self.modes is not None:
            data["modes"] = list(self.modes)
        if self.trajectory is not None:
            data["trajectory"] = [list(row) for row in self.trajectory]
        return data


def trajectory_csv(result: OptimResult) -> str:
    """Render a result's trajectory as ``iter,risk,residual`` CSV text."""
    lines = ["iter,risk,residual"]
    for it, risk, residual in result.trajectory or ():
        lines.append(f"{it},{risk!r},{residual!r}")
    return "\n".join(lines) + "\n"


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
    return theta[: k * k].reshape(k, k) + 1j * theta[k * k :].reshape(k, k)


def _matrix_to_theta(g: np.ndarray) -> np.ndarray:
    return np.concatenate([g.real.ravel(), g.imag.ravel()])


class _Problem:
    """Risk-plus-penalty objective restricted to an optional mode subset."""

    def __init__(self, training: TrainingSet, target, modes=None):
        self.x = training.states
        self.o_u = np.asarray(_matrix(target), dtype=float)
        m = self.o_u.shape[0] // 2
        if self.x.shape[1] != 2 * m:
            raise DimensionMismatch("training states and target mode counts differ")
        self.m = m
        self.modes = tuple(int(j) for j in modes) if modes is not None else None
        if self.modes is not None:
            if not self.modes:
                raise InvalidParameter("modes subset must be nonempty")
            if any(not 1 <= j <= m for j in self.modes):
                raise InvalidParameter(f"modes must lie in 1..{m}")
            self._idx = np.asarray([j - 1 for j in self.modes], dtype=int)
        self.k = len(self.modes) if self.modes is not None else m

    def embed(self, g: np.ndarray) -> np.ndarray:
        if self.modes is None:
            return g
        return _embed_complex(g, self.modes, self.m)

    def value_and_grad(self, theta: np.ndarray):
        k = self.k
        g = _theta_to_matrix(theta, k)
        terms, w, y = _risk_core(self.x, self.o_u, self.embed(g))
        risk = float(terms.mean())
        d_re, d_im = _risk_blocks(self.x, w, y)
        if self.modes is not None:
            d_re = d_re[np.ix_(self._idx, self._idx)]
            d_im = d_im[np.ix_(self._idx, self._idx)]
        h, residual = _unitarity_defect(g)
        gh = g @ h
        grad = np.concatenate(
            [
                (d_re + 4.0 * PENALTY_WEIGHT * gh.real).ravel(),
                (d_im + 4.0 * PENALTY_WEIGHT * gh.imag).ravel(),
            ]
        )
        return risk + PENALTY_WEIGHT * residual, grad

    def risk_value(self, g: np.ndarray) -> float:
        terms, _, _ = _risk_core(self.x, self.o_u, self.embed(g))
        return float(terms.mean())


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


def _run_restart(problem: _Problem, theta0: np.ndarray, cfg: OptimConfig, stop_risk: float):
    best = None  # (ranking key, risk, residual, projected)
    trajectory = [] if cfg.track_trajectory else None
    stopped = False
    iters_done = 0
    theta_above = None  # last snapshotted iterate with risk >= stop_risk

    def record(it, risk, residual, projected):
        nonlocal best
        if trajectory is not None:
            trajectory.append((it, risk, residual))
        key = (residual > UNITARITY_TOL, risk, residual)
        if best is None or key < best[0]:
            best = (key, risk, residual, projected)

    def consider(it, theta):
        nonlocal stopped, theta_above
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
        record(it, risk, residual, projected)

    theta = theta0.copy()
    consider(0, theta)
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
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            mh = m / (1.0 - beta1**it)
            vh = v / (1.0 - beta2**it)
            theta = theta - lr * mh / (np.sqrt(vh) + eps)
            lr *= LR_DECAY
            iters_done = it
            if it % cfg.eval_stride == 0:
                consider(it, theta)
                if stopped:
                    break
            if f_best < 1e-15 or (it - last_improve) > cfg.plateau_window:
                consider(it, theta)
                break
        if not stopped:
            theta = theta_best
            consider(iters_done, theta)
    if not stopped:

        def callback(xk):
            consider(iters_done, np.asarray(xk, dtype=float))
            if stopped:
                raise _StopPolish

        try:
            res = scipy.optimize.minimize(
                problem.value_and_grad,
                theta,
                jac=True,
                method="L-BFGS-B",
                callback=callback,
                options={"maxiter": POLISH_ITERS, "ftol": 1e-20, "gtol": 1e-14},
            )
            consider(iters_done, res.x)
        except _StopPolish:
            pass
    return best, iters_done, trajectory


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
    best_traj = None
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
        candidate, iters_done, trajectory = _run_restart(problem, theta0, cfg, stop_risk)
        restarts_run += 1
        if candidate is not None and (best is None or candidate[0] < best[0]):
            best = candidate
            best_iters = iters_done
            best_traj = trajectory
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
        trajectory=tuple(best_traj) if best_traj is not None else None,
    )
