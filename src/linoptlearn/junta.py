"""Adaptive discovery of the mode subset a linear optical circuit acts on.

Two routes are provided.  The staged learner grows an ansatz support set:
stage 2 minimizes the empirical risk over every two-mode ansatz, later stages
extend the selected support one mode at a time until the stage minimum drops
below the termination threshold.  Training sets are redrawn per stage from
the ERM2 scheme with per-stage budgets, and the energy ledger charges every
candidate minimization.

The interference route compares, mode by mode, the target's output against
the input on two independent probes using finite-shot overlap estimates; a
mode joins the complement of the junta only when both probes pass.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ComplexTransfer, _child_seed, _matrix, _overlap_exponent, as_rng, substream
from .errors import (
    BudgetExceeded,
    DegenerateProbe,
    InvalidParameter,
    StageLimitReached,
    UndeterminedWarning,
)
from .optimize import OptimConfig, minimize
from .risk import _embed_complex, _risk_core, swap_test_fidelity_estimate
from .training import Scheme, sample_sphere, sample_training_set

_DEFAULT_STAGE_OPTIM = OptimConfig(
    max_iters=1500,
    restarts=3,
    stop_risk=1e-13,
    plateau_window=300,
)


@dataclass(frozen=True)
class StagePolicy:
    """Tuning knobs of the staged search.

    Stage ``m`` trains on ``max(m, min_training_size)`` states with total
    energy ``energy_scale * m``.  Candidates whose minimized risk lies within
    ``tie_tolerance`` (relative) of the stage minimum are all selected.
    """

    termination_threshold: float = 1e-10
    tie_tolerance: float = 1e-2
    min_training_size: int | None = None
    energy_scale: float = 1.0
    energy_cap: float | None = None
    optim: OptimConfig = _DEFAULT_STAGE_OPTIM

    def __post_init__(self):
        if self.termination_threshold <= 0 or self.tie_tolerance <= 0:
            raise InvalidParameter("thresholds must be positive")
        if self.energy_scale <= 0:
            raise InvalidParameter("energy_scale must be positive")

    def training_size(self, stage: int) -> int:
        return max(stage, self.min_training_size or 0)

    def stage_energy(self, stage: int) -> float:
        return self.energy_scale * stage


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One stage of the search: candidate family, risks and selection."""

    stage: int
    family_size: int
    minimum: float
    selected: tuple
    candidates: tuple  # ((modes...), risk) pairs
    training_size: int
    energy: float

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "family_size": self.family_size,
            "minimum": self.minimum,
            "selected": [list(s) for s in self.selected],
            "candidates": [[list(c), r] for c, r in self.candidates],
            "training_size": self.training_size,
            "energy": self.energy,
        }


@dataclass(frozen=True, eq=False)
class JuntaReport:
    """Outcome of the staged search."""

    junta_modes: tuple
    stages: tuple
    learned: ComplexTransfer
    final_risk: float
    energy_spent: float
    terminated_stage: int

    def to_json(self) -> dict:
        return {
            "junta_modes": list(self.junta_modes),
            "stages": [record.to_json() for record in self.stages],
            "learned": self.learned.to_json(),
            "final_risk": self.final_risk,
            "energy_spent": self.energy_spent,
            "terminated_stage": self.terminated_stage,
        }


def _compose_selected(selected_results, junta: tuple, mode_count: int) -> np.ndarray:
    """Product of the selected sub-ansatze, restricted to the junta block."""
    full = np.eye(mode_count, dtype=complex)
    for cand, result in selected_results:
        full = _embed_complex(result.transfer.entries, cand, mode_count) @ full
    idx = np.asarray([j - 1 for j in junta], dtype=int)
    return full[np.ix_(idx, idx)]


def _composite_risk(training, target, g_block: np.ndarray, junta: tuple) -> float:
    o_u = np.asarray(_matrix(target), dtype=float)
    g_full = _embed_complex(g_block, junta, o_u.shape[0] // 2)
    terms, _, _ = _risk_core(training.states, o_u, g_full)
    return float(terms.mean())


def learn_junta(target, policy: StagePolicy | None = None, seed: int | None = None) -> JuntaReport:
    """Staged search for the acted-on modes of ``target`` plus its action there.

    Stage 2 ranges over all mode pairs; stage m > 2 extends the running
    support set by one mode.  Each stage draws a fresh ERM2 training set and
    spends ``len(candidates) * stage_energy`` from the ledger.  Terminates
    when the stage minimum drops below the threshold, returning the selected
    ansatz (a product over selected subsets when several tie).

    Raises:
        BudgetExceeded: if the next stage would exceed ``policy.energy_cap``.
        StageLimitReached: if no stage reaches the termination threshold.
    """
    policy = policy or StagePolicy()
    o_u = np.asarray(_matrix(target), dtype=float)
    mode_count = o_u.shape[0] // 2
    if mode_count < 2:
        raise InvalidParameter("need at least two modes")

    junta: set = set()
    records = []
    energy_spent = 0.0
    last_selected = []
    last_training = None
    for stage in range(2, mode_count + 1):
        if stage == 2:
            candidates = [tuple(p) for p in itertools.combinations(range(1, mode_count + 1), 2)]
        else:
            candidates = [
                tuple(sorted(junta | {l})) for l in range(1, mode_count + 1) if l not in junta
            ]
            if not candidates:
                break
        stage_energy = policy.stage_energy(stage)
        stage_cost = len(candidates) * stage_energy
        if policy.energy_cap is not None and energy_spent + stage_cost > policy.energy_cap:
            raise BudgetExceeded(
                f"stage {stage} needs {stage_cost:g} more energy; cap {policy.energy_cap:g}"
            )
        size = policy.training_size(stage)
        training = sample_training_set(
            Scheme.ERM2, mode_count, size, stage_energy, seed=substream(seed, stage)
        )
        results = []
        for index, cand in enumerate(candidates):
            cfg = replace(policy.optim, seed=_child_seed(seed, stage, index))
            results.append((cand, minimize(training, target, cfg, modes=cand)))
        energy_spent += stage_cost
        minimum = min(res.risk_final for _, res in results)
        cutoff = minimum * (1.0 + policy.tie_tolerance)
        selected = [(cand, res) for cand, res in results if res.risk_final <= cutoff]
        last_selected, last_training = selected, training
        junta |= set().union(*(set(cand) for cand, _ in selected))
        records.append(
            StageRecord(
                stage=stage,
                family_size=len(candidates),
                minimum=minimum,
                selected=tuple(cand for cand, _ in selected),
                candidates=tuple((cand, res.risk_final) for cand, res in results),
                training_size=size,
                energy=stage_energy,
            )
        )
        if minimum < policy.termination_threshold:
            junta_modes = tuple(sorted(junta))
            block = _compose_selected(selected, junta_modes, mode_count)
            final_risk = _composite_risk(training, target, block, junta_modes)
            if final_risk >= policy.termination_threshold:
                # Overlapping ties double-apply the action under composition;
                # the arg-min candidate alone already meets the threshold.
                junta_modes, best = min(results, key=lambda item: item[1].risk_final)
                block, final_risk = best.transfer.entries, best.risk_final
            return JuntaReport(
                junta_modes=junta_modes,
                stages=tuple(records),
                learned=ComplexTransfer(block),
                final_risk=final_risk,
                energy_spent=energy_spent,
                terminated_stage=stage,
            )
    # The support covers every mode although no single stage minimum crossed
    # the threshold (tied selections can exhaust the candidate families).  The
    # product of the last selection may already reconstruct the target; when
    # it does not, one direct fit on the full union settles it.
    if last_selected and len(junta) == mode_count:
        junta_modes = tuple(sorted(junta))
        block = _compose_selected(last_selected, junta_modes, mode_count)
        final_risk = _composite_risk(last_training, target, block, junta_modes)
        if final_risk >= policy.termination_threshold:
            stage = len(junta_modes)
            refit_energy = policy.stage_energy(stage)
            energy_spent += refit_energy
            refit_training = sample_training_set(
                Scheme.ERM2,
                mode_count,
                policy.training_size(stage),
                refit_energy,
                seed=substream(seed, mode_count + 1),
            )
            cfg = replace(policy.optim, seed=_child_seed(seed, mode_count + 1, 0))
            refit = minimize(refit_training, target, cfg, modes=junta_modes)
            block, final_risk = refit.transfer.entries, refit.risk_final
        if final_risk < policy.termination_threshold:
            return JuntaReport(
                junta_modes=junta_modes,
                stages=tuple(records),
                learned=ComplexTransfer(block),
                final_risk=final_risk,
                energy_spent=energy_spent,
                terminated_stage=records[-1].stage,
            )
    raise StageLimitReached(
        f"no stage minimum fell below {policy.termination_threshold:g} by stage {mode_count}"
    )


def identify_junta(target, energy: float, shots: int, seed=None) -> tuple:
    """Mode subset the circuit acts on, judged by per-mode overlap tests.

    Two probe vectors with energy ``energy`` are drawn so that no mode's
    2-vector components are parallel between them.  For every mode, the
    target's output component is compared against the input component with
    ``shots``-shot overlap estimates on both probes; the mode joins the
    complement only when both estimates exceed ``1 - 3 / sqrt(shots)``.

    Raises:
        InvalidParameter: if ``shots <= 9``, where that threshold is not
            positive and every mode would pass vacuously.
        DegenerateProbe: if probe rejection sampling fails 100 times.
    """
    if shots <= 9:
        raise InvalidParameter("shots must be > 9 for a positive pass threshold 1 - 3/sqrt(shots)")
    if energy < 0:
        raise InvalidParameter("energy must be nonnegative")
    o_u = np.asarray(_matrix(target), dtype=float)
    mode_count = o_u.shape[0] // 2
    rng = as_rng(seed)
    if energy == 0.0:
        warnings.warn(
            "zero-energy probes carry no information; every mode passes vacuously",
            UndeterminedWarning,
        )
        return ()

    def mode_blocks(vec):
        return np.stack([vec[:mode_count], vec[mode_count:]], axis=1)  # (M, 2)

    radius = np.sqrt(2.0 * energy)
    for _ in range(100):
        probes = sample_sphere(2 * mode_count, radius, 2, rng)
        bx, by = mode_blocks(probes[0]), mode_blocks(probes[1])
        cross = np.abs(bx[:, 0] * by[:, 1] - bx[:, 1] * by[:, 0])
        scale = np.linalg.norm(bx, axis=1) * np.linalg.norm(by, axis=1)
        if np.all(scale > 0.0) and np.all(cross > 1e-3 * scale):
            break
    else:
        raise DegenerateProbe("could not draw probes with non-parallel mode components")

    threshold = 1.0 - 3.0 / np.sqrt(shots)
    delta = o_u - np.eye(2 * mode_count)  # output minus input
    passive = []
    for j in range(mode_count):
        _, q = _overlap_exponent(probes, delta[[j, mode_count + j]])  # mode j's block only
        if all(swap_test_fidelity_estimate(q_probe, shots, rng) > threshold for q_probe in q):
            passive.append(j + 1)
    return tuple(j for j in range(1, mode_count + 1) if j not in passive)
