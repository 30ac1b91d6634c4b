import dataclasses

import numpy as np
import pytest

import linoptlearn as ll
from linoptlearn.core import UNITARITY_TOL, _realify_raw
from linoptlearn.errors import InvalidParameter, SingularMatrix
from linoptlearn.optimize import OptimConfig


def test_polar_project_unitary_fixed_point():
    g = ll.haar_unitary(4, np.random.default_rng(0))
    out = ll.polar_project(g).entries
    assert np.abs(out - g).max() < 1e-12


def test_polar_project_removes_scaling():
    out = ll.polar_project(2.0 * np.eye(3, dtype=complex)).entries
    assert np.abs(out - np.eye(3)).max() < 1e-14


def test_polar_project_random_is_unitary():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = ll.polar_project(g).entries
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12


def test_polar_project_singular():
    with pytest.raises(SingularMatrix):
        ll.polar_project(np.zeros((2, 2), dtype=complex))


def test_config_validation():
    with pytest.raises(InvalidParameter):
        OptimConfig(restarts=0)


def test_config_fields():
    names = [field.name for field in dataclasses.fields(OptimConfig)]
    assert names == [
        "max_iters", "restarts", "stop_risk", "plateau_window", "eval_stride", "track_trajectory", "seed",
    ]
    assert OptimConfig().unitarity_threshold == UNITARITY_TOL


def test_warm_start_at_solution_converges_immediately():
    target = ll.random_linear_optical(3, seed=2)
    training = ll.sample_training_set("ERM1", 3, 3, 1.0, seed=3)
    result = ll.minimize(training, target, OptimConfig(seed=4), initial=ll.complexify(target))
    assert result.converged
    assert result.iterations_used == 0
    assert result.risk_final == 0.0


def test_faithful_recovery_small():
    target = ll.random_linear_optical(3, seed=5)
    training = ll.sample_training_set("ERM1", 3, 3, 1.0, seed=6)
    result = ll.minimize(training, target, OptimConfig(restarts=6, seed=7))
    assert result.converged
    dist = ll.frobenius_distance_squared(target.entries, _realify_raw(result.transfer.entries))
    assert dist < 1e-4


def test_unfaithful_regime_reaches_zero_risk_far_from_target():
    target = ll.random_linear_optical(4, seed=8)
    training = ll.sample_training_set("ERM1", 4, 2, 1.0, seed=9)
    result = ll.minimize(training, target, OptimConfig(restarts=4, seed=10))
    assert result.converged
    dist = ll.frobenius_distance_squared(target.entries, _realify_raw(result.transfer.entries))
    assert dist > 1e-2


def test_penalty_consistency_and_projection():
    target = ll.random_linear_optical(3, seed=11)
    training = ll.sample_training_set("ERM2", 3, 4, 2.0, seed=12)
    result = ll.minimize(training, target, OptimConfig(restarts=4, seed=13))
    assert result.converged
    assert result.unitarity_residual <= 1e-6
    g = result.transfer.entries
    assert np.linalg.norm(g.conj().T @ g - np.eye(3)) < 1e-12


def test_best_so_far_dominates_trajectory():
    target = ll.random_linear_optical(3, seed=14)
    training = ll.sample_training_set("ERM1", 3, 3, 1.0, seed=15)
    cfg = OptimConfig(restarts=2, seed=16, track_trajectory=True, stop_risk=0.0, max_iters=600)
    result = ll.minimize(training, target, cfg)
    assert result.trajectory
    assert all(result.risk_final <= risk for _, risk, _ in result.trajectory)


def test_trajectory_csv_format():
    target = ll.random_linear_optical(2, seed=17)
    training = ll.sample_training_set("ERM1", 2, 2, 1.0, seed=18)
    cfg = OptimConfig(restarts=1, seed=19, track_trajectory=True, max_iters=100)
    result = ll.minimize(training, target, cfg)
    text = ll.trajectory_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,risk,residual"
    assert len(lines) == len(result.trajectory) + 1


def test_mode_subset_optimization():
    spec, target = ll.random_junta(4, 2, seed=20, junta_modes=(2, 4))
    training = ll.sample_training_set("ERM2", 4, 3, 2.0, seed=21)
    result = ll.minimize(training, target, OptimConfig(restarts=3, seed=22, stop_risk=1e-12), modes=(2, 4))
    assert result.modes == (2, 4)
    assert result.transfer.entries.shape == (2, 2)
    assert result.risk_final < 1e-7
    g_full = np.eye(4, dtype=complex)
    g_full[np.ix_([1, 3], [1, 3])] = result.transfer.entries
    assert ll.frobenius_distance_squared(target.entries, _realify_raw(g_full)) < 1e-4


def test_gradient_plateau_with_energy():
    # Sample mean of the risk gradient magnitude at random circuit pairs
    # shrinks monotonically with the mode count when energy grows as 4M.
    means = []
    for modes in (2, 4, 6, 8):
        rng = np.random.default_rng(100 + modes)
        acc = 0.0
        pairs = 200
        for _ in range(pairs):
            target = ll.random_linear_optical(modes, rng)
            g = ll.haar_unitary(modes, rng)
            training = ll.sample_training_set("ERM1", modes, 4, 4.0 * modes, seed=rng)
            acc += np.linalg.norm(ll.empirical_risk_gradient(training, target, g))
        means.append(acc / pairs)
    assert all(b < a for a, b in zip(means, means[1:]))


def test_result_json():
    target = ll.random_linear_optical(2, seed=23)
    training = ll.sample_training_set("ERM1", 2, 2, 1.0, seed=24)
    result = ll.minimize(training, target, OptimConfig(restarts=1, seed=25, max_iters=50))
    data = result.to_json()
    assert {"transfer", "risk_final", "unitarity_residual", "converged", "iterations_used"} <= set(data)
