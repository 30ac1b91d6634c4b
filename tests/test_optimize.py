import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.optimize

import linoptlearn as ll
import linoptlearn.optimize as optimize_module
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
        "max_iters", "restarts", "stop_risk", "plateau_window", "eval_stride", "seed",
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


def test_best_so_far_dominates_trajectory(monkeypatch):
    # Every snapshot the fit scores is recorded; with ``stop_risk=0.0`` no run
    # stops, so none is replaced by a bisected point.
    scored = []
    real = optimize_module._snapshot

    def recording(problem, theta):
        snap = real(problem, theta)
        if snap is not None:
            scored.append(snap[:2])
        return snap

    monkeypatch.setattr(optimize_module, "_snapshot", recording)
    target = ll.random_linear_optical(3, seed=14)
    training = ll.sample_training_set("ERM1", 3, 3, 1.0, seed=15)
    cfg = OptimConfig(restarts=2, seed=16, stop_risk=0.0, max_iters=600)
    result = ll.minimize(training, target, cfg)
    gated = [risk for risk, residual in scored if residual <= UNITARITY_TOL]
    assert gated
    assert all(result.risk_final <= risk for risk in gated)


def test_converged_fit_passes_the_unitarity_gate(monkeypatch):
    # Every snapshot has a risk below SUCCESS_RISK but a residual ten times
    # the gate: the fit is not unitary, so it has not converged.
    def off_manifold(problem, theta):
        return 0.1 * optimize_module.SUCCESS_RISK, 10.0 * UNITARITY_TOL, np.eye(problem.k, dtype=complex)

    monkeypatch.setattr(optimize_module, "_snapshot", off_manifold)
    target = ll.random_linear_optical(2, seed=17)
    training = ll.sample_training_set("ERM1", 2, 2, 1.0, seed=18)
    result = ll.minimize(training, target, OptimConfig(restarts=1, seed=19, max_iters=100))
    assert result.risk_final < optimize_module.SUCCESS_RISK
    assert result.unitarity_residual == 10.0 * UNITARITY_TOL
    assert not result.converged


def test_repeated_modes_are_rejected():
    # A repeated mode makes the objective and its gradient disagree; this fit
    # used to return a 2 x 2 transfer at risk 0.40 without an error.
    target = ll.random_linear_optical(3, seed=26)
    training = ll.sample_training_set("ERM2", 3, 4, 1.0, seed=27)
    with pytest.raises(InvalidParameter, match="distinct"):
        ll.minimize(training, target, OptimConfig(restarts=1, seed=28), modes=(2, 2))


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
    data = ll.to_json(result)
    assert {"transfer", "risk_final", "unitarity_residual", "converged", "iterations_used"} <= set(data)


# Fits whose every output bit is pinned: (scheme, M, T, E, target seed,
# training seed, optimizer seed, restarts, modes) and the literals
# (risk_final as float.hex, iterations_used, restarts_run, sha256 of the
# transfer's bytes).  The literals were recorded with the complex-form risk
# kernel, which rounds the risk and its gradient differently from the real
# 2M x 2M form it replaced; a change that keeps every floating-point
# operation of the objective must not move a bit of them.  They hold for the
# build they were recorded on (numpy 2.4.6 and scipy 1.17.1 wheels, x86-64,
# OpenBLAS SkylakeX kernels): another BLAS kernel or libm may round
# differently, and then the literals must be recorded again from a tree
# known to be right before they can judge a change.
BIT_IDENTICAL_FITS = {
    # ERM1 that stops in Adam and bisects into [0.6, 1) * stop_risk.
    "erm1-stop-bisect": (
        ("ERM1", 3, 3, 1.0, 1, 2, 3, 4, None),
        ("0x1.a2b0acc555555p-24", 2125, 1, "921a1bde2ddc40f2ece0497b6fe1c8feaffa6feabc9399065570946126761a0b"),
    ),
    # ERM1 M=4 T=8 E=16: Adam plateaus, the polish reaches the stop level.
    "erm1-polish-stops": (
        ("ERM1", 4, 8, 16.0, 101, 201, 301, 2, None),
        ("0x1.93bd295800000p-24", 887, 1, "cb36ec46f45da02fa1d9a0dc9d7b9ab9e5b00abcb7167a1e999e6f150e76442b"),
    ),
    # ERM1 M=4 T=8 E=16: both restarts polish to the end without converging.
    "erm1-polish-runs-out": (
        ("ERM1", 4, 8, 16.0, 100, 200, 300, 2, None),
        ("0x1.bfffffff56e52p-1", 878, 2, "538786d4b5ed98f480b007a5b125e4b959cf94893cca9a6522472f44ea0c872a"),
    ),
    "erm2-m8-t16-e4": (
        ("ERM2", 8, 16, 4.0, 7, 8, 9, 2, None),
        ("0x1.9bed26a900000p-24", 3658, 1, "0e888c74311c2969333a9afdb70821086e79d1fd80410c644e3121b22491740b"),
    ),
    # A subset fit on an M=8 junta target, as the staged search runs them.
    "subset-2-5-m8": (
        ("ERM2", 8, 4, 4.0, 10, 11, 12, 2, (2, 5)),
        ("0x1.13cdec4a00000p-24", 375, 1, "30e58046228b74da03b10777ff51fa4b7b369f9ec9ea69039378fabdc79b4025"),
    ),
}


def _pinned_fit(name):
    scheme, modes, size, energy, target_seed, training_seed, seed, restarts, subset = BIT_IDENTICAL_FITS[name][0]
    if subset is None:
        target = ll.random_linear_optical(modes, seed=target_seed)
    else:
        _, target = ll.random_junta(modes, len(subset), seed=target_seed, junta_modes=subset)
    training = ll.sample_training_set(scheme, modes, size, energy, seed=training_seed)
    return ll.minimize(training, target, OptimConfig(restarts=restarts, seed=seed), modes=subset)


def _fingerprint(result):
    digest = hashlib.sha256(result.transfer.entries.tobytes()).hexdigest()
    return (float.hex(result.risk_final), result.iterations_used, result.restarts_run, digest)


@pytest.mark.parametrize("name", sorted(BIT_IDENTICAL_FITS))
def test_fits_are_bit_identical(name):
    assert _fingerprint(_pinned_fit(name)) == BIT_IDENTICAL_FITS[name][1]


@pytest.fixture
def scipy_blas():
    """scipy's OpenBLAS, set to two threads so a scope that forgets to restore shows."""
    lib = optimize_module._scipy_blas()
    if lib is None:
        pytest.skip("scipy's bundled OpenBLAS is not present")
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(2)
    yield lib
    lib.scipy_openblas_set_num_threads(before)


def _polish_spy(monkeypatch, lib, seen, replace_objective=None):
    """Record scipy's BLAS thread count inside every polish."""
    real = scipy.optimize.minimize

    def spy(fun, x0, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads())
        return real(replace_objective or fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)


@pytest.mark.parametrize("name", ["erm1-polish-runs-out", "erm1-polish-stops"])
def test_polish_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, scipy_blas, name):
    seen = []
    _polish_spy(monkeypatch, scipy_blas, seen)
    result = _pinned_fit(name)  # runs to the end, or leaves by _StopPolish
    assert seen and set(seen) == {1}
    assert scipy_blas.scipy_openblas_get_num_threads() == 2
    assert _fingerprint(result) == BIT_IDENTICAL_FITS[name][1]


def test_blas_count_restored_when_the_objective_raises(monkeypatch, scipy_blas):
    def broken(theta):
        raise FloatingPointError("objective failed")

    seen = []
    _polish_spy(monkeypatch, scipy_blas, seen, replace_objective=broken)
    with pytest.raises(FloatingPointError):
        _pinned_fit("erm1-polish-runs-out")
    assert seen == [1]
    assert scipy_blas.scipy_openblas_get_num_threads() == 2


def test_fit_without_scipy_blas_is_unchanged(monkeypatch):
    monkeypatch.setattr(optimize_module, "_scipy_blas", lambda: None)
    assert optimize_module.polish_blas_threads() is None
    name = "erm1-polish-runs-out"
    assert _fingerprint(_pinned_fit(name)) == BIT_IDENTICAL_FITS[name][1]
