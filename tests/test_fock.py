import numpy as np
import pytest
from scipy.stats import poisson

import linoptlearn as ll
from linoptlearn.errors import InvalidParameter, LogarithmBranchFailure, TruncationRisk
from linoptlearn.fock import (
    FockSpace,
    apply_circuit,
    coherent_vector,
    fock_space,
    gaussian_unitary,
    oracle_fidelity,
)


def test_default_cutoffs():
    assert fock_space(1).cutoff == 40
    assert fock_space(2).cutoff == 25
    with pytest.raises(InvalidParameter):
        FockSpace(3, 10)


def test_ladder_commutator_truncation_defect():
    space = fock_space(1)
    a = space.destroy[0].toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    # Canonical commutator away from the boundary level (ulp-level rounding
    # from squaring the square-root matrix elements).
    assert np.abs(comm[:-1, :-1] - np.eye(space.cutoff)).max() < 1e-13
    assert np.abs(comm - np.diag(np.diag(comm))).max() == 0.0
    assert abs(comm[-1, -1] + space.cutoff) < 1e-12


def test_vacuum_and_zero_displacement():
    space = fock_space(1)
    out = coherent_vector(np.zeros(2), space)
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_coherent_state_poisson_distribution():
    space = fock_space(1)
    state = coherent_vector(np.array([np.sqrt(2.0), 0.0]), space)  # energy 1
    probs = np.abs(state) ** 2  # one mode: the photon-number distribution
    reference = poisson.pmf(np.arange(space.cutoff + 1), 1.0)
    assert 0.5 * np.abs(probs - reference).sum() < 1e-8


def test_coherent_overlap_convention():
    space = fock_space(1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = 0.8 * rng.standard_normal(2), 0.8 * rng.standard_normal(2)
        overlap = abs(np.vdot(coherent_vector(x, space), coherent_vector(y, space))) ** 2
        assert abs(overlap - np.exp(-0.5 * np.sum((x - y) ** 2))) < 1e-8


def test_truncation_guard():
    space = FockSpace(1, 8)
    with pytest.raises(TruncationRisk):
        coherent_vector(np.array([4.0, 0.0]), space)


def test_gaussian_unitary_identity():
    space = fock_space(1)
    out = gaussian_unitary(ll.realify(np.eye(1, dtype=complex)), space)
    assert np.abs(out - np.eye(space.dim)).max() < 1e-12


def test_gaussian_unitary_is_unitary_and_number_conserving():
    space = fock_space(1)
    target = ll.random_linear_optical(1, seed=1)
    u = gaussian_unitary(target, space)
    assert np.abs(u.conj().T @ u - np.eye(space.dim)).max() < 1e-8
    a = space.destroy[0]
    n = (a.conj().T @ a).toarray()
    assert np.abs(u @ n - n @ u).max() < 1e-8


def test_transformation_rule_single_mode_rotation():
    space = fock_space(1)
    transfer = ll.realify(np.array([[np.exp(0.7j)]]))
    u = gaussian_unitary(transfer, space)
    x = np.array([0.6, -0.5])
    lhs = u @ coherent_vector(x, space)
    rhs = coherent_vector(transfer.entries @ x, space)
    assert abs(np.vdot(lhs, rhs)) ** 2 >= 1.0 - 1e-8


def test_transformation_rule_two_modes():
    space = FockSpace(2, 18)
    target = ll.random_linear_optical(2, seed=3)
    x = np.array([0.5, -0.3, 0.4, 0.2])
    lhs = apply_circuit(target, coherent_vector(x, space), space)
    rhs = coherent_vector(target.entries @ x, space)
    assert abs(np.vdot(lhs, rhs)) ** 2 >= 1.0 - 1e-8


def test_branch_cut_warning():
    space = fock_space(1)
    flipped = ll.realify(-np.eye(1, dtype=complex))
    with pytest.warns(LogarithmBranchFailure):
        gaussian_unitary(flipped, space)


def test_oracle_fidelity_trivial():
    space = fock_space(2)
    target = ll.random_linear_optical(2, seed=4)
    x = np.array([0.4, 0.1, -0.2, 0.3])
    assert abs(oracle_fidelity(x, target, target, space) - 1.0) < 1e-10


def test_oracle_fidelity_worked_example():
    space = fock_space(1)
    plus = ll.realify(np.eye(1, dtype=complex))
    minus = ll.SymplecticOrthogonal(-plus.entries)
    x = np.array([np.sqrt(2.0), 0.0])
    with pytest.warns(LogarithmBranchFailure):  # -1 eigenvalue sits on the cut
        value = oracle_fidelity(x, plus, minus, space)
    assert abs(value - np.exp(-4.0)) < 1e-8


def test_oracle_matches_closed_form():
    worst = 0.0
    for index in range(30):
        modes = 1 + index % 2
        rng = np.random.default_rng(500 + index)
        target = ll.random_linear_optical(modes, rng)
        other = ll.random_linear_optical(modes, rng)
        x = rng.standard_normal(2 * modes)
        x *= min(1.0, 2.0 / np.linalg.norm(x))
        space = fock_space(modes)
        worst = max(worst, abs(ll.fidelity(x, target, other) - oracle_fidelity(x, target, other, space)))
    assert worst < 1e-8


def test_cutoff_robustness_under_doubling():
    rng = np.random.default_rng(7)
    for modes, cutoff in ((1, 40), (2, 14)):
        target = ll.random_linear_optical(modes, rng)
        other = ll.random_linear_optical(modes, rng)
        x = rng.standard_normal(2 * modes)
        x *= min(1.0, 1.5 / np.linalg.norm(x))
        base = oracle_fidelity(x, target, other, FockSpace(modes, cutoff))
        doubled = oracle_fidelity(x, target, other, FockSpace(modes, 2 * cutoff))
        assert abs(base - doubled) < 1e-10
