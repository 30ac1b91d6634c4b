import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linoptlearn as ll
from linoptlearn.core import _realify_raw, substream
from linoptlearn.errors import ConvergenceWarning, DimensionMismatch, InvalidParameter, NonUnitaryInput
from linoptlearn.risk import TAIL_WARN, ShotModel


def _fd_gradient(training, target, g, step=1e-5):
    m = g.shape[0]
    theta = np.concatenate([g.real.ravel(), g.imag.ravel()])
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            probe = theta.copy()
            probe[i] += sign * step
            gp = probe[: m * m].reshape(m, m) + 1j * probe[m * m :].reshape(m, m)
            grad[i] += sign * ll.empirical_risk(training, target, gp).value
    return grad / (2.0 * step)


_seeds = st.integers(0, 2**32 - 1)
_training_sets = st.builds(
    lambda scheme, modes, size, energy, seed: ll.sample_training_set(scheme, modes, size, energy, seed=seed),
    scheme=st.sampled_from(["ERM1", "ERM1P", "ERM2"]),
    modes=st.integers(1, 3),
    size=st.integers(1, 5),
    energy=st.floats(0.0, 4.0),
    seed=_seeds,
)


def _off_manifold(modes, rng):
    """A near-unitary complex matrix: the kind of iterate the optimizer evaluates."""
    noise = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    return ll.haar_unitary(modes, rng) + 0.1 * noise


@settings(max_examples=50, deadline=None)
@given(training=_training_sets, seed=_seeds)
def test_risk_zero_at_target(training, seed):
    target = ll.random_linear_optical(training.modes, seed=seed)
    at_target = ll.complexify(target)
    report = ll.empirical_risk(training, target, at_target)
    assert report.value == 0.0
    assert np.array_equal(report.per_term, np.zeros(training.size))
    assert np.array_equal(ll.empirical_risk_gradient(training, target, at_target), np.zeros(2 * training.modes**2))


@settings(max_examples=50, deadline=None)
@given(training=_training_sets, seed=_seeds)
def test_per_term_is_one_minus_fidelity(training, seed):
    rng = np.random.default_rng(seed)
    target = ll.random_linear_optical(training.modes, rng)
    g = _off_manifold(training.modes, rng)
    report = ll.empirical_risk(training, target, g)
    for x, term in zip(training.states, report.per_term):
        assert abs(term - (1.0 - ll.fidelity(x, target, _realify_raw(g)))) <= 1e-14


def test_risk_zero_energy():
    target = ll.random_linear_optical(2, seed=0)
    training = ll.sample_training_set("ERM1", 2, 3, 0.0, seed=1)
    other = ll.haar_unitary(2, np.random.default_rng(2))
    assert ll.empirical_risk(training, target, other).value == 0.0


def test_risk_worked_example():
    target = ll.realify(np.eye(1, dtype=complex))
    training = ll.TrainingSet(ll.Scheme.ERM1, 1, 1.0, np.array([[np.sqrt(2.0), 0.0]]))
    report = ll.empirical_risk(training, target, -np.eye(1, dtype=complex))
    assert abs(report.value - (1.0 - np.exp(-4.0))) < 1e-12


def test_risk_terms_bounded_even_off_manifold():
    rng = np.random.default_rng(3)
    target = ll.random_linear_optical(3, seed=4)
    training = ll.sample_training_set("ERM2", 3, 5, 4.0, seed=5)
    g = 2.0 * rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    report = ll.empirical_risk(training, target, g)
    assert np.all(report.per_term >= 0.0) and np.all(report.per_term <= 1.0)
    assert abs(report.value - report.per_term.mean()) < 1e-15


@settings(max_examples=50, deadline=None)
@given(training=_training_sets, seed=_seeds)
def test_risk_unitary_invariance(training, seed):
    # Symmetric in the two circuits, and invariant under a joint left
    # multiplication by any linear optical action.
    rng = np.random.default_rng(seed)
    a = _off_manifold(training.modes, rng)
    b = _off_manifold(training.modes, rng)
    forward = ll.empirical_risk(training, _realify_raw(a), b).per_term
    assert np.array_equal(forward, ll.empirical_risk(training, _realify_raw(b), a).per_term)
    q = ll.realify(ll.haar_unitary(training.modes, rng)).entries
    rotated = ll.empirical_risk(training, q @ _realify_raw(a), ll.complexify(q @ _realify_raw(b)))
    assert np.abs(rotated.per_term - forward).max() < 1e-12


def test_gradient_zero_at_target_and_zero_energy():
    target = ll.random_linear_optical(2, seed=9)
    training = ll.sample_training_set("ERM1", 2, 3, 1.0, seed=10)
    grad = ll.empirical_risk_gradient(training, target, ll.complexify(target))
    assert np.abs(grad).max() < 1e-15
    vacuum = ll.sample_training_set("ERM1", 2, 3, 0.0, seed=11)
    g = ll.haar_unitary(2, np.random.default_rng(12))
    assert np.abs(ll.empirical_risk_gradient(vacuum, target, g)).max() == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    target = ll.random_linear_optical(3, seed=14)
    training = ll.sample_training_set("ERM1", 3, 4, 1.0, seed=15)
    g = ll.haar_unitary(3, rng) + 0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    analytic = ll.empirical_risk_gradient(training, target, g)
    assert analytic.shape == (18,)  # (Re G, Im G), each 3 x 3 flattened row-major
    numeric = _fd_gradient(training, target, g)
    assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-5


def test_risk_dimension_mismatch():
    target = ll.random_linear_optical(2, seed=19)
    training = ll.sample_training_set("ERM1", 3, 2, 1.0, seed=20)
    with pytest.raises(DimensionMismatch):
        ll.empirical_risk(training, target, np.eye(3, dtype=complex))


def test_full_risk_mc_trivial_and_t1_equivalence():
    target = ll.random_linear_optical(2, seed=21)
    assert ll.full_risk_mc("ERM1", target, target, 2, 3, 1.0, 1000, seed=0) == (0.0, 0.0)
    other = ll.random_linear_optical(2, seed=22)
    one = ll.full_risk_mc("ERM1", target, other, 2, 1, 1.0, 50000, seed=1)
    two = ll.full_risk_mc("ERM2", target, other, 2, 1, 1.0, 50000, seed=1)
    assert one == two  # identical sampling space and substreams at T = 1


def test_full_risk_mc_deterministic_for_seed_and_layout():
    target = ll.random_linear_optical(2, seed=44)
    other = ll.random_linear_optical(2, seed=45)
    args = ("ERM2", target, other, 2, 3, 1.0, 30000)
    assert ll.full_risk_mc(*args, seed=7) == ll.full_risk_mc(*args, seed=7)
    with pytest.raises(InvalidParameter):
        ll.full_risk_mc("ERM1", target, other, 2, 3, 1.0, 1, seed=0)


def test_full_risk_mc_matches_series_m1():
    target = ll.random_linear_optical(1, seed=23)
    other = ll.random_linear_optical(1, seed=24)
    series = ll.series_full_risk(target, other, 1.2)
    estimate, stderr = ll.full_risk_mc("ERM1", target, other, 1, 1, 1.2, 400000, seed=2)
    assert abs(series.value - estimate) < 3.0 * max(stderr, 1e-12)


def test_series_trivial_and_exact_cases():
    target = ll.random_linear_optical(1, seed=25)
    same = ll.series_full_risk(target, target, 3.0)
    assert same.value == 0.0
    assert np.array_equal(same.singular_values, np.zeros(2))
    flipped = ll.SymplecticOrthogonal(-target.entries)
    for energy in (0.25, 0.5, 1.0):
        result = ll.series_full_risk(target, flipped, energy)
        assert abs(result.value - (1.0 - np.exp(-4.0 * energy))) < 1e-10
        assert result.error_estimate < 1e-8


def test_series_monotone_in_energy():
    target = ll.random_linear_optical(2, seed=26)
    other = ll.random_linear_optical(2, seed=27)
    values = [ll.series_full_risk(target, other, e).value for e in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_series_singular_values_sorted():
    target = ll.random_linear_optical(2, seed=28)
    other = ll.random_linear_optical(2, seed=29)
    result = ll.series_full_risk(target, other, 1.0)
    assert result.singular_values.shape == (4,)
    assert np.all(np.diff(result.singular_values) <= 0)
    assert np.all(result.singular_values >= 0)


def test_series_truncation_warning():
    target = ll.random_linear_optical(1, seed=30)
    flipped = ll.SymplecticOrthogonal(-target.entries)
    with pytest.warns(ConvergenceWarning):
        ll.series_full_risk(target, flipped, 4.0, order=3)


def test_series_order_validation():
    target = ll.random_linear_optical(1, seed=31)
    with pytest.raises(InvalidParameter):
        ll.series_full_risk(target, target, 1.0, order=0)


def test_swap_risk_trivial_and_single_shot():
    target = ll.random_linear_optical(2, seed=32)
    training = ll.sample_training_set("ERM1", 2, 4, 1.0, seed=33)
    same = ll.swap_test_risk(training, target, ll.complexify(target), ShotModel(shots=64, seed=0))
    assert same.value == 0.0
    other = ll.haar_unitary(2, np.random.default_rng(34))
    single = ll.swap_test_risk(training, target, other, ShotModel(shots=1, seed=1))
    assert set(np.unique(single.per_term)) <= {0.0, 1.0}


def test_swap_risk_converges_to_closed_form():
    target = ll.random_linear_optical(2, seed=35)
    training = ll.sample_training_set("ERM1", 2, 4, 1.0, seed=36)
    other = ll.haar_unitary(2, np.random.default_rng(37))
    exact = ll.empirical_risk(training, target, other).value
    estimate = ll.swap_test_risk(training, target, other, ShotModel(shots=1_000_000, seed=2)).value
    assert abs(estimate - exact) < 5e-3


def test_swap_risk_requires_unitary():
    target = ll.random_linear_optical(2, seed=38)
    training = ll.sample_training_set("ERM1", 2, 2, 1.0, seed=39)
    with pytest.raises(NonUnitaryInput):
        ll.swap_test_risk(training, target, 2.0 * np.eye(2, dtype=complex), ShotModel(shots=8))


def test_swap_estimator_bias():
    # E[(vacuum fraction)^2] - F equals p(1-p)/shots with p = sqrt(F).
    p = 0.7
    shots = 50
    replicas = 40000
    rng = np.random.default_rng(40)
    fhat = (rng.binomial(shots, p, size=replicas) / shots) ** 2
    exact_bias = p * (1.0 - p) / shots
    observed = fhat.mean() - p * p
    stderr = fhat.std(ddof=1) / np.sqrt(replicas)
    assert observed > 0.0
    assert abs(observed - exact_bias) < 3.0 * stderr


def test_shot_model_validation():
    with pytest.raises(InvalidParameter):
        ShotModel(shots=0)


def test_risk_report_json():
    target = ll.random_linear_optical(2, seed=41)
    training = ll.sample_training_set("ERM1", 2, 3, 1.0, seed=42)
    other = ll.haar_unitary(2, np.random.default_rng(43))
    report = ll.swap_test_risk(training, target, other, ShotModel(shots=100, seed=3))
    data = report.to_json()
    assert set(data) == {"value", "per_term", "shots"}
    assert len(data["per_term"]) == 3


def _cancelling_pair():
    rng = substream(7)
    return ll.random_linear_optical(2, rng), ll.random_linear_optical(2, rng)


@pytest.mark.parametrize("energy", [8.0, 12.0, 16.0])
def test_series_cancellation_is_flagged(energy):
    # Shells of the alternating sum reach ~1e9 at E=8 and ~1e24 at E=16; the
    # parent value fell with energy (E=8) and went negative (E=12, 16) while
    # the tail estimate stayed near 1e-13.
    a, b = _cancelling_pair()
    with pytest.warns(ConvergenceWarning):
        result = ll.series_full_risk(a, b, energy)
    assert result.error_estimate > TAIL_WARN


def test_series_moderate_energy_stays_quiet_and_monotone():
    a, b = _cancelling_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        values = [ll.series_full_risk(a, b, e).value for e in (1.0, 2.0, 4.0)]
    assert all(q > p for p, q in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("scheme", ["ERM1", "ERM1P", "ERM2"])
@pytest.mark.parametrize("modes,size,energy", [(2, 3, 1.0), (2, 8, 4.0), (3, 4, 2.0)])
def test_series_matches_mc_for_every_scheme(scheme, modes, size, energy):
    rng = substream(3100, modes, size)
    target = ll.random_linear_optical(modes, rng)
    other = ll.random_linear_optical(modes, rng)
    series = ll.series_full_risk(target, other, energy, scheme=scheme, count=size)
    assert series.error_estimate < TAIL_WARN
    estimate, stderr = ll.full_risk_mc(scheme, target, other, modes, size, energy, 200000, seed=(3100, modes, size))
    assert abs(series.value - estimate) < 3.0 * stderr


def test_series_scheme_defaults_and_validation():
    target = ll.random_linear_optical(2, seed=46)
    other = ll.random_linear_optical(2, seed=47)
    plain = ll.series_full_risk(target, other, 1.5)
    assert plain.value == ll.series_full_risk(target, other, 1.5, scheme="ERM1", count=5).value
    with pytest.raises(InvalidParameter):
        ll.series_full_risk(target, other, 1.5, scheme="ERM2", count=0)
    with pytest.raises(InvalidParameter):
        ll.series_full_risk(target, other, -1.0)
    with pytest.raises(InvalidParameter):
        ll.series_full_risk(target, other, 1.0, scheme="ERM3")


def _quiet_series(*args, **kwargs):
    """Series result, or None when it warns (the invariants hold only then)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        try:
            return ll.series_full_risk(*args, **kwargs)
        except ConvergenceWarning:
            return None


_pairs = st.tuples(st.integers(0, 2**16), st.integers(1, 3))
_energies = st.floats(0.0, 16.0, allow_nan=False)


def _pair(seed, modes):
    rng = substream(seed)
    return ll.random_linear_optical(modes, rng), ll.random_linear_optical(modes, rng)


@settings(max_examples=60, deadline=None)
@example(pair=(7, 2), low=4.0, high=8.0, scheme="ERM1", size=1)
@given(
    pair=_pairs,
    low=_energies,
    high=_energies,
    scheme=st.sampled_from(["ERM1", "ERM1P", "ERM2"]),
    size=st.integers(1, 8),
)
def test_series_invariants_bounded_and_monotone(pair, low, high, scheme, size):
    low, high = sorted((low, high))
    a, b = _pair(*pair)
    first = _quiet_series(a, b, low, scheme=scheme, count=size)
    second = _quiet_series(a, b, high, scheme=scheme, count=size)
    for result in (first, second):
        if result is not None:
            assert 0.0 <= result.value <= 1.0
    if first is not None and second is not None:
        assert second.value >= first.value - (first.error_estimate + second.error_estimate)


@settings(max_examples=60, deadline=None)
@given(
    pair=_pairs,
    energy=_energies,
    scheme=st.sampled_from(["ERM1", "ERM1P", "ERM2"]),
    size=st.integers(1, 8),
)
def test_series_invariants_symmetry_and_scheme_reductions(pair, energy, scheme, size):
    a, b = _pair(*pair)
    forward = _quiet_series(a, b, energy, scheme=scheme, count=size)
    backward = _quiet_series(b, a, energy, scheme=scheme, count=size)
    if forward is not None and backward is not None:
        assert abs(forward.value - backward.value) <= 1e-12 + forward.error_estimate + backward.error_estimate
    erm1 = _quiet_series(a, b, energy)
    erm2_single = _quiet_series(a, b, energy, scheme="ERM2", count=1)
    if erm1 is not None and erm2_single is not None:
        assert erm2_single.value == erm1.value
    erm1p = _quiet_series(a, b, energy, scheme="ERM1P", count=size)
    erm1_scaled = _quiet_series(a, b, energy / size)
    if erm1p is not None and erm1_scaled is not None:
        assert erm1p.value == erm1_scaled.value
