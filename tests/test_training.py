import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import linoptlearn as ll
from linoptlearn.errors import InvalidParameter, UnsupportedRegime
from linoptlearn.training import Scheme, marginal_log_normalization


def test_scheme_coercion():
    assert Scheme.coerce("erm1") is Scheme.ERM1
    assert Scheme.coerce(Scheme.ERM2) is Scheme.ERM2
    with pytest.raises(InvalidParameter):
        Scheme.coerce("ERM3")


def test_erm1_per_state_energy_exact():
    ts = ll.sample_training_set("ERM1", 2, 3, 1.0, seed=0)
    norms = np.linalg.norm(ts.states, axis=1)
    assert np.allclose(norms, np.sqrt(2.0), atol=1e-12)
    assert np.allclose(ts.state_energies(), 1.0, atol=1e-12)


def test_erm1p_per_state_energy():
    ts = ll.sample_training_set("ERM1P", 2, 4, 1.0, seed=0)
    assert np.allclose(ts.state_energies(), 0.25, atol=1e-12)


def test_erm2_total_energy_exact():
    ts = ll.sample_training_set("ERM2", 2, 3, 1.0, seed=0)
    assert abs(ts.state_energies().sum() - 1.0) < 1e-12
    assert np.array_equal(ts.parent.reshape(3, 4), ts.states)


def test_erm2_single_state_degenerates_to_full_energy():
    ts = ll.sample_training_set("ERM2", 3, 1, 2.5, seed=4)
    assert abs(ts.state_energies()[0] - 2.5) < 1e-12


def test_determinism_and_scheme_radius_relation():
    a = ll.sample_training_set("ERM1", 3, 5, 2.0, seed=42)
    b = ll.sample_training_set("ERM1", 3, 5, 2.0, seed=42)
    assert np.array_equal(a.states, b.states)
    scaled = ll.sample_training_set("ERM1P", 3, 5, 2.0, seed=42)
    assert np.abs(scaled.states * np.sqrt(5.0) - a.states).max() < 1e-12


def test_zero_energy_training_set():
    ts = ll.sample_training_set("ERM1", 2, 3, 0.0, seed=1)
    assert np.array_equal(ts.states, np.zeros((3, 4)))


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        ll.sample_training_set("ERM1", 0, 3, 1.0)
    with pytest.raises(InvalidParameter):
        ll.sample_training_set("ERM1", 2, 0, 1.0)
    with pytest.raises(InvalidParameter):
        ll.sample_training_set("ERM1", 2, 3, -1.0)


def test_erm2_marginal_energy_monte_carlo():
    # Expected single-state energy is E/T; 10^4 sets keep this test quick,
    # the full-scale version lives in the acceptance suite.
    sets = 10000
    total = 0.0
    for i in range(sets):
        ts = ll.sample_training_set("ERM2", 4, 5, 10.0, seed=i)
        total += ts.state_energies()[0]
    assert abs(total / sets - 2.0) < 0.05 * 2.0


def test_rotational_invariance_ks():
    rng = np.random.default_rng(7)
    samples = ll.sample_sphere(4, np.sqrt(2.0), 40000, rng)
    q = np.linalg.qr(np.random.default_rng(8).standard_normal((4, 4)))[0]
    rotated = samples @ q.T
    # First-coordinate marginals must agree; 3-sigma two-sided KS level.
    stat = ks_2samp(samples[:, 0], rotated[:, 0])
    assert stat.pvalue > 0.0027


def test_marginal_density_support():
    assert ll.marginal_density(np.array([3.0, 0.0]), 1, 2, 1.0) == 0.0


def test_marginal_density_normalization_quadrature():
    # Radial integral over R^2 of the M=1, T=3, E=2 density.
    value = quad(
        lambda r: ll.marginal_density(np.array([r, 0.0]), 1, 3, 2.0) * 2.0 * math.pi * r,
        0.0,
        2.0,
        limit=200,
    )[0]
    assert abs(value - 1.0) < 1e-6


def test_marginal_density_uniform_radial_histogram():
    # M=1, T=2: the density is flat in the squared radius; histogram 10^6
    # first blocks of parent draws against the flat law.
    rng = np.random.default_rng(12)
    parents = ll.sample_sphere(4, np.sqrt(2.0), 1_000_000, rng)
    rho = np.sum(parents[:, :2] ** 2, axis=1)
    hist, _ = np.histogram(rho, bins=10, range=(0.0, 2.0))
    freq = hist / rho.size
    assert np.abs(freq - 0.1).max() < 0.01 * 0.1 * 10  # sup error < 1% of total mass scale


def test_marginal_density_matches_block_histogram():
    rng = np.random.default_rng(3)
    parents = ll.sample_sphere(8, np.sqrt(2.0), 200_000, rng)
    rho = np.sum(parents[:, :2] ** 2, axis=1)  # M=1 block of a T=4 parent
    hist, edges = np.histogram(rho, bins=16, range=(0.0, 2.0), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # Density of rho = ||x1||^2 is pi * p(x1) on the radial-squared axis.
    predicted = np.array(
        [math.pi * ll.marginal_density(np.array([math.sqrt(c), 0.0]), 1, 4, 1.0) for c in centers]
    )
    assert np.abs(hist - predicted).max() < 0.02 * predicted.max()


def test_marginal_density_regime_and_validation():
    with pytest.raises(UnsupportedRegime):
        ll.marginal_density(np.zeros(2), 1, 1, 1.0)
    with pytest.raises(InvalidParameter):
        ll.marginal_density(np.zeros(2), 1, 2, 0.0)
    with pytest.raises(InvalidParameter):
        ll.marginal_density(np.zeros(4), 1, 2, 1.0)


def test_marginal_log_normalization_value():
    # M=1, T=2, E=1: the density is 1/(2 pi E) on the disk of radius sqrt(2E).
    assert abs(math.exp(marginal_log_normalization(1, 2, 1.0)) - 1.0 / (2.0 * math.pi)) < 1e-12


def test_training_set_json_roundtrip():
    for scheme in ("ERM1", "ERM1P", "ERM2"):
        ts = ll.sample_training_set(scheme, 2, 3, 1.5, seed=9)
        back = ll.from_json(ll.TrainingSet, ll.to_json(ts))
        assert back.scheme == ts.scheme
        assert back.modes == ts.modes
        assert back.energy == ts.energy
        assert np.array_equal(back.states, ts.states)
        if scheme == "ERM2":
            assert np.array_equal(back.parent, ts.parent)


def test_training_set_norm_validation():
    states = np.ones((2, 4))
    with pytest.raises(InvalidParameter):
        ll.TrainingSet(Scheme.ERM1, 2, 1.0, states)
