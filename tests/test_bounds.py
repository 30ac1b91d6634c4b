import math

import numpy as np
import pytest

import linoptlearn as ll
import linoptlearn.bounds as bounds_module
from linoptlearn.bounds import concentration_tail_report, sphere_gradient_bound_check
from linoptlearn.core import substream
from linoptlearn.errors import InvalidParameter
from linoptlearn.optimize import OptimConfig
from linoptlearn.risk import TAIL_WARN, full_risk_mc
from linoptlearn.training import Scheme


def test_constant_matches_closed_form():
    assert abs(ll.C1 - 1.0 / (9.0 * math.pi**3 * math.log(2.0))) < 1e-15


def test_bound_params_validation():
    with pytest.raises(InvalidParameter):
        ll.BoundParams(0, 4, 1.0, 0.1)
    with pytest.raises(InvalidParameter):
        ll.BoundParams(2, 4, -1.0, 0.1)
    with pytest.raises(InvalidParameter):
        ll.BoundParams(2, 4, 1.0, 1.5)


def test_bounds_decreasing_in_size():
    for modes in (1, 2, 4):
        for fn in (ll.gap_bound_erm1, ll.gap_bound_erm1_prime, ll.gap_bound_erm2):
            values = [fn(ll.BoundParams(modes, t, 1.0, 0.1)) for t in range(2, 65)]
            assert all(b < a for a, b in zip(values, values[1:])), fn.__name__


def test_delta_limit():
    # As delta -> 1 the confidence term's log(2/delta) approaches log 2.
    near = ll.gap_bound_erm1(ll.BoundParams(2, 8, 1.0, 1.0 - 1e-12))
    explicit = math.sqrt(
        32.0 * 4.0 * math.log(6.0 * math.sqrt(8.0)) / 8.0 + 32.0 * math.log(2.0) / 8.0
    ) + 2.0 * math.sqrt(1.0 / 8.0)
    assert abs(near - explicit) < 1e-9


def test_erm1_prime_never_exceeds_erm1_and_vanishes_at_zero_energy():
    for modes in (1, 2, 4, 8):
        for size in (2, 4, 8, 32):
            for energy in (0.5, 1.0, 4.0, 16.0):
                p = ll.BoundParams(modes, size, energy, 0.1)
                assert ll.gap_bound_erm1_prime(p) <= ll.gap_bound_erm1(p) + 1e-12
    assert ll.gap_bound_erm1_prime(ll.BoundParams(2, 4, 0.0, 0.1)) == 0.0


def test_erm1_prime_values():
    # Values of the stand-alone ERM1P formula that the ERM1-at-E/T definition
    # replaced.  That formula took sqrt(E) / T where ERM1 takes sqrt(E / T / T),
    # and at T = 7 the two round 1 ulp apart.
    pinned = {
        (2, 4, 1.0, 0.1): 5.58632654726493,
        (4, 8, 4.0, 0.05): 10.398743687478882,
        (1, 2, 0.5, 0.5): 4.461905002464446,
        (8, 16, 16.0, 0.01): 20.930064244089717,
        (3, 3, 2.0, 0.1): 14.02452086857011,
    }
    for args, value in pinned.items():
        assert ll.gap_bound_erm1_prime(ll.BoundParams(*args)) == value, args
    value = 4.688569869031296
    assert abs(ll.gap_bound_erm1_prime(ll.BoundParams(2, 7, 2.0, 0.1)) - value) <= math.ulp(value)


def test_bound_values_follow_the_theorems():
    # The displayed bounds, written out again with C1 = 1 / (9 pi^3 ln 2):
    #   ERM2: sqrt(16 E / (C1 T^3) * (M ln(6 sqrt(C1 M T^3)) + ln(2 / delta) / M))
    #         + 2 sqrt(E / (C1 M T^3))
    #   ERM1: sqrt(32 E / T * (M^2 ln(6 sqrt(T)) + ln(2 / delta))) + 2 sqrt(E / T)
    c1 = 1.0 / (9.0 * math.pi**3 * math.log(2.0))

    def erm2(m, t, e, delta):
        cube = c1 * t**3
        spread = m * math.log(6.0 * math.sqrt(m * cube)) + math.log(2.0 / delta) / m
        return math.sqrt(16.0 * e / cube * spread) + 2.0 * math.sqrt(e / (m * cube))

    def erm1(m, t, e, delta):
        spread = m * m * math.log(6.0 * math.sqrt(t)) + math.log(2.0 / delta)
        return math.sqrt(32.0 * e / t * spread) + 2.0 * math.sqrt(e / t)

    for args in ((2, 8, 1.0, 0.1), (4, 32, 16.0, 0.01)):
        assert ll.gap_bound_erm2(ll.BoundParams(*args)) == pytest.approx(erm2(*args), rel=1e-12), args
    for args in ((2, 8, 1.0, 0.1), (8, 64, 4.0, 0.05)):
        assert ll.gap_bound_erm1(ll.BoundParams(*args)) == pytest.approx(erm1(*args), rel=1e-12), args


def test_erm2_beats_erm1_beyond_crossover():
    # The concentration constant 1/C1 makes the parent-sphere bound larger at
    # small sizes; the cubic denominator wins from a modest size onward.
    for modes in (2, 4, 8):
        for energy in (0.5, 1.0, 4.0, 16.0):
            for size in (16, 32, 64):
                p = ll.BoundParams(modes, size, energy, 0.1)
                assert ll.gap_bound_erm2(p) < ll.gap_bound_erm1(p)


def test_erm2_scaling_exponent():
    sizes = np.array([64, 128, 256, 512, 1024], dtype=float)
    values = []
    for t in sizes:
        p = ll.BoundParams(2, t, 1.0, 0.1)
        log_factor = math.sqrt(math.log(6.0 * math.sqrt(ll.C1 * 2 * t**3)))
        values.append(ll.gap_bound_erm2(p) / log_factor)
    slope = np.polyfit(np.log(sizes), np.log(values), 1)[0]
    assert abs(slope + 1.5) < 0.1


def test_minimal_sufficient_size_scalings():
    energies = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    sizes = [ll.minimal_sufficient_size("ERM1P", 4, e, 0.1) for e in energies]
    slope_e = np.polyfit(np.log(energies), np.log(sizes), 1)[0]
    assert abs(slope_e - 0.5) < 0.15 * 0.5

    mode_grid = np.array([2, 4, 8, 16, 32])
    sizes = [ll.minimal_sufficient_size("ERM1P", m, 4.0, 0.1) for m in mode_grid]
    slope_m = np.polyfit(np.log(mode_grid), np.log(sizes), 1)[0]
    assert abs(slope_m - 1.0) < 0.15

    points = [
        (e * m, ll.minimal_sufficient_size("ERM2", m, e, 0.1))
        for m in (2, 4, 8, 16)
        for e in (1.0, 4.0, 16.0, 64.0)
    ]
    slope_em = np.polyfit(np.log([p[0] for p in points]), np.log([p[1] for p in points]), 1)[0]
    assert abs(slope_em - 1.0 / 3.0) < 0.15 / 3.0


def test_lipschitz_check_identical_pair():
    o = ll.random_linear_optical(2, seed=0)
    report = ll.lipschitz_check(o, o, 1.0, trials=5, seed=1, mc_samples=2000)
    assert report.empirical_gap_max == 0.0
    assert report.empirical_violations == 0
    assert report.full_violations == 0


def test_lipschitz_check_random_pairs():
    violations = 0
    worst = 0.0
    for seed in range(100):
        first = ll.random_linear_optical(2, seed=[seed, 0])
        second = ll.random_linear_optical(2, seed=[seed, 1])
        report = ll.lipschitz_check(first, second, 1.0, trials=1, seed=(seed, 2), mc_samples=5000)
        violations += report.empirical_violations + report.full_violations
        worst = max(worst, report.worst_ratio)
    assert violations == 0
    assert worst < 1.0


def test_sphere_gradient_bounds():
    for seed in range(5):
        target = ll.random_linear_optical(2, seed=[seed, 0])
        other = ll.random_linear_optical(2, seed=[seed, 1])
        max_parent, parent_budget, max_product, product_budget = sphere_gradient_bound_check(
            target, other, 2, 4, 2.0, 2000, seed=(seed, 2)
        )
        assert max_parent <= parent_budget
        assert max_product <= product_budget


def test_gaussian_overlap_gradient_bound():
    # The gradient of exp(-x^T L x / 2) on the sphere of radius R never
    # exceeds R ||L|| in norm.
    rng = np.random.default_rng(4)
    for _ in range(5):
        target = ll.random_linear_optical(3, rng)
        other = ll.random_linear_optical(3, rng)
        delta = target.entries - other.entries
        ell = delta.T @ delta
        radius = np.sqrt(2.0 * 1.5)
        points = ll.sample_sphere(6, radius, 2000, rng)
        y = points @ ell.T
        weights = np.exp(-0.5 * np.einsum("ti,ti->t", points @ delta.T, points @ delta.T))
        grads = np.linalg.norm(weights[:, None] * y, axis=1)
        assert grads.max() <= radius * np.linalg.norm(ell, 2) + 1e-12


def test_concentration_tails_below_bound():
    target = ll.random_linear_optical(8, seed=0)
    # A nearby hypothesis keeps the Lipschitz constant small so the tail
    # bound is informative within |f| <= 1.
    blend = ll.polar_project(ll.complexify(target).entries + 0.05 * np.eye(8))
    other = ll.realify(blend)
    rows = concentration_tail_report(target, other, 8, 4, 0.5, (0.2, 0.3, 0.4), 20000, seed=1)
    for eta, tail, bound in rows:
        assert tail <= bound + 1e-12


def test_generalization_experiment_smoke():
    reports = ll.generalization_experiment(
        "ERM2", 2, 1.0, (2, 4), 0.1, 3, seed=0,
        optim=OptimConfig(restarts=2, max_iters=1500, eval_stride=5),
        mc_samples=20000,
    )
    assert [r.size for r in reports] == [2, 4]
    for report in reports:
        assert report.failures + len(report.empirical_gaps) == 3
        assert report.violation_fraction == 0.0
        assert all(g >= 0 for g in report.empirical_gaps)
        data = ll.to_json(report)
        assert data["scheme"] == "ERM2"
        assert data["size"] == report.size


def test_generalization_experiment_reports_a_violation(monkeypatch):
    # With the bound at 0.75 times the smallest measured gap, every gap
    # exceeds it by far more than the 3-sigma margin of the exact series.
    def run():
        return ll.generalization_experiment(
            "ERM2", 2, 1.0, (2,), 0.1, 3, seed=5,
            optim=OptimConfig(restarts=2, max_iters=1500, eval_stride=5),
        )

    (clean,) = run()
    assert clean.violation_fraction == 0.0
    assert len(clean.empirical_gaps) == 3
    smallest = min(clean.empirical_gaps)
    assert smallest > 0.0
    monkeypatch.setattr(bounds_module, "gap_bound", lambda scheme, params: 0.75 * smallest)
    (report,) = run()
    assert report.empirical_gaps == clean.empirical_gaps
    assert report.violation_fraction == 1.0


def test_gap_bound_dispatch():
    p = ll.BoundParams(2, 8, 1.0, 0.1)
    assert ll.gap_bound("ERM1", p) == ll.gap_bound_erm1(p)
    assert ll.gap_bound("ERM1P", p) == ll.gap_bound_erm1_prime(p)
    assert ll.gap_bound("ERM2", p) == ll.gap_bound_erm2(p)


def _record_mc(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        result = full_risk_mc(*args, **kwargs)
        calls.append((Scheme.coerce(args[0]), result))
        return result

    monkeypatch.setattr(bounds_module, "full_risk_mc", recording)
    return calls


def test_experiments_use_the_series_at_moderate_energy(monkeypatch):
    calls = _record_mc(monkeypatch)
    first = ll.random_linear_optical(2, seed=[3, 0])
    second = ll.random_linear_optical(2, seed=[3, 1])
    report = ll.lipschitz_check(first, second, 1.0, trials=1, seed=(3, 2))
    assert report.full_gap_erm1_stderr < TAIL_WARN and report.full_gap_erm2_stderr < TAIL_WARN
    ll.generalization_experiment(
        "ERM1P", 2, 1.0, (2,), 0.1, 1, seed=0,
        optim=OptimConfig(restarts=2, max_iters=1500, eval_stride=5),
    )
    assert calls == []


def test_lipschitz_falls_back_to_mc_where_the_series_cancels(monkeypatch):
    # At E=16 the ERM1 series of this pair cancels to garbage (-5e8 before the
    # error estimate covered rounding), so the full risk must come from MC.
    # A Generator seed once failed here: the MC seed was built as a tuple
    # ``(generator, 1)``, which numpy cannot seed from.
    calls = _record_mc(monkeypatch)
    rng = substream(7)
    first, second = ll.random_linear_optical(2, rng), ll.random_linear_optical(2, rng)
    for seed in (5, np.random.default_rng(5)):
        calls.clear()
        report = ll.lipschitz_check(first, second, 16.0, trials=1, seed=seed, mc_samples=20000)
        ((value, stderr),) = [result for scheme, result in calls if scheme == Scheme.ERM1]
        assert 0.0 <= value <= 1.0
        assert report.full_gap_erm1 == value
        assert report.full_gap_erm1_stderr == stderr


def test_generalization_experiment_accepts_a_generator_seed():
    # The per-set seeds were ``(generator, size, index)`` tuples, and the
    # first substream of one raised ``TypeError: ... has no len()``.
    def run():
        return ll.generalization_experiment(
            "ERM2", 2, 1.0, (2,), 0.1, 1, seed=np.random.default_rng(0),
            optim=OptimConfig(restarts=2, max_iters=1500, eval_stride=5),
        )

    first, second = run(), run()
    assert first[0].failures + len(first[0].empirical_gaps) == 1
    assert first[0].empirical_gaps == second[0].empirical_gaps


def test_unseeded_generalization_experiment_draws_fresh_entropy(monkeypatch):
    # ``seed=None`` was the fixed seed 0: two calls fitted the same set.
    fits = []

    def recording(training, target, config):
        fits.append((training.states, config.seed))
        return ll.minimize(training, target, config)

    monkeypatch.setattr(bounds_module, "minimize", recording)
    optim = OptimConfig(restarts=2, max_iters=1500, eval_stride=5)
    for _ in range(2):
        ll.generalization_experiment("ERM2", 2, 1.0, (2,), 0.1, 1, seed=None, optim=optim)
    (first, first_seed), (second, second_seed) = fits
    assert first_seed is None and second_seed is None
    assert not np.array_equal(first, second)


def test_unseeded_lipschitz_check_draws_fresh_entropy(monkeypatch):
    # The Monte-Carlo seed was always ``(0, 1)`` under ``seed=None``.  At E=16
    # the ERM1 series of this pair cancels and its full risk is a Monte-Carlo
    # estimate (near 0.989, not saturated at 1), which must come from fresh
    # entropy on every call.
    calls = []

    def recording(*args, **kwargs):
        result = full_risk_mc(*args, **kwargs)
        calls.append((Scheme.coerce(args[0]), kwargs["seed"], result[0]))
        return result

    monkeypatch.setattr(bounds_module, "full_risk_mc", recording)
    rng = substream(0)
    first, second = ll.random_linear_optical(2, rng), ll.random_linear_optical(2, rng)
    for _ in range(2):
        ll.lipschitz_check(first, second, 16.0, trials=1, seed=None, mc_samples=20000)
    erm1 = [(seed, value) for scheme, seed, value in calls if scheme == Scheme.ERM1]
    assert len(erm1) == 2 and all(seed is None for seed, _ in erm1)
    assert erm1[0][1] != erm1[1][1]


def test_lipschitz_check_computes_one_full_risk_per_scheme(monkeypatch):
    # The full risk of O_W against itself is exactly 0 and is not computed.
    calls = []
    full_risk = bounds_module._full_risk

    def recording(scheme, target, hypothesis, *args):
        calls.append((scheme, target, hypothesis))
        return full_risk(scheme, target, hypothesis, *args)

    monkeypatch.setattr(bounds_module, "_full_risk", recording)
    rng = substream(7)
    first, second = ll.random_linear_optical(2, rng), ll.random_linear_optical(2, rng)
    ll.lipschitz_check(first, second, 1.0, trials=1, seed=3)
    assert [scheme for scheme, _, _ in calls] == [Scheme.ERM1, Scheme.ERM2]
    for _, target, hypothesis in calls:
        assert np.array_equal(target, first.entries) and np.array_equal(hypothesis, second.entries)
