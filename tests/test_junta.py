import numpy as np
import pytest

import linoptlearn as ll
import linoptlearn.junta as junta_module
import linoptlearn.training as training_module
from linoptlearn.core import _realify_raw, substream
from linoptlearn.errors import BudgetExceeded, DegenerateProbe, InvalidParameter, UndeterminedWarning
from linoptlearn.junta import StagePolicy, learn_junta
from linoptlearn.optimize import OptimConfig
from linoptlearn.risk import _embed_complex

FAST_OPTIM = OptimConfig(restarts=3, max_iters=1500, stop_risk=1e-13, plateau_window=300)


def test_identity_target_terminates_at_stage_two():
    target = ll.SymplecticOrthogonal(np.eye(12))
    report = learn_junta(target, StagePolicy(optim=FAST_OPTIM), seed=3)
    assert report.terminated_stage == 2
    assert report.stages[0].minimum < 1e-10
    assert report.final_risk < 1e-10
    selected_union = sorted(set().union(*(set(s) for s in report.stages[0].selected)))
    assert list(report.junta_modes) == selected_union
    k = len(report.junta_modes)
    assert np.abs(report.learned.entries - np.eye(k)).max() < 1e-4


def test_two_mode_junta_recovered_in_one_stage():
    spec, target = ll.random_junta(4, 2, seed=5, junta_modes=(1, 3))
    policy = StagePolicy(energy_scale=2.0, optim=FAST_OPTIM)
    report = learn_junta(target, policy, seed=6)
    assert report.terminated_stage == 2
    assert report.junta_modes == (1, 3)
    assert report.final_risk < 1e-10


def test_three_mode_junta_terminates_by_stage_k():
    # M=6, k=3: stage 3 should complete the support on most seeds.
    hits = 0
    for seed in range(10):
        spec, target = ll.random_junta(6, 3, seed=substream(seed, 0))
        policy = StagePolicy(min_training_size=3, energy_scale=2.0, optim=FAST_OPTIM)
        report = learn_junta(target, policy, seed=(seed, 1))
        if report.terminated_stage <= 3 and report.junta_modes == spec.junta_modes:
            hits += 1
    assert hits >= 8


def test_stage_minima_monotone_on_fixed_training_data():
    spec, target = ll.random_junta(5, 3, seed=11, junta_modes=(1, 2, 4))
    training = ll.sample_training_set("ERM2", 5, 4, 6.0, seed=12)

    def family_minimum(families):
        best = np.inf
        for index, modes in enumerate(families):
            cfg = OptimConfig(restarts=3, max_iters=1500, stop_risk=1e-13, seed=(13, index))
            best = min(best, ll.minimize(training, target, cfg, modes=modes).risk_final)
        return best

    import itertools

    pairs = [tuple(p) for p in itertools.combinations(range(1, 6), 2)]
    c2 = family_minimum(pairs)
    triples = [tuple(sorted({1, 2} | {l})) for l in (3, 4, 5)]
    c3 = family_minimum(triples)
    quads = [tuple(sorted({1, 2, 4} | {l})) for l in (3, 5)]
    c4 = family_minimum(quads)
    assert c2 >= c3 - 1e-12
    assert c3 >= c4 - 1e-12


def test_energy_ledger_bound():
    spec, target = ll.random_junta(6, 3, seed=21)
    policy = StagePolicy(min_training_size=3, energy_scale=2.0, optim=FAST_OPTIM)
    report = learn_junta(target, policy, seed=22)
    modes = 6
    k = report.terminated_stage
    budget = (modes * (modes - 1) / 2) * policy.stage_energy(2)
    budget += sum((modes - m + 1) * policy.stage_energy(m) for m in range(3, k + 1))
    assert report.energy_spent <= budget + 1e-9


def _ledger(report, policy):
    return sum(record.family_size * policy.stage_energy(record.stage) for record in report.stages)


def test_energy_ledger_charges_every_candidate():
    spec, target = ll.random_junta(4, 3, seed=25, junta_modes=(1, 2, 4))
    policy = StagePolicy(min_training_size=3, energy_scale=2.0, optim=FAST_OPTIM)
    report = learn_junta(target, policy, seed=26)
    assert [record.family_size for record in report.stages][:2] == [6, 2]
    assert report.energy_spent == _ledger(report, policy)


def test_energy_ledger_charges_the_refit(monkeypatch):
    # Every fit returns a tie below the full support, so stage 2 selects all
    # three pairs, the support covers every mode and stage 3 has no
    # candidate.  The product of identity blocks misses the target, which
    # forces the direct refit on the full union.
    fits = []

    def stub(training, target, cfg, modes=None):
        fits.append(modes)
        k = len(modes)
        risk = 0.0 if k == 3 else 0.5
        return ll.OptimResult(ll.ComplexTransfer(np.eye(k)), risk, 0.0, risk == 0.0, 0, 1, modes)

    monkeypatch.setattr(junta_module, "minimize", stub)
    target = ll.random_linear_optical(3, seed=27)
    policy = StagePolicy(energy_scale=2.0, optim=FAST_OPTIM)
    report = learn_junta(target, policy, seed=28)
    assert fits == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert [record.family_size for record in report.stages] == [3]
    assert report.energy_spent == _ledger(report, policy) + policy.stage_energy(3)
    assert report.energy_spent == 3 * 4.0 + 6.0


@pytest.mark.parametrize("apart, selected", [(0.005, ((1, 2), (1, 3))), (0.05, ((1, 2),))])
def test_stage_selection_ties_within_the_tolerance(monkeypatch, apart, selected):
    # Stubbed stage-2 risks: (1, 3) lies ``apart`` (relative) above the
    # minimum at (1, 2), and (2, 3) far off.  The default tie tolerance is 1%.
    risks = {(1, 2): 1e-11, (1, 3): 1e-11 * (1.0 + apart), (2, 3): 0.5}

    def stub(training, target, cfg, modes=None):
        return ll.OptimResult(ll.ComplexTransfer(np.eye(2)), risks[modes], 0.0, True, 0, 1, modes)

    monkeypatch.setattr(junta_module, "minimize", stub)
    report = learn_junta(ll.SymplecticOrthogonal(np.eye(6)), StagePolicy(optim=FAST_OPTIM), seed=29)
    assert report.terminated_stage == 2
    assert report.stages[0].selected == selected


def test_energy_cap_exceeded():
    _, target = ll.random_junta(6, 3, seed=23)
    policy = StagePolicy(energy_cap=1.0, optim=FAST_OPTIM)
    with pytest.raises(BudgetExceeded):
        learn_junta(target, policy, seed=24)


def test_beamsplitter_product_covered_in_one_update():
    rng = np.random.default_rng(5)
    g = np.eye(4, dtype=complex)
    g[:2, :2] = ll.haar_unitary(2, rng)
    g[2:, 2:] = ll.haar_unitary(2, rng)
    target = ll.realify(g)
    policy = StagePolicy(min_training_size=2, energy_scale=2.0, tie_tolerance=0.5, optim=FAST_OPTIM)
    report = learn_junta(target, policy, seed=(11,))
    assert report.terminated_stage == 2
    assert report.junta_modes == (1, 2, 3, 4)
    assert report.final_risk < 1e-10
    g_full = _embed_complex(report.learned.entries, report.junta_modes, 4)
    assert ll.frobenius_distance_squared(target.entries, _realify_raw(g_full)) < 1e-8


def test_final_distance_shrinks_with_energy():
    spec, target = ll.random_junta(4, 2, seed=71, junta_modes=(2, 4))

    def distance(scale):
        policy = StagePolicy(energy_scale=scale, optim=FAST_OPTIM)
        report = learn_junta(target, policy, seed=72)
        g_full = _embed_complex(report.learned.entries, report.junta_modes, 4)
        return ll.frobenius_distance_squared(target.entries, _realify_raw(g_full))

    assert distance(8.0) < distance(0.5)


def test_learn_junta_validation():
    with pytest.raises(InvalidParameter):
        learn_junta(ll.random_linear_optical(1, seed=0))
    with pytest.raises(InvalidParameter):
        StagePolicy(termination_threshold=0.0)


def test_unseeded_search_leaves_the_optimizer_unseeded(monkeypatch):
    seeds, fit = [], junta_module.minimize

    def recording(training, target, cfg, modes=None):
        seeds.append(cfg.seed)
        return fit(training, target, cfg, modes=modes)

    monkeypatch.setattr(junta_module, "minimize", recording)
    target = ll.SymplecticOrthogonal(np.eye(6))
    learn_junta(target, StagePolicy(optim=FAST_OPTIM), seed=None)
    assert seeds and all(seed is None for seed in seeds)
    seeds.clear()
    learn_junta(target, StagePolicy(optim=FAST_OPTIM), seed=7)
    assert seeds == [(7, 2, index) for index in range(3)]


def test_generator_seed_is_accepted_and_replayable():
    # The optimizer seeds were ``(generator, stage, index)`` tuples, which
    # raised ``TypeError: ... has no len()`` in the first fit.
    target = ll.SymplecticOrthogonal(np.eye(6))
    first, second = (
        learn_junta(target, StagePolicy(optim=FAST_OPTIM), seed=np.random.default_rng(0)) for _ in range(2)
    )
    assert first.final_risk < 1e-10
    assert first.final_risk == second.final_risk
    assert np.array_equal(first.learned.entries, second.learned.entries)


def test_report_json_roundtrip_fields():
    _, target = ll.random_junta(4, 2, seed=31, junta_modes=(2, 3))
    report = learn_junta(target, StagePolicy(energy_scale=2.0, optim=FAST_OPTIM), seed=32)
    data = ll.to_json(report)
    assert set(data) == {
        "junta_modes",
        "stages",
        "learned",
        "final_risk",
        "energy_spent",
        "terminated_stage",
    }
    assert data["stages"][0]["stage"] == 2


def test_identify_junta_identity_and_soundness():
    target = ll.SymplecticOrthogonal(np.eye(16))
    assert ll.identify_junta(target, 8.0, 1000, seed=1) == ()
    # Modes outside the junta pass exactly: their components are untouched.
    spec, embedded = ll.random_junta(8, 4, seed=2, junta_modes=(3, 4, 5, 8))
    found = ll.identify_junta(embedded, 8.0, 10000, seed=3)
    assert set(found) <= {3, 4, 5, 8}


def test_identify_junta_success_rate():
    hits = 0
    for seed in range(10):
        spec, target = ll.random_junta(8, 4, seed=substream(seed, 20))
        found = ll.identify_junta(target, 8.0, 10000, seed=substream(seed, 21))
        hits += found == spec.junta_modes
    assert hits >= 9


def test_identify_junta_zero_energy_warns():
    _, target = ll.random_junta(4, 2, seed=41)
    with pytest.warns(UndeterminedWarning):
        assert ll.identify_junta(target, 0.0, 100, seed=42) == ()


def test_identify_junta_degenerate_probes(monkeypatch):
    class ParallelDraws:
        def standard_normal(self, shape):
            return np.ones(shape)

    monkeypatch.setattr(training_module, "as_rng", lambda seed=None: ParallelDraws())
    _, target = ll.random_junta(4, 2, seed=51)
    with pytest.raises(DegenerateProbe):
        ll.identify_junta(target, 1.0, 100, seed=52)


def test_identify_junta_validation():
    _, target = ll.random_junta(4, 2, seed=61)
    with pytest.raises(InvalidParameter):
        ll.identify_junta(target, 1.0, 0, seed=62)
    with pytest.raises(InvalidParameter):
        ll.identify_junta(target, -1.0, 10, seed=63)


def test_identify_junta_rejects_vacuous_shot_counts():
    # At shots <= 9 the pass threshold 1 - 3/sqrt(shots) is <= 0: every mode
    # passed and the function returned () for this 3-mode junta.
    spec, target = ll.random_junta(6, 3, seed=3)
    for shots in (1, 4, 8, 9):
        with pytest.raises(InvalidParameter):
            ll.identify_junta(target, 4.0, shots, seed=0)
    assert ll.identify_junta(target, 4.0, 16, seed=0) == spec.junta_modes == (1, 2, 4)
