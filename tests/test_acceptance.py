"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
table.  The whole suite is deterministic (fixed seeds throughout).
"""

import subprocess
import sys
import time

import numpy as np

import linoptlearn as ll
from linoptlearn import cli
from linoptlearn.core import _realify_raw, substream
from linoptlearn.optimize import OptimConfig


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_oracle_agreement():
    started = time.time()
    _, _, detail, worst = cli.check_oracle(100, 1000)
    elapsed = time.time() - started
    ok = worst < 1e-8 and elapsed < 60.0
    _report(1, "closed-form vs Fock-space fidelity, 100 instances", ok, f"({detail}, {elapsed:.0f}s)")


def _erm_sweep_point(scheme, size, seed, energy=1.0, modes=4, restarts=10):
    target = ll.random_linear_optical(modes, seed=substream(seed, 0))
    training = ll.sample_training_set(scheme, modes, size, energy, seed=substream(seed, 1))
    result = ll.minimize(training, target, OptimConfig(restarts=restarts, seed=(seed, 2)))
    dist = ll.frobenius_distance_squared(target.entries, _realify_raw(result.transfer.entries))
    return result.converged and result.risk_final < 1e-7, dist


def test_criterion_02_faithfulness_transition():
    started = time.time()
    faithful = [_erm_sweep_point("ERM1", 4, seed) for seed in range(10)]
    good = sum(1 for ok, dist in faithful if ok and dist < 1e-4)
    unfaithful = [_erm_sweep_point("ERM1", 2, seed) for seed in range(10)]
    reached = [(ok, dist) for ok, dist in unfaithful if ok]
    far = sum(1 for _, dist in reached if dist > 1e-2)
    elapsed = time.time() - started
    ok = good >= 8 and reached and far >= 0.8 * len(reached) and elapsed < 600.0
    _report(
        2,
        "M=4 E=1 ERM1 transition at T=M",
        bool(ok),
        f"(T=4 good {good}/10, T=2 far {far}/{len(reached)}, {elapsed:.0f}s)",
    )


def test_criterion_03_trainability_ordering():
    counts = {}
    for scheme in ("ERM1", "ERM2"):
        converged = 0
        for seed in range(20):
            target = ll.random_linear_optical(4, seed=substream(seed, 0))
            training = ll.sample_training_set(scheme, 4, 8, 16.0, seed=substream(seed, 1))
            result = ll.minimize(training, target, OptimConfig(restarts=10, seed=(seed, 2)))
            converged += result.converged
        counts[scheme] = converged
    _report(
        3,
        "ERM2 convergence count >= ERM1 at M=4 E=16 T=8",
        counts["ERM2"] >= counts["ERM1"],
        f"(ERM2 {counts['ERM2']}/20, ERM1 {counts['ERM1']}/20)",
    )


def test_criterion_04_junta_recovery():
    started = time.time()
    policy = ll.StagePolicy(
        min_training_size=4,
        energy_scale=2.0,
        optim=OptimConfig(restarts=3, max_iters=1500, stop_risk=1e-13, plateau_window=300),
    )
    hits = 0
    threshold_ok = True
    for seed in range(10):
        spec, target = ll.random_junta(8, 4, seed=substream(seed, 0))
        report = ll.learn_junta(target, policy, seed=(seed, 1))
        stages = [record.stage for record in report.stages]
        if report.junta_modes == spec.junta_modes and stages == [2, 3, 4]:
            hits += 1
            threshold_ok &= report.final_risk < 1e-10
    elapsed = time.time() - started
    _report(
        4,
        "M=8 k=4 recovery in exactly 3 stages",
        hits >= 8 and threshold_ok and elapsed < 900.0,
        f"({hits}/10 recovered, {elapsed:.0f}s)",
    )


def test_criterion_05_gradient_correctness():
    _, _, detail, worst = cli.check_gradient(50, 2000)
    _report(5, "analytic vs central-difference gradients, 50 instances", worst < 1e-5, f"({detail})")


def test_criterion_06_marginal_energy():
    _, _, detail, mean = cli.check_marginal_energy(100000, ())
    _report(6, "ERM2 per-state energy E/T at M=4 T=5 E=10", abs(mean - 2.0) <= 0.02 * 2.0, f"({detail})")


def test_criterion_07_series_mc_agreement():
    _, _, detail, pairs = cli.check_series_vs_mc(3000, 1_000_000)
    # 1e-12 floor: at M=1 the sample stderr is pure floating-point noise.
    ok = all(gap < 3.0 * stderr + 1e-12 for gap, stderr in pairs)
    _report(7, "series vs Monte-Carlo full risk, M=1", ok, f"({detail})")


def test_criterion_08_lipschitz_verification():
    _, _, detail, violations = cli.check_lipschitz(1000, ())
    _report(8, "risk continuity on 1000 random triples at M=2 E=1", violations == 0, f"({detail})")


def test_criterion_09_generalization_gaps():
    started = time.time()
    optim = OptimConfig(restarts=2, max_iters=3000, eval_stride=5)
    results = {}
    for scheme in ("ERM1P", "ERM2"):
        reports = ll.generalization_experiment(
            scheme,
            2,
            1.0,
            (2, 4, 8, 16),
            0.1,
            20,
            seed=42,
            optim=optim,
            mc_samples=100000,
            optimizer_replicas=3,
        )
        medians = np.array([r.median_gap for r in reports])
        slope = np.polyfit(np.log([r.size for r in reports]), np.log(medians), 1)[0]
        violations = max(r.violation_fraction for r in reports)
        results[scheme] = (medians, slope, violations)
    monotone = all(np.all(np.diff(results[s][0]) <= 0) for s in results)
    zero_violations = all(results[s][2] == 0.0 for s in results)
    steeper = results["ERM2"][1] < results["ERM1P"][1]
    elapsed = time.time() - started
    _report(
        9,
        "gap bounds honored, medians non-increasing, ERM2 decays faster",
        zero_violations and monotone and steeper,
        f"(slopes ERM2 {results['ERM2'][1]:.2f} vs ERM1P {results['ERM1P'][1]:.2f}, {elapsed:.0f}s)",
    )


def test_criterion_10_bound_scaling():
    energies = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    sizes = [ll.minimal_sufficient_size("ERM1P", 4, e, 0.1) for e in energies]
    slope_e = np.polyfit(np.log(energies), np.log(sizes), 1)[0]

    mode_grid = np.array([2, 4, 8, 16, 32])
    sizes = [ll.minimal_sufficient_size("ERM1P", m, 4.0, 0.1) for m in mode_grid]
    slope_m = np.polyfit(np.log(mode_grid), np.log(sizes), 1)[0]

    points = [
        (e * m, ll.minimal_sufficient_size("ERM2", m, e, 0.1))
        for m in (2, 4, 8, 16)
        for e in (1.0, 4.0, 16.0, 64.0)
    ]
    slope_em = np.polyfit(np.log([p[0] for p in points]), np.log([p[1] for p in points]), 1)[0]

    ok = (
        abs(slope_e - 0.5) <= 0.15 * 0.5
        and abs(slope_m - 1.0) <= 0.15
        and abs(slope_em - 1.0 / 3.0) <= 0.15 / 3.0
    )
    _report(
        10,
        "minimal sufficient size scalings sqrt(E)*M and cbrt(E*M)",
        ok,
        f"(E-slope {slope_e:.3f}, M-slope {slope_m:.3f}, EM-slope {slope_em:.3f})",
    )


def test_criterion_11_determinism(tmp_path):
    config = tmp_path / "erm.ini"
    config.write_text(
        "[erm]\nscheme = ERM1\nmodes = 2\nenergies = 1.0\nsizes = 2, 3\n"
        "seed_count = 2\nbase_seed = 0\nrestarts = 2\nmax_iters = 1500\n"
    )
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "linoptlearn", "erm", "--config", str(config), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    _report(11, "identical configs produce byte-identical CSV", outputs[0] == outputs[1])
