"""Batch experiment harness with seeded sweeps and CSV/JSON emission.

Subcommands
-----------
erm        empirical-risk-minimization sweep over (energy, size, seed)
junta      staged junta discovery over seeds
bounds     generalization-gap measurement against the bound formulas
swap-risk  shot-noise risk estimates against the closed form
verify     the acceptance criteria's self-checks, one row each; exit 3 on a failure

Configs are flat INI files with one section per command; every value has a
default, so a missing file or section just runs the stock experiment.  Each
key is parsed by the type of its config field: list values are separated by
``,`` or ``;``, an empty ``junta_modes`` draws a random junta for each seed,
and ``scheme`` is case-insensitive.  An unknown key, a value that does not
parse or a negative ``base_seed`` exits with status 2.  A fit that fails
inside one sweep point (every restart singular, or no junta stage reaching
the threshold) becomes a row with ``converged = false`` or a failure
``status``, and its numeric cells are ``nan`` in CSV and ``null`` in JSON;
the sweep goes on.
Output rows are produced in sorted sweep order, making repeated runs
byte-identical for identical configs.  ``--workers`` (or LINOPTLEARN_WORKERS,
at least 1) parallelizes the sweep points of ``erm`` and ``junta`` without
changing the output, in a pool no larger than the number of points;
``bounds``, ``swap-risk`` and ``verify`` run serially.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    gap_bound_erm1,
    gap_bound_erm1_prime,
    gap_bound_erm2,
    generalization_experiment,
    lipschitz_check,
)
from .core import (
    ComplexTransfer,
    _child_seed,
    _realify_raw,
    fidelity,
    frobenius_distance_squared,
    haar_unitary,
    random_junta,
    random_linear_optical,
    substream,
)
from .errors import InvalidParameter, LinoptError, SingularMatrix, StageLimitReached
from .fock import FockSpace, oracle_fidelity
from .junta import StagePolicy, learn_junta
from .optimize import OptimConfig, minimize, polish_blas_threads
from .risk import (
    ShotModel,
    _embed_complex,
    empirical_risk,
    empirical_risk_gradient,
    full_risk_mc,
    series_full_risk,
    swap_test_risk,
)
from .training import Scheme, marginal_density, sample_training_set

ENV_WORKERS = "LINOPTLEARN_WORKERS"

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _fmt(value) -> str:
    """Text of a config value in the INI sidecar, or of a value in a CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(item) for item in value)
    if isinstance(value, Scheme):
        return value.value
    return str(value)


def _parse(kind, text: str):
    """Decode INI ``text`` into a value of the config field type ``kind``."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in text.replace(";", ",").split(",") if v.strip())
    return Scheme.coerce(text) if kind is Scheme else kind(text)


@dataclass(frozen=True)
class ErmConfig:
    scheme: Scheme = Scheme.ERM1
    modes: int = 4
    energies: tuple[float, ...] = (1.0, 4.0)
    sizes: tuple[int, ...] = (2, 4, 8)
    seed_count: int = 5
    base_seed: int = 0
    restarts: int = 10
    max_iters: int = 4000

    SECTION = "erm"


@dataclass(frozen=True)
class JuntaConfig:
    modes: int = 8
    junta_size: int = 4
    junta_modes: tuple[int, ...] = ()  # empty -> random subset per seed
    training_size: int = 4
    energy_scale: float = 1.0
    seed_count: int = 10
    base_seed: int = 0
    restarts: int = 3
    max_iters: int = 2500

    SECTION = "junta"


@dataclass(frozen=True)
class BoundsConfig:
    scheme: Scheme = Scheme.ERM2
    modes: int = 2
    energy: float = 1.0
    delta: float = 0.1
    sizes: tuple[int, ...] = (2, 4, 8, 16)
    sets_per_size: int = 20
    base_seed: int = 0
    mc_samples: int = 200000

    SECTION = "bounds"


@dataclass(frozen=True)
class SwapRiskConfig:
    scheme: Scheme = Scheme.ERM1
    modes: int = 2
    size: int = 4
    energy: float = 1.0
    shots: tuple[int, ...] = (100, 10000)
    seed_count: int = 5
    base_seed: int = 0

    SECTION = "swap-risk"


@dataclass(frozen=True)
class VerifyConfig:
    oracle_instances: int = 20
    gradient_instances: int = 10
    lipschitz_trials: int = 100
    marginal_sets: int = 20000
    series_samples: int = 200000
    base_seed: int = 0

    SECTION = "verify"


def _section(config) -> dict:
    return {f.name: _fmt(getattr(config, f.name)) for f in dataclasses.fields(config)}


def config_to_ini(config) -> str:
    parser = configparser.ConfigParser()
    parser[config.SECTION] = _section(config)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def config_from_ini(text: str, command: str):
    """Config for ``command`` from INI ``text``; absent keys keep their defaults."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    cls = _CONFIG_TYPES[command]
    section = dict(parser[cls.SECTION]) if parser.has_section(cls.SECTION) else {}
    kinds = typing.get_type_hints(cls)
    unknown = set(section) - set(kinds)
    if unknown:
        raise InvalidParameter(f"unknown keys in [{cls.SECTION}]: {sorted(unknown)}")
    return cls(**{key: _parse(kinds[key], value) for key, value in section.items()})


def load_config(path: str | None, command: str):
    if path is None:
        return _CONFIG_TYPES[command]()
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_ini(handle.read(), command)


def _write_rows(rows, header, out, fmt, config):
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[key]) for key in header])
        payload = buffer.getvalue()
    else:
        # Strict JSON has no NaN: the NaN cells of failed fits become null.
        rows = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
            for row in rows
        ]
        payload = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(payload)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(payload)
    sidecar = {
        "command": config.SECTION,
        "version": __version__,
        "format": fmt,
        "config": _section(config),
        "polish_blas_threads": polish_blas_threads(),
    }
    with open(out + ".meta.json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")


ERM_HEADER = [
    "scheme",
    "M",
    "E",
    "T",
    "seed",
    "converged",
    "risk_final",
    "frobenius_dist_sq",
    "unitarity_residual",
]


def _erm_point(config: ErmConfig, point):
    e_index, t_index, seed = point
    energy, size, base_seed = config.energies[e_index], config.sizes[t_index], config.base_seed
    target = random_linear_optical(config.modes, seed=substream(base_seed, seed, 0))
    training = sample_training_set(
        config.scheme, config.modes, size, energy,
        seed=substream(base_seed, seed, 1, e_index, t_index),
    )
    cfg = OptimConfig(
        restarts=config.restarts,
        max_iters=config.max_iters,
        seed=(base_seed, seed, 2, e_index, t_index),
    )
    row = {"scheme": config.scheme.value, "M": config.modes, "E": energy, "T": size, "seed": seed}
    try:
        result = minimize(training, target, cfg)
    except SingularMatrix:  # a failed fit is a row of the sweep, not a config error
        row.update(converged=False, risk_final=math.nan, frobenius_dist_sq=math.nan, unitarity_residual=math.nan)
        return row
    o_w = _realify_raw(result.transfer.entries)
    row.update(
        converged=result.converged,
        risk_final=result.risk_final,
        frobenius_dist_sq=frobenius_distance_squared(target.entries, o_w),
        unitarity_residual=result.unitarity_residual,
    )
    return row


def _map_points(worker, config, points, workers: int):
    """``[worker(config, p) for p in points]``, over at most ``len(points)`` processes."""
    task = functools.partial(worker, config)
    workers = min(workers, len(points))
    if workers <= 1:
        return [task(p) for p in points]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, points))


def cmd_erm(config: ErmConfig, workers: int, out, fmt) -> int:
    points = itertools.product(
        range(len(config.energies)), range(len(config.sizes)), range(config.seed_count)
    )
    rows = _map_points(_erm_point, config, list(points), workers)
    _write_rows(rows, ERM_HEADER, out, fmt, config)
    return EXIT_OK


JUNTA_HEADER = [
    "seed",
    "M",
    "junta_size",
    "T",
    "energy_scale",
    "status",
    "terminated_stage",
    "stages",
    "log10_minima",
    "true_junta",
    "recovered_junta",
    "recovered_ok",
    "final_risk",
    "frobenius_dist_sq",
    "energy_spent",
]


def _junta_point(config: JuntaConfig, seed: int):
    modes = config.modes
    spec, target = random_junta(
        modes,
        config.junta_size,
        seed=substream(config.base_seed, seed, 0),
        junta_modes=config.junta_modes or None,
    )
    policy = StagePolicy(
        min_training_size=config.training_size,
        energy_scale=config.energy_scale,
        optim=OptimConfig(
            restarts=config.restarts,
            max_iters=config.max_iters,
            stop_risk=1e-13,
            plateau_window=500,
        ),
    )
    row = {
        "seed": seed,
        "M": modes,
        "junta_size": config.junta_size,
        "T": config.training_size,
        "energy_scale": config.energy_scale,
        "true_junta": ";".join(str(j) for j in spec.junta_modes),
    }
    try:
        report = learn_junta(target, policy, seed=(config.base_seed, seed, 1))
    except (StageLimitReached, SingularMatrix) as exc:
        row.update(
            status="stage_limit" if isinstance(exc, StageLimitReached) else "singular_matrix",
            terminated_stage=0,
            stages="",
            log10_minima="",
            recovered_junta="",
            recovered_ok=False,
            final_risk=math.nan,
            frobenius_dist_sq=math.nan,
            energy_spent=math.nan,
        )
        return row
    g_full = _embed_complex(report.learned.entries, report.junta_modes, modes)
    row.update(
        status="ok",
        terminated_stage=report.terminated_stage,
        stages=";".join(str(r.stage) for r in report.stages),
        log10_minima=";".join(
            repr(math.log10(r.minimum)) if r.minimum > 0 else "-inf" for r in report.stages
        ),
        recovered_junta=";".join(str(j) for j in report.junta_modes),
        recovered_ok=report.junta_modes == spec.junta_modes,
        final_risk=report.final_risk,
        frobenius_dist_sq=frobenius_distance_squared(target.entries, _realify_raw(g_full)),
        energy_spent=report.energy_spent,
    )
    return row


def cmd_junta(config: JuntaConfig, workers: int, out, fmt) -> int:
    rows = _map_points(_junta_point, config, list(range(config.seed_count)), workers)
    _write_rows(rows, JUNTA_HEADER, out, fmt, config)
    return EXIT_OK


BOUNDS_HEADER = [
    "scheme",
    "M",
    "E",
    "delta",
    "T",
    "median_gap",
    "bound_erm1",
    "bound_erm1prime",
    "bound_erm2",
    "violation_fraction",
    "failures",
]


def cmd_bounds(config: BoundsConfig, workers: int, out, fmt) -> int:
    reports = generalization_experiment(
        config.scheme,
        config.modes,
        config.energy,
        config.sizes,
        config.delta,
        config.sets_per_size,
        seed=config.base_seed,
        mc_samples=config.mc_samples,
    )
    rows = []
    for report in reports:
        params = BoundParams(config.modes, report.size, config.energy, config.delta)
        rows.append(
            {
                "scheme": report.scheme.value,
                "M": report.modes,
                "E": report.energy,
                "delta": report.delta,
                "T": report.size,
                "median_gap": report.median_gap,
                "bound_erm1": gap_bound_erm1(params),
                "bound_erm1prime": gap_bound_erm1_prime(params),
                "bound_erm2": gap_bound_erm2(params),
                "violation_fraction": report.violation_fraction,
                "failures": report.failures,
            }
        )
    _write_rows(rows, BOUNDS_HEADER, out, fmt, config)
    return EXIT_OK


SWAP_HEADER = ["scheme", "M", "T", "E", "shots", "seed", "exact_risk", "swap_risk", "abs_error"]


def cmd_swap_risk(config: SwapRiskConfig, workers: int, out, fmt) -> int:
    rows = []
    for shots in config.shots:
        for seed in range(config.seed_count):
            target = random_linear_optical(config.modes, seed=substream(config.base_seed, seed, 0))
            hypothesis = ComplexTransfer(
                haar_unitary(config.modes, substream(config.base_seed, seed, 1))
            )
            training = sample_training_set(
                config.scheme, config.modes, config.size, config.energy,
                seed=substream(config.base_seed, seed, 2),
            )
            exact = empirical_risk(training, target, hypothesis).value
            model = ShotModel(shots=shots, seed=(config.base_seed, seed, 3))
            estimate = swap_test_risk(training, target, hypothesis, model).value
            rows.append(
                {
                    "scheme": config.scheme.value,
                    "M": config.modes,
                    "T": config.size,
                    "E": config.energy,
                    "shots": shots,
                    "seed": seed,
                    "exact_risk": exact,
                    "swap_risk": estimate,
                    "abs_error": abs(exact - estimate),
                }
            )
    _write_rows(rows, SWAP_HEADER, out, fmt, config)
    return EXIT_OK


def check_oracle(count: int, seed):
    """Closed-form fidelity against the Fock-space oracle (cutoff 40) at M = 1, 2."""
    worst = 0.0
    for index in range(count):
        modes = 1 + index % 2
        rng = substream(seed, index)
        target = random_linear_optical(modes, rng)
        other = random_linear_optical(modes, rng)
        x = rng.standard_normal(2 * modes)
        x *= rng.uniform(0.1, 2.0) / np.linalg.norm(x)
        space = FockSpace(modes, 40)
        worst = max(worst, abs(fidelity(x, target, other) - oracle_fidelity(x, target, other, space)))
    return "oracle-agreement", worst < 1e-8, f"max|diff|={worst:.2e}", worst


def central_difference(training, target, g):
    """Central-difference gradient (step 1e-5) of the empirical risk in ``(Re G, Im G)``."""
    step = 1e-5
    m = g.shape[0]
    theta = np.concatenate([g.real.ravel(), g.imag.ravel()])
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        for sign in (1.0, -1.0):
            probe = theta.copy()
            probe[i] += sign * step
            gp = probe[: m * m].reshape(m, m) + 1j * probe[m * m :].reshape(m, m)
            grad[i] += sign * empirical_risk(training, target, gp).value
    return grad / (2.0 * step)


def check_gradient(count: int, seed):
    """Analytic risk gradient against central differences, ERM1/ERM1P/ERM2 at M = 2-4."""
    worst = 0.0
    for index in range(count):
        rng = substream(seed, index)
        modes = 2 + index % 3
        target = random_linear_optical(modes, rng)
        training = sample_training_set((Scheme.ERM1, Scheme.ERM1P, Scheme.ERM2)[index % 3], modes, 3, 1.0, seed=rng)
        g = haar_unitary(modes, rng) + 0.2 * (
            rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
        )
        analytic = empirical_risk_gradient(training, target, g)
        numeric = central_difference(training, target, g)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)))
    return "gradient-check", worst < 1e-5, f"max rel={worst:.2e}", worst


def check_marginal_energy(count: int, seed):
    """Mean first-state energy of ERM2 sets at M = 4, T = 5, E = 10 against E/T = 2."""
    energies = [
        sample_training_set(Scheme.ERM2, 4, 5, 10.0, seed=substream(seed, i)).state_energies()[0]
        for i in range(count)
    ]
    mean = sum(energies) / count
    return "marginal-energy", abs(mean - 2.0) <= 0.02 * 2.0, f"mean={mean:.4f}", mean


def check_marginal_normalization():
    """The single-block marginal density at M = 1, T = 3, E = 2 integrates to 1."""
    from scipy.integrate import quad

    integral = quad(
        lambda r: marginal_density(np.array([r, 0.0]), 1, 3, 2.0) * 2.0 * math.pi * r, 0.0, 2.0, limit=200
    )[0]
    return "marginal-normalization", abs(integral - 1.0) < 1e-6, f"integral={integral:.9f}", integral


def check_series_vs_mc(seed, samples: int):
    """Series full risk against a ``samples``-point Monte-Carlo estimate, 5 instances at M = 1, E ~ U(0.2, 2)."""
    pairs = []
    for index in range(5):
        rng = substream(seed, index)
        target = random_linear_optical(1, rng)
        other = random_linear_optical(1, rng)
        energy = float(rng.uniform(0.2, 2.0))
        series = series_full_risk(target, other, energy).value
        estimate, stderr = full_risk_mc(Scheme.ERM1, target, other, 1, 1, energy, samples, _child_seed(seed, index))
        pairs.append((abs(series - estimate), stderr))
    # 1e-12 floor: at M=1 the integrand is constant on the sphere, so the
    # sample stderr is pure floating-point noise.
    ok = all(gap < 3.0 * stderr + 1e-12 for gap, stderr in pairs)
    return "series-vs-mc", ok, "gaps " + ", ".join(f"{gap:.1e}" for gap, _ in pairs), pairs


def check_lipschitz(count: int, seed):
    """Risk continuity behind both generalization bounds, on ``count`` random pairs at M = 2, E = 1."""
    violations = 0
    for index in range(count):
        first = random_linear_optical(2, seed=substream(seed, index, 0))
        second = random_linear_optical(2, seed=substream(seed, index, 1))
        report = lipschitz_check(first, second, 1.0, trials=1, seed=_child_seed(seed, index, 2))
        violations += report.empirical_violations + report.full_violations
    return "lipschitz", violations == 0, f"{violations} violations", violations


VERIFY_HEADER = ["check", "passed", "detail"]


def run_verification(config: VerifyConfig) -> list[dict]:
    """One row per self-check: the acceptance criteria's checks at ``config``'s counts."""
    for name, count in dataclasses.asdict(config).items():
        if name != "base_seed" and count < 1:
            raise InvalidParameter(f"{name} must be >= 1, got {count}")
    base = config.base_seed
    checks = [
        check_oracle(config.oracle_instances, (base, 100)),
        check_gradient(config.gradient_instances, (base, 200)),
        check_lipschitz(config.lipschitz_trials, (base, 300)),
        check_marginal_energy(config.marginal_sets, (base, 400)),
        check_marginal_normalization(),
        check_series_vs_mc((base, 500), config.series_samples),
    ]
    return [{"check": name, "passed": bool(ok), "detail": detail} for name, ok, detail, _ in checks]


def cmd_verify(config: VerifyConfig, workers: int, out, fmt) -> int:
    rows = run_verification(config)
    _write_rows(rows, VERIFY_HEADER, out, fmt, config)
    return EXIT_OK if all(row["passed"] for row in rows) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linoptlearn",
        description="Experiment harness for learning linear optical circuits from coherent states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CONFIG_TYPES:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="INI config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the base seed")
        cmd.add_argument("--workers", type=int, default=None, help="parallel sweep workers")
        cmd.add_argument("--out", default=None, help="output path ('-' for stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_COMMANDS = {
    ErmConfig: cmd_erm,
    JuntaConfig: cmd_junta,
    BoundsConfig: cmd_bounds,
    SwapRiskConfig: cmd_swap_risk,
    VerifyConfig: cmd_verify,
}
_CONFIG_TYPES = {cls.SECTION: cls for cls in _COMMANDS}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.command)
        if args.seed is not None:
            config = dataclasses.replace(config, base_seed=args.seed)
        workers = args.workers
        if workers is None:
            workers = int(os.environ.get(ENV_WORKERS, "1"))
        if workers < 1:
            raise InvalidParameter(f"workers must be >= 1, got {workers}")
        if config.base_seed < 0:
            raise InvalidParameter(f"base_seed must be >= 0, got {config.base_seed}")
    except (LinoptError, ValueError, KeyError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return _COMMANDS[type(config)](config, workers, args.out, args.format)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LinoptError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
