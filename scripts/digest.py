"""Output digest of a linoptlearn checkout, and the differences between two.

Runs a fixed list of CLI configs (``erm`` and ``junta`` at ``--workers 1``
and ``2``, then ``bounds``, ``swap-risk`` and ``verify``, each in CSV and JSON
with its ``.meta.json`` sidecar) and a fixed list of library calls, each for
an int, a tuple and a ``numpy.random.Generator`` seed.  Every output becomes
one entry: the sha256 of its bytes and its value as text tokens.  Library
values are rendered through ``float.hex`` and plain attributes only, so any
checkout with the same public API can be digested, older ones included.

    python scripts/digest.py run [--checkout DIR] [--out DIGEST.json]
    python scripts/digest.py diff A.json B.json
    python scripts/digest.py compare DIR_A DIR_B [--keep DIR]

``run`` digests one checkout (this one by default).  ``diff`` prints every
output whose bytes differ, with the largest relative change over its numeric
tokens (``inf`` when the tokens differ in number or in text), and exits 1 if
any differ.  ``compare`` runs both checkouts and diffs them.  The script needs
only numpy and the checkouts themselves; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEED_KINDS = ("int", "tuple", "generator")

# (command, INI body, worker counts); every command also runs in both formats.
CLI_RUNS = (
    ("erm", "modes = 3\nenergies = 1.0, 4.0\nsizes = 2, 4\nseed_count = 2\nrestarts = 3\nmax_iters = 1500\n", (1, 2)),
    ("junta", "modes = 4\njunta_size = 2\ntraining_size = 4\nseed_count = 2\nrestarts = 2\nmax_iters = 1500\n", (1, 2)),
    ("bounds", "modes = 2\nsizes = 2, 4\nsets_per_size = 2\nmc_samples = 20000\n", (1,)),
    ("swap-risk", "seed_count = 2\n", (1,)),
    (
        "verify",
        "oracle_instances = 2\ngradient_instances = 2\nlipschitz_trials = 5\n"
        "marginal_sets = 2000\nseries_samples = 20000\n",
        (1,),
    ),
)


def _tokens(value) -> list:
    """Text tokens of a library value: floats as ``float.hex``, arrays element-wise."""
    import numpy as np

    if isinstance(value, np.ndarray):
        flat = value.astype(complex).view(float) if np.iscomplexobj(value) else value.astype(float)
        return [f"shape={value.shape}"] + [float.hex(float(x)) for x in flat.ravel()]
    if isinstance(value, (float, np.floating)):
        return [float.hex(float(value))]
    if isinstance(value, (tuple, list)):
        return ["("] + [t for item in value for t in _tokens(item)] + [")"]
    if isinstance(value, enum.Enum):
        return [str(value.value)]
    return [repr(value.item() if isinstance(value, np.generic) else value)]


def _library_calls(seed):
    """``(name, thunk)`` pairs; ``seed()`` returns a fresh seed of one kind."""
    import linoptlearn as ll

    def fit(result):
        return (result.transfer.entries, result.risk_final, result.unitarity_residual,
                result.converged, result.iterations_used, result.restarts_run, result.modes)

    def random_junta():
        spec, _ = ll.random_junta(5, 2, seed())
        return spec.junta_modes, spec.inner.entries

    def minimize_full():
        target = ll.random_linear_optical(3, seed=5)
        training = ll.sample_training_set("ERM2", 3, 4, 2.0, seed=seed())
        return fit(ll.minimize(training, target, ll.OptimConfig(restarts=2, seed=seed())))

    def minimize_subset():
        _, target = ll.random_junta(5, 2, seed=6, junta_modes=(2, 4))
        training = ll.sample_training_set("ERM2", 5, 3, 2.0, seed=seed())
        cfg = ll.OptimConfig(restarts=2, stop_risk=1e-12, seed=seed())
        return fit(ll.minimize(training, target, cfg, modes=(2, 4)))

    def risks():
        target = ll.random_linear_optical(3, seed=7)
        training = ll.sample_training_set("ERM1", 3, 3, 1.0, seed=seed())
        g = ll.haar_unitary(3, seed())
        report = ll.empirical_risk(training, target, g)
        return report.value, report.per_term, ll.empirical_risk_gradient(training, target, g)

    def full_risks():
        target, other = ll.random_linear_optical(2, seed()), ll.random_linear_optical(2, seed())
        series = ll.series_full_risk(target, other, 2.0, scheme="ERM2", count=3)
        return (
            ll.full_risk_mc("ERM1", target, other, 2, 3, 2.0, 20000, seed=seed()),
            ll.full_risk_mc("ERM2", target, other, 2, 3, 2.0, 20000, seed=seed()),
            (series.value, series.singular_values, series.error_estimate),
        )

    def swap_risk():
        target = ll.random_linear_optical(2, seed=8)
        training = ll.sample_training_set("ERM1", 2, 4, 1.0, seed=9)
        report = ll.swap_test_risk(training, target, ll.haar_unitary(2, seed()), ll.ShotModel(100, seed()))
        return report.value, report.per_term, report.shots

    def learn_junta():
        _, target = ll.random_junta(4, 2, seed=seed(), junta_modes=(1, 3))
        optim = ll.OptimConfig(restarts=2, max_iters=1500, stop_risk=1e-13, plateau_window=300)
        report = ll.learn_junta(target, ll.StagePolicy(optim=optim), seed=seed())
        stages = tuple((s.stage, s.minimum, s.selected, s.candidates, s.energy) for s in report.stages)
        return report.junta_modes, report.learned.entries, report.final_risk, report.energy_spent, stages

    def identify_junta():
        _, target = ll.random_junta(4, 2, seed=seed(), junta_modes=(2, 3))
        return ll.identify_junta(target, 4.0, 1000, seed=seed())

    def generalization():
        optim = ll.OptimConfig(restarts=2, max_iters=1500, eval_stride=5)
        reports = ll.generalization_experiment("ERM2", 2, 1.0, (2, 4), 0.1, 2, seed=seed(), optim=optim, mc_samples=20000)
        return tuple((r.size, r.bound_value, r.empirical_gaps, r.violation_fraction, r.failures) for r in reports)

    def lipschitz():
        first, second = ll.random_linear_optical(2, seed()), ll.random_linear_optical(2, seed())
        report = ll.lipschitz_check(first, second, 1.0, 5, seed=seed())
        return tuple(getattr(report, name) for name in sorted(vars(report)))

    return (
        ("random_linear_optical", lambda: ll.random_linear_optical(3, seed()).entries),
        ("random_junta", random_junta),
        ("haar_unitary", lambda: ll.haar_unitary(3, seed())),
        *(
            (f"sample_training_set.{scheme}", lambda scheme=scheme: ll.sample_training_set(scheme, 2, 3, 1.5, seed()).states)
            for scheme in ("ERM1", "ERM1P", "ERM2")
        ),
        ("empirical_risk", risks),
        ("full_risk", full_risks),
        ("swap_test_risk", swap_risk),
        ("minimize.full", minimize_full),
        ("minimize.subset", minimize_subset),
        ("learn_junta", learn_junta),
        ("identify_junta", identify_junta),
        ("generalization_experiment", generalization),
        ("lipschitz_check", lipschitz),
    )


def _entry(tokens: list) -> dict:
    return {"sha256": hashlib.sha256("\n".join(tokens).encode()).hexdigest(), "value": tokens}


def _library_digest(checkout: str) -> dict:
    sys.path.insert(0, os.path.join(checkout, "src"))
    import numpy as np

    makers = {
        "int": lambda n: 1000 + n,
        "tuple": lambda n: (1000, n),
        "generator": lambda n: np.random.default_rng(1000 + n),
    }
    out = {}
    for kind in SEED_KINDS:
        counter = iter(range(10**6))  # each call draws the next seed of its kind

        def seed(kind=kind, counter=counter):
            return makers[kind](next(counter))

        for name, thunk in _library_calls(seed):
            try:
                tokens = _tokens(thunk())
            except Exception as exc:  # an error is an output too
                tokens = [f"error: {type(exc).__name__}: {exc}"]
            out[f"lib/{name}[{kind}]"] = _entry(tokens)
    return out


def _cli_digest(checkout: str, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = {}
    for command, body, worker_counts in CLI_RUNS:
        ini = os.path.join(workdir, f"{command}.ini")
        with open(ini, "w", encoding="utf-8") as handle:
            handle.write(f"[{command}]\n{body}")
        for workers in worker_counts:
            for fmt in ("csv", "json"):
                name = f"{command}.w{workers}.{fmt}"
                path = os.path.join(workdir, name)
                argv = [sys.executable, "-m", "linoptlearn", command, "--config", ini,
                        "--workers", str(workers), "--out", path, "--format", fmt]
                proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
                out[f"cli/{name}.exit"] = _entry([str(proc.returncode)])
                for suffix in ("", ".meta.json"):
                    try:
                        with open(path + suffix, "rb") as handle:
                            data = handle.read()
                    except OSError:
                        data = b"<missing>"
                    text = data.decode("utf-8", "replace")
                    out[f"cli/{name}{suffix}"] = {
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "value": re.findall(r'[^\s,\[\]{}:"]+', text),
                    }
        if len(worker_counts) > 1:
            shas = {out[f"cli/{command}.w{w}.csv"]["sha256"] for w in worker_counts}
            if len(shas) > 1:
                print(f"warning: {command} CSV bytes depend on --workers", file=sys.stderr)
    return out


def run(checkout: str, out_path: str | None, keep: str | None = None) -> dict:
    checkout = os.path.abspath(checkout)
    with tempfile.TemporaryDirectory() as scratch:
        workdir = keep or scratch
        os.makedirs(workdir, exist_ok=True)
        digest = {**_cli_digest(checkout, workdir), **_library_digest(checkout)}
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(digest, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return digest


def _number(token: str):
    for parse in (float.fromhex, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return None


def largest_relative_change(a: list, b: list) -> float:
    """Largest ``|x - y| / max(|x|, |y|)`` over paired numeric tokens; ``inf`` if they do not pair."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None:
            return math.inf
        if math.isnan(u) and math.isnan(v):
            continue
        scale = max(abs(u), abs(v))
        worst = max(worst, abs(u - v) / scale if scale else 0.0)
    return worst


def diff(first: dict, second: dict) -> int:
    """Print the outputs that differ between two digests; return how many."""
    names = sorted(set(first) | set(second))
    changed = 0
    for name in names:
        a, b = first.get(name), second.get(name)
        if a is not None and b is not None and a["sha256"] == b["sha256"]:
            continue
        changed += 1
        if a is None or b is None:
            print(f"{name}: only in {'first' if b is None else 'second'}")
        else:
            print(f"{name}: largest relative change {largest_relative_change(a['value'], b['value']):.3e}")
    print(f"{changed} of {len(names)} outputs differ")
    return changed


def _child_digest(checkout: str, out_path: str, keep: str | None) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "run", "--checkout", checkout, "--out", out_path]
    if keep:
        argv += ["--keep", keep]
    subprocess.run(argv, check=True)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="digest one checkout")
    p_run.add_argument("--checkout", default=ROOT)
    p_run.add_argument("--out", default=None, help="digest JSON path (default: stdout)")
    p_run.add_argument("--keep", default=None, help="directory that keeps the CLI outputs")
    p_diff = sub.add_parser("diff", help="compare two digest files")
    p_diff.add_argument("first")
    p_diff.add_argument("second")
    p_cmp = sub.add_parser("compare", help="digest two checkouts and compare them")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.add_argument("--keep", default=None, help="directory that keeps both digests and CLI outputs")
    args = parser.parse_args(argv)
    if args.command == "run":
        digest = run(args.checkout, args.out, args.keep)
        if not args.out:
            json.dump(digest, sys.stdout, indent=1, sort_keys=True)
            print()
        return 0
    if args.command == "diff":
        with open(args.first, encoding="utf-8") as a, open(args.second, encoding="utf-8") as b:
            return 1 if diff(json.load(a), json.load(b)) else 0
    with tempfile.TemporaryDirectory() as scratch:
        base = args.keep or scratch
        os.makedirs(base, exist_ok=True)
        digests = []
        for index, checkout in enumerate((args.first, args.second)):
            keep = os.path.join(base, f"outputs{index}") if args.keep else None
            digests.append(_child_digest(os.path.abspath(checkout), os.path.join(base, f"digest{index}.json"), keep))
    return 1 if diff(*digests) else 0


if __name__ == "__main__":
    sys.exit(main())
