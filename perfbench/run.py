"""End-to-end and per-layer benchmark of linoptlearn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload erm-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs pass 0 once untraced and once with
span tracing on (``perfbench/spans.py``) and prints every per-layer metric,
including the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report, with the
environment record, goes to ``.bench_out/``.

Inputs come only from ``--seed``.  The package is imported from the
checkout's ``src`` directory; BLAS and OpenMP thread variables are recorded
as inherited and never set.  Exit status: 0 when every correctness check
passed, 1 when one failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3  # one in-process set-up plus two in fresh interpreters
MAX_TIMED_S = 120.0  # no new pass starts after this, so a slow run still ends in time
INHERITED = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
LOADAVG_START = os.getloadavg()

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import SPAN_ID, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing package, spec or tool)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_package_source() -> None:
    """Fail unless ``linoptlearn`` was imported from this checkout's ``src``."""
    module = sys.modules.get("linoptlearn")
    src = os.path.join(ROOT, "src") + os.sep
    if module is None or not os.path.abspath(module.__file__).startswith(src):
        raise BenchError(f"linoptlearn must come from {src}")


def source_digest() -> str:
    """sha256 over the package sources: identifies the code when git is absent."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return {key: deps.get(key) for key in ("name", "version", "openblas configuration")}

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "inherited_env": INHERITED,
        "git_commit": commit,
        "src_sha256": source_digest(),
        "loadavg_start": LOADAVG_START,
    }


def timed_setup(workload, seed: int):
    start = time.perf_counter()
    items = workload.setup(seed)
    return time.perf_counter() - start, items


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one workload in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Ledger:
    """Items run, their outcomes, and the correctness problems found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.misses = []
        self.item_s = []
        self.outcomes = []

    def run_pass(self, items, tracer=None):
        """Run one pass; ``(wall s, cpu s, outcomes)``.  Checks run after timing."""
        outcomes = []
        cpu0 = cpu_now()
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            span = tracer.begin(SPAN_ID["bench.item"]) if tracer else None
            try:
                outcome = self.workload.run_item(item)
            except Exception as exc:  # an item that raises is a failed item, not a crash
                outcome = exc
            finally:
                if tracer:
                    tracer.end(span)
            self.item_s.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        for item, outcome in zip(items, outcomes):
            self.attempted += 1
            if isinstance(outcome, Exception):
                miss, problems = f"raised {type(outcome).__name__}: {outcome}", []
            else:
                miss, problems = self.workload.check(item, outcome)
            self.problems.extend(problems)
            if miss:
                self.misses.append(miss)
            self.failed += bool(miss or problems)
        self.outcomes.extend(zip(items, outcomes))
        return wall, cpu, outcomes

    def negative_control(self) -> None:
        control = getattr(self.workload, "negative_control", None)
        if control is None:
            return
        for item, outcome in self.outcomes:
            if not isinstance(outcome, Exception):
                if not control(item, outcome):
                    self.problems.append("negative control: a perturbed result passed the checks")
                return


def tail(values: list):
    """Highest percentile with at least ten samples beyond it: ``(value, pct, n)``.

    With fewer than eleven samples no percentile qualifies, and the maximum
    is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_untraced(workload, seed: int, seconds: float, first_items) -> tuple:
    ledger = Ledger(workload)
    pass_wall, pass_cpu = [], []
    items = first_items
    for index in range(workload.passes(seconds)):
        if index:
            if sum(pass_wall) > MAX_TIMED_S:
                break
            items = workload.make_pass(seed, index)
        wall, cpu, _ = ledger.run_pass(items)
        pass_wall.append(wall)
        pass_cpu.append(cpu)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct, tail_n = tail(ledger.item_s)
    metrics = {
        "wall_s": sum(pass_wall),
        "items_per_s": ledger.attempted / sum(pass_wall),
        "item_p50_s": statistics.median(ledger.item_s),
        "item_tail_s": tail_s,
        "cpu_s": sum(pass_cpu),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - ledger.failed / max(1, ledger.attempted),
    }
    detail = {
        "passes": len(pass_wall),
        "pass_wall_s": pass_wall,
        "pass_cpu_s": pass_cpu,
        "items": ledger.attempted,
        "item_tail_percentile": tail_pct,
        "item_samples": tail_n,
    }
    return ledger, metrics, detail


def run_traced(workload, seed: int, first_items, per_layer_names) -> tuple:
    ledger = Ledger(workload)
    untraced_wall, _, _ = ledger.run_pass(first_items)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced_cpu, outcomes = ledger.run_pass(first_items, tracer)
    finally:
        tracer.uninstall()
    junta_reports = [o for o in outcomes if type(o).__name__ == "JuntaReport"]
    metrics = dict.fromkeys(per_layer_names, 0.0)
    metrics.update(tracer.layer_metrics(junta_reports))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.absent_hooks"] = len(tracer.absent)
    extra = getattr(workload, "traced_layers", None)
    if extra is not None:
        layer_metrics, problems = extra(seed)
        metrics.update(layer_metrics)
        ledger.problems.extend(problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.z")
    tracer.dump(spans_path)
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "traced_cpu_s": traced_cpu,
        "spans": len(tracer.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "absent_hooks": tracer.absent,
    }
    return ledger, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](ROOT)

    if args.setup_probe:
        setup_s, _ = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        spec = load_spec()
        setup_s, first_items = timed_setup(workload, args.seed)
        check_package_source()
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            ledger, metrics, detail = run_traced(workload, args.seed, first_items, names)
        else:
            setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            ledger, metrics, detail = run_untraced(workload, args.seed, args.seconds, first_items)
            metrics["setup_s"] = statistics.median(setups)
            detail["setup_samples_s"] = setups
        ledger.negative_control()
        env = environment()
    except (BenchError, ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(names):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}", file=sys.stderr)
        return 2

    correct = not ledger.problems
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "detail": detail,
        "problems": ledger.problems,
        "misses": ledger.misses,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=2, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, default=str))
    print("detail " + json.dumps(detail, default=str))
    for miss in ledger.misses:
        print(f"missed: {miss}")
    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}")
    for name in names:
        print(f"  {name:36s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
