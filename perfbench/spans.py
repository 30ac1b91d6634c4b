"""Run-time span tracing of the linoptlearn layers, from outside the package.

``Tracer.install`` replaces module-level names that the package looks up at
call time (``bounds.minimize``, ``optimize._risk_core``, ...) with thin
wrappers that record one span per call: a layer name, start, end and the
index of the enclosing span.  Spans are kept in flat in-memory arrays and
written out once, at the end of the run; ``uninstall`` restores every
original name.  A hook whose target no longer exists is listed as absent
instead of failing, so the benchmark survives refactors that rename or
remove a layer.
"""

from __future__ import annotations

import array
import inspect
import time
import zlib

# Span names, one per layer boundary.  ``optimize.objective`` is the only
# transparent span: it separates Adam from polish evaluations but is not a
# layer of its own, so self time looks through it.
SPAN_NAMES = (
    "bench.item",
    "training.sample",
    "optimize.minimize",
    "optimize.objective",
    "optimize.projection",
    "optimize.bisect",
    "optimize.polish",
    "risk.kernel",
    "risk.mc",
    "junta.search",
    "bounds.experiment",
)
SPAN_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_TRANSPARENT = {SPAN_ID["optimize.objective"]}

# (module path, attribute path, span name).  Attribute paths are resolved on
# the imported module; a missing link anywhere makes the hook absent.
HOOKS = (
    ("linoptlearn", "sample_training_set", "training.sample"),
    ("linoptlearn.bounds", "sample_training_set", "training.sample"),
    ("linoptlearn.junta", "sample_training_set", "training.sample"),
    ("linoptlearn", "minimize", "optimize.minimize"),
    ("linoptlearn.bounds", "minimize", "optimize.minimize"),
    ("linoptlearn.junta", "minimize", "optimize.minimize"),
    ("linoptlearn.optimize", "_Problem.value_and_grad", "optimize.objective"),
    ("linoptlearn.optimize", "polar_project", "optimize.projection"),
    ("linoptlearn.optimize", "_bisect_to_stop", "optimize.bisect"),
    ("linoptlearn.optimize", "scipy.optimize.minimize", "optimize.polish"),
    ("linoptlearn.optimize", "_risk_core", "risk.kernel"),
    ("linoptlearn.junta", "_risk_core", "risk.kernel"),
    ("linoptlearn.bounds", "full_risk_mc", "risk.mc"),
    ("linoptlearn", "learn_junta", "junta.search"),
    ("linoptlearn", "generalization_experiment", "bounds.experiment"),
)


def _resolve(module_path: str, attr_path: str):
    """``(owner, attribute, current value)`` or ``None`` if any link is missing."""
    import importlib

    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    if not callable(value):
        return None
    return owner, leaf, value


class Tracer:
    """Span recorder plus the per-call facts the layer metrics need.

    ``facts`` maps a span index to what its call returned or was given: the
    mode count M of a kernel call, the sample count of a Monte-Carlo call,
    and ``(restarts_run, converged, len(modes))`` of a ``minimize`` call.  A
    call that raised has no fact.
    """

    def __init__(self):
        self.names = array.array("b")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.facts = {}
        self.absent = []
        self._stack = [-1]
        self._installed = []

    # -- recording -------------------------------------------------------

    def begin(self, span_id: int) -> int:
        index = len(self.names)
        self.names.append(span_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str):
        tracer = self
        span_id = SPAN_ID[name]
        note = None
        if name == "risk.kernel":
            def note(index, args, kwargs, result):
                tracer.facts[index] = args[0].shape[1] // 2
        elif name == "risk.mc":
            bind = inspect.signature(original).bind

            def note(index, args, kwargs, result):
                tracer.facts[index] = int(bind(*args, **kwargs).arguments["samples"])
        elif name == "optimize.minimize":
            def note(index, args, kwargs, result):
                modes = getattr(result, "modes", None)
                tracer.facts[index] = (result.restarts_run, bool(result.converged), len(modes or ()))

        def wrapper(*args, **kwargs):
            index = tracer.begin(span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if note is not None:
                note(index, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for module_path, attr_path, name in HOOKS:
            found = _resolve(module_path, attr_path)
            if found is None:
                self.absent.append(f"{module_path}.{attr_path}")
                continue
            owner, leaf, original = found
            setattr(owner, leaf, self._wrap(original, name))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- analysis --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, in start order, as zlib-compressed tab-separated text."""
        base = self.starts[0] if self.starts else 0.0
        lines = ["name\tstart\tend\tparent"]
        for i, span_id in enumerate(self.names):
            name = SPAN_NAMES[span_id]
            lines.append(f"{name}\t{self.starts[i] - base:.9f}\t{self.ends[i] - base:.9f}\t{self.parents[i]}")
        with open(path, "wb") as handle:
            handle.write(zlib.compress(("\n".join(lines) + "\n").encode(), 6))

    def layer_metrics(self, junta_reports=()) -> dict:
        """Per-layer counts and times of everything recorded so far.

        Self time is a span's duration minus the durations of its children;
        children of a transparent span count as children of its nearest
        non-transparent ancestor.  Spans nest properly (one thread), so the
        children's durations never overlap.  ``junta_reports`` supply the
        stage count and the energy ledger, which no span carries.
        """
        names, parents, facts = self.names, self.parents, self.facts
        n = len(names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        in_polish = [False] * n
        in_junta = [False] * n
        in_bounds = [False] * n
        polish, junta, bounds = SPAN_ID["optimize.polish"], SPAN_ID["junta.search"], SPAN_ID["bounds.experiment"]
        for i in range(n):
            parent = parents[i]
            if parent < 0:
                continue
            in_polish[i] = names[parent] == polish or in_polish[parent]
            in_junta[i] = names[parent] == junta or in_junta[parent]
            in_bounds[i] = names[parent] == bounds or in_bounds[parent]
            if names[i] in _TRANSPARENT:
                continue
            while parent >= 0 and names[parent] in _TRANSPARENT:
                parent = parents[parent]
            if parent >= 0:
                covered[parent] += dur[i]

        def of(name):
            return [i for i in range(n) if names[i] == SPAN_ID[name]]

        def total(indices):
            return sum(dur[i] for i in indices)

        def self_time(indices):
            return sum(dur[i] - covered[i] for i in indices)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        kernel = of("risk.kernel")
        out["risk.kernel_calls"] = len(kernel)
        out["risk.kernel_s"] = total(kernel)
        out["risk.kernel_us_per_call"] = 1e6 * ratio(total(kernel), len(kernel))
        for m in (2, 4, 8):
            at_m = [i for i in kernel if facts.get(i) == m]
            out[f"risk.kernel_us_per_call.M{m}"] = 1e6 * ratio(total(at_m), len(at_m))

        mc = of("risk.mc")
        out["risk.mc_calls"] = len(mc)
        out["risk.mc_samples"] = sum(facts.get(i, 0) for i in mc)
        out["risk.mc_s"] = total(mc)
        out["risk.mc_samples_per_s"] = ratio(out["risk.mc_samples"], out["risk.mc_s"])

        fits = of("optimize.minimize")
        fit = {i: facts.get(i, (0, False, 0)) for i in fits}  # (restarts, converged, len(modes))
        restarts = sum(fit[i][0] for i in fits)
        objective = of("optimize.objective")
        polish_evals = sum(1 for i in objective if in_polish[i])
        out["optimize.minimize_calls"] = len(fits)
        out["optimize.minimize_s"] = total(fits)
        out["optimize.restarts"] = restarts
        out["optimize.converged_per_restart"] = ratio(sum(fit[i][1] for i in fits), restarts)
        out["optimize.objective_evals"] = len(objective)
        out["optimize.adam_evals"] = len(objective) - polish_evals
        out["optimize.self_s"] = self_time(fits)
        for layer in ("projection", "bisect", "polish"):
            spans = of(f"optimize.{layer}")
            out[f"optimize.{layer}_calls"] = len(spans)
            if layer == "polish":
                out["optimize.polish_evals"] = polish_evals
            out[f"optimize.{layer}_s"] = total(spans)

        searches = of("junta.search")
        junta_fits = [i for i in fits if in_junta[i]]
        out["junta.searches"] = len(searches)
        out["junta.candidates"] = len(junta_fits)
        out["junta.stages"] = sum(len(report.stages) for report in junta_reports)
        out["junta.energy_spent"] = sum(report.energy_spent for report in junta_reports)
        for stage in (2, 3, 4):
            out[f"junta.stage{stage}_s"] = total(i for i in junta_fits if fit[i][2] == stage)
        out["junta.self_s"] = self_time(searches)

        experiments = of("bounds.experiment")
        bounds_fits = [i for i in fits if in_bounds[i]]
        out["bounds.sets"] = len(experiments)
        out["bounds.replicas_converged_frac"] = ratio(
            sum(fit[i][1] for i in bounds_fits), len(bounds_fits)
        )
        out["bounds.self_s"] = self_time(experiments)

        samples = of("training.sample")
        out["training.sample_calls"] = len(samples)
        out["training.sample_s"] = total(samples)
        return out
