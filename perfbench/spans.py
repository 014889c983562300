"""Spans around the calls into each screenopt layer, and what they add up to.

The tracer replaces public names where the calling module looks them up at
call time, so the program itself is not edited. Each span keeps its name,
start, end, parent span and the run id; some also keep exact work counts
read off the call's arguments and result. A layer's self time is the sum,
over its spans, of the span's duration minus the durations of its direct
children (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import importlib
import inspect
import time

# (module, attribute, span name) of every wrapped boundary.
BOUNDARIES = (
    ("screenopt.cli", "main", "cli.main"),
    ("screenopt.cli", "load_parameters", "screening.load_parameters"),
    ("screenopt.cli", "run_phase1", "phase1.run_phase1"),
    ("screenopt.cli", "budget_sweep", "phase2.budget_sweep"),
    ("screenopt.phase2", "_pair_matrices", "phase2.pair_matrices"),
    ("screenopt.phase1", "segment_frontier", "phase1.segment_frontier"),
    ("screenopt.phase1", "build_segment_diagram", "screening.build_segment_diagram"),
    ("screenopt.phase1", "diagram_problem", "pareto.diagram_problem"),
    ("screenopt.phase1", "compute_frontier", "pareto.compute_frontier"),
    ("screenopt.phase1", "remove_dominated", "phase1.remove_dominated"),
    ("screenopt.pareto", "StrategyEvaluator", "diagram.StrategyEvaluator"),
)
EVALUATE_SPAN = "diagram.StrategyEvaluator.objective_matrix"

# Spans each workload must record; a missing one means a call site moved.
REQUIRED = {
    "pipeline": ("cli.main", "screening.load_parameters", "phase1.run_phase1",
                 "phase1.segment_frontier", "screening.build_segment_diagram",
                 "pareto.diagram_problem", "diagram.StrategyEvaluator",
                 EVALUATE_SPAN, "pareto.compute_frontier",
                 "phase1.remove_dominated", "phase2.budget_sweep",
                 "phase2.pair_matrices"),
    "segment": ("cli.main", "screening.load_parameters",
                "screening.build_segment_diagram", "pareto.diagram_problem",
                "diagram.StrategyEvaluator", EVALUATE_SPAN,
                "pareto.compute_frontier"),
}

# Self time of these spans makes up each layer's time metric.
LAYER_TIMES = {
    "screening.build_s": ("screening.build_segment_diagram",),
    "screening.load_s": ("screening.load_parameters",),
    "diagram.evaluator_s": ("diagram.StrategyEvaluator", EVALUATE_SPAN),
    "pareto.problem_self_s": ("pareto.diagram_problem",),
    "pareto.frontier_s": ("pareto.compute_frontier",),
    "phase1.prune_s": ("phase1.remove_dominated",),
    "phase1.self_s": ("phase1.run_phase1", "phase1.segment_frontier"),
    "phase2.sweep_s": ("phase2.budget_sweep", "phase2.pair_matrices"),
    "cli.self_s": ("cli.main",),
}

SEXES = ("F", "M")
MAX_PERIODS = 5
# No-op calls timed, bare and wrapped, to measure the per-span cost.
CALIBRATION_CALLS = 20000


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _counts(name: str, fn, args, kwargs, result) -> dict:
    """Exact work counts of one call, read off its arguments and result."""
    if name == "phase1.run_phase1":
        return {"kept": {sex.value: len(h) for sex, h in result.items()}}
    if name == "phase2.budget_sweep":
        return {"budgets": len(_bound(fn, args, kwargs)["budgets"])}
    if name == "phase2.pair_matrices":
        # Entries of the (female, male) pair matrices this call built.
        return {"pairs": int(result[0].size)}
    if name == "phase1.segment_frontier":
        segment = _bound(fn, args, kwargs)["segment"]
        return {"sex": segment.sex.value, "period": segment.period,
                "points": len(result)}
    if name == "pareto.compute_frontier":
        problem = _bound(fn, args, kwargs)["problem"]
        return {"strategies": int(problem.n_candidates),
                "unique": len(problem.unique_vectors()),
                "points": len(result)}
    if name == "phase1.remove_dominated":
        histories = list(_bound(fn, args, kwargs)["histories"])
        first = histories[0]
        return {"sex": first.sex.value, "period": len(first.records),
                "n_in": len(histories), "n_out": len(result)}
    return {}


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counting_s = 0.0

    def _call(self, name: str, fn, args, kwargs, counted: bool = True):
        index = len(self.spans)
        span = {"name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if counted:
            start = time.perf_counter()
            span.update(_counts(name, fn, args, kwargs, result))
            self.counting_s += time.perf_counter() - start
        return result

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def traced_class(self, cls, name: str):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                tracer._call(name, super().__init__, args, kwargs,
                             counted=False)

            def objective_matrix(self, *args, **kwargs):
                return tracer._call(EVALUATE_SPAN, super().objective_matrix,
                                    args, kwargs, counted=False)

        return Traced

    def overhead_s(self) -> float:
        """Wall time the tracer added to the run it recorded.

        The per-span cost of the wrapper is measured here, as a traced
        minus a bare call of a no-op, and multiplied by the number of spans
        recorded; the time spent reading work counts is added. Measuring it
        in place resolves it far below the run-to-run noise of a traced
        run minus an untraced one.
        """
        def noop():
            return None

        traced = Tracer("calibration").wrap(noop, "calibration")
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        per_span = (max(time.perf_counter() - start - bare, 0.0)
                    / CALIBRATION_CALLS)
        return per_span * len(self.spans) + self.counting_s

    def install(self) -> None:
        """Wrap every boundary; a boundary that no longer exists is an error."""
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise RuntimeError(f"boundary {module_name}.{attr} not found")
            target = getattr(module, attr)
            if inspect.isclass(target):
                setattr(module, attr, self.traced_class(target, name))
            else:
                setattr(module, attr, self.wrap(target, name))


# ---------------------------------------------------------------------------
# Deriving per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def missing_spans(spans: list[dict], kind: str) -> list[str]:
    seen = {s["name"] for s in spans}
    return [name for name in REQUIRED[kind] if name not in seen]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name, summed over the run."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = {}
    for span, inner in zip(spans, child_time):
        out[span["name"]] = out.get(span["name"], 0.0) + (
            span["end"] - span["start"] - inner)
    return out


def _history_counts(spans: list[dict]) -> dict[str, int]:
    """Histories extended, over budget and kept per sex and period.

    Every kept history of period k-1 is extended by one segment solve at
    period k, so period k-1's kept count is the number of period-k solves;
    the last period's kept count is phase 1's output length.
    """
    solves: dict[tuple[str, int], int] = {}
    extended: dict[tuple[str, int], int] = {}
    pruned_in: dict[tuple[str, int], int] = {}
    kept: dict[tuple[str, int], int] = {}
    for s in spans:
        if s["name"] == "phase1.segment_frontier":
            key = (s["sex"], s["period"])
            solves[key] = solves.get(key, 0) + 1
            extended[key] = extended.get(key, 0) + s["points"]
        elif s["name"] == "phase1.remove_dominated":
            key = (s["sex"], s["period"])
            pruned_in[key] = pruned_in.get(key, 0) + s["n_in"]
    final = [s for s in spans if s["name"] == "phase1.run_phase1"]
    for sex in SEXES:
        last = max((k for (x, k) in extended if x == sex), default=0)
        for k in range(1, last + 1):
            if k < last:
                kept[(sex, k)] = solves.get((sex, k + 1), 0)
            else:
                kept[(sex, k)] = sum(s["kept"][sex] for s in final)
    out = {}
    for sex in SEXES:
        for k in range(1, MAX_PERIODS + 1):
            key = (sex, k)
            ext = extended.get(key, 0)
            within = pruned_in.get(key, kept.get(key, 0))
            out[f"phase1.extended.{sex}.p{k}"] = ext
            out[f"phase1.over_budget.{sex}.p{k}"] = ext - within
            out[f"phase1.kept.{sex}.p{k}"] = kept.get(key, 0)
    return out


def counters(spans: list[dict]) -> dict[str, int]:
    """Exact work counts of one traced operation; they repeat exactly."""
    def total(name, field):
        return sum(s[field] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    out = {
        "screening.builds": calls("screening.build_segment_diagram"),
        "diagram.evaluators": calls("diagram.StrategyEvaluator"),
        "pareto.strategies_evaluated": total("pareto.compute_frontier",
                                             "strategies"),
        "pareto.unique_vectors": total("pareto.compute_frontier", "unique"),
        "pareto.frontier_points": total("pareto.compute_frontier", "points"),
        "phase1.segment_solves": calls("phase1.segment_frontier"),
        "phase2.budgets": total("phase2.budget_sweep", "budgets"),
        "phase2.pairs_scanned": total("phase2.pair_matrices", "pairs"),
    }
    out.update(_history_counts(spans))
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, counters and the ratios derived from them."""
    own = self_times(spans)
    out: dict[str, float] = {
        metric: sum(own.get(name, 0.0) for name in names)
        for metric, names in LAYER_TIMES.items()
    }
    out.update(counters(spans))
    strategies = out["pareto.strategies_evaluated"]
    out["pareto.frontier_yield"] = (
        out["pareto.frontier_points"] / strategies if strategies else 0.0)
    extended = sum(v for k, v in out.items()
                   if k.startswith("phase1.extended."))
    kept = sum(v for k, v in out.items() if k.startswith("phase1.kept."))
    out["phase1.kept_ratio"] = kept / extended if extended else 0.0
    return out
