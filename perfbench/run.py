"""screenopt benchmark: one command, three workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one operation at a time, numpy/BLAS
pinned to one thread):

``pipeline-default``
    ``screenopt pipeline --budgets 8000,12000,16000,20000`` on the shipped
    parameters: the paper's headline run, with heavy cross-history sharing
    (1,606 segment solves over 10 distinct segments).
``segment-sweep``
    ``screenopt segment`` for every (sex, period) of 100 seeded random
    five-period documents: no two operations share a problem.
``budget-curve``
    ``screenopt pipeline --periods 4`` with 1,000 budgets from 4000 to
    20000: phase 2 dominates.

With ``--trace 0`` a fresh worker process repeats the workload (one
pipeline, or one pass over every segment) until ``--seconds`` have passed,
at least once, and the command prints the end-to-end metrics named in
``BENCHMARK.json``. The pipeline workloads do not depend on the seed.
Set-up (importing screenopt and loading and validating the parameter
documents) is timed in 21 further fresh processes and reported as the
median.

With ``--trace 1`` two traced worker processes each run one operation and
record spans around the calls into every layer (see ``spans.py``); the
command prints the per-layer metrics and the tracing overhead measured in
place, and fails when the two traced runs disagree on any work counter, or
when a layer the workload must cross recorded no span.

Every run checks every output (see ``check.py``). The last line of standard
output is the result JSON; the line before it records the environment. The
command exits 1 when an operation failed or an output is wrong, and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PINS)  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = SRC / "screenopt" / "data" / "synthetic_default.json"
WORK = HERE / "work"
sys.path.insert(0, str(SRC))  # the correctness oracles import screenopt

SETUP_SAMPLES = 21
SWEEP_DOCS = 100
DEADLINE_S = 170.0
CURVE_BUDGETS = ",".join(repr(4000.0 + 16000.0 * i / 999) for i in range(1000))
WORKLOADS = {
    "pipeline-default": {
        "kind": "pipeline",
        "argv": ["pipeline", "--budgets", "8000,12000,16000,20000"]},
    "budget-curve": {
        "kind": "pipeline",
        "argv": ["pipeline", "--periods", "4", "--budgets", CURVE_BUDGETS]},
    # Not in BENCHMARK.json while a program defect fails it (see README).
    "segment-sweep": {"kind": "segment"},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample; with fewer than 11 samples no
    percentile qualifies and the maximum is reported.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def tail_label(n: int) -> str:
    return f"p{100.0 * (n - 10) / n:.1f}" if n >= 11 else "max"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """The operations of one workload; identical for identical seeds."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "pipeline":
        return {"kind": "pipeline", "docs": [str(SHIPPED)],
                "ops": [{"tag": "pipeline", "argv": spec["argv"]}]}
    from docgen import PERIODS, make_workload

    docs_dir = work / "docs"
    docs_dir.mkdir()
    ops, docs = [], []
    for i, (doc, flags) in enumerate(make_workload(seed, SWEEP_DOCS)):
        path = str(docs_dir / f"doc{i:03d}.json")
        Path(path).write_text(json.dumps(doc, indent=1))
        docs.append(path)
        ops += [{"tag": f"d{i:03d}{sex}{k}", "sex": sex, "period": k,
                 "doc": path, "flags": flags,
                 "argv": ["segment", "--params", path, "--sex", sex,
                          "--period", str(k), *flags]}
                for sex in ("F", "M") for k in range(1, PERIODS + 1)]
    return {"kind": "segment", "docs": docs, "ops": ops}


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def run_worker(work: Path, name: str, inputs: dict, deadline: float, *,
               seconds: float = 0.0, trace: bool = False,
               setup_only: bool = False) -> dict:
    """Run one fresh worker process and return its result record."""
    plan = {
        "src": str(SRC), "docs": inputs["docs"], "ops": inputs["ops"],
        "seconds": seconds, "trace": trace,
        "setup_only": setup_only, "run_id": f"{work.name}/{name}",
        "out": str(work / name), "result": str(work / f"{name}.result.json"),
        "spans": str(work / f"{name}.spans.json"),
    }
    plan_path = work / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PINS)
    log = work / f"{name}.log"
    with open(log, "wb") as sink:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path)],
                stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {name} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited with {proc.returncode}:\n"
                         + log.read_text()[-3000:])
    result = json.loads(Path(plan["result"]).read_text())
    if trace:
        result["spans"] = json.loads(Path(plan["spans"]).read_text())
    return result


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Checker:
    """Checks every operation's outputs; counts attempted and failed ones."""

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self._first: dict[str, Path] = {}
        self._docs: dict[str, dict] = {}

    def fail(self, tag: str, why: str) -> None:
        self.failed.setdefault(tag, why)

    def _check(self, op: dict, out: Path) -> list[str]:
        """Mismatches of an operation's first outputs with the oracle."""
        import check

        if self.inputs["kind"] == "pipeline":
            return check.compare_pipeline(out, self.workload)
        if op["doc"] not in self._docs:
            self._docs[op["doc"]] = json.loads(Path(op["doc"]).read_text())
        reference, faults = check.reference_frontier(
            self._docs[op["doc"]], op["flags"], op["sex"], op["period"])
        return faults + check.compare_frontier(
            out / f"frontier_{op['sex']}_{op['period']}.csv", reference)

    def worker(self, result: dict, name: str, work: Path) -> None:
        import check

        for failure in result["failures"]:
            tag, _, why = failure.partition(": ")
            self.fail(f"{name}/{tag}", why)
        for rep in range(result["reps"]):
            for op in self.inputs["ops"]:
                self.attempted += 1
                out = work / name / f"rep{rep}" / op["tag"]
                tag = f"{name}/rep{rep}/{op['tag']}"
                first = self._first.setdefault(op["tag"], out)
                if first is out:
                    try:
                        problems = self._check(op, out)
                    except Exception:  # a broken oracle fails the operation
                        problems = [traceback.format_exc()]
                    for problem in problems:
                        self.fail(tag, problem)
                elif not check.same_bytes(first, out):
                    self.fail(tag, f"outputs differ from {first}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, workload: str) -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0"
                      + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "seed_changes_inputs": WORKLOADS[workload]["kind"] == "segment",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas_pins": BLAS_PINS, "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def measure(workload: str, seconds: float, inputs: dict, work: Path,
            checker: Checker, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    setups = [run_worker(work, f"setup{i}", inputs, deadline,
                         setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    result = run_worker(work, "main", inputs, deadline, seconds=seconds)
    checker.worker(result, "main", work)
    rep_s, call_s = result["rep_s"], result["call_s"]
    metrics = {
        "run_s": statistics.median(rep_s),
        "run_s.tail": tail(rep_s),
        "op_ms.p50": 1000.0 * statistics.median(call_s),
        "op_ms.tail": 1000.0 * tail(call_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["rss_mb"],
    }
    samples = {"run_s": len(rep_s), "run_s.tail": tail_label(len(rep_s)),
               "op_ms": len(call_s), "op_ms.tail": tail_label(len(call_s)),
               "setup_s": len(setups)}
    return metrics, samples


def measure_traced(workload: str, inputs: dict, work: Path,
                   checker: Checker, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from two traced runs, plus the tracing overhead."""
    import spans

    traced = []
    for name in ("traced0", "traced1"):
        result = run_worker(work, name, inputs, deadline, trace=True)
        checker.worker(result, name, work)
        missing = spans.missing_spans(result["spans"], inputs["kind"])
        if missing:
            raise BenchError(f"{workload}: no span recorded at "
                             f"{', '.join(missing)}; a call site moved")
        layers = spans.layer_metrics(result["spans"])
        layers["cli.bytes_written"] = result["bytes_written"][0]
        layers["trace.overhead_s"] = result["trace_overhead_s"]
        traced.append(layers)
    first, second = traced
    repeat = [k for k in first
              if not k.endswith("_s") and first[k] != second[k]]
    if repeat:
        checker.fail("repeat", "traced runs disagree on " + ", ".join(repeat))
    metrics = {k: (statistics.mean([first[k], second[k]])
                   if k.endswith("_s") else first[k])
               for k in first}
    return metrics, {"traced_runs": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "screenopt" / "cli.py").is_file():
        print(f"error: screenopt source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = make_inputs(args.workload, args.seed, work)
    checker = Checker(args.workload, inputs)
    try:
        if args.trace:
            values, samples = measure_traced(args.workload, inputs, work,
                                             checker, deadline)
        else:
            values, samples = measure(args.workload, args.seconds, inputs,
                                      work, checker, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in work.iterdir():
            if child.is_dir() and child.name != "docs":
                shutil.rmtree(child)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for tag, why in sorted(checker.failed.items())[:20]:
        print(f"FAILED {tag}: {why}", file=sys.stderr)
    failed = len(checker.failed)
    attempted = max(checker.attempted, 1)
    record = environment(args.seed, args.workload)
    record.update(samples=samples, failed_ratio=failed / attempted,
                  run_seconds=args.seconds)
    print(json.dumps({"environment": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
