"""One fresh process that sets up screenopt and runs a workload's operations.

Usage: ``python3 perfbench/worker.py PLAN.json`` where the plan is written
by ``run.py``. The process imports screenopt, loads and validates the
parameter documents (the timed set-up), then, unless the plan asks for
set-up only, runs repetitions of the plan's operations in a closed loop
through ``cli.main``, one operation in flight, until the plan's seconds
have passed. It writes its timings, failures and peak resident
memory to the plan's result file, and the spans to the spans file when the
plan asks for tracing.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(plan: dict) -> float:
    start = time.perf_counter()
    import screenopt

    src = Path(plan["src"]).resolve()
    if src not in Path(screenopt.__file__).resolve().parents:
        raise RuntimeError(f"imported {screenopt.__file__}, not the package "
                           f"under {src}")
    for doc in plan["docs"]:
        screenopt.load_parameters(json.loads(Path(doc).read_text()))
    return time.perf_counter() - start


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _call(main, argv: list[str], failures: list[str], tag: str) -> float:
    """Run one CLI operation; return its latency in seconds."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:
        elapsed = time.perf_counter() - start
        failures.append(f"{tag}: {traceback.format_exc()}")
        return elapsed
    elapsed = time.perf_counter() - start
    if code != 0:
        failures.append(f"{tag}: exit code {code}")
    return elapsed


def _run(plan: dict, result: dict) -> None:
    import screenopt.cli as cli

    failures = result["failures"]
    rep_s, call_s, bytes_written = [], [], []
    loop_start = time.perf_counter()
    rep = 0
    while True:
        rep_dir = Path(plan["out"]) / f"rep{rep}"
        start = time.perf_counter()
        for op in plan["ops"]:
            argv = op["argv"] + ["--out", str(rep_dir / op["tag"])]
            call_s.append(
                _call(cli.main, argv, failures, f"rep{rep}/{op['tag']}"))
        rep_s.append(time.perf_counter() - start)
        bytes_written.append(_bytes_under(rep_dir))
        rep += 1
        if time.perf_counter() - loop_start >= plan["seconds"]:
            break
    result.update(rep_s=rep_s, call_s=call_s, bytes_written=bytes_written,
                  reps=rep)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    result: dict = {"failures": []}
    result["setup_s"] = _setup(plan)
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer(plan["run_id"])
        tracer.install()
    if not plan["setup_only"]:
        _run(plan, result)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace_overhead_s"] = tracer.overhead_s()
        Path(plan["spans"]).write_text(json.dumps(tracer.spans))
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
