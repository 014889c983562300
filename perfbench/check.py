"""Correctness checks on the files the workloads write.

Pipeline outputs are compared with the reference outputs captured from the
unmodified package (``reference/<workload>/*.gz``): comment lines,
headers, row counts and text cells exactly, numeric cells within
``REL_TOL``/``ABS_TOL``, and ``policy_table.csv`` and ``manifest.json`` byte
for byte. Segment frontiers are compared with ``brute_force_frontier`` on
the same problem, built independently through the public API, and every
objective value with the path walk ``diagram.expected_values``, which does
not use ``StrategyEvaluator``. Repetitions of one operation must be
byte-identical to each other.
"""

from __future__ import annotations

import copy
import gzip
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PIPELINE_FILES = ("policy_table.csv", "selection.csv", "histories_F.csv",
                  "histories_M.csv", "prevalence_series.csv", "manifest.json")
BYTE_EXACT_FILES = {"policy_table.csv", "manifest.json"}
EXACT_COLUMNS = {"female_key", "male_key", "feasible"}


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _split(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, (body[0] if body else []), body[1:]


def compare_csv(name: str, actual: str, expected: str) -> list[str]:
    """Mismatches between two CSV texts under the tolerance rules above."""
    a_comments, a_header, a_rows = _split(actual)
    e_comments, e_header, e_rows = _split(expected)
    if a_comments != e_comments or a_header != e_header:
        return [f"{name}: comment or header lines differ"]
    if len(a_rows) != len(e_rows):
        return [f"{name}: {len(a_rows)} rows, expected {len(e_rows)}"]
    problems = []
    for i, (a_row, e_row) in enumerate(zip(a_rows, e_rows)):
        if len(a_row) != len(e_row):
            problems.append(f"{name} row {i}: {len(a_row)} cells")
            continue
        for column, a, e in zip(e_header, a_row, e_row):
            same = a == e if column in EXACT_COLUMNS else _close(a, e)
            if not same:
                problems.append(f"{name} row {i} {column}: {a} != {e}")
    return problems[:10]


def compare_pipeline(out: Path, workload: str) -> list[str]:
    """Mismatches between one pipeline run and the captured reference."""
    problems = []
    for name in PIPELINE_FILES:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        expected = gzip.decompress(
            (REFERENCE_DIR / workload / f"{name}.gz").read_bytes())
        actual = path.read_bytes()
        if name in BYTE_EXACT_FILES:
            if actual != expected:
                problems.append(f"{name}: bytes differ from the reference")
        else:
            problems += compare_csv(name, actual.decode(), expected.decode())
    return problems


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def same_bytes(first: Path, other: Path) -> bool:
    """Whether two output directories hold the same files, byte for byte."""
    return other.is_dir() and _files(first) == _files(other)


def _options_doc(doc: dict, flags: list[str]) -> tuple[dict, list[str] | None]:
    """The document with the CLI model flags folded into its options."""
    doc = copy.deepcopy(doc)
    options = doc.setdefault("options", {})
    if "--fix-exam" in flags:
        options["fix_exam_to_colonoscopy"] = True
    if "--no-incentive" in flags:
        options["incentive_enabled"] = False
    mask = None
    if "--objective-mask" in flags:
        mask = flags[flags.index("--objective-mask") + 1].split(",")
    return doc, mask


def _walked(diagram, strategy) -> dict[str, float]:
    from screenopt.diagram import expected_values

    walked = expected_values(diagram, strategy)
    return dict(zip(walked.names, walked.values))


def _evaluator_problems(problem, diagram) -> list[str]:
    """Evaluator rows that disagree with the path walk.

    Checks the first, middle and last candidate, which are mostly not on
    the frontier.
    """
    n = problem.n_candidates
    problems = []
    for candidate in sorted({0, n // 2, n - 1}):
        point = problem.point(candidate)
        walked = _walked(diagram, point.strategy)
        for name, value in zip(point.objectives.names,
                               point.objectives.values):
            if not math.isclose(value, walked[name], rel_tol=REL_TOL,
                                abs_tol=ABS_TOL):
                problems.append(f"evaluator candidate {candidate} {name}: "
                                f"{value!r} != path walk {walked[name]!r}")
    return problems


def reference_frontier(doc: dict, flags: list[str], sex_label: str,
                       period: int
                       ) -> tuple[list[tuple[str, dict[str, float]]], list[str]]:
    """Frontier of one segment at its no-screening prevalence, and oracle faults.

    The frontier's strategies come from ``brute_force_frontier``; their
    objective values come from the path walk, so an evaluator fault that
    both the program and the brute force share still shows. The second
    item lists evaluator rows that disagree with the path walk.
    """
    from screenopt import (Segment, Sex, brute_force_frontier,
                           build_segment_diagram, diagram_problem,
                           load_parameters, natural_progression_rollout)
    from screenopt.diagram import strategy_encoding
    from screenopt.screening import fixed_decision_rules

    doc, mask = _options_doc(doc, flags)
    bundle, _ = load_parameters(doc)
    sex = Sex(sex_label)
    psi = natural_progression_rollout(bundle.starting_prevalence(sex),
                                      bundle.transitions[sex.value],
                                      period - 1)[-1]
    diagram = build_segment_diagram(Segment(sex, period), bundle, psi)
    problem = diagram_problem(diagram, objective_mask=mask,
                              fixed=fixed_decision_rules(bundle))
    frontier = [(strategy_encoding(diagram, p.strategy),
                 _walked(diagram, p.strategy))
                for p in brute_force_frontier(problem).points]
    return frontier, _evaluator_problems(problem, diagram)


def compare_frontier(path: Path, reference) -> list[str]:
    """Mismatches between a ``frontier_<sex>_<period>.csv`` and the reference."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    _, header, rows = _split(path.read_text())
    if len(rows) != len(reference):
        return [f"{path.name}: {len(rows)} points, expected {len(reference)}"]
    problems = []
    for row, (encoding, values) in zip(rows, reference):
        # Encodings join rule triples with ";" and never contain ",".
        if len(row) != len(header) or row[0] != encoding:
            problems.append(f"{path.name}: row {row[0]} != {encoding}")
            continue
        for column, cell in zip(header[1:], row[1:]):
            expected = repr(values.get(column))
            if not _close(cell, expected):
                problems.append(f"{path.name} {column}: {cell} != {expected}")
    return problems[:10]
