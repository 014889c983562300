"""Seeded parameter documents and per-operation flags for ``segment-sweep``.

The generator belongs to the benchmark so that the workload changes only
when this file does. It uses the standard library's ``random`` so that a
numpy upgrade cannot change the inputs either. Every document has five
periods, ascending cut-offs with falling sensitivities and rising
specificity, and valid prevalence simplexes.

The shape of the workload does not depend on the seed: document ``i`` has
``3 + i % 4`` cut-offs, and whether it runs with ``--fix-exam``,
``--no-incentive`` or an ``--objective-mask`` follows from ``i // 4``, so
every cut-off count meets every flag pattern. The seed draws the numbers
and the masked objectives. The size of a segment's strategy space is set
by its cut-offs and flags, so the slowest operations, which set the
latency tail, are the same kind of problem for every seed.
"""

from __future__ import annotations

import random

PERIODS = 5
OBJECTIVES = ("cost", "colonoscopy", "benign_found", "large_found",
              "crc_found")


def _falling(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted((rng.uniform(lo, hi) for _ in range(n)), reverse=True)


def _simplex(rng: random.Random) -> dict:
    benign = rng.uniform(0.02, 0.14)
    large = rng.uniform(0.005, 0.05)
    crc = rng.uniform(0.0005, 0.01)
    return {"normal": 1.0 - benign - large - crc, "benign": benign,
            "large": large, "crc": crc}


def _per_period(rng: random.Random, lo: float, hi: float) -> list[float]:
    return [rng.uniform(lo, hi) for _ in range(PERIODS)]


def make_document(rng: random.Random, name: str, n_cutoffs: int) -> dict:
    """One valid five-period parameter document."""
    cutoffs = [str(v) for v in sorted(rng.sample(range(5, 100), n_cutoffs))]
    sens = {state: dict(zip(cutoffs, _falling(rng, n_cutoffs, lo, hi)))
            for state, lo, hi in (("benign", 0.15, 0.45),
                                  ("large", 0.45, 0.8),
                                  ("crc", 0.7, 0.95))}
    spec = dict(zip(cutoffs, sorted(rng.uniform(0.86, 0.99)
                                    for _ in range(n_cutoffs))))
    population = {
        sex: (rng.uniform(5000, 30000) if rng.random() < 0.5
              else _per_period(rng, 3000, 20000))
        for sex in ("F", "M")
    }
    return {
        "description": f"perfbench segment-sweep document {name}",
        "fit": {"unit": "ug/g", "cutoffs": cutoffs, "sensitivity": sens,
                "specificity": spec},
        "colonoscopy": {
            "sensitivity": {"benign": rng.uniform(0.7, 0.95),
                            "large": rng.uniform(0.85, 0.99),
                            "crc": rng.uniform(0.9, 0.999)},
            "adverse_events": {
                "bleed": rng.uniform(0, 0.01),
                "perforation_with_polypectomy": rng.uniform(0, 0.005),
                "perforation_without_polypectomy": rng.uniform(0, 0.002),
            },
        },
        "participation": {
            "sample_ok": rng.uniform(0.9, 1.0),
            "return": {"F": _per_period(rng, 0.5, 0.9),
                       "M": _per_period(rng, 0.4, 0.85)},
            "contact": {"F": _per_period(rng, 0.7, 0.99),
                        "M": _per_period(rng, 0.6, 0.99)},
        },
        "costs": {
            "incentive": rng.uniform(10, 80),
            "invitation": rng.uniform(2, 12),
            "lab_analysis": rng.uniform(5, 25),
            "colonoscopy": rng.uniform(150, 500),
            "exam_result": {"normal": 0.0,
                            "benign": rng.uniform(30, 150),
                            "large": rng.uniform(50, 220),
                            "crc": rng.uniform(200, 900)},
            "polypectomy": rng.uniform(20, 120),
            "adverse_event": {"bleed": rng.uniform(300, 1500),
                              "perforation": rng.uniform(1000, 6000)},
        },
        "prevalence0": {"F": _simplex(rng), "M": _simplex(rng)},
        "transitions": {
            sex: [{"normal_to_benign": rng.uniform(0, 0.05),
                   "benign_to_large": rng.uniform(0, 0.06),
                   "large_to_crc": rng.uniform(0, 0.09)}
                  for _ in range(PERIODS)]
            for sex in ("F", "M")
        },
        "population": population,
        "options": {"fix_exam_to_colonoscopy": False,
                    "incentive_enabled": True},
    }


def make_flags(rng: random.Random, pattern: int) -> list[str]:
    """Command-line model flags for one document's segment operations."""
    flags = []
    if pattern % 3 == 0:
        flags.append("--fix-exam")
    if pattern % 4 == 1:
        flags.append("--no-incentive")
    if pattern % 5 == 2:
        mask = rng.sample(OBJECTIVES, rng.randint(2, 4))
        flags += ["--objective-mask", ",".join(sorted(mask, key=OBJECTIVES.index))]
    return flags


def make_workload(seed: int, n_docs: int) -> list[tuple[dict, list[str]]]:
    """``n_docs`` (document, flags) pairs, identical for identical seeds."""
    rng = random.Random(seed)
    return [(make_document(rng, f"{seed}-{i}", 3 + i % 4),
             make_flags(rng, i // 4))
            for i in range(n_docs)]
