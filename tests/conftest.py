"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import screenopt.phase1
from screenopt.diagram import (
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    Node,
    NodeKind,
    ValueSpec,
)
from screenopt.pareto import EnumeratedProblem
from screenopt.screening import load_parameters

DEFAULT_PARAMS = Path(__file__).resolve().parents[1] / "src" / "screenopt" / \
    "data" / "synthetic_default.json"


@pytest.fixture(scope="session")
def default_doc():
    return json.loads(DEFAULT_PARAMS.read_text())


@pytest.fixture(scope="session")
def default_bundle(default_doc):
    bundle, _ = load_parameters(default_doc)
    return bundle


def small_doc(default_doc, periods=2, cutoffs=("10", "25", "50"),
              fix_exam=True):
    """Shrunk copy of the default document for fast end-to-end runs."""
    doc = json.loads(json.dumps(default_doc))
    doc["participation"]["return"] = {
        k: v[:periods] for k, v in doc["participation"]["return"].items()}
    doc["participation"]["contact"] = {
        k: v[:periods] for k, v in doc["participation"]["contact"].items()}
    doc["transitions"] = {k: v[:periods] for k, v in doc["transitions"].items()}
    doc.setdefault("options", {})
    doc["options"]["cutoff_set"] = list(cutoffs)
    doc["options"]["fix_exam_to_colonoscopy"] = fix_exam
    return doc


@pytest.fixture()
def small_bundle(default_doc):
    bundle, _ = load_parameters(small_doc(default_doc))
    return bundle


#: Faults the phase-1 linearity certificate must catch without
#: ``--cross-check``.
LINEARITY_FAULTS = ("vertex_row", "representative")


def break_linearity(monkeypatch, fault):
    """Patch phase 1 with one of :data:`LINEARITY_FAULTS`: the vertex row of
    the strategy with the largest values scaled by (1 + 1e-12), or the
    first class given the last class's representative."""
    if fault == "vertex_row":
        values = screenopt.phase1.period_values

        def patched(*args):
            at_start, vertex = values(*args)
            vertex = vertex.copy()
            vertex[np.argmax(np.abs(vertex).sum(axis=(1, 2)))] *= 1 + 1e-12
            return at_start, vertex

        monkeypatch.setattr(screenopt.phase1, "period_values", patched)
    else:
        classes = screenopt.phase1.strategy_classes

        def patched(values):
            reps, class_of = classes(values)
            return np.append(reps[-1], reps[1:]), class_of

        monkeypatch.setattr(screenopt.phase1, "strategy_classes", patched)


# ---------------------------------------------------------------------------
# Random diagram generation
# ---------------------------------------------------------------------------

def random_diagram(rng: np.random.Generator, max_paths: int = 10_000,
                   max_strategies: int = 10_000,
                   max_core_nodes: int = 5) -> InfluenceDiagram:
    """A random well-formed diagram within the given enumeration caps."""
    while True:
        diagram = _draw_diagram(rng, max_core_nodes)
        if diagram.path_count() <= max_paths and \
                diagram.strategy_count() <= max_strategies:
            return diagram


def _draw_diagram(rng, max_core_nodes):
    n_core = int(rng.integers(2, max_core_nodes + 1))
    kinds = []
    for i in range(n_core):
        kinds.append(NodeKind.DECISION if rng.random() < 0.35
                     else NodeKind.CHANCE)
    if NodeKind.CHANCE not in kinds:
        kinds[int(rng.integers(0, n_core))] = NodeKind.CHANCE

    nodes = []
    for i in range(n_core):
        n_states = int(rng.integers(2, 5))
        preds = tuple(
            j for j in range(i)
            if rng.random() < 0.4
        )[:2]
        nodes.append(Node(i, kinds[i], f"n{i}",
                          tuple(f"s{k}" for k in range(n_states)), preds))

    cpts = {}
    for node in nodes:
        if node.kind is not NodeKind.CHANCE:
            continue
        table = {}
        for info in _info_product(nodes, node):
            raw = rng.random(len(node.states)) + 1e-3
            table[info] = tuple(raw / raw.sum())
        cpts[node.node_id] = table

    n_values = int(rng.integers(1, 4))
    values = {}
    value_nodes = []
    for v in range(n_values):
        vid = n_core + v
        preds = tuple(j for j in range(n_core) if rng.random() < 0.5)[:3]
        value_nodes.append(Node(vid, NodeKind.VALUE, f"v{v}", (), preds))
        table = {}
        for info in _info_product(nodes, value_nodes[-1]):
            table[info] = float(rng.normal())
        values[vid] = ValueSpec(
            vid, table, unit="count",
            orientation="maximize" if rng.random() < 0.5 else "minimize")

    return InfluenceDiagram(nodes=tuple(nodes) + tuple(value_nodes),
                            cpts=cpts, values=values)


def _info_product(core_nodes, node):
    import itertools
    ranges = [range(len(core_nodes[p].states)) for p in node.predecessors]
    return itertools.product(*ranges)


def random_strategy(rng: np.random.Generator,
                    diagram: InfluenceDiagram) -> GlobalStrategy:
    rules = {}
    for node in diagram.decision_nodes:
        rule = {
            info: int(rng.integers(0, len(node.states)))
            for info in diagram.info_states(node)
        }
        rules[node.node_id] = LocalStrategy(node.node_id, rule)
    return GlobalStrategy(rules)


# ---------------------------------------------------------------------------
# Random screening-parameter documents
# ---------------------------------------------------------------------------

def matrix_problem(matrix, orientations=None) -> EnumeratedProblem:
    """The problem whose candidates are the rows of ``matrix``, each column
    minimized unless ``orientations`` says otherwise."""
    matrix = np.asarray(matrix, dtype=float)
    m = matrix.shape[1]
    return EnumeratedProblem(matrix, orientations or ("minimize",) * m,
                             tuple(f"obj{i}" for i in range(m)))


def random_params_doc(rng: np.random.Generator, periods: int = 2,
                      n_cutoffs: int = 3, monotone: bool = True,
                      fix_exam: bool = True) -> dict:
    """A random valid parameter document.

    With ``monotone`` the test characteristics behave like a real assay:
    sensitivities fall and specificity rises along the declared (ascending)
    cut-off order, and every sensitivity beats the false-positive rate.
    """
    cutoffs = [str(10 * (i + 1)) for i in range(n_cutoffs)]

    def falling(lo, hi):
        vals = np.sort(rng.uniform(lo, hi, size=n_cutoffs))[::-1]
        return {c: float(v) for c, v in zip(cutoffs, vals)}

    def arbitrary(lo, hi):
        return {c: float(rng.uniform(lo, hi)) for c in cutoffs}

    if monotone:
        sens = {
            "benign": falling(0.15, 0.45),
            "large": falling(0.45, 0.8),
            "crc": falling(0.7, 0.95),
        }
        spec_vals = np.sort(rng.uniform(0.86, 0.99, size=n_cutoffs))
        specificity = {c: float(v) for c, v in zip(cutoffs, spec_vals)}
    else:
        sens = {
            "benign": arbitrary(0.05, 0.6),
            "large": arbitrary(0.2, 0.9),
            "crc": arbitrary(0.4, 0.99),
        }
        specificity = arbitrary(0.8, 0.999)

    def per_period(lo, hi):
        return [float(rng.uniform(lo, hi)) for _ in range(periods)]

    return {
        "description": "randomized test draw",
        "fit": {
            "unit": "ug/g",
            "cutoffs": cutoffs,
            "sensitivity": sens,
            "specificity": specificity,
        },
        "colonoscopy": {
            "sensitivity": {
                "benign": float(rng.uniform(0.7, 0.95)),
                "large": float(rng.uniform(0.85, 0.99)),
                "crc": float(rng.uniform(0.9, 0.999)),
            },
            "adverse_events": {
                "bleed": float(rng.uniform(0, 0.01)),
                "perforation_with_polypectomy": float(rng.uniform(0, 0.005)),
                "perforation_without_polypectomy": float(rng.uniform(0, 0.002)),
            },
        },
        "participation": {
            "sample_ok": float(rng.uniform(0.9, 1.0)),
            "return": {"F": per_period(0.5, 0.9), "M": per_period(0.4, 0.85)},
            "contact": {"F": per_period(0.7, 0.99), "M": per_period(0.6, 0.99)},
        },
        "costs": {
            "incentive": float(rng.uniform(10, 80)),
            "invitation": float(rng.uniform(2, 12)),
            "lab_analysis": float(rng.uniform(5, 25)),
            "colonoscopy": float(rng.uniform(150, 500)),
            "exam_result": {
                "normal": 0.0,
                "benign": float(rng.uniform(30, 150)),
                "large": float(rng.uniform(50, 220)),
                "crc": float(rng.uniform(200, 900)),
            },
            "polypectomy": float(rng.uniform(20, 120)),
            "adverse_event": {
                "bleed": float(rng.uniform(300, 1500)),
                "perforation": float(rng.uniform(1000, 6000)),
            },
        },
        "prevalence0": {
            sex: _random_simplex(rng) for sex in ("F", "M")
        },
        "transitions": {
            sex: [
                {
                    "normal_to_benign": float(rng.uniform(0, 0.05)),
                    "benign_to_large": float(rng.uniform(0, 0.06)),
                    "large_to_crc": float(rng.uniform(0, 0.09)),
                }
                for _ in range(periods)
            ]
            for sex in ("F", "M")
        },
        "population": {"F": float(rng.uniform(5000, 30000)),
                       "M": float(rng.uniform(5000, 30000))},
        "options": {
            "fix_exam_to_colonoscopy": bool(fix_exam),
            "incentive_enabled": True,
        },
    }


def extreme_params_doc(rng: np.random.Generator, periods: int = 3,
                       n_cutoffs: int = 2) -> dict:
    """A random valid document far from the shipped magnitudes: fast
    progression (``normal_to_benign`` up to 0.6, the other two rates up to
    0.95), a Dirichlet start prevalence, and any test sensitivity from 0.01
    to 0.99 with specificity from 0.5 to 0.999, so a test can be positive
    less often in a growth than in a normal bowel."""
    doc = random_params_doc(rng, periods=periods, n_cutoffs=n_cutoffs,
                            monotone=False,
                            fix_exam=bool(rng.integers(0, 2)))
    cutoffs = doc["fit"]["cutoffs"]
    doc["fit"]["sensitivity"] = {
        state: {c: float(rng.uniform(0.01, 0.99)) for c in cutoffs}
        for state in ("benign", "large", "crc")}
    doc["fit"]["specificity"] = {c: float(rng.uniform(0.5, 0.999))
                                 for c in cutoffs}
    doc["prevalence0"] = {
        sex: dict(zip(("normal", "benign", "large", "crc"),
                      rng.dirichlet(np.ones(4)).tolist()))
        for sex in ("F", "M")}
    doc["transitions"] = {
        sex: [{"normal_to_benign": float(rng.uniform(0, 0.6)),
               "benign_to_large": float(rng.uniform(0, 0.95)),
               "large_to_crc": float(rng.uniform(0, 0.95))}
              for _ in range(periods)]
        for sex in ("F", "M")}
    return doc


def _random_simplex(rng) -> dict:
    abnormal = rng.uniform([0.02, 0.005, 0.0005], [0.14, 0.05, 0.01])
    normal = 1.0 - float(abnormal.sum())
    return {
        "normal": normal,
        "benign": float(abnormal[0]),
        "large": float(abnormal[1]),
        "crc": float(abnormal[2]),
    }
