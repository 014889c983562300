"""Complete nondominated frontiers of finite, fully evaluated problems.

``compute_frontier`` is the production path: one vectorized nondominated
filter over the distinct objective vectors. Two independent references
reproduce it, and ``--cross-check`` compares against both:
``brute_force_frontier`` (a plain row-by-row dominance loop) and
``box_search_frontier``, the paper's augmented weighted Tchebychev search,
which carves the objective space into search boxes bounded by found
frontier points and scalarizes each box with box-specific weights and a
small augmentation term. Its inner single-objective oracle is exact
enumeration, so it can only return the filter's set.

All dominance comparisons are in minimization orientation; maximization
objectives are negated at the problem boundary and mapped back for
reporting.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .diagram import (
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    ObjectiveVector,
    Path,
    StrategyEvaluator,
    compatible_path_probabilities,
)
from .errors import IterationLimitError

DOMINANCE_TOL = 1e-9
WEIGHT_GUARD = 1e-12
EPSILON_SCALE = 1e-4
# Booleans one (rows x candidates) mask of ``nondominated`` may hold; this
# bounds the filter's memory whatever the number of rows.
FILTER_CELLS = 1 << 20


@dataclass(frozen=True)
class ScalarizationParams:
    """Weights, augmentation and reference vectors for one scalarized solve."""

    weights: tuple[float, ...]
    epsilon: float
    utopia: tuple[float, ...]
    nadir: tuple[float, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if len(self.weights) != len(self.utopia) or len(self.weights) != len(self.nadir):
            raise ValueError("dimension mismatch")
        if any(u > n + DOMINANCE_TOL for u, n in zip(self.utopia, self.nadir)):
            raise ValueError("utopia must not exceed nadir componentwise")


def mawt_norm(values_min: Sequence[float], params: ScalarizationParams) -> float:
    """Smallest bound satisfying every per-objective scalarization constraint.

    Per objective the constraint is weighted absolute deviation from utopia
    plus the augmentation term; the binding one is the maximum.
    """
    if len(values_min) != len(params.weights):
        raise ValueError("dimension mismatch")
    devs = [w * abs(v - u)
            for w, v, u in zip(params.weights, values_min, params.utopia)]
    return max(devs) + params.epsilon * math.fsum(devs)


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One nondominated candidate.

    ``minimized`` holds the active objectives in minimization orientation
    (the coordinates dominance is defined on); ``objectives`` carries every
    objective as computed, with orientation tags for mapping back and forth.
    ``path_probabilities`` is the sparse positive part of the path
    distribution under the strategy, attached on request.
    """

    strategy: GlobalStrategy | str
    minimized: tuple[float, ...]
    objectives: ObjectiveVector
    key: tuple
    path_probabilities: Mapping[Path, float] | None = None


@dataclass(eq=False)
class ParetoFrontier:
    """Pairwise-nondominated points, deduplicated and deterministically sorted."""

    points: list[FrontierPoint]
    utopia: tuple[float, ...]
    nadir: tuple[float, ...]

    def vectors(self) -> np.ndarray:
        return np.array([p.minimized for p in self.points]).reshape(
            len(self.points), -1)

    def __len__(self) -> int:
        return len(self.points)


def dominates(a: Sequence[float], b: Sequence[float],
              tol: float = DOMINANCE_TOL) -> bool:
    """Weak dominance of ``a`` over ``b`` with strict improvement somewhere."""
    return all(x <= y + tol for x, y in zip(a, b)) and any(
        x < y - tol for x, y in zip(a, b))


class EnumeratedProblem:
    """A finite multi-objective problem: every candidate fully evaluated.

    ``reported`` holds raw objective values (one row per candidate, original
    orientation); the active columns, converted to minimization orientation,
    drive dominance and scalarization. Candidate keys are canonical integer
    encodings whose lexicographic order breaks every tie deterministically.
    """

    def __init__(
        self,
        reported: np.ndarray,
        orientations: Sequence[str],
        names: Sequence[str],
        active: Sequence[int] | None = None,
        keys: Sequence[tuple] | None = None,
    ):
        self.reported = np.asarray(reported, dtype=float)
        if self.reported.ndim != 2:
            raise ValueError("reported matrix must be two-dimensional")
        n, width = self.reported.shape
        if len(orientations) != width or len(names) != width:
            raise ValueError("orientation/name width mismatch")
        self.orientations = tuple(orientations)
        if any(o not in ("minimize", "maximize") for o in self.orientations):
            raise ValueError(f"unknown orientation in {self.orientations}")
        self.names = tuple(names)
        self.active = tuple(active) if active is not None else tuple(range(width))
        signs = np.array([-1.0 if self.orientations[i] == "maximize" else 1.0
                          for i in self.active])
        self.matrix_min = self.reported[:, self.active] * signs
        self.keys = tuple(keys) if keys is not None else tuple(
            (i,) for i in range(n))
        if len(self.keys) != n:
            raise ValueError("one key per candidate required")

    @classmethod
    def from_matrix(cls, matrix, orientations=None,
                    names=None) -> "EnumeratedProblem":
        matrix = np.asarray(matrix, dtype=float)
        m = matrix.shape[1]
        orientations = tuple(orientations) if orientations else ("minimize",) * m
        names = tuple(names) if names else tuple(f"obj{i}" for i in range(m))
        return cls(matrix, orientations, names)

    @property
    def n_candidates(self) -> int:
        return self.reported.shape[0]

    @property
    def n_objectives(self) -> int:
        return len(self.active)

    @cached_property
    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        """(unique active-min vectors in lexicographic order, representative
        candidate index per vector -- the smallest, i.e. key-lexicographic
        minimum)."""
        # A stable lexicographic sort puts each vector's smallest candidate
        # index first among its equals.
        order = np.lexsort(self.matrix_min.T[::-1])
        ordered = self.matrix_min[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        return ordered[first], order[first]

    def unique_vectors(self) -> np.ndarray:
        return self._unique[0]

    def representative(self, unique_row: int) -> int:
        return int(self._unique[1][unique_row])

    def strategy(self, candidate: int) -> GlobalStrategy | str:
        """What a frontier point reports as its strategy."""
        return f"candidate{candidate}"

    def point(self, candidate: int) -> FrontierPoint:
        return FrontierPoint(
            strategy=self.strategy(candidate),
            minimized=tuple(self.matrix_min[candidate].tolist()),
            objectives=ObjectiveVector(
                values=tuple(self.reported[candidate].tolist()),
                orientations=self.orientations,
                names=self.names,
            ),
            key=self.keys[candidate],
        )

    def attach_paths(self, point: FrontierPoint) -> FrontierPoint:
        """Default problems carry no diagram, so nothing to attach."""
        return point


class DiagramProblem(EnumeratedProblem):
    """EnumeratedProblem over every strategy of an influence diagram."""

    def __init__(self, diagram: InfluenceDiagram,
                 objective_mask: Sequence[str] | None = None,
                 fixed: Mapping[int, LocalStrategy] | None = None,
                 evaluator: StrategyEvaluator | None = None):
        self.diagram = diagram
        self.fixed = dict(fixed or {})
        self.evaluator = evaluator or StrategyEvaluator(diagram)
        self._slots = self._slot_sizes(diagram)
        self._strategies: dict[int, GlobalStrategy] = {}
        reported = self.evaluator.objective_matrix(fixed=self.fixed)
        names = tuple(n.name for n in diagram.value_nodes)
        orientations = tuple(diagram.values[n.node_id].orientation
                             for n in diagram.value_nodes)
        if objective_mask is None:
            active = tuple(range(len(names)))
        else:
            unknown = [m for m in objective_mask if m not in names]
            if unknown:
                raise ValueError(f"unknown objective name {unknown[0]!r}")
            active = tuple(i for i, n in enumerate(names)
                           if n in set(objective_mask))
            if not active:
                raise ValueError("objective mask selects nothing")
        keys = tuple(_index_digits(i, self._slots)
                     for i in range(reported.shape[0]))
        super().__init__(reported, orientations, names, active=active,
                         keys=keys)

    def with_cpts(self, cpts: Mapping[int, Mapping[tuple[int, ...],
                                                   tuple[float, ...]]]
                  ) -> "DiagramProblem":
        """The same problem with the tables of some chance nodes replaced.

        Only the objective values are recomputed. The evaluator's layout,
        the candidate keys and the strategy objects do not depend on the
        tables and are shared with this problem.
        """
        problem = DiagramProblem.__new__(DiagramProblem)
        problem.diagram = dataclasses.replace(
            self.diagram, cpts={**self.diagram.cpts, **cpts})
        problem.fixed = self.fixed
        problem.evaluator = self.evaluator
        problem._slots = self._slots
        problem._strategies = self._strategies
        reported = self.evaluator.objective_matrix(fixed=self.fixed, cpts=cpts)
        EnumeratedProblem.__init__(
            problem, reported, self.orientations, self.names,
            active=self.active, keys=self.keys)
        return problem

    def _slot_sizes(self, diagram: InfluenceDiagram) -> list[int]:
        sizes = []
        for node in diagram.decision_nodes:
            if node.node_id in self.fixed:
                continue
            info_count = math.prod(
                len(diagram.by_id[p].states) for p in node.predecessors)
            sizes.extend([len(node.states)] * info_count)
        return sizes

    def strategy(self, index: int) -> GlobalStrategy:
        if index in self._strategies:
            return self._strategies[index]
        d = self.diagram
        digits = list(_index_digits(index, self._slots))
        rules: dict[int, LocalStrategy] = dict(self.fixed)
        offset = 0
        for node in d.decision_nodes:
            if node.node_id in self.fixed:
                continue
            rule = {}
            for info in d.info_states(node):
                rule[info] = digits[offset]
                offset += 1
            rules[node.node_id] = LocalStrategy(node.node_id, rule)
        strategy = self._strategies[index] = GlobalStrategy(rules)
        return strategy

    def attach_paths(self, point: FrontierPoint) -> FrontierPoint:
        paths = compatible_path_probabilities(self.diagram, point.strategy)
        return dataclasses.replace(point, path_probabilities=paths)


def _index_digits(index: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix digits of a strategy index, slot 0 most significant."""
    digits = [0] * len(sizes)
    for s in range(len(sizes) - 1, -1, -1):
        digits[s] = index % sizes[s]
        index //= sizes[s]
    return tuple(digits)


def diagram_problem(diagram: InfluenceDiagram,
                    objective_mask: Sequence[str] | None = None,
                    fixed: Mapping[int, LocalStrategy] | None = None,
                    evaluator: StrategyEvaluator | None = None) -> DiagramProblem:
    return DiagramProblem(diagram, objective_mask, fixed, evaluator)


# ---------------------------------------------------------------------------
# Frontier computation
# ---------------------------------------------------------------------------

def compute_utopia_nadir(problem: EnumeratedProblem) -> tuple[tuple[float, ...],
                                                              tuple[float, ...]]:
    """Ideal and worst-over-nondominated bounds, minimization orientation."""
    utopia = tuple(problem.matrix_min.min(axis=0))
    frontier = brute_force_frontier(problem)
    nadir = tuple(frontier.vectors().max(axis=0))
    return utopia, nadir


def solve_scalarized(problem: EnumeratedProblem,
                     params: ScalarizationParams) -> FrontierPoint:
    """Candidate minimizing the scalarized norm over the whole space."""
    vectors = problem.unique_vectors()
    best_row = _argmin_norm(problem, vectors, np.arange(len(vectors)), params)
    return problem.point(problem.representative(best_row))


def _argmin_norm(problem, vectors, rows, params) -> int:
    w = np.asarray(params.weights)
    u = np.asarray(params.utopia)
    devs = np.abs(vectors[rows] - u) * w
    norms = devs.max(axis=1) + params.epsilon * devs.sum(axis=1)
    tied = np.flatnonzero(norms == norms.min())
    best = min(tied, key=lambda i: problem.keys[problem.representative(rows[i])])
    return int(rows[best])


def nondominated(points: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """Mask of the rows of ``points`` that no row dominates (minimization).

    Row j dominates row i when it is at most ``tol`` above it in every
    column and more than ``tol`` below it in one: the all-pairs rule of
    :func:`brute_force_frontier`, with the same floating-point comparisons.
    That rule is not transitive, so every row is tested against every
    possible dominator, kept or not. Only rows whose first column is at most
    ``points[i, 0] + tol`` can dominate row i, so the rows are sorted on the
    first column and each block of rows is broadcast against the prefix of
    the sorted rows that can reach it (Kung, Luccio & Preparata, JACM 1975).
    """
    points = np.asarray(points, dtype=float)
    n, m = points.shape
    upper = points + tol
    lower = points - tol
    order = np.argsort(points[:, 0], kind="stable")
    first = points[order, 0]
    dominated = np.zeros(n, dtype=bool)
    block = max(1, FILTER_CELLS // max(n, 1))
    for start in range(0, n, block):
        rows = order[start:start + block]
        reach = int(np.searchsorted(first, upper[rows, 0].max(), side="right"))
        candidates = points[order[:reach]]
        weakly = candidates[:, 0] <= upper[rows, 0][:, None]
        strictly = candidates[:, 0] < lower[rows, 0][:, None]
        for k in range(1, m):
            weakly &= candidates[:, k] <= upper[rows, k][:, None]
            strictly |= candidates[:, k] < lower[rows, k][:, None]
        dominated[rows] = np.any(weakly & strictly, axis=1)
    return ~dominated


def compute_frontier(problem: EnumeratedProblem,
                     tol: float = DOMINANCE_TOL) -> ParetoFrontier:
    """Complete nondominated set: one filter over the distinct vectors."""
    rows = np.flatnonzero(nondominated(problem.unique_vectors(), tol))
    return _assemble(problem, rows.tolist(), tol)


def brute_force_frontier(problem: EnumeratedProblem,
                         tol: float = DOMINANCE_TOL) -> ParetoFrontier:
    """Reference frontier: evaluate everything, filter dominated pairs."""
    vectors = problem.unique_vectors()
    keep = []
    for i in range(len(vectors)):
        le = np.all(vectors <= vectors[i] + tol, axis=1)
        lt = np.any(vectors < vectors[i] - tol, axis=1)
        if not np.any(le & lt):
            keep.append(i)
    return _assemble(problem, keep, tol)


def box_search_frontier(problem: EnumeratedProblem,
                        iteration_limit: int | None = None,
                        tol: float = DOMINANCE_TOL) -> ParetoFrontier:
    """Complete nondominated set via box-guided scalarized solves.

    Maintains upper-corner search boxes; each solve minimizes the augmented
    weighted deviation norm over the candidates strictly inside one box,
    with box-scaled weights. Every solve returns a nondominated point, every
    nondominated point is strictly inside some live box until found, and
    corners move on the finite grid of realized objective values, so the
    search terminates with the complete frontier.

    Each corner coordinate is a realized value of its objective or the
    start corner's, and no corner is queued twice, so the search needs at
    most the product over objectives of (distinct values + 1) solves; that
    is the default ``iteration_limit``.
    """
    vectors = problem.unique_vectors()
    m = vectors.shape[1]
    if iteration_limit is not None:
        limit = iteration_limit
    else:
        limit = math.prod(len(np.unique(vectors[:, i])) + 1 for i in range(m))
    utopia = vectors.min(axis=0)
    top = tuple(vectors.max(axis=0) + 1.0)

    found: dict[int, None] = {}
    corners = [top]
    seen = {top}
    solves = 0
    while corners:
        corners.sort()
        corner = corners.pop()
        ua = np.asarray(corner)
        inside = np.flatnonzero(np.all(vectors < ua, axis=1))
        if inside.size == 0:
            continue
        if found and all(int(r) in found for r in inside):
            # Everything inside was already found; no new point can hide here.
            continue
        solves += 1
        if solves > limit:
            raise IterationLimitError(
                f"frontier search exceeded {limit} scalarized solves")
        weights = 1.0 / np.maximum(ua - utopia, WEIGHT_GUARD)
        params = ScalarizationParams(
            weights=tuple(weights),
            epsilon=EPSILON_SCALE / float(weights.sum()),
            utopia=tuple(utopia),
            nadir=tuple(np.maximum(ua, utopia)),
        )
        row = _argmin_norm(problem, vectors, inside, params)
        found.setdefault(row)
        z = vectors[row]
        for i in range(m):
            if z[i] <= utopia[i]:
                continue
            child = corner[:i] + (float(z[i]),) + corner[i + 1:]
            if child in seen:
                continue
            seen.add(child)
            if not np.any(np.all(vectors < np.asarray(child), axis=1)):
                continue
            corners.append(child)

    # epsilon > 0 already guarantees nondominated solves; the filter is a
    # safety net for degenerate corner cases.
    rows = sorted(found)
    rows = [r for r in rows
            if not any(dominates(vectors[q], vectors[r], tol)
                       for q in rows if q != r)]
    return _assemble(problem, rows, tol)


def _assemble(problem: EnumeratedProblem, rows: Sequence[int],
              tol: float) -> ParetoFrontier:
    """Build the frontier: near-duplicate vectors merged, points sorted."""
    vectors = problem.unique_vectors()
    ordered = sorted(rows, key=lambda r: (tuple(vectors[r]),
                                          problem.keys[problem.representative(r)]))
    kept_rows: list[int] = []
    for r in ordered:
        if kept_rows and np.max(np.abs(vectors[r] - vectors[kept_rows[-1]])) <= tol:
            continue
        kept_rows.append(r)
    points = [problem.point(problem.representative(r)) for r in kept_rows]
    utopia = tuple(problem.matrix_min.min(axis=0))
    if points:
        stacked = np.array([p.minimized for p in points])
        nadir = tuple(stacked.max(axis=0))
    else:
        nadir = utopia
    return ParetoFrontier(points=points, utopia=utopia, nadir=nadir)
