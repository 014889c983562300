"""Complete nondominated frontiers of finite, fully evaluated problems.

A ``DiagramProblem`` holds every strategy of one evaluator's strategy space
(``diagram.StrategyEvaluator``): candidate i is the evaluator's strategy i,
and an evaluator shared between problems must have their nodes, value
tables and fixed rules. A problem densifies its diagram's chance tables
once; evaluating it under other tables replaces some of those arrays.

A ``ParetoFrontier`` is an array of candidate indices into its problem;
its vectors are rows of the problem's matrix, and its ``points``
(``FrontierPoint`` objects with strategies and objective vectors) are a
view built only when read.

``compute_frontier`` is the production path: one vectorized nondominated
filter and near-duplicate merge (``frontier_rows``) over the distinct
objective vectors. ``frontier_rows`` also solves a whole stack of
problems at once: it returns every matrix's rows in vector order and a
mask of its frontier rows, so a caller filters all the frontiers further
with one array mask. A matrix too large for one broadcast is filtered
against its exact skyline, built in square blocks of ``FILTER_CELLS``
booleans. Two independent references reproduce it, and ``--cross-check``
compares against both:
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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .diagram import (
    DOMINANCE_TOL,
    WEIGHT_GUARD,
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    ObjectiveVector,
    StrategyEvaluator,
    dense_tables,
)
from .errors import IterationLimitError

EPSILON_SCALE = 1e-4
# Booleans one (rows x candidates) mask of ``nondominated`` may hold; this
# bounds the filter's memory whatever the number of rows, and is small
# enough that a block's masks stay in cache.
FILTER_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One nondominated candidate.

    ``minimized`` holds the active objectives in minimization orientation
    (the coordinates dominance is defined on); ``objectives`` carries every
    objective as computed, with orientation tags for mapping back and forth.
    """

    strategy: GlobalStrategy | str
    minimized: tuple[float, ...]
    objectives: ObjectiveVector


@dataclass(eq=False)
class ParetoFrontier:
    """Pairwise-nondominated candidates of ``problem``, deduplicated and
    sorted by vector: ``candidates`` holds their indices."""

    problem: EnumeratedProblem
    candidates: np.ndarray

    def vectors(self) -> np.ndarray:
        return self.problem.matrix_min[self.candidates]

    @cached_property
    def points(self) -> list[FrontierPoint]:
        return [self.problem.point(c) for c in self.candidates.tolist()]

    def __len__(self) -> int:
        return len(self.candidates)


class EnumeratedProblem:
    """A finite multi-objective problem: every candidate fully evaluated.

    ``reported`` holds raw objective values (one row per candidate, original
    orientation); the active columns, converted to minimization orientation,
    drive dominance and scalarization. Every tie between candidates breaks
    toward the smaller candidate index.
    """

    def __init__(
        self,
        reported: np.ndarray,
        orientations: Sequence[str],
        names: Sequence[str],
        active: Sequence[int] | None = None,
    ):
        self.reported = np.asarray(reported, dtype=float)
        if self.reported.ndim != 2:
            raise ValueError("reported matrix must be two-dimensional")
        width = self.reported.shape[1]
        if len(orientations) != width or len(names) != width:
            raise ValueError("orientation/name width mismatch")
        self.orientations = tuple(orientations)
        if any(o not in ("minimize", "maximize") for o in self.orientations):
            raise ValueError(f"unknown orientation in {self.orientations}")
        self.names = tuple(names)
        self.active = tuple(active) if active is not None else tuple(range(width))
        self.matrix_min = self.minimize(self.reported)

    def minimize(self, reported: np.ndarray) -> np.ndarray:
        """The active columns of reported rows, in minimization orientation."""
        signs = np.array([-1.0 if self.orientations[i] == "maximize" else 1.0
                          for i in self.active])
        return reported[..., self.active] * signs

    @property
    def n_candidates(self) -> int:
        return self.reported.shape[0]

    @cached_property
    def _unique(self) -> tuple[np.ndarray, np.ndarray]:
        """(unique active-min vectors in lexicographic order, representative
        candidate index per vector -- the smallest)."""
        order, first = sorted_runs(self.matrix_min.T[::-1])
        reps = order[first]
        return self.matrix_min[reps], reps

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
        )


class DiagramProblem(EnumeratedProblem):
    """EnumeratedProblem over every strategy of an influence diagram, with
    the decision nodes in ``fixed`` pinned; candidate i is the evaluator's
    strategy i.

    ``evaluator`` may come from another diagram with the same nodes and
    value tables, built under the same fixed rules: the problem then
    evaluates through it with its own diagram's chance tables, which gives
    the bits of a fresh evaluator. ``tables`` holds those tables as the
    dense arrays the evaluator reads.
    """

    def __init__(self, diagram: InfluenceDiagram,
                 objective_mask: Sequence[str] | None = None,
                 fixed: Mapping[int, LocalStrategy] | None = None,
                 evaluator: StrategyEvaluator | None = None):
        fixed = dict(fixed or {})
        if evaluator is not None and _structure(diagram, fixed) != \
                _structure(evaluator.diagram, evaluator.fixed):
            raise ValueError("the evaluator was built for a diagram with "
                             "other nodes or value tables, or other fixed "
                             "rules")
        self.diagram = diagram
        self.tables = dense_tables(diagram)
        self.evaluator = evaluator or StrategyEvaluator(diagram, fixed)
        reported = self.objective_matrix()[0]
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
        super().__init__(reported, orientations, names, active=active)

    def objective_matrix(self, tables=None, strategies=None) -> np.ndarray:
        """:meth:`StrategyEvaluator.objective_matrix` with this diagram's
        chance tables, some replaced by the arrays in ``tables``."""
        return self.evaluator.objective_matrix({**self.tables,
                                                **(tables or {})}, strategies)

    def dense_objective_matrix(self, tables=None) -> np.ndarray:
        """The dense oracle of :meth:`objective_matrix`."""
        return self.evaluator.dense_objective_matrix({**self.tables,
                                                      **(tables or {})})

    def strategy(self, index: int) -> GlobalStrategy:
        return self.evaluator.strategy(index)


def _structure(d: InfluenceDiagram,
               fixed: Mapping[int, LocalStrategy]) -> tuple:
    """What an evaluator of ``d`` under ``fixed`` depends on: the nodes,
    value tables and fixed rules."""
    return d.nodes, {i: (v.table, v.orientation, v.unit)
                     for i, v in d.values.items()}, {
        i: rule.key() for i, rule in fixed.items()}


def sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.lexsort(keys)``, and a mask of the sorted positions that start
    a run of equal rows.

    ``keys`` holds one column per row, the last the primary key, as for
    ``np.lexsort``. The sort is stable, so each run starts at its smallest
    row index; ``!=`` compares as floats, so -0.0 and 0.0 are equal.
    """
    order = np.lexsort(keys)
    ordered = keys[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    return order, first


def diagram_problem(diagram: InfluenceDiagram,
                    objective_mask: Sequence[str] | None = None,
                    fixed: Mapping[int, LocalStrategy] | None = None,
                    evaluator: StrategyEvaluator | None = None) -> DiagramProblem:
    return DiagramProblem(diagram, objective_mask, fixed, evaluator)


# ---------------------------------------------------------------------------
# Frontier computation
# ---------------------------------------------------------------------------

def _norms(vectors, weights, epsilon, utopia) -> np.ndarray:
    """The augmented weighted Tchebychev norm of each row of ``vectors``:
    the largest weighted deviation from ``utopia`` plus ``epsilon`` times
    their sum."""
    devs = np.abs(vectors - utopia) * weights
    return devs.max(axis=1) + epsilon * devs.sum(axis=1)


def _argmin_norm(problem, vectors, rows, weights, epsilon, utopia) -> int:
    """The row of ``rows`` with the smallest norm, ties broken toward the
    smallest representative candidate."""
    norms = _norms(vectors[rows], weights, epsilon, utopia)
    tied = np.flatnonzero(norms == norms.min())
    best = min(tied, key=lambda i: problem.representative(rows[i]))
    return int(rows[best])


def nondominated(points: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """Mask of the rows of ``points`` that no row dominates (minimization).

    ``points`` is one (rows x objectives) matrix or a stack of them, and
    rows are compared only within their own matrix. Row j dominates row i
    when it is at most ``tol`` above it in every column and more than
    ``tol`` below it in one: the all-pairs rule of
    :func:`brute_force_frontier`, with the same floating-point comparisons.
    That rule is not transitive, so a pruned row can still dominate.

    Lemma: if row k is at most row j in every column, compared exactly,
    then k dominates every row i that j dominates. Float ``<=`` is
    transitive and ``points[i] + tol`` and ``points[i] - tol`` are computed
    once, so k <= j <= i + tol in every column and k <= j < i - tol in
    the column where j is strictly better. Every row is at least some row
    of the exact weak skyline (the distinct vectors no other vector is at
    most in every column), so testing every row against that skyline alone
    gives the all-pairs mask.

    A matrix whose all-pairs masks fit in ``FILTER_CELLS`` booleans is
    filtered in one broadcast, many matrices at a time. A larger one is
    filtered through its skyline (:func:`_exact_skyline`), which also
    names an exact dominator of every other row; a row whose dominator is
    more than ``tol`` below it in some column is dominated by it. Each
    remaining row is broadcast against the skyline rows whose first column
    is at most its own plus ``tol``, in blocks of at most ``FILTER_CELLS``
    booleans.
    """
    points = np.asarray(points, dtype=float)
    stack = points.reshape((math.prod(points.shape[:-2]),) + points.shape[-2:])
    B, n, m = stack.shape
    # Columns first, so each comparison runs along contiguous memory.
    cols = np.ascontiguousarray(np.moveaxis(stack, -1, 0))
    if n * n > FILTER_CELLS:
        mask = np.stack([_skyline_mask(cols[:, b], tol) for b in range(B)])
        return mask.reshape(points.shape[:-1])
    upper = cols + tol
    lower = cols - tol
    mask = np.empty((B, n), dtype=bool)
    per_matrix = max(1, FILTER_CELLS // max(n * n, 1))
    for b0 in range(0, B, per_matrix):
        mats = slice(b0, b0 + per_matrix)
        mask[mats] = ~np.any(
            _dominates(cols[:, mats, None, :], upper[:, mats, :, None],
                       lower[:, mats, :, None]), axis=2)
    return mask.reshape(points.shape[:-1])


def _dominates(cand: np.ndarray, upper: np.ndarray,
               lower: np.ndarray) -> np.ndarray:
    """Broadcast mask of candidate rows dominating the rows whose
    ``+ tol`` and ``- tol`` bounds are given; axis 0 holds the columns."""
    weakly = cand[0] <= upper[0]
    strictly = cand[0] < lower[0]
    for k in range(1, len(cand)):
        weakly &= cand[k] <= upper[k]
        strictly |= cand[k] < lower[k]
    return weakly & strictly


def _at_most(cand: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Broadcast mask of ``cand <= rows`` in every column, exactly; axis 0
    holds the columns."""
    out = cand[0] <= rows[0]
    for k in range(1, len(cand)):
        out &= cand[k] <= rows[k]
    return out


def _skyline_mask(cols: np.ndarray, tol: float) -> np.ndarray:
    """:func:`nondominated` of one (columns x rows) matrix, testing only
    its exact skyline.

    Equal rows are dominated alike, so only the distinct rows are tested.
    A row with an exact dominator that is more than ``tol`` below it in
    some column is dominated by it; the other rows meet the skyline.
    """
    n = cols.shape[1]
    order, distinct = sorted_runs(cols[::-1])
    unique = cols[:, order[distinct]]
    witness = _exact_skyline(unique)
    sky = unique[:, witness < 0]
    upper = unique + tol
    lower = unique - tol
    dominated = np.zeros(unique.shape[1], dtype=bool)
    beaten = np.flatnonzero(witness >= 0)
    dominated[beaten] = np.any(unique[:, witness[beaten]] < lower[:, beaten],
                               axis=0)
    # Lexicographic order ascends in the first column, so each block of
    # rows reaches a prefix of the skyline.
    rest = np.flatnonzero(~dominated)
    block = max(1, FILTER_CELLS // sky.shape[1])
    for start in range(0, len(rest), block):
        rows = rest[start:start + block]
        reach = int(np.searchsorted(sky[0], upper[0, rows[-1]], side="right"))
        dominated[rows] = np.any(
            _dominates(sky[:, None, :reach], upper[:, rows, None],
                       lower[:, rows, None]), axis=1)
    mask = np.empty(n, dtype=bool)
    mask[order] = ~dominated[np.cumsum(distinct) - 1]
    return mask


def _exact_skyline(unique: np.ndarray) -> np.ndarray:
    """For each row of ``unique`` (distinct rows stored as columns, in
    lexicographic order), the index of a row that is at most it in every
    column, or -1 when there is none: the exact weak skyline.

    Such a row can only be at most the rows after it, and exact ``<=`` is
    transitive, so a row is on the skyline when no earlier skyline row and
    no earlier row of its own block is at most it. Blocks of
    ``isqrt(FILTER_CELLS)`` rows meet the skyline in rounds of the
    ``FILTER_CELLS // rows`` skyline rows nearest them in that order, and
    only the rows that survive a round meet the next; every mask holds at
    most ``FILTER_CELLS`` booleans. Any blocking gives the same skyline.
    """
    n = unique.shape[1]
    step = max(1, math.isqrt(FILTER_CELLS))
    witness = np.full(n, -1, dtype=np.intp)
    sky = np.empty_like(unique)
    sky_row = np.empty(n, dtype=np.intp)
    size = 0
    for start in range(0, n, step):
        rows = unique[:, start:start + step]
        below = np.triu(_at_most(rows[:, :, None], rows[:, None]), 1)
        alive = ~below.any(axis=0)
        witness[start + np.flatnonzero(~alive)] = \
            start + below[:, ~alive].argmax(axis=0)
        chunk = max(1, FILTER_CELLS // rows.shape[1])
        end = size
        while end and alive.any():
            begin = max(0, end - chunk)
            live = np.flatnonzero(alive)
            covered = _at_most(sky[:, None, begin:end], rows[:, live, None])
            hit = covered.any(axis=1)
            witness[start + live[hit]] = \
                sky_row[begin + covered[hit].argmax(axis=1)]
            alive[live[hit]] = False
            end = begin
        kept = np.flatnonzero(alive)
        sky[:, size:size + len(kept)] = rows[:, kept]
        sky_row[size:size + len(kept)] = start + kept
        size += len(kept)
    return witness


def frontier_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frontier rows of each (rows x objectives) matrix of ``stack``, as
    ``(rows, keep)``: matrix h's frontier is ``rows[h, keep[h]]``.

    Per matrix, the rows are ordered by vector, ties on the row index; a row
    is kept when no row dominates it (:func:`nondominated`) and it is not
    within ``DOMINANCE_TOL`` in every coordinate of a row kept before it.
    This is the rule of :func:`_assemble` over the distinct vectors, since
    an exact duplicate is never kept after its first occurrence. ``rows``
    (matrices x width) holds row indices in that order and ``keep`` marks
    the kept ones, so a mask over ``rows`` filters every frontier at once.
    """
    stack = np.asarray(stack, dtype=float)
    H, n, m = stack.shape
    keys = (np.tile(np.arange(n), H),) + tuple(
        stack[:, :, k].ravel() for k in range(m - 1, -1, -1))
    order = np.lexsort(keys + (np.repeat(np.arange(H), n),)).reshape(H, n) \
        - np.arange(H)[:, None] * n
    ranked = np.take_along_axis(stack, order[:, :, None], axis=1)
    tol = DOMINANCE_TOL
    kept = nondominated(ranked, tol)
    # The merge compares only nondominated rows: move them to the front,
    # in order. They ascend in the first coordinate, so the rows within
    # ``tol`` of a row before them lie within a window of offsets that ends
    # at the first offset where no two rows are that close in it.
    front = np.argsort(~kept, axis=1, kind="stable")
    count = kept.sum(axis=1)
    width = int(count.max())
    front = front[:, :width]
    rows = np.take_along_axis(ranked, front[:, :, None], axis=1)
    keep = np.arange(width) < count[:, None]
    near = []
    for d in range(1, width):
        valid = keep[:, d:]
        if not np.any(valid & (rows[:, d:, 0] - rows[:, :-d, 0] <= tol)):
            break
        near.append(valid & np.all(np.abs(rows[:, d:] - rows[:, :-d]) <= tol,
                                   axis=2))
    merged = np.zeros((H, width), dtype=bool)
    for d, close in enumerate(near, start=1):
        merged[:, d:] |= close
    for i in np.flatnonzero(merged.any(axis=0)):
        for d, close in enumerate(near[:i], start=1):
            keep[:, i] &= ~(close[:, i - d] & keep[:, i - d])
    return np.take_along_axis(order, front, axis=1), keep


def compute_frontier(problem: EnumeratedProblem) -> ParetoFrontier:
    """Complete nondominated set: one filter over the distinct vectors."""
    rows, keep = frontier_rows(problem.unique_vectors()[None])
    return ParetoFrontier(problem, problem._unique[1][rows[0, keep[0]]])


def brute_force_frontier(problem: EnumeratedProblem) -> ParetoFrontier:
    """Reference frontier: evaluate everything, filter dominated pairs."""
    vectors = problem.unique_vectors()
    keep = []
    for i in range(len(vectors)):
        le = np.all(vectors <= vectors[i] + DOMINANCE_TOL, axis=1)
        lt = np.any(vectors < vectors[i] - DOMINANCE_TOL, axis=1)
        if not np.any(le & lt):
            keep.append(i)
    return _assemble(problem, keep)


def box_search_frontier(problem: EnumeratedProblem,
                        iteration_limit: int | None = None) -> ParetoFrontier:
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
        row = _argmin_norm(problem, vectors, inside, weights,
                           EPSILON_SCALE / float(weights.sum()), utopia)
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
    rows = np.array(sorted(found), dtype=np.intp)
    return _assemble(problem, rows[nondominated(vectors[rows])])


def _assemble(problem: EnumeratedProblem,
              rows: Sequence[int]) -> ParetoFrontier:
    """Build the frontier: points in vector order, each dropped when it is
    within ``DOMINANCE_TOL`` in every coordinate of a point kept before it.

    The unique vectors are in lexicographic order, so row order is vector
    order.
    """
    vectors = problem.unique_vectors()
    kept: list[int] = []
    for r in sorted(rows):
        near = np.abs(vectors[kept] - vectors[r]) <= DOMINANCE_TOL
        if not near.all(axis=1).any():
            kept.append(r)
    return ParetoFrontier(problem,
                          problem._unique[1][np.array(kept, dtype=np.intp)])
