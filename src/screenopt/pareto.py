"""Complete nondominated frontiers of finite, fully evaluated problems.

A ``DiagramProblem`` holds every strategy of the evaluator it builds for
its diagram (``diagram.StrategyEvaluator``): candidate i is the
evaluator's strategy i. Other chance tables, a complete set of arrays for
the same nodes, go through ``problem.evaluator`` and give an
``EnumeratedProblem`` with the same numbering.

A ``ParetoFrontier`` is an array of candidate indices into its problem;
its vectors are rows of the problem's matrix, and its ``points``
(``FrontierPoint`` objects with strategies and objective vectors) are a
view built only when read.

``compute_frontier`` is the production path: one vectorized nondominated
filter (``frontier_rows``) over the distinct objective vectors.
``frontier_rows`` also solves a whole stack of problems at once: it
returns every matrix's rows in vector order and a mask of its frontier
rows, so a caller filters all the frontiers further with one array mask.
``brute_force_frontier``, a plain row-by-row dominance loop, is the
independent reference that ``--cross-check`` compares it with.

One dominance rule, exact: row j dominates row i when it is at most i in
every objective and below it in one, with no tolerance. Two kernels apply
it, one per input shape. ``nondominated`` compares every pair of rows of
a stack of small matrices (phase-1 and segment frontiers) in broadcasts
of bounded size, and is the oracle of ``skyline``. ``skyline`` takes one
large matrix (history pruning, phase 2's candidate reduction) through its
exact weak skyline on dense ranks.

All dominance comparisons are in minimization orientation; maximization
objectives are negated at the problem boundary and mapped back for
reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .diagram import (
    InfluenceDiagram,
    ObjectiveVector,
    Strategy,
    StrategyEvaluator,
    dense_tables,
)
# Booleans one (rows x candidates) mask of either dominance kernel may
# hold; this bounds their memory whatever the number of rows, and is small
# enough that a block's masks stay in cache.
FILTER_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class FrontierPoint:
    """One nondominated candidate: its strategy and every objective as
    computed, with orientation tags; its coordinates in minimization
    orientation are its row of :meth:`ParetoFrontier.vectors`."""

    strategy: Strategy | str
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

    def strategy(self, candidate: int) -> Strategy | str:
        """What a frontier point reports as its strategy."""
        return f"candidate{candidate}"

    def point(self, candidate: int) -> FrontierPoint:
        return FrontierPoint(
            strategy=self.strategy(candidate),
            objectives=ObjectiveVector(
                values=tuple(self.reported[candidate].tolist()),
                orientations=self.orientations,
                names=self.names,
            ),
        )


class DiagramProblem(EnumeratedProblem):
    """EnumeratedProblem over every strategy of an influence diagram, with
    the decision nodes in ``fixed`` pinned; candidate i is the evaluator's
    strategy i."""

    def __init__(self, diagram: InfluenceDiagram,
                 objective_mask: Sequence[str] | None = None,
                 fixed: Strategy | None = None):
        self.diagram = diagram
        self.evaluator = StrategyEvaluator(diagram, fixed)
        reported = self.evaluator.objective_matrix(dense_tables(diagram))[0]
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

    def strategy(self, index: int) -> Strategy:
        return self.evaluator.strategy(index)


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
                    fixed: Strategy | None = None
                    ) -> DiagramProblem:
    return DiagramProblem(diagram, objective_mask, fixed)


# ---------------------------------------------------------------------------
# Frontier computation
# ---------------------------------------------------------------------------

def skyline(points: np.ndarray) -> np.ndarray:
    """Mask of the rows of one (rows x keys) matrix that no row dominates
    exactly (minimization): row j dominates row i when it is at most i in
    every key and below it in one. Exactly tied rows are all kept, and a
    row with a NaN key is kept and dominates nothing.

    Only the distinct rows without a NaN are compared, through each key's
    dense int32 ranks; a distinct row with an exact dominator
    (:func:`_exact_skyline`) is below it in some key, so it is dominated.
    """
    points = np.asarray(points, dtype=float)
    mask = np.ones(len(points), dtype=bool)
    comparable = np.flatnonzero(~np.isnan(points).any(axis=1))
    cols = points[comparable].T
    order, distinct = sorted_runs(cols[::-1])
    unique = cols[:, order[distinct]]
    ranks = np.empty(unique.shape, dtype=np.int32)
    for k, column in enumerate(unique):
        ranks[k] = np.unique(column, return_inverse=True)[1]
    on_skyline = _exact_skyline(ranks) < 0
    mask[comparable[order]] = on_skyline[np.cumsum(distinct) - 1]
    return mask


def nondominated(points: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``points`` that no row dominates exactly
    (minimization).

    ``points`` is one (rows x objectives) matrix or a stack of them, and
    rows are compared only within their own matrix. Row j dominates row i
    when it is at most i in every column and below it in one, with no
    tolerance: the rule of :func:`skyline` and of
    :func:`brute_force_frontier`. Exactly tied rows are all kept, and a NaN
    fails every comparison, so a row with one is kept and dominates
    nothing.

    Every row meets every row of its matrix in broadcasts of at most
    ``FILTER_CELLS`` booleans: several whole matrices at a time when they
    are small, blocks of a large matrix's rows otherwise.
    """
    points = np.asarray(points, dtype=float)
    stack = points.reshape((math.prod(points.shape[:-2]),) + points.shape[-2:])
    B, n, m = stack.shape
    # Columns first, so each comparison runs along contiguous memory.
    cols = np.ascontiguousarray(np.moveaxis(stack, -1, 0))
    dominated = np.zeros((B, n), dtype=bool)
    per_matrix = max(1, FILTER_CELLS // max(n * n, 1))
    block = max(1, FILTER_CELLS // max(per_matrix * n, 1))
    for b0 in range(0, B, per_matrix):
        mats = slice(b0, b0 + per_matrix)
        cand = cols[:, mats, None, :]
        for start in range(0, n, block):
            rows = cols[:, mats, start:start + block, None]
            dominated[mats, start:start + block] = np.any(
                _at_most(cand, rows) & ~_at_most(rows, cand), axis=2)
    return ~dominated.reshape(points.shape[:-1])


def _at_most(cand: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Broadcast mask of ``cand <= rows`` in every column, exactly; axis 0
    holds the columns."""
    out = cand[0] <= rows[0]
    for k in range(1, len(cand)):
        out &= cand[k] <= rows[k]
    return out


def _exact_skyline(unique: np.ndarray) -> np.ndarray:
    """For each row of ``unique`` (distinct rows stored as columns, in
    lexicographic order; dense ranks give the floats' ``<=`` in fewer
    bytes), the index of a row that is at most it in every column, or -1
    when there is none: the exact weak skyline.

    Such a row can only be at most the rows after it, and exact ``<=`` is
    transitive, so a row is on the skyline when no earlier skyline row and
    no earlier row of its own block is at most it in the columns after the
    first, where the order already puts it at most. Blocks of
    ``isqrt(FILTER_CELLS)`` rows meet the skyline in rounds, nearest
    skyline rows first in that order; only a round's survivors meet the
    next, ``FILTER_CELLS // survivors`` skyline rows, so every mask holds
    at most ``FILTER_CELLS`` booleans. Any blocking gives the same skyline.
    """
    n = unique.shape[1]
    unique = unique[1:] if len(unique) > 1 else unique
    step = max(1, math.isqrt(FILTER_CELLS))
    earlier = np.triu(np.ones((step, step), dtype=bool), 1)
    witness = np.full(n, -1, dtype=np.intp)
    sky = np.empty_like(unique)
    sky_row = np.empty(n, dtype=np.intp)
    size = 0
    for start in range(0, n, step):
        rows = unique[:, start:start + step]
        below = _at_most(rows[:, :, None], rows[:, None])
        below &= earlier[:len(below), :len(below)]
        alive = ~below.any(axis=0)
        witness[start + np.flatnonzero(~alive)] = \
            start + below[:, ~alive].argmax(axis=0)
        end = size
        while end and alive.any():
            live = np.flatnonzero(alive)
            begin = max(0, end - max(1, FILTER_CELLS // len(live)))
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

    Per matrix, ``rows`` holds the row indices ordered by vector, ties on
    the row index. ``keep`` marks the rows that no row dominates
    (:func:`nondominated`) and that differ from the row before them, so
    only the first of exactly equal rows is kept: the rule of
    :func:`brute_force_frontier` over the distinct vectors. A mask over
    ``rows`` filters every frontier at once.
    """
    stack = np.asarray(stack, dtype=float)
    # lexsort is stable, so ties stay in row order.
    order = np.lexsort(stack.transpose(2, 0, 1)[::-1], axis=-1)
    ranked = np.take_along_axis(stack, order[:, :, None], axis=1)
    keep = nondominated(ranked)
    # ``!=`` compares -0.0 and 0.0 as equal; a row with a NaN differs from
    # every row.
    keep[:, 1:] &= np.any(ranked[:, 1:] != ranked[:, :-1], axis=2)
    return order, keep


def compute_frontier(problem: EnumeratedProblem) -> ParetoFrontier:
    """Complete nondominated set: one filter over the distinct vectors."""
    rows, keep = frontier_rows(problem.unique_vectors()[None])
    return ParetoFrontier(problem, problem._unique[1][rows[0, keep[0]]])


def brute_force_frontier(problem: EnumeratedProblem) -> ParetoFrontier:
    """Reference frontier: evaluate everything, filter dominated pairs."""
    vectors = problem.unique_vectors()
    keep = []
    for i in range(len(vectors)):
        le = np.all(vectors <= vectors[i], axis=1)
        lt = np.any(vectors < vectors[i], axis=1)
        if not np.any(le & lt):
            keep.append(i)
    return ParetoFrontier(problem,
                          problem._unique[1][np.array(keep, dtype=np.intp)])
