"""Final strategy selection under a population colonoscopy budget.

Picks exactly one strategy history per sex so that population cancer
prevalence is minimized while total expected colonoscopies (per-capita
figures scaled by population sizes) stay within the budget: the two-group
case of the multiple-choice knapsack problem. Per sex, candidates that an
earlier candidate matches or beats in cancers, colonoscopies and cost are
dropped first; that reduction is exact, tie-breaks included. The remaining
pairs are sorted once by the selection key, and every budget of a sweep is
answered by a binary search over the running minimum of colonoscopies along
that order. ``dense_pair_sweep``, an exact scan of every pair for every
budget, is the oracle ``pipeline --cross-check`` compares against.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phase1 import BUDGET_TOL, HistoryTable
from .screening import ParameterBundle, Sex

#: Candidates per block of the reduction in ``_selectable``.
SELECT_BLOCK = 128


@dataclass(frozen=True)
class StrategyCandidate:
    """One selectable history with absolute and per-capita accounting."""

    key: str
    expected_cancers: float            # absolute expected cancer count
    colonoscopies_per_capita: float
    total_colonoscopies: float         # absolute expected examinations
    total_cost: float                  # absolute euros


@dataclass(frozen=True)
class SelectionProblem:
    female: tuple[StrategyCandidate, ...]
    male: tuple[StrategyCandidate, ...]
    population_female: float
    population_male: float
    budget: float

    def __post_init__(self):
        if not self.female or not self.male:
            raise ValueError("candidate lists must be non-empty")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if min(self.population_female, self.population_male) <= 0:
            raise ValueError("population sizes must be positive")


@dataclass(frozen=True)
class SelectionResult:
    budget: float
    female_index: int
    male_index: int
    cancer_share: float          # selected expected cancers over population
    total_colonoscopies: float
    total_cost: float
    feasible: bool


def _candidate_arrays(candidates: Sequence[StrategyCandidate],
                      population: float):
    """Cancers, examinations and cost of each candidate of one sex."""
    cancer = np.array([c.expected_cancers for c in candidates])
    col = population * np.array([c.colonoscopies_per_capita
                                 for c in candidates])
    cost = np.array([c.total_cost for c in candidates])
    return cancer, col, cost


def _pair_matrices(problem: SelectionProblem):
    """Objective, examination and cost totals for every (female, male) pair."""
    f_cancer, f_col, f_cost = _candidate_arrays(problem.female,
                                                problem.population_female)
    m_cancer, m_col, m_cost = _candidate_arrays(problem.male,
                                                problem.population_male)
    share = (f_cancer[:, None] + m_cancer[None, :]) / (
        problem.population_female + problem.population_male)
    col = f_col[:, None] + m_col[None, :]
    cost = f_cost[:, None] + m_cost[None, :]
    return share, col, cost


def _selectable(candidates: Sequence[StrategyCandidate],
                population: float) -> np.ndarray:
    """Ascending indices of the candidates no earlier candidate matches or
    beats in cancers, examinations and cost.

    A dropped candidate is never selected. Float addition and division are
    monotone, so the earlier candidate, paired with the same partner, is
    feasible at every budget where the dropped one is, its (share,
    examinations, cost) are no larger and its index pair is smaller. The
    comparison is a plain ``<=``: a tolerance could drop the optimum, and
    dropping a candidate for a strictly better later one could change the
    selection when rounding ties all three pair sums, since the index
    decides those ties.
    """
    cancer, col, cost = _candidate_arrays(candidates, population)
    # Any earlier candidate that is <= in all three comes first in this
    # order, so cancers never need comparing. "Comes first, <= in
    # examinations and cost, smaller index" is transitive, so a candidate
    # some earlier one beats is beaten by a kept one: each block of the
    # order is tested against the kept candidates, and its survivors
    # against the block's earlier rows.
    def beaten(rows, by, mask=True):
        return ((col[by] <= col[rows, None]) & (cost[by] <= cost[rows, None])
                & (by < rows[:, None]) & mask).any(axis=1)

    order = np.lexsort((cost, col, cancer))
    kept = order[:0]
    for start in range(0, len(order), SELECT_BLOCK):
        block = order[start:start + SELECT_BLOCK]
        block = block[~beaten(block, kept)]
        block = block[~beaten(block, block,
                              np.tri(len(block), k=-1, dtype=bool))]
        kept = np.concatenate([kept, block])
    return np.sort(kept)


def select_strategies(problem: SelectionProblem) -> SelectionResult:
    """Exact optimum over all candidate pairs at ``problem.budget``.

    Ties break toward fewer colonoscopies, then lower cost, then the
    lexicographically smaller index pair. When no pair fits the budget the
    result is flagged infeasible and reports the cheapest pair in
    colonoscopies as a diagnostic.
    """
    return budget_sweep(problem, [problem.budget])[0]


def budget_sweep(problem: SelectionProblem,
                 budgets: Sequence[float]) -> list[SelectionResult]:
    """One ``select_strategies`` result per budget; budgets must be sorted
    ascending.

    The pairs of the candidates ``_selectable`` keeps are sorted once by
    (share, examinations, cost, index pair). A budget selects the first
    sorted pair within it, found by a binary search over the running
    minimum of examinations along that order.
    """
    if any(b1 > b2 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be sorted ascending")
    if budgets and budgets[0] < 0:
        raise ValueError("budget must be non-negative")
    female = _selectable(problem.female, problem.population_female)
    male = _selectable(problem.male, problem.population_male)
    reduced = dataclasses.replace(
        problem, female=tuple(problem.female[i] for i in female),
        male=tuple(problem.male[j] for j in male))
    share, col, cost = (m.ravel() for m in _pair_matrices(reduced))
    # lexsort is stable, so equal keys keep the flat (row-major) order,
    # which is the index-pair order because the kept indices ascend.
    order = np.lexsort((cost, col, share))
    running = np.minimum.accumulate(col[order])
    limits = np.asarray(budgets, dtype=float) + BUDGET_TOL
    firsts = np.searchsorted(-running, -limits)
    cheapest = np.lexsort((cost, col))[0]

    results = []
    for budget, first in zip(budgets, firsts):
        feasible = bool(first < len(order))
        flat = order[first] if feasible else cheapest
        jf, jm = divmod(int(flat), len(male))
        results.append(SelectionResult(
            float(budget), int(female[jf]), int(male[jm]), float(share[flat]),
            float(col[flat]), float(cost[flat]), feasible))
    return results


def _lexmin_pair(mask: np.ndarray, *criteria: np.ndarray) -> tuple[int, int]:
    """Index pair minimizing the criteria tuple over masked entries.

    Stages exact-equality refinements, which reproduces a plain tuple-ordered
    scan; the final tie-break is the lexicographically smallest index pair.
    """
    for crit in criteria:
        best = crit[mask].min()
        mask = mask & (crit == best)
    rows, cols = np.nonzero(mask)
    return int(rows[0]), int(cols[0])


def dense_pair_sweep(problem: SelectionProblem,
                     budgets: Sequence[float]) -> list[SelectionResult]:
    """Reference for ``budget_sweep``: scans every pair for every budget.

    ``pipeline --cross-check`` compares the sweep against it.
    """
    share, col, cost = _pair_matrices(problem)
    results = []
    for b in budgets:
        budget = float(b)
        within = col <= budget + BUDGET_TOL
        feasible = bool(within.any())
        if feasible:
            jf, jm = _lexmin_pair(within, share, col, cost)
        else:
            jf, jm = _lexmin_pair(np.ones_like(within), col, cost)
        results.append(SelectionResult(
            budget, jf, jm, float(share[jf, jm]), float(col[jf, jm]),
            float(cost[jf, jm]), feasible))
    return results


def selection_problem_from_histories(
    params: ParameterBundle,
    histories: dict[Sex, HistoryTable],
    keys: dict[Sex, list[str]],
    budget: float,
) -> SelectionProblem:
    """Ingest phase 1's last tables, converting accounting once at the
    boundary: one candidate per row, keyed by ``keys``."""
    pop = {sex: params.total_population(sex, periods=histories[sex].period)
           for sex in (Sex.F, Sex.M)}
    candidates = {
        sex: tuple(
            StrategyCandidate(key, crc * pop[sex], col / pop[sex], col, cost)
            for key, crc, col, cost in zip(
                keys[sex], histories[sex].total[:, 3].tolist(),
                histories[sex].colonoscopies.tolist(),
                histories[sex].cost.tolist()))
        for sex in (Sex.F, Sex.M)
    }
    return SelectionProblem(
        female=candidates[Sex.F],
        male=candidates[Sex.M],
        population_female=pop[Sex.F],
        population_male=pop[Sex.M],
        budget=budget,
    )
