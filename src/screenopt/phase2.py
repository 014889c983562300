"""Final strategy selection under a population colonoscopy budget.

Picks exactly one strategy history per sex so that population cancer
prevalence is minimized while total expected colonoscopies (per-capita
figures scaled by population sizes) stay within the budget. The candidate
lists coming out of the multi-period search are small, so the binary program
is solved by an exact scan over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phase1 import StrategyHistory
from .screening import ParameterBundle, Sex


@dataclass(frozen=True)
class StrategyCandidate:
    """One selectable history with absolute and per-capita accounting."""

    key: str
    expected_cancers: float            # absolute expected cancer count
    colonoscopies_per_capita: float
    total_colonoscopies: float         # absolute expected examinations
    total_cost: float                  # absolute euros

    @classmethod
    def from_history(cls, history: StrategyHistory, key: str,
                     population: float) -> "StrategyCandidate":
        return cls(
            key=key,
            expected_cancers=history.total_prevalence.crc * population,
            colonoscopies_per_capita=history.cumulative_colonoscopies / population,
            total_colonoscopies=history.cumulative_colonoscopies,
            total_cost=history.cumulative_cost,
        )


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


BUDGET_TOL = 1e-9


def _pair_matrices(problem: SelectionProblem):
    """Objective, examination and cost totals for every (female, male) pair."""
    f_cancer = np.array([c.expected_cancers for c in problem.female])
    m_cancer = np.array([c.expected_cancers for c in problem.male])
    f_col = problem.population_female * np.array(
        [c.colonoscopies_per_capita for c in problem.female])
    m_col = problem.population_male * np.array(
        [c.colonoscopies_per_capita for c in problem.male])
    f_cost = np.array([c.total_cost for c in problem.female])
    m_cost = np.array([c.total_cost for c in problem.male])
    share = (f_cancer[:, None] + m_cancer[None, :]) / (
        problem.population_female + problem.population_male)
    col = f_col[:, None] + m_col[None, :]
    cost = f_cost[:, None] + m_cost[None, :]
    return share, col, cost


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


def select_strategies(problem: SelectionProblem) -> SelectionResult:
    """Exact optimum over all candidate pairs (exhaustive scan).

    Ties break toward fewer colonoscopies, then lower cost, then the
    lexicographically smaller index pair. When no pair fits the budget the
    result is flagged infeasible and reports the cheapest pair in
    colonoscopies as a diagnostic.
    """
    return _select(*_pair_matrices(problem), problem.budget)


def _select(share: np.ndarray, col: np.ndarray, cost: np.ndarray,
            budget: float) -> SelectionResult:
    feasible = col <= budget + BUDGET_TOL
    if feasible.any():
        jf, jm = _lexmin_pair(feasible, share, col, cost)
        return SelectionResult(budget, jf, jm, float(share[jf, jm]),
                               float(col[jf, jm]), float(cost[jf, jm]), True)
    everything = np.ones_like(feasible)
    jf, jm = _lexmin_pair(everything, col, cost)
    return SelectionResult(budget, jf, jm, float(share[jf, jm]),
                           float(col[jf, jm]), float(cost[jf, jm]), False)


def budget_sweep(problem: SelectionProblem,
                 budgets: Sequence[float]) -> list[SelectionResult]:
    """One selection per budget; budgets must be sorted ascending.

    The pair matrices do not depend on the budget and are built once.
    """
    if any(b1 > b2 for b1, b2 in zip(budgets, budgets[1:])):
        raise ValueError("budgets must be sorted ascending")
    if budgets and budgets[0] < 0:
        raise ValueError("budget must be non-negative")
    matrices = _pair_matrices(problem)
    return [_select(*matrices, float(b)) for b in budgets]


def selection_problem_from_histories(
    params: ParameterBundle,
    histories: dict[Sex, list[StrategyHistory]],
    keys: dict[Sex, list[str]],
    budget: float,
) -> SelectionProblem:
    """Ingest phase-1 output, converting accounting once at the boundary."""
    pop = {
        sex: params.total_population(sex, periods=len(histories[sex][0].records))
        for sex in (Sex.F, Sex.M)
    }
    candidates = {
        sex: tuple(
            StrategyCandidate.from_history(h, key, pop[sex])
            for h, key in zip(histories[sex], keys[sex])
        )
        for sex in (Sex.F, Sex.M)
    }
    return SelectionProblem(
        female=candidates[Sex.F],
        male=candidates[Sex.M],
        population_female=pop[Sex.F],
        population_male=pop[Sex.M],
        budget=budget,
    )
