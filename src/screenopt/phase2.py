"""Final strategy selection under a population colonoscopy budget.

Picks exactly one strategy history per sex so that population cancer
prevalence is minimized while total expected colonoscopies (per-capita
figures scaled by population sizes) stay within the budget: the two-group
case of the multiple-choice knapsack problem. Per sex, candidates that an
earlier candidate matches or beats in cancers, colonoscopies and cost are
dropped first, by the frontier module's exact ``skyline`` kernel; that
reduction is exact, tie-breaks included. The remaining
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

from .diagram import BUDGET_TOL
from .pareto import skyline
from .phase1 import HistoryTable
from .screening import ParameterBundle, Sex


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    """Each sex's candidates as one (N x 3) array of expected cancers,
    expected examinations and cost (absolute counts and euros), and the
    two population sizes."""

    female: np.ndarray
    male: np.ndarray
    population_female: float
    population_male: float

    def __post_init__(self):
        for candidates in (self.female, self.male):
            if not len(candidates):
                raise ValueError("candidate lists must be non-empty")
            if np.ndim(candidates) != 2 or np.shape(candidates)[1] != 3:
                raise ValueError("candidates must be an (N x 3) array")
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


def _pair_matrices(problem: SelectionProblem):
    """Objective, examination and cost totals for every (female, male) pair."""
    f, m = problem.female, problem.male
    share = (f[:, 0, None] + m[None, :, 0]) / (
        problem.population_female + problem.population_male)
    col = f[:, 1, None] + m[None, :, 1]
    cost = f[:, 2, None] + m[None, :, 2]
    return share, col, cost


def _selectable(candidates: np.ndarray) -> np.ndarray:
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

    Lemma: with the index as a fourth column every row is distinct, so a
    row that is at most another in every column is strictly smaller in the
    index column. Exact dominance is therefore exactly "an earlier
    candidate matches or beats it".
    """
    index = np.arange(len(candidates))
    return np.flatnonzero(skyline(np.column_stack([candidates, index])))


def budget_sweep(problem: SelectionProblem,
                 budgets: Sequence[float]) -> list[SelectionResult]:
    """The exact optimum over all candidate pairs at each budget; budgets
    must be sorted ascending and not NaN (``inf`` is no cap).

    Ties break toward fewer colonoscopies, then lower cost, then the
    lexicographically smaller index pair. When no pair fits a budget the
    result is flagged infeasible and reports the cheapest pair in
    colonoscopies as a diagnostic.

    The pairs of the candidates ``_selectable`` keeps are sorted once by
    (share, examinations, cost, index pair). A budget selects the first
    sorted pair within it, found by a binary search over the running
    minimum of examinations along that order.
    """
    budgets = np.asarray(budgets, dtype=float).reshape(-1)
    if np.isnan(budgets).any():
        raise ValueError("budgets must not be NaN")
    if np.any(budgets[1:] < budgets[:-1]):
        raise ValueError("budgets must be sorted ascending")
    if np.any(budgets[:1] < 0):
        raise ValueError("budget must be non-negative")
    female = _selectable(problem.female)
    male = _selectable(problem.male)
    reduced = dataclasses.replace(problem, female=problem.female[female],
                                  male=problem.male[male])
    share, col, cost = (m.ravel() for m in _pair_matrices(reduced))
    # lexsort is stable, so equal keys keep the flat (row-major) order,
    # which is the index-pair order because the kept indices ascend.
    order = np.lexsort((cost, col, share))
    running = np.minimum.accumulate(col[order])
    limits = budgets + BUDGET_TOL
    firsts = np.searchsorted(-running, -limits)
    cheapest = np.lexsort((cost, col))[0]

    results = []
    for budget, first in zip(budgets.tolist(), firsts):
        feasible = bool(first < len(order))
        flat = order[first] if feasible else cheapest
        jf, jm = divmod(int(flat), len(male))
        results.append(SelectionResult(
            budget, int(female[jf]), int(male[jm]), float(share[flat]),
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
) -> SelectionProblem:
    """Ingest phase 1's last tables: one candidate per row."""
    pop = {sex: params.total_population(sex, periods=histories[sex].period)
           for sex in (Sex.F, Sex.M)}

    def candidates(sex):
        table = histories[sex]
        # pop * (x / pop), not x: selection.csv and tie-breaks use its bits
        return np.column_stack([
            table.total[:, 3] * pop[sex],
            pop[sex] * (table.colonoscopies / pop[sex]), table.cost])

    return SelectionProblem(
        female=candidates(Sex.F),
        male=candidates(Sex.M),
        population_female=pop[Sex.F],
        population_male=pop[Sex.M],
    )
