"""Independent reference implementations used by unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from screenopt.pareto import diagram_problem, dominates
from screenopt.phase1 import (
    BUDGET_TOL,
    colonoscopies_of,
    combined_total_prevalence,
    detected_fractions_of,
    update_prevalences,
)
from screenopt.phase2 import SelectionResult
from screenopt.screening import Segment, Sex, build_segment_diagram, \
    fixed_decision_rules


def all_two_period_outcomes(bundle, sex, objective_mask=None):
    """Outcomes of every (period-1, period-2) strategy pair for one sex.

    Yields the four dominance quantities (total cancer prevalence,
    next-start cancer, next-start large growths, cumulative colonoscopies)
    without any filtering.
    """
    fixed = fixed_decision_rules(bundle)
    seg1, seg2 = Segment(sex, 1), Segment(sex, 2)
    n1, n2 = bundle.cohort_size(seg1), bundle.cohort_size(seg2)
    psi1 = bundle.starting_prevalence(sex)
    prob1 = diagram_problem(build_segment_diagram(seg1, bundle, psi1),
                            objective_mask=objective_mask, fixed=fixed)
    for i1 in range(prob1.n_candidates):
        p1 = prob1.point(i1)
        up1 = update_prevalences(psi1, detected_fractions_of(p1),
                                 bundle.transition(seg1))
        col1 = colonoscopies_of(p1) * n1
        total1 = combined_total_prevalence(None, 0.0, up1, n1)
        prob2 = diagram_problem(build_segment_diagram(seg2, bundle, up1),
                                objective_mask=objective_mask, fixed=fixed)
        for i2 in range(prob2.n_candidates):
            p2 = prob2.point(i2)
            up2 = update_prevalences(up1, detected_fractions_of(p2),
                                     bundle.transition(seg2))
            col = col1 + colonoscopies_of(p2) * n2
            total2 = combined_total_prevalence(total1, n1, up2, n2)
            yield (total2.crc, up2.crc, up2.large, col)


def exhaustive_two_period(bundle, budget, objective_mask=None):
    """Full tree search over every (period-1, period-2) strategy pair.

    Applies the budget rule and the four-quantity dominance comparison to
    the complete pair set and returns the surviving dominance keys per sex,
    rounded for comparison.
    """
    out = {}
    for sex in (Sex.F, Sex.M):
        entries = [e for e in all_two_period_outcomes(bundle, sex,
                                                      objective_mask)
                   if e[3] <= budget + BUDGET_TOL]
        keys = [e for e in entries
                if not any(dominates(other, e) for other in entries
                           if other != e)]
        out[sex] = {tuple(round(v, 12) for v in k) for k in keys}
    return out


def reference_pair_scan(problem) -> SelectionResult:
    """Plain double loop over candidate pairs with the documented tie-break."""
    best = None
    fallback = None
    for jf, f in enumerate(problem.female):
        for jm, m in enumerate(problem.male):
            col = (problem.population_female * f.colonoscopies_per_capita
                   + problem.population_male * m.colonoscopies_per_capita)
            share = (f.expected_cancers + m.expected_cancers) / (
                problem.population_female + problem.population_male)
            cost = f.total_cost + m.total_cost
            if col <= problem.budget + 1e-9:
                rank = (share, col, cost, jf, jm)
                if best is None or rank < best[0]:
                    best = (rank, jf, jm, share, col, cost)
            diag = (col, cost, jf, jm)
            if fallback is None or diag < fallback[0]:
                fallback = (diag, jf, jm, share, col, cost)
    chosen = best if best is not None else fallback
    _, jf, jm, share, col, cost = chosen
    return SelectionResult(problem.budget, jf, jm, share, col, cost,
                           best is not None)


def remove_dominated_loop(histories):
    """Row-by-row history dominance filter with the documented output order.

    Each history is compared against every other one, kept or not, with the
    same tolerance rule as the frontier filter.
    """
    keys = np.array([h.dominance_key() for h in histories])
    tol = 1e-9
    kept = []
    for i, h in enumerate(histories):
        le = np.all(keys <= keys[i] + tol, axis=1)
        lt = np.any(keys < keys[i] - tol, axis=1)
        if not np.any(le & lt):
            kept.append(h)
    kept.sort(key=lambda h: (h.dominance_key(), h.sort_key()))
    return kept
