"""Independent reference implementations used by unit and acceptance tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

import screenopt.diagram
from screenopt import cli
from screenopt.diagram import (
    DETECTION_TOL,
    ZERO_TOL,
    NodeKind,
    _check_ceiling,
    _cpt_row,
)
from screenopt.errors import CapacityError, ScreenOptError
from screenopt.pareto import (
    EnumeratedProblem,
    ParetoFrontier,
    diagram_problem,
    nondominated,
)
from screenopt.phase1 import BUDGET_TOL, baseline_trajectory, run_phase1
from screenopt.phase2 import SelectionProblem, SelectionResult, budget_sweep
from screenopt.screening import (
    ABNORMAL,
    CUTOFF,
    EXAM,
    EXAM_RESULT,
    FIT_RESULT,
    INCENTIVE,
    INVITE,
    BowelState,
    Segment,
    Sex,
    build_segment_diagram,
    check_prevalence_rows,
    fixed_decision_rules,
    policy_cell,
)

#: The column of each bowel state in a prevalence row (``BowelState`` order).
NORMAL, BENIGN, LARGE, CRC = range(4)

#: The four simplex vertices, one bowel state each.
VERTICES = tuple(np.eye(4))

EPSILON_SCALE = 1e-4
#: Smallest box width the box search's scalarization weights divide by.
WEIGHT_GUARD = 1e-12


@dataclass(frozen=True)
class DetectedFractions:
    """Expected population fraction found (and treated) in each abnormal state."""

    benign: float
    large: float
    crc: float


def share(psi, state: BowelState) -> float:
    """The prevalence of ``state`` in the row ``psi``, as a Python float."""
    return float(psi[list(BowelState).index(state)])


def update_prevalences(psi, found, rates):
    """One detection-and-progression step of the prevalence recurrences,
    one state at a time in Python floats: the reference of
    ``phase1.update_prevalence_rows``. Returns a (4,) row.

    Raises ``ValueError`` when a detected fraction exceeds its prevalence,
    which signals inconsistent inputs, or when the result fails the
    prevalence checks.
    """
    normal, benign, large, crc = map(float, psi)
    for state, detected, prevalence in (("benign", found.benign, benign),
                                        ("large", found.large, large),
                                        ("crc", found.crc, crc)):
        if detected < -DETECTION_TOL:
            raise ValueError(f"negative detected fraction for {state}")
        if detected > prevalence + DETECTION_TOL:
            raise ValueError(
                f"detected fraction {detected!r} exceeds prevalence "
                f"{prevalence!r} for {state}")

    benign_out = ((benign - found.benign) * (1.0 - rates.benign_to_large)
                  + normal * rates.normal_to_benign)
    large_out = ((large - found.large) * (1.0 - rates.large_to_crc)
                 + (benign - found.benign) * rates.benign_to_large)
    crc_out = (crc - found.crc
               + (large - found.large) * rates.large_to_crc)
    out = np.array([1.0 - benign_out - large_out - crc_out, benign_out,
                    large_out, crc_out])
    check_prevalence_rows(out[None])
    return out


def combined_total_prevalence(previous, previous_weight, psi, weight):
    """Population-size-weighted running average of two prevalence rows, one
    state at a time in Python floats: the reference of
    ``phase1.combined_total_rows``."""
    if previous is None:
        return psi
    total = previous_weight + weight
    out = np.array([(a * previous_weight + b * weight) / total
                    for a, b in zip(previous.tolist(), psi.tolist())])
    check_prevalence_rows(out[None])
    return out


def fit_positive_probability(fit, cutoff, psi) -> float:
    """Marginal probability of a positive stool test at ``cutoff``.

    Sensitivity-weighted abnormal prevalence plus the false-positive share
    of the normal prevalence.
    """
    total = (1.0 - fit.specificity[cutoff]) * share(psi, BowelState.NORMAL)
    for state in ABNORMAL:
        total += fit.sensitivity[state.value][cutoff] * share(psi, state)
    return total


def posterior_given_positive(fit, cutoff, psi, state, fpos=None) -> float:
    """Bayes posterior of a bowel state given a positive test.

    ``fpos`` is ``fit_positive_probability(fit, cutoff, psi)`` when the
    caller has it already.
    """
    if fpos is None:
        fpos = fit_positive_probability(fit, cutoff, psi)
    if fpos <= ZERO_TOL:
        raise ZeroDivisionError(
            f"positive-test probability is zero at cut-off {cutoff!r}")
    if state is BowelState.NORMAL:
        numer = (1.0 - fit.specificity[cutoff]) * share(psi, state)
    else:
        numer = fit.sensitivity[state.value][cutoff] * share(psi, state)
    return numer / fpos


def colonoscopy_result_row(fit, col, cutoff, psi, fpos=None) -> tuple:
    """Distribution over {NA, normal, benign, large, crc} examination results.

    Abnormal entries are posterior mass thinned by examination sensitivity;
    the normal entry absorbs the remaining mass. The NA entry is zero: the
    row describes an examination that takes place.
    """
    if fpos is None:
        fpos = fit_positive_probability(fit, cutoff, psi)
    found = [
        col.sensitivity[state.value]
        * posterior_given_positive(fit, cutoff, psi, state, fpos)
        for state in ABNORMAL
    ]
    normal = 1.0 - math.fsum(found)
    return (0.0, normal, found[0], found[1], found[2])


def scalar_prevalence_cpts(params, psi) -> dict:
    """The test-result and examination-result CPTs at ``psi``, one cut-off
    and one formula call at a time."""
    fit_cpt = {}
    exam_cpt = {}
    na_row = (1.0, 0.0, 0.0, 0.0, 0.0)
    for li, cutoff in enumerate(params.fit.cutoffs):
        fpos = fit_positive_probability(params.fit, cutoff, psi)
        fit_cpt[(li, 0)] = (1.0, 0.0, 0.0)
        fit_cpt[(li, 1)] = (0.0, fpos, 1.0 - fpos)
        if fpos > ZERO_TOL:
            row = colonoscopy_result_row(params.fit, params.colonoscopy,
                                         cutoff, psi, fpos)
        else:
            row = (0.0, 1.0, 0.0, 0.0, 0.0)
        for s6, s7 in itertools.product(range(2), range(2)):
            exam_cpt[(li, s6, s7)] = row if (s6, s7) == (1, 1) else na_row
    return {FIT_RESULT: fit_cpt, EXAM_RESULT: exam_cpt}


def objective(vector, name: str) -> float:
    """One value of an ``ObjectiveVector``, by its value node's name."""
    return vector.values[vector.names.index(name)]


def detected_fractions_of(point) -> DetectedFractions:
    """Read the three detection objectives off a frontier point."""
    return DetectedFractions(
        benign=objective(point.objectives, "benign_found"),
        large=objective(point.objectives, "large_found"),
        crc=objective(point.objectives, "crc_found"),
    )


def colonoscopies_of(point) -> float:
    """Expected examinations per invitee (the value node counts them as -1)."""
    return -objective(point.objectives, "colonoscopy")


def dominance_key(history) -> tuple[float, float, float, float]:
    """All minimized: total cancer, next-start cancer, next-start large
    growths, cumulative colonoscopies."""
    last = history.records[-1].updated_prevalence
    return (float(history.total_prevalence[CRC]), float(last[CRC]),
            float(last[LARGE]), history.cumulative_colonoscopies)


def strategy_key(strategy) -> tuple:
    """A strategy's content as a sortable tuple: per decision node id in
    ascending order, the id and its rule's actions in information-state
    order."""
    return tuple((node_id, tuple(strategy[node_id].ravel().tolist()))
                 for node_id in sorted(strategy))


def sort_key(history) -> tuple:
    return tuple(strategy_key(r.strategy) for r in history.records)


def dominates(a, b, tol=0.0):
    """Weak dominance of ``a`` over ``b`` with strict improvement somewhere,
    exact by default; ``tol`` widens both comparisons."""
    return all(x <= y + tol for x, y in zip(a, b)) and any(
        x < y - tol for x, y in zip(a, b))


def enumerate_strategies(diagram, fixed=None):
    """Yield every global strategy exactly once, the reference of
    ``StrategyEvaluator``'s numbering: nested loops over the free (decision
    node, information state) slots, slot 0 outermost.

    ``fixed`` pins the rule of selected decision nodes; enumeration then runs
    over the remaining nodes only, composing the pinned rules into every
    yielded strategy. A diagram with no (free) decision nodes yields the
    single strategy consisting of the fixed rules alone. More strategies
    than ``screenopt.diagram.STRATEGY_CEILING`` raise ``CapacityError``.
    """
    fixed = dict(fixed or {})
    free = [n for n in diagram.decision_nodes if n.node_id not in fixed]
    count = diagram.strategy_count(fixed=tuple(fixed))
    if count > screenopt.diagram.STRATEGY_CEILING:
        raise CapacityError(f"{count} strategies exceed the ceiling")

    sizes = [range(len(node.states)) for node in free
             for _ in diagram.info_states(node)]
    for assignment in itertools.product(*sizes):
        rules = dict(fixed)
        digits = iter(assignment)
        for node in free:
            rules[node.node_id] = np.array(
                [next(digits) for _ in diagram.info_states(node)]
            ).reshape(diagram.info_shape(node))
        yield rules


def enumerate_paths(diagram):
    """Yield every path once, in lexicographic node-state order."""
    _check_ceiling(math.prod(len(n.states) for n in diagram.path_nodes),
                   screenopt.diagram.PATH_CEILING, "paths")
    ranges = [range(len(n.states)) for n in diagram.path_nodes]
    return itertools.product(*ranges)


def upper_bound_probability(diagram, path) -> float:
    """p(s): product of chance-node CPT entries along ``path``."""
    prob = 1.0
    for node in diagram.chance_nodes:
        row = _cpt_row(diagram, node, diagram.info_state_of(node, path))
        prob *= row[path[diagram.path_position[node.node_id]]]
    return prob


def path_probability(diagram, path, strategy) -> float:
    """pi(s): p(s) when the path agrees with the strategy, else 0.

    Mirrors the linear-program box on (pi, z): 0 <= pi <= p, pi <= z for
    every decision node, and pi >= p + sum(z) - |D|.
    """
    for node in diagram.decision_nodes:
        info = diagram.info_state_of(node, path)
        if strategy[node.node_id][info] != path[diagram.path_position[node.node_id]]:
            return 0.0
    return upper_bound_probability(diagram, path)


def path_grid_arrays(diagram, fixed=None):
    """``StrategyEvaluator``'s construction arrays -- ``_flats``,
    ``_utility``, ``_starts`` and ``_plan`` -- gathered from the full path
    grid (``np.indices``: one column of state ordinals per path node and
    ``np.ravel_multi_index`` per node), the reference of the evaluator's
    per-node broadcast."""
    d, fixed = diagram, dict(fixed or {})
    sizes = [len(n.states) for n in d.path_nodes]
    n_paths = math.prod(sizes)
    count = d.strategy_count(fixed=tuple(fixed))
    slots = tuple(len(n.states) for n in d.decision_nodes
                  if n.node_id not in fixed for _ in d.info_states(n))
    grid = np.indices(sizes, dtype=np.int64).reshape(len(sizes), n_paths).T
    pos = d.path_position

    def entries(node):
        cols = tuple(grid[:, pos[p]]
                     for p in node.predecessors + (node.node_id,))
        return np.ravel_multi_index(
            cols, d.info_shape(node) + (len(node.states),))

    widths = [math.prod(d.info_shape(n)) * len(n.states)
              for n in d.decision_nodes]
    radix = np.zeros(n_paths, dtype=np.int64)
    for node, width in zip(d.decision_nodes, widths):
        radix = radix * width + entries(node)
    order = np.argsort(radix, kind="stable")
    known, starts = np.unique(radix[order], return_index=True)
    utility = np.zeros((n_paths, len(d.value_nodes)))
    for i, node in enumerate(d.value_nodes):
        utility[:, i] = d.values[node.node_id].table[
            tuple(grid[:, pos[p]] for p in node.predecessors)]
    flats = tuple(entries(n)[order] for n in d.chance_nodes)

    columns = iter(np.unravel_index(np.arange(count), slots)
                   if slots else ())
    terms = []
    for node in d.decision_nodes:
        k, rule = len(node.states), fixed.get(node.node_id)
        terms.append([i * k + (rule[info] if rule is not None
                               else next(columns))
                      for i, info in enumerate(d.info_states(node))])
    plan = []
    for combo in itertools.product(*terms):
        sig = np.zeros(count, dtype=np.int64)
        for width, term in zip(widths, combo):
            sig = sig * width + term
        hit = np.minimum(np.searchsorted(known, sig), len(known) - 1)
        plan.append(np.where(known[hit] == sig, hit, len(known)))
    return flats, utility[order], starts, plan


def compatible_path_probabilities(diagram, strategy):
    """Sparse map of strategy-compatible paths to positive probabilities."""
    result = {}
    nodes = diagram.path_nodes
    pos = diagram.path_position

    def walk(depth, prefix, prob):
        if prob == 0.0:
            return
        if depth == len(nodes):
            result[tuple(prefix)] = prob
            return
        node = nodes[depth]
        info = tuple(prefix[pos[p]] for p in node.predecessors)
        if node.kind is NodeKind.DECISION:
            prefix.append(strategy[node.node_id][info])
            walk(depth + 1, prefix, prob)
            prefix.pop()
        else:
            for state, p in enumerate(
                    diagram.cpts[node.node_id][info].tolist()):
                prefix.append(state)
                walk(depth + 1, prefix, prob * p)
                prefix.pop()

    walk(0, [], 1.0)
    return result


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
            yield (float(total2[CRC]), float(up2[CRC]), float(up2[LARGE]),
                   col)


def exhaustive_two_period(bundle, budget, objective_mask=None):
    """Full tree search over every (period-1, period-2) strategy pair.

    Applies the budget rule and the four-quantity dominance comparison to
    the complete pair set and returns the surviving dominance keys per sex,
    for :func:`assert_keys_match`.
    """
    out = {}
    for sex in (Sex.F, Sex.M):
        entries = [e for e in all_two_period_outcomes(bundle, sex,
                                                      objective_mask)
                   if e[3] <= budget + BUDGET_TOL]
        keys = [e for e in entries
                if not any(dominates(other, e) for other in entries
                           if other != e)]
        out[sex] = keys
    return out


def assert_keys_match(histories, want):
    """The histories' distinct dominance keys and the distinct keys
    ``want`` match one to one, each pair within a relative 1e-12: phase 1
    takes its objectives from vertex sums, whose last bits differ from a
    direct evaluation's."""
    unmatched = sorted(set(want))
    for key in sorted({dominance_key(h) for h in histories}):
        match = next((i for i, w in enumerate(unmatched)
                      if np.allclose(key, w, rtol=1e-12, atol=0.0)), None)
        assert match is not None, (key, unmatched)
        del unmatched[match]
    assert not unmatched, unmatched


def one_ulp(matrix):
    """``matrix`` with every nonzero value one ulp up; an exact zero has
    every path's term zero and stays exact in any evaluation."""
    return np.where(matrix != 0, np.nextafter(matrix, np.inf), matrix)


def reference_pair_scan(problem, budget) -> SelectionResult:
    """Plain double loop over candidate pairs with the documented tie-break."""
    best = None
    fallback = None
    for jf, f in enumerate(problem.female.tolist()):
        for jm, m in enumerate(problem.male.tolist()):
            share = (f[0] + m[0]) / (
                problem.population_female + problem.population_male)
            col = f[1] + m[1]
            cost = f[2] + m[2]
            if col <= budget + 1e-9:
                rank = (share, col, cost, jf, jm)
                if best is None or rank < best[0]:
                    best = (rank, jf, jm, share, col, cost)
            diag = (col, cost, jf, jm)
            if fallback is None or diag < fallback[0]:
                fallback = (diag, jf, jm, share, col, cost)
    chosen = best if best is not None else fallback
    _, jf, jm, share, col, cost = chosen
    return SelectionResult(budget, jf, jm, share, col, cost, best is not None)


def selectable_loop(candidates) -> np.ndarray:
    """Candidate-by-candidate reference for ``phase2._selectable``: walking
    the (cancers, examinations, cost) order, a candidate is kept unless a
    kept one is <= in examinations and cost and has a smaller index."""
    cancer, col, cost = np.asarray(candidates).T
    kept = []
    for i in np.lexsort((cost, col, cancer)).tolist():
        if not any(col[k] <= col[i] and cost[k] <= cost[i] and k < i
                   for k in kept):
            kept.append(i)
    return np.array(sorted(kept), dtype=np.intp)


def remove_dominated_loop(histories):
    """Row-by-row history dominance filter with the documented output order.

    Each history is compared against every other one, kept or not, by the
    exact rule: at most in every key and below in one, with no tolerance.
    """
    keys = np.array([dominance_key(h) for h in histories])
    kept = []
    for i, h in enumerate(histories):
        le = np.all(keys <= keys[i], axis=1)
        lt = np.any(keys < keys[i], axis=1)
        if not np.any(le & lt):
            kept.append(h)
    kept.sort(key=lambda h: (dominance_key(h), sort_key(h)))
    return kept


def nondominated_prefix(points, tol=0.0, cells=1 << 20):
    """The all-pairs dominance mask by key-0 prefixes, exact by default;
    ``tol`` widens both comparisons.

    Rows are sorted on the first column and each block of rows is
    broadcast against every row, kept or not, whose first column is at
    most the block's largest ``+ tol``; a block's masks hold at most
    ``cells`` booleans. Takes one matrix or a stack of them.
    """
    points = np.asarray(points, dtype=float)
    stack = points.reshape((math.prod(points.shape[:-2]),) + points.shape[-2:])
    B, n, m = stack.shape
    order = np.argsort(stack[:, :, 0], axis=1, kind="stable")
    ranked = np.take_along_axis(stack, order[:, :, None], axis=1)
    upper = ranked + tol
    lower = ranked - tol
    first = ranked[:, :, 0]
    dominated = np.zeros((B, n), dtype=bool)
    per_matrix = max(1, cells // max(n * n, 1))
    block = max(1, cells // max(per_matrix * n, 1))
    for b0 in range(0, B, per_matrix):
        mats = slice(b0, b0 + per_matrix)
        for start in range(0, n, block):
            rows = slice(start, start + block)
            last = upper[mats, min(start + block, n) - 1, 0]
            reach = int((first[mats] <= last[:, None]).sum(axis=1).max())
            cand = ranked[mats, None, :reach]
            hi = upper[mats, rows, None]
            lo = lower[mats, rows, None]
            weakly = cand[..., 0] <= hi[..., 0]
            strictly = cand[..., 0] < lo[..., 0]
            for k in range(1, m):
                weakly &= cand[..., k] <= hi[..., k]
                strictly |= cand[..., k] < lo[..., k]
            dominated[mats, rows] = np.any(weakly & strictly, axis=2)
    mask = np.empty_like(dominated)
    np.put_along_axis(mask, order, ~dominated, axis=1)
    return mask.reshape(points.shape[:-1])


class IterationLimitError(ScreenOptError):
    """The frontier iteration exceeded its solve budget."""


def representative(problem: EnumeratedProblem, unique_row: int) -> int:
    """The smallest candidate index of ``problem``'s unique vector
    ``unique_row``."""
    return int(problem._unique[1][unique_row])


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
    best = min(tied, key=lambda i: representative(problem, rows[i]))
    return int(rows[best])


def box_search_frontier(problem: EnumeratedProblem,
                        iteration_limit: int | None = None) -> ParetoFrontier:
    """Complete nondominated set via box-guided scalarized solves: the
    paper's augmented weighted Tchebychev search, an independent oracle of
    ``pareto.compute_frontier``.

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
    # safety net for degenerate corner cases. Unique rows are in vector
    # order.
    rows = np.array(sorted(found), dtype=np.intp)
    rows = rows[nondominated(vectors[rows])]
    return ParetoFrontier(problem, problem._unique[1][rows])


def strategy_classes_unique(values):
    """``phase1.strategy_classes`` through ``np.unique``: each class's
    smallest strategy index, ascending, and the class of every strategy."""
    flat = values.reshape(len(values), -1)
    _, first, inverse = np.unique(flat, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return np.sort(first), rank[inverse.ravel()]


def exhaustive_phase1(bundle, sex, budget, periods):
    """Every budget-feasible sequence of strategy classes for one sex.

    Each period's strategies are grouped by exactly equal objectives at the
    four simplex vertices, from diagrams built fresh at each vertex; the
    objectives are linear in the start prevalence, so one ``einsum`` gives
    every class's objectives at every sequence's prevalence. Sequences are
    extended by every class and pruned only by the budget. Returns each
    sequence's expected cancers (total cancer prevalence times the
    population of the periods) and cumulative colonoscopies.
    """
    fixed = fixed_decision_rules(bundle)
    psi = bundle.starting_prevalence(sex)[None]
    col = np.zeros(1)
    total = None
    weight = 0.0
    for k in range(1, periods + 1):
        segment = Segment(sex, k)
        problems = [diagram_problem(build_segment_diagram(segment, bundle, v),
                                    fixed=fixed) for v in VERTICES]
        names = problems[0].names
        vertex = np.stack([p.reported for p in problems], axis=2)
        classes = np.unique(vertex.reshape(len(vertex), -1), axis=0)
        values = np.einsum("cov,nv->nco", classes.reshape(
            len(classes), len(names), 4), psi)
        cohort = bundle.cohort_size(segment)
        extended = col[:, None] - values[:, :, names.index("colonoscopy")] \
            * cohort
        h, c = np.nonzero(extended <= budget + BUDGET_TOL)
        found = {name: values[h, c, names.index(f"{name}_found")]
                 for name in ("benign", "large", "crc")}
        rates = bundle.transition(segment)
        normal, benign, large, crc = psi[h].T
        left_benign = benign - found["benign"]
        left_large = large - found["large"]
        benign = left_benign * (1 - rates.benign_to_large) \
            + normal * rates.normal_to_benign
        large = left_large * (1 - rates.large_to_crc) \
            + left_benign * rates.benign_to_large
        crc = crc - found["crc"] + left_large * rates.large_to_crc
        psi = np.stack([1 - benign - large - crc, benign, large, crc], axis=1)
        total = psi if total is None else \
            (total[h] * weight + psi * cohort) / (weight + cohort)
        weight += cohort
        col = extended[h, c]
    return total[:, 3] * bundle.total_population(sex, periods), col


def exhaustive_best_shares(bundle, budgets, periods):
    """The smallest population cancer share of any (women's, men's) pair of
    budget-feasible class sequences, per budget, over
    :func:`exhaustive_phase1`; None where no pair fits."""
    cancers_f, col_f = exhaustive_phase1(bundle, Sex.F, max(budgets), periods)
    cancers_m, col_m = exhaustive_phase1(bundle, Sex.M, max(budgets), periods)
    population = bundle.total_population(Sex.F, periods) + \
        bundle.total_population(Sex.M, periods)
    order = np.argsort(col_m, kind="stable")
    col_m = col_m[order]
    best_m = np.minimum.accumulate(cancers_m[order])
    shares = []
    for budget in budgets:
        fits = np.searchsorted(col_m, budget + BUDGET_TOL - col_f,
                               side="right")
        ok = fits > 0
        if not ok.any():
            shares.append(None)
            continue
        best = np.min(cancers_f[ok] + best_m[fits[ok] - 1])
        shares.append(float(best / population))
    return shares


# ---------------------------------------------------------------------------
# The pipeline outputs rendered from StrategyHistory objects
# ---------------------------------------------------------------------------

def history_key(history, cutoffs) -> str:
    """The policy cells of a history's periods, joined by "|"."""
    return "|".join(policy_cell(r.strategy, cutoffs) for r in history.records)


def candidate_from_history(history, population) -> list[float]:
    """A history's (expected cancers, examinations, cost) selection row."""
    return [float(history.total_prevalence[CRC]) * population,
            population * (history.cumulative_colonoscopies / population),
            history.cumulative_cost]


def running_totals(bundle, sex, history) -> list:
    """The total prevalence through each period of a history, chained
    through ``combined_total_prevalence`` over its records."""
    totals = []
    total = None
    weight = 0.0
    for rec in history.records:
        cohort = bundle.cohort_size(Segment(sex, rec.period))
        total = combined_total_prevalence(total, weight,
                                          rec.updated_prevalence, cohort)
        weight += cohort
        totals.append(total)
    return totals


def _combined(bundle, psi_f, psi_m, k: int) -> float:
    wf = bundle.total_population(Sex.F, periods=k)
    wm = bundle.total_population(Sex.M, periods=k)
    return (float(psi_f[CRC]) * wf + float(psi_m[CRC]) * wm) / (wf + wm)


def histories_rows(histories, keys, cutoffs) -> list:
    rows = []
    for i, (hist, key) in enumerate(zip(histories, keys)):
        cells, floats = [], []
        for rec in hist.records:
            s = rec.strategy
            cells += [
                cutoffs[s[CUTOFF][()]],
                "yes" if s[INCENTIVE][()] == 1 else "no",
                "yes" if s[INVITE][()] == 1 else "no",
                "colonoscopy" if s[EXAM][1, 1] == 1 else "none",
            ]
            floats += rec.updated_prevalence.tolist()
        floats += [hist.cumulative_colonoscopies,
                   float(hist.total_prevalence[CRC]), hist.cumulative_cost]
        rows.append([i, key] + cells + floats)
    return rows


def policy_rows(results, histories, cutoffs) -> list:
    rows = []
    for case, res in enumerate(results, start=1):
        for sex, index in ((Sex.F, res.female_index), (Sex.M, res.male_index)):
            cells = [policy_cell(r.strategy, cutoffs)
                     for r in histories[sex][index].records]
            rows.append([f"case{case}", res.budget, sex.value] + cells)
    return rows


def series_rows(bundle, results, histories, periods) -> list:
    rows = []
    base = {sex: baseline_trajectory(bundle, sex, periods)[1]
            for sex in (Sex.F, Sex.M)}
    for k in range(1, periods + 1):
        for sex in (Sex.F, Sex.M):
            rows.append(["baseline", "", sex.value, k,
                         float(base[sex][k - 1, CRC])])
        rows.append(["baseline", "", "combined", k,
                     _combined(bundle, base[Sex.F][k - 1],
                               base[Sex.M][k - 1], k)])
    for case, res in enumerate(results, start=1):
        running = {
            Sex.F: running_totals(bundle, Sex.F,
                                  histories[Sex.F][res.female_index]),
            Sex.M: running_totals(bundle, Sex.M,
                                  histories[Sex.M][res.male_index])}
        for k in range(1, periods + 1):
            for sex in (Sex.F, Sex.M):
                rows.append([f"case{case}", res.budget, sex.value, k,
                             float(running[sex][k - 1][CRC])])
            rows.append([f"case{case}", res.budget, "combined", k,
                         _combined(bundle, running[Sex.F][k - 1],
                                   running[Sex.M][k - 1], k)])
    return rows


def selection_rows(results, keys) -> list:
    """The rows of ``selection.csv``, one value at a time."""
    return [[res.budget,
             res.female_index, keys[Sex.F][res.female_index],
             res.male_index, keys[Sex.M][res.male_index],
             res.cancer_share, res.total_colonoscopies, res.total_cost,
             res.feasible] for res in results]


def object_pipeline(argv, out) -> None:
    """The six outputs of ``screenopt pipeline argv --out out``, with the
    keys, candidates, histories, policy and series rows built one
    ``StrategyHistory`` (and one record) at a time, and the selection rows
    one value at a time. The manifest writer and the CSV framing are the
    program's own."""
    args = cli.build_parser().parse_args(
        ["pipeline", *argv, "--out", str(out)])
    bundle, _, _, digest = cli._load(args)
    budgets = cli._parse_budgets(args.budgets)
    periods = args.periods if args.periods is not None else bundle.periods
    tables = run_phase1(bundle, budget=max(budgets), periods=periods,
                        objective_mask=cli._mask(args))
    histories = {sex: list(table) for sex, table in tables.items()}
    cutoffs = bundle.fit.cutoffs
    keys = {sex: [history_key(h, cutoffs) for h in hs]
            for sex, hs in histories.items()}
    pop = {sex: bundle.total_population(sex, periods=periods)
           for sex in (Sex.F, Sex.M)}
    candidates = {sex: np.array([candidate_from_history(h, pop[sex])
                                 for h in histories[sex]])
                  for sex in (Sex.F, Sex.M)}
    problem = SelectionProblem(
        female=candidates[Sex.F], male=candidates[Sex.M],
        population_female=pop[Sex.F], population_male=pop[Sex.M])
    results = budget_sweep(problem, budgets)

    out.mkdir(parents=True)
    cli._write_manifest(args, bundle, budgets, periods, digest)
    for sex in (Sex.F, Sex.M):
        columns = ["index", "key"]
        for k in range(1, periods + 1):
            columns += [f"cutoff_{k}", f"incentive_{k}", f"invite_{k}",
                        f"exam_{k}"]
        for k in range(1, periods + 1):
            columns += [f"normal_{k}", f"benign_{k}", f"large_{k}",
                        f"crc_{k}"]
        columns += ["cumulative_colonoscopies", "total_cancer_prevalence",
                    "total_cost"]
        cli._write_csv(out / f"histories_{sex.value}.csv", digest, columns,
                       histories_rows(histories[sex], keys[sex], cutoffs))
    cli._write_csv(out / "selection.csv", digest,
                   ("budget", "female_index", "female_key", "male_index",
                    "male_key", "cancer_prevalence", "total_colonoscopies",
                    "total_cost", "feasible"),
                   selection_rows(results, keys))
    cli._write_csv(out / "policy_table.csv", digest,
                   ["case", "budget", "sex"]
                   + [f"age_{Segment(Sex.F, k).age}"
                      for k in range(1, periods + 1)],
                   policy_rows(results, histories, cutoffs))
    cli._write_csv(out / "prevalence_series.csv", digest,
                   ("case", "budget", "sex", "round",
                    "total_cancer_prevalence"),
                   series_rows(bundle, results, histories, periods))
