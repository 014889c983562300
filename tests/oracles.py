"""Independent reference implementations used by unit and acceptance tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from screenopt import cli
from screenopt.diagram import ZERO_TOL, NodeKind
from screenopt.pareto import diagram_problem
from screenopt.phase1 import (
    BUDGET_TOL,
    VERTICES,
    DetectedFractions,
    baseline_trajectory,
    combined_total_prevalence,
    policy_cell,
    run_phase1,
    update_prevalences,
)
from screenopt.phase2 import (
    SelectionProblem,
    SelectionResult,
    StrategyCandidate,
    _candidate_arrays,
    budget_sweep,
)
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
    fixed_decision_rules,
)


def fit_positive_probability(fit, cutoff, psi) -> float:
    """Marginal probability of a positive stool test at ``cutoff``.

    Sensitivity-weighted abnormal prevalence plus the false-positive share
    of the normal prevalence.
    """
    total = (1.0 - fit.specificity_for(cutoff)) * psi.normal
    for state in ABNORMAL:
        total += fit.sensitivity_for(cutoff, state) * psi.of(state)
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
        numer = (1.0 - fit.specificity_for(cutoff)) * psi.normal
    else:
        numer = fit.sensitivity_for(cutoff, state) * psi.of(state)
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
        col.sensitivity_for(state)
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
    for li, cutoff in enumerate(params.effective_cutoffs()):
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


def detected_fractions_of(point) -> DetectedFractions:
    """Read the three detection objectives off a frontier point."""
    return DetectedFractions(
        benign=point.objectives.by_name("benign_found"),
        large=point.objectives.by_name("large_found"),
        crc=point.objectives.by_name("crc_found"),
    )


def colonoscopies_of(point) -> float:
    """Expected examinations per invitee (the value node counts them as -1)."""
    return -point.objectives.by_name("colonoscopy")


def dominance_key(history) -> tuple[float, float, float, float]:
    """All minimized: total cancer, next-start cancer, next-start large
    growths, cumulative colonoscopies."""
    last = history.records[-1].updated_prevalence
    return (history.total_prevalence.crc, last.crc, last.large,
            history.cumulative_colonoscopies)


def sort_key(history) -> tuple:
    return tuple(r.strategy.key for r in history.records)


def dominates(a, b, tol=1e-9):
    """Weak dominance of ``a`` over ``b`` with strict improvement somewhere."""
    return all(x <= y + tol for x, y in zip(a, b)) and any(
        x < y - tol for x, y in zip(a, b))


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
            prefix.append(strategy.action(node.node_id, info))
            walk(depth + 1, prefix, prob)
            prefix.pop()
        else:
            for state, p in enumerate(diagram.cpts[node.node_id][info]):
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


def selectable_loop(candidates, population) -> np.ndarray:
    """Candidate-by-candidate reference for ``phase2._selectable``: walking
    the (cancers, examinations, cost) order, a candidate is kept unless a
    kept one is <= in examinations and cost and has a smaller index."""
    cancer, col, cost = _candidate_arrays(candidates, population)
    kept = []
    for i in np.lexsort((cost, col, cancer)).tolist():
        if not any(col[k] <= col[i] and cost[k] <= cost[i] and k < i
                   for k in kept):
            kept.append(i)
    return np.array(sorted(kept), dtype=np.intp)


def remove_dominated_loop(histories):
    """Row-by-row history dominance filter with the documented output order.

    Each history is compared against every other one, kept or not, with the
    same tolerance rule as the frontier filter.
    """
    keys = np.array([dominance_key(h) for h in histories])
    tol = 1e-9
    kept = []
    for i, h in enumerate(histories):
        le = np.all(keys <= keys[i] + tol, axis=1)
        lt = np.any(keys < keys[i] - tol, axis=1)
        if not np.any(le & lt):
            kept.append(h)
    kept.sort(key=lambda h: (dominance_key(h), sort_key(h)))
    return kept


def nondominated_prefix(points, tol=1e-9, cells=1 << 20):
    """The all-pairs tolerance dominance mask by key-0 prefixes.

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
    psi = np.array([bundle.starting_prevalence(sex).as_tuple()])
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


def candidate_from_history(history, key, population) -> StrategyCandidate:
    return StrategyCandidate(
        key=key,
        expected_cancers=history.total_prevalence.crc * population,
        colonoscopies_per_capita=history.cumulative_colonoscopies / population,
        total_colonoscopies=history.cumulative_colonoscopies,
        total_cost=history.cumulative_cost,
    )


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
    return (psi_f.crc * wf + psi_m.crc * wm) / (wf + wm)


def histories_rows(histories, keys, cutoffs) -> list:
    rows = []
    for i, (hist, key) in enumerate(zip(histories, keys)):
        cells, floats = [], []
        for rec in hist.records:
            s = rec.strategy
            cells += [
                cutoffs[s.rules[CUTOFF].rule[()]],
                "yes" if s.rules[INCENTIVE].rule[()] == 1 else "no",
                "yes" if s.rules[INVITE].rule[()] == 1 else "no",
                "colonoscopy" if s.rules[EXAM].rule[(1, 1)] == 1 else "none",
            ]
            floats += rec.updated_prevalence.as_tuple()
        floats += [hist.cumulative_colonoscopies, hist.total_prevalence.crc,
                   hist.cumulative_cost]
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
    base = {sex: baseline_trajectory(bundle, sex, periods)
            for sex in (Sex.F, Sex.M)}
    for k in range(1, periods + 1):
        for sex in (Sex.F, Sex.M):
            rows.append(["baseline", "", sex.value, k,
                         base[sex][k - 1].total_prevalence.crc])
        rows.append(["baseline", "", "combined", k,
                     _combined(bundle, base[Sex.F][k - 1].total_prevalence,
                               base[Sex.M][k - 1].total_prevalence, k)])
    for case, res in enumerate(results, start=1):
        running = {
            Sex.F: running_totals(bundle, Sex.F,
                                  histories[Sex.F][res.female_index]),
            Sex.M: running_totals(bundle, Sex.M,
                                  histories[Sex.M][res.male_index])}
        for k in range(1, periods + 1):
            for sex in (Sex.F, Sex.M):
                rows.append([f"case{case}", res.budget, sex.value, k,
                             running[sex][k - 1].crc])
            rows.append([f"case{case}", res.budget, "combined", k,
                         _combined(bundle, running[Sex.F][k - 1],
                                   running[Sex.M][k - 1], k)])
    return rows


def object_pipeline(argv, out) -> None:
    """The six outputs of ``screenopt pipeline argv --out out``, with the
    keys, candidates, histories, policy and series rows built one
    ``StrategyHistory`` (and one record) at a time. The manifest and
    selection writers, and the CSV framing, are the program's own."""
    args = cli.build_parser().parse_args(
        ["pipeline", *argv, "--out", str(out)])
    bundle, _, _, digest = cli._load(args)
    budgets = cli._parse_budgets(args.budgets)
    periods = args.periods if args.periods is not None else bundle.periods
    tables = run_phase1(bundle, budget=max(budgets), periods=periods,
                        objective_mask=cli._mask(args))
    histories = {sex: list(table) for sex, table in tables.items()}
    cutoffs = bundle.effective_cutoffs()
    keys = {sex: cli._unique_keys([history_key(h, cutoffs) for h in hs])
            for sex, hs in histories.items()}
    pop = {sex: bundle.total_population(sex, periods=periods)
           for sex in (Sex.F, Sex.M)}
    candidates = {sex: tuple(candidate_from_history(h, key, pop[sex])
                             for h, key in zip(histories[sex], keys[sex]))
                  for sex in (Sex.F, Sex.M)}
    problem = SelectionProblem(
        female=candidates[Sex.F], male=candidates[Sex.M],
        population_female=pop[Sex.F], population_male=pop[Sex.M],
        budget=max(budgets))
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
    cli._write_selection(out, digest, results, keys, problem)
    cli._write_csv(out / "policy_table.csv", digest,
                   ["case", "budget", "sex"]
                   + [f"age_{Segment(Sex.F, k).age}"
                      for k in range(1, periods + 1)],
                   policy_rows(results, histories, cutoffs))
    cli._write_csv(out / "prevalence_series.csv", digest,
                   ("case", "budget", "sex", "round",
                    "total_cancer_prevalence"),
                   series_rows(bundle, results, histories, periods))
