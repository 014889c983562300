"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order. Period 1 solves
the segment problem at the starting prevalence. Every later period builds
its segment once, groups its strategies into classes that are equal at
every prevalence (the objectives are linear in it), evaluates one
representative per class at each surviving history's updated prevalence,
and filters all the histories' frontiers in one batch; each history is
extended by every strategy on its frontier. Between periods the
bowel-state distribution moves by the detection-and-progression
recurrences: detected fractions are removed (treated participants return
to the normal state), remaining abnormal mass progresses along the
adenoma-carcinoma sequence, and the normal state absorbs the residual.
Histories whose cumulative expected colonoscopies (scaled by cohort size)
exceed the budget are discarded, and the survivors are filtered by
dominance on (total cancer prevalence, next-period cancer prevalence,
next-period large-growth prevalence, cumulative colonoscopies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import (
    BUDGET_TOL,
    DETECTION_TOL,
    DOMINANCE_TOL,
    GlobalStrategy,
    ObjectiveVector,
)
from .errors import CapacityError, InfeasibleBudgetError, OracleMismatchError
from .pareto import (
    DiagramProblem,
    FrontierPoint,
    ParetoFrontier,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    frontier_rows,
    nondominated,
)
from .screening import (
    CUTOFF,
    EXAM,
    INCENTIVE,
    INVITE,
    ParameterBundle,
    PrevalenceVector,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    fixed_decision_rules,
    prevalence_cpts,
)

HISTORY_CAP = 10**6


@dataclass(frozen=True)
class DetectedFractions:
    """Expected population fraction found (and treated) in each abnormal state."""

    benign: float
    large: float
    crc: float


def update_prevalences(psi: PrevalenceVector, found: DetectedFractions,
                       rates: TransitionRates) -> PrevalenceVector:
    """One detection-and-progression step of the prevalence recurrences.

    Raises ``ValueError`` when a detected fraction exceeds its prevalence,
    which signals inconsistent inputs.
    """
    for state, detected in (("benign", found.benign), ("large", found.large),
                            ("crc", found.crc)):
        if detected < -DETECTION_TOL:
            raise ValueError(f"negative detected fraction for {state}")
        if detected > psi.of_name(state) + DETECTION_TOL:
            raise ValueError(
                f"detected fraction {detected!r} exceeds prevalence "
                f"{psi.of_name(state)!r} for {state}")

    benign = ((psi.benign - found.benign) * (1.0 - rates.benign_to_large)
              + psi.normal * rates.normal_to_benign)
    large = ((psi.large - found.large) * (1.0 - rates.large_to_crc)
             + (psi.benign - found.benign) * rates.benign_to_large)
    crc = (psi.crc - found.crc
           + (psi.large - found.large) * rates.large_to_crc)
    normal = 1.0 - benign - large - crc
    return PrevalenceVector(normal=normal, benign=benign, large=large, crc=crc)


def natural_progression_rollout(psi0: PrevalenceVector,
                                rates: Sequence[TransitionRates],
                                periods: int | None = None
                                ) -> list[PrevalenceVector]:
    """Prevalence trajectory with no screening: [start, after period 1, ...]."""
    if periods is None:
        periods = len(rates)
    if periods > len(rates):
        raise ValueError(f"only {len(rates)} transition rows available")
    none_found = DetectedFractions(0.0, 0.0, 0.0)
    out = [psi0]
    for k in range(periods):
        out.append(update_prevalences(out[-1], none_found, rates[k]))
    return out


def detected_fractions_of(point: FrontierPoint) -> DetectedFractions:
    """Read the three detection objectives off a frontier point."""
    return DetectedFractions(
        benign=point.objectives.by_name("benign_found"),
        large=point.objectives.by_name("large_found"),
        crc=point.objectives.by_name("crc_found"),
    )


def colonoscopies_of(point: FrontierPoint) -> float:
    """Expected examinations per invitee (the value node counts them as -1)."""
    return -point.objectives.by_name("colonoscopy")


def combined_total_prevalence(previous: PrevalenceVector | None,
                              previous_weight: float,
                              psi: PrevalenceVector,
                              weight: float) -> PrevalenceVector:
    """Population-size-weighted running average of prevalence vectors."""
    if previous is None:
        return psi
    total = previous_weight + weight
    return PrevalenceVector(
        normal=(previous.normal * previous_weight + psi.normal * weight) / total,
        benign=(previous.benign * previous_weight + psi.benign * weight) / total,
        large=(previous.large * previous_weight + psi.large * weight) / total,
        crc=(previous.crc * previous_weight + psi.crc * weight) / total,
    )


@dataclass(frozen=True)
class PeriodRecord:
    """One period's slice of a strategy history."""

    period: int
    strategy: GlobalStrategy
    objectives: ObjectiveVector          # per invitee, as computed
    start_prevalence: PrevalenceVector
    updated_prevalence: PrevalenceVector  # post screening + two-year progression


@dataclass(frozen=True)
class StrategyHistory:
    """A chain of per-period strategies with its running accounting."""

    sex: Sex
    records: tuple[PeriodRecord, ...]
    cumulative_colonoscopies: float      # absolute count, cohort-scaled
    cumulative_cost: float               # absolute euros, cohort-scaled
    total_prevalence: PrevalenceVector   # weighted over periods so far

    @property
    def last(self) -> PeriodRecord:
        return self.records[-1]

    def dominance_key(self) -> tuple[float, float, float, float]:
        """All minimized: total cancer, next-start cancer, next-start large
        growths, cumulative colonoscopies."""
        return (self.total_prevalence.crc,
                self.last.updated_prevalence.crc,
                self.last.updated_prevalence.large,
                self.cumulative_colonoscopies)

    def sort_key(self) -> tuple:
        return tuple(r.strategy.key for r in self.records)


def remove_dominated(histories: Sequence[StrategyHistory]) -> list[StrategyHistory]:
    """Drop strictly dominated histories; exact-tied keys are all kept.

    Dominance is componentwise weak improvement with a strict improvement in
    at least one key (tolerance as in the frontier module). Output order is
    deterministic: sorted by (dominance key, strategy key).
    """
    if not histories:
        return []
    keep = nondominated(np.array([h.dominance_key() for h in histories]),
                        DOMINANCE_TOL)
    kept = [h for h, k in zip(histories, keep) if k]
    kept.sort(key=lambda h: (h.dominance_key(), h.sort_key()))
    return kept


def policy_cell(strategy: GlobalStrategy, cutoffs: Sequence[str]) -> str:
    """Table cell for one period: cut-off label, "+i" when incentivized,
    "-" when not invited, "+noexam" when a positive test is not examined."""
    if strategy.rules[INVITE].rule[()] == 0:
        return "-"
    cell = cutoffs[strategy.rules[CUTOFF].rule[()]]
    if strategy.rules[INCENTIVE].rule[()] == 1:
        cell += "+i"
    if strategy.rules[EXAM].rule[(1, 1)] == 0:
        cell += "+noexam"
    return cell


def history_key(history: StrategyHistory, cutoffs: Sequence[str]) -> str:
    return "|".join(policy_cell(r.strategy, cutoffs) for r in history.records)


def segment_problem(params: ParameterBundle, segment: Segment,
                    psi: PrevalenceVector,
                    objective_mask: Sequence[str] | None = None):
    """Enumerated multi-objective problem for one segment at prevalence ``psi``."""
    diagram = build_segment_diagram(segment, params, psi)
    return diagram_problem(diagram, objective_mask=objective_mask,
                           fixed=fixed_decision_rules(params))


def solve_frontier(problem, cross_check: bool = False,
                   label: str = "") -> ParetoFrontier:
    """Frontier of one problem, optionally verified against both references:
    the brute-force dominance filter and the box search."""
    frontier = compute_frontier(problem)
    if cross_check:
        got = frontier.vectors()
        for name, reference in (("brute-force", brute_force_frontier),
                                ("box-search", box_search_frontier)):
            expected = reference(problem).vectors()
            if got.shape != expected.shape or not np.allclose(
                    got, expected, atol=DOMINANCE_TOL, rtol=0.0):
                raise OracleMismatchError(
                    f"frontier mismatch against the {name} reference "
                    f"{label}".strip())
    return frontier


def segment_frontier(params: ParameterBundle, segment: Segment,
                     psi: PrevalenceVector,
                     objective_mask: Sequence[str] | None = None,
                     cross_check: bool = False,
                     base: DiagramProblem | None = None) -> ParetoFrontier:
    """Frontier of one segment problem at prevalence ``psi``.

    ``base`` is the problem of the same segment at any prevalence; when it
    is given, only the prevalence-dependent tables are rebuilt.
    """
    if base is None:
        problem = segment_problem(params, segment, psi, objective_mask)
    else:
        problem = base.with_cpts(prevalence_cpts(params, psi))
    return solve_frontier(
        problem, cross_check,
        label=f"for sex={segment.sex.value} period={segment.period}")


def run_phase1(params: ParameterBundle, budget: float,
               periods: int | None = None,
               objective_mask: Sequence[str] | None = None,
               cross_check: bool = False,
               history_cap: int = HISTORY_CAP) -> dict[Sex, list[StrategyHistory]]:
    """Per-sex nondominated strategy histories under a colonoscopy budget.

    The budget is an absolute expected-examination count over all periods;
    per-invitee expectations are scaled by the cohort sizes before they are
    compared against it. Every returned history satisfies the budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    K = periods if periods is not None else params.periods
    if not (1 <= K <= params.periods):
        raise ValueError(f"periods must be within 1..{params.periods}")

    out: dict[Sex, list[StrategyHistory]] = {}
    for sex in (Sex.F, Sex.M):
        out[sex] = _run_sex(params, sex, budget, K, objective_mask,
                            cross_check, history_cap)
    return out


def _extend(params: ParameterBundle, sex: Sex, period: int,
            base: StrategyHistory | None, start: PrevalenceVector,
            point: FrontierPoint, weight_before: float) -> StrategyHistory:
    segment = Segment(sex, period)
    cohort = params.cohort_size(segment)
    found = detected_fractions_of(point)
    updated = update_prevalences(start, found, params.transition(segment))
    record = PeriodRecord(
        period=period,
        strategy=point.strategy,
        objectives=point.objectives,
        start_prevalence=start,
        updated_prevalence=updated,
    )
    previous_total = base.total_prevalence if base else None
    total = combined_total_prevalence(previous_total, weight_before,
                                      updated, cohort)
    col = (base.cumulative_colonoscopies if base else 0.0) + \
        colonoscopies_of(point) * cohort
    cost = (base.cumulative_cost if base else 0.0) + \
        point.objectives.by_name("cost") * cohort
    records = (base.records if base else ()) + (record,)
    return StrategyHistory(
        sex=sex,
        records=records,
        cumulative_colonoscopies=col,
        cumulative_cost=cost,
        total_prevalence=total,
    )


def _run_sex(params, sex, budget, K, objective_mask, cross_check,
             history_cap) -> list[StrategyHistory]:
    psi1 = params.starting_prevalence(sex)
    frontier = segment_frontier(params, Segment(sex, 1), psi1,
                                objective_mask, cross_check)
    histories = []
    for point in frontier.points:
        hist = _extend(params, sex, 1, None, psi1, point, 0.0)
        if hist.cumulative_colonoscopies <= budget + BUDGET_TOL:
            histories.append(hist)
    if not histories:
        raise InfeasibleBudgetError(
            f"budget {budget} removes every period-1 strategy for "
            f"sex={sex.value}")

    weight = params.cohort_size(Segment(sex, 1))
    for k in range(2, K + 1):
        extended = _extend_period(params, sex, k, histories, budget, weight,
                                  objective_mask, cross_check, history_cap)
        if not extended:
            raise InfeasibleBudgetError(
                f"budget {budget} removes every history at period {k} for "
                f"sex={sex.value}")
        histories = remove_dominated(extended)
        weight += params.cohort_size(Segment(sex, k))
    return histories


#: The four simplex vertices, one bowel state each.
VERTICES = tuple(PrevalenceVector(*row) for row in np.eye(4).tolist())


def vertex_values(params: ParameterBundle,
                  problem: DiagramProblem) -> np.ndarray:
    """Every strategy's reported objectives at the four simplex vertices,
    shape (strategies, objectives, vertices).

    The objectives are linear in the start prevalence psi (the
    positive-test probability is, and it cancels the examination
    posterior's denominator), so sum_v psi_v * values[..., v] is their
    value at psi.
    """
    return np.stack([
        problem.evaluator.objective_matrix(
            fixed=problem.fixed, cpts=prevalence_cpts(params, vertex))
        for vertex in VERTICES], axis=2)


def strategy_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strategies grouped by exactly equal vertex values.

    Returns each class's representative, its smallest strategy index, in
    ascending order, and the class of every strategy. By linearity the
    members of a class are equal at every prevalence.
    """
    flat = values.reshape(len(values), -1)
    _, first, inverse = np.unique(flat, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return np.sort(first), rank[inverse.ravel()]


def _extend_period(params, sex, k, histories, budget, weight, objective_mask,
                   cross_check, history_cap) -> list[StrategyHistory]:
    """Every history extended by every frontier point of period ``k``,
    within the budget.

    The segment's problem is built once here and released when the period
    is done. Its strategies fall into a few classes that are equal at every
    prevalence (:func:`strategy_classes`), so each history evaluates only
    the class representatives, with the bits of its full objective matrix,
    and one batched filter gives every history's frontier: the frontier of
    :func:`segment_frontier`, which ``cross_check`` compares with it.
    """
    segment = Segment(sex, k)
    label = f"for sex={sex.value} period={k}"
    starts = [h.last.updated_prevalence for h in histories]
    base = segment_problem(params, segment, starts[0], objective_mask)
    reps, class_of = strategy_classes(vertex_values(params, base))
    # The base problem holds every strategy at the first history's
    # prevalence, which checks the classes there for free.
    if np.any(np.abs(base.reported - base.reported[reps[class_of]])
              > DOMINANCE_TOL):
        raise OracleMismatchError(
            f"a strategy differs from its class representative {label}")
    reported = np.stack([
        base.evaluator.objective_matrix(
            fixed=base.fixed, cpts=prevalence_cpts(params, psi),
            strategies=reps)
        for psi in starts])
    minimized = base.minimize(reported)
    frontiers = frontier_rows(minimized)
    strategies = [base.strategy(r) for r in reps.tolist()]
    if cross_check:
        for h, psi in enumerate(starts):
            oracle = segment_frontier(params, segment, psi, objective_mask,
                                      cross_check=True, base=base)
            if [p.strategy.key for p in oracle.points] != \
                    [strategies[c].key for c in frontiers[h]] or \
                    not np.array_equal([p.objectives.values
                                        for p in oracle.points],
                                       reported[h, frontiers[h]]):
                raise OracleMismatchError(
                    f"batched frontier differs from the per-history "
                    f"frontier of history {h} {label}")

    # The budget rule of ``_extend``, with the same float operations, so
    # the histories over the cap are counted before any is built.
    cohort = params.cohort_size(segment)
    before = np.array([h.cumulative_colonoscopies for h in histories])
    col = before[:, None] + \
        -reported[:, :, base.names.index("colonoscopy")] * cohort
    within = col <= budget + BUDGET_TOL
    frontiers = [rows[within[h, rows]] for h, rows in enumerate(frontiers)]
    count = sum(len(rows) for rows in frontiers)
    if count > history_cap:
        raise CapacityError(
            f"{count} histories at period {k} exceed the cap of {history_cap}")
    extended = []
    for h, rows in enumerate(frontiers):
        for c in rows.tolist():
            point = FrontierPoint(
                strategy=strategies[c],
                minimized=tuple(minimized[h, c].tolist()),
                objectives=ObjectiveVector(
                    values=tuple(reported[h, c].tolist()),
                    orientations=base.orientations, names=base.names))
            extended.append(_extend(params, sex, k, histories[h], starts[h],
                                    point, weight))
    return extended


@dataclass(frozen=True)
class BaselinePeriod:
    period: int
    start_prevalence: PrevalenceVector
    updated_prevalence: PrevalenceVector
    total_prevalence: PrevalenceVector


def baseline_trajectory(params: ParameterBundle, sex: Sex,
                        periods: int | None = None) -> list[BaselinePeriod]:
    """No-screening reference: the same recurrences with zero detections,
    with the same population-weighted total-prevalence bookkeeping."""
    K = periods if periods is not None else params.periods
    rollout = natural_progression_rollout(
        params.starting_prevalence(sex),
        params.transitions[sex.value], K)
    out = []
    total: PrevalenceVector | None = None
    weight = 0.0
    for k in range(1, K + 1):
        cohort = params.cohort_size(Segment(sex, k))
        total = combined_total_prevalence(total, weight, rollout[k], cohort)
        weight += cohort
        out.append(BaselinePeriod(
            period=k,
            start_prevalence=rollout[k - 1],
            updated_prevalence=rollout[k],
            total_prevalence=total,
        ))
    return out
