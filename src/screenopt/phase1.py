"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order. Period 1 solves
the segment problem at the starting prevalence; every later period re-solves
it at each surviving history's updated prevalence and extends the history by
every frontier strategy. Between periods the bowel-state distribution moves
by the detection-and-progression recurrences: detected fractions are removed
(treated participants return to the normal state), remaining abnormal mass
progresses along the adenoma-carcinoma sequence, and the normal state absorbs
the residual. Histories whose cumulative expected colonoscopies (scaled by
cohort size) exceed the budget are discarded, and the survivors are filtered
by dominance on (total cancer prevalence, next-period cancer prevalence,
next-period large-growth prevalence, cumulative colonoscopies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import GlobalStrategy, ObjectiveVector
from .errors import CapacityError, InfeasibleBudgetError, OracleMismatchError
from .pareto import (
    DOMINANCE_TOL,
    DiagramProblem,
    FrontierPoint,
    ParetoFrontier,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
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

DETECTION_TOL = 1e-9
BUDGET_TOL = 1e-9
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
                                  objective_mask, cross_check)
        if not extended:
            raise InfeasibleBudgetError(
                f"budget {budget} removes every history at period {k} for "
                f"sex={sex.value}")
        if len(extended) > history_cap:
            raise CapacityError(
                f"{len(extended)} histories at period {k} exceed the cap "
                f"of {history_cap}")
        histories = remove_dominated(extended)
        weight += params.cohort_size(Segment(sex, k))
    return histories


def _extend_period(params, sex, k, histories, budget, weight, objective_mask,
                   cross_check) -> list[StrategyHistory]:
    """Every history extended by every frontier point of period ``k``,
    within the budget.

    The segment's problem is built once here and re-weighted per history,
    since only its prevalence-dependent tables differ between histories; it
    is released when the period is done.
    """
    segment = Segment(sex, k)
    base = segment_problem(params, segment,
                           histories[0].last.updated_prevalence,
                           objective_mask)
    extended = []
    for hist in histories:
        start = hist.last.updated_prevalence
        frontier = segment_frontier(params, segment, start, objective_mask,
                                    cross_check, base=base)
        for point in frontier.points:
            new = _extend(params, sex, k, hist, start, point, weight)
            if new.cumulative_colonoscopies <= budget + BUDGET_TOL:
                extended.append(new)
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
