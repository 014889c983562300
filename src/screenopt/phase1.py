"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order and holds each
period's histories as one :class:`HistoryTable`: columns of parent rows,
strategy indices, objectives, prevalences and running accounting, with no
per-history objects. Period 1 solves the segment problem at the starting
prevalence. Every later period builds its segment once, groups its
strategies into classes that are equal at every prevalence (the objectives
are linear in it), evaluates one representative per class at every
surviving history's updated prevalence in one batched, bit-exact pass over
the segment's live paths, and filters all the histories' frontiers in one
batch; each history is extended by every strategy on its frontier.
Between periods the bowel-state distribution moves by the
detection-and-progression recurrences: detected fractions are removed
(treated participants return to the normal state), remaining abnormal mass
progresses along the adenoma-carcinoma sequence, and the normal state
absorbs the residual. Histories whose cumulative expected colonoscopies
(scaled by cohort size) exceed the budget are discarded, and the survivors
are filtered by dominance on (total cancer prevalence, next-period cancer
prevalence, next-period large-growth prevalence, cumulative colonoscopies).
The recurrences run on the table's columns with the float operations of
the scalar functions, so every value has the scalar code's bits.
``run_phase1`` returns each sex's last table: phase 2 and the CLI read its
columns and walk its rows' ancestors (:meth:`HistoryTable.lineage`), and
only tests and the benchmark tracer read rows as :class:`StrategyHistory`
objects.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

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
    check_prevalence_rows,
    fixed_decision_rules,
    prevalence_cpts,
    prevalence_tables,
)

HISTORY_CAP = 10**6
#: The objectives the recurrences read, in the column order of ``found``.
DETECTIONS = ("benign_found", "large_found", "crc_found")


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


def update_prevalence_rows(psi: np.ndarray, found: np.ndarray,
                           rates: TransitionRates) -> np.ndarray:
    """:func:`update_prevalences` of every row: ``psi`` is (N x 4) in state
    order and ``found`` (N x 3) holds the benign, large and cancer
    detections. Same checks, same float operations in the same order."""
    for column, state in enumerate(("benign", "large", "crc")):
        detected, prevalence = found[:, column], psi[:, column + 1]
        if np.any(detected < -DETECTION_TOL):
            raise ValueError(f"negative detected fraction for {state}")
        over = np.flatnonzero(detected > prevalence + DETECTION_TOL)
        if over.size:
            i = over[0]
            raise ValueError(
                f"detected fraction {float(detected[i])!r} exceeds prevalence "
                f"{float(prevalence[i])!r} for {state}")
    normal, benign, large, crc = psi.T
    found_benign, found_large, found_crc = found.T
    benign_out = ((benign - found_benign) * (1.0 - rates.benign_to_large)
                  + normal * rates.normal_to_benign)
    large_out = ((large - found_large) * (1.0 - rates.large_to_crc)
                 + (benign - found_benign) * rates.benign_to_large)
    crc_out = crc - found_crc + (large - found_large) * rates.large_to_crc
    normal_out = 1.0 - benign_out - large_out - crc_out
    out = np.stack([normal_out, benign_out, large_out, crc_out], axis=1)
    check_prevalence_rows(out)
    return out


def combined_total_rows(previous: np.ndarray, previous_weight: float,
                        psi: np.ndarray, weight: float) -> np.ndarray:
    """:func:`combined_total_prevalence` of every row of (N x 4) arrays,
    with a previous total."""
    total = previous_weight + weight
    out = (previous * previous_weight + psi * weight) / total
    check_prevalence_rows(out)
    return out


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


@dataclass(frozen=True, eq=False, repr=False)
class HistoryTable(Sequence):
    """One period's strategy histories of one sex, one row per history.

    Row i extends row ``parent_row[i]`` of ``parent``, the previous
    period's table, by ``strategies[strategy[i]]``; at period 1 ``parent``
    is None and every row extends the empty history at ``start``. The
    other columns are that period's reported objectives (rows x
    objectives, per invitee), the updated and the population-weighted
    total prevalence (rows x 4, state order), and the cumulative
    colonoscopies and cost (cohort-scaled). ``weight`` is the cohort size
    summed over periods 1..``period``.

    As a sequence the table is read-only: reading a row builds its
    :class:`StrategyHistory` by walking the parent rows, and rows read
    together share the records of their common ancestors. The program
    reads columns and :meth:`lineage` instead; only tests and the
    benchmark tracer build these objects.
    """

    sex: Sex
    period: int
    weight: float
    start: PrevalenceVector
    strategies: tuple[GlobalStrategy, ...]
    names: tuple[str, ...]
    orientations: tuple[str, ...]
    parent: HistoryTable | None
    parent_row: np.ndarray
    strategy: np.ndarray
    reported: np.ndarray
    updated: np.ndarray
    total: np.ndarray
    colonoscopies: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.strategy)

    def __getitem__(self, index: int) -> StrategyHistory:
        return self._histories([range(len(self))[index]])[0]

    def __iter__(self):
        return iter(self._histories(range(len(self))))

    def take(self, rows: np.ndarray) -> HistoryTable:
        """The table of the given rows, in that order."""
        return dataclasses.replace(
            self, parent_row=self.parent_row[rows],
            strategy=self.strategy[rows], reported=self.reported[rows],
            updated=self.updated[rows], total=self.total[rows],
            colonoscopies=self.colonoscopies[rows], cost=self.cost[rows])

    def dominance_keys(self) -> np.ndarray:
        """(rows x 4), all minimized: total cancer, next-start cancer,
        next-start large growths, cumulative colonoscopies."""
        return np.stack([self.total[:, 3], self.updated[:, 3],
                         self.updated[:, 2], self.colonoscopies], axis=1)

    def key_ranks(self) -> list[np.ndarray]:
        """Per period, period 1 first: the rank of each row's strategy key
        among that period's strategies. A period's strategies have
        distinct keys, so comparing the ranks compares the keys."""
        ranks = []
        for table, rows in self.lineage(np.arange(len(self))):
            by_key = sorted(range(len(table.strategies)),
                            key=lambda s: table.strategies[s].key)
            rank = np.empty(len(by_key), dtype=np.intp)
            rank[by_key] = np.arange(len(by_key))
            ranks.append(rank[table.strategy[rows]])
        return ranks

    def lineage(self, rows: np.ndarray) -> list[tuple[HistoryTable,
                                                      np.ndarray]]:
        """Per period, period 1 first: that period's table and, for each of
        ``rows``, the row of its ancestor there (at this period, itself)."""
        chain = []
        table = self
        while table is not None:
            chain.append((table, rows))
            table, rows = table.parent, table.parent_row[rows]
        return chain[::-1]

    def _records(self, rows) -> dict[int, tuple[PeriodRecord, ...]]:
        """The record chain of each of ``rows``, ancestors shared."""
        wanted = sorted(set(rows))
        parents = self.parent_row[wanted].tolist()
        before = ({} if self.parent is None
                  else self.parent._records(parents))
        out = {}
        for r, p, values, s, psi in zip(
                wanted, parents, self.reported[wanted].tolist(),
                self.strategy[wanted].tolist(),
                self.updated[wanted].tolist()):
            prefix = before.get(p, ())
            out[r] = prefix + (PeriodRecord(
                period=self.period,
                strategy=self.strategies[s],
                objectives=ObjectiveVector(tuple(values), self.orientations,
                                           self.names),
                start_prevalence=(prefix[-1].updated_prevalence if prefix
                                  else self.start),
                updated_prevalence=PrevalenceVector(*psi)),)
        return out

    def _histories(self, rows) -> list[StrategyHistory]:
        rows = list(rows)
        records = self._records(rows)
        return [
            StrategyHistory(sex=self.sex, records=records[r],
                            cumulative_colonoscopies=col,
                            cumulative_cost=cost,
                            total_prevalence=PrevalenceVector(*total))
            for r, col, cost, total in zip(
                rows, self.colonoscopies[rows].tolist(),
                self.cost[rows].tolist(), self.total[rows].tolist())]


def remove_dominated(histories: HistoryTable) -> HistoryTable:
    """Drop strictly dominated histories; exact-tied keys are all kept.

    Dominance is componentwise weak improvement with a strict improvement in
    at least one key (tolerance as in the frontier module). Output order is
    deterministic: sorted by dominance key, then by the strategy keys of
    periods 1, 2, ...
    """
    keys = histories.dominance_keys()
    kept = np.flatnonzero(nondominated(keys, DOMINANCE_TOL))
    ranks = [rank[kept] for rank in histories.key_ranks()]
    order = np.lexsort(ranks[::-1] + list(keys[kept].T[::-1]))
    return histories.take(kept[order])


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
               history_cap: int = HISTORY_CAP) -> dict[Sex, HistoryTable]:
    """Per-sex nondominated strategy histories under a colonoscopy budget,
    as each sex's last-period table.

    The budget is an absolute expected-examination count over all periods;
    per-invitee expectations are scaled by the cohort sizes before they are
    compared against it. Every returned history satisfies the budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    K = periods if periods is not None else params.periods
    if not (1 <= K <= params.periods):
        raise ValueError(f"periods must be within 1..{params.periods}")

    out: dict[Sex, HistoryTable] = {}
    for sex in (Sex.F, Sex.M):
        table = _extend_period(params, sex, 1, None, budget, objective_mask,
                               cross_check, history_cap)
        for k in range(2, K + 1):
            table = remove_dominated(_extend_period(
                params, sex, k, table, budget, objective_mask, cross_check,
                history_cap))
        out[sex] = table
    return out


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
    values = problem.evaluator.objective_matrix(
        fixed=problem.fixed, cpts=prevalence_tables(params, np.eye(4)))
    return np.moveaxis(values, 0, 2)


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


def _first_frontier(params, segment, psi, objective_mask, cross_check):
    """Period 1: the frontier of :func:`segment_frontier`, as
    (strategies, names, orientations, reported (1 x points x objectives),
    frontier rows)."""
    points = segment_frontier(params, segment, psi, objective_mask,
                              cross_check).points
    objectives = points[0].objectives
    return (tuple(p.strategy for p in points), objectives.names,
            objectives.orientations,
            np.array([[p.objectives.values for p in points]]),
            [np.arange(len(points))])


def _batched_frontiers(params, segment, starts, objective_mask, cross_check):
    """Later periods: the frontier of every start prevalence (rows of the
    (starts x 4) array ``starts``), as (class representatives, names,
    orientations, reported (starts x classes x objectives), frontier rows
    per start).

    The segment's problem is built once here and released when the period
    is done. Its strategies fall into a few classes that are equal at every
    prevalence (:func:`strategy_classes`), so one batched evaluation gives
    the class representatives at every start, with the bits of each
    start's full objective matrix, and one batched filter gives every
    start's frontier: the frontier of :func:`segment_frontier`.
    ``cross_check`` compares every start's rows with the dense evaluation
    and its frontier with :func:`segment_frontier`.
    """
    label = f"for sex={segment.sex.value} period={segment.period}"
    base = segment_problem(params, segment, PrevalenceVector(*starts[0]),
                           objective_mask)
    reps, class_of = strategy_classes(vertex_values(params, base))
    # The base problem holds every strategy at the first start, which
    # checks the classes there for free.
    if np.any(np.abs(base.reported - base.reported[reps[class_of]])
              > DOMINANCE_TOL):
        raise OracleMismatchError(
            f"a strategy differs from its class representative {label}")
    reported = base.evaluator.objective_matrix(
        fixed=base.fixed, cpts=prevalence_tables(params, starts),
        strategies=reps)
    frontiers = frontier_rows(base.minimize(reported))
    strategies = tuple(base.strategy(r) for r in reps.tolist())
    if cross_check:
        for h, row in enumerate(starts.tolist()):
            psi = PrevalenceVector(*row)
            dense = base.evaluator.dense_objective_matrix(
                fixed=base.fixed, cpts=prevalence_cpts(params, psi))
            if not np.array_equal(reported[h], dense[reps]):
                raise OracleMismatchError(
                    f"batched evaluation differs from the dense evaluation "
                    f"of history {h} {label}")
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
    return strategies, base.names, base.orientations, reported, frontiers


def _extend_period(params, sex, k, previous, budget, objective_mask,
                   cross_check, history_cap) -> HistoryTable:
    """Every history of ``previous`` (at period 1, the empty history)
    extended by every frontier point of period ``k``, within the budget.

    The budget is applied, and from period 2 on ``history_cap`` checked, on
    the arrays before the table is filled.
    """
    segment = Segment(sex, k)
    if previous is None:
        start = params.starting_prevalence(sex)
        starts = np.array([start.as_tuple()])
        before_col = before_cost = np.zeros(1)
        strategies, names, orientations, reported, frontiers = \
            _first_frontier(params, segment, start, objective_mask,
                            cross_check)
    else:
        start, starts = previous.start, previous.updated
        before_col, before_cost = previous.colonoscopies, previous.cost
        strategies, names, orientations, reported, frontiers = \
            _batched_frontiers(params, segment, starts, objective_mask,
                               cross_check)

    cohort = params.cohort_size(segment)
    col = before_col[:, None] + \
        -reported[:, :, names.index("colonoscopy")] * cohort
    within = col <= budget + BUDGET_TOL
    frontiers = [rows[within[h, rows]] for h, rows in enumerate(frontiers)]
    count = sum(len(rows) for rows in frontiers)
    if previous is not None and count > history_cap:
        raise CapacityError(
            f"{count} histories at period {k} exceed the cap of {history_cap}")
    if not count:
        raise InfeasibleBudgetError(
            f"budget {budget} removes every period-1 strategy for "
            f"sex={sex.value}" if previous is None else
            f"budget {budget} removes every history at period {k} for "
            f"sex={sex.value}")

    parent = np.repeat(np.arange(len(frontiers)),
                       [len(rows) for rows in frontiers])
    strategy = np.concatenate(frontiers)
    values = reported[parent, strategy]
    updated = update_prevalence_rows(
        starts[parent], values[:, [names.index(n) for n in DETECTIONS]],
        params.transition(segment))
    if previous is None:
        total, weight = updated, cohort
    else:
        total = combined_total_rows(previous.total[parent], previous.weight,
                                    updated, cohort)
        weight = previous.weight + cohort
    return HistoryTable(
        sex=sex, period=k, weight=weight, start=start, strategies=strategies,
        names=names, orientations=orientations, parent=previous,
        parent_row=parent, strategy=strategy, reported=values,
        updated=updated, total=total, colonoscopies=col[parent, strategy],
        cost=before_cost[parent] + values[:, names.index("cost")] * cohort)


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
