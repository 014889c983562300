"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order and holds each
period's histories as one :class:`HistoryTable`: columns of parent rows,
strategy indices, objectives, prevalences and running accounting, with no
per-history objects. Every period (period 1 has one, empty, history)
solves its segment once over the full strategy space at the first
history's prevalence, groups the strategies into classes that are equal at
every prevalence (the objectives are linear in it), evaluates one
representative per class at every history's start prevalence in one
batched, bit-exact pass over the live paths, and filters all the histories'
frontiers into one mask; the first must equal the full-space frontier, the
same candidate indices with the same value rows (no frontier point is
built). The budget clears bits of that mask, and each set bit extends a
history. Only the chance tables differ between segments, so one evaluator,
built by the run's first segment problem, evaluates every segment with its
own tables, densified once per segment problem; a period's histories
replace only the two prevalence-dependent ones.
Between periods the bowel-state distribution moves by the
detection-and-progression recurrences: detected fractions are removed
(treated participants return to the normal state), remaining abnormal mass
progresses along the adenoma-carcinoma sequence, and the normal state
absorbs the residual. Histories whose cumulative expected colonoscopies
(scaled by cohort size) exceed the budget are discarded, and the survivors
are filtered by dominance on (total cancer prevalence, next-period cancer
prevalence, next-period large-growth prevalence, cumulative colonoscopies).
The recurrences run on the table's columns; the no-screening rollout and
baseline run the same functions on one row.
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
    StrategyEvaluator,
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
    sorted_runs,
)
from .screening import (
    ParameterBundle,
    PrevalenceVector,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    check_prevalence_rows,
    fixed_decision_rules,
    prevalence_tables,
)

HISTORY_CAP = 10**6
#: The objectives the recurrences read, in the column order of ``found``.
DETECTIONS = ("benign_found", "large_found", "crc_found")


def natural_progression_rollout(psi0: PrevalenceVector,
                                rates: Sequence[TransitionRates],
                                periods: int | None = None
                                ) -> list[PrevalenceVector]:
    """Prevalence trajectory with no screening: [start, after period 1, ...]."""
    if periods is None:
        periods = len(rates)
    if periods > len(rates):
        raise ValueError(f"only {len(rates)} transition rows available")
    out = [psi0]
    psi = np.array([psi0.as_tuple()])
    for k in range(periods):
        psi = update_prevalence_rows(psi, np.zeros((1, 3)), rates[k])
        out.append(PrevalenceVector(*psi[0].tolist()))
    return out


def update_prevalence_rows(psi: np.ndarray, found: np.ndarray,
                           rates: TransitionRates) -> np.ndarray:
    """One detection-and-progression step of the prevalence recurrences for
    every row: ``psi`` is (N x 4) in state order and ``found`` (N x 3)
    holds the benign, large and cancer detections.

    Raises ``ValueError`` when a detected fraction is negative or exceeds
    its prevalence, which signals inconsistent inputs, or when a result
    fails the :class:`PrevalenceVector` checks.
    """
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
    """Population-size-weighted running average of the rows of two (N x 4)
    prevalence arrays, with the :class:`PrevalenceVector` checks."""
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

    ``strategies`` are the period's class representatives by ascending
    index, which on a segment diagram is ascending ``GlobalStrategy.key``
    order, so comparing ``strategy`` values compares the keys.

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
    periods 1, 2, ... (each period's ``strategy`` column ascends with them).
    """
    keys = histories.dominance_keys()
    kept = np.flatnonzero(nondominated(keys, DOMINANCE_TOL))
    strategies = [t.strategy[r] for t, r in histories.lineage(kept)]
    order = np.lexsort(strategies[::-1] + list(keys[kept].T[::-1]))
    return histories.take(kept[order])


def segment_problem(params: ParameterBundle, segment: Segment,
                    psi: PrevalenceVector,
                    objective_mask: Sequence[str] | None = None,
                    evaluator: StrategyEvaluator | None = None):
    """Enumerated multi-objective problem for one segment at prevalence
    ``psi``, evaluated through ``evaluator`` (any segment's of the same
    parameters: segments differ only in their chance tables) if given."""
    diagram = build_segment_diagram(segment, params, psi)
    return diagram_problem(diagram, objective_mask=objective_mask,
                           fixed=fixed_decision_rules(params),
                           evaluator=evaluator)


def segment_frontier(params: ParameterBundle, segment: Segment,
                     psi: PrevalenceVector,
                     objective_mask: Sequence[str] | None = None,
                     cross_check: bool = False,
                     evaluator: StrategyEvaluator | None = None
                     ) -> ParetoFrontier:
    """Frontier of one segment problem (``frontier.problem``) at prevalence
    ``psi``, evaluated through ``evaluator`` when one is given (see
    :func:`segment_problem`). The one full-space solve: the ``segment``
    command, each period's base problem and first-history check, and the
    per-history ``--cross-check`` oracle. ``cross_check`` verifies it
    against the brute-force filter and the box search."""
    problem = segment_problem(params, segment, psi, objective_mask, evaluator)
    frontier = compute_frontier(problem)
    if cross_check:
        got = frontier.vectors()
        for name, reference in (("brute-force", brute_force_frontier),
                                ("box-search", box_search_frontier)):
            expected = reference(problem).vectors()
            if got.shape != expected.shape or not np.allclose(
                    got, expected, atol=DOMINANCE_TOL, rtol=0.0):
                raise OracleMismatchError(
                    f"frontier mismatch against the {name} reference for "
                    f"sex={segment.sex.value} period={segment.period}")
    return frontier


def run_phase1(params: ParameterBundle, budget: float,
               periods: int | None = None,
               objective_mask: Sequence[str] | None = None,
               cross_check: bool = False) -> dict[Sex, HistoryTable]:
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
    evaluator = None  # built by the first segment problem, then shared
    for sex in (Sex.F, Sex.M):
        table = None
        for k in range(1, K + 1):
            table, evaluator = _extend_period(
                params, sex, k, table, budget, objective_mask, cross_check,
                evaluator)
            if k > 1:
                table = remove_dominated(table)
        out[sex] = table
    return out


def vertex_values(params: ParameterBundle,
                  problem: DiagramProblem) -> np.ndarray:
    """Every strategy's reported objectives at the four simplex vertices,
    shape (strategies, objectives, vertices).

    The objectives are linear in the start prevalence psi (the
    positive-test probability is, and it cancels the examination
    posterior's denominator), so sum_v psi_v * values[..., v] is their
    value at psi.
    """
    values = problem.objective_matrix(prevalence_tables(params, np.eye(4)))
    return np.moveaxis(values, 0, 2)


def strategy_classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strategies grouped by exactly equal vertex values.

    Returns each class's representative, its smallest strategy index, in
    ascending order, and the class of every strategy. By linearity the
    members of a class are equal at every prevalence.
    """
    order, first = sorted_runs(values.reshape(len(values), -1).T[::-1])
    reps = order[first]
    class_of = np.empty(len(order), dtype=np.intp)
    class_of[order] = np.argsort(np.argsort(reps))[np.cumsum(first) - 1]
    return np.sort(reps), class_of


def _extend_period(params, sex, k, previous, budget, objective_mask,
                   cross_check, evaluator):
    """Every history of ``previous`` (at period 1, the empty history)
    extended by every frontier point of period ``k``, within the budget,
    and the evaluator of the period's problem (``evaluator`` if given).

    :func:`segment_frontier` at the first history's start gives the base
    problem. Its strategies fall into classes equal at every prevalence
    (:func:`strategy_classes`): one batched evaluation gives the
    representatives at every start, with the bits of each start's full
    objective matrix, and one :func:`frontier_rows` pass every history's
    frontier. The first is checked against the full-space one in every
    run; ``cross_check`` checks every history's rows against the dense
    evaluation and its frontier against its own :func:`segment_frontier`.
    The budget then clears mask bits; the set bits, row-major, are the
    table's rows, by parent and then in frontier order.
    """
    segment = Segment(sex, k)
    label = f"for sex={sex.value} period={k}"
    if previous is None:
        start = params.starting_prevalence(sex)
        starts = np.array([start.as_tuple()])
        before_col = before_cost = np.zeros(1)
    else:
        start, starts = previous.start, previous.updated
        before_col, before_cost = previous.colonoscopies, previous.cost
    first = segment_frontier(params, segment, PrevalenceVector(*starts[0]),
                             objective_mask, cross_check, evaluator)
    base = first.problem
    reps, class_of = strategy_classes(vertex_values(params, base))
    # The base problem holds every strategy at the first start, which
    # checks the classes there for free.
    if np.any(np.abs(base.reported - base.reported[reps[class_of]])
              > DOMINANCE_TOL):
        raise OracleMismatchError(
            f"a strategy differs from its class representative {label}")
    reported = base.objective_matrix(prevalence_tables(params, starts),
                                     strategies=reps)
    rows, keep = frontier_rows(base.minimize(reported))

    def check(h, frontier):
        # Both sides number strategies through the same evaluator.
        got = rows[h, keep[h]]
        if not np.array_equal(reps[got], frontier.candidates) or \
                not np.array_equal(reported[h, got], frontier.problem.reported[
                    frontier.candidates]):
            raise OracleMismatchError(
                f"batched frontier differs from the full-space frontier of "
                f"history {h} {label}")

    check(0, first)
    if cross_check:
        for h in range(len(starts)):
            dense = base.dense_objective_matrix(
                prevalence_tables(params, starts[[h]]))
            if not np.array_equal(reported[h], dense[0, reps]):
                raise OracleMismatchError(
                    f"batched evaluation differs from the dense evaluation "
                    f"of history {h} {label}")
            if h:
                check(h, segment_frontier(params, segment,
                                          PrevalenceVector(*starts[h]),
                                          objective_mask, cross_check=True,
                                          evaluator=base.evaluator))

    names = base.names
    cohort = params.cohort_size(segment)
    col = before_col[:, None] + \
        -reported[:, :, names.index("colonoscopy")] * cohort
    keep &= np.take_along_axis(col <= budget + BUDGET_TOL, rows, axis=1)
    parent, position = np.nonzero(keep)
    if previous is not None and len(parent) > HISTORY_CAP:
        raise CapacityError(f"{len(parent)} histories at period {k} exceed "
                            f"the cap of {HISTORY_CAP}")
    if not len(parent):
        raise InfeasibleBudgetError(
            f"budget {budget} removes every history at period {k} for "
            f"sex={sex.value}")

    strategy = rows[parent, position]
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
        sex=sex, period=k, weight=weight, start=start,
        strategies=tuple(base.strategy(r) for r in reps.tolist()),
        names=names, orientations=base.orientations, parent=previous,
        parent_row=parent, strategy=strategy, reported=values,
        updated=updated, total=total, colonoscopies=col[parent, strategy],
        cost=before_cost[parent] + values[:, names.index("cost")] * cohort
    ), base.evaluator


@dataclass(frozen=True)
class BaselinePeriod:
    period: int
    start_prevalence: PrevalenceVector
    updated_prevalence: PrevalenceVector
    total_prevalence: PrevalenceVector


def baseline_trajectory(params: ParameterBundle, sex: Sex,
                        periods: int) -> list[BaselinePeriod]:
    """No-screening reference over ``periods`` periods: the same
    recurrences with zero detections, with the same population-weighted
    total-prevalence bookkeeping."""
    rollout = natural_progression_rollout(
        params.starting_prevalence(sex),
        params.transitions[sex.value], periods)
    out = []
    total = None
    weight = 0.0
    for k in range(1, periods + 1):
        cohort = params.cohort_size(Segment(sex, k))
        psi = np.array([rollout[k].as_tuple()])
        total = psi if total is None else \
            combined_total_rows(total, weight, psi, cohort)
        weight += cohort
        out.append(BaselinePeriod(
            period=k,
            start_prevalence=rollout[k - 1],
            updated_prevalence=rollout[k],
            total_prevalence=PrevalenceVector(*total[0].tolist()),
        ))
    return out
