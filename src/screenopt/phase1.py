"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order and holds each
period's histories as one :class:`HistoryTable`: columns of parent rows,
strategy indices, objectives, prevalences and running accounting, with no
per-history objects. One segment diagram per run, women's period 1, gives
the evaluator of every segment, as segments differ only in chance tables;
each period evaluates its ``segment_tables`` arrays once, at the first
history's prevalence and the four simplex vertices. A history's objectives
are its classes' vertex sum; one mask holds every frontier.

Linearity lemma: the start prevalence psi enters a segment only through
the test-result and examination-result tables, and the positive-test
probability, linear in psi, cancels the examination posterior's
denominator; so every objective is ``f(psi) = sum_v psi_v f(e_v)``. The
vertex sum and an evaluation at psi each round within a few epsilons of
``sum_v psi_v |f(e_v)|`` (under 4, measured on the shipped and the
6-period documents); every period certifies ``LINEARITY_TOL``, 64.

Between periods the bowel-state distribution moves by the
detection-and-progression recurrences: detected fractions are removed
(treated participants return to the normal state), remaining abnormal mass
progresses along the adenoma-carcinoma sequence, and the normal state
absorbs the residual. Histories whose cumulative expected colonoscopies
(scaled by cohort size) exceed the budget are discarded, and the survivors
are filtered by exact dominance (the frontier module's ``skyline``
kernel) on (total cancer prevalence, next-period cancer prevalence,
next-period large-growth prevalence, cumulative colonoscopies).
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
    LINEARITY_TOL,
    GlobalStrategy,
    ObjectiveVector,
    StrategyEvaluator,
)
from .errors import CapacityError, InfeasibleBudgetError, OracleMismatchError
from .pareto import (
    EnumeratedProblem,
    ParetoFrontier,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    frontier_rows,
    nondominated,
    skyline,
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
    segment_tables,
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
class HistoryTable:
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

    Read as a sequence (``len``, indexing, iteration), rows build their
    :class:`StrategyHistory` objects in one pass over :meth:`lineage`, the
    only walk of the parent rows, and rows read together share their common
    ancestors' records. Only tests and the benchmark tracer build these
    objects; the program reads columns and :meth:`lineage`.
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

    def _histories(self, rows) -> list[StrategyHistory]:
        """Each of ``rows`` as a history, in one pass over :meth:`lineage`
        that builds a period's record once per ancestor row there."""
        rows = np.asarray(rows, dtype=np.intp)
        chains = [()] * len(rows)
        for table, at in self.lineage(rows):
            wanted, first, inverse = np.unique(at, return_index=True,
                                               return_inverse=True)
            made = [PeriodRecord(
                period=table.period,
                strategy=table.strategies[s],
                objectives=ObjectiveVector(tuple(values), table.orientations,
                                           table.names),
                start_prevalence=(chains[i][-1].updated_prevalence
                                  if chains[i] else table.start),
                updated_prevalence=PrevalenceVector(*psi))
                for i, s, values, psi in zip(
                    first.tolist(), table.strategy[wanted].tolist(),
                    table.reported[wanted].tolist(),
                    table.updated[wanted].tolist())]
            chains = [chain + (made[j],)
                      for chain, j in zip(chains, inverse.tolist())]
        return [
            StrategyHistory(sex=self.sex, records=chain,
                            cumulative_colonoscopies=col,
                            cumulative_cost=cost,
                            total_prevalence=PrevalenceVector(*total))
            for chain, col, cost, total in zip(
                chains, self.colonoscopies[rows].tolist(),
                self.cost[rows].tolist(), self.total[rows].tolist())]


def remove_dominated(histories: HistoryTable,
                     cross_check: bool = False) -> HistoryTable:
    """Drop dominated histories; exact-tied keys are all kept.

    The rule is exact: history j dominates history i when its keys are at
    most i's in every key and below them in one, compared as floats with no
    tolerance (:func:`~screenopt.pareto.skyline`). ``cross_check`` compares
    that mask with the all-pairs filter of the same rule. Output order is
    deterministic: sorted by dominance key, then by the strategy keys of
    periods 1, 2, ... (each period's ``strategy`` column ascends with them).
    """
    keys = histories.dominance_keys()
    mask = skyline(keys)
    if cross_check and not np.array_equal(mask, nondominated(keys)):
        raise OracleMismatchError(
            f"history pruning differs from the all-pairs filter for "
            f"sex={histories.sex.value} period={histories.period}")
    kept = np.flatnonzero(mask)
    strategies = [t.strategy[r] for t, r in histories.lineage(kept)]
    order = np.lexsort(strategies[::-1] + list(keys[kept].T[::-1]))
    return histories.take(kept[order])


def segment_frontier(params: ParameterBundle, segment: Segment,
                     psi: PrevalenceVector,
                     objective_mask: Sequence[str] | None = None,
                     cross_check: bool = False) -> ParetoFrontier:
    """Frontier of one segment's diagram problem at prevalence ``psi``
    (``frontier.problem``): the ``segment`` command, and the run-start
    solve whose evaluator a pipeline run evaluates every segment through.
    ``cross_check`` verifies it (:func:`checked_frontier`)."""
    problem = diagram_problem(build_segment_diagram(segment, params, psi),
                              objective_mask, fixed_decision_rules(params))
    return checked_frontier(
        problem, cross_check,
        f"for sex={segment.sex.value} period={segment.period}")


def checked_frontier(problem: EnumeratedProblem, cross_check: bool,
                     label: str) -> ParetoFrontier:
    """Frontier of ``problem``; ``cross_check`` verifies it against the
    brute-force filter and the box search, a mismatch naming ``label``."""
    frontier = compute_frontier(problem)
    if cross_check:
        got = frontier.vectors()
        for name, reference in (("brute-force", brute_force_frontier),
                                ("box-search", box_search_frontier)):
            if not np.array_equal(got, reference(problem).vectors()):
                raise OracleMismatchError(
                    f"frontier mismatch against the {name} reference {label}")
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

    A history is extended only by its segment frontier over the objectives
    of ``objective_mask``. Masking out ``benign_found`` or ``large_found``
    stops those detections from steering the extension, though they still
    drive the prevalence updates, so the run is exact for the masked
    problem only. Every period is evaluated from :func:`segment_tables`
    arrays through the evaluator of one :func:`segment_frontier` solve
    (women, period 1), whose matrix those arrays must reproduce exactly.
    """
    if np.isnan(budget):
        raise ValueError("budget must not be NaN")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    K = periods if periods is not None else params.periods
    if not (1 <= K <= params.periods):
        raise ValueError(f"periods must be within 1..{params.periods}")

    segment, psi = Segment(Sex.F, 1), params.starting_prevalence(Sex.F)
    base = segment_frontier(params, segment, psi, objective_mask).problem
    if not np.array_equal(base.evaluator.objective_matrix(segment_tables(
            params, segment, np.array([psi.as_tuple()])))[0], base.reported):
        raise OracleMismatchError(
            "the array path differs from the diagram for sex=F period=1")
    out: dict[Sex, HistoryTable] = {}
    for sex in (Sex.F, Sex.M):
        table = None
        for k in range(1, K + 1):
            table = _extend_period(params, sex, k, table, budget, cross_check,
                                   base)
            if k > 1:
                table = remove_dominated(table, cross_check)
        out[sex] = table
    return out


def period_values(params: ParameterBundle, segment: Segment,
                  evaluator: StrategyEvaluator, start: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every strategy's reported objectives in ``segment``, from one
    evaluation of its chance tables through ``evaluator``: at prevalence
    ``start`` (strategies x objectives), and at the four simplex vertices
    (strategies x objectives x vertices), whose :func:`vertex_sum` at psi
    is, by the linearity lemma, their value there."""
    matrices = evaluator.objective_matrix(
        segment_tables(params, segment, np.vstack([start, np.eye(4)])))
    return matrices[0], np.moveaxis(matrices[1:], 0, 2)


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


def vertex_sum(psi: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``((psi_0 V_0 + psi_1 V_1) + psi_2 V_2) + psi_3 V_3`` per row of
    ``psi``, (rows,) + ``values.shape[:-1]`` with ``V_v = values[..., v]``:
    elementwise, in that order, so no BLAS build changes its bits."""
    out = psi[:, 0, None, None] * values[..., 0]
    for v in range(1, values.shape[-1]):
        out += psi[:, v, None, None] * values[..., v]
    return out


def _extend_period(params, sex, k, previous, budget, cross_check, base):
    """Every history of ``previous`` (at period 1, the empty history)
    extended by every frontier point of period ``k``, within the budget.

    :func:`period_values` through ``base``'s evaluator gives the first
    start's full-space problem, numbered as ``base``, and every history's
    objectives as its :func:`strategy_classes` representatives' vertex
    sums; one :func:`frontier_rows` pass gives every frontier. Every run
    certifies the sums at the first start: each strategy within
    ``LINEARITY_TOL`` of its class's sum, and the full-space frontier's
    candidates, in order, with values within it. ``cross_check`` compares
    every history's rows with the dense evaluation and its frontier with
    its own :func:`checked_frontier`. The budget then clears mask bits; the
    set bits, row-major, are the table's rows, by parent and then in
    frontier order.
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

    def full_space_frontier(reported):
        return checked_frontier(EnumeratedProblem(
            reported, base.orientations, base.names, base.active),
            cross_check, label)

    at_start, vertex = period_values(params, segment, base.evaluator,
                                     starts[0])
    first = full_space_frontier(at_start)
    reps, class_of = strategy_classes(vertex)
    vertex = vertex[reps]
    reported = vertex_sum(starts, vertex)
    rows, keep = frontier_rows(base.minimize(reported))

    def linear(h, classes, exact):
        # Whether ``exact`` is within the bound of h's sums of ``classes``.
        scale = vertex_sum(np.abs(starts[[h]]), np.abs(vertex[classes]))[0]
        return np.all(np.abs(reported[h, classes] - exact)
                      <= LINEARITY_TOL * scale)

    def check(h, frontier):
        got = rows[h, keep[h]]
        if not (np.array_equal(reps[got], frontier.candidates) and linear(
                h, got, frontier.problem.reported[frontier.candidates])):
            raise OracleMismatchError(
                f"vertex-sum frontier differs from the full-space frontier "
                f"of history {h} {label}")

    if not linear(0, class_of, at_start):
        raise OracleMismatchError(
            f"a strategy differs from its class's vertex sum {label}")
    check(0, first)
    if cross_check:
        for h in range(len(starts)):
            tables = segment_tables(params, segment, starts[[h]])
            dense = base.evaluator.dense_objective_matrix(tables)
            if not linear(h, np.arange(len(reps)), dense[0, reps]):
                raise OracleMismatchError(
                    f"vertex sum differs from the dense evaluation of "
                    f"history {h} {label}")
            if h:
                check(h, full_space_frontier(
                    base.evaluator.objective_matrix(tables)[0]))

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
        cost=before_cost[parent] + values[:, names.index("cost")] * cohort)


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
