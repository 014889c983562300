"""Multi-period frontier expansion over strategy histories.

For each sex the search walks screening periods in order and holds each
period's histories as one :class:`HistoryTable`: columns of parent rows,
strategy numbers, prevalences and running accounting, with no per-history
objects. One segment diagram per run, women's period 1, gives
the evaluator of every segment, as segments differ only in chance tables,
and that period's full-space frontier; each period evaluates its
``segment_tables`` arrays once, at the first history's prevalence and the
four simplex vertices. A history's objectives are its classes' vertex sum;
one mask holds every frontier. A table keeps only what the objectives
move: the detections update the prevalence, and the colonoscopies and the
cost add to the running totals.

Linearity lemma: the start prevalence psi enters a segment only through
the test-result and examination-result tables, and the positive-test
probability, linear in psi, cancels the examination posterior's
denominator; so every objective is ``f(psi) = sum_v psi_v f(e_v)``. The
vertex sum and an evaluation at psi each round within a few epsilons of
``sum_v psi_v |f(e_v)|`` (under 4, measured on the shipped and the
6-period documents); every period certifies ``LINEARITY_TOL``, 64, at its
first history, and ``--cross-check`` at every history against the dense
evaluation.

Between periods the bowel-state distribution moves by the
detection-and-progression recurrences: detected fractions are removed
(treated participants return to the normal state), remaining abnormal mass
progresses along the adenoma-carcinoma sequence, and the normal state
absorbs the residual. Histories whose cumulative expected colonoscopies
(scaled by cohort size) exceed the budget are discarded, and the survivors
are filtered by exact dominance (the frontier module's ``skyline``
kernel) on (total cancer prevalence, next-period cancer prevalence,
next-period large-growth prevalence, cumulative colonoscopies).
A prevalence is a (4,) float row in ``BowelState`` order, and many are the
rows of an (N x 4) array: the recurrences run on the table's columns, and
the no-screening rollout and baseline run the same functions on one row.
``run_phase1`` returns each sex's last table: phase 2 and the CLI read its
columns and walk its rows' ancestors (:meth:`HistoryTable.lineage`), and
only tests and the benchmark tracer read rows as :class:`StrategyHistory`
objects; only the rows read or written decode their strategy numbers.
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
    Strategy,
    StrategyEvaluator,
)
from .errors import CapacityError, InfeasibleBudgetError, OracleMismatchError
from .pareto import (
    DiagramProblem,
    EnumeratedProblem,
    ParetoFrontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    frontier_rows,
    nondominated,
    skyline,
    sorted_runs,
)
from .screening import (
    ABNORMAL,
    ParameterBundle,
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


def natural_progression_rollout(psi0: np.ndarray,
                                rates: Sequence[TransitionRates],
                                periods: int | None = None) -> np.ndarray:
    """Prevalence trajectory with no screening, (periods + 1) x 4: row k is
    the start of period k + 1, row 0 ``psi0``."""
    if periods is None:
        periods = len(rates)
    if periods > len(rates):
        raise ValueError(f"only {len(rates)} transition rows available")
    out = np.empty((periods + 1, 4))
    out[0] = psi0
    check_prevalence_rows(out[:1])
    for k in range(periods):
        out[k + 1] = update_prevalence_rows(out[None, k], np.zeros((1, 3)),
                                            rates[k])[0]
    return out


def update_prevalence_rows(psi: np.ndarray, found: np.ndarray,
                           rates: TransitionRates) -> np.ndarray:
    """One detection-and-progression step of the prevalence recurrences for
    every row: ``psi`` is (N x 4) in state order and ``found`` (N x 3)
    holds the benign, large and cancer detections.

    Raises ``ValueError`` when a detected fraction is negative or exceeds
    its prevalence, which signals inconsistent inputs, or when a result
    fails ``check_prevalence_rows``.
    """
    for column, state in enumerate(s.value for s in ABNORMAL):
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
    prevalence arrays, checked as every prevalence is."""
    total = previous_weight + weight
    out = (previous * previous_weight + psi * weight) / total
    check_prevalence_rows(out)
    return out


@dataclass(frozen=True)
class PeriodRecord:
    """One period's slice of a strategy history. Its start prevalence is
    the previous record's ``updated_prevalence``, or at period 1 the sex's
    starting prevalence."""

    period: int
    strategy: Strategy
    updated_prevalence: np.ndarray       # after screening and progression


@dataclass(frozen=True)
class StrategyHistory:
    """A chain of per-period strategies with its running accounting."""

    sex: Sex
    records: tuple[PeriodRecord, ...]
    cumulative_colonoscopies: float      # absolute count, cohort-scaled
    cumulative_cost: float               # absolute euros, cohort-scaled
    total_prevalence: np.ndarray         # weighted over periods so far


@dataclass(frozen=True, eq=False, repr=False)
class HistoryTable:
    """One period's strategy histories of one sex, one row per history.

    Row i extends row ``parent_row[i]`` of ``parent``, the previous
    period's table, by strategy ``strategy[i]``; at period 1 ``parent`` is
    None and every row extends the empty history at the sex's starting
    prevalence. The other columns are the updated and the
    population-weighted total prevalence (rows x 4, state order), and the
    cumulative colonoscopies and cost (cohort-scaled). ``weight`` is the
    cohort size summed over periods 1..``period``.

    ``strategy`` holds strategy numbers of ``problem``, the run-start
    problem that every table of a run shares: it decodes them and names and
    orients the objectives. Ascending numbers are ascending free actions in
    lexicographic order, slot 0 most significant
    (:class:`~screenopt.diagram.StrategyEvaluator`).

    Iterated, the rows build their :class:`StrategyHistory` objects in one
    pass over :meth:`lineage`, the only walk of the parent rows, and share
    their common ancestors' records. Only tests and the benchmark tracer
    build these objects; the program reads columns and :meth:`lineage`.
    """

    sex: Sex
    period: int
    weight: float
    problem: DiagramProblem
    parent: HistoryTable | None
    parent_row: np.ndarray
    strategy: np.ndarray
    updated: np.ndarray
    total: np.ndarray
    colonoscopies: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.strategy)

    def __iter__(self):
        return iter(self._histories(range(len(self))))

    def take(self, rows: np.ndarray) -> HistoryTable:
        """The table of the given rows, in that order."""
        return dataclasses.replace(
            self, parent_row=self.parent_row[rows],
            strategy=self.strategy[rows], updated=self.updated[rows],
            total=self.total[rows], colonoscopies=self.colonoscopies[rows],
            cost=self.cost[rows])

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
        that builds a period's record once per ancestor row there and
        decodes each distinct strategy number there once."""
        rows = np.asarray(rows, dtype=np.intp)
        chains = [()] * len(rows)
        for table, at in self.lineage(rows):
            wanted, inverse = np.unique(at, return_inverse=True)
            numbers = table.strategy[wanted].tolist()
            decoded = {s: table.problem.strategy(s) for s in set(numbers)}
            made = [PeriodRecord(period=table.period, strategy=decoded[s],
                                 updated_prevalence=psi)
                    for s, psi in zip(numbers, table.updated[wanted])]
            chains = [chain + (made[j],)
                      for chain, j in zip(chains, inverse.tolist())]
        return [
            StrategyHistory(sex=self.sex, records=chain,
                            cumulative_colonoscopies=col,
                            cumulative_cost=cost,
                            total_prevalence=total)
            for chain, col, cost, total in zip(
                chains, self.colonoscopies[rows].tolist(),
                self.cost[rows].tolist(), self.total[rows])]


def remove_dominated(histories: HistoryTable,
                     cross_check: bool = False) -> HistoryTable:
    """Drop dominated histories; exact-tied keys are all kept.

    The rule is exact: history j dominates history i when its keys are at
    most i's in every key and below them in one, compared as floats with no
    tolerance (:func:`~screenopt.pareto.skyline`). ``cross_check`` compares
    that mask with the all-pairs filter of the same rule. Output order is
    deterministic: sorted by dominance key, then by the strategy numbers of
    periods 1, 2, ..., which ascend with the strategies' free actions.
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
                     psi: np.ndarray,
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
    """Frontier of ``problem``; ``cross_check`` compares it with the
    brute-force filter exactly, a mismatch naming ``label``."""
    frontier = compute_frontier(problem)
    if cross_check and not np.array_equal(
            frontier.vectors(), brute_force_frontier(problem).vectors()):
        raise OracleMismatchError(
            f"frontier mismatch against the brute-force reference {label}")
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
    (women, period 1), which is also that period's full-space frontier.
    """
    if np.isnan(budget):
        raise ValueError("budget must not be NaN")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    K = periods if periods is not None else params.periods
    if not (1 <= K <= params.periods):
        raise ValueError(f"periods must be within 1..{params.periods}")

    start = segment_frontier(params, Segment(Sex.F, 1),
                             params.starting_prevalence(Sex.F),
                             objective_mask, cross_check)
    out: dict[Sex, HistoryTable] = {}
    for sex in (Sex.F, Sex.M):
        table = None
        for k in range(1, K + 1):
            table = _extend_period(params, sex, k, table, budget, cross_check,
                                   start)
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


def _extend_period(params, sex, k, previous, budget, cross_check, start):
    """Every history of ``previous`` (at period 1, the empty history)
    extended by every frontier point of period ``k``, within the budget.

    :func:`period_values` through the evaluator of ``start``, the run-start
    frontier, gives the first start's full-space problem, numbered as
    ``start.problem``, and every history's objectives as its
    :func:`strategy_classes` representatives' vertex sums; one
    :func:`frontier_rows` pass gives every frontier. At women's period 1
    the first start's row must be ``start.problem``'s matrix bit for bit,
    and ``start`` is its full-space frontier. Each checked history, the
    first or under ``cross_check`` every one, has one exact matrix, the
    first start's row or under ``cross_check`` the dense evaluation, which
    at the first start must be that row bit for bit: every strategy must
    be within ``LINEARITY_TOL`` of its class's sum, and the history's
    frontier candidates, in order, those of the matrix's own
    :func:`checked_frontier`. The budget then clears mask bits; the set
    bits, row-major, are the table's rows, by parent and then in frontier
    order, each numbered as its class representative in ``start.problem``.
    """
    segment = Segment(sex, k)
    label = f"for sex={sex.value} period={k}"
    base = start.problem
    if previous is None:
        starts = params.starting_prevalence(sex)[None]
        before_col = before_cost = np.zeros(1)
    else:
        starts = previous.updated
        before_col, before_cost = previous.colonoscopies, previous.cost

    at_start, vertex = period_values(params, segment, base.evaluator,
                                     starts[0])
    run_start = segment == Segment(Sex.F, 1)
    if run_start and not np.array_equal(at_start, base.reported):
        raise OracleMismatchError(
            f"the array path differs from the diagram {label}")
    reps, class_of = strategy_classes(vertex)
    vertex = vertex[reps]
    reported = vertex_sum(starts, vertex)
    rows, keep = frontier_rows(base.minimize(reported))

    source = "dense evaluation" if cross_check else "first start's row"
    spread = np.abs(vertex[class_of])
    for h in range(len(starts)) if cross_check else (0,):
        exact = base.evaluator.dense_objective_matrix(segment_tables(
            params, segment, starts[[h]]))[0] if cross_check else at_start
        if cross_check and not h and not np.array_equal(exact, at_start):
            raise OracleMismatchError(
                f"the first start's dense evaluation differs from its "
                f"array-path row {label}")
        scale = vertex_sum(np.abs(starts[[h]]), spread)[0]
        if not np.all(np.abs(reported[h, class_of] - exact)
                      <= LINEARITY_TOL * scale):
            raise OracleMismatchError(
                f"a strategy's {source} differs from its class's vertex sum "
                f"at history {h} {label}")
        frontier = start if run_start and not h else checked_frontier(
            EnumeratedProblem(exact, base.orientations, base.names,
                              base.active), cross_check, label)
        if not np.array_equal(reps[rows[h, keep[h]]], frontier.candidates):
            raise OracleMismatchError(
                f"vertex-sum frontier differs from the full-space frontier "
                f"of history {h} {label}")

    names = base.names
    cohort = params.cohort_size(segment)
    col = before_col[:, None] + \
        -reported[:, :, names.index("colonoscopy")] * cohort
    keep &= np.take_along_axis(col <= budget + BUDGET_TOL, rows, axis=1)
    parent, at = np.nonzero(keep)
    if previous is not None and len(parent) > HISTORY_CAP:
        raise CapacityError(f"{len(parent)} histories at period {k} exceed "
                            f"the cap of {HISTORY_CAP}")
    if not len(parent):
        raise InfeasibleBudgetError(
            f"budget {budget} removes every history at period {k} for "
            f"sex={sex.value}")

    position = rows[parent, at]
    values = reported[parent, position]
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
        sex=sex, period=k, weight=weight, problem=base, parent=previous,
        parent_row=parent, strategy=reps[position], updated=updated,
        total=total, colonoscopies=col[parent, position],
        cost=before_cost[parent] + values[:, names.index("cost")] * cohort)


def baseline_trajectory(params: ParameterBundle, sex: Sex, periods: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """No-screening reference over ``periods`` periods: the same
    recurrences with zero detections, with the same population-weighted
    total-prevalence bookkeeping: the (periods + 1) x 4 rollout, whose rows
    k - 1 and k are period k's start and updated prevalence, and the
    periods x 4 totals, whose row k - 1 is the total through period k."""
    rollout = natural_progression_rollout(
        params.starting_prevalence(sex),
        params.transitions[sex.value], periods)
    totals = rollout[1:].copy()
    weight = params.cohort_size(Segment(sex, 1))
    for k in range(2, periods + 1):
        cohort = params.cohort_size(Segment(sex, k))
        totals[k - 1] = combined_total_rows(totals[None, k - 2], weight,
                                            rollout[None, k], cohort)[0]
        weight += cohort
    return rollout, totals
