"""Multi-period search: prevalence recurrences, history expansion, pruning.

Two-period runs are held against exhaustive tree search over all strategy
pairs (same dominance comparison, same budget rule); recurrences are held
against an inline transcription of the difference equations plus the worked
example.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

import screenopt.diagram
import screenopt.pareto
import screenopt.phase1
from conftest import (
    LINEARITY_FAULTS,
    _random_simplex,
    break_linearity,
    extreme_params_doc,
    random_params_doc,
    small_doc,
)
from oracles import (
    VERTICES,
    DetectedFractions,
    assert_keys_match,
    colonoscopies_of,
    combined_total_prevalence,
    detected_fractions_of,
    dominance_key,
    exhaustive_best_shares,
    exhaustive_two_period,
    nondominated_prefix,
    objective,
    one_ulp,
    remove_dominated_loop,
    running_totals,
    sort_key,
    strategy_classes_unique,
    update_prevalences,
)
from screenopt.diagram import StrategyEvaluator, dense_tables, expected_values
from screenopt.errors import (
    CapacityError,
    InfeasibleBudgetError,
    OracleMismatchError,
)
from screenopt.phase1 import (
    BUDGET_TOL,
    DETECTION_TOL,
    LINEARITY_TOL,
    HistoryTable,
    baseline_trajectory,
    combined_total_rows,
    natural_progression_rollout,
    period_values,
    remove_dominated,
    run_phase1,
    segment_frontier,
    strategy_classes,
    update_prevalence_rows,
    vertex_sum,
)
from screenopt.pareto import EnumeratedProblem, compute_frontier, nondominated
from screenopt.phase2 import budget_sweep, selection_problem_from_histories
from screenopt.screening import (
    EXAM_RESULT,
    FIT_RESULT,
    PrevalenceVector,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    check_prevalence_rows,
    fixed_decision_rules,
    load_parameters,
    segment_tables,
)

WORKED_PSI = PrevalenceVector(normal=0.9, benign=0.06, large=0.03, crc=0.01)
WORKED_FOUND = (0.03, 0.02, 0.008)   # benign, large, cancer detections
WORKED_RATES = TransitionRates(normal_to_benign=0.02, benign_to_large=0.1,
                               large_to_crc=0.05)
NO_RATES = TransitionRates(0.0, 0.0, 0.0)
NOTHING = (0.0, 0.0, 0.0)


def update_one(psi, found, rates) -> list[float]:
    """:func:`update_prevalence_rows` of one prevalence vector and one
    (benign, large, cancer) detection triple."""
    return update_prevalence_rows(np.array([psi.as_tuple()]),
                                  np.array([found], dtype=float),
                                  rates)[0].tolist()


class TestUpdatePrevalences:
    def test_fixed_point(self):
        out = update_one(WORKED_PSI, NOTHING, NO_RATES)
        assert out == pytest.approx(WORKED_PSI.as_tuple(), abs=1e-15)

    def test_worked_example(self):
        normal, benign, large, crc = update_one(WORKED_PSI, WORKED_FOUND,
                                                WORKED_RATES)
        assert benign == pytest.approx(0.045, abs=1e-15)
        assert large == pytest.approx(0.0125, abs=1e-15)
        assert crc == pytest.approx(0.0025, abs=1e-15)
        assert normal == pytest.approx(0.94, abs=1e-15)

    def test_full_detection_resets_to_normal(self):
        found = (WORKED_PSI.benign, WORKED_PSI.large, WORKED_PSI.crc)
        out = update_one(WORKED_PSI, found, NO_RATES)
        assert out == [1.0, 0.0, 0.0, 0.0]

    def test_detection_above_prevalence_rejected(self):
        found = (WORKED_PSI.benign + 1e-3, 0.0, 0.0)
        with pytest.raises(ValueError):
            update_one(WORKED_PSI, found, NO_RATES)

    def test_matches_inline_recurrence_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            raw = rng.uniform(0.01, 1.0, size=4)
            raw /= raw.sum()
            psi = PrevalenceVector(*raw)
            found = DetectedFractions(
                benign=psi.benign * rng.uniform(0, 1),
                large=psi.large * rng.uniform(0, 1),
                crc=psi.crc * rng.uniform(0, 1))
            rates = TransitionRates(*rng.uniform(0, 1, size=3))
            out = update_one(psi, (found.benign, found.large, found.crc),
                             rates)

            # direct transcription of the difference equations
            b = (psi.benign - found.benign) * (1 - rates.benign_to_large) \
                + psi.normal * rates.normal_to_benign
            lg = (psi.large - found.large) * (1 - rates.large_to_crc) \
                + (psi.benign - found.benign) * rates.benign_to_large
            r = psi.crc - found.crc \
                + (psi.large - found.large) * rates.large_to_crc
            n = 1 - b - lg - r
            assert out == pytest.approx((n, b, lg, r), abs=1e-12)
            assert sum(out) == pytest.approx(1.0, abs=1e-9)
            assert min(out) >= -1e-12


class TestNaNRejected:
    """NaN fails every prevalence sum check, so it cannot pass through the
    recurrences from a library caller's inputs."""

    def test_prevalence_vector_and_rows(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="sum to nan"):
            PrevalenceVector(nan, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="sum to nan"):
            check_prevalence_rows(np.array([WORKED_PSI.as_tuple(),
                                            (nan, 0.0, 0.0, 1.0)]))

    @pytest.mark.parametrize("column", range(3))
    def test_nan_detection(self, column):
        found = list(WORKED_FOUND)
        found[column] = float("nan")
        with pytest.raises(ValueError, match="sum to nan"):
            update_one(WORKED_PSI, found, WORKED_RATES)

    @pytest.mark.parametrize("field", ["normal_to_benign", "benign_to_large",
                                       "large_to_crc"])
    def test_nan_transition_rate(self, field):
        rates = dataclasses.replace(WORKED_RATES, **{field: float("nan")})
        with pytest.raises(ValueError, match="sum to nan"):
            natural_progression_rollout(WORKED_PSI, [WORKED_RATES, rates])


class TestRollout:
    def test_constant_without_transitions(self):
        rollout = natural_progression_rollout(WORKED_PSI, [NO_RATES] * 3)
        assert len(rollout) == 4
        for psi in rollout:
            assert psi.as_tuple() == pytest.approx(WORKED_PSI.as_tuple(),
                                                   abs=1e-15)

    def test_single_step_matches_update(self):
        rollout = natural_progression_rollout(WORKED_PSI, [WORKED_RATES], 1)
        direct = update_one(WORKED_PSI, NOTHING, WORKED_RATES)
        assert list(rollout[1].as_tuple()) == direct

    def test_cancer_weakly_increases_without_screening(self):
        rates = TransitionRates(0.01, 0.02, 0.05)
        rollout = natural_progression_rollout(WORKED_PSI, [rates] * 6)
        crc = [psi.crc for psi in rollout]
        assert all(a <= b + 1e-15 for a, b in zip(crc, crc[1:]))

    def test_rollout_and_baseline_equal_scalar_chain(self):
        # the rollout, and the baseline's start, updated and total
        # prevalences, have the bits (signs included) of the scalar
        # recurrences chained one vector at a time, as Python floats
        rng = np.random.default_rng(347)
        for trial in range(4):
            doc = random_params_doc(rng, periods=5, n_cutoffs=2,
                                    monotone=bool(trial % 2))
            bundle, _ = load_parameters(doc)
            for sex, K in itertools.product((Sex.F, Sex.M), range(1, 6)):
                rates = bundle.transitions[sex.value]
                chain = [bundle.starting_prevalence(sex)]
                totals, total, weight = [], None, 0.0
                for k in range(1, K + 1):
                    chain.append(update_prevalences(
                        chain[-1], DetectedFractions(0.0, 0.0, 0.0),
                        rates[k - 1]))
                    cohort = bundle.cohort_size(Segment(sex, k))
                    total = combined_total_prevalence(total, weight,
                                                      chain[-1], cohort)
                    weight += cohort
                    totals.append(total)
                base = baseline_trajectory(bundle, sex, K)
                got = natural_progression_rollout(chain[0], rates, K) + [
                    psi for entry in base
                    for psi in (entry.start_prevalence,
                                entry.updated_prevalence,
                                entry.total_prevalence)]
                want = chain + [
                    psi for k in range(K)
                    for psi in (chain[k], chain[k + 1], totals[k])]
                got_values = [v for psi in got for v in psi.as_tuple()]
                want_values = [v for psi in want for v in psi.as_tuple()]
                assert all(type(v) is float for v in got_values)
                assert got_values == want_values
                assert np.array_equal(np.signbit(got_values),
                                      np.signbit(want_values))
                assert [entry.period for entry in base] == \
                    list(range(1, K + 1))


class TestDetectedFractions:
    def test_no_invite_point_detects_nothing(self, small_bundle):
        frontier = segment_frontier(small_bundle, Segment(Sex.F, 1),
                                    small_bundle.starting_prevalence(Sex.F))
        null_points = [p for p in frontier.points
                       if objective(p.objectives, "cost") == 0.0]
        assert len(null_points) == 1
        found = detected_fractions_of(null_points[0])
        assert (found.benign, found.large, found.crc) == (0.0, 0.0, 0.0)
        assert colonoscopies_of(null_points[0]) == 0.0

    def test_fractions_match_path_enumeration(self, small_bundle):
        from screenopt.diagram import enumerate_paths, path_probability
        from screenopt.screening import EXAM_RESULT

        psi = small_bundle.starting_prevalence(Sex.M)
        d = build_segment_diagram(Segment(Sex.M, 1), small_bundle, psi)
        frontier = segment_frontier(small_bundle, Segment(Sex.M, 1), psi)
        point = frontier.points[-1]
        found = detected_fractions_of(point)

        sums = {2: 0.0, 3: 0.0, 4: 0.0}  # exam-result ordinals of growths
        pos = d.path_position[EXAM_RESULT]
        for path in enumerate_paths(d):
            if path[pos] in sums:
                sums[path[pos]] += path_probability(d, path, point.strategy)
        assert found.benign == pytest.approx(sums[2], abs=1e-12)
        assert found.large == pytest.approx(sums[3], abs=1e-12)
        assert found.crc == pytest.approx(sums[4], abs=1e-12)

    def test_perfect_screening_detects_everything(self, default_doc):
        doc = json.loads(json.dumps(default_doc))
        doc["participation"]["sample_ok"] = 1.0
        doc["participation"]["return"] = {s: [1.0] * 5 for s in ("F", "M")}
        doc["participation"]["contact"] = {s: [1.0] * 5 for s in ("F", "M")}
        doc["fit"]["sensitivity"] = {
            state: {c: 1.0 for c in doc["fit"]["cutoffs"]}
            for state in ("benign", "large", "crc")}
        doc["colonoscopy"]["sensitivity"] = {
            "benign": 1.0, "large": 1.0, "crc": 1.0}
        doc["options"]["fix_exam_to_colonoscopy"] = True
        bundle, _ = load_parameters(doc)
        psi = bundle.starting_prevalence(Sex.M)
        frontier = segment_frontier(bundle, Segment(Sex.M, 1), psi)
        best = max(frontier.points,
                   key=lambda p: objective(p.objectives, "crc_found"))
        found = detected_fractions_of(best)
        assert found.benign == pytest.approx(psi.benign, abs=1e-12)
        assert found.large == pytest.approx(psi.large, abs=1e-12)
        assert found.crc == pytest.approx(psi.crc, abs=1e-12)


def key_table(keys, strategy_keys=None, parent=None, parent_row=None):
    """A history table whose rows have the given dominance keys.

    Its strategies are stubs with the given distinct keys (one per row by
    default), which must ascend with the strategy index as a period's
    class representatives' keys do; ``parent`` makes it a period-2 table
    over those parent rows.
    """
    keys = np.asarray(keys, dtype=float).reshape(-1, 4)
    n = len(keys)
    if strategy_keys is None:
        strategy_keys = [(i,) for i in range(n)]
    strategies = tuple(SimpleNamespace(key=k) for k in strategy_keys)
    zero = np.zeros(n)
    updated = np.stack([1.0 - keys[:, 1] - keys[:, 2], zero, keys[:, 2],
                        keys[:, 1]], axis=1)
    total = np.stack([1.0 - keys[:, 0], zero, zero, keys[:, 0]], axis=1)
    return HistoryTable(
        sex=Sex.F, period=1 if parent is None else parent.period + 1,
        weight=1.0, start=WORKED_PSI, strategies=strategies,
        names=("cost",), orientations=("minimize",), parent=parent,
        parent_row=(np.zeros(n, dtype=np.intp) if parent_row is None
                    else np.asarray(parent_row, dtype=np.intp)),
        strategy=np.arange(n) % max(len(strategies), 1),
        reported=np.zeros((n, 1)), updated=updated, total=total,
        colonoscopies=keys[:, 3].copy(), cost=zero)


class TestRemoveDominated:
    def test_strictly_dominated_removed_ties_kept(self):
        table = key_table([
            (0.1, 0.1, 0.1, 1.0),
            (0.1, 0.1, 0.1, 1.0),     # exact tie with row 0: kept
            (0.2, 0.1, 0.1, 1.0),     # dominated by row 0: removed
            (0.05, 0.2, 0.1, 1.0),    # incomparable: kept
        ])
        kept = remove_dominated(table)
        assert set(kept.strategy.tolist()) == {0, 1, 3}

    def test_near_tie_within_the_old_tolerance_is_kept(self):
        # j has 1e-3 less total cancer than i but 5e-10 more colonoscopies:
        # neither dominates the other exactly, though a 1e-9 tolerance
        # would let j drop i
        i = (0.01, 0.002, 0.003, 5000.0)
        j = (0.009, 0.002, 0.003, 5000.0 + 5e-10)
        assert j[3] > i[3]
        kept = remove_dominated(key_table([i, j]))
        assert sorted(kept.strategy.tolist()) == [0, 1]
        keys = kept.dominance_keys()
        assert nondominated(keys).all()
        assert not nondominated_prefix(keys, 1e-9).all()

    @staticmethod
    def random_keys(rng, n):
        keys = rng.integers(0, 4, size=(n, 4)).astype(float) * 1e-3 + 0.01
        # near ties straddling the 1e-9 tolerance, and exact duplicates
        jitter = rng.choice([0.0, 0.0, 5e-10, -5e-10, 1e-9, -1e-9,
                             1.5e-9, -1.5e-9], size=keys.shape)
        keys = keys + jitter
        dup = rng.integers(0, n, size=n // 4)
        keys[rng.integers(0, n, size=len(dup))] = keys[dup]
        return keys

    @staticmethod
    def assert_equals_row_loop(table):
        got = list(remove_dominated(table))
        want = remove_dominated_loop(list(table))
        assert [dominance_key(h) for h in got] == \
            [dominance_key(h) for h in want]
        assert [sort_key(h) for h in got] == [sort_key(h) for h in want]

    @pytest.mark.parametrize("cells", [1 << 20, 1 << 16, 256, 40])
    def test_equals_row_loop_with_ties_and_near_ties(self, monkeypatch,
                                                     cells):
        # a small cell budget forces many blocks per call
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(151)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            self.assert_equals_row_loop(key_table(self.random_keys(rng, n)))
        assert len(remove_dominated(key_table(np.empty((0, 4))))) == 0

    def test_order_breaks_ties_on_every_periods_strategy_key(self):
        # exact-tied dominance keys sort on the period-1 strategy key,
        # then on the period-2 one
        rng = np.random.default_rng(157)
        for _ in range(20):
            n_parent = int(rng.integers(1, 12))
            parent = key_table(self.random_keys(rng, n_parent))
            n = int(rng.integers(1, 200))
            keys = self.random_keys(rng, 4)[rng.integers(0, 4, size=n)]
            table = key_table(keys, strategy_keys=[(1,), (2,), (3,)],
                              parent=parent,
                              parent_row=rng.integers(0, n_parent, size=n))
            self.assert_equals_row_loop(table)


class TestArrayRecurrences:
    """The recurrences on table columns have the scalar functions' bits
    and fail as loudly."""

    @staticmethod
    def simplex_rows(rng, n):
        return np.array([PrevalenceVector(**_random_simplex(rng)).as_tuple()
                         for _ in range(n)])

    def test_rows_bit_identical_to_scalar_functions(self):
        rng = np.random.default_rng(307)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            psi = self.simplex_rows(rng, n)
            share = rng.uniform(0, 1, size=(n, 3))
            share[rng.random((n, 3)) < 0.3] = 0.0     # zero detections
            share[rng.random((n, 3)) < 0.1] = 1.0     # everything found
            found = psi[:, 1:] * share
            rates = TransitionRates(*rng.uniform(0, 0.1, size=3).tolist())
            rows = update_prevalence_rows(psi, found, rates)
            scalar = np.array([
                update_prevalences(PrevalenceVector(*p),
                                   DetectedFractions(*f), rates).as_tuple()
                for p, f in zip(psi.tolist(), found.tolist())])
            assert np.array_equal(rows, scalar)
            assert np.array_equal(np.signbit(rows), np.signbit(scalar))

            previous = self.simplex_rows(rng, n)
            weight = float(rng.uniform(1, 3e4))
            for previous_weight in (0.0, float(rng.uniform(1, 1e5))):
                totals = combined_total_rows(previous, previous_weight,
                                             rows, weight)
                scalar = np.array([
                    combined_total_prevalence(
                        PrevalenceVector(*a), previous_weight,
                        PrevalenceVector(*b), weight).as_tuple()
                    for a, b in zip(previous.tolist(), rows.tolist())])
                assert np.array_equal(totals, scalar)
                assert np.array_equal(np.signbit(totals),
                                      np.signbit(scalar))

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_bad_detections_raise(self, column):
        psi = np.array([WORKED_PSI.as_tuple()] * 3)
        good = WORKED_FOUND
        for bad in (-2 * DETECTION_TOL,
                    psi[1, column + 1] + 2 * DETECTION_TOL):
            found = np.array([good] * 3)
            found[1, column] = bad
            with pytest.raises(ValueError):
                update_prevalence_rows(psi, found, WORKED_RATES)
            with pytest.raises(ValueError):
                update_prevalences(WORKED_PSI, DetectedFractions(*found[1]),
                                   WORKED_RATES)

    def test_rows_breaking_the_prevalence_checks_raise(self):
        psi = np.array([WORKED_PSI.as_tuple()] * 2)
        # within the detection tolerance, but leaves negative cancer mass
        found = np.array([[0.0, 0.0, 0.0],
                          [0.0, 0.0, WORKED_PSI.crc + DETECTION_TOL / 2]])
        with pytest.raises(ValueError, match="negative"):
            update_prevalence_rows(psi, found, NO_RATES)
        with pytest.raises(ValueError, match="negative"):
            update_prevalences(WORKED_PSI, DetectedFractions(*found[1]),
                               NO_RATES)
        # a previous total off the simplex
        off = np.array([WORKED_PSI.as_tuple(), (0.5, 0.5, 0.5, 0.0)])
        with pytest.raises(ValueError, match="sum"):
            combined_total_rows(off, 1.0, psi, 1.0)
        with pytest.raises(ValueError, match="sum"):
            check_prevalence_rows(off)
        with pytest.raises(ValueError, match="negative"):
            check_prevalence_rows(np.array([(1.1, -0.1, 0.0, 0.0)]))
        check_prevalence_rows(psi)


def tiny_bundle(default_doc, periods=2):
    """Two cut-offs, fixed examination: 8 strategies per segment."""
    doc = small_doc(default_doc, periods=periods, cutoffs=("10", "50"),
                    fix_exam=True)
    bundle, _ = load_parameters(doc)
    return bundle


class TestRunPhase1:
    def test_single_period_equals_wrapped_frontier(self, default_doc):
        # the same strategies, with values within the linearity bound
        bundle = tiny_bundle(default_doc)
        segment, psi = Segment(Sex.F, 1), bundle.starting_prevalence(Sex.F)
        frontier = segment_frontier(bundle, segment, psi)
        start = np.array([psi.as_tuple()])
        bound = LINEARITY_TOL * vertex_sum(start, np.abs(period_values(
            bundle, segment, frontier.problem.evaluator, start)[1]))[0]
        result = run_phase1(bundle, budget=1e9, periods=1)[Sex.F]
        assert len(result) == len(frontier.points)
        cohort = bundle.cohort_size(segment)
        column = frontier.problem.names.index("colonoscopy")
        for hist, point, candidate in zip(result, frontier.points,
                                          frontier.candidates):
            assert len(hist.records) == 1
            assert np.all(np.abs(np.subtract(hist.records[0].objectives.values,
                                             point.objectives.values))
                          <= bound[candidate])
            assert hist.records[0].strategy.key == point.strategy.key
            assert abs(hist.cumulative_colonoscopies
                       - colonoscopies_of(point) * cohort) \
                <= bound[candidate, column] * cohort

    def test_two_periods_equal_exhaustive_tree(self, default_doc):
        bundle = tiny_bundle(default_doc)
        seg = Segment(Sex.F, 1)
        d = build_segment_diagram(seg, bundle, bundle.starting_prevalence(Sex.F))
        assert d.strategy_count(fixed=tuple(fixed_decision_rules(bundle))) <= 20
        for budget in (300.0, 900.0, 1e9):
            got = run_phase1(bundle, budget=budget, periods=2)
            want = exhaustive_two_period(bundle, budget)
            for sex in (Sex.F, Sex.M):
                assert_keys_match(got[sex], want[sex])

    def test_budget_at_a_histories_exact_count(self, default_doc):
        # a history is kept at a budget equal to its colonoscopy count and
        # dropped at one more than the tolerance below it
        bundle = tiny_bundle(default_doc)
        for periods, sex in itertools.product((1, 2), (Sex.F, Sex.M)):
            top = max(run_phase1(bundle, budget=1e9, periods=periods)[sex],
                      key=lambda h: h.cumulative_colonoscopies)
            count = top.cumulative_colonoscopies
            for budget, kept in ((count, True),
                                 (count - 2 * BUDGET_TOL, False)):
                result = run_phase1(bundle, budget, periods)[sex]
                assert (sort_key(top) in
                        [sort_key(h) for h in result]) is kept, budget
                assert all(h.cumulative_colonoscopies <= budget + BUDGET_TOL
                           for h in result)

    def test_zero_budget_keeps_only_no_screening(self, default_doc):
        bundle = tiny_bundle(default_doc)
        result = run_phase1(bundle, budget=0.0, periods=2)
        for sex in (Sex.F, Sex.M):
            assert len(result[sex]) == 1
            hist = result[sex][0]
            assert hist.cumulative_colonoscopies == 0.0
            assert hist.cumulative_cost == 0.0
            base = baseline_trajectory(bundle, sex, 2)
            assert hist.total_prevalence.as_tuple() == \
                base[-1].total_prevalence.as_tuple()
            for rec, entry in zip(hist.records, base):
                assert rec.updated_prevalence.as_tuple() == \
                    entry.updated_prevalence.as_tuple()

    def test_budget_relaxation_weakly_improves_cancer(self, default_doc):
        bundle = tiny_bundle(default_doc)
        best = []
        for budget in (0.0, 200.0, 500.0, 1000.0, 2500.0, 1e9):
            result = run_phase1(bundle, budget=budget, periods=2)
            best.append({
                sex: min(h.total_prevalence.crc for h in result[sex])
                for sex in (Sex.F, Sex.M)
            })
        for sex in (Sex.F, Sex.M):
            series = [entry[sex] for entry in best]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_every_history_respects_budget(self, default_doc):
        bundle = tiny_bundle(default_doc)
        budget = 700.0
        result = run_phase1(bundle, budget=budget, periods=2)
        for sex in (Sex.F, Sex.M):
            assert all(h.cumulative_colonoscopies <= budget + BUDGET_TOL
                       for h in result[sex])

    def test_infeasible_budget_raises(self, default_doc):
        bundle = tiny_bundle(default_doc)
        # optimizing detections only drops the no-invitation strategy from
        # the frontier, so a tiny budget prunes everything
        with pytest.raises(InfeasibleBudgetError):
            run_phase1(bundle, budget=1e-6, periods=1,
                       objective_mask=["crc_found"])

    def test_budget_checks(self, default_doc):
        bundle = tiny_bundle(default_doc)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            run_phase1(bundle, budget=-1.0, periods=1)
        with pytest.raises(ValueError, match="budget must not be NaN"):
            run_phase1(bundle, budget=float("nan"), periods=1)
        # an infinite budget is no cap
        uncapped, capped = (run_phase1(bundle, budget=b, periods=2)
                            for b in (float("inf"), 1e9))
        for sex in (Sex.F, Sex.M):
            assert np.array_equal(uncapped[sex].colonoscopies,
                                  capped[sex].colonoscopies)

    def test_history_cap(self, default_doc, monkeypatch):
        # the cap is checked on the counted extensions, before the
        # period-2 table is filled and before any history is built
        bundle = tiny_bundle(default_doc)
        filled, read = [], []

        class Recording(screenopt.phase1.HistoryTable):
            def __init__(self, **columns):
                filled.append(columns["period"])
                super().__init__(**columns)

            def _histories(self, rows):
                read.append(self.period)
                return super()._histories(rows)

        monkeypatch.setattr(screenopt.phase1, "HistoryTable", Recording)
        with pytest.raises(CapacityError):
            with monkeypatch.context() as patch:
                patch.setattr(screenopt.phase1, "HISTORY_CAP", 2)
                run_phase1(bundle, budget=1e9, periods=2)
        assert filled == [1] and read == []
        # the same run under the default cap: each sex fills both periods'
        # tables, prunes period 2, and returns the table without reading
        # a row
        filled.clear()
        run_phase1(bundle, budget=1e9, periods=2)
        assert filled == [1, 2, 2] * 2 and read == []

    def test_one_segment_diagram_and_evaluator_per_run(self, default_bundle,
                                                       monkeypatch):
        # the run-start solve builds the only diagram and evaluator: every
        # period of both sexes evaluates arrays through that evaluator
        built, evaluators = [], []
        build = screenopt.phase1.build_segment_diagram

        class Counted(screenopt.pareto.StrategyEvaluator):
            def __init__(self, *args, **kwargs):
                evaluators.append(args[0])
                super().__init__(*args, **kwargs)

        def counted(*args):
            built.append(args[0])
            return build(*args)

        monkeypatch.setattr(screenopt.phase1, "build_segment_diagram", counted)
        monkeypatch.setattr(screenopt.pareto, "StrategyEvaluator", Counted)
        run_phase1(default_bundle, budget=20000.0)
        assert built == [Segment(Sex.F, 1)]
        assert len(evaluators) == 1

    def test_one_evaluation_per_period(self, default_bundle, monkeypatch):
        # the batch rows of every evaluation without --cross-check: the
        # run-start problem and its array-path check, then one batch of the
        # first start and the four vertices per period and sex
        rows = []
        evaluate = StrategyEvaluator.objective_matrix

        def counted(self, tables):
            out = evaluate(self, tables)
            rows.append(len(out))
            return out

        monkeypatch.setattr(StrategyEvaluator, "objective_matrix", counted)
        run_phase1(default_bundle, budget=20000.0)
        assert rows == [1, 1] + [5] * (2 * default_bundle.periods)

    def test_deterministic_across_runs(self, default_doc):
        bundle = tiny_bundle(default_doc)
        a = run_phase1(bundle, budget=800.0, periods=2)
        b = run_phase1(bundle, budget=800.0, periods=2)
        for sex in (Sex.F, Sex.M):
            keys_a = [dominance_key(h) for h in a[sex]]
            keys_b = [dominance_key(h) for h in b[sex]]
            assert keys_a == keys_b
            assert [sort_key(h) for h in a[sex]] == \
                [sort_key(h) for h in b[sex]]

    def test_masked_run_still_reports_cost(self, default_doc):
        bundle = tiny_bundle(default_doc)
        mask = ["colonoscopy", "benign_found", "large_found", "crc_found"]
        result = run_phase1(bundle, budget=1e9, periods=2,
                            objective_mask=mask)
        invited = [h for sex in (Sex.F, Sex.M) for h in result[sex]
                   if h.cumulative_colonoscopies > 0]
        assert invited
        assert all(h.cumulative_cost > 0 for h in invited)

    def test_random_draws_two_period_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(6):
            doc = random_params_doc(rng, periods=2, n_cutoffs=2,
                                    monotone=True, fix_exam=True)
            bundle, _ = load_parameters(doc)
            budget = float(rng.uniform(100, 3000))
            got = run_phase1(bundle, budget=budget, periods=2)
            want = exhaustive_two_period(bundle, budget)
            for sex in (Sex.F, Sex.M):
                assert_keys_match(got[sex], want[sex])


class TestPeriodTableOrder:
    """Each period's table, as extended and before pruning, holds its rows
    by parent, and each parent's rows are that history's own
    :func:`segment_frontier` in frontier order, less the points over the
    budget."""

    @staticmethod
    def extended_tables(monkeypatch, bundle, budget):
        extend = screenopt.phase1._extend_period
        tables = []

        def recording(*args):
            tables.append(extend(*args))
            return tables[-1]

        with monkeypatch.context() as patch:
            patch.setattr(screenopt.phase1, "_extend_period", recording)
            run_phase1(bundle, budget=budget, periods=3)
        return tables

    def assert_rows_follow_frontiers(self, monkeypatch, bundle):
        # half the largest unconstrained total, so the budget bites
        budget = 0.5 * max(float(t.colonoscopies.max()) for t in
                           run_phase1(bundle, budget=1e9, periods=3).values())
        tables = self.extended_tables(monkeypatch, bundle, budget)
        assert [t.period for t in tables] == [1, 2, 3] * 2
        over_budget = 0
        for table in tables:
            assert np.all(np.diff(table.parent_row) >= 0)
            segment = Segment(table.sex, table.period)
            cohort = bundle.cohort_size(segment)
            parent = table.parent
            for p in range(1 if parent is None else len(parent)):
                if parent is None:
                    psi, before = bundle.starting_prevalence(table.sex), 0.0
                else:
                    psi = PrevalenceVector(*parent.updated[p].tolist())
                    before = float(parent.colonoscopies[p])
                points = segment_frontier(bundle, segment, psi).points
                want = [pt.strategy.key for pt in points
                        if before + -objective(pt.objectives, "colonoscopy")
                        * cohort <= budget + BUDGET_TOL]
                got = [table.strategies[s].key
                       for s in table.strategy[table.parent_row == p]]
                assert got == want
                over_budget += len(points) - len(want)
        assert over_budget  # the budget removed some frontier points

    def test_shipped_parameters(self, monkeypatch, default_bundle):
        self.assert_rows_follow_frontiers(monkeypatch, default_bundle)

    def test_random_documents(self, monkeypatch):
        rng = np.random.default_rng(337)
        for trial in range(2):
            doc = random_params_doc(rng, periods=3, n_cutoffs=2 + trial,
                                    monotone=bool(trial), fix_exam=False)
            bundle, _ = load_parameters(doc)
            self.assert_rows_follow_frontiers(monkeypatch, bundle)


class TestLineage:
    def test_ancestor_totals_equal_scalar_chain(self):
        # the running totals the writers read off the ancestors' rows have
        # the bits, signs included, of the scalar chain over the records
        rng = np.random.default_rng(331)
        for trial in range(6):
            periods = 2 + trial % 3
            doc = random_params_doc(rng, periods=periods, n_cutoffs=2,
                                    monotone=bool(trial % 2),
                                    fix_exam=trial % 3 == 0)
            bundle, _ = load_parameters(doc)
            tables = run_phase1(bundle, budget=1e9, periods=periods)
            for sex, table in tables.items():
                got = np.stack([t.total[rows] for t, rows in
                                table.lineage(np.arange(len(table)))], axis=1)
                want = np.array([[total.as_tuple() for total in
                                  running_totals(bundle, sex, history)]
                                 for history in table])
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def assert_rows_are_the_lineage(table):
        # each row's records are its ancestors' columns, and rows with a
        # common ancestor share that period's record object
        histories = list(table)
        lineage = table.lineage(np.arange(len(table)))
        assert table[-1] == histories[-1]
        shared_somewhere = False
        for k, (t, at) in enumerate(lineage):
            records = {}
            for i, (h, a) in enumerate(zip(histories, at.tolist())):
                record = h.records[k]
                assert records.setdefault(a, record) is record
                assert record.period == t.period == k + 1
                assert record.strategy is t.strategies[t.strategy[a]]
                assert record.objectives.values == \
                    tuple(t.reported[a].tolist())
                assert record.objectives.names == t.names
                assert record.objectives.orientations == t.orientations
                if k == 0:
                    start = table.start.as_tuple()
                else:
                    before, rows = lineage[k - 1]
                    start = tuple(before.updated[rows[i]].tolist())
                assert record.start_prevalence.as_tuple() == start
                assert record.updated_prevalence.as_tuple() == \
                    tuple(t.updated[a].tolist())
            assert len({id(r) for r in records.values()}) == len(records)
            shared_somewhere |= len(records) < len(table)
        assert shared_somewhere
        for r, h in enumerate(histories):
            assert len(h.records) == len(lineage)
            assert h.sex is table.sex
            assert h.cumulative_colonoscopies == table.colonoscopies[r]
            assert h.cumulative_cost == table.cost[r]
            assert h.total_prevalence.as_tuple() == \
                tuple(table.total[r].tolist())

    def test_row_view_shipped_parameters(self, default_bundle):
        tables = run_phase1(default_bundle, budget=20000.0, periods=3)
        for table in tables.values():
            self.assert_rows_are_the_lineage(table)

    def test_row_view_random_document(self):
        rng = np.random.default_rng(347)
        doc = random_params_doc(rng, periods=3, n_cutoffs=3, monotone=False,
                                fix_exam=False)
        bundle, _ = load_parameters(doc)
        for table in run_phase1(bundle, budget=1e9, periods=3).values():
            self.assert_rows_are_the_lineage(table)


class TestReweightedSegments:
    """A segment built once and re-weighted per prevalence must give the
    bits a fresh diagram and evaluator give."""

    @staticmethod
    def random_case(rng, trial, zero_positive=False):
        n_cutoffs = int(rng.integers(2, 5))
        doc = random_params_doc(rng, periods=2, n_cutoffs=n_cutoffs,
                                monotone=bool(trial % 2),
                                fix_exam=trial % 3 == 0)
        if zero_positive:
            # no false positives at the first cut-off: at the normal
            # vertex its positive-test probability is zero
            doc["fit"]["specificity"][doc["fit"]["cutoffs"][0]] = 1.0
        if trial % 4 == 1:
            doc["options"]["incentive_enabled"] = False
        if trial % 4 == 2:
            cutoffs = doc["fit"]["cutoffs"]
            chosen = rng.choice(len(cutoffs), size=n_cutoffs - 1,
                                replace=False)
            doc["options"]["cutoff_set"] = [cutoffs[i] for i in sorted(chosen)]
        bundle, _ = load_parameters(doc)
        segment = Segment(Sex.F if rng.random() < 0.5 else Sex.M,
                          int(rng.integers(1, 3)))
        return bundle, segment

    def test_objective_matrix_bit_identical_to_fresh_build(self):
        rng = np.random.default_rng(211)
        for trial in range(12):
            bundle, segment = self.random_case(rng, trial)
            fixed = fixed_decision_rules(bundle)
            # the evaluator of another segment, at another prevalence
            other = Segment(Sex.M if segment.sex is Sex.F else Sex.F,
                            int(rng.integers(1, 3)))
            base = segment_frontier(bundle, other, PrevalenceVector(
                **_random_simplex(rng))).problem
            prevalences = [PrevalenceVector(**_random_simplex(rng))
                           for _ in range(3)]
            prevalences.append(PrevalenceVector(1.0, 0.0, 0.0, 0.0))
            # each row alone and all rows in one batch
            rows = np.array([psi.as_tuple() for psi in prevalences])
            batch = base.evaluator.objective_matrix(
                segment_tables(bundle, segment, rows))
            for h, psi in enumerate(prevalences):
                diagram = build_segment_diagram(segment, bundle, psi)
                fresh = StrategyEvaluator(diagram, fixed).objective_matrix(
                    dense_tables(diagram))[0]
                reused = base.evaluator.objective_matrix(
                    segment_tables(bundle, segment, rows[[h]]))[0]
                assert_bits(reused, fresh)
                assert_bits(batch[h], fresh)

    def test_selected_rows_bit_identical_to_full_matrix(self):
        # the selected vertex rows, against the full matrix at that vertex:
        # bit for bit, and their vertex sum within the linearity bound
        rng = np.random.default_rng(239)
        for trial in range(12):
            bundle, segment = self.random_case(rng, trial)
            start = np.array(tuple(_random_simplex(rng).values()))
            base = segment_frontier(bundle, segment,
                                    PrevalenceVector(*start)).problem
            _, values = period_values(bundle, segment, base.evaluator, start)
            reps, _ = strategy_classes(values)
            n = base.n_candidates
            # the class representatives, and an unsorted draw with repeats
            picks = (reps, rng.integers(0, n, size=int(rng.integers(1, 40))))
            v = int(rng.integers(0, 4))
            for psi in (PrevalenceVector(**_random_simplex(rng)),
                        VERTICES[v]):
                row = np.array([psi.as_tuple()])
                full = base.evaluator.objective_matrix(
                    segment_tables(bundle, segment, row))[0]
                for strategies in picks:
                    rows = vertex_sum(row, values[strategies])[0]
                    assert np.all(np.abs(rows - full[strategies]) <=
                                  LINEARITY_TOL * vertex_sum(
                                      row, np.abs(values[strategies]))[0])
                    if psi is VERTICES[v]:
                        assert_bits(values[strategies, :, v],
                                    full[strategies])

    @staticmethod
    def assert_batched_equals_dense(bundle, segment, base, rows):
        """Every batch row has the dense oracle's bits, and the dense
        oracle's batch rows are its one-row evaluations."""
        evaluator = base.evaluator
        dense = [evaluator.dense_objective_matrix(
            segment_tables(bundle, segment, rows[[h]]))[0]
            for h in range(len(rows))]
        assert_bits(evaluator.dense_objective_matrix(
            segment_tables(bundle, segment, rows)), np.array(dense))
        got = evaluator.objective_matrix(segment_tables(bundle, segment, rows))
        assert got.shape[0] == len(rows)
        for h, full in enumerate(dense):
            assert_bits(got[h], full)

    def test_batched_rows_bit_identical_to_dense_oracle(self):
        rng = np.random.default_rng(251)
        for trial in range(16):
            zero_positive = trial % 4 == 3
            bundle, segment = self.random_case(rng, trial,
                                               zero_positive=zero_positive)
            base = segment_frontier(bundle, segment, PrevalenceVector(
                **_random_simplex(rng))).problem
            # random prevalences, one vertex and the normal vertex, where a
            # zero-positive cut-off zeroes entries in that row only
            rows = np.array(
                [tuple(_random_simplex(rng).values()) for _ in range(5)]
                + [VERTICES[int(rng.integers(1, 4))].as_tuple(),
                   VERTICES[0].as_tuple()])
            self.assert_batched_equals_dense(bundle, segment, base, rows)
            # one evaluation and the diagram's own tables: the same routine
            for h in (0, -1):
                tables = segment_tables(bundle, segment, rows[[h]])
                single = base.evaluator.objective_matrix(tables)
                dense = base.evaluator.dense_objective_matrix(tables)
                assert np.array_equal(single, dense)
                assert np.array_equal(np.signbit(single), np.signbit(dense))
            own = dense_tables(base.diagram)
            assert np.array_equal(
                base.reported, base.evaluator.dense_objective_matrix(own)[0])

    def test_batch_rows_equal_the_path_walk(self, default_doc):
        # every batch row of both evaluations, against the path walk over
        # the segment diagram built at that row's prevalence: the shipped
        # document free and with fixed rules, and a zero-positive one
        rng = np.random.default_rng(263)
        pinned = json.loads(json.dumps(default_doc))
        pinned.setdefault("options", {}).update(
            fix_exam_to_colonoscopy=True, incentive_enabled=False)
        cases = [(load_parameters(doc)[0], segment)
                 for doc in (default_doc, pinned)
                 for segment in (Segment(Sex.F, 1), Segment(Sex.M, 5))]
        cases.append(self.random_case(rng, 3, zero_positive=True))
        for bundle, segment in cases:
            rows = np.array([tuple(_random_simplex(rng).values())
                             for _ in range(2)] + [VERTICES[0].as_tuple()])
            base = segment_frontier(bundle, segment,
                                    PrevalenceVector(*rows[0])).problem
            evaluator, n = base.evaluator, base.n_candidates
            picks = [0, n // 2, n - 1] + rng.integers(0, n, size=20).tolist()
            tables = segment_tables(bundle, segment, rows)
            live = evaluator.objective_matrix(tables)
            dense = evaluator.dense_objective_matrix(tables)
            for h, row in enumerate(rows.tolist()):
                diagram = build_segment_diagram(segment, bundle,
                                                PrevalenceVector(*row))
                want = np.array([expected_values(
                    diagram, evaluator.strategy(i)).values for i in picks])
                for got in (live, dense):
                    assert np.allclose(got[h, picks], want, rtol=1e-12,
                                       atol=0)

    def test_reweighted_frontier_equals_fresh_frontier(self):
        # the arrays through another segment's evaluator, with the mask's
        # active columns, give the fresh diagram's frontier: the same
        # candidates, strategies and values
        rng = np.random.default_rng(223)
        masks = (None, ["colonoscopy", "crc_found"])
        for trial in range(6):
            bundle, segment = self.random_case(rng, trial)
            mask = masks[trial % 2]
            other = Segment(Sex.M if segment.sex is Sex.F else Sex.F,
                            int(rng.integers(1, 3)))
            base = segment_frontier(bundle, other, PrevalenceVector(
                **_random_simplex(rng)), mask).problem
            psi = PrevalenceVector(**_random_simplex(rng))
            fresh = segment_frontier(bundle, segment, psi, mask)
            reused = compute_frontier(EnumeratedProblem(
                base.evaluator.objective_matrix(segment_tables(
                    bundle, segment, np.array([psi.as_tuple()])))[0],
                base.orientations, base.names, base.active))
            assert np.array_equal(reused.candidates, fresh.candidates)
            assert [p.objectives.values for p in reused.points] == \
                [p.objectives.values for p in fresh.points]
            assert [base.strategy(c).key for c in
                    reused.candidates.tolist()] == \
                [p.strategy.key for p in fresh.points]

    def test_segment_tables_are_the_diagrams_tables(self, default_bundle):
        # every chance table at each of H rows, against the diagram built at
        # that row: the shipped document and random ones, with the
        # examination fixed, without incentives and with a cut-off subset
        rng = np.random.default_rng(227)
        cases = [(default_bundle, Segment(Sex.F, 1)),
                 (default_bundle, Segment(Sex.M, 5))]
        cases += [self.random_case(rng, trial, zero_positive=trial == 3)
                  for trial in range(6)]
        for bundle, segment in cases:
            rows = np.array([tuple(_random_simplex(rng).values())
                             for _ in range(4)] + [VERTICES[0].as_tuple()])
            tables = segment_tables(bundle, segment, rows)
            for h, row in enumerate(rows.tolist()):
                own = dense_tables(build_segment_diagram(
                    segment, bundle, PrevalenceVector(*row)))
                assert sorted(tables) == sorted(own)
                for node_id, table in tables.items():
                    assert_bits(table[h if len(table) > 1 else 0],
                                own[node_id][0])
                assert len(tables[FIT_RESULT]) == len(rows)
                assert len(tables[EXAM_RESULT]) == len(rows)

    def test_partial_table_set_rejected(self):
        rng = np.random.default_rng(229)
        bundle, segment = self.random_case(rng, 0)
        base = segment_frontier(bundle, segment, PrevalenceVector(
            **_random_simplex(rng))).problem
        tables = segment_tables(bundle, segment, np.eye(4))
        partial = {node_id: tables[node_id]
                   for node_id in (FIT_RESULT, EXAM_RESULT)}
        evaluator = base.evaluator
        for evaluate in (evaluator.objective_matrix,
                         evaluator.dense_objective_matrix):
            with pytest.raises(ValueError, match="not for the chance nodes"):
                evaluate(partial)
        assert_bits(evaluator.objective_matrix(tables),
                    evaluator.dense_objective_matrix(tables))


def assert_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSharedEvaluator:
    """One evaluator serves every segment of a run: each segment evaluated
    through it, with its own chance tables, has the bits of a fresh
    per-segment evaluator."""

    def test_every_segment_bit_identical_to_fresh_evaluator(self):
        rng = np.random.default_rng(281)
        for K in range(1, 6):
            doc = random_params_doc(rng, periods=K,
                                    n_cutoffs=int(rng.integers(3, 7)),
                                    monotone=bool(K % 2),
                                    fix_exam=K in (2, 4, 5))
            doc["options"]["incentive_enabled"] = K not in (3, 4)
            bundle, _ = load_parameters(doc)
            fixed = fixed_decision_rules(bundle)
            # the run's evaluator: women's period 1 at their start
            evaluator = segment_frontier(
                bundle, Segment(Sex.F, 1),
                bundle.starting_prevalence(Sex.F)).problem.evaluator
            for segment in (Segment(sex, k) for sex in (Sex.F, Sex.M)
                            for k in range(1, K + 1)):
                start = np.array(tuple(_random_simplex(rng).values()))
                diagram = build_segment_diagram(segment, bundle,
                                                PrevalenceVector(*start))
                fresh = StrategyEvaluator(diagram, fixed)
                own = fresh.objective_matrix(dense_tables(diagram))[0]
                assert_bits(evaluator.objective_matrix(segment_tables(
                    bundle, segment, start[None]))[0], own)
                vertices = fresh.objective_matrix(
                    segment_tables(bundle, segment, np.eye(4)))
                assert_bits(evaluator.objective_matrix(segment_tables(
                    bundle, segment, np.eye(4))), vertices)
                # phase 1's one evaluation of a period: the start's row
                # first, then the vertices' in vertex order
                at_start, vertex = period_values(bundle, segment, evaluator,
                                                 start)
                assert_bits(at_start, own)
                assert_bits(vertex, np.moveaxis(vertices, 0, 2))
                starts = segment_tables(bundle, segment, np.array(
                    [tuple(_random_simplex(rng).values())
                     for _ in range(int(rng.integers(1, 6)))]))
                assert_bits(evaluator.objective_matrix(starts),
                            fresh.objective_matrix(starts))

    def test_foreign_structure_rejected(self):
        rng = np.random.default_rng(283)
        doc = random_params_doc(rng, periods=2, n_cutoffs=4)
        bundle, _ = load_parameters(doc)
        psi = PrevalenceVector(**_random_simplex(rng))
        evaluator = segment_frontier(bundle, Segment(Sex.F, 1),
                                     psi).problem.evaluator
        row = np.array([psi.as_tuple()])
        # a cut-off subset: tables of another shape
        fewer = json.loads(json.dumps(doc))
        fewer["options"]["cutoff_set"] = doc["fit"]["cutoffs"][:3]
        tables = segment_tables(load_parameters(fewer)[0], Segment(Sex.M, 2),
                                row)
        for evaluate in (evaluator.objective_matrix,
                         evaluator.dense_objective_matrix):
            with pytest.raises(ValueError, match="has shape"):
                evaluate(tables)
        # the same structure with other chance tables is accepted, with a
        # fresh diagram's bits
        other = json.loads(json.dumps(doc))
        other["participation"]["contact"]["M"][1] = 0.5
        other_bundle = load_parameters(other)[0]
        assert_bits(evaluator.objective_matrix(segment_tables(
            other_bundle, Segment(Sex.M, 2), row))[0],
            segment_frontier(other_bundle, Segment(Sex.M, 2),
                             psi).problem.reported)


class TestStrategyClasses:
    """Objectives are linear in the start prevalence: the four vertex
    evaluations give every strategy's objectives at any prevalence, and the
    strategies equal at the vertices are equal everywhere."""

    def test_vertex_values_are_linear_in_prevalence(self):
        rng = np.random.default_rng(233)
        for trial in range(12):
            zero_positive = trial % 4 == 3
            bundle, segment = TestReweightedSegments.random_case(
                rng, trial, zero_positive=zero_positive)
            if zero_positive:
                fit = segment_tables(
                    bundle, segment,
                    np.array([VERTICES[0].as_tuple()]))[FIT_RESULT]
                assert fit[0, 0, 1, 1] == 0.0
            fixed = fixed_decision_rules(bundle)
            start = np.array(tuple(_random_simplex(rng).values()))
            base = segment_frontier(bundle, segment,
                                    PrevalenceVector(*start)).problem
            _, values = period_values(bundle, segment, base.evaluator, start)
            reps, class_of = strategy_classes(values)
            assert np.array_equal(class_of[reps], np.arange(len(reps)))
            assert np.all(reps[class_of] <= np.arange(len(class_of)))
            for _ in range(3):
                psi = PrevalenceVector(**_random_simplex(rng))
                diagram = build_segment_diagram(segment, bundle, psi)
                direct = StrategyEvaluator(diagram, fixed).objective_matrix(
                    dense_tables(diagram))[0]
                linear = values @ np.array(psi.as_tuple())
                assert np.all(np.abs(linear - direct)
                              <= 1e-12 * np.abs(direct))
                # Not bit for bit: inviting without examining costs the
                # same at every cut-off, summed over different test-result
                # splits, so those members can differ in the last bit.
                bound = LINEARITY_TOL * vertex_sum(
                    np.array([psi.as_tuple()]), np.abs(values))[0]
                assert np.all(np.abs(direct - direct[reps[class_of]])
                              <= bound)

    @staticmethod
    def assert_same_classes(values):
        got, want = strategy_classes(values), strategy_classes_unique(values)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_sort_matches_unique_oracle(self):
        rng = np.random.default_rng(293)
        for trial in range(4):
            doc = random_params_doc(rng, periods=2,
                                    n_cutoffs=int(rng.integers(3, 7)),
                                    monotone=bool(trial % 2),
                                    fix_exam=trial % 3 == 0)
            bundle, _ = load_parameters(doc)
            for sex in (Sex.F, Sex.M):
                for k in (1, 2):
                    segment = Segment(sex, k)
                    start = np.array(tuple(_random_simplex(rng).values()))
                    problem = segment_frontier(
                        bundle, segment, PrevalenceVector(*start)).problem
                    self.assert_same_classes(period_values(
                        bundle, segment, problem.evaluator, start)[1])
        # planted exact ties, with zeros of either sign
        for _ in range(200):
            distinct = rng.choice([-1.0, 0.0, 0.25, 1.0],
                                  size=(int(rng.integers(1, 6)), 2, 3))
            values = distinct[rng.integers(0, len(distinct),
                                           size=int(rng.integers(1, 40)))]
            flip = (values == 0) & (rng.random(values.shape) < 0.5)
            values[flip] = -0.0
            self.assert_same_classes(values)

    def test_batched_periods_equal_per_history_frontiers(self):
        # cross_check compares every history's batched frontier with the
        # per-history solve, strategies and values exactly
        rng = np.random.default_rng(241)
        masks = (None, ["colonoscopy", "crc_found"],
                 ["cost", "colonoscopy", "crc_found"])
        for trial in range(6):
            doc = random_params_doc(rng, periods=3, n_cutoffs=2,
                                    monotone=bool(trial % 2),
                                    fix_exam=trial % 3 == 0)
            if trial % 4 == 1:
                doc["options"]["incentive_enabled"] = False
            bundle, _ = load_parameters(doc)
            run_phase1(bundle, budget=1e9, periods=3,
                       objective_mask=masks[trial % 3], cross_check=True)

    def test_cross_check_compares_rows_with_dense_evaluation(
            self, monkeypatch):
        # only the dense oracle moves: its nonzero values by one ulp stay
        # within the linearity bound, by a relative 1e-12 they leave it,
        # and the frontier checks still agree, so the row comparison alone
        # must catch it
        dense = screenopt.diagram.StrategyEvaluator.dense_objective_matrix
        rng = np.random.default_rng(263)
        bundle, _ = load_parameters(random_params_doc(rng, periods=2,
                                                      n_cutoffs=2))
        for nudge, fails in ((one_ulp, False),
                             (lambda m: m * (1 + 1e-12), True)):
            monkeypatch.setattr(
                screenopt.diagram.StrategyEvaluator, "dense_objective_matrix",
                lambda self, tables, nudge=nudge: nudge(dense(self, tables)))
            run_phase1(bundle, budget=1e9, periods=2)
            if fails:
                with pytest.raises(OracleMismatchError,
                                   match="dense evaluation"):
                    run_phase1(bundle, budget=1e9, periods=2,
                               cross_check=True)
            else:
                run_phase1(bundle, budget=1e9, periods=2, cross_check=True)


class TestLinearityCertificate:
    """Each history's objectives are its start's vertex sum of the class
    representatives' vertex values; every period certifies the sum at its
    first history against the full-space solve."""

    def test_vertex_sum_order(self):
        # elementwise, in vertex order: the bits of the written-out sum
        rng = np.random.default_rng(313)
        psi = rng.random((7, 4))
        values = rng.normal(size=(5, 3, 4)) * 10.0 ** rng.integers(
            -8, 8, size=(5, 3, 4))
        p = psi[:, None, None, :]
        want = ((p[..., 0] * values[..., 0] + p[..., 1] * values[..., 1])
                + p[..., 2] * values[..., 2]) + p[..., 3] * values[..., 3]
        assert_bits(vertex_sum(psi, values), want)

    @pytest.mark.parametrize("fault", LINEARITY_FAULTS)
    def test_fault_raises_without_cross_check(self, monkeypatch, fault):
        rng = np.random.default_rng(307)
        bundle, _ = load_parameters(random_params_doc(rng, periods=2,
                                                      n_cutoffs=3))
        run_phase1(bundle, budget=1e9, periods=2)
        break_linearity(monkeypatch, fault)
        with pytest.raises(OracleMismatchError, match="class's vertex sum"):
            run_phase1(bundle, budget=1e9, periods=2)

    @staticmethod
    def assert_rows_within_bound(bundle, budget):
        """Every history's vertex-sum rows, of every class, lie within the
        linearity bound of the dense evaluation at its start, and its
        table's rows are those sums' bits."""
        evaluator = segment_frontier(
            bundle, Segment(Sex.F, 1),
            bundle.starting_prevalence(Sex.F)).problem.evaluator
        for sex, table in run_phase1(bundle, budget).items():
            for period, _ in table.lineage(np.zeros(0, dtype=np.intp)):
                segment = Segment(sex, period.period)
                starts = (np.array([period.start.as_tuple()])
                          if period.parent is None else period.parent.updated)
                at_start, values = period_values(bundle, segment, evaluator,
                                                 starts[0])
                # the first start's row has the bits of its own diagram's
                base = segment_frontier(bundle, segment,
                                        PrevalenceVector(*starts[0])).problem
                assert_bits(at_start, base.reported)
                reps, _ = strategy_classes(values)
                assert [s.key for s in period.strategies] == \
                    [base.strategy(r).key for r in reps.tolist()]
                rows = vertex_sum(starts, values[reps])
                assert_bits(period.reported,
                            rows[period.parent_row, period.strategy])
                bound = LINEARITY_TOL * vertex_sum(starts,
                                                   np.abs(values[reps]))
                for block in np.array_split(np.arange(len(starts)),
                                            -(-len(starts) // 16)):
                    dense = evaluator.dense_objective_matrix(segment_tables(
                        bundle, segment, starts[block]))[:, reps]
                    assert np.all(np.abs(rows[block] - dense) <= bound[block])

    def test_shipped_rows_within_bound_of_dense(self, default_bundle):
        self.assert_rows_within_bound(default_bundle, 20000.0)

    def test_random_rows_within_bound_of_dense(self):
        rng = np.random.default_rng(311)
        for trial in range(3):
            doc = random_params_doc(rng, periods=3,
                                    n_cutoffs=int(rng.integers(3, 6)),
                                    monotone=bool(trial % 2),
                                    fix_exam=trial == 2)
            self.assert_rows_within_bound(load_parameters(doc)[0],
                                          float(rng.uniform(2000, 20000)))


class TestStrategyOrder:
    """Every period's strategies are its class representatives by
    ascending index, and ``remove_dominated`` breaks ties on the index
    because that order is the strategy-key order."""

    @staticmethod
    def assert_keys_ascend(table):
        while table is not None:
            keys = [s.key for s in table.strategies]
            assert all(a < b for a, b in zip(keys, keys[1:])), table.period
            table = table.parent

    @pytest.mark.parametrize("change", [
        {}, {"fix_exam_to_colonoscopy": True}, {"incentive_enabled": False},
        {"cutoff_set": ["50", "40", "25", "20", "10"]}])
    def test_shipped_parameters(self, default_doc, change):
        doc = json.loads(json.dumps(default_doc))
        doc["options"].update(change)
        bundle, _ = load_parameters(doc)
        for table in run_phase1(bundle, budget=20000.0).values():
            self.assert_keys_ascend(table)

    def test_random_documents(self):
        rng = np.random.default_rng(307)
        for trial in range(2):
            doc = random_params_doc(rng, periods=3, n_cutoffs=3,
                                    monotone=bool(trial), fix_exam=False)
            bundle, _ = load_parameters(doc)
            for table in run_phase1(bundle, budget=1e9).values():
                self.assert_keys_ascend(table)


def every_segment_frontier(doc):
    """The frontier of every (sex, period) segment of ``doc`` at its
    no-screening prevalence, as the ``segment`` command solves it."""
    bundle, _ = load_parameters(doc)
    out = {}
    for sex in (Sex.F, Sex.M):
        rollout = natural_progression_rollout(
            bundle.starting_prevalence(sex), bundle.transitions[sex.value])
        for k in range(1, bundle.periods + 1):
            out[sex, k] = segment_frontier(bundle, Segment(sex, k),
                                           rollout[k - 1])
    return out


class TestFrontierInvariance:
    """Relabelling the cut-offs or rescaling the costs does not change
    which strategies a segment frontier holds."""

    @staticmethod
    def documents(default_doc):
        rng = np.random.default_rng(311)
        docs = [default_doc] + [
            random_params_doc(rng, periods=2, n_cutoffs=4,
                              monotone=bool(i % 2), fix_exam=False)
            for i in range(2)]
        for doc in docs:
            for fix_exam in (False, True):
                doc = json.loads(json.dumps(doc))
                doc["options"]["fix_exam_to_colonoscopy"] = fix_exam
                yield doc

    def test_cutoff_declaration_order(self, default_doc):
        # the objective rows on every frontier are exactly equal as a
        # multiset when fit.cutoffs is declared in another order
        for doc in self.documents(default_doc):
            shuffled = json.loads(json.dumps(doc))
            cutoffs = shuffled["fit"]["cutoffs"]
            shuffled["fit"]["cutoffs"] = cutoffs[1::2][::-1] + cutoffs[::2]
            assert shuffled["fit"]["cutoffs"] != cutoffs
            want, got = every_segment_frontier(doc), \
                every_segment_frontier(shuffled)
            for segment, frontier in want.items():
                assert sorted(p.objectives.values for p in frontier.points) \
                    == sorted(p.objectives.values
                              for p in got[segment].points), segment

    @staticmethod
    def doubled(value):
        if isinstance(value, dict):
            return {k: TestFrontierInvariance.doubled(v)
                    for k, v in value.items()}
        return 2 * value

    def test_doubled_costs(self, default_doc):
        # doubling is exact in binary: the frontier keeps its strategies,
        # its cost column doubles exactly and the other columns keep
        # their bits
        for doc in self.documents(default_doc):
            scaled = json.loads(json.dumps(doc))
            scaled["costs"] = self.doubled(scaled["costs"])
            want, got = every_segment_frontier(doc), \
                every_segment_frontier(scaled)
            for segment, frontier in want.items():
                assert [p.strategy.key for p in frontier.points] == \
                    [p.strategy.key for p in got[segment].points], segment
                old = np.array([p.objectives.values for p in frontier.points])
                new = np.array([p.objectives.values
                                for p in got[segment].points])
                cost = frontier.points[0].objectives.names.index("cost")
                assert np.array_equal(new[:, cost], 2 * old[:, cost])
                rest = np.arange(old.shape[1]) != cost
                assert np.array_equal(new[:, rest], old[:, rest])


class TestExhaustivePhase1:
    """The pipeline's best pair matches the best pair of every
    budget-feasible class sequence: pruning by frontiers and by the four
    dominance keys has not lost the optimum."""

    @staticmethod
    def assert_matches_exhaustive(bundle, budgets, periods):
        histories = run_phase1(bundle, budget=max(budgets), periods=periods)
        problem = selection_problem_from_histories(bundle, histories)
        got = [r.cancer_share if r.feasible else None
               for r in budget_sweep(problem, budgets)]
        want = exhaustive_best_shares(bundle, budgets, periods)
        assert [g is None for g in got] == [w is None for w in want]
        for budget, g, w in zip(budgets, got, want):
            if g is not None:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), budget

    @pytest.mark.parametrize("periods", [1, 2, 3])
    def test_shipped_parameters(self, default_bundle, periods):
        budgets = [250.0, 1000.0, 2500.0, 5000.0, 9000.0, 14000.0]
        self.assert_matches_exhaustive(default_bundle, budgets, periods)

    def test_random_documents(self):
        rng = np.random.default_rng(277)
        for trial in range(4):
            doc = random_params_doc(rng, periods=3, n_cutoffs=2,
                                    monotone=bool(trial % 2),
                                    fix_exam=trial % 3 == 0)
            bundle, _ = load_parameters(doc)
            budgets = sorted(rng.uniform(100, 8000, size=5).tolist())
            self.assert_matches_exhaustive(bundle, budgets, 3)

    def test_extreme_documents(self):
        # fast progression and arbitrary test characteristics, where the
        # four dominance keys are not exact in principle; budgets up to
        # 0.35 colonoscopies per capita, where they still bind
        rng = np.random.default_rng(331)
        for _ in range(20):
            bundle, _ = load_parameters(extreme_params_doc(rng))
            population = bundle.total_population(Sex.F, 3) + \
                bundle.total_population(Sex.M, 3)
            budgets = sorted((population
                              * rng.uniform(0, 0.35, size=8)).tolist())
            self.assert_matches_exhaustive(bundle, budgets, 3)
