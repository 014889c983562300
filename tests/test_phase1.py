"""Multi-period search: prevalence recurrences, history expansion, pruning.

Two-period runs are held against exhaustive tree search over all strategy
pairs (same dominance comparison, same budget rule); recurrences are held
against an inline transcription of the difference equations plus the worked
example.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import screenopt.pareto
from conftest import _random_simplex, random_params_doc, small_doc
from oracles import exhaustive_two_period, remove_dominated_loop
from screenopt.diagram import StrategyEvaluator
from screenopt.errors import CapacityError, InfeasibleBudgetError
from screenopt.phase1 import (
    BUDGET_TOL,
    DetectedFractions,
    baseline_trajectory,
    colonoscopies_of,
    detected_fractions_of,
    natural_progression_rollout,
    remove_dominated,
    run_phase1,
    segment_frontier,
    segment_problem,
    update_prevalences,
)
from screenopt.screening import (
    PrevalenceVector,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    fixed_decision_rules,
    load_parameters,
    prevalence_cpts,
)

WORKED_PSI = PrevalenceVector(normal=0.9, benign=0.06, large=0.03, crc=0.01)
WORKED_FOUND = DetectedFractions(benign=0.03, large=0.02, crc=0.008)
WORKED_RATES = TransitionRates(normal_to_benign=0.02, benign_to_large=0.1,
                               large_to_crc=0.05)
NO_RATES = TransitionRates(0.0, 0.0, 0.0)
NOTHING = DetectedFractions(0.0, 0.0, 0.0)


class TestUpdatePrevalences:
    def test_fixed_point(self):
        out = update_prevalences(WORKED_PSI, NOTHING, NO_RATES)
        assert out.as_tuple() == pytest.approx(WORKED_PSI.as_tuple(),
                                               abs=1e-15)

    def test_worked_example(self):
        out = update_prevalences(WORKED_PSI, WORKED_FOUND, WORKED_RATES)
        assert out.benign == pytest.approx(0.045, abs=1e-15)
        assert out.large == pytest.approx(0.0125, abs=1e-15)
        assert out.crc == pytest.approx(0.0025, abs=1e-15)
        assert out.normal == pytest.approx(0.94, abs=1e-15)

    def test_full_detection_resets_to_normal(self):
        found = DetectedFractions(WORKED_PSI.benign, WORKED_PSI.large,
                                  WORKED_PSI.crc)
        out = update_prevalences(WORKED_PSI, found, NO_RATES)
        assert out.as_tuple() == (1.0, 0.0, 0.0, 0.0)

    def test_detection_above_prevalence_rejected(self):
        found = DetectedFractions(WORKED_PSI.benign + 1e-3, 0.0, 0.0)
        with pytest.raises(ValueError):
            update_prevalences(WORKED_PSI, found, NO_RATES)

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
            out = update_prevalences(psi, found, rates)

            # direct transcription of the difference equations
            b = (psi.benign - found.benign) * (1 - rates.benign_to_large) \
                + psi.normal * rates.normal_to_benign
            lg = (psi.large - found.large) * (1 - rates.large_to_crc) \
                + (psi.benign - found.benign) * rates.benign_to_large
            r = psi.crc - found.crc \
                + (psi.large - found.large) * rates.large_to_crc
            n = 1 - b - lg - r
            assert out.as_tuple() == pytest.approx((n, b, lg, r), abs=1e-12)
            assert sum(out.as_tuple()) == pytest.approx(1.0, abs=1e-9)
            assert min(out.as_tuple()) >= -1e-12


class TestRollout:
    def test_constant_without_transitions(self):
        rollout = natural_progression_rollout(WORKED_PSI, [NO_RATES] * 3)
        assert len(rollout) == 4
        for psi in rollout:
            assert psi.as_tuple() == pytest.approx(WORKED_PSI.as_tuple(),
                                                   abs=1e-15)

    def test_single_step_matches_update(self):
        rollout = natural_progression_rollout(WORKED_PSI, [WORKED_RATES], 1)
        direct = update_prevalences(WORKED_PSI, NOTHING, WORKED_RATES)
        assert rollout[1].as_tuple() == direct.as_tuple()

    def test_cancer_weakly_increases_without_screening(self):
        rates = TransitionRates(0.01, 0.02, 0.05)
        rollout = natural_progression_rollout(WORKED_PSI, [rates] * 6)
        crc = [psi.crc for psi in rollout]
        assert all(a <= b + 1e-15 for a, b in zip(crc, crc[1:]))


class TestDetectedFractions:
    def test_no_invite_point_detects_nothing(self, small_bundle):
        frontier = segment_frontier(small_bundle, Segment(Sex.F, 1),
                                    small_bundle.starting_prevalence(Sex.F))
        null_points = [p for p in frontier.points
                       if p.objectives.by_name("cost") == 0.0]
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
                   key=lambda p: p.objectives.by_name("crc_found"))
        found = detected_fractions_of(best)
        assert found.benign == pytest.approx(psi.benign, abs=1e-12)
        assert found.large == pytest.approx(psi.large, abs=1e-12)
        assert found.crc == pytest.approx(psi.crc, abs=1e-12)


class TestRemoveDominated:
    def hist(self, key):
        class Stub:
            def __init__(self, key):
                self._key = key

            def dominance_key(self):
                return self._key

            def sort_key(self):
                return self._key
        return Stub(key)

    def test_strictly_dominated_removed_ties_kept(self):
        a = self.hist((1.0, 1.0, 1.0, 1.0))
        b = self.hist((1.0, 1.0, 1.0, 1.0))   # exact tie with a: kept
        c = self.hist((2.0, 1.0, 1.0, 1.0))   # dominated by a: removed
        d = self.hist((0.5, 2.0, 1.0, 1.0))   # incomparable: kept
        kept = remove_dominated([a, b, c, d])
        assert set(kept) == {a, b, d}

    @pytest.mark.parametrize("cells", [1 << 20, 40])
    def test_equals_row_loop_with_ties_and_near_ties(self, monkeypatch,
                                                     cells):
        # a small cell budget forces many blocks per call
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(151)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            keys = rng.integers(0, 4, size=(n, 4)).astype(float) * 1e-3
            # near ties straddling the 1e-9 tolerance, and exact duplicates
            jitter = rng.choice([0.0, 0.0, 5e-10, -5e-10, 1e-9, -1e-9,
                                 1.5e-9, -1.5e-9], size=keys.shape)
            keys = keys + jitter
            dup = rng.integers(0, n, size=n // 4)
            keys[rng.integers(0, n, size=len(dup))] = keys[dup]
            histories = [self.hist(tuple(row)) for row in keys]
            assert remove_dominated(histories) == \
                remove_dominated_loop(histories)
        assert remove_dominated([]) == []


def tiny_bundle(default_doc, periods=2):
    """Two cut-offs, fixed examination: 8 strategies per segment."""
    doc = small_doc(default_doc, periods=periods, cutoffs=("10", "50"),
                    fix_exam=True)
    bundle, _ = load_parameters(doc)
    return bundle


class TestRunPhase1:
    def test_single_period_equals_wrapped_frontier(self, default_doc):
        bundle = tiny_bundle(default_doc)
        frontier = segment_frontier(bundle, Segment(Sex.F, 1),
                                    bundle.starting_prevalence(Sex.F))
        result = run_phase1(bundle, budget=1e9, periods=1)[Sex.F]
        assert len(result) == len(frontier.points)
        for hist, point in zip(result, frontier.points):
            assert len(hist.records) == 1
            assert hist.records[0].objectives.values == \
                point.objectives.values
            assert hist.records[0].strategy.key == point.strategy.key
            assert hist.cumulative_colonoscopies == \
                colonoscopies_of(point) * bundle.cohort_size(Segment(Sex.F, 1))

    def test_two_periods_equal_exhaustive_tree(self, default_doc):
        bundle = tiny_bundle(default_doc)
        seg = Segment(Sex.F, 1)
        d = build_segment_diagram(seg, bundle, bundle.starting_prevalence(Sex.F))
        assert d.strategy_count(fixed=tuple(fixed_decision_rules(bundle))) <= 20
        for budget in (300.0, 900.0, 1e9):
            got = run_phase1(bundle, budget=budget, periods=2)
            for sex in (Sex.F, Sex.M):
                keys = {
                    tuple(round(v, 12) for v in h.dominance_key())
                    for h in got[sex]
                }
                assert keys == exhaustive_two_period(bundle, budget)[sex], \
                    (sex, budget)

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
                assert (top.sort_key() in
                        [h.sort_key() for h in result]) is kept, budget
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

    def test_history_cap(self, default_doc):
        bundle = tiny_bundle(default_doc)
        with pytest.raises(CapacityError):
            run_phase1(bundle, budget=1e9, periods=2, history_cap=2)

    def test_deterministic_across_runs(self, default_doc):
        bundle = tiny_bundle(default_doc)
        a = run_phase1(bundle, budget=800.0, periods=2)
        b = run_phase1(bundle, budget=800.0, periods=2)
        for sex in (Sex.F, Sex.M):
            keys_a = [h.dominance_key() for h in a[sex]]
            keys_b = [h.dominance_key() for h in b[sex]]
            assert keys_a == keys_b
            assert [h.sort_key() for h in a[sex]] == \
                [h.sort_key() for h in b[sex]]

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
                keys = {tuple(round(v, 12) for v in h.dominance_key())
                        for h in got[sex]}
                assert keys == want[sex]


class TestReweightedSegments:
    """A segment built once and re-weighted per prevalence must give the
    bits a fresh diagram and evaluator give."""

    @staticmethod
    def random_case(rng, trial):
        n_cutoffs = int(rng.integers(2, 5))
        doc = random_params_doc(rng, periods=2, n_cutoffs=n_cutoffs,
                                monotone=bool(trial % 2),
                                fix_exam=trial % 3 == 0)
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
            base = segment_problem(
                bundle, segment, PrevalenceVector(**_random_simplex(rng)))
            prevalences = [PrevalenceVector(**_random_simplex(rng))
                           for _ in range(3)]
            prevalences.append(PrevalenceVector(1.0, 0.0, 0.0, 0.0))
            for psi in prevalences:
                fresh = StrategyEvaluator(
                    build_segment_diagram(segment, bundle, psi)
                ).objective_matrix(fixed=fixed)
                reused = base.with_cpts(prevalence_cpts(bundle, psi))
                assert np.array_equal(reused.reported, fresh)
                assert np.array_equal(np.signbit(reused.reported),
                                      np.signbit(fresh))

    def test_reweighted_frontier_equals_fresh_frontier(self):
        rng = np.random.default_rng(223)
        for trial in range(6):
            bundle, segment = self.random_case(rng, trial)
            base = segment_problem(
                bundle, segment, PrevalenceVector(**_random_simplex(rng)))
            psi = PrevalenceVector(**_random_simplex(rng))
            fresh = segment_frontier(bundle, segment, psi)
            reused = segment_frontier(bundle, segment, psi, base=base)
            assert [p.objectives.values for p in reused.points] == \
                [p.objectives.values for p in fresh.points]
            assert [p.strategy.key for p in reused.points] == \
                [p.strategy.key for p in fresh.points]

    def test_prevalence_tables_are_the_diagrams_tables(self):
        rng = np.random.default_rng(227)
        bundle, segment = self.random_case(rng, 0)
        psi = PrevalenceVector(**_random_simplex(rng))
        diagram = build_segment_diagram(segment, bundle, psi)
        for node_id, table in prevalence_cpts(bundle, psi).items():
            assert diagram.cpts[node_id] == table
