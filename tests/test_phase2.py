"""Final selection under the examination budget, against the pair scans."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_pair_scan, selectable_loop
from screenopt.phase1 import BUDGET_TOL
from screenopt.phase2 import (
    SELECT_BLOCK,
    SelectionProblem,
    StrategyCandidate,
    _selectable,
    budget_sweep,
    dense_pair_sweep,
    select_strategies,
)


def candidate(key, cancers, percap, cost=0.0, *, population):
    return StrategyCandidate(
        key=key,
        expected_cancers=cancers,
        colonoscopies_per_capita=percap,
        total_colonoscopies=percap * population,
        total_cost=cost,
    )


def make_problem(female, male, budget, nf=1000.0, nm=800.0):
    return SelectionProblem(
        female=tuple(candidate(f"F{i}", *args, population=nf)
                     for i, args in enumerate(female)),
        male=tuple(candidate(f"M{i}", *args, population=nm)
                   for i, args in enumerate(male)),
        population_female=nf,
        population_male=nm,
        budget=budget,
    )


class TestSelectStrategies:
    def test_single_candidate_pair(self):
        p = make_problem(female=[(3.0, 0.01)], male=[(5.0, 0.02)],
                         budget=100.0)
        res = select_strategies(p)
        assert res.feasible
        assert (res.female_index, res.male_index) == (0, 0)
        assert res.cancer_share == pytest.approx((3.0 + 5.0) / 1800.0)
        assert res.total_colonoscopies == pytest.approx(
            1000 * 0.01 + 800 * 0.02)

    def test_unlimited_budget_picks_per_sex_minimizers(self):
        p = make_problem(
            female=[(9.0, 0.5), (2.0, 0.9), (5.0, 0.1)],
            male=[(4.0, 0.3), (1.0, 0.8)],
            budget=1e12)
        res = select_strategies(p)
        assert (res.female_index, res.male_index) == (1, 1)

    def test_tight_budget_matches_reference(self):
        rng = np.random.default_rng(211)
        for _ in range(200):
            jf, jm = rng.integers(1, 6, size=2)
            p = make_problem(
                female=[(float(rng.uniform(0, 20)),
                         float(rng.uniform(0, 0.2)),
                         float(rng.uniform(0, 9999)))
                        for _ in range(jf)],
                male=[(float(rng.uniform(0, 20)),
                       float(rng.uniform(0, 0.2)),
                       float(rng.uniform(0, 9999)))
                      for _ in range(jm)],
                budget=float(rng.uniform(20, 260)),
                nf=float(rng.uniform(500, 2000)),
                nm=float(rng.uniform(500, 2000)))
            got = select_strategies(p)
            want = reference_pair_scan(p)
            assert got == want

    def test_tie_break_prefers_fewer_colonoscopies_then_cost(self):
        p = make_problem(
            female=[(5.0, 0.05, 10.0), (5.0, 0.02, 10.0), (5.0, 0.02, 3.0)],
            male=[(1.0, 0.0)],
            budget=1e9)
        res = select_strategies(p)
        assert res.female_index == 2

    def test_infeasible_reports_min_colonoscopy_pair(self):
        p = make_problem(
            female=[(1.0, 0.5), (9.0, 0.2)],
            male=[(1.0, 0.4), (9.0, 0.3)],
            budget=10.0)
        res = select_strategies(p)
        assert not res.feasible
        assert (res.female_index, res.male_index) == (1, 1)
        assert res.total_colonoscopies == pytest.approx(
            1000 * 0.2 + 800 * 0.3)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            SelectionProblem(female=(), male=(), population_female=1.0,
                             population_male=1.0, budget=1.0)


class TestBudgetSweep:
    def sweep_problem(self):
        return make_problem(
            female=[(10.0, 0.01, 5.0), (6.0, 0.05, 9.0), (2.0, 0.2, 30.0)],
            male=[(12.0, 0.02, 5.0), (7.0, 0.08, 11.0), (3.0, 0.3, 40.0)],
            budget=0.0)

    def test_monotone_cancer_share(self):
        results = budget_sweep(self.sweep_problem(),
                               [50.0, 150.0, 300.0, 500.0])
        assert all(r.feasible for r in results)
        shares = [r.cancer_share for r in results]
        assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_identical_budgets_identical_results(self):
        results = budget_sweep(self.sweep_problem(), [150.0, 150.0])
        assert results[0] == results[1]

    def test_all_infeasible_below_minimum(self):
        p = make_problem(female=[(1.0, 0.5)], male=[(1.0, 0.5)], budget=0.0)
        results = budget_sweep(p, [1.0, 2.0])
        assert all(not r.feasible for r in results)

    def test_unsorted_budgets_rejected(self):
        with pytest.raises(ValueError):
            budget_sweep(self.sweep_problem(), [100.0, 50.0])

    def test_sweep_equals_one_selection_per_budget(self, monkeypatch):
        import screenopt.phase2 as phase2
        calls = []
        build = phase2._pair_matrices
        monkeypatch.setattr(phase2, "_pair_matrices",
                            lambda problem: calls.append(1) or build(problem))
        rng = np.random.default_rng(229)
        for _ in range(20):
            # coarse values make exact ties in share, colonoscopies and cost
            def draw():
                return (float(rng.integers(0, 4)),
                        float(rng.integers(0, 4)) * 0.01,
                        float(rng.integers(0, 3)))
            p = make_problem(
                female=[draw() for _ in range(int(rng.integers(1, 7)))],
                male=[draw() for _ in range(int(rng.integers(1, 7)))],
                budget=0.0)
            budgets = sorted(float(b) for b in rng.integers(0, 60, size=8))
            calls.clear()
            swept = budget_sweep(p, budgets)
            assert len(calls) == 1
            assert swept == [
                reference_pair_scan(dataclasses.replace(p, budget=b))
                for b in budgets]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            budget_sweep(self.sweep_problem(), [-1.0, 5.0])

    def test_budget_constraint_satisfied(self):
        rng = np.random.default_rng(223)
        p = make_problem(
            female=[(float(rng.uniform(0, 9)), float(rng.uniform(0, 0.1)))
                    for _ in range(4)],
            male=[(float(rng.uniform(0, 9)), float(rng.uniform(0, 0.1)))
                  for _ in range(4)],
            budget=0.0)
        for budget in (40.0, 90.0, 200.0):
            res = select_strategies(dataclasses.replace(p, budget=budget))
            if res.feasible:
                assert res.total_colonoscopies <= budget + 1e-9


# Coarse grids, so that pairs tie exactly in share, colonoscopies and cost.
GRID_CANDIDATE = st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                           st.sampled_from([0.0, 0.01, 0.02, 0.05]),
                           st.sampled_from([0.0, 1.0, 2.0]))


@st.composite
def grid_candidates(draw):
    drawn = draw(st.lists(GRID_CANDIDATE, min_size=1, max_size=7))
    copies = draw(st.lists(st.sampled_from(drawn), max_size=3))
    return draw(st.permutations(drawn + copies))


def assert_share_never_rises(results):
    feasible = [r.feasible for r in results]
    assert feasible == sorted(feasible)
    shares = [r.cancer_share for r in results if r.feasible]
    assert all(a >= b for a, b in zip(shares, shares[1:]))


class TestExactSweep:
    @settings(max_examples=300, deadline=None)
    @given(female=grid_candidates(), male=grid_candidates(),
           populations=st.sampled_from([(1000.0, 800.0), (700.0, 1300.0)]),
           budgets=st.lists(st.integers(0, 130), max_size=10),
           at_pair=st.lists(st.integers(0, 10**6), max_size=4))
    def test_equals_reference_pair_scan(self, female, male, populations,
                                        budgets, at_pair):
        nf, nm = populations
        p = make_problem(female, male, budget=0.0, nf=nf, nm=nm)
        # budgets exactly at some pairs' colonoscopy totals
        totals = [nf * f[1] + nm * m[1] for f in female for m in male]
        budgets = sorted([float(b) for b in budgets]
                         + [totals[k % len(totals)] for k in at_pair])
        swept = budget_sweep(p, budgets)
        assert swept == [
            reference_pair_scan(dataclasses.replace(p, budget=b))
            for b in budgets]
        assert_share_never_rises(swept)

    def test_rounding_tie_goes_to_lower_index(self):
        # 1.0 + 1e-17 rounds to 1.0: the pairs tie in every total although
        # the later candidate has fewer cancers.
        tied = [(1e-17, 0.01), (0.0, 0.01)]
        for female, male in (([(1.0, 0.01)], tied), (tied, [(1.0, 0.01)])):
            p = make_problem(female, male, budget=100.0)
            got = select_strategies(p)
            assert got == reference_pair_scan(p)
            assert (got.female_index, got.male_index) == (0, 0)

    def test_shipped_curve_equals_dense_scan(self, default_bundle):
        from oracles import history_key
        from screenopt.phase1 import run_phase1
        from screenopt.phase2 import selection_problem_from_histories

        budgets = [4000.0 + 16000.0 * i / 999 for i in range(1000)]
        histories = run_phase1(default_bundle, budget=max(budgets),
                               periods=4)
        keys = {sex: [history_key(h, default_bundle.effective_cutoffs())
                      for h in hs] for sex, hs in histories.items()}
        p = selection_problem_from_histories(default_bundle, histories, keys,
                                             max(budgets))
        swept = budget_sweep(p, budgets)
        assert_share_never_rises(swept)

        # Each selected pair's exact threshold: the smallest budget that
        # admits it, and the float just below, which does not.
        edges = []
        for col in {r.total_colonoscopies for r in swept}:
            budget = col - BUDGET_TOL
            while budget + BUDGET_TOL < col:
                budget = np.nextafter(budget, np.inf)
            while np.nextafter(budget, -np.inf) + BUDGET_TOL >= col:
                budget = np.nextafter(budget, -np.inf)
            edges += [float(budget), float(np.nextafter(budget, -np.inf))]
        budgets = sorted(budgets + edges)
        swept = budget_sweep(p, budgets)
        assert swept == dense_pair_sweep(p, budgets)
        assert_share_never_rises(swept)


class TestSelectableReduction:
    def test_blocked_pass_equals_candidate_loop(self):
        # few distinct values per key plant exact ties in examinations, in
        # cost and in all three keys; up to five blocks per set
        rng = np.random.default_rng(419)
        for trial in range(60):
            n = int(rng.integers(1, 5 * SELECT_BLOCK))

            def draw(scale):
                if trial % 4 == 3:
                    return rng.uniform(0, scale, size=n)
                values = rng.uniform(0, scale, size=int(rng.integers(1, 12)))
                return rng.choice(values, size=n)

            cancers, percap, cost = draw(30.0), draw(0.3), draw(1e5)
            copies = rng.integers(0, n, size=(2, n // 4))
            for key in (cancers, percap, cost):
                key[copies[0]] = key[copies[1]]
            population = float(rng.uniform(100, 5000))
            candidates = tuple(
                candidate(f"c{i}", *values, population=population)
                for i, values in enumerate(zip(cancers.tolist(),
                                               percap.tolist(),
                                               cost.tolist())))
            np.testing.assert_array_equal(
                _selectable(candidates, population),
                selectable_loop(candidates, population))


class TestEndToEnd:
    def test_two_period_selection_is_globally_optimal(self, default_doc):
        """With two periods there is no intermediate dominance pruning, so
        the two-phase result must attain the best population cancer share
        over ALL joint strategy combinations within the budget."""
        import json as _json

        from conftest import small_doc
        from oracles import all_two_period_outcomes, history_key
        from screenopt.phase1 import run_phase1
        from screenopt.phase2 import selection_problem_from_histories
        from screenopt.screening import Sex, load_parameters

        doc = small_doc(default_doc, periods=2, cutoffs=("10", "50"),
                        fix_exam=True)
        bundle, _ = load_parameters(doc)
        pop = {sex: bundle.total_population(sex, periods=2)
               for sex in (Sex.F, Sex.M)}
        outcomes = {sex: list(all_two_period_outcomes(bundle, sex))
                    for sex in (Sex.F, Sex.M)}

        for budget in (600.0, 1200.0, 1e9):
            histories = run_phase1(bundle, budget=budget, periods=2)
            keys = {sex: [history_key(h, bundle.effective_cutoffs())
                          for h in histories[sex]] for sex in histories}
            problem = selection_problem_from_histories(bundle, histories,
                                                       keys, budget)
            result = select_strategies(problem)
            assert result.feasible

            best = min(
                (cancer_f * pop[Sex.F] + cancer_m * pop[Sex.M])
                / (pop[Sex.F] + pop[Sex.M])
                for cancer_f, _, _, col_f in outcomes[Sex.F]
                for cancer_m, _, _, col_m in outcomes[Sex.M]
                if col_f + col_m <= budget + 1e-9)
            assert result.cancer_share == pytest.approx(best, abs=1e-12)
