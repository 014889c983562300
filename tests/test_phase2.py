"""Final selection under the examination budget, against the pair scans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenopt.pareto
from oracles import reference_pair_scan, selectable_loop
from screenopt.phase1 import BUDGET_TOL
from screenopt.phase2 import (
    SelectionProblem,
    _selectable,
    budget_sweep,
    dense_pair_sweep,
)


def candidates(rows, population):
    """(cancers, examinations per capita[, cost]) tuples as the (N x 3)
    array of cancers, examinations and cost."""
    return np.array([(row[0], population * row[1],
                      row[2] if len(row) > 2 else 0.0) for row in rows])


def make_problem(female, male, nf=1000.0, nm=800.0):
    return SelectionProblem(
        female=candidates(female, nf),
        male=candidates(male, nm),
        population_female=nf,
        population_male=nm,
    )


def select(problem, budget):
    return budget_sweep(problem, [budget])[0]


class TestSelectStrategies:
    def test_single_candidate_pair(self):
        p = make_problem(female=[(3.0, 0.01)], male=[(5.0, 0.02)])
        res = select(p, 100.0)
        assert res.feasible
        assert (res.female_index, res.male_index) == (0, 0)
        assert res.cancer_share == pytest.approx((3.0 + 5.0) / 1800.0)
        assert res.total_colonoscopies == pytest.approx(
            1000 * 0.01 + 800 * 0.02)

    def test_unlimited_budget_picks_per_sex_minimizers(self):
        p = make_problem(
            female=[(9.0, 0.5), (2.0, 0.9), (5.0, 0.1)],
            male=[(4.0, 0.3), (1.0, 0.8)])
        res = select(p, 1e12)
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
                nf=float(rng.uniform(500, 2000)),
                nm=float(rng.uniform(500, 2000)))
            budget = float(rng.uniform(20, 260))
            got = select(p, budget)
            want = reference_pair_scan(p, budget)
            assert got == want

    def test_tie_break_prefers_fewer_colonoscopies_then_cost(self):
        p = make_problem(
            female=[(5.0, 0.05, 10.0), (5.0, 0.02, 10.0), (5.0, 0.02, 3.0)],
            male=[(1.0, 0.0)])
        res = select(p, 1e9)
        assert res.female_index == 2

    def test_infeasible_reports_min_colonoscopy_pair(self):
        p = make_problem(
            female=[(1.0, 0.5), (9.0, 0.2)],
            male=[(1.0, 0.4), (9.0, 0.3)])
        res = select(p, 10.0)
        assert not res.feasible
        assert (res.female_index, res.male_index) == (1, 1)
        assert res.total_colonoscopies == pytest.approx(
            1000 * 0.2 + 800 * 0.3)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SelectionProblem(female=np.empty((0, 3)), male=np.empty((0, 3)),
                             population_female=1.0, population_male=1.0)

    def test_malformed_problem_rejected(self):
        good = np.zeros((2, 3))
        for female in (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="N x 3"):
                SelectionProblem(female=female, male=good,
                                 population_female=1.0, population_male=1.0)
        for populations in ((0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="positive"):
                SelectionProblem(good, good, *populations)


class TestBudgetSweep:
    def sweep_problem(self):
        return make_problem(
            female=[(10.0, 0.01, 5.0), (6.0, 0.05, 9.0), (2.0, 0.2, 30.0)],
            male=[(12.0, 0.02, 5.0), (7.0, 0.08, 11.0), (3.0, 0.3, 40.0)])

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
        p = make_problem(female=[(1.0, 0.5)], male=[(1.0, 0.5)])
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
                male=[draw() for _ in range(int(rng.integers(1, 7)))])
            budgets = sorted(float(b) for b in rng.integers(0, 60, size=8))
            calls.clear()
            swept = budget_sweep(p, budgets)
            assert len(calls) == 1
            assert swept == [reference_pair_scan(p, b) for b in budgets]

    def test_array_budgets_equal_list_budgets(self):
        # as dense_pair_sweep does, the sweep takes any 1-D sequence
        p = self.sweep_problem()
        budgets = [0.0, 150.0, 150.0, 300.0, float("inf")]
        swept = budget_sweep(p, np.array(budgets))
        assert swept == budget_sweep(p, budgets)
        assert swept == dense_pair_sweep(p, np.array(budgets))
        assert budget_sweep(p, np.array([3.0, 6.0])) == \
            budget_sweep(p, [3.0, 6.0])
        assert budget_sweep(p, np.array([])) == []
        for bad in ([100.0, 50.0], [-1.0, 5.0], [float("nan")]):
            with pytest.raises(ValueError):
                budget_sweep(p, np.array(bad))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            budget_sweep(self.sweep_problem(), [-1.0, 5.0])

    @pytest.mark.parametrize("budgets", [
        [float("nan")], [float("nan"), 150.0], [50.0, float("nan"), 150.0],
        [50.0, float("nan")]])
    def test_nan_budget_rejected(self, budgets):
        # NaN compares false, so it would pass the order and sign checks
        with pytest.raises(ValueError, match="budgets must not be NaN"):
            budget_sweep(self.sweep_problem(), budgets)

    def test_negative_and_infinite_budgets(self):
        p = self.sweep_problem()
        with pytest.raises(ValueError, match="budget must be non-negative"):
            budget_sweep(p, [-1.0])
        # an infinite budget is no cap
        assert budget_sweep(p, [float("inf")])[0] == \
            reference_pair_scan(p, float("inf"))

    def test_budget_constraint_satisfied(self):
        rng = np.random.default_rng(223)
        p = make_problem(
            female=[(float(rng.uniform(0, 9)), float(rng.uniform(0, 0.1)))
                    for _ in range(4)],
            male=[(float(rng.uniform(0, 9)), float(rng.uniform(0, 0.1)))
                  for _ in range(4)])
        for budget in (40.0, 90.0, 200.0):
            res = select(p, budget)
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
        p = make_problem(female, male, nf=nf, nm=nm)
        # budgets exactly at some pairs' colonoscopy totals
        totals = [nf * f[1] + nm * m[1] for f in female for m in male]
        budgets = sorted([float(b) for b in budgets]
                         + [totals[k % len(totals)] for k in at_pair])
        swept = budget_sweep(p, budgets)
        assert swept == [reference_pair_scan(p, b) for b in budgets]
        assert_share_never_rises(swept)

    def test_rounding_tie_goes_to_lower_index(self):
        # 1.0 + 1e-17 rounds to 1.0: the pairs tie in every total although
        # the later candidate has fewer cancers.
        tied = [(1e-17, 0.01), (0.0, 0.01)]
        for female, male in (([(1.0, 0.01)], tied), (tied, [(1.0, 0.01)])):
            p = make_problem(female, male)
            got = select(p, 100.0)
            assert got == reference_pair_scan(p, 100.0)
            assert (got.female_index, got.male_index) == (0, 0)

    def test_shipped_curve_equals_dense_scan(self, default_bundle):
        from screenopt.phase1 import run_phase1
        from screenopt.phase2 import selection_problem_from_histories

        budgets = [4000.0 + 16000.0 * i / 999 for i in range(1000)]
        histories = run_phase1(default_bundle, budget=max(budgets),
                               periods=4)
        p = selection_problem_from_histories(default_bundle, histories)
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
    def test_kernel_equals_candidate_loop(self, monkeypatch):
        # 64 cells make the skyline meet its rows in blocks of 8, 2**20
        # in one block. Few distinct values per key plant exact ties in
        # examinations, in cost and in all three keys.
        rng = np.random.default_rng(419)
        for trial in range(120):
            monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS",
                                (64, 1 << 20)[trial % 2])
            n = int(rng.integers(1, 600))

            def draw(scale):
                if trial % 4 == 3:
                    return rng.uniform(0, scale, size=n)
                values = rng.uniform(0, scale, size=int(rng.integers(1, 12)))
                return rng.choice(values, size=n)

            cancers, col, cost = draw(30.0), draw(300.0), draw(1e5)
            if trial % 3 == 0:
                # zero costs of both signs compare equal
                cost = rng.choice([0.0, -0.0, 1.0], size=n)
            if trial % 5 == 1:
                # examinations a few ulps apart are not ties
                col = np.nextafter(col, col + rng.choice([-1.0, 0.0, 1.0],
                                                         size=n))
            copies = rng.integers(0, n, size=(2, n // 4))
            for key in (cancers, col, cost):
                key[copies[0]] = key[copies[1]]
            rows = np.column_stack([cancers, col, cost])
            np.testing.assert_array_equal(_selectable(rows),
                                          selectable_loop(rows))


class TestEndToEnd:
    def test_two_period_selection_is_globally_optimal(self, default_doc):
        """With two periods there is no intermediate dominance pruning, so
        the two-phase result must attain the best population cancer share
        over ALL joint strategy combinations within the budget."""
        import json as _json

        from conftest import small_doc
        from oracles import all_two_period_outcomes
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
            problem = selection_problem_from_histories(bundle, histories)
            result = select(problem, budget)
            assert result.feasible

            best = min(
                (cancer_f * pop[Sex.F] + cancer_m * pop[Sex.M])
                / (pop[Sex.F] + pop[Sex.M])
                for cancer_f, _, _, col_f in outcomes[Sex.F]
                for cancer_m, _, _, col_m in outcomes[Sex.M]
                if col_f + col_m <= budget + 1e-9)
            assert result.cancer_share == pytest.approx(best, abs=1e-12)
