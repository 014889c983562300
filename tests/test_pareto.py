"""Frontier machinery: nondominated filter, box search, brute-force reference.

The central claims are that the production filter and the box-guided
search both reproduce the brute-force frontier exactly; the rest pins the
scalarized norm formula, tie-breaking, orientation handling and
deduplication.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import screenopt.pareto
import screenopt.phase1
from conftest import matrix_problem, random_diagram
from oracles import (
    compatible_path_probabilities,
    dominates,
    nondominated_prefix,
    objective,
)
from screenopt.diagram import (
    LocalStrategy,
    enumerate_strategies,
    expected_values,
)
from screenopt.errors import IterationLimitError
from screenopt.pareto import (
    _argmin_norm,
    _exact_skyline,
    _norms,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    frontier_rows,
    nondominated,
    skyline,
)
from screenopt.phase1 import (
    natural_progression_rollout,
    remove_dominated,
    run_phase1,
    segment_frontier,
)
from screenopt.screening import Segment, Sex, load_parameters

DATA = Path(__file__).resolve().parent / "data"


def problem_of(rows, **kwargs):
    return matrix_problem(rows, **kwargs)


def minimized(front):
    """The frontier's vectors, in minimization orientation, as tuples."""
    return [tuple(v) for v in front.vectors().tolist()]


def box_limit_problem():
    """Women, period 2, examination fixed, at the no-screening rollout
    prevalence, on a six-cut-off document made by ``perfbench/docgen.py``
    (seed 2, document 3)."""
    doc = json.loads((DATA / "box_search_limit.json").read_text())
    doc["options"]["fix_exam_to_colonoscopy"] = True
    bundle, _ = load_parameters(doc)
    psi = natural_progression_rollout(bundle.starting_prevalence(Sex.F),
                                      bundle.transitions["F"], 1)[-1]
    return segment_frontier(bundle, Segment(Sex.F, 2), psi).problem


def argmin_over_all(p, weights, epsilon, utopia):
    """The candidate ``_argmin_norm`` picks over the whole space."""
    vectors = p.unique_vectors()
    row = _argmin_norm(p, vectors, np.arange(len(vectors)),
                       np.asarray(weights), epsilon, np.asarray(utopia))
    return p.representative(row)


class TestMawtNorm:
    """The augmented weighted Tchebychev norm, ``_norms``."""

    def test_zero_at_utopia(self):
        assert _norms(np.array([[1.0, 2.0]]), np.ones(2), 0.01,
                      np.array([1.0, 2.0])).tolist() == [0.0]

    def test_single_objective_formula(self):
        assert _norms(np.array([[2.0]]), np.ones(1), 0.01,
                      np.zeros(1))[0] == pytest.approx(2.02)

    def test_max_selection_without_augmentation(self):
        assert _norms(np.array([[1.0, 3.0]]), np.ones(2), 0.0,
                      np.zeros(2)).tolist() == [3.0]

    def test_monotone_in_deviation(self):
        rng = np.random.default_rng(13)
        w = np.array([0.5, 2.0, 1.0])
        for _ in range(100):
            base = rng.uniform(0, 5, size=3)
            bumped = base.copy()
            i = rng.integers(0, 3)
            bumped[i] += rng.uniform(0, 2)
            norms = _norms(np.stack([base, bumped]), w, 1e-3, np.zeros(3))
            assert norms[1] >= norms[0]


class TestSolveScalarized:
    """``_argmin_norm`` over the whole space."""

    def test_centered_on_extreme_point(self):
        p = problem_of([[0.0, 4.0], [4.0, 0.0], [3.0, 3.0]])
        assert argmin_over_all(p, (100.0, 1.0), 1e-4, (0.0, 0.0)) == 0

    def test_matches_direct_norm_scan(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            mat = rng.uniform(0, 10, size=(rng.integers(2, 40), 3))
            p = problem_of(mat)
            w = rng.uniform(0.1, 3.0, size=3)
            utopia = mat.min(axis=0)
            norms = _norms(mat, w, 1e-3, utopia)
            chosen = argmin_over_all(p, w, 1e-3, utopia)
            assert norms[chosen] == norms.min()

    def test_scale_covariance(self):
        # scaling by a power of two keeps every product bit-exact
        rng = np.random.default_rng(31)
        mat = rng.uniform(0, 8, size=(30, 3))
        w = (1.5, 0.75, 2.5)
        chosen = argmin_over_all(problem_of(mat), w, 1e-3, mat.min(axis=0))

        c = 4.0
        scaled = mat.copy()
        scaled[:, 1] *= c
        chosen2 = argmin_over_all(problem_of(scaled), (w[0], w[1] / c, w[2]),
                                  1e-3, scaled.min(axis=0))
        assert chosen2 == chosen

    def test_tie_breaks_to_smallest_key(self):
        p = problem_of([[1.0, 3.0], [3.0, 1.0]])
        # both candidates have norm 3; candidate 0 wins on its index
        assert argmin_over_all(p, (1.0, 1.0), 0.0, (0.0, 0.0)) == 0


class TestUniqueVectors:
    def test_matches_numpy_unique_with_smallest_representatives(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, 5))
            mat = rng.integers(-2, 3, size=(n, m)).astype(float)
            mat[mat == 0.0] = rng.choice([0.0, -0.0])
            p = problem_of(mat)
            vectors, inverse = np.unique(p.matrix_min, axis=0,
                                         return_inverse=True)
            reps = np.full(len(vectors), n)
            np.minimum.at(reps, inverse.ravel(), np.arange(n))
            assert np.array_equal(p.unique_vectors(), vectors)
            assert [p.representative(r) for r in range(len(vectors))] == \
                reps.tolist()


class TestFrontier:
    def test_identical_vectors_collapse(self):
        p = problem_of([[1.0, 2.0]] * 6)
        front = compute_frontier(p)
        assert len(front) == 1
        assert minimized(front) == [(1.0, 2.0)]

    def test_hand_case(self):
        p = problem_of([[0.0, 3.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        expected = {(0.0, 3.0), (1.0, 1.0), (3.0, 0.0)}
        front = compute_frontier(p)
        assert set(minimized(front)) == expected
        reference = brute_force_frontier(p)
        assert set(minimized(reference)) == expected

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(2, 250))
            m = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                mat = rng.integers(0, 8, size=(n, m)).astype(float)
            else:
                mat = rng.normal(size=(n, m))
            p = problem_of(mat)
            b = brute_force_frontier(p)
            for a in (box_search_frontier(p), compute_frontier(p)):
                assert np.array_equal(a.vectors(), b.vectors())

    def test_points_and_vectors_are_views_of_the_candidates(
            self, small_bundle):
        # a frontier holds candidate indices, each the smallest index of
        # its vector, in vector order; its vectors, points and length are
        # read off the problem
        from screenopt.screening import Segment, Sex, build_segment_diagram
        rng = np.random.default_rng(67)
        problems = [problem_of(
            rng.integers(0, 5, size=(int(rng.integers(1, 60)), 3)),
            orientations=("minimize", "maximize", "minimize"))
            for _ in range(8)]
        problems += [diagram_problem(random_diagram(rng, max_paths=600,
                                                    max_strategies=400))
                     for _ in range(4)]
        problems.append(diagram_problem(
            build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F)),
            objective_mask=["cost", "colonoscopy", "crc_found"]))
        for p in problems:
            for build in (compute_frontier, brute_force_frontier,
                          box_search_frontier):
                front = build(p)
                chosen = front.candidates
                assert front.problem is p
                assert chosen.dtype.kind == "i"
                assert len(front) == len(chosen) == len(front.points) >= 1
                assert front.points is front.points
                vectors = p.matrix_min[chosen]
                assert np.array_equal(front.vectors(), vectors)
                assert np.array_equal(
                    front.vectors(),
                    p.minimize(np.array([pt.objectives.values
                                         for pt in front.points])))
                assert list(map(tuple, vectors.tolist())) == \
                    sorted(map(tuple, vectors.tolist()))
                for c, point in zip(chosen.tolist(), front.points):
                    same = np.flatnonzero(
                        (p.matrix_min == p.matrix_min[c]).all(axis=1))
                    assert c == same[0]
                    strategy = p.strategy(c)
                    assert (point.strategy == strategy
                            if isinstance(strategy, str)
                            else point.strategy.key == strategy.key)
                    assert np.array_equal(
                        p.minimize(np.array(point.objectives.values)),
                        p.matrix_min[c])
                    assert point.objectives.values == \
                        tuple(p.reported[c].tolist())
                    assert point.objectives.names == p.names

    def test_orientation_conversion(self):
        # one maximize column: frontier works on its negation
        mat = [[1.0, 5.0], [1.0, 7.0], [2.0, 7.0]]
        p = problem_of(mat, orientations=("minimize", "maximize"))
        front = compute_frontier(p)
        assert {tuple(pt.objectives.values) for pt in front.points} == \
            {(1.0, 7.0)}
        assert minimized(front)[0] == (1.0, -7.0)

    def test_iteration_limit(self):
        rng = np.random.default_rng(41)
        p = problem_of(rng.normal(size=(50, 3)))
        with pytest.raises(IterationLimitError):
            box_search_frontier(p, iteration_limit=1)
        # the production filter has no solve budget to exceed
        assert np.array_equal(compute_frontier(p).vectors(),
                              brute_force_frontier(p).vectors())

    def test_default_limit_covers_every_solve(self):
        # a valid five-objective segment whose 13 unique vectors are all
        # nondominated needs more solves than the former limit of ten per
        # unique vector; the default corner-grid bound admits them all
        problem = box_limit_problem()
        vectors = problem.unique_vectors()
        assert nondominated(vectors).all()
        with pytest.raises(IterationLimitError):
            box_search_frontier(problem, iteration_limit=10 * len(vectors))
        assert np.array_equal(box_search_frontier(problem).vectors(),
                              compute_frontier(problem).vectors())

    @pytest.mark.parametrize("rows, want", [
        # row 2 is 5e-10 above row 0 in two coordinates, so row 0
        # dominates it exactly; row 1 sorts between them
        ([[0.0, 1.0, 5.0], [0.0, 2.0, 0.0], [5e-10, 1.0, 5.0 + 5e-10]],
         [(0.0, 1.0, 5.0), (0.0, 2.0, 0.0)]),
        # 5e-10 apart in opposite directions: neither dominates, though a
        # 1e-9 tolerance would merge them
        ([[0.0, 1.0], [5e-10, 1.0 - 5e-10]],
         [(0.0, 1.0), (5e-10, 1.0 - 5e-10)]),
    ], ids=["dominated", "opposite"])
    def test_near_ties_follow_the_exact_rule(self, rows, want):
        p = problem_of(rows)
        for frontier in (compute_frontier, brute_force_frontier,
                         box_search_frontier):
            assert minimized(frontier(p)) == want

    @pytest.mark.parametrize("cells", [1 << 20, 40])
    def test_stacked_rows_equal_each_matrix_reference(self, monkeypatch,
                                                      cells):
        # a stack of matrices with exact duplicates, ties and near ties:
        # each matrix's rows are the brute-force frontier's representatives
        # in its order, and the stacked filter is the per-matrix filter
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(229)
        for _ in range(40):
            H = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 6))
            stack = rng.integers(0, 3, size=(H, n, m)).astype(float)
            stack += rng.choice([0.0, 0.0, 5e-10, -5e-10, 1e-9, 1.5e-9],
                                size=stack.shape)
            dup = rng.integers(0, n, size=n // 3)
            stack[:, rng.integers(0, n, size=len(dup))] = stack[:, dup]
            rows, keep = frontier_rows(stack)
            mask = nondominated(stack)
            for h in range(H):
                p = problem_of(stack[h])
                assert rows[h, keep[h]].tolist() == [
                    int(pt.strategy.removeprefix("candidate"))
                    for pt in brute_force_frontier(p).points]
                assert np.array_equal(mask[h], nondominated(stack[h]))

    def test_no_duplicate_objective_vectors(self):
        rng = np.random.default_rng(43)
        mat = rng.integers(0, 4, size=(120, 4)).astype(float)
        front = compute_frontier(problem_of(mat))
        vectors = [tuple(v) for v in front.vectors()]
        assert len(set(vectors)) == len(vectors)

    def test_pairwise_nondominated(self):
        rng = np.random.default_rng(47)
        mat = rng.normal(size=(200, 3))
        front = compute_frontier(problem_of(mat))
        vectors = minimized(front)
        assert len(vectors) > 1
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b)

    def test_epsilon_zero_corner_solutions_filtered(self):
        # (1, 2) is weakly dominated by (1, 1): an unaugmented solve with
        # weights (1, ~0) could return it, the frontier must not contain it
        p = problem_of([[1.0, 2.0], [1.0, 1.0], [0.5, 3.0]])
        norms = _norms(p.matrix_min, np.array([1.0, 1e-9]), 0.0,
                       np.array([0.5, 1.0]))
        assert norms[0] == pytest.approx(norms[1], abs=1e-8)
        for front in (box_search_frontier(p), compute_frontier(p)):
            assert set(minimized(front)) == \
                {(1.0, 1.0), (0.5, 3.0)}


class TestSkylineKernel:
    """The exact skyline and the all-pairs filter both give the exact mask
    of the key-0 prefix kernel and of the plain row loop, in any
    blocking."""

    @staticmethod
    def planted_keys(rng, n):
        # a coarse grid, so many rows tie or nearly tie; near ties straddle
        # the 1e-9 tolerance; a quarter of the rows copy another row
        keys = rng.integers(0, 6, size=(n, 4)).astype(float) * 1e-3
        keys += rng.choice([0.0, 0.0, 0.0, 5e-10, -5e-10, 1e-9, -1e-9,
                            1.5e-9, -1.5e-9], size=keys.shape)
        dup = rng.integers(0, n, size=n // 4)
        keys[rng.integers(0, n, size=len(dup))] = keys[dup]
        return keys

    # each id names the cell budget and its skyline block of isqrt(cells)
    # rows
    CELLS = pytest.mark.parametrize(
        "cells", [16, 64, 300, 4096, 1 << 16],
        ids=lambda cells: f"{cells}-{math.isqrt(cells)}")

    @CELLS
    def test_mask_equals_prefix_kernel_and_row_loop(self, monkeypatch, cells):
        # every other matrix mixes exact zeros of both signs, which
        # compare equal
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(263)
        for trial in range(25):
            n = int(rng.integers(2, 400))
            keys = self.planted_keys(rng, n)
            if trial % 2:
                keys = np.where(rng.random(keys.shape) < 0.2,
                                rng.choice([0.0, -0.0], size=keys.shape),
                                keys)
            mask = skyline(keys)
            assert np.array_equal(mask, nondominated_prefix(keys))
            if trial % 5 == 0:
                loop = [not any(dominates(other, row) for other in keys)
                        for row in keys]
                assert mask.tolist() == loop

    @pytest.mark.parametrize("cells", [16, 300, 1 << 16])
    def test_row_blocks_equal_prefix_kernel_and_row_loop(self, monkeypatch,
                                                         cells):
        # single matrices of more rows than one block holds, with exact
        # ties and near ties on either side of every row
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(283)
        for trial in range(12):
            n = int(rng.integers(math.isqrt(cells) + 1, 600))
            keys = self.planted_keys(rng, n)
            mask = nondominated(keys)
            assert np.array_equal(mask, nondominated_prefix(keys))
            if trial % 4 == 0:
                loop = [not any(dominates(other, row) for other in keys)
                        for row in keys]
                assert mask.tolist() == loop

    @CELLS
    def test_skyline_is_the_exact_weak_skyline(self, monkeypatch, cells):
        # the rows without an exact dominator are the rows no other row is
        # at most in every column
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
        rng = np.random.default_rng(269)
        for _ in range(20):
            keys = self.planted_keys(rng, int(rng.integers(1, 300)))
            unique = np.unique(keys, axis=0)     # lexicographic order
            witness = _exact_skyline(unique.T.copy())
            want = [not any(np.all(other <= row) and np.any(other != row)
                            for other in unique) for row in unique]
            assert (witness < 0).tolist() == want
            # every other row names an exact dominator
            beaten = np.flatnonzero(witness >= 0)
            assert np.all(unique[witness[beaten]] <= unique[beaten])
            assert np.all(witness[beaten] < beaten)

    def test_nan_rows_are_kept_and_dominate_nothing(self, monkeypatch):
        # a row with a NaN key passes no comparison, in both kernels and
        # in any blocking, also when every row has one
        rng = np.random.default_rng(281)
        for trial in range(25):
            keys = self.planted_keys(rng, int(rng.integers(5, 100)))
            keys[rng.random(keys.shape) < (1.0 if trial == 0 else 0.05)] = \
                np.nan
            loop = [not any(dominates(other, row) for other in keys)
                    for row in keys]
            for cells in (1 << 16, 16):
                monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", cells)
                assert nondominated(keys).tolist() == loop
                assert skyline(keys).tolist() == loop

    def test_shipped_history_keys(self, monkeypatch, default_bundle):
        # the keys of every period's history pruning on the shipped
        # parameters, both sexes, up to the 6,633-row last period
        seen = []

        def spy(table, cross_check=False):
            seen.append(table.dominance_keys())
            return remove_dominated(table, cross_check)

        monkeypatch.setattr(screenopt.phase1, "remove_dominated", spy)
        run_phase1(default_bundle, budget=20000.0)
        assert len(seen) == 8
        assert max(len(keys) for keys in seen) ** 2 > \
            screenopt.pareto.FILTER_CELLS
        for keys in seen:
            assert np.array_equal(skyline(keys), nondominated_prefix(keys))

    def test_large_matrices_of_a_stack_use_row_blocks(self, monkeypatch):
        # a stack whose matrices exceed one block is filtered matrix by
        # matrix in row blocks; the result is the prefix kernel's
        monkeypatch.setattr(screenopt.pareto, "FILTER_CELLS", 64)
        rng = np.random.default_rng(271)
        stack = np.stack([self.planted_keys(rng, 50) for _ in range(3)])
        assert np.array_equal(nondominated(stack), nondominated_prefix(stack))


class TestDiagramProblems:
    def test_points_reproduce_expected_values(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            d = random_diagram(rng, max_paths=600, max_strategies=400)
            p = diagram_problem(d)
            front = compute_frontier(p)
            assert len(front) >= 1
            for point, vector in zip(front.points, front.vectors()):
                again = expected_values(d, point.strategy)
                assert np.allclose(point.objectives.values, again.values,
                                   atol=1e-12)
                reoriented = p.minimize(np.array(again.values))
                assert np.allclose(vector, reoriented, atol=1e-12)

    def test_attach_paths_total_probability(self, small_bundle):
        from screenopt.screening import Segment, Sex, build_segment_diagram
        d = build_segment_diagram(Segment(Sex.F, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.F))
        p = diagram_problem(d)
        front = compute_frontier(p)
        paths = compatible_path_probabilities(d, front.points[-1].strategy)
        assert paths
        assert all(v > 0 for v in paths.values())
        assert math.fsum(paths.values()) == pytest.approx(1.0, abs=1e-9)

    def test_reweighted_problem_walks_its_own_tables(self, small_bundle):
        # another segment's chance tables as arrays, evaluated through the
        # first segment's evaluator, give that segment's own diagram's
        # values bit for bit, and the same frontier and strategies
        from screenopt.pareto import EnumeratedProblem
        from screenopt.screening import (PrevalenceVector, Segment, Sex,
                                         build_segment_diagram,
                                         segment_tables)
        base = diagram_problem(build_segment_diagram(
            Segment(Sex.F, 1), small_bundle,
            small_bundle.starting_prevalence(Sex.F)))
        seg = Segment(Sex.M, 2)
        psi = PrevalenceVector(0.7, 0.2, 0.07, 0.03)
        reweighted = EnumeratedProblem(
            base.evaluator.objective_matrix(segment_tables(
                small_bundle, seg, np.array([psi.as_tuple()])))[0],
            base.orientations, base.names)
        fresh = diagram_problem(build_segment_diagram(seg, small_bundle, psi))
        assert np.array_equal(reweighted.reported, fresh.reported)
        assert np.array_equal(np.signbit(reweighted.reported),
                              np.signbit(fresh.reported))
        got, want = compute_frontier(reweighted), compute_frontier(fresh)
        assert np.array_equal(got.candidates, want.candidates)
        last = int(got.candidates[-1])
        assert base.strategy(last).key == fresh.strategy(last).key
        assert compatible_path_probabilities(fresh.diagram,
                                             base.strategy(last)) == \
            compatible_path_probabilities(fresh.diagram, fresh.strategy(last))

    def test_strategy_index_is_enumeration_order(self):
        # ties break on the candidate index, so candidate i must be the
        # i-th enumerated strategy, with and without a pinned rule
        rng = np.random.default_rng(59)
        for _ in range(30):
            d = random_diagram(rng, max_paths=600, max_strategies=400)
            fixings = [{}]
            if d.decision_nodes:
                node = d.decision_nodes[int(rng.integers(
                    len(d.decision_nodes)))]
                rule = {info: int(rng.integers(len(node.states)))
                        for info in d.info_states(node)}
                fixings.append({node.node_id: LocalStrategy(node.node_id,
                                                            rule)})
            for fixed in fixings:
                p = diagram_problem(d, fixed=fixed)
                enumerated = [z.key for z in
                              enumerate_strategies(d, fixed=fixed)]
                assert [p.strategy(i).key for i in range(p.n_candidates)] \
                    == enumerated
                assert [p.evaluator.strategy(i).key
                        for i in range(p.n_candidates)] == enumerated

    def test_objective_mask_restricts_dominance(self, small_bundle):
        from screenopt.screening import Segment, Sex, build_segment_diagram
        d = build_segment_diagram(Segment(Sex.M, 1), small_bundle,
                                  small_bundle.starting_prevalence(Sex.M))
        masked = diagram_problem(d, objective_mask=["crc_found"])
        front = compute_frontier(masked)
        assert len(front) == 1
        # the single point maximizes cancer detections
        full = diagram_problem(d)
        best = max(full.reported[:, 4])
        assert objective(front.points[0].objectives, "crc_found") == \
            pytest.approx(best)
