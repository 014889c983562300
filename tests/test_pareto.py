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

from conftest import random_diagram
from oracles import compatible_path_probabilities, dominates
from screenopt.diagram import (
    LocalStrategy,
    enumerate_strategies,
    expected_values,
)
from screenopt.errors import IterationLimitError
from screenopt.pareto import (
    EnumeratedProblem,
    ScalarizationParams,
    box_search_frontier,
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
    mawt_norm,
    nondominated,
    solve_scalarized,
)
from screenopt.phase1 import natural_progression_rollout, segment_problem
from screenopt.screening import Segment, Sex, load_parameters

DATA = Path(__file__).resolve().parent / "data"


def problem_of(rows, **kwargs):
    return EnumeratedProblem.from_matrix(np.array(rows, dtype=float), **kwargs)


def box_limit_problem():
    """Women, period 2, examination fixed, at the no-screening rollout
    prevalence, on a six-cut-off document made by ``perfbench/docgen.py``
    (seed 2, document 3)."""
    doc = json.loads((DATA / "box_search_limit.json").read_text())
    doc["options"]["fix_exam_to_colonoscopy"] = True
    bundle, _ = load_parameters(doc)
    psi = natural_progression_rollout(bundle.starting_prevalence(Sex.F),
                                      bundle.transitions["F"], 1)[-1]
    return segment_problem(bundle, Segment(Sex.F, 2), psi)


class TestMawtNorm:
    def test_zero_at_utopia(self):
        params = ScalarizationParams((1.0, 1.0), 0.01, (1.0, 2.0), (5.0, 5.0))
        assert mawt_norm((1.0, 2.0), params) == 0.0

    def test_single_objective_formula(self):
        params = ScalarizationParams((1.0,), 0.01, (0.0,), (10.0,))
        assert mawt_norm((2.0,), params) == pytest.approx(2.02)

    def test_max_selection_without_augmentation(self):
        params = ScalarizationParams((1.0, 1.0), 0.0, (0.0, 0.0), (9.0, 9.0))
        assert mawt_norm((1.0, 3.0), params) == 3.0

    def test_monotone_in_deviation(self):
        rng = np.random.default_rng(13)
        params = ScalarizationParams((0.5, 2.0, 1.0), 1e-3,
                                     (0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
        for _ in range(100):
            base = rng.uniform(0, 5, size=3)
            bumped = base.copy()
            i = rng.integers(0, 3)
            bumped[i] += rng.uniform(0, 2)
            assert mawt_norm(tuple(bumped), params) >= \
                mawt_norm(tuple(base), params)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ScalarizationParams((0.0,), 0.1, (0.0,), (1.0,))
        with pytest.raises(ValueError):
            ScalarizationParams((1.0,), -0.1, (0.0,), (1.0,))
        with pytest.raises(ValueError):
            ScalarizationParams((1.0,), 0.1, (2.0,), (1.0,))


class TestSolveScalarized:
    def test_centered_on_extreme_point(self):
        p = problem_of([[0.0, 4.0], [4.0, 0.0], [3.0, 3.0]])
        params = ScalarizationParams((100.0, 1.0), 1e-4, (0.0, 0.0),
                                     (4.0, 4.0))
        point = solve_scalarized(p, params)
        assert point.minimized == (0.0, 4.0)

    def test_matches_direct_norm_scan(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            mat = rng.uniform(0, 10, size=(rng.integers(2, 40), 3))
            p = problem_of(mat)
            w = tuple(rng.uniform(0.1, 3.0, size=3))
            params = ScalarizationParams(
                w, 1e-3, tuple(mat.min(axis=0)), tuple(mat.max(axis=0)))
            point = solve_scalarized(p, params)
            norms = [mawt_norm(tuple(row), params) for row in mat]
            assert mawt_norm(point.minimized, params) == min(norms)

    def test_scale_covariance(self):
        # scaling by a power of two keeps every product bit-exact
        rng = np.random.default_rng(31)
        mat = rng.uniform(0, 8, size=(30, 3))
        p = problem_of(mat)
        w = (1.5, 0.75, 2.5)
        params = ScalarizationParams(w, 1e-3, tuple(mat.min(axis=0)),
                                     tuple(mat.max(axis=0)))
        chosen = solve_scalarized(p, params)

        c = 4.0
        scaled = mat.copy()
        scaled[:, 1] *= c
        p2 = problem_of(scaled)
        params2 = ScalarizationParams(
            (w[0], w[1] / c, w[2]), 1e-3,
            tuple(scaled.min(axis=0)), tuple(scaled.max(axis=0)))
        chosen2 = solve_scalarized(p2, params2)
        assert chosen2.strategy == chosen.strategy

    def test_tie_breaks_to_smallest_key(self):
        p = problem_of([[1.0, 3.0], [3.0, 1.0]])
        params = ScalarizationParams((1.0, 1.0), 0.0, (0.0, 0.0), (3.0, 3.0))
        # both candidates have norm 3; candidate 0 wins on its index
        assert solve_scalarized(p, params).strategy == "candidate0"


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
        assert front.points[0].minimized == (1.0, 2.0)

    def test_hand_case(self):
        p = problem_of([[0.0, 3.0], [1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        expected = {(0.0, 3.0), (1.0, 1.0), (3.0, 0.0)}
        front = compute_frontier(p)
        assert {pt.minimized for pt in front.points} == expected
        reference = brute_force_frontier(p)
        assert {pt.minimized for pt in reference.points} == expected

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
                assert len(a) == len(b)
                assert np.allclose(a.vectors(), b.vectors(), atol=1e-9)

    def test_orientation_conversion(self):
        # one maximize column: frontier works on its negation
        mat = [[1.0, 5.0], [1.0, 7.0], [2.0, 7.0]]
        p = problem_of(mat, orientations=("minimize", "maximize"))
        front = compute_frontier(p)
        assert {tuple(pt.objectives.values) for pt in front.points} == \
            {(1.0, 7.0)}
        assert front.points[0].minimized == (1.0, -7.0)

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

    def test_near_duplicate_merge_skips_rows_sorted_between(self):
        # rows 0 and 2 are within the tolerance of each other in every
        # coordinate; row 1 sorts between them and must not split the merge
        p = problem_of([[0.0, 1.0, 5.0], [0.0, 2.0, 0.0],
                        [5e-10, 1.0, 5.0 + 5e-10]])
        assert nondominated(p.unique_vectors()).all()
        for frontier in (compute_frontier, brute_force_frontier,
                         box_search_frontier):
            assert [pt.minimized for pt in frontier(p).points] == \
                [(0.0, 1.0, 5.0), (0.0, 2.0, 0.0)]

    def test_no_duplicate_objective_vectors(self):
        rng = np.random.default_rng(43)
        mat = rng.integers(0, 4, size=(120, 4)).astype(float)
        front = compute_frontier(problem_of(mat))
        vectors = [tuple(v) for v in front.vectors()]
        assert len(set(vectors)) == len(vectors)

    def test_pairwise_nondominated(self):
        rng = np.random.default_rng(47)
        mat = rng.integers(0, 6, size=(200, 3)).astype(float)
        front = compute_frontier(problem_of(mat))
        for a in front.points:
            for b in front.points:
                if a is not b:
                    assert not dominates(a.minimized, b.minimized)

    def test_epsilon_zero_corner_solutions_filtered(self):
        # (1, 2) is weakly dominated by (1, 1): an unaugmented solve with
        # weights (1, ~0) could return it, the frontier must not contain it
        p = problem_of([[1.0, 2.0], [1.0, 1.0], [0.5, 3.0]])
        params = ScalarizationParams((1.0, 1e-9), 0.0, (0.5, 1.0), (1.0, 3.0))
        norms = [mawt_norm(tuple(row), params) for row in p.matrix_min]
        assert norms[0] == pytest.approx(norms[1], abs=1e-8)
        for front in (box_search_frontier(p), compute_frontier(p)):
            assert {pt.minimized for pt in front.points} == \
                {(1.0, 1.0), (0.5, 3.0)}


class TestDiagramProblems:
    def test_points_reproduce_expected_values(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            d = random_diagram(rng, max_paths=600, max_strategies=400)
            p = diagram_problem(d)
            front = compute_frontier(p)
            assert len(front) >= 1
            for point in front.points:
                again = expected_values(d, point.strategy)
                assert np.allclose(point.objectives.values, again.values,
                                   atol=1e-12)
                reoriented = [again.minimized()[i] for i in p.active]
                assert np.allclose(point.minimized, reoriented, atol=1e-12)

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
        from screenopt.screening import (PrevalenceVector, Segment, Sex,
                                         build_segment_diagram,
                                         prevalence_cpts)
        seg = Segment(Sex.F, 1)
        base = diagram_problem(build_segment_diagram(
            seg, small_bundle, small_bundle.starting_prevalence(Sex.F)))
        psi = PrevalenceVector(0.7, 0.2, 0.07, 0.03)
        reweighted = base.with_cpts(prevalence_cpts(small_bundle, psi))
        fresh = diagram_problem(build_segment_diagram(seg, small_bundle, psi))
        point = compute_frontier(reweighted).points[-1]
        assert compatible_path_probabilities(reweighted.diagram,
                                             point.strategy) == \
            compatible_path_probabilities(fresh.diagram, point.strategy)

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
                enumerated = list(enumerate_strategies(d, fixed=fixed))
                assert [p.strategy(i).key for i in range(p.n_candidates)] \
                    == [z.key for z in enumerated]

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
        assert front.points[0].objectives.by_name("crc_found") == \
            pytest.approx(best)
