"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and corpus sizes are fixed here, not configurable.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    DEFAULT_PARAMS,
    matrix_problem,
    random_diagram,
    random_params_doc,
    random_strategy,
    small_doc,
)
from oracles import (
    CRC,
    assert_keys_match,
    box_search_frontier,
    enumerate_paths,
    exhaustive_two_period,
    objective,
    path_probability,
    reference_pair_scan,
    upper_bound_probability,
)
from screenopt.cli import main
from screenopt.diagram import expected_values
from screenopt.pareto import (
    brute_force_frontier,
    compute_frontier,
    diagram_problem,
)
from screenopt.phase1 import run_phase1, update_prevalence_rows
from screenopt.phase2 import (
    SelectionProblem,
    budget_sweep,
    selection_problem_from_histories,
)
from screenopt.screening import (
    EXAM_RESULT,
    FIT_RESULT,
    SAMPLE,
    BowelState,
    Segment,
    Sex,
    TransitionRates,
    build_segment_diagram,
    load_parameters,
)


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_path_probability_normalization():
    """Sum of path probabilities is 1 within 1e-9 on 1000 random diagrams."""
    rng = np.random.default_rng(20240901)
    start = time.monotonic()
    for _ in range(1000):
        d = random_diagram(rng, max_paths=10_000, max_core_nodes=6)
        z = random_strategy(rng, d)
        total = math.fsum(path_probability(d, s, z)
                          for s in enumerate_paths(d))
        assert abs(total - 1.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"normalization sweep took {elapsed:.1f}s"
    report(f"path-probability normalization (1000 diagrams, {elapsed:.1f}s)")


def test_milp_constraint_consistency():
    """Every (strategy, path-probability) pair satisfies the program box:
    one action per information state, 0 <= pi <= p, pi <= z, and
    pi >= p + sum(z) - |D|, exactly."""
    rng = np.random.default_rng(20240901)  # same corpus as normalization
    for _ in range(1000):
        d = random_diagram(rng, max_paths=10_000, max_core_nodes=6)
        z = random_strategy(rng, d)

        for node in d.decision_nodes:
            rule = z[node.node_id]
            for info in d.info_states(node):
                chosen = [a for a in range(len(node.states))
                          if rule[info] == a]
                assert len(chosen) == 1

        n_decisions = len(d.decision_nodes)
        for s in enumerate_paths(d):
            p = upper_bound_probability(d, s)
            pi = path_probability(d, s, z)
            assert 0.0 <= pi <= p
            z_sum = 0
            z_min = 1
            for node in d.decision_nodes:
                info = d.info_state_of(node, s)
                indicator = int(z[node.node_id][info]
                                == s[d.path_position[node.node_id]])
                z_sum += indicator
                z_min = min(z_min, indicator)
                assert pi <= indicator
            # grouping the integer part keeps the bound exact in floats
            assert pi >= p + (z_sum - n_decisions)
            # the box is tight: compatible paths carry exactly p, others 0
            assert pi == (p if z_min == 1 else 0.0)
    report("decision-program constraint consistency (1000 diagrams)")


def _random_matrix_instance(rng):
    n = int(rng.integers(2, 2000))
    m = int(rng.integers(2, 6))
    if rng.random() < 0.7:
        grid = int(rng.integers(3, 20))
        mat = rng.integers(0, grid, size=(n, m)).astype(float)
    else:
        n = min(n, 500)
        mat = rng.normal(size=(n, m))
    orientations = tuple(
        "maximize" if rng.random() < 0.3 else "minimize" for _ in range(m))
    return matrix_problem(mat, orientations=orientations)


def _random_segment_instance(rng):
    doc = random_params_doc(rng, periods=1,
                            n_cutoffs=int(rng.integers(2, 6)),
                            monotone=bool(rng.integers(0, 2)),
                            fix_exam=False)
    bundle, _ = load_parameters(doc)
    sex = Sex.F if rng.random() < 0.5 else Sex.M
    names = ["cost", "colonoscopy", "benign_found", "large_found",
             "crc_found"]
    k = int(rng.integers(2, 6))
    mask = list(rng.choice(names, size=k, replace=False))
    d = build_segment_diagram(Segment(sex, 1), bundle,
                              bundle.starting_prevalence(sex))
    return diagram_problem(d, objective_mask=mask)


def test_frontier_oracle_equality():
    """Box search and the production filter equal the brute-force frontier
    on 200 instances with up to 1e5 strategies and 2-5 objectives, as
    vector sets within 1e-9."""
    rng = np.random.default_rng(77001)
    start = time.monotonic()
    instances = 0
    for _ in range(150):
        problems = [_random_matrix_instance(rng)]
        for problem in problems:
            _assert_frontier_equal(problem)
            instances += 1
    for _ in range(40):
        _assert_frontier_equal(_random_segment_instance(rng))
        instances += 1
    for _ in range(10):
        m = int(rng.integers(2, 4))
        mat = rng.integers(0, 8, size=(100_000, m)).astype(float)
        _assert_frontier_equal(matrix_problem(mat))
        instances += 1
    elapsed = time.monotonic() - start
    assert instances == 200
    assert elapsed < 300.0, f"frontier sweep took {elapsed:.1f}s"
    report(f"frontier oracle equality (200 instances, {elapsed:.1f}s)")


def _assert_frontier_equal(problem):
    b = brute_force_frontier(problem)
    for a in (box_search_frontier(problem), compute_frontier(problem)):
        assert np.array_equal(a.vectors(), b.vectors())


def test_prevalence_update_correctness():
    """The update matches a direct transcription of the difference equations
    to 1e-12 on 1e4 random triples, preserves the simplex, and reproduces
    the worked example."""
    rng = np.random.default_rng(5150)
    for _ in range(10_000):
        raw = rng.uniform(0.001, 1.0, size=4)
        raw /= raw.sum()
        normal, benign, large, crc = raw
        found = (benign * rng.uniform(0, 1),
                 large * rng.uniform(0, 1),
                 crc * rng.uniform(0, 1))
        rates = TransitionRates(*rng.uniform(0, 1, size=3))
        out = update_prevalence_rows(raw[None], np.array([found]), rates)[0]

        b = (benign - found[0]) * (1 - rates.benign_to_large) \
            + normal * rates.normal_to_benign
        lg = (large - found[1]) * (1 - rates.large_to_crc) \
            + (benign - found[0]) * rates.benign_to_large
        r = crc - found[2] \
            + (large - found[1]) * rates.large_to_crc
        n = 1 - b - lg - r
        assert np.all(np.abs(out - (n, b, lg, r)) <= 1e-12)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert out.min() >= -1e-12

    worked = update_prevalence_rows(
        np.array([(0.9, 0.06, 0.03, 0.01)]), np.array([(0.03, 0.02, 0.008)]),
        TransitionRates(0.02, 0.1, 0.05))[0]
    assert worked.tolist() == pytest.approx([0.94, 0.045, 0.0125, 0.0025],
                                            abs=1e-15)
    report("prevalence-update correctness (1e4 triples + worked example)")


def test_algorithm1_oracle_equality():
    """Two-period runs with at most 20 strategies per segment equal the
    exhaustive tree search under the four-quantity dominance rule."""
    default_doc = json.loads(DEFAULT_PARAMS.read_text())
    bundles = []
    doc = small_doc(default_doc, periods=2, cutoffs=("10", "50"),
                    fix_exam=True)
    bundles.append(load_parameters(doc)[0])
    rng = np.random.default_rng(31337)
    for _ in range(5):
        bundles.append(load_parameters(
            random_params_doc(rng, periods=2, n_cutoffs=2, monotone=True,
                              fix_exam=True))[0])

    checked = 0
    for bundle, budget in itertools.product(bundles,
                                            (250.0, 1200.0, 1e9)):
        d = build_segment_diagram(Segment(Sex.F, 1), bundle,
                                  bundle.starting_prevalence(Sex.F))
        from screenopt.screening import fixed_decision_rules
        assert d.strategy_count(
            fixed=tuple(fixed_decision_rules(bundle))) <= 20
        got = run_phase1(bundle, budget=budget, periods=2)
        want = exhaustive_two_period(bundle, budget)
        for sex in (Sex.F, Sex.M):
            assert_keys_match(got[sex], want[sex])
        checked += 1
    report(f"multi-period search oracle equality ({checked} instances)")


def test_phase2_optimality_and_sweep():
    """Selection equals an independent pair scan on 1000 random problems,
    always satisfies the budget, and the cancer share weakly decreases over
    the 8000/12000/16000/20000 sweep of a synthetic pipeline."""
    rng = np.random.default_rng(90210)
    for _ in range(1000):
        nf = float(rng.uniform(100, 5000))
        nm = float(rng.uniform(100, 5000))

        def candidates(population):
            return np.array([
                (float(rng.uniform(0, 30)),
                 population * float(rng.uniform(0, 0.3)),
                 float(rng.uniform(0, 1e5)))
                for _ in range(int(rng.integers(1, 8)))])

        problem = SelectionProblem(
            female=candidates(nf), male=candidates(nm),
            population_female=nf, population_male=nm)
        budget = float(rng.uniform(0, 1500))
        got = budget_sweep(problem, [budget])[0]
        want = reference_pair_scan(problem, budget)
        assert got == want
        if got.feasible:
            assert got.total_colonoscopies <= budget + 1e-9

    default_doc = json.loads(DEFAULT_PARAMS.read_text())
    bundle, _ = load_parameters(default_doc)
    budgets = [8000.0, 12000.0, 16000.0, 20000.0]
    histories = run_phase1(bundle, budget=max(budgets), periods=3)
    problem = selection_problem_from_histories(bundle, histories)
    results = budget_sweep(problem, budgets)
    assert all(r.feasible for r in results)
    shares = [r.cancer_share for r in results]
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    report("final-selection optimality (1000 problems) and budget sweep")


def test_cpt_fidelity():
    """Emitted CPT rows sum to 1 within 1e-9; the incentive row is exactly
    P + (1-P)/2; examination rows match a direct Bayes computation to
    1e-12; posteriors normalize."""
    rng = np.random.default_rng(424242)
    for _ in range(60):
        doc = random_params_doc(rng, periods=2,
                                n_cutoffs=int(rng.integers(1, 6)),
                                monotone=bool(rng.integers(0, 2)))
        bundle, _ = load_parameters(doc)
        sex = Sex.F if rng.random() < 0.5 else Sex.M
        period = int(rng.integers(1, 3))
        segment = Segment(sex, period)
        raw = rng.uniform(0.01, 1.0, size=4) * np.array([20, 2, 1, 0.3])
        raw /= raw.sum()
        psi = dict(zip(BowelState, raw))
        d = build_segment_diagram(segment, bundle, raw)

        for nid, table in d.cpts.items():
            assert table.shape[:-1] == d.info_shape(d.by_id[nid])
            for info in np.ndindex(table.shape[:-1]):
                row = table[info].tolist()
                assert math.fsum(row) <= 1 + 1e-9
                assert abs(math.fsum(row) - 1.0) <= 1e-9, (nid, info)

        ret_ok = bundle.participation.return_ok(segment)
        assert d.cpts[SAMPLE][1, 1].tolist() == \
            [(1.0 - ret_ok) / 2.0, ret_ok + (1.0 - ret_ok) / 2.0]
        assert d.cpts[SAMPLE][0, 1].tolist() == [1.0 - ret_ok, ret_ok]

        fit = bundle.fit
        col = bundle.colonoscopy
        for li, label in enumerate(bundle.fit.cutoffs):
            spec = fit.specificity[label]
            fpos = (1 - spec) * psi[BowelState.NORMAL] + math.fsum(
                fit.sensitivity[b.value][label] * psi[b]
                for b in (BowelState.BENIGN, BowelState.LARGE, BowelState.CRC))
            assert abs(d.cpts[FIT_RESULT][li, 1, 1] - fpos) <= 1e-12

            if fpos <= 1e-12:
                continue
            posterior = {
                BowelState.NORMAL: (1 - spec) * psi[BowelState.NORMAL] / fpos,
                BowelState.BENIGN:
                    fit.sensitivity[BowelState.BENIGN.value][label]
                    * psi[BowelState.BENIGN] / fpos,
                BowelState.LARGE:
                    fit.sensitivity[BowelState.LARGE.value][label]
                    * psi[BowelState.LARGE] / fpos,
                BowelState.CRC:
                    fit.sensitivity[BowelState.CRC.value][label]
                    * psi[BowelState.CRC] / fpos,
            }
            assert abs(math.fsum(posterior.values()) - 1.0) <= 1e-9
            found = [col.sensitivity[b.value] * posterior[b]
                     for b in (BowelState.BENIGN, BowelState.LARGE,
                               BowelState.CRC)]
            expected = (0.0, 1.0 - math.fsum(found), *found)
            emitted = d.cpts[EXAM_RESULT][li, 1, 1].tolist()
            assert all(abs(a - b) <= 1e-12
                       for a, b in zip(emitted, expected))
    report("conditional-probability-table fidelity (60 draws)")


def test_behavioral_sanity():
    """On synthetic assay-like parameters: no invitation means exactly zero
    outcomes; lowering the cut-off weakly increases examinations and
    detections; loosening the budget weakly lowers achievable cancer."""
    from screenopt.screening import CUTOFF, EXAM, INCENTIVE, INVITE

    def fixed_strategy(cutoff, incentive, invite):
        # the examination rule is indexed (test result, contact)
        return {CUTOFF: np.array(cutoff), INCENTIVE: np.array(incentive),
                INVITE: np.array(invite), EXAM: np.tile([0, 1], (3, 1))}

    rng = np.random.default_rng(616)
    for _ in range(50):
        doc = random_params_doc(rng, periods=1,
                                n_cutoffs=int(rng.integers(2, 5)),
                                monotone=True)
        bundle, _ = load_parameters(doc)
        sex = Sex.F if rng.random() < 0.5 else Sex.M
        psi = bundle.starting_prevalence(sex)
        d = build_segment_diagram(Segment(sex, 1), bundle, psi)

        null = expected_values(d, fixed_strategy(0, 1, invite=0))
        assert null.values == (0.0,) * 5

        previous = None
        for cutoff in reversed(range(len(bundle.fit.cutoffs))):
            vals = expected_values(d, fixed_strategy(cutoff, 0, invite=1))
            cols = -objective(vals, "colonoscopy")
            detections = (objective(vals, "benign_found"),
                          objective(vals, "large_found"),
                          objective(vals, "crc_found"))
            if previous is not None:
                assert cols >= previous[0] - 1e-12
                assert all(a >= b - 1e-12
                           for a, b in zip(detections, previous[1]))
            previous = (cols, detections)

    rng = np.random.default_rng(617)
    for _ in range(50):
        doc = random_params_doc(rng, periods=2, n_cutoffs=2, monotone=True,
                                fix_exam=True)
        bundle, _ = load_parameters(doc)
        tight = float(rng.uniform(50, 800))
        best = []
        for budget in (tight, 4 * tight, 1e9):
            result = run_phase1(bundle, budget=budget, periods=2)
            best.append(min(h.total_prevalence[CRC]
                            for sex in (Sex.F, Sex.M)
                            for h in result[sex]))
        assert best[0] >= best[1] >= best[2]
    report("behavioral sanity (50 + 50 draws)")


def test_pipeline_determinism(tmp_path):
    """Two identical pipeline invocations produce byte-identical outputs."""
    default_doc = json.loads(DEFAULT_PARAMS.read_text())
    params = tmp_path / "params.json"
    params.write_text(json.dumps(small_doc(default_doc)))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["pipeline", "--budgets", "600,1800,3600",
                     "--params", str(params), "--out", str(out)]) == 0
    names = ("manifest.json", "histories_F.csv", "histories_M.csv",
             "selection.csv", "policy_table.csv", "prevalence_series.csv")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report("pipeline determinism (byte-identical reruns)")
