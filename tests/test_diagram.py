"""Influence-diagram core: validation, paths, probabilities, strategies.

Claims covered:
    - validation returns data-shaped violations for broken invariants
    - path enumeration is the lexicographic product of state spaces
    - upper-bound probability multiplies chance CPT entries only
    - path probability is the upper bound iff the strategy agrees, else 0
    - path probabilities of any strategy sum to one
    - expected values match a hand enumeration and are linear in utilities
    - strategy enumeration counts follow the product formula
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import screenopt.diagram
from conftest import random_diagram, random_strategy
from screenopt.diagram import (
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    Node,
    NodeKind,
    StrategyEvaluator,
    ValueSpec,
    dense_tables,
    enumerate_paths,
    enumerate_strategies,
    expected_values,
    path_probability,
    upper_bound_probability,
    validate_diagram,
)
from screenopt.errors import CapacityError, StructuralError


def chain_diagram(p_row0=(0.7, 0.3), p_row1=(0.2, 0.8), values=(1.0, 5.0)):
    """Decision -> chance -> value chain used throughout."""
    nodes = (
        Node(0, NodeKind.DECISION, "act", ("a", "b")),
        Node(1, NodeKind.CHANCE, "outcome", ("lo", "hi"), (0,)),
        Node(2, NodeKind.VALUE, "payoff", (), (1,)),
    )
    cpts = {1: {(0,): p_row0, (1,): p_row1}}
    specs = {2: ValueSpec(2, {(0,): values[0], (1,): values[1]},
                          orientation="maximize")}
    return InfluenceDiagram(nodes, cpts, specs)


def pick(diagram, **actions):
    """GlobalStrategy with one constant action per decision node."""
    rules = {}
    for node in diagram.decision_nodes:
        act = actions[node.name]
        rules[node.node_id] = LocalStrategy(
            node.node_id,
            {info: act for info in diagram.info_states(node)})
    return GlobalStrategy(rules)


class TestValidation:
    def test_well_formed_chain(self):
        assert validate_diagram(chain_diagram()) == []

    def test_cpt_row_sum_violation_names_row(self):
        d = chain_diagram(p_row0=(0.6, 0.3))
        violations = validate_diagram(d)
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "cpt-row-sum"
        assert v.node_id == 1
        assert v.context == ("a",)

    def test_predecessor_must_precede(self):
        # node 2 declared before node 5, yet carries an arc from node 5
        nodes = (
            Node(2, NodeKind.CHANCE, "early", ("x", "y"), (5,)),
            Node(5, NodeKind.CHANCE, "late", ("x", "y"), ()),
        )
        d = InfluenceDiagram(nodes, {2: {(0,): (1.0, 0.0), (1,): (0.0, 1.0)},
                                     5: {(): (0.5, 0.5)}},
                             {})
        rules = {v.rule for v in validate_diagram(d)}
        assert "topology" in rules

    def test_value_node_with_successor(self):
        nodes = (
            Node(0, NodeKind.VALUE, "v", (), ()),
            Node(1, NodeKind.CHANCE, "c", ("x", "y"), (0,)),
        )
        d = InfluenceDiagram(nodes, {1: {(0,): (1.0, 0.0)}},
                             {0: ValueSpec(0, {(): 0.0})})
        rules = {v.rule for v in validate_diagram(d)}
        assert "value-successor" in rules

    def test_missing_cpt_row(self):
        d = chain_diagram()
        cpts = {1: {(0,): (0.7, 0.3)}}  # row for action b missing
        broken = InfluenceDiagram(d.nodes, cpts, d.values)
        rules = {v.rule for v in validate_diagram(broken)}
        assert "cpt-row-missing" in rules

    def test_probability_out_of_range(self):
        d = chain_diagram(p_row0=(1.3, -0.3))
        rules = {v.rule for v in validate_diagram(d)}
        assert "cpt-prob-range" in rules

    def test_random_diagrams_validate_clean(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert validate_diagram(random_diagram(rng)) == []


class TestPaths:
    def test_two_binary_nodes_four_paths(self):
        nodes = (
            Node(0, NodeKind.CHANCE, "c0", ("x", "y")),
            Node(1, NodeKind.CHANCE, "c1", ("x", "y")),
        )
        d = InfluenceDiagram(nodes, {0: {(): (0.5, 0.5)},
                                     1: {(): (0.5, 0.5)}}, {})
        assert list(enumerate_paths(d)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_three_state_node(self):
        nodes = (Node(0, NodeKind.CHANCE, "c", ("a", "b", "c")),)
        d = InfluenceDiagram(nodes, {0: {(): (0.2, 0.3, 0.5)}}, {})
        assert list(enumerate_paths(d)) == [(0,), (1,), (2,)]

    def test_capacity_ceiling(self, monkeypatch):
        d = chain_diagram()
        monkeypatch.setattr(screenopt.diagram, "PATH_CEILING", 3)
        with pytest.raises(CapacityError):
            list(enumerate_paths(d))

    def test_lexicographic_order(self):
        rng = np.random.default_rng(5)
        d = random_diagram(rng, max_paths=200)
        paths = list(enumerate_paths(d))
        assert paths == sorted(paths)
        assert len(paths) == d.path_count()
        assert len(set(paths)) == len(paths)


class TestUpperBound:
    def test_all_ones(self):
        d = chain_diagram(p_row0=(1.0, 0.0), p_row1=(1.0, 0.0))
        assert upper_bound_probability(d, (0, 0)) == 1.0

    def test_absorbing_zero(self):
        d = chain_diagram(p_row0=(1.0, 0.0))
        assert upper_bound_probability(d, (0, 1)) == 0.0

    def test_hand_product(self):
        # two chance nodes with entries 0.3 and 0.5 along the path
        nodes = (
            Node(0, NodeKind.CHANCE, "c0", ("x", "y")),
            Node(1, NodeKind.CHANCE, "c1", ("x", "y")),
        )
        d = InfluenceDiagram(nodes, {0: {(): (0.3, 0.7)},
                                     1: {(): (0.5, 0.5)}}, {})
        assert upper_bound_probability(d, (0, 0)) == pytest.approx(0.15)

    def test_decisions_do_not_contribute(self):
        d = chain_diagram()
        # both decision states give the same chance factor only
        assert upper_bound_probability(d, (0, 0)) == 0.7
        assert upper_bound_probability(d, (1, 0)) == 0.2

    def test_missing_row_is_structural_error(self):
        d = chain_diagram()
        broken = InfluenceDiagram(d.nodes, {1: {(0,): (0.7, 0.3)}}, d.values)
        with pytest.raises(StructuralError):
            upper_bound_probability(broken, (1, 0))


class TestPathProbability:
    def test_compatible_equals_upper_bound(self):
        d = chain_diagram()
        z = pick(d, act=0)
        assert path_probability(d, (0, 1), z) == upper_bound_probability(d, (0, 1))

    def test_incompatible_is_zero(self):
        d = chain_diagram()
        z = pick(d, act=1)
        assert path_probability(d, (0, 1), z) == 0.0

    def test_total_probability_one(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = random_diagram(rng, max_paths=2000)
            z = random_strategy(rng, d)
            total = math.fsum(path_probability(d, s, z)
                              for s in enumerate_paths(d))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_in_zero_or_up_to_upper_bound(self):
        rng = np.random.default_rng(23)
        d = random_diagram(rng, max_paths=500)
        z = random_strategy(rng, d)
        for s in enumerate_paths(d):
            pi = path_probability(d, s, z)
            p = upper_bound_probability(d, s)
            assert pi == 0.0 or pi == p
            assert 0.0 <= pi <= p + 1e-12


class TestExpectedValues:
    def test_all_zero_utilities(self):
        d = chain_diagram(values=(0.0, 0.0))
        assert expected_values(d, pick(d, act=0)).values == (0.0,)

    def test_constant_one_utility(self):
        d = chain_diagram(values=(1.0, 1.0))
        assert expected_values(d, pick(d, act=1)).values == \
            pytest.approx((1.0,))

    def test_hand_enumerated_toy(self):
        d = chain_diagram()
        # action a: 0.7 * 1 + 0.3 * 5 = 2.2 ; action b: 0.2 * 1 + 0.8 * 5 = 4.2
        assert expected_values(d, pick(d, act=0)).values[0] == \
            pytest.approx(2.2)
        assert expected_values(d, pick(d, act=1)).values[0] == \
            pytest.approx(4.2)

    def test_matches_full_path_sum_and_evaluator(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            d = random_diagram(rng, max_paths=1500)
            z = random_strategy(rng, d)
            got = expected_values(d, z)

            brute = np.zeros(len(d.value_nodes))
            for s in enumerate_paths(d):
                pi = path_probability(d, s, z)
                if pi:
                    for i, vn in enumerate(d.value_nodes):
                        info = d.info_state_of(vn, s)
                        brute[i] += pi * d.values[vn.node_id].table[info]
            assert np.allclose(got.values, brute, atol=1e-12)

            # The strategy's row: its actions are the mixed-radix digits of
            # its enumeration index, slot 0 most significant.
            index = 0
            for node in d.decision_nodes:
                for info in d.info_states(node):
                    index = (index * len(node.states)
                             + z.action(node.node_id, info))
            row = StrategyEvaluator(d).objective_matrix(
                dense_tables(d))[0, index]
            assert np.allclose(got.values, row, atol=1e-12)

    def test_linear_in_utility_scaling(self):
        d = chain_diagram()
        scaled_spec = ValueSpec(2, {k: 3.5 * v for k, v in
                                    d.values[2].table.items()},
                                orientation="maximize")
        scaled = InfluenceDiagram(d.nodes, d.cpts, {2: scaled_spec})
        z = pick(d, act=0)
        assert expected_values(scaled, z).values[0] == \
            pytest.approx(3.5 * expected_values(d, z).values[0])

    def test_invariant_under_path_order(self):
        rng = np.random.default_rng(37)
        d = random_diagram(rng, max_paths=800)
        z = random_strategy(rng, d)
        forward = [(s, path_probability(d, s, z)) for s in enumerate_paths(d)]
        total_fwd = np.zeros(len(d.value_nodes))
        total_rev = np.zeros(len(d.value_nodes))
        for order, total in ((forward, total_fwd),
                             (list(reversed(forward)), total_rev)):
            for s, pi in order:
                if pi:
                    for i, vn in enumerate(d.value_nodes):
                        total[i] += pi * d.values[vn.node_id].table[
                            d.info_state_of(vn, s)]
        assert np.allclose(total_fwd, total_rev, atol=1e-12)


class TestStrategyEnumeration:
    def test_single_binary_decision(self):
        nodes = (
            Node(0, NodeKind.DECISION, "d", ("a", "b")),
            Node(1, NodeKind.CHANCE, "c", ("x", "y"), ()),
        )
        d = InfluenceDiagram(nodes, {1: {(): (0.5, 0.5)}}, {})
        assert len(list(enumerate_strategies(d))) == 2

    def test_binary_decision_with_binary_predecessor(self):
        nodes = (
            Node(0, NodeKind.CHANCE, "c", ("x", "y"), ()),
            Node(1, NodeKind.DECISION, "d", ("a", "b"), (0,)),
        )
        d = InfluenceDiagram(nodes, {0: {(): (0.5, 0.5)}}, {})
        strategies = list(enumerate_strategies(d))
        assert len(strategies) == 4
        keys = [z.key for z in strategies]
        assert len(set(keys)) == 4
        assert keys == sorted(keys)

    def test_count_formula_on_random_diagrams(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = random_diagram(rng, max_strategies=3000)
            expected = 1
            for node in d.decision_nodes:
                info = math.prod(len(d.by_id[p].states)
                                 for p in node.predecessors)
                expected *= len(node.states) ** info
            assert d.strategy_count() == expected
            assert len(list(enumerate_strategies(d))) == expected

    def test_no_decisions_yields_empty_strategy(self):
        nodes = (Node(0, NodeKind.CHANCE, "c", ("x", "y")),)
        d = InfluenceDiagram(nodes, {0: {(): (0.4, 0.6)}}, {})
        strategies = list(enumerate_strategies(d))
        assert len(strategies) == 1
        assert strategies[0].rules == {}

    def test_capacity_ceiling(self, monkeypatch):
        nodes = (
            Node(0, NodeKind.DECISION, "d0", ("a", "b")),
            Node(1, NodeKind.DECISION, "d1", ("a", "b")),
        )
        d = InfluenceDiagram(nodes, {}, {})
        monkeypatch.setattr(screenopt.diagram, "STRATEGY_CEILING", 3)
        with pytest.raises(CapacityError):
            list(enumerate_strategies(d))

    @pytest.mark.parametrize("ceiling", ["PATH_CEILING", "STRATEGY_CEILING"])
    def test_evaluator_checks_capacity_at_construction(self, monkeypatch,
                                                       ceiling):
        # 8 paths and 4 strategies, 2 with d0 pinned
        nodes = (
            Node(0, NodeKind.DECISION, "d0", ("a", "b")),
            Node(1, NodeKind.DECISION, "d1", ("a", "b")),
            Node(2, NodeKind.CHANCE, "c", ("x", "y"), (1,)),
        )
        d = InfluenceDiagram(nodes, {2: {(0,): (0.5, 0.5),
                                         (1,): (0.5, 0.5)}}, {})
        monkeypatch.setattr(screenopt.diagram, ceiling, 3)
        with pytest.raises(CapacityError):
            StrategyEvaluator(d)
        pinned = {0: LocalStrategy(0, {(): 1})}
        if ceiling == "PATH_CEILING":
            with pytest.raises(CapacityError):
                StrategyEvaluator(d, pinned)
        else:
            assert StrategyEvaluator(d, pinned).strategy(1).key == \
                ((0, (((), 1),)), (1, (((), 1),)))

    def test_fixed_rules_pin_node(self):
        nodes = (
            Node(0, NodeKind.DECISION, "d0", ("a", "b")),
            Node(1, NodeKind.DECISION, "d1", ("a", "b")),
        )
        d = InfluenceDiagram(nodes, {}, {})
        pinned = LocalStrategy(0, {(): 1})
        strategies = list(enumerate_strategies(d, fixed={0: pinned}))
        assert len(strategies) == 2
        assert all(z.rules[0].rule[()] == 1 for z in strategies)

    def test_objective_matrix_rows_follow_enumeration_order(self):
        rng = np.random.default_rng(43)
        d = random_diagram(rng, max_paths=800, max_strategies=300)
        ev = StrategyEvaluator(d)
        matrix = ev.objective_matrix(dense_tables(d))[0]
        for i, z in enumerate(enumerate_strategies(d)):
            assert np.allclose(matrix[i], expected_values(d, z).values,
                               atol=1e-12)

    def test_evaluator_reads_only_the_tables_it_is_given(self):
        # every chance node's table is required, as an array of its shape;
        # the evaluator never falls back to its own diagram's tables
        rng = np.random.default_rng(47)
        diagrams = [chain_diagram()] + [
            random_diagram(rng, max_paths=400, max_strategies=200)
            for _ in range(6)]
        for d in diagrams:
            ev = StrategyEvaluator(d)
            tables = dense_tables(d)
            assert sorted(tables) == sorted(n.node_id for n in d.chance_nodes)
            for evaluate in (ev.objective_matrix, ev.dense_objective_matrix):
                for node_id, table in tables.items():
                    assert table.shape[0] == 1
                    others = {k: v for k, v in tables.items() if k != node_id}
                    with pytest.raises(ValueError, match=(
                            "not for the chance nodes")):
                        evaluate(others)
                    with pytest.raises(ValueError, match="has shape"):
                        evaluate({**tables, node_id: table[..., :-1]})
                with pytest.raises(ValueError, match="not for the chance"):
                    evaluate({**tables, -1: np.ones((1, 1))})
        # another diagram's tables give that diagram's values
        d, other = chain_diagram(), chain_diagram(p_row0=(0.1, 0.9))
        got = StrategyEvaluator(d).objective_matrix(dense_tables(other))
        assert got.shape == (1, 2, 1)
        for act in (0, 1):
            assert got[0, act, 0] == pytest.approx(
                expected_values(other, pick(other, act=act)).values[0])
