"""Discrete influence diagrams with path-probability semantics.

A diagram is a DAG of chance, decision and value nodes. Chance and decision
nodes carry finite state spaces; chance nodes carry conditional probability
tables over the states of their direct predecessors (the information set);
value nodes map information states to real values. A *path* assigns one
state to every chance and decision node. A *strategy* picks one action per
information state of every decision node; the probability of a path under a
strategy is the product of chance probabilities along it when the path
agrees with the strategy at every decision node, and zero otherwise.

Everything here is immutable after construction and all operations are pure,
so diagrams can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, StructuralError

PATH_CEILING = 10**8
STRATEGY_CEILING = 10**7

# Every numerical tolerance of the package, each defined once here.
#: A probability vector (CPT row, prevalence simplex) sums to 1 within this.
SUM_TOL = 1e-9
#: A probability within this of 0 or 1 counts as 0 or 1.
ZERO_TOL = 1e-12
#: Objective values closer than this tie; dominance needs a larger gap.
DOMINANCE_TOL = 1e-9
#: Smallest box width the box search's scalarization weights divide by.
WEIGHT_GUARD = 1e-12
#: A detected fraction may exceed its prevalence (or undercut 0) by this.
DETECTION_TOL = 1e-9
#: Colonoscopies a history or pair may run over its budget and still fit.
BUDGET_TOL = 1e-9

#: One state ordinal per chance/decision node, in diagram node order.
Path = tuple[int, ...]

#: An information state: state ordinals of a node's predecessors, in
#: predecessor order.
InfoState = tuple[int, ...]


class NodeKind(Enum):
    CHANCE = "chance"
    DECISION = "decision"
    VALUE = "value"


@dataclass(frozen=True)
class Node:
    """One diagram node.

    ``states`` is empty exactly for value nodes. ``predecessors`` is the
    information set, ordered by declaration position of the referenced nodes.
    """

    node_id: int
    kind: NodeKind
    name: str
    states: tuple[str, ...] = ()
    predecessors: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class ValueSpec:
    """Value-node payload: a total map from information states to reals.

    ``orientation`` tags how the resulting objective is to be optimized and
    ``unit`` documents its dimension (``euros`` / ``count`` / ``indicator``).
    """

    node_id: int
    table: Mapping[InfoState, float]
    unit: str = "count"
    orientation: str = "minimize"


@dataclass(frozen=True, eq=False)
class InfluenceDiagram:
    """Container for nodes, CPTs and value maps.

    Nodes must be declared in a topological order; ``validate_diagram``
    checks that and every other structural invariant.
    """

    nodes: tuple[Node, ...]
    cpts: Mapping[int, Mapping[InfoState, tuple[float, ...]]]
    values: Mapping[int, ValueSpec]

    @cached_property
    def by_id(self) -> dict[int, Node]:
        return {n.node_id: n for n in self.nodes}

    @cached_property
    def chance_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.CHANCE)

    @cached_property
    def decision_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.DECISION)

    @cached_property
    def value_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.VALUE)

    @cached_property
    def path_nodes(self) -> tuple[Node, ...]:
        """Chance and decision nodes, in declaration order."""
        return tuple(n for n in self.nodes if n.kind is not NodeKind.VALUE)

    @cached_property
    def path_position(self) -> dict[int, int]:
        """node_id -> index into a Path tuple."""
        return {n.node_id: i for i, n in enumerate(self.path_nodes)}

    def info_states(self, node: Node) -> Iterator[InfoState]:
        """All information states of ``node`` in lexicographic order."""
        ranges = [range(len(self.by_id[p].states)) for p in node.predecessors]
        return itertools.product(*ranges)

    def info_state_of(self, node: Node, path: Path) -> InfoState:
        pos = self.path_position
        return tuple(path[pos[p]] for p in node.predecessors)

    def path_count(self) -> int:
        return math.prod(len(n.states) for n in self.path_nodes)

    def strategy_count(self, fixed: Sequence[int] = ()) -> int:
        """Number of global strategies, excluding decision nodes in ``fixed``."""
        total = 1
        for n in self.decision_nodes:
            if n.node_id in fixed:
                continue
            info_count = math.prod(
                len(self.by_id[p].states) for p in n.predecessors
            )
            total *= len(n.states) ** info_count
        return total


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant; data, not an exception."""

    node_id: int | None
    context: tuple[str, ...] | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = f"node {self.node_id}" if self.node_id is not None else "diagram"
        ctx = f" row {list(self.context)}" if self.context else ""
        return f"[{self.rule}] {where}{ctx}: {self.message}"


def validate_diagram(diagram: InfluenceDiagram) -> list[Violation]:
    """Check every structural invariant; empty list means well-formed.

    Violations are returned as data so callers can report all of them at
    once; no exception is raised for content problems.
    """
    out: list[Violation] = []
    seen: set[int] = set()
    position: dict[int, int] = {}

    for i, node in enumerate(diagram.nodes):
        if node.node_id < 0:
            out.append(Violation(node.node_id, None, "node-id", "negative node id"))
        if node.node_id in seen:
            out.append(Violation(node.node_id, None, "node-id", "duplicate node id"))
        seen.add(node.node_id)
        position[node.node_id] = i

    referenced: set[int] = set()
    for node in diagram.nodes:
        if node.kind is NodeKind.VALUE:
            if node.states:
                out.append(Violation(node.node_id, None, "value-states",
                                     "value node must not declare states"))
        else:
            if not node.states:
                out.append(Violation(node.node_id, None, "state-space",
                                     "state space is empty"))
            if len(set(node.states)) != len(node.states):
                out.append(Violation(node.node_id, None, "state-space",
                                     "duplicate state labels"))
        for pred in node.predecessors:
            referenced.add(pred)
            if pred not in position:
                out.append(Violation(node.node_id, None, "topology",
                                     f"unknown predecessor {pred}"))
            elif position[pred] >= position[node.node_id]:
                out.append(Violation(node.node_id, None, "topology",
                                     f"predecessor {pred} does not precede node "
                                     f"{node.node_id} in declaration order"))

    for node in diagram.nodes:
        if node.kind is NodeKind.VALUE and node.node_id in referenced:
            out.append(Violation(node.node_id, None, "value-successor",
                                 "value node has successors"))

    valid_ids = {n.node_id for n in diagram.nodes}
    for owner, rule in (("cpts", diagram.cpts), ("values", diagram.values)):
        for nid in rule:
            if nid not in valid_ids:
                out.append(Violation(nid, None, owner.rstrip("s") + "-owner",
                                     f"{owner} entry for unknown node"))

    for node in diagram.chance_nodes:
        table = diagram.cpts.get(node.node_id)
        if table is None:
            out.append(Violation(node.node_id, None, "cpt-missing",
                                 "chance node has no CPT"))
            continue
        out.extend(_check_table_domain(diagram, node, table.keys(), "cpt"))
        k = len(node.states)
        for info, probs in table.items():
            labels = _info_labels(diagram, node, info)
            if len(probs) != k:
                out.append(Violation(node.node_id, labels, "cpt-row-length",
                                     f"expected {k} entries, got {len(probs)}"))
                continue
            if any(p < -ZERO_TOL or p > 1 + ZERO_TOL for p in probs):
                out.append(Violation(node.node_id, labels, "cpt-prob-range",
                                     "probability outside [0, 1]"))
            total = math.fsum(probs)
            if abs(total - 1.0) > SUM_TOL:
                out.append(Violation(node.node_id, labels, "cpt-row-sum",
                                     f"row sums to {total!r}"))

    for node in diagram.decision_nodes:
        if node.node_id in diagram.cpts:
            out.append(Violation(node.node_id, None, "cpt-owner",
                                 "decision node must not carry a CPT"))

    for node in diagram.value_nodes:
        spec = diagram.values.get(node.node_id)
        if spec is None:
            out.append(Violation(node.node_id, None, "value-missing",
                                 "value node has no value map"))
            continue
        out.extend(_check_table_domain(diagram, node, spec.table.keys(), "value"))

    return out


def _info_labels(diagram, node, info) -> tuple[str, ...] | None:
    try:
        return tuple(
            diagram.by_id[p].states[s] for p, s in zip(node.predecessors, info)
        )
    except (KeyError, IndexError):
        return tuple(str(s) for s in info)


def _check_table_domain(diagram, node, keys, what) -> list[Violation]:
    """The table must have exactly one row per information state."""
    out = []
    try:
        expected = set(diagram.info_states(node))
    except KeyError:
        return out  # unknown predecessor already reported
    got = set(keys)
    for missing in sorted(expected - got):
        out.append(Violation(node.node_id, _info_labels(diagram, node, missing),
                             f"{what}-row-missing", "no row for information state"))
    for extra in sorted(got - expected):
        out.append(Violation(node.node_id, tuple(str(s) for s in extra),
                             f"{what}-row-unknown",
                             "row for nonexistent information state"))
    return out


# ---------------------------------------------------------------------------
# Paths and probabilities
# ---------------------------------------------------------------------------

def enumerate_paths(diagram: InfluenceDiagram,
                    ceiling: int = PATH_CEILING) -> Iterator[Path]:
    """Yield every path once, in lexicographic node-state order."""
    count = diagram.path_count()
    if count > ceiling:
        raise CapacityError(
            f"{count} paths exceed the configured ceiling of {ceiling}")
    ranges = [range(len(n.states)) for n in diagram.path_nodes]
    return itertools.product(*ranges)


def upper_bound_probability(diagram: InfluenceDiagram, path: Path) -> float:
    """p(s): product of chance-node CPT entries along ``path``."""
    prob = 1.0
    for node in diagram.chance_nodes:
        info = diagram.info_state_of(node, path)
        try:
            row = diagram.cpts[node.node_id][info]
        except KeyError:
            labels = _info_labels(diagram, node, info)
            raise StructuralError(
                f"node {node.node_id} has no CPT row for {labels}") from None
        prob *= row[path[diagram.path_position[node.node_id]]]
    return prob


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalStrategy:
    """A decision rule: one action ordinal per information state."""

    node_id: int
    rule: Mapping[InfoState, int]

    def key(self) -> tuple:
        """Deterministic sortable content key."""
        return (self.node_id, tuple(sorted(self.rule.items())))


@dataclass(frozen=True, eq=False)
class GlobalStrategy:
    """One LocalStrategy per decision node."""

    rules: Mapping[int, LocalStrategy]

    @cached_property
    def key(self) -> tuple:
        return tuple(self.rules[nid].key() for nid in sorted(self.rules))

    def action(self, node_id: int, info: InfoState) -> int:
        return self.rules[node_id].rule[info]


def strategy_encoding(diagram: InfluenceDiagram, strategy: GlobalStrategy) -> str:
    """Render a strategy as ``node:infostate->action`` triples, semicolon-joined."""
    parts = []
    for node in diagram.decision_nodes:
        local = strategy.rules[node.node_id]
        for info in sorted(local.rule):
            labels = "|".join(
                diagram.by_id[p].states[s]
                for p, s in zip(node.predecessors, info)
            )
            parts.append(f"{node.node_id}:{labels}->{node.states[local.rule[info]]}")
    return ";".join(parts)


def path_probability(diagram: InfluenceDiagram, path: Path,
                     strategy: GlobalStrategy) -> float:
    """pi(s): p(s) when the path agrees with the strategy, else 0.

    Mirrors the linear-program box on (pi, z): 0 <= pi <= p, pi <= z for
    every decision node, and pi >= p + sum(z) - |D|.
    """
    for node in diagram.decision_nodes:
        info = diagram.info_state_of(node, path)
        if strategy.action(node.node_id, info) != path[diagram.path_position[node.node_id]]:
            return 0.0
    return upper_bound_probability(diagram, path)


def enumerate_strategies(
    diagram: InfluenceDiagram,
    ceiling: int = STRATEGY_CEILING,
    fixed: Mapping[int, LocalStrategy] | None = None,
) -> Iterator[GlobalStrategy]:
    """Yield every global strategy exactly once, in a deterministic order.

    ``fixed`` pins the rule of selected decision nodes; enumeration then runs
    over the remaining nodes only, composing the pinned rules into every
    yielded strategy. A diagram with no (free) decision nodes yields the
    single strategy consisting of the fixed rules alone.
    """
    fixed = dict(fixed or {})
    free = [n for n in diagram.decision_nodes if n.node_id not in fixed]
    count = diagram.strategy_count(fixed=tuple(fixed))
    if count > ceiling:
        raise CapacityError(
            f"{count} strategies exceed the configured ceiling of {ceiling}")

    slots: list[tuple[int, InfoState]] = []
    sizes: list[range] = []
    for node in free:
        for info in diagram.info_states(node):
            slots.append((node.node_id, info))
            sizes.append(range(len(node.states)))

    for assignment in itertools.product(*sizes):
        rules: dict[int, LocalStrategy] = dict(fixed)
        offset = 0
        for node in free:
            rule = {}
            for info in diagram.info_states(node):
                rule[info] = assignment[offset]
                offset += 1
            rules[node.node_id] = LocalStrategy(node.node_id, rule)
        yield GlobalStrategy(rules)


# ---------------------------------------------------------------------------
# Expected values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveVector:
    """Expected value per value node, with orientation tags.

    ``values`` are the raw expectations in declaration order; ``orientations``
    holds ``minimize``/``maximize`` per component.
    """

    values: tuple[float, ...]
    orientations: tuple[str, ...]
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.values)

    def minimized(self) -> tuple[float, ...]:
        """Values converted to minimization orientation."""
        return tuple(
            -v if o == "maximize" else v
            for v, o in zip(self.values, self.orientations)
        )

    def by_name(self, name: str) -> float:
        return self.values[self.names.index(name)]


def expected_values(diagram: InfluenceDiagram,
                    strategy: GlobalStrategy) -> ObjectiveVector:
    """Sum pi(s) * U_v(s) over all paths, for every value node.

    Walks only strategy-compatible paths (decisions are forced by the
    strategy), which is exact because incompatible paths carry probability
    zero.
    """
    nodes = diagram.path_nodes
    totals = [0.0] * len(diagram.value_nodes)
    pos = diagram.path_position

    def walk(depth: int, prefix: list[int], prob: float) -> None:
        if prob == 0.0:
            return
        if depth == len(nodes):
            path = tuple(prefix)
            for i, vnode in enumerate(diagram.value_nodes):
                info = diagram.info_state_of(vnode, path)
                totals[i] += prob * diagram.values[vnode.node_id].table[info]
            return
        node = nodes[depth]
        info = tuple(prefix[pos[p]] for p in node.predecessors)
        if node.kind is NodeKind.DECISION:
            prefix.append(strategy.action(node.node_id, info))
            walk(depth + 1, prefix, prob)
            prefix.pop()
        else:
            try:
                row = diagram.cpts[node.node_id][info]
            except KeyError:
                labels = _info_labels(diagram, node, info)
                raise StructuralError(
                    f"node {node.node_id} has no CPT row for {labels}") from None
            for state, p in enumerate(row):
                prefix.append(state)
                walk(depth + 1, prefix, prob * p)
                prefix.pop()

    walk(0, [], 1.0)
    return ObjectiveVector(
        values=tuple(totals),
        orientations=tuple(diagram.values[n.node_id].orientation
                           for n in diagram.value_nodes),
        names=tuple(n.name for n in diagram.value_nodes),
    )


# ---------------------------------------------------------------------------
# Vectorized whole-space evaluation
# ---------------------------------------------------------------------------

def _dense_cpt(table: Mapping[InfoState, tuple[float, ...]],
               shape: tuple[int, ...]) -> np.ndarray:
    """A CPT as an array indexed by (information state..., state)."""
    dense = np.zeros(shape)
    for info, row in table.items():
        dense[info] = row
    return dense


class StrategyEvaluator:
    """Evaluates expected values for many strategies of one diagram at once.

    Paths are condensed by their decision signature -- the tuple of
    (information state, action) pairs over decision nodes -- so evaluating a
    strategy reduces to summing a handful of pre-aggregated rows instead of
    walking every path. Row order of :meth:`objective_matrix` matches
    :func:`enumerate_strategies` exactly.

    Everything that depends only on the diagram's structure (the signature
    sort, the CPT and value-table gather indices and the per-strategy
    accumulation indices) is computed once, so :meth:`objective_matrix` can
    re-evaluate the same structure under replaced chance-node tables.
    """

    def __init__(self, diagram: InfluenceDiagram):
        self.diagram = diagram
        d = diagram
        sizes = [len(n.states) for n in d.path_nodes]
        n_paths = math.prod(sizes)
        if n_paths > PATH_CEILING:
            raise CapacityError(f"{n_paths} paths exceed ceiling {PATH_CEILING}")

        # Path grid: one column of state ordinals per chance/decision node.
        # Only the gather indices derived from it outlive the constructor.
        grid = np.indices(sizes, dtype=np.int64).reshape(len(sizes), n_paths).T
        pos = d.path_position

        # Decision signature of every path, mixed-radix combined.
        self._info_counts = []
        radix = np.zeros(n_paths, dtype=np.int64)
        self._strides: list[tuple[int, int]] = []  # (stride, action base) per node
        span = 1
        for node in d.decision_nodes:
            pred_sizes = [len(d.by_id[p].states) for p in node.predecessors]
            m = math.prod(pred_sizes)
            k = len(node.states)
            self._info_counts.append(m)
            if span > (2**62) // max(m * k, 1):
                raise CapacityError("decision signature space overflows int64")
            info_idx = np.zeros(n_paths, dtype=np.int64)
            for p, s in zip(node.predecessors, pred_sizes):
                info_idx = info_idx * s + grid[:, pos[p]]
            local = info_idx * k + grid[:, pos[node.node_id]]
            radix = radix * (m * k) + local
            self._strides.append((m, k))
            span *= m * k

        order = np.argsort(radix, kind="stable")
        self._sig_values, self._starts = np.unique(radix[order],
                                                   return_index=True)

        # Per chance node, in diagram order: the flat index of every path's
        # CPT entry (paths in signature order) and the entries it gathers
        # from the diagram's own table.
        self._factors: list[tuple[Node, tuple[int, ...], np.ndarray]] = []
        self._own_factors: list[np.ndarray] = []
        for node in d.chance_nodes:
            shape = tuple(len(d.by_id[p].states) for p in node.predecessors) \
                + (len(node.states),)
            cols = [grid[:, pos[p]] for p in node.predecessors]
            cols.append(grid[:, pos[node.node_id]])
            flat = np.ravel_multi_index(tuple(cols), shape)[order]
            self._factors.append((node, shape, flat))
            self._own_factors.append(
                _dense_cpt(d.cpts[node.node_id], shape).ravel()[flat])

        utility = np.zeros((n_paths, len(d.value_nodes)))
        for i, node in enumerate(d.value_nodes):
            spec = d.values[node.node_id]
            pred_sizes = [len(d.by_id[p].states) for p in node.predecessors]
            dense = np.zeros(pred_sizes or [1])
            for info, value in spec.table.items():
                dense[info if info else (0,)] = value
            cols = tuple(grid[:, pos[p]] for p in node.predecessors) or (
                np.zeros(n_paths, dtype=np.int64),)
            utility[:, i] = dense[cols]
        self._utility = utility[order]
        self._n_values = len(d.value_nodes)
        self._plans: dict[tuple, list[np.ndarray]] = {}
        self._condensed = self._condense(None)

    def _condense(self, cpts: Mapping[int, Mapping[InfoState, tuple[float, ...]]]
                  | None) -> np.ndarray:
        """Probability-weighted utility summed per decision signature.

        ``cpts`` replaces the tables of some chance nodes; the diagram's own
        tables supply the rest.
        """
        cpts = cpts or {}
        unknown = set(cpts) - {node.node_id for node, _, _ in self._factors}
        if unknown:
            raise ValueError(f"no chance node with id {min(unknown)}")
        prob = np.ones(len(self._utility))
        for (node, shape, flat), own in zip(self._factors, self._own_factors):
            if node.node_id in cpts:
                prob *= _dense_cpt(cpts[node.node_id], shape).ravel()[flat]
            else:
                prob *= own
        weighted = prob[:, None] * self._utility
        condensed = np.add.reduceat(weighted, self._starts, axis=0)
        # A trailing zero row for strategies with no compatible signature.
        return np.concatenate([condensed, np.zeros((1, condensed.shape[1]))])

    def _slot_layout(self, fixed_ids: set[int]):
        """Slot sizes and index bookkeeping for the free decision nodes."""
        slot_sizes = []
        slot_of = {}
        for node in self.diagram.decision_nodes:
            if node.node_id in fixed_ids:
                continue
            for i in range(self._info_count(node)):
                slot_of[(node.node_id, i)] = len(slot_sizes)
                slot_sizes.append(len(node.states))
        return slot_sizes, slot_of

    def _info_count(self, node) -> int:
        return math.prod(
            len(self.diagram.by_id[p].states) for p in node.predecessors)

    def _accumulation_plan(self, fixed: Mapping[int, LocalStrategy]
                           ) -> list[np.ndarray]:
        """Per information-state combination, the condensed row each
        strategy adds: its compatible signature's row, or the trailing zero
        row when it has none.

        Strategy row order matches :func:`enumerate_strategies`: slot 0 is
        the most significant digit of the mixed-radix strategy index. Plans
        depend only on the fixed rules and are kept per rule set.
        """
        plan_key = tuple(fixed[nid].key() for nid in sorted(fixed))
        if plan_key in self._plans:
            return self._plans[plan_key]
        d = self.diagram
        count = d.strategy_count(fixed=tuple(fixed))
        slot_sizes, slot_of = self._slot_layout(set(fixed))
        actions = np.zeros((count, len(slot_sizes)), dtype=np.int64)
        stride = count
        idx = np.arange(count)
        for s, size in enumerate(slot_sizes):
            stride //= size
            actions[:, s] = (idx // stride) % size

        plan = []
        info_ranges = [range(m) for m in self._info_counts]
        for combo in itertools.product(*info_ranges):
            sig = np.zeros(count, dtype=np.int64)
            for j, node in enumerate(d.decision_nodes):
                m, k = self._strides[j]
                i = combo[j]
                if node.node_id in fixed:
                    act = fixed[node.node_id].rule[self._info_by_index(node, i)]
                    sig = sig * (m * k) + i * k + act
                else:
                    col = actions[:, slot_of[(node.node_id, i)]]
                    sig = sig * (m * k) + (i * k + col)
            hit = np.searchsorted(self._sig_values, sig)
            hit_ok = hit < len(self._sig_values)
            hit_clipped = np.minimum(hit, len(self._sig_values) - 1)
            valid = hit_ok & (self._sig_values[hit_clipped] == sig)
            plan.append(np.where(valid, hit_clipped, len(self._sig_values)))
        self._plans[plan_key] = plan
        return plan

    def objective_matrix(
        self,
        fixed: Mapping[int, LocalStrategy] | None = None,
        ceiling: int = STRATEGY_CEILING,
        cpts: Mapping[int, Mapping[InfoState, tuple[float, ...]]] | None = None,
    ) -> np.ndarray:
        """Expected values for every strategy; rows follow enumeration order.

        ``cpts`` maps chance-node ids to replacement tables over the same
        information states; the diagram's own tables supply the other nodes.
        """
        fixed = dict(fixed or {})
        count = self.diagram.strategy_count(fixed=tuple(fixed))
        if count > ceiling:
            raise CapacityError(
                f"{count} strategies exceed the configured ceiling of {ceiling}")
        condensed = self._condensed if cpts is None else self._condense(cpts)
        # Sums start from +0.0 and so never hold -0.0, which makes adding
        # the zero row exact: the same bits as skipping the strategy.
        out = np.zeros((count, self._n_values))
        for rows in self._accumulation_plan(fixed):
            out += condensed[rows]
        return out

    def _info_by_index(self, node, index: int) -> InfoState:
        sizes = [len(self.diagram.by_id[p].states) for p in node.predecessors]
        info = []
        for s in reversed(sizes):
            info.append(index % s)
            index //= s
        return tuple(reversed(info))
