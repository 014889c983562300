"""Discrete influence diagrams with path-probability semantics.

A diagram is a DAG of chance, decision and value nodes. Chance and decision
nodes carry finite state spaces; chance nodes carry conditional probability
tables over the states of their direct predecessors (the information set);
value nodes map information states to real values. A *path* assigns one
state to every chance and decision node. A *strategy* picks one action per
information state of every decision node; the probability of a path under a
strategy is the product of chance probabilities along it when the path
agrees with the strategy at every decision node, and zero otherwise.

Every table is an array indexed by information state: a CPT (information
state..., state), a value table (information state...), and a decision
rule (information state...) of action ordinals. A :data:`Strategy` maps
each decision node's id to its rule, so its action at ``info`` is
``strategy[node_id][info]``.

A :class:`StrategyEvaluator` is one strategy space: the strategies of a
diagram with the decision rules given at construction pinned. It numbers
them once (each free (decision node, information state) slot a mixed-radix
digit, slot 0 most significant), decodes numbers, and evaluates every
strategy at once under chance tables given as dense arrays, one batch row
per table set; :func:`dense_tables` adds that batch axis to a diagram's own
tables.

Everything here is immutable after construction and all operations are pure,
so diagrams can be shared freely across threads.
"""

from __future__ import annotations

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
#: A detected fraction may exceed its prevalence (or undercut 0) by this.
DETECTION_TOL = 1e-9
#: Colonoscopies a history or pair may run over its budget and still fit.
BUDGET_TOL = 1e-9
#: An evaluation at prevalence psi lies within this times sum_v psi_v |V_v|
#: of the vertex sum sum_v psi_v V_v (``phase1``): 64 machine epsilons.
LINEARITY_TOL = 64 * 2.0**-52

#: One state ordinal per chance/decision node, in diagram node order.
Path = tuple[int, ...]

#: An information state: state ordinals of a node's predecessors, in
#: predecessor order.
InfoState = tuple[int, ...]

#: Decision node id -> its rule: an int array of action ordinals indexed
#: (information state...), as the node's CPT would be without its state
#: axis. A batch of strategies puts its batch axes before the information
#: state axes of every rule.
Strategy = Mapping[int, np.ndarray]


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
    """Value-node payload: the value of every information state, as an
    array indexed (information state...).

    ``orientation`` tags how the resulting objective is to be optimized.
    """

    node_id: int
    table: np.ndarray
    orientation: str = "minimize"


@dataclass(frozen=True, eq=False)
class InfluenceDiagram:
    """Container for nodes, CPTs and value tables.

    Nodes must be declared in a topological order; ``validate_diagram``
    checks that and every other structural invariant.
    """

    nodes: tuple[Node, ...]
    cpts: Mapping[int, np.ndarray]
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

    def info_shape(self, node: Node) -> tuple[int, ...]:
        """State counts of ``node``'s predecessors, in predecessor order."""
        return tuple(len(self.by_id[p].states) for p in node.predecessors)

    def info_states(self, node: Node) -> Iterator[InfoState]:
        """All information states of ``node`` in lexicographic order."""
        return np.ndindex(self.info_shape(node))

    def info_state_of(self, node: Node, path: Path) -> InfoState:
        pos = self.path_position
        return tuple(path[pos[p]] for p in node.predecessors)

    def strategy_count(self, fixed: Sequence[int] = ()) -> int:
        """Number of global strategies, excluding decision nodes in ``fixed``."""
        return math.prod(len(n.states) ** math.prod(self.info_shape(n))
                         for n in self.decision_nodes if n.node_id not in fixed)


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
        if not _has_shape(out, diagram, node, table, "cpt-shape",
                          (len(node.states),)):
            continue
        for info in np.ndindex(table.shape[:-1]):
            labels = tuple(diagram.by_id[p].states[s]
                           for p, s in zip(node.predecessors, info))
            probs = table[info].tolist()
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
                                 "value node has no value table"))
            continue
        _has_shape(out, diagram, node, spec.table, "value-shape")

    return out


def _has_shape(out, diagram, node, table, rule, states=()) -> bool:
    """Whether ``table`` is indexed (information state..., ``states``), else
    a ``rule`` violation; an unknown predecessor (reported) fails silently."""
    try:
        shape = diagram.info_shape(node) + states
    except KeyError:
        return False
    if np.shape(table) == shape:
        return True
    out.append(Violation(node.node_id, None, rule,
                         f"table has shape {np.shape(table)}, not {shape}"))
    return False


# ---------------------------------------------------------------------------
# Tables and strategies
# ---------------------------------------------------------------------------

def _check_ceiling(count: int, ceiling: int, what: str) -> None:
    if count > ceiling:
        raise CapacityError(
            f"{count} {what} exceed the configured ceiling of {ceiling}")


def _cpt_row(diagram: InfluenceDiagram, node: Node,
             info: InfoState) -> list[float]:
    """``node``'s CPT row at ``info``, as Python floats."""
    try:
        row = diagram.cpts[node.node_id][info]
    except (KeyError, IndexError):
        row = None
    if np.shape(row) != (len(node.states),):
        raise StructuralError(f"node {node.node_id} has no CPT row for "
                              f"information state {info}")
    return row.tolist()


def _value_table(diagram: InfluenceDiagram, node: Node) -> np.ndarray:
    """``node``'s value table, checked against its information shape."""
    table, shape = diagram.values[node.node_id].table, diagram.info_shape(node)
    if np.shape(table) != shape:
        raise StructuralError(f"value table of node {node.node_id} has shape "
                              f"{np.shape(table)}, not {shape}")
    return table


def strategy_encoding(diagram: InfluenceDiagram, strategy: Strategy) -> str:
    """Render a strategy as ``node:infostate->action`` triples, semicolon-joined."""
    parts = []
    for node in diagram.decision_nodes:
        rule = strategy[node.node_id]
        for info in np.ndindex(rule.shape):
            labels = "|".join(
                diagram.by_id[p].states[s]
                for p, s in zip(node.predecessors, info)
            )
            parts.append(f"{node.node_id}:{labels}->{node.states[rule[info]]}")
    return ";".join(parts)


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


def expected_values(diagram: InfluenceDiagram,
                    strategy: Strategy) -> ObjectiveVector:
    """Sum pi(s) * U_v(s) over all paths, for every value node.

    Walks only strategy-compatible paths (decisions are forced by the
    strategy), which is exact because incompatible paths carry probability
    zero.
    """
    nodes = diagram.path_nodes
    totals = [0.0] * len(diagram.value_nodes)
    tables = [_value_table(diagram, v) for v in diagram.value_nodes]
    pos = diagram.path_position

    def walk(depth: int, prefix: list[int], prob: float) -> None:
        if prob == 0.0:
            return
        if depth == len(nodes):
            path = tuple(prefix)
            for i, vnode in enumerate(diagram.value_nodes):
                info = diagram.info_state_of(vnode, path)
                totals[i] += prob * float(tables[i][info])
            return
        node = nodes[depth]
        info = tuple(prefix[pos[p]] for p in node.predecessors)
        if node.kind is NodeKind.DECISION:
            prefix.append(strategy[node.node_id][info])
            walk(depth + 1, prefix, prob)
            prefix.pop()
        else:
            for state, p in enumerate(_cpt_row(diagram, node, info)):
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

def dense_tables(diagram: InfluenceDiagram) -> dict[int, np.ndarray]:
    """Every chance node's CPT as a one-row array, indexed (row, information
    state..., state): the form the evaluator reads."""
    return {n.node_id: diagram.cpts[n.node_id][None]
            for n in diagram.chance_nodes}


class StrategyEvaluator:
    """Expected values of every strategy of one strategy space at once: the
    strategies of ``diagram`` with the decision nodes in ``fixed`` pinned to
    their rules.

    A strategy is numbered by its free slots, one per (free decision node,
    information state) in node and then lexicographic order: its action at
    slot s is digit s of the mixed-radix index, slot 0 most significant.
    This is the program's one strategy numbering: :meth:`strategy`, its one
    decoder, turns numbers into rules, and rows of :meth:`objective_matrix`
    follow it.

    Paths are condensed by their decision signature -- the tuple of
    (information state, action) pairs over decision nodes -- so evaluating a
    strategy reduces to summing a handful of pre-aggregated rows instead of
    walking every path. Everything that depends only on the diagram's nodes
    and value tables and on the fixed rules (the signature sort, the CPT
    gather indices, the utility rows and the per-strategy accumulation
    plan) is computed once, and the path and strategy ceilings are checked
    then. So one evaluator serves a whole phase-1 run: every segment has
    the same nodes and values, and is evaluated through it with its own
    chance tables as arrays.
    """

    def __init__(self, diagram: InfluenceDiagram,
                 fixed: Strategy | None = None):
        self.diagram = d = diagram
        self.fixed = dict(fixed or {})
        sizes = [len(n.states) for n in d.path_nodes]
        n_paths = math.prod(sizes)
        _check_ceiling(n_paths, PATH_CEILING, "paths")
        count = d.strategy_count(fixed=tuple(self.fixed))
        _check_ceiling(count, STRATEGY_CEILING, "strategies")
        self._slots = tuple(len(n.states) for n in d.decision_nodes
                            if n.node_id not in self.fixed
                            for _ in d.info_states(n))

        pos = d.path_position

        def flat(axes: tuple[int, ...]) -> np.ndarray:
            """Every path's flat index into an array indexed by the states
            of the path nodes ``axes``, in that order. Each node's state
            ordinals lie along its own path axis and are broadcast over
            the rest, so no grid of every path's states is built."""
            index, stride = np.zeros((1,) * len(sizes), dtype=np.int64), 1
            for axis in reversed([pos[node_id] for node_id in axes]):
                view = [1] * len(sizes)
                view[axis] = sizes[axis]
                index = index + np.arange(sizes[axis]).reshape(view) * stride
                stride *= sizes[axis]
            return np.broadcast_to(index, sizes).reshape(n_paths)

        def entries(node: Node) -> np.ndarray:
            """Every path's flat index into ``node``'s (information
            state..., state) array."""
            return flat(node.predecessors + (node.node_id,))

        # Decision signature of every path, mixed-radix combined.
        widths = [math.prod(d.info_shape(n)) * len(n.states)
                  for n in d.decision_nodes]
        radix = np.zeros(n_paths, dtype=np.int64)
        span = 1
        for node, width in zip(d.decision_nodes, widths):
            if span > (2**62) // max(width, 1):
                raise CapacityError("decision signature space overflows int64")
            radix = radix * width + entries(node)
            span *= width
        order = np.argsort(radix, kind="stable")
        known, self._starts = np.unique(radix[order], return_index=True)

        self._chance = [(n.node_id, d.info_shape(n) + (len(n.states),))
                        for n in d.chance_nodes]
        utility = np.zeros((n_paths, len(d.value_nodes)))
        for i, node in enumerate(d.value_nodes):
            utility[:, i] = _value_table(d, node).ravel()[
                flat(node.predecessors)]
        # Paths in signature order: per chance node the flat index of each
        # path's entry, and each path's utility row.
        self._flats = tuple(entries(n)[order] for n in d.chance_nodes)
        self._utility = utility[order]

        # The accumulation plan: per combination of the decision nodes'
        # information states, in product order, the condensed row each
        # strategy adds -- its compatible signature's, or the trailing zero
        # row when it has none. One axis per decision node, then strategies.
        rules = self.strategy(np.arange(count))
        sig = np.zeros(1, dtype=np.int64)
        for node, width in zip(d.decision_nodes, widths):
            actions = rules[node.node_id].reshape(count, -1).T
            term = np.arange(len(actions))[:, None] * len(node.states) + actions
            sig = sig[..., None, :] * width + term
        sig = sig.reshape(-1, count)
        hit = np.minimum(np.searchsorted(known, sig), len(known) - 1)
        self._plan = np.where(known[hit] == sig, hit, len(known))

    def strategy(self, index: int | np.ndarray) -> Strategy:
        """The strategies numbered ``index``, an int or an array: each rule
        indexed (``index``'s axes..., information state...), the fixed
        rules broadcast and each free slot's action the number's digit
        there."""
        d, index = self.diagram, np.asarray(index)
        if self._slots:  # index's axes..., slots
            digits = np.stack(np.unravel_index(index, self._slots), axis=-1)
        rules, at = {}, 0
        for node in d.decision_nodes:
            shape = d.info_shape(node)
            if node.node_id in self.fixed:
                rules[node.node_id] = np.broadcast_to(
                    self.fixed[node.node_id], index.shape + shape)
            else:
                n = math.prod(shape)
                rules[node.node_id] = digits[..., at:at + n].reshape(
                    index.shape + shape)
                at += n
        return rules

    def _tables(self, tables: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Every chance node's table as a (batch rows x entries) array, in
        chance-node order."""
        chance = sorted(node_id for node_id, _ in self._chance)
        if sorted(tables) != chance:
            raise ValueError(f"tables for nodes {sorted(tables)}, not for "
                             f"the chance nodes {chance}")
        out = []
        for node_id, shape in self._chance:
            table = tables[node_id]
            if table.shape[1:] != shape:
                raise ValueError(
                    f"table of node {node_id} has shape {table.shape}, "
                    f"not (rows,) + {shape}")
            out.append(table.reshape(len(table), math.prod(shape)))
        return out

    def objective_matrix(self, tables: Mapping[int, np.ndarray]) -> np.ndarray:
        """Expected values of every strategy, in enumeration order, as
        (batch rows x strategies x objectives): one matrix per batch row.

        ``tables`` maps every chance node's id to a dense array indexed
        (batch row, information state..., state), as :func:`dense_tables`
        gives; a one-row table applies to every batch row.

        Only *live* paths are multiplied out: those with no entry that is
        exactly 0 in every batch row of its table. A dead path's dense term
        is +-0 (an exact 0 times a finite utility) and its slot here holds
        +0.0. That changes at most the sign of a zero sum, in any summation
        order, and the plan accumulation from +0.0 drops that sign, so every
        row has the bits of :meth:`dense_objective_matrix`.
        """
        factors = self._tables(tables)
        live = np.ones(len(self._utility), dtype=bool)
        for table, flat in zip(factors, self._flats):
            live &= np.any(table != 0, axis=0)[flat]
        return self._sum(factors, np.flatnonzero(live))

    def dense_objective_matrix(self, tables: Mapping[int, np.ndarray]
                               ) -> np.ndarray:
        """:meth:`objective_matrix` from every path's term: its oracle."""
        return self._sum(self._tables(tables), slice(None))

    def _sum(self, factors: list[np.ndarray],
             index: np.ndarray | slice) -> np.ndarray:
        """Multiply out the paths in ``index``; per batch row, sum their
        terms per decision signature over one reused full-length row (every
        other term +0.0); then add each strategy's plan rows from +0.0."""
        utility = self._utility[index]
        prob = np.ones((max((len(t) for t in factors), default=1),
                        len(utility)))
        for table, flat in zip(factors, self._flats):
            prob *= table[:, flat[index]]
        # Every path's slot is written when ``index`` takes them all.
        terms = (np.empty_like if isinstance(index, slice)
                 else np.zeros_like)(self._utility)
        # A trailing zero row for strategies with no compatible signature.
        condensed = np.zeros((len(prob), len(self._starts) + 1,
                              utility.shape[1]))
        for row, sums in zip(prob, condensed):
            terms[index] = row[:, None] * utility
            np.add.reduceat(terms, self._starts, axis=0, out=sums[:-1])
        out = np.zeros((len(prob), len(self._plan[0]), utility.shape[1]))
        for rows in self._plan:  # np.take: faster than condensed[:, rows]
            out += np.take(condensed, rows, axis=1)
        return out
