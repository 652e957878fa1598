"""The closure guard decides each built product by the full check alone.

``operators._guard`` builds every product with ``with_changes`` and makes
one ``validate`` call per product; the first product that does not
validate is rejected with its full findings. These tests compare each
rejection with ``soft_check`` of a product built independently of the
parent, and each accepted product, tables, memos and serialized text
included, with a fresh build, over ``apply_random`` chains and random edge
swaps.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, WorkflowGraph, lower_to_graph, operators, parse_workflow, validate
from flowevo.diagnostics import ERROR, STRUCT, W1, W3, Diagnostic
from flowevo.graph import GraphDelta
from flowevo.operators import OperatorKind, RewriteRejectedError, apply_random, delete_node, rewire_edge
from flowevo.validator import soft_check

from conftest import CORPUS_NAMES, assert_memos_exact, load_corpus_graph, load_workflow_gen


def _generated(size: int, seed: int) -> WorkflowGraph:
    text = load_workflow_gen().generate(size, random.Random(seed), f"s{size}").text
    return lower_to_graph(parse_workflow(text))[0]


def _product(parent: WorkflowGraph, delta: GraphDelta) -> WorkflowGraph:
    """The delta's product built from whole lists, with nothing memoized or inherited."""
    edges = list(parent.edges)
    for edge in delta.removed_edges:
        edges.remove(edge)
    dropped = set(delta.removed_nodes) | {n.id for n in delta.replaced_nodes}
    nodes = [n for n in parent.nodes if n.id not in dropped] + list(delta.replaced_nodes + delta.added_nodes)
    prompts = parent.prompts if delta.prompts is None else delta.prompts
    return WorkflowGraph(nodes, edges + list(delta.added_edges), prompts, parent.domain, parent.registry)


def _guarded(pairs):
    return operators._guard(pairs, OperatorKind.REWIRING, "test rewrite")


_GUARD = operators._guard


class _Differential:
    """Checks each guard decision against fresh products, and that each product gets one full check."""

    def __init__(self):
        self.full_checks = 0

    def guard(self, pairs, applied, description):
        full_checks = self.full_checks
        try:
            outcome = _GUARD(pairs, applied, description)
        except RewriteRejectedError as exc:
            fresh = [_product(parent, delta) for parent, delta in pairs]
            verdicts = [validate(graph).q for graph in fresh]
            failed = verdicts.index(0)  # the guard stops at the first product that fails
            assert self.full_checks - full_checks == failed + 1
            assert exc.diagnostics == tuple(soft_check(fresh[failed]))
            raise
        assert self.full_checks - full_checks == len(pairs)
        for graph, (parent, delta) in zip(outcome.graphs, pairs):
            fresh = _product(parent, delta)
            assert graph == fresh and validate(fresh).q == 1
            assert_memos_exact(graph)
        return outcome

    def validate(self, graph):
        self.full_checks += 1
        return validate(graph)

    def __enter__(self):
        self._patches = [patch.object(operators, "_guard", self.guard), patch.object(operators, "validate", self.validate)]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in reversed(self._patches):
            p.stop()


def _chain(graph, partner, seed: int, steps: int) -> None:
    rng = np.random.default_rng(seed)
    with _Differential():
        for _ in range(steps):
            outcome = apply_random(graph if partner is None else (graph, partner), rng)
            if outcome is None:
                break
            graph = outcome.graphs[0]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(CORPUS_NAMES),
    st.sampled_from(CORPUS_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_screen_is_exact_on_corpus_chains(first, second, seed, steps):
    _chain(load_corpus_graph(first), load_corpus_graph(second), seed, steps)


@settings(max_examples=15, deadline=None)
@given(st.integers(10, 300), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_screen_is_exact_on_generated_chains(size, seed, steps):
    _chain(_generated(size, seed), None, seed, steps)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([*CORPUS_NAMES, 12, 40, 120]), st.integers(0, 2**32 - 1))
def test_screen_is_exact_on_random_edge_swaps(source, seed):
    # deltas no operator makes: one or two edges out, one edge in anywhere
    graph = _generated(source, seed) if isinstance(source, int) else load_corpus_graph(source)
    validate(graph)
    rng = random.Random(seed)
    ids = graph.node_ids()
    with _Differential() as diff:
        for _ in range(25):
            removed = tuple(rng.sample(graph.edges, rng.choice((1, 2))))
            added = Edge(rng.choice(ids), rng.choice(ids), rng.choice((None, removed[0].label)))
            delta = GraphDelta(removed_edges=removed, added_edges=(added,))
            try:
                diff.guard([(graph, delta)], OperatorKind.REWIRING, "edge swap")
            except RewriteRejectedError:
                pass


def test_stranded_rewiring_is_rejected(math_graph):
    # REFINE's only in-edge moves to C1, so REFINE is left without input
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(math_graph, ("ENSEMBLE", "REFINE"), "C1", "to_third")
    message = "node of kind CustomOp plays an entry/exit role but is not an Interface"
    assert Diagnostic(W3, ERROR, message, subject="REFINE") in exc_info.value.diagnostics


def _custom(node_id: str) -> Node:
    return Node(node_id, "CustomOp", {"role": "x"})


def test_rewiring_onto_a_fed_node_is_rejected():
    # C's one port is fed by PROBLEM; moving A -> E onto C leaves one input without a port
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *map(_custom, "ABC"), Node("E", "ScEnsembleOp"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", n) for n in "ABC"] + [Edge(n, "E") for n in "ABC"] + [Edge("E", "RETURN")],
    )
    assert validate(graph).q == 1
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(graph, ("A", "E"), "C", "to_third")
    unfed = Diagnostic(STRUCT, ERROR, "unexpected input from PROBLEM (no open port)", subject="C")
    assert unfed in exc_info.value.diagnostics


def test_bridge_onto_an_existing_edge_is_a_rejected_duplicate():
    # A feeds the ensemble E directly and through X; deleting X doubles A -> E
    nodes = [
        Node("PROBLEM", "Interface"),
        _custom("A"),
        _custom("X"),
        Node("E", "ScEnsembleOp"),
        Node("RETURN", "Interface"),
    ]
    kept = [Edge("PROBLEM", "A", "input"), Edge("A", "E"), Edge("E", "RETURN")]
    graph = WorkflowGraph(nodes, kept + [Edge("A", "X"), Edge("X", "E")])
    with pytest.raises(RewriteRejectedError) as exc_info:
        delete_node(graph, "X")
    finding = Diagnostic(STRUCT, ERROR, "duplicate edge (x2)", subject="A->E")
    assert finding in exc_info.value.diagnostics
    assert finding in soft_check(WorkflowGraph([n for n in nodes if n.id != "X"], kept + [Edge("A", "E")]))


def test_cycle_search_skips_the_removed_edges():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *map(_custom, "XYBC"), Node("E", "ScEnsembleOp"), Node("RETURN", "Interface")],
        [
            Edge("PROBLEM", "X"),
            Edge("PROBLEM", "Y"),
            Edge("X", "E"),
            Edge("Y", "E"),
            Edge("E", "B"),
            Edge("B", "C"),
            Edge("B", "RETURN"),
            Edge("C", "RETURN"),
        ],
    )
    assert validate(graph).q == 1
    # C -> E closes E -> B -> C, unless B -> C goes and Y feeds C instead
    with pytest.raises(RewriteRejectedError) as exc_info:
        _guarded([(graph, GraphDelta(added_edges=(Edge("C", "E"),)))])
    errors = [d for d in exc_info.value.diagnostics if d.is_error]
    assert errors == [Diagnostic(STRUCT, ERROR, "node lies on a directed cycle", subject=n) for n in "BCE"]
    opened = GraphDelta(removed_edges=(Edge("B", "C"),), added_edges=(Edge("C", "E"), Edge("Y", "C")))
    (product,) = _guarded([(graph, opened)]).graphs
    assert not product.cycle_nodes()


@pytest.mark.parametrize(
    "exit_id, exit_kind, finding",
    [
        ("OUT", "Interface", "interface node is neither entry nor exit"),
        ("RETURN", "CustomOp", "reserved node RETURN must be classified as Interface, not CustomOp"),
    ],
    ids=["interface", "reserved"],
)
def test_stranded_interface_and_reserved_exits_keep_their_own_findings(exit_id, exit_kind, finding):
    # moving the exit's only in-edge strands it, but W3 reports an interface
    # node, or a reserved id of another kind, with a message of its own
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), _custom("A"), _custom("B"), Node(exit_id, exit_kind, {"role": "x"})],
        [Edge("PROBLEM", "A", "input"), Edge("A", "B"), Edge("B", exit_id)],
    )
    delta = GraphDelta(removed_edges=(Edge("B", exit_id),), added_edges=(Edge("B", "A"),))
    with pytest.raises(RewriteRejectedError) as exc_info:
        _guarded([(graph, delta)])
    found = exc_info.value.diagnostics
    assert Diagnostic(W1, ERROR, "missing exit interface node", subject="RETURN") in found
    assert Diagnostic(W3, ERROR, finding, subject=exit_id) in found
    stranded = f"node of kind {exit_kind} plays an entry/exit role but is not an Interface"
    assert stranded not in [d.message for d in found]
    assert found == tuple(soft_check(_product(graph, delta)))
