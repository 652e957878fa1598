"""The closure guard screens a rewrite from its parent and delta.

``operators._screen`` rejects a rewrite before its product is built, but
only on a finding that ``soft_check`` reports on that product; every
product it passes is built by ``with_changes`` and fully checked. These
tests compare both paths with a product built independently of the parent,
tables, memos and serialized text included, over ``apply_random`` chains
and random edge swaps, and pin that a screened rejection builds and checks
no graph.
"""

from __future__ import annotations

import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, WorkflowGraph, lower_to_graph, operators, parse_workflow, validate
from flowevo import validator
from flowevo.diagnostics import ERROR, STRUCT, W3, Diagnostic
from flowevo.graph import GraphDelta
from flowevo.operators import RewriteRejectedError, apply_random, delete_node, rewire_edge
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


_SCREEN = operators._screen


class _Differential:
    """Checks each screen verdict, and each graph the guard checks in full, against a fresh product."""

    def __init__(self):
        self.screened = self.checked = 0

    def screen(self, parent, delta):
        finding = _SCREEN(parent, delta)
        if finding is not None:
            fresh = soft_check(_product(parent, delta))
            assert finding.is_error and finding in fresh, (finding, fresh)
            self.screened += 1
        return finding

    def validate(self, graph):
        verdict = validate(graph)
        fresh = WorkflowGraph(graph.nodes, graph.edges, graph.prompts, graph.domain, graph.registry)
        assert verdict == validate(fresh)
        assert_memos_exact(graph)
        self.checked += 1
        return verdict

    def __enter__(self):
        self._patches = [patch.object(operators, "_screen", self.screen), patch.object(operators, "validate", self.validate)]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in reversed(self._patches):
            p.stop()


def _chain(graph, partner, seed: int, steps: int) -> _Differential:
    rng = np.random.default_rng(seed)
    with _Differential() as diff:
        for _ in range(steps):
            outcome = apply_random(graph if partner is None else (graph, partner), rng)
            if outcome is None:
                break
            graph = outcome.graphs[0]
    return diff


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
            if diff.screen(graph, delta) is None:
                diff.validate(graph.with_changes(delta))


def test_chains_take_both_paths():
    diff = _chain(_generated(100, 5), None, 5, 30)
    assert diff.screened > 5 and diff.checked > 5


def test_stranded_rewiring_builds_and_checks_no_graph(math_graph, monkeypatch):
    built, checked = [], []
    init, check = WorkflowGraph.__init__, validator.soft_check

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WorkflowGraph, "__init__", counting_init)
    monkeypatch.setattr(validator, "soft_check", lambda graph: checked.append(graph) or check(graph))
    # REFINE's only in-edge moves to C1, so REFINE is left without input
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(math_graph, ("ENSEMBLE", "REFINE"), "C1", "to_third")
    assert built == [] and checked == []
    message = "node of kind CustomOp plays an entry/exit role but is not an Interface"
    assert exc_info.value.diagnostics == (Diagnostic(W3, ERROR, message, subject="REFINE"),)


def test_bridge_onto_an_existing_edge_is_a_screened_duplicate():
    # A feeds the ensemble E directly and through X; deleting X doubles A -> E
    nodes = [
        Node("PROBLEM", "Interface"),
        Node("A", "CustomOp", {"role": "x"}),
        Node("X", "CustomOp", {"role": "x"}),
        Node("E", "ScEnsembleOp"),
        Node("RETURN", "Interface"),
    ]
    kept = [Edge("PROBLEM", "A", "input"), Edge("A", "E"), Edge("E", "RETURN")]
    graph = WorkflowGraph(nodes, kept + [Edge("A", "X"), Edge("X", "E")])
    with pytest.raises(RewriteRejectedError) as exc_info:
        delete_node(graph, "X")
    (finding,) = exc_info.value.diagnostics
    assert finding == Diagnostic(STRUCT, ERROR, "duplicate edge (x2)", subject="A->E")
    assert finding in soft_check(WorkflowGraph([n for n in nodes if n.id != "X"], kept + [Edge("A", "E")]))


def test_cycle_search_skips_the_removed_edges():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *(Node(n, "CustomOp", {"role": "x"}) for n in "ABC"), Node("RETURN", "Interface")],
        [
            Edge("PROBLEM", "A"),
            Edge("PROBLEM", "C"),
            Edge("A", "B"),
            Edge("B", "C"),
            Edge("B", "RETURN"),
            Edge("C", "RETURN"),
        ],
    )
    cycle = Diagnostic(STRUCT, ERROR, "node lies on a directed cycle", subject="C")
    # C -> A closes A -> B -> C, unless B -> C goes; every node keeps an in- and an out-edge
    assert operators._screen(graph, GraphDelta(added_edges=(Edge("C", "A"),))) == cycle
    opened = GraphDelta(removed_edges=(Edge("B", "C"),), added_edges=(Edge("C", "A"),))
    assert operators._screen(graph, opened) is None
    assert not graph.with_changes(opened).cycle_nodes()


@pytest.mark.parametrize("exit_id, exit_kind", [("OUT", "Interface"), ("RETURN", "CustomOp")])
def test_interface_and_reserved_nodes_are_never_screened(exit_id, exit_kind):
    # moving the exit's only in-edge strands it, but W3 reports an interface
    # node, or a reserved id of another kind, with a message of its own
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "x"}),
            Node(exit_id, exit_kind, {"role": "x"}),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "B"), Edge("B", exit_id)],
    )
    delta = GraphDelta(removed_edges=(Edge("B", exit_id),), added_edges=(Edge("B", "A"),))
    assert operators._screen(graph, delta) is None
    stranded = f"node of kind {exit_kind} plays an entry/exit role but is not an Interface"
    assert stranded not in [d.message for d in soft_check(_product(graph, delta)) if d.subject == exit_id]
