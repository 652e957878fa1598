"""Port bindings are computed once per node of a graph value and shared.

``bind_input_ports`` keeps each node's binding on the graph, and a product of
``with_changes`` starts with its parent's bindings of the nodes whose kind
and incoming edges it kept. These tests pin that the shared bindings are
exactly the ones a fresh graph computes, and that the pipeline binds each
node once.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import WorkflowGraph, lower_to_graph, parse_workflow, validate
from flowevo import validator
from flowevo.codegen import emit, lower_to_ir, structural_diff
from flowevo.graph import GraphDelta
from flowevo.operators import OperatorPreconditionError, RewriteRejectedError, apply_random, rewire_edge
from flowevo.validator import bind_input_ports, soft_check

from conftest import CORPUS_NAMES, load_corpus_graph, load_workflow_gen


def _generated(size: int, seed: int) -> WorkflowGraph:
    text = load_workflow_gen().generate(size, random.Random(seed), f"b{size}").text
    return lower_to_graph(parse_workflow(text))[0]


def _fresh(graph: WorkflowGraph) -> WorkflowGraph:
    """The same graph value with nothing memoized."""
    return WorkflowGraph(graph.nodes, graph.edges, graph.prompts, graph.domain, graph.registry)


@pytest.fixture
def bind_calls(monkeypatch):
    """(graph id, node id) -> calls of the uncached binding function."""
    calls = Counter()
    uncached = validator._bind_ports

    def counted(graph, node_id):
        calls[id(graph), node_id] += 1
        return uncached(graph, node_id)

    monkeypatch.setattr(validator, "_bind_ports", counted)
    return calls


def _non_interface(graph):
    return [nid for nid in graph.node_ids() if not graph.schema(nid).is_interface]


def test_binding_is_read_only_and_shared(gsm8k):
    result = bind_input_ports(gsm8k, "P6")
    assert bind_input_ports(gsm8k, "P6") is result
    for name in ("bindings", "missing", "unexpected", "overfed"):
        assert isinstance(getattr(result, name), tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.bindings = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.ambiguous = True


@pytest.mark.parametrize("source", [*CORPUS_NAMES, "gen40", "gen120"])
def test_pipeline_binds_each_node_once(source, bind_calls):
    graph = _generated(int(source[3:]), 7) if source.startswith("gen") else load_corpus_graph(source)
    assert validate(graph).q == 1
    ir = lower_to_ir(graph)
    program, _ = emit(ir)
    assert structural_diff(program, graph).is_empty()
    assert bind_calls == Counter({(id(graph), nid): 1 for nid in _non_interface(graph)})


@pytest.mark.parametrize("source", ["gsm8k_round16", "humaneval_round5", "gen60"])
def test_rewire_product_rebinds_only_changed_nodes(source, bind_calls):
    graph = _generated(int(source[3:]), 3) if source.startswith("gen") else load_corpus_graph(source)
    assert validate(graph).q == 1
    products = 0
    for edge in graph.edges:
        for third in graph.node_ids():
            for direction in ("to_third", "from_third"):
                bind_calls.clear()
                try:
                    product = rewire_edge(graph, edge.key(), third, direction).graphs[0]
                except (OperatorPreconditionError, RewriteRejectedError):
                    continue
                products += 1
                changed = {
                    nid
                    for nid in product.node_ids()
                    if product.predecessors(nid) != graph.predecessors(nid)
                }
                assert set(bind_calls) <= {(id(product), nid) for nid in changed}
                assert all(count == 1 for count in bind_calls.values())
        if products >= 20:
            break
    assert products


def test_a_delta_that_changes_a_kind_rebinds_and_looks_up_the_new_schema(gsm8k):
    assert validate(gsm8k).q == 1
    node = dataclasses.replace(gsm8k.node("P6"), kind="CustomOp", attributes={"role": "x"})
    product = gsm8k.with_changes(GraphDelta(replaced_nodes=(node,)))
    assert product.schema("P6").kind == "CustomOp"
    assert bind_input_ports(product, "P6") != bind_input_ports(gsm8k, "P6")
    _assert_bindings_exact(product)


def _assert_bindings_exact(product: WorkflowGraph) -> None:
    fresh = _fresh(product)
    for nid in product.node_ids():
        assert bind_input_ports(product, nid) == bind_input_ports(fresh, nid)
    assert soft_check(product) == soft_check(fresh)


def _chain(graph, partner, seed: int, steps: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        outcome = apply_random(graph if partner is None else (graph, partner), rng)
        if outcome is None:
            return
        for product in outcome.graphs:
            _assert_bindings_exact(product)
        graph = outcome.graphs[0]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(CORPUS_NAMES),
    st.sampled_from(CORPUS_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_inherited_bindings_are_exact_on_corpus_pairs(first, second, seed, steps):
    _chain(load_corpus_graph(first), load_corpus_graph(second), seed, steps)


@settings(max_examples=20, deadline=None)
@given(st.integers(10, 100), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_inherited_bindings_are_exact_on_generated_graphs(size, seed, steps):
    _chain(_generated(size, seed), None, seed, steps)


def test_binding_memo_under_concurrent_use():
    # threads bind a shared graph's nodes while others derive products from
    # it, so inheritance reads the memo while it is being written
    graph = _generated(80, 11)
    fresh = _fresh(graph)
    expected = {nid: bind_input_ports(fresh, nid) for nid in fresh.node_ids()}
    products, errors = [], []

    def work(offset):
        try:
            ids = graph.node_ids()
            for nid in ids[offset:] + ids[:offset]:
                assert bind_input_ports(graph, nid) == expected[nid]
                products.append(graph.with_changes(GraphDelta(prompts=graph.prompts)))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(20 * i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(products) == 4 * len(expected)
    for product in products[::9]:
        assert {nid: bind_input_ports(product, nid) for nid in product.node_ids()} == expected
