"""Per-node facts are computed once per graph value and shared with its products.

``bind_input_ports``, ``soft_check`` and ``serialize_workflow`` keep each
node's binding, findings and declaration line on the graph, and a product of
``with_changes`` starts with its parent's entries of the nodes the delta
keeps, its parent's interface roles and acyclicity when the delta keeps
them, and tables patched from its parent's. These tests pin that everything
shared is exactly what a fresh graph computes, and that the pipeline binds
each node once.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, PromptTable, WorkflowGraph, lower_to_graph, parse_workflow, serialize_workflow, validate
from flowevo import validator
from flowevo.codegen import emit, lower_to_ir, structural_diff
from flowevo.diagnostics import ERROR, STRUCT, W3, Diagnostic
from flowevo.graph import GraphConstructionError, GraphDelta
from flowevo.operators import OperatorKind, OperatorPreconditionError, RewriteRejectedError, apply_random, rewire_edge
from flowevo.registry import load_registry
from flowevo.validator import bind_input_ports, soft_check

from conftest import CORPUS_NAMES, assert_memos_exact, load_corpus_graph, load_workflow_gen, rebuilt


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

    def counted(schema, in_pairs):
        # a memo miss of bind_input_ports(graph, node_id), whose arguments key the count
        caller = sys._getframe(1).f_locals
        calls[id(caller["graph"]), caller["node_id"]] += 1
        return uncached(schema, in_pairs)

    monkeypatch.setattr(validator, "_bind_ports", counted)
    return calls


def _non_interface(graph):
    return [nid for nid in graph.node_ids() if not graph.schema(nid).is_interface]


def test_binding_is_read_only_and_shared(gsm8k):
    result = bind_input_ports(gsm8k, "P6")
    assert bind_input_ports(gsm8k, "P6") is result
    for name in ("bindings", "missing", "unexpected", "overfed"):
        assert isinstance(getattr(result, name), tuple)
    with pytest.raises(AttributeError):
        result.bindings = ()
    with pytest.raises(AttributeError):
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
    assert_memos_exact(product)


def _chain(graph, partner, seed: int, steps: int) -> None:
    # each product is serialized and checked before the next step derives
    # from it, so every memo has entries to pass on
    assert_memos_exact(graph)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        outcome = apply_random(graph if partner is None else (graph, partner), rng)
        if outcome is None:
            return
        for product in outcome.graphs:
            assert_memos_exact(product)
        graph = outcome.graphs[0]


def test_a_product_computes_its_topological_order_afresh(gsm8k):
    parent = rebuilt(gsm8k)
    order = parent.topological_order()
    p1 = dataclasses.replace(parent.node("P1"), attributes={"analysis": "twice"})
    same = parent.with_changes(GraphDelta(replaced_nodes=(p1,)))
    assert same.topological_order() == order
    # an isolated node keeps every edge, but not every id
    lone = parent.with_changes(GraphDelta(added_nodes=(Node("Z", "CustomOp", {"role": "z"}),)))
    assert_memos_exact(lone)
    assert "Z" in lone.topological_order()
    gone = lone.with_changes(GraphDelta(removed_nodes=("Z",)))
    assert_memos_exact(gone)
    assert gone.topological_order() == order


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_products_of_each_operator_kind_inherit_exact_memos(kind):
    # every parent has each memo filled (assert_memos_exact checks, serializes
    # and lowers it) before a rewrite of the one kind derives from it
    products = Counter()
    starts = [(load_corpus_graph(a), load_corpus_graph(b)) for a, b in (("gsm8k_round16", "math_round16"), ("humaneval_round5", "mbpp_round8"))]
    starts.append((_generated(60, 5), _generated(60, 6)))
    for seed, (graph, partner) in enumerate(starts):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            assert_memos_exact(graph)
            outcome = apply_random((graph, partner), rng, weights={kind: 1.0}, site_budget=32)
            if outcome is None:
                break
            for product in outcome.graphs:
                assert_memos_exact(product)
                products[seed] += 1
            graph = outcome.graphs[0]
    assert len(products) >= 2 and sum(products.values()) >= 8, products


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
@given(st.integers(10, 300), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_inherited_bindings_are_exact_on_generated_graphs(size, seed, steps):
    _chain(_generated(size, seed), None, seed, steps)


def test_binding_memo_under_concurrent_use():
    # threads bind, check and serialize a shared graph while others derive
    # products from it, so inheritance reads the memos while they are written
    graph = _generated(80, 11)
    fresh = _fresh(graph)
    expected = {nid: bind_input_ports(fresh, nid) for nid in fresh.node_ids()}
    findings, text = soft_check(fresh), serialize_workflow(fresh)
    products, errors = [], []

    def work(offset):
        try:
            ids = graph.node_ids()
            for i, nid in enumerate(ids[offset:] + ids[:offset]):
                assert bind_input_ports(graph, nid) == expected[nid]
                if i % 4 == offset // 20:
                    assert soft_check(graph) == findings
                    assert serialize_workflow(graph) == text
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
        assert soft_check(product) == findings
        assert serialize_workflow(product) == text
        assert_memos_exact(product)


def test_call_step_memo_under_concurrent_use(tmp_path):
    # threads lower and emit a lowered parent and its unlowered products, which
    # share the parent's call steps, alternating two template sets
    import shutil

    import flowevo.codegen
    from flowevo.codegen import default_templates, load_templates

    shipped = Path(flowevo.codegen.__file__).parent / "templates" / "default"
    shutil.copytree(shipped, tmp_path / "alt")
    for path in (tmp_path / "alt").glob("call_*.tmpl"):
        path.write_text(path.read_text(encoding="utf-8").replace("await self.", "await self.alt_"), encoding="utf-8")
    template_sets = (default_templates(), load_templates(tmp_path / "alt"))
    parent = _generated(120, 5)
    lower_to_ir(parent)
    rng = np.random.default_rng(5)
    graphs = [parent]
    while len(graphs) < 12:
        outcome = apply_random(parent, rng)
        if outcome is not None:
            graphs.append(outcome.graphs[0])
    assert all(g._calls for g in graphs)
    expected = [[emit(lower_to_ir(_fresh(g)), t)[0] for t in template_sets] for g in graphs]
    assert all("await self.alt_" not in default and "await self.alt_" in alt for default, alt in expected)
    errors = []

    def work(offset):
        try:
            for i in range(4 * len(graphs)):
                g = (i + offset) % len(graphs)
                t = (i + offset // 2) % 2
                assert emit(lower_to_ir(graphs[g]), template_sets[t])[0] == expected[g][t]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


# -- hand-built deltas: each is a case a looser inheritance rule gets wrong --


def test_an_added_edge_that_closes_a_cycle_is_found(gsm8k):
    parent = rebuilt(gsm8k)
    assert validate(parent).q == 1 and parent._cycles == frozenset()
    product = parent.with_changes(GraphDelta(added_edges=(Edge("P6", "C"),)))
    assert product.cycle_nodes() == {"C", "ENSEMBLE", "P6"}
    assert_memos_exact(product)


def test_a_rewiring_that_closes_no_cycle_inherits_acyclicity(gsm8k):
    parent = rebuilt(gsm8k)
    validate(parent)
    product = parent.with_changes(GraphDelta(removed_edges=(Edge("P1", "ENSEMBLE"),), added_edges=(Edge("P1", "P6"),)))
    assert product._cycles == frozenset()
    assert product._roles is parent._roles
    assert_memos_exact(product)


def test_a_kind_change_to_an_interface_kind_reclassifies_the_roles(gsm8k):
    parent = rebuilt(gsm8k)
    validate(parent)
    interface = Node("P6", "Interface", {}, "P6")
    product = parent.with_changes(GraphDelta(replaced_nodes=(interface,)))
    assert product.interface_roles().midstream == ("P6",)
    assert Diagnostic(W3, ERROR, "interface node is neither entry nor exit", subject="P6") in soft_check(product)
    assert_memos_exact(product)


def test_an_edge_off_an_interface_node_reclassifies_the_roles(gsm8k):
    parent = rebuilt(gsm8k)
    validate(parent)
    product = parent.with_changes(GraphDelta(removed_edges=(Edge("P6", "RETURN"),), added_edges=(Edge("P6", "P1"),)))
    assert product.interface_roles().isolated == ("RETURN",)
    assert_memos_exact(product)


def test_a_role_change_rechecks_the_types_its_untouched_successor_reads():
    # an entry ENTRY_POINT emits 'entry_point', which P's problem port refuses; an
    # edge into it makes it midstream, emitting 'any', and P is not touched
    nodes = [Node(nid, "Interface") for nid in ("PROBLEM", "ENTRY_POINT", "RETURN")]
    nodes += [Node("C", "CustomOp", {"role": "r"}), Node("P", "ProgrammerOp")]
    edges = [Edge("PROBLEM", "C"), Edge("ENTRY_POINT", "P"), Edge("C", "RETURN"), Edge("P", "RETURN")]
    parent = WorkflowGraph(nodes, edges)
    mismatch = "type mismatch: ENTRY_POINT emits 'entry_point' but port 'problem' accepts problem, solution"
    assert Diagnostic(STRUCT, ERROR, mismatch, subject="P") in soft_check(parent)
    product = parent.with_changes(GraphDelta(added_edges=(Edge("PROBLEM", "ENTRY_POINT"),)))
    assert product.interface_roles().midstream == ("ENTRY_POINT",)
    assert_memos_exact(product)


def test_a_kind_change_rechecks_the_types_its_untouched_successor_reads(gsm8k, tmp_path):
    # an AnalystOp emits 'analysis', which the ensemble's solution port does not accept
    cfg = tmp_path / "analyst.cfg"
    cfg.write_text(
        (Path(validator.__file__).with_name("registry.cfg")).read_text(encoding="utf-8")
        + "\n[kind:AnalystOp]\ninputs =\n\tinput\noutput = analysis\n",
        encoding="utf-8",
    )
    parent = WorkflowGraph(gsm8k.nodes, gsm8k.edges, gsm8k.prompts, gsm8k.domain, load_registry(cfg))
    assert validate(parent).q == 1
    analyst = dataclasses.replace(gsm8k.node("C"), kind="AnalystOp")
    product = parent.with_changes(GraphDelta(replaced_nodes=(analyst,)))
    mismatch = "type mismatch: C emits 'analysis' but port 'solution' accepts solution"
    assert Diagnostic(STRUCT, ERROR, mismatch, subject="ENSEMBLE") in soft_check(product)
    assert_memos_exact(product)


def test_a_merged_prompt_table_resolves_a_reference_on_an_untouched_node(gsm8k):
    parent = rebuilt(gsm8k, prompts=PromptTable())
    unresolved = "unresolved prompt reference 'simple_solver_1' in attribute 'role'"
    assert unresolved in [d.message for d in soft_check(parent)]
    product = parent.with_changes(GraphDelta(prompts=parent.prompts.merged(gsm8k.prompts.entries)))
    assert validate(product).q == 1 and not soft_check(product)
    assert_memos_exact(product)


@pytest.mark.parametrize(
    "delta, message",
    [
        (GraphDelta(removed_nodes=("P6",), removed_edges=(Edge("ENSEMBLE", "P6"),)), "dangling endpoint 'P6'"),
        (GraphDelta(added_edges=(Edge("P6", "NOPE"),)), "dangling endpoint 'NOPE'"),
        (GraphDelta(added_nodes=(Node("P1", "CustomOp", {"role": "x"}),)), "duplicate node id 'P1'"),
        (GraphDelta(added_nodes=(Node("1A", "CustomOp", {"role": "x"}),)), "bad node id '1A'"),
        (GraphDelta(removed_edges=(Edge("P6", "C"),)), "no edge P6->C to remove"),
    ],
)
def test_a_delta_that_breaks_the_graph_raises_what_the_constructor_raises(gsm8k, delta, message):
    with pytest.raises(GraphConstructionError, match=f"^{message}$"):
        gsm8k.with_changes(delta)
    if delta.removed_edges and not delta.removed_nodes:
        return  # an edge the parent lacks: no whole-list product to build
    dropped = set(delta.removed_nodes)
    nodes = [n for n in gsm8k.nodes if n.id not in dropped] + list(delta.added_nodes)
    edges = [e for e in gsm8k.edges if e not in delta.removed_edges] + list(delta.added_edges)
    with pytest.raises(GraphConstructionError, match=f"^{message}$"):
        WorkflowGraph(nodes, edges, gsm8k.prompts, gsm8k.domain, gsm8k.registry)
