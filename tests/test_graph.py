from __future__ import annotations

import numpy as np
import pytest

from flowevo import (
    Edge,
    GraphConstructionError,
    MissingInterfaceError,
    Node,
    PromptTable,
    WorkflowGraph,
    serialize_workflow,
    type_of_output,
)
from flowevo.codegen import emit, lower_to_ir
from flowevo.graph import GraphDelta
from flowevo.operators import apply_random

from conftest import rebuilt, shuffled_twin


def minimal_graph():
    return WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )


def test_minimal_graph_builds():
    graph = minimal_graph()
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1


def test_gsm8k_census(gsm8k):
    kinds = {}
    for node in gsm8k.nodes:
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds == {"Interface": 2, "CustomOp": 1, "ProgrammerOp": 6, "ScEnsembleOp": 1}
    assert len(gsm8k.edges) == 14


def test_duplicate_node_id_rejected():
    with pytest.raises(GraphConstructionError, match="duplicate node id 'A'"):
        WorkflowGraph([Node("A", "CustomOp"), Node("A", "CustomOp")], [])


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphConstructionError, match="dangling endpoint 'X'"):
        WorkflowGraph([Node("A", "CustomOp")], [Edge("A", "X")])


def test_bad_node_id_rejected():
    with pytest.raises(GraphConstructionError, match="bad node id"):
        WorkflowGraph([Node("9lives", "CustomOp")], [])


def test_bad_prompt_name_rejected():
    with pytest.raises(GraphConstructionError, match="bad prompt name"):
        PromptTable({"not valid": "text"})


def test_predecessors_of_ensemble(gsm8k):
    preds = gsm8k.predecessors("ENSEMBLE")
    assert [p for p, _ in preds] == ["C", "P1", "P2", "P3", "P4", "P5"]


def test_predecessors_of_entry_empty(gsm8k):
    assert gsm8k.predecessors("PROBLEM") == []


def test_predecessors_chain():
    graph = WorkflowGraph(
        [Node("A", "Interface"), Node("B", "CustomOp", {"role": "x"}), Node("C", "Interface")],
        [Edge("A", "B", "input"), Edge("B", "C")],
    )
    assert graph.predecessors("C") == [("B", None)]


def test_unknown_id_raises(gsm8k):
    with pytest.raises(KeyError):
        gsm8k.predecessors("NOPE")


def _recast(read):
    """A parent and its product with the kept node C recast from CustomOp to ProgrammerOp; both
    read C's schema, and the one named by ``read`` is returned."""
    parent = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("C", "CustomOp"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "C"), Edge("C", "RETURN")],
    )
    parent.schema("C")
    product = parent.with_changes(GraphDelta(replaced_nodes=(Node("C", "ProgrammerOp"),)))
    product.schema("C")
    return {"parent": parent, "product": product}[read]


@pytest.mark.parametrize(
    ("build", "node_id", "kind"),
    [
        (minimal_graph, "NOPE", KeyError),
        (lambda: WorkflowGraph([Node("E", "ScEnSembleOp")], []), "E", "ScEnsembleOp"),
        (lambda: WorkflowGraph([Node("X", "NoSuchOp")], []), "X", None),
        (lambda: _recast("product"), "C", "ProgrammerOp"),
        (lambda: _recast("parent"), "C", "CustomOp"),
    ],
    ids=["unknown-id", "case-variant-kind", "unregistered-kind", "recast-product", "recast-parent"],
)
def test_schema_is_the_registered_schema_of_the_nodes_kind(build, node_id, kind):
    graph = build()
    if kind is KeyError:
        with pytest.raises(KeyError, match=f"unknown node id '{node_id}'"):
            graph.schema(node_id)
    else:
        schema = graph.schema(node_id)
        assert (None if schema is None else schema.kind) == kind


def test_successors_predecessors_consistent(gsm8k, math_graph, humaneval, mbpp):
    for graph in (gsm8k, math_graph, humaneval, mbpp):
        for node_id in graph.node_ids():
            for target, label in graph.successors(node_id):
                assert (node_id, label) in graph.predecessors(target)
            for source, label in graph.predecessors(node_id):
                assert (node_id, label) in graph.successors(source)


def test_reachability_minimal():
    graph = minimal_graph()
    assert graph.reachable_from_entry() == {"PROBLEM", "RETURN"}
    assert graph.reaches_exit() == {"PROBLEM", "RETURN"}


def test_reachability_gsm8k_full(gsm8k):
    # hand-traced closure over the 14 published edges: every node is on
    # an entry-to-exit path
    everything = set(gsm8k.node_ids())
    assert gsm8k.reachable_from_entry() == everything
    assert gsm8k.reaches_exit() == everything


def test_isolated_node_absent_from_closures():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("RETURN", "Interface"),
            Node("Z", "CustomOp", {"role": "x"}),
        ],
        [Edge("PROBLEM", "RETURN")],
    )
    assert "Z" not in graph.reachable_from_entry()
    assert "Z" not in graph.reaches_exit()


def test_missing_interface_raises():
    graph = WorkflowGraph([Node("A", "CustomOp", {"role": "x"})], [])
    with pytest.raises(MissingInterfaceError):
        graph.reachable_from_entry()
    with pytest.raises(MissingInterfaceError):
        graph.reaches_exit()


def test_ensemble_input_port(gsm8k):
    port = gsm8k.schema("ENSEMBLE").ports_by_label["solution"]
    assert port.label == "solution"
    assert port.min_count == 2


def test_unknown_input_port_is_absent(gsm8k):
    with pytest.raises(KeyError):
        gsm8k.schema("ENSEMBLE").ports_by_label["nonsense"]


def test_type_of_output_entry(gsm8k):
    assert type_of_output(gsm8k, "PROBLEM") == "problem"


def test_type_of_output_aux_entry(humaneval):
    assert type_of_output(humaneval, "ENTRY_POINT") == "entry_point"


def test_testop_entry_point_port(humaneval):
    port = humaneval.schema("T").ports_by_label["entry_point"]
    assert port.label == "entry_point"
    assert port.ambient


def test_equality_under_reordering(corpus_graphs):
    for graph in corpus_graphs.values():
        shuffled = shuffled_twin(graph, 11)
        assert shuffled == graph
        assert shuffled.structural_signature() == graph.structural_signature()
        # elements are stored in canonical order whatever order they came in
        for g in (graph, shuffled):
            ids = [n.id for n in g.nodes]
            assert ids == sorted(ids) == list(g.node_ids())
            edge_keys = [(e.source, e.target, e.label is not None, e.label or "") for e in g.edges]
            assert edge_keys == sorted(edge_keys)
            assert list(g.prompts) == list(g.prompts.entries) == sorted(g.prompts)
        assert shuffled.nodes == graph.nodes and shuffled.edges == graph.edges
        assert list(shuffled.prompts) == list(graph.prompts)


def test_interface_roles(humaneval):
    roles = humaneval.interface_roles()
    assert roles.problem_entries == ("PROBLEM",)
    assert roles.aux_entries == ("ENTRY_POINT",)
    assert roles.exits == ("RETURN",)


def test_downstream_of(gsm8k):
    assert gsm8k.downstream_of("ENSEMBLE") == {"P6", "RETURN"}


def test_topological_order_raises_on_cycle():
    graph = WorkflowGraph(
        [Node("A", "CustomOp", {"role": "x"}), Node("B", "CustomOp", {"role": "y"})],
        [Edge("A", "B"), Edge("B", "A")],
    )
    with pytest.raises(GraphConstructionError, match="cycle"):
        graph.topological_order()
    assert graph.cycle_nodes() == {"A", "B"}


@pytest.mark.parametrize(
    ("edges", "on_cycles"),
    [
        ([("A", "A")], {"A"}),  # a lone self-loop keeps one node from peeling
        ([("A", "B"), ("B", "C")], set()),
        ([("A", "B"), ("B", "C"), ("C", "B"), ("C", "D"), ("D", "D")], {"B", "C", "D"}),
        ([("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "E")], {"A", "B", "C"}),
    ],
)
def test_cycle_nodes_are_the_nodes_on_a_cycle(edges, on_cycles):
    # nodes upstream and downstream of a cycle are on none
    ids = sorted({end for edge in edges for end in edge})
    graph = WorkflowGraph([Node(i, "CustomOp") for i in ids], [Edge(s, t) for s, t in edges])
    assert graph.cycle_nodes() == on_cycles


def test_reachability_matches_w2_verdict(corpus_graphs):
    # cross-module consistency on the published corpus: full forward
    # reachability coincides with the absence of W2 findings
    from flowevo.validator import soft_check

    for graph in corpus_graphs.values():
        w2 = [d for d in soft_check(graph) if d.rule == "W2"]
        fully_reachable = graph.reachable_from_entry() == set(graph.node_ids())
        assert fully_reachable and not w2


def test_forward_break_reports_w2(gsm8k):
    from flowevo.validator import soft_check

    edges = tuple(e for e in gsm8k.edges if not (e.source == "PROBLEM" and e.target == "C"))
    broken = rebuilt(gsm8k, edges=edges)
    assert broken.reachable_from_entry() != set(broken.node_ids())
    assert any(d.rule == "W2" and d.subject == "C" for d in soft_check(broken))


def test_node_attributes_are_read_only():
    node = Node("C", "CustomOp", {"role": "r"})
    with pytest.raises(TypeError):
        node.attributes["role"] = "other"
    with pytest.raises(TypeError):
        del node.attributes["role"]
    assert node.attributes == {"role": "r"}


def test_node_attributes_do_not_alias_the_callers_dict():
    attrs = {"role": "r"}
    node = Node("C", "CustomOp", attrs)
    attrs["role"] = "changed"
    attrs["extra"] = "x"
    assert node.attributes == {"role": "r"}


def test_attributes_and_prompts_are_stored_by_name():
    node = Node("C", "CustomOp", {"role": "r", "instruction": "i", "analysis": "a"})
    assert list(node.attributes) == ["analysis", "instruction", "role"]
    prompts = PromptTable({"zeta": "z", "alpha": "a", "mid": "m"})
    assert list(prompts) == list(prompts.entries) == ["alpha", "mid", "zeta"]
    assert list(prompts.merged({"beta": "b"})) == ["alpha", "beta", "mid", "zeta"]


def test_a_shared_prompt_table_takes_no_attribute(gsm8k):
    # parent and products share one table value, so serializing, rewriting and
    # emitting any of them leaves it as it was built
    prompts, entries = gsm8k.prompts, dict(gsm8k.prompts.entries)
    node = next(n for n in gsm8k.nodes if n.kind == "ProgrammerOp")
    product = gsm8k.with_changes(GraphDelta(replaced_nodes=(Node(node.id, node.kind, node.attributes, "Renamed"),)))
    graphs = [gsm8k, product]
    for seed in range(4):
        outcome = apply_random(product, np.random.default_rng(seed))
        graphs += outcome.graphs if outcome else ()
    for graph in graphs:
        serialize_workflow(graph)
        emit(lower_to_ir(graph))
    assert product.prompts is prompts and sum(g.prompts is prompts for g in graphs) > 2
    assert not hasattr(prompts, "__dict__")
    with pytest.raises(AttributeError):
        prompts._lines = {}
    assert dict(prompts.entries) == entries
