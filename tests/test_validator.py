from __future__ import annotations

import hashlib
import random
import re

import numpy as np
import pytest

from flowevo import Edge, Node, PromptTable, WorkflowGraph, validate
from flowevo.diagnostics import RULE_ORDER
from flowevo.registry import NodeTypeSchema, OutputSpec, PortSpec, Registry, default_registry
from flowevo.validator import bind_input_ports, soft_check

from conftest import CORPUS_NAMES, corpus_path, load_corpus_graph, load_workflow_gen, rebuilt, vote_registry


def errors_of(diags):
    return [d for d in diags if d.is_error]


def rules_of(diags):
    return {d.rule for d in diags}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_soft_check_empty(name):
    # the published workflows are valid and produce no findings at all
    assert soft_check(load_corpus_graph(name)) == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_validate_q1(name):
    verdict = validate(corpus_path(name).read_text(encoding="utf-8"))
    assert verdict.q == 1
    assert verdict.diagnostics == ()


def test_minimal_graph_q1():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )
    verdict = validate(graph)
    assert verdict.q == 1 and verdict.diagnostics == ()


def test_w2_after_edge_removal(gsm8k):
    # hand-traced: dropping C->ENSEMBLE leaves C reachable from the entry
    # but with no path onward to the exit
    edges = [e for e in gsm8k.edges if not (e.source == "C" and e.target == "ENSEMBLE")]
    broken = rebuilt(gsm8k, edges=tuple(edges))
    diags = soft_check(broken)
    w2 = [d for d in diags if d.rule == "W2"]
    assert any(d.subject == "C" for d in w2)
    assert [d.message for d in w2 if d.subject == "C"] == ["node cannot reach exit"]


def test_w2_messages():
    # B only feeds the exit, A -> C dead-ends, D has no edge at all
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *(Node(n, "CustomOp", {"role": "x"}) for n in "ABCD"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "A"), Edge("A", "C"), Edge("A", "RETURN"), Edge("B", "RETURN")],
    )
    assert [(d.subject, d.message) for d in soft_check(graph) if d.rule == "W2"] == [
        ("B", "node is unreachable from entry"),
        ("C", "node cannot reach exit"),
        ("D", "node is unreachable from entry and cannot reach exit"),
    ]


def test_w5_on_trimmed_ensemble(gsm8k):
    edges = [
        e
        for e in gsm8k.edges
        if e.target != "ENSEMBLE" or e.source == "P1"
    ]
    broken = rebuilt(gsm8k, edges=tuple(edges))
    diags = soft_check(broken)
    w5 = [d for d in diags if d.rule == "W5"]
    assert len(w5) == 1 and w5[0].subject == "ENSEMBLE"
    assert "1 incoming connection" in w5[0].message


def test_w5_counts_sources_bound_to_the_variadic_port(tmp_path):
    # V has in-degree 2, but its problem edge does not feed the solution port
    registry = vote_registry(tmp_path)
    nodes = [
        Node("PROBLEM", "Interface"),
        Node("A", "CustomOp", {"role": "x"}),
        Node("B", "CustomOp", {"role": "x"}),
        Node("V", "VoteOp"),
        Node("RETURN", "Interface"),
    ]
    edges = [
        Edge("PROBLEM", "A", "input"),
        Edge("PROBLEM", "B", "input"),
        Edge("A", "V", "solution"),
        Edge("PROBLEM", "V", "problem"),
        Edge("V", "RETURN"),
        Edge("B", "RETURN"),
    ]
    prompts = PromptTable({"x": "solve"})
    graph = WorkflowGraph(nodes, edges, prompts=prompts, registry=registry)
    assert [(d.subject, d.message) for d in soft_check(graph) if d.rule == "W5"] == [
        ("V", "VoteOp node has 1 incoming connection; at least 2 required")
    ]
    assert validate(graph).q == 0
    fixed = rebuilt(graph, edges=graph.edges + (Edge("B", "V", "solution"),))
    assert validate(fixed).q == 1


def test_bogus_kind_is_single_w4(corpus_dir):
    text = (corpus_dir / "humaneval_round5.mmd").read_text(encoding="utf-8")
    text = text.replace("class T TestOp", "class T BogusOp")
    verdict = validate(text)
    assert verdict.q == 0
    assert len(verdict.errors) == 1
    assert verdict.errors[0].rule == "W4"
    assert verdict.errors[0].subject == "T"


def test_w4_domain_restriction(gsm8k):
    miscast = rebuilt(gsm8k, domain="code")
    w4 = [d for d in soft_check(miscast) if d.rule == "W4"]
    # all six Programmer nodes are math-only
    assert {d.subject for d in w4} == {"P1", "P2", "P3", "P4", "P5", "P6"}


def test_w4_missing_required_attribute():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp"),  # role missing
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
    )
    w4 = [d for d in soft_check(graph) if d.rule == "W4"]
    assert len(w4) == 1 and "required attribute 'role'" in w4[0].message


def test_w1_missing_interfaces():
    graph = WorkflowGraph([Node("A", "CustomOp", {"role": "x"})], [])
    diags = soft_check(graph)
    w1 = [d for d in diags if d.rule == "W1"]
    assert len(w1) == 2  # entry and exit both missing
    assert all(d.is_error for d in w1)


def test_w1_multiple_entries():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("P2", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("P2", "A"),
            Edge("A", "RETURN"),
        ],
    )
    w1 = [d for d in soft_check(graph) if d.rule == "W1"]
    assert {d.subject for d in w1} == {"PROBLEM", "P2"}


def test_w3_reserved_id_misclassified():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "CustomOp", {"role": "x"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "RETURN")],
    )
    diags = soft_check(graph)
    assert any(d.rule == "W3" and d.subject == "PROBLEM" for d in diags)


def test_w3_non_interface_sink(gsm8k):
    # remove P6 -> RETURN so P6 becomes a sink of kind ProgrammerOp
    edges = [e for e in gsm8k.edges if not (e.source == "P6" and e.target == "RETURN")]
    orphaned = rebuilt(gsm8k, edges=tuple(edges))
    diags = soft_check(orphaned)
    assert any(d.rule == "W3" and d.subject == "P6" for d in diags)


def test_struct_duplicate_edge(gsm8k):
    doubled = rebuilt(gsm8k, edges=gsm8k.edges + (Edge("C", "ENSEMBLE"),))
    diags = soft_check(doubled)
    dup = [d for d in diags if d.rule == "STRUCT" and "duplicate edge" in d.message]
    assert len(dup) == 1 and dup[0].subject == "C->ENSEMBLE"


def test_struct_self_loop():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "A"), Edge("A", "RETURN")],
    )
    diags = soft_check(graph)
    assert any("self-loop" in d.message and d.subject == "A->A" for d in diags)


def test_struct_cycle():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "y"}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("A", "B"),
            Edge("B", "A"),
            Edge("A", "RETURN"),
        ],
    )
    cyc = [d for d in soft_check(graph) if "directed cycle" in d.message]
    assert {d.subject for d in cyc} == {"A", "B"}
    assert all(d.is_error for d in cyc)


def test_struct_missing_required_input():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "y"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "B", "input"), Edge("A", "RETURN"), Edge("B", "RETURN")],
    )
    diags = soft_check(graph)
    assert any(
        d.rule == "STRUCT" and d.subject == "A" and "missing required input" in d.message
        for d in diags
    )


def test_struct_type_mismatch():
    # an entry payload cannot feed an ensemble's solution port
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("E", "ScEnsembleOp"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "E"),
            Edge("PROBLEM", "A", "input"),
            Edge("A", "E"),
            Edge("E", "RETURN"),
        ],
    )
    diags = soft_check(graph)
    assert any(d.rule == "STRUCT" and "type mismatch" in d.message and d.subject == "E" for d in diags)


def test_unresolved_prompt_reference_is_warning(gsm8k):
    nodes = tuple(
        Node(n.id, n.kind, {"role": "never_defined"}, n.display_label) if n.id == "C" else n
        for n in gsm8k.nodes
    )
    tweaked = rebuilt(gsm8k, nodes=nodes)
    verdict = validate(tweaked)
    assert verdict.q == 1  # warnings do not block membership
    assert any("unresolved prompt reference" in d.message for d in verdict.warnings)


def test_unused_prompt_entry_is_warning(gsm8k):
    table = dict(gsm8k.prompts.entries)
    table["never_used"] = "spare text"
    tweaked = rebuilt(gsm8k, prompts=PromptTable(table))
    verdict = validate(tweaked)
    assert verdict.q == 1
    assert any("unused prompt entry" in d.message for d in verdict.warnings)


def test_non_ascii_prompt_value_is_inline_text():
    # only ASCII identifiers name prompt entries; anything else is the prompt itself
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("C", "CustomOp", {"role": "café"}), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "C"), Edge("C", "RETURN")],
    )
    assert validate(graph).q == 1
    assert not any("unresolved" in d.message for d in soft_check(graph))


def test_quoted_attribute_is_not_a_reference(gsm8k):
    # inline analysis strings must not be treated as prompt references
    assert not any("unresolved" in d.message for d in soft_check(gsm8k))


def test_diagnostics_rule_order_and_determinism(gsm8k):
    edges = [e for e in gsm8k.edges if e.source != "C"] + [Edge("C", "C")]
    broken = rebuilt(gsm8k, edges=tuple(edges))
    first = soft_check(broken)
    second = soft_check(broken)
    assert first == second
    order = [RULE_ORDER.index(d.rule) for d in first]
    assert order == sorted(order)


def test_render_line_format(gsm8k):
    edges = tuple(e for e in gsm8k.edges if e.target != "ENSEMBLE" or e.source == "P1")
    diags = soft_check(rebuilt(gsm8k, edges=edges))
    rendered = "\n".join(d.render() for d in diags)
    assert re.search(r"^W5 error ENSEMBLE:- .+at least 2 required$", rendered, re.M)


def test_validate_verdict_json(gsm8k):
    verdict = validate(gsm8k)
    assert '"q": 1' in verdict.to_json()


def test_w5_monotone_under_edge_removal(gsm8k):
    # removing any edge not touching the ensemble never clears an existing W5
    edges = tuple(e for e in gsm8k.edges if e.target != "ENSEMBLE" or e.source == "P1")
    broken = rebuilt(gsm8k, edges=edges)
    assert any(d.rule == "W5" for d in soft_check(broken))
    rng = np.random.default_rng(5)
    removable = [
        i
        for i, e in enumerate(broken.edges)
        if "ENSEMBLE" not in (e.source, e.target)
    ]
    for _ in range(10):
        victim = removable[int(rng.integers(len(removable)))]
        fewer = rebuilt(
            broken,
            edges=tuple(e for i, e in enumerate(broken.edges) if i != victim)
        )
        w5 = [d for d in soft_check(fewer) if d.rule == "W5" and d.subject == "ENSEMBLE"]
        assert w5, "W5 disappeared after removing an unrelated edge"


def test_bind_input_ports_unique_binding_silent(gsm8k):
    # ENSEMBLE -> P6 is unlabeled in the published source; the unique
    # binding onto the problem port must produce no finding
    result = bind_input_ports(gsm8k, "P6")
    assert not result.missing and not result.unexpected and not result.ambiguous
    assert result.bindings[0][1].label == "problem"


def test_bind_input_ports_ambiguous_warning():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "y"}),
            Node("P", "ProgrammerOp", {}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("PROBLEM", "B", "input"),
            Edge("A", "P"),
            Edge("B", "P"),
            Edge("P", "RETURN"),
        ],
    )
    result = bind_input_ports(graph, "P")
    assert result.ambiguous
    verdict = validate(graph)
    assert verdict.q == 1
    assert any("ambiguous port binding" in d.message for d in verdict.warnings)


def test_w_rules_always_carry_subjects(gsm8k):
    # missing interfaces report under the conventional names; every W-rule
    # finding names a subject
    empty = WorkflowGraph([Node("A", "CustomOp", {"role": "x"})], [])
    trimmed = rebuilt(
        gsm8k,
        edges=tuple(e for e in gsm8k.edges if e.target != "ENSEMBLE" or e.source == "P1")
    )
    for graph in (empty, trimmed, rebuilt(gsm8k, domain="code")):
        for diag in soft_check(graph):
            if diag.rule.startswith("W"):
                assert diag.subject is not None


def test_graph_verdict_is_computed_once(gsm8k):
    tweaked = rebuilt(gsm8k, domain="code")
    assert validate(tweaked) is validate(tweaked)
    assert validate(tweaked).q == 0


def _with_unused_prompt_and_duplicate_classdef(text: str) -> str:
    lines = text.splitlines()
    classdef = next(i for i, line in enumerate(lines) if line.lstrip().startswith("classDef "))
    lines.insert(classdef + 1, lines[classdef])
    lines.insert(lines.index("</prompt>"), 'never_used="spare text"')
    return "\n".join(lines) + "\n"


def test_duplicate_classdef_does_not_hide_unused_prompt():
    # both are subject-less warnings: one from lowering, one from the soft check
    text = _with_unused_prompt_and_duplicate_classdef(corpus_path("gsm8k_round16").read_text(encoding="utf-8"))
    verdict = validate(text)
    assert verdict.q == 1
    messages = [d.message for d in verdict.warnings]
    assert any("duplicate classDef" in m for m in messages)
    assert "unused prompt entry 'never_used'" in messages


def _damaged_variants(text: str):
    """The source, then each line deleted, then each line doubled."""
    lines = text.splitlines()
    yield text
    for i in range(len(lines)):
        yield "\n".join(lines[:i] + lines[i + 1 :])
    for i in range(len(lines)):
        yield "\n".join(lines[: i + 1] + lines[i:])
    yield _with_unused_prompt_and_duplicate_classdef(text)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_text_verdict_keeps_every_graph_finding(name):
    # a finding of validate(graph) appears in validate(text), or the lowering
    # already reported that rule for that subject; a passing text verdict
    # carries exactly the graph it lowered to
    from flowevo import lower_to_graph, parse_workflow

    for text in _damaged_variants(corpus_path(name).read_text(encoding="utf-8")):
        verdict = validate(text)
        doc = parse_workflow(text)
        if not doc.ok:
            assert verdict.q == 0 and verdict.graph is None
            continue
        graph, _ = lower_to_graph(doc)
        if verdict.q == 1:
            assert verdict.graph == graph
        else:
            assert verdict.graph is None
        found = {(d.rule, d.severity, d.subject, d.message) for d in verdict.diagnostics}
        subjects = {(d.rule, d.subject) for d in verdict.diagnostics if d.subject is not None}
        for d in validate(graph).diagnostics:
            assert (d.rule, d.severity, d.subject, d.message) in found or (d.rule, d.subject) in subjects


def test_two_fillable_ports_that_share_a_label_are_both_overfed():
    # a registry may list two ports under one label; filling both counts the
    # label twice, so each of them is bound more than once
    twin = NodeTypeSchema("TwinOp", (PortSpec("x"), PortSpec("x", required=False)), OutputSpec("solution"))
    registry = Registry([NodeTypeSchema("Interface", interface_role="auto"), twin])
    nodes = [Node("A", "Interface"), Node("B", "Interface"), Node("T", "TwinOp")]
    graph = WorkflowGraph(nodes, [Edge("A", "T"), Edge("B", "T")], registry=registry)
    result = bind_input_ports(graph, "T")
    assert [port for _, port in result.bindings] == list(twin.input_ports)
    assert result.overfed == twin.input_ports and result.ambiguous and not result.missing


def test_bind_input_ports_lists_bindings_in_predecessor_order(corpus_graphs):
    # A fills the open problem port; B binds to analysis by its label
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "y"}),
            Node("P", "ProgrammerOp", {}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("PROBLEM", "B", "input"),
            Edge("A", "P"),
            Edge("B", "P", "analysis"),
            Edge("P", "RETURN"),
        ],
    )
    result = bind_input_ports(graph, "P")
    assert [(pair, port.label) for pair, port in result.bindings] == [
        (("A", None), "problem"),
        (("B", "analysis"), "analysis"),
    ]
    for g in [graph, *corpus_graphs.values()]:
        for nid in g.node_ids():
            bound = [pair for pair, _ in bind_input_ports(g, nid).bindings]
            assert bound == [pair for pair in g.predecessors(nid) if pair in bound]


# the verdicts of the benchmark's check_stream windows at seed 1, digested as
# bench/workloads.py digests them (window 0 is its window0_digest)
CHECK_STREAM_DIGESTS = {
    0: "4c38d33dd70c71bbc5c2c5789af146be518ec3094b0ae6a56eeb5965b62082ec",
    1: "fc28876781d92baa7488c893f0129dbcd62d0e3294a3243850af706785eec18e",
    2: "3a1af3f8690e3a2c7c78e926ce0f6b7a2f133b29b5fe897e9a8bc4a37bcb4dd4",
}


@pytest.mark.parametrize("window", sorted(CHECK_STREAM_DIGESTS))
def test_check_stream_verdicts_golden(window):
    workflow_gen = load_workflow_gen()
    digest = hashlib.sha256()
    for source in workflow_gen.check_stream_batch(random.Random(f"1/{window}"), window, 60):
        digest.update(validate(source.text, registry=default_registry()).render().encode("utf-8"))
        digest.update(b"\0")
    assert digest.hexdigest() == CHECK_STREAM_DIGESTS[window]
