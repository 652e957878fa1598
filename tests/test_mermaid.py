from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import (
    Edge,
    GraphConstructionError,
    LoweringError,
    MermaidDocument,
    Node,
    PromptTable,
    WorkflowGraph,
    hard_check,
    infer_domain,
    lower_to_graph,
    parse_workflow,
    serialize_workflow,
    validate,
)
from flowevo.diagnostics import SourceSpan
from flowevo.mermaid import EdgeStmt, NodeDecl, _prompt_line, _unescape_prompt, split_label
from flowevo.registry import default_registry

from conftest import CORPUS_NAMES, assert_memos_exact, corpus_path, load_corpus_graph, load_workflow_gen
from label_scan_reference import reference_split_label


HEADER = "flowchart TD\n"


def test_parse_node_decl_with_attribute():
    doc = parse_workflow(HEADER + 'K["Custom<br/>(role: validate_1)"]\n')
    decls = doc.decls
    assert len(decls) == 1
    assert decls[0].id == "K"
    assert decls[0].display == "Custom"
    assert decls[0].attributes == {"role": "validate_1"}


def test_node_decl_attributes_are_read_only():
    decl = parse_workflow(HEADER + 'K["Custom<br/>(role: validate_1)"]\n').decls[0]
    with pytest.raises(TypeError):
        decl.attributes["role"] = "other"
    attrs = {"role": "r"}
    built = NodeDecl(decl.span, "K", "rect", "Custom", attrs)
    attrs["role"] = "changed"
    assert built.attributes == {"role": "r"}


def test_source_span_checks_its_bounds():
    with pytest.raises(ValueError):
        SourceSpan(0, 1)
    with pytest.raises(ValueError):
        SourceSpan(1, 0)
    assert repr(SourceSpan(2, 3, 4)) == "SourceSpan(line=2, column=3, length=4)"
    assert str(SourceSpan(2, 3, 4)) == "2:3"


def test_statement_records_are_immutable():
    text = HEADER + 'K["Custom<br/>(role: r)"]\nclass K CustomOp\nK --> K\n<prompt>\nr="x"\n</prompt>\n'
    doc = parse_workflow(text)
    decl = doc.decls[0]
    fields = [
        (decl.span, "line"),
        (decl, "id"),
        (doc.class_assigns[0], "name"),
        (doc.edges[0], "label"),
        (doc.prompts[0], "text"),
    ]
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_parse_quoted_attribute_value():
    doc = parse_workflow(HEADER + "P[\"Programmer<br/>(analysis: 'Calculate step by step')\"]\n")
    assert doc.decls[0].attributes == {"analysis": "Calculate step by step"}


def test_parse_labeled_edge():
    doc = parse_workflow(HEADER + "PROBLEM --> |problem| P\n")
    edges = doc.edges
    assert edges[0].source == "PROBLEM"
    assert edges[0].target == "P"
    assert edges[0].label == "problem"


def test_parse_text_arrow_edge():
    doc = parse_workflow(HEADER + "CHECK -- Failed --> IMPROVE\n")
    assert doc.edges[0].label == "Failed"


def test_parse_unlabeled_edge():
    assert parse_workflow(HEADER + "A --> B\n").edges[0].label is None


def test_conflicting_class_assignment():
    doc = parse_workflow(HEADER + 'R1["Custom<br/>(role: a)"]\nclass R1 CustomOp\nclass R1 TestOp\n')
    messages = [d.message for d in doc.diagnostics]
    assert any("conflicting class assignment for R1" in m for m in messages)


def test_duplicate_node_declaration():
    doc = parse_workflow(HEADER + 'A["Custom<br/>(role: a)"]\nA["Custom<br/>(role: b)"]\n')
    assert any("duplicate node declaration" in d.message for d in doc.diagnostics)


def test_unterminated_string():
    doc = parse_workflow(HEADER + 'A["Custom\n')
    assert any("unterminated string" in d.message for d in doc.diagnostics)
    # one finding per bad line: it is not also an unrecognized statement
    assert not any("unrecognized statement" in d.message for d in doc.diagnostics)


def test_stray_token_has_line_number():
    doc = parse_workflow(HEADER + "A --> B\nfoo bar baz\n")
    bad = [d for d in doc.diagnostics if "unrecognized statement" in d.message]
    assert bad and bad[0].span.line == 3


def test_missing_edge_target_fails_hard_check():
    ok, diags = hard_check(HEADER + "A --> \n")
    assert not ok
    assert any(d.is_error for d in diags)


def test_comment_styles_accepted():
    ok, _ = hard_check(HEADER + "%% a comment\n# another comment\nA --> B\n")
    assert ok


def test_lenient_unbalanced_attribute_recovery():
    # the published MATH source carries "(role: comprehensive_solution]"
    display, attrs = split_label("Custom<br/>(role: comprehensive_solution]")
    assert display == "Custom"
    assert attrs == {"role": "comprehensive_solution"}


def test_math_corpus_keeps_typo_but_lowers_cleanly(math_graph):
    assert math_graph.node("C5").attributes == {"role": "comprehensive_solution"}


def test_prompt_block_escapes():
    text = HEADER + 'A --> B\n\n<prompt>\np1="line one\\nline \\"two\\""\n</prompt>\n'
    doc = parse_workflow(text)
    assert doc.prompts[0].name == "p1"
    assert doc.prompts[0].text == 'line one\nline "two"'


@pytest.mark.parametrize(
    ("escaped", "text"),
    [
        ("a\\xb", "a\\xb"),  # unknown escape: the backslash stays
        ("tail\\", "tail\\"),  # a trailing backslash stays
        ("\\\\n", "\\n"),  # escaped backslash, then a plain n
    ],
)
def test_prompt_unescape_edge_cases(escaped, text):
    assert _unescape_prompt(escaped) == text


@given(st.text())
@settings(max_examples=300)
def test_prompt_escape_round_trip(text):
    line = _prompt_line("p", text)
    assert line.startswith('p="') and line.endswith('"')
    assert _unescape_prompt(line[3:-1]) == text


_LABEL_TAIL = st.text(alphabet="ab :,()'\\]\n", max_size=40)


@st.composite
def _one_pair_label(draw) -> str:
    """The one-pair shape ``Display<br/>(key: value)`` and its near misses.

    Near misses: an entity in the display or the value, ``\\'`` in a quoted
    value, spaces around the separator, the key or the value, an empty
    value, two separators, a trailing ``]`` and a second pair.
    """
    display = draw(st.sampled_from(["Custom", "", " Custom ", "A &amp; B", "a<b", "x(y)'"]))
    separator = draw(st.sampled_from(["<br/>", " <br/>", "<br/> ", "<br/><br/>"]))
    key = draw(st.sampled_from(["role", "k_1", " role", "role ", "'role'", "é"]))
    colon = draw(st.sampled_from([": ", ":", " : ", ":  "]))
    value = draw(
        st.sampled_from(
            ["r", "", " ", " r ", "a b", "a:b", "a\\b", "&lt;x&gt;", "x]", "'a b'", "''", "'it\\'s'",
             "'&amp;'", "'a, (b)'", "'x' y"]
        )
    )
    second = draw(st.sampled_from(["", "", ", k2: v", ", 'k2': 'v'"]))
    end = draw(st.sampled_from([")", ")", "", "]", ")]", "])", ") ", ")<br/>(k3: w)"]))
    return f"{display}{separator}({key}{colon}{value}{second}{end}"


@given(st.text(alphabet="ab<>/(", max_size=6), _LABEL_TAIL, _one_pair_label())
@settings(max_examples=500, deadline=None)
def test_split_label_matches_reference(display, tail, one_pair):
    # quotes, escapes, nesting, stray brackets and unclosed groups, scanned
    # the way the two character loops before the token walk did
    for label in (f"{display}<br/>({tail}", f"{display}<br/>{tail}", tail, one_pair):
        assert split_label(label) == reference_split_label(label)


@pytest.mark.parametrize(
    ("label", "one_pair"),
    [
        ("Custom<br/>(role: role_0_0)", True),
        ("Programmer<br/>(analysis: 'Verify intermediate results')", True),
        (" Custom <br/>(role:  r )", True),
        ("X<br/>(k: )", True),
        ("X<br/>(k: '')", True),
        ("X<br/>(k: a: b<br/>c])", True),
        ("X<br/>(k: 'a, (b)')", True),
        ("A &amp; B<br/>(k: v)", False),
        ("X<br/>(k: &lt;v&gt;)", False),
        ("X<br/>(k: 'it\\'s')", False),
        ("X <br/> (k: v)", False),
        ("X<br/>( k: v)", False),
        ("X<br/>(k : v)", False),
        ("X<br/>(k:v)", False),
        ("X<br/><br/>(k: v)", False),
        ("X<br/>(k: v)<br/>(k2: w)", False),
        ("X<br/>(k: v]", False),
        ("X<br/>(k: v)]", False),
        ("X<br/>(k: v, k2: w)", False),
        ("X<br/>('k': v)", False),
        ("X<br/>(k: 'v' w)", False),
    ],
)
def test_one_pair_fast_path_decodes_as_the_token_walk(label, one_pair):
    # labels of the common ``Display<br/>(key: value)`` shape (``one_pair``: a word key, no
    # entity, a value without escapes) and near misses of it decode as the reference does
    display, attrs = split_label(label)
    assert (display, attrs) == reference_split_label(label)
    if one_pair:
        assert len(attrs) == 1


@pytest.mark.parametrize("name", ["1x", "é", "Ωmega"])
def test_bad_prompt_name_is_a_syntax_finding(name):
    # the dialect reads \w+ names, but a prompt table holds only identifiers
    text = HEADER + f'PROBLEM([Problem])\n<prompt>\n{name}="a"\nok="b"\n</prompt>\n'
    doc = parse_workflow(text)
    assert [(d.rule, d.severity, d.message, d.span) for d in doc.diagnostics] == [
        ("SYNTAX", "error", f"bad prompt name {name!r}", SourceSpan(4, 1, len(name) + 4))
    ]
    assert [p.name for p in doc.prompts] == ["ok"]
    verdict = validate(text)
    assert verdict.q == 0 and verdict.graph is None
    assert f"SYNTAX error -:4:1 bad prompt name {name!r}" in verdict.render()


def test_duplicate_prompt_name():
    text = HEADER + '<prompt>\np1="a"\np1="b"\n</prompt>\n'
    doc = parse_workflow(text)
    assert any("duplicate prompt name" in d.message for d in doc.diagnostics)


def test_unterminated_prompt_block():
    doc = parse_workflow(HEADER + '<prompt>\np1="a"\n')
    assert any("unterminated <prompt>" in d.message for d in doc.diagnostics)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_hard_check(name):
    ok, diags = hard_check(corpus_path(name).read_text(encoding="utf-8"))
    assert ok, [d.render() for d in diags]


def test_lower_humaneval_kind_census(humaneval):
    kinds = {}
    for node in humaneval.nodes:
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds == {
        "Interface": 3,
        "CustomCodeGenerateOp": 4,
        "ScEnsembleOp": 1,
        "TestOp": 1,
    }


def test_lower_math_counts_and_prompts(math_graph):
    assert len(math_graph.nodes) == 10
    assert len(math_graph.edges) == 14
    for role in (
        "simple_solver_1",
        "simple_solver_2",
        "alternative_solver",
        "detailed_solution_outline",
        "comprehensive_solution",
        "refine_solution",
    ):
        assert role in math_graph.prompts


def test_unclassified_node_diagnostic():
    doc = parse_workflow(HEADER + 'A["Custom<br/>(role: a)"]\n')
    graph, diagnostics = lower_to_graph(doc)
    assert any("unclassified node" in d.message for d in diagnostics)
    assert graph.node("A").kind == "Unclassified"


def test_interface_shape_heuristic():
    doc = parse_workflow(HEADER + "PROBLEM([Problem])\n")
    graph, diagnostics = lower_to_graph(doc)
    assert graph.node("PROBLEM").kind == "Interface"
    assert not diagnostics


def test_class_assign_to_undeclared_node():
    doc = parse_workflow(HEADER + "class GHOST CustomOp\n")
    _, diagnostics = lower_to_graph(doc)
    assert any("undeclared node" in d.message for d in diagnostics)


def test_implicit_edge_endpoint_flagged():
    doc = parse_workflow(HEADER + "PROBLEM([Problem])\nPROBLEM --> X\n")
    graph, diagnostics = lower_to_graph(doc)
    assert "X" in graph.node_ids()
    assert any("never declared" in d.message for d in diagnostics)


def _built_publicly(doc, registry):
    """The graph ``doc`` lowers to, built through the public Node, Edge and WorkflowGraph constructors."""
    assigned = {}
    for assign in doc.class_assigns:
        for node_id in assign.ids:
            assigned.setdefault(node_id, assign.name)

    def kind(decl):
        name = assigned.get(decl.id)
        if name is not None:
            return registry.resolve_kind(name) or name
        return "Interface" if decl.shape == "stadium" else "Unclassified"

    declared = {decl.id for decl in doc.decls}
    ends = dict.fromkeys(node_id for e in doc.edges for node_id in (e.source, e.target) if node_id not in declared)
    nodes = [Node(d.id, kind(d), dict(d.attributes), d.display) for d in doc.decls]
    nodes += [Node(node_id, "Unclassified", {}, node_id) for node_id in ends]
    edges = [Edge(e.source, e.target, e.label) for e in doc.edges]
    prompts = PromptTable({p.name: p.text for p in doc.prompts})
    return WorkflowGraph(nodes, edges, prompts, infer_domain(doc, registry), registry)


def assert_lowers_as_built_publicly(text):
    doc = parse_workflow(text)
    registry = default_registry()
    lowered, _ = lower_to_graph(doc, registry=registry)
    built = _built_publicly(doc, registry)
    assert lowered == built
    assert lowered.nodes == built.nodes and lowered.edges == built.edges
    for mine, theirs in zip(lowered.nodes, built.nodes):
        assert list(mine.attributes.items()) == list(theirs.attributes.items()), mine.id
        assert type(mine.attributes) is type(theirs.attributes)
    assert_memos_exact(lowered)


_LOWERING_CORNERS = HEADER + (
    'PROBLEM([Problem])\nA["Custom<br/>(role: r, b: 2, a: 1)"]\nB["x<br/>(\'z\': 1, y: 2)"]\n'
    "class A CustomOp\nclass B customop\nclass C NoSuchOp\nC{c}\n"
    "PROBLEM -->|&#10;input| A\nA -->|&#10;| B\nA -- &#10;x&#10; --> B\nA -->|w| B\nB --> C\nC --> GHOST\n"
    '<prompt>\nr="text"\n</prompt>\n'
)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lowering_matches_the_public_constructors_on_the_corpus(name):
    assert_lowers_as_built_publicly(corpus_path(name).read_text(encoding="utf-8"))


def test_lowering_matches_the_public_constructors_on_corner_cases():
    # attributes out of key order, a quoted key, a folded kind spelling, an
    # unknown class, an implicit node, and edge labels that unescape to
    # blank or padded text, which sort by their stripped form
    assert_lowers_as_built_publicly(_LOWERING_CORNERS)
    graph, _ = lower_to_graph(parse_workflow(_LOWERING_CORNERS))
    assert list(graph.node("A").attributes) == ["a", "b", "role"]
    assert [e.label for e in graph.edges] == [None, "w", "x", None, None, "input"]


@given(st.integers(0, 2**32), st.integers(0, 99))
@settings(max_examples=15, deadline=None)
def test_lowering_matches_the_public_constructors_on_check_stream_batches(seed, index):
    workflow_gen = load_workflow_gen()
    for source in workflow_gen.check_stream_batch(random.Random(f"{seed}/{index}"), index, 4, high=60):
        if parse_workflow(source.text).ok:
            assert_lowers_as_built_publicly(source.text)


def test_lower_refuses_syntax_errors():
    doc = parse_workflow(HEADER + "??\n")
    with pytest.raises(LoweringError):
        lower_to_graph(doc)


@pytest.mark.parametrize("where", ["declaration", "edge"])
def test_lowering_a_hand_built_document_checks_node_ids(where):
    # a document need not come from the parser, so lowering tests every id
    # it turns into a node, declared or met only as an edge endpoint
    span = SourceSpan(1, 1)
    decls = (NodeDecl(span, "1A", "rect", "x"),) if where == "declaration" else ()
    edges = (EdgeStmt(span, "A", "1A", None),) if where == "edge" else ()
    doc = MermaidDocument("TD", decls, (), (), edges, (), ())
    with pytest.raises(GraphConstructionError, match="bad node id '1A'"):
        lower_to_graph(doc)


def test_lowering_error_names_syntax_errors():
    doc = parse_workflow(HEADER + "??\n!!\n")
    errors = [d.render() for d in doc.diagnostics if d.is_error]
    assert len(errors) == 2
    with pytest.raises(LoweringError) as info:
        lower_to_graph(doc)
    assert str(info.value) == "syntax errors: " + "; ".join(errors)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_round_trip(name):
    graph = load_corpus_graph(name)
    text = serialize_workflow(graph)
    relowered, diagnostics = lower_to_graph(parse_workflow(text), domain=graph.domain)
    assert not diagnostics
    assert relowered == graph


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_canonical_fixed_point(name):
    graph = load_corpus_graph(name)
    once = serialize_workflow(graph)
    relowered, _ = lower_to_graph(parse_workflow(once), domain=graph.domain)
    twice = serialize_workflow(relowered)
    assert once == twice


def test_minimal_serialization_shape():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )
    text = serialize_workflow(graph)
    lines = [line for line in text.splitlines() if line.strip()]
    classdefs = [line for line in lines if line.lstrip().startswith("classDef")]
    assert len(classdefs) == 6  # the standard block is always emitted in full
    assert len(lines) - len(classdefs) == 6  # header, 2 decls, 2 assigns, 1 edge


def test_display_label_escaping_round_trip():
    node = Node("A", "CustomOp", {"role": 'say "hi" & more'}, 'Custom "quoted"')
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), node, Node("RETURN", "Interface")],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain=graph.domain)
    assert relowered == graph


def test_infer_domain(corpus_dir):
    math_doc = parse_workflow((corpus_dir / "gsm8k_round16.mmd").read_text(encoding="utf-8"))
    code_doc = parse_workflow((corpus_dir / "humaneval_round5.mmd").read_text(encoding="utf-8"))
    assert infer_domain(math_doc) == "math"
    assert infer_domain(code_doc) == "code"


@settings(max_examples=60, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1,
        max_size=120,
    )
)
def test_prompt_text_round_trip(text):
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "p1"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
        prompts=PromptTable({"p1": text}),
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain="math")
    assert relowered.prompts.get("p1") == text


@settings(max_examples=80, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1,
        max_size=40,
    )
)
def test_attribute_value_round_trip(value):
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": value}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain="math")
    assert relowered.node("A").attributes == {"role": value}


@settings(max_examples=120, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=20,
    )
)
def test_attribute_key_round_trip(key):
    # a key that is not an identifier is written quoted, so commas, brackets,
    # colons, quotes, surrounding blanks and the empty key all come back
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {key: "v"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain="math")
    assert relowered.node("A").attributes == {key: "v"}


def test_interface_attributes_round_trip():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface", {"note": "x", "a b": "c, d"}),
            Node("A", "CustomOp", {"role": "r"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", "input"), Edge("A", "RETURN")],
    )
    assert validate(graph).q == 1
    text = serialize_workflow(graph)
    assert "PROBLEM([Problem<br/>('a b': 'c, d', note: x)])" in text
    relowered, diagnostics = lower_to_graph(parse_workflow(text), domain=graph.domain)
    assert not diagnostics
    assert relowered == graph


def test_parse_is_pure():
    text = corpus_path("gsm8k_round16").read_text(encoding="utf-8")
    assert parse_workflow(text) == parse_workflow(text)


def test_diagnostic_spans_inside_input():
    text = HEADER + "A --> B\n???\nC -->\n"
    doc = parse_workflow(text)
    line_count = text.count("\n") + 1
    assert doc.diagnostics
    for diag in doc.diagnostics:
        assert diag.span is not None
        assert 1 <= diag.span.line <= line_count


def test_multi_id_class_assignment():
    doc = parse_workflow(
        HEADER
        + 'R1["Custom<br/>(role: a)"]\nR2["Custom<br/>(role: b)"]\nclass R1,R2 CustomOp\n'
    )
    assert doc.ok
    graph, _ = lower_to_graph(doc)
    assert graph.node("R1").kind == "CustomOp"
    assert graph.node("R2").kind == "CustomOp"


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_parser_total_on_arbitrary_text(text):
    # parsing and the hard check are total: findings are data, not raises
    doc = parse_workflow(text)
    ok, diags = hard_check(text)
    assert isinstance(ok, bool)
    for diag in list(doc.diagnostics) + list(diags):
        assert diag.span is None or diag.span.line >= 1


def test_invalid_graph_serialization_round_trip():
    # serialization is total: even cyclic, interface-free graphs round-trip
    graph = WorkflowGraph(
        [Node("A", "CustomOp", {"role": "x"}), Node("B", "CustomOp", {"role": "y"})],
        [Edge("A", "B"), Edge("B", "A"), Edge("A", "A")],
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain="math")
    assert relowered == graph


@pytest.mark.parametrize(
    "display,role,edge_label",
    [
        ("A<br/>B", "x", "input"),                 # separator text inside a display
        ("plain", "has <br/> inside", None),        # separator text inside a value
        ("q&quot;q", "a&amp;b", "l|r"),             # entity text and pipes survive
        ("", "x:y, (z)", "a&b"),                    # colons, commas, parens in values
        ("  padded  ", "'quoted'", None),           # whitespace and quote wrapping
    ],
)
def test_hostile_label_round_trip(display, role, edge_label):
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": role}, display),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "A", edge_label), Edge("A", "RETURN")],
    )
    relowered, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)), domain="math")
    assert relowered == graph


def test_blank_edge_label_normalized_to_none():
    assert Edge("A", "B", "").label is None
    assert Edge("A", "B", "  ").label is None
    assert Edge("A", "B", " pass ").label == "pass"


def test_round_trip_over_operator_generated_fixtures(gsm8k, mbpp):
    # diverse shapes straight from the rewrite engine must all round-trip
    import numpy as np

    from flowevo.operators import apply_random

    for seed_graph, domain in ((gsm8k, "math"), (mbpp, "code")):
        rng = np.random.default_rng(31)
        current, partner = seed_graph, seed_graph
        for _ in range(40):
            outcome = apply_random((current, partner), rng)
            if outcome is None:
                continue
            partner, current = current, outcome.graphs[0]
            relowered, _ = lower_to_graph(
                parse_workflow(serialize_workflow(current)), domain=domain
            )
            assert relowered == current


# -- front-end digest -----------------------------------------------------------

PARSER_MESSAGES = (
    "malformed prompt entry",
    "duplicate prompt name",
    "multiple <prompt> blocks",
    "duplicate flowchart header",
    "bad node id in class assignment",
    "conflicting class assignment",
    "duplicate node declaration",
    "unterminated string in node declaration",
    "unrecognized statement",
    "unterminated <prompt> block",
    "missing 'flowchart <direction>' header",
)
LOWERING_MESSAGES = (
    "class assignment references undeclared node",
    "duplicate classDef",
    "class assignment uses unknown class",
    "(no class assignment)",
    "used in an edge but never declared",
)

_FRONT_END_EXTRAS = (
    HEADER + '<prompt>\na="x"\n</prompt>\n<prompt>\nb="y"\n</prompt>\n',
    HEADER + '<prompt>\na="x"\n',
    HEADER + 'A["Custom<br/>(role: a)"]\nclass A,1b CustomOp\n',
    HEADER + 'A["Custom<br/>(role: a)"]\nclass A CustomOp\nclass A TestOp\n',
    HEADER + 'A["Custom<br/>(role: a)"]\nclass A BogusOp\n',
)


def _front_end_sources() -> list[str]:
    """The corpus and seeded generated sources, each with line-level damage."""
    workflow_gen = load_workflow_gen()
    rng = random.Random(8)
    bases = [corpus_path(name).read_text(encoding="utf-8") for name in CORPUS_NAMES]
    for i, defect in enumerate((None,) + workflow_gen.DEFECTS):
        bases.append(workflow_gen.generate(6 + 3 * i, rng, f"fe{i}", defect).text)
    sources = list(bases) + list(_FRONT_END_EXTRAS)
    for text in bases:
        lines = text.split("\n")
        for index in sorted(rng.sample(range(len(lines)), 7)):
            line = lines[index]
            for edited in ([], [line, line], [line[:-1]]):
                sources.append("\n".join(lines[:index] + edited + lines[index + 1 :]))
    return sources


def _front_end_record(text: str) -> tuple[list, list]:
    """Every fact the front end derives from ``text``, and its findings."""
    doc = parse_workflow(text)
    record = [
        doc.direction,
        list(doc.diagnostics),
        [(d.span, d.id, d.shape, d.display, tuple(d.attributes.items())) for d in doc.decls],
        [(a.span, a.ids, a.name) for a in doc.class_assigns],
        list(doc.class_defs),
        [(e.span, e.source, e.target, e.label) for e in doc.edges],
        [(p.span, p.name, p.text) for p in doc.prompts],
        infer_domain(doc),
    ]
    findings = []
    try:
        graph, findings = lower_to_graph(doc)
    except LoweringError as exc:
        record.append(str(exc))
    else:
        record += [findings, graph.structural_signature(), [n.display_label for n in graph.nodes]]
    verdict = validate(text)
    record += [verdict, verdict.graph is not None]
    return record, list(doc.diagnostics) + findings


def test_front_end_digest_golden():
    # pins parse diagnostics, the document tables, the inferred domain,
    # lowering findings, lowered graphs and text verdicts
    import hashlib

    sources = _front_end_sources()
    digest = hashlib.sha256()
    messages = []
    for text in sources:
        record, findings = _front_end_record(text)
        digest.update(repr(record).encode() + b"\n")
        messages += [d.message for d in findings]
    assert len(sources) > 200
    for expected in PARSER_MESSAGES + LOWERING_MESSAGES:
        assert any(expected in m for m in messages), expected
    assert digest.hexdigest() == "792508a9deb743ca5bb66d21d020b7e43fbcec043c2cfc60928b81e083aad690"
