from __future__ import annotations

import pytest

from flowevo import Edge, Node, WorkflowGraph, validate
from flowevo.codegen import (
    BranchStep,
    CallStep,
    EmissionError,
    InvalidGraphError,
    default_templates,
    emit,
    fill,
    load_templates,
    lower_to_ir,
    structural_diff,
)
from flowevo.graph import GraphDelta

from conftest import CORPUS_NAMES, assert_memos_exact, load_corpus_graph, lowering, rebuilt


def test_gsm8k_ir_shape(gsm8k):
    ir = lower_to_ir(gsm8k)
    kinds = [s.kind for s in ir.steps]
    assert kinds == [
        "CustomOp",
        "ProgrammerOp",
        "ProgrammerOp",
        "ProgrammerOp",
        "ProgrammerOp",
        "ProgrammerOp",
        "ScEnsembleOp",
        "ProgrammerOp",
    ]
    assert len(ir.steps) == 8
    ensemble = next(s for s in ir.steps if s.kind == "ScEnsembleOp")
    assert len(ensemble.args["solutions"]) == 6
    assert ir.terminal == "p6_result['output']"
    assert ir.entry_args == ("problem",)


def test_math_ir_matches_published_listing(math_graph):
    ir = lower_to_ir(math_graph)
    kinds = [s.kind for s in ir.steps]
    # the published listing: five customs, one programmer, a six-input
    # ensemble, then the refine custom
    assert kinds == ["CustomOp"] * 5 + ["ProgrammerOp", "ScEnsembleOp", "CustomOp"]
    ensemble = ir.steps[6]
    assert len(ensemble.args["solutions"]) == 6
    assert ir.terminal == "refine_result['response']"


def test_minimal_graph_nothing_to_emit():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )
    with pytest.raises(EmissionError, match="nothing to emit"):
        lower_to_ir(graph)


def test_invalid_graph_refused(gsm8k):
    broken = rebuilt(gsm8k, edges=tuple(e for e in gsm8k.edges if e.source != "P6"))
    with pytest.raises(InvalidGraphError) as exc_info:
        lower_to_ir(broken)
    assert exc_info.value.verdict.q == 0


def test_invalid_graph_refused_on_every_call(gsm8k):
    broken = rebuilt(gsm8k, edges=tuple(e for e in gsm8k.edges if e.source != "P6"))
    for _ in range(2):
        with pytest.raises(InvalidGraphError):
            lower_to_ir(broken)


def test_lowering_is_memoized_on_the_graph(gsm8k):
    ir = lower_to_ir(gsm8k)
    assert lower_to_ir(gsm8k) is ir
    program, _ = emit(ir)
    assert structural_diff(program, gsm8k).is_empty()
    assert lower_to_ir(gsm8k) is ir
    # an equal graph value built anew lowers to an equal IR
    assert lower_to_ir(gsm8k.with_changes(GraphDelta())) == ir


def test_memoized_ir_is_read_only():
    ir = lower_to_ir(load_corpus_graph("humaneval_round5"))
    assert ir.prompts
    with pytest.raises(TypeError):
        ir.prompts["EXTRA"] = "text"
    steps = ir.call_steps()
    assert any(isinstance(s, BranchStep) for s in ir.steps)
    for step in steps:
        with pytest.raises(TypeError):
            step.args["input"] = None
    # the step's args are a copy, not the caller's dict
    args = {"input": None}
    step = CallStep("X", "CustomOp", "x_result", args)
    args["other"] = None
    assert "other" not in step.args


def test_unlowered_kind_named():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("D", "DecisionOp"),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "D"), Edge("D", "RETURN")],
        domain="code",
    )
    with pytest.raises(EmissionError, match="DecisionOp"):
        lower_to_ir(graph)


def test_humaneval_branch_lowering(humaneval):
    ir = lower_to_ir(humaneval)
    branches = [s for s in ir.steps if isinstance(s, BranchStep)]
    assert len(branches) == 1
    branch = branches[0]
    assert branch.test.kind == "TestOp"
    assert branch.repair.kind == "CustomCodeGenerateOp"
    assert branch.repair.node_id == "C4"
    assert ir.terminal == branch.result_binding
    assert ir.entry_args == ("problem", "entry_point")


def _edit_humaneval(humaneval, drop=(), add=(), nodes=(), drop_nodes=()):
    """humaneval_round5 with nodes and (source, target, label) edges dropped and added; it must validate."""
    edges = [
        e
        for e in humaneval.edges
        if (e.source, e.target, e.label) not in drop and not {e.source, e.target} & set(drop_nodes)
    ]
    graph = rebuilt(
        humaneval,
        nodes=tuple(n for n in humaneval.nodes if n.id not in drop_nodes) + tuple(nodes),
        edges=tuple(edges) + tuple(Edge(*edge) for edge in add),
    )
    assert validate(graph).q == 1
    return graph


_REPAIR = Node("C5", "CustomCodeGenerateOp", {"instruction": "improved_solution_1"})
_GENERATOR = Node("Z1", "CustomCodeGenerateOp", {"instruction": "simple_solver_1"})


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"add": [("T", "RETURN", "fail")]}, "test node T has multiple fail arms"),
        (
            {"drop_nodes": ["C4"], "add": [("T", "RETURN", "fail")]},
            "test node T fails directly into an interface node",
        ),
        (
            {"drop_nodes": ["C4"], "nodes": [Node("T2", "TestOp")], "add": [("T", "T2", "fail"), ("T2", "RETURN", None)]},
            "repair chains deeper than one level are not lowerable",
        ),
        (
            {"drop": [("C4", "RETURN", None)], "nodes": [_REPAIR], "add": [("C4", "C5", None), ("C5", "RETURN", None)]},
            "repair node C4 must rejoin the pass arm or the exit",
        ),
        (
            # Z1 comes after T, yet E2 would run inside T's branch
            {
                "drop_nodes": ["C4"],
                "nodes": [Node("E2", "ScEnsembleOp"), _GENERATOR],
                "add": [
                    ("PROBLEM", "Z1", "input"), ("ENTRY_POINT", "Z1", "entry_point"),
                    ("T", "E2", "fail"), ("Z1", "E2", None), ("E2", "RETURN", None),
                ],
            },
            "repair node E2 reads Z1, which is emitted after its test T",
        ),
        (
            # U is a branched test after T: inside T's branch U's result does not exist yet
            {
                "drop_nodes": ["C4"],
                "nodes": [Node("U", "TestOp"), Node("E2", "ScEnsembleOp"), _REPAIR],
                "add": [
                    ("C1", "U", None), ("T", "E2", "fail"), ("U", "E2", None), ("E2", "RETURN", None),
                    ("U", "C5", "fail"), ("U", "RETURN", "pass"), ("C5", "RETURN", None),
                ],
            },
            "repair node E2 reads U, which is emitted after its test T",
        ),
    ],
    ids=[
        "two-fail-arms",
        "fail-into-interface",
        "repair-is-a-test",
        "repair-leaves-the-branch",
        "repair-reads-a-later-node",
        "repair-reads-a-later-test",
    ],
)
def test_lowering_refusals(humaneval, edit, message):
    with pytest.raises(EmissionError, match=f"^{message}$"):
        lower_to_ir(_edit_humaneval(humaneval, **edit))


def test_exit_fed_only_by_a_repair_returns_the_branch_result(humaneval):
    # T --fail--> C4 --> RETURN with no pass arm: the exit reads T's branch result
    graph = _edit_humaneval(humaneval, drop=[("T", "RETURN", "pass")])
    ir = lower_to_ir(graph)
    branch = next(s for s in ir.steps if isinstance(s, BranchStep))
    assert ir.terminal == branch.result_binding == "t_result_solution"
    program, _ = emit(ir)
    compile(program, "<emitted>", "exec")
    assert structural_diff(program, graph).is_empty()


def test_a_plain_exit_feeder_wins_over_a_repair(humaneval):
    graph = _edit_humaneval(humaneval, drop=[("T", "RETURN", "pass")], add=[("ENSEMBLE", "RETURN", None)])
    assert lower_to_ir(graph).terminal == "ensemble_result['response']"


def test_mbpp_plain_test(mbpp):
    ir = lower_to_ir(mbpp)
    assert all(isinstance(s, CallStep) for s in ir.steps)
    assert ir.terminal == "t_result['solution']"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_emit_byte_stable(name):
    graph = load_corpus_graph(name)
    ir = lower_to_ir(graph)
    first = emit(ir)
    second = emit(ir)
    assert first == second


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_emitted_program_is_python(name):
    program, prompts = emit(lower_to_ir(load_corpus_graph(name)))
    compile(program, "<emitted>", "exec")
    if prompts:
        compile(prompts, "<prompts>", "exec")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_structural_diff_empty(name):
    graph = load_corpus_graph(name)
    program, _ = emit(lower_to_ir(graph))
    report = structural_diff(program, graph)
    assert report.is_empty(), report.to_dict()


def test_prompt_module_contains_referenced_texts(gsm8k):
    _, prompts = emit(lower_to_ir(gsm8k))
    assert "SIMPLE_SOLVER_1 = " in prompts
    assert "boxed" in prompts


def test_no_prompt_refs_empty_module():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("P1", "ProgrammerOp", {"analysis": "Calculate step by step"}),
            Node("RETURN", "Interface"),
        ],
        [Edge("PROBLEM", "P1", "problem"), Edge("P1", "RETURN")],
    )
    program, prompts = emit(lower_to_ir(graph))
    assert prompts == ""
    assert "prompt_custom." not in program.split("import prompt_custom")[1]


def test_diff_detects_missing_call(gsm8k):
    program, _ = emit(lower_to_ir(gsm8k))
    corrupted = "\n".join(
        line for line in program.splitlines() if not line.strip().startswith("p3_result =")
    )
    report = structural_diff(corrupted, gsm8k)
    assert any("P3" in item for item in report.missing_calls)


def test_diff_detects_orphan_call(gsm8k):
    program, _ = emit(lower_to_ir(gsm8k))
    lines = program.splitlines()
    extra = "        ghost_result = await self.custom(input=problem, instruction=\"\", role=\"ghost\")"
    lines.insert(-1, extra)
    report = structural_diff("\n".join(lines), gsm8k)
    assert "ghost_result" in report.orphan_calls


def test_diff_detects_flow_break(gsm8k):
    program, _ = emit(lower_to_ir(gsm8k))
    tampered = program.replace(
        "p6_result = await self.programmer(problem=ensemble_result['response']",
        "p6_result = await self.programmer(problem=problem",
    )
    report = structural_diff(tampered, gsm8k)
    assert any("ENSEMBLE->P6" in item for item in report.flow_mismatches)


def test_diff_detects_arity_break(gsm8k):
    program, _ = emit(lower_to_ir(gsm8k))
    tampered = program.replace("c_result['response'], ", "")
    report = structural_diff(tampered, gsm8k)
    assert report.arity_mismatches or report.flow_mismatches


def _call_line_index(lines, binding):
    return next(i for i, line in enumerate(lines) if line.strip().startswith(f"{binding} = await"))


def test_diff_detects_a_binding_assigned_twice(humaneval):
    lines = emit(lower_to_ir(humaneval))[0].splitlines()
    index = _call_line_index(lines, "c2_result")
    lines.insert(index, lines[index])
    report = structural_diff("\n".join(lines), humaneval)
    assert report.to_dict() == {
        "missing_calls": [],
        "orphan_calls": ["c2_result (assigned twice)"],
        "flow_mismatches": [],
        "arity_mismatches": [],
    }


def test_diff_detects_a_call_that_reads_a_later_binding(humaneval):
    lines = emit(lower_to_ir(humaneval))[0].splitlines()
    moved = lines.pop(_call_line_index(lines, "c1_result"))
    lines.insert(_call_line_index(lines, "ensemble_result") + 1, moved)
    report = structural_diff("\n".join(lines), humaneval)
    assert report.to_dict() == {
        "missing_calls": [],
        "orphan_calls": [],
        "flow_mismatches": ["ensemble_result reads c1_result before any line assigns it"],
        "arity_mismatches": [],
    }


def test_diff_ignores_binding_names_inside_literals(gsm8k):
    from dataclasses import replace

    p1 = replace(gsm8k.node("P1"), attributes={"analysis": "compare with p6_result"})
    graph = rebuilt(gsm8k, nodes=tuple(p1 if n.id == "P1" else n for n in gsm8k.nodes))
    program, _ = emit(lower_to_ir(graph))
    assert 'analysis="compare with p6_result"' in program
    assert structural_diff(program, graph).is_empty()


@pytest.mark.parametrize("analysis", ['""', '"x_result"'], ids=["suffix", "literal"])
def test_diff_reads_a_binding_only_as_a_whole_word_outside_literals(analysis):
    # X and AX both feed P: x_result is a suffix of ax_result, and a literal holds no binding
    nodes = [Node("PROBLEM", "Interface"), Node("RETURN", "Interface"), _custom("X"), _custom("AX")]
    nodes.append(Node("P", "ProgrammerOp", {"analysis": "a"}))
    edges = [Edge("PROBLEM", "X", "input"), Edge("PROBLEM", "AX", "input"), Edge("AX", "P", "problem")]
    edges += [Edge("X", "P", "analysis"), Edge("P", "RETURN")]
    graph = WorkflowGraph(nodes, edges)
    program, _ = emit(lower_to_ir(graph))
    line = "p_result = await self.programmer(problem=ax_result['response'], analysis=x_result['response'])"
    assert line in program and structural_diff(program, graph).is_empty()
    tampered = program.replace("analysis=x_result['response']", f"analysis={analysis}")
    assert structural_diff(tampered, graph).to_dict() == {
        "missing_calls": [],
        "orphan_calls": [],
        "flow_mismatches": ["X->P: p_result does not consume x_result"],
        "arity_mismatches": [],
    }


def test_fill_reports_missing_hole():
    with pytest.raises(EmissionError, match="missing template hole"):
        fill("hello {{name}}", {})


def test_default_templates_cover_executable_kinds():
    templates = default_templates()
    assert set(templates.calls) == {
        "CustomOp",
        "ProgrammerOp",
        "ScEnsembleOp",
        "TestOp",
        "CustomCodeGenerateOp",
    }


def test_incomplete_template_dir_rejected(tmp_path):
    custom = tmp_path / "templates"
    custom.mkdir()
    for name in ("program.tmpl", "prompts.tmpl", "branch.tmpl"):
        (custom / name).write_text("", encoding="utf-8")
    loaded = load_templates(custom)  # loads, but covers no call kinds
    with pytest.raises(EmissionError, match="no template for kind"):
        emit(lower_to_ir(load_corpus_graph("gsm8k_round16")), loaded)


def test_call_templates_need_only_init_and_call(tmp_path):
    import shutil
    from pathlib import Path

    import flowevo.codegen

    shipped = Path(flowevo.codegen.__file__).parent / "templates" / "default"
    custom = tmp_path / "templates"
    shutil.copytree(shipped, custom, ignore=shutil.ignore_patterns("call_*.tmpl"))
    for kind, template in default_templates().calls.items():
        (custom / f"call_{kind}.tmpl").write_text(
            f"[init]\n{template.init}\n[call]\n{template.call}\n", encoding="utf-8"
        )
    loaded = load_templates(custom)
    for name in CORPUS_NAMES:
        ir = lower_to_ir(load_corpus_graph(name))
        assert emit(ir, loaded) == emit(ir)

    test_tmpl = custom / "call_TestOp.tmpl"
    test_tmpl.write_text(test_tmpl.read_text(encoding="utf-8").split("[call]")[0], encoding="utf-8")
    with pytest.raises(EmissionError, match=r"lacks \[call\] section"):
        load_templates(custom)


def test_branch_emission_structure(humaneval):
    program, _ = emit(lower_to_ir(humaneval))
    assert program.count("if not t_result['result']:") == 1
    assert "t_result_retest = await self.test(" in program
    assert "return t_result_solution," in program


def test_default_templates_are_shared_and_read_only():
    templates = default_templates()
    assert default_templates() is templates
    with pytest.raises(TypeError):
        templates.calls["CustomOp"] = None


def _codegen_graphs():
    """The corpus, then apply_random chains over each same-domain corpus pair."""
    import numpy as np

    from flowevo.operators import apply_random

    corpus = {name: load_corpus_graph(name) for name in CORPUS_NAMES}
    graphs = list(corpus.values())
    pairs = [(a, b) for a in CORPUS_NAMES for b in CORPUS_NAMES if a != b]
    for index, (a, b) in enumerate(p for p in pairs if corpus[p[0]].domain == corpus[p[1]].domain):
        rng = np.random.default_rng(index)
        current = corpus[a]
        for step in range(100):
            if step % 10 == 0:
                current = corpus[a]
            outcome = apply_random((current, corpus[b]), rng)
            if outcome is not None:
                graphs.extend(outcome.graphs)
                current = outcome.graphs[0]
    return graphs


def _codegen_digest(graphs) -> str:
    import hashlib
    import json

    digest = hashlib.sha256()
    for graph in graphs:
        try:
            ir = lower_to_ir(graph)
        except EmissionError as exc:
            digest.update(f"refused: {exc}\n".encode())
            continue
        program, prompts = emit(ir)
        report = structural_diff(program, graph)
        for part in (repr(ir), program, prompts, json.dumps(report.to_dict(), sort_keys=True)):
            digest.update(part.encode() + b"\n")
    return digest.hexdigest()


def test_codegen_digest_golden():
    # pins the lowered IR, the emitted bytes and the structural diff of every
    # graph; the chains reach test/repair branches through the code pair
    graphs = _codegen_graphs()
    branched = [g for g in graphs if any(label == "fail" for _, _, label in g.edge_multiset())]
    assert len(graphs) > 400 and len(branched) > 20
    assert _codegen_digest(graphs) == "971e9ced793577143d0653d9a18883ab31c171f3b53ef44fc1485c11efa7109f"


def _module_values(prompt_module: str) -> dict:
    """Name -> value of each assignment in an emitted prompt module, as Python reads it."""
    import ast

    tree = ast.parse(prompt_module)
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)}


_ADVERSARIAL_PROMPTS = (
    "Answer in \\boxed{}.", 'ends in a quote"', "ends in a backslash\\", 'a"""b', '""""', '\\"""', '"', "\\", "",
    "crlf\r\nline", "nul\x00byte", "\x0001", "'''", "\\N{BULLET} \\x41 \\u0041 \\n", 'two ""', 'both \\" and """"',
)


def test_the_prompt_module_reads_back_as_the_prompt_texts(gsm8k):
    from flowevo import PromptTable

    adversarial = [rebuilt(gsm8k, prompts=PromptTable(dict.fromkeys(gsm8k.prompts, text))) for text in _ADVERSARIAL_PROMPTS]
    checked = 0
    for graph in _codegen_graphs() + adversarial:
        try:
            ir = lower_to_ir(graph)
        except EmissionError:
            continue
        values = _module_values(emit(ir)[1])
        assert values == dict(ir.prompts)
        assert values == {name.upper(): text for name, text in graph.prompts.entries.items() if name.upper() in values}
        checked += bool(values)
    assert checked > 400


# -- products inherit their parent's call steps ------------------------------------------


def _inheriting_chains(graph, partner, seed: int, steps: int, restart: int) -> tuple[int, int, int, int]:
    """apply_random chains from ``graph``, each parent lowered before its next rewrite.

    Every product must lower, emit and refuse as a fresh graph of its value
    does, with every call step it inherited exact. Returns the products, the
    call steps they inherited, the call steps they hold once lowered, and
    the products that inherited steps and lowered to a test/repair branch.
    """
    import numpy as np

    from flowevo.operators import apply_random

    rng = np.random.default_rng(seed)
    products = inherited = held = branched = 0
    current = graph
    for step in range(steps):
        if step % restart == 0:
            current = graph
            assert_memos_exact(current)  # lowers it, as it does each product, so products inherit
        outcome = apply_random(current if partner is None else (current, partner), rng)
        if outcome is None:
            continue
        for product in outcome.graphs:
            products += 1
            kept = len(product._calls)
            inherited += kept
            assert_memos_exact(product)
            held += len(product._calls)
            steps_of = product._ir.steps if product._ir is not None else ()
            branched += bool(kept) and any(isinstance(s, BranchStep) for s in steps_of)
        current = outcome.graphs[0]
    return products, inherited, held, branched


_DOMAIN = {name: load_corpus_graph(name).domain for name in CORPUS_NAMES}


_PAIRS = [(a, b) for a in CORPUS_NAMES for b in CORPUS_NAMES if a != b and _DOMAIN[a] == _DOMAIN[b]]


@pytest.mark.parametrize("a, b", _PAIRS)
def test_products_lower_as_fresh_graphs_on_corpus_pairs(a, b):
    # small graphs: a rewrite touches a large share of their calls; the code pair reaches branches
    # (200 steps: a chain that rewires more often reaches a branch less often per step)
    first, second = load_corpus_graph(a), load_corpus_graph(b)
    products, inherited, held, branched = _inheriting_chains(first, second, CORPUS_NAMES.index(a), 200, 10)
    assert products > 50 and inherited > held // 3
    assert branched > 10 or first.domain != "code"


@pytest.mark.parametrize("size, seed", [(10, 1), (40, 2), (120, 3), (300, 4)])
def test_products_lower_as_fresh_graphs_on_generated_graphs(size, seed):
    import random

    from conftest import load_workflow_gen
    from flowevo import lower_to_graph, parse_workflow

    text = load_workflow_gen().generate(size, random.Random(seed), f"c{size}").text
    graph = lower_to_graph(parse_workflow(text))[0]
    products, inherited, held, _ = _inheriting_chains(graph, None, seed, 100, 20)  # five chains of 20
    assert products > 10 and inherited > held * 2 // 3


def test_products_relower_every_call_step_their_delta_can_change():
    # chains of 15 rewrites from each corpus graph, each parent lowered before its next
    # rewrite: a product keeps a reader's step only when no source of it is recast or
    # gains or loses a fail arm, and must lower and emit as a fresh build of its value
    import numpy as np

    from flowevo.operators import apply_random

    products = inherited = 0
    for name in (*CORPUS_NAMES, "seed_math_minimal"):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            current = load_corpus_graph(name)
            lower_to_ir(current)
            for _ in range(15):
                outcome = apply_random(current, rng)
                if outcome is None:
                    continue
                for product in outcome.graphs:
                    products += 1
                    inherited += bool(product._calls)
                    assert lowering(product) == lowering(rebuilt(product)), (name, seed)
                current = outcome.graphs[0]
    assert products > 2500 and inherited > products // 2


def test_a_merged_prompt_table_resolves_a_name_on_an_untouched_node(gsm8k):
    from flowevo import PromptTable

    parent = rebuilt(gsm8k, prompts=PromptTable())
    assert lower_to_ir(parent).steps[0].args["instruction"].render() == '""'
    product = parent.with_changes(GraphDelta(prompts=parent.prompts.merged(gsm8k.prompts.entries)))
    assert "C" not in product._calls and "P1" in product._calls
    ir = lower_to_ir(product)
    assert ir.steps[0].node_id == "C"
    assert ir.steps[0].args["instruction"].render() == "prompt_custom.SIMPLE_SOLVER_1"
    assert "SIMPLE_SOLVER_1" in ir.prompts
    assert lowering(product) == lowering(rebuilt(product))


def _custom(nid: str) -> Node:
    return Node(nid, "CustomOp", {"role": nid.lower()})


def test_binding_suffixes_of_ids_that_differ_only_by_case_follow_the_order():
    # B -> custom_1 and a -> Custom_1: Custom_1 comes first in topological order;
    # with a -> n -> Custom_1, custom_1 does, though the rewrite touches neither it nor its source
    nodes = [Node("PROBLEM", "Interface"), Node("RETURN", "Interface"), Node("ENSEMBLE", "ScEnsembleOp")]
    nodes += [_custom(nid) for nid in ("B", "a", "Custom_1", "custom_1")]
    edges = [Edge("PROBLEM", "B"), Edge("PROBLEM", "a"), Edge("B", "custom_1"), Edge("a", "Custom_1")]
    edges += [Edge("custom_1", "ENSEMBLE"), Edge("Custom_1", "ENSEMBLE"), Edge("ENSEMBLE", "RETURN")]
    parent = WorkflowGraph(nodes, edges)
    bindings = {s.node_id: s.binding for s in lower_to_ir(parent).steps}
    assert bindings["Custom_1"] == "custom_1_result" and bindings["custom_1"] == "custom_1_result_2"
    product = parent.with_changes(
        GraphDelta(
            removed_edges=(Edge("a", "Custom_1"),),
            added_edges=(Edge("a", "n"), Edge("n", "Custom_1")),
            added_nodes=(_custom("n"),),
        )
    )
    bindings = {s.node_id: s.binding for s in lower_to_ir(product).steps}
    assert bindings["custom_1"] == "custom_1_result" and bindings["Custom_1"] == "custom_1_result_2"
    assert lowering(product) == lowering(rebuilt(product))


def test_a_source_of_another_kind_changes_what_its_untouched_reader_reads():
    nodes = [Node("PROBLEM", "Interface"), Node("RETURN", "Interface"), _custom("A"), _custom("B")]
    parent = WorkflowGraph(nodes, [Edge("PROBLEM", "A"), Edge("A", "B"), Edge("B", "RETURN")])
    assert lower_to_ir(parent).steps[1].args["input"].render() == "a_result['response']"
    programmer = Node("A", "ProgrammerOp", {"analysis": "a"})
    product = parent.with_changes(GraphDelta(replaced_nodes=(programmer,)))
    assert lower_to_ir(product).steps[1].args["input"].render() == "a_result['output']"
    assert lowering(product) == lowering(rebuilt(product))


def test_a_test_that_gains_a_fail_arm_switches_its_untouched_readers(humaneval):
    # T --> X --> RETURN; then T --fail--> C4 --> RETURN is added, and X reads the branch result
    reader = Node("X", "CustomCodeGenerateOp", {"instruction": "simple_solver_2"})
    parent = _edit_humaneval(
        humaneval,
        drop_nodes=["C4"],
        drop=[("T", "RETURN", "pass")],
        nodes=[reader],
        add=[("T", "X", None), ("ENTRY_POINT", "X", "entry_point"), ("X", "RETURN", None)],
    )
    x = next(s for s in lower_to_ir(parent).call_steps() if s.node_id == "X")
    assert x.args["problem"].render() == "t_result['solution']"
    product = parent.with_changes(
        GraphDelta(
            added_nodes=(humaneval.node("C4"),),
            added_edges=(Edge("T", "C4", "fail"), Edge("C4", "RETURN")),
        )
    )
    assert validate(product).q == 1
    x = next(s for s in lower_to_ir(product).call_steps() if s.node_id == "X")
    assert x.args["problem"].render() == "t_result_solution"
    assert lowering(product) == lowering(rebuilt(product))


def test_the_audit_reads_the_text_not_the_inherited_steps(gsm8k):
    from dataclasses import replace

    parent = rebuilt(gsm8k)
    lower_to_ir(parent)
    p1 = replace(parent.node("P1"), attributes={"analysis": "Calculate twice"})
    product = parent.with_changes(GraphDelta(replaced_nodes=(p1,)))
    ir = lower_to_ir(product)
    p6 = next(s for s in ir.steps if s.node_id == "P6")
    assert p6 is parent._calls["P6"][0]  # inherited
    program, _ = emit(ir)
    line = "p6_result = await self.programmer(problem=ensemble_result['response']"
    assert line in program and structural_diff(program, product).is_empty()
    tampered = program.replace(line, "p6_result = await self.programmer(problem=p5_result['output']")
    report = structural_diff(tampered, product)
    assert report.flow_mismatches == ["ENSEMBLE->P6: p6_result does not consume ensemble_result"]


# -- large_rewrite's products, pinned --------------------------------------------------

LARGE_REWRITE_DIGESTS = {  # window -> (serialized products, emitted programs and audit reports)
    0: (
        "b52620569996e00fc01fb3841004009f6ff3d907db0809f7cf31f73a089a313a",
        "d7acb4650680b7b1b6b599bba8baea461e3a8dc294dbbfbe8da525f9e1786376",
    ),
    1: (
        "6d389910bc8f10ef01224fee0bcc4707e0a30a6f9d8e54ee381429c6feb5be9e",
        "f848f1bcbccb5df20e05e9f3becbd34ec4d621a29f818940bb40b2195192ab5b",
    ),
    2: (
        "a4d2d4b772d8ada6982f80381f04e1a2d0e89377f1fb30eee874d0a7e390ca11",
        "04615f87168bb17cabc8c2485b902af580d4986e53d616787f87ec6e222c3712",
    ),
}


@pytest.mark.parametrize("window", sorted(LARGE_REWRITE_DIGESTS))
def test_large_rewrite_products_golden(window):
    # the benchmark's large_rewrite window at seed 1: rewrite chains on generated
    # 100- and 300-node graphs; pins each product's serialized source (the
    # window digest the benchmark reports), and its emitted program and audit
    import hashlib
    import json
    import random

    import numpy as np

    from conftest import load_workflow_gen
    from flowevo import lower_to_graph, parse_workflow, serialize_workflow
    from flowevo.operators import apply_random
    from flowevo.registry import default_registry

    workflow_gen = load_workflow_gen()
    rng = random.Random(f"1/{window}")
    sources, programs = hashlib.sha256(), hashlib.sha256()
    for c, nodes in enumerate((100, 100, 100, 100, 100, 300)):
        graph, partner = (
            lower_to_graph(parse_workflow(workflow_gen.generate(nodes, rng, tag).text), registry=default_registry())[0]
            for tag in (f"w{window}.{c}", f"w{window}.{c}.partner")
        )
        op_rng = np.random.default_rng(rng.getrandbits(63))
        for _ in range(10):
            outcome = apply_random((graph, partner), op_rng)
            if outcome is None:
                sources.update(b"none\0")
                continue
            graph = outcome.graphs[0]
            sources.update(serialize_workflow(graph).encode() + b"\0")
            program, _ = emit(lower_to_ir(graph))
            report = json.dumps(structural_diff(program, graph).to_dict(), sort_keys=True)
            programs.update(program.encode() + b"\0" + report.encode() + b"\0")
    assert (sources.hexdigest(), programs.hexdigest()) == LARGE_REWRITE_DIGESTS[window]
