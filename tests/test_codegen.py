from __future__ import annotations

import pytest

from flowevo import Edge, Node, build_graph
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

from conftest import CORPUS_NAMES, load_corpus_graph


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
    graph = build_graph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )
    with pytest.raises(EmissionError, match="nothing to emit"):
        lower_to_ir(graph)


def test_invalid_graph_refused(gsm8k):
    broken = gsm8k.with_changes(edges=tuple(e for e in gsm8k.edges if e.source != "P6"))
    with pytest.raises(InvalidGraphError) as exc_info:
        lower_to_ir(broken)
    assert exc_info.value.verdict.q == 0


def test_unlowered_kind_named():
    graph = build_graph(
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
    graph = build_graph(
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
