from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from flowevo import lower_to_graph, parse_workflow, validate
from flowevo import cli
from flowevo.cli import main

from conftest import corpus_path

MINIMAL_TWO_NODE = """flowchart TD
PROBLEM([Problem])
RETURN([Return response & cost])

class PROBLEM Interface
class RETURN Interface

PROBLEM --> RETURN
"""


@pytest.fixture()
def two_node_file(tmp_path):
    path = tmp_path / "two_node.mmd"
    path.write_text(MINIMAL_TWO_NODE, encoding="utf-8")
    return path


@pytest.fixture()
def broken_w5_file(tmp_path):
    # ensemble with a single inbound connection
    path = tmp_path / "w5.mmd"
    path.write_text(
        "flowchart TD\n"
        "PROBLEM([Problem])\n"
        'A["Custom<br/>(role: solver)"]\n'
        'E["ScEnsemble<br/>"]\n'
        "RETURN([Return response & cost])\n"
        "class PROBLEM Interface\n"
        "class A CustomOp\n"
        "class E ScEnsembleOp\n"
        "class RETURN Interface\n"
        "PROBLEM --> |input|A\n"
        "A --> E\n"
        "E --> RETURN\n"
        "<prompt>\n"
        'solver="Solve it."\n'
        "</prompt>\n",
        encoding="utf-8",
    )
    return path


def run_config(tmp_path, corpus_dir, rounds=6, seed=3):
    path = tmp_path / "run.cfg"
    path.write_text(
        "domain = math\n"
        "scenario = math_ensemble_refine\n"
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n"
        f"max_rounds = {rounds}\n"
        "candidate_pool = 4\n"
        "lambda = 0.3\n"
        "alpha = 5\n"
        "num_tries = 3\n"
        "crossover_rate = 0.10\n"
        f"seed = {seed}\n",
        encoding="utf-8",
    )
    return path


def test_validate_corpus_ok(capsys):
    assert main(["validate", str(corpus_path("gsm8k_round16"))]) == 0
    assert capsys.readouterr().err == ""


def test_validate_strips_a_byte_order_mark(tmp_path, capsys):
    plain = corpus_path("gsm8k_round16")
    marked = tmp_path / "bom.mmd"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["validate", str(plain), "--json"]) == 0
    expected = capsys.readouterr().out
    assert main(["validate", str(marked), "--json"]) == 0
    assert capsys.readouterr().out == expected


def test_validate_w5_failure(broken_w5_file, capsys):
    assert main(["validate", str(broken_w5_file)]) == 1
    err = capsys.readouterr().err
    assert "W5 error E:-" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.mmd"]) == 2


# node ids that match the dialect's \w+ but not a graph's identifier rule
_BAD_ID_SOURCES = {
    "declaration": ('1A["Custom<br/>(role: a)"]', "bad node id in declaration: '1A'"),
    "edge": ("PROBLEM --> 9x", "bad node id in edge: '9x'"),
}


@pytest.mark.parametrize("form", sorted(_BAD_ID_SOURCES))
def test_bad_node_id_is_a_syntax_finding(form, tmp_path, capsys):
    line, message = _BAD_ID_SOURCES[form]
    path = tmp_path / "bad_id.mmd"
    path.write_text(f"flowchart TD\n{line}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "SYNTAX error" in err and message in err and "Traceback" not in err
    assert main(["mutate", str(path), "--op", "random"]) == 2
    assert main(["emit", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["1x", "é"])
def test_bad_prompt_name_is_a_syntax_finding(name, tmp_path, capsys):
    # a \w+ prompt name that a prompt table cannot hold fails the hard check
    path = tmp_path / "bad_prompt.mmd"
    path.write_text(f'{MINIMAL_TWO_NODE}<prompt>\n{name}="a"\n</prompt>\n', encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"SYNTAX error -:10:1 bad prompt name {name!r}" in err and "Traceback" not in err
    assert main(["validate", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["q"] == 0


def test_validate_json(capsys):
    assert main(["validate", str(corpus_path("mbpp_round8")), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 1 and payload["diagnostics"] == []


def test_mutate_substitution_locality(capsys):
    assert main(["mutate", str(corpus_path("math_round16")), "--op", "substitution", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    graph, _ = lower_to_graph(parse_workflow(captured.out), domain="math")
    assert validate(graph).q == 1
    original, _ = lower_to_graph(
        parse_workflow(corpus_path("math_round16").read_text(encoding="utf-8")), domain="math"
    )
    changed = [
        n.id for n in graph.nodes if n.attributes != original.node(n.id).attributes
    ]
    assert len(changed) == 1
    assert graph.edge_multiset() == original.edge_multiset()
    assert "<modification>" in captured.err


def test_mutate_deletion_no_site(two_node_file):
    assert main(["mutate", str(two_node_file), "--op", "deletion", "--seed", "1"]) == 3


def test_mutate_crossover_two_outputs(capsys):
    code = main(
        [
            "mutate",
            str(corpus_path("math_round16")),
            str(corpus_path("gsm8k_round16")),
            "--op",
            "crossover",
            "--seed",
            "9",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["operator"] == "crossover"
    assert len(payload["outputs"]) == 2
    for text in payload["outputs"]:
        assert validate(text, domain="math").q == 1


def test_mutate_crossover_requires_two_inputs(capsys):
    assert main(["mutate", str(corpus_path("math_round16")), "--op", "crossover"]) == 2


def test_mutate_rejects_invalid_input(broken_w5_file):
    assert main(["mutate", str(broken_w5_file), "--op", "substitution"]) == 2


def test_mutate_deterministic(capsys):
    argv = ["mutate", str(corpus_path("gsm8k_round16")), "--op", "random", "--seed", "42", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_mutate_negative_seed_exits_2(capsys):
    assert main(["mutate", str(corpus_path("gsm8k_round16")), "--op", "random", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err


def test_evolve_demo_and_replay(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["evolve", "--config", str(config), "--out", str(out1)]) == 0
    captured = capsys.readouterr()
    assert "round 1:" in captured.out
    assert main(["evolve", "--config", str(config), "--out", str(out2)]) == 0
    capsys.readouterr()
    h1 = (out1 / "history.jsonl").read_bytes()
    h2 = (out2 / "history.jsonl").read_bytes()
    assert h1 == h2
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["max_rounds"] == 6
    assert manifest["config"]["seed"] == 3


def test_evolve_zero_rounds(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir, rounds=0)
    out = tmp_path / "zero"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "history.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1  # scored seed only
    assert json.loads(lines[0])["round"] == 0


def test_evolve_flag_overrides_config(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir, rounds=6)
    out = tmp_path / "short"
    assert main(["evolve", "--config", str(config), "--out", str(out), "--max-rounds", "2"]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["max_rounds"] == 2


def test_evolve_env_override(tmp_path, corpus_dir, capsys, monkeypatch):
    config = run_config(tmp_path, corpus_dir, rounds=6)
    monkeypatch.setenv("FLOWEVO_MAX_ROUNDS", "1")
    out = tmp_path / "env"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["max_rounds"] == 1


def test_evolve_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("lambda = nine\n", encoding="utf-8")
    assert main(["evolve", "--config", str(config)]) == 2


def test_evolve_with_external_adapters(tmp_path, corpus_dir, capsys):
    import sys

    stub = Path(__file__).parent / "data" / "stub_adapter.py"
    config = tmp_path / "adapters.cfg"
    config.write_text(
        "domain = math\n"
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n"
        "max_rounds = 2\n"
        "candidate_pool = 2\n"
        "seed = 1\n"
        f"evaluator_cmd = {sys.executable} {stub}\n",
        encoding="utf-8",
    )
    out = tmp_path / "adapted"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "history.jsonl").exists()


def test_evolve_keeps_a_finished_run_when_an_adapter_ignores_eof(tmp_path, corpus_dir, capsys, monkeypatch):
    import os

    from flowevo import adapters

    monkeypatch.setattr(adapters, "CLOSE_GRACE_S", 0.2)
    stub = Path(__file__).parent / "data" / "sleepy_adapter.py"
    pid_path = tmp_path / "adapter.pid"
    config = tmp_path / "sleepy.cfg"
    config.write_text(
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n"
        "max_rounds = 2\n"
        f"evaluator_cmd = {sys.executable} {stub} {pid_path}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "history.jsonl").exists() and (out / "manifest.json").exists()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_path.read_text(encoding="utf-8")), 0)


def test_evolve_templates_key_exits_2(tmp_path, corpus_dir, capsys):
    config = tmp_path / "templates.cfg"
    config.write_text(
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\ntemplates = x\n", encoding="utf-8"
    )
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config keys: templates" in capsys.readouterr().err


def test_evolve_site_budget_zero_exits_2(tmp_path, corpus_dir, capsys):
    config = tmp_path / "budget.cfg"
    config.write_text(
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\nsite_budget = 0\n", encoding="utf-8"
    )
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "site_budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, flags, message",
    [
        ("", ["--alpha", "inf"], "alpha must be finite"),
        ("weights.substitution = 1.5\nweights.deletion = -0.5\n", [], "deletion must be finite and nonnegative"),
        ("", ["--seed", "-1"], "seed must be >= 0"),
        ("", ["--max-rounds", "-5"], "max_rounds must be >= 0"),
        ("scenario = nope\n", [], "unknown scenario 'nope'"),
        ("domain = maths\n", [], "domain must be math or code (got 'maths')"),
        (
            "crossover_rate = 0.5\nweights.substitution = 0.2\nweights.addition = 0.2\nweights.rewiring = 0.2\n"
            "weights.deletion = 0.2\nweights.subgraph_mutation = 0.1\nweights.crossover = 0.1\n",
            [],
            "crossover_rate cannot be combined with weights",
        ),
    ],
)
def test_evolve_bad_knob_exits_2(tmp_path, corpus_dir, capsys, line, flags, message):
    config = tmp_path / "knob.cfg"
    config.write_text(f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n{line}", encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_evolve_unusable_out_exits_2(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir, rounds=1)
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("flowevo: ")


def test_evolve_seed_syntax_error_names_seed(tmp_path, capsys):
    seed = tmp_path / "broken_seed.mmd"
    seed.write_text("flowchart TD\n??\n", encoding="utf-8")
    config = tmp_path / "broken.cfg"
    config.write_text(f"seeds = {seed}\n", encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"seed {seed}: syntax errors: SYNTAX error" in err


def test_evolve_non_utf8_seed_exits_2(tmp_path, capsys):
    seed = tmp_path / "latin1_seed.mmd"
    seed.write_bytes("flowchart TD\n  PROBLEM([Probl\xe9m])\n".encode("latin-1"))
    config = tmp_path / "latin1.cfg"
    config.write_text(f"seeds = {seed}\n", encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "input is not valid UTF-8" in capsys.readouterr().err


def test_evolve_seed_that_does_not_validate_exits_2(broken_w5_file, tmp_path, capsys):
    config = tmp_path / "w5.cfg"
    config.write_text(f"seeds = {broken_w5_file}\n", encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowevo: seed {broken_w5_file}: does not validate: W5 error")
    assert "Traceback" not in err


def test_evolve_creates_missing_history_and_manifest_parents(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir, rounds=2)
    with config.open("a", encoding="utf-8") as f:
        f.write("history = missing/h.jsonl\nmanifest = also/missing/m.json\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len((out / "missing" / "h.jsonl").read_text(encoding="utf-8").splitlines()) >= 1
    assert json.loads((out / "also" / "missing" / "m.json").read_text(encoding="utf-8"))["tool"] == "flowevo"


def test_evolve_uncreatable_history_parent_exits_2_before_round_1(tmp_path, corpus_dir, capsys, monkeypatch):
    config = run_config(tmp_path, corpus_dir, rounds=2)
    with config.open("a", encoding="utf-8") as f:
        f.write("history = blocker/h.jsonl\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "blocker").write_text("", encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("the run started although its history cannot be written")

    monkeypatch.setattr(cli, "run_evolution", no_run)
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("flowevo: ") and captured.out == ""
    assert [p.name for p in out.iterdir()] == ["blocker"]


def test_evolve_adapter_command_with_quoted_path(tmp_path, corpus_dir, capsys):
    import shlex
    import shutil
    import sys

    spaced = tmp_path / "adapter dir"
    spaced.mkdir()
    stub = spaced / "stub adapter.py"
    shutil.copy(Path(__file__).parent / "data" / "stub_adapter.py", stub)
    config = tmp_path / "quoted.cfg"
    config.write_text(
        "domain = math\n"
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n"
        "max_rounds = 2\n"
        "candidate_pool = 2\n"
        "seed = 1\n"
        f"evaluator_cmd = {shlex.join([sys.executable, str(stub)])}\n",
        encoding="utf-8",
    )
    out = tmp_path / "quoted"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    for line in (out / "history.jsonl").read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        # the stub scores by source length, so every score came from it
        assert entry["score"] == min(1.0, len(entry["source"]) / 10000.0)


def test_evolve_unbalanced_quote_in_command_exits_2(tmp_path, corpus_dir, capsys):
    config = tmp_path / "unbalanced.cfg"
    config.write_text(
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\nevaluator_cmd = python 'unclosed\n",
        encoding="utf-8",
    )
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "bad command" in capsys.readouterr().err


def test_emit_gsm8k(tmp_path, capsys):
    out = tmp_path / "emitted"
    assert main(["emit", str(corpus_path("gsm8k_round16")), "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structural_diff"] == {
        "missing_calls": [],
        "orphan_calls": [],
        "flow_mismatches": [],
        "arity_mismatches": [],
    }
    assert (out / "workflow.py").exists()
    assert (out / "prompt_custom.py").exists()


def test_emit_unusable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    assert main(["emit", str(corpus_path("gsm8k_round16")), "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("flowevo: ")


def test_emit_minimal_nothing_to_emit(two_node_file, tmp_path, capsys):
    assert main(["emit", str(two_node_file), "--out", str(tmp_path / "x")]) == 1
    assert "nothing to emit" in capsys.readouterr().err


def test_emit_humaneval_contains_branch(tmp_path, capsys):
    out = tmp_path / "he"
    assert main(["emit", str(corpus_path("humaneval_round5")), "--out", str(out)]) == 0
    capsys.readouterr()
    program = (out / "workflow.py").read_text(encoding="utf-8")
    assert "if not t_result['result']:" in program


def test_export_dot_gsm8k(capsys):
    assert main(["export-dot", str(corpus_path("gsm8k_round16"))]) == 0
    dot = capsys.readouterr().out
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l and not l.startswith("//")]
    assert len(node_lines) == 10
    assert len(edge_lines) == 14
    assert 'fillcolor="#f9e4b7"' in dot  # ensemble palette color


def test_export_dot_invalid_graph_still_exports(broken_w5_file, capsys):
    assert main(["export-dot", str(broken_w5_file)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("// W5 error")
    assert "digraph workflow {" in dot


def test_export_dot_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.mmd"
    empty.write_text("", encoding="utf-8")
    assert main(["export-dot", str(empty)]) == 2


def test_export_dot_json(capsys):
    assert main(["export-dot", str(corpus_path("mbpp_round8")), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dot"].startswith("digraph") or payload["dot"].startswith("//")


def test_validate_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(MINIMAL_TWO_NODE))
    assert main(["validate", "-"]) == 0


def test_evolve_all_rounds_failed(tmp_path, corpus_dir, capsys):
    import sys

    garbage = Path(__file__).parent / "data" / "garbage_proposer.py"
    config = tmp_path / "garbage.cfg"
    config.write_text(
        "domain = math\n"
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\n"
        "max_rounds = 2\n"
        "candidate_pool = 2\n"
        "num_tries = 2\n"
        "seed = 1\n"
        f"proposer_cmd = {sys.executable} {garbage}\n",
        encoding="utf-8",
    )
    out = tmp_path / "failed"
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "skipped" in captured.out
    assert "all rounds failed" in captured.err


def test_evolve_json_output(tmp_path, corpus_dir, capsys):
    config = run_config(tmp_path, corpus_dir, rounds=2)
    out = tmp_path / "json_run"
    assert main(["evolve", "--config", str(config), "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rounds"]) == 2
    assert payload["best_score"] >= 0.0


def test_shipped_demo_config(tmp_path, capsys):
    repo_root = Path(__file__).resolve().parent.parent
    out = tmp_path / "demo"
    assert main(["evolve", "--config", str(repo_root / "configs" / "demo_math.cfg"), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (out / "history.jsonl").exists()
    assert "best score:" in captured.out


def test_validate_with_registry_flag(tmp_path, capsys):
    import shutil

    import flowevo

    registry_path = tmp_path / "registry.cfg"
    shutil.copyfile(Path(flowevo.__file__).with_name("registry.cfg"), registry_path)
    assert main(["validate", str(corpus_path("gsm8k_round16")), "--registry", str(registry_path)]) == 0


def test_emit_with_custom_templates_dir(tmp_path, capsys):
    import shutil

    import flowevo

    default_dir = Path(flowevo.__file__).parent / "templates" / "default"
    custom = tmp_path / "my_templates"
    shutil.copytree(default_dir, custom)
    program_tmpl = custom / "program.tmpl"
    program_tmpl.write_text(
        program_tmpl.read_text(encoding="utf-8").replace(
            "Auto-emitted workflow program", "Customized emission"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "emitted"
    code = main(
        [
            "emit",
            str(corpus_path("gsm8k_round16")),
            "--templates",
            str(custom),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert "Customized emission" in (out / "workflow.py").read_text(encoding="utf-8")


def test_validate_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "binary.mmd"
    path.write_bytes(b"flowchart TD\n\xff\xfe broken\n")
    assert main(["validate", str(path)]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_emit_template_invalid_utf8_exits_2(tmp_path, capsys):
    import shutil

    import flowevo

    custom = tmp_path / "templates"
    shutil.copytree(Path(flowevo.__file__).parent / "templates" / "default", custom)
    (custom / "program.tmpl").write_bytes(b"# \xff\n{{body}}\n")
    assert main(["emit", str(corpus_path("gsm8k_round16")), "--templates", str(custom)]) == 2
    err = capsys.readouterr().err
    assert "program.tmpl: not valid UTF-8" in err and "Traceback" not in err


def test_evolve_config_invalid_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"max_rounds = 1\n# \xff\n")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "binary.cfg: not valid UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "style = fill:#fff\n",
        "[kind:A]\ndisplay = a\n[kind:A]\ndisplay = b\n",
        "[kind:A]\ninsertable = maybe\n",
        "[kind:A]\ninputs = input min=two\n",
    ],
    ids=["no-section-header", "duplicate-section", "insertable-not-boolean", "min-not-integer"],
)
def test_validate_malformed_registry_exits_2(tmp_path, capsys, text):
    registry_path = tmp_path / "bad.cfg"
    registry_path.write_text(text, encoding="utf-8")
    assert main(["validate", str(corpus_path("gsm8k_round16")), "--registry", str(registry_path)]) == 2
    assert "bad registry config" in capsys.readouterr().err


def test_validate_registry_with_unknown_domain_exits_2(tmp_path, capsys):
    # a misspelt domain would restrict the kind to no domain a graph can have
    import flowevo

    registry_path = tmp_path / "maths.cfg"
    text = Path(flowevo.__file__).with_name("registry.cfg").read_text(encoding="utf-8")
    registry_path.write_text(text.replace("domain = any", "domain = maths", 1), encoding="utf-8")
    assert main(["validate", str(corpus_path("gsm8k_round16")), "--registry", str(registry_path)]) == 2
    assert "bad domain 'maths' for Interface" in capsys.readouterr().err


def test_validate_registry_with_percent_style(tmp_path, capsys):
    import flowevo

    registry_path = tmp_path / "percent.cfg"
    text = Path(flowevo.__file__).with_name("registry.cfg").read_text(encoding="utf-8")
    registry_path.write_text(text.replace("stroke-width:2px", "stroke-width:50%"), encoding="utf-8")
    assert "50%" in registry_path.read_text(encoding="utf-8")
    assert main(["validate", str(corpus_path("gsm8k_round16")), "--registry", str(registry_path)]) == 0


_BAD_REPLY = f"{sys.executable} {Path(__file__).parent / 'data' / 'bad_reply_adapter.py'}"


@pytest.mark.parametrize(
    "key, command",
    [
        ("evaluator_cmd", "false"),
        ("evaluator_cmd", "no-such-adapter-command"),
        ("judge_cmd", f"{_BAD_REPLY} judge-out-of-range"),
        ("evaluator_cmd", f"{_BAD_REPLY} not-an-object"),
        ("proposer_cmd", f"{_BAD_REPLY} text-not-a-string"),
        ("proposer_cmd", f"{_BAD_REPLY} modification-not-a-string"),
        ("judge_cmd", f"{_BAD_REPLY} judge-true"),
        ("evaluator_cmd", f"{_BAD_REPLY} score-true"),
    ],
    ids=[
        "false",
        "no-such-adapter-command",
        "judge-out-of-range",
        "evaluator-not-an-object",
        "proposer-text-not-a-string",
        "proposer-modification-not-a-string",
        "judge-true",
        "evaluator-score-true",
    ],
)
def test_evolve_failing_adapter_exits_1(tmp_path, corpus_dir, key, command):
    import os
    import subprocess

    config = tmp_path / "failing.cfg"
    config.write_text(
        f"seeds = {corpus_dir / 'seed_math_minimal.mmd'}\nmax_rounds = 2\n{key} = {command}\n",
        encoding="utf-8",
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from flowevo.cli import main; sys.exit(main(sys.argv[1:]))",
         "evolve", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("flowevo: ")


@pytest.mark.parametrize(
    "failure, code",
    [*cli._EXIT_CODES.items(), (cli._Exit, cli.EXIT_NO_REWRITE)],
    ids=[*(cls.__name__ for cls in cli._EXIT_CODES), "_Exit"],
)
def test_main_maps_each_failure_class_to_its_exit_code(failure, code, capsys, monkeypatch):
    def raising(*args, **kwargs):
        raise failure("boom", code) if failure is cli._Exit else failure("boom")

    monkeypatch.setattr(cli, "validate", raising)
    assert main(["validate", str(corpus_path("gsm8k_round16"))]) == code
    captured = capsys.readouterr()
    assert captured.err == "flowevo: boom\n"  # one line, no traceback
    assert captured.out == ""


# each workflow input a command reads, as (its argv, the name its failure line starts with)
def _input_args(command: str, path: Path, tmp_path: Path) -> tuple[list, str]:
    if command == "evolve":
        config = tmp_path / "seed.cfg"
        config.write_text(f"seeds = {path}\n", encoding="utf-8")
        return ["evolve", "--config", str(config), "--out", str(tmp_path / "out")], f"seed {path}"
    argv = {
        "mutate": ["mutate", str(path), "--op", "substitution"],
        "mutate partner": ["mutate", str(corpus_path("gsm8k_round16")), str(path), "--op", "crossover"],
        "emit": ["emit", str(path), "--out", str(tmp_path / "out")],
        "export-dot": ["export-dot", str(path)],
    }[command]
    return argv, f"input {path}"


_UNREADABLE = {
    "missing": None,
    "not UTF-8": "flowchart TD\n  PROBLEM([Probl\xe9m])\n".encode("latin-1"),
    "syntax error": b"flowchart TD\n??\n",
}


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for command in ("mutate", "mutate partner", "emit", "export-dot", "evolve")
        for case in [*_UNREADABLE, "does not validate"]
        if (command, case) != ("export-dot", "does not validate")  # an invalid graph exports
    ],
)
def test_each_input_failure_exits_2_on_one_line_naming_its_file(command, case, broken_w5_file, tmp_path, capsys):
    path = broken_w5_file if case == "does not validate" else tmp_path / "input.mmd"
    if _UNREADABLE.get(case):
        path.write_bytes(_UNREADABLE[case])
    argv, name = _input_args(command, path, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowevo: {name}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if case == "does not validate":
        assert f"{name}: does not validate: W5 error" in err


def test_emit_nonempty_structural_diff_is_one_line(tmp_path, capsys):
    import shutil

    import flowevo

    custom = tmp_path / "templates"
    shutil.copytree(Path(flowevo.__file__).parent / "templates" / "default", custom)
    call = custom / "call_ScEnsembleOp.tmpl"
    call.write_text(call.read_text(encoding="utf-8").replace("solutions=[{{solutions}}], ", ""), encoding="utf-8")
    argv = ["emit", str(corpus_path("gsm8k_round16")), "--templates", str(custom), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("flowevo: structural diff is not empty: {") and err.count("\n") == 1, err
    report = json.loads(err.removeprefix("flowevo: structural diff is not empty: "))
    assert report["flow_mismatches"], report
