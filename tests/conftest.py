from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from flowevo import PromptTable, WorkflowGraph, lower_to_graph, parse_workflow, serialize_workflow
from flowevo import registry as registry_module
from flowevo.codegen import EmissionError, emit, lower_to_ir
from flowevo.graph import prompt_refs
from flowevo.validator import bind_input_ports, soft_check

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = (
    "gsm8k_round16",
    "math_round16",
    "humaneval_round5",
    "mbpp_round8",
)


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / f"{name}.mmd"


def load_corpus_graph(name: str):
    doc = parse_workflow(corpus_path(name).read_text(encoding="utf-8"))
    graph, lowering = lower_to_graph(doc)
    assert not lowering, f"lowering diagnostics on corpus {name}: {lowering}"
    return graph


def load_workflow_gen():
    """The benchmark's seeded workflow-source generator, ``bench/workflow_gen.py``."""
    import sys

    bench_dir = str(CORPUS_DIR.parent / "bench")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import workflow_gen

    return workflow_gen


def vote_registry(tmp_path):
    """The default registry plus ``VoteOp``: a variadic solution port (min 2) and a problem port."""
    cfg = tmp_path / "vote.cfg"
    cfg.write_text(
        Path(registry_module.__file__).with_name("registry.cfg").read_text(encoding="utf-8")
        + "\n[kind:VoteOp]\ninputs =\n\tsolution accepts=solution variadic min=2\n"
        "\tproblem accepts=problem\noutput = solution\n",
        encoding="utf-8",
    )
    return registry_module.load_registry(cfg)


def rebuilt(graph, **parts):
    """``graph`` built again from its nodes, edges, prompts and domain, ``parts`` replacing some."""
    kwargs = {"nodes": graph.nodes, "edges": graph.edges, "prompts": graph.prompts, "domain": graph.domain}
    return WorkflowGraph(**{**kwargs, **parts}, registry=graph.registry)


def lowering(graph):
    """``graph``'s IR repr, program and prompt module, or the message lowering refuses it with."""
    try:
        ir = lower_to_ir(graph)
    except EmissionError as exc:
        return f"refused ({type(exc).__name__}): {exc}"
    return (repr(ir), *emit(ir))


def assert_memos_exact(graph) -> None:
    """Every table and memo of ``graph``, inherited or not, equals a fresh build's of the same value.

    The tables must match in key order too. Findings and the node lines are
    compared after ``soft_check`` and ``serialize_workflow`` have run on
    both graphs (the fresh build gets its own prompt table), so an entry
    ``graph`` inherited is compared as it was inherited, and every other
    entry as the graph computed it. The prompt-ref table is compared when
    first read, before ``graph`` is lowered. Call steps are taken before
    that, and each one ``graph`` holds is compared with the fresh build's
    (whenever a fresh lowering keeps any: it lowers, with every binding name
    ``<id>_result``). The topological order is compared when the graph has one.
    """
    calls = dict(graph._calls)
    fresh = rebuilt(graph, prompts=PromptTable(graph.prompts.entries))
    assert graph.prompt_ref_table() == fresh.prompt_ref_table()
    assert list(prompt_refs(graph)) == list(prompt_refs(fresh))
    if not graph.cycle_nodes():
        assert graph.topological_order() == fresh.topological_order()
    assert lowering(graph) == lowering(fresh)
    if fresh._calls:
        for nid, entry in calls.items():
            assert entry == fresh._calls[nid], nid
        assert graph._calls == fresh._calls
    assert graph.nodes == fresh.nodes and graph.edges == fresh.edges
    for table in ("_by_id", "_out", "_in"):
        assert list(getattr(graph, table).items()) == list(getattr(fresh, table).items()), table
    assert graph.interface_roles() == fresh.interface_roles()
    assert graph.cycle_nodes() == fresh.cycle_nodes()
    assert soft_check(graph) == soft_check(fresh)
    assert graph._findings == fresh._findings
    assert serialize_workflow(graph) == serialize_workflow(fresh)
    assert graph._lines == fresh._lines
    for nid in graph.node_ids():
        assert graph.schema(nid) == fresh.schema(nid)
        assert bind_input_ports(graph, nid) == bind_input_ports(fresh, nid)


def shuffled_twin(graph, seed: int):
    """The same graph value built from shuffled nodes, edges, attributes and prompts."""
    rng = random.Random(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    nodes = shuffled(replace(n, attributes=dict(shuffled(n.attributes.items()))) for n in graph.nodes)
    prompts = PromptTable(dict(shuffled(graph.prompts.entries.items())))
    return WorkflowGraph(nodes, shuffled(graph.edges), prompts=prompts, domain=graph.domain)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def gsm8k():
    return load_corpus_graph("gsm8k_round16")


@pytest.fixture(scope="session")
def math_graph():
    return load_corpus_graph("math_round16")


@pytest.fixture(scope="session")
def humaneval():
    return load_corpus_graph("humaneval_round5")


@pytest.fixture(scope="session")
def mbpp():
    return load_corpus_graph("mbpp_round8")


@pytest.fixture(scope="session")
def seed_minimal():
    return load_corpus_graph("seed_math_minimal")


@pytest.fixture(scope="session")
def corpus_graphs(gsm8k, math_graph, humaneval, mbpp):
    return {
        "gsm8k_round16": gsm8k,
        "math_round16": math_graph,
        "humaneval_round5": humaneval,
        "mbpp_round8": mbpp,
    }
