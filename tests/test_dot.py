from __future__ import annotations

import hashlib
from pathlib import Path

import flowevo
from flowevo import load_registry, lower_to_graph, parse_workflow, serialize_workflow
from flowevo.dot import export_dot

from conftest import CORPUS_NAMES, corpus_path, load_corpus_graph


def test_export_dot_digest_golden():
    # pinned from the export whose fills and shapes were a table in the DOT module
    digest = hashlib.sha256()
    for name in CORPUS_NAMES:
        digest.update(export_dot(load_corpus_graph(name)).encode())
    assert digest.hexdigest() == "750be30d413b11af6e5127bb0fc6f438ca8786f4115156b238a834147c4c91d7"


def test_export_dot_follows_custom_registry(tmp_path):
    # restyle CustomOp: a new fill, and the DecisionOp style class, which
    # the serializer declares as a diamond
    shipped = Path(flowevo.__file__).with_name("registry.cfg").read_text(encoding="utf-8")
    section = shipped.index("[kind:CustomOp]")
    end = shipped.index("[kind:", section + 1)
    restyled = (
        shipped[section:end]
        .replace("style_class = CustomOp", "style_class = DecisionOp")
        .replace("fill:#d0e1f9", "fill:#123456")
    )
    path = tmp_path / "restyled.cfg"
    path.write_text(shipped[:section] + restyled + shipped[end:], encoding="utf-8")
    doc = parse_workflow(corpus_path("gsm8k_round16").read_text(encoding="utf-8"))
    graph, _ = lower_to_graph(doc, registry=load_registry(path))

    custom = sorted(n.id for n in graph.nodes if n.kind == "CustomOp")
    assert custom
    lines = export_dot(graph).splitlines()
    source = serialize_workflow(graph)
    for nid in custom:
        (line,) = [l for l in lines if l.startswith(f"  {nid} [")]
        assert line.endswith('shape=diamond, fillcolor="#123456"];')
        assert f"\n  {nid}{{" in source
