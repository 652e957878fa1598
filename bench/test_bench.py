"""Checks on the benchmark's own parts: input generator, stub adapter, spec.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import random
from pathlib import Path

import pytest

import run
import stub_adapter
import workflow_gen
from flowevo.mermaid import lower_to_graph, parse_workflow, serialize_workflow
from flowevo.validator import validate

ROOT = Path(__file__).resolve().parent.parent
GSM8K = ROOT / "corpus" / "gsm8k_round16.mmd"
SIZES = (6, 7, 10, 37, 100, 200)


@pytest.mark.parametrize("nodes", SIZES)
def test_generated_workflow_is_valid_with_exact_size(nodes):
    for seed in range(3):
        source = workflow_gen.generate(nodes, random.Random(seed), f"t{seed}")
        verdict = validate(source.text)
        assert verdict.q == 1, verdict.render()
        assert not verdict.errors
        graph, _ = lower_to_graph(parse_workflow(source.text))
        assert len(graph.nodes) == nodes == source.nodes


@pytest.mark.parametrize("defect", workflow_gen.DEFECTS)
@pytest.mark.parametrize("nodes", SIZES)
def test_each_defect_raises_exactly_its_rules(defect, nodes):
    for seed in range(3):
        source = workflow_gen.generate(nodes, random.Random(seed), "d", defect)
        verdict = validate(source.text)
        assert verdict.q == source.expected_q == 0
        assert {d.rule for d in verdict.errors} == set(source.expected_rules), verdict.render()


def test_generation_repeats_for_a_seed_and_moves_with_it():
    def batch(seed):
        return [w.text for w in workflow_gen.check_stream_batch(random.Random(seed), 0, 20)]

    assert batch(5) == batch(5)
    assert batch(5) != batch(6)


def test_check_stream_batch_profile():
    batch = workflow_gen.check_stream_batch(random.Random(1), 0, 60)
    assert sum(w.defect is not None for w in batch) == 30
    assert {w.defect for w in batch} == {None, *workflow_gen.DEFECTS}
    assert all(10 <= w.nodes <= 200 for w in batch)
    assert min(w.nodes for w in batch) < 20 and max(w.nodes for w in batch) > 190


def test_generator_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        workflow_gen.generate(workflow_gen.MIN_NODES - 1, random.Random(0), "x")


def test_stub_adapter_edits_are_deterministic_and_mostly_valid():
    canonical = serialize_workflow(lower_to_graph(parse_workflow(GSM8K.read_text(encoding="utf-8")))[0])
    verdicts = []
    for seed in range(200):
        request = {"kind": "propose", "seed": seed, "parents": [{"source": canonical}]}
        response = stub_adapter.propose(request)
        assert response == stub_adapter.propose(json.loads(json.dumps(request)))
        q = validate(response["text"]).q
        assert q == (0 if "broken" in response["modification"] else 1), response["modification"]
        verdicts.append(q)
    assert 0.15 < verdicts.count(0) / len(verdicts) < 0.35


def test_stub_adapter_judge_and_evaluate_stay_in_range():
    source = GSM8K.read_text(encoding="utf-8")
    candidates = [{"source": source, "modification": "<modification>add ensemble branch P7</modification>"}]
    for dims in stub_adapter.judge({"candidates": candidates})["scores"]:
        assert all(1 <= v <= 10 for v in dims.values())
    assert 0.0 <= stub_adapter.evaluate({"source": source})["score"] <= 1.0


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) == run.SPEC
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in run.SPEC[key]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in run.SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in run.SPEC["end_to_end"])
