from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, PromptTable, WorkflowGraph, lower_to_graph, parse_workflow, serialize_workflow, validate
from flowevo.diagnostics import Verdict
from flowevo.engine import (
    JUDGE_DIMENSIONS,
    Candidate,
    EvolutionConfig,
    EvolutionError,
    HistoryEntry,
    JudgeScore,
    OperatorProposer,
    Proposal,
    ProposalRequest,
    StructuralJudge,
    SyntheticTaskEvaluator,
    _edit_ratio,
    _shape,
    generate_candidates,
    graph_features,
    history_to_jsonl,
    judge_select,
    load_history,
    optimize_workflow,
    run_evolution,
    save_history,
)
from flowevo.operators import OperatorKind, apply_random
from flowevo.runconfig import load_run_config
from flowevo.sampling import mixed_probabilities

from conftest import CORPUS_NAMES, load_corpus_graph, load_workflow_gen, rebuilt, shuffled_twin, vote_registry


def entry_for(graph, score=0.5):
    return HistoryEntry(workflow=graph, source=serialize_workflow(graph), score=score, round=0)


class FaultInjectingProposer:
    """Emits broken sources for the first ``failures`` tries, then a valid one."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.seen_prev_attempts = []

    def propose(self, request, rng):
        self.calls += 1
        self.seen_prev_attempts.append(request.prev_attempt)
        if self.calls <= self.failures:
            return Proposal("flowchart TD\nbroken [[\n", f"<modification>try {self.calls}</modification>")
        return Proposal(request.parents[0].source, "<modification>parent verbatim</modification>")


def checker_for(cfg):
    return lambda text: validate(text, domain=cfg.domain)


def test_optimize_succeeds_on_third_try(gsm8k):
    cfg = EvolutionConfig(num_tries=3)
    proposer = FaultInjectingProposer(failures=2)
    candidate, attempts = optimize_workflow(
        [entry_for(gsm8k)], cfg, proposer, checker_for(cfg), np.random.default_rng(0)
    )
    assert candidate is not None
    assert len(attempts) == 3
    assert [a[1].q for a in attempts] == [0, 0, 1]
    # the failed attempts' diagnostics are fed back to the proposer
    assert proposer.seen_prev_attempts[0] is None
    assert proposer.seen_prev_attempts[1] is not None
    assert proposer.seen_prev_attempts[1].errors


def test_optimize_exhaustion(gsm8k):
    cfg = EvolutionConfig(num_tries=2)
    candidate, attempts = optimize_workflow(
        [entry_for(gsm8k)], cfg, FaultInjectingProposer(failures=5), checker_for(cfg), np.random.default_rng(0)
    )
    assert candidate is None
    assert len(attempts) == 2
    assert all(a[1].q == 0 for a in attempts)


def test_operator_proposer_valid_by_construction(gsm8k, math_graph):
    cfg = EvolutionConfig()
    proposer = OperatorProposer(cfg.weights(), cfg.site_budget)
    candidate, attempts = optimize_workflow(
        [entry_for(gsm8k), entry_for(math_graph)], cfg, proposer, checker_for(cfg), np.random.default_rng(1)
    )
    assert candidate is not None and len(attempts) == 1


def test_generate_candidates_distinct(gsm8k, math_graph):
    cfg = EvolutionConfig(candidate_pool=4)
    proposer = OperatorProposer(cfg.weights(), cfg.site_budget)
    candidates = generate_candidates(
        [entry_for(gsm8k), entry_for(math_graph)],
        cfg,
        proposer,
        checker_for(cfg),
        np.random.SeedSequence(7),
    )
    assert len(candidates) == 4
    assert all(validate(c.graph).q == 1 for c in candidates)
    texts = [c.text for c in candidates]
    assert len(set(texts)) == len(texts)


def test_generate_candidates_single_slot(gsm8k):
    cfg = EvolutionConfig(candidate_pool=1)
    proposer = OperatorProposer(cfg.weights(), cfg.site_budget)
    candidates = generate_candidates(
        [entry_for(gsm8k)], cfg, proposer, checker_for(cfg), np.random.SeedSequence(3)
    )
    assert len(candidates) == 1


def test_generate_candidates_all_faulty(gsm8k):
    cfg = EvolutionConfig(candidate_pool=3, num_tries=2)
    candidates = generate_candidates(
        [entry_for(gsm8k)], cfg, FaultInjectingProposer(failures=10**9), checker_for(cfg), np.random.SeedSequence(0)
    )
    assert candidates == []


def test_judge_single_candidate(gsm8k):
    candidate = Candidate(gsm8k, serialize_workflow(gsm8k), "<modification>x</modification>")
    best, scores = judge_select([candidate], [entry_for(gsm8k)], [], StructuralJudge())
    assert best == 0
    assert 5 <= scores[0].total <= 50


def test_judge_fuller_ensemble_wins(gsm8k):
    # drop P5's ensemble feed and P5 itself to stay valid
    trimmed_edges = tuple(e for e in gsm8k.edges if "P5" not in (e.source, e.target))
    trimmed_nodes = tuple(n for n in gsm8k.nodes if n.id != "P5")
    near = rebuilt(gsm8k, nodes=trimmed_nodes, edges=trimmed_edges)
    # reduce further to exactly the minimum fan-in of 2
    for victim in ("P2", "P3", "P4"):
        near = rebuilt(
            near,
            nodes=tuple(n for n in near.nodes if n.id != victim),
            edges=tuple(e for e in near.edges if victim not in (e.source, e.target)),
        )
    assert validate(near).q == 1

    judge = StructuralJudge()
    parents = [entry_for(gsm8k)]
    full_candidate = Candidate(gsm8k, serialize_workflow(gsm8k), "<modification>full</modification>")
    near_candidate = Candidate(near, serialize_workflow(near), "<modification>near</modification>")
    scores = judge.score_candidates([full_candidate, near_candidate], parents, [])
    assert (
        scores[0].dims["workflow_coherence"] > scores[1].dims["workflow_coherence"]
    )


def test_judge_near_miss_counts_sources_bound_to_the_variadic_port(tmp_path):
    # V is at exactly its W5 minimum of two solution sources; its problem
    # edge lands on another port, so the in-degree of 3 must not hide that
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "x"}),
            Node("V", "VoteOp"),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("PROBLEM", "B", "input"),
            Edge("A", "V", "solution"),
            Edge("B", "V", "solution"),
            Edge("PROBLEM", "V", "problem"),
            Edge("V", "RETURN"),
        ],
        prompts=PromptTable({"x": "solve"}),
        registry=vote_registry(tmp_path),
    )
    verdict = validate(graph)
    assert verdict.q == 1 and verdict.diagnostics == ()
    assert graph.in_degree("V") == 3
    assert StructuralJudge()._coherence(graph) == 8


def test_judge_tie_breaks_to_first(gsm8k):
    candidate = Candidate(gsm8k, serialize_workflow(gsm8k), "<modification>same</modification>")
    best, _ = judge_select([candidate, candidate], [entry_for(gsm8k)], [], StructuralJudge())
    assert best == 0


def test_judge_treats_non_ascii_prompt_value_as_inline_text():
    # the judge and the validator agree on what a prompt reference is
    from flowevo import Edge, Node, WorkflowGraph

    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("C", "CustomOp", {"role": "café"}), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "C"), Edge("C", "RETURN")],
    )
    candidate = Candidate(graph, serialize_workflow(graph), "<modification>x</modification>")
    (score,) = StructuralJudge().score_candidates([candidate], [], [])
    assert score.dims["prompt_quality"] == 5  # no references at all


def _counter_edit_ratio(g1, g2) -> float:
    """The edit ratio as the judge computed it from two graphs, with edge Counters."""
    n1 = {(n.id, n.kind, tuple(n.attributes.items())) for n in g1.nodes}
    n2 = {(n.id, n.kind, tuple(n.attributes.items())) for n in g2.nodes}
    e1, e2 = g1.edge_multiset(), g2.edge_multiset()
    edge_diff = sum((e1 - e2).values()) + sum((e2 - e1).values())
    numerator = len(n1 ^ n2) + edge_diff
    denominator = len(n1) + len(n2) + sum(e1.values()) + sum(e2.values())
    return numerator / denominator if denominator else 0.0


def _assert_edit_ratio_exact(g1, g2) -> None:
    assert _edit_ratio(_shape(g1), _shape(g2)) == _counter_edit_ratio(g1, g2)


def test_edit_ratio_matches_the_counter_formula_on_corpus_pairs(corpus_graphs):
    for g1 in corpus_graphs.values():
        for g2 in corpus_graphs.values():
            _assert_edit_ratio_exact(g1, g2)


def test_edit_ratio_matches_the_counter_formula_on_products(corpus_graphs):
    graphs = [corpus_graphs[name] for name in sorted(corpus_graphs)]
    checked = 0
    for i, primary in enumerate(graphs):
        partner = graphs[(i + 1) % len(graphs)]
        for seed in range(12):
            outcome = apply_random((primary, partner), np.random.default_rng(seed))
            for product in outcome.graphs:
                for parent in (primary, partner):
                    _assert_edit_ratio_exact(product, parent)
                    _assert_edit_ratio_exact(parent, product)
                    checked += 1
    assert checked >= 96


def test_judge_dims_golden(corpus_graphs):
    # frozen when apply_random drew sites one at a time: corpus graphs and
    # apply_random products scored against two corpus parents
    names = sorted(corpus_graphs)
    graphs = [corpus_graphs[name] for name in names]
    candidates = [
        Candidate(g, serialize_workflow(g), f"<modification>keep {name}</modification>")
        for name, g in zip(names, graphs)
    ]
    for seed in range(4):
        outcome = apply_random((graphs[seed], graphs[(seed + 1) % 4]), np.random.default_rng(seed))
        candidates += [Candidate(p, serialize_workflow(p), outcome.modification_record()) for p in outcome.graphs]
    scores = StructuralJudge().score_candidates(candidates, [entry_for(graphs[0]), entry_for(graphs[2])], [])
    assert [tuple(score.dims[d] for d in JUDGE_DIMENSIONS) for score in scores] == [
        (10, 1, 10, 10, 5),
        (10, 10, 10, 10, 5),
        (10, 1, 10, 10, 5),
        (10, 10, 10, 10, 5),
        (10, 2, 10, 10, 9),
        (10, 10, 10, 10, 9),
        (9, 3, 10, 10, 10),
        (10, 10, 10, 10, 9),
    ]


def test_judge_score_range_enforced():
    with pytest.raises(ValueError):
        JudgeScore({name: 0 for name in (
            "workflow_coherence", "innovation", "complexity_balance",
            "prompt_quality", "modification_rationale",
        )})
    with pytest.raises(ValueError):  # a JSON true is not the score 1
        JudgeScore(dict.fromkeys(JUDGE_DIMENSIONS, True))


def test_synthetic_evaluator_features(gsm8k, seed_minimal):
    features = graph_features(gsm8k)
    assert features == {
        "has_ensemble": True,
        "branch_count": 6,
        "refine_tail": True,
        "depth": 4,
    }
    minimal = graph_features(seed_minimal)
    assert minimal["has_ensemble"] is False
    assert minimal["depth"] == 2


def _refine_tail_by_downstream_sets(graph) -> bool:
    """The earlier definition: some ensemble has a non-interface node in ``downstream_of``."""
    ensembles = [n.id for n in graph.nodes if (s := graph.schema(n.id)) is not None and s.kind == "ScEnsembleOp"]
    schemas = (graph.schema(d) for nid in ensembles for d in graph.downstream_of(nid))
    return any(schema is None or not schema.is_interface for schema in schemas)


def _generated(size: int, seed: int):
    text = load_workflow_gen().generate(size, random.Random(seed), f"f{size}").text
    return lower_to_graph(parse_workflow(text))[0]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([*CORPUS_NAMES, 12, 40, 150]), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_refine_tail_matches_the_downstream_set_definition(source, seed, steps):
    graph = _generated(source, seed) if isinstance(source, int) else load_corpus_graph(source)
    rng = np.random.default_rng(seed)
    for _ in range(steps + 1):
        assert graph_features(graph)["refine_tail"] == _refine_tail_by_downstream_sets(graph)
        outcome = apply_random(graph, rng)
        if outcome is None:
            break
        graph = outcome.graphs[0]


def test_a_cycle_back_into_the_ensemble_is_no_refine_tail(gsm8k):
    # the ensemble is downstream of itself here, which does not count
    kept = [e for e in gsm8k.edges if "P6" not in (e.source, e.target)]
    graph = rebuilt(gsm8k, edges=kept + [Edge("ENSEMBLE", "RETURN"), Edge("RETURN", "ENSEMBLE")])
    assert graph_features(graph)["refine_tail"] is False
    assert _refine_tail_by_downstream_sets(graph) is False


_COUNT_SCHEMA_CALLS = """
import random, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workflow_gen
from flowevo import WorkflowGraph, lower_to_graph, parse_workflow
from flowevo.engine import graph_features
texts = [path.read_text(encoding="utf-8") for path in sorted(Path(sys.argv[2]).glob("*.mmd"))]
texts += [workflow_gen.generate(12 + seed, random.Random(seed), "h").text for seed in range(8)]
graphs = [lower_to_graph(parse_workflow(text))[0] for text in texts]
calls, schema = [0], WorkflowGraph.schema
def counted(graph, node_id):
    calls[0] += 1
    return schema(graph, node_id)
WorkflowGraph.schema = counted
for graph in graphs:
    graph_features(graph)
    print(calls[0])
"""


def test_graph_features_costs_the_same_under_any_hash_seed(corpus_dir):
    # the running count of schema lookups after each graph, in two processes
    # whose string hashes differ
    root = Path(__file__).resolve().parent.parent
    counts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-c", _COUNT_SCHEMA_CALLS, str(root / "bench"), str(corpus_dir)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        counts.append(run.stdout.split())
    assert counts[0] == counts[1] and len(counts[0]) == 13


def test_a_cyclic_graph_has_depth_zero(gsm8k):
    cyclic = rebuilt(gsm8k, edges=gsm8k.edges + (Edge("P6", "C"),))
    assert cyclic.cycle_nodes()
    features = graph_features(cyclic)
    assert features["depth"] == 0
    assert features["has_ensemble"] is True


def test_synthetic_evaluator_scores(gsm8k, seed_minimal):
    evaluator = SyntheticTaskEvaluator("math_ensemble_refine")
    assert 0.0 <= evaluator.evaluate(seed_minimal) <= 1.0
    assert evaluator.evaluate(gsm8k) > evaluator.evaluate(seed_minimal)
    # deterministic
    assert evaluator.evaluate(gsm8k) == evaluator.evaluate(gsm8k)


def test_run_evolution_zero_rounds(seed_minimal):
    cfg = EvolutionConfig(max_rounds=0, seed=1)
    result = run_evolution(
        [seed_minimal], cfg, OperatorProposer(cfg.weights()), StructuralJudge(), SyntheticTaskEvaluator()
    )
    assert len(result.history) == 1
    assert result.history[0].round == 0
    assert result.history[0].modification == "seed"


def test_run_evolution_demo_improves(seed_minimal):
    cfg = EvolutionConfig(max_rounds=20, candidate_pool=4, seed=3)
    result = run_evolution(
        [seed_minimal],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator("math_ensemble_refine"),
    )
    scores = [e.score for e in result.history]
    assert len(result.history) <= 21
    running = []
    best = 0.0
    for s in scores:
        best = max(best, s)
        running.append(best)
    assert running == sorted(running)
    assert max(scores) > scores[0]
    # every inserted entry validates and carries lineage
    for entry in result.history[1:]:
        assert validate(entry.workflow).q == 1
        assert entry.parents
        assert entry.modification


def test_run_evolution_replay_byte_identical(seed_minimal):
    cfg = EvolutionConfig(max_rounds=8, seed=11)
    args = (
        [seed_minimal],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator("math_ensemble_refine"),
    )
    first = run_evolution(*args)
    second = run_evolution(*args)
    assert history_to_jsonl(first.history) == history_to_jsonl(second.history)


@pytest.mark.parametrize("seed", range(6))
def test_run_evolution_replay_depends_only_on_the_seed_value(gsm8k, seed):
    cfg = EvolutionConfig(max_rounds=12, candidate_pool=4, seed=seed)

    def run(seed_graph):
        result = run_evolution(
            [seed_graph],
            cfg,
            OperatorProposer(cfg.weights(), cfg.site_budget),
            StructuralJudge(),
            SyntheticTaskEvaluator("math_ensemble_refine"),
        )
        return history_to_jsonl(result.history)

    assert run(shuffled_twin(gsm8k, seed)) == run(gsm8k)


def test_run_evolution_rejects_invalid_seed(gsm8k):
    broken = rebuilt(gsm8k, edges=tuple(e for e in gsm8k.edges if e.source != "P6"))
    cfg = EvolutionConfig(max_rounds=1)
    with pytest.raises(EvolutionError, match="seed workflow does not validate"):
        run_evolution([broken], cfg, OperatorProposer(), StructuralJudge(), SyntheticTaskEvaluator())


def test_history_round_trip(tmp_path, seed_minimal):
    cfg = EvolutionConfig(max_rounds=4, seed=5)
    result = run_evolution(
        [seed_minimal],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator("math_ensemble_refine"),
    )
    path = tmp_path / "history.jsonl"
    save_history(result.history, path)
    loaded = load_history(path, domain="math")
    assert len(loaded) == len(result.history)
    for original, restored in zip(result.history, loaded):
        assert restored.workflow == original.workflow
        assert restored.score == original.score
        assert restored.parents == original.parents


def test_constant_evaluator_uniform_sampling(gsm8k):
    # with equal scores, the softmax term is uniform, so the mix is uniform
    history = [entry_for(gsm8k, score=0.5) for _ in range(4)]
    probs = mixed_probabilities([e.score for e in history], 0.3, 5.0)
    assert np.allclose(probs, [0.25] * 4, atol=1e-12)
    rng = np.random.default_rng(9)
    draws = rng.choice(4, size=10000, p=probs)
    for i in range(4):
        observed = (draws == i).mean()
        sigma = math.sqrt(0.25 * 0.75 / 10000)
        assert abs(observed - 0.25) < 3 * sigma + 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="lambda"):
        EvolutionConfig(lambda_=1.5)
    with pytest.raises(ValueError, match="candidate_pool"):
        EvolutionConfig(candidate_pool=0)
    # 0 would skip every operator, -1 would quietly try all sites but one
    for budget in (0, -1):
        with pytest.raises(ValueError, match="site_budget"):
            EvolutionConfig(site_budget=budget)
    with pytest.raises(ValueError, match="sum to 1"):
        EvolutionConfig(operator_weights={"substitution": 0.5})
    with pytest.raises(ValueError, match="max_rounds"):
        EvolutionConfig(max_rounds=-1)
    with pytest.raises(ValueError, match="seed"):
        EvolutionConfig(seed=-1)
    for alpha in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            EvolutionConfig(alpha=alpha)
    for rate in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="crossover_rate"):
            EvolutionConfig(crossover_rate=rate)
    # sums to 1, but a negative weight would silently drop its kind
    with pytest.raises(ValueError, match="deletion must be finite and nonnegative"):
        EvolutionConfig(operator_weights={"substitution": 1.5, "deletion": -0.5})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="substitution must be finite and nonnegative"):
            EvolutionConfig(operator_weights={"substitution": bad, "deletion": 1.0})


def test_history_entry_score_bounds(gsm8k):
    with pytest.raises(ValueError, match="score"):
        HistoryEntry(workflow=gsm8k, source="", score=1.5, round=0)


def test_history_grows_one_per_successful_round(seed_minimal):
    cfg = EvolutionConfig(max_rounds=10, seed=2)
    result = run_evolution(
        [seed_minimal],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator("math_ensemble_refine"),
    )
    ok_rounds = [r for r in result.rounds if r.status == "ok"]
    assert len(result.history) == 1 + len(ok_rounds)
    rounds_seen = [e.round for e in result.history]
    assert rounds_seen == sorted(rounds_seen)


def test_candidate_slots_are_order_independent(gsm8k, math_graph):
    # each candidate slot depends only on its own split rng stream, so
    # evaluating a slot in isolation reproduces the batch result
    cfg = EvolutionConfig(candidate_pool=4)
    proposer = OperatorProposer(cfg.weights(), cfg.site_budget)
    checker = checker_for(cfg)
    parents = [entry_for(gsm8k), entry_for(math_graph)]
    seq = np.random.SeedSequence(21)
    batch = generate_candidates(parents, cfg, proposer, checker, seq)
    streams = np.random.SeedSequence(21).spawn(cfg.candidate_pool * 2)
    for i in (2, 0, 3, 1):
        solo, _ = optimize_workflow(parents, cfg, proposer, checker, np.random.default_rng(streams[i]))
        assert solo is not None
        if batch[i].text != solo.text:
            # slot was resampled by the duplicate rule; recompute that path
            retry, _ = optimize_workflow(
                parents, cfg, proposer, checker, np.random.default_rng(streams[cfg.candidate_pool + i])
            )
            assert retry is not None and batch[i].text == retry.text


def test_demo_trajectory_golden(seed_minimal):
    # frozen when apply_random drew sites one at a time: the seed-3 demo run's
    # exact score trajectory; any drift means run semantics changed
    cfg = EvolutionConfig(max_rounds=20, candidate_pool=4, seed=3)
    result = run_evolution(
        [seed_minimal],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator("math_ensemble_refine"),
    )
    assert [e.score for e in result.history] == [
        0.175, 0.4, 0.225, 0.225, 0.45, 0.45, 0.45, 0.275, 0.45, 0.45,
        0.225, 0.275, 0.4, 0.45, 0.45, 0.45, 0.45, 0.45, 0.275, 1.0,
        0.65,
    ]
    digest = hashlib.sha256(history_to_jsonl(result.history).encode()).hexdigest()
    assert digest == "512ea28dbdaea4ca487d33973aa5e98434aa914271c6a25df653672fdfea382b"


def test_code_domain_evolution(humaneval):
    # the code scenario exercises test/codegen kinds and code-only motifs
    cfg = EvolutionConfig(
        max_rounds=10, candidate_pool=4, seed=5, domain="code", scenario="code_test_tail"
    )
    result = run_evolution(
        [humaneval],
        cfg,
        OperatorProposer(cfg.weights(), cfg.site_budget),
        StructuralJudge(),
        SyntheticTaskEvaluator(cfg.scenario),
    )
    assert len(result.history) == 11
    for entry in result.history:
        assert validate(entry.workflow).q == 1
        assert entry.workflow.domain == "code"


def test_passing_verdict_without_graph_is_rejected(gsm8k):
    cfg = EvolutionConfig(num_tries=2)

    def checker(text):
        verdict = validate(text, domain=cfg.domain)
        return Verdict(verdict.q, verdict.diagnostics)  # drops the graph

    with pytest.raises(EvolutionError, match="without the graph"):
        optimize_workflow(
            [entry_for(gsm8k)], cfg, FaultInjectingProposer(failures=0), checker, np.random.default_rng(0)
        )


def test_candidate_graph_is_the_checked_graph(gsm8k):
    cfg = EvolutionConfig()
    verdicts = []

    def checker(text):
        verdicts.append(validate(text, domain=cfg.domain))
        return verdicts[-1]

    candidate, _ = optimize_workflow(
        [entry_for(gsm8k)], cfg, FaultInjectingProposer(failures=1), checker, np.random.default_rng(0)
    )
    assert candidate.graph is verdicts[-1].graph


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo_math.cfg"


class TextOnlyProposer:
    """Forwards another proposer's proposals without their graphs, forcing the text check."""

    def __init__(self, inner):
        self.inner = inner

    def propose(self, request, rng):
        return dataclasses.replace(self.inner.propose(request, rng), graph=None)


def run_demo_config(wrap=lambda proposer: proposer, checker=None, **overrides):
    config = load_run_config(DEMO_CONFIG)
    cfg = dataclasses.replace(config.evolution, **overrides)
    seeds = [
        lower_to_graph(parse_workflow((DEMO_CONFIG.parent / p).read_text(encoding="utf-8")), domain=cfg.domain)[0]
        for p in config.seeds
    ]
    return run_evolution(
        seeds,
        cfg,
        wrap(OperatorProposer(cfg.weights(), cfg.site_budget)),
        StructuralJudge(),
        SyntheticTaskEvaluator(cfg.scenario),
        checker,
    )


def count_checks(monkeypatch, wrap):
    """Parse, lower and checker calls of a 10-round demo run."""
    from flowevo import engine, validator

    calls = {"parse": 0, "lower": 0, "check": 0}

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (engine, validator):
        monkeypatch.setattr(module, "parse_workflow", counting("parse", parse_workflow))
        monkeypatch.setattr(module, "lower_to_graph", counting("lower", lower_to_graph))
    checker = counting("check", lambda text: validate(text, domain="math"))
    result = run_demo_config(wrap, checker, max_rounds=10)
    assert len(result.history) > 1
    return calls


def test_operator_proposals_are_neither_parsed_nor_lowered_nor_text_checked(monkeypatch):
    # an OperatorProposer proposal carries its guarded graph: the loop reads
    # that graph's memoized verdict and keeps the proposer's text
    assert count_checks(monkeypatch, lambda proposer: proposer) == {"parse": 0, "lower": 0, "check": 0}


def test_text_proposals_are_parsed_and_lowered_once_per_check(monkeypatch):
    # proposal text is parsed and lowered once, by the checker; the engine
    # keeps the graph the checker built
    calls = count_checks(monkeypatch, TextOnlyProposer)
    assert calls["parse"] == calls["lower"] == calls["check"] >= 1


@pytest.mark.parametrize("seed", range(6))
def test_graph_and_text_check_paths_keep_the_same_history(seed):
    carried = run_demo_config(seed=seed)
    text_only = run_demo_config(TextOnlyProposer, seed=seed)

    def digest(result):
        return hashlib.sha256(history_to_jsonl(result.history).encode()).hexdigest()

    assert digest(carried) == digest(text_only)


CORPUS_PARENTS = {name: load_corpus_graph(name) for name in CORPUS_NAMES}


def check_carried_graph(proposal):
    graph = proposal.graph
    assert graph is not None
    assert proposal.text == serialize_workflow(graph)
    doc = parse_workflow(proposal.text)
    assert lower_to_graph(doc, registry=graph.registry, domain=graph.domain)[0] == graph
    assert validate(proposal.text, registry=graph.registry, domain=graph.domain).q == 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(CORPUS_NAMES),
    st.one_of(st.none(), st.sampled_from(CORPUS_NAMES)),
)
def test_operator_proposals_carry_the_graph_they_serialize(seed, primary, partner):
    names = (primary,) if partner is None else (primary, partner)
    request = ProposalRequest(tuple(entry_for(CORPUS_PARENTS[n]) for n in names), "math")
    cfg = EvolutionConfig()
    proposal = OperatorProposer(cfg.weights(), cfg.site_budget).propose(request, np.random.default_rng(seed))
    check_carried_graph(proposal)
    if proposal.applied is None:
        assert proposal.graph is CORPUS_PARENTS[primary]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_reproposed_parent_carries_its_graph(name):
    # crossover is the only weighted kind and needs a partner, so no rewrite
    # applies to a single parent
    parent = CORPUS_PARENTS[name]
    request = ProposalRequest((entry_for(parent),), parent.domain)
    proposal = OperatorProposer({OperatorKind.CROSSOVER: 1.0}).propose(request, np.random.default_rng(0))
    assert proposal.modification == "<modification>no applicable rewrite; parent reproposed</modification>"
    assert proposal.applied is None and proposal.graph is parent
    check_carried_graph(proposal)


def test_evolution_config_operator_weights_are_read_only():
    weights = {"substitution": 0.5, "deletion": 0.5}
    cfg = EvolutionConfig(operator_weights=weights)
    weights["deletion"] = -7.0
    weights["addition"] = 1.0
    assert cfg.operator_weights == {OperatorKind.SUBSTITUTION: 0.5, OperatorKind.DELETION: 0.5}
    with pytest.raises(TypeError):
        cfg.operator_weights[OperatorKind.DELETION] = 1.0
    # weights() hands out a copy
    cfg.weights()[OperatorKind.DELETION] = 1.0
    assert cfg.weights() == {OperatorKind.SUBSTITUTION: 0.5, OperatorKind.DELETION: 0.5}


def test_judge_score_dims_are_read_only():
    dims = dict.fromkeys(JUDGE_DIMENSIONS, 5)
    score = JudgeScore(dims)
    dims["innovation"] = 99
    assert score.dims["innovation"] == 5 and score.total == 25
    with pytest.raises(TypeError):
        score.dims["innovation"] = 10
