"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them live). Budgets are wall-clock upper bounds asserted after the
work completes.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowevo import (
    Edge,
    Node,
    WorkflowGraph,
    hard_check,
    lower_to_graph,
    parse_workflow,
    serialize_workflow,
    validate,
)
from flowevo.codegen import CallStep, emit, lower_to_ir, structural_diff
from flowevo.dot import export_dot
from flowevo.engine import (
    EvolutionConfig,
    HistoryEntry,
    OperatorProposer,
    ProposalRequest,
    StructuralJudge,
    SyntheticTaskEvaluator,
    history_to_jsonl,
    run_evolution,
)
from flowevo.operators import (
    OperatorKind,
    OperatorPreconditionError,
    RewriteRejectedError,
    add_node,
    apply_random,
    crossover,
    default_operator_weights,
    delete_node,
)
from flowevo.registry import NodeTypeSchema, OutputSpec, PortSpec, Registry
from flowevo.sampling import mixed_probabilities, sample_parent, sample_parent_indices

from conftest import CORPUS_NAMES, corpus_path, load_corpus_graph
from oracle import naive_rule_pairs


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[criterion {number}] FAIL {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"\n[criterion {number}] FAIL {description} (budget {budget_seconds}s, took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"\n[criterion {number}] PASS {description} ({elapsed:.2f}s)")


# -- criterion 1: corpus validity ---------------------------------------------------


def test_c1_corpus_validity():
    with criterion(1, "corpus validity: parse, hard+soft check, round-trip, DOT", 1.0):
        expected_shape = {
            "gsm8k_round16": (10, 14),
            "math_round16": (10, 14),
            "humaneval_round5": (9, 13),
            "mbpp_round8": (9, 14),
        }
        for name in CORPUS_NAMES:
            text = corpus_path(name).read_text(encoding="utf-8")
            ok, diags = hard_check(text)
            assert ok, f"{name}: {[d.render() for d in diags]}"
            verdict = validate(text)
            assert verdict.q == 1, f"{name}: {verdict.render()}"
            graph, lowering = lower_to_graph(parse_workflow(text))
            assert not lowering
            assert (len(graph.nodes), len(graph.edges)) == expected_shape[name]
            relowered, _ = lower_to_graph(
                parse_workflow(serialize_workflow(graph)), domain=graph.domain
            )
            assert relowered == graph, f"{name}: round-trip changed the graph"
            dot = export_dot(graph)
            assert dot.count("->") == len(graph.edges)


# -- criterion 2: validator oracle equivalence --------------------------------------


ENUM_REGISTRY = Registry(
    [
        NodeTypeSchema(kind="InterfaceEntry", interface_role="entry", style_class="Interface", insertable=False),
        NodeTypeSchema(
            kind="CustomOp",
            input_ports=(PortSpec("input", accepts=("any",)),),
            output_port=OutputSpec("solution"),
            style_class="CustomOp",
        ),
        NodeTypeSchema(kind="InterfaceExit", interface_role="exit", style_class="Interface", insertable=False),
    ]
)
ENUM_KINDS = ("InterfaceEntry", "CustomOp", "InterfaceExit")
ORACLE_PORTS = {"InterfaceEntry": 0, "CustomOp": 1, "InterfaceExit": 0}


def _compositions(n: int):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield (a, b, n - a - b)


def _kind_list(comp):
    a, b, c = comp
    return ["InterfaceEntry"] * a + ["CustomOp"] * b + ["InterfaceExit"] * c


def _production_pairs(kinds, edge_pairs) -> set:
    nodes = [Node(f"N{i}", kind) for i, kind in enumerate(kinds)]
    edges = [Edge(f"N{i}", f"N{j}") for i, j in edge_pairs]
    graph = WorkflowGraph(nodes, edges, domain="math", registry=ENUM_REGISTRY)
    verdict = validate(graph)
    return {(d.rule, d.subject) for d in verdict.diagnostics if d.is_error}


def _oracle_pairs(kinds, edge_pairs) -> set:
    return naive_rule_pairs(
        kinds, list(edge_pairs), {"InterfaceEntry"}, {"InterfaceExit"}, ORACLE_PORTS
    )


def _within_kind_permutations(comp):
    """Node-index permutations that permute only same-kind blocks."""
    a, b, c = comp
    blocks = []
    offset = 0
    for size in (a, b, c):
        blocks.append(list(range(offset, offset + size)))
        offset += size
    perms = []
    for parts in itertools.product(*(itertools.permutations(block) for block in blocks)):
        mapping = list(itertools.chain.from_iterable(parts))
        if mapping != list(range(offset)):
            perms.append(mapping)
    return perms


def _canonical_masks(n, pairs, comp, max_edges):
    """Masks (as index tuples) minimal within their within-kind-permutation orbit."""
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    subsets = []
    for size in range(0, max_edges + 1):
        subsets.extend(itertools.combinations(range(len(pairs)), size))
    perms = _within_kind_permutations(comp)
    if not perms:
        return subsets
    masks = np.array(
        [sum(1 << i for i in subset) for subset in subsets], dtype=np.uint32
    )
    bits = [(masks >> i) & np.uint32(1) for i in range(len(pairs))]
    keep = np.ones(len(masks), dtype=bool)
    for mapping in perms:
        target = [pair_index[(mapping[i], mapping[j])] for (i, j) in pairs]
        permuted = np.zeros_like(masks)
        for source_bit, target_bit in enumerate(target):
            permuted |= bits[source_bit] << np.uint32(target_bit)
        keep &= masks <= permuted
    return [subset for subset, keeping in zip(subsets, keep) if keeping]


def test_c2_validator_oracle_equivalence():
    with criterion(2, "validator agrees with the naive W-rule oracle on the full enumeration", 60.0):
        checked = 0

        def check(kinds, edge_pairs):
            nonlocal checked
            production = _production_pairs(kinds, edge_pairs)
            expected = _oracle_pairs(kinds, edge_pairs)
            assert production == expected, (
                f"divergence on kinds={kinds} edges={edge_pairs}: "
                f"production={sorted(production, key=repr)} oracle={sorted(expected, key=repr)}"
            )
            checked += 1

        # n <= 3: full edge universe including self-loops
        for n in range(0, 4):
            pairs = [(i, j) for i in range(n) for j in range(n)]
            for comp in _compositions(n):
                kinds = _kind_list(comp)
                for size in range(0, min(6, len(pairs)) + 1):
                    for subset in itertools.combinations(range(len(pairs)), size):
                        check(kinds, [pairs[i] for i in subset])

        # n = 4: full universe without self-loops
        pairs4 = [(i, j) for i in range(4) for j in range(4) if i != j]
        for comp in _compositions(4):
            kinds = _kind_list(comp)
            for size in range(0, 7):
                for subset in itertools.combinations(range(len(pairs4)), size):
                    check(kinds, [pairs4[i] for i in subset])

        # n = 5: canonical representatives under within-kind node exchange
        pairs5 = [(i, j) for i in range(5) for j in range(5) if i != j]
        for comp in _compositions(5):
            kinds = _kind_list(comp)
            for subset in _canonical_masks(5, pairs5, comp, 6):
                check(kinds, [pairs5[i] for i in subset])

        # duplicated-edge sweep (multiset edges are not expressible as subsets)
        pairs3 = [(i, j) for i in range(3) for j in range(3)]
        for comp in _compositions(3):
            kinds = _kind_list(comp)
            for pair in pairs3:
                check(kinds, [pair, pair])

        # the quotient is justified by rename-invariance: spot-check it
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            kinds = [ENUM_KINDS[int(rng.integers(3))] for _ in range(n)]
            m = int(rng.integers(0, 7))
            edge_pairs = [
                (int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)
            ]
            mapping = list(rng.permutation(n))
            renamed_kinds = [None] * n
            for i, kind in enumerate(kinds):
                renamed_kinds[mapping[i]] = kind
            renamed_edges = [(mapping[i], mapping[j]) for i, j in edge_pairs]

            def rename_pair(pair):
                rule, subject = pair
                if subject is None or subject in ("PROBLEM", "RETURN"):
                    return pair
                if "->" in subject:
                    left, right = subject.split("->")
                    return (rule, f"N{mapping[int(left[1:])]}->N{mapping[int(right[1:])]}")
                return (rule, f"N{mapping[int(subject[1:])]}")

            original = _production_pairs(kinds, edge_pairs)
            renamed = _production_pairs(renamed_kinds, renamed_edges)
            assert {rename_pair(p) for p in original} == renamed
            checked += 1

        assert checked > 150_000, f"enumeration unexpectedly small: {checked}"
        print(f"  [criterion 2] {checked} instances compared")


# -- criterion 3: closure under randomized rewriting ---------------------------------


def test_c3_closure_under_operators():
    with criterion(3, "closure: 1000 randomized operator applications per corpus seed", 120.0):
        weights = default_operator_weights(0.10)
        accepted_total = 0
        for seed_index, name in enumerate(CORPUS_NAMES):
            seed_graph = load_corpus_graph(name)
            rng = np.random.default_rng(np.random.SeedSequence([97, seed_index]))
            applications = 0
            current, partner = seed_graph, seed_graph
            while applications < 1000:
                if applications % 125 == 0:
                    current, partner = seed_graph, seed_graph  # bound structural growth
                outcome = apply_random((current, partner), rng, weights)
                applications += 1
                if outcome is None:
                    continue
                for product in outcome.graphs:
                    assert validate(product).q == 1, (
                        f"{name}: {outcome.applied.value} produced an invalid graph"
                    )
                accepted_total += 1
                partner, current = current, outcome.graphs[0]

                if applications % 50 == 0:
                    # force a rejection and verify no partial rewrite leaked out
                    before = current.structural_signature()
                    target_edge = next(
                        (
                            e
                            for e in current.edges
                            if current.registry.get(current.node(e.source).kind) is not None
                            and not current.registry.get(current.node(e.source).kind).is_interface
                        ),
                        None,
                    )
                    if target_edge is not None:
                        with pytest.raises((RewriteRejectedError, OperatorPreconditionError)):
                            add_node(
                                current,
                                (target_edge.source, target_edge.target, target_edge.label),
                                Node("REJECT_PROBE", "ScEnsembleOp"),
                            )
                        assert current.structural_signature() == before
                        assert validate(current).q == 1
        assert accepted_total >= 3600, f"too few accepted rewrites: {accepted_total}"
        print(f"  [criterion 3] {accepted_total} accepted products, all q=1")


# -- criterion 4: sampling distribution ----------------------------------------------


def test_c4_sampling_distribution(gsm8k):
    with criterion(4, "P_mixed matches closed form; 1e6 draws within 3 sigma per bucket", 30.0):
        scores = [0.9, 0.8, 0.7]
        history = [
            HistoryEntry(workflow=gsm8k, source="", score=s, round=i)
            for i, s in enumerate(scores)
        ]
        for lam in (0.0, 0.3, 0.5, 1.0):
            for alpha in (0.0, 1.0, 5.0):
                probs = mixed_probabilities(scores, lam, alpha)
                assert abs(probs.sum() - 1.0) < 1e-12

                exps = [math.exp(alpha * s) for s in scores]
                total = sum(exps)
                closed_form = [lam / 3 + (1 - lam) * e / total for e in exps]
                assert np.allclose(probs, closed_form, atol=1e-12)

                cfg = EvolutionConfig(lambda_=lam, alpha=alpha)
                rng = np.random.default_rng(
                    np.random.SeedSequence([41, int(lam * 10), int(alpha)])
                )
                draws = sample_parent_indices(history, cfg, rng, size=1_000_000)
                for i, p in enumerate(closed_form):
                    observed = int((draws == i).sum())
                    sigma = math.sqrt(1_000_000 * p * (1 - p))
                    assert abs(observed - 1_000_000 * p) <= 3 * sigma + 1e-9, (
                        f"lam={lam} alpha={alpha} bucket {i}: {observed} vs {1_000_000 * p:.0f}"
                    )
                # the per-call scalar path draws from the same distribution
                scalar = np.array([sample_parent(history, cfg, rng) for _ in range(10_000)])
                for i, p in enumerate(closed_form):
                    observed = int((scalar == i).sum())
                    sigma = math.sqrt(10_000 * p * (1 - p))
                    assert abs(observed - 10_000 * p) <= 4 * sigma + 1e-9


# -- criterion 5: proposer validity rate ----------------------------------------------


def test_c5_proposer_validity_rate():
    with criterion(5, "10^4 operator-proposer candidates all validate", 60.0):
        graphs = {name: load_corpus_graph(name) for name in CORPUS_NAMES}
        parent_cycles = [
            ("gsm8k_round16", "math_round16"),
            ("math_round16", "gsm8k_round16"),
            ("humaneval_round5", "mbpp_round8"),
            ("mbpp_round8", "humaneval_round5"),
        ]
        cfg = EvolutionConfig()
        proposer = OperatorProposer(cfg.weights(), cfg.site_budget)
        rng = np.random.default_rng(np.random.SeedSequence(4242))
        valid = 0
        total = 10_000
        for i in range(total):
            first, second = parent_cycles[i % len(parent_cycles)]
            parents = (
                HistoryEntry(workflow=graphs[first], source="", score=0.5, round=0),
                HistoryEntry(workflow=graphs[second], source="", score=0.5, round=0),
            )
            domain = graphs[first].domain
            proposal = proposer.propose(ProposalRequest(parents=parents, domain=domain), rng)
            ok, _ = hard_check(proposal.text)
            if ok and validate(proposal.text, domain=domain).q == 1:
                valid += 1
        assert valid == total, f"proposer validity {valid}/{total}"
        print(f"  [criterion 5] {valid}/{total} proposals valid (rate 1.0)")


# -- criterion 6: end-to-end evolution -------------------------------------------------


def test_c6_end_to_end_evolution(seed_minimal):
    with criterion(6, "20-round evolution improves the seed and replays byte-identically", 120.0):
        cfg = EvolutionConfig(
            lambda_=0.3,
            alpha=5.0,
            candidate_pool=4,
            max_rounds=20,
            num_tries=3,
            seed=3,
            crossover_rate=0.10,
            scenario="math_ensemble_refine",
        )

        def run_once():
            return run_evolution(
                [seed_minimal],
                cfg,
                OperatorProposer(cfg.weights(), cfg.site_budget),
                StructuralJudge(),
                SyntheticTaskEvaluator(cfg.scenario),
            )

        result = run_once()
        scores = [entry.score for entry in result.history]
        assert len(result.history) <= 21  # seed + at most 20 rounds
        running = list(itertools.accumulate(scores, max))
        assert running == sorted(running), "running maximum must be non-decreasing"
        assert max(scores) > scores[0], "evolution must improve on the seed"
        for entry in result.history:
            assert validate(entry.workflow).q == 1

        replay = run_once()
        assert history_to_jsonl(result.history) == history_to_jsonl(replay.history)
        print(
            f"  [criterion 6] seed {scores[0]:.3f} -> best {max(scores):.3f} "
            f"over {len(result.history) - 1} rounds; replay identical"
        )


# -- criterion 7: codegen fidelity ------------------------------------------------------


def test_c7_codegen_fidelity():
    with criterion(7, "emission matches the graphs: empty diffs, bijection, arity", 5.0):
        for name in CORPUS_NAMES:
            graph = load_corpus_graph(name)
            ir = lower_to_ir(graph)
            program, prompt_module = emit(ir)
            report = structural_diff(program, graph)
            assert report.is_empty(), f"{name}: {report.to_dict()}"

            roles = graph.interface_roles()
            interface_ids = set(roles.entries) | set(roles.exits)
            executable = len(graph.nodes) - len(interface_ids)
            # node/call bijection: a branch step's re-test call is sugar
            assert sum(1 if isinstance(s, CallStep) else 2 for s in ir.steps) == executable

            for step in ir.call_steps():
                if step.kind == "ScEnsembleOp":
                    assert len(step.args["solutions"]) == graph.in_degree(step.node_id)

        # structural golden: the published GSM8K listing's call graph
        gsm8k = load_corpus_graph("gsm8k_round16")
        ir = lower_to_ir(gsm8k)
        kinds = [step.kind for step in ir.steps]
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
        ensemble = ir.steps[6]
        assert len(ensemble.args["solutions"]) == 6  # six-input ensemble
        refine = ir.steps[7]
        assert refine.node_id == "P6"
        assert refine.args["problem"].value == "ensemble_result['response']"  # refine tail
        assert ir.terminal == "p6_result['output']"


# -- criterion 8: operator locality and inverse properties -------------------------------


def _fixture_pool(count: int):
    fixtures = []
    per_seed = count // len(CORPUS_NAMES)
    for seed_index, name in enumerate(CORPUS_NAMES):
        seed_graph = load_corpus_graph(name)
        rng = np.random.default_rng(np.random.SeedSequence([7, seed_index]))
        current, partner = seed_graph, seed_graph
        collected = 0
        while collected < per_seed:
            if collected % 50 == 0:
                current, partner = seed_graph, seed_graph
            outcome = apply_random((current, partner), rng)
            if outcome is None:
                continue
            partner, current = current, outcome.graphs[0]
            fixtures.append(current)
            collected += 1
    return fixtures


def test_c8_operator_properties():
    with criterion(8, "locality, add/delete inverse, self-crossover identity on 1000 fixtures", 60.0):
        fixtures = _fixture_pool(1000)
        assert len(fixtures) == 1000
        rng = np.random.default_rng(np.random.SeedSequence(88))
        crossover_checked = 0
        for index, graph in enumerate(fixtures):
            # substitution locality
            outcome = apply_random(graph, rng, {OperatorKind.SUBSTITUTION: 1.0})
            if outcome is not None:
                product = outcome.graphs[0]
                changed = [
                    n.id
                    for n in product.nodes
                    if n.attributes != graph.node(n.id).attributes
                ]
                assert len(changed) == 1
                assert product.edge_multiset() == graph.edge_multiset()
                assert len(product.nodes) == len(graph.nodes)

            # add_node then delete_node at the same site is the identity
            outcome = apply_random(graph, rng, {OperatorKind.ADDITION: 1.0})
            if outcome is not None:
                product = outcome.graphs[0]
                assert len(product.nodes) == len(graph.nodes) + 1
                assert len(product.edges) == len(graph.edges) + 1
                new_ids = set(product.node_ids()) - set(graph.node_ids())
                assert len(new_ids) == 1
                restored = delete_node(product, new_ids.pop()).graphs[0]
                assert restored == graph

            # self-crossover is the identity on both children
            try:
                children = crossover(graph, graph).graphs
            except OperatorPreconditionError:
                continue
            assert children[0] == graph and children[1] == graph
            crossover_checked += 1
        assert crossover_checked >= 500, f"too few crossover-capable fixtures: {crossover_checked}"
        print(f"  [criterion 8] 1000 fixtures checked ({crossover_checked} self-crossovers)")
