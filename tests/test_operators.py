from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, WorkflowGraph, validate
from flowevo.engine import EvolutionConfig
from flowevo.operators import (
    Fragment,
    OperatorKind,
    OperatorPreconditionError,
    RewriteRejectedError,
    _RewiringSites,
    _first_rewrite,
    _weighted_kind_order,
    add_node,
    apply_random,
    crossover,
    default_operator_weights,
    delete_node,
    mutate_subgraph,
    rewire_edge,
    substitute_node,
)

from conftest import CORPUS_NAMES, load_corpus_graph, load_workflow_gen, rebuilt, shuffled_twin
from kind_order_reference import reference_kind_order
from rewiring_sites_reference import detached_end, split_rewiring_sites


def two_node_minimal():
    return WorkflowGraph(
        [Node("PROBLEM", "Interface"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", "RETURN")],
    )


# -- substitution -------------------------------------------------------------


def test_substitution_locality(gsm8k):
    outcome = substitute_node(gsm8k, "C", {"role": "simple_solver_2"})
    product = outcome.graphs[0]
    assert outcome.applied is OperatorKind.SUBSTITUTION
    assert product.node("C").attributes == {"role": "simple_solver_2"}
    changed = [
        n.id for n in product.nodes if n.attributes != gsm8k.node(n.id).attributes
    ]
    assert changed == ["C"]
    assert product.edge_multiset() == gsm8k.edge_multiset()
    assert product.prompts == gsm8k.prompts
    assert validate(outcome.graphs[0]).q == 1


def test_identity_substitution(gsm8k):
    outcome = substitute_node(gsm8k, "C", dict(gsm8k.node("C").attributes))
    assert outcome.graphs[0] == gsm8k


def test_substitution_drops_required_attr(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="required attribute 'role'"):
        substitute_node(gsm8k, "C", {"notrole": "x"})


def test_substitution_unknown_node(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="unknown node"):
        substitute_node(gsm8k, "NOPE", {})


# -- addition -----------------------------------------------------------------


def test_add_refine_recreates_published_shape(gsm8k):
    # deleting P6 bridges ENSEMBLE->RETURN; inserting a Custom refine node
    # there reproduces the ensemble -> refine -> exit tail
    bridged = delete_node(gsm8k, "P6").graphs[0]
    assert ("ENSEMBLE", "RETURN", None) in bridged.edge_multiset()
    refine = Node("REFINE", "CustomOp", {"role": "refine_solution"}, "Custom")
    outcome = add_node(bridged, ("ENSEMBLE", "RETURN"), refine)
    product = outcome.graphs[0]
    assert ("ENSEMBLE", "REFINE", None) in product.edge_multiset()
    assert ("REFINE", "RETURN", None) in product.edge_multiset()
    assert "RETURN" not in dict(product.successors("ENSEMBLE"))
    assert len(product.nodes) == len(bridged.nodes) + 1
    assert len(product.edges) == len(bridged.edges) + 1


def test_add_on_missing_edge(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="no edge"):
        add_node(gsm8k, ("P1", "RETURN"), Node("X", "CustomOp", {"role": "x"}))


def test_add_ensemble_rejected_by_guard(gsm8k):
    # an inserted ensemble would sit at fan-in 1, violating the fan-in rule
    with pytest.raises(RewriteRejectedError) as exc_info:
        add_node(gsm8k, ("ENSEMBLE", "P6"), Node("E2", "ScEnsembleOp"))
    assert any(d.rule == "W5" for d in exc_info.value.diagnostics)


def test_add_interface_forbidden(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="Interface"):
        add_node(gsm8k, ("ENSEMBLE", "P6"), Node("I2", "Interface"))


def test_add_duplicate_id(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="already in graph"):
        add_node(gsm8k, ("ENSEMBLE", "P6"), Node("P1", "CustomOp", {"role": "x"}))


def test_add_type_mismatch_boundary(gsm8k):
    # TestOp consumes solutions only; the PROBLEM -> C edge carries a problem
    with pytest.raises(OperatorPreconditionError, match="boundary"):
        add_node(
            rebuilt(gsm8k, domain="code"),
            ("PROBLEM", "C"),
            Node("T1", "TestOp"),
        )


def test_add_then_delete_is_identity(math_graph):
    inserted = add_node(
        math_graph, ("ENSEMBLE", "REFINE"), Node("MID", "CustomOp", {"role": "refine_solution"})
    ).graphs[0]
    restored = delete_node(inserted, "MID").graphs[0]
    assert restored == math_graph


# -- rewiring ------------------------------------------------------------------


def test_rewire_ensemble_input_away(gsm8k):
    # moving one of six ensemble inputs keeps fan-in at five
    outcome = rewire_edge(gsm8k, ("P5", "ENSEMBLE"), "P6", "to_third")
    product = outcome.graphs[0]
    assert product.in_degree("ENSEMBLE") == 5
    assert ("P5", "P6", None) in product.edge_multiset()
    assert validate(outcome.graphs[0]).q == 1


def test_rewire_only_exit_edge_rejected():
    graph = WorkflowGraph(
        [
            Node("PROBLEM", "Interface"),
            Node("A", "CustomOp", {"role": "x"}),
            Node("B", "CustomOp", {"role": "y"}),
            Node("RETURN", "Interface"),
        ],
        [
            Edge("PROBLEM", "A", "input"),
            Edge("PROBLEM", "B", "input"),
            Edge("B", "A"),
            Edge("A", "RETURN"),
        ],
    )
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(graph, ("A", "RETURN"), "B", "to_third")
    rules = {d.rule for d in exc_info.value.diagnostics if d.is_error}
    assert rules & {"W1", "W2"}


def test_rewire_self_loop_blocked(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="self-loop"):
        rewire_edge(gsm8k, ("P5", "ENSEMBLE"), "P5", "to_third")


def test_rewire_type_mismatch(gsm8k):
    # PROBLEM cannot feed the ensemble's solution port
    with pytest.raises((OperatorPreconditionError, RewriteRejectedError)):
        rewire_edge(gsm8k, ("C", "ENSEMBLE"), "PROBLEM", "from_third")


# -- deletion ------------------------------------------------------------------


def test_delete_refine_restores_bridge(math_graph):
    outcome = delete_node(math_graph, "REFINE")
    product = outcome.graphs[0]
    assert ("ENSEMBLE", "RETURN", None) in product.edge_multiset()
    assert "REFINE" not in product.node_ids()
    assert len(product.nodes) == len(math_graph.nodes) - 1
    assert len(product.edges) == len(math_graph.edges) - 1


def test_delete_ensemble_not_linear(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="not linear"):
        delete_node(gsm8k, "ENSEMBLE")


def test_delete_interface_forbidden(gsm8k):
    with pytest.raises(OperatorPreconditionError, match="Interface"):
        delete_node(gsm8k, "PROBLEM")


def test_delete_then_add_is_identity(math_graph):
    bridged = delete_node(math_graph, "REFINE").graphs[0]
    refine = math_graph.node("REFINE")
    restored = add_node(
        bridged,
        ("ENSEMBLE", "RETURN"),
        Node(refine.id, refine.kind, dict(refine.attributes), refine.display_label),
    ).graphs[0]
    assert restored == math_graph


# -- subgraph mutation ------------------------------------------------------------


def test_mutate_single_branch_to_chain(gsm8k):
    fragment = Fragment(
        nodes=(
            Node("S1", "CustomOp", {"role": "simple_solver_1"}, "Custom"),
            Node("S2", "CustomOp", {"role": "simple_solver_1"}, "Custom"),
        ),
        edges=(Edge("S1", "S2"),),
        inputs=("S1",),
        outputs=("S2",),
        label="chain",
    )
    outcome = mutate_subgraph(gsm8k, {"C"}, fragment)
    product = outcome.graphs[0]
    assert len(product.nodes) == 11
    assert ("PROBLEM", "S1", "input") in product.edge_multiset()
    assert ("S2", "ENSEMBLE", None) in product.edge_multiset()
    assert validate(product).q == 1


def test_mutate_identity(gsm8k):
    node = gsm8k.node("C")
    fragment = Fragment(
        nodes=(Node(node.id, node.kind, dict(node.attributes), node.display_label),),
        inputs=("C",),
        outputs=("C",),
    )
    outcome = mutate_subgraph(gsm8k, {"C"}, fragment)
    assert outcome.graphs[0] == gsm8k


def test_fragment_prompts_are_read_only():
    prompts = {"p1": "Solve it."}
    fragment = Fragment(nodes=(Node("S1", "CustomOp", {"prompt": "p1"}),), prompts=prompts)
    prompts["p1"] = "changed"
    prompts["p2"] = "extra"
    assert fragment.prompts == {"p1": "Solve it."}
    with pytest.raises(TypeError):
        fragment.prompts["p1"] = "other"


def test_mutate_boundary_mismatch(gsm8k):
    # an ensemble output port needs solutions; an Interface-less fragment
    # whose output node feeds nothing acceptable must be refused
    fragment = Fragment(
        nodes=(Node("T1", "TestOp"),),
        inputs=("T1",),
        outputs=("T1",),
    )
    with pytest.raises((OperatorPreconditionError, RewriteRejectedError)):
        mutate_subgraph(rebuilt(gsm8k, domain="code"), {"P1"}, fragment)


def test_mutate_widening_branch(gsm8k):
    fragment = Fragment(
        nodes=(
            Node("S1", "CustomOp", {"role": "simple_solver_1"}, "Custom"),
            Node("S2", "CustomOp", {"role": "simple_solver_1"}, "Custom"),
        ),
        inputs=("S1", "S2"),
        outputs=("S1", "S2"),
        label="parallel",
    )
    product = mutate_subgraph(gsm8k, {"C"}, fragment).graphs[0]
    assert product.in_degree("ENSEMBLE") == 7  # widened by one branch
    assert validate(product).q == 1


def test_mutate_region_must_be_connected(gsm8k):
    fragment = Fragment(
        nodes=(Node("S1", "CustomOp", {"role": "simple_solver_1"}),),
        inputs=("S1",),
        outputs=("S1",),
    )
    with pytest.raises(OperatorPreconditionError, match="not connected"):
        mutate_subgraph(gsm8k, {"P1", "P2"}, fragment)


def test_mutate_region_never_contains_interface(gsm8k):
    fragment = Fragment(
        nodes=(Node("S1", "CustomOp", {"role": "simple_solver_1"}),),
        inputs=("S1",),
        outputs=("S1",),
    )
    with pytest.raises(OperatorPreconditionError, match="Interface"):
        mutate_subgraph(gsm8k, {"PROBLEM"}, fragment)


# -- crossover -----------------------------------------------------------------


def test_crossover_exchanges_tails(gsm8k, math_graph):
    outcome = crossover(math_graph, gsm8k)
    math_child, gsm8k_child = outcome.graphs
    # the math child inherits the P6 tail; the gsm8k child the REFINE tail
    assert "P6" in math_child.node_ids() and "REFINE" not in math_child.node_ids()
    assert "REFINE" in gsm8k_child.node_ids() and "P6" not in gsm8k_child.node_ids()
    assert validate(math_child).q == 1 and validate(gsm8k_child).q == 1


def test_self_crossover_identity(gsm8k):
    outcome = crossover(gsm8k, gsm8k)
    assert outcome.graphs[0] == gsm8k
    assert outcome.graphs[1] == gsm8k


def test_crossover_no_common_point():
    with pytest.raises(OperatorPreconditionError, match="no crossover point"):
        crossover(two_node_minimal(), two_node_minimal())


def test_crossover_domain_mismatch(gsm8k, humaneval):
    with pytest.raises(OperatorPreconditionError, match="domain"):
        crossover(gsm8k, humaneval)


def test_crossover_requires_valid_parents(gsm8k):
    broken = rebuilt(gsm8k, edges=tuple(e for e in gsm8k.edges if e.source != "P6"))
    with pytest.raises(OperatorPreconditionError, match="does not validate"):
        crossover(broken, gsm8k)


def test_crossover_prompts_follow_migrated_nodes(gsm8k, math_graph):
    outcome = crossover(gsm8k, math_graph)
    gsm8k_child = outcome.graphs[0]
    # REFINE migrated in; its role prompt must resolve in the child's table
    assert "refine_solution" in gsm8k_child.prompts


# -- randomized application ---------------------------------------------------------


def test_apply_random_deterministic(gsm8k, math_graph):
    first = apply_random((gsm8k, math_graph), np.random.default_rng(42))
    second = apply_random((gsm8k, math_graph), np.random.default_rng(42))
    assert first is not None and second is not None
    assert first.applied == second.applied
    assert first.description == second.description
    assert [g.structural_signature() for g in first.graphs] == [
        g.structural_signature() for g in second.graphs
    ]


def test_apply_random_deletion_only_no_site():
    outcome = apply_random(
        two_node_minimal(), np.random.default_rng(1), {OperatorKind.DELETION: 1.0}
    )
    assert outcome is None


def test_apply_random_substitution_always_applies(corpus_graphs):
    for graph in corpus_graphs.values():
        outcome = apply_random(
            graph, np.random.default_rng(7), {OperatorKind.SUBSTITUTION: 1.0}
        )
        assert outcome is not None
        assert outcome.applied is OperatorKind.SUBSTITUTION


def test_apply_random_inputs_untouched(gsm8k):
    before = gsm8k.structural_signature()
    for seed in range(10):
        apply_random(gsm8k, np.random.default_rng(seed))
    assert gsm8k.structural_signature() == before


def test_default_weights_shape():
    weights = default_operator_weights()
    assert weights[OperatorKind.CROSSOVER] == pytest.approx(0.10)
    assert sum(weights.values()) == pytest.approx(1.0)
    others = {k: v for k, v in weights.items() if k is not OperatorKind.CROSSOVER}
    assert all(v == pytest.approx(0.18) for v in others.values())


def test_modification_record_wrapper(gsm8k):
    outcome = substitute_node(gsm8k, "C", {"role": "simple_solver_2"})
    record = outcome.modification_record()
    assert record.startswith("<modification>") and record.endswith("</modification>")


def test_apply_random_seed42_golden(gsm8k, math_graph):
    # frozen when sites were drawn one at a time: seed 42 with default
    # weights picks a subgraph mutation replacing P4 with an ensemble-refine motif
    import hashlib

    from flowevo import serialize_workflow

    outcome = apply_random(
        (gsm8k, math_graph), np.random.default_rng(42), default_operator_weights(0.10)
    )
    assert outcome.applied is OperatorKind.SUBGRAPH_MUTATION
    assert outcome.description == "mutate subgraph {P4} -> ensemble-refine-2 (4 nodes)"
    child = outcome.graphs[0]
    assert (len(child.nodes), len(child.edges)) == (13, 18)
    digest = hashlib.sha256(serialize_workflow(child).encode()).hexdigest()
    assert digest == "685494acbb2c17a1876d109be5075d667765598cd643f629b8f215c0ca899f44"


def test_crossover_renames_only_on_collision():
    from flowevo import WorkflowGraph

    def ensemble_graph(branch_ids, tail_id):
        nodes = [Node("PROBLEM", "Interface")]
        edges = []
        for bid in branch_ids:
            nodes.append(Node(bid, "CustomOp", {"role": "solution_generator"}))
            edges.append(Edge("PROBLEM", bid, "input"))
            edges.append(Edge(bid, "E"))
        nodes.append(Node("E", "ScEnsembleOp"))
        nodes.append(Node(tail_id, "CustomOp", {"role": "refine_solution"}))
        nodes.append(Node("RETURN", "Interface"))
        edges.append(Edge("E", tail_id))
        edges.append(Edge(tail_id, "RETURN"))
        from flowevo import PromptTable

        prompts = PromptTable(
            {"solution_generator": "Solve it.", "refine_solution": "Refine it."}
        )
        return WorkflowGraph(nodes, edges, prompts=prompts)

    # g_b's tail node reuses an id that sits upstream in g_a, forcing a rename
    g_a = ensemble_graph(("A1", "A2"), "TAIL_A")
    g_b = ensemble_graph(("B1", "B2"), "A1")
    outcome = crossover(g_a, g_b)
    child_a, child_b = outcome.graphs
    assert "A1_x2" in child_a.node_ids()  # donor tail renamed away from upstream A1
    assert "A1" in child_a.node_ids()  # the original branch node survives
    assert "TAIL_A" in child_b.node_ids()  # no collision in the other child
    assert validate(child_a).q == 1 and validate(child_b).q == 1


def test_donor_fragments_lift_partner_subgraphs(gsm8k, math_graph):
    from flowevo.operators import donor_fragments

    rng = np.random.default_rng(3)
    fragments = donor_fragments(math_graph, rng)
    labels = {f.label for f in fragments}
    assert any(l.startswith("donor-node-") for l in labels)
    assert "donor-branches-ENSEMBLE" in labels
    branch_frag = next(f for f in fragments if f.label == "donor-branches-ENSEMBLE")
    assert len(branch_frag.nodes) == 6  # the MATH ensemble's feeders
    # lifted roles carry their prompt texts
    assert "alternative_solver" in branch_frag.prompts

    # the fragment can replace gsm8k's Custom branch and still validate
    outcome = mutate_subgraph(gsm8k, {"C"}, branch_frag)
    product = outcome.graphs[0]
    assert validate(product).q == 1
    assert product.in_degree("ENSEMBLE") == 11  # 5 programmers + 6 lifted branches


def test_donor_fragments_dedupe_parallel_branch_edges(gsm8k):
    from flowevo.operators import donor_fragments

    # a second, differently-labeled edge from C into the ensemble is valid
    # and must not duplicate C inside the lifted branch fragment
    doubled = rebuilt(gsm8k, edges=gsm8k.edges + (Edge("C", "ENSEMBLE", "solution"),))
    assert validate(doubled).q == 1
    fragments = donor_fragments(doubled, np.random.default_rng(0))
    branch = next(f for f in fragments if f.label == "donor-branches-ENSEMBLE")
    ids = [n.id for n in branch.nodes]
    assert len(ids) == len(set(ids))


def test_mutate_rejects_duplicate_fragment_ids(gsm8k):
    fragment = Fragment(
        nodes=(
            Node("S1", "CustomOp", {"role": "simple_solver_1"}),
            Node("S1", "CustomOp", {"role": "simple_solver_1"}),
        ),
        inputs=("S1",),
        outputs=("S1",),
    )
    with pytest.raises(OperatorPreconditionError, match="duplicate node ids"):
        mutate_subgraph(gsm8k, {"C"}, fragment)


# frozen when sites were drawn one at a time and only viable rewiring sites
# counted: one digest per weight setting over every ordered corpus pair (and
# each graph alone) for seeds 0-2; any drift means site enumeration, rng draw
# order, or an operator's product changed
_APPLY_RANDOM_DIGESTS = {
    "substitution": "5a4daea4e3f5fb6c6ae1486ae6e4bdb314c3e35d935d8f00dd53f9d8449d391a",
    "addition": "3dd0f6ce4e9d4eb27acb088b8bb39f7bc7a203defae60c83fbdb00be4052e175",
    "rewiring": "6efd83e44763d2422d2da6cabfdb36ded3cee4aa35847f70172947377813866d",
    "deletion": "facceecb4df87d2f3c30fab0cb7737c193918236fe28e3ce024eb18318ad5d87",
    "subgraph_mutation": "0a97cd67dc9abef0a9c1a7789d305c227649dd05341c4401c37664542cd83e6a",
    "crossover": "4d8031e643e5cb5b12ec339933378702eab0fecd3ad0e86872b513894009ca2c",
    "default": "3f424f4a9b3864f5192dd06b0316a501ab26fe120118bca3dde4b8f911bc804c",
    "uneven": "c0cfa62c0b16a493179fb438699c57448801c50638af7c62b95d767b24a5eac3",
}

# four kinds at four different weights: every kind order draw picks among
# unequal probabilities, and a draw can fall through several kinds
_UNEVEN_WEIGHTS = {
    OperatorKind.SUBSTITUTION: 0.4,
    OperatorKind.REWIRING: 0.3,
    OperatorKind.DELETION: 0.2,
    OperatorKind.CROSSOVER: 0.1,
}


def _apply_random_digest(corpus_graphs, weights) -> str:
    import hashlib

    from flowevo import serialize_workflow

    graphs = [corpus_graphs[name] for name in sorted(corpus_graphs)]
    targets = graphs + [(a, b) for a in graphs for b in graphs if a is not b]
    digest = hashlib.sha256()
    for target in targets:
        for seed in range(3):
            outcome = apply_random(target, np.random.default_rng(seed), weights)
            if outcome is None:
                digest.update(b"none\n")
                continue
            digest.update(outcome.description.encode() + b"\n")
            for product in outcome.graphs:
                digest.update(serialize_workflow(product).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("setting", sorted(_APPLY_RANDOM_DIGESTS))
def test_apply_random_digest_golden(corpus_graphs, setting):
    mixes = {"default": None, "uneven": _UNEVEN_WEIGHTS}
    weights = mixes[setting] if setting in mixes else {OperatorKind(setting): 1.0}
    assert _apply_random_digest(corpus_graphs, weights) == _APPLY_RANDOM_DIGESTS[setting]


# -- kind order ------------------------------------------------------------------


def test_kind_order_weight_contract():
    # an infinite weight or an overflowing sum is an error; NaN and nonpositive
    # weights are dropped; nothing to draw costs no draw
    s, a, d, r = (OperatorKind.SUBSTITUTION, OperatorKind.ADDITION, OperatorKind.DELETION, OperatorKind.REWIRING)
    for weights in ({s: math.inf, a: 1.0}, {s: 1e308, a: 1e308}):
        with pytest.raises(ValueError):
            _weighted_kind_order(weights, np.random.default_rng(0))
    assert _weighted_kind_order({s: math.nan, a: 0.0, d: 1.0, r: -1.0}, np.random.default_rng(0)) == [d]
    for weights in ({}, {s: math.nan, a: 0.0, r: -math.inf}):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert _weighted_kind_order(weights, rng) == []
        assert rng.bit_generator.state == state


class _TopDraw:
    """A generator stub whose every uniform draw is the largest double below 1."""

    def random(self):
        return math.nextafter(1.0, 0.0)


def test_kind_order_draw_just_below_one_picks_the_last_kind():
    # 0.1/0.4 + 0.3/0.4 sums to just below 1; NumPy divides the cumulative
    # sum by its last entry, so no draw in [0, 1) falls past the last kind
    a, s = OperatorKind.ADDITION, OperatorKind.SUBSTITUTION
    assert _weighted_kind_order({a: 0.1, s: 0.3}, _TopDraw()) == [s, a]


def _kind_order_maps(family, rng):
    """Weight maps of one family, drawn from a seeded ``random.Random``."""
    kinds = list(OperatorKind)
    if family == "config":
        if rng.random() < 0.5:
            rate = rng.choice([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, rng.random()])
            weights = EvolutionConfig(crossover_rate=rate).weights()
        else:
            raw = {k: rng.choice([0.0, rng.random()]) for k in kinds}
            raw[rng.choice(kinds)] = 1.0
            total = sum(raw.values())
            weights = EvolutionConfig(operator_weights={k: w / total for k, w in raw.items()}).weights()
        if rng.random() < 0.5:
            weights.pop(OperatorKind.CROSSOVER)  # apply_random without a partner
        return weights
    if family == "single":
        return {rng.choice(kinds): rng.choice([1.0, 0.1, 5e-324, 1e308, rng.expovariate(1.0)])}
    chosen = rng.sample(kinds, rng.randint(1, len(kinds)))
    if family == "positive":
        return {k: rng.expovariate(1.0) for k in chosen}
    if family == "zero_or_nan":
        return {k: rng.choice([0.0, -0.5, math.nan, rng.random()]) for k in chosen}
    assert family == "extreme"
    return {k: rng.choice([5e-324, 1e-310, 2.2e-308, 1e-300, 1.0, 1e307, 2.5e307]) for k in chosen}


@pytest.mark.parametrize("family", ["config", "single", "positive", "zero_or_nan", "extreme"])
def test_kind_order_matches_the_choice_reference(family):
    import random

    maps = random.Random(family)
    for seed in range(500):
        weights = _kind_order_maps(family, maps)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _weighted_kind_order(weights, ours) == reference_kind_order(weights, theirs), (seed, weights)
        assert ours.random() == theirs.random(), (seed, weights)


def _generated_graphs(sizes, seed):
    import random

    from flowevo import lower_to_graph, parse_workflow

    workflow_gen = load_workflow_gen()
    rng = random.Random(seed)
    for n in sizes:
        yield lower_to_graph(parse_workflow(workflow_gen.generate(n, rng, f"rw{n}").text))[0]


def _hand_built_site_graphs():
    nodes = [Node(i, "CustomOp") for i in ("A", "B", "C", "D")]
    return {
        "labeled parallel edges": WorkflowGraph(
            nodes, [Edge("A", "B"), Edge("A", "B", "x"), Edge("A", "C", "x"), Edge("D", "B")]
        ),
        "duplicate edge": WorkflowGraph(nodes, [Edge("A", "B"), Edge("A", "B"), Edge("C", "B"), Edge("B", "D")]),
        "self-loop": WorkflowGraph(nodes, [Edge("A", "A"), Edge("A", "B"), Edge("B", "B", "x"), Edge("C", "A")]),
    }


def _assert_sites_match(graph, sample=None):
    import random

    expected, _ = split_rewiring_sites(graph)
    sites = _RewiringSites(graph)
    assert len(sites) == len(expected)
    indices = range(len(expected)) if sample is None else random.Random(len(expected)).sample(
        range(len(expected)), sample
    )
    for i in indices:
        assert sites[i] == expected[i], i
    for bad in (len(expected), len(expected) + 7, -1):
        with pytest.raises(IndexError):
            sites[bad]


def test_rewiring_sites_match_the_listed_order_on_the_corpus(corpus_graphs):
    for graph in corpus_graphs.values():
        _assert_sites_match(graph)


def test_rewiring_sites_match_the_listed_order_on_generated_graphs():
    for graph in _generated_graphs((10, 17, 30, 60, 100), seed=9):
        _assert_sites_match(graph)
    for graph in _generated_graphs((200, 300), seed=10):
        _assert_sites_match(graph, sample=400)


@pytest.mark.parametrize("case", sorted(_hand_built_site_graphs()))
def test_rewiring_sites_match_the_listed_order_on_hand_built_graphs(case):
    _assert_sites_match(_hand_built_site_graphs()[case])


def _assert_dropped_sites_are_rejected(graph, sample=None):
    """Each move the viability rule drops fails in ``rewire_edge``, and its product has a W3 error."""
    import random

    from flowevo import soft_check

    _, dropped = split_rewiring_sites(graph)
    if sample is not None and sample < len(dropped):
        dropped = random.Random(len(dropped)).sample(dropped, sample)
    for site in dropped:
        edge, third, direction = site
        # a type mismatch fails the precondition before the guard sees the product
        with pytest.raises((OperatorPreconditionError, RewriteRejectedError)) as exc_info:
            rewire_edge(graph, edge.key(), third, direction)
        if direction == "to_third":
            moved = Edge(edge.source, third, edge.label)
        else:
            moved = Edge(third, edge.target, edge.label)
        edges = list(graph.edges)
        edges.remove(edge)
        product = rebuilt(graph, edges=edges + [moved])
        stranded = {d.subject for d in soft_check(product) if d.rule == "W3" and d.is_error}
        assert detached_end(site) in stranded, site
        if exc_info.type is RewriteRejectedError:
            assert detached_end(site) in {d.subject for d in exc_info.value.diagnostics if d.rule == "W3"}, site
    return len(dropped)


def test_dropped_rewiring_sites_are_rejected_on_the_corpus(corpus_graphs):
    assert sum(_assert_dropped_sites_are_rejected(graph) for graph in corpus_graphs.values()) > 100


def test_dropped_rewiring_sites_are_rejected_on_generated_graphs():
    for graph in _generated_graphs((10, 17, 30), seed=9):
        assert _assert_dropped_sites_are_rejected(graph) > 0
    for graph in _generated_graphs((100, 300), seed=10):
        assert _assert_dropped_sites_are_rejected(graph, sample=300) == 300


@pytest.mark.parametrize("case", sorted(_hand_built_site_graphs()))
def test_dropped_rewiring_sites_are_rejected_on_hand_built_graphs(case):
    _assert_dropped_sites_are_rejected(_hand_built_site_graphs()[case])


# -- the site draw ------------------------------------------------------------------


def _drawn(n, budget, seed=0):
    """The site indices ``_first_rewrite`` tries, in order, when every rewrite fails."""
    tried = []

    def fail(site):
        tried.append(site)
        raise (OperatorPreconditionError if len(tried) % 2 else RewriteRejectedError)("no product")

    assert _first_rewrite(np.random.default_rng(seed), range(n), fail, budget) is None
    return tried


def _dense_shuffle_prefix(n, budget, seed=0):
    """The same draws applied to a whole index array: Fisher-Yates, one swap per attempt."""
    rng, order = np.random.default_rng(seed), list(range(n))
    for i in range(n if budget is None else min(budget, n)):
        j = i + int(rng.integers(n - i))
        order[i], order[j] = order[j], order[i]
    return order[: n if budget is None else min(budget, n)]


@pytest.mark.parametrize("n", [0, 1, 2, 9, 300])
def test_first_rewrite_tries_distinct_sites_up_to_the_budget(n):
    for budget in (1, 2, 3, 8, 9, 10, 299, 300, 301, None):
        for seed in range(3):
            tried = _drawn(n, budget, seed)
            assert len(set(tried)) == len(tried) == (n if budget is None else min(budget, n))
            if budget is None:
                assert sorted(tried) == list(range(n))
            assert _drawn(n, budget, seed) == tried
            assert tried == _dense_shuffle_prefix(n, budget, seed)


def test_first_rewrite_draws_each_site_first_equally_often():
    counts = np.bincount([_drawn(9, 1, seed)[0] for seed in range(9000)], minlength=9)
    sigma = math.sqrt(9000 * (1 / 9) * (8 / 9))
    assert np.all(np.abs(counts - 1000) < 4 * sigma), counts


def test_first_rewrite_builds_no_array_of_the_site_count():
    import tracemalloc

    _drawn(10, 8)  # warm any first-call allocation outside the traced window
    tracemalloc.start()
    try:
        tried = _drawn(2_050_000, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(tried)) == 8 and peak < 1_000_000, peak


@pytest.mark.parametrize("budget, message", [(0, ">= 1"), (-1, ">= 1"), (2.5, "an integer")])
def test_bad_site_budgets_are_rejected(gsm8k, budget, message):
    from flowevo.engine import OperatorProposer

    with pytest.raises(ValueError, match=f"site_budget must be {message}"):
        apply_random(gsm8k, np.random.default_rng(0), site_budget=budget)
    with pytest.raises(ValueError, match=f"site_budget must be {message}"):
        OperatorProposer(None, budget)
    with pytest.raises(ValueError, match=f"site_budget must be {message}"):
        EvolutionConfig(site_budget=budget)


def _construction_variants(name):
    """The file lowering, its canonical re-parse and a shuffled twin: one graph value."""
    from flowevo import lower_to_graph, parse_workflow, serialize_workflow

    graph = load_corpus_graph(name)
    reparsed, _ = lower_to_graph(parse_workflow(serialize_workflow(graph)))
    return graph, reparsed, shuffled_twin(graph, CORPUS_NAMES.index(name))


@pytest.mark.parametrize("setting", [kind.value for kind in OperatorKind] + ["default"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_apply_random_depends_only_on_the_graph_value(name, setting):
    from flowevo import serialize_workflow

    weights = None if setting == "default" else {OperatorKind(setting): 1.0}
    partner = CORPUS_NAMES[(CORPUS_NAMES.index(name) + 1) % len(CORPUS_NAMES)]
    runs = []
    for primary, donor in zip(_construction_variants(name), _construction_variants(partner)):
        products = []
        for seed in range(20):
            outcome = apply_random((primary, donor), np.random.default_rng(seed), weights)
            products.append(
                None
                if outcome is None
                else (outcome.description, [serialize_workflow(g) for g in outcome.graphs])
            )
        runs.append(products)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_apply_random_chain_leaves_parents_unchanged(seed, length):
    # products share node objects with their parents; no rewrite in a chain
    # may change any earlier graph value
    from conftest import CORPUS_NAMES, load_corpus_graph

    rng = np.random.default_rng(seed)
    pool = [load_corpus_graph(name) for name in CORPUS_NAMES[:2]]
    signatures = [g.structural_signature() for g in pool]
    for _ in range(length):
        primary = pool[int(rng.integers(len(pool)))]
        partner = pool[int(rng.integers(len(pool)))]
        outcome = apply_random((primary, partner), rng)
        if outcome is None:
            continue
        pool.extend(outcome.graphs)
        signatures.extend(g.structural_signature() for g in outcome.graphs)
    assert [g.structural_signature() for g in pool] == signatures
