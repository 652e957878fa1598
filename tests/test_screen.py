"""The closure guard decides each built product by the full check alone.

``operators._guard`` builds every product with ``with_changes`` and makes
one ``validate`` call per product; the first product that does not
validate is rejected with its full findings. These tests compare each
rejection with ``soft_check`` of a product built independently of the
parent, and each accepted product, tables, memos and serialized text
included, with a fresh build, over ``apply_random`` chains and random edge
swaps.

``apply_random``'s site path checks each rewiring site and mutation
fragment with ``operators._doomed`` before it builds the product; deletion
sites go to the guard unchecked. The last section checks that check against
the public operators, which build every product: each site it condemns is
one they reject.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo import Edge, Node, WorkflowGraph, lower_to_graph, operators, parse_workflow, validate
from flowevo.diagnostics import ERROR, STRUCT, W1, W3, Diagnostic
from flowevo.graph import GraphDelta
from flowevo.operators import (
    Fragment,
    OperatorKind,
    OperatorPreconditionError,
    RewriteRejectedError,
    _doomed,
    _mutation,
    _mutation_sites,
    _rewiring,
    _RewiringSites,
    apply_random,
    delete_node,
    donor_fragments,
    motif_fragments,
    mutate_subgraph,
    rewire_edge,
)
from flowevo.registry import NodeTypeSchema, Registry, default_registry
from flowevo.validator import soft_check

from conftest import CORPUS_NAMES, assert_memos_exact, load_corpus_graph, load_workflow_gen


def _generated(size: int, seed: int) -> WorkflowGraph:
    text = load_workflow_gen().generate(size, random.Random(seed), f"s{size}").text
    return lower_to_graph(parse_workflow(text))[0]


def _product(parent: WorkflowGraph, delta: GraphDelta) -> WorkflowGraph:
    """The delta's product built from whole lists, with nothing memoized or inherited."""
    edges = list(parent.edges)
    for edge in delta.removed_edges:
        edges.remove(edge)
    dropped = set(delta.removed_nodes) | {n.id for n in delta.replaced_nodes}
    nodes = [n for n in parent.nodes if n.id not in dropped] + list(delta.replaced_nodes + delta.added_nodes)
    prompts = parent.prompts if delta.prompts is None else delta.prompts
    return WorkflowGraph(nodes, edges + list(delta.added_edges), prompts, parent.domain, parent.registry)


def _guarded(pairs):
    return operators._guard(pairs, OperatorKind.REWIRING, "test rewrite")


_GUARD = operators._guard


class _Differential:
    """Checks each guard decision against fresh products, and that each product gets one full check."""

    def __init__(self):
        self.full_checks = 0

    def guard(self, pairs, applied, description):
        full_checks = self.full_checks
        try:
            outcome = _GUARD(pairs, applied, description)
        except RewriteRejectedError as exc:
            fresh = [_product(parent, delta) for parent, delta in pairs]
            verdicts = [validate(graph).q for graph in fresh]
            failed = verdicts.index(0)  # the guard stops at the first product that fails
            assert self.full_checks - full_checks == failed + 1
            assert exc.diagnostics == tuple(soft_check(fresh[failed]))
            raise
        assert self.full_checks - full_checks == len(pairs)
        for graph, (parent, delta) in zip(outcome.graphs, pairs):
            fresh = _product(parent, delta)
            assert graph == fresh and validate(fresh).q == 1
            assert_memos_exact(graph)
        return outcome

    def validate(self, graph):
        self.full_checks += 1
        return validate(graph)

    def __enter__(self):
        self._patches = [patch.object(operators, "_guard", self.guard), patch.object(operators, "validate", self.validate)]
        for p in self._patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in reversed(self._patches):
            p.stop()


def _chain(graph, partner, seed: int, steps: int) -> None:
    rng = np.random.default_rng(seed)
    with _Differential():
        for _ in range(steps):
            outcome = apply_random(graph if partner is None else (graph, partner), rng)
            if outcome is None:
                break
            graph = outcome.graphs[0]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(CORPUS_NAMES),
    st.sampled_from(CORPUS_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_screen_is_exact_on_corpus_chains(first, second, seed, steps):
    _chain(load_corpus_graph(first), load_corpus_graph(second), seed, steps)


@settings(max_examples=15, deadline=None)
@given(st.integers(10, 300), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_screen_is_exact_on_generated_chains(size, seed, steps):
    _chain(_generated(size, seed), None, seed, steps)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([*CORPUS_NAMES, 12, 40, 120]), st.integers(0, 2**32 - 1))
def test_screen_is_exact_on_random_edge_swaps(source, seed):
    # deltas no operator makes: one or two edges out, one edge in anywhere
    graph = _generated(source, seed) if isinstance(source, int) else load_corpus_graph(source)
    validate(graph)
    rng = random.Random(seed)
    ids = graph.node_ids()
    with _Differential() as diff:
        for _ in range(25):
            removed = tuple(rng.sample(graph.edges, rng.choice((1, 2))))
            added = Edge(rng.choice(ids), rng.choice(ids), rng.choice((None, removed[0].label)))
            delta = GraphDelta(removed_edges=removed, added_edges=(added,))
            try:
                diff.guard([(graph, delta)], OperatorKind.REWIRING, "edge swap")
            except RewriteRejectedError:
                pass


def test_stranded_rewiring_is_rejected(math_graph):
    # REFINE's only in-edge moves to C1, so REFINE is left without input
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(math_graph, ("ENSEMBLE", "REFINE"), "C1", "to_third")
    message = "node of kind CustomOp plays an entry/exit role but is not an Interface"
    assert Diagnostic(W3, ERROR, message, subject="REFINE") in exc_info.value.diagnostics


def _custom(node_id: str) -> Node:
    return Node(node_id, "CustomOp", {"role": "x"})


def test_rewiring_onto_a_fed_node_is_rejected():
    # C's one port is fed by PROBLEM; moving A -> E onto C leaves one input without a port
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *map(_custom, "ABC"), Node("E", "ScEnsembleOp"), Node("RETURN", "Interface")],
        [Edge("PROBLEM", n) for n in "ABC"] + [Edge(n, "E") for n in "ABC"] + [Edge("E", "RETURN")],
    )
    assert validate(graph).q == 1
    with pytest.raises(RewriteRejectedError) as exc_info:
        rewire_edge(graph, ("A", "E"), "C", "to_third")
    unfed = Diagnostic(STRUCT, ERROR, "unexpected input from PROBLEM (no open port)", subject="C")
    assert unfed in exc_info.value.diagnostics


def test_bridge_onto_an_existing_edge_is_a_rejected_duplicate():
    # A feeds the ensemble E directly and through X; deleting X doubles A -> E
    nodes = [
        Node("PROBLEM", "Interface"),
        _custom("A"),
        _custom("X"),
        Node("E", "ScEnsembleOp"),
        Node("RETURN", "Interface"),
    ]
    kept = [Edge("PROBLEM", "A", "input"), Edge("A", "E"), Edge("E", "RETURN")]
    graph = WorkflowGraph(nodes, kept + [Edge("A", "X"), Edge("X", "E")])
    with pytest.raises(RewriteRejectedError) as exc_info:
        delete_node(graph, "X")
    finding = Diagnostic(STRUCT, ERROR, "duplicate edge (x2)", subject="A->E")
    assert finding in exc_info.value.diagnostics
    assert finding in soft_check(WorkflowGraph([n for n in nodes if n.id != "X"], kept + [Edge("A", "E")]))


def test_cycle_search_skips_the_removed_edges():
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), *map(_custom, "XYBC"), Node("E", "ScEnsembleOp"), Node("RETURN", "Interface")],
        [
            Edge("PROBLEM", "X"),
            Edge("PROBLEM", "Y"),
            Edge("X", "E"),
            Edge("Y", "E"),
            Edge("E", "B"),
            Edge("B", "C"),
            Edge("B", "RETURN"),
            Edge("C", "RETURN"),
        ],
    )
    assert validate(graph).q == 1
    # C -> E closes E -> B -> C, unless B -> C goes and Y feeds C instead
    with pytest.raises(RewriteRejectedError) as exc_info:
        _guarded([(graph, GraphDelta(added_edges=(Edge("C", "E"),)))])
    errors = [d for d in exc_info.value.diagnostics if d.is_error]
    assert errors == [Diagnostic(STRUCT, ERROR, "node lies on a directed cycle", subject=n) for n in "BCE"]
    opened = GraphDelta(removed_edges=(Edge("B", "C"),), added_edges=(Edge("C", "E"), Edge("Y", "C")))
    (product,) = _guarded([(graph, opened)]).graphs
    assert not product.cycle_nodes()


@pytest.mark.parametrize(
    "exit_id, exit_kind, finding",
    [
        ("OUT", "Interface", "interface node is neither entry nor exit"),
        ("RETURN", "CustomOp", "reserved node RETURN must be classified as Interface, not CustomOp"),
    ],
    ids=["interface", "reserved"],
)
def test_stranded_interface_and_reserved_exits_keep_their_own_findings(exit_id, exit_kind, finding):
    # moving the exit's only in-edge strands it, but W3 reports an interface
    # node, or a reserved id of another kind, with a message of its own
    graph = WorkflowGraph(
        [Node("PROBLEM", "Interface"), _custom("A"), _custom("B"), Node(exit_id, exit_kind, {"role": "x"})],
        [Edge("PROBLEM", "A", "input"), Edge("A", "B"), Edge("B", exit_id)],
    )
    delta = GraphDelta(removed_edges=(Edge("B", exit_id),), added_edges=(Edge("B", "A"),))
    with pytest.raises(RewriteRejectedError) as exc_info:
        _guarded([(graph, delta)])
    found = exc_info.value.diagnostics
    assert Diagnostic(W1, ERROR, "missing exit interface node", subject="RETURN") in found
    assert Diagnostic(W3, ERROR, finding, subject=exit_id) in found
    stranded = f"node of kind {exit_kind} plays an entry/exit role but is not an Interface"
    assert stranded not in [d.message for d in found]
    assert found == tuple(soft_check(_product(graph, delta)))


# -- the pre-build check: each condemned site is one the public operator rejects ----------


def _sites(graph, partner, seed: int, sample=None):
    """(public operator, its delta builder, arguments) for the rewiring and mutation
    sites of ``graph``: every site, or ``sample`` of each."""
    pick = random.Random(seed)
    rewiring = _RewiringSites(graph)
    indices = range(len(rewiring))
    if sample is not None and sample < len(rewiring):
        indices = pick.sample(indices, sample)
    for i in indices:
        edge, third, direction = rewiring[i]
        yield rewire_edge, _rewiring, (graph, edge.key(), third, direction)
    regions = _mutation_sites(graph)
    if sample is not None and sample < len(regions):
        regions = pick.sample(regions, sample)
    rng = np.random.default_rng(seed)
    for node_id in regions:
        fragments = motif_fragments(graph, rng)
        if partner is not None and partner.domain == graph.domain:
            fragments += donor_fragments(partner, rng)
        for fragment in fragments:
            yield mutate_subgraph, _mutation, (graph, {node_id}, fragment)


def _assert_condemned_sites_are_rejected(graph, partner=None, seed: int = 0, sample=None) -> Counter:
    """Each site whose delta ``_doomed`` condemns fails in its public operator's guard;
    returns the condemned and the passed sites by operator."""
    tally = Counter()
    for public, delta_of, args in _sites(graph, partner, seed, sample):
        try:
            delta, _ = delta_of(*args)
        except OperatorPreconditionError:
            continue
        if _doomed(graph, delta):
            tally[public.__name__] += 1
            with pytest.raises(RewriteRejectedError):
                public(*args)
        else:
            tally[public.__name__ + " passed"] += 1
    return tally


def test_condemned_sites_are_rejected_on_the_corpus(corpus_graphs):
    graphs = list(corpus_graphs.values())
    tally = Counter()
    for graph, partner in zip(graphs, graphs[1:] + graphs[:1]):
        tally += _assert_condemned_sites_are_rejected(graph, partner)
    assert tally["rewire_edge"] > 100 and tally["mutate_subgraph"] > 10, tally
    for name in ("rewire_edge", "mutate_subgraph"):
        assert tally[name + " passed"] > 0, tally


def test_condemned_sites_are_rejected_on_generated_graphs():
    rng = random.Random(11)
    tally = Counter()
    for size in (10, 17, 30, 60, 100, 300):
        graph, partner = (_generated(size, rng.getrandbits(32)) for _ in range(2))
        tally += _assert_condemned_sites_are_rejected(graph, partner, size, sample=None if size < 60 else 150)
    assert tally["rewire_edge"] > 100 and tally["mutate_subgraph"] > 100, tally
    for name in ("rewire_edge", "mutate_subgraph"):
        assert tally[name + " passed"] > 0, tally


def _broken_parents():
    """(parent, partner) for each corpus graph with one of its edges removed, and with each
    of 10 drawn absent edges added: parents that need not validate, some with a node on one edge."""
    graphs = [load_corpus_graph(name) for name in CORPUS_NAMES]
    pick = random.Random(0)
    for graph, partner in zip(graphs, graphs[1:] + graphs[:1]):
        for edge in graph.edges:
            yield graph.with_changes(GraphDelta(removed_edges=(edge,))), partner
        linked = {(edge.source, edge.target) for edge in graph.edges}
        absent = [(s, t) for s in graph.node_ids() for t in graph.node_ids() if s != t and (s, t) not in linked]
        for source, target in pick.sample(absent, 10):
            yield graph.with_changes(GraphDelta(added_edges=(Edge(source, target),))), partner


def test_apply_random_on_broken_parents_raises_nothing_and_builds_valid_products():
    # a subgraph mutation at a node on one edge may add just one edge, into a node only
    # its product has, which the pre-build cycle search must read as having no out-edge
    built = 0
    for parent, partner in _broken_parents():
        for kind in OperatorKind:
            for seed in range(3):
                outcome = apply_random((parent, partner), np.random.default_rng(seed), {kind: 1.0})
                for product in outcome.graphs if outcome is not None else ():
                    assert validate(product).q == 1
                    built += 1
    assert built > 100, built


def test_condemned_sites_are_rejected_on_broken_parents():
    tally = Counter()
    for seed, (parent, partner) in enumerate(_broken_parents()):
        tally += _assert_condemned_sites_are_rejected(parent, partner, seed)
    assert tally["rewire_edge"] > 100 and tally["mutate_subgraph"] > 100, tally
    for name in ("rewire_edge", "mutate_subgraph"):
        assert tally[name + " passed"] > 0, tally


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(CORPUS_NAMES),
    st.sampled_from(CORPUS_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)
def test_condemned_sites_are_rejected_on_corpus_chains(first, second, seed, steps):
    # every site of each graph of the chain, and each delta the chain's own draws condemn
    graph, partner = load_corpus_graph(first), load_corpus_graph(second)
    condemned = []

    def recording(parent, delta):
        doomed = _DOOMED(parent, delta)
        if doomed:
            condemned.append((parent, delta))
        return doomed

    rng = np.random.default_rng(seed)
    with patch.object(operators, "_doomed", recording):
        for _ in range(steps):
            outcome = apply_random((graph, partner), rng)
            if outcome is None:
                break
            graph = outcome.graphs[0]
    for parent, delta in condemned:
        assert validate(_product(parent, delta)).q == 0
    _assert_condemned_sites_are_rejected(graph, partner, seed)


_DOOMED = operators._doomed
_CHECKED = operators._checked


def _node(node_id: str, kind: str) -> Node:
    return _custom(node_id) if kind == "CustomOp" else Node(node_id, kind)


def _graph(edges, kinds=None, registry=None) -> WorkflowGraph:
    """Nodes named by ``edges`` (source, target[, label]): PROBLEM and RETURN are
    interfaces, ``kinds`` names the others' kinds, and the rest are CustomOp."""
    kinds = {"PROBLEM": "Interface", "RETURN": "Interface", **(kinds or {})}
    ids = sorted({nid for edge in edges for nid in edge[:2]})
    graph = WorkflowGraph(
        [_node(nid, kinds.get(nid, "CustomOp")) for nid in ids], [Edge(*edge) for edge in edges], registry=registry
    )
    assert validate(graph).q == 1
    return graph


# PROBLEM fans out to A, B and C, which an ensemble E (at least two inputs) joins
_FAN = [("PROBLEM", n) for n in "ABC"] + [(n, "E") for n in "ABC"] + [("E", "RETURN")]
_FAN_KINDS = {"E": "ScEnsembleOp"}
_PAIR = [("PROBLEM", "A"), ("PROBLEM", "B"), ("A", "E"), ("B", "E"), ("E", "RETURN")]
# P is a ProgrammerOp whose problem port D feeds by label; C feeds E by a label E has no port for
_LABELED = [("PROBLEM", n) for n in "ABCD"] + [("A", "E"), ("B", "E"), ("C", "E", "problem"), ("D", "P", "problem")]
_LABELED += [("E", "RETURN"), ("P", "RETURN")]
_LABELED_KINDS = {"E": "ScEnsembleOp", "P": "ProgrammerOp"}
# A feeds the ensemble E directly and through X
_BRIDGE = [("PROBLEM", "A", "input"), ("A", "E"), ("A", "X"), ("E", "RETURN")]


def _declared_roles() -> Registry:
    """The default registry plus an entry kind and an exit kind with declared roles."""
    declared = [NodeTypeSchema("EntryOp", interface_role="entry"), NodeTypeSchema("ExitOp", interface_role="exit")]
    return Registry([*default_registry().schemas(), *declared])


def _declared_fan():
    renamed = [tuple({"PROBLEM": "IN", "RETURN": "OUT"}.get(end, end) for end in edge) for edge in _FAN]
    return _graph(renamed, {**_FAN_KINDS, "IN": "EntryOp", "OUT": "ExitOp"}, _declared_roles())


def _fragment(kind: str) -> Fragment:
    return Fragment(nodes=(_node("F", kind),), inputs=("F",), outputs=("F",), label=kind)


def _bridging(graph: WorkflowGraph, node_id: str) -> tuple[GraphDelta, str]:
    """The delta ``delete_node`` makes at a linear node, built by hand: the node and its
    two edges go, and an edge with the out-edge's label bridges its neighbors."""
    (pred, pred_label), (succ, succ_label) = graph.predecessors(node_id)[0], graph.successors(node_id)[0]
    removed = (Edge(pred, node_id, pred_label), Edge(node_id, succ, succ_label))
    return GraphDelta(removed_edges=removed, added_edges=(Edge(pred, succ, succ_label),), removed_nodes=(node_id,)), ""


_HAND_BUILT = {
    # (graph, public operator, its delta builder, arguments after the graph, condemned);
    # apply_random does not check deletion sites, but the check reads any delta
    "auto-role entry gains an in-edge": (
        lambda: _graph(_FAN, _FAN_KINDS), rewire_edge, _rewiring, (("C", "E"), "PROBLEM", "to_third"), True
    ),
    "auto-role exit left without an in-edge": (
        lambda: _graph(_FAN, _FAN_KINDS), rewire_edge, _rewiring, (("E", "RETURN"), "A", "to_third"), True
    ),
    "auto-role exit gains an in-edge": (
        lambda: _graph(_FAN, _FAN_KINDS), rewire_edge, _rewiring, (("C", "E"), "RETURN", "to_third"), False
    ),
    "declared entry gains an in-edge": (_declared_fan, rewire_edge, _rewiring, (("C", "E"), "IN", "to_third"), True),
    "declared exit gains an in-edge": (_declared_fan, rewire_edge, _rewiring, (("C", "E"), "OUT", "to_third"), False),
    "unlabeled edge onto a fed port": (
        lambda: _graph(_FAN, _FAN_KINDS), rewire_edge, _rewiring, (("C", "E"), "B", "to_third"), True
    ),
    "labeled edge onto a port already fed": (
        lambda: _graph(_LABELED, _LABELED_KINDS), rewire_edge, _rewiring, (("C", "E", "problem"), "P", "to_third"), True
    ),
    "unlabeled edge onto an open port": (
        lambda: _graph(_LABELED, _LABELED_KINDS), rewire_edge, _rewiring, (("B", "E"), "P", "to_third"), False
    ),
    "ensemble at its W5 minimum loses an input": (
        lambda: _graph(_PAIR, _FAN_KINDS), rewire_edge, _rewiring, (("A", "E"), "RETURN", "to_third"), True
    ),
    "ensemble above its W5 minimum loses an input": (
        lambda: _graph(_FAN, _FAN_KINDS), rewire_edge, _rewiring, (("C", "E"), "RETURN", "to_third"), False
    ),
    "bridge onto an existing edge": (
        lambda: _graph([*_BRIDGE, ("X", "E")], _FAN_KINDS), delete_node, _bridging, ("X",), True
    ),
    "bridge beside an existing edge of another label": (
        lambda: _graph([*_BRIDGE, ("X", "E", "alt")], _FAN_KINDS), delete_node, _bridging, ("X",), False
    ),
    "two inputs onto a fragment without a variadic port": (
        lambda: _graph(_PAIR, _FAN_KINDS), mutate_subgraph, _mutation, ({"E"}, _fragment("CustomOp")), True
    ),
    "two inputs onto a fragment with a variadic port": (
        lambda: _graph(_PAIR, _FAN_KINDS), mutate_subgraph, _mutation, ({"E"}, _fragment("ScEnsembleOp")), False
    ),
}


@pytest.mark.parametrize("case", sorted(_HAND_BUILT))
def test_condemned_hand_built_sites_are_rejected(case):
    build, public, delta_of, args, condemned = _HAND_BUILT[case]
    graph = build()
    delta, _ = delta_of(graph, *args)
    assert _doomed(graph, delta) is condemned
    if condemned:
        with pytest.raises(RewriteRejectedError):
            public(graph, *args)
    else:
        (product,) = public(graph, *args).graphs
        assert validate(product).q == 1


def test_the_site_path_builds_no_condemned_product_on_fixed_chains():
    # the products the guard builds and rejects, and the sites the check condemns, by kind;
    # deletion sites are not checked, so the guard builds and rejects the bridges that duplicate an edge
    built, rejected, condemned = Counter(), Counter(), Counter()

    def counting_guard(pairs, applied, description):
        built[applied.value] += len(pairs)
        try:
            return _GUARD(pairs, applied, description)
        except RewriteRejectedError:
            rejected[applied.value] += 1
            raise

    def counting_checked(parent, applied, delta, description):
        try:
            return _CHECKED(parent, applied, delta, description)
        except OperatorPreconditionError:
            condemned[applied.value] += 1
            raise

    with patch.object(operators, "_guard", counting_guard), patch.object(operators, "_checked", counting_checked):
        for first, second, seed in itertools.product(CORPUS_NAMES, CORPUS_NAMES, range(3)):
            graph, partner, rng = load_corpus_graph(first), load_corpus_graph(second), np.random.default_rng(seed)
            for _ in range(8):
                outcome = apply_random((graph, partner), rng)
                if outcome is None:
                    break
                graph = outcome.graphs[0]
    # on these chains the check condemns every rewiring and mutation product the guard would reject
    assert dict(rejected) == {"deletion": 5}
    assert dict(condemned) == {"rewiring": 119, "subgraph_mutation": 147}
    assert sum(built.values()) == 412


def test_an_interface_source_whose_role_changes_has_no_type_read():
    # EP feeds X's problem port unlabeled and its entry_point port by label, so it is a
    # problem entry beside PROBLEM and the parent fails; moving its unlabeled edge to
    # PROBLEM leaves it an auxiliary entry whose entry_point payload X accepts
    def generator(node_id):
        return Node(node_id, "CustomCodeGenerateOp", {"instruction": "solve"})

    nodes = [Node("PROBLEM", "Interface"), Node("EP", "Interface"), generator("X"), generator("Y")]
    nodes.append(Node("RETURN", "Interface"))
    kept = [Edge("PROBLEM", "Y"), Edge("Y", "RETURN"), Edge("EP", "X", "entry_point"), Edge("X", "RETURN")]
    graph = WorkflowGraph(nodes, [*kept, Edge("EP", "X")], domain="code")
    assert validate(graph).q == 0
    args = (("EP", "X"), "PROBLEM", "from_third")
    delta, _ = _rewiring(graph, *args)
    assert not _doomed(graph, delta)
    (product,) = rewire_edge(graph, *args).graphs
    assert validate(product).q == 1
    assert product.interface_roles().aux_entries == ("EP",)
