"""Constraint-preserving graph rewrite operators.

Six atomic rewrites drive workflow evolution: attribute substitution, node
addition on an edge, edge rewiring, linear-node deletion, subgraph
mutation against a motif library, and crossover at a shared interface
node. Every operator checks its local type preconditions and states its
rewrite as a ``GraphDelta`` against the parent; the closure guard then
decides the product, which is rejected wholesale when it fails, so no
partially rewritten state is ever observable.

The guard builds each product with ``with_changes`` and decides it by
``validate`` alone; the product inherits the per-node findings its delta
keeps, so the full check finds only the others anew.

``apply_random`` checks each rewiring site and mutation fragment before
the guard builds its product (``_doomed``), and does not build a product
the check condemns. Those operators draw nothing from the rng once a site
or fragment is picked, so the check changes no draw and no product, only
which products are built. The public operators never run it, and neither
does deletion, whose few rejected products cost less than checking every
deletion site.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import accumulate
from types import MappingProxyType

from .graph import Edge, GraphDelta, Node, WorkflowGraph, auto_role, prompt_refs, type_of_output
from .registry import NodeTypeSchema, port_accepts
from .validator import _bind_ports, bind_input_ports, own_findings, validate


class OperatorKind(enum.Enum):
    SUBSTITUTION = "substitution"
    ADDITION = "addition"
    REWIRING = "rewiring"
    DELETION = "deletion"
    SUBGRAPH_MUTATION = "subgraph_mutation"
    CROSSOVER = "crossover"


def default_operator_weights(crossover_rate: float = 0.10) -> dict:
    """Uniform weights over the five local operators; crossover gets its own rate."""
    share = (1.0 - crossover_rate) / 5.0
    weights = {kind: share for kind in OperatorKind}
    weights[OperatorKind.CROSSOVER] = crossover_rate
    return weights


class OperatorPreconditionError(Exception):
    """A rewrite's local precondition does not hold at the requested site."""


class RewriteRejectedError(Exception):
    """The rewritten product failed re-validation (closure guard).

    ``diagnostics`` holds the product's full findings, as ``soft_check``
    reports them.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


@dataclass(frozen=True)
class RewriteOutcome:
    """A successful rewrite: new graph value(s), all re-validated."""

    graphs: tuple[WorkflowGraph, ...]
    applied: OperatorKind
    description: str

    def modification_record(self) -> str:
        return f"<modification>{self.description}</modification>"


def _guard(pairs, applied: OperatorKind, description: str) -> RewriteOutcome:
    """Build each (parent, delta) pair's product; reject the first one that does not validate."""
    graphs = []
    for parent, delta in pairs:
        graph = parent.with_changes(delta)
        verdict = validate(graph)
        if verdict.q != 1:
            errors = [d for d in verdict.diagnostics if d.is_error]
            raise RewriteRejectedError(
                f"{applied.value} product failed validation: " + "; ".join(d.render() for d in errors[:4]),
                diagnostics=verdict.diagnostics,
            )
        graphs.append(graph)
    return RewriteOutcome(tuple(graphs), applied, description)


def _doomed(parent: WorkflowGraph, delta: GraphDelta) -> bool:
    """Whether the product of ``delta`` must fail the closure guard, read from the parent
    and the delta without building it.

    The product's edges at the nodes the delta touches are the parent's,
    patched by the delta, and each test asks the code that states its rule:
    ``graph.auto_role`` of each touched auto-role interface, which W3
    rejects midstream or isolated; for one added edge ``s -> t`` whose
    removed edges each leave ``s`` or enter ``t``, so that none lies on a
    path from ``t`` to ``s``, the parent's cycle search from ``t``; and
    ``validator.own_findings`` of each touched node, on its product edges
    and binding. A source's output type is the parent's; none is read for a
    node the delta adds or replaces, nor for an interface it moves to
    another role. So a condemned product has an error-severity finding. W1
    and W2 are not read, and the guard decides every product that passes.
    """
    unread = {n.id: n for n in delta.added_nodes + delta.replaced_nodes}
    touched = delta.touched()
    out = {nid: parent._out.get(nid, ()) for nid in touched}
    inc = {nid: parent._in.get(nid, ()) for nid in touched}
    delta.apply_edges(out, inc)
    kept = [nid for nid in touched if nid in unread or nid not in delta.removed_nodes]
    nodes = [unread[nid] if nid in unread else parent._by_id[nid] for nid in kept]
    for node in nodes:
        schema = parent.registry.get(node.kind)
        if schema is not None and schema.interface_role == "auto" and node.id not in unread:
            role = auto_role(node.id, inc[node.id], out[node.id])
            if role in ("midstream", "isolated"):
                return True
            if role != auto_role(node.id, parent._in[node.id], parent._out[node.id]):
                unread[node.id] = node
    if len(delta.added_edges) == 1:
        (edge,) = delta.added_edges
        if all(e.source == edge.source or e.target == edge.target for e in delta.removed_edges):
            if not parent._acyclic_after(delta.added_edges):
                return True
    for node in nodes:
        nid = node.id
        # a kept node of the same kind with the same in-edges binds as in the parent
        rebound = nid in unread or inc[nid] is not parent._in[nid]
        binding = _bind_ports(parent.registry.get(node.kind), inc[nid]) if rebound else None
        if any(d.is_error for d in own_findings(parent, node, inc[nid], out[nid], binding, unread)):
            return True
    return False


def _checked(parent: WorkflowGraph, applied: OperatorKind, delta: GraphDelta, description: str) -> RewriteOutcome:
    """``_guard`` for one site ``apply_random`` draws: a product ``_doomed`` condemns is not built."""
    if _doomed(parent, delta):
        raise OperatorPreconditionError(f"{applied.value} product would fail validation")
    return _guard([(parent, delta)], applied, description)


def _port_fed_by(graph: WorkflowGraph, target: str, source: str, label):
    """The schema port an existing edge (source, target, label) lands on."""
    for (src, lab), port in bind_input_ports(graph, target).bindings:
        if src == source and lab == label:
            return port
    return None


def _find_edge(graph: WorkflowGraph, source: str, target: str, label=...) -> Edge:
    """The first matching edge in the graph's order: the unlabeled one if any."""
    for tgt, lab in graph._out.get(source, ()):
        if tgt == target and (label is ... or lab == label):
            return Edge(source, tgt, lab)
    raise OperatorPreconditionError(f"no edge {source}->{target} in graph")


# -- node substitution ---------------------------------------------------------


def substitute_node(graph: WorkflowGraph, node_id: str, new_attributes: dict) -> RewriteOutcome:
    """Replace one node's attribute map; topology and kind stay fixed."""
    if node_id not in graph:
        raise OperatorPreconditionError(f"unknown node {node_id!r}")
    node = graph.node(node_id)
    schema = graph.schema(node_id)
    if schema is not None:
        for attr in schema.attribute_keys:
            if attr.required and attr.key not in new_attributes:
                raise OperatorPreconditionError(
                    f"substitution on {node_id} drops required attribute {attr.key!r}"
                )
    new_node = replace(node, attributes=new_attributes)
    changed = {
        k: (node.attributes.get(k), new_attributes.get(k))
        for k in set(node.attributes) | set(new_attributes)
        if node.attributes.get(k) != new_attributes.get(k)
    }
    detail = ", ".join(f"{k}: {old!r} -> {new!r}" for k, (old, new) in sorted(changed.items()))
    description = f"substitute attributes of node {node_id}" + (f" ({detail})" if detail else " (unchanged)")
    delta = GraphDelta(replaced_nodes=(new_node,))
    return _guard([(graph, delta)], OperatorKind.SUBSTITUTION, description)


# -- node addition --------------------------------------------------------------


def add_node(graph: WorkflowGraph, edge, new_node: Node) -> RewriteOutcome:
    """Insert ``new_node`` on an existing edge (v_a, v_b).

    The edge is replaced by (v_a, new) and (new, v_b); the second edge keeps
    the original label so the payload lands on the same port of v_b. Both
    boundaries must be type-compatible with the new node's schema.
    """
    source, target = edge[0], edge[1]
    label = edge[2] if len(edge) > 2 else ...
    victim = _find_edge(graph, source, target, label)
    if new_node.id in graph:
        raise OperatorPreconditionError(f"node id {new_node.id!r} already in graph")
    schema = graph.registry.get(new_node.kind)
    if schema is None:
        raise OperatorPreconditionError(f"unknown kind {new_node.kind!r}")
    if schema.is_interface:
        raise OperatorPreconditionError("cannot insert an Interface node")
    primary = schema.primary_input()
    upstream_type = type_of_output(graph, source)
    if primary is None or not port_accepts(primary, upstream_type):
        raise OperatorPreconditionError(
            f"boundary (v_a, v') mismatch: {source} emits {upstream_type!r}, "
            f"{new_node.kind} consumes {primary.label if primary else 'nothing'!r}"
        )
    out_type = schema.output_port.type if schema.output_port else None
    target_port = _port_fed_by(graph, target, source, victim.label)
    if target_port is not None and not port_accepts(target_port, out_type):
        raise OperatorPreconditionError(
            f"boundary (v', v_b) mismatch: {new_node.kind} emits {out_type!r}, "
            f"port {target_port.label!r} of {target} does not accept it"
        )
    delta = GraphDelta(
        removed_edges=(victim,),
        added_edges=(Edge(source, new_node.id, None), Edge(new_node.id, target, victim.label)),
        added_nodes=(new_node,),
    )
    description = f"add node {new_node.id} ({new_node.kind}) on edge {source}->{target}"
    return _guard([(graph, delta)], OperatorKind.ADDITION, description)


# -- edge rewiring ----------------------------------------------------------------


def rewire_edge(graph: WorkflowGraph, existing, third: str, direction: str) -> RewriteOutcome:
    """Disconnect (v_a, v_b) and connect (v_a, v_c) or (v_c, v_b)."""
    delta, description = _rewiring(graph, existing, third, direction)
    return _guard([(graph, delta)], OperatorKind.REWIRING, description)


def _rewiring(graph: WorkflowGraph, existing, third: str, direction: str) -> tuple[GraphDelta, str]:
    """``rewire_edge``'s preconditions, then its delta and description."""
    source, target = existing[0], existing[1]
    label = existing[2] if len(existing) > 2 else ...
    victim = _find_edge(graph, source, target, label)
    if third not in graph:
        raise OperatorPreconditionError(f"unknown node {third!r}")
    if direction not in ("to_third", "from_third"):
        raise OperatorPreconditionError(f"bad direction {direction!r}")
    if direction == "to_third":
        new_edge = Edge(source, third, victim.label)
        payload = type_of_output(graph, source)
        schema = graph.schema(third)
        acceptable = schema is not None and any(
            port_accepts(p, payload) for p in schema.input_ports if not p.ambient
        )
        if schema is not None and schema.is_interface:
            acceptable = True  # guard decides whether the interface role survives
        if not acceptable:
            raise OperatorPreconditionError(
                f"type mismatch: {third} has no port accepting {payload!r}"
            )
    else:
        new_edge = Edge(third, target, victim.label)
        payload = type_of_output(graph, third)
        port = _port_fed_by(graph, target, source, victim.label)
        if port is not None and not port_accepts(port, payload):
            raise OperatorPreconditionError(
                f"type mismatch: {third} emits {payload!r}, port {port.label!r} "
                f"of {target} does not accept it"
            )
    if new_edge.source == new_edge.target:
        raise OperatorPreconditionError("rewiring would create a self-loop")
    if new_edge == victim:
        raise OperatorPreconditionError("rewiring would leave the edge as it is")
    delta = GraphDelta(removed_edges=(victim,), added_edges=(new_edge,))
    description = (
        f"rewire edge {source}->{target} to {new_edge.source}->{new_edge.target}"
    )
    return delta, description


# -- node deletion ------------------------------------------------------------------


def delete_node(graph: WorkflowGraph, node_id: str) -> RewriteOutcome:
    """Delete a linear (fan-in 1, fan-out 1) node and bridge its neighbors."""
    if node_id not in graph:
        raise OperatorPreconditionError(f"unknown node {node_id!r}")
    node = graph.node(node_id)
    schema = graph.schema(node_id)
    if schema is not None and schema.is_interface:
        raise OperatorPreconditionError("cannot delete an Interface node")
    indeg, outdeg = graph.in_degree(node_id), graph.out_degree(node_id)
    if indeg != 1 or outdeg != 1:
        raise OperatorPreconditionError(
            f"node {node_id} is not linear (fan-in {indeg}, fan-out {outdeg})"
        )
    (pred, pred_label) = graph.predecessors(node_id)[0]
    (succ, succ_label) = graph.successors(node_id)[0]
    if pred == succ:
        raise OperatorPreconditionError("deletion would create a self-loop")
    bridge_port = _port_fed_by(graph, succ, node_id, succ_label)
    upstream_type = type_of_output(graph, pred)
    if bridge_port is not None and not port_accepts(bridge_port, upstream_type):
        raise OperatorPreconditionError(
            f"bridging type mismatch: {pred} emits {upstream_type!r}, port "
            f"{bridge_port.label!r} of {succ} does not accept it"
        )
    delta = GraphDelta(
        removed_edges=(Edge(pred, node_id, pred_label), Edge(node_id, succ, succ_label)),
        added_edges=(Edge(pred, succ, succ_label),),
        removed_nodes=(node_id,),
    )
    description = f"delete node {node_id} ({node.kind}) and bridge {pred}->{succ}"
    return _guard([(graph, delta)], OperatorKind.DELETION, description)


# -- subgraph mutation -----------------------------------------------------------------


@dataclass(frozen=True)
class Fragment:
    """A replacement subgraph with declared input/output boundary nodes.

    ``prompts`` is stored as a read-only copy.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...] = ()
    prompts: Mapping = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    label: str = "fragment"

    def __post_init__(self):
        object.__setattr__(self, "prompts", MappingProxyType(dict(self.prompts)))


def _referenced_prompts(graph: WorkflowGraph, nodes) -> dict:
    """The prompt texts of ``graph`` that ``nodes`` name, so they travel with the nodes."""
    refs = prompt_refs(graph, nodes)
    return {name: graph.prompts.get(name) for _, _, name in refs if name in graph.prompts}


def _fresh_ids(ids, taken: set, suffix: str) -> dict:
    """Each of ``ids`` -> itself, or ``<id>_<suffix><n>`` with the least n >= 2
    that is neither in ``taken`` nor given to an earlier id."""
    used = set(taken)
    rename = {}
    for nid in ids:
        new_id, counter = nid, 2
        while new_id in used:
            new_id = f"{nid}_{suffix}{counter}"
            counter += 1
        rename[nid] = new_id
        used.add(new_id)
    return rename


def _edges_at(graph: WorkflowGraph, region) -> list[Edge]:
    """Every edge with an endpoint in ``region``, each once, read from the adjacency."""
    edges = []
    for nid in sorted(region):
        edges.extend(Edge(src, nid, lab) for src, lab in graph._in[nid] if src not in region)
        edges.extend(Edge(nid, tgt, lab) for tgt, lab in graph._out[nid])
    return edges


def _region_connected(graph: WorkflowGraph, region: frozenset) -> bool:
    if not region:
        return False
    if len(region) == 1:
        return True
    neighbors = {nid: set() for nid in region}
    for e in graph.edges:
        if e.source in region and e.target in region:
            neighbors[e.source].add(e.target)
            neighbors[e.target].add(e.source)
    seen = set()
    stack = [next(iter(region))]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(neighbors[current] - seen)
    return seen == region


def mutate_subgraph(graph: WorkflowGraph, region, replacement: Fragment) -> RewriteOutcome:
    """Replace a connected region with a boundary-compatible fragment.

    Each external edge into the region is re-attached to every declared
    fragment input node (and symmetrically for outputs), so a fragment with
    a wider boundary fans the surrounding dataflow out across its nodes.
    """
    delta, description = _mutation(graph, region, replacement)
    return _guard([(graph, delta)], OperatorKind.SUBGRAPH_MUTATION, description)


def _mutation(graph: WorkflowGraph, region, replacement: Fragment) -> tuple[GraphDelta, str]:
    """``mutate_subgraph``'s preconditions, then its delta and description."""
    region = frozenset(region)
    unknown = [nid for nid in region if nid not in graph]
    if unknown:
        raise OperatorPreconditionError(f"region references unknown nodes {unknown!r}")
    for nid in region:
        schema = graph.schema(nid)
        if schema is not None and schema.is_interface:
            raise OperatorPreconditionError("region must not contain Interface nodes")
    if not _region_connected(graph, region):
        raise OperatorPreconditionError("region is empty or not connected")
    if not replacement.inputs or not replacement.outputs:
        raise OperatorPreconditionError("fragment must declare input and output nodes")
    frag_ids = {n.id for n in replacement.nodes}
    if len(frag_ids) != len(replacement.nodes):
        raise OperatorPreconditionError("fragment contains duplicate node ids")
    for nid in replacement.inputs + replacement.outputs:
        if nid not in frag_ids:
            raise OperatorPreconditionError(f"fragment boundary node {nid!r} not in fragment")

    touching = _edges_at(graph, region)
    incoming = [e for e in touching if e.source not in region]
    outgoing = [e for e in touching if e.source in region and e.target not in region]
    frag_by_id = {n.id: n for n in replacement.nodes}
    mismatched = []
    for e in incoming:
        payload = type_of_output(graph, e.source)
        for fid in replacement.inputs:
            schema = graph.registry.get(frag_by_id[fid].kind)
            primary = schema.primary_input() if schema else None
            if primary is None or not port_accepts(primary, payload):
                mismatched.append(f"{e.source} ({payload}) -> {fid}")
    for e in outgoing:
        port = _port_fed_by(graph, e.target, e.source, e.label)
        for fid in replacement.outputs:
            schema = graph.registry.get(frag_by_id[fid].kind)
            out_type = schema.output_port.type if schema and schema.output_port else None
            if port is not None and not port_accepts(port, out_type):
                mismatched.append(f"{fid} ({out_type}) -> {e.target}")
    if mismatched:
        raise OperatorPreconditionError(
            "boundary signature mismatch: " + "; ".join(sorted(set(mismatched)))
        )

    rename = _fresh_ids([n.id for n in replacement.nodes], set(graph.node_ids()) - region, "r")
    edges = [Edge(rename[e.source], rename[e.target], e.label) for e in replacement.edges]
    for e in incoming:
        for fid in replacement.inputs:
            edges.append(Edge(e.source, rename[fid], e.label))
    for e in outgoing:
        for fid in replacement.outputs:
            edges.append(Edge(rename[fid], e.target, e.label))
    delta = GraphDelta(
        removed_edges=tuple(touching),
        added_edges=tuple(edges),
        removed_nodes=tuple(sorted(region)),
        added_nodes=tuple(replace(n, id=rename[n.id]) for n in replacement.nodes),
        prompts=graph.prompts.merged(replacement.prompts),
    )
    description = (
        f"mutate subgraph {{{', '.join(sorted(region))}}} -> "
        f"{replacement.label} ({len(replacement.nodes)} nodes)"
    )
    return delta, description


# -- crossover -------------------------------------------------------------------------


def _topo_depth(graph: WorkflowGraph) -> dict:
    depth = {nid: 0 for nid in graph.node_ids()}
    for nid in graph.topological_order():
        for succ, _ in graph.successors(nid):
            depth[succ] = max(depth[succ], depth[nid] + 1)
    return depth


def _dominates_downstream(graph: WorkflowGraph, node_id: str) -> bool:
    """Every edge into the strictly-downstream region originates at or inside it."""
    downstream = graph.downstream_of(node_id)
    allowed = downstream | {node_id}
    for e in graph.edges:
        if e.target in downstream and e.source not in allowed:
            return False
    return True


def default_crossover_point(g1: WorkflowGraph, g2: WorkflowGraph):
    """Deepest shared-kind node pair, kind priority ensemble, test, then name order."""
    kinds1 = {}
    kinds2 = {}
    for g, table in ((g1, kinds1), (g2, kinds2)):
        for node in g.nodes:
            schema = g.schema(node.id)
            if schema is None or schema.is_interface:
                continue
            table.setdefault(schema.kind, []).append(node.id)
    shared = set(kinds1) & set(kinds2)
    priority = [k for k in ("ScEnsembleOp", "TestOp") if k in shared]
    priority += sorted(shared - set(priority))
    depth1, depth2 = _topo_depth(g1), _topo_depth(g2)
    for kind in priority:
        candidates1 = sorted(kinds1[kind], key=lambda n: (-depth1[n], n))
        candidates2 = sorted(kinds2[kind], key=lambda n: (-depth2[n], n))
        for v1 in candidates1:
            if not _dominates_downstream(g1, v1):
                continue
            for v2 in candidates2:
                if _dominates_downstream(g2, v2):
                    return v1, v2
    return None


def _graft_downstream(own: WorkflowGraph, v_own: str, donor: WorkflowGraph, v_donor: str) -> GraphDelta:
    drop = own.downstream_of(v_own)
    imported = donor.downstream_of(v_donor)
    rename = _fresh_ids(sorted(imported), set(own.node_ids()) - drop, "x")
    rename[v_donor] = v_own

    migrated = [n for n in donor.nodes if n.id in imported]
    return GraphDelta(
        removed_edges=tuple(_edges_at(own, drop)),
        added_edges=tuple(
            Edge(rename[src], rename[tgt], lab)
            for src in sorted(imported | {v_donor})
            for tgt, lab in donor._out[src]
            if tgt in imported
        ),
        removed_nodes=tuple(sorted(drop)),
        added_nodes=tuple(replace(n, id=rename[n.id]) for n in migrated),
        prompts=own.prompts.merged(_referenced_prompts(donor, migrated)),
    )


def crossover(g1: WorkflowGraph, g2: WorkflowGraph) -> RewriteOutcome:
    """Exchange the strictly-downstream subgraphs at a shared interface node.

    All-or-nothing: both children must re-validate or the whole operation is
    rejected. Imported node ids are suffixed only when they would collide.
    """
    if g1.domain != g2.domain:
        raise OperatorPreconditionError("crossover parents must share a domain")
    for i, parent in enumerate((g1, g2), start=1):
        if validate(parent).q != 1:
            raise OperatorPreconditionError(f"crossover parent {i} does not validate")
    point = default_crossover_point(g1, g2)
    if point is None:
        raise OperatorPreconditionError("no crossover point: parents share no common interface node")
    v1, v2 = point
    pairs = [(g1, _graft_downstream(g1, v1, g2, v2)), (g2, _graft_downstream(g2, v2, g1, v1))]
    description = f"crossover at {v1}/{v2}: exchanged downstream subgraphs"
    return _guard(pairs, OperatorKind.CROSSOVER, description)


# -- randomized application ---------------------------------------------------------

ANALYSIS_PHRASES = (
    "Calculate step by step",
    "Generate solution with edge cases",
    "Execute code for precise calculations",
    "Verify and validate results",
    "Explore alternative methods",
    "Refine and format final output",
    "Solve the math problem step by step",
    "Double-check arithmetic carefully",
)

BUILTIN_ROLE_PROMPTS = {
    "solution_generator": "Solve the given problem carefully and present the final answer clearly.",
    "careful_reasoner": "Reason through the problem step by step, checking each intermediate result.",
    "review_solution": "Review the given solution, correct any mistakes, and present the final answer.",
    "refine_solution": "Refine the given solution for clarity and correctness, then present the final answer.",
}

BUILTIN_INSTRUCTION_PROMPTS = {
    "direct_generator": "Generate a complete, correct Python function for the problem. Include necessary imports.",
    "robust_generator": "Generate a Python function that handles edge cases robustly and matches the required signature.",
    "concise_generator": "Generate a concise, readable Python function that solves the problem exactly as specified.",
}

_ID_PREFIX = {"CustomOp": "C", "ProgrammerOp": "P", "CustomCodeGenerateOp": "G"}


def _fresh_id(taken, prefix: str) -> str:
    counter = 1
    while f"{prefix}{counter}" in taken:
        counter += 1
    return f"{prefix}{counter}"


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _substitution_attributes(graph: WorkflowGraph, node: Node, schema: NodeTypeSchema, rng) -> dict:
    attrs = dict(node.attributes)
    spec = _pick(rng, list(schema.attribute_keys))
    current = attrs.get(spec.key)
    if spec.prompt_ref:
        pool = [k for k in graph.prompts if k != current]
        value = _pick(rng, pool) if pool else f"{current or 'auto_role'}_alt"
    else:
        pool = [p for p in ANALYSIS_PHRASES if p != current]
        value = _pick(rng, pool)
    attrs[spec.key] = value
    return attrs


def _attributes_for(schema: NodeTypeSchema, graph: WorkflowGraph, rng) -> dict:
    attrs = {}
    for spec in schema.attribute_keys:
        if spec.prompt_ref:
            pool = list(graph.prompts)
            attrs[spec.key] = _pick(rng, pool) if pool else "auto_role"
        else:
            attrs[spec.key] = _pick(rng, list(ANALYSIS_PHRASES))
    return attrs


def _insertable_schemas(graph: WorkflowGraph):
    return [
        s
        for s in graph.registry.schemas()
        if s.insertable
        and not s.is_interface
        and s.domain_restriction in (None, graph.domain)
        and s.primary_input() is not None
        and s.output_port is not None
    ]


def _solver_specs(graph: WorkflowGraph, rng, count: int, taken: set):
    """Fresh solver nodes plus any prompt texts they introduce."""
    schemas = _insertable_schemas(graph)
    nodes, prompts = [], {}
    existing_keys = list(graph.prompts)
    for _ in range(count):
        schema = _pick(rng, schemas)
        node_id = _fresh_id(taken, _ID_PREFIX.get(schema.kind, "N"))
        taken.add(node_id)
        attrs = {}
        for spec in schema.attribute_keys:
            if spec.prompt_ref:
                builtin = BUILTIN_ROLE_PROMPTS if spec.key == "role" else BUILTIN_INSTRUCTION_PROMPTS
                pool = existing_keys + sorted(builtin)
                value = _pick(rng, pool)
                if value in builtin and value not in graph.prompts:
                    prompts[value] = builtin[value]
                attrs[spec.key] = value
            else:
                attrs[spec.key] = _pick(rng, list(ANALYSIS_PHRASES))
        nodes.append(Node(node_id, schema.kind, attrs, schema.display_name))
    return nodes, prompts


def motif_fragments(graph: WorkflowGraph, rng) -> list[Fragment]:
    """Built-in replacement motifs: solve chains, parallel branches,
    ensemble tails with optional refine, and a code-domain test tail."""
    taken = set(graph.node_ids())
    fragments = []

    chain, chain_prompts = _solver_specs(graph, rng, 2, set(taken))
    fragments.append(
        Fragment(
            nodes=tuple(chain),
            edges=(Edge(chain[0].id, chain[1].id),),
            prompts=chain_prompts,
            inputs=(chain[0].id,),
            outputs=(chain[1].id,),
            label="solve-chain",
        )
    )

    width = 2 + int(rng.integers(3))
    branches, branch_prompts = _solver_specs(graph, rng, width, set(taken))
    fragments.append(
        Fragment(
            nodes=tuple(branches),
            prompts=branch_prompts,
            inputs=tuple(n.id for n in branches),
            outputs=tuple(n.id for n in branches),
            label=f"parallel-{width}",
        )
    )

    ens_schema = graph.registry.get("ScEnsembleOp")
    if ens_schema is not None:
        width = 2 + int(rng.integers(4))
        pool = set(taken)
        solvers, solver_prompts = _solver_specs(graph, rng, width, pool)
        ens_id = "ENSEMBLE" if "ENSEMBLE" not in pool else _fresh_id(pool, "E")
        pool.add(ens_id)
        ens = Node(ens_id, "ScEnsembleOp", {}, ens_schema.display_name)
        edges = tuple(Edge(n.id, ens_id) for n in solvers)
        fragments.append(
            Fragment(
                nodes=tuple(solvers) + (ens,),
                edges=edges,
                prompts=solver_prompts,
                inputs=tuple(n.id for n in solvers),
                outputs=(ens_id,),
                label=f"ensemble-{width}",
            )
        )

        refine_id = "REFINE" if "REFINE" not in pool else _fresh_id(pool, "R")
        role = "refine_solution"
        refine_prompts = dict(solver_prompts)
        if role not in graph.prompts:
            refine_prompts[role] = BUILTIN_ROLE_PROMPTS[role]
        refine = Node(refine_id, "CustomOp", {"role": role}, "Custom")
        fragments.append(
            Fragment(
                nodes=tuple(solvers) + (ens, refine),
                edges=edges + (Edge(ens_id, refine_id),),
                prompts=refine_prompts,
                inputs=tuple(n.id for n in solvers),
                outputs=(refine_id,),
                label=f"ensemble-refine-{width}",
            )
        )

    if graph.domain == "code" and graph.registry.get("TestOp") is not None and ens_schema is not None:
        pool = set(taken)
        gens, gen_prompts = _solver_specs(graph, rng, 2, pool)
        ens_id = _fresh_id(pool, "E")
        pool.add(ens_id)
        test_id = _fresh_id(pool, "T") if "T" in pool else "T"
        ens = Node(ens_id, "ScEnsembleOp", {}, "ScEnsemble")
        test = Node(test_id, "TestOp", {}, "Test")
        fragments.append(
            Fragment(
                nodes=tuple(gens) + (ens, test),
                edges=tuple(Edge(n.id, ens_id) for n in gens) + (Edge(ens_id, test_id),),
                prompts=gen_prompts,
                inputs=tuple(n.id for n in gens),
                outputs=(test_id,),
                label="test-tail",
            )
        )
    return fragments


def donor_fragments(donor: WorkflowGraph, rng) -> list[Fragment]:
    """Replacement fragments lifted from another workflow's subgraphs.

    Two shapes are extracted: a single solver node, and the full branch set
    feeding one of the donor's ensembles. Prompt texts referenced by the
    lifted nodes travel with the fragment.
    """
    solvers = [
        n
        for n in donor.nodes
        if (s := donor.schema(n.id)) is not None
        and not s.is_interface
        and s.insertable
    ]
    fragments = []
    if solvers:
        node = solvers[int(rng.integers(len(solvers)))]
        fragments.append(
            Fragment(
                nodes=(node,),
                prompts=_referenced_prompts(donor, [node]),
                inputs=(node.id,),
                outputs=(node.id,),
                label=f"donor-node-{node.id}",
            )
        )
    ensembles = [
        n.id for n in donor.nodes if (s := donor.schema(n.id)) is not None and s.kind == "ScEnsembleOp"
    ]
    for ens_id in ensembles:
        # parallel edges repeat a source; each branch node appears once
        branch_ids = list(dict.fromkeys(src for src, _ in donor.predecessors(ens_id)))
        branches = [donor.node(b) for b in branch_ids]
        if len(branches) < 2 or any(
            (s := donor.schema(b.id)) is None or s.is_interface or not s.insertable
            for b in branches
        ):
            continue
        fragments.append(
            Fragment(
                nodes=tuple(branches),
                prompts=_referenced_prompts(donor, branches),
                inputs=tuple(branch_ids),
                outputs=tuple(branch_ids),
                label=f"donor-branches-{ens_id}",
            )
        )
    return fragments


# -- one row per kind: the sites of a graph, and the rewrite at one site ------------------
#
# Site lists follow the graph's canonical element order, so a seeded draw of
# indices into them (``_first_rewrite``) replays exactly from the graph
# value; rewrites that need randomness draw from the same rng, between
# those draws.


def _substitution_sites(graph):
    return [
        n.id
        for n in graph.nodes
        if (s := graph.schema(n.id)) is not None and not s.is_interface and s.attribute_keys
    ]


def _substitute_at(graph, node_id, rng, partner):
    node = graph.node(node_id)
    attrs = _substitution_attributes(graph, node, graph.schema(node_id), rng)
    return substitute_node(graph, node_id, attrs)


def _addition_sites(graph):
    schemas = _insertable_schemas(graph)
    return [(e, s) for e in graph.edges for s in schemas]


def _add_at(graph, site, rng, partner):
    victim, schema = site
    node_id = _fresh_id(set(graph.node_ids()), _ID_PREFIX.get(schema.kind, "N"))
    node = Node(node_id, schema.kind, _attributes_for(schema, graph, rng), schema.display_name)
    return add_node(graph, victim.key(), node)


class _RewiringSites:
    """The viable rewiring sites of a graph, drawn by index without being listed.

    A site is (edge, third node, direction): ``to_third`` moves the edge's
    target to the third node, ``from_third`` its source. Index ``i`` is the
    i-th site in list order: edges in graph order, third nodes in id order,
    ``to_third`` before ``from_third``. A rewiring whose product edge already
    exists is not a site, and neither is one that leaves a non-interface
    endpoint stranded, which the guard must reject with W3: ``to_third``
    needs the old target to keep an in-edge, ``from_third`` the old source
    to keep an out-edge. Each edge's site count comes from its endpoints'
    degrees and two label-keyed adjacency sets, so ``len`` costs O(E) and
    one site O(log E + V).

    The site list fixes which sites the rng's draws reach, so it leaves in
    every other site the guard would reject (a fed port, a moved interface
    role, a cycle); ``_rewire_at`` condemns those before building them
    (``_doomed``), which changes no draw.
    """

    def __init__(self, graph):
        self._edges = graph.edges
        self._ids = graph.node_ids()
        # (source, label) -> its targets, (target, label) -> its sources
        self._targets: dict = {}
        self._sources: dict = {}
        for e in self._edges:
            self._targets.setdefault((e.source, e.label), set()).add(e.target)
            self._sources.setdefault((e.target, e.label), set()).add(e.source)

        def keeps_an_edge(nid, degree):
            return degree > 1 or ((s := graph.schema(nid)) is not None and s.is_interface)

        self._moves = []  # per edge: the (direction, product edges already there) pairs that are viable
        self._starts = [0]  # index of each edge's first site; the last entry is the total
        for e in self._edges:
            ends = {e.source, e.target}
            moves = []
            if keeps_an_edge(e.target, graph.in_degree(e.target)):
                moves.append(("to_third", self._targets[e.source, e.label]))
            if keeps_an_edge(e.source, graph.out_degree(e.source)):
                moves.append(("from_third", self._sources[e.target, e.label]))
            self._moves.append(moves)
            count = sum(len(self._ids) - len(ends) - len(taken - ends) for _, taken in moves)
            self._starts.append(self._starts[-1] + count)

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int):
        if not 0 <= i < len(self):
            raise IndexError("rewiring site index out of range")
        j = bisect.bisect_right(self._starts, i) - 1
        e = self._edges[j]
        skip = i - self._starts[j]
        for third in self._ids:
            if third == e.source or third == e.target:
                continue
            for direction, taken in self._moves[j]:
                if third not in taken:
                    if not skip:
                        return (e, third, direction)
                    skip -= 1
        raise AssertionError("site counts disagree with the walk")


def _rewire_at(graph, site, rng, partner):
    victim, third, direction = site
    return _checked(graph, OperatorKind.REWIRING, *_rewiring(graph, victim.key(), third, direction))


def _deletion_sites(graph):
    return [
        n.id
        for n in graph.nodes
        if graph.in_degree(n.id) == 1
        and graph.out_degree(n.id) == 1
        and not ((s := graph.schema(n.id)) is not None and s.is_interface)
    ]


def _delete_at(graph, node_id, rng, partner):
    return delete_node(graph, node_id)


def _mutation_sites(graph):
    return [
        n.id
        for n in graph.nodes
        if not ((s := graph.schema(n.id)) is not None and s.is_interface)
    ]


def _mutate_at(graph, node_id, rng, partner):
    fragments = motif_fragments(graph, rng)
    if partner is not None and partner.domain == graph.domain:
        fragments.extend(donor_fragments(partner, rng))
    kind = OperatorKind.SUBGRAPH_MUTATION
    outcome = _first_rewrite(rng, fragments, lambda fragment: _checked(graph, kind, *_mutation(graph, {node_id}, fragment)))
    if outcome is None:
        raise OperatorPreconditionError(f"no fragment fits at node {node_id}")
    return outcome


def _crossover_sites(graph):
    return [None]  # the crossover point is chosen deterministically


def _crossover_at(graph, site, rng, partner):
    return crossover(graph, partner)


_REWRITES = {
    OperatorKind.SUBSTITUTION: (_substitution_sites, _substitute_at),
    OperatorKind.ADDITION: (_addition_sites, _add_at),
    OperatorKind.REWIRING: (_RewiringSites, _rewire_at),
    OperatorKind.DELETION: (_deletion_sites, _delete_at),
    OperatorKind.SUBGRAPH_MUTATION: (_mutation_sites, _mutate_at),
    OperatorKind.CROSSOVER: (_crossover_sites, _crossover_at),
}


def _first_rewrite(rng, sites, rewrite, budget=None) -> RewriteOutcome | None:
    """Rewrite at up to ``budget`` sites in seeded random order; the first product wins.

    The order is a sparse Fisher-Yates shuffle, drawn one site at a time:
    attempt ``i`` draws ``rng.integers(n - i)`` and ``swapped`` holds the
    positions moved so far, so a draw costs O(attempts), not O(n). Each site
    is tried at most once, and ``budget=None`` tries every site. A failed
    precondition, a rewiring or mutation product the pre-build check
    (``_doomed``) condemns, or a closure-guard rejection discards that
    attempt whole, and the next site is tried; each costs the same draw, so
    which of them fails an attempt moves no later draw.
    """
    n = len(sites)
    swapped: dict = {}
    for i in range(n if budget is None else min(budget, n)):
        j = i + int(rng.integers(n - i))
        idx = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
        try:
            return rewrite(sites[idx])
        except (OperatorPreconditionError, RewriteRejectedError):
            continue
    return None


def _weighted_kind_order(weights: dict, rng) -> list[OperatorKind]:
    """Every kind of positive weight, drawn by weight without replacement.

    Each pick replays ``rng.choice(len(remaining), p=probs)`` draw for draw:
    one ``rng.random()`` against the cumulative sum of ``probs`` over its last entry.
    """
    remaining = sorted(
        ((k, w) for k, w in weights.items() if w > 0), key=lambda kv: kv[0].value
    )
    order = []
    while remaining:
        total = sum(w for _, w in remaining)
        if not math.isfinite(total):
            raise ValueError(f"operator weights must have a finite sum (got {total})")
        cdf = list(accumulate(float(w / total) for _, w in remaining))
        last = cdf[-1]
        idx = bisect.bisect_right([c / last for c in cdf], rng.random())
        order.append(remaining.pop(idx)[0])
    return order


def check_site_budget(site_budget) -> None:
    """Raise ``ValueError`` unless ``site_budget`` is an integer of at least 1."""
    if not isinstance(site_budget, numbers.Integral):
        raise ValueError(f"site_budget must be an integer (got {site_budget!r})")
    if site_budget < 1:
        raise ValueError("site_budget must be >= 1")


def apply_random(target, rng, weights=None, site_budget: int = 8) -> RewriteOutcome | None:
    """Apply one randomly chosen operator at a randomly chosen valid site.

    ``target`` is a graph or a (primary, partner) pair; crossover needs the
    partner. The operator kind is drawn by weight. Each kind then tries up
    to ``site_budget`` of its sites (an integer >= 1, else ``ValueError``),
    drawn uniformly without replacement one at a time, and the first
    product the closure guard accepts wins. A kind whose tried sites are
    all inapplicable or rejected falls through to the next drawn kind.
    Returns None when no rewrite applies anywhere, which callers treat as a
    resample signal.
    """
    check_site_budget(site_budget)
    if isinstance(target, WorkflowGraph):
        primary, partner = target, None
    else:
        primary = target[0]
        partner = target[1] if len(target) > 1 else None
    weights = dict(weights or default_operator_weights())
    if partner is None:
        weights.pop(OperatorKind.CROSSOVER, None)

    for kind in _weighted_kind_order(weights, rng):
        sites, rewrite = _REWRITES[kind]
        outcome = _first_rewrite(
            rng, sites(primary), lambda site: rewrite(primary, site, rng, partner), site_budget
        )
        if outcome is not None:
            return outcome
    return None
