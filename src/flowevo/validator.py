"""Structural soft checks (W1-W5 + STRUCT) and the combined verdict gate.

``soft_check`` inspects a lowered graph; ``validate`` accepts either source
text (hard check, lowering, then soft check) or a graph value, and returns a
binary verdict: q=1 exactly when no error-severity finding exists.

Rule summary:
  W1  entry/exit interface presence and cardinality
  W2  every node on some entry-to-exit path
  W3  entry/exit roles played only by interface nodes
  W4  node kinds registered, domain-compatible, required attributes present
  W5  fan-in minimums on ensemble-style kinds, counted over the sources
      bound to the variadic port
  STRUCT  self-loops, duplicate edges, cycles, port binding, prompt table
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .diagnostics import (
    ERROR,
    STRUCT,
    W1,
    W2,
    W3,
    W4,
    W5,
    WARNING,
    Diagnostic,
    Verdict,
    make_verdict,
    sort_diagnostics,
)
from .graph import (
    RESERVED_ENTRY,
    RESERVED_EXIT,
    RESERVED_IDS,
    WorkflowGraph,
    prompt_refs,
    type_of_output,
)
from .mermaid import UNCLASSIFIED, lower_to_graph, parse_workflow
from .registry import NodeTypeSchema, port_accepts


class BindingResult(NamedTuple):
    """Outcome of matching a node's incoming edges against its schema ports.

    Read-only: a graph keeps one per node and hands it to every caller.
    """

    bindings: tuple  # ((source id, label), PortSpec) pairs
    missing: tuple  # required ports left unfed
    unexpected: tuple  # (source id, label) with no port to land on
    overfed: tuple  # non-variadic ports bound more than once
    ambiguous: bool


_NO_SCHEMA = NodeTypeSchema("")  # an unregistered kind binds no edge


def bind_input_ports(graph: WorkflowGraph, node_id: str) -> BindingResult:
    """Deterministic edge-to-port matching.

    Labeled edges bind to the port with the same label. Remaining edges fill
    open ports in schema order; a variadic port absorbs any surplus. The
    matching is silent when only one assignment is possible; it is flagged
    ambiguous when several leftover edges competed for several open ports.
    ``bindings`` lists the bound edges in the graph's canonical predecessor
    order (source id, then label), whichever rule bound them.

    A node's binding is computed once and kept on the graph value; a product
    of ``with_changes`` starts with its parent's bindings of the nodes whose
    kind and incoming edges it kept.
    """
    # the write is idempotent: a racing caller stores an equal binding
    result = graph._bindings.get(node_id)
    if result is None:
        result = graph._bindings[node_id] = _bind_ports(graph.schema(node_id), graph._in[node_id])
    return result


def bound_fan_in(graph: WorkflowGraph, node_id: str, port) -> int:
    """How many of the node's incoming edges ``bind_input_ports`` binds to ``port``."""
    return _fed(bind_input_ports(graph, node_id), port)


def _fed(result: BindingResult, port) -> int:
    return sum(1 for _, bound in result.bindings if bound.label == port.label)


def _bind_ports(schema: NodeTypeSchema | None, in_pairs) -> BindingResult:
    """The binding of a node of kind ``schema`` (None: unregistered) whose incoming
    (source, label) pairs are ``in_pairs``, in canonical predecessor order."""
    schema = schema or _NO_SCHEMA
    counts: dict = {}
    bindings = []
    leftovers = []  # positions in bindings of the edges no label binds
    for pair in in_pairs:
        port = schema.ports_by_label.get(pair[1]) if pair[1] else None
        if port is None:
            leftovers.append(len(bindings))
        else:
            counts[port.label] = counts.get(port.label, 0) + 1
        bindings.append((pair, port))

    open_ports = [p for p in schema.fillable_ports if p.label not in counts]
    ambiguous = len(leftovers) >= 2 and len(open_ports) >= 2
    unexpected = []
    for i in leftovers:
        pair = bindings[i][0]
        if open_ports:
            port = open_ports.pop(0)
        elif schema.variadic_port is not None:
            port = schema.variadic_port
        else:
            unexpected.append(pair)
            continue
        bindings[i] = (pair, port)
        counts[port.label] = counts.get(port.label, 0) + 1
    if unexpected:
        bindings = [(pair, port) for pair, port in bindings if port is not None]

    missing = tuple(p for p in schema.required_ports if p.label not in counts)
    overfed = tuple(p for p in schema.input_ports if not p.variadic and counts.get(p.label, 0) > 1)
    return BindingResult(tuple(bindings), missing, tuple(unexpected), overfed, ambiguous)


def soft_check(graph: WorkflowGraph) -> list[Diagnostic]:
    """Run every structural rule; total over arbitrary constructed graphs.

    The graph-wide rules run on every call. Each node's own findings are
    found once and kept on the graph value; a product of ``with_changes``
    starts with its parent's findings of the nodes the delta leaves as they
    were (see ``WorkflowGraph.with_changes``).
    """
    out = _check_w1(graph) + _check_w2(graph) + _check_roles(graph) + _check_prompts(graph)
    cycle = "node lies on a directed cycle"
    out += [Diagnostic(STRUCT, ERROR, cycle, subject=nid) for nid in sorted(graph.cycle_nodes())]
    findings = graph._findings
    for nid in graph._by_id:
        found = findings.get(nid)
        if found is None:
            # the write is idempotent: a racing caller stores equal findings
            found = findings[nid] = own_findings(graph, graph._by_id[nid], graph._in[nid], graph._out[nid])
        out += found
    return sort_diagnostics(out)


def _check_w1(graph):
    roles = graph.interface_roles()
    out = []
    if not roles.problem_entries:
        out.append(Diagnostic(W1, ERROR, "missing entry interface node", subject=RESERVED_ENTRY))
    if not roles.exits:
        out.append(Diagnostic(W1, ERROR, "missing exit interface node", subject=RESERVED_EXIT))
    for ids, role in ((roles.problem_entries, "entry"), (roles.aux_entries, "auxiliary entry"), (roles.exits, "exit")):
        if len(ids) > 1:
            out += [Diagnostic(W1, ERROR, f"multiple {role} interface nodes", subject=nid) for nid in ids]
    return out


def _check_w2(graph):
    roles = graph.interface_roles()
    if not roles.entries or not roles.exits:
        return []  # W1 already failed; reachability is undefined
    # in an acyclic graph every node is reached from a node with no in-edge
    # and reaches one with no out-edge, so when all of those are entries and
    # exits respectively, every node lies on an entry-to-exit path
    if not graph.cycle_nodes() and all(
        pairs or nid in roles.entries for nid, pairs in graph._in.items()
    ) and all(pairs or nid in roles.exits for nid, pairs in graph._out.items()):
        return []
    forward = graph.reachable_from_entry()
    backward = graph.reaches_exit()
    out = []
    for nid in graph.node_ids():
        from_entry = nid in forward
        to_exit = nid in backward
        if from_entry and to_exit:
            continue
        if not from_entry and not to_exit:
            message = "node is unreachable from entry and cannot reach exit"
        elif not from_entry:
            message = "node is unreachable from entry"
        else:
            message = "node cannot reach exit"
        out.append(Diagnostic(W2, ERROR, message, subject=nid))
    return out


def _check_roles(graph):
    roles = graph.interface_roles()
    message = "interface node is neither entry nor exit"
    return [Diagnostic(W3, ERROR, message, subject=nid) for nid in roles.midstream + roles.isolated]


def own_findings(graph: WorkflowGraph, node, in_pairs, out_pairs, binding=None, unread=()) -> tuple:
    """The findings about one node: W3-W5, its out-edges, and its ports and their input types.

    They read only the node, its schema, its incoming and outgoing (node id,
    label) pairs, its port binding, its sources' output types and the
    graph's domain. ``soft_check`` passes a node of ``graph`` with its own
    pairs. A rewrite's pre-build check passes a node of the product, its
    product pairs, its ``binding`` when that is not the parent's, and the
    ``unread`` sources whose output type in the product may not be the
    parent's, which get no type check; ``graph`` is the parent.
    """
    nid = node.id
    schema = graph.registry.get(node.kind)
    out = []
    out += [Diagnostic(STRUCT, ERROR, "self-loop edge", subject=f"{nid}->{nid}") for t, _ in out_pairs if t == nid]
    if len(out_pairs) > 1 and len(set(out_pairs)) < len(out_pairs):
        for (target, label), count in Counter(out_pairs).items():
            if count > 1:
                suffix = f" labeled {label!r}" if label else ""
                message = f"duplicate edge{suffix} (x{count})"
                out.append(Diagnostic(STRUCT, ERROR, message, subject=f"{nid}->{target}"))

    if schema is None or not schema.is_interface:
        if nid in RESERVED_IDS:
            message = f"reserved node {nid} must be classified as Interface, not {node.kind}"
            out.append(Diagnostic(W3, ERROR, message, subject=nid))
        elif not in_pairs or not out_pairs:
            message = f"node of kind {node.kind} plays an entry/exit role but is not an Interface"
            out.append(Diagnostic(W3, ERROR, message, subject=nid))

    if schema is None:
        if node.kind == UNCLASSIFIED:
            message = f"unclassified node {nid!r} (no class assignment)"
        else:
            message = f"unknown node type {node.kind!r}"
        out.append(Diagnostic(W4, ERROR, message, subject=nid))
        return tuple(out)
    if schema.domain_restriction and schema.domain_restriction != graph.domain:
        message = (
            f"kind {schema.kind} is restricted to {schema.domain_restriction} "
            f"workflows but this graph is {graph.domain}"
        )
        out.append(Diagnostic(W4, ERROR, message, subject=nid))
    for attr in schema.attribute_keys:
        if attr.required and attr.key not in node.attributes:
            message = f"missing required attribute {attr.key!r} for kind {schema.kind}"
            out.append(Diagnostic(W4, ERROR, message, subject=nid))

    if schema.fan_in_ports or not schema.is_interface:
        result = binding if binding is not None else bind_input_ports(graph, nid)
    for port in schema.fan_in_ports:
        fed = _fed(result, port)
        if fed < port.min_count:
            message = (
                f"{schema.kind} node has {fed} incoming connection"
                f"{'s' if fed != 1 else ''}; at least {port.min_count} required"
            )
            out.append(Diagnostic(W5, ERROR, message, subject=nid))

    if schema.is_interface:
        if schema.interface_role == "entry" and in_pairs:
            out.append(Diagnostic(STRUCT, ERROR, "entry interface must not receive input", subject=nid))
        if schema.interface_role == "exit" and out_pairs:
            out.append(Diagnostic(STRUCT, ERROR, "exit interface must not produce output", subject=nid))
        return tuple(out)
    for port in result.missing:
        out.append(Diagnostic(STRUCT, ERROR, f"missing required input {port.label!r}", subject=nid))
    for source, label in result.unexpected:
        out.append(Diagnostic(STRUCT, ERROR, f"unexpected input from {source} (no open port)", subject=nid))
    for port in result.overfed:
        out.append(Diagnostic(STRUCT, ERROR, f"port {port.label!r} bound more than once", subject=nid))
    if result.ambiguous:
        out.append(Diagnostic(STRUCT, WARNING, "ambiguous port binding resolved by edge order", subject=nid))
    for (source, label), port in result.bindings:
        if source in unread:
            continue
        payload = type_of_output(graph, source)  # None is the exit-produces-output rule's
        if payload is not None and not port_accepts(port, payload):
            message = (
                f"type mismatch: {source} emits {payload!r} but port "
                f"{port.label!r} accepts {', '.join(port.accepts)}"
            )
            out.append(Diagnostic(STRUCT, ERROR, message, subject=nid))
    return tuple(out)


def _check_prompts(graph):
    out = []
    used = set()
    prompts = graph.prompts
    for nid, key, name in prompt_refs(graph):
        if name in prompts:
            used.add(name)
        else:
            message = f"unresolved prompt reference {name!r} in attribute {key!r}"
            out.append(Diagnostic(STRUCT, WARNING, message, subject=nid))
    if len(used) < len(prompts):
        out += [Diagnostic(STRUCT, WARNING, f"unused prompt entry {name!r}") for name in prompts if name not in used]
    return out


def validate(target, registry=None, domain=None) -> Verdict:
    """Full verdict for source text or a graph value.

    Text goes through the hard check first; a source with syntax errors is
    reported by those alone, and lowering and the soft check run only when
    the source is within the dialect. A soft finding that a lowering finding
    already reports for the same subject is dropped. A passing text verdict
    carries the graph it lowered to.

    A graph's verdict is computed once and kept on the graph value, so every
    later check of the same graph reads the same verdict.
    """
    if isinstance(target, WorkflowGraph):
        return _graph_verdict(target)
    doc = parse_workflow(target)
    if not doc.ok:
        return make_verdict(sort_diagnostics(doc.diagnostics))
    graph, lowering = lower_to_graph(doc, registry=registry, domain=domain)
    reported = {(d.rule, d.subject) for d in lowering if d.subject is not None}
    soft = [d for d in _graph_verdict(graph).diagnostics if (d.rule, d.subject) not in reported]
    return make_verdict(sort_diagnostics(lowering + soft), graph)


def _graph_verdict(graph: WorkflowGraph) -> Verdict:
    # the write is idempotent: a racing caller stores an equal verdict
    if graph._verdict is None:
        graph._verdict = make_verdict(soft_check(graph))
    return graph._verdict
