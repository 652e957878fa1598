"""Typed workflow-graph data model and structural queries.

A graph value is immutable after construction: every rewrite in the system
produces a new graph. Construction is permissive (invalid structure is
representable; the validator is a separate pass) but rejects the few things
that would make a graph unusable as a value: duplicate node ids, dangling
edge endpoints, and malformed identifiers.
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .registry import default_registry

RESERVED_ENTRY = "PROBLEM"
RESERVED_AUX_ENTRY = "ENTRY_POINT"
RESERVED_EXIT = "RETURN"
RESERVED_IDS = (RESERVED_ENTRY, RESERVED_AUX_ENTRY, RESERVED_EXIT)


class GraphConstructionError(Exception):
    """Raised when a graph value cannot be built at all."""


class MissingInterfaceError(Exception):
    """Raised by reachability queries on graphs without entry/exit nodes."""


@dataclass(frozen=True)
class Node:
    """One typed, attributed workflow node.

    ``attributes`` is stored as a read-only copy sorted by key, so nodes that
    parent and child graphs share cannot be changed through either of them,
    and the attribute order does not depend on how the node was built.
    """

    id: str
    kind: str
    attributes: Mapping = field(default_factory=dict)
    display_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "attributes", MappingProxyType(dict(sorted(self.attributes.items()))))


@dataclass(frozen=True)
class Edge:
    """A directed, optionally labeled dependency.

    Blank labels carry no information and are normalized to None so that
    labelless edges compare equal however they were constructed.
    """

    source: str
    target: str
    label: str | None = None

    def __post_init__(self):
        if self.label is not None:
            stripped = self.label.strip()
            object.__setattr__(self, "label", stripped or None)

    def key(self) -> tuple:
        return (self.source, self.target, self.label)


def edge_order(edge: Edge) -> tuple:
    """The canonical edge sort key: source, target, then the unlabeled edge first."""
    return (edge.source, edge.target, edge.label is not None, edge.label or "")


class PromptTable:
    """Named prompt texts referenced by node attributes, stored sorted by name."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        entries = dict(sorted((entries or {}).items()))
        for name in entries:
            if not (name.isascii() and name.isidentifier()):
                raise GraphConstructionError(f"bad prompt name {name!r}")
        self._entries = entries

    @property
    def entries(self):
        return MappingProxyType(self._entries)

    def get(self, name: str, default=None):
        return self._entries.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PromptTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"PromptTable({list(self._entries)})"

    def merged(self, extra: Mapping) -> "PromptTable":
        """This table plus the entries of ``extra`` it lacks; the table itself when it lacks none."""
        merged = dict(extra)
        merged.update(self._entries)  # existing entries win
        if len(merged) == len(self._entries):
            return self
        return PromptTable(merged)


@dataclass(frozen=True)
class InterfaceRoles:
    """Entry/exit classification of a graph's interface nodes."""

    problem_entries: tuple[str, ...]
    aux_entries: tuple[str, ...]
    exits: tuple[str, ...]
    midstream: tuple[str, ...]
    isolated: tuple[str, ...]

    @property
    def entries(self) -> tuple[str, ...]:
        return self.problem_entries + self.aux_entries


def auto_role(node_id: str, in_pairs, out_pairs) -> str:
    """The ``InterfaceRoles`` field an auto-role interface node falls in, by the degree
    convention, given its incoming and outgoing (node id, label) pairs: a node with only
    out-edges is an entry (auxiliary when it is ``ENTRY_POINT`` or all its out-edges are
    labeled ``entry_point``), one with only in-edges an exit; W3 rejects the other two."""
    if in_pairs and out_pairs:
        return "midstream"
    if in_pairs:
        return "exits"
    if not out_pairs:
        return "isolated"
    if node_id == RESERVED_AUX_ENTRY or {label for _, label in out_pairs} == {"entry_point"}:
        return "aux_entries"
    return "problem_entries"


class WorkflowGraph:
    """Immutable workflow graph with prebuilt adjacency indexes.

    Elements are stored in one canonical order, whatever order they were
    given in: nodes by id, edges by (source, target, label) with the
    unlabeled edge first, so every query, rewrite site list and serialized
    form depends only on the graph value.
    """

    __slots__ = (
        "nodes",
        "edges",
        "prompts",
        "domain",
        "registry",
        "_by_id",
        "_out",
        "_in",
        "_roles",
        "_bindings",
        "_findings",
        "_lines",
        "_refs",
        "_cycles",
        "_verdict",
        "_ir",
        "_calls",
    )

    def __init__(self, nodes, edges, prompts=None, domain="math", registry=None):
        by_id: dict[str, Node] = {}
        for node in sorted(nodes, key=_node_id):
            if not (node.id.isascii() and node.id.isidentifier()):
                raise GraphConstructionError(f"bad node id {node.id!r}")
            if node.id in by_id:
                raise GraphConstructionError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        edges = sorted(edges, key=edge_order)
        for edge in edges:
            if edge.source not in by_id:
                raise GraphConstructionError(f"dangling endpoint {edge.source!r}")
            if edge.target not in by_id:
                raise GraphConstructionError(f"dangling endpoint {edge.target!r}")
        prompts = prompts if prompts is not None else PromptTable()
        registry = registry if registry is not None else default_registry()
        self._index(by_id, edges, prompts, domain, registry)

    @classmethod
    def _from_checked(cls, rows, edges, prompts, domain, registry) -> WorkflowGraph:
        """A graph built without the constructors' checks and copies, from parts its caller
        checked: ``rows`` are (id, kind, read-only attributes, display label) with valid,
        distinct ids, and ``edges`` are (source, target, stripped label or "") between them."""
        by_id: dict[str, Node] = {}
        for node_id, kind, attributes, display in sorted(rows):
            if len(attributes) > 1:
                attributes = MappingProxyType(dict(sorted(attributes.items())))
            node = by_id[node_id] = object.__new__(Node)
            object.__setattr__(node, "id", node_id)
            object.__setattr__(node, "kind", kind)
            object.__setattr__(node, "attributes", attributes)
            object.__setattr__(node, "display_label", display)
        # as no edge keeps a blank label, (source, target, label or "") is the canonical order
        edges = [Edge(source, target, label or None) for source, target, label in sorted(edges)]
        graph = cls.__new__(cls)
        graph._index(by_id, edges, prompts, domain, registry)
        return graph

    def _index(self, by_id, edges, prompts, domain, registry) -> None:
        """Build the adjacency of ``by_id`` (id -> node, in id order) and ``edges`` (in canonical
        order, every endpoint a key of ``by_id``), then set the graph's tables."""
        out: dict[str, list] = {nid: [] for nid in by_id}
        inc: dict[str, list] = {nid: [] for nid in by_id}
        for edge in edges:
            out[edge.source].append((edge.target, edge.label))
            inc[edge.target].append((edge.source, edge.label))
        out = {k: tuple(v) for k, v in out.items()}
        inc = {k: tuple(v) for k, v in inc.items()}
        self._assign(tuple(by_id.values()), tuple(edges), prompts, domain, registry, by_id, out, inc)

    def _assign(self, nodes, edges, prompts, domain, registry, by_id, out, inc) -> None:
        """Set the graph's tables and start every memo empty; the per-node memos, dicts keyed
        by node id, each filled for the ids it lacks, pass to a product by ``_bequeath``."""
        self.nodes = nodes
        self.edges = edges
        self.prompts = prompts
        self.domain = domain
        self.registry = registry
        self._by_id = by_id  # id -> node, in id order; these three tables are never written again
        self._out = out  # id -> ((target, label), ...) in edge order
        self._in = inc  # id -> ((source, label), ...) in edge order
        self._bindings = {}  # node id -> port binding, filled by validator.bind_input_ports
        self._findings = {}  # node id -> the node's own soft-check findings, filled by validator.soft_check
        self._lines = {}  # node id -> (declaration, class and out-edge lines), filled by mermaid.serialize_workflow
        self._refs = {}  # node id -> its (attribute key, prompt name) references, filled by prompt_ref_table()
        self._calls = {}  # node id -> (call step, prompt names, prompt entries), set by codegen.lower_to_ir
        self._roles = None  # the interface roles, filled once by interface_roles()
        self._cycles = None  # the nodes on a cycle, filled once by cycle_nodes()
        self._verdict = None  # the soft-check verdict, filled once by validator.validate
        self._ir = None  # the program IR, filled once by codegen.lower_to_ir

    # -- basic queries ------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def schema(self, node_id: str):
        """The registered schema of the node's kind, or None for an unregistered kind."""
        try:
            node = self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None
        return self.registry.get(node.kind)

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def predecessors(self, node_id: str) -> list[tuple[str, str | None]]:
        """Incoming (source id, edge label) pairs, sorted by source then label."""
        if node_id not in self._by_id:
            raise KeyError(f"unknown node id {node_id!r}")
        return list(self._in[node_id])

    def successors(self, node_id: str) -> list[tuple[str, str | None]]:
        """Outgoing (target id, edge label) pairs, sorted by target then label."""
        if node_id not in self._by_id:
            raise KeyError(f"unknown node id {node_id!r}")
        return list(self._out[node_id])

    def in_degree(self, node_id: str) -> int:
        return len(self._in[node_id])

    def out_degree(self, node_id: str) -> int:
        return len(self._out[node_id])

    def edge_multiset(self) -> Counter:
        return Counter(e.key() for e in self.edges)

    # -- interface roles ----------------------------------------------------

    def interface_roles(self) -> InterfaceRoles:
        if self._roles is None:
            self._roles = self._classify_interfaces()
        return self._roles

    def _classify_interfaces(self) -> InterfaceRoles:
        roles = {field: [] for field in InterfaceRoles.__dataclass_fields__}
        for nid in self._by_id:
            schema = self.schema(nid)
            if schema is None or not schema.is_interface:
                continue
            role = schema.interface_role
            if role == "entry":
                role = "aux_entries" if nid == RESERVED_AUX_ENTRY else "problem_entries"
            elif role == "exit":
                role = "exits"
            else:
                role = auto_role(nid, self._in[nid], self._out[nid])
            roles[role].append(nid)
        return InterfaceRoles(**{field: tuple(ids) for field, ids in roles.items()})

    # -- reachability -------------------------------------------------------

    def reachable_from_entry(self) -> frozenset[str]:
        """Forward closure from every entry interface node."""
        roles = self.interface_roles()
        if not roles.entries:
            raise MissingInterfaceError("graph has no entry interface node")
        return self._closure(roles.entries, self._out)

    def reaches_exit(self) -> frozenset[str]:
        """Backward closure from every exit interface node."""
        roles = self.interface_roles()
        if not roles.exits:
            raise MissingInterfaceError("graph has no exit interface node")
        return self._closure(roles.exits, self._in)

    @staticmethod
    def _closure(seeds, adjacency) -> frozenset[str]:
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            current = queue.popleft()
            for neighbor, _ in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return frozenset(seen)

    def downstream_of(self, node_id: str) -> frozenset[str]:
        """Nodes strictly reachable after ``node_id``."""
        closed = self._closure([node_id], self._out)
        return frozenset(closed - {node_id})

    # -- cycles and ordering -------------------------------------------------

    def cycle_nodes(self) -> frozenset[str]:
        """Nodes lying on at least one directed cycle (self-loops included), found once per graph."""
        # the write is idempotent: a racing call stores an equal set
        if self._cycles is None:
            self._cycles = self._find_cycles()
        return self._cycles

    def _find_cycles(self) -> frozenset[str]:
        # one linear pass peels the nodes whose in-edges all come from peeled
        # nodes; when every node peels there is no cycle, and otherwise Tarjan's
        # strong components are searched among the rest, whose successors are
        # never peeled
        indeg = {nid: len(pairs) for nid, pairs in self._in.items()}
        peeled = [nid for nid, d in indeg.items() if not d]
        for nid in peeled:
            for target, _ in self._out[nid]:
                indeg[target] -= 1
                if not indeg[target]:
                    peeled.append(target)
        if len(peeled) == len(indeg):
            return frozenset()
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}  # of the nodes on the stack
        stack: list[str] = []
        result = {e.source for e in self.edges if e.source == e.target}
        for root in self._by_id:
            if root in index_of or not indeg[root]:
                continue
            index_of[root] = lowlink[root] = len(index_of)
            stack.append(root)
            work = [(root, iter(self._out[root]))]
            while work:
                node, successors = work[-1]
                for neighbor, _ in successors:
                    if neighbor not in index_of:
                        index_of[neighbor] = lowlink[neighbor] = len(index_of)
                        stack.append(neighbor)
                        work.append((neighbor, iter(self._out[neighbor])))
                        break
                    if neighbor in lowlink:
                        lowlink[node] = min(lowlink[node], index_of[neighbor])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == index_of[node]:
                        component = [stack.pop()]
                        while component[-1] != node:
                            component.append(stack.pop())
                        for member in component:
                            del lowlink[member]
                        if len(component) > 1:
                            result.update(component)
        return frozenset(result)

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm with id tie-breaking; raises on cycles."""
        indeg = {nid: len(self._in[nid]) for nid in self._by_id}
        ready = [nid for nid, d in indeg.items() if d == 0]  # ids in order: already a heap
        order: list[str] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for neighbor, _ in self._out[current]:
                indeg[neighbor] -= 1
                if indeg[neighbor] == 0:
                    heapq.heappush(ready, neighbor)
        if len(order) != len(self._by_id):
            raise GraphConstructionError("graph contains a cycle; no topological order")
        return tuple(order)

    # -- prompt references -----------------------------------------------------

    def prompt_ref_table(self) -> dict:
        """Node id -> the node's (attribute key, prompt name) references, in schema order.

        Filled on first read for the ids it lacks (a racing call stores equal
        entries), as a product of ``with_changes`` starts with its parent's
        entries of the nodes its delta keeps. Read-only for callers.
        """
        refs = self._refs
        if len(refs) != len(self._by_id):
            for nid in self._by_id.keys() - refs.keys():
                refs[nid] = _node_refs(self, self._by_id[nid])
        return refs

    # -- equality and derivation ---------------------------------------------

    def structural_signature(self) -> tuple:
        nodes = tuple(
            (n.id, n.kind, tuple(n.attributes.items()), effective_display(self, n)) for n in self.nodes
        )
        return (self.domain, nodes, tuple(self.edge_multiset().items()), tuple(self.prompts.entries.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkflowGraph):
            return NotImplemented
        return self.structural_signature() == other.structural_signature()

    def __repr__(self) -> str:
        return f"WorkflowGraph({len(self.nodes)} nodes, {len(self.edges)} edges, domain={self.domain})"

    def with_changes(self, delta: "GraphDelta") -> "WorkflowGraph":
        """A new graph value: this one with the rewrite ``delta`` applied.

        This graph's tables are patched where the delta touches them, and come
        out as ``WorkflowGraph(...)`` builds them; the product inherits every
        per-node fact the delta keeps (see ``_bequeath``).
        """
        edges = self.edges
        if delta.removed_edges or delta.added_edges:
            edges = list(edges)
            for victim in delta.removed_edges:
                # the parent's edges are in canonical order, so each victim is one bisection away
                i = bisect.bisect_left(edges, edge_order(victim), key=edge_order)
                if i == len(edges) or edges[i] != victim:
                    raise GraphConstructionError(f"no edge {victim.source}->{victim.target} to remove")
                del edges[i]
            for edge in delta.added_edges:
                bisect.insort(edges, edge, key=edge_order)
            edges = tuple(edges)
        nodes, by_id = self.nodes, self._by_id
        if delta.removed_nodes or delta.added_nodes or delta.replaced_nodes:
            nodes = list(nodes)
            for nid in delta.removed_nodes:
                del nodes[self._index_of(nodes, nid)]
            for node in delta.replaced_nodes:
                nodes[self._index_of(nodes, node.id)] = node
            for node in sorted(delta.added_nodes, key=_node_id):
                i = bisect.bisect_left(nodes, node.id, key=_node_id)
                if not (node.id.isascii() and node.id.isidentifier()):
                    raise GraphConstructionError(f"bad node id {node.id!r}")
                if i < len(nodes) and nodes[i].id == node.id:
                    raise GraphConstructionError(f"duplicate node id {node.id!r}")
                nodes.insert(i, node)
            nodes = tuple(nodes)
            by_id = {node.id: node for node in nodes}
        out, inc = self._out, self._in
        if edges is not self.edges or delta.removed_nodes or delta.added_nodes:
            out, inc = dict(out), dict(inc)
            delta.apply_edges(out, inc)
            dangling = [e for e in delta.added_edges if e.source not in by_id or e.target not in by_id]
            for nid in delta.removed_nodes:
                if nid not in by_id:
                    dangling += [Edge(nid, t, label) for t, label in out[nid]]
                    dangling += [Edge(s, nid, label) for s, label in inc[nid]]
            if dangling:
                first = min(dangling, key=edge_order)
                missing = first.source if first.source not in by_id else first.target
                raise GraphConstructionError(f"dangling endpoint {missing!r}")
            if delta.removed_nodes or delta.added_nodes:
                # a fresh graph's key order: node ids in order
                out = {nid: out.get(nid, ()) for nid in by_id}
                inc = {nid: inc.get(nid, ()) for nid in by_id}
        child = WorkflowGraph.__new__(WorkflowGraph)
        prompts = self.prompts if delta.prompts is None else delta.prompts
        child._assign(nodes, edges, prompts, self.domain, self.registry, by_id, out, inc)
        self._bequeath(child, delta)
        return child

    @staticmethod
    def _index_of(nodes, node_id: str) -> int:
        i = bisect.bisect_left(nodes, node_id, key=_node_id)
        if i == len(nodes) or nodes[i].id != node_id:
            raise KeyError(f"unknown node id {node_id!r}")
        return i

    def _bequeath(self, child: "WorkflowGraph", delta: "GraphDelta") -> None:
        """Give ``child``, this graph with ``delta`` applied, every memo entry the delta keeps."""
        edges = delta.removed_edges + delta.added_edges
        new_nodes = delta.added_nodes + delta.replaced_nodes
        kinds = [self.schema(nid) for nid in delta.touched() if nid in self]
        kinds += [self.registry.get(node.kind) for node in new_nodes]  # the child's new ones
        if not any(schema is not None and schema.is_interface for schema in kinds):
            child._roles = self._roles  # the roles read only interface nodes
        if self._cycles == frozenset() and child._acyclic_after(delta.added_edges):
            child._cycles = self._cycles
        changed = [*delta.removed_nodes, *(node.id for node in new_nodes)]
        # each per-node memo passes on without the ids whose entries the delta may change; an entry reads:
        if self._bindings:  # the node's kind and in-edges
            child._bindings = _snapshot(self._bindings, delta.rebound(self))
        if self._lines:  # the node, its schema, its out-edges
            child._lines = _snapshot(self._lines, [*changed, *(e.source for e in edges)])
        if self._refs:  # the node and its schema
            child._refs = _snapshot(self._refs, changed)
        if (self._findings or self._calls) and child.interface_roles() == self.interface_roles():  # and the roles:
            if self._findings:  # the node, its edges, its sources' output types
                child._findings = _snapshot(self._findings, delta.dirty(self, child))
            if self._calls:  # the node, its sources, the prompts it names
                child._calls = _snapshot(self._calls, delta.relowered(self, child))

    def _acyclic_after(self, added_edges) -> bool:
        """Whether no added ``s -> t`` has ``t`` reaching ``s`` in this graph.

        For an acyclic graph with ``added_edges`` added, that is whether it is
        acyclic: a cycle would run through some added edge. Past twice the node
        count in all, the searches stop and answer False; the search for one
        edge never gets that far.
        """
        budget = 2 * len(self._by_id)
        for edge in added_edges:
            seen, stack = {edge.target}, [edge.target]
            while stack:
                node = stack.pop()
                budget -= 1
                if node == edge.source or budget < 0:
                    return False
                for succ, _ in self._out.get(node, ()):  # a node only the delta adds has no out-edge
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
        return True


def _snapshot(memo: dict, dropped) -> dict:
    """A copy of ``memo`` without the entries of the ``dropped`` ids.

    Another thread may be filling ``memo``. A copy allocates no tracked
    object per entry, so no collection can run Python code, and switch
    threads, halfway through it.
    """
    kept = memo.copy()
    for nid in dropped:
        kept.pop(nid, None)
    return kept


def _node_id(node: Node) -> str:
    return node.id


def _pair_order(pair: tuple) -> tuple:
    """Adjacency entries (neighbor id, label) sort like their edges: by id, the unlabeled one first."""
    return (pair[0], pair[1] is not None, pair[1] or "")


def _edited(pairs: tuple, pair: tuple, add: bool) -> tuple:
    """An adjacency entry with ``pair`` inserted in order, or with one occurrence of it taken out."""
    pairs = list(pairs)
    if add:
        bisect.insort(pairs, pair, key=_pair_order)
    else:
        pairs.remove(pair)
    return tuple(pairs)


class GraphDelta(NamedTuple):
    """One rewrite as a value: what it takes from a parent graph and what it adds.

    ``removed_edges`` takes out one occurrence of each listed edge, and every
    edge of a removed node must be listed. ``replaced_nodes`` are new values
    for kept node ids; ``added_nodes`` are nodes the parent does not keep
    (an id may be removed and added again). ``prompts`` is the product's
    prompt table, or None to keep the parent's.
    """

    removed_edges: tuple[Edge, ...] = ()
    added_edges: tuple[Edge, ...] = ()
    removed_nodes: tuple[str, ...] = ()
    added_nodes: tuple[Node, ...] = ()
    replaced_nodes: tuple[Node, ...] = ()
    prompts: PromptTable | None = None

    def apply_edges(self, out: dict, inc: dict) -> None:
        """Take one occurrence of each removed edge out of, then put each added edge into,
        the adjacency maps ``out`` and ``inc`` (node id -> (neighbor id, label) pairs in
        edge order), in place; an id a map lacks starts with no pairs."""
        for add, changed in ((False, self.removed_edges), (True, self.added_edges)):
            for e in changed:
                out[e.source] = _edited(out.get(e.source, ()), (e.target, e.label), add)
                inc[e.target] = _edited(inc.get(e.target, ()), (e.source, e.label), add)

    def touched(self) -> set:
        """Ids of the nodes the delta touches: the endpoints of its edges and the nodes it changes."""
        ids = {nid for e in self.removed_edges + self.added_edges for nid in (e.source, e.target)}
        ids.update(self.removed_nodes, (n.id for n in self.added_nodes + self.replaced_nodes))
        return ids

    def recast(self, parent: WorkflowGraph) -> list:
        """Ids of the nodes that may get a new kind: added ones, and replaced ones of another kind."""
        new = self.added_nodes + self.replaced_nodes
        return [n.id for n in new if n.id not in parent or n.kind != parent.node(n.id).kind]

    def rebound(self, parent: WorkflowGraph) -> set:
        """Ids of the nodes whose kind or incoming edges the delta may change."""
        ids = {e.target for e in self.removed_edges + self.added_edges}
        ids.update(self.removed_nodes, self.recast(parent))
        return ids

    def dirty(self, parent: WorkflowGraph, product: WorkflowGraph) -> set:
        """Ids of the nodes whose own findings the delta may change, if it keeps the interface roles.

        The touched nodes, and the product's successors of each recast node,
        since their type checks read its output type.
        """
        ids = self.touched()
        for nid in self.recast(parent):
            ids.update(t for t, _ in product._out[nid])
        return ids

    def relowered(self, parent: WorkflowGraph, product: WorkflowGraph) -> set:
        """Ids of the nodes whose call steps the delta may change, if it keeps the interface roles:
        the touched nodes; the product's successors of each recast node and of each source of an
        added or removed ``fail`` edge, since a call step reads only its sources' kind, binding
        (fixed by the id) and branch status; and the nodes that name a prompt whose text the
        delta changes."""
        ids = self.touched()
        sources = {e.source for e in self.removed_edges + self.added_edges if e.label == "fail"}
        for nid in sources.union(self.recast(parent)):
            ids.update(t for t, _ in product._out.get(nid, ()))
        old, new = parent.prompts, product.prompts
        if new is not old and new != old:
            ids.update(nid for nid, (_, names, _) in parent._calls.items() if any(old.get(n) != new.get(n) for n in names))
        return ids


_INTERFACE_DISPLAY_DEFAULTS = {
    RESERVED_ENTRY: "Problem",
    RESERVED_EXIT: "Return response & cost",
    RESERVED_AUX_ENTRY: "entry_point",
}


def effective_display(graph: WorkflowGraph, node: Node) -> str:
    """The display text a node renders with.

    Surrounding whitespace is presentational and does not survive parsing,
    so it is not structural either; blank labels take the kind default.
    """
    display = node.display_label.strip()
    if display:
        return display
    schema = graph.schema(node.id)
    if schema is not None and schema.is_interface:
        return _INTERFACE_DISPLAY_DEFAULTS.get(node.id, node.id)
    if schema is not None and schema.display_name:
        return schema.display_name
    return node.kind[:-2] if node.kind.endswith("Op") else node.kind


def prompt_refs(graph: WorkflowGraph, nodes=None):
    """An iterator of (node id, attribute key, prompt name) for each prompt reference.

    Walks ``nodes`` (nodes of ``graph``; default: all of them) in order, and each
    node's prompt-ref attributes in schema order.
    """
    nodes = graph.nodes if nodes is None else nodes
    table = graph.prompt_ref_table()
    return ((node.id, key, name) for node in nodes for key, name in table[node.id])


def _node_refs(graph: WorkflowGraph, node: Node) -> tuple:
    """The node's (attribute key, prompt name) references: only identifier values
    are references; any other value is inline prompt text."""
    schema = graph.schema(node.id)
    refs = ()
    for key in () if schema is None else schema.prompt_ref_keys:
        value = node.attributes.get(key)
        if value is not None and value.isascii() and value.isidentifier():
            refs += ((key, value),)
    return refs


def type_of_output(graph: WorkflowGraph, node_id: str) -> str | None:
    """Semantic payload type a node emits; None for exit interfaces."""
    schema = graph.schema(node_id)
    if schema is None:
        return "any"
    if schema.is_interface:
        roles = graph.interface_roles()
        if node_id in roles.aux_entries:
            return "entry_point"
        if node_id in roles.problem_entries:
            return "problem"
        if node_id in roles.exits:
            return None
        return "any"
    return schema.output_port.type if schema.output_port else None
