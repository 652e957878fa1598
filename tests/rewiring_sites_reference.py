"""Frozen copy of the rewiring site list as it was built before sites were drawn lazily.

``reference_rewiring_sites`` is ``operators._rewiring_sites`` from when it
listed every (edge, third node, direction) triple. ``split_rewiring_sites``
splits that list by the viability rule, with degrees counted from the edge
list: the kept sites are the sequence the lazy sites must match index by
index, and the dropped ones are the moves they must leave out.
"""

from __future__ import annotations

from collections import Counter


def reference_rewiring_sites(graph):
    sites = []
    keys = graph.edge_multiset()
    for e in graph.edges:
        for third in graph.node_ids():
            if third in (e.source, e.target):
                continue
            if (e.source, third, e.label) not in keys:
                sites.append((e, third, "to_third"))
            if (third, e.target, e.label) not in keys:
                sites.append((e, third, "from_third"))
    return sites


def detached_end(site) -> str:
    """The endpoint a rewiring takes the edge away from: the old target, or the old source."""
    edge, _, direction = site
    return edge.target if direction == "to_third" else edge.source


def split_rewiring_sites(graph):
    """(kept, dropped): a site is kept when its detached end keeps an edge of that side, or is an interface."""
    edges_into = Counter(e.target for e in graph.edges)
    edges_out_of = Counter(e.source for e in graph.edges)
    kept, dropped = [], []
    for site in reference_rewiring_sites(graph):
        end = detached_end(site)
        left = (edges_into if site[2] == "to_third" else edges_out_of)[end] - 1
        schema = graph.schema(end)
        (kept if left > 0 or (schema is not None and schema.is_interface) else dropped).append(site)
    return kept, dropped
