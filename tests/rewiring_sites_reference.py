"""Frozen copy of the rewiring site list as it was built before sites were drawn lazily.

``reference_rewiring_sites`` is ``operators._rewiring_sites`` from when it
listed every (edge, third node, direction) triple; the order test compares
the lazy site sequence with it, index by index.
"""

from __future__ import annotations


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
