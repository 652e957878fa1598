"""Frozen copy of the operator kind draw as it was when NumPy made each pick.

``reference_kind_order`` is ``operators._weighted_kind_order`` from when it
called ``rng.choice(len(remaining), p=probs)`` once per kind. The
differential test compares the current draw with it: the same order, and
the generator left in the same state.
"""

from __future__ import annotations


def reference_kind_order(weights: dict, rng) -> list:
    remaining = sorted(((k, w) for k, w in weights.items() if w > 0), key=lambda kv: kv[0].value)
    order = []
    while remaining:
        total = sum(w for _, w in remaining)
        probs = [w / total for _, w in remaining]
        idx = int(rng.choice(len(remaining), p=probs))
        order.append(remaining.pop(idx)[0])
    return order
