"""Seeded random planar instance generation.

Graphs come from a random stacked triangulation (repeatedly inserting a
vertex into a random triangular face), which is maximal planar by
construction, followed by independent edge retention.  Degree targets
default to the solvable window ``[deg - k_v - k_e, deg]`` so instances
commonly survive normalization; ``raw=True`` draws unconstrained targets
to exercise the normalization rules instead.
"""

from __future__ import annotations

import random

from .graph import Graph, edge_key
from .instance import CONNECTED, PLAIN, Instance


def random_planar_graph(n: int, rng: random.Random, keep_prob: float = 0.65) -> Graph:
    """Random subgraph of a random stacked triangulation on n vertices."""
    if n <= 0:
        return Graph()
    if n == 1:
        return Graph([1])
    if n == 2:
        edges = [(1, 2)] if rng.random() < keep_prob else []
        return Graph([1, 2], edges)
    faces = [(1, 2, 3)]
    edges = {(1, 2), (1, 3), (2, 3)}
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
        edges |= {edge_key(a, v), edge_key(b, v), edge_key(c, v)}
    kept = [e for e in sorted(edges) if rng.random() < keep_prob]
    return Graph(range(1, n + 1), kept)


def generate_random_planar_instance(n: int, k_v: int, k_e: int, cost_budget: int,
                                    variant: str = PLAIN, seed: int = 0, *,
                                    raw: bool = False,
                                    keep_prob: float | None = None) -> Instance:
    """Deterministic-for-seed random instance on a random planar graph."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k_v < 0 or k_e < 0 or cost_budget < 0:
        raise ValueError("budgets must be non-negative")
    if variant not in (PLAIN, CONNECTED):
        raise ValueError(f"unknown variant: {variant!r}")
    rng = random.Random(seed)
    prob = keep_prob if keep_prob is not None else rng.uniform(0.45, 0.8)
    g = random_planar_graph(n, rng, prob)
    span = k_v + k_e
    delta = {}
    for v in g.sorted_vertices():
        d = g.degree(v)
        if raw:
            delta[v] = rng.randint(0, d + 2)
        else:
            delta[v] = rng.randint(max(0, d - span), d)
    weight_v = {v: rng.choice((1, 2)) for v in g.sorted_vertices()}
    cost_v = {v: rng.choice((0, 1, 2)) for v in g.sorted_vertices()}
    weight_e = {e: rng.choice((1, 2)) for e in sorted(g.edges())}
    cost_e = {e: rng.choice((0, 1, 2)) for e in sorted(g.edges())}
    return Instance(g, delta, weight_v, weight_e, cost_v, cost_e,
                    k_v, k_e, cost_budget, variant)
