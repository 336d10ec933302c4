"""Planted yes-instances for the benchmark workloads.

They are built here, independently of the package's generator: a random
stacked triangulation (treewidth at most 3), a random edge subgraph for
the plain variant, and a planted deletion pair (U, D) within the
budgets.  Degree targets are the survivors' degrees after removing U and
D, and the cost budget is exactly c(U) + c(D), so (U, D) is a solution
and its cost an upper bound on the optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


KEEP_PROB = 0.65    # edge retention of the plain variant's subgraph


@dataclass(frozen=True)
class Planted:
    """A generated instance in file form; its budget C is c(U) + c(D)."""
    text: str                       # instance file contents
    cost_budget: int


def _stacked_triangulation(n: int, rng: random.Random) -> set[tuple[int, int]]:
    faces = [(1, 2, 3)]
    edges = {(1, 2), (1, 3), (2, 3)}
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
        edges |= {(a, v), (b, v), (c, v)}
    return edges


def _connected(vertices: set[int], edges: set[tuple[int, int]]) -> bool:
    if not vertices:
        return True
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vertices)


def _pick_within(items: list, weight: dict, budget: int, rng: random.Random) -> set:
    """Random items, taken while they fit, until their weight fills the budget.

    A planted pair that leaves a budget unused would let some instances be
    decided without any deletion, a different and much cheaper workload.
    """
    chosen: set = set()
    spent = 0
    for x in rng.sample(items, len(items)):
        if spent == budget:
            break
        if spent + weight[x] <= budget:
            chosen.add(x)
            spent += weight[x]
    return chosen


def planted_instance(n: int, k_v: int, k_e: int, connected: bool,
                     rng: random.Random) -> Planted:
    """A yes-instance on n >= 4 vertices with a planted solution."""
    full = _stacked_triangulation(n, rng)
    if connected:
        edges = set(full)       # 3-connected, so the survivor stays connected
    else:
        edges = {e for e in sorted(full) if rng.random() < KEEP_PROB}
    vertices = list(range(1, n + 1))
    weight_v = {v: rng.choice((1, 2)) for v in vertices}
    cost_v = {v: rng.choice((0, 1, 2)) for v in vertices}
    weight_e = {e: rng.choice((1, 2)) for e in sorted(edges)}
    cost_e = {e: rng.choice((0, 1, 2)) for e in sorted(edges)}
    while True:
        u = _pick_within(vertices, weight_v, k_v, rng)
        live = sorted(e for e in edges if e[0] not in u and e[1] not in u)
        d = _pick_within(live, weight_e, k_e, rng)
        survivors = set(vertices) - u
        kept = set(live) - d
        if not connected or _connected(survivors, kept):
            break
    deg = {v: 0 for v in vertices}
    for a, b in kept:
        deg[a] += 1
        deg[b] += 1
    full_deg = {v: 0 for v in vertices}
    for a, b in edges:
        full_deg[a] += 1
        full_deg[b] += 1
    # deleted vertices get an arbitrary target; it is never checked
    delta = {v: deg[v] if v in survivors else rng.randint(0, full_deg[v])
             for v in vertices}
    cost = sum(cost_v[v] for v in u) + sum(cost_e[e] for e in d)
    lines = [f"p degedit {n} {len(edges)} {k_v} {k_e} {cost} {int(connected)}"]
    lines += [f"v {v} {delta[v]} {weight_v[v]} {cost_v[v]}" for v in vertices]
    lines += [f"e {a} {b} {weight_e[(a, b)]} {cost_e[(a, b)]}"
              for a, b in sorted(edges)]
    return Planted("\n".join(lines) + "\n", cost)
