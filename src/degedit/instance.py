"""Problem instances and solution checking for degree-constrained deletion.

An instance asks for a vertex set and an edge set to delete, within separate
weight budgets and a joint cost budget, so that every surviving vertex ends
at exactly its target degree (and, for the connected variant, the surviving
graph is connected; the empty graph counts as connected).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .graph import Graph, edge_key

PLAIN = "plain"
CONNECTED = "connected"


@dataclass(frozen=True)
class Instance:
    graph: Graph
    delta: Mapping[int, int]
    weight_v: Mapping[int, int]
    weight_e: Mapping[tuple[int, int], int]
    cost_v: Mapping[int, int]
    cost_e: Mapping[tuple[int, int], int]
    k_v: int
    k_e: int
    cost_budget: int
    variant: str = PLAIN

    def __post_init__(self):
        # key views compare as sets, against the graph's vertex key view and
        # its cached edge set
        vs = self.graph.vertex_keys()
        es = self.graph.edge_set()
        for name, m in (("delta", self.delta), ("weight_v", self.weight_v),
                        ("cost_v", self.cost_v)):
            if m.keys() != vs:
                raise ValueError(f"{name} must be defined exactly on the vertex set")
        for name, m in (("weight_e", self.weight_e), ("cost_e", self.cost_e)):
            if m.keys() != es:
                raise ValueError(f"{name} must be defined exactly on the edge set")
        if min(self.delta.values(), default=0) < 0:
            raise ValueError("degree targets must be non-negative")
        if min(self.weight_v.values(), default=1) < 1 or min(self.weight_e.values(), default=1) < 1:
            raise ValueError("weights must be positive integers")
        if min(self.cost_v.values(), default=0) < 0 or min(self.cost_e.values(), default=0) < 0:
            raise ValueError("costs must be non-negative")
        if self.k_v < 0 or self.k_e < 0 or self.cost_budget < 0:
            raise ValueError("budgets must be non-negative")
        if self.variant not in (PLAIN, CONNECTED):
            raise ValueError(f"unknown variant: {self.variant!r}")

    @property
    def connected_variant(self) -> bool:
        return self.variant == CONNECTED

    def cost_of(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> int:
        return (sum(self.cost_v[v] for v in vertices)
                + sum(self.cost_e[edge_key(*e)] for e in edges))

    def vertex_weight(self, vertices: Iterable[int]) -> int:
        return sum(self.weight_v[v] for v in vertices)

    def edge_weight(self, edges: Iterable[tuple[int, int]]) -> int:
        return sum(self.weight_e[edge_key(*e)] for e in edges)

    def in_degree_window(self) -> bool:
        """Whether every vertex v satisfies delta(v) <= deg(v) <= delta(v)+k_v+k_e."""
        span = self.k_v + self.k_e
        return all(self.delta[v] <= self.graph.degree(v) <= self.delta[v] + span
                   for v in self.graph.vertices)


# -- instance edits --------------------------------------------------------------
#
# Every rewrite step (normalization and kernel reduction) changes its instance
# with one of these edits; only s-contraction-2 and t-prime-contraction chain
# a few.  Each builds one fresh, re-validated instance, and ``contract`` does
# its own target arithmetic.


def delete_vertices(inst: Instance, vs: Iterable[int], *, charge: bool,
                    delta_updates: Mapping[int, int] | None = None
                    ) -> Instance | None:
    """Remove vs, optionally paying their weight and cost, and set the
    surviving targets in ``delta_updates``; None when a charged removal
    would drive a budget negative."""
    vs = frozenset(vs)
    k_v, cbudget = inst.k_v, inst.cost_budget
    if charge:
        k_v -= sum(inst.weight_v[v] for v in vs)
        cbudget -= sum(inst.cost_v[v] for v in vs)
        if k_v < 0 or cbudget < 0:
            return None
    g = inst.graph.delete_vertices(vs)
    keep_e = g.edge_set()
    delta = {v: inst.delta[v] for v in g.vertices}
    if delta_updates:
        delta.update(delta_updates)
    return replace(inst, graph=g, delta=delta,
                   weight_v={v: inst.weight_v[v] for v in g.vertices},
                   weight_e={e: inst.weight_e[e] for e in keep_e},
                   cost_v={v: inst.cost_v[v] for v in g.vertices},
                   cost_e={e: inst.cost_e[e] for e in keep_e},
                   k_v=k_v, cost_budget=cbudget)


def delete_edges(inst: Instance, es: Iterable[tuple[int, int]],
                 delta_updates: Mapping[int, int]) -> Instance:
    """Remove the edges es (given as ``edge_key`` pairs) and set the targets
    in ``delta_updates``."""
    es = list(es)
    drop = frozenset(es)
    delta = dict(inst.delta)
    delta.update(delta_updates)
    return replace(inst, graph=inst.graph.delete_edges(es), delta=delta,
                   weight_e={e: w for e, w in inst.weight_e.items() if e not in drop},
                   cost_e={e: c for e, c in inst.cost_e.items() if e not in drop})


def contract(inst: Instance, a: int, b: int, z: int, *, slack: int,
             rigid: bool, inherit: bool) -> Instance | None:
    """Contract edge ab into z.

    z's target is |N(a) ∪ N(b) − {a, b}| − ``slack``, and every common
    neighbour of a and b loses one target degree (not below 0); None when
    z's target would be negative.  A ``rigid`` z is undeletable and free
    (weight k_v + 1, cost 0); otherwise it weighs and costs what a and b
    did together.  Edges at z are undeletable and free, or, with
    ``inherit`` (no common neighbour allowed), keep their old terms.
    """
    g = inst.graph
    na, nb = g.neighbors(a), g.neighbors(b)
    delta_z = len((na | nb) - {a, b}) - slack
    if delta_z < 0:
        return None
    common = na & nb
    if inherit and common:
        raise RuntimeError("inherit policy with merged parallel edges")
    g2, minted = g.contract_edge(a, b, new_id=z)
    if minted != z:
        raise RuntimeError(f"contraction minted {minted}, expected {z}")
    delta = {v: inst.delta[v] for v in g2.vertices if v != z}
    for x in common:
        delta[x] = max(0, delta[x] - 1)
    delta[z] = delta_z
    weight_v = {v: inst.weight_v[v] for v in g2.vertices if v != z}
    weight_v[z] = inst.k_v + 1 if rigid else inst.weight_v[a] + inst.weight_v[b]
    cost_v = {v: inst.cost_v[v] for v in g2.vertices if v != z}
    cost_v[z] = 0 if rigid else inst.cost_v[a] + inst.cost_v[b]
    weight_e, cost_e = {}, {}
    for e in g2.edge_set():
        if z in e:
            if inherit:
                x = e[0] if e[1] == z else e[1]
                src = edge_key(x, a) if g.has_edge(x, a) else edge_key(x, b)
                weight_e[e] = inst.weight_e[src]
                cost_e[e] = inst.cost_e[src]
            else:
                weight_e[e] = inst.k_e + 1
                cost_e[e] = 0
        else:
            weight_e[e] = inst.weight_e[e]
            cost_e[e] = inst.cost_e[e]
    return replace(inst, graph=g2, delta=delta, weight_v=weight_v,
                   weight_e=weight_e, cost_v=cost_v, cost_e=cost_e)


def add_pendant(inst: Instance, z: int, nbrs: tuple[int, ...]) -> Instance:
    """Add z joined to nbrs, undeletable, free and at its degree."""
    g = inst.graph.add_vertex(z, nbrs)
    delta = dict(inst.delta)
    delta[z] = len(nbrs)
    weight_v = dict(inst.weight_v)
    weight_v[z] = inst.k_v + 1
    cost_v = dict(inst.cost_v)
    cost_v[z] = 0
    weight_e = dict(inst.weight_e)
    cost_e = dict(inst.cost_e)
    for u in nbrs:
        e = edge_key(z, u)
        weight_e[e] = inst.k_e + 1
        cost_e[e] = 0
    return replace(inst, graph=g, delta=delta, weight_v=weight_v,
                   weight_e=weight_e, cost_v=cost_v, cost_e=cost_e)


@dataclass(frozen=True)
class Solution:
    deleted_vertices: frozenset[int] = frozenset()
    deleted_edges: frozenset[tuple[int, int]] = frozenset()
    total_cost: int = 0

    @classmethod
    def of(cls, inst: Instance, vertices: Iterable[int] = (),
           edges: Iterable[tuple[int, int]] = ()) -> "Solution":
        u = frozenset(vertices)
        d = frozenset(edge_key(*e) for e in edges)
        return cls(u, d, inst.cost_of(u, d))

    def canonical(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        return tuple(sorted(self.deleted_vertices)), tuple(sorted(self.deleted_edges))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def check_solution(inst: Instance, sol: Solution) -> Verdict:
    """Validate a solution against every budget, degree and connectivity rule."""
    g = inst.graph
    u, d = sol.deleted_vertices, sol.deleted_edges
    problems: list[str] = []
    if not u <= g.vertices:
        return Verdict(False, (f"unknown vertices in solution: {sorted(u - g.vertices)}",))
    if not d <= g.edge_set():
        return Verdict(False, (f"unknown edges in solution: {sorted(d - g.edge_set())}",))
    if inst.vertex_weight(u) > inst.k_v:
        problems.append(f"vertex weight {inst.vertex_weight(u)} exceeds budget {inst.k_v}")
    if inst.edge_weight(d) > inst.k_e:
        problems.append(f"edge weight {inst.edge_weight(d)} exceeds budget {inst.k_e}")
    cost = inst.cost_of(u, d)
    if cost > inst.cost_budget:
        problems.append(f"cost {cost} exceeds budget {inst.cost_budget}")
    remaining = g.delete_vertices(u)
    live_deleted = [e for e in sorted(d) if remaining.has_edge(*e)]
    remaining = remaining.delete_edges(live_deleted)
    for v in remaining.sorted_vertices():
        if remaining.degree(v) != inst.delta[v]:
            problems.append(
                f"vertex {v} has degree {remaining.degree(v)}, target {inst.delta[v]}")
    if inst.connected_variant and not remaining.is_connected():
        problems.append("surviving graph is disconnected")
    return Verdict(not problems, tuple(problems))


def is_efficient(inst: Instance, sol: Solution) -> bool:
    """True iff no deleted edge touches a deleted vertex."""
    u = sol.deleted_vertices
    return all(a not in u and b not in u for a, b in sol.deleted_edges)
