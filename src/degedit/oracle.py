"""Exact brute-force solver: ground truth at desk scale, and the method
``solve --method auto`` uses on an active region that ``fits_oracle``.

Instances are index-encoded (vertices 0..n-1, adjacency bitmasks, edge
endpoint arrays) and enumerated over efficient candidate pairs only:
deleted edges are drawn from the graph that remains after the vertex
deletions, so no deleted edge can touch a deleted vertex.  Feasibility and
minimum cost are unaffected because dropping edges incident to deleted
vertices never raises cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapacityError
from .instance import Instance, Solution

DEFAULT_VERTEX_CAP = 12
DEFAULT_EDGE_CAP = 18
DEFAULT_OPTIMA_CAP = 10_000


def candidate_pairs(inst: Instance) -> int:
    """Pairs (U, D) with |U| <= k_v and |D| <= k_e: a bound on the pairs
    ``brute_force_min_cost`` examines, which draws no more, and so on the
    optima it finds, each a distinct pair."""
    n, m = inst.graph.n, inst.graph.m
    return (sum(comb(n, r) for r in range(min(n, inst.k_v) + 1))
            * sum(comb(m, s) for s in range(min(m, inst.k_e) + 1)))


def fits_oracle(inst: Instance) -> bool:
    """Whether ``brute_force_min_cost`` answers inst at its default caps
    with a report that cannot be truncated, so its ``best()`` is the
    minimum by (cost, sorted ids, sorted edge pairs)."""
    return (inst.graph.n <= DEFAULT_VERTEX_CAP
            and inst.graph.m <= DEFAULT_EDGE_CAP
            and candidate_pairs(inst) <= DEFAULT_OPTIMA_CAP)


def backend_name() -> str:
    """Name of the enumeration kernel, recorded with benchmark results."""
    return "python"  # the enumeration below is pure Python


@dataclass(frozen=True)
class OracleReport:
    feasible: bool
    min_cost: int | None
    optima: tuple[Solution, ...]
    truncated: bool
    search_space: int

    def best(self) -> Solution | None:
        return self.optima[0] if self.optima else None


def _encode(inst: Instance):
    ids = inst.graph.sorted_vertices()
    idx = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    adj = [0] * n
    for v in ids:
        for u in inst.graph.neighbors(v):
            adj[idx[v]] |= 1 << idx[u]
    edges = sorted(inst.graph.edges())
    eu = [idx[a] for a, _ in edges]
    ev = [idx[b] for _, b in edges]
    delta = [inst.delta[v] for v in ids]
    wv = [inst.weight_v[v] for v in ids]
    cv = [inst.cost_v[v] for v in ids]
    we = [inst.weight_e[e] for e in edges]
    ce = [inst.cost_e[e] for e in edges]
    return ids, edges, adj, eu, ev, delta, wv, we, cv, ce


def brute_force_min_cost(inst: Instance, *,
                         vertex_cap: int = DEFAULT_VERTEX_CAP,
                         edge_cap: int = DEFAULT_EDGE_CAP,
                         optima_cap: int = DEFAULT_OPTIMA_CAP) -> OracleReport:
    """Exhaustive search over efficient deletion pairs.

    Refuses instances above the size caps; within them, feasibility and
    minimum cost are exact, and every minimum-cost efficient solution is
    reported (up to ``optima_cap``, with a truncation flag beyond).
    """
    if inst.graph.n > vertex_cap:
        raise CapacityError(
            f"instance has {inst.graph.n} vertices, oracle cap is {vertex_cap}")
    if inst.graph.m > edge_cap:
        raise CapacityError(
            f"instance has {inst.graph.m} edges, oracle cap is {edge_cap}")
    ids, edges, adj, eu, ev, delta, wv, we, cv, ce = _encode(inst)
    n = len(ids)
    kv, ke, cbudget = inst.k_v, inst.k_e, inst.cost_budget
    connected = inst.connected_variant
    m = len(eu)
    full = (1 << n) - 1
    best_cost = -1
    optima: list[tuple[int, int]] = []
    truncated = 0
    examined = 0

    max_del = min(n, kv)  # vertex weights are >= 1
    for r in range(max_del + 1):
        for combo in combinations(range(n), r):
            u_mask = 0
            w_used = 0
            for v in combo:
                u_mask |= 1 << v
                w_used += wv[v]
            if w_used > kv:
                continue
            kept = full & ~u_mask
            cost_u = sum(cv[v] for v in combo)

            # Degree surplus of every kept vertex once U is gone.
            excess = [0] * n
            total_excess = 0
            bad = False
            for v in range(n):
                if not (kept >> v) & 1:
                    continue
                e = bin(adj[v] & kept).count("1") - delta[v]
                if e < 0:
                    bad = True
                    break
                excess[v] = e
                total_excess += e
            if bad or total_excess % 2 == 1:
                continue
            need = total_excess // 2
            if need > ke:
                continue

            if need == 0:
                examined += 1
                cost = cost_u
                if cost <= cbudget and _keeps_shape(
                        n, adj, eu, ev, kept, 0, connected):
                    best_cost, optima, truncated = _record(
                        best_cost, optima, truncated, cost,
                        u_mask, 0, optima_cap)
                continue

            # Only edges between two surplus vertices can be deleted.
            cand = [i for i in range(m)
                    if (kept >> eu[i]) & 1 and (kept >> ev[i]) & 1
                    and excess[eu[i]] > 0 and excess[ev[i]] > 0]
            if len(cand) < need:
                continue
            for picks in combinations(cand, need):
                w_d = 0
                for i in picks:
                    w_d += we[i]
                if w_d > ke:
                    continue
                removed = [0] * n
                for i in picks:
                    removed[eu[i]] += 1
                    removed[ev[i]] += 1
                examined += 1
                if any(removed[v] != excess[v] for v in range(n)
                       if (kept >> v) & 1):
                    continue
                cost = cost_u + sum(ce[i] for i in picks)
                if cost > cbudget:
                    continue
                d_mask = 0
                for i in picks:
                    d_mask |= 1 << i
                if _keeps_shape(n, adj, eu, ev, kept, d_mask, connected):
                    best_cost, optima, truncated = _record(
                        best_cost, optima, truncated, cost,
                        u_mask, d_mask, optima_cap)

    sols = []
    for u_mask, d_mask in optima:
        u = frozenset(ids[i] for i in range(n) if (u_mask >> i) & 1)
        d = frozenset(edges[i] for i in range(len(edges)) if (d_mask >> i) & 1)
        sols.append(Solution(u, d, inst.cost_of(u, d)))
    sols.sort(key=Solution.canonical)
    feasible = best_cost >= 0
    return OracleReport(
        feasible=feasible,
        min_cost=best_cost if feasible else None,
        optima=tuple(sols),
        truncated=bool(truncated),
        search_space=examined,
    )


def equivalence_check(a: Instance, b: Instance) -> bool:
    """Whether two instances agree on feasibility."""
    return brute_force_min_cost(a).feasible == brute_force_min_cost(b).feasible


def _record(best_cost, optima, truncated, cost, u_mask, d_mask, cap):
    if best_cost < 0 or cost < best_cost:
        return cost, [(u_mask, d_mask)], 0
    if cost == best_cost:
        if len(optima) < cap:
            optima.append((u_mask, d_mask))
        else:
            truncated = 1
    return best_cost, optima, truncated


def _keeps_shape(n, adj, eu, ev, kept, d_mask, connected):
    """Connectivity filter; degree exactness was already established."""
    if not connected:
        return True
    if kept == 0:
        return True  # the empty graph counts as connected
    local = [adj[v] & kept for v in range(n)]
    i = 0
    while d_mask:
        if d_mask & 1:
            a, b = eu[i], ev[i]
            local[a] &= ~(1 << b)
            local[b] &= ~(1 << a)
        d_mask >>= 1
        i += 1
    start = (kept & -kept).bit_length() - 1
    seen = 1 << start
    frontier = [start]
    while frontier:
        v = frontier.pop()
        rest = local[v] & ~seen
        while rest:
            b = rest & -rest
            seen |= b
            frontier.append(b.bit_length() - 1)
            rest &= rest - 1
    return seen == kept
