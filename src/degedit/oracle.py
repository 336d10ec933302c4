"""Exact brute-force solver: ground truth at desk scale, and the method
``solve --method auto`` uses on an active region that ``fits_oracle``.

Instances are index-encoded (vertices 0..n-1, adjacency bitmasks, edge
endpoint arrays) and enumerated over efficient candidate pairs only:
deleted edges are drawn from the graph that remains after the vertex
deletions, so no deleted edge can touch a deleted vertex.  Feasibility and
minimum cost are unaffected because dropping edges incident to deleted
vertices never raises cost.

The search is the n^{k_v} enumeration of Mathieson & Szeider, "Editing
graphs to satisfy degree constraints: a parameterized approach" (JCSS
78(1), 2012).  The deleted set U runs over the vertices of weight at most
k_v, by size and then in lexicographic order.  Once U is fixed, every kept
vertex v must lose exactly its excess deg_{G-U}(v) - delta(v) to edge
deletions, so D only joins kept vertices of positive excess, and those
excesses sum to 2|D|.  Only U's neighbours change excess when U is
deleted, so each U costs its neighbourhood, and D is drawn from the edges
among the positive vertices alone.
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
    """A bound on the pairs (U, D) ``brute_force_min_cost`` examines, and
    so on the optima it finds, each a distinct pair:

        (sum over r <= min(d, k_v) of C(d, r))
          * max(1, max over 1 <= s <= k_e of C(min(m, C(2s, 2)), s)),

    d the number of vertices of weight at most k_v.  U is drawn from those
    d vertices, at most k_v of them.  For a given U, a pair is examined
    only when the kept vertices' excesses sum to 2s with s <= k_e, and D is
    s edges among the vertices of positive excess.  Each of those has
    excess at least 1, so there are at most 2s of them, with at most
    C(2s, 2) edges among them, and at most m in all; s = 0 examines the
    empty D alone.

    The inner maximum is reached at s = min(k_e, ceil(m / 2)).  With
    a(s) = min(m, C(2s, 2)), while 2s + 1 <= m the next term is no smaller:
    C(m, s + 1) >= C(m, s) once a(s) = m, and otherwise
    C(a(s + 1), s + 1) >= C(a(s) + 1, s + 1) >= C(a(s), s) since
    a(s) >= s.  Past ceil(m / 2), a(s) = m and C(m, s) only falls (at
    m = 2 the terms at s = 1 and 2 are both 1).
    """
    d = sum(1 for w in inst.weight_v.values() if w <= inst.k_v)
    m = inst.graph.m
    s = min(inst.k_e, (m + 1) // 2)
    return (sum(comb(d, r) for r in range(min(d, inst.k_v) + 1))
            * comb(min(m, s * (2 * s - 1)), s))


def fits_oracle(inst: Instance) -> bool:
    """Whether ``brute_force_min_cost`` answers inst, its size caps lifted,
    with a report that cannot be truncated: at most ``DEFAULT_OPTIMA_CAP``
    candidate pairs, so its ``best()`` is the minimum by (cost, sorted
    ids, sorted edge pairs)."""
    return candidate_pairs(inst) <= DEFAULT_OPTIMA_CAP


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
    g = inst.graph
    ids = g.sorted_vertices()
    idx = {v: i for i, v in enumerate(ids)}
    nbrs = [[idx[u] for u in g.neighbors(v)] for v in ids]
    adj = []
    for ns in nbrs:
        mask = 0
        for u in ns:
            mask |= 1 << u
        adj.append(mask)
    edges = sorted(g.edge_set())
    edge_at = {(idx[a], idx[b]): i for i, (a, b) in enumerate(edges)}
    eu = [a for a, _ in edge_at]
    ev = [b for _, b in edge_at]
    base = [len(nbrs[i]) - inst.delta[v] for i, v in enumerate(ids)]
    wv = [inst.weight_v[v] for v in ids]
    cv = [inst.cost_v[v] for v in ids]
    we = [inst.weight_e[e] for e in edges]
    ce = [inst.cost_e[e] for e in edges]
    return ids, edges, nbrs, adj, edge_at, eu, ev, base, wv, we, cv, ce


def brute_force_min_cost(inst: Instance, *,
                         vertex_cap: int = DEFAULT_VERTEX_CAP,
                         edge_cap: int = DEFAULT_EDGE_CAP,
                         optima_cap: int = DEFAULT_OPTIMA_CAP) -> OracleReport:
    """Exhaustive search over efficient deletion pairs.

    Refuses instances above the size caps; within them, feasibility and
    minimum cost are exact, and every minimum-cost efficient solution is
    reported (up to ``optima_cap``, with a truncation flag beyond).
    ``search_space`` counts the pairs examined: every U whose excesses
    need no edge deletion, and every D within k_e for the others.
    """
    if inst.graph.n > vertex_cap:
        raise CapacityError(
            f"instance has {inst.graph.n} vertices, oracle cap is {vertex_cap}")
    if inst.graph.m > edge_cap:
        raise CapacityError(
            f"instance has {inst.graph.m} edges, oracle cap is {edge_cap}")
    ids, edges, nbrs, adj, edge_at, eu, ev, base, wv, we, cv, ce = _encode(inst)
    n = len(ids)
    kv, ke, cbudget = inst.k_v, inst.k_e, inst.cost_budget
    connected = inst.connected_variant
    full = (1 << n) - 1
    light = [v for v in range(n) if wv[v] <= kv]
    light_mask = sum(1 << v for v in light)
    lost = [0] * n  # neighbours in U, of each vertex outside it
    found: dict[int, list] = {}  # |U| -> [best cost, optima, truncated]
    examined = 0

    def settle(u_mask, cost_u, need, pos, size):
        """Record the solutions with deleted set U; return the pairs
        examined."""
        kept = full & ~u_mask
        rec = found.setdefault(size, [-1, [], 0])
        if need == 0:
            if cost_u <= cbudget and _keeps_shape(
                    adj, eu, ev, kept, (), connected):
                rec[:] = _record(*rec, cost_u, u_mask, 0, optima_cap)
            return 1
        # Only edges between two vertices of positive excess can be
        # deleted; listed by (lower end, higher end), the edge order.
        excess, cand = {}, []
        rest = pos
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            excess[a] = base[a] - lost[a]
            ends = adj[a] & rest
            while ends:
                b = (ends & -ends).bit_length() - 1
                ends &= ends - 1
                cand.append(edge_at[a, b])
        count = 0
        for picks in combinations(cand, need):
            w_d = 0
            for i in picks:
                w_d += we[i]
            if w_d > ke:
                continue
            count += 1
            left = excess.copy()
            for i in picks:
                left[eu[i]] -= 1
                left[ev[i]] -= 1
            if any(left.values()):
                continue
            cost = cost_u + sum(ce[i] for i in picks)
            if cost <= cbudget and _keeps_shape(
                    adj, eu, ev, kept, picks, connected):
                d_mask = 0
                for i in picks:
                    d_mask |= 1 << i
                rec[:] = _record(*rec, cost, u_mask, d_mask, optima_cap)
        return count

    def grow(start, u_mask, w_used, cost_u, total, pos, neg, size):
        """Visit U, then every U + {u, ...} with u = light[start:] in turn;
        total is the kept vertices' excess, pos the kept vertices above
        their targets and neg the count below them."""
        nonlocal examined
        if neg == 0 and total % 2 == 0 and total <= 2 * ke:
            examined += settle(u_mask, cost_u, total // 2, pos, size)
        if w_used == kv:
            return  # every vertex weighs at least 1
        for j in range(start, len(light)):
            u = light[j]
            below = base[u] < lost[u]
            w = w_used + wv[u]
            if w <= kv:
                child_pos, child_neg, dead = pos & ~(1 << u), neg - below, False
                for x in nbrs[u]:
                    if not (u_mask >> x) & 1:
                        lost[x] += 1
                        e = base[x] - lost[x]
                        if e == 0:
                            child_pos &= ~(1 << x)
                        elif e == -1:
                            # only a later light vertex can still join U
                            child_neg += 1
                            dead = dead or x < u or not (light_mask >> x) & 1
                # each vertex below its target must join U, at weight >= 1
                if not dead and child_neg <= kv - w:
                    grow(j + 1, u_mask | 1 << u, w, cost_u + cv[u],
                         total - base[u] - len(nbrs[u]) + 2 * lost[u],
                         child_pos, child_neg, size + 1)
                for x in nbrs[u]:
                    if not (u_mask >> x) & 1:
                        lost[x] -= 1
            if below:
                break  # every later U leaves u below its target

    short = [v for v in range(n) if base[v] < 0]
    if len(short) <= kv and all(wv[v] <= kv for v in short):
        grow(0, 0, 0, 0, sum(base), sum(1 << v for v in range(n) if base[v] > 0),
             len(short), 0)

    # depth first visits each size of U in lexicographic order; the report
    # keeps the first optima by size, then lexicographically
    best_cost = min((rec[0] for rec in found.values() if rec[0] >= 0),
                    default=-1)
    optima: list[tuple[int, int]] = []
    truncated = False
    for size in sorted(found):
        cost, pairs, cut = found[size]
        if cost == best_cost >= 0:
            truncated |= bool(cut) or len(optima) + len(pairs) > optima_cap
            optima += pairs[:optima_cap - len(optima)]

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
        truncated=truncated,
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


def _keeps_shape(adj, eu, ev, kept, picks, connected):
    """Connectivity filter; degree exactness was already established."""
    if not connected:
        return True
    if kept == 0:
        return True  # the empty graph counts as connected
    cut: dict[int, int] = {}
    for i in picks:
        a, b = eu[i], ev[i]
        cut[a] = cut.get(a, 0) | 1 << b
        cut[b] = cut.get(b, 0) | 1 << a
    start = (kept & -kept).bit_length() - 1
    seen = 1 << start
    frontier = [start]
    while frontier:
        v = frontier.pop()
        rest = adj[v] & kept & ~seen & ~cut.get(v, 0)
        while rest:
            b = rest & -rest
            seen |= b
            frontier.append(b.bit_length() - 1)
            rest &= rest - 1
    return seen == kept
