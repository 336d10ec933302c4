"""Pure-Python enumeration kernel for the exact brute-force solver.

Works on index-encoded instances (vertices 0..n-1, adjacency bitmasks,
edge endpoint arrays), as `degedit.oracle` encodes them.

Enumeration is over efficient candidate pairs only: deleted edges are drawn
from the graph that remains after the vertex deletions, so no deleted edge
can touch a deleted vertex.  Feasibility and minimum cost are unaffected
because dropping edges incident to deleted vertices never raises cost.
"""

from __future__ import annotations

from itertools import combinations


def solve_exact(n, adj, eu, ev, delta, wv, we, cv, ce,
                kv, ke, cbudget, connected, optima_cap):
    """Exhaustively solve one instance.

    Returns ``(feasible, min_cost, optima, truncated, examined)`` where
    optima is a list of ``(vertex_mask, edge_mask)`` pairs of every
    minimum-cost solution found (capped), in enumeration order.
    """
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

    feasible = 1 if best_cost >= 0 else 0
    return feasible, best_cost, optima, truncated, examined


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
