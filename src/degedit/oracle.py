"""Exact brute-force solver used as ground truth at desk scale.

Instances are index-encoded here and enumerated by the pure-Python kernel
in `degedit._bruteforce_py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _bruteforce_py
from .errors import CapacityError
from .instance import Instance, Solution

DEFAULT_VERTEX_CAP = 12
DEFAULT_EDGE_CAP = 18
DEFAULT_OPTIMA_CAP = 10_000


def backend_name() -> str:
    """Name of the enumeration kernel, recorded with benchmark results."""
    return "python"


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
    return ids, edges, n, adj, eu, ev, delta, wv, we, cv, ce


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
    ids, edges, n, adj, eu, ev, delta, wv, we, cv, ce = _encode(inst)
    feasible, min_cost, optima_masks, truncated, examined = \
        _bruteforce_py.solve_exact(
            n, adj, eu, ev, delta, wv, we, cv, ce,
            inst.k_v, inst.k_e, inst.cost_budget,
            1 if inst.connected_variant else 0, optima_cap)
    sols = []
    for u_mask, d_mask in optima_masks:
        u = frozenset(ids[i] for i in range(n) if (u_mask >> i) & 1)
        d = frozenset(edges[i] for i in range(len(edges)) if (d_mask >> i) & 1)
        sols.append(Solution(u, d, inst.cost_of(u, d)))
    sols.sort(key=Solution.canonical)
    return OracleReport(
        feasible=bool(feasible),
        min_cost=min_cost if feasible else None,
        optima=tuple(sols),
        truncated=bool(truncated),
        search_space=examined,
    )


def equivalence_check(a: Instance, b: Instance, **caps) -> bool:
    """Whether two instances agree on feasibility."""
    return brute_force_min_cost(a, **caps).feasible == \
        brute_force_min_cost(b, **caps).feasible
