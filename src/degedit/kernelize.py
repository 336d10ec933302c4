"""Polynomial kernelization for both problem variants.

Pipeline: normalize, find a distance-2 dominating set, build a protrusion
decomposition, then compute candidate sets (W, L) from one treewidth-solver
table per boundary configuration of every part, rooted at the kept boundary
so that its root answers every vector of boundary targets; some
minimum-cost solution of a yes-instance deletes only candidate vertices and
edges, which licenses the reduction rules that shrink everything outside
them.  A configuration is a set of removed boundary vertices and, in the
connected variant, a partition of the kept boundary into blocks joined
outside the part.  Edges among kept boundary vertices are always left out
of the table: no part vertex is an end of one, and a kept edge ab joins a
and b just as a block {a, b} does, so a block joins its consecutive
vertices by undeletable, free edges and a table holds only the part's
closed neighbourhood.  Partitions whose joined graph is not planar are
never enumerated: one planarity test per part decides them all.

The fifteen reduction rules are handlers on the rewrite state that
normalization also runs on (``normalize.KernelState``): each changes the
instance through ``commit`` (with one edit from ``degedit.instance``, or a
short chain of them), decides it through ``decide``, or does not apply; the
log keeps each step's rule, site and decision, never an instance.  The rules
run in the phases of ``PLAIN_PHASES`` and ``CONNECTED_PHASES``, each phase
one ``KernelState.run`` over its rules, as in normalization.  Oversized part
boundaries fall back to taking the whole part as candidates: that costs
only the size guarantee (the ``certified`` flag), never equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dpsolve import PreparedSolve, best_within
from .errors import CapacityError
from .graph import Graph, edge_key, is_planar, verify_bipartite_planar_bound
from .instance import (CONNECTED, Instance, add_pendant, contract,
                       delete_edges, delete_vertices)
from .normalize import (DECIDED_NO, DECIDED_YES, NORMALIZED, NOT_APPLICABLE,
                        KernelState, RuleEvent, normalize)
from .protrusion import (Part, ProtrusionDecomposition,
                         build_protrusion_decomposition,
                         greedy_2_dominating_set, is_r_dominating)
from .treewidth import NiceTreeDecomposition, TreeDecomposition, to_nice

KERNEL = "kernel"

DEFAULT_ALPHA_CAP_PLAIN = 3
# At most two boundary vertices, so a partition has at most one block that
# joins anything, a pair {a, b}, and that block can only ever add the same
# edge ab to G[closed]: ``enumerate_configs`` tests planarity once per part.
# A higher cap allows wider blocks and removal sets that change the joined
# graph, and then needs a planarity test per configuration again.
DEFAULT_ALPHA_CAP_CONNECTED = 2

# The reduction phases in order; each phase is one ``KernelState.run`` over
# its rules, so a two-rule phase exhausts the first rule, applies the second
# once and repeats while the second changes the instance.
PLAIN_PHASES = (("set-adjustment",), ("weight-adjustment",), ("s-reduction",),
                ("t-prime-reduction",), ("twin-reduction",))
CONNECTED_PHASES = (("set-adjustment-c", "vertex-deletion-c"), ("s-neighbour",),
                    ("s-contraction-1",), ("stopping",), ("weight-adjustment-c",),
                    ("s-deletion", "s-contraction-2"),
                    ("t-prime-deletion", "t-prime-contraction"))
KERNEL_RULES = tuple(rule for phase in PLAIN_PHASES + CONNECTED_PHASES
                     for rule in phase)


def alpha_cap_for(variant: str) -> int:
    return DEFAULT_ALPHA_CAP_CONNECTED if variant == CONNECTED \
        else DEFAULT_ALPHA_CAP_PLAIN


# -- boundary configurations ---------------------------------------------------


@dataclass(frozen=True)
class BoundaryConfig:
    """One subproblem on a part's closed neighbourhood."""
    removed_vertices: frozenset[int]                  # deleted boundary vertices
    removed_edges: frozenset[tuple[int, int]]         # all among kept boundary
    cover: tuple[tuple[int, ...], ...] | None = None  # connected: a partition


def _edges_among(g: Graph, kept_boundary) -> frozenset[tuple[int, int]]:
    kept = sorted(kept_boundary)
    return frozenset((a, b) for i, a in enumerate(kept) for b in kept[i + 1:]
                     if g.has_edge(a, b))


def _partitions(kept: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of a sorted tuple, each a sorted tuple of sorted
    blocks, in canonical order."""
    if not kept:
        return [()]
    first = kept[0]
    out = []
    for rest in _partitions(kept[1:]):
        out.append(((first,),) + rest)
        out.extend(((first,) + block,) + rest[:i] + rest[i + 1:]
                   for i, block in enumerate(rest))
    return sorted(out)


def enumerate_configs(part: Part, inst: Instance) -> list[BoundaryConfig]:
    """The boundary configurations of one part that get solved, canonically
    ordered: one per set of removed boundary vertices and, in the connected
    variant, per partition of the kept boundary into blocks joined outside
    the part, less the partitions whose joined graph is not planar."""
    cap = alpha_cap_for(inst.variant)
    boundary = sorted(part.boundary)
    if len(boundary) > cap:
        raise CapacityError(
            f"part boundary {len(boundary)} exceeds configured cap {cap}")
    g = inst.graph
    connected = inst.variant == CONNECTED
    # One test decides the whole part (see DEFAULT_ALPHA_CAP_CONNECTED): a
    # pair block {a, b} adds the same edge ab to G[closed] in every
    # configuration that holds it, and nothing where ab is an edge of G.
    nonplanar_block = None
    if connected and len(boundary) == 2 and not g.has_edge(*boundary):
        closed = g.subgraph(part.closed)
        if not is_planar(Graph(part.closed, [*closed.edges(), boundary])):
            nonplanar_block = tuple(boundary)
    out: list[BoundaryConfig] = []
    for x_bits in range(1 << len(boundary)):
        removed = frozenset(boundary[i] for i in range(len(boundary))
                            if (x_bits >> i) & 1)
        kept = tuple(v for v in boundary if v not in removed)
        inner = _edges_among(g, kept)
        partitions = [p for p in _partitions(kept)
                      if nonplanar_block not in p] if connected else [None]
        out.extend(BoundaryConfig(removed, inner, p) for p in partitions)
    return out


def build_boundary_instance(config: BoundaryConfig, part: Part, inst: Instance
                            ) -> Instance:
    """The subinstance a configuration induces on a part, at the full budgets.

    Boundary survivors are priced out of deletion and get target 0: the DP
    reads their targets off its root (see ``dpsolve``).  In the connected
    variant consecutive vertices of a block (in sorted order) are joined by
    an undeletable, free edge: weight k_e + 1, cost 0.
    """
    g = inst.graph
    keep = part.closed - config.removed_vertices
    joins = frozenset(pair for block in config.cover or ()
                      for pair in zip(block, block[1:]))
    edges = (g.subgraph(keep).edge_set() - config.removed_edges) | joins
    sub = Graph(keep, edges)
    kept_boundary = part.boundary - config.removed_vertices
    delta, weight_v = {}, {}
    for v in sub.vertices:
        if v in kept_boundary:
            delta[v] = 0
            weight_v[v] = inst.k_v + 1
        else:
            delta[v] = inst.delta[v]
            weight_v[v] = inst.weight_v[v]
    return Instance(
        sub, delta, weight_v,
        {e: inst.k_e + 1 if e in joins else inst.weight_e[e] for e in edges},
        {v: inst.cost_v[v] for v in sub.vertices},
        {e: 0 if e in joins else inst.cost_e[e] for e in edges},
        inst.k_v, inst.k_e, inst.cost_budget, inst.variant)


@dataclass(frozen=True)
class CandidateSets:
    vertices: frozenset[int]                               # W
    edges: frozenset[tuple[int, int]]                      # L
    per_part: tuple[tuple[frozenset, frozenset], ...]
    skipped: tuple[int, ...]


def _patched_ntd(cert: TreeDecomposition, removed: frozenset[int],
                 top: frozenset[int]) -> NiceTreeDecomposition:
    bags = tuple((b - removed) | top for b in cert.bags)
    return to_nice(TreeDecomposition(bags, cert.tree_edges), top)


def compute_candidate_sets(inst: Instance, pd: ProtrusionDecomposition
                           ) -> CandidateSets:
    """Union of minimum-cost subsolutions over all parts, configurations,
    boundary targets and budget pairs.

    Parts whose boundary exceeds the cap contribute themselves wholesale,
    which preserves equivalence and only weakens the size guarantee.
    """
    g = inst.graph
    w: set[int] = set(pd.r0)
    l: set[tuple[int, int]] = {e for e in g.edges()
                               if e[0] in pd.r0 and e[1] in pd.r0}
    per_part = []
    skipped = []
    for pi, part in enumerate(pd.parts):
        try:
            configs = enumerate_configs(part, inst)
        except CapacityError:
            skipped.append(pi)
            w_i = frozenset(part.vertices)
            l_i = frozenset(e for e in g.edges()
                            if e[0] in part.vertices or e[1] in part.vertices)
            per_part.append((w_i, l_i))
            w |= w_i
            l |= l_i
            continue
        w_i: set[int] = set()
        l_i: set[tuple[int, int]] = set()
        budget_pairs = [(hv, he) for hv in range(inst.k_v + 1)
                        for he in range(inst.k_e + 1)]
        for cfg in configs:
            top = part.boundary - cfg.removed_vertices
            # one run answers every budget pair of every target vector
            ps = PreparedSolve(build_boundary_instance(cfg, part, inst),
                               _patched_ntd(part.cert, cfg.removed_vertices, top),
                               check=False)
            for rows in ps.answers.values():
                for hv, he in budget_pairs:
                    sol = best_within(ps.ctx, rows, hv, he)
                    if sol is None:
                        continue
                    if not sol.deleted_vertices <= part.vertices:
                        raise RuntimeError("part solution deletes outside the part")
                    w_i |= sol.deleted_vertices
                    l_i |= sol.deleted_edges
        if not all(e[0] in part.vertices or e[1] in part.vertices for e in l_i):
            raise RuntimeError("candidate edge does not touch its part")
        per_part.append((frozenset(w_i), frozenset(l_i)))
        w |= w_i
        l |= l_i
    return CandidateSets(frozenset(w), frozenset(l), tuple(per_part),
                         tuple(skipped))


# -- single rule steps on the shared rewrite state ------------------------------


def _candidate_endpoints(state: KernelState) -> frozenset[int]:
    return frozenset(x for e in state.l for x in e)


def _rule_set_adjustment(state: KernelState) -> str:
    g = state.inst.graph
    sat = state.satisfied()
    pair = None
    for v in sorted(sat):
        in_w = sorted(u for u in g.neighbors(v) if u in state.w)
        if in_w:
            pair = (v, in_w[0])
            break
    prunable = {e for e in state.l if e[0] in sat or e[1] in sat}
    if pair is None and not prunable:
        return NOT_APPLICABLE
    if pair is not None:
        state.w.discard(pair[1])
    sat = state.satisfied()  # the removed vertex may have joined
    state.l -= {e for e in state.l if e[0] in sat or e[1] in sat}
    return state.commit("set-adjustment", pair if pair else ("prune",),
                        state.inst)


def _rule_weight_adjustment(state: KernelState, rule_name="weight-adjustment") -> str:
    inst = state.inst
    wv = {v: (inst.weight_v[v] if v in state.w else inst.k_v + 1)
          for v in inst.graph.vertices}
    we = {e: (inst.weight_e[e] if e in state.l else inst.k_e + 1)
          for e in inst.graph.edge_set()}
    if wv == dict(inst.weight_v) and we == dict(inst.weight_e):
        return NOT_APPLICABLE
    return state.commit(rule_name, (), replace(inst, weight_v=wv, weight_e=we))


def _rule_s_reduction(state: KernelState) -> str:
    inst = state.inst
    sat = state.satisfied()
    if not sat:
        return NOT_APPLICABLE
    v = min(sat)
    nbrs = sorted(inst.graph.neighbors(v))
    if any(inst.delta[u] - 1 < 0 for u in nbrs):
        return state.decide("s-reduction", (v,), DECIDED_NO)
    return state.commit("s-reduction", (v,), delete_vertices(
        inst, [v], charge=False,
        delta_updates={u: inst.delta[u] - 1 for u in nbrs}))


def _tprime(state: KernelState) -> set[int]:
    return state.unsatisfied() - _candidate_endpoints(state)


def _rule_t_prime_reduction(state: KernelState) -> str:
    inst = state.inst
    tp = _tprime(state)
    inner = sorted(e for e in inst.graph.edges()
                   if e[0] in tp and e[1] in tp)
    if not inner:
        return NOT_APPLICABLE
    u, v = inner[0]
    if inst.delta[u] - 1 < 0 or inst.delta[v] - 1 < 0:
        return state.decide("t-prime-reduction", (u, v), DECIDED_NO)
    return state.commit("t-prime-reduction", (u, v), delete_edges(
        inst, [(u, v)], {u: inst.delta[u] - 1, v: inst.delta[v] - 1}))


def _rule_twin_reduction(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    tp = sorted(_tprime(state))
    for i, u in enumerate(tp):
        for v in tp[i + 1:]:
            if g.neighbors(u) != g.neighbors(v):
                continue
            if inst.delta[u] != inst.delta[v]:
                return state.decide("twin-reduction", (u, v), DECIDED_NO)
            return state.commit("twin-reduction", (u, v), delete_vertices(
                inst, [v], charge=False,
                delta_updates={x: max(0, inst.delta[x] - 1)
                               for x in g.neighbors(u)}))
    return NOT_APPLICABLE


def _rule_set_adjustment_c(state: KernelState) -> str:
    g = state.inst.graph
    for v in sorted(state.satisfied()):
        in_w = g.neighbors(v) & state.w
        at_l = {e for e in state.l if v in e}
        if not in_w and not at_l:
            continue
        state.w -= in_w
        state.l -= at_l
        return state.commit("set-adjustment-c", (v,), state.inst)
    return NOT_APPLICABLE


def _rule_vertex_deletion_c(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    for v in sorted(state.unsatisfied()):
        if any(v in e for e in state.l):
            continue
        need = g.degree(v) - inst.delta[v]
        in_w = sorted(g.neighbors(v) & state.w)
        if len(in_w) > need:
            continue
        # fewer candidate neighbours than surplus degree cannot fix v
        nxt = (delete_vertices(inst, in_w, charge=True)
               if len(in_w) == need else None)
        if nxt is None:
            return state.decide("vertex-deletion-c", (v,), DECIDED_NO)
        return state.commit("vertex-deletion-c", (v,) + tuple(in_w), nxt)
    return NOT_APPLICABLE


def _rule_s_neighbour(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    sat = state.satisfied()
    for v in sorted(g.vertices):
        k = len(g.neighbors(v) & sat)
        if k and inst.delta[v] < k:
            if v in state.w:
                raise RuntimeError("satisfied-neighbour count on a candidate")
            return state.decide("s-neighbour", (v,), DECIDED_NO)
    return NOT_APPLICABLE


def _rule_s_contraction_1(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    sat = state.satisfied()
    for v in sorted(sat):
        partners = sorted(u for u in g.neighbors(v) if u in sat)
        if not partners:
            continue
        u = partners[0]
        a, b = min(u, v), max(u, v)
        if any(inst.delta[x] < 2 for x in g.neighbors(a) & g.neighbors(b)):
            raise RuntimeError("common neighbour below two targets")
        z = state.next_id
        state.next_id += 1
        return state.commit("s-contraction-1", (a, b, z), contract(
            inst, a, b, z, slack=0, rigid=True, inherit=False))
    return NOT_APPLICABLE


def _rule_stopping(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    outside = g.vertices - state.w
    comps_with_outside = [c for c in g.components() if c & outside]
    if len(comps_with_outside) >= 2:
        return state.decide("stopping", (), DECIDED_NO)
    lone = sorted(v for v in outside if g.degree(v) == 0)
    if lone:
        v = lone[0]
        rest = sorted(g.vertices - {v})
        fits = (sum(inst.weight_v[x] for x in rest) <= inst.k_v
                and sum(inst.cost_v[x] for x in rest) <= inst.cost_budget)
        return state.decide("stopping", (v,),
                            DECIDED_YES if fits else DECIDED_NO)
    return NOT_APPLICABLE


def _rule_s_deletion(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    sat = state.satisfied()
    for v in sorted(sat):
        nbrs = sorted(g.neighbors(v))
        ok = len(nbrs) == 1
        if not ok and len(nbrs) == 2:
            x, y = nbrs
            ok = g.has_edge(x, y) and edge_key(x, y) not in state.l
        if not ok:
            ok = any(u != v and g.neighbors(v) <= g.neighbors(u)
                     for u in sorted(sat))
        if not ok:
            continue
        if any(inst.delta[x] - 1 < 0 for x in nbrs):
            return state.decide("s-deletion", (v,), DECIDED_NO)
        return state.commit("s-deletion", (v,), delete_vertices(
            inst, [v], charge=False,
            delta_updates={x: inst.delta[x] - 1 for x in nbrs}))
    return NOT_APPLICABLE


def _final_shape(state: KernelState, v: int) -> bool:
    g = state.inst.graph
    anchors = _candidate_endpoints(state)
    nbrs = g.neighbors(v)
    return len(nbrs) == 2 and nbrs <= anchors


def _rule_s_contraction_2(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    for v in sorted(state.satisfied()):
        if g.degree(v) == 0 or _final_shape(state, v):
            continue
        nbrs = sorted(g.neighbors(v))
        u = nbrs[0]
        slack = g.degree(u) - inst.delta[u]
        cur = inst
        minted = []
        for x in nbrs[1:]:
            if not g.has_edge(u, x):
                continue
            z = state.next_id
            state.next_id += 1
            minted.append(z)
            cur = delete_edges(cur, [edge_key(v, x)], {})
            cur = add_pendant(cur, z, (v, x))
        y = state.next_id
        state.next_id += 1
        merged = contract(cur, u, v, y, slack=slack, rigid=True, inherit=True)
        if merged is None:
            raise RuntimeError("merged target below zero")
        # candidate edges of u live on at the merged vertex
        state.l = {e if u not in e else edge_key(y, e[0] if e[1] == u else e[1])
                   for e in state.l}
        return state.commit("s-contraction-2", (v, u, y) + tuple(minted),
                            merged)
    return NOT_APPLICABLE


def _w_prime_c(state: KernelState) -> set[int]:
    return set(state.w) | _candidate_endpoints(state) | state.satisfied()


def _rule_t_prime_deletion(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    tp = _tprime(state)
    wp = _w_prime_c(state)
    for v in sorted(tp):
        if g.neighbors(v) & tp:
            continue  # not isolated among its peers
        sig_v = (frozenset(g.neighbors(v) & wp),
                 g.degree(v) - inst.delta[v])
        for u in sorted(tp):
            if u == v:
                continue
            if (frozenset(g.neighbors(u) & wp),
                    g.degree(u) - inst.delta[u]) != sig_v:
                continue
            return state.commit("t-prime-deletion", (v, u), delete_vertices(
                inst, [v], charge=False,
                delta_updates={x: max(0, inst.delta[x] - 1)
                               for x in g.neighbors(v)}))
    return NOT_APPLICABLE


def _rule_t_prime_contraction(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    tp = _tprime(state)
    wp = _w_prime_c(state)
    comp_of: dict[int, frozenset[int]] = {}
    for comp in g.subgraph(tp).components():
        for x in comp:
            comp_of[x] = comp
    for v in sorted(tp):
        if len(comp_of[v]) < 2:
            continue
        sig_v = (frozenset(g.neighbors(v) & wp),
                 g.degree(v) - inst.delta[v])
        mate = None
        for u in sorted(comp_of[v]):
            if u != v and (frozenset(g.neighbors(u) & wp),
                           g.degree(u) - inst.delta[u]) == sig_v:
                mate = u
                break
        if mate is None:
            continue
        outside = sorted(g.neighbors(v) - tp)
        cur = delete_edges(inst, [edge_key(v, x) for x in outside],
                           {x: max(0, inst.delta[x] - 1) for x in outside})
        y = min(cur.graph.neighbors(v))
        z = state.next_id
        state.next_id += 1
        out = contract(cur, min(v, y), max(v, y), z,
                       slack=cur.graph.degree(y) - cur.delta[y],
                       rigid=True, inherit=False)
        if out is None:
            return state.decide("t-prime-contraction", (v, mate, y), DECIDED_NO)
        return state.commit("t-prime-contraction", (v, mate, y, z), out)
    return NOT_APPLICABLE


_RULE_HANDLERS = {
    "set-adjustment": _rule_set_adjustment,
    "weight-adjustment": _rule_weight_adjustment,
    "s-reduction": _rule_s_reduction,
    "t-prime-reduction": _rule_t_prime_reduction,
    "twin-reduction": _rule_twin_reduction,
    "set-adjustment-c": _rule_set_adjustment_c,
    "vertex-deletion-c": _rule_vertex_deletion_c,
    "s-neighbour": _rule_s_neighbour,
    "s-contraction-1": _rule_s_contraction_1,
    "stopping": _rule_stopping,
    "weight-adjustment-c": lambda s: _rule_weight_adjustment(s, "weight-adjustment-c"),
    "s-deletion": _rule_s_deletion,
    "s-contraction-2": _rule_s_contraction_2,
    "t-prime-deletion": _rule_t_prime_deletion,
    "t-prime-contraction": _rule_t_prime_contraction,
}


def _reduce(inst: Instance, cs: CandidateSets, phases) -> KernelState:
    state = KernelState(inst, set(cs.vertices), set(cs.edges))
    for phase in phases:
        state.run([_RULE_HANDLERS[rule] for rule in phase])
    return state


def reduce_dpggd(inst: Instance, cs: CandidateSets) -> KernelState:
    """Run the plain-variant reduction phases on a normalized instance."""
    return _reduce(inst, cs, PLAIN_PHASES)


def reduce_dcpggd(inst: Instance, cs: CandidateSets) -> KernelState:
    """Run the connected-variant reduction phases on a normalized instance."""
    return _reduce(inst, cs, CONNECTED_PHASES)


# -- the full pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class KernelResult:
    kind: str                                   # decided-yes | decided-no | kernel
    instance: Instance | None
    log: tuple[RuleEvent, ...]
    certified: bool
    candidates: CandidateSets | None = None     # snapshot before reduction
    normalized: Instance | None = None          # instance entering reduction
    final_w: frozenset[int] | None = None
    final_l: frozenset[tuple[int, int]] | None = None
    final_s: frozenset[int] | None = None


def kernelize(inst: Instance, *, domset=None) -> KernelResult:
    """Normalize, build candidates over a protrusion decomposition, reduce.

    A caller may supply its own distance-2 dominating set to shape the
    decomposition; the default is the greedy one.
    """
    out = normalize(inst)
    if out.kind != NORMALIZED:
        return KernelResult(out.kind, None, out.log, certified=True)
    norm = out.instance
    cap = alpha_cap_for(norm.variant)
    dom = None if domset is None else frozenset(domset) & norm.graph.vertices
    if dom is None or not is_r_dominating(norm.graph, dom, 2):
        dom = greedy_2_dominating_set(norm.graph)
    pd = build_protrusion_decomposition(norm.graph, dom, 2, boundary_cap=cap)
    cs = compute_candidate_sets(norm, pd)
    if norm.connected_variant:
        state = reduce_dcpggd(norm, cs)
    else:
        state = reduce_dpggd(norm, cs)
    log = out.log + tuple(state.events)
    certified = pd.certified and not cs.skipped
    if state.decided:
        return KernelResult(state.decided, None, log, certified, cs, norm)
    return KernelResult(
        KERNEL, state.inst, log, certified, cs, norm,
        final_w=frozenset(state.w), final_l=frozenset(state.l),
        final_s=frozenset(state.satisfied()))


def format_trace(events) -> str:
    lines = []
    for ev in events:
        site = " ".join(str(x) for x in ev.site)
        line = f"rule {ev.rule} site {site}".rstrip()
        if ev.decided:
            line += f" {ev.decided}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


# -- kernel-size accounting ------------------------------------------------


@dataclass(frozen=True)
class SizeBoundReport:
    ok: bool
    violations: tuple[str, ...]
    w_prime: frozenset[int]
    class_sizes: dict


def size_bound_report(result: KernelResult) -> SizeBoundReport:
    """Check the counting bounds a certified kernel must satisfy.

    Also re-checks the planar-bipartite size inequality everywhere the
    counting invokes it.
    """
    if result.kind != KERNEL:
        raise ValueError("size bounds apply to kernel outcomes only")
    inst = result.instance
    g = inst.graph
    problems: list[str] = []
    anchors = frozenset(x for e in result.final_l for x in e)
    if inst.connected_variant:
        w_prime = frozenset(result.final_w | anchors | result.final_s)
    else:
        w_prime = frozenset(result.final_w | anchors)
    rest = g.vertices - w_prime
    strays = {v for v in rest if g.degree(v) <= inst.delta[v]}
    if strays:
        problems.append(f"vertices outside the counted classes: {sorted(strays)}")
    t_prime = rest - strays
    wp = len(w_prime)

    def crossdeg(v):
        return len(g.neighbors(v) & w_prime)

    if not inst.connected_variant:
        if any(g.neighbors(u) & t_prime for u in t_prime):
            problems.append("leftover edges between remnant vertices")
        by = {0: set(), 1: set(), 2: set(), 3: set()}
        for v in t_prime:
            by[min(3, g.degree(v))].add(v)
        if by[0]:
            problems.append(f"degree-0 remnant vertices: {sorted(by[0])}")
        if len(by[1]) > wp:
            problems.append(f"|T1'|={len(by[1])} exceeds |W'|={wp}")
        n2 = frozenset(x for v in by[2] for x in g.neighbors(v))
        limit2 = len(n2) * (len(n2) - 1) // 2
        if len(by[2]) > limit2:
            problems.append(f"|T2'|={len(by[2])} exceeds C({len(n2)},2)={limit2}")
        if by[3]:
            _check_bip(g, by[3], problems, "T'>=3")
            if len(by[3]) > max(0, 2 * wp - 4):
                problems.append(f"|T'>=3|={len(by[3])} exceeds 2|W'|-4")
        total_cap = wp * wp / 2 + 3.5 * wp
        if g.n > total_cap:
            problems.append(f"|V|={g.n} exceeds |W'|^2/2 + 7|W'|/2 = {total_cap}")
        sizes = {"w_prime": wp, "t1": len(by[1]), "t2": len(by[2]),
                 "t3+": len(by[3])}
    else:
        by = {0: set(), 1: set(), 2: set(), 3: set()}
        for v in t_prime:
            by[min(3, crossdeg(v))].add(v)
        if by[0] or by[1]:
            problems.append(
                f"remnant vertices with <2 candidate neighbours: "
                f"{sorted(by[0] | by[1])}")
        limit2 = (wp * (wp - 1) // 2) * (4 * wp + 1)
        if len(by[2]) > limit2:
            problems.append(f"|T2|={len(by[2])} exceeds C(|W'|,2)(4|W'|+1)={limit2}")
        if by[3]:
            _check_bip(g, by[3], problems, "T>=3", w_prime)
            if len(by[3]) > max(0, 2 * wp - 4):
                problems.append(f"|T>=3|={len(by[3])} exceeds 2|W'|-4")
        _check_t2_components(g, t_prime, by, w_prime, problems)
        total_cap = wp + limit2 + max(0, 2 * wp - 4)
        if g.n > total_cap:
            problems.append(f"|V|={g.n} exceeds |W'| + |T2|cap + |T>=3|cap")
        sizes = {"w_prime": wp, "t2": len(by[2]), "t3+": len(by[3])}
    return SizeBoundReport(not problems, tuple(problems), w_prime, sizes)


def _check_bip(g: Graph, heavy_side, problems, label, w_prime=None):
    """Planar-bipartite bound between a remnant class and its neighbours."""
    side2 = frozenset(heavy_side)
    if w_prime is None:
        side1 = frozenset(x for v in side2 for x in g.neighbors(v))
    else:
        side1 = frozenset(x for v in side2 for x in g.neighbors(v) & w_prime)
    edges = [(a, b) for a in side2 for b in g.neighbors(a)
             if b in side1]
    sub = Graph(side1 | side2, [tuple(sorted(e)) for e in edges])
    try:
        if not verify_bipartite_planar_bound(sub, side1, side2):
            problems.append(f"{label}: bipartite planar bound violated")
    except ValueError as ex:
        problems.append(f"{label}: bound preconditions failed: {ex}")


def _check_t2_components(g, t_prime, by, w_prime, problems):
    """The two-neighbour remnant class, counted via contracted components."""
    remnant = g.subgraph(t_prime)
    comps = remnant.components()
    t2_core = []
    for comp in comps:
        if len(comp) < 2 or comp & by[3]:
            continue
        if comp <= by[2]:
            t2_core.append(comp)
    blocks = []
    for comp in t2_core:
        nbhd = frozenset(x for v in comp for x in g.neighbors(v) & w_prime)
        blocks.append((comp, nbhd))
    shallow = [b for b in blocks if len(b[1]) < 3]
    if shallow:
        problems.append(
            f"T2 component with fewer than 3 outside neighbours: "
            f"{sorted(sorted(c) for c, _ in shallow)}")
        return
    if blocks:
        side1 = frozenset(x for _, nb in blocks for x in nb)
        ids = {i: -(i + 1) for i in range(len(blocks))}
        edges = []
        for i, (_, nb) in enumerate(blocks):
            edges.extend(tuple(sorted((ids[i], x))) for x in nb)
        sub = Graph(side1 | set(ids.values()), edges)
        try:
            if not verify_bipartite_planar_bound(sub, side1, set(ids.values())):
                problems.append("contracted T2 components violate the "
                                "bipartite planar bound")
        except ValueError as ex:
            problems.append(f"contracted T2 components: {ex}")
