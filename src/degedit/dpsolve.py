"""Exact solver over nice tree decompositions, plain and connected.

``solve_auto(inst)`` is the library entry: DPGGD and DCPGGD are
``solve_auto`` on a plain and on a connected instance, and the DP reads
the variant off the instance.  ``PreparedSolve(inst, ntd)`` runs the DP
over the nice decomposition it is given; its ``solve`` answers at the
instance's own budgets.

Bottom-up tables are kept per node.  A key records, for the subgraph below
the node: which bag vertices are deleted, which bag edges are deleted, the
total loss so far of each kept bag vertex (its deleted neighbours plus its
deleted incident edges, bag ones included), and the exact vertex and edge
weight spent so far.  The connected variant additionally tracks the
partition of kept bag vertices into components of the partial graph, plus a
flag for a component that no longer meets the bag (legal only while no kept
bag vertex remains; at most one such component can ever survive).

A kept vertex must end at exactly delta(v), so its loss may never pass
``cap = min(k_v + k_e, deg(v) - delta(v))``: every deletion weighs at least
one, and the forget node demands ``loss == deg(v) - delta(v)``.  Loss only
grows on the way up and every kept vertex meets its forget node, so a key
over its cap can never reach the root and is dropped at once; a negative
cap forbids keeping the vertex at all.  Given (x, y), loss and the damage
from below determine each other, so dropping such keys changes no surviving
key's entry.

Keys use exact spent weight rather than a remaining-budget allowance; the
two forms determine each other (an allowance answer is the best entry over
all spent weights within it), and ``best_within`` reads that view off the
root answers, so one run serves every smaller budget pair.  Nothing
forgets the vertices of a nonempty root bag (``to_nice``'s ``root_bag``),
so every key records their losses, and ``root_answers`` groups the root
rows that keep the bag whole (in one component, if connected) by them.
Group (l_v) holds the rows for targets deg(v) - l_v, since a lower cap on
v only drops keys: one run with such a v at target 0 answers every target
from deg(v) - min(k_v + k_e, deg(v)) to deg(v).  Values are
minimum-cost deletion pairs with deterministic lexicographic tie-breaking
on (sorted vertex ids, sorted edge pairs).

An entry is ``(cost, u_mask, d_mask)``: bit i of ``u_mask`` deletes the
i-th smallest vertex id, bit j of ``d_mask`` the j-th smallest edge pair.
Because bit order is id order, the tie-break is read off the masks in a
few big-int operations: below the lowest bit where two masks differ they
agree, and the mask holding that bit sorts first exactly when the other
mask has a higher bit (otherwise the other is a proper prefix).  Sorted
ids and edge pairs are built once, for the chosen root entry only.
Per-node work touches only the node's bag.

No table may hold more keys than its node's key space (``_key_bound``):
(k_v + 1)(k_e + 1) spent-weight pairs, times 2^|bag| deleted-vertex sets,
times factors for the deleted bag edges, the losses and, in the connected
variant, the partitions, each at least one.  So
``(k_v + 1)(k_e + 1) << |bag|`` is a floor of the bound, and ``_guard``
computes the bound itself only for a table above that floor.

``solve_auto`` without a given decomposition first cuts the instance down
to the part a solution can reach (``active_region``).  Let S+ be the vertices
above their target, and take an efficient feasible solution (U, D).  A
kept vertex outside S+ can lose nothing, so every neighbour of a deleted
vertex is deleted too unless it lies in S+: each x in U has
w(x) + w(N(x) - S+) <= w(U) <= k_v and N(x) - S+ inside U.  U therefore
lies in X, the largest set with both properties, found by one worklist
pass that drops vertices until both hold.  Both ends of an edge in D lose
it and are kept, so D lies in E(S+).  Every vertex outside X is kept, every
vertex outside X and S+ keeps all its edges, and one below its target
outside X means the answer is no.  The region instance is G[X + S+] with
the original ids, plus one rigid vertex per component of the rest: a
fresh id above the largest one, weight k_v + 1, cost 0, target its degree,
joined to the component's region neighbours by edges of weight k_e + 1
and cost 0.  A rest component survives whole, so one vertex in its place
keeps connectivity exact; a region vertex t gets the target
delta(t) - |N(t) - region| + (rest components t touches), and a negative
one means no.  Region vertices outside X weigh k_v + 1, since no solution
deletes them.  Both instances have the same efficient feasible solutions
at the same costs, and kept ids and edge pairs keep their relative order.
The DP's pick does not depend on the decomposition either: two entries
under one key spend the same weight, so neither deletion set is a proper
subset of the other, and adding the same disjoint deletions keeps their
order.  So both instances print the same (cost, ids, edge pairs) optimum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .graph import Graph
from .instance import Instance, Solution
from .treewidth import (FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition,
                        decompose, to_nice, validate)


@dataclass
class _Ctx:
    inst: Instance
    ntd: NiceTreeDecomposition
    ids: list[int]                      # index -> vertex id (ascending)
    idx: dict[int, int]
    adj: list[int]                      # index -> neighbour bitmask
    slack: list[int]                    # index -> the loss a kept vertex ends at
    wv: list[int]
    cv: list[int]
    edges: list[tuple[int, int]]        # edge number -> id pair (lex sorted)
    we: list[int]
    ce: list[int]
    cap: list[int]                      # index -> most loss a kept vertex takes
    connected: bool
    bag_idx: list[tuple[int, ...]]      # node -> sorted bag (as indices)
    incident: list[list[tuple[int, int, int]]]  # node -> (edge_no, other, bit)


def _prepare(inst: Instance, ntd: NiceTreeDecomposition) -> _Ctx:
    g = inst.graph
    ids = g.sorted_vertices()
    idx = {v: i for i, v in enumerate(ids)}
    adj = [0] * len(ids)
    for i, v in enumerate(ids):
        for u in g.neighbors(v):
            adj[i] |= 1 << idx[u]
    edges = list(g.edges())  # already in lex order
    eno = {(idx[a], idx[b]): i for i, (a, b) in enumerate(edges)}
    slack = [g.degree(v) - inst.delta[v] for v in ids]
    span = inst.k_v + inst.k_e
    # each bag follows from its child's: an introduce inserts one index, a
    # forget drops one, a join shares it; the edges an introduce or forget
    # touches run from its vertex into the child's bag
    bag_idx: list[tuple[int, ...]] = []
    incident: list[list[tuple[int, int, int]]] = []
    children, vertex = ntd.children, ntd.vertex
    for node, kind in enumerate(ntd.kinds):
        inc: list[tuple[int, int, int]] = []
        if kind == LEAF:
            bag: tuple[int, ...] = ()
        elif kind == JOIN:
            bag = bag_idx[children[node][0]]
        else:
            below = bag_idx[children[node][0]]
            v = idx[vertex[node]]
            pos = bisect_left(below, v)
            bag = below[:pos] + (v,) + below[pos:] if kind == INTRODUCE \
                else below[:pos] + below[pos + 1:]
            adj_v = adj[v]
            for u in below:
                if u != v and (adj_v >> u) & 1:
                    inc.append((eno[(u, v) if u < v else (v, u)], u, 1 << u))
        bag_idx.append(bag)
        incident.append(inc)
    return _Ctx(
        inst=inst, ntd=ntd, ids=ids, idx=idx, adj=adj, slack=slack,
        wv=[inst.weight_v[v] for v in ids],
        cv=[inst.cost_v[v] for v in ids],
        edges=edges,
        we=[inst.weight_e[e] for e in edges],
        ce=[inst.cost_e[e] for e in edges],
        cap=[min(span, s) for s in slack],
        connected=inst.connected_variant,
        bag_idx=bag_idx, incident=incident)


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_less(a: int, b: int) -> bool:
    """Whether the ascending bit positions of a precede those of b as tuples."""
    diff = a ^ b
    if not diff:
        return False
    low = diff & -diff
    # below `low` both agree; the set holding `low` is smaller exactly when
    # the other set still has a higher element
    return b > low if a & low else a < low


def _entry_less(a: tuple, b: tuple) -> bool:
    """Entry order: cost, then sorted vertex ids, then sorted edge pairs."""
    if a[0] != b[0]:
        return a[0] < b[0]
    if a[1] != b[1]:
        return _set_less(a[1], b[1])
    return _set_less(a[2], b[2])


# entry: (cost, u_mask, d_mask)

def _update(table: dict, key: tuple, cost: int, u_mask: int, d_mask: int) -> None:
    cur = table.get(key)
    if cur is not None and cur[0] < cost:
        return
    cand = (cost, u_mask, d_mask)
    if cur is None or _entry_less(cand, cur):
        table[key] = cand


def _kept(bag: tuple[int, ...], x_mask: int) -> tuple[int, ...]:
    return tuple(i for i in bag if not (x_mask >> i) & 1)


def _relabel(labels: list[int]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


def _key_bound(ctx: _Ctx, bag: tuple[int, ...]) -> int:
    """Size of a node's key space: no table may hold more keys."""
    bag_mask = 0
    for i in bag:
        bag_mask |= 1 << i
    ends = 0  # bag edge ends, twice the bag edges
    bound = (ctx.inst.k_v + 1) * (ctx.inst.k_e + 1)
    for i in bag:
        ends += (ctx.adj[i] & bag_mask).bit_count()
        if ctx.cap[i] > 0:
            bound *= ctx.cap[i] + 1
    bound <<= len(bag) + ends // 2  # deleted bag vertices and edges
    if ctx.connected:
        bound *= 2 * (len(bag) + 1) ** len(bag)
    return bound


def _guard(ctx: _Ctx, node: int, table: dict) -> None:
    bag = ctx.bag_idx[node]
    if len(table) <= (ctx.inst.k_v + 1) * (ctx.inst.k_e + 1) << len(bag):
        return
    bound = _key_bound(ctx, bag)
    if len(table) > bound:
        raise RuntimeError(
            f"table at node {node} has {len(table)} keys, bound {bound}")


def process_node(ctx: _Ctx, node: int, child_tables: list[dict]) -> dict:
    """Build one node's table from its children's tables."""
    kind = ctx.ntd.kinds[node]
    if kind == LEAF:
        key = (0, 0, (), 0, 0) + (((), False) if ctx.connected else ())
        table = {key: (0, 0, 0)}
    elif kind == INTRODUCE:
        table = _introduce(ctx, node, child_tables[0])
    elif kind == FORGET:
        table = _forget(ctx, node, child_tables[0])
    elif kind == JOIN:
        table = _join(ctx, node, child_tables[0], child_tables[1])
    else:
        raise RuntimeError(f"unknown node kind {kind!r}")
    _guard(ctx, node, table)
    return table


def _lose(loss: tuple, kept: tuple[int, ...], hit: int, cap: list[int]):
    """loss plus one for each kept vertex in the mask hit; None once a
    vertex passes its cap."""
    out = list(loss)
    for i, u in enumerate(kept):
        if (hit >> u) & 1:
            out[i] += 1
            if out[i] > cap[u]:
                return None
    return tuple(out)


def _introduce(ctx: _Ctx, node: int, child: dict) -> dict:
    inst = ctx.inst
    v = ctx.idx[ctx.ntd.vertex[node]]
    v_bit = 1 << v
    adj_v = ctx.adj[v]
    cap = ctx.cap
    cand = ctx.incident[node]  # edges from v into the child bag
    child_bag = ctx.bag_idx[ctx.ntd.children[node][0]]
    table: dict = {}
    for key, ent in child.items():
        x, y, loss, uv, ue = key[:5]
        cost, u_mask, d_mask = ent
        kept_before = _kept(child_bag, x)
        # branch: delete v; each kept bag neighbour loses it
        uv2 = uv + ctx.wv[v]
        if uv2 <= inst.k_v:
            loss2 = _lose(loss, kept_before, adj_v, cap)
            if loss2 is not None:
                key2 = (x | v_bit, y, loss2, uv2, ue) + key[5:]
                _update(table, key2, cost + ctx.cv[v], u_mask | v_bit, d_mask)
        # branch: keep v, choosing the subset of its kept-bag edges to delete
        if ctx.connected and key[6]:
            continue  # a closed component tolerates no new kept vertex
        lost = (adj_v & x).bit_count()  # v starts without its deleted neighbours
        if lost > cap[v]:
            continue  # also where a negative cap forbids keeping v
        live = [(e, u, ub) for (e, u, ub) in cand if not (x >> u) & 1]
        pos = bisect_left(kept_before, v)
        n_live = len(live)
        for pick in range(1 << n_live):
            lost_v = lost + pick.bit_count()  # a picked edge costs both ends
            if lost_v > cap[v]:
                continue
            ue2, extra_cost, l_mask, hit, survivors = ue, 0, 0, 0, []
            ok = True
            for j in range(n_live):
                e, u, ub = live[j]
                if (pick >> j) & 1:
                    ue2 += ctx.we[e]
                    if ue2 > inst.k_e:
                        ok = False
                        break
                    extra_cost += ctx.ce[e]
                    l_mask |= 1 << e
                    hit |= ub
                else:
                    survivors.append(u)
            if not ok:
                continue
            loss2 = _lose(loss, kept_before, hit, cap)
            if loss2 is None:
                continue
            loss2 = loss2[:pos] + (lost_v,) + loss2[pos:]
            if ctx.connected:
                blocks = key[5]
                labels = list(blocks[:pos]) + [len(blocks) + 1] + list(blocks[pos:])
                kept_after = kept_before[:pos] + (v,) + kept_before[pos:]
                if survivors:
                    target = labels[pos]
                    merged = {labels[kept_after.index(u)] for u in survivors}
                    labels = [target if l in merged else l for l in labels]
                key2 = (x, y | l_mask, loss2, uv, ue2, _relabel(labels), False)
            else:
                key2 = (x, y | l_mask, loss2, uv, ue2)
            _update(table, key2, cost + extra_cost, u_mask, d_mask | l_mask)
    return table


def _forget(ctx: _Ctx, node: int, child: dict) -> dict:
    v = ctx.idx[ctx.ntd.vertex[node]]
    v_bit = 1 << v
    below_v = sum(1 << i for i in ctx.bag_idx[ctx.ntd.children[node][0]] if i < v)
    v_edges = sum(1 << e for e, _u, _ub in ctx.incident[node])  # into the bag
    need = ctx.slack[v]
    table: dict = {}
    for key, ent in child.items():
        x = key[0]
        if x & v_bit:
            _update(table, (x & ~v_bit,) + key[1:], *ent)
            continue
        # v kept: its final degree is fixed now
        loss = key[2]
        pos = (below_v & ~x).bit_count()
        if loss[pos] != need:
            continue
        key2 = (x, key[1] & ~v_edges, loss[:pos] + loss[pos + 1:], key[3], key[4])
        if ctx.connected:
            blocks, closed = key[5], key[6]
            mine = blocks[pos]
            rest = list(blocks[:pos]) + list(blocks[pos + 1:])
            if mine not in rest:
                if rest:
                    continue  # a bag-less component beside open blocks
                closed = True
            key2 += (_relabel(rest), closed)
        _update(table, key2, *ent)
    return table


def _bag_terms(ctx: _Ctx, bag: tuple[int, ...], x: int, y: int) -> tuple:
    """What both sides of a join count for bag choices (x, y): vertex and
    edge weight, their cost, the kept vertices and the loss each takes
    inside the bag."""
    kept = _kept(bag, x)
    lost = {u: (ctx.adj[u] & x).bit_count() for u in kept}
    for e in _bits(y):
        a, b = ctx.edges[e]
        lost[ctx.idx[a]] += 1
        lost[ctx.idx[b]] += 1
    return (sum(ctx.wv[i] for i in _bits(x)), sum(ctx.we[i] for i in _bits(y)),
            sum(ctx.cv[i] for i in _bits(x)) + sum(ctx.ce[i] for i in _bits(y)),
            kept, tuple(lost[u] for u in kept))


def _join(ctx: _Ctx, node: int, left: dict, right: dict) -> dict:
    inst = ctx.inst
    bag = ctx.bag_idx[node]
    cap = ctx.cap
    groups: dict[tuple[int, int], list] = {}
    for key, ent in right.items():
        groups.setdefault((key[0], key[1]), []).append((key, ent))
    table: dict = {}
    bag_cache: dict[tuple[int, int], tuple] = {}
    for keyl, entl in left.items():
        xy = keyl[:2]
        partners = groups.get(xy)
        if not partners:
            continue
        if xy not in bag_cache:
            bag_cache[xy] = _bag_terms(ctx, bag, *xy)
        xw, yw, xyc, kept, shared = bag_cache[xy]
        lossl, uvl, uel = keyl[2], keyl[3], keyl[4]
        costl, uml, dml = entl
        for keyr, entr in partners:
            uv2 = uvl + keyr[3] - xw
            if uv2 > inst.k_v:
                continue
            ue2 = uel + keyr[4] - yw
            if ue2 > inst.k_e:
                continue
            loss2 = tuple(a + b - c for a, b, c in zip(lossl, keyr[2], shared))
            if any(l > cap[u] for l, u in zip(loss2, kept)):
                continue
            if ctx.connected:
                if keyl[6] and keyr[6]:
                    continue  # two components that can never meet again
                closed = keyl[6] or keyr[6]
                parent = list(range(len(kept)))

                def find(a):
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    return a

                for blocks in (keyl[5], keyr[5]):
                    first: dict[int, int] = {}
                    for i, lab in enumerate(blocks):
                        if lab in first:
                            ra, rb = find(first[lab]), find(i)
                            if ra != rb:
                                parent[rb] = ra
                        else:
                            first[lab] = i
                key2 = (xy[0], xy[1], loss2, uv2, ue2,
                        _relabel([find(i) for i in range(len(kept))]), closed)
            else:
                key2 = (xy[0], xy[1], loss2, uv2, ue2)
            costr, umr, dmr = entr
            _update(table, key2, costl + costr - xyc, uml | umr, dml | dmr)
    return table


def run_tables(ctx: _Ctx) -> list[dict]:
    tables: list[dict] = []
    for node in range(len(ctx.ntd)):
        kids = [tables[c] for c in ctx.ntd.children[node]]
        tables.append(process_node(ctx, node, kids))
        for c in ctx.ntd.children[node]:
            tables[c] = None  # free child tables once consumed
    return tables


def root_answers(ctx: _Ctx, root_table: dict) -> dict[tuple, list]:
    """Feasible (spent_v, spent_e, entry) rows at the root, grouped by the
    losses of the root-bag vertices; an empty root bag gives one group, ()."""
    out: dict[tuple, list] = {}
    for key, ent in sorted(root_table.items()):
        if key[0] or key[1] or (ctx.connected and len(set(key[5])) > 1):
            continue
        out.setdefault(key[2], []).append((key[3], key[4], ent))
    return out


def best_within(ctx: _Ctx, answers, h_v: int, h_e: int) -> Solution | None:
    best = None
    for uv, ue, ent in answers:
        if uv > h_v or ue > h_e or ent[0] > ctx.inst.cost_budget:
            continue
        if best is None or _entry_less(ent, best):
            best = ent
    if best is None:
        return None
    cost, u_mask, d_mask = best
    return Solution(frozenset(ctx.ids[i] for i in _bits(u_mask)),
                    frozenset(ctx.edges[i] for i in _bits(d_mask)), cost)


class PreparedSolve:
    """One DP run over the given nice decomposition of inst, validated first
    unless ``check`` is off.  ``solve`` reads the optimum at the instance's
    own budgets; ``best_within`` reads any smaller pair off ``answers``."""

    def __init__(self, inst: Instance, ntd: NiceTreeDecomposition, *,
                 check: bool = True):
        if check:
            verdict = validate(inst.graph, ntd)
            if not verdict:
                raise ValueError(f"invalid decomposition: {verdict.reason}")
        self.ctx = _prepare(inst, ntd)
        tables = run_tables(self.ctx)
        self.answers = root_answers(self.ctx, tables[-1])

    def solve(self) -> Solution | None:
        inst = self.ctx.inst
        return best_within(self.ctx, self.answers.get((), ()), inst.k_v, inst.k_e)


def active_region(inst: Instance) -> Instance | None:
    """The region instance of inst (see the module docstring): same optimum,
    ids and tie-break; inst itself when every vertex is in X; None when the
    region alone proves the answer is no."""
    g, delta, weight_v, k_v = inst.graph, inst.delta, inst.weight_v, inst.k_v
    nbrs = {v: g.neighbors(v) for v in g.vertices}
    plus = {v for v, ns in nbrs.items() if len(ns) > delta[v]}
    x = set()
    for v, ns in nbrs.items():
        spent = weight_v[v]
        for u in ns:
            if spent > k_v:
                break
            if u not in plus:
                spent += weight_v[u]
        if spent <= k_v:
            x.add(v)
    # a vertex outside X and S+ is kept at zero loss: its neighbours stay
    stack = [v for v in nbrs if v not in x and v not in plus]
    while stack:
        for u in nbrs[stack.pop()]:
            if u in x:
                x.remove(u)
                if u not in plus:
                    stack.append(u)
    if any(len(ns) < delta[v] for v, ns in nbrs.items() if v not in x):
        return None
    if len(x) == len(nbrs):
        return inst
    region = x | plus
    touches: list[set[int]] = []  # region neighbours of each rest component
    seen: set[int] = set()
    for s in sorted(nbrs.keys() - region):
        if s in seen:
            continue
        seen.add(s)
        stack, touch = [s], set()
        while stack:
            for u in nbrs[stack.pop()]:
                if u in region:
                    touch.add(u)
                elif u not in seen:
                    seen.add(u)
                    stack.append(u)
        touches.append(touch)
    delta_h = {v: delta[v] - len(nbrs[v] - region) for v in region}
    weight_h = {v: weight_v[v] if v in x else k_v + 1 for v in region}
    cost_h = {v: inst.cost_v[v] for v in region}
    adj = {v: nbrs[v] & region for v in region}
    weight_e = {(a, b): inst.weight_e[a, b] for a in region for b in adj[a] if a < b}
    cost_e = {e: inst.cost_e[e] for e in weight_e}
    rigid = max(nbrs) + 1
    for z, touch in enumerate(touches, rigid):
        delta_h[z], weight_h[z], cost_h[z] = len(touch), k_v + 1, 0
        adj[z] = frozenset(touch)
        for t in touch:
            delta_h[t] += 1
            adj[t] |= {z}
            weight_e[(t, z)], cost_e[(t, z)] = inst.k_e + 1, 0
    if any(d < 0 for d in delta_h.values()):
        return None
    return Instance(Graph._from_adj(adj, frozenset(sorted(weight_e))), delta_h, weight_h,
                    weight_e, cost_h, cost_e, k_v, inst.k_e, inst.cost_budget,
                    inst.variant)


def solve_auto(inst: Instance, ntd: NiceTreeDecomposition | None = None
               ) -> Solution | None:
    """Minimum-cost efficient solution of inst, plain or connected as its
    variant says, or None.  Without a decomposition, solves the active
    region over one built for it."""
    if ntd is None:
        inst = active_region(inst)
        if inst is None:
            return None
        ntd = to_nice(decompose(inst.graph))
    return PreparedSolve(inst, ntd).solve()
