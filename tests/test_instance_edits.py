"""Differential tests: the shared instance edits in `degedit.instance`
against the helpers they replaced, kept here as reference copies: the
separate normalize and kernelize helpers, and the ``with_delta``,
``delete_edge`` and ``contract(delta_z=, delta_updates=)`` edits whose
arithmetic the rules once wrote out themselves.  Results are compared in
content, in ``write_instance`` bytes and in the iteration order of every
dict, vertex view, neighbour set and edge set."""

import random

import pytest

from degedit.graph import Graph, edge_key
from degedit.instance import (Instance, add_pendant, contract, delete_edges,
                              delete_vertices)
from degedit.io import write_instance
from degedit.kernelize import kernelize
from degedit.normalize import CONTRACTION, normalize, satisfied_vertices

import forges
from conftest import random_corpus, recorded

# -- reference copies ----------------------------------------------------------


def ref_normalize_delete_vertex(inst, v, *, charge):
    k_v, cbudget = inst.k_v, inst.cost_budget
    if charge:
        k_v -= inst.weight_v[v]
        cbudget -= inst.cost_v[v]
        if k_v < 0 or cbudget < 0:
            return None
    g = inst.graph.delete_vertices([v])
    keep_v = g.vertices
    keep_e = g.edge_set()
    return Instance(
        g,
        {x: inst.delta[x] for x in keep_v},
        {x: inst.weight_v[x] for x in keep_v},
        {e: inst.weight_e[e] for e in keep_e},
        {x: inst.cost_v[x] for x in keep_v},
        {e: inst.cost_e[e] for e in keep_e},
        k_v, inst.k_e, cbudget, inst.variant)


def ref_contract_satisfied_pair(inst, u, v):
    sat = satisfied_vertices(inst)
    g2, z = inst.graph.contract_edge(u, v)
    delta, weight_v, cost_v = {}, {}, {}
    for x in g2.vertices:
        if x == z:
            delta[x] = g2.degree(x)
            weight_v[x] = inst.weight_v[u] + inst.weight_v[v]
            cost_v[x] = inst.cost_v[u] + inst.cost_v[v]
        else:
            delta[x] = g2.degree(x) if x in sat else inst.delta[x]
            weight_v[x] = inst.weight_v[x]
            cost_v[x] = inst.cost_v[x]
    weight_e, cost_e = {}, {}
    for e in g2.edge_set():
        if z in e:
            weight_e[e] = inst.k_e + 1
            cost_e[e] = 0
        else:
            weight_e[e] = inst.weight_e[e]
            cost_e[e] = inst.cost_e[e]
    out = Instance(g2, delta, weight_v, weight_e, cost_v, cost_e,
                   inst.k_v, inst.k_e, inst.cost_budget, inst.variant)
    return out, z


def _remake(inst, g, delta, weight_v, weight_e, cost_v, cost_e, k_v=None,
            cost_budget=None):
    return Instance(g, delta, weight_v, weight_e, cost_v, cost_e,
                    inst.k_v if k_v is None else k_v, inst.k_e,
                    inst.cost_budget if cost_budget is None else cost_budget,
                    inst.variant)


def ref_delete_vertices(inst, vs, *, charge):
    vs = frozenset(vs)
    k_v, cbudget = inst.k_v, inst.cost_budget
    if charge:
        k_v -= sum(inst.weight_v[v] for v in vs)
        cbudget -= sum(inst.cost_v[v] for v in vs)
        if k_v < 0 or cbudget < 0:
            return None
    g = inst.graph.delete_vertices(vs)
    keep_e = g.edge_set()
    return _remake(inst, g,
                   {v: inst.delta[v] for v in g.vertices},
                   {v: inst.weight_v[v] for v in g.vertices},
                   {e: inst.weight_e[e] for e in keep_e},
                   {v: inst.cost_v[v] for v in g.vertices},
                   {e: inst.cost_e[e] for e in keep_e},
                   k_v=k_v, cost_budget=cbudget)


def ref_with_delta(inst, updates):
    delta = dict(inst.delta)
    delta.update(updates)
    return _remake(inst, inst.graph, delta, inst.weight_v, inst.weight_e,
                   inst.cost_v, inst.cost_e)


def ref_graph_delete_edge(g, u, v):
    """``Graph.delete_edge`` as it was: one copy of the adjacency per edge."""
    if not g.has_edge(u, v):
        raise ValueError(f"no such edge: ({u}, {v})")
    adj = dict(g._adj)
    adj[u] = adj[u] - {v}
    adj[v] = adj[v] - {u}
    return Graph._from_adj(adj)


def ref_delete_edge(inst, e, delta_updates):
    g = ref_graph_delete_edge(inst.graph, *e)
    delta = dict(inst.delta)
    delta.update(delta_updates)
    weight_e = {x: wgt for x, wgt in inst.weight_e.items() if x != e}
    cost_e = {x: c for x, c in inst.cost_e.items() if x != e}
    return _remake(inst, g, delta, inst.weight_v, weight_e, inst.cost_v, cost_e)


def ref_contract(inst, a, b, z, *, delta_z, weight_z, cost_z, edge_policy,
                 delta_updates):
    g = inst.graph
    if edge_policy == "inherit":
        common = (g.neighbors(a) & g.neighbors(b)) - {a, b}
        if common:
            raise AssertionError("inherit policy with merged parallel edges")
    g2, minted = g.contract_edge(a, b, new_id=z)
    if minted != z:
        raise RuntimeError(f"contraction minted {minted}, expected {z}")
    delta = {v: inst.delta[v] for v in g2.vertices if v != z}
    delta.update({v: t for v, t in delta_updates.items() if v in delta})
    delta[z] = delta_z
    weight_v = {v: inst.weight_v[v] for v in g2.vertices if v != z}
    weight_v[z] = weight_z
    cost_v = {v: inst.cost_v[v] for v in g2.vertices if v != z}
    cost_v[z] = cost_z
    weight_e, cost_e = {}, {}
    for e in g2.edge_set():
        if z in e:
            if edge_policy == "inherit":
                x = e[0] if e[1] == z else e[1]
                src = edge_key(x, a) if g.has_edge(x, a) else edge_key(x, b)
                weight_e[e] = inst.weight_e[src]
                cost_e[e] = inst.cost_e[src]
            else:
                _, wgt, c = edge_policy
                weight_e[e] = wgt
                cost_e[e] = c
        else:
            weight_e[e] = inst.weight_e[e]
            cost_e[e] = inst.cost_e[e]
    return _remake(inst, g2, delta, weight_v, weight_e, cost_v, cost_e)


def ref_add_pendant(inst, z, nbrs, *, delta_z, weight_z, cost_z, edge_weight,
                    edge_cost):
    g = inst.graph.add_vertex(z, nbrs)
    delta = dict(inst.delta)
    delta[z] = delta_z
    weight_v = dict(inst.weight_v)
    weight_v[z] = weight_z
    cost_v = dict(inst.cost_v)
    cost_v[z] = cost_z
    weight_e = dict(inst.weight_e)
    cost_e = dict(inst.cost_e)
    for u in nbrs:
        e = edge_key(z, u)
        weight_e[e] = edge_weight
        cost_e[e] = edge_cost
    return _remake(inst, g, delta, weight_v, weight_e, cost_v, cost_e)


# -- comparisons ---------------------------------------------------------------


def layout(inst):
    """Every iteration order an instance exposes."""
    g = inst.graph
    return ([list(m.items()) for m in (inst.delta, inst.weight_v, inst.weight_e,
                                      inst.cost_v, inst.cost_e)],
            list(g.vertex_keys()), [list(g.neighbors(v)) for v in g.vertex_keys()],
            list(g.edge_set()))


def same(new, ref, *, orders=True):
    if ref is None:
        assert new is None
        return
    assert new == ref
    assert write_instance(new) == write_instance(ref)
    if orders:
        assert layout(new) == layout(ref)


def ref_delete_edges(inst, es, delta_updates):
    """Edge deletions the way the rules chained them: one ``delete_edge``
    per edge, each setting the targets of that edge's ends."""
    for e in es:
        inst = ref_delete_edge(inst, e, {x: t for x, t in delta_updates.items()
                                         if x in e})
    return inst


def ref_contract_slack(inst, a, b, z, *, slack, rigid, inherit):
    """A contraction with the arithmetic the rules wrote out before
    ``contract`` took it over, the z terms every rule passed for ``rigid``:
    (k_v + 1, 0), or a's and b's weights and costs summed, and the edge
    policy every rule passed for ``inherit``: "inherit", or
    ("fixed", k_e + 1, 0)."""
    g = inst.graph
    delta_z = len((g.neighbors(a) | g.neighbors(b)) - {a, b}) - slack
    if delta_z < 0:
        return None
    common = (g.neighbors(a) & g.neighbors(b)) - {a, b}
    if rigid:
        weight_z, cost_z = inst.k_v + 1, 0
    else:
        weight_z = inst.weight_v[a] + inst.weight_v[b]
        cost_z = inst.cost_v[a] + inst.cost_v[b]
    return ref_contract(inst, a, b, z, delta_z=delta_z, weight_z=weight_z,
                        cost_z=cost_z,
                        delta_updates={x: max(0, inst.delta[x] - 1) for x in common},
                        edge_policy="inherit" if inherit
                        else ("fixed", inst.k_e + 1, 0))


def ref_add_undeletable_pendant(inst, z, nbrs):
    """A pendant with the values s-contraction-2 passed before ``add_pendant``
    fixed them."""
    return ref_add_pendant(inst, z, nbrs, delta_z=len(nbrs), weight_z=inst.k_v + 1,
                           cost_z=0, edge_weight=inst.k_e + 1, edge_cost=0)


def test_edits_match_reference_on_random_corpus():
    rng = random.Random(4_410)
    corpus = (random_corpus(150, 44_000, n_hi=12)
              + random_corpus(150, 45_000, n_hi=12, raw=True))
    for inst in corpus:
        g = inst.graph
        vs = g.sorted_vertices()
        fresh = max(vs) + 1
        for v in vs:
            for charge in (False, True):
                same(delete_vertices(inst, [v], charge=charge),
                     ref_normalize_delete_vertex(inst, v, charge=charge))
        picked = rng.sample(vs, rng.randint(0, len(vs)))
        for charge in (False, True):
            same(delete_vertices(inst, picked, charge=charge),
                 ref_delete_vertices(inst, picked, charge=charge))
        updates = {v: rng.randint(0, 4) for v in rng.sample(vs, len(vs) // 2)}
        dropped = [v for v in vs if v not in updates][:1]
        same(delete_vertices(inst, dropped, charge=False, delta_updates=updates),
             ref_delete_vertices(ref_with_delta(inst, updates), dropped,
                                 charge=False))
        nbrs = tuple(rng.sample(vs, min(len(vs), 2)))
        same(add_pendant(inst, fresh, nbrs),
             ref_add_undeletable_pendant(inst, fresh, nbrs))
        es = list(g.edges())
        star = [e for e in es if vs[0] in e]
        ends = {x: rng.randint(0, 3) for e in star for x in e}
        same(delete_edges(inst, star, ends), ref_delete_edges(inst, star, ends))
        picked = rng.sample(es, rng.randint(0, len(es)))
        same(delete_edges(inst, picked, {}), ref_delete_edges(inst, picked, {}))
        for a, b in es:
            ends = {a: rng.randint(0, 3), b: rng.randint(0, 3)}
            same(delete_edges(inst, [(a, b)], ends),
                 ref_delete_edge(inst, (a, b), ends))
            common = (g.neighbors(a) & g.neighbors(b)) - {a, b}
            inherits = [False]
            if not common:
                inherits.append(True)
            else:
                with pytest.raises(RuntimeError, match="inherit policy"):
                    contract(inst, a, b, fresh, slack=0, rigid=True,
                             inherit=True)
            union = len((g.neighbors(a) | g.neighbors(b)) - {a, b})
            for inherit in inherits:
                for rigid in (False, True):
                    # slack up to one past the union size reaches a
                    # negative target
                    kw = dict(slack=rng.randint(0, union + 1), rigid=rigid,
                              inherit=inherit)
                    same(contract(inst, a, b, fresh, **kw),
                         ref_contract_slack(inst, a, b, fresh, **kw))


def test_normalize_contraction_matches_reference_at_every_site():
    # every satisfied-pair contraction that normalization performs, replayed
    # through the old helper
    sites = with_common = 0
    for inst in (random_corpus(300, 46_000, n_hi=12, raw=True)
                 + random_corpus(300, 47_000, n_hi=12)):
        for ev in recorded(normalize, inst)[1]:
            if ev.rule != CONTRACTION:
                continue
            u, v = ev.site
            g = ev.before.graph
            sites += 1
            with_common += bool(g.neighbors(u) & g.neighbors(v))
            ref, _ = ref_contract_satisfied_pair(ev.before, u, v)
            # this helper fills its dicts in vertex order, not minted id last
            same(ev.after, ref, orders=False)
    assert sites >= 50 and with_common >= 10, (sites, with_common)


def test_s_contraction_1_matches_reference_at_every_site():
    sites = with_common = 0
    runs = [forges.forge_s_contraction_1(seed) for seed in range(20)]
    runs += [(inst, None) for inst in random_corpus(200, 48_000, n_hi=12)]
    for inst, dom in runs:
        for ev in recorded(kernelize, inst, domset=dom)[1]:
            if ev.rule != "s-contraction-1" or ev.decided:
                continue
            a, b, z = ev.site
            before = ev.before
            g = before.graph
            common = (g.neighbors(a) & g.neighbors(b)) - {a, b}
            sites += 1
            with_common += bool(common)
            ref = ref_contract(
                before, a, b, z,
                delta_z=len((g.neighbors(a) | g.neighbors(b)) - {a, b}),
                weight_z=before.k_v + 1, cost_z=0,
                edge_policy=("fixed", before.k_e + 1, 0),
                delta_updates={x: before.delta[x] - 1 for x in common})
            same(ev.after, ref)
    assert sites >= 20 and with_common >= 2, (sites, with_common)
