import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from degedit.generator import random_planar_graph
from degedit.graph import Graph, edge_key, is_planar, verify_bipartite_planar_bound


def k(n):
    vs = range(1, n + 1)
    return Graph(vs, [(i, j) for i in vs for j in vs if i < j])


def test_edge_key_canonical_and_loop_rejected():
    assert edge_key(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge_key(2, 2)


def test_delete_vertex_from_path():
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    h = g.delete_vertices([2])
    assert h.vertices == {1, 3}
    assert h.m == 0
    # original untouched
    assert g.m == 2


def test_contract_triangle_merges_parallel_edges():
    g = Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    h, z = g.contract_edge(1, 2)
    assert z == 4
    assert h.vertices == {3, 4}
    assert h.edge_set() == {(3, 4)}


def test_delete_edge_from_cycle():
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    h = g.delete_edges([(1, 2)])
    assert h.edge_set() == {(2, 3), (3, 4), (1, 4)}
    assert h.degree(1) == h.degree(2) == 1


def test_contraction_never_creates_loops_or_parallels(rng):
    for trial in range(50):
        g = random_planar_graph(rng.randint(3, 10), rng)
        edges = list(g.edges())
        if not edges:
            continue
        u, v = rng.choice(edges)
        h, z = g.contract_edge(u, v)
        for x in h.vertices:
            assert x not in h.neighbors(x)
            assert len(h.neighbors(x)) == len(set(h.neighbors(x)))


def test_planarity_basics():
    assert is_planar(k(4))
    assert not is_planar(k(5))
    # K3,3 minus one edge is planar
    left, right = [1, 2, 3], [4, 5, 6]
    edges = [(a, b) for a in left for b in right]
    assert not is_planar(Graph(range(1, 7), edges))
    assert is_planar(Graph(range(1, 7), edges[1:]))


def _relabel(g, rng):
    """The same graph on shuffled, non-contiguous vertex ids."""
    old = g.sorted_vertices()
    ids = rng.sample(range(1, 3 * len(old) + 2), len(old))
    to = dict(zip(old, ids))
    return Graph(ids, [(to[u], to[v]) for u, v in g.edges()])


def _union(graphs):
    vs, es, base = [], [], 0
    for g in graphs:
        to = {v: base + i for i, v in enumerate(g.sorted_vertices())}
        vs += to.values()
        es += [(to[u], to[v]) for u, v in g.edges()]
        base += g.n
    return Graph(vs, es)


def _subdivided_kuratowski(rng):
    """K5 or K3,3 with random subdivisions and planar trees hung on it."""
    if rng.random() < 0.5:
        base = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    else:
        base = [(a, b) for a in range(3) for b in range(3, 6)]
    es, nxt = [], 6
    for a, b in base:
        path = [a] + list(range(nxt, nxt + rng.randint(0, 2))) + [b]
        nxt += len(path) - 2
        es += zip(path, path[1:])
    vs = {v for e in es for v in e}
    for _ in range(rng.randint(0, 8)):
        es.append((rng.choice(sorted(vs)), nxt))
        vs.add(nxt)
        nxt += 1
    return Graph(vs, es)


def _planarity_corpus(rng):
    for n in range(15):
        for p in (0.15, 0.3, 0.45, 0.6, 0.8):
            for _ in range(30):
                vs = range(n)
                yield Graph(vs, [(a, b) for a in vs for b in vs
                                 if a < b and rng.random() < p])
    for _ in range(600):
        n = rng.randint(3, 40)
        tri = random_planar_graph(n, rng, keep_prob=1.0)
        es = set(tri.edges())
        for _ in range(rng.randint(0, 5)):
            es.add(edge_key(*rng.sample(range(1, n + 1), 2)))
        yield _relabel(Graph(tri.vertices, es), rng)
    for _ in range(400):
        yield _relabel(_subdivided_kuratowski(rng), rng)
    for _ in range(300):
        parts = [random_planar_graph(rng.randint(1, 15), rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            parts.append(_subdivided_kuratowski(rng))
        rng.shuffle(parts)
        yield _relabel(_union(parts), rng)
    # either side of the edge-count shortcut: every graph with 8 edges is
    # planar, and K3,3 (with isolated vertices) is the only non-planar one
    # with 9
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    for g in (Graph(range(6), k33), Graph(range(6), k33[1:]),
              Graph(range(8), k33), Graph(range(5), k5[2:]),
              Graph(range(5), k5[1:])):
        yield _relabel(g, rng)
    for m in (8, 9):
        for _ in range(100):
            n = rng.randint(5, 9)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            yield _relabel(Graph(range(n), rng.sample(pairs, m)), rng)


def test_is_planar_matches_networkx():
    verdicts = []
    for g in _planarity_corpus(random.Random(2009)):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges())
        expected, _ = nx.check_planarity(h)
        assert is_planar(g) == expected, f"{sorted(g.vertices)} {list(g.edges())}"
        verdicts.append(expected)
    assert verdicts.count(False) > 1000 and verdicts.count(True) > 1000


def test_is_planar_deep_dfs():
    n = 20_000
    assert is_planar(Graph(range(n), [(i, i + 1) for i in range(n - 1)]))
    side = 100
    grid = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    grid += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    assert is_planar(Graph(range(side * side), grid))


@st.composite
def graphs_and_relabellings(draw):
    n = draw(st.integers(5, 11))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    ids = draw(st.permutations(range(100, 100 + 2 * n)))[:n]
    return n, edges, ids


@settings(max_examples=300, deadline=None)
@given(graphs_and_relabellings())
def test_is_planar_invariant_under_relabelling(case):
    n, edges, ids = case
    g = Graph(range(n), edges)
    h = Graph(ids, [(ids[a], ids[b]) for a, b in edges])
    assert is_planar(g) == is_planar(h)


def test_planarity_preserved_by_edits(rng):
    for trial in range(1000):
        g = random_planar_graph(rng.randint(4, 10), rng)
        for _ in range(4):
            choices = []
            if g.n > 1:
                choices.append("dv")
            edges = list(g.edges())
            if edges:
                choices += ["de", "ce"]
            if not choices:
                break
            op = rng.choice(choices)
            if op == "dv":
                g = g.delete_vertices([rng.choice(g.sorted_vertices())])
            elif op == "de":
                g = g.delete_edges([rng.choice(edges)])
            else:
                g, _ = g.contract_edge(*rng.choice(edges))
            assert is_planar(g)


def cube_graph():
    # Q3: vertices 0..7 as bitstrings, edges between Hamming distance 1
    edges = [(a, b) for a in range(8) for b in range(8)
             if a < b and bin(a ^ b).count("1") == 1]
    return Graph(range(8), edges)


def test_bipartite_planar_bound_cube():
    g = cube_graph()
    v1 = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    v2 = [v for v in range(8) if bin(v).count("1") % 2 == 1]
    assert is_planar(g)
    assert all(g.degree(v) == 3 for v in v2)
    assert verify_bipartite_planar_bound(g, v1, v2)  # 4 <= 2*4 - 4


def test_bipartite_planar_bound_small_star():
    g = Graph([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)])
    assert verify_bipartite_planar_bound(g, [1, 2, 3], [4])  # 1 <= 2


def test_bipartite_planar_bound_rejects_low_degree():
    g = Graph([1, 2, 3], [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="degree"):
        verify_bipartite_planar_bound(g, [1, 2], [3])


def test_bipartite_planar_bound_rejects_non_bipartition():
    g = Graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError, match="bipartition"):
        verify_bipartite_planar_bound(g, [1, 2], [2, 3, 4])
    with pytest.raises(ValueError, match="bipartite"):
        verify_bipartite_planar_bound(Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)]),
                                      [1, 2], [3])


def _edits(g, rng):
    """One result of each edit method on g, each from a fresh random pick."""
    vs = g.sorted_vertices()
    es = list(g.edges())
    yield g.delete_vertices([rng.choice(vs)])
    yield g.delete_vertices(rng.sample(vs, rng.randint(0, len(vs))))
    yield g.subgraph(rng.sample(vs, rng.randint(0, len(vs))))
    yield g.add_vertex(max(vs) + 1, rng.sample(vs, rng.randint(0, min(3, len(vs)))))
    if es:
        yield g.delete_edges([rng.choice(es)])
        yield g.delete_edges(rng.sample(es, rng.randint(0, len(es))))
        yield g.contract_edge(*rng.choice(es))[0]


def test_cached_edge_set_follows_every_edit(rng):
    for trial in range(300):
        g = random_planar_graph(rng.randint(1, 12), rng)
        if trial % 2:
            g.edge_set()  # a cached set on the source must not leak into edits
        for h in [g, *_edits(g, rng)]:
            for _ in range(2):  # built on first use, then kept
                assert h.edge_set() == frozenset(h.edges())
                # the same iteration order as a fresh build, since callers
                # fill dicts in this order
                assert list(h.edge_set()) == list(frozenset(h.edges()))
