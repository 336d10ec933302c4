import random
from itertools import permutations

import pytest

from degedit.generator import random_planar_graph
from degedit.graph import Graph
from degedit.treewidth import (FORGET, INTRODUCE, JOIN, LEAF,
                               NiceTreeDecomposition, TreeDecomposition,
                               decompose, from_elimination_order, to_nice,
                               validate)

from conftest import cycle_instance


def brute_force_treewidth(g: Graph) -> int:
    """Independent oracle: try every elimination order."""
    if g.n == 0:
        return -1
    best = g.n - 1
    for order in permutations(g.sorted_vertices()):
        adj = {v: set(g.neighbors(v)) for v in g.vertices}
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            if width >= best:
                break
            nbrs = adj.pop(v)
            for a in nbrs:
                adj[a] |= nbrs - {a}
                adj[a].discard(v)
        best = min(best, width)
    return best


def k(n):
    vs = range(1, n + 1)
    return Graph(vs, [(i, j) for i in vs for j in vs if i < j])


def path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)] + [(1, n)])


def test_known_widths():
    assert decompose(path(3)).width == 1
    assert decompose(cycle(4)).width == 2
    assert decompose(k(4)).width == 3
    assert decompose(Graph()).width == -1
    assert decompose(Graph([7])).width == 0


def test_min_degree_matches_brute_force(rng):
    # min-degree is only an upper bound in general; on these small planar
    # graphs it meets the true treewidth, so small protrusion parts get
    # optimal width certificates without an exact search
    for trial in range(25):
        g = random_planar_graph(rng.randint(1, 6), rng)
        assert decompose(g).width == brute_force_treewidth(g), g.edge_set()
    for trial in range(6):
        g = random_planar_graph(rng.randint(7, 8), rng)
        assert decompose(g).width == brute_force_treewidth(g), g.edge_set()


def test_decompositions_validate(rng):
    for trial in range(60):
        g = random_planar_graph(rng.randint(0, 11), rng)
        td = decompose(g)
        assert validate(g, td), g.edge_set()


def test_validate_names_violated_condition():
    g = path(3)
    bad_cover = TreeDecomposition((frozenset({1, 2}),), frozenset())
    assert "condition (i)" in validate(g, bad_cover).reason
    uncovered_edge = TreeDecomposition(
        (frozenset({1, 2}), frozenset({3})), frozenset({(0, 1)}))
    assert "condition (ii)" in validate(g, uncovered_edge).reason
    split_vertex = TreeDecomposition(
        (frozenset({1, 2}), frozenset({2, 3}), frozenset({1})),
        frozenset({(0, 1), (1, 2)}))
    assert "condition (iii)" in validate(g, split_vertex).reason


def test_to_nice_triangle_single_bag():
    g = k(3)
    td = TreeDecomposition((frozenset({1, 2, 3}),), frozenset())
    ntd = to_nice(td)
    assert validate(g, ntd)
    # a lone bag unfolds into leaf, 3 introduces, 3 forgets
    kinds = list(ntd.kinds)
    assert kinds.count(LEAF) == 1
    assert kinds.count(INTRODUCE) == 3
    assert kinds.count(FORGET) == 3
    assert ntd.kinds[ntd.root] == FORGET
    assert not ntd.bags[ntd.root]


def test_to_nice_empty_graph_degenerate():
    g = Graph()
    ntd = to_nice(decompose(g))
    assert len(ntd) == 1 and ntd.kinds[0] == LEAF
    assert validate(g, ntd)


def test_to_nice_preserves_width_and_validates(rng):
    for trial in range(500):
        g = random_planar_graph(rng.randint(0, 10), rng)
        td = decompose(g)
        ntd = to_nice(td)
        assert ntd.width == td.width
        assert validate(g, ntd), (g.edge_set(), trial)
        # node count stays linear in graph and decomposition size
        assert len(ntd) <= 6 * (g.n + len(td.bags) + 2)


def test_to_nice_root_bag(rng):
    # only the final chain changes: it stops at root_bag instead of emptying
    # the top bag, and validate refuses the unforgotten root
    checked = 0
    for trial in range(200):
        g = random_planar_graph(rng.randint(1, 10), rng)
        td = decompose(g)
        top = sorted(td.bags[0])
        root_bag = frozenset(rng.sample(top, rng.randint(1, len(top))))
        plain, rooted = to_nice(td), to_nice(td, root_bag)
        shared = len(plain) - len(td.bags[0])  # nodes before the final chain
        assert len(rooted) == shared + len(td.bags[0] - root_bag)
        for field in ("kinds", "bags", "children", "vertex"):
            assert getattr(rooted, field)[:shared] == getattr(plain, field)[:shared]
        assert rooted.bags[rooted.root] == root_bag
        assert validate(g, rooted).reason == "root bag must be empty", trial
        checked += len(root_bag) < len(top)
    assert checked >= 50


def test_to_nice_rejects_invalid():
    g = path(3)
    broken = TreeDecomposition(
        (frozenset({1, 2}), frozenset({3})), frozenset())
    with pytest.raises(ValueError):
        to_nice(broken)


def test_joins_appear_on_branching_graphs():
    g = Graph(range(1, 8), [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    ntd = to_nice(decompose(g))
    assert JOIN in ntd.kinds
    assert validate(g, ntd)
