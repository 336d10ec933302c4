"""Differential tests: the bag-local and heap-driven paths against the
straightforward scans they replaced, kept here as reference copies."""

import random

from hypothesis import given, settings, strategies as st

from degedit.dpsolve import _bits, _entry_less, _set_less
from degedit.generator import random_planar_graph
from degedit.graph import Graph
from degedit.treewidth import (DecompositionVerdict, NiceTreeDecomposition,
                               TreeDecomposition, _adj_dict, _eliminate,
                               _is_tree, _min_degree_order,
                               _nice_tree_edges, _validate_nice_shape,
                               decompose, to_nice, validate)

# -- mask tie-break ------------------------------------------------------------

WIDTH = 24
IDS = sorted(random.Random(5).sample(range(1, 1000), WIDTH))
PAIRS = sorted((a, b) for a in IDS[:8] for b in IDS[8:11])


def _sig(mask, names):
    return tuple(names[i] for i in range(len(names)) if (mask >> i) & 1)


@st.composite
def mask_pairs(draw, width):
    """Two masks that often share a long common part."""
    a = draw(st.integers(0, (1 << width) - 1))
    b = a
    for i in draw(st.lists(st.integers(0, width - 1), max_size=3)):
        b ^= 1 << i
    if draw(st.booleans()):
        b = draw(st.integers(0, (1 << width) - 1))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=500, deadline=None)
@given(mask_pairs(WIDTH), mask_pairs(len(PAIRS)), st.integers(0, 2),
       st.integers(0, 2))
def test_entry_order_matches_sorted_tuple_order(us, ds, ca, cb):
    a, b = (ca, us[0], ds[0]), (cb, us[1], ds[1])

    def tuple_form(ent):
        return (ent[0], _sig(ent[1], IDS), _sig(ent[2], PAIRS))

    assert _entry_less(a, b) == (tuple_form(a) < tuple_form(b))
    assert _entry_less(b, a) == (tuple_form(b) < tuple_form(a))


@settings(max_examples=300, deadline=None)
@given(mask_pairs(300))
def test_set_order_on_wide_masks(pair):
    a, b = pair
    assert _set_less(a, b) == (tuple(_bits(a)) < tuple(_bits(b)))
    assert list(_bits(a)) == [i for i in range(300) if (a >> i) & 1]


# -- elimination orders --------------------------------------------------------


def _min_degree_order_scan(g):
    adj = _adj_dict(g)
    order = []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        order.append(v)
        _eliminate(adj, v)
    return order


def _order_graphs():
    for seed in range(3):
        rng = random.Random(4100 + seed)
        yield random_planar_graph(300, rng, 1.0)  # stacked triangulation
        yield random_planar_graph(300, rng, 0.65)
    for seed in range(30):
        rng = random.Random(4200 + seed)
        yield random_planar_graph(rng.randint(0, 120), rng,
                                  rng.choice((0.45, 0.8, 1.0)))
    yield Graph(range(1, 6))  # no edges: ties on every key


def test_heap_orders_match_min_scans():
    for g in _order_graphs():
        assert _min_degree_order(g) == _min_degree_order_scan(g)


# -- validation ----------------------------------------------------------------


def _validate_scan(g, td):
    if isinstance(td, NiceTreeDecomposition):
        nice_verdict = _validate_nice_shape(td)
        if not nice_verdict:
            return nice_verdict
        bags = td.bags
        edges = _nice_tree_edges(td)
    else:
        bags = td.bags
        edges = td.tree_edges
        if not _is_tree(len(bags), edges):
            return DecompositionVerdict(False, "tree structure invalid")
    covered = frozenset().union(*bags) if bags else frozenset()
    if covered != g.vertices:
        return DecompositionVerdict(
            False, "condition (i) failed: bag union differs from vertex set")
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            return DecompositionVerdict(
                False, f"condition (ii) failed: edge ({u}, {v}) not in any bag")
    adj = {i: set() for i in range(len(bags))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for x in g.vertices:
        nodes = {i for i, b in enumerate(bags) if x in b}
        start = min(nodes)
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in nodes and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != nodes:
            return DecompositionVerdict(
                False, f"condition (iii) failed: vertex {x} spans a "
                       "disconnected set of bags")
    return DecompositionVerdict(True)


def _corrupt_bags(bags, g, rng):
    bags = list(bags)
    i = rng.randrange(len(bags))
    kind = rng.randrange(4)
    if kind == 0 and bags[i]:
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
    elif kind == 1:
        extra = rng.choice(sorted(g.vertices) + [10_000])
        bags[i] = bags[i] | {extra}
    elif kind == 2:
        bags[i] = frozenset()
    else:
        j = rng.randrange(len(bags))
        bags[i], bags[j] = bags[j], bags[i]
    return tuple(bags)


def _corrupt_edges(edges, n_bags, rng):
    edges = set(edges)
    if edges and rng.random() < 0.5:
        edges.discard(rng.choice(sorted(edges)))
    if n_bags > 1:
        a, b = rng.sample(range(n_bags), 2)
        edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


def test_validate_verdicts_match_scan_on_corruptions():
    rng = random.Random(9090)
    reasons = set()
    for trial in range(300):
        g = random_planar_graph(rng.randint(1, 25), rng)
        td = decompose(g)
        ntd = to_nice(td, g)
        cases = [td, ntd,
                 TreeDecomposition(_corrupt_bags(td.bags, g, rng), td.tree_edges),
                 TreeDecomposition(td.bags, _corrupt_edges(
                     td.tree_edges, len(td.bags), rng)),
                 NiceTreeDecomposition(ntd.kinds, _corrupt_bags(ntd.bags, g, rng),
                                       ntd.children, ntd.vertex)]
        for case in cases:
            got, want = validate(g, case), _validate_scan(g, case)
            assert (got.ok, got.reason) == (want.ok, want.reason)
            reasons.add(got.reason.split(":")[0])
    # the corruptions reach every condition
    assert {"", "tree structure invalid", "condition (i) failed",
            "condition (ii) failed", "condition (iii) failed"} <= reasons
