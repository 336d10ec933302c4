"""Differential tests: the bag-local and heap-driven paths against the
straightforward scans they replaced, kept here as reference copies."""

import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from degedit.dpsolve import _bits, _entry_less, _prepare, _set_less, active_region
from degedit.generator import generate_random_planar_instance, random_planar_graph
from degedit.graph import Graph
from degedit.instance import CONNECTED, PLAIN
from degedit.io import parse_instance
from degedit.treewidth import (FORGET, INTRODUCE, JOIN, LEAF,
                               DecompositionVerdict, NiceTreeDecomposition,
                               TreeDecomposition, _adj_dict, _eliminate,
                               _is_tree, _min_degree_elimination, decompose,
                               to_nice, validate)

from conftest import random_corpus

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
        assert _min_degree_elimination(g)[0] == _min_degree_order_scan(g)


def _from_elimination_order(g, order):
    """The decomposition as it was built, by a second elimination in the
    given order: bags are the elimination neighbourhoods."""
    if not order:
        return TreeDecomposition((frozenset(),), frozenset())
    adj = _adj_dict(g)
    pos = {v: i for i, v in enumerate(order)}
    bags, parents = [], []
    for v in order:
        bag = frozenset(adj[v] | {v})
        bags.append(bag)
        parents.append(min((pos[u] for u in bag - {v}), default=None))
        _eliminate(adj, v)
    edges = {tuple(sorted((i, p))) for i, p in enumerate(parents) if p is not None}
    roots = [i for i, p in enumerate(parents) if p is None]
    for a, b in zip(roots, roots[1:]):
        edges.add((a, b))
    return TreeDecomposition(tuple(bags), frozenset(edges))


def _solve_planted_graphs():
    """The graphs of the benchmark's solve-planted corpus (seeds 301 and
    302) and of their active regions."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", Path(__file__).parents[1] / "perfbench" / "corpus.py")
    corpus = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(corpus)
    for seed in (301, 302):
        rng = random.Random(seed)
        for i in range(64):
            connected = i % 2 == 1
            inst = parse_instance(corpus.planted_instance(
                150 if connected else 220, 2, 2, connected, rng).text)
            region = active_region(inst)
            yield inst.graph
            if region is not None:
                yield region.graph


def test_one_elimination_builds_the_two_pass_decomposition():
    graphs = list(_order_graphs()) + list(_solve_planted_graphs())
    assert len(graphs) > 250
    for g in graphs:
        assert decompose(g) == _from_elimination_order(g, _min_degree_order_scan(g))


# -- validation ----------------------------------------------------------------


def _nice_tree_edges(ntd):
    out = set()
    for i, cs in enumerate(ntd.children):
        for c in cs:
            out.add(tuple(sorted((i, c))))
    return frozenset(out)


def _nice_shape_scan(ntd):
    n = len(ntd)
    if n == 0:
        return DecompositionVerdict(False, "empty decomposition")
    seen_as_child = set()
    for i in range(n):
        kind, bag, cs, v = ntd.kinds[i], ntd.bags[i], ntd.children[i], ntd.vertex[i]
        for c in cs:
            if not c < i:
                return DecompositionVerdict(False, "children must precede parents")
            if c in seen_as_child:
                return DecompositionVerdict(False, f"node {c} has two parents")
            seen_as_child.add(c)
        if kind == LEAF:
            if cs or bag:
                return DecompositionVerdict(False, f"leaf node {i} malformed")
        elif kind == INTRODUCE:
            if len(cs) != 1 or v is None or v in ntd.bags[cs[0]] \
                    or bag != ntd.bags[cs[0]] | {v}:
                return DecompositionVerdict(False, f"introduce node {i} malformed")
        elif kind == FORGET:
            if len(cs) != 1 or v is None or v not in ntd.bags[cs[0]] \
                    or bag != ntd.bags[cs[0]] - {v}:
                return DecompositionVerdict(False, f"forget node {i} malformed")
        elif kind == JOIN:
            if len(cs) != 2 or ntd.bags[cs[0]] != bag or ntd.bags[cs[1]] != bag:
                return DecompositionVerdict(False, f"join node {i} malformed")
        else:
            return DecompositionVerdict(False, f"unknown node kind {kind!r}")
    root = ntd.root
    if root in seen_as_child:
        return DecompositionVerdict(False, "root has a parent")
    if len(seen_as_child) != n - 1:
        return DecompositionVerdict(False, "not a single tree")
    if ntd.bags[root]:
        return DecompositionVerdict(False, "root bag must be empty")
    if ntd.kinds[root] == LEAF and n == 1:
        return DecompositionVerdict(True)
    if ntd.kinds[root] != FORGET:
        return DecompositionVerdict(False, "root must be a forget node")
    return DecompositionVerdict(True)


def _validate_scan(g, td):
    if isinstance(td, NiceTreeDecomposition):
        nice_verdict = _nice_shape_scan(td)
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
    kind = rng.randrange(5)
    if kind == 0 and bags[i]:
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
    elif kind == 1:
        extra = rng.choice(sorted(g.vertices) + [10_000])
        bags[i] = bags[i] | {extra}
    elif kind == 2:
        bags[i] = frozenset()
    elif kind == 3 and bags[i]:  # same size, one vertex replaced
        bags[i] = (bags[i] - {rng.choice(sorted(bags[i]))}) \
            | {rng.choice(sorted(g.vertices) + [10_000])}
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


def _corrupt_vertex(ntd, g, rng):
    """The vertex field of one introduce or forget node, renamed to another
    vertex, often one of its own or its child's bag."""
    nodes = [i for i, k in enumerate(ntd.kinds) if k in (INTRODUCE, FORGET)]
    vertex = list(ntd.vertex)
    if nodes:
        i = rng.choice(nodes)
        near = ntd.bags[i] | ntd.bags[ntd.children[i][0]]
        vertex[i] = rng.choice(sorted(near | {rng.choice(sorted(g.vertices))}))
    return tuple(vertex)


def test_validate_verdicts_match_scan_on_corruptions():
    rng = random.Random(9090)
    reasons = set()
    for trial in range(300):
        g = random_planar_graph(rng.randint(1, 25), rng)
        td = decompose(g)
        ntd = to_nice(td)
        cases = [td, ntd,
                 TreeDecomposition(_corrupt_bags(td.bags, g, rng), td.tree_edges),
                 TreeDecomposition(td.bags, _corrupt_edges(
                     td.tree_edges, len(td.bags), rng)),
                 NiceTreeDecomposition(ntd.kinds, _corrupt_bags(ntd.bags, g, rng),
                                       ntd.children, ntd.vertex),
                 NiceTreeDecomposition(ntd.kinds, ntd.bags, ntd.children,
                                       _corrupt_vertex(ntd, g, rng))]
        for case in cases:
            got, want = validate(g, case), _validate_scan(g, case)
            assert (got.ok, got.reason) == (want.ok, want.reason)
            reasons.add(got.reason.split(":")[0])
    # the corruptions reach every condition
    assert {"", "tree structure invalid", "condition (i) failed",
            "condition (ii) failed", "condition (iii) failed"} <= reasons


def _split_vertex(td, rng):
    """td with one tree edge subdivided by a bag that drops a vertex both
    ends hold, so that vertex spans two pieces; None if no edge allows it."""
    spans = sorted((a, b, x) for a, b in td.tree_edges
                   for x in td.bags[a] & td.bags[b])
    if not spans:
        return None
    a, b, x = rng.choice(spans)
    mid = len(td.bags)
    edges = (td.tree_edges - {(a, b)}) | {(a, mid), (b, mid)}
    return TreeDecomposition(td.bags + ((td.bags[a] & td.bags[b]) - {x},),
                             frozenset(edges))


def _with_edge_in_no_bag(g, bags, rng):
    """g plus an edge between two vertices that share no bag, or None."""
    pairs = [(u, v) for u in g.sorted_vertices() for v in g.sorted_vertices()
             if u < v and not any(u in b and v in b for b in bags)]
    if not pairs:
        return None
    return Graph(g.vertices, list(g.edges()) + [rng.choice(pairs)])


def test_nice_validate_matches_scan_on_failed_conditions():
    # well-shaped nice decompositions that each break (i), (ii) or (iii),
    # alone and together, so the reported condition follows the scan order
    rng = random.Random(9191)
    reasons = set()
    for trial in range(200):
        g = random_planar_graph(rng.randint(4, 30), rng, rng.choice((0.5, 1.0)))
        td = decompose(g)
        split = _split_vertex(td, rng)
        extra = max(g.vertices) + 1
        cases = [(g, to_nice(td)),
                 (Graph(g.vertices | {extra}, g.edges()), to_nice(td)),
                 (g.subgraph(sorted(g.vertices)[1:]), to_nice(td))]
        wider = _with_edge_in_no_bag(g, td.bags, rng)
        if wider is not None:
            cases.append((wider, to_nice(td)))
        if split is not None:
            cases += [(g, to_nice(split)),
                      (Graph(g.vertices | {extra}, g.edges()), to_nice(split))]
            if wider is not None:
                cases.append((wider, to_nice(split)))
        for graph, ntd in cases:
            assert _nice_shape_scan(ntd)
            got, want = validate(graph, ntd), _validate_scan(graph, ntd)
            assert (got.ok, got.reason) == (want.ok, want.reason)
            reasons.add(got.reason.split(":")[0])
    assert {"", "condition (i) failed", "condition (ii) failed",
            "condition (iii) failed"} <= reasons


# -- DP set-up -----------------------------------------------------------------


def _per_node_scan(inst, ntd):
    """Each node's sorted index bag and incident-edge list, built from its
    own bag and a sort of all edges."""
    ids = inst.graph.sorted_vertices()
    idx = {v: i for i, v in enumerate(ids)}
    eno = {(idx[a], idx[b]): i for i, (a, b) in enumerate(sorted(inst.graph.edges()))}
    bag_idx, incident = [], []
    for node in range(len(ntd)):
        bag = tuple(sorted(idx[v] for v in ntd.bags[node]))
        bag_idx.append(bag)
        inc = []
        if ntd.kinds[node] in (INTRODUCE, FORGET):
            v = idx[ntd.vertex[node]]
            others = bag if ntd.kinds[node] == INTRODUCE else \
                bag_idx[ntd.children[node][0]]
            for u in others:
                if u != v and inst.graph.has_edge(ids[u], ids[v]):
                    inc.append((eno[(min(u, v), max(u, v))], u, 1 << u))
        incident.append(inc)
    return bag_idx, incident


def test_prepare_matches_per_node_scan():
    rng = random.Random(62_000)
    corpus = random_corpus(60, 61_000, n_hi=12) + [
        generate_random_planar_instance(
            rng.randint(20, 80), rng.randint(0, 2), rng.randint(0, 2), 4,
            variant, seed=62_000 + i, raw=i % 3 == 0)
        for i, variant in enumerate([PLAIN, CONNECTED] * 15)]
    joins = 0
    for inst in corpus:
        ntd = to_nice(decompose(inst.graph))
        ctx = _prepare(inst, ntd)
        assert ctx.edges == sorted(inst.graph.edges())
        assert (ctx.bag_idx, ctx.incident) == _per_node_scan(inst, ntd)
        joins += ntd.kinds.count("join")
    assert joins > 0
