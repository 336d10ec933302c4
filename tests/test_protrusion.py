import random

import pytest

from degedit.generator import random_planar_graph
from degedit.graph import Graph
from degedit.normalize import NORMALIZED, normalize
from degedit.oracle import brute_force_min_cost
from degedit.protrusion import (ProtrusionDecomposition,
                                build_protrusion_decomposition,
                                greedy_2_dominating_set, is_r_dominating,
                                validate_protrusion_decomposition)

from conftest import random_corpus


def path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def grid(rows, cols):
    def vid(r, c):
        return r * cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(1, rows * cols + 1), edges)


def test_greedy_p5_center():
    g = path(5)
    dom = greedy_2_dominating_set(g)
    assert dom == {3}  # its distance-2 ball covers all five vertices


def test_greedy_two_triangles():
    g = Graph(range(1, 7), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    dom = greedy_2_dominating_set(g)
    assert len(dom) == 2
    assert is_r_dominating(g, dom, 2)


def test_greedy_grid5():
    g = grid(5, 5)
    dom = greedy_2_dominating_set(g)
    assert is_r_dominating(g, dom, 2)
    assert len(dom) <= 4
    assert greedy_2_dominating_set(Graph()) == frozenset()


def test_build_star_collapses_cleanly():
    g = Graph(range(0, 8), [(0, i) for i in range(1, 8)])
    pd = build_protrusion_decomposition(g, [0], r=2)
    assert validate_protrusion_decomposition(g, pd)
    # the centre has no neighbour outside the single part's closed
    # neighbourhood, so it migrates into the part
    assert pd.p == 1
    assert pd.parts[0].width <= 1


def test_build_trivial_when_domset_everything():
    g = path(4)
    pd = build_protrusion_decomposition(g, g.vertices, r=2)
    assert pd.p == 0
    assert pd.r0 == g.vertices
    assert validate_protrusion_decomposition(g, pd)
    trivial = ProtrusionDecomposition(g.vertices, (), 3, certified=g.n <= 3)
    assert validate_protrusion_decomposition(g, trivial)


def test_build_p9_path_parts():
    g = path(9)
    pd = build_protrusion_decomposition(g, [5], r=4)
    assert validate_protrusion_decomposition(g, pd)
    assert all(p.width <= 1 for p in pd.parts)
    covered = set(pd.r0)
    for p in pd.parts:
        covered |= p.vertices
    assert covered == set(g.vertices)


def test_build_rejects_non_dominating():
    g = path(9)
    with pytest.raises(ValueError, match="dominating"):
        build_protrusion_decomposition(g, [1], r=2)


def test_boundary_cap_merges_into_core():
    # a component adjacent to three core vertices gets absorbed at cap 2
    g = Graph(range(1, 8), [(1, 4), (2, 4), (3, 4), (1, 5), (2, 6), (3, 7)])
    dom = [1, 2, 3]
    assert is_r_dominating(g, dom, 2)
    capped = build_protrusion_decomposition(g, dom, r=2, boundary_cap=2)
    assert validate_protrusion_decomposition(g, capped)
    assert all(len(p.boundary) <= 2 for p in capped.parts)
    assert 4 in capped.r0


def test_validator_flags_bad_partition():
    g = path(4)
    pd = build_protrusion_decomposition(g, g.vertices, r=2)
    from dataclasses import replace
    broken = replace(pd, r0=pd.r0 - {1})
    verdict = validate_protrusion_decomposition(g, broken)
    assert not verdict and "partition" in verdict.reason


def test_random_decompositions_validate(rng):
    for trial in range(80):
        g = random_planar_graph(rng.randint(1, 11), rng)
        dom = greedy_2_dominating_set(g)
        pd = build_protrusion_decomposition(g, dom, r=2,
                                            boundary_cap=rng.choice((None, 2, 3)))
        assert validate_protrusion_decomposition(g, pd), (g.edge_set(), pd)


def test_solution_footprint_two_dominates_normalized_yes_instances():
    # on every normalized yes-instance the deleted vertices plus deleted-edge
    # endpoints must reach everything within distance two
    checked = 0
    for inst in random_corpus(450, 41_000, n_hi=10):
        out = normalize(inst)
        if out.kind != NORMALIZED:
            continue
        rep = brute_force_min_cost(out.instance)
        if not rep.feasible:
            continue
        g = out.instance.graph
        for sol in rep.optima[:5]:
            w = set(sol.deleted_vertices)
            for a, b in sol.deleted_edges:
                w |= {a, b}
            assert g.ball(w, 2) == g.vertices, (g.edge_set(), sol)
            checked += 1
    assert checked >= 40
