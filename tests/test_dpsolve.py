import random

import pytest

from degedit.dpsolve import (PreparedSolve, process_node, solve_auto,
                             solve_dcpggd_tw, solve_dpggd_tw)
from degedit.instance import CONNECTED, PLAIN, check_solution, is_efficient
from degedit.oracle import brute_force_min_cost
from degedit.treewidth import JOIN, TreeDecomposition, decompose, to_nice

from conftest import cycle_instance, make_instance, path_instance, random_corpus


def test_triangle_zero_budgets():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    sol = solve_dpggd_tw(inst)
    assert sol is not None and sol.total_cost == 0
    assert sol.canonical() == ((), ())


def test_c4_plain_matching():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    sol = solve_dpggd_tw(inst)
    assert sol is not None and sol.total_cost == 2
    # lexicographically smallest of the two optimal matchings
    assert sol.canonical() == ((), ((1, 2), (3, 4)))


def test_p3_infeasible():
    inst = path_instance(3, 1, k_e=1, cost_budget=9)
    assert solve_dpggd_tw(inst) is None


def test_c4_connected_infeasible():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2, variant=CONNECTED)
    assert solve_dcpggd_tw(inst) is None


def test_triangle_connected_trivial():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2,
                         variant=CONNECTED)
    sol = solve_dcpggd_tw(inst)
    assert sol is not None and sol.canonical() == ((), ())


def test_p3_connected_delete_everything():
    inst = path_instance(3, 0, k_v=3, cost_budget=0, variant=CONNECTED,
                         cost_v={1: 0, 2: 0, 3: 0},
                         cost_e={(1, 2): 0, (2, 3): 0})
    sol = solve_dcpggd_tw(inst)
    assert sol is not None
    assert check_solution(inst, sol).ok
    # deleting the whole path (empty graph counts as connected) is among
    # the optima; the DP may return a lexicographically smaller tie
    rep = brute_force_min_cost(inst)
    assert ((1, 2, 3), ()) in {s.canonical() for s in rep.optima}


def test_variant_and_window_guards():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    with pytest.raises(ValueError, match="variant"):
        solve_dcpggd_tw(inst)
    bad = path_instance(3, 2)  # endpoints cannot reach target 2
    with pytest.raises(ValueError, match="window"):
        solve_dpggd_tw(bad)
    assert solve_dpggd_tw(bad, enforce_window=False) is None


def test_solve_auto_rejects_decomposition_missing_an_edge():
    # a tree-shaped decomposition of the path 1-2-3 with no bag for edge 2-3:
    # to_nice accepts its shape, the DP must refuse to read it
    inst = path_instance(3, 1, k_e=1, cost_budget=9)
    td = TreeDecomposition((frozenset({1, 2}), frozenset({3})),
                           frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="invalid decomposition"):
        solve_auto(inst, to_nice(td), enforce_window=False)


def _ntd(inst):
    return to_nice(decompose(inst.graph), inst.graph)


def test_process_node_leaf_shape():
    inst = make_instance([1, 2], [(1, 2)], 1, k_v=1, k_e=1, cost_budget=2)
    ps = PreparedSolve(inst)
    leaf_table = process_node(ps.ctx, 0, [])
    # nothing but the empty, unspent key is representable at a leaf
    assert leaf_table == {(0, 0, (), 0, 0): (0, 0, 0)}


def test_process_node_introduce_charges_edge_budget():
    # introduce v=2 into bag {1} with edge (1,2) present and 1 kept:
    # the branch deleting the edge must book its weight
    inst = make_instance([1, 2], [(1, 2)], 0, k_v=0, k_e=1, cost_budget=5)
    ps = PreparedSolve(inst)
    ntd = ps.ctx.ntd
    intro_nodes = [i for i, k in enumerate(ntd.kinds) if k == "introduce"]
    second = intro_nodes[1]
    tables = []
    for node in range(second + 1):
        kids = [tables[c] for c in ntd.children[node]]
        tables.append(process_node(ps.ctx, node, kids))
    table = tables[second]
    edge_bit_keys = [k for k in table if k[1] != 0]
    assert edge_bit_keys, "no entry deleted the bag edge"
    for k in edge_bit_keys:
        assert k[4] == inst.weight_e[(1, 2)]  # spent edge weight


def test_dp_matches_oracle_small_corpus():
    mism = []
    for inst in random_corpus(150, 77_000, n_hi=9):
        if not inst.in_degree_window():
            continue
        rep = brute_force_min_cost(inst)
        sol = solve_auto(inst)
        if rep.feasible != (sol is not None):
            mism.append((inst, rep.feasible, sol))
        elif rep.feasible and rep.min_cost != sol.total_cost:
            mism.append((inst, rep.min_cost, sol.total_cost))
        if sol is not None:
            assert check_solution(inst, sol).ok
            assert is_efficient(inst, sol)
    assert not mism, mism[:3]


def test_dp_handles_joins():
    # branching tree forces join nodes into the decomposition
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    inst = make_instance(range(1, 8), edges,
                         {1: 2, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1},
                         k_v=0, k_e=0, cost_budget=0)
    ntd = _ntd(inst)
    assert JOIN in ntd.kinds
    sol = solve_dpggd_tw(inst, ntd)
    assert sol is not None and sol.canonical() == ((), ())


def test_determinism_same_solution_twice():
    for inst in random_corpus(25, 88_000, n_hi=8):
        if not inst.in_degree_window():
            continue
        ntd = _ntd(inst)
        a = solve_auto(inst, ntd)
        b = solve_auto(inst, ntd)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.canonical() == b.canonical()


def test_budget_slices_match_direct_solves():
    # one prepared run answers every smaller budget pair exactly, down to
    # the chosen solution: candidate sets solve each configuration once
    corpus = (random_corpus(200, 99_000, n_hi=8, variants=(PLAIN,))
              + random_corpus(200, 99_000, n_hi=8, variants=(CONNECTED,)))
    for inst in corpus:
        if not inst.in_degree_window():
            continue
        ps = PreparedSolve(inst)
        for h_v in range(inst.k_v + 1):
            for h_e in range(inst.k_e + 1):
                smaller = make_instance(
                    inst.graph.sorted_vertices(), inst.graph.edges(),
                    dict(inst.delta), h_v, h_e, inst.cost_budget, inst.variant,
                    weight_v=dict(inst.weight_v), weight_e=dict(inst.weight_e),
                    cost_v=dict(inst.cost_v), cost_e=dict(inst.cost_e))
                direct = solve_auto(smaller, enforce_window=False)
                sliced = ps.solve(h_v, h_e)
                assert (direct is None) == (sliced is None)
                if direct is not None:
                    assert direct.canonical() == sliced.canonical()
                    assert direct.total_cost == sliced.total_cost
