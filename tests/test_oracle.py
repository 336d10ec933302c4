import random

import pytest

from degedit import cli
from degedit.dpsolve import active_region
from degedit.errors import CapacityError
from degedit.generator import generate_random_planar_instance
from degedit.graph import edge_key
from degedit.instance import CONNECTED, PLAIN, Solution, check_solution, is_efficient
from degedit.oracle import (brute_force_min_cost, candidate_pairs,
                            equivalence_check, fits_oracle)

from conftest import cycle_instance, make_instance, path_instance, random_corpus


def test_triangle_trivial_yes():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    rep = brute_force_min_cost(inst)
    assert rep.feasible and rep.min_cost == 0
    assert [s.canonical() for s in rep.optima] == [((), ())]


def test_c4_plain_two_matchings():
    # Hand-enumerated over C4's 16 edge subsets: exactly the two perfect
    # matchings fix all degrees at 1 within the budgets.
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    rep = brute_force_min_cost(inst)
    assert rep.feasible and rep.min_cost == 2
    assert [s.canonical() for s in rep.optima] == [
        ((), ((1, 2), (3, 4))), ((), ((1, 4), (2, 3)))]
    assert not rep.truncated


def test_c4_connected_infeasible():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2, variant=CONNECTED)
    rep = brute_force_min_cost(inst)
    assert not rep.feasible and rep.min_cost is None


def test_p3_connected_full_deletion():
    inst = path_instance(3, 0, k_v=3, cost_budget=9, variant=CONNECTED,
                         cost_v={1: 0, 2: 0, 3: 0},
                         cost_e={(1, 2): 0, (2, 3): 0})
    rep = brute_force_min_cost(inst)
    assert rep.feasible
    assert {tuple(sorted(s.deleted_vertices)) for s in rep.optima} >= {(1, 2, 3)}


def test_optima_all_valid_and_efficient(rng):
    for seed in range(60):
        inst = generate_random_planar_instance(
            rng.randint(2, 8), rng.randint(0, 2), rng.randint(0, 2),
            rng.randint(0, 5), rng.choice((PLAIN, CONNECTED)), seed=seed)
        rep = brute_force_min_cost(inst)
        for sol in rep.optima:
            assert check_solution(inst, sol).ok
            assert is_efficient(inst, sol)
            assert sol.total_cost == rep.min_cost


def test_efficiency_closure(rng):
    # Dropping U-incident edges from any valid solution keeps it valid and
    # never raises cost, so restricting the search to efficient pairs is
    # lossless.
    for seed in range(40):
        inst = generate_random_planar_instance(
            rng.randint(2, 7), 2, 2, 6, PLAIN, seed=1000 + seed)
        rep = brute_force_min_cost(inst)
        if not rep.feasible or not rep.optima[0].deleted_vertices:
            continue
        best = rep.optima[0]
        v = next(iter(best.deleted_vertices))
        for extra in [edge_key(v, u) for u in sorted(inst.graph.neighbors(v))]:
            padded = Solution.of(inst, best.deleted_vertices,
                                 set(best.deleted_edges) | {extra})
            if inst.edge_weight(padded.deleted_edges) > inst.k_e \
                    or padded.total_cost > inst.cost_budget:
                continue
            assert check_solution(inst, padded).ok
            assert padded.total_cost >= best.total_cost


def test_isomorphism_invariance(rng):
    for seed in range(25):
        inst = generate_random_planar_instance(
            rng.randint(2, 8), 1, 2, 5, PLAIN, seed=2000 + seed)
        perm = {v: i + 101 for i, v in enumerate(inst.graph.sorted_vertices())}
        rng.shuffle(order := list(perm))
        g2_edges = [(perm[a], perm[b]) for a, b in inst.graph.edges()]
        relabeled = make_instance(
            perm.values(), g2_edges,
            {perm[v]: inst.delta[v] for v in perm},
            inst.k_v, inst.k_e, inst.cost_budget, inst.variant,
            weight_v={perm[v]: inst.weight_v[v] for v in perm},
            weight_e={tuple(sorted((perm[a], perm[b]))): inst.weight_e[(a, b)]
                      for a, b in inst.graph.edges()},
            cost_v={perm[v]: inst.cost_v[v] for v in perm},
            cost_e={tuple(sorted((perm[a], perm[b]))): inst.cost_e[(a, b)]
                    for a, b in inst.graph.edges()})
        a, b = brute_force_min_cost(inst), brute_force_min_cost(relabeled)
        assert a.feasible == b.feasible
        assert a.min_cost == b.min_cost
        assert len(a.optima) == len(b.optima)


def test_caps_enforced():
    inst = generate_random_planar_instance(13, 1, 1, 3, PLAIN, seed=7,
                                           keep_prob=0.3)
    with pytest.raises(CapacityError):
        brute_force_min_cost(inst, vertex_cap=12)
    # generous caps allow it
    rep = brute_force_min_cost(inst, vertex_cap=20, edge_cap=40)
    assert isinstance(rep.feasible, bool)


def test_equivalence_check_reflexive():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    assert equivalence_check(inst, inst)


def test_optima_truncation_flag():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    rep = brute_force_min_cost(inst, optima_cap=1)
    assert rep.feasible and rep.truncated
    assert len(rep.optima) == 1


# -- the fit test: which inputs the oracle answers for solve --method auto -----


FIT_CORPUS = (random_corpus(150, 71_000, n_hi=12)
              + random_corpus(150, 72_000, n_hi=12, raw=True)
              + random_corpus(60, 73_000, n_lo=9, n_hi=12, k_sum_max=6))


def test_candidate_pairs_bound_the_search():
    for inst in FIT_CORPUS:
        assert candidate_pairs(inst) >= brute_force_min_cost(inst).search_space, inst


def test_candidate_pairs_by_hand():
    # the triangle at zero budgets: only the empty pair
    triangle = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    assert candidate_pairs(triangle) == 1
    # C4 with k_e = 2: no vertex set, and 1 + 4 + 6 edge sets of at most 2
    assert candidate_pairs(cycle_instance(4, 1, k_e=2)) == 11
    # P3 with k_v = 5 > n and k_e = 4 > m: all 8 vertex sets, all 4 edge sets
    assert candidate_pairs(path_instance(3, 1, k_v=5, k_e=4)) == 32


def test_fits_oracle_at_each_bound():
    cycle = [(i, i + 1) for i in range(1, 12)] + [(1, 12)]
    # 12 vertices and 18 edges, the cycle plus six chords, fit; a 19th does not
    for last, fits in ((8, True), (9, False)):
        chords = [(1, k) for k in range(3, last + 1)]
        assert fits_oracle(make_instance(range(1, 13), cycle + chords, 1)) == fits
    assert not fits_oracle(path_instance(13, 1))
    # 2^12 = 4,096 pairs fit, 2^12 * (1 + 11) = 49,152 do not
    assert fits_oracle(path_instance(12, 1, k_v=12))
    assert not fits_oracle(path_instance(12, 1, k_v=12, k_e=1))


def test_a_region_that_fits_is_never_truncated():
    fitting = 0
    above_caps = [generate_random_planar_instance(
        14 + s % 17, s % 3, s % 4, 6, (PLAIN, CONNECTED)[s % 2], seed=74_000 + s)
        for s in range(60)]
    for inst in FIT_CORPUS + above_caps:
        region = active_region(inst)
        if region is None or not fits_oracle(region):
            continue
        fitting += 1
        rep = brute_force_min_cost(region)
        assert not rep.truncated and len(rep.optima) <= candidate_pairs(region)
    assert fitting >= 200, fitting


def test_solve_auto_refuses_a_truncated_report(monkeypatch):
    # C4 at these budgets has two optima; a report cut at one is not used
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    assert fits_oracle(active_region(inst))
    monkeypatch.setattr(cli, "brute_force_min_cost",
                        lambda region: brute_force_min_cost(region, optima_cap=1))
    with pytest.raises(RuntimeError, match="truncated"):
        cli._solve_with(inst, "auto", cli.DEFAULT_WIDTH_CAP)
