import random
from math import comb

import pytest

from degedit import cli
from degedit.dpsolve import active_region
from degedit.errors import CapacityError
from degedit.generator import generate_random_planar_instance
from degedit.graph import edge_key
from degedit.instance import CONNECTED, PLAIN, Solution, check_solution, is_efficient
from degedit.io import write_instance
from degedit.oracle import (brute_force_min_cost, candidate_pairs,
                            equivalence_check, fits_oracle)

import reference_oracle as reference
from conftest import (cycle_instance, make_instance, path_instance, planted_yes,
                      random_corpus)


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
    # the triangle at zero budgets: no vertex of weight <= 0, so only the
    # empty U, and s = 0 examines the empty D alone: 1 * 1
    triangle = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    assert candidate_pairs(triangle) == 1
    # C4 with k_v = 0, k_e = 2: the empty U; s = 1 draws from
    # min(4, C(2, 2)) = 1 edge, C(1, 1) = 1, and s = 2 from
    # min(4, C(4, 2)) = 4 edges, C(4, 2) = 6: 1 * max(1, 1, 6) = 6
    assert candidate_pairs(cycle_instance(4, 1, k_e=2)) == 6
    # P3 with k_v = 5 > n, k_e = 4 > m: all C(3, 0..3) = 8 vertex sets;
    # s = 1 gives C(min(2, 1), 1) = 1, s = 2 gives C(min(2, 6), 2) = 1,
    # s = 3 and 4 give C(2, s) = 0: 8 * max(1, 1, 1, 0, 0) = 8
    assert candidate_pairs(path_instance(3, 1, k_v=5, k_e=4)) == 8


@pytest.mark.parametrize("m", range(0, 41, 3))
def test_candidate_pairs_edge_factor_is_the_maximum_over_s(m):
    # the closed form takes s = min(k_e, ceil(m / 2)); the definition is
    # the maximum over every 1 <= s <= k_e
    g = random.Random(m)
    edges = set()
    while len(edges) < m:  # m edges of K_12, planarity not needed here
        a, b = sorted(g.sample(range(1, 13), 2))
        edges.add((a, b))
    for k_e in range(0, 30):
        inst = make_instance(range(1, 13), sorted(edges), 0, k_e=k_e)
        want = max([1] + [comb(min(m, comb(2 * s, 2)), s)
                          for s in range(1, k_e + 1)])
        assert candidate_pairs(inst) == want, (m, k_e)


def test_fits_oracle_at_each_bound():
    # a light vertex more doubles the vertex sets: 2^13 = 8,192 fit, and
    # 2^14 = 16,384 do not, at any size cap; k_e = 1 adds no pair on a
    # path (one edge among two vertices of excess 1), k_e = 2 does
    assert fits_oracle(path_instance(13, 1, k_v=13))
    assert fits_oracle(path_instance(13, 1, k_v=13, k_e=1))
    assert not fits_oracle(path_instance(13, 1, k_v=13, k_e=2))
    assert not fits_oracle(path_instance(14, 1, k_v=14))
    # a vertex heavier than k_v is never deleted, so it adds no vertex set
    heavy = path_instance(14, 1, k_v=13,
                          weight_v={v: 14 if v == 14 else 1 for v in range(1, 15)})
    assert candidate_pairs(heavy) == 2 ** 13 and fits_oracle(heavy)
    # far above 12 vertices and 18 edges: C(40, <= 2) = 821 vertex sets,
    # times 1 at k_e = 1 and C(6, 2) = 15 at k_e = 2
    assert candidate_pairs(path_instance(40, 1, k_v=2, k_e=1)) == 821
    assert fits_oracle(path_instance(40, 1, k_v=2, k_e=1))
    assert not fits_oracle(path_instance(40, 1, k_v=2, k_e=2))


def _as_auto(region, search=brute_force_min_cost):
    """The enumeration as ``solve --method auto`` calls it: no size cap."""
    return search(region, vertex_cap=region.graph.n, edge_cap=region.graph.m)


def test_a_region_that_fits_is_never_truncated():
    fitting = above_caps = over = 0
    larger = [generate_random_planar_instance(
        14 + s % 17, s % 3, s % 4, 6, (PLAIN, CONNECTED)[s % 2], seed=74_000 + s)
        for s in range(60)]
    for inst in FIT_CORPUS + larger:
        region = active_region(inst)
        if region is None:
            continue
        if not fits_oracle(region):
            over += 1
            continue
        fitting += 1
        above_caps += region.graph.n > 12 or region.graph.m > 18
        rep = _as_auto(region)
        assert not rep.truncated
        assert len(rep.optima) <= rep.search_space <= candidate_pairs(region)
    # regions on both sides of the bound, and fitting ones above 12 / 18
    assert fitting >= 200 and above_caps >= 20 and over >= 5, \
        (fitting, above_caps, over)


def test_solve_auto_refuses_a_truncated_report(monkeypatch):
    # C4 at these budgets has two optima; a report cut at one is not used
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    assert fits_oracle(active_region(inst))
    monkeypatch.setattr(cli, "brute_force_min_cost",
                        lambda region, **caps: brute_force_min_cost(
                            region, **caps, optima_cap=1))
    with pytest.raises(RuntimeError, match="truncated"):
        cli._solve_with(inst, "auto", cli.DEFAULT_WIDTH_CAP)


# -- differential: the search as it was, before U skipped heavy vertices ------


DIFF_CORPUS = (FIT_CORPUS + random_corpus(300, 81_000)
               + random_corpus(300, 82_000, raw=True))


def test_the_search_matches_the_reference_field_for_field():
    for inst in DIFF_CORPUS:
        assert brute_force_min_cost(inst) == reference.brute_force_min_cost(inst), \
            write_instance(inst)
    # a cut list keeps the same first optima, by size of U and then
    # lexicographically
    cut = 0
    for inst in DIFF_CORPUS:
        for cap in (1, 2):
            rep = brute_force_min_cost(inst, optima_cap=cap)
            assert rep == reference.brute_force_min_cost(inst, optima_cap=cap)
            cut += rep.truncated
    assert cut >= 20, cut


def test_the_search_matches_the_reference_on_regions_above_the_old_caps():
    # regions of planted instances with up to 40 vertices that fit the
    # bound, searched with the size caps lifted on both sides; the
    # reference visits every U of at most k_v vertices, so n stays small
    checked = 0
    for n in (40, 80, 150):
        for variant in (PLAIN, CONNECTED):
            for k_v, k_e in ((1, 1), (2, 2), (1, 3)):
                region = active_region(planted_yes(n, k_v, k_e, variant, 3))
                if region is None or not fits_oracle(region) \
                        or region.graph.n > 40:
                    continue
                checked += region.graph.n > 12
                assert _as_auto(region) == \
                    _as_auto(region, search=reference.brute_force_min_cost)
    assert checked >= 8, checked
