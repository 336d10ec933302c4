import hashlib
import random

import pytest

from degedit.dpsolve import (PreparedSolve, _guard, _key_bound, _prepare,
                             active_region, best_within, process_node,
                             solve_auto)
from degedit.generator import generate_random_planar_instance
from degedit.instance import CONNECTED, PLAIN, check_solution, is_efficient
from degedit.io import format_solution
from degedit.oracle import brute_force_min_cost
from degedit.treewidth import (JOIN, NiceTreeDecomposition, TreeDecomposition,
                               decompose, to_nice)

from conftest import (cycle_instance, make_instance, path_instance,
                      pick_within, random_corpus)


def test_triangle_zero_budgets():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    sol = solve_auto(inst)
    assert sol is not None and sol.total_cost == 0
    assert sol.canonical() == ((), ())


def test_c4_plain_matching():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    sol = solve_auto(inst)
    assert sol is not None and sol.total_cost == 2
    # lexicographically smallest of the two optimal matchings
    assert sol.canonical() == ((), ((1, 2), (3, 4)))


def test_p3_infeasible():
    inst = path_instance(3, 1, k_e=1, cost_budget=9)
    assert solve_auto(inst) is None


def test_c4_connected_infeasible():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2, variant=CONNECTED)
    assert solve_auto(inst) is None


def test_triangle_connected_trivial():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2,
                         variant=CONNECTED)
    sol = solve_auto(inst)
    assert sol is not None and sol.canonical() == ((), ())


def test_p3_connected_delete_everything():
    inst = path_instance(3, 0, k_v=3, cost_budget=0, variant=CONNECTED,
                         cost_v={1: 0, 2: 0, 3: 0},
                         cost_e={(1, 2): 0, (2, 3): 0})
    sol = solve_auto(inst)
    assert sol is not None
    assert check_solution(inst, sol).ok
    # deleting the whole path (empty graph counts as connected) is among
    # the optima; the DP may return a lexicographically smaller tie
    rep = brute_force_min_cost(inst)
    assert ((1, 2, 3), ()) in {s.canonical() for s in rep.optima}


def test_out_of_window_input():
    # endpoints cannot reach target 2: outside the degree window the DP
    # still answers, here with no solution
    bad = path_instance(3, 2)
    assert not bad.in_degree_window()
    assert solve_auto(bad) is None


def test_solve_auto_rejects_decomposition_missing_an_edge():
    # a tree-shaped decomposition of the path 1-2-3 with no bag for edge 2-3:
    # to_nice accepts its shape, the DP must refuse to read it
    inst = path_instance(3, 1, k_e=1, cost_budget=9)
    td = TreeDecomposition((frozenset({1, 2}), frozenset({3})),
                           frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="invalid decomposition"):
        solve_auto(inst, to_nice(td))


def _ntd(inst):
    return to_nice(decompose(inst.graph))


def test_solve_auto_validates_the_decomposition_it_builds_once(monkeypatch):
    # with no decomposition given, the one it builds is checked once, in
    # the nice form the DP reads
    import degedit.dpsolve
    import degedit.treewidth
    calls = []
    original = degedit.treewidth.validate

    def counting(g, td):
        calls.append(td)
        return original(g, td)

    monkeypatch.setattr(degedit.treewidth, "validate", counting)
    monkeypatch.setattr(degedit.dpsolve, "validate", counting)
    inst = cycle_instance(5, 1, k_e=2, cost_budget=3)
    solve_auto(inst)
    assert [type(td) for td in calls] == [NiceTreeDecomposition]


def test_process_node_leaf_shape():
    inst = make_instance([1, 2], [(1, 2)], 1, k_v=1, k_e=1, cost_budget=2)
    ps = PreparedSolve(inst, _ntd(inst))
    leaf_table = process_node(ps.ctx, 0, [])
    # nothing but the empty, unspent key is representable at a leaf
    assert leaf_table == {(0, 0, (), 0, 0): (0, 0, 0)}


def test_process_node_introduce_charges_edge_budget():
    # introduce v=2 into bag {1} with edge (1,2) present and 1 kept:
    # the branch deleting the edge must book its weight
    inst = make_instance([1, 2], [(1, 2)], 0, k_v=0, k_e=1, cost_budget=5)
    ps = PreparedSolve(inst, _ntd(inst))
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


def _oracle_mismatches(corpus):
    mism = []
    for inst in corpus:
        rep = brute_force_min_cost(inst)
        sol = solve_auto(inst)
        if rep.feasible != (sol is not None):
            mism.append((inst, rep.feasible, sol))
        elif rep.feasible and rep.min_cost != sol.total_cost:
            mism.append((inst, rep.min_cost, sol.total_cost))
        if sol is not None:
            assert check_solution(inst, sol).ok
            assert is_efficient(inst, sol)
    return mism


def test_dp_matches_oracle_small_corpus():
    corpus = [inst for inst in random_corpus(150, 77_000, n_hi=9)
              if inst.in_degree_window()]
    mism = _oracle_mismatches(corpus)
    assert not mism, mism[:3]


def _over_cap(inst):
    # a vertex whose target exceeds its degree can only be deleted
    return any(inst.delta[v] > inst.graph.degree(v) for v in inst.graph.vertices)


def test_dp_matches_oracle_on_raw_targets():
    # the CLI's path: targets outside the degree window go straight to the DP
    corpus = random_corpus(400, 78_000, n_hi=10, raw=True)
    for variant in (PLAIN, CONNECTED):
        assert any(inst.variant == variant and _over_cap(inst)
                   for inst in corpus)
    mism = _oracle_mismatches(corpus)
    assert not mism, mism[:3]


def test_key_loss_matches_recount_within_cap():
    # the third key field is each kept bag vertex's total loss so far; it
    # must agree with the entry's own deletions and never pass the cap
    corpus = (random_corpus(60, 79_000, n_hi=12, raw=True)
              + random_corpus(60, 80_000, n_hi=12))
    lossy = 0
    for inst in corpus:
        ctx = PreparedSolve(inst, _ntd(inst)).ctx
        ends = [(ctx.idx[a], ctx.idx[b]) for a, b in ctx.edges]
        cap = [min(inst.k_v + inst.k_e, inst.graph.degree(v) - inst.delta[v])
               for v in ctx.ids]
        tables = []
        for node in range(len(ctx.ntd)):
            table = process_node(
                ctx, node, [tables[c] for c in ctx.ntd.children[node]])
            tables.append(table)
            bag = ctx.bag_idx[node]
            for key, (_cost, u_mask, d_mask) in table.items():
                assert key[0] == sum(u_mask & (1 << i) for i in bag)
                kept = [i for i in bag if not (key[0] >> i) & 1]
                recount = tuple(
                    (ctx.adj[i] & u_mask).bit_count()
                    + sum(1 for j, e in enumerate(ends)
                          if (d_mask >> j) & 1 and i in e)
                    for i in kept)
                assert key[2] == recount, (inst, node, key)
                assert all(lost <= cap[i] for lost, i in zip(recount, kept))
                lossy += any(recount)
    assert lossy > 0


class _Sized:
    """Stands in for a table of n keys: the guard reads only its size."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def test_guard_raises_exactly_past_the_key_bound():
    corpus = (random_corpus(40, 81_000, n_hi=12, variants=(PLAIN,))
              + random_corpus(40, 81_000, n_hi=12, variants=(CONNECTED,)))
    for inst in corpus:
        ctx = _prepare(inst, _ntd(inst))
        for node, bag in enumerate(ctx.bag_idx):
            bound = _key_bound(ctx, bag)
            _guard(ctx, node, _Sized(bound))
            with pytest.raises(RuntimeError, match=f"bound {bound}$"):
                _guard(ctx, node, _Sized(bound + 1))


def test_dp_handles_joins():
    # branching tree forces join nodes into the decomposition
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    inst = make_instance(range(1, 8), edges,
                         {1: 2, 2: 3, 3: 3, 4: 1, 5: 1, 6: 1, 7: 1},
                         k_v=0, k_e=0, cost_budget=0)
    ntd = _ntd(inst)
    assert JOIN in ntd.kinds
    sol = solve_auto(inst, ntd)
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
        ps = PreparedSolve(inst, _ntd(inst))
        for h_v in range(inst.k_v + 1):
            for h_e in range(inst.k_e + 1):
                smaller = make_instance(
                    inst.graph.sorted_vertices(), inst.graph.edges(),
                    dict(inst.delta), h_v, h_e, inst.cost_budget, inst.variant,
                    weight_v=dict(inst.weight_v), weight_e=dict(inst.weight_e),
                    cost_v=dict(inst.cost_v), cost_e=dict(inst.cost_e))
                direct = solve_auto(smaller)
                sliced = best_within(ps.ctx, ps.answers.get((), ()), h_v, h_e)
                assert (direct is None) == (sliced is None)
                if direct is not None:
                    assert direct.canonical() == sliced.canonical()
                    assert direct.total_cost == sliced.total_cost


def _planted(seed):
    """Instance of 40-120 vertices on a stacked triangulation (treewidth at
    most 3): survivors of a random deletion pair get their degree after it
    as target (zero slack), up to two targets are nudged off by one, and
    deleted vertices get arbitrary targets, some above their degree.  The
    cost budget covers the pair."""
    rng = random.Random(seed)
    n = rng.randint(40, 120)
    variant = rng.choice((PLAIN, CONNECTED))
    faces, edges = [(1, 2, 3)], {(1, 2), (1, 3), (2, 3)}
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
        edges |= {(a, v), (b, v), (c, v)}
    edges = sorted(edges)
    if variant == PLAIN:
        edges = [e for e in edges if rng.random() < 0.7]
    k_v, k_e = rng.randint(0, 2), rng.randint(0, 2)
    weight_v = {v: rng.choice((1, 1, 2)) for v in range(1, n + 1)}
    weight_e = {e: rng.choice((1, 1, 2)) for e in edges}
    gone = pick_within(range(1, n + 1), weight_v, k_v, rng)
    live = [e for e in edges if not gone & set(e)]
    cut = pick_within(live, weight_e, k_e, rng)
    deg = {v: 0 for v in range(1, n + 1)}
    for a, b in live:
        if (a, b) not in cut:
            deg[a] += 1
            deg[b] += 1
    delta = dict(deg)
    for v in gone:
        delta[v] = rng.randint(0, deg[v] + 3)
    for v in rng.sample(range(1, n + 1), rng.randint(0, 2)):
        delta[v] = max(0, delta[v] + rng.choice((-1, 1)))
    cost_v = {v: rng.randint(0, 2) for v in range(1, n + 1)}
    cost_e = {e: rng.randint(0, 2) for e in edges}
    planted_cost = sum(cost_v[v] for v in gone) + sum(cost_e[e] for e in cut)
    return make_instance(
        range(1, n + 1), edges, delta, k_v, k_e,
        planted_cost + rng.randint(0, 2), variant,
        weight_v=weight_v, weight_e=weight_e, cost_v=cost_v, cost_e=cost_e)


def planted_outputs():
    return "".join(format_solution(solve_auto(_planted(606_000 + i)))
                   for i in range(60))


# sha256 of planted_outputs() taken from the damage-from-below DP, before
# its keys carried total loss: the loss keys must choose the same solutions
PLANTED_DIGEST = (
    "65037d57de9fd1e6b431ea21f36a7de75f689b94d6ebbd1e22ce650b2d0a310b")


def test_planted_outputs_match_pinned_digest():
    text = planted_outputs()
    assert text.count("s yes") >= 20 and text.count("s no") >= 10
    assert hashlib.sha256(text.encode()).hexdigest() == PLANTED_DIGEST


# -- the active region ---------------------------------------------------------


def _region_kind(inst):
    """How the region path answers inst, after checking it prints exactly
    what the full-graph DP prints."""
    region = active_region(inst)
    full = format_solution(PreparedSolve(inst, _ntd(inst)).solve())
    assert format_solution(solve_auto(inst)) == full, inst
    if region is None:
        return "no"
    if region is inst:
        return "whole"
    assert list(region.graph.edge_set()) == list(frozenset(region.graph.edges()))
    top = max(inst.graph.vertices)
    rigid = sum(1 for v in region.graph.vertices if v > top)
    if region.graph.n == inst.graph.n:
        return "reweighted"
    return "split" if rigid >= 2 else "shrunk"


def test_region_matches_full_dp_on_planted():
    kinds = {(inst.variant, _region_kind(inst)) for inst in
             (_planted(606_000 + i) for i in range(60))}
    # every planted region that does not decide is strictly smaller
    assert {k for _, k in kinds} == {"no", "shrunk", "split"}
    assert {v for v, _ in kinds} == {PLAIN, CONNECTED}


def test_region_matches_full_dp_on_generated():
    rng = random.Random(83_000)
    kinds = set()
    for i in range(300):
        k_v = rng.randint(0, 3)
        inst = generate_random_planar_instance(
            rng.randint(1, 30), k_v, rng.randint(0, 3 - k_v), rng.randint(0, 6),
            rng.choice((PLAIN, CONNECTED)), seed=83_000 + i, raw=i % 2 == 0)
        kinds.add((inst.variant, _region_kind(inst)))
    for variant in (PLAIN, CONNECTED):
        for kind in ("no", "whole", "reweighted", "shrunk", "split"):
            assert (variant, kind) in kinds


def test_region_proves_no_below_target_outside_x():
    # 5 sits below its target; deleting it would take its neighbour 1
    # (at target) too, past k_v = 1, so 5 is outside X
    inst = make_instance(range(1, 6), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)],
                         {1: 3, 2: 2, 3: 2, 4: 2, 5: 2}, k_v=1, k_e=1,
                         cost_budget=9)
    assert active_region(inst) is None
    assert PreparedSolve(inst, _ntd(inst)).solve() is None
    assert solve_auto(inst) is None


def test_region_keeps_rest_components_apart():
    # two triangles at target hang off the path 4-5, which may drop its
    # middle edge: fine for the plain variant, but it cuts the connected
    # survivor in two, so each triangle must stay a vertex of its own
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
             (6, 7), (6, 8), (7, 8)]
    delta = {1: 2, 2: 2, 3: 3, 4: 1, 5: 1, 6: 3, 7: 2, 8: 2}
    for variant, answer in ((PLAIN, "s yes\nc 1\nd\nr 4-5\n"),
                            (CONNECTED, "s no\n")):
        inst = make_instance(range(1, 9), edges, delta, k_v=1, k_e=1,
                             cost_budget=1, variant=variant)
        region = active_region(inst)
        assert region.graph.sorted_vertices() == [4, 5, 9, 10]
        assert _region_kind(inst) == "split"
        assert format_solution(solve_auto(inst)) == answer


def test_region_with_no_active_vertex():
    # two triangles at target: nothing can move unless k_v covers a triangle
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    answers = {(PLAIN, 0): "s yes\nc 0\nd\nr\n", (CONNECTED, 0): "s no\n",
               (CONNECTED, 3): "s yes\nc 3\nd 1 2 3\nr\n"}
    for (variant, k_v), answer in answers.items():
        inst = make_instance(range(1, 7), edges, 2, k_v=k_v, cost_budget=3,
                             variant=variant)
        assert _region_kind(inst) == ("whole" if k_v else "split")
        assert format_solution(solve_auto(inst)) == answer
