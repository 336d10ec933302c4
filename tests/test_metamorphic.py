"""Metamorphic relations: two runs on related inputs must agree, so these
checks need no reference solver and hold at any size.

Relabelling the vertex ids by a permutation keeps the optimum cost of
``solve_auto`` and the kernel's answer (``kernelize``, then ``solve_auto``
on a kernel).  An order-preserving relabelling onto spread-out ids maps the
printed solution exactly; contractions mint the largest id plus one, so it
also checks the minted ids of the rule log under non-contiguous ids.
"""

import random

import pytest

from degedit.dpsolve import solve_auto
from degedit.graph import Graph, edge_key
from degedit.instance import CONNECTED, PLAIN, Instance, Solution
from degedit.io import format_solution, write_instance
from degedit.kernelize import KERNEL, kernelize
from degedit.normalize import CONTRACTION, DECIDED_YES, normalize

from conftest import planted_yes, random_corpus


def relabel(inst, f):
    """``inst`` with every vertex id v renamed f[v]."""
    g = inst.graph
    edges = {e: edge_key(f[e[0]], f[e[1]]) for e in g.edges()}
    return Instance(
        Graph(sorted(f[v] for v in g.vertices), sorted(edges.values())),
        {f[v]: x for v, x in inst.delta.items()},
        {f[v]: x for v, x in inst.weight_v.items()},
        {edges[e]: x for e, x in inst.weight_e.items()},
        {f[v]: x for v, x in inst.cost_v.items()},
        {edges[e]: x for e, x in inst.cost_e.items()},
        inst.k_v, inst.k_e, inst.cost_budget, inst.variant)


def map_solution(inst, sol, f):
    return Solution.of(inst, (f[v] for v in sol.deleted_vertices),
                       (edge_key(f[a], f[b]) for a, b in sol.deleted_edges))


def kernel_answer(inst):
    res = kernelize(inst)
    if res.kind == KERNEL:
        return solve_auto(res.instance) is not None, res
    return res.kind == DECIDED_YES, res


def cost(sol):
    return None if sol is None else sol.total_cost


def _corpus():
    return (random_corpus(150, 71_000) + random_corpus(150, 72_000, raw=True)
            + [planted_yes(n, 2, 2, variant, seed) for n in (60, 150)
               for variant in (PLAIN, CONNECTED) for seed in (1, 2)])


@pytest.fixture(scope="module")
def runs():
    """(instance, optimum, kernel answer, kernelize result) per instance."""
    return [(inst, solve_auto(inst), *kernel_answer(inst)) for inst in _corpus()]


def test_a_permutation_of_ids_keeps_the_optimum_and_the_kernel_answer(runs):
    rng = random.Random(0x5EED)
    yes = 0
    for inst, sol, answer, _ in runs:
        ids = inst.graph.sorted_vertices()
        f = dict(zip(ids, rng.sample(ids, len(ids))))
        moved = relabel(inst, f)
        assert cost(solve_auto(moved)) == cost(sol), write_instance(inst)
        assert kernel_answer(moved)[0] == answer == (sol is not None)
        yes += sol is not None
    assert 50 <= yes < len(runs)


def test_an_order_preserving_relabelling_maps_the_printed_solution(runs):
    rng = random.Random(0x0DE7)
    lifted = 0
    for inst, sol, answer, res in runs:
        # spread-out, increasing ids from anywhere
        f, nxt = {}, rng.randint(0, 50)
        for v in inst.graph.sorted_vertices():
            f[v] = nxt
            nxt += rng.randint(1, 9)
        moved = relabel(inst, f)
        want = None if sol is None else map_solution(moved, sol, f)
        assert format_solution(solve_auto(moved)) == format_solution(want)
        # the same steps and the same kernel file
        moved_res = kernelize(moved)
        assert [(ev.rule, ev.decided) for ev in moved_res.log] == \
            [(ev.rule, ev.decided) for ev in res.log]
        assert moved_res.kind == res.kind
        if res.kind == KERNEL:
            assert write_instance(moved_res.instance) == write_instance(res.instance)
        # a witness lifted through the minted ids of both logs
        out = normalize(inst)
        if out.kind == DECIDED_YES:
            assert normalize(moved).witness == map_solution(moved, out.witness, f)
            lifted += any(ev.rule == CONTRACTION for ev in out.log)
    assert lifted > 0
