"""Known answers above oracle size: the DP is the reference.

Every other kernel answer in this suite is checked by brute force, so on at
most 12 vertices.  Here planted yes-instances of 60 and 150 vertices are
kernelized at their optimum cost budget and one below it, and each kernel
is decided with ``solve_auto``: it must give the DP's answer on the input.
Triangulated grids whose every vertex must lose exactly one neighbour are
no-instances far above oracle size, and kernelize must not call them yes.
"""

import time
from dataclasses import replace

import pytest

from degedit.dpsolve import solve_auto
from degedit.instance import CONNECTED, PLAIN
from degedit.kernelize import KERNEL, kernelize
from degedit.normalize import DECIDED_YES

from conftest import PLANTED_DRAWS, make_instance, planted_yes

BUDGETS = ((1, 1), (2, 2), (3, 1))


def _kernel_says_yes(inst):
    result = kernelize(inst)
    if result.kind == KERNEL:
        return solve_auto(result.instance) is not None
    return result.kind == DECIDED_YES


@pytest.mark.parametrize("variant", (PLAIN, CONNECTED))
@pytest.mark.parametrize("n", (60, 150))
def test_planted_kernels_answer_as_the_dp(n, variant):
    for k_v, k_e in BUDGETS:
        inst = planted_yes(n, k_v, k_e, variant, 1_000 * n + 10 * k_v + k_e)
        opt = solve_auto(inst)
        assert opt is not None and opt.total_cost <= inst.cost_budget
        for budget in (opt.total_cost, opt.total_cost - 1):
            if budget < 0:
                continue
            at = replace(inst, cost_budget=budget)
            dp = solve_auto(at) is not None
            assert dp == (budget == opt.total_cost)
            assert _kernel_says_yes(at) == dp, (n, variant, k_v, k_e, budget)


def _all_slack_grid(rows, cols, variant):
    """A rows x cols grid with one diagonal per square; every vertex has
    target deg - 1, weights and costs 1, k_v = k_e = 2 and C = 100."""
    vertices = range(1, rows * cols + 1)
    edges = []
    for v in vertices:
        right, down = v % cols != 0, v + cols <= rows * cols
        if right:
            edges.append((v, v + 1))
        if down:
            edges.append((v, v + cols))
        if right and down:
            edges.append((v, v + cols + 1))
    deg = {v: 0 for v in vertices}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return make_instance(vertices, edges, {v: d - 1 for v, d in deg.items()},
                         k_v=2, k_e=2, cost_budget=100, variant=variant)


@pytest.mark.parametrize("variant", (PLAIN, CONNECTED))
def test_all_slack_grid_is_never_a_yes(variant):
    # all 60 vertices must lose one neighbour or go, but a deleted vertex
    # settles at most itself and its 6 neighbours, a deleted edge 2 ends
    inst = _all_slack_grid(6, 10, variant)
    result = kernelize(inst)
    assert result.kind != DECIDED_YES
    if result.kind == KERNEL:
        assert solve_auto(result.instance) is None


@pytest.mark.parametrize("args", [
    (3, 1, 1, CONNECTED, 1), (3, 2, 2, CONNECTED, 3),
    (4, 2, 2, CONNECTED, 0), (4, 2, 2, CONNECTED, 2)])
def test_planted_yes_gives_up_when_no_draw_stays_connected(args):
    # a triangle or a K4 on which no draw leaves the survivor connected:
    # the generator stops instead of spinning
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"planted_yes\({args[0]}, .*"
                                         rf"{PLANTED_DRAWS}"):
        planted_yes(*args)
    assert time.perf_counter() - start < 1.0
