from itertools import chain, combinations

import pytest

from degedit.instance import CONNECTED, Instance, Solution, check_solution, is_efficient

from conftest import cycle_instance, make_instance, path_instance


def powerset(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def test_triangle_empty_solution_valid():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    assert check_solution(inst, Solution.of(inst)).ok


def test_c4_matching_valid_frozen_by_enumeration():
    # Expected verdicts derived by brute force over all 16 edge subsets.
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    valid = []
    for d in powerset(inst.graph.edges()):
        sol = Solution.of(inst, (), d)
        if check_solution(inst, sol).ok:
            valid.append(tuple(sorted(d)))
    assert valid == [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert check_solution(inst, Solution.of(inst, (), [(1, 2), (3, 4)])).ok


def test_connected_variant_rejects_split():
    inst = path_instance(3, 0, k_v=1, cost_budget=9, variant=CONNECTED)
    verdict = check_solution(inst, Solution.of(inst, [2]))
    assert not verdict.ok
    assert any("disconnected" in v for v in verdict.violations)


def test_check_solution_names_budget_violations():
    inst = path_instance(2, 0, k_v=0, k_e=0, cost_budget=0)
    verdict = check_solution(inst, Solution.of(inst, [1, 2]))
    assert not verdict.ok
    assert any("vertex weight" in v for v in verdict.violations)
    assert any("cost" in v for v in verdict.violations)


def test_empty_graph_connected_counts_connected():
    inst = make_instance([1], [], 0, k_v=1, cost_budget=1, variant=CONNECTED)
    assert check_solution(inst, Solution.of(inst, [1])).ok


def test_is_efficient():
    inst = path_instance(3, 0, k_v=3, k_e=3, cost_budget=9)
    assert is_efficient(inst, Solution.of(inst, [1], [(2, 3)]))
    assert not is_efficient(inst, Solution.of(inst, [2], [(2, 3)]))
    assert is_efficient(inst, Solution.of(inst, (), [(1, 2), (2, 3)]))


def test_instance_validation_rejects_bad_weights():
    with pytest.raises(ValueError, match="weights"):
        make_instance([1, 2], [(1, 2)], 1, weight_v={1: 0, 2: 1})
    with pytest.raises(ValueError, match="non-negative"):
        make_instance([1], [], -1)


def test_degree_window_predicate():
    inst = path_instance(3, {1: 1, 2: 2, 3: 1})
    assert inst.in_degree_window()
    assert not path_instance(3, 2).in_degree_window()  # endpoints below target
