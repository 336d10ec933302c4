import random
from itertools import chain, combinations

import pytest

from degedit.instance import CONNECTED, Instance, Solution, check_solution, is_efficient

from conftest import cycle_instance, make_instance, path_instance, random_corpus


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


def reference_key_check(graph, delta, weight_v, weight_e, cost_v, cost_e):
    """The key check ``Instance.__post_init__`` made before it compared key
    views, kept as the reference: it rebuilds both key sets each time."""
    vs = graph.vertices
    es = frozenset(graph.edges())
    for name, m, keys in (("delta", delta, vs), ("weight_v", weight_v, vs),
                          ("cost_v", cost_v, vs)):
        if set(m) != set(keys):
            raise ValueError(f"{name} must be defined exactly on the vertex set")
    for name, m in (("weight_e", weight_e), ("cost_e", cost_e)):
        if set(m) != set(es):
            raise ValueError(f"{name} must be defined exactly on the edge set")


def _key_cases(inst, rng):
    """(field, broken map) pairs: reversed, missing, extra and non-edge edge
    keys, and missing and extra vertex keys."""
    vs = sorted(inst.graph.vertices)
    es = sorted(inst.graph.edges())
    non_edges = [(a, b) for a in vs for b in vs
                 if a < b and not inst.graph.has_edge(a, b)]
    for field in ("weight_e", "cost_e"):
        m = dict(getattr(inst, field))
        if es:
            e = rng.choice(es)
            reversed_key = {(k[1], k[0]) if k == e else k: x for k, x in m.items()}
            yield field, reversed_key
            yield field, {k: x for k, x in m.items() if k != e}
            if non_edges:
                swapped = {k: x for k, x in m.items() if k != e}
                swapped[rng.choice(non_edges)] = 1
                yield field, swapped
        if non_edges:
            yield field, {**m, rng.choice(non_edges): 1}
    for field in ("delta", "weight_v", "cost_v"):
        m = dict(getattr(inst, field))
        yield field, {**m, max(vs, default=0) + 1: 1}
        if vs:
            v = rng.choice(vs)
            yield field, {k: x for k, x in m.items() if k != v}


def test_key_check_matches_reference():
    rng = random.Random(14)
    for inst in random_corpus(150, 71_000, n_lo=0, n_hi=8):
        fields = dict(graph=inst.graph, delta=inst.delta, weight_v=inst.weight_v,
                      weight_e=inst.weight_e, cost_v=inst.cost_v, cost_e=inst.cost_e)
        reference_key_check(**fields)
        for field, broken in _key_cases(inst, rng):
            case = {**fields, field: broken}
            with pytest.raises(ValueError) as want:
                reference_key_check(**case)
            with pytest.raises(ValueError) as got:
                Instance(**case, k_v=0, k_e=0, cost_budget=0)
            assert str(got.value) == str(want.value)
