import random
from collections import Counter

import pytest

from degedit.generator import generate_random_planar_instance
from degedit.graph import edge_key, is_planar
from degedit.instance import CONNECTED, PLAIN, check_solution
from degedit.io import parse_instance
from degedit.normalize import (CHANGED, CONTRACTION, DECIDED_NO, DECIDED_YES,
                               ISOLATES_REMOVAL_CONNECTED, NORMALIZED,
                               NOT_APPLICABLE, VERTEX_DELETION, YES_INSTANCE,
                               YES_INSTANCE_CONNECTED, KernelState, RuleEvent,
                               apply_rule, is_normalized, normalize)
from degedit.oracle import brute_force_min_cost

import forges
from conftest import (make_instance, path_instance, planted_yes, random_corpus,
                      recorded, recording)


def star(n_leaves, delta_center, delta_leaf, **kw):
    vs = list(range(0, n_leaves + 1))
    edges = [(0, i) for i in range(1, n_leaves + 1)]
    delta = {0: delta_center, **{i: delta_leaf for i in range(1, n_leaves + 1)}}
    return make_instance(vs, edges, delta, **kw)


def test_yes_rule_on_satisfied_singleton():
    inst = make_instance([5], [], 0)
    state = KernelState(inst)
    assert apply_rule(state, YES_INSTANCE) == DECIDED_YES
    assert state.decided == DECIDED_YES
    assert state.events == [RuleEvent(YES_INSTANCE, (), DECIDED_YES)]
    assert normalize(inst).witness.canonical() == ((), ())


def test_vertex_deletion_rule_fires_above_window():
    # center degree 5 with target 1 and span 3 forces deletion
    inst = star(5, 1, 1, k_v=2, k_e=1, cost_budget=5)
    state = KernelState(inst)
    with recording() as steps:
        assert apply_rule(state, VERTEX_DELETION) == CHANGED
    (ev,) = steps
    assert ev.site == (0,)
    assert ev.before is inst and ev.after is state.inst
    assert state.inst.k_v == 1  # charged weight 1
    assert state.inst.cost_budget == 4


def test_contraction_rule_merges_satisfied_pair():
    # path a-b-c-d with all degrees matching: interior pair contracts
    inst = path_instance(4, {1: 1, 2: 2, 3: 2, 4: 1}, k_e=1, variant=PLAIN)
    state = KernelState(inst)
    assert apply_rule(state, CONTRACTION) == CHANGED
    g2 = state.inst.graph
    (z,) = g2.vertices - inst.graph.vertices
    assert z == max(inst.graph.vertices) + 1 == state.events[-1].minted
    assert state.inst.weight_v[z] == 2
    assert all(state.inst.weight_e[edge_key(z, u)] == inst.k_e + 1
               for u in g2.neighbors(z))
    assert state.inst.delta[z] == g2.degree(z)


def test_connected_isolates_rule_yes_branch():
    # deleting everything except the isolate fits the budgets
    inst = make_instance([1, 2, 3], [(1, 2)], {1: 1, 2: 1, 3: 0},
                         k_v=2, cost_budget=2, variant=CONNECTED)
    state = KernelState(inst)
    assert apply_rule(state, ISOLATES_REMOVAL_CONNECTED) == DECIDED_YES
    assert state.events[-1].site == (3,)
    out = normalize(inst)
    assert out.kind == DECIDED_YES
    assert out.witness.deleted_vertices == {1, 2}


def test_connected_isolates_rule_charge_branch():
    inst = make_instance([1, 2, 3], [(1, 2)], {1: 1, 2: 1, 3: 0},
                         k_v=1, cost_budget=1, variant=CONNECTED)
    state = KernelState(inst)
    assert apply_rule(state, ISOLATES_REMOVAL_CONNECTED) == CHANGED
    assert state.inst.graph.vertices == {1, 2}
    assert state.inst.k_v == 0


def test_rule_variant_gating():
    state = KernelState(make_instance([1], [], 0, variant=CONNECTED))
    with pytest.raises(ValueError):
        apply_rule(state, YES_INSTANCE)
    with pytest.raises(ValueError):
        apply_rule(KernelState(path_instance(2, 1)), ISOLATES_REMOVAL_CONNECTED)


def test_rule_not_applicable_leaves_state():
    inst = path_instance(3, {1: 1, 2: 2, 3: 1}, k_v=1)
    state = KernelState(inst)
    assert apply_rule(state, VERTEX_DELETION) == NOT_APPLICABLE
    assert state.inst is inst and state.events == [] and state.decided is None


def test_normalize_triangle_decided_yes():
    inst = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    out = normalize(inst)
    assert out.kind == DECIDED_YES
    assert check_solution(inst, out.witness).ok


def test_normalize_star_decided_no():
    # center degree 4 > 1 + 0 + 1 forces deletion; charging its weight
    # sends k_v below zero
    inst = star(4, 1, 1, k_v=0, k_e=1, cost_budget=9)
    out = normalize(inst)
    assert out.kind == DECIDED_NO
    assert out.log[0].rule == VERTEX_DELETION
    assert not brute_force_min_cost(inst).feasible


def test_normalize_p3_trivial_yes():
    out = normalize(path_instance(3, {1: 1, 2: 2, 3: 1}))
    assert out.kind == DECIDED_YES


def test_normalize_equivalence_with_oracle():
    for inst in random_corpus(120, 31_000, raw=True):
        before = brute_force_min_cost(inst).feasible
        out = normalize(inst)
        if out.kind == DECIDED_YES:
            after = True
            assert check_solution(inst, out.witness).ok
        elif out.kind == DECIDED_NO:
            after = False
        else:
            after = brute_force_min_cost(out.instance).feasible
        assert before == after, f"normalize changed feasibility on {inst}"


def test_normalize_output_contract_and_planarity():
    for inst in random_corpus(120, 32_000, raw=True):
        out, steps = recorded(normalize, inst)
        for ev in steps:
            if ev.after is not None:
                assert is_planar(ev.after.graph)
        if out.kind == NORMALIZED:
            assert is_normalized(out.instance)
            assert is_planar(out.instance.graph)


def test_single_rule_safety_random():
    # one applied rule step never changes oracle feasibility
    checked = 0
    for inst in random_corpus(150, 33_000, n_hi=8, raw=True):
        for ev in recorded(normalize, inst)[1][:2]:
            before = brute_force_min_cost(ev.before).feasible
            if ev.decided == DECIDED_YES:
                assert before is True
            elif ev.decided == DECIDED_NO:
                assert before is False
            else:
                assert before == brute_force_min_cost(ev.after).feasible
            checked += 1
    assert checked > 100


# vertex 4 is charged and deleted, then the contraction of 2 and 3 mints 4
# again; the witness must keep the charged vertex, not the pair
REMINTED = """p degedit 4 2 3 2 10 1
v 1 0 1 1
v 2 1 2 1
v 3 1 2 1
v 4 2 2 2
e 1 4 1 1
e 2 3 1 0
"""


# vertex 4 is charged and deleted, the contraction of 3 and 2 mints 4 again,
# and the connected isolate decision deletes it: the witness gets back 2 and 3
LIFTED = """p degedit 4 3 5 1 10 1
v 1 0 2 0
v 2 1 1 2
v 3 1 1 1
v 4 4 2 2
e 1 4 2 2
e 2 3 1 0
e 2 4 1 0
"""


def test_witness_survives_a_reminted_id():
    inst = parse_instance(REMINTED)
    out = normalize(inst)
    assert out.kind == DECIDED_YES
    assert out.witness.deleted_vertices == {1, 4}
    assert check_solution(inst, out.witness).ok
    inst = parse_instance(LIFTED)
    assert normalize(inst).witness.deleted_vertices == {2, 3, 4}


def test_yes_witnesses_pass_on_raw_sweep():
    failing = []
    for s in range(6000):
        rng = random.Random(s)
        inst = generate_random_planar_instance(
            rng.randint(4, 10), rng.randint(1, 5), rng.randint(0, 2),
            rng.randint(2, 12), CONNECTED if rng.random() < 0.7 else PLAIN,
            seed=s, raw=True, keep_prob=rng.uniform(0.2, 0.7))
        out = normalize(inst)
        if out.kind == DECIDED_YES and not check_solution(inst, out.witness):
            failing.append(s)
    assert failing == []


# -- the log alone determines the run ---------------------------------------------


def ref_lift_witness(steps):
    """``_lift_witness`` as it read instance snapshots before the log kept
    steps only: the vertices left at the decision from its before-instance,
    and a contraction's minted id as the one vertex its after-instance adds.
    """
    decision = steps[-1]
    out = set()
    if decision.rule == ISOLATES_REMOVAL_CONNECTED:
        out = set(decision.before.graph.vertices) - set(decision.site)
    for ev in reversed(steps[:-1]):
        if ev.rule == CONTRACTION:
            (z,) = ev.after.graph.vertices - ev.before.graph.vertices
            if z in out:
                out.remove(z)
                out.update(ev.site)
        elif ev.rule in (VERTEX_DELETION, ISOLATES_REMOVAL_CONNECTED):
            out.add(ev.site[0])
    return frozenset(out)


def _log_corpus():
    return ([parse_instance(REMINTED), parse_instance(LIFTED)]
            + random_corpus(600, 34_000) + random_corpus(600, 35_000, raw=True)
            + [fn(seed)[0] for _, fn in forges.FAMILIES for seed in range(12)]
            + [planted_yes(n, 2, 2, variant, seed) for n in (60, 150, 300)
               for variant in (PLAIN, CONNECTED) for seed in (1, 2)])


def test_lifted_witness_matches_the_snapshot_reference():
    seen = Counter()
    for inst in _log_corpus():
        out, steps = recorded(normalize, inst)
        if out.kind != DECIDED_YES:
            continue
        assert out.witness.deleted_vertices == ref_lift_witness(steps)
        assert check_solution(inst, out.witness).ok
        seen[out.log[-1].rule] += 1
        seen["charged"] += any(ev.rule in (VERTEX_DELETION,
                                           ISOLATES_REMOVAL_CONNECTED)
                               for ev in out.log[:-1])
        seen["contracted"] += any(ev.rule == CONTRACTION for ev in out.log)
        # a contracted pair is deleted only when its minted id was
        seen["lifted"] += any(ev.rule == CONTRACTION
                              and set(ev.site) <= out.witness.deleted_vertices
                              for ev in out.log)
    assert seen[YES_INSTANCE] + seen[YES_INSTANCE_CONNECTED] >= 200, seen
    assert min(seen[k] for k in (ISOLATES_REMOVAL_CONNECTED, "charged",
                                 "contracted", "lifted")) >= 1, seen


def test_replaying_a_normalize_log_reaches_its_outcome():
    kinds = Counter()
    for inst in _log_corpus():
        out = normalize(inst)
        state = KernelState(inst)
        for ev in out.log:
            apply_rule(state, ev.rule)
            got = state.events[-1]
            assert (got.rule, got.site, got.decided, got.minted) == \
                (ev.rule, ev.site, ev.decided, ev.minted)
        assert len(state.events) == len(out.log)
        if out.kind == NORMALIZED:
            assert state.decided is None and state.inst == out.instance
        else:
            assert state.decided == out.kind
        kinds[out.kind] += 1
    assert min(kinds[k] for k in (NORMALIZED, DECIDED_YES, DECIDED_NO)) >= 50
