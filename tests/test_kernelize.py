import hashlib
import random
from collections import Counter

import pytest

from degedit.errors import CapacityError
import degedit.kernelize
from degedit.graph import Graph, is_planar
from degedit.instance import CONNECTED, PLAIN, Solution, check_solution
from degedit.kernelize import (KERNEL, BoundaryConfig, _check_t2_components,
                               _covers, build_boundary_instance,
                               compute_candidate_sets, enumerate_configs,
                               format_trace, kernelize, reduce_dpggd,
                               size_bound_report)
from degedit.normalize import DECIDED_NO, DECIDED_YES, normalize
from degedit.oracle import brute_force_min_cost
from degedit.protrusion import (Part, ProtrusionDecomposition,
                                build_protrusion_decomposition,
                                greedy_2_dominating_set, trivial_decomposition)
from degedit.treewidth import decompose

import forges
from conftest import cycle_instance, make_instance, random_corpus


def _part_for(inst, vertices):
    g = inst.graph
    verts = frozenset(vertices)
    boundary = frozenset(x for v in verts for x in g.neighbors(v)) - verts
    sub = g.subgraph(verts | boundary)
    return Part(verts, boundary, decompose(sub))


def test_configs_empty_boundary_is_single_config():
    # budgets are read off the solved table, not enumerated as configurations
    inst = make_instance([1, 2, 3], [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1},
                         k_v=2, k_e=1, cost_budget=3)
    part = _part_for(inst, [1, 2, 3])
    assert part.boundary == frozenset()
    assert enumerate_configs(part, inst) == [
        BoundaryConfig(frozenset(), frozenset(), (), None)]


def test_configs_single_boundary_count_bound():
    # hand count: at most 2 choices of X * (1 + 3 targets)
    inst = make_instance([1, 2, 3], [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1},
                         k_v=1, k_e=1, cost_budget=3)
    part = _part_for(inst, [2, 3])
    assert part.boundary == {1}
    configs = enumerate_configs(part, inst)
    assert len(configs) <= 2 * (1 + 3)
    removed = {c.removed_vertices for c in configs}
    assert removed == {frozenset(), frozenset({1})}
    kept_targets = {c.targets for c in configs if not c.removed_vertices}
    assert len(kept_targets) <= 3


def test_cover_families_for_two_remnants():
    fams = _covers((1, 2))
    assert fams == sorted([
        ((1, 2),),
        ((1,), (1, 2)),
        ((1,), (2,)),
        ((1, 2), (2,)),
    ])


def test_configs_respect_alpha_cap():
    inst = make_instance(range(1, 6), [(1, 5), (2, 5), (3, 5), (4, 5)],
                         {1: 1, 2: 1, 3: 1, 4: 1, 5: 4}, k_v=1, k_e=1,
                         cost_budget=2)
    part = _part_for(inst, [5])
    assert len(part.boundary) == 4
    with pytest.raises(CapacityError):
        enumerate_configs(part, inst)


def test_boundary_instance_prices_out_survivors():
    inst = cycle_instance(4, 1, k_v=1, k_e=2, cost_budget=2)
    part = _part_for(inst, [2, 3])
    assert part.boundary == {1, 4}
    cfg = BoundaryConfig(frozenset(), frozenset(), ((1, 1), (4, 1)), None)
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert gadget == frozenset()
    assert sub.weight_v[1] == inst.k_v + 1
    assert sub.weight_v[4] == inst.k_v + 1
    assert sub.weight_v[2] == inst.weight_v[2]
    assert sub.delta[1] == 1 and sub.delta[2] == inst.delta[2]


def test_boundary_instance_gadget_structure():
    inst = cycle_instance(4, 1, k_v=1, k_e=2, cost_budget=2,
                          variant=CONNECTED)
    part = _part_for(inst, [2, 3])
    cfg = BoundaryConfig(frozenset(), frozenset(), ((1, 2), (4, 2)), ((1, 4),))
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert len(gadget) == 1
    z = next(iter(gadget))
    assert sub.graph.neighbors(z) == {1, 4}
    assert sub.delta[z] == 2
    assert sub.weight_v[z] == inst.k_v + 1
    assert sub.cost_v[z] == 0
    for u in (1, 4):
        e = tuple(sorted((z, u)))
        assert sub.weight_e[e] == inst.k_e + 1
        assert sub.cost_e[e] == 0


def test_boundary_instance_full_removal_drops_gadget():
    inst = cycle_instance(4, 1, k_v=2, k_e=2, cost_budget=4,
                          variant=CONNECTED)
    part = _part_for(inst, [2, 3])
    cfg = BoundaryConfig(frozenset({1, 4}), frozenset(), (), ())
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert gadget == frozenset()
    assert sub.graph.vertices == {2, 3}


def test_boundary_instance_nonplanar_gadget_marker():
    # K2,3 between the part and a three-vertex boundary becomes K3,3 once
    # the cover gadget is attached
    edges = [(a, b) for a in (4, 5) for b in (1, 2, 3)] + [(1, 6), (2, 6), (3, 6)]
    inst = make_instance(range(1, 7), edges,
                         {v: 1 for v in range(1, 7)} | {6: 3},
                         k_v=1, k_e=1, cost_budget=2, variant=CONNECTED)
    part = _part_for(inst, [4, 5])
    assert part.boundary == {1, 2, 3}
    cfg = BoundaryConfig(frozenset(), frozenset(),
                         ((1, 3), (2, 3), (3, 3)), ((1, 2, 3),))
    assert build_boundary_instance(cfg, part, inst) is None


def test_boundary_instance_pair_gadget_off_an_edge_is_tested():
    # K3,3 less the edge 1-4 is planar, and the path 1-z-4 of the pair
    # block makes it a subdivided K3,3 again; pendant blocks keep it planar
    edges = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6) if (a, b) != (1, 4)]
    inst = make_instance(range(1, 7), edges,
                         {1: 2, 2: 3, 3: 3, 4: 2, 5: 3, 6: 3},
                         k_v=1, k_e=1, cost_budget=2, variant=CONNECTED)
    part = _part_for(inst, [2, 3, 5, 6])
    assert part.boundary == {1, 4}
    cfg = BoundaryConfig(frozenset(), frozenset(), ((1, 3), (4, 3)),
                         ((1, 4),))
    assert build_boundary_instance(cfg, part, inst) is None
    cfg = BoundaryConfig(frozenset(), frozenset(), ((1, 3), (4, 3)),
                         ((1,), (4,)))
    assert build_boundary_instance(cfg, part, inst) is not None


def _gadget_corpus():
    """The forge families over 12 seeds, then seeded connected corpora, as
    (instance, dominating set or None) pairs."""
    for _, fn in forges.FAMILIES:
        for seed in range(12):
            yield fn(seed)
    for base in (64_000, 65_000, 66_000):
        for inst in random_corpus(100, base, n_lo=4, n_hi=12,
                                  variants=(CONNECTED,)):
            yield inst, None


def _candidates_digest(results):
    h = hashlib.sha256()
    for res in results:
        cs = res.candidates
        h.update(repr(None if cs is None else (
            sorted(cs.vertices), sorted(cs.edges),
            [(sorted(w), sorted(l)) for w, l in cs.per_part],
            cs.skipped)).encode() + b"\n")
    return h.hexdigest()


# sha256 of the candidate sets of _gadget_corpus(), taken while every
# gadget graph was tested for planarity
GADGET_CORPUS_CANDIDATES = (
    "dcbe9964d01e3c3578218a3221d13e041c196fd8bed6a9afd3c9e013341397a7")


def test_gadget_planarity_is_tested_wherever_it_can_fail(monkeypatch):
    # a configuration whose planarity test is skipped has a planar gadget
    # graph, so the test would have passed it; the candidate sets are those
    # of testing every gadget
    built = degedit.kernelize.build_boundary_instance
    seen = Counter()

    def checking(config, part, inst):
        out = built(config, part, inst)
        if config.cover is not None:
            needed = degedit.kernelize._gadget_needs_planarity_test(
                config.cover, inst.graph)
            seen["tested" if needed else "skipped"] += 1
            if not needed:
                assert out is not None and is_planar(out[0].graph), config
        return out

    monkeypatch.setattr(degedit.kernelize, "build_boundary_instance", checking)
    results = [kernelize(inst, domset=dom) for inst, dom in _gadget_corpus()]
    assert seen["skipped"] > 1000 and seen["tested"] > 1000, seen
    assert _candidates_digest(results) == GADGET_CORPUS_CANDIDATES


def test_candidates_trivial_decomposition_take_everything():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    cs = compute_candidate_sets(inst, trivial_decomposition(inst.graph))
    assert cs.vertices == inst.graph.vertices
    assert cs.edges == inst.graph.edge_set()


def test_candidates_quiet_pendant_path():
    # pendant path with matching interior degrees and zero budgets
    # contributes nothing
    inst = make_instance(range(1, 7),
                         [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6)],
                         {1: 2, 2: 2, 3: 3, 4: 2, 5: 2, 6: 1},
                         k_v=0, k_e=0, cost_budget=0)
    pd = build_protrusion_decomposition(inst.graph, [1, 2, 3, 4], r=2)
    cs = compute_candidate_sets(inst, pd)
    for w_i, l_i in cs.per_part:
        assert w_i == frozenset() and l_i == frozenset()


def test_candidates_capture_forced_interior_deletion():
    # the unique repair deletes interior vertex 5, so 5 must be a candidate
    inst = make_instance(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)],
                         {1: 2, 2: 2, 3: 2, 4: 2, 5: 0},
                         k_v=1, k_e=1, cost_budget=2)
    out = normalize(inst)
    assert out.kind == "normalized"
    dom = greedy_2_dominating_set(out.instance.graph)
    pd = build_protrusion_decomposition(out.instance.graph, dom, 2)
    cs = compute_candidate_sets(out.instance, pd)
    assert 5 in cs.vertices


def test_skipped_part_falls_back_to_whole_part():
    # K2,4 with the part {5}: its four-vertex boundary exceeds the cap
    edges = [(a, b) for a in (1, 2, 3, 4) for b in (5, 6)]
    inst = make_instance(range(1, 7), edges,
                         {1: 2, 2: 2, 3: 2, 4: 2, 5: 4, 6: 4}, k_v=1, k_e=1,
                         cost_budget=2)
    part = _part_for(inst, [5])
    assert part.boundary == {1, 2, 3, 4}
    pd = ProtrusionDecomposition(frozenset({1, 2, 3, 4, 6}), (part,), 3,
                                 certified=False)
    cs = compute_candidate_sets(inst, pd)
    assert cs.skipped == (0,)
    assert cs.per_part[0] == (frozenset({5}),
                              frozenset({(1, 5), (2, 5), (3, 5), (4, 5)}))


def test_reduce_noop_when_everything_is_candidate():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    cs = compute_candidate_sets(inst, trivial_decomposition(inst.graph))
    state = reduce_dpggd(inst, cs)
    assert state.decided is None
    assert state.inst.graph.edge_set() == inst.graph.edge_set()
    assert dict(state.inst.weight_v) == dict(inst.weight_v)


def test_twin_rule_outcomes():
    inst, dom = forges.forge_twin_pair(3, PLAIN)
    res = kernelize(inst, domset=dom)
    twin_events = [e for e in res.log if e.rule == "twin-reduction"]
    assert twin_events
    ev = twin_events[0]
    assert ev.after.graph.n == ev.before.graph.n - 1
    # unequal targets on the same neighbourhood decide no
    bad = make_instance(
        inst.graph.sorted_vertices(), inst.graph.edges(),
        dict(inst.delta) | {4: 0}, inst.k_v, inst.k_e, inst.cost_budget,
        PLAIN, weight_v=dict(inst.weight_v), weight_e=dict(inst.weight_e),
        cost_v=dict(inst.cost_v), cost_e=dict(inst.cost_e))
    res2 = kernelize(bad, domset=dom)
    events = [e for e in res2.log if e.rule == "twin-reduction"]
    if events:
        assert events[-1].decided == DECIDED_NO
        assert not brute_force_min_cost(bad, vertex_cap=16, edge_cap=24).feasible


def test_kernelize_decided_by_normalize():
    tri = make_instance([1, 2, 3], [(1, 2), (1, 3), (2, 3)], 2)
    res = kernelize(tri)
    assert res.kind == DECIDED_YES
    assert res.candidates is None


def test_kernelize_c4_equivalent():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    res = kernelize(inst)
    if res.kind == KERNEL:
        assert brute_force_min_cost(res.instance).feasible == \
            brute_force_min_cost(inst).feasible
        assert is_planar(res.instance.graph)
    else:
        assert res.kind == DECIDED_YES


def test_kernelize_shrinks_pendant_path():
    # a long satisfied pendant path collapses
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)] + \
        [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
    delta = {1: 2, 2: 2, 3: 2, 4: 3, 5: 2, 6: 2, 7: 2, 8: 2, 9: 1}
    inst = make_instance(range(1, 10), edges, delta, k_v=1, k_e=1,
                         cost_budget=2)
    res = kernelize(inst)
    if res.kind == KERNEL:
        assert res.instance.graph.n < inst.graph.n
        assert brute_force_min_cost(res.instance).feasible == \
            brute_force_min_cost(inst).feasible
    else:
        assert (res.kind == DECIDED_YES) == brute_force_min_cost(inst).feasible


def test_kernelize_idempotent_never_grows():
    grown = []
    for inst in random_corpus(60, 52_000, n_hi=9):
        res = kernelize(inst)
        if res.kind != KERNEL:
            continue
        again = kernelize(res.instance)
        if again.kind == KERNEL and again.instance.graph.n > res.instance.graph.n:
            grown.append(inst)
    assert not grown


def test_size_bound_report_on_certified_runs():
    checked = 0
    for inst in random_corpus(120, 53_000, n_hi=9):
        res = kernelize(inst)
        if res.kind == KERNEL and res.certified:
            report = size_bound_report(res)
            assert report.ok, (report.violations, inst)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("count, flagged", [(2, False), (3, True)])
def test_t2_components_bound(count, flagged):
    # `count` two-vertex remnant components, each seeing candidates 1, 2, 3
    edges, t2 = [], set()
    for i in range(count):
        a, b = 10 + 2 * i, 11 + 2 * i
        t2 |= {a, b}
        edges += [(a, b), (a, 1), (a, 2), (b, 3)]
    g = Graph({1, 2, 3} | t2, edges)
    problems = []
    _check_t2_components(g, t2, {0: set(), 1: set(), 2: t2, 3: set()},
                         frozenset({1, 2, 3}), problems)
    assert bool(problems) == flagged
    assert all(p.startswith("contracted T2 components") for p in problems)


def test_trace_format():
    inst, dom = forges.forge_twin_pair(0, PLAIN)
    res = kernelize(inst, domset=dom)
    text = format_trace(res.log)
    assert all(line.startswith("rule ") for line in text.splitlines())
    assert "twin-reduction" in text
