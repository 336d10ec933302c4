import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice

import pytest

from degedit.dpsolve import PreparedSolve, best_within
from degedit.errors import CapacityError
import degedit.kernelize
from degedit.graph import Graph, edge_key, is_planar
from degedit.instance import CONNECTED, PLAIN, Instance
from degedit.kernelize import (KERNEL, BoundaryConfig, CandidateSets,
                               _check_t2_components, _edges_among,
                               _partitions, _patched_ntd, alpha_cap_for,
                               build_boundary_instance,
                               compute_candidate_sets, enumerate_configs,
                               format_trace, kernelize, reduce_dpggd,
                               size_bound_report)
from degedit.normalize import DECIDED_NO, DECIDED_YES, normalize
from degedit.oracle import brute_force_min_cost
from degedit.protrusion import (Part, ProtrusionDecomposition,
                                build_protrusion_decomposition,
                                greedy_2_dominating_set)
from degedit.treewidth import TreeDecomposition, decompose, to_nice

import forges
from conftest import cycle_instance, make_instance, random_corpus


def _part_for(inst, vertices):
    g = inst.graph
    verts = frozenset(vertices)
    boundary = frozenset(x for v in verts for x in g.neighbors(v)) - verts
    sub = g.subgraph(verts | boundary)
    return Part(verts, boundary, decompose(sub))


# -- per-target configurations and candidate sets, kept as the reference -----


def ref_covers(remnant):
    """Set coverings by distinct non-empty subsets, family size at most
    the remnant size, in canonical family order."""
    if not remnant:
        return [()]
    blocks = []
    for r in range(1, len(remnant) + 1):
        blocks.extend(tuple(c) for c in combinations(remnant, r))
    blocks.sort(key=lambda b: (len(b), b))
    out = []
    for s in range(1, len(remnant) + 1):
        for family in combinations(blocks, s):
            union = set()
            for b in family:
                union.update(b)
            if len(union) == len(remnant):
                out.append(tuple(sorted(family)))
    return sorted(set(out))


@dataclass(frozen=True)
class RefConfig:
    """A boundary configuration as it was before the part table answered
    every target: a shape (removed boundary vertices, a subset of the edges
    among the kept ones, a cover of the kept ones) plus one target per kept
    boundary vertex."""
    removed_vertices: frozenset[int]
    removed_edges: frozenset[tuple[int, int]]
    targets: tuple[tuple[int, int], ...]
    cover: tuple[tuple[int, ...], ...] | None = None

    @property
    def shape(self):
        return BoundaryConfig(self.removed_vertices, self.removed_edges,
                              self.cover)


def ref_all_configs(part, inst):
    """Every valid boundary configuration with its target windows, as
    ``enumerate_configs`` listed them before it left out non-planar gadgets,
    before targets were read off the part table and before configurations
    were partitions."""
    cap = alpha_cap_for(inst.variant)
    boundary = sorted(part.boundary)
    if len(boundary) > cap:
        raise CapacityError(
            f"part boundary {len(boundary)} exceeds configured cap {cap}")
    g = inst.graph
    span = inst.k_v + inst.k_e
    out = []
    for x_bits in range(1 << len(boundary)):
        removed = frozenset(boundary[i] for i in range(len(boundary))
                            if (x_bits >> i) & 1)
        kept = tuple(v for v in boundary if v not in removed)
        pool = sorted(_edges_among(g, kept))
        for y_bits in range(1 << len(pool)):
            removed_edges = frozenset(pool[i] for i in range(len(pool))
                                      if (y_bits >> i) & 1)
            closed = part.closed
            deg_f = {}
            for v in kept:
                d = sum(1 for u in g.neighbors(v)
                        if u in closed and u not in removed)
                d -= sum(1 for e in removed_edges if v in e)
                deg_f[v] = d
            covers = ref_covers(kept) if inst.variant == CONNECTED else [None]
            for cover in covers:
                if cover:
                    deg = {v: deg_f[v] + sum(1 for block in cover if v in block)
                           for v in kept}
                else:
                    deg = deg_f
                for targets in ref_target_choices(kept, deg, span):
                    out.append(RefConfig(removed, removed_edges, targets, cover))
    return out


def ref_target_choices(kept, deg_f, span):
    if not kept:
        yield ()
        return
    ranges = [range(max(0, deg_f[v] - span), deg_f[v] + 1) for v in kept]

    def rec(i, acc):
        if i == len(kept):
            yield tuple(acc)
            return
        for t in ranges[i]:
            acc.append((kept[i], t))
            yield from rec(i + 1, acc)
            acc.pop()
    yield from rec(0, [])


def ref_boundary_instance(config, part, inst):
    """``build_boundary_instance`` as it was: boundary survivors at the
    configuration's targets."""
    g = inst.graph
    closed = part.closed
    sub = g.subgraph(closed).delete_vertices(config.removed_vertices)
    sub = sub.delete_edges(config.removed_edges)
    targets = dict(config.targets)
    kept_boundary = part.boundary - config.removed_vertices
    delta, weight_v, cost_v = {}, {}, {}
    for v in sub.vertices:
        if v in kept_boundary:
            delta[v] = targets[v]
            weight_v[v] = inst.k_v + 1
        else:
            delta[v] = inst.delta[v]
            weight_v[v] = inst.weight_v[v]
        cost_v[v] = inst.cost_v[v]
    weight_e, cost_e = {}, {}
    for e in sub.edge_set():
        if e[0] in kept_boundary and e[1] in kept_boundary:
            weight_e[e] = inst.k_e + 1
        else:
            weight_e[e] = inst.weight_e[e]
        cost_e[e] = inst.cost_e[e]

    if config.cover is None:
        return Instance(sub, delta, weight_v, weight_e, cost_v, cost_e,
                        inst.k_v, inst.k_e, inst.cost_budget,
                        PLAIN), frozenset()

    base = max(g.vertices, default=0) + 1
    gadget = frozenset(range(base, base + len(config.cover)))
    for i, block in enumerate(config.cover):
        z = base + i
        sub = sub.add_vertex(z, block)
        delta[z] = len(block)
        weight_v[z] = inst.k_v + 1
        cost_v[z] = 0
        for u in block:
            e = edge_key(z, u)
            weight_e[e] = inst.k_e + 1
            cost_e[e] = 0
    return Instance(sub, delta, weight_v, weight_e, cost_v, cost_e,
                    inst.k_v, inst.k_e, inst.cost_budget,
                    CONNECTED), gadget


def ref_patched_ntd(cert, removed, gadget):
    """The part's decomposition less the removed boundary, with the gadget
    in every bag, rooted at an empty bag."""
    bags = tuple((b - removed) | gadget for b in cert.bags)
    return to_nice(TreeDecomposition(bags, cert.tree_edges))


def ref_configs(part, inst):
    """The configurations that get solved: each connected one is kept when
    its gadget graph is planar."""
    return [cfg for cfg in ref_all_configs(part, inst)
            if cfg.cover is None
            or is_planar(ref_boundary_instance(cfg, part, inst)[0].graph)]


def ref_shapes(part, inst):
    """The distinct shapes of ``ref_configs``, in their order."""
    return list(dict.fromkeys(cfg.shape for cfg in ref_configs(part, inst)))


def ref_class(shape, part, inst):
    """The configuration a reference shape (R, F, C) falls in: the same R,
    and the partition that joins C's blocks with the kept edges outside F."""
    kept = part.boundary - shape.removed_vertices
    inner = _edges_among(inst.graph, kept)
    if shape.cover is None:
        return BoundaryConfig(shape.removed_vertices, inner)
    block_of = {v: {v} for v in kept}
    for link in list(shape.cover) + sorted(inner - shape.removed_edges):
        joined = set().union(*(block_of[v] for v in link))
        for v in joined:
            block_of[v] = joined
    partition = tuple(sorted({tuple(sorted(b)) for b in block_of.values()}))
    return BoundaryConfig(shape.removed_vertices, inner, partition)


def assert_classes_onto(configs, part, inst):
    """The class map takes the reference shapes onto ``configs``, which
    lists each class once."""
    assert len(set(configs)) == len(configs)
    assert {ref_class(shape, part, inst)
            for shape in ref_shapes(part, inst)} == set(configs)


def ref_candidate_sets(inst, pd):
    """``compute_candidate_sets`` as it was: one DP per configuration and
    target vector, each read at every budget pair."""
    g = inst.graph
    w = set(pd.r0)
    l = {e for e in g.edges() if e[0] in pd.r0 and e[1] in pd.r0}
    per_part, skipped = [], []
    for pi, part in enumerate(pd.parts):
        try:
            configs = ref_configs(part, inst)
        except CapacityError:
            skipped.append(pi)
            w_i = frozenset(part.vertices)
            l_i = frozenset(e for e in g.edges()
                            if e[0] in part.vertices or e[1] in part.vertices)
            per_part.append((w_i, l_i))
            w |= w_i
            l |= l_i
            continue
        w_i, l_i = set(), set()
        for cfg in configs:
            sub_inst, gadget = ref_boundary_instance(cfg, part, inst)
            ps = PreparedSolve(sub_inst, ref_patched_ntd(
                part.cert, cfg.removed_vertices, gadget), check=False)
            for hv in range(inst.k_v + 1):
                for he in range(inst.k_e + 1):
                    sol = best_within(ps.ctx, ps.answers.get((), ()), hv, he)
                    if sol is not None:
                        w_i |= sol.deleted_vertices
                        l_i |= sol.deleted_edges
        per_part.append((frozenset(w_i), frozenset(l_i)))
        w |= w_i
        l |= l_i
    return CandidateSets(frozenset(w), frozenset(l), tuple(per_part),
                         tuple(skipped))


def test_configs_empty_boundary_is_single_config():
    # budgets are read off the solved table, not enumerated as configurations
    inst = make_instance([1, 2, 3], [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1},
                         k_v=2, k_e=1, cost_budget=3)
    part = _part_for(inst, [1, 2, 3])
    assert part.boundary == frozenset()
    assert enumerate_configs(part, inst) == [
        BoundaryConfig(frozenset(), frozenset(), None)]


def test_configs_single_boundary_count_bound():
    # hand count: 2 choices of X; the kept vertex's targets, at most 3, are
    # the loss groups of one table
    inst = make_instance([1, 2, 3], [(1, 2), (2, 3)], {1: 1, 2: 2, 3: 1},
                         k_v=1, k_e=1, cost_budget=3)
    part = _part_for(inst, [2, 3])
    assert part.boundary == {1}
    configs = enumerate_configs(part, inst)
    assert configs == [BoundaryConfig(frozenset(), frozenset()),
                       BoundaryConfig(frozenset({1}), frozenset())]
    sub, _ = build_boundary_instance(configs[0], part, inst)
    ps = PreparedSolve(sub, _patched_ntd(part.cert, frozenset(), frozenset({1})),
                       check=False)
    # 1 has degree 1 in the part, so its loss, deg - target, is 0 or 1
    assert ps.answers and set(ps.answers) <= {(0,), (1,)}


def test_partitions_of_up_to_three_vertices():
    # 1, 1, 2 and 5 set partitions, each a sorted tuple of sorted blocks
    assert _partitions(()) == [()]
    assert _partitions((4,)) == [((4,),)]
    assert _partitions((1, 4)) == [((1,), (4,)), ((1, 4),)]
    assert _partitions((1, 2, 3)) == [((1,), (2,), (3,)), ((1,), (2, 3)),
                                      ((1, 2), (3,)), ((1, 2, 3),),
                                      ((1, 3), (2,))]


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
    cfg = BoundaryConfig(frozenset(), frozenset({(1, 4)}), None)
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert gadget == frozenset()
    assert not sub.graph.has_edge(1, 4)
    assert sub.weight_v[1] == inst.k_v + 1
    assert sub.weight_v[4] == inst.k_v + 1
    assert sub.weight_v[2] == inst.weight_v[2]
    # survivors' targets are read off the table, so each is built at 0
    assert sub.delta[1] == sub.delta[4] == 0
    assert sub.delta[2] == inst.delta[2]


def test_boundary_instance_gadget_structure():
    inst = cycle_instance(4, 1, k_v=1, k_e=2, cost_budget=2,
                          variant=CONNECTED)
    part = _part_for(inst, [2, 3])
    cfg = BoundaryConfig(frozenset(), frozenset({(1, 4)}), ((1, 4),))
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert len(gadget) == 1
    z = next(iter(gadget))
    assert sub.graph.neighbors(z) == {1, 4}
    assert sub.delta[z] == 2
    assert sub.delta[1] == sub.delta[4] == 0
    assert sub.weight_v[z] == inst.k_v + 1
    assert sub.cost_v[z] == 0
    for u in (1, 4):
        e = tuple(sorted((z, u)))
        assert sub.weight_e[e] == inst.k_e + 1
        assert sub.cost_e[e] == 0
    # one-vertex blocks get no gadget
    cfg = BoundaryConfig(frozenset(), frozenset({(1, 4)}), ((1,), (4,)))
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert gadget == frozenset() and sub.graph.vertices == {1, 2, 3, 4}


def test_boundary_instance_full_removal_drops_gadget():
    inst = cycle_instance(4, 1, k_v=2, k_e=2, cost_budget=4,
                          variant=CONNECTED)
    part = _part_for(inst, [2, 3])
    cfg = BoundaryConfig(frozenset({1, 4}), frozenset(), ())
    sub, gadget = build_boundary_instance(cfg, part, inst)
    assert gadget == frozenset()
    assert sub.graph.vertices == {2, 3}


def test_configs_pair_gadget_off_an_edge_is_tested():
    # K3,3 less the edge 1-4 is planar, and the path 1-z-4 of the pair
    # block makes it a subdivided K3,3 again; one-vertex blocks keep it planar
    edges = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6) if (a, b) != (1, 4)]
    inst = make_instance(range(1, 7), edges,
                         {1: 2, 2: 3, 3: 3, 4: 2, 5: 3, 6: 3},
                         k_v=1, k_e=1, cost_budget=2, variant=CONNECTED)
    part = _part_for(inst, [2, 3, 5, 6])
    assert part.boundary == {1, 4}
    configs = enumerate_configs(part, inst)
    assert_classes_onto(configs, part, inst)
    covers = {cfg.cover for cfg in configs if not cfg.removed_vertices}
    assert covers == {((1,), (4,))}
    cfg = BoundaryConfig(frozenset(), frozenset(), ((1,), (4,)))
    assert cfg in configs
    assert is_planar(build_boundary_instance(cfg, part, inst)[0].graph)


def test_configs_leave_out_a_nonplanar_pair_gadget():
    # K5 less the edge 1-2, with a pendant on 1 and one on 2: the pair
    # block's path 1-z-2 gives a subdivided K5 for every cover holding it
    edges = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)
             if (a, b) != (1, 2)] + [(1, 6), (2, 7)]
    inst = make_instance(range(1, 8), edges,
                         {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 1, 7: 1},
                         k_v=1, k_e=1, cost_budget=2, variant=CONNECTED)
    pd = build_protrusion_decomposition(inst.graph, {1, 2}, r=2)
    (part,) = [p for p in pd.parts if p.vertices == {3, 4, 5}]
    assert part.boundary == {1, 2}
    configs = enumerate_configs(part, inst)
    every = ref_all_configs(part, inst)
    assert len(every) == 43 and len(ref_configs(part, inst)) == 16
    # 7 shapes, of which the 3 with a cover holding (1, 2) are left out;
    # the 4 others are 4 partitions
    assert len({cfg.shape for cfg in every}) == 7
    assert len(configs) == 4
    assert_classes_onto(configs, part, inst)
    assert not any((1, 2) in cfg.cover for cfg in configs)
    assert compute_candidate_sets(inst, pd) == ref_candidate_sets(inst, pd)


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


def test_configs_match_the_per_configuration_filter(monkeypatch):
    # one planarity test per connected part whose boundary is a non-adjacent
    # pair leaves out exactly the classes of the shapes whose gadget graph
    # fails the test, and the candidate sets are those of testing every
    # gadget
    enumerated, tests = [], []
    enumerate_all = degedit.kernelize.enumerate_configs

    def recording(part, inst):
        configs = enumerate_all(part, inst)
        enumerated.append((part, inst, configs))
        return configs

    def counting(g):
        tests.append(g)
        return is_planar(g)

    monkeypatch.setattr(degedit.kernelize, "enumerate_configs", recording)
    monkeypatch.setattr(degedit.kernelize, "is_planar", counting)
    results = [kernelize(inst, domset=dom) for inst, dom in _gadget_corpus()]
    assert _candidates_digest(results) == GADGET_CORPUS_CANDIDATES
    pair_parts = sum(1 for part, inst, _ in enumerated
                     if inst.variant == CONNECTED and len(part.boundary) == 2
                     and not inst.graph.has_edge(*sorted(part.boundary)))
    assert pair_parts > 100 and len(tests) == pair_parts
    for part, inst, configs in enumerated:
        assert_classes_onto(configs, part, inst)


def _solutions_by_group(ps, width, inst):
    """``best_within`` of each root loss group of a table, keyed by the
    losses of its first ``width`` root vertices (the gadget positions
    dropped), at every budget pair."""
    return {(loss[:width], hv, he): best_within(ps.ctx, rows, hv, he)
            for loss, rows in ps.answers.items()
            for hv in range(inst.k_v + 1) for he in range(inst.k_e + 1)}


def _root_group_cases():
    """(part, instance) pairs: a connected C4 part whose boundary pair
    shares an edge, then generated parts whose boundary holds an edge,
    connected with two boundary vertices and plain with three."""
    inst = cycle_instance(4, 1, k_v=1, k_e=2, cost_budget=2, variant=CONNECTED)
    part = _part_for(inst, [2, 3])
    assert part.boundary == {1, 4}
    yield part, inst
    for variant, size, edges in ((CONNECTED, 2, 1), (PLAIN, 3, 2)):
        for inst in random_corpus(4, 71_000, n_lo=4, n_hi=6,
                                  variants=(variant,)):
            for pd, _ in islice(_adjacent_boundary_parts(inst, size, edges), 2):
                yield pd.parts[0], inst


def test_root_groups_match_per_target_runs():
    # per loss group and budget pair, the table of each class gives the
    # solution of every reference shape in it, and of each per-target run
    # at targets deg - loss
    found, groups = Counter(), []
    for part, inst in _root_group_cases():
        configs = enumerate_configs(part, inst)
        assert_classes_onto(configs, part, inst)
        by_class = {}
        for cfg in configs:
            sub, gadget = build_boundary_instance(cfg, part, inst)
            top = (part.boundary - cfg.removed_vertices) | gadget
            table = PreparedSolve(sub, _patched_ntd(
                part.cert, cfg.removed_vertices, top), check=False)
            width = len(part.boundary - cfg.removed_vertices)
            by_class[cfg] = _solutions_by_group(table, width, inst)
        for shape in ref_shapes(part, inst):
            kept = sorted(part.boundary - shape.removed_vertices)
            sub, gadget = ref_boundary_instance(
                RefConfig(shape.removed_vertices, shape.removed_edges,
                          tuple((v, 0) for v in kept), shape.cover), part, inst)
            table = PreparedSolve(sub, _patched_ntd(
                part.cert, shape.removed_vertices, frozenset(kept) | gadget),
                check=False)
            assert _solutions_by_group(table, len(kept), inst) == \
                by_class[ref_class(shape, part, inst)], shape
        for cfg in ref_configs(part, inst):
            ref_sub, ref_gadget = ref_boundary_instance(cfg, part, inst)
            run = PreparedSolve(ref_sub, ref_patched_ntd(
                part.cert, cfg.removed_vertices, ref_gadget))
            loss = tuple(ref_sub.graph.degree(v) - t for v, t in cfg.targets)
            solutions = by_class[ref_class(cfg.shape, part, inst)]
            for hv in range(inst.k_v + 1):
                for he in range(inst.k_e + 1):
                    sol = best_within(run.ctx, run.answers.get((), ()), hv, he)
                    assert solutions.get((loss, hv, he)) == sol, (cfg, hv, he)
                    found[inst.variant] += sol is not None
        groups += [len({key[0] for key in sols}) for sols in by_class.values()]
    assert found[CONNECTED] >= 30 and found[PLAIN] >= 30, found
    assert max(groups) >= 3, groups


def test_candidate_sets_match_the_per_target_reference(monkeypatch):
    # part by part, one table per boundary shape gives the W and L of one
    # DP per target vector
    compute = degedit.kernelize.compute_candidate_sets
    solved = []

    def both(inst, pd):
        cs = compute(inst, pd)
        assert cs == ref_candidate_sets(inst, pd)
        solved.extend((inst.variant, len(part.boundary))
                      for i, part in enumerate(pd.parts) if i not in cs.skipped)
        return cs

    monkeypatch.setattr(degedit.kernelize, "compute_candidate_sets", both)
    runs = list(_gadget_corpus()) + [
        (inst, None) for inst in random_corpus(300, 67_000, n_lo=4, n_hi=12)]
    for inst, dom in runs:
        kernelize(inst, domset=dom)
    for variant in (PLAIN, CONNECTED):
        for size in (1, 2):
            assert solved.count((variant, size)) >= 20, (variant, size)
    # no decomposition above gives a plain part a three-vertex boundary; a
    # part of one degree-3 vertex has one
    wide = 0
    for inst in random_corpus(100, 69_000, n_lo=5, n_hi=10, variants=(PLAIN,)):
        g = inst.graph
        v = next((v for v in g.sorted_vertices() if g.degree(v) == 3), None)
        if v is not None:
            pd = ProtrusionDecomposition(g.vertices - {v}, (_part_for(inst, [v]),),
                                         3, certified=False)
            assert compute(inst, pd) == ref_candidate_sets(inst, pd)
            wide += 1
    assert wide >= 20


def _adjacent_boundary_parts(inst, size, edges):
    """Single-part decompositions of inst: the part is a component of G - B
    whose neighbourhood is B, for each set B of ``size`` vertices with at
    least ``edges`` edges among them; yields each with that edge count."""
    g = inst.graph
    for b in combinations(g.sorted_vertices(), size):
        inner = _edges_among(g, b)
        if len(inner) < edges:
            continue
        for comp in sorted(g.subgraph(g.vertices - set(b)).components(), key=min):
            if frozenset(x for v in comp for x in g.neighbors(v)) - comp == set(b):
                yield ProtrusionDecomposition(g.vertices - comp,
                                              (_part_for(inst, comp),), 3,
                                              certified=False), len(inner)


def test_candidate_sets_match_the_reference_on_adjacent_boundaries():
    # the corpora above almost never give a part a boundary holding an
    # edge, the case where kept edges and blocks fall in one class
    found = Counter()
    for variant, size, edges in ((CONNECTED, 2, 1), (PLAIN, 3, 2)):
        for inst in random_corpus(15, 70_000, n_lo=4, n_hi=6,
                                  variants=(variant,)):
            for pd, m in islice(_adjacent_boundary_parts(inst, size, edges), 3):
                assert compute_candidate_sets(inst, pd) == \
                    ref_candidate_sets(inst, pd)
                found[variant, m] += 1
    assert found[CONNECTED, 1] >= 30, found
    assert found[PLAIN, 2] + found[PLAIN, 3] >= 20 and found[PLAIN, 3] >= 1, found


def test_candidates_trivial_decomposition_take_everything():
    inst = cycle_instance(4, 1, k_e=2, cost_budget=2)
    g = inst.graph
    cs = compute_candidate_sets(
        inst, ProtrusionDecomposition(g.vertices, (), 3, certified=g.n <= 3))
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
    g = inst.graph
    cs = compute_candidate_sets(
        inst, ProtrusionDecomposition(g.vertices, (), 3, certified=g.n <= 3))
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
