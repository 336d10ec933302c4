import random
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from degedit.generator import generate_random_planar_instance
from degedit.graph import Graph
from degedit.instance import CONNECTED, PLAIN, Instance
from degedit.normalize import KernelState
from degedit.oracle import DEFAULT_EDGE_CAP, DEFAULT_VERTEX_CAP


@dataclass(frozen=True)
class Step:
    """A logged rule step with the instances it went between; ``after`` is
    None for a decision."""
    rule: str
    site: tuple
    decided: str | None
    minted: int | None
    before: Instance
    after: Instance | None


@contextmanager
def recording():
    """Patch ``KernelState.commit`` and ``decide`` to keep, for every step
    they log, the instance before it and the one after; yields the list of
    ``Step``s in the order they were logged."""
    steps = []
    commit, decide = KernelState.commit, KernelState.decide

    def record(state, before, after):
        ev = state.events[-1]
        steps.append(Step(ev.rule, ev.site, ev.decided, ev.minted, before, after))

    def recording_commit(self, rule, site, inst, minted=None):
        before = self.inst
        out = commit(self, rule, site, inst, minted)
        record(self, before, inst)
        return out

    def recording_decide(self, rule, site, verdict):
        before = self.inst
        out = decide(self, rule, site, verdict)
        record(self, before, None)
        return out

    KernelState.commit, KernelState.decide = recording_commit, recording_decide
    try:
        yield steps
    finally:
        KernelState.commit, KernelState.decide = commit, decide


def recorded(run, *args, **kwargs):
    """``run(*args, **kwargs)`` (``normalize``, ``kernelize``, ...) under
    ``recording``: its result and one ``Step`` per event of the result's
    log, paired by position."""
    with recording() as steps:
        out = run(*args, **kwargs)
    assert [(s.rule, s.site, s.decided, s.minted) for s in steps] == \
        [(ev.rule, ev.site, ev.decided, ev.minted) for ev in out.log]
    return out, steps


def random_corpus(count, base_seed, n_lo=1, n_hi=9, k_sum_max=3, raw=False,
                  variants=(PLAIN, CONNECTED), cost_hi=6):
    """Seeded random instances kept within the oracle's default caps."""
    rng = random.Random(base_seed)
    out = []
    attempt = 0
    while len(out) < count:
        k_v = rng.randint(0, k_sum_max)
        k_e = rng.randint(0, k_sum_max - k_v)
        inst = generate_random_planar_instance(
            rng.randint(n_lo, n_hi), k_v, k_e, rng.randint(0, cost_hi),
            rng.choice(variants), seed=base_seed + attempt, raw=raw)
        attempt += 1
        if inst.graph.n <= DEFAULT_VERTEX_CAP and inst.graph.m <= DEFAULT_EDGE_CAP:
            out.append(inst)
    return out


# Draws of a deletion pair before ``planted_yes`` gives up.  Every call in
# the tests returns on its first draw; over n = 3..12, seven budget pairs
# up to 3 and seeds 0..5, a call that returns within 2,000 draws needs at
# most 55.  On some triangles and K4s no draw leaves the survivor connected.
PLANTED_DRAWS = 1_000


def planted_yes(n, k_v, k_e, variant, seed):
    """Yes-instance on a stacked triangulation of n >= 3 vertices (treewidth
    at most 3), the plain variant on a random 70% of its edges: a random
    deletion pair within the budgets (the survivor connected in the
    connected variant) is planted, survivors get their degree after it as
    target, deleted vertices an arbitrary one, and the cost budget is the
    pair's cost.  ``_planted`` in test_dpsolve.py, at given size and
    budgets and without its nudged targets.  Raises ValueError when no
    draw of ``PLANTED_DRAWS`` leaves a connected survivor."""
    rng = random.Random(seed)
    vertices = range(1, n + 1)
    faces, edges = [(1, 2, 3)], {(1, 2), (1, 3), (2, 3)}
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
        edges |= {(a, v), (b, v), (c, v)}
    edges = sorted(edges)
    if variant == PLAIN:
        edges = [e for e in edges if rng.random() < 0.7]
    weight_v = {v: rng.choice((1, 1, 2)) for v in vertices}
    weight_e = {e: rng.choice((1, 1, 2)) for e in edges}
    for _ in range(PLANTED_DRAWS):
        gone = pick_within(vertices, weight_v, k_v, rng)
        live = [e for e in edges if not gone & set(e)]
        kept = sorted(set(live) - pick_within(live, weight_e, k_e, rng))
        if variant == PLAIN or Graph(set(vertices) - gone, kept).is_connected():
            break
    else:
        raise ValueError(
            f"planted_yes({n}, {k_v}, {k_e}, {variant!r}, {seed}): no draw "
            f"of {PLANTED_DRAWS} leaves the survivor connected")
    deg = {v: 0 for v in vertices}
    for a, b in kept:
        deg[a] += 1
        deg[b] += 1
    delta = {v: rng.randint(0, deg[v] + 3) if v in gone else deg[v]
             for v in vertices}
    cost_v = {v: rng.randint(0, 2) for v in vertices}
    cost_e = {e: rng.randint(0, 2) for e in edges}
    cut = set(live) - set(kept)
    return make_instance(
        vertices, edges, delta, k_v, k_e,
        sum(cost_v[v] for v in gone) + sum(cost_e[e] for e in cut), variant,
        weight_v=weight_v, weight_e=weight_e, cost_v=cost_v, cost_e=cost_e)


def pick_within(items, weight, budget, rng):
    """Random items, taken while their weight fits the budget."""
    chosen = set()
    for x in rng.sample(list(items), len(items)):
        if weight[x] <= budget:
            chosen.add(x)
            budget -= weight[x]
    return chosen


def make_instance(vertices, edges, delta, k_v=0, k_e=0, cost_budget=0,
                  variant=PLAIN, weight_v=None, weight_e=None,
                  cost_v=None, cost_e=None):
    """Instance builder with uniform defaults: weights 1, costs 1."""
    g = Graph(vertices, edges)
    if isinstance(delta, int):
        delta = {v: delta for v in g.vertices}
    wv = weight_v if weight_v is not None else {v: 1 for v in g.vertices}
    cv = cost_v if cost_v is not None else {v: 1 for v in g.vertices}
    we = weight_e if weight_e is not None else {e: 1 for e in g.edge_set()}
    ce = cost_e if cost_e is not None else {e: 1 for e in g.edge_set()}
    return Instance(g, delta, wv, we, cv, ce, k_v, k_e, cost_budget, variant)


def path_instance(n, delta, **kw):
    return make_instance(range(1, n + 1), [(i, i + 1) for i in range(1, n)],
                         delta, **kw)


def cycle_instance(n, delta, **kw):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return make_instance(range(1, n + 1), edges, delta, **kw)


@pytest.fixture
def rng():
    return random.Random(0xDE6ED1)
