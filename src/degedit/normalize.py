"""Instance normalization: decide easy instances or shrink to normal form.

A normalized instance satisfies two output conditions: every degree lies in
the window ``[delta(v), delta(v) + k_v + k_e]``, and every vertex already at
its target degree has a neighbour that is not.  Normalization repeatedly
applies six safe rewrite rules (decide-yes, forced vertex deletion,
contraction of satisfied clusters, isolate removal, plus the connected
variants of the decision rules) until none applies; each rule either decides
the instance or removes exactly one vertex, so the process terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instance import (CONNECTED, PLAIN, Instance, Solution, contract,
                       delete_vertices)

YES_INSTANCE = "yes-instance"
VERTEX_DELETION = "vertex-deletion"
CONTRACTION = "contraction"
ISOLATES_REMOVAL = "isolates-removal"
YES_INSTANCE_CONNECTED = "yes-instance-connected"
ISOLATES_REMOVAL_CONNECTED = "isolates-removal-connected"

NORMALIZE_RULES = (YES_INSTANCE, VERTEX_DELETION, CONTRACTION, ISOLATES_REMOVAL,
                   YES_INSTANCE_CONNECTED, ISOLATES_REMOVAL_CONNECTED)

CHANGED = "changed"
DECIDED_YES = "decided-yes"
DECIDED_NO = "decided-no"
NOT_APPLICABLE = "not-applicable"
NORMALIZED = "normalized"


@dataclass(frozen=True)
class StepResult:
    kind: str
    instance: Instance | None = None
    witness: Solution | None = None
    site: tuple = ()
    # bookkeeping for witness lifting: ("contract", z, u, v) or ("charged", v)
    note: tuple = ()


@dataclass(frozen=True)
class RuleEvent:
    """One rewrite step: an instance transition or a decision."""
    rule: str
    site: tuple
    before: Instance
    after: Instance | None
    decided: str | None = None


@dataclass(frozen=True)
class NormalizeOutcome:
    kind: str
    instance: Instance | None = None
    witness: Solution | None = None
    log: tuple[RuleEvent, ...] = field(default_factory=tuple)


def satisfied_vertices(inst: Instance) -> set[int]:
    g = inst.graph
    return {v for v in g.vertices if g.degree(v) == inst.delta[v]}


def is_normalized(inst: Instance) -> bool:
    g = inst.graph
    span = inst.k_v + inst.k_e
    sat = satisfied_vertices(inst)
    for v in g.vertices:
        if not inst.delta[v] <= g.degree(v) <= inst.delta[v] + span:
            return False
    for v in sat:
        if not any(u not in sat for u in g.neighbors(v)):
            return False
    return True


def apply_rule(inst: Instance, rule: str) -> StepResult:
    """Apply one rule at its first applicable site in ascending vertex order."""
    g = inst.graph
    if rule in (YES_INSTANCE, ISOLATES_REMOVAL) and inst.variant != PLAIN:
        raise ValueError(f"rule {rule!r} only applies to the plain variant")
    if rule in (YES_INSTANCE_CONNECTED, ISOLATES_REMOVAL_CONNECTED) \
            and inst.variant != CONNECTED:
        raise ValueError(f"rule {rule!r} only applies to the connected variant")

    if rule == YES_INSTANCE:
        if satisfied_vertices(inst) == set(g.vertices):
            return StepResult(DECIDED_YES, witness=Solution.of(inst), site=())
        return StepResult(NOT_APPLICABLE)

    if rule == YES_INSTANCE_CONNECTED:
        if satisfied_vertices(inst) == set(g.vertices) and g.is_connected():
            return StepResult(DECIDED_YES, witness=Solution.of(inst), site=())
        return StepResult(NOT_APPLICABLE)

    if rule == VERTEX_DELETION:
        span = inst.k_v + inst.k_e
        for v in g.sorted_vertices():
            if g.degree(v) < inst.delta[v] or g.degree(v) > inst.delta[v] + span:
                out = delete_vertices(inst, [v], charge=True)
                if out is None:
                    return StepResult(DECIDED_NO, site=(v,))
                return StepResult(CHANGED, instance=out, site=(v,),
                                  note=("charged", v))
        return StepResult(NOT_APPLICABLE)

    if rule == CONTRACTION:
        sat = satisfied_vertices(inst)
        for v in g.sorted_vertices():
            if v in sat and g.degree(v) >= 1 and g.neighbors(v) <= sat:
                # contract v with its least neighbour into a fresh vertex
                # whose whole neighbourhood becomes undeletable; every common
                # neighbour is satisfied and loses one degree
                u = min(g.neighbors(v))
                z = max(g.vertices) + 1
                nu, nv = g.neighbors(u), g.neighbors(v)
                out = contract(
                    inst, u, v, z, delta_z=len((nu | nv) - {u, v}),
                    weight_z=inst.weight_v[u] + inst.weight_v[v],
                    cost_z=inst.cost_v[u] + inst.cost_v[v],
                    edge_policy=("fixed", inst.k_e + 1, 0),
                    delta_updates={x: inst.delta[x] - 1 for x in nu & nv})
                return StepResult(CHANGED, instance=out, site=(u, v),
                                  note=("contract", z, u, v))
        return StepResult(NOT_APPLICABLE)

    if rule == ISOLATES_REMOVAL:
        for v in g.sorted_vertices():
            if g.degree(v) == 0:
                out = delete_vertices(inst, [v], charge=False)
                return StepResult(CHANGED, instance=out, site=(v,))
        return StepResult(NOT_APPLICABLE)

    if rule == ISOLATES_REMOVAL_CONNECTED:
        for v in g.sorted_vertices():
            if g.degree(v) == 0:
                rest = sorted(g.vertices - {v})
                if (sum(inst.weight_v[x] for x in rest) <= inst.k_v
                        and sum(inst.cost_v[x] for x in rest) <= inst.cost_budget):
                    return StepResult(
                        DECIDED_YES, witness=Solution.of(inst, rest), site=(v,))
                out = delete_vertices(inst, [v], charge=True)
                if out is None:
                    return StepResult(DECIDED_NO, site=(v,))
                return StepResult(CHANGED, instance=out, site=(v,),
                                  note=("charged", v))
        return StepResult(NOT_APPLICABLE)

    raise ValueError(f"unknown rule: {rule!r}")


def _rule_order(variant: str) -> tuple[str, ...]:
    if variant == CONNECTED:
        return (YES_INSTANCE_CONNECTED, VERTEX_DELETION, CONTRACTION,
                ISOLATES_REMOVAL_CONNECTED)
    return (YES_INSTANCE, VERTEX_DELETION, CONTRACTION, ISOLATES_REMOVAL)


def _lift(witness_vertices: set[int], charged: list[int],
          contractions: dict[int, tuple[int, int]]) -> frozenset[int]:
    """Map a deletion set back to original vertex ids through contractions."""
    out = set(witness_vertices) | set(charged)
    changed = True
    while changed:
        changed = False
        for z in list(out):
            if z in contractions:
                out.remove(z)
                out.update(contractions[z])
                changed = True
    return frozenset(out)


def normalize(inst: Instance) -> NormalizeOutcome:
    """Exhaust the rewrite rules; decide the instance or emit normal form.

    Decisions carry witnesses lifted back to the original vertex ids.
    """
    original = inst
    events: list[RuleEvent] = []
    charged: list[int] = []
    contractions: dict[int, tuple[int, int]] = {}
    order = _rule_order(inst.variant)
    while True:
        for rule in order:
            res = apply_rule(inst, rule)
            if res.kind == NOT_APPLICABLE:
                continue
            if res.kind == CHANGED:
                events.append(RuleEvent(rule, res.site, inst, res.instance))
                if res.note and res.note[0] == "charged":
                    charged.append(res.note[1])
                elif res.note and res.note[0] == "contract":
                    contractions[res.note[1]] = (res.note[2], res.note[3])
                inst = res.instance
                break
            events.append(RuleEvent(rule, res.site, inst, None, res.kind))
            if res.kind == DECIDED_YES:
                lifted = _lift(set(res.witness.deleted_vertices),
                               charged, contractions)
                return NormalizeOutcome(
                    DECIDED_YES, witness=Solution.of(original, lifted),
                    log=tuple(events))
            return NormalizeOutcome(DECIDED_NO, log=tuple(events))
        else:
            return NormalizeOutcome(NORMALIZED, instance=inst, log=tuple(events))
