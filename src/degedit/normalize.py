"""The rewrite state shared by every rule, and instance normalization.

``KernelState`` is the one state both rule sets rewrite: the current
instance, the candidate sets W and L (empty during normalization), the next
id the kernel rules mint, and the event log.  A rule is a handler on that
state; it either changes the instance through ``commit``, decides it
through ``decide``, or reports that it does not apply.  ``KernelState.run``
is the one fixpoint loop over an ordered list of handlers, for the
normalization rules here and for each reduction phase in ``kernelize``.

A normalized instance satisfies two output conditions: every degree lies in
the window ``[delta(v), delta(v) + k_v + k_e]``, and every vertex already at
its target degree has a neighbour that is not.  Normalization runs six
safe rewrite rules (decide-yes, forced vertex deletion, contraction of
satisfied clusters, isolate removal, plus the connected variants of the
decision rules), four per variant in the order of ``_RULE_ORDER``, through
``KernelState.run`` until none applies; each rule either decides the
instance or removes exactly one vertex, so the process terminates.  The
log holds steps, not instances, and a yes-decision's witness is read back
from it and the instance decided on.
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
class RuleEvent:
    """One rewrite step, never an instance: the rule, its site, and the
    decision or the id a ``contraction`` mints (kernel rules put theirs in
    the site)."""
    rule: str
    site: tuple
    decided: str | None = None
    minted: int | None = None


@dataclass(frozen=True)
class NormalizeOutcome:
    kind: str
    instance: Instance | None = None
    witness: Solution | None = None
    log: tuple[RuleEvent, ...] = field(default_factory=tuple)


@dataclass
class KernelState:
    """An instance under rewriting, with W, L and the log of its steps."""
    inst: Instance
    w: set[int] = field(default_factory=set)
    l: set[tuple[int, int]] = field(default_factory=set)
    events: list[RuleEvent] = field(default_factory=list)
    decided: str | None = None
    next_id: int = field(init=False)  # first id the kernel rules may mint

    def __post_init__(self):
        self.next_id = max(self.inst.graph.vertices, default=0) + 1

    def commit(self, rule: str, site: tuple, inst: Instance, minted=None) -> str:
        """Make ``inst`` the current instance, keep W and L inside it, log."""
        self.events.append(RuleEvent(rule, site, minted=minted))
        self.inst = inst
        g = inst.graph
        self.w = {v for v in self.w if g.has_vertex(v)}
        self.l = {e for e in self.l if g.has_edge(*e)}
        return CHANGED

    def decide(self, rule: str, site: tuple, verdict: str) -> str:
        self.events.append(RuleEvent(rule, site, verdict))
        self.decided = verdict
        return verdict

    def run(self, handlers) -> None:
        """Apply the first handler that applies, then start again from the
        first; stop when none applies or one decides the instance."""
        while self.decided is None:
            if all(rule(self) == NOT_APPLICABLE for rule in handlers):
                return

    def satisfied(self) -> set[int]:
        g = self.inst.graph
        return {v for v in g.vertices
                if g.degree(v) == self.inst.delta[v] and v not in self.w}

    def unsatisfied(self) -> set[int]:
        g = self.inst.graph
        return {v for v in g.vertices
                if g.degree(v) > self.inst.delta[v] and v not in self.w}


def satisfied_vertices(inst: Instance) -> set[int]:
    g = inst.graph
    return {v for v in g.vertices if g.degree(v) == inst.delta[v]}


def is_normalized(inst: Instance) -> bool:
    if not inst.in_degree_window():
        return False
    g = inst.graph
    sat = satisfied_vertices(inst)
    return all(any(u not in sat for u in g.neighbors(v)) for v in sat)


# -- the six rules, each at its first site in ascending vertex order ----------


def _rule_yes_instance(state: KernelState) -> str:
    if len(state.satisfied()) == state.inst.graph.n:
        return state.decide(YES_INSTANCE, (), DECIDED_YES)
    return NOT_APPLICABLE


def _rule_yes_instance_connected(state: KernelState) -> str:
    g = state.inst.graph
    if len(state.satisfied()) == g.n and g.is_connected():
        return state.decide(YES_INSTANCE_CONNECTED, (), DECIDED_YES)
    return NOT_APPLICABLE


def _rule_vertex_deletion(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    span = inst.k_v + inst.k_e
    for v in g.sorted_vertices():
        if g.degree(v) < inst.delta[v] or g.degree(v) > inst.delta[v] + span:
            out = delete_vertices(inst, [v], charge=True)
            if out is None:
                return state.decide(VERTEX_DELETION, (v,), DECIDED_NO)
            return state.commit(VERTEX_DELETION, (v,), out)
    return NOT_APPLICABLE


def _rule_contraction(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    sat = state.satisfied()
    for v in g.sorted_vertices():
        if v in sat and g.degree(v) >= 1 and g.neighbors(v) <= sat:
            # contract v with its least neighbour into a fresh vertex whose
            # whole neighbourhood becomes undeletable; every common
            # neighbour is satisfied and loses one degree
            u = min(g.neighbors(v))
            z = max(g.vertices) + 1
            return state.commit(CONTRACTION, (u, v), contract(
                inst, u, v, z, slack=0, rigid=False, inherit=False), z)
    return NOT_APPLICABLE


def _rule_isolates_removal(state: KernelState) -> str:
    g = state.inst.graph
    for v in g.sorted_vertices():
        if g.degree(v) == 0:
            return state.commit(ISOLATES_REMOVAL, (v,),
                                delete_vertices(state.inst, [v], charge=False))
    return NOT_APPLICABLE


def _rule_isolates_removal_connected(state: KernelState) -> str:
    inst = state.inst
    g = inst.graph
    for v in g.sorted_vertices():
        if g.degree(v) == 0:
            # deleting everything but v leaves a connected graph
            rest = g.vertices - {v}
            if (sum(inst.weight_v[x] for x in rest) <= inst.k_v
                    and sum(inst.cost_v[x] for x in rest) <= inst.cost_budget):
                return state.decide(ISOLATES_REMOVAL_CONNECTED, (v,), DECIDED_YES)
            out = delete_vertices(inst, [v], charge=True)
            if out is None:
                return state.decide(ISOLATES_REMOVAL_CONNECTED, (v,), DECIDED_NO)
            return state.commit(ISOLATES_REMOVAL_CONNECTED, (v,), out)
    return NOT_APPLICABLE


_RULE_HANDLERS = {
    YES_INSTANCE: _rule_yes_instance,
    VERTEX_DELETION: _rule_vertex_deletion,
    CONTRACTION: _rule_contraction,
    ISOLATES_REMOVAL: _rule_isolates_removal,
    YES_INSTANCE_CONNECTED: _rule_yes_instance_connected,
    ISOLATES_REMOVAL_CONNECTED: _rule_isolates_removal_connected,
}


_RULE_ORDER = {
    PLAIN: (YES_INSTANCE, VERTEX_DELETION, CONTRACTION, ISOLATES_REMOVAL),
    CONNECTED: (YES_INSTANCE_CONNECTED, VERTEX_DELETION, CONTRACTION,
                ISOLATES_REMOVAL_CONNECTED),
}


def apply_rule(state: KernelState, rule: str) -> str:
    """Apply one rule at its first site; mutates the state and logs."""
    if rule not in _RULE_HANDLERS:
        raise ValueError(f"unknown rule: {rule!r}")
    variant = state.inst.variant
    if rule not in _RULE_ORDER[variant]:
        other = CONNECTED if variant == PLAIN else PLAIN
        raise ValueError(f"rule {rule!r} only applies to the {other} variant")
    return _RULE_HANDLERS[rule](state)


def _lift_witness(log: tuple[RuleEvent, ...], last: Instance) -> frozenset[int]:
    """The vertices a yes-decided log deletes, in its first instance's ids;
    ``last`` is the instance the decision was taken on.

    Read newest event first, so every id means the vertex it named at that
    step: a connected isolate decision deletes all but its site, a charged
    deletion adds its site, and a contraction gives back its two ends for
    the one vertex it minted.
    """
    decision = log[-1]
    out = set()
    if decision.rule == ISOLATES_REMOVAL_CONNECTED:
        out = set(last.graph.vertices) - set(decision.site)
    for ev in reversed(log[:-1]):
        if ev.rule == CONTRACTION:
            if ev.minted in out:
                out.remove(ev.minted)
                out.update(ev.site)
        elif ev.rule in (VERTEX_DELETION, ISOLATES_REMOVAL_CONNECTED):
            out.add(ev.site[0])
    return frozenset(out)


def normalize(inst: Instance) -> NormalizeOutcome:
    """Exhaust the rewrite rules; decide the instance or emit normal form.

    One ``KernelState.run`` over the variant's rules in ``_RULE_ORDER``:
    after each change the rules restart from the first one in order.
    Decisions carry witnesses lifted back to the original vertex ids.
    """
    state = KernelState(inst)
    state.run([_RULE_HANDLERS[rule] for rule in _RULE_ORDER[inst.variant]])
    log = tuple(state.events)
    if state.decided is None:
        return NormalizeOutcome(NORMALIZED, instance=state.inst, log=log)
    if state.decided == DECIDED_YES:
        witness = Solution.of(inst, _lift_witness(log, state.inst))
        return NormalizeOutcome(DECIDED_YES, witness=witness, log=log)
    return NormalizeOutcome(DECIDED_NO, log=log)
