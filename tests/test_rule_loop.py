"""Differential tests of the one rule loop, ``KernelState.run``.

The three loops it replaced (normalize's own loop, ``_exhaust`` and
``_exhaust_then``) are kept here as references, and the rules' edits are
routed through the reference edits of ``test_instance_edits`` composed the
way the rules once composed them.  Every run is compared event by event:
rule, site, decision and minted id, ``write_instance`` of each before and
after instance (kept by ``conftest.recording``), and every iteration order
they expose.
"""

from degedit import kernelize as kz
from degedit import normalize as nz
from degedit.instance import Instance, Solution
from degedit.io import write_instance
from degedit.kernelize import KERNEL_RULES, format_trace, kernelize
from degedit.normalize import (CHANGED, DECIDED_YES, NORMALIZE_RULES,
                               NORMALIZED, NOT_APPLICABLE, KernelState,
                               NormalizeOutcome, apply_rule)

import forges
from conftest import path_instance, random_corpus, recorded
from test_instance_edits import (layout, ref_add_undeletable_pendant,
                                 ref_contract_slack, ref_delete_edges,
                                 ref_delete_vertices, ref_with_delta)

# -- the replaced loops --------------------------------------------------------

PARENT_NORMALIZE_ORDER = {
    "plain": (nz.YES_INSTANCE, nz.VERTEX_DELETION, nz.CONTRACTION,
              nz.ISOLATES_REMOVAL),
    "connected": (nz.YES_INSTANCE_CONNECTED, nz.VERTEX_DELETION, nz.CONTRACTION,
                  nz.ISOLATES_REMOVAL_CONNECTED),
}


def ref_normalize(inst):
    state = KernelState(inst)
    order = PARENT_NORMALIZE_ORDER[inst.variant]
    while state.decided is None:
        if all(apply_rule(state, rule) == NOT_APPLICABLE for rule in order):
            return NormalizeOutcome(NORMALIZED, instance=state.inst,
                                    log=tuple(state.events))
    log = tuple(state.events)
    if state.decided == DECIDED_YES:
        return NormalizeOutcome(DECIDED_YES, log=log, witness=Solution.of(
            inst, nz._lift_witness(log, state.inst)))
    return NormalizeOutcome(state.decided, log=log)


def ref_exhaust(state, rule):
    while state.decided is None:
        if kz._RULE_HANDLERS[rule](state) != CHANGED:
            break


def ref_exhaust_then(state, rule, then):
    while state.decided is None:
        ref_exhaust(state, rule)
        if state.decided or kz._RULE_HANDLERS[then](state) != CHANGED:
            break


def ref_reduce_dpggd(inst, cs):
    state = KernelState(inst, set(cs.vertices), set(cs.edges))
    for rule in ("set-adjustment", "weight-adjustment", "s-reduction",
                 "t-prime-reduction", "twin-reduction"):
        ref_exhaust(state, rule)
    return state


def ref_reduce_dcpggd(inst, cs):
    state = KernelState(inst, set(cs.vertices), set(cs.edges))
    ref_exhaust_then(state, "set-adjustment-c", "vertex-deletion-c")
    for rule in ("s-neighbour", "s-contraction-1", "stopping",
                 "weight-adjustment-c"):
        ref_exhaust(state, rule)
    ref_exhaust_then(state, "s-deletion", "s-contraction-2")
    ref_exhaust_then(state, "t-prime-deletion", "t-prime-contraction")
    return state


# -- the replaced edits --------------------------------------------------------


def ref_delete_vertices_with(inst, vs, *, charge, delta_updates=None):
    # targets were set by with_delta ahead of the deletion
    if delta_updates:
        inst = ref_with_delta(inst, delta_updates)
    return ref_delete_vertices(inst, vs, charge=charge)


def _use_reference(monkeypatch):
    for module in (nz, kz):
        monkeypatch.setattr(module, "delete_vertices", ref_delete_vertices_with)
        monkeypatch.setattr(module, "contract", ref_contract_slack)
    monkeypatch.setattr(kz, "delete_edges", ref_delete_edges)
    monkeypatch.setattr(kz, "add_pendant", ref_add_undeletable_pendant)
    monkeypatch.setattr(kz, "normalize", ref_normalize)
    monkeypatch.setattr(kz, "reduce_dpggd", ref_reduce_dpggd)
    monkeypatch.setattr(kz, "reduce_dcpggd", ref_reduce_dcpggd)


# -- comparison ----------------------------------------------------------------


def _shape(inst):
    return None if inst is None else (write_instance(inst), layout(inst))


def _record(inst, dom):
    # kernelize's log starts with normalize's, so only the witness of a
    # decided normalization is read from normalize itself
    out = kz.normalize(inst)
    res, steps = recorded(kernelize, inst, domset=dom)
    events = [(ev.rule, ev.site, ev.decided, ev.minted, _shape(ev.before),
               _shape(ev.after)) for ev in steps]
    sets = [None if s is None else list(s)
            for s in (res.final_w, res.final_l, res.final_s)]
    return (out.witness, res.kind, res.certified, format_trace(res.log), events,
            _shape(res.instance), res.candidates, sets)


def _corpus():
    runs = [fn(seed) for _, fn in forges.FAMILIES for seed in range(4)]
    runs += [(inst, None) for inst in
             random_corpus(80, 91_000, n_lo=4, n_hi=12, raw=True)
             + random_corpus(80, 92_000, n_lo=4, n_hi=12)]
    return runs


def test_rule_loop_and_edits_match_the_replaced_ones(monkeypatch):
    runs = _corpus()
    new = [_record(inst, dom) for inst, dom in runs]
    with monkeypatch.context() as m:
        _use_reference(m)
        old = [_record(inst, dom) for inst, dom in runs]
    fired = set()
    for (inst, _), a, b in zip(runs, new, old):
        assert a == b, write_instance(inst)
        fired.update(ev[0] for ev in a[4])
    every = set(NORMALIZE_RULES) | set(KERNEL_RULES)
    assert fired == every, every - fired
    assert any(rec[0] is not None for rec in new)  # some witness compared


def test_run_restarts_from_the_first_handler_and_stops_at_a_decision():
    calls = []

    def make(name, results):
        def handler(state):
            calls.append(name)
            out = results.pop(0) if results else NOT_APPLICABLE
            if out not in (CHANGED, NOT_APPLICABLE):
                state.decided = out
            return out
        return handler

    state = KernelState(path_instance(3, 1))
    state.run([make("a", [CHANGED]), make("b", [CHANGED, CHANGED]), make("c", [])])
    assert calls == ["a", "a", "b", "a", "b", "a", "b", "c"]
    assert state.decided is None
    calls.clear()
    state.run([make("a", [CHANGED]), make("b", [DECIDED_YES]), make("c", [])])
    assert calls == ["a", "a", "b"] and state.decided == DECIDED_YES
    state.run([make("a", [CHANGED])])
    assert calls == ["a", "a", "b"]


# -- one edit per step ---------------------------------------------------------

# rules whose step is one edit; the W/L adjustments commit the instance they
# found, and two rules chain edits
SINGLE_EDIT = {nz.VERTEX_DELETION, nz.CONTRACTION, nz.ISOLATES_REMOVAL,
               nz.ISOLATES_REMOVAL_CONNECTED, "weight-adjustment", "s-reduction",
               "t-prime-reduction", "twin-reduction", "vertex-deletion-c",
               "s-contraction-1", "weight-adjustment-c", "s-deletion",
               "t-prime-deletion"}
NO_EDIT = {"set-adjustment", "set-adjustment-c"}


def test_each_single_edit_rule_commits_exactly_one_instance(monkeypatch):
    built = [0]
    post_init = Instance.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    steps = []

    def counted(rule, handler):
        def run(state):
            start = built[0]
            out = handler(state)
            if out == CHANGED:
                steps.append((rule, state.events[-1].site, built[0] - start))
            return out
        return run

    monkeypatch.setattr(Instance, "__post_init__", counting)
    for table in (nz._RULE_HANDLERS, kz._RULE_HANDLERS):
        for rule, handler in list(table.items()):
            monkeypatch.setitem(table, rule, counted(rule, handler))
    for inst, dom in _corpus():
        kernelize(inst, domset=dom)
    seen = {rule for rule, _, _ in steps}
    assert SINGLE_EDIT | NO_EDIT <= seen, (SINGLE_EDIT | NO_EDIT) - seen
    for rule, site, count in steps:
        if rule in SINGLE_EDIT:
            assert count == 1, (rule, site, count)
        elif rule in NO_EDIT:
            assert count == 0, (rule, site, count)
        elif rule == "s-contraction-2":
            # an edge deletion and a pendant per minted path, then the merge
            assert count == 1 + 2 * (len(site) - 3), (rule, site, count)
        else:
            assert rule == "t-prime-contraction" and count == 2, (rule, count)


def test_kernel_rules_read_off_the_phase_tables():
    assert KERNEL_RULES == (
        "set-adjustment", "weight-adjustment", "s-reduction",
        "t-prime-reduction", "twin-reduction", "set-adjustment-c",
        "vertex-deletion-c", "s-neighbour", "s-contraction-1", "stopping",
        "weight-adjustment-c", "s-deletion", "s-contraction-2",
        "t-prime-deletion", "t-prime-contraction")
    assert set(KERNEL_RULES) == set(kz._RULE_HANDLERS)
