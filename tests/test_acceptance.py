"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Corpora are seeded and shared module-wide: suite 1 holds at least 500
solvable-window instances per variant within the oracle caps; suite 2
kernelizes the same corpus.  Rule-level checks pool one-step rewrite steps,
with the instances ``conftest.recording`` keeps for them, from those runs
plus shaped families for the rules random instances rarely reach.
"""

import random
import time
from collections import defaultdict

import pytest

from degedit.dpsolve import solve_auto
from degedit.generator import generate_random_planar_instance
from degedit.graph import is_planar
from degedit.instance import CONNECTED, PLAIN, check_solution, is_efficient
from degedit.io import write_instance
from degedit.kernelize import (KERNEL, KERNEL_RULES, format_trace, kernelize,
                               size_bound_report)
from degedit.normalize import (DECIDED_NO, DECIDED_YES, NORMALIZE_RULES,
                               NORMALIZED, is_normalized, normalize)
from degedit.oracle import brute_force_min_cost

import forges
from conftest import recorded

PER_VARIANT = 500
RULE_SAMPLES = 200
SEED = 0xACCE97


def _window_corpus(variant, count, base_seed):
    rng = random.Random(base_seed)
    out = []
    attempt = 0
    while len(out) < count:
        k_v = rng.randint(0, 3)
        k_e = rng.randint(0, 3 - k_v)
        inst = generate_random_planar_instance(
            rng.randint(2, 10), k_v, k_e, rng.randint(0, 6), variant,
            seed=base_seed + attempt)
        attempt += 1
        if inst.graph.n <= 12 and inst.graph.m <= 18 and inst.in_degree_window():
            out.append(inst)
    return out


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f": {detail}" if detail else ""
    print(f"criterion {num} [{status}] {name}{tail}")
    return ok


@pytest.fixture(scope="module")
def suite1():
    return (_window_corpus(PLAIN, PER_VARIANT, SEED)
            + _window_corpus(CONNECTED, PER_VARIANT, SEED + 10_000))


@pytest.fixture(scope="module")
def oracle_reports(suite1):
    return [brute_force_min_cost(inst) for inst in suite1]


@pytest.fixture(scope="module")
def kernel_runs(suite1):
    """(instance, result, recorded steps of the result's log) per instance."""
    return [(inst, *recorded(kernelize, inst)) for inst in suite1]


def _event_safe(ev):
    before = brute_force_min_cost(ev.before, vertex_cap=18, edge_cap=40)
    if ev.decided == DECIDED_YES:
        return before.feasible
    if ev.decided == DECIDED_NO:
        return not before.feasible
    after = brute_force_min_cost(ev.after, vertex_cap=20, edge_cap=44)
    return before.feasible == after.feasible


@pytest.fixture(scope="module")
def rule_events(kernel_runs):
    pool = defaultdict(list)

    def harvest(events):
        for ev in events:
            if len(pool[ev.rule]) < RULE_SAMPLES:
                pool[ev.rule].append(ev)

    for _, _, steps in kernel_runs:
        harvest(steps)
    all_rules = list(NORMALIZE_RULES) + list(KERNEL_RULES)

    def unfilled():
        return [r for r in all_rules if len(pool[r]) < RULE_SAMPLES]

    # shaped families for the rules random corpora rarely reach
    for seed in range(RULE_SAMPLES + 60):
        if not unfilled():
            break
        for _, fn in forges.FAMILIES:
            inst, dom = fn(seed)
            harvest(recorded(kernelize, inst, domset=dom)[1])
    # top-up from extra random corpora, raw targets exercise normalization
    rng = random.Random(SEED + 77)
    attempt = 0
    while unfilled() and attempt < 30_000:
        raw = attempt % 2 == 0
        inst = generate_random_planar_instance(
            rng.randint(1, 10), rng.randint(0, 2), rng.randint(0, 2),
            rng.randint(0, 6), rng.choice((PLAIN, CONNECTED)),
            seed=SEED + 500_000 + attempt, raw=raw)
        attempt += 1
        if inst.graph.n > 12 or inst.graph.m > 18:
            continue
        harvest(recorded(normalize if raw else kernelize, inst)[1])
    return pool


def test_criterion_1_dp_matches_oracle(suite1, oracle_reports):
    t0 = time.time()
    bad = []
    for inst, rep in zip(suite1, oracle_reports):
        sol = solve_auto(inst)
        if rep.feasible != (sol is not None):
            bad.append((inst, "feasibility"))
        elif rep.feasible and rep.min_cost != sol.total_cost:
            bad.append((inst, "cost"))
        elif sol is not None and not (check_solution(inst, sol).ok
                                      and is_efficient(inst, sol)):
            bad.append((inst, "solution invalid"))
    ok = _verdict(1, "solver matches brute force on feasibility and cost",
                  not bad, f"{len(suite1)} instances, "
                  f"{len(bad)} disagreements, {time.time() - t0:.1f}s")
    assert ok, bad[:3]


def test_criterion_2_kernel_equivalence(suite1, oracle_reports, kernel_runs):
    t0 = time.time()
    bad = []
    for (inst, res, _), rep in zip(kernel_runs, oracle_reports):
        if res.kind == DECIDED_YES:
            after = True
        elif res.kind == DECIDED_NO:
            after = False
        else:
            after = brute_force_min_cost(
                res.instance, vertex_cap=24, edge_cap=48).feasible
        if rep.feasible != after:
            bad.append((inst, rep.feasible, res.kind))
    ok = _verdict(2, "kernelization preserves feasibility", not bad,
                  f"{len(kernel_runs)} instances, {len(bad)} disagreements, "
                  f"{time.time() - t0:.1f}s")
    assert ok, bad[:3]


def test_criterion_3_candidate_sets_cover_an_optimum(kernel_runs):
    checked = 0
    bad = []
    for inst, res, _ in kernel_runs:
        if res.candidates is None or res.normalized is None:
            continue
        rep = brute_force_min_cost(res.normalized)
        if not rep.feasible:
            continue
        checked += 1
        covered = any(sol.deleted_vertices <= res.candidates.vertices
                      and sol.deleted_edges <= res.candidates.edges
                      for sol in rep.optima)
        if not covered:
            bad.append(inst)
    ok = _verdict(3, "some minimum-cost solution stays inside the candidates",
                  not bad and checked > 0,
                  f"{checked} yes-instances, {len(bad)} misses")
    assert ok, bad[:3]


def test_criterion_4_single_rule_safety(rule_events):
    all_rules = list(NORMALIZE_RULES) + list(KERNEL_RULES)
    t0 = time.time()
    failures = []
    shortfall = {}
    for rule in all_rules:
        events = rule_events[rule][:RULE_SAMPLES]
        if len(events) < RULE_SAMPLES:
            shortfall[rule] = len(events)
        for ev in events:
            if not _event_safe(ev):
                failures.append((rule, ev.site))
    ok = _verdict(4, "every one-step rule application preserves feasibility",
                  not failures and not shortfall,
                  f"{len(all_rules)} rules x {RULE_SAMPLES} samples, "
                  f"{len(failures)} unsafe, shortfall {shortfall or 'none'}, "
                  f"{time.time() - t0:.1f}s")
    assert ok, (failures[:5], shortfall)


def test_criterion_5_normalized_output_contract(suite1):
    bad = []
    for inst in suite1:
        out = normalize(inst)
        if out.kind == NORMALIZED and not is_normalized(out.instance):
            bad.append(inst)
    ok = _verdict(5, "normalization output satisfies both conditions",
                  not bad, f"{len(suite1)} instances")
    assert ok, bad[:3]


def test_criterion_6_solution_footprint_dominates(suite1):
    checked = 0
    bad = []
    for inst in suite1:
        out = normalize(inst)
        if out.kind != NORMALIZED:
            continue
        rep = brute_force_min_cost(out.instance)
        if not rep.feasible:
            continue
        g = out.instance.graph
        for sol in rep.optima[:10]:
            footprint = set(sol.deleted_vertices)
            for a, b in sol.deleted_edges:
                footprint |= {a, b}
            checked += 1
            if g.ball(footprint, 2) != g.vertices:
                bad.append((inst, sol))
    ok = _verdict(6, "deleted elements 2-dominate normalized yes-instances",
                  not bad and checked > 100, f"{checked} solutions")
    assert ok, bad[:3]


def test_criterion_7_size_bounds_on_certified_runs(kernel_runs):
    checked = 0
    bad = []
    for inst, res, _ in kernel_runs:
        if res.kind != KERNEL or not res.certified:
            continue
        report = size_bound_report(res)
        checked += 1
        if not report.ok:
            bad.append((inst, report.violations))
    ok = _verdict(7, "certified kernels meet the counting bounds",
                  not bad and checked > 0,
                  f"{checked} certified kernels, {len(bad)} violations")
    assert ok, bad[:3]


def test_criterion_8_planarity_everywhere(kernel_runs):
    examined = 0
    bad = 0
    for inst, res, steps in kernel_runs:
        for ev in steps:
            if ev.after is not None:
                examined += 1
                if not is_planar(ev.after.graph):
                    bad += 1
        if res.kind == KERNEL:
            examined += 1
            if not is_planar(res.instance.graph):
                bad += 1
    ok = _verdict(8, "every intermediate and final instance is planar",
                  bad == 0 and examined > 0, f"{examined} instances examined")
    assert ok


def test_criterion_9_determinism(suite1):
    sample = suite1[::9]
    mismatch = 0
    for idx, inst in enumerate(sample):
        r1 = kernelize(inst)
        r2 = kernelize(inst)
        if format_trace(r1.log) != format_trace(r2.log):
            mismatch += 1
        if (r1.kind == KERNEL) != (r2.kind == KERNEL):
            mismatch += 1
        elif r1.kind == KERNEL and \
                write_instance(r1.instance) != write_instance(r2.instance):
            mismatch += 1
        s1, s2 = solve_auto(inst), solve_auto(inst)
        if (s1 is None) != (s2 is None):
            mismatch += 1
        elif s1 is not None and s1.canonical() != s2.canonical():
            mismatch += 1
    regen = (_window_corpus(PLAIN, 40, SEED), _window_corpus(PLAIN, 40, SEED))
    if any(write_instance(a) != write_instance(b)
           for a, b in zip(*regen)):
        mismatch += 1
    ok = _verdict(9, "fixed seeds reproduce byte-identical outputs",
                  mismatch == 0, f"{len(sample)} instances re-run")
    assert ok
