"""The benchmark's workloads: seeded corpora, CLI commands and output checks.

Each workload builds its instance files from a ``random.Random`` seeded by
the run's ``--seed`` and returns the list of CLI commands (``Task``) that
the closed loop cycles through.  ``check`` decides, outside the timed
region, whether one command's output is correct; it may run reference
commands through ``reference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from corpus import Planted, planted_instance

SOLVE, KERNELIZE, VERIFY = "solve", "kernelize", "verify"


@dataclass
class Task:
    argv: list[str]
    kind: str                       # solve | kernelize | verify
    vertices: int                   # vertices of the input instance
    instance: Path                  # the (original) instance file
    kernel: Path | None = None      # kernelize output, verify input
    planted: Planted | None = None  # planted answer, when there is one


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Path, dict], list[Task]]
    check: Callable[[Task, str, Callable[[list[str]], str]], str | None]
    params: dict                    # corpus sizes and budgets, read by build
    tail_pct: float                 # reported tail percentile
    limit_s: float                  # wall-clock limit of one command


# -- parsing CLI output ----------------------------------------------------------


def parse_solution(text: str):
    """(feasible, cost, vertices, edges) from a ``solve`` output block."""
    lines = text.splitlines()
    if lines == ["s no"]:
        return False, None, frozenset(), frozenset()
    if len(lines) != 4 or lines[0] != "s yes" or not lines[1].startswith("c "):
        raise ValueError(f"malformed solve output {text!r}")
    cost = int(lines[1][2:])
    verts = frozenset(int(x) for x in lines[2].split()[1:])
    edges = frozenset(tuple(int(y) for y in x.split("-"))
                      for x in lines[3].split()[1:])
    return True, cost, verts, edges


def parse_kernel_line(text: str):
    """("yes" | "no" | "kernel", kernel vertices or None) from ``kernelize``."""
    parts = text.split()
    if parts in (["k", "decided", "yes"], ["k", "decided", "no"]):
        return parts[2], None
    if len(parts) == 6 and parts[:2] == ["k", "kernel"] and parts[4] == "certified":
        return "kernel", int(parts[2])
    raise ValueError(f"malformed kernelize output {text!r}")


def kernel_vertices(stdout: str) -> int | None:
    """Vertices of the printed kernel; None when kernelize decided."""
    return parse_kernel_line(stdout)[1]


def _feasible(reference, path: Path, method: str):
    feasible, cost, _, _ = parse_solution(
        reference(["solve", "--method", method, "--input", str(path)]))
    return feasible, cost


# -- solve-planted -------------------------------------------------------------


def build_solve_planted(rng, work, p):
    tasks = []
    for i in range(p["count"]):
        connected = i % 2 == 1
        n = p["n_connected"] if connected else p["n_plain"]
        inst = planted_instance(n, p["k_v"], p["k_e"], connected, rng)
        path = work / f"planted-{i}.txt"
        path.write_text(inst.text)
        tasks.append(Task(["solve", "--method", "auto", "--input", str(path)],
                          SOLVE, n, path, planted=inst))
    return tasks


def check_solve_planted(task, stdout, reference):
    from degedit.instance import Solution, check_solution
    from degedit.io import parse_instance
    feasible, cost, verts, edges = parse_solution(stdout)
    if not feasible:
        return "planted yes-instance solved as no"
    if cost > task.planted.cost_budget:
        return f"cost {cost} above the planted cost {task.planted.cost_budget}"
    inst = parse_instance(task.instance.read_text())
    sol = Solution.of(inst, verts, edges)
    if sol.total_cost != cost:
        return f"printed cost {cost}, solution costs {sol.total_cost}"
    verdict = check_solution(inst, sol)
    return None if verdict else f"invalid solution: {verdict.violations[:3]}"


# -- desk-mix ------------------------------------------------------------------------


def build_desk_mix(rng, work, p):
    from degedit.generator import generate_random_planar_instance
    from degedit.io import write_instance
    tasks = []
    i = 0
    while len(tasks) < 4 * p["count"]:
        k_v = rng.randint(0, 2)
        inst = generate_random_planar_instance(
            rng.randint(p["n_lo"], p["n_hi"]), k_v, rng.randint(0, 3 - k_v),
            rng.randint(0, 6), rng.choice(("plain", "connected")),
            seed=rng.randrange(1 << 30))
        if inst.graph.m > p["m_cap"]:
            continue  # beyond the oracle's edge cap
        path = work / f"desk-{i}.txt"
        text = write_instance(inst)
        path.write_text(text)
        # a decided kernelize leaves the input in place of a kernel, so
        # verify then compares the instance with itself
        kernel = work / f"desk-{i}.kernel"
        kernel.write_text(text)
        n = inst.graph.n
        tasks += [
            Task(["solve", "--method", "auto", "--input", str(path)], SOLVE, n, path),
            Task(["solve", "--method", "brute", "--input", str(path)], SOLVE, n, path),
            Task(["kernelize", "--input", str(path), "--output", str(kernel)],
                 KERNELIZE, n, path, kernel),
            Task(["verify", "--original", str(path), "--kernel", str(kernel)],
                 VERIFY, n, path, kernel),
        ]
        i += 1
    return tasks


def check_desk_mix(task, stdout, reference):
    from degedit.instance import Solution, check_solution
    from degedit.io import parse_instance
    expected, best = _feasible(reference, task.instance, "brute")
    if task.kind == SOLVE:
        feasible, cost, verts, edges = parse_solution(stdout)
        if (feasible, cost) != (expected, best):
            return f"answer ({feasible}, {cost}), oracle ({expected}, {best})"
        if feasible:
            inst = parse_instance(task.instance.read_text())
            verdict = check_solution(inst, Solution.of(inst, verts, edges))
            if not verdict:
                return f"invalid solution: {verdict.violations[:3]}"
        return None
    if task.kind == KERNELIZE:
        verdict, _ = parse_kernel_line(stdout)
        got = _feasible(reference, task.kernel, "auto")[0] \
            if verdict == "kernel" else verdict == "yes"
        return None if got == expected else "kernelize disagrees with the oracle"
    return None if stdout == "equivalent yes\n" else f"verify printed {stdout!r}"


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-planted",
        build_solve_planted, check_solve_planted,
        dict(count=64, n_plain=220, n_connected=150, k_v=2, k_e=2),
        tail_pct=75.0, limit_s=60.0),
    Workload(
        "desk-mix",
        build_desk_mix, check_desk_mix,
        dict(count=1600, n_lo=6, n_hi=12, m_cap=18),
        tail_pct=99.0, limit_s=10.0),
)}
