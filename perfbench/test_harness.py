"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench

Every workload runs untraced and traced on a shrunken corpus; all output
checks must pass, the metric names must match ``BENCHMARK.json`` and the
tracer must put every wrapped function back.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, check_solve_planted, parse_solution  # noqa: E402

TINY = {
    "solve-planted": dict(count=4, n_plain=20, n_connected=14),
    "desk-mix": dict(count=3),
}
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MODULES = ("cli", "dpsolve", "io", "kernelize", "oracle", "protrusion", "treewidth")


def _module_functions() -> dict:
    import importlib
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"degedit.{name}")
        for attr, value in vars(module).items():
            if callable(value):
                out[(name, attr)] = value
    return out


def test_workloads_match_benchmark_file():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])
    assert sorted(TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean(name, trace):
    workload = WORKLOADS[name]
    workload = dataclasses.replace(workload, params={**workload.params, **TINY[name]})
    before = _module_functions()
    work = run.ROOT / ".bench_work" / f"smoke-{name}-{int(trace)}"
    try:
        record = run.run(workload, seed=5, seconds=0.3, trace=trace, work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    after = _module_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a wrapper was left installed"
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in record["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        assert record["missing_hooks"] == []
        assert record["spans_total"] > 0
    else:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_check_rejects_a_wrong_answer():
    workload = WORKLOADS["solve-planted"]
    workload = dataclasses.replace(
        workload, params={**workload.params, **TINY["solve-planted"]})
    work = run.ROOT / ".bench_work" / "smoke-wrong"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import random
        task = workload.build(random.Random(1), work, workload.params)[0]
        assert check_solve_planted(task, "s no\n", None) is not None
        with pytest.raises(ValueError):
            parse_solution("s maybe\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_a_changed_program(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "python")
    assert run.main(["--workload", "desk-mix", "--seed", "1", "--seconds", "1"]) == 2
    assert var in capsys.readouterr().err
