"""Closed-loop benchmark of the degedit command line.

Run from the repository root::

    python3 perfbench/run.py --workload solve-planted --seed 1 --seconds 30 --trace 0

One client in one process sends ``degedit.cli.main([...])`` calls back to
back, cycling through the workload's seeded corpus, until ``--seconds``
have passed.  Outputs are checked after the timed loop.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same commands run once
untraced and once with the layer wrappers of ``spans.py`` installed, and
the object carries the per-layer metrics instead.  Details (percentiles,
sample counts, environment, spans) go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TRACE_UNTRACED_SHARE = 0.45     # share of --seconds for the untraced pass
TAIL_MIN_BEYOND = 10
MAX_SPANS_WRITTEN = 200_000
REFUSED_ENV = ("DEGEDIT_ALPHA_CAP", "DEGEDIT_BACKEND")


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout()


@dataclass
class Outcome:
    task: int
    seconds: float
    rc: int | None
    stdout: str
    error: str | None = None


def execute(cli, tasks, i: int, limit_s: float, tracer=None) -> Outcome:
    """Run one CLI command in-process under a wall-clock limit."""
    out, err = io.StringIO(), io.StringIO()
    rc, error, seconds = None, None, 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.command(i) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                rc = cli.main(tasks[i].argv)
            finally:
                seconds = time.perf_counter() - t0
                if span is not None:
                    tracer.close(span)
    except CommandTimeout:
        error = f"timed out after {limit_s} s"
    except Exception as ex:  # any crash of the program is a failed command
        error = f"{type(ex).__name__}: {ex}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return Outcome(i, seconds, rc, out.getvalue(), error)


def closed_loop(cli, tasks, limit_s: float, seconds: float | None = None,
                order: list[int] | None = None, tracer=None) -> list[Outcome]:
    """Cycle through the tasks for ``seconds``, or replay ``order``."""
    outcomes = []
    if order is not None:
        for i in order:
            outcomes.append(execute(cli, tasks, i, limit_s, tracer))
        return outcomes
    deadline = time.perf_counter() + seconds
    i = 0
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(execute(cli, tasks, i % len(tasks), limit_s, tracer))
        i += 1
    return outcomes


def output_files(tasks, outcomes) -> dict[str, str]:
    """Contents of every kernel file the executed commands wrote."""
    files = {}
    for i in sorted({o.task for o in outcomes}):
        argv = tasks[i].argv
        if "--output" in argv:
            path = Path(argv[argv.index("--output") + 1])
            files[str(path)] = path.read_text() if path.exists() else ""
    return files


def check_outcomes(workload, tasks, outcomes, cli) -> list[str | None]:
    """One error (or None) per outcome; repeats must match the first run."""
    memo: dict[tuple, str] = {}

    def reference(argv: list[str]) -> str:
        key = tuple(argv)
        if key not in memo:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"reference command {argv} exited {rc}")
            memo[key] = out.getvalue()
        return memo[key]

    first: dict[int, Outcome] = {}
    verdict: dict[int, str | None] = {}
    errors = []
    for o in outcomes:
        if o.error is not None:
            errors.append(o.error)
            continue
        if o.task not in first:
            first[o.task] = o
            try:
                verdict[o.task] = workload.check(tasks[o.task], o.stdout, reference)
            except (ValueError, RuntimeError, OSError) as ex:
                verdict[o.task] = f"check failed: {ex}"
        if o.stdout != first[o.task].stdout:
            errors.append("output differs between repeats of one command")
        else:
            errors.append(verdict[o.task])
    return errors


def tail(samples: list[float], pct: float):
    """Latency at pct, stepping down while fewer than ten samples lie beyond."""
    ordered = sorted(samples)
    for p in [pct] + [q for q in (99.0, 95.0, 90.0, 75.0, 70.0, 60.0, 50.0) if q < pct]:
        value = _percentile(ordered, p)
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return value, p, beyond


def _percentile(ordered: list[float], pct: float) -> float:
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(tasks, outcomes, errors, setup_s: float, peak_rss_mb: float,
               tail_pct: float):
    from workloads import KERNELIZE, kernel_vertices
    times = [o.seconds for o in outcomes]
    wall = sum(times)
    vertices = sum(tasks[o.task].vertices for o in outcomes)
    k_in = k_out = decided = 0
    for o, e in zip(outcomes, errors):
        if tasks[o.task].kind == KERNELIZE and e is None:
            size = kernel_vertices(o.stdout)
            if size is None:
                decided += 1
            else:
                k_in += tasks[o.task].vertices
                k_out += size
    tail_s, tail_p, beyond = tail(times, tail_pct)
    failed = sum(1 for e in errors if e is not None)
    metrics = {
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_vps": (vertices / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        # over commands that printed a kernel; with none, nothing was reduced
        "kernel_share": (k_out / k_in if k_in else 1.0, "share"),
        "passed_share": (1.0 - failed / len(outcomes), "share"),
    }
    info = {"tail_percentile": tail_p, "tail_samples_beyond": beyond,
            "commands": len(outcomes), "failed_share": failed / len(outcomes),
            "kernelize_decided": decided}
    return metrics, info


def timed_setup(workload, seed: int, work: Path):
    """Median over repeats of a fresh-process import plus corpus writing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    tasks = None
    for r in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import degedit.cli"], env=env,
                       check=True, timeout=120)
        tasks = workload.build(random.Random(seed), work, workload.params)
        samples.append(time.perf_counter() - t0)
    return tasks, statistics.median(samples), samples


def environment() -> dict:
    from degedit import oracle
    return {"backend": oracle.backend_name(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0))}


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the result record (metrics and details)."""
    import degedit.cli as cli
    from spans import Tracer, dump_spans, layer_metrics

    tasks, setup_s, setup_samples = timed_setup(workload, seed, work)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "setup_samples_s": setup_samples, "corpus_commands": len(tasks)}
    if not trace:
        outcomes = closed_loop(cli, tasks, workload.limit_s, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = check_outcomes(workload, tasks, outcomes, cli)
        metrics, info = end_to_end(tasks, outcomes, errors, setup_s, peak_rss_mb,
                                   workload.tail_pct)
        record.update(info)
        record["latencies"] = [[o.task, o.seconds] for o in outcomes]
    else:
        untraced = closed_loop(cli, tasks, workload.limit_s,
                               seconds * TRACE_UNTRACED_SHARE)
        files = output_files(tasks, untraced)
        tracer = Tracer()
        with tracer:
            traced = closed_loop(cli, tasks, workload.limit_s,
                                 order=[o.task for o in untraced], tracer=tracer)
        record["missing_hooks"] = tracer.missing
        errors = check_outcomes(workload, tasks, untraced, cli)
        for k, (a, b) in enumerate(zip(untraced, traced)):
            if (a.rc, a.stdout, a.error) != (b.rc, b.stdout, b.error):
                errors[k] = errors[k] or "traced output differs from untraced"
        if output_files(tasks, traced) != files:
            errors = [e or "traced output files differ from untraced" for e in errors]
        metrics = layer_metrics(tracer, sum(o.seconds for o in untraced))
        outcomes = untraced
        spans = dump_spans(tracer)
        record["spans_total"] = len(spans)
        record["spans"] = spans[:MAX_SPANS_WRITTEN]
    failures = [e for e in errors if e is not None]
    record.update({
        "correct": not failures, "attempted": len(outcomes),
        "failed": len(failures), "failures": sorted(set(failures))[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return record


def check_program() -> str | None:
    """Why the program under test cannot be measured, or None."""
    if sys.flags.optimize:
        return "run without -O: it strips the package's invariant asserts"
    for name in REFUSED_ENV:
        if os.environ.get(name):
            return f"{name} is set; unset it to measure the default program"
    if not (SRC / "degedit" / "__init__.py").is_file():
        return f"no degedit package under {SRC}"
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record))
    for key, m in record["metrics"].items():
        print(f"{key:36s} {m['value']:.6g} {m['unit']}")
    for key in ("tail_percentile", "tail_samples_beyond", "commands",
                "failed_share", "spans_total", "missing_hooks", "failures"):
        if record.get(key) not in (None, []):
            print(f"{key}: {record[key]}")
    print(f"environment: {record['environment']}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
