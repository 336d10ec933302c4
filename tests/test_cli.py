import argparse
import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from degedit import cli
from degedit.cli import DEFAULT_WIDTH_CAP, main
from degedit.errors import CapacityError, ParseError
from degedit.generator import generate_random_planar_instance
from degedit.instance import CONNECTED, PLAIN, Solution, check_solution
from degedit.io import parse_instance, write_instance
from degedit.oracle import DEFAULT_VERTEX_CAP, brute_force_min_cost
from degedit.treewidth import decompose, to_nice

from conftest import make_instance, random_corpus

TRIANGLE = """\
p degedit 3 3 0 0 0 0
v 1 2 1 0
v 2 2 1 0
v 3 2 1 0
e 1 2 1 0
e 1 3 1 0
e 2 3 1 0
"""


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_triangle(tmp_path, capsys):
    f = tmp_path / "tri.deg"
    f.write_text(TRIANGLE)
    code, out, _ = run_cli(["solve", "--input", str(f)], capsys)
    assert code == 0
    assert out.splitlines() == ["s yes", "c 0", "d", "r"]


def test_solve_missing_file(capsys):
    code, _, err = run_cli(["solve", "--input", "/nonexistent/x.deg"], capsys)
    assert code == 1
    assert "error" in err


def test_solve_reports_an_undecodable_file_with_its_path(tmp_path, capsys):
    f = tmp_path / "latin1.deg"
    f.write_bytes(TRIANGLE.encode() + b"# caf\xe9\n")
    code, out, err = run_cli(["solve", "--input", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode")
    f.write_bytes(TRIANGLE.encode() + "# café\n".encode())
    assert run_cli(["solve", "--input", str(f)], capsys)[:2] == (0, "s yes\nc 0\nd\nr\n")


def test_solve_methods_agree(tmp_path, capsys):
    for i, inst in enumerate(random_corpus(40, 61_000, n_hi=9)):
        f = tmp_path / f"i{i}.deg"
        f.write_text(write_instance(inst))
        outs = []
        for method in ("dp", "brute"):
            code, out, _ = run_cli(
                ["solve", "--input", str(f), "--method", method], capsys)
            assert code == 0
            outs.append(out.splitlines()[:2])  # verdict and cost line
        assert outs[0] == outs[1], inst


def test_kernelize_verify_round(tmp_path, capsys):
    src = tmp_path / "in.deg"
    out_f = tmp_path / "out.deg"
    trace_f = tmp_path / "trace.txt"
    inst = generate_random_planar_instance(8, 1, 1, 4, PLAIN, seed=71)
    src.write_text(write_instance(inst))
    code, out, _ = run_cli(["kernelize", "--input", str(src),
                            "--output", str(out_f), "--trace", str(trace_f)],
                           capsys)
    assert code == 0
    if out.startswith("k kernel"):
        code, vout, _ = run_cli(["verify", "--original", str(src),
                                 "--kernel", str(out_f)], capsys)
        assert code == 0
        assert vout.strip() == "equivalent yes"
        assert trace_f.exists()
    else:
        assert out.startswith("k decided")


def test_unwritable_output_paths_are_input_errors(tmp_path, capsys):
    # an instance that kernelizes to a kernel, so --output is written
    src = tmp_path / "in.deg"
    src.write_text(write_instance(
        generate_random_planar_instance(6, 1, 1, 4, PLAIN, seed=20)))
    good = tmp_path / "out.deg"
    missing = tmp_path / "no-such-dir" / "x"
    for argv in (["gen", "--n", "5", "--output", str(missing)],
                 ["kernelize", "--input", str(src), "--output", str(missing)],
                 ["kernelize", "--input", str(src), "--output", str(good),
                  "--trace", str(missing)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and str(missing) in err


def test_gen_deterministic_and_parseable(tmp_path, capsys):
    f1, f2 = tmp_path / "a.deg", tmp_path / "b.deg"
    argv = ["gen", "--n", "9", "--kv", "1", "--ke", "2", "--cost-budget", "3",
            "--variant", "connected", "--seed", "99"]
    assert run_cli(argv + ["--output", str(f1)], capsys)[0] == 0
    assert run_cli(argv + ["--output", str(f2)], capsys)[0] == 0
    assert f1.read_text() == f2.read_text()
    inst = parse_instance(f1.read_text())
    assert inst.variant == CONNECTED
    assert inst.graph.n == 9


def _through_pipe(argv, capsys):
    """Run argv with its argument "PIPE" replaced by the write end of a
    fresh pipe, as a /dev/fd path; the exit code and the bytes written.
    The outputs are small enough to fit the pipe's buffer."""
    r, w = os.pipe()
    try:
        code = run_cli([f"/dev/fd/{w}" if a == "PIPE" else a for a in argv],
                       capsys)[0]
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as reader:
        return code, reader.read()


def test_output_and_trace_write_into_a_pipe(tmp_path, capsys):
    # a pipe cannot be cut at the end of what was written
    argv = ["gen", "--n", "9", "--kv", "1", "--ke", "1", "--cost-budget", "3",
            "--variant", "connected", "--seed", "7"]
    inst = generate_random_planar_instance(9, 1, 1, 3, CONNECTED, seed=7)
    assert _through_pipe(argv + ["--output", "PIPE"], capsys) == \
        (0, write_instance(inst).encode())
    src, kernel, trace = (tmp_path / n for n in ("in.deg", "k.deg", "t.txt"))
    src.write_text(write_instance(inst))
    argv = ["kernelize", "--input", str(src), "--output", str(kernel)]
    assert run_cli(argv + ["--trace", str(trace)], capsys)[0] == 0
    assert _through_pipe(argv + ["--trace", "PIPE"], capsys) == \
        (0, trace.read_bytes())


def test_cli_entrypoint_subprocess(tmp_path):
    f = tmp_path / "tri.deg"
    f.write_text(TRIANGLE)
    proc = subprocess.run(
        [sys.executable, "-m", "degedit", "solve", "--input", str(f)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("s yes")


def test_usage_error_exit_code(capsys):
    assert run_cli(["solve"], capsys)[0] == 1
    assert run_cli(["frobnicate"], capsys)[0] == 1


def test_negative_width_cap_is_usage_error(tmp_path, capsys):
    f = tmp_path / "tri.deg"
    f.write_text(TRIANGLE)
    code, out, err = run_cli(
        ["solve", "--input", str(f), "--width-cap", "-5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--width-cap" in err


def test_gen_rejects_negative_budgets(capsys):
    for flag in ("--kv", "--ke", "--cost-budget"):
        code, out, err = run_cli(["gen", "--n", "5", flag, "-2"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: budgets must be non-negative\n"


def test_capacity_exit_code(tmp_path, capsys):
    # a wide grid defeats the solver caps: width above the cap and too big
    # for brute force
    rows = cols = 12
    lines = [f"p degedit {rows * cols} {2 * rows * cols - rows - cols} 1 1 2 0"]
    for v in range(1, rows * cols + 1):
        lines.append(f"v {v} 2 1 0")
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                lines.append(f"e {v} {v + 1} 1 0")
            if r + 1 < rows:
                lines.append(f"e {v} {v + cols} 1 0")
    f = tmp_path / "grid.deg"
    f.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["solve", "--input", str(f), "--width-cap", "3"],
                           capsys)
    assert code == 2
    assert "capacity" in err


def test_alpha_cap_defaults():
    from degedit.kernelize import alpha_cap_for
    assert alpha_cap_for(PLAIN) == 3
    assert alpha_cap_for(CONNECTED) == 2


def test_solve_dp_validates_once(tmp_path, capsys, monkeypatch):
    import degedit.dpsolve
    import degedit.treewidth
    calls = []
    original = degedit.treewidth.validate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(degedit.treewidth, "validate", counting)
    monkeypatch.setattr(degedit.dpsolve, "validate", counting)
    inst = generate_random_planar_instance(30, 1, 1, 4, PLAIN, seed=5)
    f = tmp_path / "g.deg"
    f.write_text(write_instance(inst))
    code, out, _ = run_cli(["solve", "--method", "dp", "--input", str(f)],
                           capsys)
    assert code == 0 and out.startswith("s ")
    assert len(calls) == 1


def test_solve_auto_and_dp_print_the_same_bytes(tmp_path, capsys):
    # auto solves the active region, dp the whole graph; at width cap 1
    # auto falls back to the whole graph or brute force where the region
    # is wider
    corpus = (random_corpus(20, 62_000, n_hi=12)
              + random_corpus(20, 63_000, n_hi=12, raw=True))
    for i, inst in enumerate(corpus):
        f = tmp_path / f"i{i}.deg"
        f.write_text(write_instance(inst))
        outs = {run_cli(["solve", "--input", str(f)] + extra, capsys)
                for extra in ([], ["--width-cap", "1"], ["--method", "dp"])}
        assert len(outs) == 1 and outs.pop()[0] == 0, inst


def _planted_grid(side, seed):
    """A side x side grid with one diagonal per cell and a planted deletion
    of two vertices and two edges (weights and costs 1): survivors' targets
    are their degrees after it."""
    rng = random.Random(seed)
    n = side * side
    edges = []
    for v in range(1, n + 1):
        right, down = v % side != 0, v + side <= n
        if right:
            edges.append((v, v + 1))
        if down:
            edges.append((v, v + side))
        if right and down:
            edges.append((v, v + side + 1))
    gone = set(rng.sample(range(1, n + 1), 2))
    live = [e for e in edges if not gone & set(e)]
    cut = set(rng.sample(live, 2))
    deg = Counter(v for e in live if e not in cut for v in e)
    delta = {v: rng.randint(0, 6) if v in gone else deg[v]
             for v in range(1, n + 1)}
    return make_instance(range(1, n + 1), edges, delta, k_v=2, k_e=2,
                         cost_budget=4)


def test_solve_answers_a_wide_planted_grid(tmp_path, capsys):
    # the whole grid is too wide for the DP and too big for brute force;
    # only the active region around the planted pair is solved
    inst = _planted_grid(15, 3)
    assert to_nice(decompose(inst.graph)).width > DEFAULT_WIDTH_CAP
    assert inst.graph.n > DEFAULT_VERTEX_CAP
    f = tmp_path / "grid.deg"
    f.write_text(write_instance(inst))
    code, out, _ = run_cli(["solve", "--input", str(f)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s yes" and int(lines[1][2:]) <= inst.cost_budget
    sol = Solution.of(inst, [int(v) for v in lines[2].split()[1:]],
                      [tuple(map(int, e.split("-"))) for e in lines[3].split()[1:]])
    assert check_solution(inst, sol).ok


@pytest.mark.parametrize("text, answer", [
    (TRIANGLE, "yes"),
    ("p degedit 3 2 0 0 0 1\nv 1 1 1 0\nv 2 1 1 0\nv 3 1 1 0\n"
     "e 1 2 1 0\ne 2 3 1 0\n", "no"),
], ids=["yes", "no"])
def test_kernelize_writes_a_decided_instance(tmp_path, capsys, text, answer):
    src = tmp_path / "in.deg"
    src.write_text(text)
    missing = tmp_path / "no-such-dir" / "x"
    code, out, err = run_cli(
        ["kernelize", "--input", str(src), "--output", str(missing)], capsys)
    assert (code, out) == (1, "") and str(missing) in err
    # a stale kernel from another instance is replaced
    kernel = tmp_path / "out.deg"
    kernel.write_text(write_instance(
        generate_random_planar_instance(6, 1, 1, 4, PLAIN, seed=20)))
    code, out, _ = run_cli(
        ["kernelize", "--input", str(src), "--output", str(kernel)], capsys)
    assert (code, out) == (0, f"k decided {answer}\n")
    original, decided = parse_instance(text), parse_instance(kernel.read_text())
    assert decided.variant == original.variant and decided.graph.n <= 1
    assert brute_force_min_cost(decided).feasible == (answer == "yes")
    code, out, _ = run_cli(
        ["verify", "--original", str(src), "--kernel", str(kernel)], capsys)
    assert (code, out) == (0, "equivalent yes\n")


# -- the command's own parser against the one that held all commands ----------


def reference_parser():
    """The parser as it was built before ``main`` parsed a named
    subcommand with that subcommand's parser alone: every subparser, every
    call."""
    parser = argparse.ArgumentParser(
        prog="degedit",
        description="degree-constrained deletion on planar graphs: "
                    "exact solving and kernelization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance exactly")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("auto", "dp", "brute"), default="auto")
    p.add_argument("--width-cap", type=int, default=DEFAULT_WIDTH_CAP)
    p.set_defaults(func=cli.cmd_solve)

    p = sub.add_parser("kernelize", help="reduce an instance to a kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cli.cmd_kernelize)

    p = sub.add_parser("verify", help="check two instances agree on feasibility")
    p.add_argument("--original", required=True)
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("gen", help="generate a random planar instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kv", type=int, default=1)
    p.add_argument("--ke", type=int, default=1)
    p.add_argument("--cost-budget", type=int, default=3)
    p.add_argument("--variant", choices=("plain", "connected"), default="plain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.add_argument("--raw", action="store_true",
                   help="draw degree targets without the solvable-window bias")
    p.set_defaults(func=cli.cmd_gen)
    return parser


def reference_main(argv):
    parser = reference_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 1 if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except CapacityError as ex:
        print(f"capacity exceeded: {ex}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


def argv_corpus(tmp_path):
    """Command lines over every subcommand, option and parse error kind."""
    tri, kernel = str(tmp_path / "tri.deg"), str(tmp_path / "kernel.deg")
    trace, made = str(tmp_path / "trace.txt"), str(tmp_path / "gen.deg")
    (tmp_path / "tri.deg").write_text(TRIANGLE)
    return [
        # each subcommand with all of its options
        ["solve", "--input", tri],
        ["solve", "--input", tri, "--method", "dp", "--width-cap", "3"],
        ["solve", "--method=brute", "--width-cap=0", "--input", tri],
        ["kernelize", "--input", tri, "--output", kernel, "--trace", trace],
        ["verify", "--original", tri, "--kernel", kernel],
        ["gen", "--n", "7", "--kv", "2", "--ke", "0", "--cost-budget", "4",
         "--variant", "connected", "--seed", "5", "--raw"],
        ["gen", "--n", "6", "--output", made],
        # errors the commands themselves report
        ["solve", "--input", tri, "--width-cap", "-5"],
        ["verify", "--original", tri, "--kernel", str(tmp_path / "none")],
        ["gen", "--n", "-1"],
        # missing required options
        ["solve"], ["solve", "--input"], ["kernelize", "--input", tri],
        ["verify", "--kernel", kernel], ["gen"], ["gen", "--kv", "1"],
        # bad choices and bad integers
        ["solve", "--input", tri, "--method", "fast"],
        ["gen", "--n", "4", "--variant", "both"],
        ["solve", "--input", tri, "--width-cap", "x"],
        ["gen", "--n", "four"], ["gen", "--n", "3", "--seed", "1.5"],
        # unknown options and abbreviations
        ["solve", "--input", tri, "--bogus"],
        ["solve", "--input", tri, "--bogus=1"],
        ["--bogus"], ["--version"], ["-x", "solve"],
        ["solve", "--inp", tri, "--wid", "3"],
        ["kernelize", "--in", tri, "--out", kernel],
        ["gen", "--n", "3", "--var", "connected", "--c", "2"],
        ["gen", "--n", "3", "--k", "1"],
        # no subcommand or an unknown one
        ["solv"], ["bogus"], ["SOLVE", "--input", tri], [], ["--"],
        ["--", "solve", "--input", tri],
        # help at both levels
        ["-h"], ["--help"], ["-h", "solve"], ["solve", "-h"],
        ["kernelize", "--help"], ["verify", "-h"], ["gen", "-h"],
        ["solve", "--input", tri, "-h"],
        # extra positionals, reported by the top-level parser
        ["solve", "extra", "--input", tri],
        ["solve", "--input", tri, "extra"],
        ["solve", "kernelize", "--input", tri],
        ["verify", "--original", tri, "--kernel", kernel, "--", "x"],
    ]


def _outcome(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_differences(tmp_path):
    """The command lines on which ``main`` and the reference part ways."""
    return [(argv, got, want) for argv in argv_corpus(tmp_path)
            for want in [_outcome(reference_main, argv)]
            for got in [_outcome(main, argv)] if got != want]


@pytest.mark.parametrize("columns", ["80", "24"])
def test_main_matches_the_all_commands_parser(tmp_path, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    assert cli_differences(tmp_path) == []


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    f = tmp_path / "tri.deg"
    f.write_text(TRIANGLE)
    for argv in (["solve", "--input", str(f)], ["solve"], ["-h"], []):
        monkeypatch.setattr(sys, "argv", ["degedit"] + argv)
        assert _outcome(lambda _: main(), None) == _outcome(main, argv)


# -- random command lines -------------------------------------------------------

# a value of each kind the options take, valid or not; TRI stands for the
# path of a triangle file, rewritten before every run
ARGV_VALUES = ("0", "3", "-1", "1.5", "x", "auto", "dp", "brute", "plain",
               "connected", "TRI")
ARGV_FLAGS = ("--input", "--method", "--width-cap", "--output", "--trace",
              "--original", "--kernel", "--n", "--kv", "--ke", "--cost-budget",
              "--variant", "--seed", "--raw", "--help")
ARGV_TOKENS = (tuple(cli.COMMANDS) + ("--", "-h", "extra", "--bogus")
               + ARGV_VALUES
               + tuple(flag[:i] for flag in ARGV_FLAGS
                       for i in range(3, len(flag) + 1))
               + tuple(f"{flag}={value}" for flag in ARGV_FLAGS
                       for value in ARGV_VALUES))


@st.composite
def command_lines(draw):
    """Up to 8 tokens, often led by a subcommand."""
    head = draw(st.lists(st.sampled_from(tuple(cli.COMMANDS)), max_size=1))
    return head + draw(st.lists(st.sampled_from(ARGV_TOKENS),
                                max_size=8 - len(head)))


def fresh_outcome(run, argv, work):
    """``_outcome`` of argv, TRI read as the triangle's path, with the
    working directory ``work`` holding the triangle file alone."""
    for f in work.iterdir():
        f.unlink()
    tri = work / "tri.deg"
    tri.write_text(TRIANGLE)
    return _outcome(run, [str(tri) if a == "TRI" else
                          a.replace("=TRI", f"={tri}") for a in argv])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_main_matches_the_all_commands_parser_on_random_lines(
        tmp_path, monkeypatch, argv):
    # the second parse through the whole tree after leftover arguments,
    # and "--", where argparse changed between Python 3.10 and 3.13
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert fresh_outcome(main, argv, tmp_path) == \
        fresh_outcome(reference_main, argv, tmp_path)
