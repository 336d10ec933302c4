"""Command-line interface: solve, kernelize, verify, gen.

Exit codes: 0 success (including a no answer), 1 usage, input or output
error (such as an unwritable output path), 2 capacity exceeded.

``main`` builds its parser on every call, with only the subparser that
the first argument names (all four when it names none): building all of
them cost more than the rest of a typical desk-scale command.  It is not
cached: the closed-loop benchmark in ``perfbench/`` keeps every command's
output, so its peak RSS grows with throughput, and a cached parser pushed
it past its bound there.  Caching waits until that harness stops keeping
outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dpsolve import active_region, solve_auto
from .errors import CapacityError, ParseError
from .generator import generate_random_planar_instance
from .graph import Graph
from .instance import CONNECTED, PLAIN, Instance, Solution
from .io import format_solution, parse_instance, write_instance
from .kernelize import KERNEL, format_trace, kernelize
from .normalize import DECIDED_YES
from .oracle import (DEFAULT_EDGE_CAP, DEFAULT_VERTEX_CAP,
                     brute_force_min_cost, equivalence_check)
from .treewidth import decompose, to_nice

DEFAULT_WIDTH_CAP = 8


def _read_instance(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise ParseError(f"cannot read {path}: {ex}")
    return parse_instance(text)


def _write_file(path: str, text: str) -> None:
    """Overwrite path with text in place.  Opening with truncation to zero
    makes ext4 flush the file when it is closed (its auto_da_alloc
    heuristic); on an ext4 virtual disk that took about 0.2 ms per small
    file, and several ms at the 99th percentile, against under 0.01 ms for
    writing over the old bytes and cutting the file at the new end.  A pipe
    or a terminal holds no old bytes and cannot be cut, so it is not."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if fh.seekable():
            fh.truncate()


def _solve_with(inst, method: str, width_cap: int) -> Solution | None:
    # solve_auto validates the nice decomposition against the graph before
    # its DP reads it; to_nice itself only checks the tree structure
    if method == "dp":
        ntd = to_nice(decompose(inst.graph))
        return solve_auto(inst, ntd)
    if method == "brute":
        rep = brute_force_min_cost(inst)
        return rep.best() if rep.feasible else None
    # auto: the dynamic program on the active region while its decomposition
    # stays narrow, then on the whole graph, whose heuristic width may differ
    target = active_region(inst)
    if target is None:
        return None
    ntd = to_nice(decompose(target.graph))
    if ntd.width > width_cap and target is not inst:
        target, ntd = inst, to_nice(decompose(inst.graph))
    if ntd.width <= width_cap:
        return solve_auto(target, ntd)
    if inst.graph.n <= DEFAULT_VERTEX_CAP and inst.graph.m <= DEFAULT_EDGE_CAP:
        rep = brute_force_min_cost(inst)
        return rep.best() if rep.feasible else None
    raise CapacityError(
        f"decomposition width {ntd.width} exceeds the cap {width_cap} and "
        f"the instance exceeds the brute-force caps "
        f"({DEFAULT_VERTEX_CAP} vertices / {DEFAULT_EDGE_CAP} edges)")


def cmd_solve(args) -> int:
    if args.width_cap < 0:
        raise ParseError("--width-cap must be non-negative")
    inst = _read_instance(args.input)
    sol = _solve_with(inst, args.method, args.width_cap)
    sys.stdout.write(format_solution(sol))
    return 0


def _decided_kernel(yes: bool, variant: str) -> Instance:
    """Trivial instance with the decided answer: the empty graph for yes;
    for no, one vertex with target 1 and zero budgets."""
    vs = () if yes else (1,)
    return Instance(Graph(vs), {v: 1 for v in vs}, {v: 1 for v in vs}, {},
                    {v: 0 for v in vs}, {}, 0, 0, 0, variant)


def cmd_kernelize(args) -> int:
    inst = _read_instance(args.input)
    result = kernelize(inst)
    if args.trace:
        _write_file(args.trace, format_trace(result.log))
    # a decided instance still gets a file, so --output is always checked
    # and a later verify never reads a stale one
    kernel = result.instance if result.kind == KERNEL else \
        _decided_kernel(result.kind == DECIDED_YES, inst.variant)
    _write_file(args.output, write_instance(kernel))
    if result.kind == KERNEL:
        sys.stdout.write(
            f"k kernel {result.instance.graph.n} {result.instance.graph.m} "
            f"certified {1 if result.certified else 0}\n")
    else:
        sys.stdout.write(
            f"k decided {'yes' if result.kind == DECIDED_YES else 'no'}\n")
    return 0


def cmd_verify(args) -> int:
    a = _read_instance(args.original)
    b = _read_instance(args.kernel)
    same = equivalence_check(a, b)
    sys.stdout.write(f"equivalent {'yes' if same else 'no'}\n")
    return 0


def cmd_gen(args) -> int:
    if args.n < 0:
        raise ParseError("--n must be non-negative")
    inst = generate_random_planar_instance(
        args.n, args.kv, args.ke, args.cost_budget,
        CONNECTED if args.variant == "connected" else PLAIN,
        seed=args.seed, raw=args.raw)
    text = write_instance(inst)
    if args.output:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


# Each subcommand's help line, handler and arguments, as (flag, keyword
# arguments of ``add_argument``) pairs, in the order help lists them.
COMMANDS = {
    "solve": ("solve one instance exactly", cmd_solve, (
        ("--input", dict(required=True)),
        ("--method", dict(choices=("auto", "dp", "brute"), default="auto")),
        ("--width-cap", dict(type=int, default=DEFAULT_WIDTH_CAP)),
    )),
    "kernelize": ("reduce an instance to a kernel", cmd_kernelize, (
        ("--input", dict(required=True)),
        ("--output", dict(required=True)),
        ("--trace", dict()),
    )),
    "verify": ("check two instances agree on feasibility", cmd_verify, (
        ("--original", dict(required=True)),
        ("--kernel", dict(required=True)),
    )),
    "gen": ("generate a random planar instance", cmd_gen, (
        ("--n", dict(type=int, required=True)),
        ("--kv", dict(type=int, default=1)),
        ("--ke", dict(type=int, default=1)),
        ("--cost-budget", dict(type=int, default=3)),
        ("--variant", dict(choices=("plain", "connected"), default="plain")),
        ("--seed", dict(type=int, default=0)),
        ("--output", dict()),
        ("--raw", dict(action="store_true",
                       help="draw degree targets without the "
                            "solvable-window bias")),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``command`` alone when it names a subcommand, else
    for all of them.

    With one subcommand the subparsers action gets every name as its
    metavar, so the top-level usage line (printed with an unrecognized
    argument) reads as with all four.  With all four it gets none: an
    invalid choice is then reported as ``argument command:``.
    """
    parser = argparse.ArgumentParser(
        prog="degedit",
        description="degree-constrained deletion on planar graphs: "
                    "exact solving and kernelization")
    if command in COMMANDS:
        names, metavar = (command,), "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = tuple(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, func, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
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


if __name__ == "__main__":
    sys.exit(main())
