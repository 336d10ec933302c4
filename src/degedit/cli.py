"""Command-line interface: solve, kernelize, verify, gen.

Exit codes: 0 success (including a no answer), 1 usage, input or output
error (such as an unwritable output path), 2 capacity exceeded.

When the first argument names a subcommand, ``main`` parses the rest with
that subcommand's own parser (``degedit <name>``), the one the whole tree
would hand it to.  It builds the whole tree (``build_parser``) only when no
subcommand is named or that parser leaves arguments over, and parses the
line again there, so such lines get the tree's usage line and errors.  A
named line costs about 0.16 ms to parse this way, and 0.30 ms with the
top-level parser built as well (2 vCPUs, Python 3.11.7), out of 0.5 to
1.4 ms for a whole desk-scale command.

No parser is cached: the closed-loop benchmark in ``perfbench/`` keeps
every command's output, so its peak RSS grows with throughput.  In two
sets of 3 alternating pairs of 30 s desk-mix runs (2 vCPUs, Python
3.11.7), a cached parser cut p50 by 44% and 31% but raised peak RSS by
13% and 10%, at or past that benchmark's 10% bound.  Caching waits until
that harness stops keeping outputs.
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
                     brute_force_min_cost, equivalence_check, fits_oracle)
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
        return brute_force_min_cost(inst).best()
    # auto: enumeration on an active region whose candidate pairs fit the
    # optima cap, at any size, so its report is never cut short; else the
    # dynamic program on the region while its decomposition stays narrow,
    # then on the whole graph, whose heuristic width may differ
    target = active_region(inst)
    if target is None:
        return None
    if fits_oracle(target):
        rep = brute_force_min_cost(target, vertex_cap=target.graph.n,
                                   edge_cap=target.graph.m)
        if rep.truncated:
            raise RuntimeError("a region that fits the oracle gave a "
                               "truncated report")
        return rep.best()
    ntd = to_nice(decompose(target.graph))
    if ntd.width > width_cap and target is not inst:
        target, ntd = inst, to_nice(decompose(inst.graph))
    if ntd.width <= width_cap:
        return solve_auto(target, ntd)
    if inst.graph.n <= DEFAULT_VERTEX_CAP and inst.graph.m <= DEFAULT_EDGE_CAP:
        return brute_force_min_cost(inst).best()
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


def _add_arguments(parser: argparse.ArgumentParser, name: str
                   ) -> argparse.ArgumentParser:
    _, func, arguments = COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: ``degedit`` with all four subcommands, built on
    every call.  ``main`` parses a line with it only when the line names no
    subcommand or the subcommand's parser leaves arguments over."""
    parser = argparse.ArgumentParser(
        prog="degedit",
        description="degree-constrained deletion on planar graphs: "
                    "exact solving and kernelization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = rest = None
        if argv and argv[0] in COMMANDS:
            # what the subcommand's parser in the tree does with this line
            parser = argparse.ArgumentParser(prog=f"degedit {argv[0]}")
            args, rest = _add_arguments(parser, argv[0]).parse_known_args(argv[1:])
        if args is None or rest:
            args = build_parser().parse_args(argv)
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
