"""Line-oriented instance file format and solution printing.

Grammar (``#`` starts a comment, blank lines ignored; a line ends only at
LF, CR LF or CR, as in a text-mode read)::

    p degedit <n> <m> <k_v> <k_e> <C> <variant:0|1>
    v <id> <delta> <weight> <cost>          -- n lines, ids 1..n
    e <u> <v> <weight> <cost>               -- m lines, u < v

Fields are separated by whitespace, and every number is an ASCII integer
token ``-?[0-9]+``: the wider syntax of ``int()`` (``+3``, ``1_0``,
non-ASCII digits) is rejected.  ``parse_instance`` reports the first check
that fails, in this order:

1. line by line: a duplicate header, a malformed header, a non-integer
   header field, a vertex or edge line before the header, an unknown
   record type;
2. the header: the variant flag, the budgets, the counts n and m being
   non-negative, then the number of vertex lines and of edge lines;
3. the vertex lines in file order: four fields, integer fields, id in
   1..n, a duplicate id, weight >= 1, delta and cost >= 0;
4. the edge lines in file order: four fields, integer fields, ends in
   1..n, u < v, a duplicate edge, weight >= 1, cost >= 0;
5. planarity.

Solution block: ``s yes|no``; on yes also ``c <cost>``, ``d <vertex ids>``
and ``r <u>-<v> ...``.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graph import Graph, is_planar
from .instance import CONNECTED, PLAIN, Instance, Solution

_INT_TOKEN = re.compile(r"-?[0-9]+").fullmatch


def _int(token: str) -> int:
    if _INT_TOKEN(token) is None:
        raise ValueError(f"not an integer token: {token!r}")
    return int(token)


def parse_instance(text: str) -> Instance:
    """Read an instance in one pass over its lines.

    The first vertex line and the first edge line that fail a check are
    kept with the message of that check and raised once the header has been
    checked, so the error names the same check and line whatever the order
    of the lines.
    """
    # on a text without these characters int() accepts exactly the integer
    # tokens; otherwise every field is matched as well
    num = int if text.isascii() and "_" not in text and "+" not in text else _int
    comments = "#" in text
    header = None
    n = 0
    delta, weight_v, cost_v = {}, {}, {}
    weight_e, cost_e = {}, {}
    bad_v = bad_e = None        # (message, line number) of the first rejected line
    extra_v = extra_e = 0       # lines of that kind from the rejected one on
    # only LF, CR LF and CR end a line (str.splitlines would also end one at
    # \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029, inside comments too)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for no, line in enumerate(text.split("\n"), 1):
        if comments:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if header is None:
                raise ParseError("edge line before header", no)
            if bad_e is None:
                if len(parts) != 5:
                    bad_e = "edge line must be 'e u v weight cost'", no
                else:
                    try:
                        u, v, w, c = num(parts[1]), num(parts[2]), num(parts[3]), num(parts[4])
                    except ValueError:
                        bad_e = "non-integer edge field", no
                    else:
                        if not (1 <= u <= n and 1 <= v <= n):
                            bad_e = f"edge ({u}, {v}) out of range", no
                        elif u >= v:
                            bad_e = f"edge endpoints must satisfy u < v, got ({u}, {v})", no
                        elif (u, v) in weight_e:
                            bad_e = f"duplicate edge ({u}, {v})", no
                        elif w < 1:
                            bad_e = f"edge weight must be >= 1, got {w}", no
                        elif c < 0:
                            bad_e = "edge cost must be non-negative", no
                        else:
                            weight_e[u, v] = w
                            cost_e[u, v] = c
                            continue
            extra_e += 1
        elif kind == "v":
            if header is None:
                raise ParseError("vertex line before header", no)
            if bad_v is None:
                if len(parts) != 5:
                    bad_v = "vertex line must be 'v id delta weight cost'", no
                else:
                    try:
                        vid, dl, w, c = num(parts[1]), num(parts[2]), num(parts[3]), num(parts[4])
                    except ValueError:
                        bad_v = "non-integer vertex field", no
                    else:
                        if not 1 <= vid <= n:
                            bad_v = f"vertex id {vid} out of range 1..{n}", no
                        elif vid in delta:
                            bad_v = f"duplicate vertex {vid}", no
                        elif w < 1:
                            bad_v = f"vertex weight must be >= 1, got {w}", no
                        elif dl < 0 or c < 0:
                            bad_v = "delta and cost must be non-negative", no
                        else:
                            delta[vid] = dl
                            weight_v[vid] = w
                            cost_v[vid] = c
                            continue
            extra_v += 1
        elif kind == "p":
            if header is not None:
                raise ParseError("duplicate header", no)
            if len(parts) != 8 or parts[1] != "degedit":
                raise ParseError("header must be 'p degedit n m k_v k_e C variant'", no)
            try:
                header = [_int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError("non-integer header field", no)
            n = header[0]
        else:
            raise ParseError(f"unknown record type {kind!r}", no)
    if header is None:
        raise ParseError("missing 'p degedit' header")
    _, m, k_v, k_e, cbudget, variant_flag = header
    if variant_flag not in (0, 1):
        raise ParseError("variant flag must be 0 (plain) or 1 (connected)")
    if min(k_v, k_e, cbudget) < 0:
        raise ParseError("budgets must be non-negative")
    if n < 0 or m < 0:
        raise ParseError("vertex and edge counts must be non-negative")
    if len(delta) + extra_v != n:
        raise ParseError(f"expected {n} vertex lines, found {len(delta) + extra_v}")
    if len(weight_e) + extra_e != m:
        raise ParseError(f"expected {m} edge lines, found {len(weight_e) + extra_e}")
    if bad_v is not None:
        raise ParseError(*bad_v)
    if bad_e is not None:
        raise ParseError(*bad_e)

    # neighbour sets and the edge set are built as Graph(range, edges) and
    # edge_set() build them, so their iteration orders, which the dicts later
    # filled from them follow, are the same
    staged = {v: set() for v in range(1, n + 1)}
    for u, v in weight_e:
        staged[u].add(v)
        staged[v].add(u)
    graph = Graph._from_adj({v: frozenset(ns) for v, ns in staged.items()},
                            frozenset(sorted(weight_e)))
    if not is_planar(graph):
        raise ParseError("graph is not planar")
    return Instance(graph, delta, weight_v, weight_e, cost_v, cost_e,
                    k_v, k_e, cbudget, CONNECTED if variant_flag else PLAIN)


def write_instance(inst: Instance) -> str:
    """Serialize an instance; non-contiguous vertex ids are renumbered 1..n."""
    ids = inst.graph.sorted_vertices()
    remap = {v: i for i, v in enumerate(ids, 1)}
    lines = [f"p degedit {inst.graph.n} {inst.graph.m} {inst.k_v} {inst.k_e} "
             f"{inst.cost_budget} {1 if inst.connected_variant else 0}"]
    for v in ids:
        lines.append(f"v {remap[v]} {inst.delta[v]} {inst.weight_v[v]} {inst.cost_v[v]}")
    for a, b in sorted(inst.graph.edges()):
        u, v = sorted((remap[a], remap[b]))
        e = (a, b)
        lines.append(f"e {u} {v} {inst.weight_e[e]} {inst.cost_e[e]}")
    return "\n".join(lines) + "\n"


def format_solution(sol: Solution | None) -> str:
    if sol is None:
        return "s no\n"
    d_line = " ".join(str(v) for v in sorted(sol.deleted_vertices))
    r_line = " ".join(f"{u}-{v}" for u, v in sorted(sol.deleted_edges))
    return (f"s yes\nc {sol.total_cost}\n"
            + ("d " + d_line if d_line else "d") + "\n"
            + ("r " + r_line if r_line else "r") + "\n")
