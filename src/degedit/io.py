"""Line-oriented instance file format and solution printing.

Grammar (``#`` starts a comment, blank lines ignored)::

    p degedit <n> <m> <k_v> <k_e> <C> <variant:0|1>
    v <id> <delta> <weight> <cost>          -- n lines, ids 1..n
    e <u> <v> <weight> <cost>               -- m lines, u < v

Solution block: ``s yes|no``; on yes also ``c <cost>``, ``d <vertex ids>``
and ``r <u>-<v> ...``.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import Graph, is_planar
from .instance import CONNECTED, PLAIN, Instance, Solution


def parse_instance(text: str) -> Instance:
    header = None
    vlines: list[tuple[int, list[str]]] = []
    elines: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", no)
            if len(parts) != 8 or parts[1] != "degedit":
                raise ParseError("header must be 'p degedit n m k_v k_e C variant'", no)
            try:
                header = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError("non-integer header field", no)
        elif parts[0] == "v":
            if header is None:
                raise ParseError("vertex line before header", no)
            vlines.append((no, parts[1:]))
        elif parts[0] == "e":
            if header is None:
                raise ParseError("edge line before header", no)
            elines.append((no, parts[1:]))
        else:
            raise ParseError(f"unknown record type {parts[0]!r}", no)
    if header is None:
        raise ParseError("missing 'p degedit' header")
    n, m, k_v, k_e, cbudget, variant_flag = header
    if variant_flag not in (0, 1):
        raise ParseError("variant flag must be 0 (plain) or 1 (connected)")
    if min(k_v, k_e, cbudget) < 0:
        raise ParseError("budgets must be non-negative")
    if len(vlines) != n:
        raise ParseError(f"expected {n} vertex lines, found {len(vlines)}")
    if len(elines) != m:
        raise ParseError(f"expected {m} edge lines, found {len(elines)}")

    delta, weight_v, cost_v = {}, {}, {}
    for no, fields in vlines:
        if len(fields) != 4:
            raise ParseError("vertex line must be 'v id delta weight cost'", no)
        try:
            vid, dl, w, c = (int(x) for x in fields)
        except ValueError:
            raise ParseError("non-integer vertex field", no)
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} out of range 1..{n}", no)
        if vid in delta:
            raise ParseError(f"duplicate vertex {vid}", no)
        if w < 1:
            raise ParseError(f"vertex weight must be >= 1, got {w}", no)
        if dl < 0 or c < 0:
            raise ParseError("delta and cost must be non-negative", no)
        delta[vid], weight_v[vid], cost_v[vid] = dl, w, c

    edges, weight_e, cost_e = [], {}, {}
    for no, fields in elines:
        if len(fields) != 4:
            raise ParseError("edge line must be 'e u v weight cost'", no)
        try:
            u, v, w, c = (int(x) for x in fields)
        except ValueError:
            raise ParseError("non-integer edge field", no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge ({u}, {v}) out of range", no)
        if u >= v:
            raise ParseError(f"edge endpoints must satisfy u < v, got ({u}, {v})", no)
        if (u, v) in weight_e:
            raise ParseError(f"duplicate edge ({u}, {v})", no)
        if w < 1:
            raise ParseError(f"edge weight must be >= 1, got {w}", no)
        if c < 0:
            raise ParseError("edge cost must be non-negative", no)
        edges.append((u, v))
        weight_e[(u, v)], cost_e[(u, v)] = w, c

    graph = Graph(range(1, n + 1), edges)
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
