"""Immutable simple-graph model with edit primitives and planarity checks.

Vertices are opaque integers.  Edges are canonical ordered pairs ``(u, v)``
with ``u < v``.  Every edit returns a fresh graph; values can therefore be
shared freely between concurrent workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import networkx as nx


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical form of the undirected edge between u and v."""
    if u == v:
        raise ValueError(f"loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite undirected graph without loops or parallel edges."""

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, frozenset[int]] = {int(v): frozenset() for v in vertices}
        staged: dict[int, set[int]] = {v: set() for v in adj}
        for u, v in edges:
            u, v = edge_key(u, v)
            if u not in staged or v not in staged:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            staged[u].add(v)
            staged[v].add(u)
        self._adj = {v: frozenset(ns) for v, ns in staged.items()} if staged else adj

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]]) -> "Graph":
        g = object.__new__(cls)
        g._adj = adj
        return g

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    def sorted_vertices(self) -> list[int]:
        return sorted(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def incident_edges(self, v: int) -> list[tuple[int, int]]:
        return [edge_key(v, u) for u in sorted(self._adj[v])]

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep_set = frozenset(keep)
        unknown = keep_set - self.vertices
        if unknown:
            raise ValueError(f"unknown vertices: {sorted(unknown)}")
        return Graph._from_adj({v: self._adj[v] & keep_set for v in keep_set})

    def ball(self, vs: Iterable[int], radius: int) -> frozenset[int]:
        """Vertices within the given distance of the seed set."""
        cur = set(vs)
        for _ in range(radius):
            nxt = set(cur)
            for v in cur:
                nxt |= self._adj[v]
            if nxt == cur:
                break
            cur = nxt
        return frozenset(cur)

    def components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in self._adj[v]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        """The empty graph counts as connected."""
        return len(self.components()) <= 1

    # -- edits (all return fresh graphs) -----------------------------------

    def delete_vertex(self, v: int) -> "Graph":
        if v not in self._adj:
            raise ValueError(f"no such vertex: {v}")
        adj = {u: ns - {v} for u, ns in self._adj.items() if u != v}
        return Graph._from_adj(adj)

    def delete_vertices(self, vs: Iterable[int]) -> "Graph":
        drop = frozenset(vs)
        unknown = drop - self.vertices
        if unknown:
            raise ValueError(f"no such vertices: {sorted(unknown)}")
        adj = {u: ns - drop for u, ns in self._adj.items() if u not in drop}
        return Graph._from_adj(adj)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge: ({u}, {v})")
        adj = dict(self._adj)
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        return Graph._from_adj(adj)

    def delete_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        g = self
        for u, v in es:
            g = g.delete_edge(u, v)
        return g

    def contract_edge(self, u: int, v: int, new_id: int | None = None) -> tuple["Graph", int]:
        """Contract edge uv into a fresh vertex; parallel edges merge.

        Returns the new graph and the minted vertex id (max id + 1 unless
        an explicit fresh id is supplied).
        """
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge: ({u}, {v})")
        z = max(self._adj) + 1 if new_id is None else new_id
        if z in self._adj:
            raise ValueError(f"vertex id {z} already in use")
        merged = (self._adj[u] | self._adj[v]) - {u, v}
        adj = {x: (ns - {u, v}) | ({z} if x in merged else frozenset())
               for x, ns in self._adj.items() if x not in (u, v)}
        adj[z] = frozenset(merged)
        return Graph._from_adj(adj), z

    def add_vertex(self, v: int, neighbors: Iterable[int] = ()) -> "Graph":
        if v in self._adj:
            raise ValueError(f"vertex id {v} already in use")
        nbrs = frozenset(neighbors)
        unknown = nbrs - self.vertices
        if unknown:
            raise ValueError(f"unknown neighbors: {sorted(unknown)}")
        adj = {u: ns | ({v} if u in nbrs else frozenset()) for u, ns in self._adj.items()}
        adj[v] = nbrs
        return Graph._from_adj(adj)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self._adj == other._adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edge_set()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def apply_edit(g: Graph, edit: tuple) -> Graph:
    """Apply a single edit described as a tagged tuple.

    Supported forms:
      ("delete-vertex", v)
      ("delete-edge", u, v)
      ("contract-edge", u, v)
      ("add-vertex", v, neighbors)
    """
    kind = edit[0]
    if kind == "delete-vertex":
        return g.delete_vertex(edit[1])
    if kind == "delete-edge":
        return g.delete_edge(edit[1], edit[2])
    if kind == "contract-edge":
        return g.contract_edge(edit[1], edit[2])[0]
    if kind == "add-vertex":
        return g.add_vertex(edit[1], edit[2])
    raise ValueError(f"unknown edit kind: {kind!r}")


# -- planarity ---------------------------------------------------------------


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.sorted_vertices())
    h.add_edges_from(g.edges())
    return h


def is_planar(g: Graph) -> bool:
    """Whether the graph admits a planar embedding."""
    if g.n <= 4:
        return True
    ok, _ = nx.check_planarity(_to_nx(g), counterexample=False)
    return ok


def planarity_certificate(g: Graph) -> tuple[bool, object]:
    """Planarity verdict together with a checkable certificate.

    For a planar graph the certificate is a combinatorial embedding; for a
    non-planar one it is a Kuratowski subgraph.  ``verify_certificate``
    validates either without re-running the planarity test.
    """
    ok, cert = nx.check_planarity(_to_nx(g), counterexample=True)
    return ok, cert


def verify_certificate(g: Graph, ok: bool, cert: object) -> bool:
    """Independently validate the output of ``planarity_certificate``."""
    if ok:
        return _verify_embedding(g, cert)
    return _verify_kuratowski(g, cert)


def _verify_embedding(g: Graph, emb) -> bool:
    # Euler's formula per connected component: v - e + f = 2, where face
    # traversals of the rotation system count every face of a component
    # that has at least one edge (edgeless components bound no walk).
    if set(emb.nodes()) != set(g.vertices):
        return False
    if {edge_key(u, v) for u, v in emb.edges()} != g.edge_set():
        return False
    half_edges = {(u, v) for u in g.sorted_vertices() for v in g.neighbors(u)}
    faces = 0
    marked: set[tuple[int, int]] = set()
    for he in sorted(half_edges):
        if he in marked:
            continue
        faces += 1
        emb.traverse_face(*he, mark_half_edges=marked)
    expected = 0
    for comp in g.components():
        sub = g.subgraph(comp)
        if sub.m >= 1:
            expected += 2 - sub.n + sub.m
    return faces == expected


def _verify_kuratowski(g: Graph, sub) -> bool:
    # The counterexample must be a subgraph whose degree-2 suppression is
    # K5 or K3,3.
    edges = {edge_key(u, v) for u, v in sub.edges()}
    if not edges <= g.edge_set():
        return False
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    branch = sorted(v for v, ns in adj.items() if len(ns) != 2)
    if any(len(adj[v]) < 3 for v in branch):
        return False
    # Walk the degree-2 chains between branch vertices.
    links: set[tuple[int, int]] = set()
    for s in branch:
        for first in adj[s]:
            prev, cur = s, first
            while cur not in branch:
                nxt = next(iter(adj[cur] - {prev}))
                prev, cur = cur, nxt
            if s != cur:
                links.add(edge_key(s, cur))
    if len(branch) == 5:
        return len(links) == 10
    if len(branch) == 6:
        if len(links) != 9:
            return False
        first = branch[0]
        other = {v for v in branch if v != first and edge_key(first, v) in links}
        side = {v for v in branch if v not in other}
        return len(side) == 3 and len(other) == 3 and all(
            edge_key(a, b) in links for a in side for b in other)
    return False


def verify_bipartite_planar_bound(g: Graph, v1: Iterable[int], v2: Iterable[int]) -> bool:
    """Check the size bound for one class of a planar bipartite graph.

    Requires (v1, v2) to partition the vertices of a planar bipartite
    graph in which every v2 vertex has degree at least 3 and v2 is
    non-empty.  Returns whether ``|v2| <= 2|v1| - 4``.
    """
    s1, s2 = frozenset(v1), frozenset(v2)
    if s1 & s2 or (s1 | s2) != g.vertices:
        raise ValueError("precondition failed: (v1, v2) is not a bipartition")
    for u, v in g.edges():
        if (u in s1) == (v in s1):
            raise ValueError("precondition failed: graph is not bipartite over (v1, v2)")
    if not s2:
        raise ValueError("precondition failed: v2 is empty")
    if any(g.degree(v) < 3 for v in s2):
        raise ValueError("precondition failed: a v2 vertex has degree < 3")
    if not is_planar(g):
        raise ValueError("precondition failed: graph is not planar")
    return len(s2) <= 2 * len(s1) - 4
