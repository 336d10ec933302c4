"""Immutable simple-graph model with edit primitives and planarity checks.

Vertices are opaque integers.  Edges are canonical ordered pairs ``(u, v)``
with ``u < v``.  Every edit returns a fresh graph; values can therefore be
shared freely between concurrent workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical form of the undirected edge between u and v."""
    if u == v:
        raise ValueError(f"loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite undirected graph without loops or parallel edges."""

    __slots__ = ("_adj", "_edges")

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
        self._edges = None

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]],
                  edges: frozenset[tuple[int, int]] | None = None) -> "Graph":
        """Graph over adj as is; ``edges``, when given, must be its edge set."""
        g = object.__new__(cls)
        g._adj = adj
        g._edges = edges
        return g

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    def vertex_keys(self) -> KeysView[int]:
        """The vertices as a live key view, compared as a set without a copy."""
        return self._adj.keys()

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
        """The edge pairs, built on first use and kept: a graph never changes."""
        if self._edges is None:
            self._edges = frozenset(self.edges())
        return self._edges

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
        return self.delete_edges([(u, v)])

    def delete_edges(self, es: Iterable[tuple[int, int]]) -> "Graph":
        """Delete es one after another on one copy of the adjacency."""
        adj = dict(self._adj)
        for u, v in es:
            if u not in adj or v not in adj[u]:
                raise ValueError(f"no such edge: ({u}, {v})")
            adj[u] = adj[u] - {v}
            adj[v] = adj[v] - {u}
        return Graph._from_adj(adj)

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


# -- planarity ---------------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Whether the graph admits a planar embedding.

    Brandes' left-right planarity test ("The Left-Right Planarity Test",
    2009), test phase only: it decides planarity without building an
    embedding.  Both depth-first passes keep explicit stacks, so the depth
    of the graph is not limited by the interpreter's recursion limit.
    """
    adj = g._adj
    n, m = len(adj), g.m
    # Kuratowski: K3,3 has 9 edges and K5 has 10, and no subdivision of
    # either has fewer
    if m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    index = {v: i for i, v in enumerate(adj)}
    return _lr_test([[index[u] for u in ns] for ns in adj.values()])


def _lr_test(nbrs: list[list[int]]) -> bool:
    """LR partition test on vertices 0..n-1 with the given adjacency lists.

    Only state that the test itself reads is kept.  ``side``,
    ``lowpt_edge`` and the ``ref`` links that only sign an edge for the
    embedding (those of tree edges, aligned pairs and emptied intervals)
    are left out.
    """
    n = len(nbrs)
    # Orientation: a DFS directs every edge away from the root (tree
    # edges) or towards an ancestor (back edges).  Edge ids are assigned
    # in discovery order, so every edge out of v comes after the tree edge
    # into v.
    height = [-1] * n
    parent_edge = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    pos = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            nv = nbrs[v]
            i = pos[v]
            while i < len(nv):
                w = nv[i]
                i += 1
                hw = height[w]
                if hw < 0 or hw < hv - 1:
                    out[v].append(len(src))
                    src.append(v)
                    dst.append(w)
                    if hw < 0:
                        parent_edge[w] = len(src) - 1
                        height[w] = hv + 1
                        lowpt.append(hv)
                        stack.append(w)
                        break
                    lowpt.append(hw)
                # hw == hv - 1 is the tree edge from the parent; hw > hv is
                # a back edge that the descendant w has already oriented.
            else:
                stack.pop()
            pos[v] = i
    m = len(src)
    lowpt2 = [height[v] for v in src]
    # Lowest and second-lowest return points, children before parents.
    for e in range(m - 1, -1, -1):
        pe = parent_edge[src[e]]
        if pe < 0:
            continue
        low, up = lowpt[e], lowpt[pe]
        if low < up:
            lowpt2[pe] = min(up, lowpt2[e])
            lowpt[pe] = low
        elif low > up:
            lowpt2[pe] = min(lowpt2[pe], low)
        else:
            lowpt2[pe] = min(lowpt2[pe], lowpt2[e])
    nesting = [2 * lowpt[e] + (lowpt2[e] < height[src[e]]) for e in range(m)]
    for edges in out:
        edges.sort(key=nesting.__getitem__)

    # Testing: a conflict pair is [left.low, left.high, right.low,
    # right.high], each interval a chain of back edges linked through
    # ``ref`` from high to low, or (None, None) when empty.
    stack_pairs: list[list] = []
    bottom = [0] * m        # stack height when the edge was entered
    ref: list[int | None] = [None] * m

    def add_constraints(ei: int, e: int) -> bool:
        pair = [None, None, None, None]
        # Merge the return edges of ei into the right interval.
        while True:
            q = stack_pairs.pop()
            if q[0] is not None:
                if q[2] is not None:
                    return False
                q = [q[2], q[3], q[0], q[1]]
            if lowpt[q[2]] > lowpt[e]:
                if pair[2] is None:
                    pair[3] = q[3]
                else:
                    ref[pair[2]] = q[3]
                pair[2] = q[2]
            # else q returns exactly to lowpt(e): aligned with the lowest
            # return edge of e, it constrains nothing above and is dropped.
            if len(stack_pairs) == bottom[ei]:
                break
        # Merge the conflicting return edges of earlier siblings into the
        # left interval.  An interval conflicts with ei when its highest
        # return edge returns above lowpt(ei).
        low = lowpt[ei]
        while stack_pairs:
            q = stack_pairs[-1]
            left = q[1] is not None and lowpt[q[1]] > low
            right = q[3] is not None and lowpt[q[3]] > low
            if not (left or right):
                break
            stack_pairs.pop()
            if right:
                if left:
                    return False
                q = [q[2], q[3], q[0], q[1]]
            if pair[2] is not None:
                ref[pair[2]] = q[3]
            if q[2] is not None:
                pair[2] = q[2]
            if pair[0] is None:
                pair[1] = q[1]
            else:
                ref[pair[0]] = q[1]
            pair[0] = q[0]
        if pair[0] is not None or pair[2] is not None:
            stack_pairs.append(pair)
        return True

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # Drop whole pairs whose lowest return edge ends at u.
        while stack_pairs:
            ll, _, rl, _ = stack_pairs[-1]
            lowest = lowpt[rl] if ll is None else (
                lowpt[ll] if rl is None else min(lowpt[ll], lowpt[rl]))
            if lowest != hu:
                break
            stack_pairs.pop()
        if stack_pairs:
            # Trim back edges ending at u from the top of both intervals.
            pair = stack_pairs[-1]
            for lo, hi in ((0, 1), (2, 3)):
                high = pair[hi]
                while high is not None and dst[high] == u:
                    high = ref[high]
                pair[hi] = high
                if high is None:
                    pair[lo] = None

    def integrate(v: int, i: int, ei: int) -> bool:
        # Return edges of a later sibling must be placed against those of
        # the edges before it; the first edge sets no constraint.
        if i == 0 or lowpt[ei] >= height[v]:
            return True
        return add_constraints(ei, parent_edge[v])

    pos = [0] * n
    for root in range(n):
        if height[root]:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            edges = out[v]
            i = pos[v]
            while i < len(edges):
                ei = edges[i]
                bottom[ei] = len(stack_pairs)
                if parent_edge[dst[ei]] == ei:
                    break
                stack_pairs.append([None, None, ei, ei])
                if not integrate(v, i, ei):
                    return False
                i += 1
            pos[v] = i
            if i < len(edges):
                stack.append(dst[edges[i]])
                continue
            stack.pop()
            e = parent_edge[v]
            if e >= 0:
                remove_back_edges(e)
                u = src[e]
                if not integrate(u, pos[u], e):
                    return False
                pos[u] += 1
    return True


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
