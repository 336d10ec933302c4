"""Tree decompositions: construction, nice form and validation.

``decompose`` eliminates in min-degree order, the upper-bound heuristic of
Bodlaender and Koster ("Treewidth computations I. Upper bounds", 2010).
Downstream correctness never depends on width optimality, only running
time does: a width certificate needs a valid decomposition of bounded
width, not an optimal one.

``validate`` decides conditions (i)-(iii) of a nice decomposition in one
pass over its forget nodes, with no search per vertex.  Once the shape
holds (each node's bag follows from its children's, and the root bag is
empty), a vertex leaves the bags on the way up only at a forget of itself,
so the bags holding x form one subtree per forget of x, topped by that
forget's child.  Hence the bag union is the set of forgotten vertices
(condition (i)), and x spans a connected set of bags exactly when it is
forgotten once (condition (iii)).  Two subtrees of a rooted tree meet only
if the top of one lies in the other, so edge uv shares a bag exactly when
some top bag of u holds v or some top bag of v holds u (condition (ii)).

A plain decomposition is checked through the nice form ``to_nice`` builds
from it, which is well shaped whenever the tree is.  That form keeps every
bag and adds only subsets of bags, and forgets a vertex once per connected
piece of the bags holding it, so each condition holds for the one exactly
when it holds for the other, and the first failure found is the same.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import Graph

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: frozenset[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted binary decomposition in postorder (children precede parents).

    Node kinds: empty-bag leaves, introduce/forget of a single vertex, and
    joins of two equal-bag children.  The root is the last node and is a
    forget node with an empty bag (a lone empty leaf for the empty graph),
    unless ``to_nice`` was given a nonempty ``root_bag``.
    """
    kinds: tuple[str, ...]
    bags: tuple[frozenset[int], ...]
    children: tuple[tuple[int, ...], ...]
    vertex: tuple[int | None, ...]

    @property
    def root(self) -> int:
        return len(self.kinds) - 1

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class DecompositionVerdict:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# -- elimination machinery ----------------------------------------------------


def _adj_dict(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _eliminate(adj: dict[int, set[int]], v: int) -> None:
    nbrs = adj[v]
    for a in nbrs:
        adj[a] |= nbrs - {a}
        adj[a].discard(v)
    del adj[v]


def _min_degree_elimination(g: Graph) -> tuple[list[int], list[frozenset[int]]]:
    """Repeatedly eliminate the vertex minimising (degree, id); the order,
    and the bag of each vertex: itself and its neighbours when eliminated.

    A heap holds (degree, id) pairs; an entry is stale once its vertex is
    gone or its degree changed, and is dropped when popped.  Eliminating v
    changes only the degrees of its neighbours.
    """
    adj = _adj_dict(g)
    current = {v: len(ns) for v, ns in adj.items()}
    heap = [(k, v) for v, k in current.items()]
    heapq.heapify(heap)
    order, bags = [], []
    while heap:
        k, v = heapq.heappop(heap)
        if current.get(v) != k:
            continue
        order.append(v)
        del current[v]
        nbrs = adj[v]
        bags.append(frozenset(nbrs | {v}))
        _eliminate(adj, v)
        for x in nbrs:
            k = len(adj[x])
            if current[x] != k:
                current[x] = k
                heapq.heappush(heap, (k, x))
    return order, bags


def decompose(g: Graph) -> TreeDecomposition:
    """Build a valid tree decomposition of g by min-degree elimination.

    Each vertex's bag hangs below the bag of its neighbour eliminated
    first after it; the bags with no such neighbour are chained in order.
    """
    order, bags = _min_degree_elimination(g)
    if not order:
        return TreeDecomposition((frozenset(),), frozenset())
    pos = {v: i for i, v in enumerate(order)}
    edges, roots = set(), []
    for i, (v, bag) in enumerate(zip(order, bags)):
        parent = min((pos[u] for u in bag if u != v), default=None)
        if parent is None:
            roots.append(i)
        else:
            edges.add((i, parent))
    # chain the component roots so the result is a single tree
    edges.update(zip(roots, roots[1:]))
    return TreeDecomposition(tuple(bags), frozenset(edges))


# -- validation ---------------------------------------------------------------


def validate(g: Graph, td: TreeDecomposition | NiceTreeDecomposition
             ) -> DecompositionVerdict:
    """Check the decomposition conditions; names the first failure."""
    if isinstance(td, NiceTreeDecomposition):
        nice_verdict = _validate_nice_shape(td)
        if not nice_verdict:
            return nice_verdict
        return _validate_nice_forgets(g, td)
    try:
        ntd = to_nice(td)
    except ValueError:
        return DecompositionVerdict(False, "tree structure invalid")
    return _validate_nice_forgets(g, ntd)


def _validate_nice_forgets(g: Graph, ntd: NiceTreeDecomposition
                           ) -> DecompositionVerdict:
    """Conditions (i)-(iii) of a well-shaped nice decomposition, read off
    the bags below its forget nodes (see the module docstring)."""
    bags, children, vertex = ntd.bags, ntd.children, ntd.vertex
    top: dict[int, frozenset[int]] = {}     # vertex -> bag below its first forget
    more: dict[int, list[frozenset[int]]] = {}  # ... below its later forgets
    for i, kind in enumerate(ntd.kinds):
        if kind == FORGET:
            x = vertex[i]
            if x in top:
                more.setdefault(x, []).append(bags[children[i][0]])
            else:
                top[x] = bags[children[i][0]]
    if top.keys() != g.vertices:
        return DecompositionVerdict(
            False, "condition (i) failed: bag union differs from vertex set")
    for u, v in g.edges():
        if v in top[u] or u in top[v]:
            continue
        if not (any(v in b for b in more.get(u, ()))
                or any(u in b for b in more.get(v, ()))):
            return DecompositionVerdict(
                False, f"condition (ii) failed: edge ({u}, {v}) not in any bag")
    for x in g.vertices:
        if x in more:
            return DecompositionVerdict(
                False, f"condition (iii) failed: vertex {x} spans a "
                       "disconnected set of bags")
    return DecompositionVerdict(True)


def _validate_nice_shape(ntd: NiceTreeDecomposition) -> DecompositionVerdict:
    n = len(ntd)
    if n == 0:
        return DecompositionVerdict(False, "empty decomposition")
    bags = ntd.bags
    seen_as_child: set[int] = set()
    for i in range(n):
        kind, bag, cs, v = ntd.kinds[i], bags[i], ntd.children[i], ntd.vertex[i]
        for c in cs:
            if not c < i:
                return DecompositionVerdict(False, "children must precede parents")
            if c in seen_as_child:
                return DecompositionVerdict(False, f"node {c} has two parents")
            seen_as_child.add(c)
        # lengths and subset tests pin each bag down without building it
        if kind == LEAF:
            if cs or bag:
                return DecompositionVerdict(False, f"leaf node {i} malformed")
        elif kind == INTRODUCE:
            if len(cs) != 1 or v is None or v in bags[cs[0]] or v not in bag \
                    or len(bag) != len(bags[cs[0]]) + 1 or not bags[cs[0]] <= bag:
                return DecompositionVerdict(False, f"introduce node {i} malformed")
        elif kind == FORGET:
            if len(cs) != 1 or v is None or v not in bags[cs[0]] or v in bag \
                    or len(bag) != len(bags[cs[0]]) - 1 or not bag <= bags[cs[0]]:
                return DecompositionVerdict(False, f"forget node {i} malformed")
        elif kind == JOIN:
            if len(cs) != 2 or bags[cs[0]] != bag or bags[cs[1]] != bag:
                return DecompositionVerdict(False, f"join node {i} malformed")
        else:
            return DecompositionVerdict(False, f"unknown node kind {kind!r}")
    root = ntd.root
    if root in seen_as_child:
        return DecompositionVerdict(False, "root has a parent")
    if len(seen_as_child) != n - 1:
        return DecompositionVerdict(False, "not a single tree")
    if ntd.bags[root]:
        return DecompositionVerdict(False, "root bag must be empty")
    if ntd.kinds[root] == LEAF and n == 1:
        return DecompositionVerdict(True)  # degenerate: empty graph
    if ntd.kinds[root] != FORGET:
        return DecompositionVerdict(False, "root must be a forget node")
    return DecompositionVerdict(True)


# -- nice-form conversion -----------------------------------------------------


class _NiceBuilder:
    def __init__(self):
        self.kinds: list[str] = []
        self.bags: list[frozenset[int]] = []
        self.children: list[tuple[int, ...]] = []
        self.vertex: list[int | None] = []

    def add(self, kind, bag, children=(), vertex=None) -> int:
        self.kinds.append(kind)
        self.bags.append(frozenset(bag))
        self.children.append(tuple(children))
        self.vertex.append(vertex)
        return len(self.kinds) - 1

    def chain(self, node: int, source: frozenset[int], target: frozenset[int]) -> int:
        """Forget source-only vertices then introduce target-only ones."""
        bag = set(source)
        for v in sorted(source - target):
            bag.discard(v)
            node = self.add(FORGET, bag, (node,), v)
        for v in sorted(target - source):
            bag.add(v)
            node = self.add(INTRODUCE, bag, (node,), v)
        return node

    def leaf_chain(self, bag: frozenset[int]) -> int:
        node = self.add(LEAF, frozenset())
        return self.chain(node, frozenset(), bag)

    def build(self) -> NiceTreeDecomposition:
        return NiceTreeDecomposition(tuple(self.kinds), tuple(self.bags),
                                     tuple(self.children), tuple(self.vertex))


def _postorder(td: TreeDecomposition) -> list[tuple[int, list[int]]] | None:
    """The tree rooted at node 0 in postorder, as (node, ascending children)
    pairs; None unless ``tree_edges`` form a tree: n - 1 edges within range,
    no self-loop, every node reached (a reversed duplicate pair leaves one
    unreached)."""
    n = len(td.bags)
    if n == 0 or len(td.tree_edges) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in td.tree_edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            return None
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    seen[0] = True
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        kids = []
        for j in sorted(adj[i]):
            if not seen[j]:
                seen[j] = True
                kids.append(j)
        order.append((i, kids))
        stack.extend(kids)
    if len(order) != n:
        return None
    order.reverse()
    return order


def to_nice(td: TreeDecomposition, root_bag: frozenset[int] = frozenset()
            ) -> NiceTreeDecomposition:
    """Convert to nice form, rooted at ``root_bag``.

    Only the final chain depends on ``root_bag``, and the width is td's
    unless ``root_bag`` is larger than every bag; a DP keeps the state of
    its vertices up to the root.  Rejects input whose tree structure is
    invalid; the conditions against a graph are checked by ``validate``.
    """
    order = _postorder(td)
    if order is None:
        raise ValueError("invalid decomposition: tree structure invalid")
    b = _NiceBuilder()
    done: dict[int, int] = {}
    for i, kids in order:
        bag = td.bags[i]
        if not kids:
            done[i] = b.leaf_chain(bag)
            continue
        arms = [b.chain(done[j], td.bags[j], bag) for j in kids]
        node = arms[0]
        for arm in arms[1:]:
            node = b.add(JOIN, bag, (node, arm))
        done[i] = node
    b.chain(done[0], td.bags[0], root_bag)
    return b.build()
