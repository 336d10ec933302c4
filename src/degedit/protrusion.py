"""Distance-2 dominating sets and protrusion decompositions.

A protrusion decomposition splits the vertex set into a core plus disjoint
parts whose closed neighbourhoods have small boundary and small treewidth,
with every part's outside neighbours confined to the core.  Construction:
seed the core with the dominating set, group the remaining components by
their neighbourhood in the core (merging oversized groups back into it),
then move core vertices with no neighbours outside a part's closed
neighbourhood into that part.  The result is always structurally valid;
only the reported size guarantees depend on how well the targets were met.

Each part's width certificate is the min-degree tree decomposition of its
closed neighbourhood, and the part's width is read off that certificate:
an upper bound on the treewidth, which is all the kernel needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph
from .treewidth import (DecompositionVerdict, TreeDecomposition, decompose,
                        validate as validate_td)


def greedy_2_dominating_set(g: Graph) -> frozenset[int]:
    """Greedy cover by distance-2 balls; ties break on vertex id."""
    uncovered = set(g.vertices)
    chosen: set[int] = set()
    balls = {v: g.ball([v], 2) for v in g.vertices}
    while uncovered:
        v = min(g.vertices - chosen,
                key=lambda x: (-len(balls[x] & uncovered), x))
        chosen.add(v)
        uncovered -= balls[v]
    return frozenset(chosen)


def is_r_dominating(g: Graph, dom: Iterable[int], r: int) -> bool:
    return g.ball(dom, r) == g.vertices


@dataclass(frozen=True)
class Part:
    vertices: frozenset[int]
    boundary: frozenset[int]       # neighbours of the part, inside the core
    cert: TreeDecomposition        # decomposition of the closed neighbourhood

    @property
    def width(self) -> int:
        return self.cert.width

    @property
    def closed(self) -> frozenset[int]:
        return self.vertices | self.boundary


@dataclass(frozen=True)
class ProtrusionDecomposition:
    r0: frozenset[int]
    parts: tuple[Part, ...]
    alpha: int
    certified: bool

    @property
    def p(self) -> int:
        return len(self.parts)


def build_protrusion_decomposition(g: Graph, domset: Iterable[int], r: int = 2, *,
                                   boundary_cap: int | None = None
                                   ) -> ProtrusionDecomposition:
    """Decomposition seeded by an r-dominating set (validated, else rejected).

    Groups whose boundary exceeds ``boundary_cap`` are absorbed into the
    core: that sacrifices size guarantees, never validity.
    """
    dom = frozenset(domset)
    if not dom <= g.vertices:
        raise ValueError("dominating set contains unknown vertices")
    if not is_r_dominating(g, dom, r):
        raise ValueError(f"set is not {r}-dominating")
    core = set(dom)
    rest = g.subgraph(g.vertices - core)
    groups: dict[frozenset[int], set[int]] = {}
    for comp in rest.components():
        nbhd = frozenset(x for v in comp for x in g.neighbors(v)) - comp
        groups.setdefault(nbhd, set()).update(comp)
    raw_parts: list[tuple[set[int], set[int]]] = []
    for nbhd in sorted(groups, key=sorted):
        verts = groups[nbhd]
        if boundary_cap is not None and len(nbhd) > boundary_cap:
            core |= verts
        else:
            raw_parts.append((verts, set(nbhd)))

    parts: list[Part] = []
    for verts, nbhd in raw_parts:
        closed = verts | nbhd
        moved = True
        while moved:
            moved = False
            for u in sorted(nbhd):
                if g.neighbors(u) <= closed:
                    nbhd.discard(u)
                    verts.add(u)
                    core.discard(u)
                    moved = True
        cert = decompose(g.subgraph(closed))
        parts.append(Part(frozenset(verts), frozenset(nbhd), cert))

    alpha = max([3] + [len(p.boundary) for p in parts] + [p.width for p in parts])
    certified = max(len(parts), len(core)) <= alpha * max(1, len(dom))
    return ProtrusionDecomposition(frozenset(core), tuple(parts), alpha, certified)


def validate_protrusion_decomposition(g: Graph, pd: ProtrusionDecomposition
                                      ) -> DecompositionVerdict:
    """Check partition, boundary containment, and width certificates."""
    pieces = [pd.r0] + [p.vertices for p in pd.parts]
    total = 0
    for piece in pieces:
        total += len(piece)
    union = frozenset().union(*pieces) if pieces else frozenset()
    if union != g.vertices or total != g.n:
        return DecompositionVerdict(False, "parts and core do not partition the vertices")
    for i, part in enumerate(pd.parts, 1):
        true_nbhd = frozenset(x for v in part.vertices
                              for x in g.neighbors(v)) - part.vertices
        if true_nbhd != part.boundary:
            return DecompositionVerdict(
                False, f"part {i}: recorded boundary differs from true neighbourhood")
        if not part.boundary <= pd.r0:
            return DecompositionVerdict(
                False, f"part {i}: condition (iii) failed, neighbour outside core")
        closed = part.closed
        shell = frozenset(v for v in closed
                          if any(u not in closed for u in g.neighbors(v)))
        if not part.boundary <= shell:
            return DecompositionVerdict(
                False, f"part {i}: condition (iii) failed, boundary vertex "
                       "has no outside neighbour")
        sub = g.subgraph(closed)
        td_verdict = validate_td(sub, part.cert)
        if not td_verdict:
            return DecompositionVerdict(
                False, f"part {i}: width certificate invalid ({td_verdict.reason})")
        if part.width > pd.alpha or len(part.boundary) > pd.alpha:
            return DecompositionVerdict(
                False, f"part {i}: condition (ii) failed, exceeds alpha={pd.alpha}")
    return DecompositionVerdict(True)
