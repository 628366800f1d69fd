"""Induced-subgraph embeddings into edge graphs, and the scattered tetrahedra.

An embedding of a pattern graph into a host graph is an injective vertex map
under which two pattern vertices are adjacent exactly when their images are.
With the host itself as the pattern, the embeddings are its automorphisms.
"""

from __future__ import annotations

from .errors import ParameterError, VerificationError
from .polytopes import DistanceMatrix, PolytopeGraph
from .simplicial import Simplex, _enumerate_cliques, vertices_of


def embeddings(p: PolytopeGraph, g: PolytopeGraph) -> list[tuple[int, ...]]:
    """All induced-subgraph embeddings of p into g as image tuples, sorted.

    Backtracking over pattern vertices, visiting each new vertex through an
    already placed neighbor whenever one exists so adjacency constraints
    prune early.  Hosts have at most 20 vertices, so nothing fancier is
    needed.
    """
    n = p.vertex_count
    if n > g.vertex_count:
        raise ParameterError("pattern larger than host graph")

    order: list[int] = []
    seen = 0
    while len(order) < n:
        nxt = min(
            (v for v in range(n) if not seen >> v & 1),
            key=lambda v: (-(p.adjacency[v] & seen).bit_count(), v),
        )
        order.append(nxt)
        seen |= 1 << nxt

    # for each depth, the placed vertices and whether each is adjacent to the next
    placed = [[(u, p.adjacent(u, v)) for u in order[:depth]] for depth, v in enumerate(order)]
    results: list[tuple[int, ...]] = []
    img = [-1] * n

    def place(depth: int, unused: int) -> None:
        if depth == n:
            results.append(tuple(img))
            return
        v = order[depth]
        cand = unused
        for u, adjacent in placed[depth]:
            nbrs = g.adjacency[img[u]]
            cand &= nbrs if adjacent else ~nbrs
        while cand:
            low = cand & -cand
            cand ^= low
            img[v] = low.bit_length() - 1
            place(depth + 1, unused ^ low)

    place(0, (1 << g.vertex_count) - 1)
    results.sort()
    return results


def diameter3_tetrahedra(metric: DistanceMatrix) -> list[Simplex]:
    """All 4-subsets with every pairwise hop distance equal to 3.

    The 4-cliques of the distance-3 graph, read off its clique enumeration,
    in lexicographic order.  On the dodecahedron there must be exactly ten;
    any other count is a verification failure.
    """
    n = metric.size
    far = tuple(sum(1 << j for j, d in enumerate(metric.dist[i]) if d == 3) for i in range(n))
    levels = _enumerate_cliques(far)
    tets = [vertices_of(m) for m in levels[3]] if len(levels) > 3 else []
    if len(tets) != 10:
        raise VerificationError(
            f"expected 10 pairwise-distance-3 tetrahedra, found {len(tets)}"
        )
    return tets
