"""Edge graphs, coordinates, and hop metrics for platonic solids and n-cubes.

Vertex numbering is fixed by the construction order of the coordinate lists
below; nothing else in the package depends on a particular numbering, only on
it being deterministic.  A vertex set is a bitmask, bit v for vertex v, as
in PolytopeGraph.adjacency; mask_of and vertices_of convert, here and in
every module above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, StructuralError

PHI = (1.0 + math.sqrt(5.0)) / 2.0

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

# Chord-length gap between distinct distance classes is > 0.2 on every solid,
# so a fixed tolerance is safe for adjacency detection.
_TOL = 1e-9


def mask_of(vertices) -> int:
    """The bitmask of a vertex set: bit v set for vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """The vertex ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class PolytopeInfo:
    """Facet size m, vertex degree n, vertex count v, graph diameter k."""

    m: int
    n: int
    v: int
    k: int


_INFO = {
    "tetrahedron": PolytopeInfo(m=3, n=3, v=4, k=1),
    "cube": PolytopeInfo(m=4, n=3, v=8, k=3),
    "octahedron": PolytopeInfo(m=3, n=4, v=6, k=2),
    "dodecahedron": PolytopeInfo(m=5, n=3, v=20, k=5),
    "icosahedron": PolytopeInfo(m=3, n=5, v=12, k=3),
}


def solid_info(name: str) -> PolytopeInfo:
    """Combinatorial data of one of the five solids."""
    if name not in _INFO:
        raise ParameterError(f"unknown solid {name!r}; expected one of {SOLIDS}")
    return _INFO[name]


@dataclass(frozen=True)
class PolytopeGraph:
    """An undirected graph with vertices 0..vertex_count-1 and optional unit-sphere coordinates.

    adjacency[i] is a bitmask over vertex ids; bit j is set iff {i, j} is an edge.
    """

    name: str
    vertex_count: int
    adjacency: tuple[int, ...]
    coords: tuple[tuple[float, ...], ...] | None = None

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.vertex_count):
            mask = self.adjacency[i] >> (i + 1) << (i + 1)
            out.extend((i, j) for j in vertices_of(mask))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.vertex_count)) // 2


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances of a connected graph."""

    size: int
    dist: tuple[tuple[int, ...], ...]

    def d(self, i: int, j: int) -> int:
        return self.dist[i][j]

    def diameter(self) -> int:
        return max(max(row) for row in self.dist)


@dataclass(frozen=True)
class DistanceTable:
    """Hop distance versus euclidean chord and spherical (angular) distance.

    rows[i] = (hop, chord, angle) for hop = i + 1, on the unit circumsphere.
    """

    name: str
    rows: tuple[tuple[int, float, float], ...]


def _normalize(points: list[tuple[float, float, float]]) -> tuple[tuple[float, ...], ...]:
    out = []
    for p in points:
        r = math.sqrt(sum(x * x for x in p))
        out.append(tuple(x / r for x in p))
    return tuple(out)


def _sign_coords(idx: int) -> tuple[float, float, float]:
    # bit b of idx selects the sign of coordinate b: 0 -> -1, 1 -> +1
    return (
        1.0 if idx & 1 else -1.0,
        1.0 if idx >> 1 & 1 else -1.0,
        1.0 if idx >> 2 & 1 else -1.0,
    )


def _coords(name: str) -> tuple[tuple[float, ...], ...]:
    if name == "tetrahedron":
        pts = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    elif name == "cube":
        pts = [_sign_coords(i) for i in range(8)]
    elif name == "octahedron":
        pts = [
            (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
            (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
        ]
    elif name == "dodecahedron":
        a, b = 1.0 / PHI, PHI
        pts = [_sign_coords(i) for i in range(8)]
        pts += [(0.0, sa * a, sb * b) for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
        pts += [(sa * a, sb * b, 0.0) for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
        pts += [(sb * b, 0.0, sa * a) for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
    elif name == "icosahedron":
        pts = [(0.0, s1, s2 * PHI) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        pts += [(s1, s2 * PHI, 0.0) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        pts += [(s2 * PHI, 0.0, s1) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    else:
        raise ParameterError(f"unknown solid {name!r}; expected one of {SOLIDS}")
    return _normalize(pts)


def _chord(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def build_solid(name: str) -> PolytopeGraph:
    """Edge graph of a platonic solid with unit-circumsphere coordinates.

    Two vertices are adjacent iff their chord length equals the minimum
    pairwise chord length (within 1e-9).
    """
    info = solid_info(name)
    coords = _coords(name)
    n = len(coords)
    chords = {(i, j): _chord(coords[i], coords[j]) for i in range(n) for j in range(i + 1, n)}
    minimum = min(chords.values())
    adj = [0] * n
    for (i, j), chord in chords.items():
        if abs(chord - minimum) < _TOL:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    g = PolytopeGraph(name=name, vertex_count=n, adjacency=tuple(adj), coords=coords)
    if any(g.degree(i) != info.n for i in range(n)):
        raise StructuralError(f"{name}: construction produced a non-{info.n}-regular graph")
    if g.edge_count() != info.n * info.v // 2:
        raise StructuralError(f"{name}: wrong edge count")
    return g


def cube_graph(n: int) -> PolytopeGraph:
    """Hypercube graph on 2**n bitstring vertices; edges flip one bit (1 <= n <= 12)."""
    if not isinstance(n, int) or not 1 <= n <= 12:
        raise ParameterError(f"cube dimension must be an integer in 1..12, got {n!r}")
    size = 1 << n
    adj = tuple(
        sum(1 << (v ^ (1 << b)) for b in range(n)) for v in range(size)
    )
    return PolytopeGraph(name=f"{n}-cube", vertex_count=size, adjacency=adj, coords=None)


def combinatorial_metric(g: PolytopeGraph) -> DistanceMatrix:
    """All-pairs hop distances via breadth-first search from every vertex.

    Each search is on bitsets: the next layer is the union of the current
    layer's neighbourhoods, less every vertex already reached.
    """
    n = g.vertex_count
    adj = g.adjacency
    everyone = (1 << n) - 1
    rows = []
    for src in range(n):
        dist = [0] * n
        seen = layer = 1 << src
        hops = 0
        while layer:
            hops += 1
            reach = 0
            while layer:
                low = layer & -layer
                layer ^= low
                reach |= adj[low.bit_length() - 1]
            layer = reach & ~seen
            seen |= layer
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                dist[low.bit_length() - 1] = hops
        if seen != everyone:
            raise StructuralError(f"graph {g.name!r} is disconnected")
        rows.append(tuple(dist))
    return DistanceMatrix(size=n, dist=tuple(rows))


def distance_table(name: str) -> DistanceTable:
    """Chord and angular distance per hop distance class, on the unit circumsphere.

    Every hop distance class of a platonic solid realizes a single chord
    length; this is verified during construction.
    """
    g = build_solid(name)
    metric = combinatorial_metric(g)
    coords = g.coords
    assert coords is not None
    rows = []
    for hop in range(1, metric.diameter() + 1):
        chords = [
            _chord(coords[i], coords[j])
            for i in range(g.vertex_count)
            for j in range(i + 1, g.vertex_count)
            if metric.d(i, j) == hop
        ]
        if not chords:
            raise StructuralError(f"{name}: no pair at hop distance {hop}")
        if max(chords) - min(chords) > _TOL:
            raise StructuralError(f"{name}: hop distance {hop} mixes chord lengths")
        chord = chords[0]
        # chord c and central angle t on the unit sphere satisfy c^2 = 2 - 2 cos t
        cos_t = max(-1.0, min(1.0, 1.0 - chord * chord / 2.0))
        rows.append((hop, chord, math.acos(cos_t)))
    return DistanceTable(name=name, rows=tuple(rows))
