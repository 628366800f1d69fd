"""Simplicial complexes on integer vertex sets, with Vietoris-Rips constructors.

A simplex is a strictly ascending tuple of vertex ids.  Internally every face
is a bitmask over vertex ids, which keeps face and coface tests cheap; masks
never leak through the public API except where documented.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError, StructuralError
from .polytopes import DistanceMatrix, PolytopeGraph, build_solid, combinatorial_metric, solid_info

Simplex = tuple[int, ...]


def simplex(vertices) -> Simplex:
    """Validate and normalize a vertex collection into a simplex tuple."""
    vs = tuple(vertices)
    if not vs:
        raise ParameterError("a simplex needs at least one vertex")
    if any(not isinstance(v, int) or v < 0 for v in vs):
        raise ParameterError(f"vertex ids must be non-negative integers: {vs!r}")
    if any(a >= b for a, b in zip(vs, vs[1:])):
        raise ParameterError(f"vertices must be strictly ascending: {vs!r}")
    return vs


def mask_of(s: Simplex) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> Simplex:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def signed_facets(mask: int) -> list[tuple[int, int]]:
    """Each facet of a face with its boundary coefficient, as (facet mask, sign).

    The package's one sign rule: dropping the i-th smallest vertex
    (i = 0, 1, ...) gives (-1)^(i+1).  Facets come in that order; a vertex
    has none.
    """
    out = []
    sign = -1
    m = mask
    while m:
        low = m & -m
        m ^= low
        out.append((mask ^ low, sign))
        sign = -sign
    return out if len(out) > 1 else []


@dataclass(eq=False)
class Complex:
    """A finite simplicial complex, faces stored per dimension in lexicographic order.

    faces[k] holds the bitmasks of all k-faces.  graph, when present, is the
    adjacency mask table of the graph whose clique complex this is; it enables
    fast maximality tests.  cone_vertex marks a vertex adjacent to every other
    vertex at the construction threshold, which forces contractibility.
    """

    vertex_count: int
    faces: list[list[int]]
    graph: tuple[int, ...] | None = None
    cone_vertex: int | None = None
    _indexes: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.faces == other.faces

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def face_total(self) -> int:
        return sum(len(level) for level in self.faces)

    def index(self, k: int) -> dict[int, int]:
        """Mask -> position lookup for dimension k, built lazily."""
        if k not in self._indexes:
            self._indexes[k] = {m: i for i, m in enumerate(self.faces[k])}
        return self._indexes[k]

    def has_face(self, s: Simplex) -> bool:
        k = len(s) - 1
        if k >= len(self.faces):
            return False
        return mask_of(s) in self.index(k)

    def has_mask(self, mask: int, k: int) -> bool:
        if k >= len(self.faces):
            return False
        return mask in self.index(k)

    def simplices(self, k: int) -> list[Simplex]:
        """All k-faces as vertex tuples, in storage order."""
        if not 0 <= k <= self.dim:
            return []
        return [vertices_of(m) for m in self.faces[k]]

    def is_maximal_mask(self, mask: int, k: int) -> bool:
        if self.graph is not None:
            common = (1 << self.vertex_count) - 1
            for v in vertices_of(mask):
                common &= self.graph[v]
            return common & ~mask == 0  # no common neighbor outside the face
        if k + 1 > self.dim:
            return True
        above = self.index(k + 1)
        for v in range(self.vertex_count):
            bit = 1 << v
            if not mask & bit and (mask | bit) in above:
                return False
        return True


def _finish(levels: dict[int, list[int]], vertex_count: int, graph=None, cone=None) -> Complex:
    """Assemble a complex from per-dimension mask lists already in lexicographic order."""
    faces = [levels.get(k, []) for k in range(max(levels) + 1 if levels else 0)]
    if not faces:
        raise StructuralError("refusing to build an empty complex")
    return Complex(vertex_count=vertex_count, faces=faces, graph=graph, cone_vertex=cone)


def _enumerate_cliques(adj: tuple[int, ...], n: int) -> dict[int, list[int]]:
    """All cliques of the graph, streamed into per-dimension mask lists.

    Depth-first extension by ascending vertex id: a clique is extended only by
    vertices larger than its maximum, so each clique is produced once, and
    each list comes out in lexicographic order (a preorder walk of the
    lexicographic prefix tree).
    """
    levels: dict[int, list[int]] = {}

    def extend(mask: int, dim: int, cand: int) -> None:
        levels.setdefault(dim, []).append(mask)
        m = cand
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            above = -1 << (w + 1)
            extend(mask | low, dim + 1, cand & adj[w] & above)

    for v in range(n):
        above = -1 << (v + 1)
        extend(1 << v, 0, adj[v] & above)
    return levels


def vr_complex(metric: DistanceMatrix, r: int) -> Complex:
    """Vietoris-Rips complex at integer scale r: faces are sets of pairwise distance <= r."""
    if not isinstance(r, int) or r < 0:
        raise ParameterError(f"scale must be a non-negative integer, got {r!r}")
    n = metric.size
    adj = []
    for i in range(n):
        m = 0
        for j in range(n):
            if j != i and metric.d(i, j) <= r:
                m |= 1 << j
        adj.append(m)
    adj = tuple(adj)
    full = (1 << n) - 1
    cone = next((v for v in range(n) if adj[v] == full ^ (1 << v)), None)
    return _finish(_enumerate_cliques(adj, n), n, graph=adj, cone=cone)


def from_faces(faces, vertex_count: int | None = None) -> Complex:
    """The downward closure of the given simplices."""
    masks = set()
    top = 0
    for s in faces:
        s = simplex(s)
        top = max(top, s[-1] + 1)
        masks.add(mask_of(s))
    if vertex_count is None:
        vertex_count = top
    elif vertex_count < top:
        raise ParameterError("vertex_count is smaller than the largest vertex id")
    closure = set()
    stack = list(masks)
    while stack:
        m = stack.pop()
        if m in closure:
            continue
        closure.add(m)
        if m.bit_count() > 1:
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                sub = m ^ low
                if sub not in closure:
                    stack.append(sub)
    levels: dict[int, list[int]] = {}
    for m in closure:
        levels.setdefault(m.bit_count() - 1, []).append(m)
    for level in levels.values():
        level.sort(key=vertices_of)
    return _finish(levels, vertex_count)


def full_simplex_complex(n: int) -> Complex:
    """Every non-empty subset of 0..n-1 (n <= 20)."""
    if not isinstance(n, int) or not 1 <= n <= 20:
        raise ParameterError(f"full simplex size must be in 1..20, got {n!r}")
    levels: dict[int, list[int]] = {}
    for m in range(1, 1 << n):
        levels.setdefault(m.bit_count() - 1, []).append(m)
    for level in levels.values():
        level.sort(key=vertices_of)  # integer order is not lexicographic: {0,3} > {1,2}
    adj = tuple(((1 << n) - 1) ^ (1 << v) for v in range(n))
    return _finish(levels, n, graph=adj, cone=0)


def skeleton(c: Complex, k: int) -> Complex:
    """The subcomplex of faces of dimension at most k."""
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"skeleton dimension must be a non-negative integer, got {k!r}")
    cut = min(k, c.dim)
    faces = [list(level) for level in c.faces[: cut + 1]]
    return Complex(vertex_count=c.vertex_count, faces=faces)


def maximal_simplices(c: Complex) -> list[Simplex]:
    """Faces that are not contained in any larger face, in lexicographic order."""
    out = []
    for k in range(c.dim, -1, -1):
        for m in c.faces[k]:
            if c.is_maximal_mask(m, k):
                out.append(vertices_of(m))
    out.sort()
    return out


def delete_open_cells(c: Complex, cells) -> Complex:
    """Remove the given maximal faces (and nothing else) from the complex.

    Removing a non-maximal face would break downward closure, so that is an
    error.
    """
    doomed: dict[int, set[int]] = {}
    for s in cells:
        s = simplex(s)
        k = len(s) - 1
        m = mask_of(s)
        if not c.has_mask(m, k):
            raise StructuralError(f"cannot delete {s}: not a face of the complex")
        if not c.is_maximal_mask(m, k):
            raise StructuralError(f"cannot delete {s}: the face is not maximal")
        doomed.setdefault(k, set()).add(m)
    faces = []
    for k, level in enumerate(c.faces):
        dead = doomed.get(k, ())
        faces.append([m for m in level if m not in dead])
    while faces and not faces[-1]:
        faces.pop()
    if not faces:
        raise StructuralError("deletion would empty the complex")
    return Complex(vertex_count=c.vertex_count, faces=faces)


def boundary_complex(name: str) -> Complex:
    """Vertices and edges of a platonic solid, plus the triangular facets when there are any."""
    info = solid_info(name)
    metric = combinatorial_metric(build_solid(name))
    c1 = vr_complex(metric, 1)
    return skeleton(c1, 2 if info.m == 3 else 1)


def antipodal_free_complex(metric: DistanceMatrix, k: int) -> Complex:
    """All vertex sets avoiding every antipodal pair, for a metric of diameter k.

    Requires every vertex to have exactly one partner at distance k; the
    result is the clique complex of the non-antipodal relation.
    """
    n = metric.size
    partner = []
    for i in range(n):
        far = [j for j in range(n) if j != i and metric.d(i, j) == k]
        if len(far) != 1:
            raise StructuralError(
                f"vertex {i} has {len(far)} partners at distance {k}; need exactly one"
            )
        partner.append(far[0])
    if any(partner[partner[i]] != i for i in range(n)):
        raise StructuralError("antipodal pairing is not an involution")
    full = (1 << n) - 1
    adj = tuple(full ^ (1 << i) ^ (1 << partner[i]) for i in range(n))
    return _finish(_enumerate_cliques(adj, n), n, graph=adj)


def face_diameter(metric: DistanceMatrix, s: Simplex) -> int:
    """Largest pairwise distance within a vertex set."""
    best = 0
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            d = metric.d(s[a], s[b])
            if d > best:
                best = d
    return best
