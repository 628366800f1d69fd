"""Simplicial complexes on integer vertex sets, with Vietoris-Rips constructors.

A simplex is a strictly ascending tuple of vertex ids.  Internally every face
is a bitmask over vertex ids, which keeps face and coface tests cheap; masks
never leak through the public API except where documented: Complex.faces,
and morse.Matching.pairs, whose (lower, upper) pairs are face masks.

Clique complexes (vr_complex, antipodal_free_complex, full_simplex_complex)
are built lazily: the constructor keeps the graph, and the faces are
enumerated, once, when something first reads them.  A clique complex whose
graph's complement is disconnected is the join of the clique complexes on
the complement's components, and a cone is the case of a one-vertex
component.  A join's f-vector, maximal faces and homology come from its
factors and its own faces are never built: the full simplex each solid
reaches at its diameter is a join of points.  Every clique walk,
maximal-face listing and from_faces closure stops with ParameterError past
FACE_BUDGET faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod

from .errors import ParameterError, StructuralError
from .polytopes import DistanceMatrix, build_solid, solid_info

Simplex = tuple[int, ...]

# No clique walk, maximal-face listing or from_faces closure visits more
# faces than this; past it, ParameterError.
FACE_BUDGET = 1 << 21


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

    faces[k] holds the bitmasks of all k-faces.  Every constructor here (the
    clique walk, the from_faces closure, skeleton, delete_open_cells) stores
    each level in the lexicographic order of its vertex tuples; homology
    checks the order of each level it reads a pivot from instead of trusting
    it, since a Complex can also be given its faces directly, in any order.

    graph, when present, is the adjacency mask table of the graph whose
    clique complex this is; it enables fast maximality tests.  cone_vertex
    names a vertex adjacent to every other one; the package does not read it
    (a cone is a join), but the benchmark tracer in perfbench/ counts cones
    by it.
    """

    vertex_count: int
    faces: list[list[int]]
    graph: tuple[int, ...] | None = None
    cone_vertex: int | None = None
    join_factors = ()  # a clique complex's own, see _CliqueComplex.join_factors
    _indexes: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        if self.vertex_count != other.vertex_count:
            return False
        if self.graph is not None and other.graph is not None:
            return self.graph == other.graph  # a clique complex is fixed by its edges
        # any complex is fixed by its maximal faces, and a join lists them
        # from its factors without building its own faces
        return maximal_simplices(self) == maximal_simplices(other)

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def face_total(self) -> int:
        return sum(self.f_vector())

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
        for bit in self.faces[0]:  # the complex's own vertices, not every id below vertex_count
            if not mask & bit and (mask | bit) in above:
                return False
        return True


def _budget_error() -> ParameterError:
    return ParameterError(f"complex has more than {FACE_BUDGET:,} faces")


def _enumerate_cliques(adj: tuple[int, ...]) -> list[list[int]]:
    """All cliques of the graph, as per-dimension mask lists.

    Depth-first extension by ascending vertex id: a clique is extended only by
    vertices larger than its maximum, so each clique is produced once, and
    each list comes out in lexicographic order (a preorder walk of the
    lexicographic prefix tree).
    """
    levels: list[list[int]] = [[] for _ in adj]
    room = FACE_BUDGET

    def extend(mask: int, dim: int, cand: int) -> None:
        nonlocal room
        room -= 1
        if room < 0:
            raise _budget_error()
        levels[dim].append(mask)
        m = cand
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            above = -1 << (w + 1)
            extend(mask | low, dim + 1, cand & adj[w] & above)

    for v in range(len(adj)):
        above = -1 << (v + 1)
        extend(1 << v, 0, adj[v] & above)
    while not levels[-1]:
        levels.pop()
    return levels


class _CliqueComplex(Complex):
    """The clique complex of a graph, its faces enumerated on first read.

    faces is then kept as a plain instance attribute.  Complex itself has no
    class attribute named faces, so complexes given by their faces keep the
    plain attribute lookup in hot loops.
    """

    def __init__(self, graph: tuple[int, ...], cone_vertex: int | None = None):
        if not graph:
            raise StructuralError("refusing to build an empty complex")
        self.vertex_count = len(graph)
        self.graph = graph
        self.cone_vertex = cone_vertex
        self._indexes = {}
        self._cache = {}

    @cached_property
    def faces(self) -> list[list[int]]:
        return _enumerate_cliques(self.graph)

    @cached_property
    def join_factors(self) -> list[tuple[Simplex, Complex]]:
        """The complex as a join: each factor with the vertex ids it renumbers 0, 1, ...

        A factor is the clique complex on one component of the graph's
        complement, whose edges to every other component are all present; a
        factor is never a join itself.  Empty if the complement is connected.
        """
        parts = _complement_components(self.graph)
        if len(parts) < 2:
            return []
        out = []
        for p in parts:
            keep = vertices_of(p)
            adj = tuple(
                sum(1 << i for i, w in enumerate(keep) if self.graph[v] >> w & 1) for v in keep
            )
            out.append((keep, _CliqueComplex(adj)))
        return out

    def f_vector(self) -> tuple[int, ...]:
        if "faces" in self.__dict__ or not self.join_factors:
            return super().f_vector()
        # a face of a join picks a face or nothing from each factor, so 1 + F
        # is the product of the factors' 1 + F, with F = sum of x^|face|
        poly = [1]
        for _keep, x in self.join_factors:
            factor = (1,) + x.f_vector()
            out = [0] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
        return tuple(poly[1:])


def _complement_components(adj: tuple[int, ...]) -> list[int]:
    """Vertex masks of the connected components of the graph's complement, lowest vertex first."""
    out = []
    rest = (1 << len(adj)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = rest & ~adj[low.bit_length() - 1] & ~comp  # non-neighbours not yet reached
            comp |= new
            frontier |= new
        out.append(comp)
        rest ^= comp
    return out


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
    return _CliqueComplex(adj, cone)


def from_faces(faces, vertex_count: int | None = None) -> Complex:
    """The downward closure of the given simplices, at most FACE_BUDGET faces.

    Each face is validated by simplex() and closed by _closure, which also
    records the complex's maximal faces for maximal_simplices.
    """
    return _closure(map(simplex, faces), vertex_count)


def _closure(simplices, vertex_count: int | None = None) -> Complex:
    """from_faces on simplices already validated as simplex() would.

    The closure is built level by level from the top dimension down: each
    level is the facets of the level above plus the listed faces of its
    size, and the listed faces that no facet covers are its maximal faces.
    They are kept, in storage order, as the complex's _cache["maximal"].
    """
    listed: dict[int, set[int]] = {}  # vertex count -> listed masks
    top = 0
    for s in simplices:
        if (1 << len(s)) - 1 > FACE_BUDGET:  # its own closure is too big
            raise _budget_error()
        top = max(top, s[-1] + 1)
        listed.setdefault(len(s), set()).add(mask_of(s))
    if vertex_count is None:
        vertex_count = top
    elif vertex_count < top:
        raise ParameterError("vertex_count is smaller than the largest vertex id")
    if not listed:
        raise StructuralError("refusing to build an empty complex")
    room = FACE_BUDGET
    width = max(listed)
    faces: list[list[int]] = [[] for _ in range(width)]
    maximal: list[list[int]] = []  # per level, top level first
    above: set[int] = set()
    for size in range(width, 0, -1):
        level: set[int] = set()
        _add_facets(level, above, room)
        uncovered = listed.pop(size, set()) - level
        level |= uncovered
        room -= len(level)
        if room < 0:  # listed faces alone can overflow a level
            raise _budget_error()
        faces[size - 1] = _lex_sorted(level)
        maximal.append(_lex_sorted(uncovered))
        above = level
    c = Complex(vertex_count=vertex_count, faces=faces)
    c._cache["maximal"] = [m for level in reversed(maximal) for m in level]
    return c


def _add_facets(into: set[int], masks, room: int) -> None:
    """Add every facet of every mask to into, refusing to grow it past room."""
    for m in masks:
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            into.add(m ^ low)
        if len(into) > room:
            raise _budget_error()


def _lex_sorted(level) -> list[int]:
    """Masks of one size in the lexicographic order of their vertex tuples.

    Two such tuples first differ where the masks' lowest differing bit is,
    and the tuple holding that vertex comes first: so the order is
    descending on the masks' binary digits read from bit 0 up.  Unpadded
    digit strings compare the same way, since one is never a proper prefix
    of another of the same size, and cost only the mask's own length.
    """
    return sorted(level, key=lambda m: bin(m)[:1:-1], reverse=True)


def full_simplex_complex(n: int) -> Complex:
    """Every non-empty subset of 0..n-1 (n <= 20)."""
    if not isinstance(n, int) or not 1 <= n <= 20:
        raise ParameterError(f"full simplex size must be in 1..20, got {n!r}")
    return _CliqueComplex(tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)), cone_vertex=0)


def skeleton(c: Complex, k: int) -> Complex:
    """The subcomplex of faces of dimension at most k."""
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"skeleton dimension must be a non-negative integer, got {k!r}")
    cut = min(k, c.dim)
    faces = [list(level) for level in c.faces[: cut + 1]]
    return Complex(vertex_count=c.vertex_count, faces=faces)


def maximal_simplices(c: Complex) -> list[Simplex]:
    """Faces that are not contained in any larger face, in lexicographic order.

    A join lists the unions of one maximal face from each factor, and refuses
    more than FACE_BUDGET of them before listing any.  A from_faces complex
    reads the maximal faces its closure recorded; any other complex marks the
    facets of every face in one pass.
    """
    if not c.join_factors:
        return sorted(vertices_of(m) for m in _maximal_masks(c))
    choices = [  # each factor's maximal faces as masks on the join's vertex ids
        [sum(1 << keep[i] for i in vertices_of(m)) for m in _maximal_masks(x)]
        for keep, x in c.join_factors
    ]
    if prod(map(len, choices)) > FACE_BUDGET:
        raise _budget_error()
    return sorted(vertices_of(sum(pick)) for pick in product(*choices))  # disjoint: sum is union


def _maximal_masks(c: Complex) -> list[int]:
    """Masks of the faces that are no facet of a face, in storage order.

    from_faces recorded them while closing the complex; a complex built any
    other way (a clique complex, skeleton, delete_open_cells, a plain
    Complex) has no record and takes one facet pass.
    """
    if "maximal" in c._cache:
        return c._cache["maximal"]
    covered: set[int] = set()
    for level in c.faces[1:]:
        _add_facets(covered, level, c.face_total())  # covered faces are faces
    return [m for level in c.faces for m in level if m not in covered]


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
    """Vertices and edges of a platonic solid, plus the triangular facets when there are any.

    The triangular facets are the triangles of the edge graph; no clique
    complex is built.
    """
    g = build_solid(name)
    faces = g.edges()  # every vertex lies on an edge
    if solid_info(name).m == 3:
        adj = g.adjacency
        faces += [
            (a, b, c) for a, b in g.edges() for c in vertices_of(adj[a] & adj[b] & -1 << (b + 1))
        ]
    return from_faces(faces, g.vertex_count)


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
    return _CliqueComplex(adj)


def face_diameter(metric: DistanceMatrix, s: Simplex) -> int:
    """Largest pairwise distance within a vertex set."""
    best = 0
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            d = metric.d(s[a], s[b])
            if d > best:
                best = d
    return best
