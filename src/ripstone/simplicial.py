"""Simplicial complexes on integer vertex sets, with Vietoris-Rips constructors.

A simplex is a strictly ascending tuple of vertex ids.  Internally every face
is a bitmask over vertex ids (polytopes.mask_of and vertices_of convert, and
signed_facets lists a face's facets), which keeps face and coface tests
cheap; masks never leak through the public API except where documented:
Complex.faces, morse.Matching.pairs, whose (lower, upper) pairs are face
masks, and morse.MatchingReport.levels, the critical cells' masks per
dimension.  A Complex keeps each level in the lexicographic order of its
vertex tuples and is closed downward; a complex given its faces is sorted
and checked once, at construction, and the constructors here build both
properties themselves, so no consumer checks them again: the clique walk
and the from_faces closure both emit each face once, by extending smaller
faces with larger vertices, already in that order.  The clique walk builds
one level from the one below; the closure walks depth-first.

Clique complexes (vr_complex, antipodal_free_complex, full_simplex_complex)
are built lazily: the constructor keeps the graph, and the faces are
enumerated, once, when something first reads them.  A clique complex whose
graph's complement is disconnected is the join of the clique complexes on
the complement's components, and a cone is the case of a one-vertex
component.  A complex given its faces (from_faces, complex files) is split
the same way when its listed faces show it is a join (see _listed_join).
Either way the split hands identical factors one object, so each is built
and reduced once, and a join's f-vector, maximal faces and homology come
from its factors and its own faces are never built: the full simplex each
solid reaches at its diameter is a join of points.  Any other listed
complex, and each listed factor, is closed at once in a vertex numbering of
its own (see _numbered), which answers its f-vector and homology; its faces
in file ids are closed only on first read.  The numbering changes what
homology costs, never a result.
Every clique walk, maximal-face listing and from_faces closure stops with
ParameterError past FACE_BUDGET faces, and a listed join past it is
refused when it is split.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import prod

from .errors import ParameterError, StructuralError
from .polytopes import DistanceMatrix, mask_of, vertices_of

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


class Complex:
    """A finite simplicial complex, faces stored per dimension in lexicographic order.

    faces[k] is a tuple of the bitmasks of all k-faces, in the lexicographic
    order of their vertex tuples, and the complex is closed downward.  Both
    are invariants.  The lex order is read only by the Morse search and by
    outputs; homology orders rows by mask and reads no storage order.
    Complex(vertex_count, faces) raises ParameterError for a vertex_count
    that is not a non-negative int, sorts each level and raises
    StructuralError for an empty complex or top level, a face in the wrong
    level, a repeated face, a vertex id past vertex_count or a missing facet.  The package's
    constructors build that order and closure themselves: the clique walk
    and the from_faces walk emit the faces in order, and delete_open_cells
    keeps it; the latter two go through Complex._built, which checks
    nothing.  faces and its levels are tuples, which cannot be edited in
    place, so face_set, the one set of all face masks that every membership
    test reads, and the _cache of matching reports, with their critical
    cells, and of maximal faces cannot go stale.

    == has two rules.  Two clique complexes compare their graphs (graph,
    when present, is the adjacency mask table of the graph whose clique
    complex this is), which never lists a join's maximal faces.  Any other
    pair compares maximal faces, which a join lists from its factors and a
    listed complex as its file gave them.
    join_factors, when not empty, lists the factors of a join (see
    _CliqueComplex and _ListedComplex), identical factors as one object, and
    f_vector multiplies theirs, whether or not the join's own faces are
    built.  numbered, on a listed complex that is not a join, is its closure
    in its own numbering (see _numbered), which f_vector and homology read,
    so its faces are built only when read.  cone_vertex, on a clique
    complex, is the first vertex adjacent to every other one, read off the
    graph; the package does not read it (a cone is a join), but the
    benchmark tracer in perfbench/ counts cones by it.
    """

    graph: tuple[int, ...] | None = None
    cone_vertex: int | None = None
    join_factors = ()  # set by a join: _CliqueComplex.join_factors, _ListedComplex
    numbered: Complex | None = None  # set by _numbered

    def __init__(self, vertex_count: int, faces):
        if not isinstance(vertex_count, int) or vertex_count < 0:
            raise ParameterError(f"vertex_count must be a non-negative int, got {vertex_count!r}")
        levels = [tuple(level) for level in faces]
        top = 1 << vertex_count
        for level in levels:  # before the sort: vertices_of never ends on a negative mask
            for mask in level:
                if not 0 <= mask < top:
                    raise StructuralError(
                        f"face mask {mask} is not a set of vertex ids below {vertex_count}"
                    )
        levels = tuple(tuple(sorted(level, key=vertices_of)) for level in levels)
        if not any(levels):
            raise StructuralError("refusing to build an empty complex")
        if not levels[-1]:
            raise StructuralError(f"the top level lists no {len(levels) - 1}-faces")
        for k, level in enumerate(levels):
            for mask in level:
                if mask.bit_count() != k + 1:
                    raise StructuralError(f"face {vertices_of(mask)} is listed among the {k}-faces")
            for a, b in zip(level, level[1:]):
                if a == b:
                    raise StructuralError(f"face {vertices_of(a)} is listed twice")
        self._init(vertex_count, levels)
        faces = self.face_set
        for level in levels[1:]:
            for mask in level:
                for facet, _sign in signed_facets(mask):
                    if facet not in faces:
                        raise StructuralError(
                            f"face {vertices_of(mask)} has no facet {vertices_of(facet)} in the"
                            " complex: the complex is not closed downward"
                        )

    @classmethod
    def _built(cls, vertex_count: int, faces: tuple[tuple[int, ...], ...]) -> Complex:
        """A complex whose levels are already lex-ordered tuples closed downward, unchecked."""
        c = cls.__new__(cls)
        c._init(vertex_count, faces)
        return c

    def _init(self, vertex_count: int, faces: tuple[tuple[int, ...], ...]) -> None:
        self.vertex_count = vertex_count
        self.faces = faces
        self._cache: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        if self.vertex_count != other.vertex_count:
            return False
        if self.graph is not None and other.graph is not None:
            return self.graph == other.graph  # a clique complex is fixed by its edges
        # any complex is fixed by its maximal faces, and a join or a listed
        # complex lists them without building its own faces
        return maximal_simplices(self) == maximal_simplices(other)

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        if self.numbered is not None:
            return self.numbered.f_vector()
        if not self.join_factors:
            return tuple(len(level) for level in self.faces)
        # a face of a join picks a face or nothing from each factor, so 1 + F
        # is the product of the factors' 1 + F, with F = sum of x^|face|
        poly = [1]
        for _keep, x in self.join_factors:
            poly = _poly_mul(poly, (1,) + x.f_vector())
        return tuple(poly[1:])

    def face_total(self) -> int:
        return sum(self.f_vector())

    @cached_property
    def face_set(self) -> frozenset[int]:
        """The masks of all faces, every level in one set, built on first read.

        A mask fixes its own dimension, so this answers every membership
        question, whatever the level.
        """
        return frozenset().union(*self.faces)

    def simplices(self, k: int) -> list[Simplex]:
        """All k-faces as vertex tuples, in storage order."""
        if not 0 <= k <= self.dim:
            return []
        return [vertices_of(m) for m in self.faces[k]]


def _budget_error() -> ParameterError:
    return ParameterError(f"complex has more than {FACE_BUDGET:,} faces")


def _enumerate_cliques(adj: tuple[int, ...]) -> list[list[int]]:
    """All cliques of the graph, as per-dimension mask lists in lexicographic order.

    Built one level at a time, by extending each clique with the common
    neighbours of its vertices (Zomorodian's inductive construction).  Each
    clique carries its candidates, the common neighbours above its top
    vertex.  Level k + 1 is every k-clique, in order, extended by each of its
    candidates w in ascending order, and the child keeps the candidates above
    w that are adjacent to w.  So each clique is produced once, from its
    prefix, and each level comes out in lexicographic order.  The budget is
    checked as each parent's children are appended, so a walk past
    FACE_BUDGET stops having held at most FACE_BUDGET + len(adj) masks.
    """
    room = FACE_BUDGET - len(adj)
    if room < 0:
        raise _budget_error()
    masks = [1 << v for v in range(len(adj))]
    cands = [a & -(2 << v) for v, a in enumerate(adj)]
    levels = []
    while masks:
        levels.append(masks)
        next_masks, next_cands = [], []
        for mask, cand in zip(masks, cands):
            while cand:
                low = cand & -cand
                cand ^= low
                next_masks.append(mask | low)
                next_cands.append(cand & adj[low.bit_length() - 1])
            if len(next_masks) > room:
                raise _budget_error()
        room -= len(next_masks)
        masks, cands = next_masks, next_cands
    return levels


class _CliqueComplex(Complex):
    """The clique complex of a graph, its faces enumerated on first read.

    faces is then kept as a plain instance attribute.  Complex itself has no
    class attribute named faces, so complexes given by their faces keep the
    plain attribute lookup in hot loops.  Its graph answers == against
    another clique complex, and join_factors splits it; verify_main_theorem
    reads its structural rows off the f-vector and those factors.
    """

    def __init__(self, graph: tuple[int, ...]):
        if not graph:
            raise StructuralError("refusing to build an empty complex")
        self.vertex_count = len(graph)
        self.graph = graph
        self._cache = {}

    @cached_property
    def cone_vertex(self) -> int | None:
        full = (1 << len(self.graph)) - 1
        return next((v for v, adj in enumerate(self.graph) if adj | 1 << v == full), None)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _enumerate_cliques(self.graph)))

    @cached_property
    def join_factors(self) -> list[tuple[Simplex, Complex]]:
        """The complex as a join: each factor with the vertex ids it renumbers 0, 1, ...

        A factor is the clique complex on one component of the graph's
        complement, whose edges to every other component are all present; a
        factor's complement is connected, so it is made with empty
        join_factors and never split.  Components with the same renumbered
        graph, such as a cone's points, share one factor, so its faces are
        enumerated once.  Empty if the complement is connected.
        """
        parts = _complement_components(self.graph)
        if len(parts) < 2:
            return []
        out = []
        made: dict[tuple[int, ...], _CliqueComplex] = {}
        for p in parts:
            keep = vertices_of(p)
            adj = tuple(
                sum(1 << i for i, w in enumerate(keep) if self.graph[v] >> w & 1) for v in keep
            )
            if adj not in made:
                made[adj] = _CliqueComplex(adj)
                made[adj].join_factors = []
            out.append((keep, made[adj]))
        return out


def _poly_mul(a, b) -> list[int]:
    """The product of two polynomials given by their coefficient lists, constant first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _complement_components(adj, rest: int | None = None) -> list[int]:
    """Vertex masks of the connected components of the graph's complement, lowest vertex first.

    adj maps each vertex of rest, a vertex mask (by default every vertex of
    the adjacency table), to the mask of its neighbours, itself allowed.
    """
    out = []
    if rest is None:
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
    # the ball of radius ecc(i) already holds every vertex
    return _CliqueComplex(
        tuple(balls[min(r, len(balls) - 1)] & ~(1 << i) for i, balls in enumerate(metric.within))
    )


def from_faces(faces, vertex_count: int | None = None) -> Complex:
    """The downward closure of the given simplices, at most FACE_BUDGET faces.

    Each face is validated by simplex() and handed to _closure, which splits
    a join into its factors and closes any other complex at once, in a
    numbering of its own, recording its maximal faces, as given, for
    maximal_simplices on the way.
    """
    return _closure(map(simplex, faces), vertex_count)


def _closure(simplices, vertex_count: int | None = None) -> Complex:
    """from_faces on simplices already validated as simplex() would.

    The distinct listed faces are numbered once, by their first place.  If
    _listed_join finds that they close to a join, a _ListedComplex of the
    closed factors comes back; any other complex is closed by _numbered.
    Either way its faces in file ids are closed only on first read.  A
    listed face of more than 21 vertices is refused first.
    """
    listed: dict[int, Simplex] = {}  # mask -> the listed face
    top = 0
    for s in simplices:
        if (1 << len(s)) - 1 > FACE_BUDGET:  # its own closure is too big
            raise _budget_error()
        m = mask_of(s)
        if m not in listed:
            listed[m] = s
            top = max(top, s[-1] + 1)
    if vertex_count is None:
        vertex_count = top
    elif vertex_count < top:
        raise ParameterError("vertex_count is smaller than the largest vertex id")
    if not listed:
        raise StructuralError("refusing to build an empty complex")
    inc, near = _incidence(listed)
    factors = _listed_join(listed, near)
    if factors:
        return _ListedComplex(vertex_count, list(listed.values()), factors)
    return _numbered(listed, inc, near, vertex_count)


def _incidence(listed: dict[int, Simplex]) -> tuple[dict[int, int], dict[int, int]]:
    """Per vertex, the listed faces holding it, as number bits (inc), and their union (near)."""
    inc: dict[int, int] = {}
    near: dict[int, int] = {}
    b = 1
    for m, s in listed.items():
        for v in s:
            inc[v] = inc.get(v, 0) | b
            near[v] = near.get(v, 0) | m
        b <<= 1
    return inc, near


def _walk(listed: dict[int, Simplex], inc: dict, near: dict, vertex_count: int) -> Complex:
    """The closure of the distinct listed faces (mask -> tuple), with _incidence's tables.

    One depth-first walk per vertex v, in ascending order, emits once each
    face whose smallest vertex is v, extending a face only by vertices
    larger than its own, so every level comes out in storage order.  Each
    face carries the listed faces holding it, and candidates are the
    vertices sharing a listed face with each vertex added.  Once one listed
    face holds a face, every extension inside it is a face and is emitted
    untested.  A face is maximal exactly when its only holder is itself;
    the listed tuples of the maximal faces are kept, in their listed order,
    as the complex's _cache["maximal"].  Tables are keyed by the vertices
    present, and the walk stops past FACE_BUDGET faces.
    """
    owns = list(listed)
    given = list(listed.values())
    levels: list[list[int]] = [[] for _ in range(max(map(len, given)))]
    maximal: list[int] = []  # places of the listed faces found maximal
    room = FACE_BUDGET

    def walk(face: int, dim: int, held: int, cand: int) -> None:
        # emit face, held by the listed faces in held, and its extensions by cand
        nonlocal room
        room -= 1
        if room < 0:
            raise _budget_error()
        levels[dim].append(face)
        if held & (held - 1):  # two or more listed faces hold it
            while cand:
                low = cand & -cand
                cand ^= low
                w = low.bit_length() - 1
                h = held & inc[w]
                if h:
                    walk(face | low, dim + 1, h, cand & near[w])
            return
        i = held.bit_length() - 1  # the one listed face holding it
        own = owns[i]
        if face == own:
            maximal.append(i)
        rest = cand & own  # own holds every extension inside it: no tests
        while rest:
            low = rest & -rest
            rest ^= low
            walk(face | low, dim + 1, held, rest)

    for v in sorted(inc):
        walk(1 << v, 0, inc[v], near[v] & -(2 << v))
    c = Complex._built(vertex_count, tuple(map(tuple, levels)))
    c._cache["maximal"] = [given[i] for i in sorted(maximal)]
    return c


def _listed_join(listed: dict[int, Simplex], near: dict[int, int]) -> list[tuple[Simplex, Complex]]:
    """The closure K of the listed faces as a join: each closed factor with the ids it renumbers.

    Empty unless K splits.  Candidate blocks are the components of the
    complement of K's 1-skeleton.  For a block B, K is the join of its
    restrictions to B and to the rest exactly when every listed face meets
    B in a maximal element of {t & B}, meets the rest in a maximal element
    of {t - B}, and the listed faces number the product of the two counts
    (Bjorner, "Topological methods", Handbook of Combinatorics, 1995).
    Given the counts, the listed faces are the products of their parts, so
    the maximality conditions all say that no listed face holds another:
    the blocks passing the count become factors, the others one factor
    together, and the split stands if each factor's closure keeps every one
    of its listed faces maximal.  Blocks whose renumbered listed faces are
    the same share one factor, closed once.  A factor found is exact,
    though a rest that is a join of several blocks is not split.
    """
    present = 0
    for v in near:
        present |= 1 << v
    parts = _complement_components(near, present)
    if len(parts) < 2:
        return []
    blocks, rest = [], 0
    for p in parts:
        if len({m & p for m in listed}) * len({m & ~p for m in listed}) == len(listed):
            blocks.append(p)
        else:
            rest |= p
    if not blocks:
        return []
    if rest:
        blocks.append(rest)
    out = []
    made: dict[frozenset[int], Complex] = {}
    for p in blocks:
        keep = vertices_of(p)
        index = {v: i for i, v in enumerate(keep)}
        part = {}
        for s in listed.values():
            t = tuple(index[v] for v in s if v in index)
            part[mask_of(t)] = t
        if 0 in part:  # a listed face misses the block, so another holds it
            return []
        key = frozenset(part)
        if key not in made:
            x = _numbered(part, *_incidence(part), len(keep))
            if len(x._cache["maximal"]) < len(part):  # a listed face holds another
                return []
            made[key] = x
        out.append((keep, made[key]))
    return out


def _numbered(listed: dict[int, Simplex], inc: dict, near: dict, vertex_count: int) -> Complex:
    """The listed faces (mask -> tuple), with _incidence's tables, closed in their own numbering.

    The present vertices are numbered by how many listed faces hold each,
    most first, ties by id, and _walk closes the listed faces once in that
    numbering, keeping the maximal ones as the tuples given.  homology's
    apparent pairs drop a face's smallest vertex, so with the largest star
    first they act like an element matching (Jonsson, Simplicial Complexes
    of Graphs, LNM 1928, 2008), and far fewer columns collide than in
    random file ids.
    """
    order = sorted(inc, key=lambda v: (-inc[v].bit_count(), v))
    bit = {v: 1 << i for i, v in enumerate(order)}
    closed = _walk(
        {sum(map(bit.get, s)): s for s in listed.values()},
        dict(enumerate(map(inc.get, order))),  # the same number bits
        {i: sum(map(bit.get, vertices_of(near[v]))) for i, v in enumerate(order)},
        len(order),
    )
    return _ListedComplex(vertex_count, closed._cache["maximal"], numbered=closed)


class _ListedComplex(Complex):
    """A complex given by listed faces, its own faces closed, in file ids, on first read.

    Its maximal faces are the listed tuples it keeps, as given.  A join (see
    _listed_join) lists only maximal faces, answers f_vector, face_total,
    maximal_simplices, == and homology from its closed factors and those
    tuples, and is refused here past FACE_BUDGET faces; any other answers
    f_vector, face_total and homology from numbered (see _numbered).
    """

    def __init__(self, vertex_count: int, maximal: list[Simplex], join_factors=(), numbered=None):
        self.vertex_count = vertex_count
        self.join_factors = join_factors
        self.numbered = numbered
        self._cache = {"maximal": maximal}
        if self.face_total() > FACE_BUDGET:
            raise _budget_error()

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        listed = {mask_of(s): s for s in self._cache["maximal"]}
        return _walk(listed, *_incidence(listed), self.vertex_count).faces


def full_simplex_complex(n: int) -> Complex:
    """Every non-empty subset of 0..n-1 (n <= 20)."""
    if not isinstance(n, int) or not 1 <= n <= 20:
        raise ParameterError(f"full simplex size must be in 1..20, got {n!r}")
    return _CliqueComplex(tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))


def maximal_simplices(c: Complex) -> list[Simplex]:
    """Faces that are not contained in any larger face, in lexicographic order.

    A complex built from listed faces sorts the maximal ones its closure
    recorded, or, for a join, the listed faces themselves.  A clique join
    lists the unions of one maximal face from each factor, and refuses more
    than FACE_BUDGET of them before listing any; any other complex marks the
    facets of every face in one pass.
    """
    if "maximal" in c._cache:
        return sorted(c._cache["maximal"])
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
    """Masks of the faces that are no facet of a face, in storage order, by one facet pass."""
    covered = set()
    add = covered.add
    for level in c.faces[1:]:
        for m in level:
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                add(m ^ low)
    return [m for level in c.faces for m in level if m not in covered]


def delete_open_cells(c: Complex, cells) -> Complex:
    """Remove the given maximal faces (and nothing else) from the complex.

    Removing a non-maximal face would break downward closure, so that is an
    error.
    """
    present = c.face_set
    doomed = set()
    for s in cells:
        s = simplex(s)
        m = mask_of(s)
        if m not in present:
            raise StructuralError(f"cannot delete {s}: not a face of the complex")
        # a cofacet adds one of the complex's own vertices
        if any(not m & bit and m | bit in present for bit in c.faces[0]):
            raise StructuralError(f"cannot delete {s}: the face is not maximal")
        doomed.add(m)
    faces = [tuple(m for m in level if m not in doomed) for level in c.faces]
    while faces and not faces[-1]:
        faces.pop()
    if not faces:
        raise StructuralError("deletion would empty the complex")
    out = Complex._built(c.vertex_count, tuple(faces))
    out.face_set = present - doomed
    return out


def antipodal_free_complex(metric: DistanceMatrix, k: int) -> Complex:
    """All vertex sets avoiding every antipodal pair, for a metric of diameter k.

    Requires every vertex to have exactly one partner at distance k; the
    result is the clique complex of the non-antipodal relation.  Public, and
    no pipeline calls it: verify_main_theorem reads its antipodal rows off
    VR_r's join factors.  It is kept because the benchmark tracer names it.
    """
    n = metric.size
    partner = []
    for i in range(n):
        far = metric.ring(i, k) & ~(1 << i)
        if far.bit_count() != 1:
            raise StructuralError(
                f"vertex {i} has {far.bit_count()} partners at distance {k}; need exactly one"
            )
        partner.append(far.bit_length() - 1)
    if any(partner[partner[i]] != i for i in range(n)):
        raise StructuralError("antipodal pairing is not an involution")
    full = (1 << n) - 1
    adj = tuple(full ^ (1 << i) ^ (1 << partner[i]) for i in range(n))
    return _CliqueComplex(adj)

