"""Edge-graph automorphism groups and their action on the ten tetrahedra.

Each group stores its sorted elements and the generators kept by one
closure pass, which skips each generator already in the group so far, so
a redundant generator (a commutator, a class member) costs one membership
test; an orbit-stabilizer chain on the kept generators cross-checks the
order.  Conjugacy classes and tetrahedron orbits come from one orbit walk
(_orbits), breadth-first over the kept generators.  The rotation subgroup
is obtained purely combinatorially as the derived subgroup; for the
dodecahedron this is the index-2 simple group of order 60, and the full
group splits off a central involution (the antipodal map).  verify_remark
counts, class by class, the distance-3 tetrahedra an element fixes, beside
the count predicted by tensoring the doubled natural fixed-point counts
with the two-element sign table.  That is the permutation character; the
group's action on H3 of the scale-3 complex is not computed here.  These
functions compute and compare nothing against the paper: the symmetry
report states each claim (the group orders, simplicity, the orbits, each
class's count) in a row of its own, and that row compares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, StructuralError
from .patterns import embeddings
from .polytopes import PolytopeGraph
from .simplicial import Simplex

Perm = tuple

# Fixed points of the alternating group on five letters acting naturally,
# keyed by element order; the two order-5 classes share the value 0.
_NATURAL_FIXED_BY_ORDER = {1: 5, 2: 1, 3: 2, 5: 0}


@dataclass(frozen=True)
class PermGroup:
    """Permutation group on range(degree): its generators and sorted elements."""

    degree: int
    generators: tuple
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CharacterData:
    """Classwise data for a group action on the ten tetrahedra.

    One entry per conjugacy class, in conjugacy_classes order: its size,
    element order, whether it lies in the rotation subgroup, and the fixed
    tetrahedron count of the permutation action beside the predicted one
    (None where the element order has no natural profile).  These are counts of the permutation action, not a character of H3.
    """

    class_sizes: tuple
    element_orders: tuple
    in_rotation: tuple
    fixed_counts: tuple
    predicted_counts: tuple


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple([p[x] for x in q])


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        order = math.lcm(order, length)
    return order


def apply_to_simplex(p: Perm, s: Simplex) -> Simplex:
    return tuple(sorted(p[v] for v in s))


def _closure(degree: int, generators) -> tuple[tuple, tuple]:
    """The group the generators generate, sorted, and the generators kept.

    It is closed on one new generator at a time; a generator already in the
    group so far is skipped.  The group so far is closed under the kept
    generators, so a new one is composed with each of its elements, and only
    the elements that brings in are composed with every kept generator: each
    element meets each kept generator once.
    """
    found = {identity_perm(degree)}
    kept: list[Perm] = []
    for s in generators:
        if s in found:
            continue
        kept.append(s)
        frontier, gens = list(found), (s,)
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = compose(g, p)
                    if q not in found:
                        found.add(q)
                        nxt.append(q)
            frontier, gens = nxt, kept
    return tuple(sorted(found)), tuple(kept)


def _chain_order(degree: int, generators) -> int:
    """Group order by recursive orbit-stabilizer with Schreier generators."""
    gens = tuple(sorted({g for g in generators if g != identity_perm(degree)}))
    if not gens:
        return 1
    beta = min(i for g in gens for i in range(degree) if g[i] != i)
    reached = {}
    _orbits([beta], lambda pt: (s[pt] for s in gens), reached)
    orbit = {beta: identity_perm(degree)}  # point -> a group element taking beta to it
    for q, pt in list(reached.items())[1:]:  # pt was reached before q
        orbit[q] = compose(next(s for s in gens if s[pt] == q), orbit[pt])
    stab = set()
    for pt, rep in orbit.items():
        for s in gens:
            carry = orbit[s[pt]]
            stab.add(compose(inverse(carry), compose(s, rep)))
    return len(orbit) * _chain_order(degree, stab)


def automorphisms(g: PolytopeGraph) -> PermGroup:
    """Full automorphism group of the edge graph.

    Enumeration rides on the embedding backtracker with the graph as its own
    pattern; an induced embedding of equal size is exactly an automorphism.
    """
    n = g.vertex_count
    found = embeddings(g, g)
    elements, gens = _closure(n, found)
    order = _chain_order(n, gens)
    if order != len(found):
        raise StructuralError(
            f"orbit-stabilizer order {order} disagrees with enumeration {len(found)}"
        )
    if elements != tuple(found):
        raise StructuralError("the closure of the automorphisms is not the enumerated set")
    return PermGroup(degree=n, generators=gens, elements=elements)


def rotation_subgroup(g: PermGroup) -> PermGroup:
    """The derived subgroup [G, G], generated by the [a, s] with a in G and s a generator.

    Its generators are the commutators the closure kept.
    [a, st] = [a, s] s[a, t]s^-1 and s[a, t]s^-1 = [sa, t][t, s], so by
    induction on the word length of b these generate every [a, b].  An
    orbit-stabilizer chain on the kept generators cross-checks its order.
    """
    comms = {
        compose(a, compose(s, compose(inverse(a), inverse(s))))
        for a in g.elements
        for s in g.generators
    }
    elements, gens = _closure(g.degree, sorted(comms))
    if _chain_order(g.degree, gens) != len(elements):
        raise StructuralError("derived subgroup order mismatch")
    return PermGroup(degree=g.degree, generators=gens, elements=elements)


def _is_simple(group: PermGroup) -> bool:
    """Whether the group is nontrivial and each nontrivial conjugacy class generates it.

    A proper nontrivial normal subgroup is a union of classes, so it holds a
    nontrivial class; and the subgroup a class generates is normal.
    """
    return group.order > 1 and all(
        len(_closure(group.degree, cls)[0]) == group.order for cls in conjugacy_classes(group)[1:]
    )


def _orbits(points, images, reached=None) -> list:
    """The orbits of points, each a sorted tuple, in the order of their first point.

    images(x) yields the points one step from x, by permutations of a finite
    set, so an orbit is every point reached by repeated steps; images must
    stay inside points.  The walk is breadth-first.  reached, when given, is
    filled in the order the walk reaches each point, with the point it was
    reached from, or None for the first point of an orbit.
    """
    reached = {} if reached is None else reached
    orbits = []
    for p in points:
        if p in reached:
            continue
        reached[p] = None
        orbit = [p]
        for x in orbit:  # the list grows as it is walked: a queue
            for y in images(x):
                if y not in reached:
                    reached[y] = x
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def conjugacy_classes(group: PermGroup) -> list:
    """Classes as sorted tuples, ordered by their smallest member.

    The identity class always comes first because the identity is the
    smallest degree-n permutation.
    """
    gens = [(s, inverse(s)) for s in group.generators]
    return _orbits(group.elements, lambda x: (compose(s, compose(x, s_inv)) for s, s_inv in gens))


def tetrahedra_orbits(h: PermGroup, tets) -> list:
    """Orbit partition of the tetrahedra under h, each orbit sorted."""
    tet_set = set(tets)
    if len(tet_set) != len(tets):
        raise ParameterError("duplicate tetrahedra")

    def images(t):
        for p in h.generators:
            u = apply_to_simplex(p, t)
            if u not in tet_set:
                raise StructuralError(f"group moves tetrahedron {t} to {u}, outside the family")
            yield u

    return _orbits(sorted(tets), images)


def verify_remark(g: PermGroup, rot: PermGroup, tets) -> CharacterData:
    """Classwise fixed-point counts of g's action on the tetrahedra, beside the predicted ones.

    rot is g's rotation subgroup (rotation_subgroup(g)).  The predicted
    count doubles the natural five-point fixed count of the element order on
    the rotation subgroup, is None for an order with no natural profile, and
    is 0 off it.  Nothing is compared here: each report row compares one
    class.  A fixed count or a rotation membership that is not constant on
    a class is a StructuralError.
    """
    rotations = set(rot.elements)
    tet_masks = [(t, sum(1 << v for v in t)) for t in tets]

    sizes = []
    orders = []
    in_rot = []
    fixed_counts = []
    predicted = []
    for cls in conjugacy_classes(g):
        rep = cls[0]
        fixed_per_member = {  # p fixes t when it maps t's vertex set onto itself
            sum(1 for t, mask in tet_masks if sum(1 << p[v] for v in t) == mask) for p in cls
        }
        if len(fixed_per_member) != 1:
            raise StructuralError(f"fixed-point count not constant on the class of {rep}")
        member_in_rot = {p in rotations for p in cls}
        if len(member_in_rot) != 1:
            raise StructuralError(f"rotation membership not constant on the class of {rep}")
        inh = member_in_rot.pop()
        order = perm_order(rep)
        natural = _NATURAL_FIXED_BY_ORDER.get(order)
        sizes.append(len(cls))
        orders.append(order)
        in_rot.append(inh)
        fixed_counts.append(fixed_per_member.pop())
        predicted.append(0 if not inh else None if natural is None else 2 * natural)

    return CharacterData(
        class_sizes=tuple(sizes),
        element_orders=tuple(orders),
        in_rotation=tuple(in_rot),
        fixed_counts=tuple(fixed_counts),
        predicted_counts=tuple(predicted),
    )
