"""Automorphism groups of the solid graphs and the tetrahedra action."""

import re

import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from ripstone.errors import ParameterError, StructuralError, VerificationError
from ripstone.patterns import diameter3_tetrahedra, embeddings
from ripstone.polytopes import SOLIDS, build_solid, combinatorial_metric
from ripstone.symmetry import (
    _closure,
    _derived,
    apply_to_simplex,
    automorphisms,
    compose,
    conjugacy_classes,
    identity_perm,
    inverse,
    perm_order,
    rotation_subgroup,
    tetrahedra_orbits,
    verify_remark,
)

GROUP_ORDERS = {
    "tetrahedron": 24,
    "cube": 48,
    "octahedron": 48,
    "dodecahedron": 120,
    "icosahedron": 120,
}


def dodeca_group():
    return automorphisms(build_solid("dodecahedron"))


def central_elements(group):
    gens = group.generators
    return [p for p in group.elements if all(compose(p, s) == compose(s, p) for s in gens)]


def dodeca_tets():
    return diameter3_tetrahedra(combinatorial_metric(build_solid("dodecahedron")))


@pytest.mark.parametrize("name", SOLIDS)
def test_group_orders_with_oracle(name):
    g = automorphisms(build_solid(name))
    assert g.order == GROUP_ORDERS[name]
    oracle = PermutationGroup([Permutation(list(p)) for p in g.generators])
    assert oracle.order() == g.order


def test_perm_helpers():
    e = identity_perm(5)
    p = (1, 2, 3, 4, 0)
    q = (0, 2, 1, 3, 4)
    assert compose(p, e) == compose(e, p) == p
    assert compose(p, inverse(p)) == e
    # compose applies the right factor first
    assert compose(p, q)[0] == p[q[0]]
    assert perm_order(e) == 1
    assert perm_order(p) == 5
    assert perm_order(compose(p, p)) == 5
    assert apply_to_simplex((1, 0, 2), (0, 2)) == (1, 2)


def test_rotation_subgroup_is_simple_of_order_60():
    g = dodeca_group()
    h = rotation_subgroup(g)
    assert h.order == 60
    assert g.order // h.order == 2
    assert central_elements(h) == [identity_perm(20)]
    elements = set(h.elements)
    assert all(compose(p, q) in elements for p in list(elements)[:8] for q in list(elements)[:8])
    oracle = PermutationGroup([Permutation(list(p)) for p in h.generators])
    # a perfect group of order 60 is simple
    assert oracle.derived_subgroup().order() == 60
    assert not oracle.is_solvable


@pytest.mark.parametrize("name", SOLIDS)
def test_derived_subgroup_from_generator_commutators(name):
    # the closure of all |G|^2 commutators, computed here by breadth-first
    # products, against the closure of the [a, s] with s a generator
    g = automorphisms(build_solid(name))
    elems = g.elements
    comms = {
        compose(a, compose(b, compose(inverse(a), inverse(b)))) for a in elems for b in elems
    }
    closure = {identity_perm(g.degree)}
    frontier = list(closure)
    while frontier:
        frontier = [compose(s, p) for p in frontier for s in comms]
        frontier = [p for p in set(frontier) if p not in closure]
        closure.update(frontier)
    assert set(_derived(g).elements) == closure


def test_center_of_full_group_is_the_antipodal_flip():
    g = dodeca_group()
    z = central_elements(g)
    assert len(z) == 2
    nontrivial = next(p for p in z if p != identity_perm(20))
    assert perm_order(nontrivial) == 2
    metric = combinatorial_metric(build_solid("dodecahedron"))
    assert all(metric.d(v, nontrivial[v]) == 5 for v in range(20))
    rotations = set(rotation_subgroup(g).elements)
    assert nontrivial not in rotations


@pytest.mark.parametrize("name", SOLIDS)
def test_conjugacy_classes_are_the_classes_of_all_conjugates(name):
    # brute force: the class of x is {h x h^-1 : h in G}, over every h
    g = automorphisms(build_solid(name))
    classes = {
        tuple(sorted({compose(h, compose(x, inverse(h))) for h in g.elements}))
        for x in g.elements
    }
    assert conjugacy_classes(g) == sorted(classes)


def test_tetrahedra_orbits():
    g = dodeca_group()
    h = rotation_subgroup(g)
    tets = dodeca_tets()
    rot_orbits = tetrahedra_orbits(h, tets)
    assert sorted(len(o) for o in rot_orbits) == [5, 5]
    full_orbits = tetrahedra_orbits(g, tets)
    assert [len(o) for o in full_orbits] == [10]
    # orbit-stabilizer: each tetrahedron has 12 rotational symmetries
    t0 = tets[0]
    stab = [p for p in h.elements if apply_to_simplex(p, t0) == t0]
    assert len(stab) == 12
    with pytest.raises(ParameterError):
        tetrahedra_orbits(h, [t0, t0])
    # the orbit leaves the declared family at the first generator that moves t0
    u = next(apply_to_simplex(p, t0) for p in h.generators if apply_to_simplex(p, t0) != t0)
    message = re.escape(f"group moves tetrahedron {t0} to {u}, outside the family")
    with pytest.raises(StructuralError, match=f"^{message}$"):
        tetrahedra_orbits(h, [t0])


def test_character_table_of_the_tetrahedra_action():
    g = dodeca_group()
    data = verify_remark(g, rotation_subgroup(g), dodeca_tets(), h3_rank=9)
    table = sorted(
        zip(data.class_sizes, data.element_orders, data.in_rotation, data.fixed_counts)
    )
    assert table == sorted(
        [
            (1, 1, True, 10),
            (1, 2, False, 0),
            (12, 5, True, 0),
            (12, 5, True, 0),
            (12, 10, False, 0),
            (12, 10, False, 0),
            (15, 2, True, 2),
            (15, 2, False, 0),
            (20, 3, True, 4),
            (20, 6, False, 0),
        ]
    )
    assert sum(data.class_sizes) == 120
    assert data.fixed_counts == data.predicted_counts
    # identity class leads, and the permutation character less the trivial
    # one has H3's rank as its degree
    assert data.class_sizes[0] == 1 and data.element_orders[0] == 1
    assert data.fixed_counts[0] - 1 == 9


def test_verify_remark_guards():
    g = dodeca_group()
    rot = rotation_subgroup(g)
    tets = dodeca_tets()
    with pytest.raises(VerificationError):
        verify_remark(g, rot, tets, h3_rank=8)
    with pytest.raises(VerificationError):
        verify_remark(g, rot, tets[:9], h3_rank=9)
    with pytest.raises(VerificationError):
        verify_remark(rot, rot, tets, h3_rank=9)


def test_symmetry_report_builds_the_rotation_subgroup_once(monkeypatch):
    from ripstone import pipelines, symmetry

    calls = []
    build = symmetry.rotation_subgroup

    def counted(g):
        calls.append(g.order)
        return build(g)

    monkeypatch.setattr(symmetry, "rotation_subgroup", counted)
    monkeypatch.setattr(pipelines, "rotation_subgroup", counted)
    report = pipelines.symmetry_report()
    assert all(r.passed for r in report.rows)
    assert calls == [120]  # verify_remark takes the report's subgroup


def test_symmetry_report_fails_the_character_row_on_a_wrong_profile(monkeypatch):
    # order-3 rotations fix two tetrahedra; a profile that predicts none
    # fails the classwise row, which is the report's last
    from ripstone import pipelines, symmetry

    wrong = {**symmetry._NATURAL_FIXED_BY_ORDER, 3: 0}
    monkeypatch.setattr(symmetry, "_NATURAL_FIXED_BY_ORDER", wrong)
    report = pipelines.symmetry_report()
    last = report.rows[-1]
    assert (last.subject, last.passed) == ("classwise character check", False)
    assert "fixed 4 != predicted 0" in last.computed
    assert all(r.passed for r in report.rows[:-1])


def test_symmetry_report_fails_the_derived_subgroup_row(monkeypatch):
    from ripstone import pipelines

    def refuse(g):
        raise VerificationError("derived subgroup is not simple")

    monkeypatch.setattr(pipelines, "rotation_subgroup", refuse)
    report = pipelines.symmetry_report()
    assert [(r.subject, r.passed) for r in report.rows] == [
        ("full automorphism group order", True),
        ("derived subgroup", False),
    ]
    assert report.rows[-1].computed == "derived subgroup is not simple"


def test_conjugacy_classes_partition_the_group():
    g = automorphisms(build_solid("tetrahedron"))
    classes = conjugacy_classes(g)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    seen = [p for cls in classes for p in cls]
    assert len(seen) == len(set(seen)) == 24
    assert classes[0] == (identity_perm(4),)


def test_octahedron_and_cube_groups_agree():
    cube = automorphisms(build_solid("cube"))
    octa = automorphisms(build_solid("octahedron"))
    assert cube.order == octa.order == 48
    assert sorted(len(c) for c in conjugacy_classes(cube)) == sorted(
        len(c) for c in conjugacy_classes(octa)
    )


def _plain_closure(degree, generators):
    """Reference closure: breadth-first products with every generator, sorted."""
    found = {identity_perm(degree)}
    frontier = list(found)
    while frontier:
        frontier = [compose(s, p) for p in frontier for s in generators]
        frontier = [p for p in set(frontier) if p not in found]
        found.update(frontier)
    return tuple(sorted(found))


@st.composite
def generator_tuples(draw):
    """Permutations of degree <= 8 with the identity, repeats and redundant products mixed in."""
    degree = draw(st.integers(min_value=1, max_value=8))
    perm = st.permutations(range(degree)).map(tuple)
    base = draw(st.lists(perm, min_size=1, max_size=3))
    extra = [identity_perm(degree), base[0], compose(base[-1], base[0]), inverse(base[0])]
    gens = draw(st.permutations(base + extra))
    return degree, tuple(gens)


@settings(max_examples=60, deadline=None)
@given(generator_tuples())
def test_closure_on_new_generators_matches_the_plain_closure(drawn):
    degree, gens = drawn
    elements, _kept = _closure(degree, gens)
    assert elements == _plain_closure(degree, gens)


def test_closure_composes_each_element_with_each_kept_generator_once(monkeypatch):
    from ripstone import symmetry

    g = dodeca_group()
    elems = g.elements
    # every element after the generators is already in the group they generate
    gens = (*g.generators, *elems[:40])
    calls = []
    monkeypatch.setattr(symmetry, "compose", lambda p, q: calls.append(1) or compose(p, q))
    assert _closure(g.degree, gens) == (elems, g.generators)
    assert len(calls) <= len(elems) * len(g.generators)


def _reduce_generators(degree, elements):
    """Reference choice: each sorted element not in the group the earlier choices generate."""
    total = len(set(elements))
    gens = []
    have = {identity_perm(degree)}
    for p in sorted(elements):
        if len(have) == total:
            break
        if p not in have:
            gens.append(p)
            have = set(_plain_closure(degree, tuple(gens)))
    return tuple(gens)


@pytest.mark.parametrize("name", SOLIDS)
def test_kept_generators_are_the_greedy_choice_over_sorted_elements(name):
    # orbit and class searches visit elements in generator order, so the
    # generators are pinned to this choice
    solid = build_solid(name)
    g = automorphisms(solid)
    assert g.generators == _reduce_generators(g.degree, embeddings(solid, solid))
    if name == "dodecahedron":
        h = rotation_subgroup(g)
        assert h.generators == _reduce_generators(h.degree, h.elements)


@pytest.mark.parametrize("name", SOLIDS)
def test_the_kept_generators_regenerate_the_group(name):
    g = automorphisms(build_solid(name))
    for group in (g, _derived(g)):
        assert _closure(group.degree, group.generators) == (group.elements, group.generators)
        assert group.order == len(set(group.elements))
