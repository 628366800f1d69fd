"""Complex construction: clique expansion, skeleta, deletions, closures."""

import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ripstone import simplicial
from ripstone.errors import ParameterError, StructuralError
from ripstone.polytopes import SOLIDS, DistanceMatrix, build_solid, combinatorial_metric, cube_graph
from ripstone.homology import homology
from ripstone.simplicial import (
    Complex,
    _complement_components,
    antipodal_free_complex,
    boundary_complex,
    delete_open_cells,
    face_diameter,
    from_faces,
    full_simplex_complex,
    mask_of,
    maximal_simplices,
    simplex,
    skeleton,
    vertices_of,
    vr_complex,
)

# f-vectors of the scale-1 complexes: vertices, edges, and triangles for the
# triangle-faced solids
F_VECTORS_R1 = {
    "tetrahedron": (4, 6, 4, 1),
    "cube": (8, 12),
    "octahedron": (6, 12, 8),
    "dodecahedron": (20, 30),
    "icosahedron": (12, 30, 20),
}


def _metric(name):
    return combinatorial_metric(build_solid(name))


@pytest.mark.parametrize("name", SOLIDS)
def test_scale1_f_vectors(name):
    c = vr_complex(_metric(name), 1)
    assert c.f_vector() == F_VECTORS_R1[name]


def test_scale0_is_discrete():
    for name in SOLIDS:
        c = vr_complex(_metric(name), 0)
        assert c.f_vector() == (solid_vertices(name),)


def solid_vertices(name):
    return _metric(name).size


def test_dodecahedron_scale2_shape():
    c = vr_complex(_metric("dodecahedron"), 2)
    assert c.f_vector() == (20, 90, 140, 80, 12)
    census = Counter(len(s) for s in maximal_simplices(c))
    assert census == {4: 20, 5: 12}


def test_dodecahedron_scale2_matches_clique_oracle():
    metric = _metric("dodecahedron")
    c = vr_complex(metric, 2)
    g = nx.Graph(
        (i, j)
        for i, j in combinations(range(20), 2)
        if metric.d(i, j) <= 2
    )
    counts = Counter()
    for clique in nx.enumerate_all_cliques(g):
        counts[len(clique) - 1] += 1
    counts[0] = 20
    assert tuple(counts[k] for k in range(5)) == c.f_vector()


def test_cube_scale2_is_cross_polytope():
    metric = _metric("cube")
    c = vr_complex(metric, 2)
    assert c.f_vector() == (8, 24, 32, 16)
    assert all(len(s) == 4 for s in maximal_simplices(c))
    assert c == antipodal_free_complex(metric, 3)


def test_cone_vertex_at_diameter():
    for name in SOLIDS:
        metric = _metric(name)
        c = vr_complex(metric, metric.diameter())
        assert c.cone_vertex is not None
        assert c.face_total() == 2**metric.size - 1


def test_boundary_complex_matches_scale1(refuse_joins):
    for name in ("cube", "octahedron", "dodecahedron", "icosahedron"):
        c = vr_complex(_metric(name), 1)
        assert c == boundary_complex(name)
        assert boundary_complex(name) == c
        if name == "octahedron":  # a join of three zero-spheres, compared through its factors
            assert "faces" not in vars(c)
        assert boundary_complex(name).f_vector() == F_VECTORS_R1[name]
    # a face less, or one edge swapped for a non-edge, is a different complex
    c = vr_complex(_metric("cube"), 1)
    edges = c.simplices(1)
    far = next((0, v) for v in range(8) if _metric("cube").d(0, v) == 3)
    assert c != from_faces(edges[1:], 8)
    assert c != from_faces(edges[1:] + [far], 8) != c


def test_antipodal_free_rows():
    for name, r in (("octahedron", 1), ("icosahedron", 2), ("dodecahedron", 4)):
        metric = _metric(name)
        free = antipodal_free_complex(metric, metric.diameter())
        assert vr_complex(metric, r) == free
        pairs = metric.size // 2
        assert free.face_total() == 3**pairs - 1


def test_antipodal_free_guards():
    # every tetrahedron vertex has three partners at distance 1, not one
    with pytest.raises(StructuralError):
        antipodal_free_complex(_metric("tetrahedron"), 1)


def test_full_simplex_and_skeleton():
    c = full_simplex_complex(4)
    assert c.f_vector() == (4, 6, 4, 1)
    s1 = skeleton(c, 1)
    assert s1.f_vector() == (4, 6)
    assert skeleton(c, 9).f_vector() == c.f_vector()
    with pytest.raises(ParameterError):
        full_simplex_complex(0)
    with pytest.raises(ParameterError):
        full_simplex_complex(21)


def test_from_faces_downward_closure():
    c = from_faces([(0, 1, 2), (2, 3)])
    assert c.f_vector() == (4, 4, 1)
    assert c.has_face((0, 2))
    assert not c.has_face((1, 3))


def test_delete_open_cells():
    c = full_simplex_complex(3)
    pruned = delete_open_cells(c, [(0, 1, 2)])
    assert pruned.f_vector() == (3, 3)
    with pytest.raises(StructuralError):
        delete_open_cells(c, [(0, 1)])  # not maximal
    with pytest.raises(StructuralError):
        delete_open_cells(c, [(0, 3)])  # not a face


def test_deleting_a_face_at_a_far_vertex_id_is_fast():
    # maximality is probed with the complex's own vertices, not every id
    # below vertex_count
    c = from_faces(list(combinations(range(12), 2)) + [(10**6,)])
    start = time.perf_counter()
    pruned = delete_open_cells(c, [(10**6,)])
    assert time.perf_counter() - start < 1.0
    assert pruned.f_vector() == (12, 66)
    with pytest.raises(StructuralError, match="not maximal"):
        delete_open_cells(c, [(3,)])


def test_face_diameter():
    metric = _metric("dodecahedron")
    assert face_diameter(metric, (0,)) == 0
    edge = vr_complex(metric, 1).simplices(1)[0]
    assert face_diameter(metric, edge) == 1


def test_simplex_validation():
    assert simplex([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ParameterError):
        simplex([3, 1, 2])  # must arrive ascending
    with pytest.raises(ParameterError):
        simplex([1, 1, 2])
    with pytest.raises(ParameterError):
        simplex([])
    with pytest.raises(ParameterError):
        simplex([-1, 0])


@st.composite
def face_lists(draw, max_n=7, max_size=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    faces = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=max_size,
                unique=True,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return [tuple(sorted(f)) for f in faces]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(face_lists())
def test_from_faces_is_downward_closed(faces):
    c = from_faces(faces)
    for k in range(c.dim + 1):
        for s in c.simplices(k):
            for drop in range(len(s)):
                facet = s[:drop] + s[drop + 1 :]
                if facet:
                    assert c.has_face(facet)
    # every listed face is present, and rebuilding from maximal faces is stable
    assert all(c.has_face(f) for f in faces)
    rebuilt = from_faces(maximal_simplices(c), vertex_count=c.vertex_count)
    assert rebuilt == c


@settings(max_examples=100, deadline=None, derandomize=True)
@given(face_lists(max_n=10, max_size=6))
def test_from_faces_and_maximal_faces_match_brute_force(faces):
    # list some faces twice and some of their proper faces as well
    faces = faces + faces[:2] + [f[1:] for f in faces if len(f) > 1]
    closure = {sub for f in faces for k in range(len(f)) for sub in combinations(f, k + 1)}
    c = from_faces(faces)
    assert c.faces == [
        sorted((mask_of(s) for s in closure if len(s) == k + 1), key=vertices_of)
        for k in range(max(map(len, closure)))
    ]
    assert maximal_simplices(c) == sorted(
        s for s in closure if not any(set(s) < set(t) for t in closure)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(SOLIDS),
    st.integers(min_value=0, max_value=5),
)
def test_vr_faces_are_bounded_diameter_cliques(name, r):
    metric = _metric(name)
    r = min(r, metric.diameter())
    c = vr_complex(metric, r)
    # no face holds a vertex v together with one farther than r from v
    n = metric.size
    far = [sum(1 << w for w in range(n) if metric.d(v, w) > r) for v in range(n)]
    for level in c.faces:
        for v, beyond in enumerate(far):
            if beyond:
                bit = 1 << v
                assert not any(mask & bit and mask & beyond for mask in level)
    # and the next scale only grows the complex
    bigger = vr_complex(metric, r + 1)
    for k, level in enumerate(c.faces):
        assert set(level) <= set(bigger.faces[k])


def _assert_lexicographic(c):
    for level in c.faces:
        assert level == sorted(level, key=vertices_of)


def test_vr_levels_are_lexicographic_on_solids():
    # the clique walk emits lexicographic order unsorted; the r=5
    # dodecahedron cone (1,048,575 faces) is left out for time
    for name in SOLIDS:
        metric = _metric(name)
        for r in range(min(metric.diameter(), 4) + 1):
            _assert_lexicographic(vr_complex(metric, r))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**16),
)
def test_vr_levels_are_lexicographic_on_random_graphs(n, p, seed):
    g = nx.gnp_random_graph(n, p, seed=seed)
    # hop distance capped at 2: scale 1 is the clique complex of g
    dist = tuple(
        tuple(0 if i == j else 1 if g.has_edge(i, j) else 2 for j in range(n))
        for i in range(n)
    )
    c = vr_complex(DistanceMatrix(size=n, dist=dist), 1)
    _assert_lexicographic(c)
    assert c.face_total() == sum(1 for _ in nx.enumerate_all_cliques(g))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
def test_cube_vr_vertex_transitive_counts(n, r):
    metric = combinatorial_metric(cube_graph(n))
    r = min(r, metric.diameter())
    c = vr_complex(metric, r)
    degree_in_edges = Counter()
    for a, b in c.simplices(1):
        degree_in_edges[a] += 1
        degree_in_edges[b] += 1
    if c.dim >= 1:
        assert len(set(degree_in_edges.values())) == 1


def _graph_metric(n, edges):
    """Hop distance capped at 2: scale 1 is the clique complex of the graph."""
    dist = tuple(
        tuple(0 if i == j else 1 if (min(i, j), max(i, j)) in edges else 2 for j in range(n))
        for i in range(n)
    )
    return DistanceMatrix(size=n, dist=dist)


def _enumerated_f_vector(c):
    return tuple(len(level) for level in c.faces)


def _is_join(c):
    return len(_complement_components(c.graph)) > 1


def test_counted_f_vector_matches_enumeration_on_solids():
    for name in SOLIDS:
        metric = _metric(name)
        for r in range(metric.diameter() + 1):
            c = vr_complex(metric, r)
            counted = c.f_vector()
            if _is_join(c):  # the cross-polytope and diameter rows: counted from the factors
                assert "faces" not in vars(c)
            assert counted == _enumerated_f_vector(c)
            assert c.f_vector() == counted  # now read from the built faces


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
)
def test_counted_f_vector_matches_enumeration_on_random_graphs(n, p, universal, seed):
    # p = 0 is the empty graph and p = 1 the complete graph; the first
    # `universal` vertices are joined to every other vertex
    g = nx.gnp_random_graph(n, p, seed=seed)
    g.add_edges_from((u, v) for u in range(min(universal, n)) for v in range(n) if u != v)
    c = vr_complex(_graph_metric(n, {(min(e), max(e)) for e in g.edges}), 1)
    if universal:
        assert c.cone_vertex == 0
    counted = c.face_total()
    if _is_join(c):
        assert "faces" not in vars(c)
    assert c.f_vector() == _enumerated_f_vector(c)
    assert counted == sum(1 for _ in nx.enumerate_all_cliques(g))


def test_face_total_leaves_a_complex_unbuilt():
    c = vr_complex(_metric("dodecahedron"), 4)
    assert c.face_total() == 3**10 - 1
    assert c.f_vector()[-1] == 2**10
    assert "faces" not in vars(c)
    assert c.dim == 9  # the dimension is read from the faces
    assert "faces" in vars(c)


def test_cone_homology_counts_without_enumerating(refuse_joins):
    # the full simplex on 20 vertices is the join of its 20 points
    c = vr_complex(_metric("dodecahedron"), 5)
    assert homology(c).betti == (1,) + (0,) * 19
    assert c.face_total() == 2**20 - 1
    assert "faces" not in vars(c)


def test_cone_beyond_the_face_budget_is_counted(refuse_joins):
    # K_24 without the edge 22-23: a cone on vertex 0 with 2^24 - 2^22 - 1
    # faces, the join of 22 points and the zero-sphere {22, 23}
    n = 24
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)} - {(22, 23)}
    c = vr_complex(_graph_metric(n, edges), 1)
    assert c.cone_vertex == 0
    assert c.face_total() == 2**24 - 2**22 - 1 > simplicial.FACE_BUDGET
    assert homology(c).betti == (1,) + (0,) * 22
    assert maximal_simplices(c) == [tuple(range(23)), tuple(range(22)) + (23,)]
    assert "faces" not in vars(c)


def test_face_budget_stops_enumeration():
    assert simplicial.FACE_BUDGET >= 2**21
    # cube 6 at scale 5 is the antipodal-free complex on 32 pairs: 3^32 - 1 faces
    c = vr_complex(combinatorial_metric(cube_graph(6)), 5)
    with pytest.raises(ParameterError, match="faces"):
        c.faces
    assert "faces" not in vars(c)


def test_a_join_past_the_face_budget_counts_and_refuses_its_maximal_faces_fast():
    # the same complex is the join of 32 zero-spheres: 3^32 - 1 faces and
    # 2^32 maximal ones, which is more than the budget allows to list
    c = vr_complex(combinatorial_metric(cube_graph(6)), 5)
    start = time.perf_counter()
    assert c.face_total() == 3**32 - 1
    assert time.perf_counter() - start < 1.0
    assert "faces" not in vars(c)
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="faces"):
        maximal_simplices(c)
    assert time.perf_counter() - start < 1.0
    assert "faces" not in vars(c)


def test_face_budget_bounds_every_clique_walk(monkeypatch):
    # cube 4 at scale 3: 3^8 - 1 = 6560 faces, 2^8 maximal ones
    metric = combinatorial_metric(cube_graph(4))
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 6559)
    with pytest.raises(ParameterError, match="6,559 faces"):
        vr_complex(metric, 3).faces
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 100)
    # the join of 8 zero-spheres: its f-vector is arithmetic on the factors'
    assert vr_complex(metric, 3).face_total() == 6560
    with pytest.raises(ParameterError):
        maximal_simplices(vr_complex(metric, 3))
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 6560)
    c = vr_complex(metric, 3)
    assert c.face_total() == 6560
    assert len(maximal_simplices(c)) == 2**8
    assert _enumerated_f_vector(c) == tuple(comb(8, k + 1) * 2 ** (k + 1) for k in range(8))


def test_face_budget_bounds_the_closure_of_listed_faces(monkeypatch):
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 20)
    # one 5-vertex face closes to 31 faces: refused before the closure
    with pytest.raises(ParameterError, match="20 faces"):
        from_faces([(0, 1, 2, 3, 4)])
    # two 4-vertex faces close to 15 each, and overlap in an edge: 27 in all
    with pytest.raises(ParameterError, match="20 faces"):
        from_faces([(0, 1, 2, 3), (2, 3, 4, 5)])
    assert from_faces([(0, 1, 2, 3), (3, 4)]).face_total() == 17


def test_face_budget_stops_the_closure_partway_through_a_level(monkeypatch):
    # three disjoint tetrahedra: levels of 3, 12, 18 and 12 faces, 45 in all
    tets = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 45)
    assert from_faces(tets).f_vector() == (12, 18, 12, 3)
    for budget in (25, 44):  # past 15 + 10 edges; past 33 + 11 vertices
        monkeypatch.setattr(simplicial, "FACE_BUDGET", budget)
        with pytest.raises(ParameterError, match=f"{budget} faces"):
            from_faces(tets)


def test_a_far_vertex_id_does_not_widen_every_face():
    # faces are sorted and covered by their own masks, so one vertex id of a
    # million costs the one face that holds it, not every face
    faces = list(combinations(range(12), 2)) + [(10**6,)]
    tracemalloc.start()
    try:
        c = from_faces(faces)
        maximal = maximal_simplices(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.vertex_count == 10**6 + 1 and maximal[-1] == (10**6,)
    assert peak < 8 * 2**20


def test_face_budget_admits_the_largest_supported_complexes():
    c = full_simplex_complex(20)
    assert c.cone_vertex == 0
    assert c.face_total() == 2**20 - 1
    assert _enumerated_f_vector(c) == tuple(comb(20, k + 1) for k in range(20))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_full_simplex_is_the_sorted_power_set(n):
    c = full_simplex_complex(n)
    expected = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    assert [s for k in range(c.dim + 1) for s in c.simplices(k)] == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
    st.integers(min_value=0, max_value=2**16),
)
def test_maximal_cliques_match_the_face_walk(n, p, seed):
    g = nx.gnp_random_graph(n, p, seed=seed)
    c = vr_complex(_graph_metric(n, {(min(e), max(e)) for e in g.edges}), 1)
    from_graph = maximal_simplices(c)
    if _is_join(c):  # listed from the factors' maximal faces
        assert "faces" not in vars(c)
    graphless = Complex(vertex_count=n, faces=c.faces)
    assert from_graph == maximal_simplices(graphless)
    assert from_graph == sorted(tuple(sorted(q)) for q in nx.find_cliques(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=40),
)
def test_clique_complex_equality_from_graphs_matches_faces(n, p, seed, toggle):
    # the second graph differs from the first in at most one edge
    g = nx.gnp_random_graph(n, p, seed=seed)
    edges = {(min(e), max(e)) for e in g.edges}
    pairs = list(combinations(range(n), 2))
    other = edges ^ set(pairs[toggle : toggle + 1])
    a = vr_complex(_graph_metric(n, edges), 1)
    b = vr_complex(_graph_metric(n, other), 1)
    assert (a == b) == (a.faces == b.faces)
    assert (a == b) == (Complex(vertex_count=n, faces=a.faces) == b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.9, 1.0]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
)
def test_complement_components_match_networkx(n, p, universal, seed):
    g = nx.gnp_random_graph(n, p, seed=seed)
    g.add_edges_from((u, v) for u in range(min(universal, n)) for v in range(n) if u != v)
    c = vr_complex(_graph_metric(n, {(min(e), max(e)) for e in g.edges}), 1)
    parts = _complement_components(c.graph)
    assert parts == sorted(parts, key=lambda m: m & -m)
    assert [set(vertices_of(m)) for m in parts] == sorted(
        nx.connected_components(nx.complement(g)), key=min
    )
    if universal or any(m.bit_count() == 1 for m in parts):
        # a one-vertex component is a universal vertex, which the benchmark
        # tracer counts as a cone through cone_vertex
        assert c.cone_vertex is not None
    else:
        assert c.cone_vertex is None
    h = homology(c)
    if len(parts) > 1:  # a join, cones included: homology from the factors
        assert "faces" not in vars(c)
    if c.cone_vertex is not None:  # a cone is contractible
        assert h.betti_stripped() == (1,) and not any(h.torsion)
