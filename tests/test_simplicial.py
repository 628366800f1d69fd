"""Complex construction: clique expansion, skeleta, deletions, closures."""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from ripstone import pipelines, simplicial
from ripstone.errors import ParameterError, StructuralError
from ripstone.polytopes import (
    SOLIDS,
    DistanceMatrix,
    PolytopeGraph,
    build_solid,
    combinatorial_metric,
    cube_graph,
    solid_info,
)
from ripstone.formats import serialize_complex
from ripstone.homology import homology
from ripstone.simplicial import (
    Complex,
    _complement_components,
    antipodal_free_complex,
    delete_open_cells,
    from_faces,
    full_simplex_complex,
    mask_of,
    maximal_simplices,
    simplex,
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
    # VR_1 is the clique complex of the edge graph, so it is the boundary
    # complex exactly when it has no face above the facets' dimension, which
    # is what verify main-theorem checks, off the f-vector alone
    for name in ("cube", "octahedron", "dodecahedron", "icosahedron"):
        c = vr_complex(_metric(name), 1)
        assert c.f_vector() == F_VECTORS_R1[name]
        assert len(c.f_vector()) - 1 == (2 if solid_info(name).m == 3 else 1)
        if name == "octahedron":  # a join of three zero-spheres, read off its factors
            assert "faces" not in vars(c)
    # a face less, or one edge swapped for a non-edge, is a different complex
    c = vr_complex(_metric("cube"), 1)
    edges = c.simplices(1)
    far = next((0, v) for v in range(8) if _metric("cube").d(0, v) == 3)
    assert c != from_faces(edges[1:], 8)
    assert c != from_faces(edges[1:] + [far], 8) != c


@pytest.mark.parametrize("name", SOLIDS)
def test_boundary_complex_levels_match_the_closure(name):
    # the boundary complex, listed from the edge graph by brute force, equals
    # VR_1 exactly when VR_1's dimension is the facets': on every solid but
    # the tetrahedron, whose VR_1 is the solid 3-simplex
    g = build_solid(name)
    n = g.vertex_count
    edges = [(a, b) for a, b in combinations(range(n), 2) if g.adjacent(a, b)]
    triangles = []
    if solid_info(name).m == 3:
        triangles = [
            t for t in combinations(range(n), 3)
            if all(g.adjacent(a, b) for a, b in combinations(t, 2))
        ]
    levels = [[1 << v for v in range(n)], [mask_of(e) for e in edges]]
    if triangles:
        levels.append([mask_of(t) for t in triangles])
    boundary = Complex(n, levels)  # sorted and checked for closure
    assert boundary.faces == from_faces(edges + triangles, n).faces
    c = vr_complex(combinatorial_metric(g), 1)
    flat = len(c.f_vector()) - 1 == (2 if solid_info(name).m == 3 else 1)
    assert (c == boundary) == (boundary == c) == flat == (name != "tetrahedron")


def test_antipodal_free_rows():
    # VR_r equals the antipodal-pair-free complex exactly when its join
    # factors are the antipodal pairs, which is what verify main-theorem checks
    for name, r in pipelines._ANTIPODAL_ROWS:
        metric = _metric(name)
        free = antipodal_free_complex(metric, metric.diameter())
        c = vr_complex(metric, r)
        assert c == free
        pairs = [keep for keep, _x in c.join_factors]
        far = [(i, j) for i, j in combinations(range(metric.size), 2) if metric.d(i, j) > r]
        assert pairs == far
        assert len(pairs) == metric.size // 2
        assert free.face_total() == 3 ** len(pairs) - 1
    assert [keep for keep, _x in vr_complex(_metric("cube"), 2).join_factors] == [
        (0, 7), (1, 6), (2, 5), (3, 4)
    ]


def test_antipodal_free_guards():
    # every tetrahedron vertex has three partners at distance 1, not one
    with pytest.raises(StructuralError):
        antipodal_free_complex(_metric("tetrahedron"), 1)


def _scanned_partners(metric, k):
    """The antipodal partners by a scan of every distance, or the message refusing them."""
    n = metric.size
    partner = []
    for i in range(n):
        far = [j for j in range(n) if j != i and metric.d(i, j) == k]
        if len(far) != 1:
            return f"vertex {i} has {len(far)} partners at distance {k}; need exactly one"
        partner.append(far[0])
    if any(partner[partner[i]] != i for i in range(n)):
        return "antipodal pairing is not an involution"
    return partner


def _antipodal_cases():
    for name in SOLIDS:
        metric = _metric(name)
        for k in range(metric.diameter() + 2):
            yield metric, k
    # one partner each, but 0 -> 2 -> 1 -> 0 is no pairing
    yield DistanceMatrix(size=3, dist=((0, 1, 2), (2, 0, 1), (1, 2, 0))), 2


def test_antipodal_free_complex_reads_the_partners_a_scan_finds():
    seen = set()
    for metric, k in _antipodal_cases():
        partner = _scanned_partners(metric, k)
        if isinstance(partner, str):
            seen.add(partner)
            with pytest.raises(StructuralError) as err:
                antipodal_free_complex(metric, k)
            assert str(err.value) == partner
            continue
        full = (1 << metric.size) - 1
        graph = tuple(full ^ (1 << i) ^ (1 << p) for i, p in enumerate(partner))
        assert antipodal_free_complex(metric, k).graph == graph
    # the cube below its diameter, k = 0, past the diameter, and no pairing
    assert {
        "vertex 0 has 3 partners at distance 2; need exactly one",
        "vertex 0 has 0 partners at distance 0; need exactly one",
        "vertex 0 has 0 partners at distance 4; need exactly one",
        "antipodal pairing is not an involution",
    } <= seen


def test_full_simplex_and_skeleton():
    c = full_simplex_complex(4)
    assert c.f_vector() == (4, 6, 4, 1)
    # a join of five points multiplies its factors' f-vectors even once
    # its own faces are built
    c = full_simplex_complex(5)
    levels = c.faces
    assert c.f_vector() == tuple(map(len, levels)) == (5, 10, 10, 5, 1)
    with pytest.raises(ParameterError):
        full_simplex_complex(0)
    with pytest.raises(ParameterError):
        full_simplex_complex(21)


def test_from_faces_downward_closure():
    c = from_faces([(0, 1, 2), (2, 3)])
    assert c.f_vector() == (4, 4, 1)
    assert mask_of((0, 2)) in c.face_set
    assert mask_of((1, 3)) not in c.face_set


def test_constructors_refuse_bad_input():
    with pytest.raises(ParameterError, match="scale must be a non-negative integer, got -1"):
        vr_complex(_metric("cube"), -1)
    with pytest.raises(StructuralError, match="refusing to build an empty complex"):
        from_faces([])
    with pytest.raises(ParameterError, match="vertex_count is smaller than the largest vertex id"):
        from_faces([(0, 3)], vertex_count=3)
    for count in (-1, 2.5, "2"):  # not a bare shift-count error or TypeError
        with pytest.raises(ParameterError, match="^vertex_count must be a non-negative int, got"):
            Complex(count, [[1]])


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


def test_face_diameter(face_diameter):
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
                    assert mask_of(facet) in c.face_set
    # every listed face is present, and rebuilding from maximal faces is stable
    assert all(mask_of(f) in c.face_set for f in faces)
    rebuilt = from_faces(maximal_simplices(c), vertex_count=c.vertex_count)
    assert rebuilt == c


@settings(max_examples=100, deadline=None, derandomize=True)
@given(face_lists())
def test_membership_questions_match_a_tuple_set_oracle(faces):
    # every vertex set on one vertex id more than the complex has, of every
    # size, so sets above the top dimension and off the vertices are asked too
    from ripstone.morse import Matching, check_matching

    closure = {sub for f in faces for k in range(len(f)) for sub in combinations(f, k + 1)}
    c = from_faces(faces)
    ids = range(c.vertex_count + 1)
    for s in (s for k in range(1, len(ids) + 1) for s in combinations(ids, k)):
        assert (mask_of(s) in c.face_set) == (s in closure)
        if s not in closure:
            refusal = "not a face"
        elif any(set(s) < set(t) for t in closure):
            refusal = "not maximal"
        elif closure == {s}:
            refusal = "would empty"
        else:
            refusal = None
        if refusal is None:
            left = delete_open_cells(c, [s])
            assert {t for k in range(left.dim + 1) for t in left.simplices(k)} == closure - {s}
            assert left.face_set == frozenset().union(*left.faces)  # handed down, not rebuilt
        else:
            with pytest.raises(StructuralError, match=refusal):
                delete_open_cells(c, [s])
        if len(s) > 1:
            report = check_matching(c, Matching(((mask_of(s[1:]), mask_of(s)),)))
            outside = not {s, s[1:]} <= closure
            assert report.violations == (
                (f"pair {s[1:]} -> {s} uses a simplex outside the complex",) if outside else ()
            )


def _assert_closure_matches_brute_force(faces):
    closure = {sub for f in faces for k in range(len(f)) for sub in combinations(f, k + 1)}
    c = from_faces(faces)
    assert c.faces == tuple(
        tuple(sorted((mask_of(s) for s in closure if len(s) == k + 1), key=vertices_of))
        for k in range(max(map(len, closure)))
    )
    maximal = [s for s in closure if not any(set(s) < set(t) for t in closure)]
    assert maximal_simplices(c) == sorted(maximal)
    # the record lists each maximal face once, as the tuple it was given
    assert sorted(c._cache["maximal"]) == sorted(maximal)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(face_lists(max_n=10, max_size=6))
def test_from_faces_and_maximal_faces_match_brute_force(faces):
    # list some faces twice, and each one without its first, last and a middle vertex
    faces = faces + faces[:2]
    for f in faces[:]:
        if len(f) > 1:
            mid = len(f) // 2
            faces += [f[1:], f[:-1], f[:mid] + f[mid + 1 :]]
    _assert_closure_matches_brute_force(faces)


@pytest.mark.parametrize(
    "faces",
    [
        [(0, 1), (1,)],  # a listed face held only through a lower vertex
        [(0, 1, 2), (2,)],
        [(0, 1, 2), (0, 2)],  # a listed face inside a single holder
        [(0, 1, 2), (1, 2, 3), (1, 2)],  # a listed face under two holders
    ],
)
def test_the_maximal_record_of_pinned_closures(faces):
    _assert_closure_matches_brute_force(faces)


def test_from_faces_on_a_dense_edge_list_matches_brute_force():
    # every root vertex's star holds many listed faces, most of them edges
    faces = list(combinations(range(30), 2)) + [(0, 1, 2), (3, 17, 29), (5, 6, 28), (0, 1, 3)]
    _assert_closure_matches_brute_force(faces)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(face_lists(max_n=9, max_size=5))
def test_recorded_maximal_faces_match_the_facet_pass(faces):
    # duplicates, listed faces that are not maximal, and mixed sizes
    faces = faces + faces[:3] + [f[:-1] for f in faces if len(f) > 1] + [f[:1] for f in faces]
    c = from_faces(faces)
    assert "maximal" in c._cache
    unrecorded = Complex(vertex_count=c.vertex_count, faces=[list(level) for level in c.faces])
    facet_pass = simplicial._maximal_masks(unrecorded)
    assert sorted(c._cache["maximal"]) == sorted(map(vertices_of, facet_pass))
    assert maximal_simplices(c) == maximal_simplices(unrecorded)
    reversed_levels = Complex(vertex_count=c.vertex_count, faces=[level[::-1] for level in c.faces])
    assert reversed_levels.faces == c.faces


def _skeleton(c, k):
    """The faces of c of dimension at most k, as a complex of its own."""
    return Complex._built(c.vertex_count, c.faces[: k + 1])


def test_derived_complexes_report_their_own_maximal_faces():
    c = from_faces([(0, 1, 2), (2, 3), (4,), (0, 1)])
    assert maximal_simplices(c) == [(0, 1, 2), (2, 3), (4,)]
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert maximal_simplices(_skeleton(c, 1)) == edges + [(4,)]
    assert maximal_simplices(_skeleton(c, 0)) == [(v,) for v in range(5)]
    pruned = delete_open_cells(c, [(0, 1, 2), (4,)])
    assert maximal_simplices(pruned) == edges
    assert pruned == from_faces(edges, 5) != c
    assert delete_open_cells(pruned, [(2, 3)]) == from_faces(edges[:3] + [(3,)], 5)


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
    """Complex's invariant, checked against oracles of its own rather than Complex's sort.

    faces and each level are tuples, each level is in the lexicographic
    order of its vertex tuples, and every facet of every face is present.
    """
    assert type(c.faces) is tuple
    for level in c.faces:
        assert type(level) is tuple
        assert list(level) == sorted(level, key=vertices_of)
    present = {vertices_of(m) for level in c.faces for m in level}
    for s in present:
        assert len(s) == 1 or set(combinations(s, len(s) - 1)) <= present, s


def test_vr_levels_are_lexicographic_on_solids():
    # the clique walk emits lexicographic order unsorted; the r=5
    # dodecahedron cone (1,048,575 faces) is left out for time
    for name in SOLIDS:
        metric = _metric(name)
        for r in range(min(metric.diameter(), 4) + 1):
            _assert_lexicographic(vr_complex(metric, r))


def test_every_constructor_keeps_the_complex_invariant():
    from ripstone.formats import parse_complex
    from ripstone.patterns import diameter3_tetrahedra

    dodeca = _metric("dodecahedron")
    vr3 = vr_complex(dodeca, 3)
    listed = from_faces([(0, 4, 5), (1, 3), (2,), (0, 1, 2, 3), (4, 5)])
    built = [
        listed,
        parse_complex("6 7\n0 1 4\n0 1 5\n2 3  # an edge\n1 2 3 4\n"),
        _skeleton(vr3, 2),
        _skeleton(listed, 1),
        delete_open_cells(vr3, diameter3_tetrahedra(dodeca)),
        delete_open_cells(listed, [(0, 1, 2, 3)]),
        *(x for _keep, x in vr_complex(_metric("octahedron"), 1).join_factors),
        *(x for _keep, x in vr_complex(_metric("cube"), 2).join_factors),
        *(full_simplex_complex(n) for n in range(1, 9)),
    ]
    for name in ("octahedron", "icosahedron", "dodecahedron"):
        metric = _metric(name)
        built.append(antipodal_free_complex(metric, metric.diameter()))
    for c in built:
        _assert_lexicographic(c)


def test_a_complex_given_its_faces_refuses_each_broken_invariant():
    # the edge (0, 2) without its vertex (0,)
    with pytest.raises(StructuralError, match=r"^face \(0, 2\) has no facet \(0,\) in the complex"):
        Complex(vertex_count=3, faces=[[0b010, 0b100], [0b101]])
    with pytest.raises(StructuralError, match=r"^face \(0, 1\) is listed twice$"):
        Complex(vertex_count=2, faces=[[0b01, 0b10], [0b11, 0b11]])
    with pytest.raises(StructuralError, match=r"^face \(0, 1\) is listed among the 0-faces$"):
        Complex(vertex_count=2, faces=[[0b01, 0b11, 0b10]])
    with pytest.raises(StructuralError, match=r"^face mask 4 is not a set of vertex ids below 2$"):
        Complex(vertex_count=2, faces=[[0b01, 0b10, 0b100]])
    with pytest.raises(StructuralError, match=r"^face mask -1 is not a set"):
        Complex(vertex_count=2, faces=[[0b01, -1]])
    with pytest.raises(StructuralError, match=r"^face \(\) is listed among the 0-faces$"):
        Complex(vertex_count=2, faces=[[0b01, 0]])


def test_a_complex_given_no_faces_is_refused():
    # as every other constructor refuses it; it used to report dim -1
    for faces in ([], [[]], [[], []]):
        with pytest.raises(StructuralError, match=r"^refusing to build an empty complex$"):
            Complex(vertex_count=2, faces=faces)


def test_a_complex_given_an_empty_top_level_is_refused():
    # it used to report dim 1 with no edge
    with pytest.raises(StructuralError, match=r"^the top level lists no 1-faces$"):
        Complex(vertex_count=2, faces=[[0b01, 0b10], []])
    with pytest.raises(StructuralError, match=r"^the top level lists no 2-faces$"):
        Complex(vertex_count=2, faces=[[0b01, 0b10], [0b11], []])


def test_a_complex_given_shuffled_levels_stores_them_sorted_and_immutable():
    c = Complex(vertex_count=4, faces=[[0b1000, 0b0010, 0b0100, 0b0001], [0b1100, 0b0011, 0b0110]])
    assert c.simplices(0) == [(0,), (1,), (2,), (3,)]
    assert c.simplices(1) == [(0, 1), (1, 2), (2, 3)]
    assert c == from_faces([(0, 1), (1, 2), (2, 3)])
    _assert_lexicographic(c)
    with pytest.raises(TypeError):
        c.faces[1] = (0b0011,)
    with pytest.raises(TypeError):
        c.faces[1][0] = 0b1001


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


def _scanned_graph(metric, r):
    """The adjacency masks of the pairs at distance at most r, by a scan of every distance."""
    return tuple(
        sum(1 << j for j, d in enumerate(row) if d <= r and j != i)
        for i, row in enumerate(metric.dist)
    )


def test_vr_graph_is_the_distance_scan_on_solids_and_cubes():
    metrics = [_metric(name) for name in SOLIDS]
    metrics += [combinatorial_metric(cube_graph(n)) for n in range(1, 6)]
    for metric in metrics:
        for r in range(metric.diameter() + 2):
            assert vr_complex(metric, r).graph == _scanned_graph(metric, r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.integers(min_value=0, max_value=2**16),
)
def test_vr_graph_is_the_distance_scan_on_random_connected_graphs(n, p, seed):
    # a path through every vertex keeps the graph connected
    g = nx.gnp_random_graph(n, p, seed=seed)
    g.add_edges_from((v, v + 1) for v in range(n - 1))
    edges = {(min(e), max(e)) for e in g.edges}
    adj = tuple(sum(1 << w for w in g.neighbors(v)) for v in range(n))
    hops = combinatorial_metric(PolytopeGraph(name="drawn", vertex_count=n, adjacency=adj))
    for metric in (_graph_metric(n, edges), hops):
        for r in range(metric.diameter() + 2):
            assert vr_complex(metric, r).graph == _scanned_graph(metric, r)


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


def test_a_clique_walk_past_the_face_budget_stops_within_a_level(monkeypatch):
    # K_n has n(n - 1)/2 edges: a walk that checked the budget once per level
    # would hold them all before refusing; it stops after one vertex's edges
    for n, budget, mib in ((3000, 100, 5), (1000, 1100, 2)):
        full = (1 << n) - 1
        adj = tuple(full ^ (1 << v) for v in range(n))
        monkeypatch.setattr(simplicial, "FACE_BUDGET", budget)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"{budget:,} faces"):
                simplicial._enumerate_cliques(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


def _brute_force_cliques(n, edges):
    """Every clique of the graph by testing each vertex set, per dimension, in lex order."""
    levels = [
        [mask_of(q) for q in combinations(range(n), k + 1) if edges.issuperset(combinations(q, 2))]
        for k in range(n)
    ]
    while levels and not levels[-1]:
        levels.pop()
    return levels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.booleans(), min_size=comb(n, 2), max_size=comb(n, 2))
        )
    )
)
@example((0, []))  # the empty graph: no levels
@example((6, [False] * 15))  # isolated vertices
@example((12, [True] * 66))  # the complete graph
def test_clique_levels_match_brute_force(graph):
    n, picks = graph  # picks[i] keeps the i-th pair of combinations(range(n), 2)
    edges = {e for e, keep in zip(combinations(range(n), 2), picks) if keep}
    adj = tuple(sum(1 << w for w in range(n) if (min(v, w), max(v, w)) in edges) for v in range(n))
    assert simplicial._enumerate_cliques(adj) == _brute_force_cliques(n, edges)


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=9),
    st.sampled_from([0.2, 0.5, 0.8, 0.9, 1.0]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=40),
)
def test_equality_matches_maximal_faces_for_joins_and_non_joins(n, p, universal, seed, toggle):
    # two clique complexes compare their graphs, and any other pair its
    # maximal faces, a join's listed from its factors; either way == must
    # say what the maximal faces say
    g = nx.gnp_random_graph(n, p, seed=seed)
    g.add_edges_from((u, v) for u in range(min(universal, n)) for v in range(n) if u != v)
    edges = {(min(e), max(e)) for e in g.edges}
    pairs = list(combinations(range(n), 2))
    relabel = random.Random(seed).sample(range(n), n)  # the f-vector stays, faces move
    graphs = (
        edges,
        edges ^ set(pairs[toggle : toggle + 1]),
        {tuple(sorted((relabel[u], relabel[v]))) for u, v in edges},
    )

    def complexes(edges):  # the clique complex, then the same faces with no graph
        c = vr_complex(_graph_metric(n, edges), 1)
        return c, Complex(vertex_count=n, faces=vr_complex(_graph_metric(n, edges), 1).faces)

    for x in complexes(graphs[0]):
        for y in [z for other in graphs for z in complexes(other)]:
            assert (x == y) == (maximal_simplices(x) == maximal_simplices(y))
            if x.join_factors or y.join_factors:  # a join's own faces stay unbuilt
                assert all("faces" not in vars(z) for z in (x, y) if z.join_factors)
    wider = from_faces(maximal_simplices(complexes(graphs[0])[1]), n + 1)
    assert complexes(graphs[0])[1] != wider  # the same faces on more vertex ids


def _maximal_only(faces):
    """The maximal elements of a face list, each once."""
    sets = {frozenset(f) for f in faces}
    return sorted(tuple(sorted(f)) for f in sets if not any(f < g for g in sets))


def _complement_is_connected(faces):
    """Whether the complement of the 1-skeleton of the faces' closure is connected."""
    verts = {v for f in faces for v in f}
    g = nx.complete_graph(verts)
    g.remove_edges_from(e for f in faces for e in combinations(f, 2))
    return nx.is_connected(g)


@st.composite
def listed_joins(draw):
    """The maximal faces of a join of 2-3 listed complexes, vertex ids shuffled, and a flag
    telling whether the join must split: some factor's 1-skeleton has a connected complement."""
    factors = [
        _maximal_only(draw(face_lists(max_n=5, max_size=3)))
        for _ in range(draw(st.integers(min_value=2, max_value=3)))
    ]
    faces, shift = [()], 0
    for f in factors:  # each factor on the vertex ids after the last one's
        faces = [a + tuple(v + shift for v in b) for a in faces for b in f]
        shift += max(v for s in f for v in s) + 1
    relabel = random.Random(draw(st.integers(min_value=0, max_value=2**16))).sample(
        range(shift + 3), shift
    )
    faces = [tuple(relabel[v] for v in f) for f in faces]
    return [tuple(sorted(f)) for f in faces], any(map(_complement_is_connected, factors))


def _assert_listed_complex_matches_whole_closure(faces):
    c = from_faces(faces)
    closure = {sub for f in faces for k in range(len(f)) for sub in combinations(f, k + 1)}
    levels = [[] for _ in range(max(map(len, closure)))]
    for t in closure:
        levels[len(t) - 1].append(mask_of(t))
    whole = Complex(vertex_count=c.vertex_count, faces=levels)
    got = (c.f_vector(), c.face_total(), homology(c), maximal_simplices(c), serialize_complex(c))
    # a join answers all of these from its factors and listed faces, any
    # other listed complex from its numbered closure and maximal record
    assert "faces" not in vars(c)
    assert c == whole and whole == c
    if c.join_factors:  # a join compares its maximal faces
        assert "faces" not in vars(c)
    want = (
        whole.f_vector(), whole.face_total(), homology(whole), maximal_simplices(whole),
        serialize_complex(whole),
    )
    assert got == want
    assert c.faces == whole.faces  # a join's faces, closed on first read
    return c


@settings(max_examples=150, deadline=None, derandomize=True)
@given(face_lists(max_n=8, max_size=4), face_lists(max_n=8, max_size=4))
@example([(0, 1, 2), (2, 3), (3, 4)], [(0, 1, 2), (2, 3)])
def test_listed_complexes_compare_as_their_closures_without_building_faces(a, b):
    # two listed complexes compare their maximal records, not their faces in
    # file ids; the same faces listed in another order are the same complex
    for listed in (a[::-1], b):
        x, y = from_faces(a), from_faces(listed)
        equal = x == y
        assert "faces" not in vars(x) and "faces" not in vars(y)
        assert equal == (x.vertex_count == y.vertex_count and x.faces == y.faces)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(listed_joins())
def test_a_listed_join_matches_its_whole_closure(join):
    faces, must_split = join
    c = _assert_listed_complex_matches_whole_closure(faces)
    assert bool(c.join_factors) >= must_split
    # its faces, the whole closure's, are read by now; a join still
    # multiplies its factors' f-vectors
    assert c.f_vector() == tuple(map(len, c.faces))
    for keep, x in c.join_factors:  # each factor is the restriction to its vertices, renumbered
        assert not x.join_factors
        part = {tuple(keep.index(v) for v in f if v in keep) for f in faces}
        assert maximal_simplices(x) == sorted(part)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(face_lists(max_n=8, max_size=4))
def test_a_listed_non_join_matches_its_whole_closure(faces):
    # duplicates and non-maximal lines too; a split found here must hold as well
    faces += faces[:2] + [f[1:] for f in faces[:2] if f[1:]]
    _assert_listed_complex_matches_whole_closure(faces)


@pytest.mark.parametrize(
    "faces, parts",
    [
        # the projective plane's 1-skeleton is complete: every vertex block fails the count
        ([(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
          (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)], []),
        ([(0, 1, 2, 3), (2, 3, 4, 5)], [(0, 1, 4, 5), (2,), (3,)]),  # {2} * {3} * two edges
        ([(0, 1, 2, 3), (2, 3, 4, 5), (2, 3)], []),  # a listed face that is not maximal
        ([(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2), (1, 3)]),  # the square is S^0 * S^0
    ],
)
def test_listed_complexes_split_into_their_join_factors(faces, parts):
    c = from_faces(faces)
    assert [keep for keep, _x in c.join_factors] == parts
    _assert_listed_complex_matches_whole_closure(faces)
