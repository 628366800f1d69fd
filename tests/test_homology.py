"""Integer homology engine: boundary maps, normal forms, cycle coordinates."""

import importlib
import random
import time
from functools import partial
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from ripstone.errors import ParameterError, PreconditionError, SearchFailure, StructuralError
from ripstone.homology import (
    IntMatrix,
    _boundary_columns,
    _boundary_ranks,
    _face_columns,
    _Faces,
    _homology_from_counts,
    _join_groups,
    _reduce,
    _rows,
    boundary_chain,
    boundary_matrix,
    cycle_class,
    euler_characteristic,
    homology,
    make_chain,
    simplex_boundary,
    smith_normal_form,
)
from ripstone.morse import _morse_complex, critical_complex_homology, find_matching
from ripstone.patterns import diameter3_tetrahedra
from ripstone.polytopes import SOLIDS, DistanceMatrix, build_solid, combinatorial_metric, cube_graph
from ripstone.simplicial import (
    Complex,
    _complement_components,
    face_diameter,
    from_faces,
    full_simplex_complex,
    vr_complex,
)

RP2_FACES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
]


def torus_faces():
    # 3 x 3 periodic grid, both diagonals cut the same way
    def v(i, j):
        return 3 * (i % 3) + (j % 3)

    faces = []
    for i in range(3):
        for j in range(3):
            a, b = v(i, j), v(i, j + 1)
            c, d = v(i + 1, j), v(i + 1, j + 1)
            faces.append(tuple(sorted((a, b, d))))
            faces.append(tuple(sorted((a, d, c))))
    return faces


def octa_fundamental_cycle(scale=1):
    # one vertex from each antipodal pair (0,1), (2,3), (4,5), signed by the
    # number of second choices
    terms = {}
    for a in (0, 1):
        for b in (2, 3):
            for c in (4, 5):
                sign = (-1) ** ((a == 1) + (b == 3) + (c == 5))
                terms[(a, b, c)] = scale * sign
    return make_chain(2, terms)


def test_boundary_signs_alternate_from_minus():
    assert simplex_boundary((1, 2)) == [((2,), -1), ((1,), 1)]
    assert simplex_boundary((1, 2, 3, 4)) == [
        ((2, 3, 4), -1),
        ((1, 3, 4), 1),
        ((1, 2, 4), -1),
        ((1, 2, 3), 1),
    ]
    assert simplex_boundary((7,)) == []


def test_overstated_rank_is_caught_by_the_negative_betti_check():
    # A filled triangle: rank d_1 = 2, rank d_2 = 1.  Betti_k is
    # counts_k - rank_k - rank_{k+1}, so the ranks telescope out of the
    # alternating sum and only a negative Betti number can expose a bad rank.
    counts = [3, 3, 1]
    good = _homology_from_counts(counts, [(0, []), (2, []), (1, [])])
    assert good.betti == (1, 0, 0)
    with pytest.raises(StructuralError, match="negative Betti"):
        _homology_from_counts(counts, [(0, []), (3, []), (1, [])])


def test_boundary_of_boundary_vanishes():
    for s in [(0, 1, 2), (2, 5, 9, 11), (0, 1, 2, 3, 4)]:
        z = make_chain(len(s) - 2, dict(simplex_boundary(s)))
        assert boundary_chain(z).is_zero()


def test_snf_goldens():
    assert smith_normal_form(IntMatrix.from_dense([[2, 0], [0, 3]])).diagonal == [1, 6]
    a = IntMatrix.from_dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert smith_normal_form(a).diagonal == [1, 1, 2]


def test_snf_transforms_are_unimodular_and_diagonalize():
    rng = random.Random(20240917)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 7)
        dense = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(IntMatrix.from_dense(dense))
        u = Matrix(res.left_transform)
        v = Matrix(res.right_transform)
        a = Matrix(rows, cols, lambda i, j: dense[i][j])
        prod = u * a * v
        for i in range(rows):
            for j in range(cols):
                want = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
                assert prod[i, j] == want
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        # divisibility chain over the nonzero part
        nz = [d for d in res.diagonal if d]
        assert all(b % a_ == 0 for a_, b in zip(nz, nz[1:]))
        # agree with the reference implementation
        oracle = sympy_snf(a, domain=ZZ)
        odiag = [abs(oracle[i, i]) for i in range(min(rows, cols))]
        assert res.diagonal == odiag


def test_projective_plane_has_two_torsion():
    h = homology(from_faces(RP2_FACES))
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_torus_betti():
    faces = torus_faces()
    assert len(set(faces)) == 18
    h = homology(from_faces(faces))
    assert h.betti == (1, 2, 1)
    assert all(t == () for t in h.torsion)


def test_reduced_homology_drops_a_component():
    c = from_faces(RP2_FACES)
    plain = homology(c)
    red = homology(c, reduced=True)
    assert red.reduced and not plain.reduced
    assert red.betti == (0, 0, 0)
    assert red.torsion == plain.torsion
    point = full_simplex_complex(1)
    assert homology(point, reduced=True).betti == (0,)


def test_homology_betti_against_rank_oracle():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.randrange(4, 8)
        top = rng.randrange(2, min(3, n - 2) + 1)
        pool = list(combinations(range(n), top + 1))
        rng.shuffle(pool)
        faces = pool[: rng.randrange(1, min(8, len(pool)) + 1)]
        faces += [(v,) for v in range(n)]
        c = from_faces(faces, vertex_count=n)
        counts = list(c.f_vector())
        ranks = [0] * (c.dim + 2)
        for k in range(1, c.dim + 1):
            m = boundary_matrix(c, k)
            ranks[k] = Matrix(m.to_dense()).rank() if m.entries else 0
        expected = tuple(
            counts[k] - ranks[k] - ranks[k + 1] for k in range(c.dim + 1)
        )
        assert homology(c).betti == expected


def test_euler_characteristic_matches_f_vector():
    for name in ("octahedron", "icosahedron"):
        c = vr_complex(combinatorial_metric(build_solid(name)), 1)
        alt = sum((-1) ** k * f for k, f in enumerate(c.f_vector()))
        assert euler_characteristic(c) == alt == 2


def test_octa_fundamental_cycle_generates_h2():
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    assert homology(c).betti == (1, 0, 1)
    z = octa_fundamental_cycle()
    assert boundary_chain(z).is_zero()
    coord = cycle_class(c, z)
    assert coord in ((1,), (-1,))
    assert cycle_class(c, octa_fundamental_cycle(scale=2)) == (2 * coord[0],)


def test_cycle_class_edge_cases():
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    assert cycle_class(c, make_chain(2, {})) == (0,)
    with pytest.raises(PreconditionError):
        cycle_class(c, make_chain(2, {(0, 2, 4): 1}))  # not a cycle
    with pytest.raises(StructuralError):
        cycle_class(c, make_chain(2, {(0, 1, 2): 1}))  # (0,1) is antipodal
    # boundaries map to the zero coordinate vector
    w = boundary_chain(make_chain(2, {(0, 2, 4): 1}))
    assert cycle_class(c, w) == (0, 0, 0, 0, 0, 0)[: len(cycle_class(c, w))]


def test_boundary_matrix_guards():
    c = full_simplex_complex(3)
    with pytest.raises(ParameterError):
        boundary_matrix(c, 0)
    with pytest.raises(ParameterError):
        boundary_matrix(c, 3)


def test_make_chain_drops_zero_terms():
    z = make_chain(1, {(0, 1): 0, (1, 2): 2})
    assert z.support() == [(1, 2)]
    assert not z.is_zero()
    assert make_chain(1, {}).is_zero()


def _flag_faces(g, offset=0):
    return [tuple(sorted(v + offset for v in q)) for q in nx.find_cliques(g)]


def _clearing_fallbacks(counts, columns):
    """Check the clearing ranks against Smith reduction in every dimension.

    columns(k, skip) yields the differential d_k as _boundary_ranks reads it.
    Returns the dimensions that fell back, and the Smith ranks.
    """
    snf = [(0, [])]
    for k in range(1, len(counts)):
        red = _reduce(counts[k - 1], counts[k], _rows(columns(k, ())))
        snf.append((red.rank, [d for d in red.factors if d > 1]))
    clearing, fallbacks = _boundary_ranks(counts, columns)
    assert clearing == snf
    return fallbacks, snf


def _complex_fallbacks(c):
    counts = list(c.f_vector())
    fallbacks, snf = _clearing_fallbacks(counts, partial(_boundary_columns, c))
    assert homology(c) == _homology_from_counts(counts, snf)
    return fallbacks


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return nx.gnp_random_graph(n, p, seed=draw(st.integers(min_value=0, max_value=2**16)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_graphs(max_n=11))
def test_clearing_matches_snf_on_flag_complexes(g):
    _complex_fallbacks(from_faces(_flag_faces(g)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_graphs(max_n=5))
def test_clearing_matches_snf_on_projective_plane_joins(g):
    # the join of RP^2 with a flag complex on vertices 6, 7, ...
    faces = [f + q for f in RP2_FACES for q in _flag_faces(g, offset=6)]
    _complex_fallbacks(from_faces(faces))


def test_clearing_falls_back_on_torsion_only_where_needed():
    # H_1(RP^2) = Z/2 cannot come from unit pivots, so d_2 falls back
    assert 2 in _complex_fallbacks(from_faces(RP2_FACES))
    # d_5 and d_4 have unit pivots, d_3 leaves a residual carrying the Z/2:
    # d_3's unit pivots still clear d_2, which needs no Smith reduction
    join = [f + q for f in RP2_FACES for q in ((6,), (7, 8, 9), (10,))]
    assert _complex_fallbacks(from_faces(join)) == [3]
    c = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 4)
    assert _boundary_ranks(c.f_vector(), partial(_boundary_columns, c))[1] == []


def _assert_lazy_columns_agree(c):
    # the lazy _Faces of every dimension reduce to exactly what the eager
    # columns do: ranks, torsion and the dimensions that fall back
    counts = list(c.f_vector())
    assert all(isinstance(_face_columns(c, k), _Faces) for k in range(1, len(counts)))
    lazy = _boundary_ranks(counts, partial(_face_columns, c))
    assert lazy == _boundary_ranks(counts, partial(_boundary_columns, c))
    return lazy


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_graphs(max_n=11))
def test_lazy_columns_agree_with_eager_on_flag_complexes(g):
    _assert_lazy_columns_agree(from_faces(_flag_faces(g)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_graphs(max_n=5))
def test_lazy_columns_agree_with_eager_on_projective_plane_joins(g):
    faces = [f + q for f in RP2_FACES for q in _flag_faces(g, offset=6)]
    _assert_lazy_columns_agree(from_faces(faces))


def test_lazy_columns_fall_back_where_the_eager_ones_do():
    join = [f + q for f in RP2_FACES for q in ((6,), (7, 8, 9), (10,))]
    assert _assert_lazy_columns_agree(from_faces(join))[1] == [3]
    assert _assert_lazy_columns_agree(from_faces(RP2_FACES))[1] == [2]


def _shuffled(c, seed):
    """A plain Complex with c's faces, each level in a seeded random order."""
    rng = random.Random(seed)
    faces = [rng.sample(level, len(level)) for level in c.faces]
    return Complex(vertex_count=c.vertex_count, faces=faces)


def test_homology_checks_the_lex_order_of_each_level():
    # read off a level out of lex order, a face's last facet is not its
    # largest row: without the order check, lazy pivots give these seeds'
    # shuffles wrong Betti numbers (and some other seeds' a reduction that
    # never ends, so they are not used here)
    join = from_faces([f + q for f in RP2_FACES for q in ((6,), (7, 8, 9), (10,))])
    dodeca = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    for c, seeds in ((join, range(1, 6)), (dodeca, (1,))):
        want = homology(c)
        for seed in seeds:
            shuffled = _shuffled(c, seed)
            assert shuffled.graph is None
            assert homology(shuffled) == want, seed
    assert homology(join).torsion[2] == (2, 2)
    assert homology(dodeca).betti == (1, 0, 0, 9, 0, 0, 0)


def test_homology_builds_only_the_columns_whose_pivot_collides(monkeypatch):
    hom = importlib.import_module("ripstone.homology")
    built = []
    facets = hom.signed_facets
    monkeypatch.setattr(hom, "signed_facets", lambda mask: built.append(mask) or facets(mask))
    c = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    assert c.face_total() == 3272 and not c.join_factors
    assert homology(c).betti == (1, 0, 0, 9, 0, 0, 0)
    assert len(built) <= c.face_total() // 10
    # out of lex order, the columns are built eagerly, and counted the same way
    built.clear()
    assert homology(_shuffled(c, 1)).betti == (1, 0, 0, 9, 0, 0, 0)
    assert len(built) > c.face_total() // 10


def test_a_complex_not_closed_downward_names_its_missing_facet():
    # the edge (0, 2) without the vertex (2,)
    c = Complex(vertex_count=3, faces=[[0b001, 0b010], [0b101]])
    with pytest.raises(StructuralError, match=r"\(0, 2\) has no facet \(2,\)"):
        homology(c)
    with pytest.raises(StructuralError, match=r"\(0, 2\) has no facet \(2,\)"):
        cycle_class(c, make_chain(0, {(0,): 1}))
    with pytest.raises(StructuralError, match=r"has no facet \(2,\)"):
        boundary_matrix(c, 1)


def _one_differential(nrows, columns):
    """counts and columns(k, skip) of a chain complex whose only map is d_1."""
    def cols(k, skip):
        return ((j, list(col.items())) for j, col in enumerate(columns) if j not in skip)

    return [nrows, len(columns)], cols


def test_unit_pivot_that_cancels_a_non_unit_pivot_leaves_no_residual():
    # column 0's pivot is 2 in row 2; column 1's unit pivot in row 2 then
    # eliminates it to zero, so the unit pivots alone give the rank
    counts, cols = _one_differential(3, [{1: 2, 2: 2}, {1: 1, 2: 1}, {0: 1}])
    fallbacks, snf = _clearing_fallbacks(counts, cols)
    assert fallbacks == [] and snf[1] == (2, [])


def test_residual_carrying_torsion_falls_back():
    # column 0's pivot is 2 in row 1; eliminating column 1's unit pivot in
    # row 0 leaves 2 in row 1: the image is Z + 2Z, cokernel Z/2
    counts, cols = _one_differential(2, [{0: 3, 1: 2}, {0: 1}])
    fallbacks, snf = _clearing_fallbacks(counts, cols)
    assert fallbacks == [1] and snf[1] == (2, [2])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=-3, max_value=3).filter(bool),
                ),
                max_size=7,
            ),
        )
    )
)
def test_unit_pivots_and_residual_match_snf_on_any_matrix(matrix):
    # one differential needs no chain condition: any integer matrix will do
    nrows, columns = matrix
    _clearing_fallbacks(*_one_differential(nrows, columns))


def _morse_fallbacks(c, m):
    """_clearing_fallbacks on the Morse complex of m; its homology must be c's."""
    counts, columns = _morse_complex(c, m)
    fallbacks, snf = _clearing_fallbacks(counts, columns)
    hm, h = critical_complex_homology(c, m), homology(c)
    assert hm == _homology_from_counts(counts, snf)
    pad = len(h.betti) - len(hm.betti)  # no critical cell above dimension dim - pad
    assert hm.betti + (0,) * pad == h.betti and hm.torsion + ((),) * pad == h.torsion
    return fallbacks


def _found_matching(c, seed, inside=None):
    # search a matching on the cells spanned by the vertices in inside (all
    # by default); the largest cell a stalled search leaves over is forced
    # critical for the next one, until one succeeds
    cells = [
        s
        for k in range(c.dim + 1)
        for s in c.simplices(k)
        if inside is None or set(s) <= inside
    ]
    forced = []
    while True:
        try:
            return find_matching(c, cells, forced_critical=forced, seed=seed, max_attempts=1)
        except SearchFailure as e:
            forced.append(max(e.surplus, key=len))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    small_graphs(max_n=11),
    st.sets(st.integers(min_value=0, max_value=10)),
    st.integers(min_value=0, max_value=2**16),
)
def test_clearing_matches_snf_on_morse_complexes(g, inside, seed):
    # cells with a vertex outside inside stay critical, so their flowed
    # boundaries cross the matched part
    c = from_faces(_flag_faces(g))
    _morse_fallbacks(c, _found_matching(c, seed, inside))


def test_morse_complex_of_projective_plane_falls_back_on_torsion():
    c = from_faces(RP2_FACES)
    assert _morse_fallbacks(c, _found_matching(c, seed=0)) == [2]


@pytest.mark.parametrize(
    "seed, fallbacks", [(1, []), (2, []), (3, [])], ids=["seed1", "seed2", "seed3"]
)
def test_clearing_matches_snf_on_trace_morse_complexes(seed, fallbacks):
    # the scale-3 matchings of `dodeca trace`; seed 3's Morse complex meets
    # a non-unit pivot in d_3, but later unit pivots eliminate that column
    # to zero, so no dimension leaves a residual for Smith reduction
    metric = combinatorial_metric(build_solid("dodecahedron"))
    c3 = vr_complex(metric, 3)
    candidate = [
        s
        for k in range(c3.dim + 1)
        for s in c3.simplices(k)
        if face_diameter(metric, s) == 3
    ]
    m = find_matching(c3, candidate, forced_critical=diameter3_tetrahedra(metric), seed=seed)
    assert _morse_fallbacks(c3, m) == fallbacks


# ---------------------------------------------------------------------------
# joins: a clique complex whose graph's complement is disconnected


def _graphless(c):
    """The same faces as c, given by listing them: homology reduces every one."""
    copy = from_faces((s for k in range(c.dim + 1) for s in c.simplices(k)), c.vertex_count)
    assert copy.graph is None
    return copy


def _clique_complex(g):
    """The clique complex of a networkx graph on 0..n-1, as a scale-1 Rips complex."""
    n = len(g)
    dist = tuple(
        tuple(0 if i == j else 1 if g.has_edge(i, j) else 2 for j in range(n)) for i in range(n)
    )
    return vr_complex(DistanceMatrix(size=n, dist=dist), 1)


def _join_graph(graphs):
    """Disjoint copies of the graphs, with every edge between two copies: the join's graph."""
    return nx.complement(nx.disjoint_union_all([nx.complement(g) for g in graphs]))


def _barycentric_rp2_graph():
    """Comparability graph of the faces of the 6-vertex RP^2: the subdivision's graph."""
    cells = sorted({q for f in RP2_FACES for k in (1, 2, 3) for q in combinations(f, k)})
    g = nx.Graph()
    g.add_nodes_from(range(len(cells)))
    g.add_edges_from(
        (i, j) for i, a in enumerate(cells) for j, b in enumerate(cells) if set(a) < set(b)
    )
    assert len(g) == 31
    return g


S0 = nx.empty_graph(2)


def test_join_homology_matches_reduction_on_solids():
    for name in SOLIDS:
        metric = combinatorial_metric(build_solid(name))
        for r in range(metric.diameter() + 1):
            c = vr_complex(metric, r)
            if c.face_total() > 2**16:  # dodecahedron r=5, a cone of 2^20 - 1 faces
                assert c.cone_vertex is not None
                continue
            assert homology(c) == homology(_graphless(c)), (name, r)


def test_cross_polytope_rows_are_joins_of_zero_spheres():
    for name, r in (("octahedron", 1), ("cube", 2), ("icosahedron", 2), ("dodecahedron", 4)):
        metric = combinatorial_metric(build_solid(name))
        parts = _complement_components(vr_complex(metric, r).graph)
        assert [p.bit_count() for p in parts] == [2] * (metric.size // 2), name


@st.composite
def join_factors(draw):
    # a one-vertex factor makes the join a cone; in a larger factor, a vertex
    # adjacent to every other one would split it into a cone, so each such
    # vertex loses the edge to its successor
    graphs = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=7))
        p = draw(st.floats(min_value=0.0, max_value=1.0))
        g = nx.gnp_random_graph(n, p, seed=draw(st.integers(min_value=0, max_value=2**16)))
        g.remove_edges_from([(v, (v + 1) % n) for v in g if g.degree(v) == n - 1])
        graphs.append(g)
    return graphs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(join_factors())
def test_join_homology_matches_reduction_on_random_joins(graphs):
    c = _clique_complex(_join_graph(graphs))
    assume(c.face_total() <= 6000)  # the reduction below builds every face
    assert len(_complement_components(c.graph)) >= 2
    assert homology(c) == homology(_graphless(c))


def test_join_with_a_flag_projective_plane_carries_its_torsion():
    rp2 = _barycentric_rp2_graph()
    assert homology(_clique_complex(rp2)).torsion == ((), (2,), ())
    suspension = _clique_complex(_join_graph([rp2, S0]))
    h = homology(suspension)
    assert h.betti == (1, 0, 0, 0) and h.torsion == ((), (), (2,), ())
    assert homology(_graphless(suspension)) == h
    # a point factor kills the Z/2: the cone over RP^2 is contractible
    cone = _clique_complex(_join_graph([rp2, nx.empty_graph(1)]))
    h = homology(cone)
    assert h.betti == (1, 0, 0, 0) and not any(h.torsion)
    assert homology(_graphless(cone)) == h


def test_identical_join_factors_are_reduced_once(monkeypatch):
    hom = importlib.import_module("ripstone.homology")
    reduced = []
    by_reduction = hom._homology_by_reduction
    monkeypatch.setattr(hom, "_homology_by_reduction", lambda c: reduced.append(c) or by_reduction(c))
    # K_20 is a cone of 20 one-vertex factors; octahedron r=1 joins three S^0
    assert homology(full_simplex_complex(20)).betti == (1,) + (0,) * 19
    octahedron = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    assert homology(octahedron).betti == (1, 0, 1)
    assert [x.graph for x in reduced] == [(0,), (0, 0)]


def test_join_of_two_projective_planes_has_tor():
    # Z/2 (x) Z/2 lands in H_3, Tor(Z/2, Z/2) in H_4
    c = _clique_complex(_join_graph([_barycentric_rp2_graph()] * 2))
    assert len(_complement_components(c.graph)) == 2
    h = homology(c)
    assert h.betti == (1,) + (0,) * 5
    assert h.torsion == ((), (), (), (2,), (2,), ())
    assert homology(_graphless(c)) == h


def test_joined_torsion_is_in_invariant_factor_form():
    # (Z + Z/2 in degree 1) * (Z + Z/3 in degree 1): Z + Z/2 + Z/3 in
    # degree 3, which is Z + Z/6; Tor(Z/2, Z/3) = 0
    x = [(0, []), (1, [2]), (0, [])]
    y = [(0, []), (1, [3]), (0, [])]
    assert _join_groups(x, y) == [(0, [])] * 3 + [(1, [6])] + [(0, [])] * 2
    z = [(0, []), (0, [2, 4]), (0, [])]
    assert _join_groups(z, z)[3:5] == [(0, [2, 2, 2, 4]), (0, [2, 2, 2, 4])]


def test_join_branch_checks_the_euler_characteristic_of_its_factors(monkeypatch):
    homology_module = importlib.import_module("ripstone.homology")
    join_groups = homology_module._join_groups

    def shifted(x, y):  # every degree one too high
        return [(0, [])] + join_groups(x, y)[:-1]

    monkeypatch.setattr(homology_module, "_join_groups", shifted)
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    with pytest.raises(StructuralError, match="Euler"):
        homology(c)


def test_a_join_beyond_the_face_budget_needs_no_face():
    # cube 6 at scale 5 joins 32 zero-spheres: S^31, 3^32 - 1 faces
    start = time.perf_counter()
    h = homology(vr_complex(combinatorial_metric(cube_graph(6)), 5))
    assert time.perf_counter() - start < 1.0
    assert h.betti == (1,) + (0,) * 30 + (1,)
    assert not any(h.torsion)
