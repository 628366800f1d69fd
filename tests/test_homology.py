"""Integer homology engine: boundary maps, normal forms, cycle coordinates."""

import importlib
import random
import time
from functools import partial
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import ZZ, Matrix, ilcm
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from ripstone.errors import ParameterError, PreconditionError, SearchFailure, StructuralError
from ripstone.formats import parse_complex
from ripstone.homology import (
    _boundary_ranks,
    _homology_from_counts,
    _invariant_factors,
    _join_groups,
    _join_homology,
    _reduce,
    _rows,
    boundary_chain,
    cycle_class,
    euler_characteristic,
    homology,
    make_chain,
    simplex_boundary,
    smith_normal_form,
)
from ripstone.morse import (
    _class_cells,
    _element_matching,
    _matching,
    _morse_complex,
    _stable_flow,
    check_matching,
    critical_complex_homology,
    find_matching,
    matching_from_pairs,
)
from ripstone.patterns import diameter3_tetrahedra
from ripstone.polytopes import SOLIDS, DistanceMatrix, build_solid, combinatorial_metric, cube_graph
from ripstone.simplicial import (
    Complex,
    _complement_components,
    from_faces,
    full_simplex_complex,
    maximal_simplices,
    signed_facets,
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
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[1, 1, 0], [1, 0, 1], [0, 1, 1]]).diagonal == [1, 1, 2]
    with pytest.raises(ParameterError, match="ragged matrix"):
        smith_normal_form([[1, 2], [3]])


def test_snf_transforms_are_unimodular_and_diagonalize():
    rng = random.Random(20240917)
    cases = []
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 7)
        cases.append([[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
    # sparse, up to 11 x 13, with entries that make torsion
    rng = random.Random(20261019)
    values = [1, -1, 2, -2, 3, 4, -6, 9]
    for _ in range(120):
        rows = rng.randrange(1, 12)
        cols = rng.randrange(1, 14)
        density = rng.choice([0.15, 0.3, 0.5])
        flat = [rng.choice(values) if rng.random() < density else 0 for _ in range(rows * cols)]
        cases.append([flat[i * cols : (i + 1) * cols] for i in range(rows)])
    for dense in cases:
        rows, cols = len(dense), len(dense[0])
        res = smith_normal_form(dense)
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


def test_homology_betti_against_rank_oracle():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.randrange(4, 8)
        top = rng.randrange(2, min(3, n - 2) + 1)
        pool = list(combinations(range(n), top + 1))
        rng.shuffle(pool)
        faces = pool[: rng.randrange(1, min(8, len(pool)) + 1)]
        faces += [(v,) for v in range(n)]
        c = from_faces(faces)
        counts = list(c.f_vector())
        ranks = [0] * (c.dim + 2)
        for k in range(1, c.dim + 1):
            below = {mask: i for i, mask in enumerate(c.faces[k - 1])}
            d = Matrix.zeros(counts[k - 1], counts[k])
            for j, mask in enumerate(c.faces[k]):
                for facet, sign in signed_facets(mask):
                    d[below[facet], j] = sign
            ranks[k] = d.rank()
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
    with pytest.raises(ParameterError):
        cycle_class(c, make_chain(2, {(0, 1, 2): 1}))  # (0,1) is antipodal
    with pytest.raises(ParameterError, match=r"chain dimension 3 outside 0\.\.2"):
        cycle_class(c, make_chain(3, {}))
    # boundaries map to the zero coordinate vector
    w = boundary_chain(make_chain(2, {(0, 2, 4): 1}))
    assert cycle_class(c, w) == (0, 0, 0, 0, 0, 0)[: len(cycle_class(c, w))]


def _cycle_basis(c, k):
    """Integer chains spanning the k-cycles of c over Q, from sympy's nullspace of d_k."""
    cells = c.simplices(k)
    if k == 0:
        return [make_chain(0, {s: 1}) for s in cells]
    rows = {mask: i for i, mask in enumerate(c.faces[k - 1])}
    d = Matrix.zeros(len(rows), len(cells))
    for j, mask in enumerate(c.faces[k]):
        for facet, sign in signed_facets(mask):
            d[rows[facet], j] = sign
    basis = []
    for v in d.nullspace():
        scale = ilcm(*(x.q for x in v))
        basis.append(make_chain(k, {s: int(x * scale) for s, x in zip(cells, v)}))
    return basis


def _added(*chains):
    terms = {}
    for z in chains:
        for s, co in z.terms.items():
            terms[s] = terms.get(s, 0) + co
    return make_chain(chains[0].dimension, terms)


def _times(n, z):
    return make_chain(z.dimension, {s: n * co for s, co in z.terms.items()})


@pytest.mark.parametrize(
    "name, r, critical",
    [
        ("octahedron", 1, ((0,), (1, 3, 5))),
        ("dodecahedron", 2, ((0,), (6, 7, 12))),
    ],
)
def test_element_matching_critical_cells(name, r, critical):
    c = vr_complex(combinatorial_metric(build_solid(name)), r)
    m = _element_matching(c)
    report = check_matching(c, m)
    assert report.ok() and report.critical == critical
    assert m == _matching(m.pairs)  # its pairs come in the canonical order
    assert _element_matching(c) is m  # cached on the complex


def test_cycle_class_refuses_a_matching_that_is_not_perfect():
    # the identity order on icosahedron r=1 leaves critical counts (1, 1, 2),
    # so H_1 = 0 and H_2 = Z cannot be read off its critical cells
    c = vr_complex(combinatorial_metric(build_solid("icosahedron")), 1)
    assert [len(level) for level in check_matching(c, _element_matching(c)).levels] == [1, 1, 2]
    assert homology(c).betti == (1, 0, 1)
    assert cycle_class(c, make_chain(0, {(3,): 1})) == (1,)
    cached = set(c._cache)
    for k in (1, 2):
        for z in _cycle_basis(c, k) + [make_chain(k, {})]:
            with pytest.raises(ParameterError, match=r"Morse d_2 is not zero"):
                cycle_class(c, z)
    assert set(c._cache) == cached  # a refusal is not cached


@pytest.mark.parametrize("broken", ["invalid", "cyclic"])
def test_cycle_class_certifies_the_element_matching_it_pairs(monkeypatch, broken):
    # the pairing step hands cycle_class a matching with a cell in two
    # pairs, or a valid one with a directed cycle through the edges of the
    # triangle (0, 2, 4): refused in cycle_class's name, and not cached,
    # before the Morse complex could refuse it in its own
    morse = importlib.import_module("ripstone.morse")
    real = morse.Matching
    cyclic = matching_from_pairs([((0,), (0, 2)), ((2,), (2, 4)), ((4,), (0, 4))])

    def pairing(pairs):
        return real(pairs + ((pairs[0][0], pairs[1][1]),)) if broken == "invalid" else cyclic

    monkeypatch.setattr(morse, "Matching", pairing)
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    with pytest.raises(PreconditionError, match=r"^cycle_class requires a valid acyclic matching$"):
        cycle_class(c, octa_fundamental_cycle())
    assert "element matching" not in c._cache


def _assert_cycle_classes_are_coordinates(c, k, rng):
    """cycle_class in dimension k is linear, kills boundaries and has rank betti_k."""
    betti = homology(c).betti[k]
    basis = _cycle_basis(c, k)
    classes = [cycle_class(c, z) for z in basis]
    assert all(len(x) == betti for x in classes)
    assert (Matrix(classes).rank() if classes else 0) == betti
    zero = (0,) * betti
    for _ in range(5):
        above = c.simplices(k + 1)
        w = make_chain(k + 1, {rng.choice(above): rng.randint(-2, 2)} if above else {})
        assert cycle_class(c, boundary_chain(w)) == zero
        if not basis:
            continue
        a, b = rng.choice(basis), rng.choice(basis)
        n = rng.randint(-3, 3)
        expected = tuple(x + n * y for x, y in zip(cycle_class(c, a), cycle_class(c, b)))
        assert cycle_class(c, _added(a, _times(n, b), boundary_chain(w))) == expected


@pytest.mark.parametrize(
    "name, r", [("cube", 1), ("dodecahedron", 1), ("octahedron", 1), ("cube", 2)]
)
def test_cycle_classes_on_solids_with_a_perfect_order(name, r):
    c = vr_complex(combinatorial_metric(build_solid(name)), r)
    rng = random.Random(1)
    for k in range(c.dim + 1):
        _assert_cycle_classes_are_coordinates(c, k, rng)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=4, max_value=8), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 999))
def test_cycle_classes_on_random_flag_complexes(n, p, seed):
    # every dimension where the identity order's Morse differentials vanish
    c = from_faces(_flag_faces(nx.gnp_random_graph(n, p, seed=seed)))
    rng = random.Random(seed)
    for k in range(c.dim + 1):
        try:
            _class_cells(c, k)
        except ParameterError:
            continue
        _assert_cycle_classes_are_coordinates(c, k, rng)


def test_make_chain_drops_zero_terms():
    z = make_chain(1, {(0, 1): 0, (1, 2): 2})
    assert z.support() == [(1, 2)]
    assert not z.is_zero()
    assert make_chain(1, {}).is_zero()


def test_make_chain_refuses_bad_terms():
    with pytest.raises(ParameterError, match=r"chain dimension must be >= 0, got -1"):
        make_chain(-1, {})
    with pytest.raises(ParameterError, match=r"simplex \(0, 1, 2\) does not have dimension 1"):
        make_chain(1, {(0, 1, 2): 1})
    with pytest.raises(ParameterError, match=r"coefficient of \(0, 1\) must be an integer"):
        make_chain(1, {(0, 1): 1.0})


def _flag_faces(g, offset=0):
    return [tuple(sorted(v + offset for v in q)) for q in nx.find_cliques(g)]


def _clearing_fallbacks(counts, columns):
    """Check the clearing ranks against Smith reduction in every dimension.

    columns(k, skip) yields the differential d_k as _boundary_ranks reads it.
    Returns the dimensions that fell back, and the Smith ranks.
    """
    snf = [(0, [])]
    for k in range(1, len(counts)):
        factors, _u, _v = _reduce(counts[k - 1], counts[k], _rows(enumerate(columns(k, ()))))
        snf.append((len(factors), [d for d in factors if d > 1]))
    clearing, fallbacks = _boundary_ranks(counts, columns)
    assert clearing == snf
    return fallbacks, snf


def _eager_columns(c, k, skip):
    """d_k of c built column by column from signed_facets, each row keyed by its mask."""
    return [signed_facets(mask) for mask in c.faces[k] if mask not in skip]


def _lazy_columns(c, k, skip):
    """d_k of c as homology() hands it over: the masks of the k-faces not cleared."""
    return [mask for mask in c.faces[k] if mask not in skip]


def _complex_fallbacks(c):
    counts = list(c.f_vector())
    fallbacks, snf = _clearing_fallbacks(counts, partial(_eager_columns, c))
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


RP2_JOIN = [f + q for f in RP2_FACES for q in ((6,), (7, 8, 9), (10,))]
# reduced whole, in colex order, d_5 and d_4 leave residuals with no
# torsion, and d_3 one carrying the Z/2
RP2_JOIN_FALLBACKS = [5, 4, 3]


def _whole(faces):
    """The closure of the listed faces as a plain Complex: homology reduces it whole."""
    c = from_faces(faces)
    whole = Complex(c.faces)  # closed and in order
    assert not whole.join_factors
    return whole


def test_clearing_falls_back_on_torsion_only_where_needed():
    # H_1(RP^2) = Z/2 cannot come from unit pivots, so d_2 falls back
    assert 2 in _complex_fallbacks(from_faces(RP2_FACES))
    # d_3's unit pivots still clear d_2, which needs no Smith reduction
    fallbacks = _complex_fallbacks(_whole(RP2_JOIN))
    assert fallbacks == RP2_JOIN_FALLBACKS and 2 not in fallbacks
    c = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 4)
    assert _boundary_ranks(c.f_vector(), partial(_eager_columns, c))[1] == []


def _assert_lazy_columns_agree(c):
    # face masks, with their apparent and emergent pairs, reduce to exactly
    # what the eager columns do: ranks, torsion and the dimensions that fall back
    counts = list(c.f_vector())
    lazy = _boundary_ranks(counts, partial(_lazy_columns, c))
    assert lazy == _boundary_ranks(counts, partial(_eager_columns, c))
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
    assert _assert_lazy_columns_agree(_whole(RP2_JOIN))[1] == RP2_JOIN_FALLBACKS
    assert _assert_lazy_columns_agree(from_faces(RP2_FACES))[1] == [2]


def _shuffled_levels(c, seed):
    """c's levels, each in a seeded random order."""
    rng = random.Random(seed)
    return tuple(tuple(rng.sample(level, len(level))) for level in c.faces)


def _shuffled(closed_complex, c, seed):
    """A plain Complex of c's faces, each level shuffled by seed, then sorted by the oracle."""
    return closed_complex(_shuffled_levels(c, seed))


def test_homology_checks_the_lex_order_of_each_level(closed_complex):
    # levels shuffled and sorted again are the levels the Morse search and
    # the outputs read; homology gets the same result from a plain Complex
    # of them as from the complex they came from
    join = from_faces(RP2_JOIN)
    dodeca = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    for c in (join, dodeca):
        want = homology(c)
        for seed in range(1, 6):
            shuffled = _shuffled(closed_complex, c, seed)
            assert not hasattr(shuffled, "graph") and shuffled.faces == c.faces
            assert homology(shuffled) == want, seed
    assert homology(join).torsion[2] == (2, 2)
    assert homology(dodeca).betti == (1, 0, 0, 9, 0, 0, 0)


def test_homology_does_not_read_the_storage_order_of_a_level():
    # rows are ordered by mask, not by place in a level, so a complex whose
    # levels are kept out of lex order still gets exact homology; reading a
    # face's last facet in its level as its pivot, as homology once did,
    # gave some of these wrong Betti numbers and others a reduction that
    # never ended
    join = from_faces(RP2_JOIN)
    dodeca = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    for c in (join, dodeca):
        want = homology(c)
        for seed in range(1, 6):
            unsorted = Complex(_shuffled_levels(c, seed))
            assert unsorted.faces != c.faces
            assert homology(unsorted) == want, seed


def test_homology_builds_no_face_set():
    # homology asks no membership question: it builds no set of the faces
    for c in (
        _whole(RP2_JOIN),
        vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3),
    ):
        assert not c.join_factors
        homology(c)
        assert "face_set" not in c.__dict__


def test_shuffled_levels_give_the_same_cycle_classes(closed_complex):
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    for seed in (1, 2):
        shuffled = _shuffled(closed_complex, c, seed)
        assert shuffled.faces == c.faces and not hasattr(shuffled, "graph")
        assert homology(shuffled) == homology(c)
        for scale in (1, -3):
            z = octa_fundamental_cycle(scale=scale)
            assert cycle_class(shuffled, z) == cycle_class(c, z) != (0,)


def test_homology_builds_only_the_columns_whose_pivot_collides(monkeypatch, closed_complex):
    hom = importlib.import_module("ripstone.homology")
    built = []
    facets = hom.signed_facets
    monkeypatch.setattr(hom, "signed_facets", lambda mask: built.append(mask) or facets(mask))
    c = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    assert c.face_total() == 3272 and not c.join_factors
    assert homology(c).betti == (1, 0, 0, 9, 0, 0, 0)
    assert len(built) <= c.face_total() // 10
    # a plain Complex of the same levels, shuffled and sorted again, has
    # columns as lazy; the oracle's facet checks are not counted here
    shuffled = _shuffled(closed_complex, c, 1)
    built.clear()
    assert homology(shuffled).betti == (1, 0, 0, 9, 0, 0, 0)
    assert len(built) <= c.face_total() // 10


def _shuffled_flag_file(seed):
    """The maximal cliques of a seeded G(40, 0.55), vertex ids shuffled, and their file text."""
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(range(40))
    g.add_edges_from((i, j) for i, j in combinations(range(40), 2) if rng.random() < 0.55)
    ids = rng.sample(range(40), 40)
    faces = [tuple(sorted(ids[v] for v in q)) for q in nx.find_cliques(g)]
    return faces, "".join(" ".join(map(str, f)) + "\n" for f in faces)


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_parsed_flag_complex_builds_fewer_columns_than_its_file_ids(monkeypatch, seed):
    # a parsed complex is reduced in its most-listed-first numbering, where
    # fewer apparent pairs collide than in the file's shuffled ids (30-60%
    # fewer columns on these five); the numbering never changes the result
    hom = importlib.import_module("ripstone.homology")
    built = []
    facets = hom.signed_facets
    monkeypatch.setattr(hom, "signed_facets", lambda mask: built.append(mask) or facets(mask))
    faces, text = _shuffled_flag_file(seed)
    want = homology(_whole(faces))
    in_file_ids = len(built)
    built.clear()
    assert homology(parse_complex(text)) == want
    assert len(built) < in_file_ids


def _one_differential(nrows, columns):
    """counts and columns(k, skip) of a chain complex whose only map is d_1."""
    def cols(k, skip):  # only d_1, so nothing is ever cleared
        return [list(col.items()) for col in columns]

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
    """_clearing_fallbacks on the Morse complex of m; its homology must be c's.

    A column the Morse complex hands over as a cell's mask stands for that
    cell's boundary, as the reduction reads it.  The Smith reference reads
    it so, and so does the clearing it is checked against; the clearing on
    the columns as handed over must agree.  Each column must equal the
    flow of its cell's boundary on the critical cells, flowed here whatever
    the cell.
    """
    counts, columns = _morse_complex(c, m)
    matched, limit = m._matched, c.face_total()

    def read(k, skip):  # a mask item as its cell's boundary
        return [signed_facets(item) if type(item) is int else item for item in columns(k, skip)]

    for k in range(1, len(counts)):
        flowed = [
            {f: co for f, co in _stable_flow(m, dict(signed_facets(cell)), limit)[0].items()
             if f not in matched}
            for cell in check_matching(c, m).levels[k]
        ]
        assert [dict(col) for col in read(k, ())] == flowed
    fallbacks, snf = _clearing_fallbacks(counts, read)
    assert _boundary_ranks(counts, columns) == (snf, fallbacks)
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
def test_clearing_matches_snf_on_trace_morse_complexes(face_diameter, seed, fallbacks):
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
    copy = from_faces((s for k in range(c.dim + 1) for s in c.simplices(k)))
    assert not hasattr(copy, "graph") and not copy.join_factors  # every face listed: no split
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
    # the listed octahedron boundary joins three S^0 too, and its split
    # hands them one factor object
    reduced.clear()
    listed = from_faces([(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])
    x, y, z = (x for _keep, x in listed.join_factors)
    assert x is y is z
    assert homology(listed).betti == (1, 0, 1)
    assert [maximal_simplices(x) for x in reduced] == [[(0,), (1,)]]


def test_clique_join_factors_are_not_split_again(monkeypatch):
    # a factor's complement is connected, so the f-vector that the join
    # check's Euler characteristic reads makes no complement pass on it
    simp = importlib.import_module("ripstone.simplicial")
    join = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 4)
    factors = [x for _keep, x in join.join_factors]
    assert len(factors) == 10
    passes = []
    split = simp._complement_components
    monkeypatch.setattr(simp, "_complement_components", lambda *a: passes.append(a) or split(*a))
    assert [euler_characteristic(x) for x in factors] == [2] * 10  # each factor is S^0
    assert passes == []

def test_listed_join_factors_are_told_apart_by_their_faces():
    # two listed factors have no graph; keyed by it, they once shared one
    # memo entry, and the Euler check read the same entry, so the join of
    # RP^2 and two points came out with Z/2 in degrees 3 and 4, and the
    # other order with Betti numbers (1, 1)
    rp2 = from_faces(RP2_FACES)
    s0 = from_faces([(0,), (1,)])
    suspension = homology(_whole([f + q for f in RP2_FACES for q in ((6,), (7,))]))
    assert suspension.betti == (1, 0, 0, 0) and suspension.torsion == ((), (), (2,), ())
    assert _join_homology([rp2, s0]) == suspension
    assert _join_homology([s0, rp2]) == suspension


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
    assert _invariant_factors([2, 3, 4]) == [2, 12]
    assert _invariant_factors([4, 6, 10]) == [2, 2, 60]
    assert _invariant_factors([2, 2]) == [2, 2]


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
