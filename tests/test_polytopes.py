"""Solid construction, hop metrics, and the chord/angle distance table."""

import math
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ripstone.errors import ParameterError, StructuralError
from ripstone.polytopes import (
    PHI,
    SOLIDS,
    PolytopeGraph,
    build_solid,
    combinatorial_metric,
    cube_graph,
    distance_table,
    solid_info,
)

TOL = 1e-9

# (vertices, degree, graph diameter) per solid
INFO = {
    "tetrahedron": (4, 3, 1),
    "cube": (8, 3, 3),
    "octahedron": (6, 4, 2),
    "dodecahedron": (20, 3, 5),
    "icosahedron": (12, 5, 3),
}

# euclidean chord and spherical angle per hop class, unit circumsphere
CLOSED_FORMS = {
    "tetrahedron": (
        (2 * math.sqrt(2 / 3), math.acos(-1 / 3)),
    ),
    "cube": (
        (2 * math.sqrt(1 / 3), math.acos(1 / 3)),
        (2 * math.sqrt(2 / 3), math.acos(-1 / 3)),
        (2.0, math.pi),
    ),
    "octahedron": (
        (math.sqrt(2), math.pi / 2),
        (2.0, math.pi),
    ),
    "dodecahedron": (
        ((2 / PHI) * math.sqrt(1 / 3), math.acos((2 * PHI - 1) / 3)),
        (2 * math.sqrt(1 / 3), math.acos(1 / 3)),
        (2 * math.sqrt(2 / 3), math.acos(-1 / 3)),
        (2 * PHI * math.sqrt(1 / 3), math.acos((1 - 2 * PHI) / 3)),
        (2.0, math.pi),
    ),
    "icosahedron": (
        (2 * math.sqrt((3 - PHI) / 5), math.acos(1 / math.sqrt(5))),
        (2 * math.sqrt((2 + PHI) / 5), math.acos(-1 / math.sqrt(5))),
        (2.0, math.pi),
    ),
}

# pairs of vertices per hop distance, frozen from enumeration; the sum per
# solid is C(v, 2)
PAIR_COUNTS = {
    "tetrahedron": {1: 6},
    "cube": {1: 12, 2: 12, 3: 4},
    "octahedron": {1: 12, 2: 3},
    "dodecahedron": {1: 30, 2: 60, 3: 60, 4: 30, 5: 10},
    "icosahedron": {1: 30, 2: 30, 3: 6},
}


@pytest.mark.parametrize("name", SOLIDS)
def test_info_table(name):
    v, degree, diameter = INFO[name]
    info = solid_info(name)
    assert (info.v, info.n, info.k) == (v, degree, diameter)
    g = build_solid(name)
    assert g.vertex_count == v
    assert all(g.degree(i) == degree for i in range(v))
    assert g.edge_count() == v * degree // 2
    assert combinatorial_metric(g).diameter() == diameter


@pytest.mark.parametrize("name", SOLIDS)
def test_distance_table_closed_forms(name):
    table = distance_table(name)
    forms = CLOSED_FORMS[name]
    assert len(table.rows) == len(forms) == INFO[name][2]
    for (hop, chord, angle), (want_chord, want_angle), k in zip(
        table.rows, forms, range(1, len(forms) + 1)
    ):
        assert hop == k
        assert abs(chord - want_chord) < TOL
        assert abs(angle - want_angle) < TOL
        assert abs(angle - math.acos(1 - chord * chord / 2)) < TOL


@pytest.mark.parametrize("name", SOLIDS)
def test_chords_increase_with_hops(name):
    table = distance_table(name)
    chords = [chord for _, chord, _ in table.rows]
    assert chords == sorted(chords)


@pytest.mark.parametrize("name", SOLIDS)
def test_pair_counts(name):
    metric = combinatorial_metric(build_solid(name))
    pairs = [metric.dist[i][j] for i, j in combinations(range(metric.size), 2)]
    for hop, count in PAIR_COUNTS[name].items():
        assert pairs.count(hop) == count
    assert sum(PAIR_COUNTS[name].values()) == math.comb(metric.size, 2)


@pytest.mark.parametrize("name", SOLIDS)
def test_metric_axioms(name):
    metric = combinatorial_metric(build_solid(name))
    n = metric.size
    for i in range(n):
        assert metric.d(i, i) == 0
        assert max(metric.dist[i]) == metric.diameter()  # every vertex has an antipode
    for i, j in combinations(range(n), 2):
        assert metric.d(i, j) == metric.d(j, i) > 0
    for i, j, k in combinations(range(n), 3):
        assert metric.d(i, k) <= metric.d(i, j) + metric.d(j, k)


@pytest.mark.parametrize("name", SOLIDS)
def test_adjacency_is_minimal_chord(name):
    g = build_solid(name)
    coords = g.coords
    assert coords is not None

    def chord(i, j):
        return math.dist(coords[i], coords[j])

    shortest = min(
        chord(i, j) for i, j in combinations(range(g.vertex_count), 2)
    )
    for i, j in combinations(range(g.vertex_count), 2):
        assert g.adjacent(i, j) == (abs(chord(i, j) - shortest) < 1e-6)
    radii = {round(math.dist(p, (0, 0, 0)), 9) for p in coords}
    assert radii == {1.0}


def _edges(g):
    """The graph's edges as pairs (i, j) with i < j."""
    return [(i, j) for i, j in combinations(range(g.vertex_count), 2) if g.adjacent(i, j)]


@pytest.mark.parametrize("name", SOLIDS)
def test_hop_metric_matches_networkx(name):
    g = build_solid(name)
    metric = combinatorial_metric(g)
    ref = nx.Graph(_edges(g))
    lengths = dict(nx.all_pairs_shortest_path_length(ref))
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            assert metric.d(i, j) == lengths[i][j]


@pytest.mark.parametrize("name", ("cube", "octahedron", "dodecahedron", "icosahedron"))
def test_antipodal_involution(name):
    metric = combinatorial_metric(build_solid(name))
    k = metric.diameter()
    partner = {}
    for i in range(metric.size):
        far = [j for j in range(metric.size) if metric.d(i, j) == k]
        assert len(far) == 1
        partner[i] = far[0]
    assert all(partner[partner[i]] == i for i in partner)


def test_cube_graph_hamming():
    for n in range(1, 7):
        g = cube_graph(n)
        assert g.vertex_count == 2**n
        assert all(g.degree(i) == n for i in range(2**n))
        metric = combinatorial_metric(g)
        for i in range(2**n):
            for j in range(2**n):
                assert metric.d(i, j) == (i ^ j).bit_count()


def test_guards():
    with pytest.raises(ParameterError):
        build_solid("prism")
    with pytest.raises(ParameterError):
        solid_info("prism")
    with pytest.raises(ParameterError):
        distance_table("prism")
    with pytest.raises(ParameterError):
        cube_graph(0)
    with pytest.raises(ParameterError):
        cube_graph(13)


def _floyd_warshall(g):
    """All-pairs hop distances by Floyd-Warshall, None where no path exists."""
    n = g.vertex_count
    far = n + 1
    dist = [[0 if i == j else 1 if g.adjacent(i, j) else far for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return [[None if d == far else d for d in row] for row in dist]


def _graph(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return PolytopeGraph(name="drawn", vertex_count=n, adjacency=tuple(adj))


@st.composite
def graphs(draw, connected):
    """A graph on 1-14 vertices; when connected, a random spanning tree is added."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = list(combinations(range(n), 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=30))) if pairs else set()
    if connected:
        for v in range(1, n):
            edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return _graph(n, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs(connected=True))
def test_bitset_metric_matches_floyd_warshall_on_connected_graphs(g):
    assert [list(row) for row in combinatorial_metric(g).dist] == _floyd_warshall(g)


@pytest.mark.parametrize(
    "g",
    [build_solid(name) for name in SOLIDS] + [cube_graph(n) for n in range(2, 7)],
    ids=list(SOLIDS) + [f"Q{n}" for n in range(2, 7)],
)
def test_bitset_metric_matches_floyd_warshall_on_solids_and_cubes(g):
    assert [list(row) for row in combinatorial_metric(g).dist] == _floyd_warshall(g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs(connected=False))
def test_bitset_metric_refuses_exactly_the_disconnected_graphs(g):
    reference = _floyd_warshall(g)
    if any(d is None for row in reference for d in row):
        with pytest.raises(StructuralError, match="is disconnected"):
            combinatorial_metric(g)
    else:
        assert [list(row) for row in combinatorial_metric(g).dist] == reference


def test_a_graph_with_an_isolated_vertex_is_disconnected():
    with pytest.raises(StructuralError, match=r"^graph 'drawn' is disconnected$"):
        combinatorial_metric(_graph(4, {(0, 1), (1, 2)}))


@pytest.mark.parametrize("name", SOLIDS)
def test_chord_is_bit_identical_to_the_coordinate_sum(name):
    from ripstone.polytopes import _chord

    coords = build_solid(name).coords
    for p, q in combinations(coords, 2):
        for a, b in ((p, q), (q, p)):
            summed = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert _chord(a, b).hex() == summed.hex()


def _hop_graphs():
    yield from (build_solid(name) for name in SOLIDS)
    yield from (cube_graph(n) for n in range(1, 6))


def test_balls_and_rings_match_a_distance_scan():
    for g in _hop_graphs():
        metric = combinatorial_metric(g)
        for i, row in enumerate(metric.dist):
            balls = metric.within[i]
            assert len(balls) == max(row) + 1  # h runs over 0..ecc(i)
            for h in range(-1, len(balls) + 2):
                ring = sum(1 << j for j, d in enumerate(row) if d == h)
                assert metric.ring(i, h) == ring
                if 0 <= h < len(balls):
                    assert balls[h] == sum(1 << j for j, d in enumerate(row) if d <= h)
        assert metric.within is metric.within  # derived once per metric
