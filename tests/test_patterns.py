"""Induced pattern search on solid graphs, and the scattered tetrahedra."""

import random
from itertools import combinations

import pytest

from ripstone.errors import ParameterError
from ripstone.patterns import diameter3_tetrahedra, embeddings
from ripstone.polytopes import (
    DistanceMatrix,
    PolytopeGraph,
    build_solid,
    combinatorial_metric,
    cube_graph,
)
from ripstone.symmetry import apply_to_simplex, automorphisms


def pattern(name, size, edges):
    adj = [0] * size
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return PolytopeGraph(name=name, vertex_count=size, adjacency=tuple(adj))


EDGE = pattern("edge", 2, [(0, 1)])
CLAW = pattern("claw", 4, [(0, 1), (0, 2), (0, 3)])
PENTAGON = pattern("pentagon", 5, [(i, (i + 1) % 5) for i in range(5)])


def dodeca():
    return build_solid("dodecahedron")


def is_induced_embedding(p, g, images):
    """Re-verify a claimed embedding from scratch; images[i] is the image of vertex i."""
    if len(images) != p.vertex_count or len(set(images)) != len(images):
        return False
    if any(not 0 <= w < g.vertex_count for w in images):
        return False
    return all(
        p.adjacent(u, v) == g.adjacent(images[u], images[v])
        for u, v in combinations(range(p.vertex_count), 2)
    )


def images(p, g):
    """Distinct vertex sets hit by the embeddings of p, sorted."""
    return sorted({tuple(sorted(e)) for e in embeddings(p, g)})


def test_edge_pattern_counts():
    g = dodeca()
    assert len(embeddings(EDGE, g)) == 60  # both directions of 30 edges
    assert len(images(EDGE, g)) == 30


def test_claw_pattern_counts():
    g = dodeca()
    embs = embeddings(CLAW, g)
    assert len(embs) == 120  # 20 centers, 3! leaf orders
    assert len(images(CLAW, g)) == 20


def test_pentagon_pattern_finds_the_faces():
    g = dodeca()
    embs = embeddings(PENTAGON, g)
    assert len(embs) == 120  # 12 faces, dihedral order 10
    assert len(images(PENTAGON, g)) == 12


def test_embeddings_are_induced_and_sorted():
    g = dodeca()
    for p in (EDGE, CLAW, PENTAGON):
        embs = embeddings(p, g)
        assert all(is_induced_embedding(p, g, e) for e in embs)
        assert embs == sorted(embs)
        assert len(set(embs)) == len(embs)
    far = next(w for w in range(1, g.vertex_count) if not g.adjacent(0, w))
    assert not is_induced_embedding(EDGE, g, (0, far))
    assert not is_induced_embedding(EDGE, g, (0, 0))


def test_pentagon_images_are_closed_under_symmetry():
    g = dodeca()
    faces = set(images(PENTAGON, g))
    for gen in automorphisms(g).generators:
        assert {apply_to_simplex(gen, f) for f in faces} == faces


def test_embedding_guards():
    g = build_solid("tetrahedron")
    too_big = pattern("path", 5, [(0, 1)])
    with pytest.raises(ParameterError):
        embeddings(too_big, g)


def test_ten_tetrahedra_and_their_incidence():
    metric = combinatorial_metric(dodeca())
    tets = diameter3_tetrahedra(metric)
    assert len(tets) == 10
    assert tets == sorted(tets)
    per_vertex = [sum(v in t for t in tets) for v in range(20)]
    assert per_vertex == [2] * 20


def _random_metric(seed, n=12):
    """A symmetric table of hop-like values 1..4 (not a graph metric): many distance-3 cliques."""
    rng = random.Random(seed)
    dist = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        dist[i][j] = dist[j][i] = rng.choice((1, 2, 3, 3, 3, 4))
    return DistanceMatrix(size=n, dist=tuple(map(tuple, dist)))


@pytest.mark.parametrize(
    "metric",
    [combinatorial_metric(build_solid(name)) for name in ("cube", "dodecahedron", "icosahedron")]
    + [_random_metric(seed) for seed in range(6)]
    + [DistanceMatrix(size=0, dist=()), combinatorial_metric(cube_graph(4))],
)
def test_tetrahedra_agree_with_brute_force(metric):
    # the 4-cliques of the distance-3 relation are every 4-subset at pairwise
    # distance 3, listed whatever their number; only reports compare it to ten
    brute = [
        q
        for q in combinations(range(metric.size), 4)
        if all(metric.d(a, b) == 3 for a, b in combinations(q, 2))
    ]
    assert diameter3_tetrahedra(metric) == brute
