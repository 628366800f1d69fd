"""Fixtures shared by the test modules."""

from itertools import combinations

import networkx as nx
import pytest

from ripstone import simplicial
from ripstone.polytopes import vertices_of


@pytest.fixture
def refuse_joins(monkeypatch):
    """Enumerate cliques as before, except on a graph whose complement is disconnected.

    Such a clique complex is a join, a cone being the case of a vertex
    adjacent to every other one; its factors are still enumerated.
    """
    enumerate_cliques = simplicial._enumerate_cliques

    def guarded(adj):
        n = len(adj)
        complement = nx.Graph()
        complement.add_nodes_from(range(n))
        complement.add_edges_from((u, v) for u in range(n) for v in range(u) if not adj[u] >> v & 1)
        if not nx.is_connected(complement):
            raise AssertionError(f"enumerated the faces of a join on {n} vertices")
        return enumerate_cliques(adj)

    monkeypatch.setattr(simplicial, "_enumerate_cliques", guarded)


@pytest.fixture
def face_diameter():
    """The largest pairwise distance within a vertex set: the oracle for diameter-3 faces."""

    def diameter(metric, s):
        return max((metric.d(a, b) for a, b in combinations(s, 2)), default=0)

    return diameter


@pytest.fixture(scope="session")
def closed_complex():
    """Complex(levels) with each level sorted by vertices_of, once every facet is found present.

    Complex checks nothing; this is the oracle for levels written out by hand
    or shuffled, which from_faces would close rather than check.
    """

    def build(levels):
        levels = tuple(tuple(sorted(level, key=vertices_of)) for level in levels)
        present = set().union(*levels)
        for level in levels[1:]:
            for mask in level:
                for facet, _sign in simplicial.signed_facets(mask):
                    assert facet in present, (vertices_of(mask), vertices_of(facet))
        return simplicial.Complex(levels)

    return build
