"""Text grammars: round-trips and line-accurate error reporting."""

import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ripstone.errors import FormatError, ParameterError, SearchFailure
from ripstone.formats import (
    parse_chain,
    parse_complex,
    parse_matching,
    parse_simplex_list,
    serialize_chain,
    serialize_complex,
    serialize_matching,
)
from ripstone.homology import homology, make_chain
from ripstone.morse import fan_matching, find_matching, matching_from_pairs
from ripstone import simplicial
from ripstone.simplicial import Complex, from_faces, maximal_simplices, simplex, vertices_of


@st.composite
def simplices(draw, max_vertex=11, max_size=4):
    verts = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_vertex),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )
    return tuple(sorted(verts))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(simplices(), min_size=1, max_size=10))
def test_complex_round_trip(faces):
    c = from_faces(faces)
    assert maximal_simplices(parse_complex(serialize_complex(c))) == maximal_simplices(c)


def test_a_parsed_complex_is_serialized_without_a_second_facet_pass(monkeypatch):
    passes = []  # the complexes handed to the facet pass
    facet_pass = simplicial._maximal_masks
    monkeypatch.setattr(simplicial, "_maximal_masks", lambda c: passes.append(c) or facet_pass(c))

    def refuse(_vertices):
        raise AssertionError("parse_complex validated a simplex twice")

    monkeypatch.setattr(simplicial, "simplex", refuse)
    c = parse_complex("0 1 2 3\n2 3 4\n1 2  # not maximal\n4 5\n6\n2 3 4\n")
    text = serialize_complex(c)
    assert passes == []  # the closure records the maximal faces as it walks
    assert text.splitlines()[1:] == ["0 1 2 3", "2 3 4", "4 5", "6"]
    # a complex with no record takes the facet pass, which this guard counts
    unrecorded = Complex(c.faces)
    assert serialize_complex(unrecorded) == text
    assert len(passes) == 1 and passes[0] is unrecorded  # one pass, over that complex


def test_a_parsed_non_join_is_reduced_and_serialized_without_its_faces():
    # homology reads the numbered closure and serialize_complex the maximal
    # record, so the faces in file ids are built only when read
    c = parse_complex("0 1 2 3\n2 3 4\n1 2  # not maximal\n4 5\n5 7\n0 7\n6\n")
    assert not c.join_factors
    h = homology(c)
    text = serialize_complex(c)
    assert "faces" not in vars(c)
    assert (h.betti, any(h.torsion)) == ((2, 1, 0, 0), False)  # the cycle 0 2 4 5 7 bounds nothing
    assert text.splitlines()[1:] == ["0 1 2 3", "0 7", "2 3 4", "4 5", "5 7", "6"]
    assert c.f_vector() == (8, 11, 5, 1) == tuple(map(len, c.faces))


def test_simplex_list_round_trip():
    # file order kept, duplicates collapsed to their first line
    text = "# candidates\n3 4\n0 1 2\n\n1\n3 4  # again\n0 1 2\n7\n1\n2 5\n"
    assert parse_simplex_list(text) == [(3, 4), (0, 1, 2), (1,), (7,), (2, 5)]
    assert parse_simplex_list("# nothing listed\n") == []


@st.composite
def chains(draw):
    dim = draw(st.integers(min_value=0, max_value=3))
    count = draw(st.integers(min_value=1, max_value=6))
    terms = {}
    for _ in range(count):
        verts = draw(
            st.lists(
                st.integers(min_value=0, max_value=14),
                min_size=dim + 1,
                max_size=dim + 1,
                unique=True,
            )
        )
        coeff = draw(st.integers(min_value=-9, max_value=9).filter(bool))
        terms[tuple(sorted(verts))] = coeff
    return make_chain(dim, terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chains())
def test_chain_round_trip(z):
    back = parse_chain(serialize_chain(z))
    assert back.dimension == z.dimension
    assert back.terms == z.terms


def test_bool_vertex_ids_and_coefficients_are_refused():
    # True is an int to isinstance, and would be written as a token the
    # parsers refuse
    with pytest.raises(ParameterError, match="non-negative integers"):
        simplex((False, True))
    with pytest.raises(ParameterError, match="must be an integer"):
        make_chain(1, {(0, 1): True})
    # nor is it, or any other type than int, a chain dimension
    for dimension in ("1", 1.0, True):
        with pytest.raises(ParameterError, match="dimension must be an integer"):
            make_chain(dimension, {(0, 1): 1})


def test_zero_chain_serializes_to_comment_only():
    text = serialize_chain(make_chain(2, {}))
    assert text.startswith("# zero chain of dimension 2")
    with pytest.raises(FormatError) as exc:
        parse_chain(text)
    assert "no terms" in str(exc.value)


def test_matching_round_trip():
    m = fan_matching(6, 0)
    assert parse_matching(serialize_matching(m)).pairs == m.pairs
    empty = matching_from_pairs([])
    assert parse_matching(serialize_matching(empty)).pairs == ()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(simplices(max_vertex=14), simplices(max_vertex=14)), max_size=8))
def test_matching_pairs_keep_vertex_tuple_order(pairs):
    # any pairs, facet or not, so that one upper cell can be a prefix of another
    m = matching_from_pairs(pairs)
    listed = [(vertices_of(lo), vertices_of(up)) for lo, up in m.pairs]
    assert listed == sorted(set(pairs), key=lambda p: (len(p[0]), p[0], p[1]))


@pytest.mark.parametrize("seed", range(10))
def test_found_matchings_serialize_in_vertex_tuple_order(seed):
    # vertex ids up to 14, so that tuple order and bit order part ways
    rng = random.Random(seed)
    verts = rng.sample(range(15), 8)
    c = from_faces(tuple(sorted(rng.sample(verts, rng.randint(1, 4)))) for _ in range(7))
    cells = [s for k in range(c.dim + 1) for s in c.simplices(k)]
    forced = []
    while True:  # force the largest leftover cell of a stalled search critical
        try:
            m = find_matching(c, cells, forced_critical=forced, seed=seed, max_attempts=1)
            break
        except SearchFailure as e:
            forced.append(max(e.surplus, key=len))
    text = serialize_matching(m)
    pairs = [
        tuple(tuple(int(v) for v in side.split()) for side in line.split(" -> "))
        for line in text.splitlines()[1:]
    ]
    assert len(pairs) == len(m.pairs) > 0
    assert pairs == sorted(set(pairs), key=lambda p: (len(p[0]), p[0], p[1]))
    assert parse_matching(text) == m


CASES = [
    (parse_complex, "0 2 1\n", 1, "ascend"),
    (parse_complex, "# only a comment\n", 1, "no faces"),
    (parse_complex, "0 1\n\n0 x\n", 3, "not an integer"),
    (parse_complex, "-1 2\n", 1, "negative vertex"),
    (parse_chain, "x: 0 1\n", 1, "not an integer"),
    (parse_chain, "1: 0 1\n2: 0 1 2\n", 2, "differs"),
    (parse_chain, "0: 0 1\n", 1, "zero coefficient"),
    (parse_chain, "1: 0 1\n2: 0 1\n", 2, "duplicate"),
    (parse_chain, "1 0 1\n", 1, "missing ':'"),
    (parse_chain, "1:\n", 1, "empty simplex"),
    (parse_matching, "0 1\n", 1, "missing '->'"),
    (parse_matching, "0 -> 0 1 -> 0 1 2\n", 1, "more than one"),
    (parse_matching, "0 ->\n", 1, "orphan"),
    (parse_matching, "0 -> 1 2\n", 1, "facet"),
]


@pytest.mark.parametrize("parser,text,line,needle", CASES)
def test_error_lines_and_messages(parser, text, line, needle):
    with pytest.raises(FormatError) as exc:
        parser(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_error_string_format_mentions_line_and_token():
    with pytest.raises(FormatError) as exc:
        parse_complex("0 1\n0 z\n")
    assert str(exc.value) == "line 2: not an integer (token 'z')"


def test_comments_and_blanks_are_ignored_everywhere():
    text = "# heading\n\n  # indented comment\n0 1 2\n"
    assert parse_simplex_list(text) == [(0, 1, 2)]
    c = parse_complex(text)
    assert c.f_vector() == (3, 3, 1)


# Small complex files pinned by f-vector, Betti numbers, torsion and the
# sha256 of their serialized text: joins of the projective plane with small
# flag complexes under shuffled vertex ids, a cone, files with duplicate and
# non-maximal lines, and two tetrahedra sharing an edge (that edge joined
# with two disjoint edges).
RP2 = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
]


def _text(faces):
    return "".join(" ".join(map(str, s)) + "\n" for s in faces)


def _join(a, b, seed):
    """The join of two face lists, b's vertex ids after a's, all ids shuffled by the seed."""
    shift = max(v for s in a for v in s) + 1
    n = shift + max(v for s in b for v in s) + 1
    relabel = random.Random(seed).sample(range(n), n)
    return [tuple(sorted(relabel[v] for v in s + tuple(w + shift for w in t))) for s in a for t in b]


def _flag(n, p, seed):
    """A seeded G(n, p)'s maximal cliques on shuffled ids, one listed twice, and a non-maximal face."""
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(e for e in combinations(range(n), 2) if rng.random() < p)
    relabel = rng.sample(range(n), n)
    cliques = sorted(tuple(sorted(relabel[v] for v in q)) for q in nx.find_cliques(g))
    rng.shuffle(cliques)
    return cliques[:3] + [cliques[1], max(cliques, key=len)[1:]] + cliques[3:]


S0 = [(0,), (1,)]
PENTAGON = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
COMPLEX_FILES = {
    "rp2": _text(RP2),
    "rp2_join_s0": _text(_join(RP2, S0, 1)),
    "rp2_join_path": _text(_join(RP2, [(0, 1), (1, 2)], 2)),
    "rp2_join_square": _text(_join(RP2, [(0, 1), (1, 2), (2, 3), (0, 3)], 3)),
    "pentagon_join_rp2": _text(_join(PENTAGON, RP2, 4)),
    "rp2_join_two_edges_and_a_point": _text(_join(RP2, [(0, 1), (2, 3), (4,)], 5)),
    "rp2_join_rp2": _text(_join(RP2, RP2, 6)),
    "cone_over_pentagon": _text(_join(PENTAGON, [(0,)], 7)),
    "rp2_and_a_non_maximal_edge": _text(RP2 + [(1, 4)]),
    "duplicate_and_non_maximal_lines": _text(
        _join(RP2, S0, 8)[:7] + [(0, 1)] + _join(RP2, S0, 8)[3:]
    ),
    "duplicate_lines": _text(_join(RP2, S0, 9) + _join(RP2, S0, 9)[::3]),
    "two_tetrahedra_on_an_edge": "0 1 2 3\n2 3 4 5\n",
    "flag_of_g_16_half": _text(_flag(16, 0.5, 1)),
}

# name -> (f-vector, Betti numbers, torsion, sha256 of serialize_complex)
PINNED = {
    "rp2": (
        (6, 15, 10),
        (1, 0, 0),
        ((), (2,), ()),
        "9d1135da2e8c3a413fda1b5ddc19ff441a5ca2325f883c059ddb9b6e8031f9b1",
    ),
    "rp2_join_s0": (
        (8, 27, 40, 20),
        (1, 0, 0, 0),
        ((), (), (2,), ()),
        "86716f0763776c6700bdbcb613ff8c77c2bca681dec6ceebcb634f189d1c0e17",
    ),
    "rp2_join_path": (
        (9, 35, 67, 60, 20),
        (1, 0, 0, 0, 0),
        ((), (), (), (), ()),
        "001157dcf632101483390927c312e43f48d92a4c7cfb0b295dbf65af560c8e08",
    ),
    "rp2_join_square": (
        (10, 43, 94, 100, 40),
        (1, 0, 0, 0, 0),
        ((), (), (), (2,), ()),
        "6c708d95ef7c4f9ee593f78f81d6dcd2d8e9d2dea603acb45ebc81d048661916",
    ),
    "pentagon_join_rp2": (
        (11, 50, 115, 125, 50),
        (1, 0, 0, 0, 0),
        ((), (), (), (2,), ()),
        "d5c5ca76494d361f1e28b3eeb448440b862ac9fd6e8e9ef5e3676538e32ea9fd",
    ),
    "rp2_join_two_edges_and_a_point": (
        (11, 47, 97, 80, 20),
        (1, 0, 0, 0, 0),
        ((), (), (2, 2), (), ()),
        "0fbc35a5d1e8fff555f67207dfbfb6b1fdb2373fddef23235e9c7d69a5ad7fe8",
    ),
    "rp2_join_rp2": (
        (12, 66, 200, 345, 300, 100),
        (1, 0, 0, 0, 0, 0),
        ((), (), (), (2,), (2,), ()),
        "bac7e9298b0d9001c4235d071c00d00684c68f0b24b9eae4714ccb54b2ddbb57",
    ),
    "cone_over_pentagon": (
        (6, 10, 5),
        (1, 0, 0),
        ((), (), ()),
        "701a72bbcfed0c6f233a1446eddc3f6ef2a4c0464cfaf5ad190f1125c6df1f71",
    ),
    "rp2_and_a_non_maximal_edge": (
        (6, 15, 10),
        (1, 0, 0),
        ((), (2,), ()),
        "9d1135da2e8c3a413fda1b5ddc19ff441a5ca2325f883c059ddb9b6e8031f9b1",
    ),
    "duplicate_and_non_maximal_lines": (
        (8, 27, 40, 20),
        (1, 0, 0, 0),
        ((), (), (2,), ()),
        "7deee3dbdefd686cf23953dfd668ae3c9d0e7eb0a4705bee2fdd4f54aea71acc",
    ),
    "duplicate_lines": (
        (8, 27, 40, 20),
        (1, 0, 0, 0),
        ((), (), (2,), ()),
        "86716f0763776c6700bdbcb613ff8c77c2bca681dec6ceebcb634f189d1c0e17",
    ),
    "two_tetrahedra_on_an_edge": (
        (6, 11, 8, 2),
        (1, 0, 0, 0),
        ((), (), (), ()),
        "61b7883aad0a6bd404542b04067432ec460cac1adfdac96a401b425d77599582",
    ),
    "flag_of_g_16_half": (
        (16, 56, 51, 9),
        (1, 1, 2, 0),
        ((), (), (), ()),
        "05a67e98ef24fd67ebdaec38a88b9b4855285986be01f9a6c351a42a78a142b3",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_FILES))
def test_small_complex_files_keep_their_pinned_outputs(name):
    c = parse_complex(COMPLEX_FILES[name])
    h = homology(c)
    text = serialize_complex(c)
    assert (c.f_vector(), h.betti, h.torsion) == PINNED[name][:3]
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name][3]
    assert maximal_simplices(parse_complex(text)) == maximal_simplices(c)
