"""Text grammars: round-trips and line-accurate error reporting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ripstone.errors import FormatError, SearchFailure
from ripstone.formats import (
    parse_chain,
    parse_complex,
    parse_matching,
    parse_simplex_list,
    serialize_chain,
    serialize_complex,
    serialize_matching,
)
from ripstone.homology import make_chain
from ripstone.morse import fan_matching, find_matching, matching_from_pairs
from ripstone import simplicial
from ripstone.simplicial import Complex, from_faces, vertices_of


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
    assert parse_complex(serialize_complex(c)) == c


def test_a_parsed_complex_is_serialized_without_a_second_facet_pass(monkeypatch):
    passes = []
    facets = simplicial.signed_facets
    monkeypatch.setattr(simplicial, "signed_facets", lambda m: passes.append(m) or facets(m))

    def refuse(_vertices):
        raise AssertionError("parse_complex validated a simplex twice")

    monkeypatch.setattr(simplicial, "simplex", refuse)
    c = parse_complex("0 1 2 3\n2 3 4\n1 2  # not maximal\n4 5\n6\n2 3 4\n")
    text = serialize_complex(c)
    assert passes == []  # the closure records the maximal faces as it walks
    assert text.splitlines()[1:] == ["0 1 2 3", "2 3 4", "4 5", "6"]
    # a complex with no record takes the facet pass, which this guard counts
    unrecorded = Complex(vertex_count=c.vertex_count, faces=[list(level) for level in c.faces])
    passes.clear()  # the constructor's closure check reads the facets too
    assert serialize_complex(unrecorded) == text
    assert passes == [m for level in c.faces[1:] for m in level]  # each face above the vertices


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
    assert len(pairs) == len(m) > 0
    assert pairs == sorted(set(pairs), key=lambda p: (len(p[0]), p[0], p[1]))
    assert parse_matching(text) == m


CASES = [
    (parse_complex, "0 2 1\n", 1, "ascend"),
    (parse_complex, "# only a comment\n", 1, "no faces"),
    (parse_complex, "0 1\n\n0 x\n", 3, "not an integer"),
    (parse_chain, "x: 0 1\n", 1, "not an integer"),
    (parse_chain, "1: 0 1\n2: 0 1 2\n", 2, "differs"),
    (parse_chain, "0: 0 1\n", 1, "zero coefficient"),
    (parse_chain, "1: 0 1\n2: 0 1\n", 2, "duplicate"),
    (parse_chain, "1 0 1\n", 1, "missing ':'"),
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
