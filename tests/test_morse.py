"""Discrete vector fields: certification, search, flow, fans and flips."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from ripstone.errors import (
    ParameterError,
    PreconditionError,
    SearchFailure,
    StructuralError,
)
from ripstone.homology import homology, make_chain, simplex_boundary
from ripstone.morse import (
    check_matching,
    critical_complex_homology,
    fan_matching,
    fan_triangulation,
    find_matching,
    flip_matching_update,
    matching_from_pairs,
    morse_flow,
)
from ripstone.polytopes import build_solid, combinatorial_metric
from ripstone.simplicial import from_faces, full_simplex_complex, vr_complex

COLLAPSE_TO_EDGE = [
    ((0, 2, 3), (0, 1, 2, 3)),
    ((2, 3), (1, 2, 3)),
    ((0, 2), (0, 1, 2)),
    ((1, 3), (0, 1, 3)),
    ((3,), (0, 3)),
    ((2,), (1, 2)),
]


def all_faces(c):
    out = []
    for k in range(c.dim + 1):
        out.extend(c.simplices(k))
    return out


def square_cycle_matching():
    c = from_faces([(0, 1), (1, 2), (2, 3), (0, 3)])
    m = matching_from_pairs(
        [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (2, 3)), ((3,), (0, 3))]
    )
    return c, m


def test_collapse_of_tetrahedron_onto_an_edge():
    c = full_simplex_complex(4)
    report = check_matching(c, matching_from_pairs(COLLAPSE_TO_EDGE))
    assert report.ok()
    assert set(report.critical) == {(0,), (1,), (0, 1)}
    h = critical_complex_homology(c, matching_from_pairs(COLLAPSE_TO_EDGE))
    assert h.betti_stripped() == (1,)
    # the critical complex lives in dimensions 0 and 1 only
    assert h.torsion == ((), ())


def test_rotating_square_matching_is_rejected_with_certificate():
    c, m = square_cycle_matching()
    report = check_matching(c, m)
    assert report.valid and not report.acyclic and not report.ok()
    assert report.certificate == (
        (0, 1), (1,), (1, 2), (2,), (2, 3), (3,), (0, 3), (0,),
    )
    assert report.critical == ()


def test_check_matching_reports_rule_violations():
    c = full_simplex_complex(3)
    bad = matching_from_pairs([((0,), (0, 3))])
    rep = check_matching(c, bad)
    assert not rep.valid and "outside the complex" in rep.violations[0]

    reused = matching_from_pairs([((0,), (0, 1)), ((0,), (0, 2))])
    rep = check_matching(c, reused)
    assert not rep.valid
    assert any("more than one pair" in v for v in rep.violations)

    skew = matching_from_pairs([((0,), (1, 2))])
    rep = check_matching(c, skew)
    assert not rep.valid and "not a facet-cofacet pair" in rep.violations[0]


def test_violations_follow_pair_order_and_name_a_cell_once():
    # a matching file cannot hold a non-facet pair (the parser refuses it),
    # so this pins the messages the morse check goldens cannot reach
    c = full_simplex_complex(4)
    m = matching_from_pairs(
        [
            ((2, 3), (2, 3, 9)),
            ((0,), (0, 3)),
            ((1,), (2, 3)),
            ((0,), (0, 1)),
            ((0, 1), (0, 1, 2, 3)),
            ((0,), (0, 2)),
            ((1, 2), (0, 1, 2)),
        ]
    )
    assert check_matching(c, m).violations == (
        "(0,) occurs in more than one pair",
        "pair (1,) -> (2, 3) is not a facet-cofacet pair",
        "pair (0, 1) -> (0, 1, 2, 3) is not a facet-cofacet pair",
        "pair (2, 3) -> (2, 3, 9) uses a simplex outside the complex",
    )


def test_flow_pushes_off_apex_free_triangle():
    c = full_simplex_complex(4)
    m = fan_matching(4, 0)
    flowed = morse_flow(c, m, make_chain(2, {(1, 2, 3): 1}))
    assert flowed.chain.terms == {(0, 1, 2): 1, (0, 2, 3): 1}
    assert flowed.steps == 1
    again = morse_flow(c, m, flowed.chain)
    assert again.steps == 0
    assert again.chain.terms == flowed.chain.terms


def test_flow_error_paths():
    c, m = square_cycle_matching()
    z = make_chain(1, {(0, 1): 1})
    with pytest.raises(PreconditionError):
        morse_flow(c, m, z)
    good = fan_matching(4, 0)
    full = full_simplex_complex(4)
    with pytest.raises(ParameterError, match=r"^chain uses \(0, 9\), which is not a face"):
        morse_flow(full, good, make_chain(1, {(0, 9): 1}))
    with pytest.raises(PreconditionError):
        critical_complex_homology(c, m)


@pytest.mark.parametrize("ngon", [4, 5, 6, 7, 8])
def test_fan_matchings_leave_the_triangulation_critical(ngon):
    c = full_simplex_complex(ngon)
    tri = fan_triangulation(ngon, 0)
    assert len(tri) == 4 * ngon - 5
    m = fan_matching(ngon, 0)
    report = check_matching(c, m)
    assert report.ok()
    assert set(report.critical) == set(tri)
    assert 2 * len(m.pairs) + len(tri) == c.face_total()
    h = critical_complex_homology(c, m)
    assert h.betti_stripped() == (1,)


def test_fan_apex_choice_matters_but_counts_do_not():
    tri2 = fan_triangulation(5, 2)
    assert len(tri2) == 15
    assert (2, 4) in tri2 and (0, 2) in tri2
    report = check_matching(full_simplex_complex(5), fan_matching(5, 2))
    assert report.ok() and set(report.critical) == set(tri2)


def test_fan_guards():
    with pytest.raises(ParameterError):
        fan_triangulation(2, 0)
    with pytest.raises(ParameterError):
        fan_triangulation(13, 0)
    with pytest.raises(ParameterError):
        fan_triangulation(5, 5)


def flipped_set(tri, a, b, c_, d):
    out = set(tri)
    out -= {tuple(sorted((a, c_))), tuple(sorted((a, b, c_))), tuple(sorted((a, c_, d)))}
    out |= {tuple(sorted((b, d))), tuple(sorted((b, c_, d))), tuple(sorted((a, b, d)))}
    return out


def test_square_flip_moves_the_diagonal():
    c = full_simplex_complex(4)
    m = fan_matching(4, 0)
    m2 = flip_matching_update(m, (0, 1, 2, 3), (0, 2))
    report = check_matching(c, m2)
    assert report.ok()
    assert set(report.critical) == flipped_set(fan_triangulation(4, 0), 0, 1, 2, 3)
    assert len(set(m.pairs) ^ set(m2.pairs)) == 4
    assert critical_complex_homology(c, m2).betti_stripped() == (1,)
    # flipping back along the new diagonal restores the fan
    m3 = flip_matching_update(m2, (0, 1, 2, 3), (1, 3))
    report3 = check_matching(c, m3)
    assert report3.ok()
    assert set(report3.critical) == set(fan_triangulation(4, 0))


@pytest.mark.parametrize("ngon", [5, 6, 8])
def test_flips_recertify_on_larger_fans(ngon):
    c = full_simplex_complex(ngon)
    m = fan_matching(ngon, 0)
    quad = (0, 2, 3, 4)
    m2 = flip_matching_update(m, quad, (0, 3))
    report = check_matching(c, m2)
    assert report.ok()
    assert set(report.critical) == flipped_set(fan_triangulation(ngon, 0), 0, 2, 3, 4)
    assert critical_complex_homology(c, m2).betti_stripped() == (1,)


def test_flip_guards():
    m = fan_matching(4, 0)
    with pytest.raises(ParameterError):
        flip_matching_update(m, (0, 1, 2, 2), (0, 2))
    with pytest.raises(ParameterError):
        flip_matching_update(m, (0, 1, 2, 3), (0, 1))  # an edge, not a diagonal
    with pytest.raises(StructuralError):
        flip_matching_update(m, (0, 1, 2, 3), (1, 3))  # wrong diagonal is critical
    # with diagonal (0, 2), the 3-cell must be matched with (0, 1, 3) or
    # (1, 2, 3), and (1, 3) with the other one
    unmatched_top = matching_from_pairs([((1, 3), (0, 1, 3))])
    with pytest.raises(StructuralError, match=r"missing pair: \(0, 1, 2, 3\) must be matched"):
        flip_matching_update(unmatched_top, (0, 1, 2, 3), (0, 2))
    unmatched_edge = matching_from_pairs([((1, 2, 3), (0, 1, 2, 3))])
    with pytest.raises(StructuralError, match=r"missing pair: \(1, 3\) -> \(0, 1, 3\)"):
        flip_matching_update(unmatched_edge, (0, 1, 2, 3), (0, 2))


def test_flow_refuses_a_matching_with_a_non_face():
    c = full_simplex_complex(3)
    m = matching_from_pairs([((2,), (2, 3))])
    with pytest.raises(
        PreconditionError,
        match=r"invalid matching: pair \(2,\) -> \(2, 3\) uses a simplex outside the complex",
    ):
        morse_flow(c, m, make_chain(0, {(0,): 1}))


def test_find_matching_collapses_a_cone():
    c = full_simplex_complex(4)
    m = find_matching(c, all_faces(c), forced_critical=[(0,)], seed=5)
    assert len(m.pairs) == 7
    report = check_matching(c, m)
    assert report.ok()
    assert report.critical == ((0,),)
    again = find_matching(c, all_faces(c), forced_critical=[(0,)], seed=5)
    assert again.pairs == m.pairs


def test_find_matching_cannot_collapse_a_sphere():
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    for max_attempts in (4, 10**9):
        # no cell of the sphere is free, so no attempt draws a random choice
        # and the first one stands for every seed
        with pytest.raises(SearchFailure) as exc:
            find_matching(c, all_faces(c), max_attempts=max_attempts)
        assert exc.value.attempts == 1
        assert "within 1 attempts (it made no random choice)" in str(exc.value)
        assert len(exc.value.surplus) >= 2
    assert homology(c).betti == (1, 0, 1)  # the obstruction is real


def _sphere_with_pendant_edges():
    """The octahedron sphere plus edges (0, 6) and (1, 7): 30 cells, and
    every search attempt chooses which pendant vertex to pair first."""
    c = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)
    return from_faces([s for s in all_faces(c) if len(s) == 3] + [(0, 6), (1, 7)])


def test_find_matching_stops_at_the_work_cap(monkeypatch):
    from ripstone import morse

    c = _sphere_with_pendant_edges()
    monkeypatch.setattr(morse, "SEARCH_WORK", 30 * 7 + 29)  # 30 live cells
    with pytest.raises(SearchFailure) as exc:
        find_matching(c, all_faces(c), max_attempts=10**9)
    assert exc.value.attempts == 7
    assert len(exc.value.surplus) >= 2
    assert "within 7 attempts (the work cap" in str(exc.value)
    with pytest.raises(SearchFailure) as exc:  # max_attempts below the cap
        find_matching(c, all_faces(c), max_attempts=5)
    assert str(exc.value) == "no perfect matching on 30 cells within 5 attempts"


def test_find_matching_guards_and_trivia():
    c = full_simplex_complex(3)
    assert find_matching(c, []).pairs == ()
    with pytest.raises(ParameterError, match=r"^candidate \(0, 9\) is not a face"):
        find_matching(c, [(0, 9)])
    with pytest.raises(ParameterError):
        find_matching(c, [(0,), (1,)], forced_critical=[(2,)])
    with pytest.raises(ParameterError):
        find_matching(c, all_faces(c), max_attempts=0)


def test_flow_reproduces_boundary_of_critical_cell():
    # flowing the boundary of a critical triangle lands on critical cells only
    ngon = 6
    c = full_simplex_complex(ngon)
    m = fan_matching(ngon, 0)
    critical = set(check_matching(c, m).critical)
    for tri in [(0, 2, 3), (0, 4, 5)]:
        z = make_chain(1, dict(simplex_boundary(tri)))
        flowed = morse_flow(c, m, z)
        assert set(flowed.chain.support()) <= critical


def test_trace_certifies_each_matching_once(monkeypatch):
    from ripstone import morse
    from ripstone.pipelines import trace_dodecahedron

    calls = []
    certify = morse.check_matching

    def counted(c, m):  # a request the complex's cache cannot answer
        if ("matching", m) not in c._cache:
            calls.append(c.face_total())
        return certify(c, m)

    monkeypatch.setattr(morse, "check_matching", counted)
    report = trace_dodecahedron(seed=1)
    assert all(r.passed for r in report.rows)
    # the seeded matching once on the scale-3 complex inside find_matching,
    # whose report the pipeline row and the critical complex reuse, and once
    # on the complex with the ten tetrahedra deleted; then VR_2's element
    # matching, once for the ten class rows
    assert calls == [3272, 3262, 342]


def test_trace_fails_a_flowed_chain_outside_scale_2(monkeypatch, face_diameter):
    # a flow that lands outside VR_2 fails its class row and the scale-2 row
    # instead of raising from cycle_class
    from ripstone import pipelines
    from ripstone.cli import main
    from ripstone.morse import FlowChain
    from ripstone.patterns import diameter3_tetrahedra

    metric = combinatorial_metric(build_solid("dodecahedron"))
    tets = diameter3_tetrahedra(metric)
    face = next(
        s
        for s in vr_complex(metric, 3).simplices(3)
        if face_diameter(metric, s) == 3 and s not in tets
    )
    stray = FlowChain(chain=make_chain(2, dict(simplex_boundary(face))), steps=0)
    monkeypatch.setattr(pipelines, "morse_flow", lambda c, m, z: stray)

    report = pipelines.trace_dodecahedron(seed=1)
    assert not report.passed
    rows = {r.subject: r for r in report.rows}
    classes = [r for r in report.rows if r.subject.startswith("class of the flowed")]
    assert len(classes) == 10 and not any(r.passed for r in classes)
    assert all("not in VR_2" in r.computed for r in classes)
    scale2 = rows["flowed boundaries live at scale 2"]
    assert not scale2.passed and scale2.computed.startswith("tetrahedron 1 uses ")
    assert rows["matching certified acyclic"].passed

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["dodeca", "trace", "--seed", "1"]) == 1


@pytest.mark.parametrize("seed", [1, 2, 3, 1456464704])
def test_trace_route_agrees_with_diameters_and_the_punctured_complex(
    monkeypatch, face_diameter, seed
):
    # the trace's candidates are the diameter-3 faces; its classes are read
    # in VR_2, because the punctured complex the flow runs in has no
    # element matching to read them off: the identity order leaves critical
    # counts (1, 0, 2, 1) there, and its Morse d_3 is not zero
    from ripstone import pipelines
    from ripstone.homology import cycle_class
    from ripstone.morse import _element_matching
    from ripstone.simplicial import mask_of

    seen = {}
    search, flow = pipelines._find_matching, pipelines.morse_flow

    def recording_search(c, cand_masks, forced_masks, *rest):
        seen["candidates"] = set(cand_masks)
        return search(c, seen["candidates"], forced_masks, *rest)

    def recording_flow(c, m, z):
        flowed = flow(c, m, z)
        seen.setdefault("flows", []).append((c, flowed.chain))
        return flowed

    monkeypatch.setattr(pipelines, "_find_matching", recording_search)
    monkeypatch.setattr(pipelines, "morse_flow", recording_flow)
    report = pipelines.trace_dodecahedron(seed=seed)
    assert report.passed

    metric = combinatorial_metric(build_solid("dodecahedron"))
    c3 = vr_complex(metric, 3)
    diameter3 = {mask_of(s) for s in all_faces(c3) if face_diameter(metric, s) == 3}
    assert seen["candidates"] == diameter3
    assert len(seen["flows"]) == 10
    pruned = seen["flows"][0][0]
    assert pruned.face_total() == 3262
    counts = [len(level) for level in check_matching(pruned, _element_matching(pruned)).levels]
    assert counts == [1, 0, 2, 1]
    for c, z in seen["flows"]:
        with pytest.raises(ParameterError, match=r"Morse d_3 is not zero"):
            cycle_class(c, z)


# The class rows of the ten flowed tetrahedron boundaries, recorded from the
# trace when it classified them by Smith reduction of VR_2's boundary maps,
# before classes were read off VR_2's element matching; the same for each
# seed, sign included.
RECORDED_CLASS_ROWS = ("(1)", "(1)", "(-1)", "(-1)", "(-1)", "(1)", "(-1)", "(1)", "(1)", "(-1)")


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8, 1456464704, 1502171856])
def test_trace_class_rows_match_the_recorded_classes(seed):
    from ripstone.pipelines import trace_dodecahedron

    report = trace_dodecahedron(seed=seed)
    assert report.passed
    rows = [r.computed for r in report.rows if r.subject.startswith("class of the flowed")]
    assert tuple(rows) == RECORDED_CLASS_ROWS


def test_trace_builds_the_element_matching_at_scale_2_only(monkeypatch):
    # cycles are classified in the 342-face VR_2, never in the 3,262-face
    # punctured complex
    from ripstone import morse, pipelines

    sizes = []
    build = morse._element_matching
    monkeypatch.setattr(
        morse, "_element_matching", lambda c: sizes.append(c.face_total()) or build(c)
    )
    assert pipelines.trace_dodecahedron(seed=1).passed
    assert sizes and set(sizes) == {342}


def test_critical_complex_flows_each_cell_once(monkeypatch, face_diameter):
    # seed 3's Morse complex meets a non-unit pivot in d_3; finishing the
    # unit-pivot pass around it must not flow any critical cell again
    from ripstone import morse
    from ripstone.patterns import diameter3_tetrahedra
    from ripstone.simplicial import mask_of

    metric = combinatorial_metric(build_solid("dodecahedron"))
    c3 = vr_complex(metric, 3)
    candidate = [
        s
        for k in range(c3.dim + 1)
        for s in c3.simplices(k)
        if face_diameter(metric, s) == 3
    ]
    m = find_matching(c3, candidate, forced_critical=diameter3_tetrahedra(metric), seed=3)
    critical = {mask_of(s) for s in check_matching(c3, m).critical}

    flowed = []
    flow = morse._flow_to_fixpoint

    def counted(chain, v_map, limit, cycle=False):
        cell = 0
        for facet in chain:  # the boundary of a cell; its facets span it
            cell |= facet
        flowed.append(cell)
        return flow(chain, v_map, limit, cycle)

    monkeypatch.setattr(morse, "_flow_to_fixpoint", counted)
    assert critical_complex_homology(c3, m).betti[:4] == (1, 0, 0, 9)
    assert flowed and set(flowed) <= critical
    assert len(flowed) == len(set(flowed))


# sha256 of serialize_matching of the trace's matching (the diameter-3 faces
# of the dodecahedron's VR_3, the ten tetrahedra forced critical) per seed,
# recorded from the search as it was before it ran on face positions.
# 1456464704 and 1502171856 are the trace seeds of the scale3 benchmark at
# --seed 1.
PINNED_TRACE_MATCHINGS = {
    1: "1f5a03058d6fda94c6b55e889f3a00ad15f7823a94450532daf2976db5eecda3",
    2: "ff4f72ad0028d7b7613faf5ce7e7626acf60e91953e32edb64f38c2cae98f3b1",
    3: "7808213015bab56a8dd1d9c7751deb9faa241ddd0ca160d242fcdf60cbbe8f6c",
    4: "17662375c916ed3d295d79d2910eb83ff917fb2330b2b6460149d77bffc470ed",
    5: "0bd8fc18c956bfcd117ce4920df90b3775d7c05d85c6da84458cecac3ea24a43",
    6: "a8c7c0e37ff48cee1de17b426d9cc2e6a632906e52803e799fe4498dbb7b288e",
    7: "7e25cb5605fb2acdd0bc386f80989fb8c88d744db4e889cf79713b30672afb18",
    8: "7da067e33e4dbd822478f4a878fa4751bd0f1a37ff5439a02cf6f4e3f714b7c0",
    1456464704: "100283448baeba7d5304e6a1d467b1623215f836e2505a70dc6e6b9106800ac9",
    1502171856: "af5e41f7ebbc77973e51cbd6067e814c107e58581fe2ca2aba959426b41e6fd5",
}


def _trace_search():
    """VR_3 of the dodecahedron, the trace's candidate masks and its forced tetrahedra."""
    from ripstone.patterns import diameter3_tetrahedra
    from ripstone.simplicial import mask_of

    metric = combinatorial_metric(build_solid("dodecahedron"))
    c3 = vr_complex(metric, 3)
    scale2 = {mask for level in vr_complex(metric, 2).faces for mask in level}
    candidate = {mask for level in c3.faces for mask in level if mask not in scale2}
    return c3, candidate, [mask_of(t) for t in diameter3_tetrahedra(metric)]


def _digest(m):
    import hashlib

    from ripstone.formats import serialize_matching

    return hashlib.sha256(serialize_matching(m).encode()).hexdigest()


def test_seeded_trace_matchings_are_pinned():
    from ripstone.morse import _find_matching

    c3, candidate, forced = _trace_search()
    for seed, digest in PINNED_TRACE_MATCHINGS.items():
        assert _digest(_find_matching(c3, candidate, forced, seed, 1000)) == digest, seed


def test_shuffled_levels_are_stored_sorted_and_find_the_same_matching(monkeypatch, closed_complex):
    import random

    from ripstone import morse

    keyed = []
    canonical = morse._matching  # sorts its pairs by their vertex tuples
    monkeypatch.setattr(morse, "_matching", lambda pairs: keyed.append(1) or canonical(pairs))
    c3, candidate, forced = _trace_search()
    m = morse._find_matching(c3, candidate, forced, 1, 1000)
    assert _digest(m) == PINNED_TRACE_MATCHINGS[1]

    rng = random.Random(1)
    shuffled = closed_complex([rng.sample(level, len(level)) for level in c3.faces])
    assert shuffled.faces == c3.faces  # the oracle sorts each level into lex order
    again = morse._find_matching(shuffled, candidate, forced, 1, 1000)
    assert not keyed  # the search reads its order off the storage, never a sort key
    assert _digest(again) == PINNED_TRACE_MATCHINGS[1]


def test_failed_search_surplus_and_attempts_are_pinned():
    # VR_3 has H_3 = Z^9, so no search collapses it onto one or two
    # vertices; the best of three attempts' surplus (sha256 of its repr),
    # recorded like the trace matchings above
    import hashlib

    def digest(surplus):
        return hashlib.sha256(repr(surplus).encode()).hexdigest()

    c = vr_complex(combinatorial_metric(build_solid("dodecahedron")), 3)
    pinned = {
        1: (906, "4b04aa39c8937e35ec3e817ce30327ffc75e5e30e8585a1a527934686f23cb09"),
        2: (882, "88fd99623c90a3732c85179d8c7d824531a446c0f6163b60b7626c79825c1609"),
    }
    for seed, (size, want) in pinned.items():
        with pytest.raises(SearchFailure) as exc:
            find_matching(c, all_faces(c), forced_critical=[(0,), (1,)], seed=seed, max_attempts=3)
        assert exc.value.attempts == 3
        assert str(exc.value) == "no perfect matching on 3270 cells within 3 attempts"
        assert len(exc.value.surplus) == size
        assert digest(exc.value.surplus) == want
    # one vertex forced leaves an odd number of cells, which no matching
    # pairs: the search stops after its first attempt and keeps its surplus
    pinned = {
        1: (935, "c531eadec84f9736d728c95a5359689a705077dd0c3996260757b7ec5a103201"),
        2: (907, "f9bcddeddaf247c9164b1ef5f7034fb939fe0052b138f2315862c1544def2fa4"),
    }
    for seed, (size, want) in pinned.items():
        with pytest.raises(SearchFailure) as exc:
            find_matching(c, all_faces(c), forced_critical=[(0,)], seed=seed)
        assert exc.value.attempts == 1
        assert str(exc.value) == (
            "no perfect matching on 3271 cells within 1 attempts (an odd number of cells)"
        )
        assert len(exc.value.surplus) == size
        assert digest(exc.value.surplus) == want


def _count_digraph_builds(monkeypatch):
    from ripstone import morse

    builds = []
    build = morse._cycle_certificate
    monkeypatch.setattr(morse, "_cycle_certificate", lambda pairs: builds.append(1) or build(pairs))
    return builds


def test_trace_builds_the_acyclicity_digraph_once(monkeypatch):
    from ripstone.pipelines import trace_dodecahedron

    builds = _count_digraph_builds(monkeypatch)
    assert trace_dodecahedron(seed=1).passed
    # one for the seeded matching, certified on the scale-3 complex and the
    # punctured one, and one for VR_2's element matching
    assert len(builds) == 2


def test_validity_stays_per_complex_after_certification(monkeypatch):
    from ripstone.morse import _find_matching
    from ripstone.simplicial import delete_open_cells, vertices_of

    builds = _count_digraph_builds(monkeypatch)
    c3, candidate, forced = _trace_search()
    m = _find_matching(c3, candidate, forced, 1, 1000)
    assert check_matching(c3, m).ok()
    assert "face_set" not in c3.__dict__  # a valid matching is certified by counting
    faces = {mask for level in c3.faces for mask in level}

    def maximal(mask):
        return not any(mask | bit in faces for bit in c3.faces[0] if not mask & bit)

    lo, up = next(p for p in m.pairs if maximal(p[1]))
    without = delete_open_cells(c3, [vertices_of(up)])
    report = check_matching(without, m)
    assert not report.valid and report.critical == () and report.certificate is None
    assert report.violations == (
        f"pair {vertices_of(lo)} -> {vertices_of(up)} uses a simplex outside the complex",
    )
    assert len(builds) == 1


def test_a_cycle_certificate_is_shared_by_every_complex(monkeypatch):
    builds = _count_digraph_builds(monkeypatch)
    square, m = square_cycle_matching()
    cycle = ((0, 1), (1,), (1, 2), (2,), (2, 3), (3,), (0, 3), (0,))
    for c in (square, full_simplex_complex(4)):
        report = check_matching(c, m)
        assert report.valid and not report.acyclic and report.certificate == cycle
    assert check_matching(full_simplex_complex(4), m).critical != ()
    assert len(builds) == 1


def test_candidates_outside_the_complex_are_refused():
    # the search order comes from c's storage, so every candidate must be a
    # face of c, the mask core's as well as find_matching's
    from ripstone import morse
    from ripstone.simplicial import Complex

    tet = full_simplex_complex(4)
    edges = Complex(tet.faces[:2])
    cells = [mask for level in tet.faces for mask in level]
    message = r"^candidate \(0, 1, 2\) is not a face of the complex$"
    with pytest.raises(ParameterError, match=message):
        morse._find_matching(edges, cells, [1], 5, 10)
    with pytest.raises(ParameterError, match=message):
        find_matching(edges, all_faces(tet), [(0,)], seed=5, max_attempts=10)


def _whole_chain_flow(chain, v_map, limit):
    """Reference flow: id + dV + Vd applied to the whole chain at every step.

    The flow as iterated before each step applied the map to the last
    step's change alone; same fixpoint, same step count.
    """
    from ripstone.simplicial import signed_facets

    def add(acc, key, val):
        new = acc.get(key, 0) + val
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)

    cur, steps = chain, 0
    while True:
        nxt = dict(cur)
        for mask, co in cur.items():
            hit = v_map.get(mask)
            if hit is not None:
                up, vsign = hit
                for fmask, fsign in signed_facets(up):
                    add(nxt, fmask, co * vsign * fsign)
            for fmask, fsign in signed_facets(mask):
                hit = v_map.get(fmask)
                if hit is not None:
                    add(nxt, hit[0], co * fsign * hit[1])
        if nxt == cur:
            return cur, steps
        cur = nxt
        steps += 1
        assert steps <= limit


@st.composite
def collapse_matchings(draw):
    """A complex on at most 7 vertices and a matching of random elementary collapses.

    Each pair is a free face and its one live cofacet, so the matching is
    acyclic; it is partial when the collapses stop early or get stuck.
    """
    from ripstone.morse import _matching

    n = draw(st.integers(min_value=2, max_value=7))
    tops = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    c = from_faces([tuple(sorted(t)) for t in tops])
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    live = {mask for level in c.faces for mask in level}
    pairs = []
    while rng.random() > 0.05:
        free = []
        for lo in sorted(live):
            ups = [lo | 1 << v for v in range(n) if not lo >> v & 1 and lo | 1 << v in live]
            if len(ups) == 1:
                free.append((lo, ups[0]))
        if not free:
            break
        lo, up = rng.choice(free)
        pairs.append((lo, up))
        live -= {lo, up}
    return c, _matching(pairs), rng


@settings(max_examples=150, deadline=None)
@given(collapse_matchings())
def test_change_only_flow_matches_the_whole_chain_iteration(drawn):
    from ripstone.morse import _flow_to_fixpoint
    from ripstone.simplicial import signed_facets

    c, m, rng = drawn
    assert check_matching(c, m).ok()
    limit = c.face_total()
    boundaries = [dict(signed_facets(mask)) for level in c.faces[1:] for mask in level]
    starts = list(boundaries)
    for level in c.faces:
        chain = {mask: rng.randint(-3, 3) for mask in level if rng.random() < 0.5}
        starts.append({mask: co for mask, co in chain.items() if co})
    for i, start in enumerate(starts):
        expected = _whole_chain_flow(dict(start), m._operator, limit)
        assert _flow_to_fixpoint(dict(start), m._operator, limit) == expected
        if i < len(boundaries):  # a cycle: skipping V(d.) keeps the fixpoint and the steps
            assert _flow_to_fixpoint(dict(start), m._operator, limit, cycle=True) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_change_only_flow_matches_the_whole_chain_iteration_on_the_trace(seed):
    # every chain the trace flows: the boundary of each critical cell of VR_3,
    # the ten tetrahedra among them; these are cycles, on which Vd cancels,
    # so each matched edge and triangle is flowed on its own too
    from ripstone.morse import _find_matching, _flow_to_fixpoint
    from ripstone.simplicial import signed_facets

    c3, candidate, forced = _trace_search()
    m = _find_matching(c3, candidate, forced, seed, 1000)
    limit = c3.face_total()
    cells = [mask for level in check_matching(c3, m).levels[1:] for mask in level]
    assert set(forced) <= set(cells)
    starts = [dict(signed_facets(mask)) for mask in cells]
    starts += [{mask: 1} for mask in sorted(m._matched) if mask.bit_count() in (2, 3)]
    steps = 0
    for start in starts:
        fixed = _flow_to_fixpoint(dict(start), m._operator, limit)
        assert fixed == _whole_chain_flow(start, m._operator, limit), start
        steps += fixed[1]
    assert steps > 0


def _counted_flows(monkeypatch):
    """Patch morse._flow_to_fixpoint to record each (matching, start chain's terms)."""
    from ripstone import morse

    starts = []
    flow = morse._flow_to_fixpoint

    def counted(chain, v_map, limit, cycle=False):  # v_map is the matching's own pairing operator
        starts.append((id(v_map), frozenset(chain.items())))
        return flow(chain, v_map, limit, cycle)

    monkeypatch.setattr(morse, "_flow_to_fixpoint", counted)
    return starts


def test_a_chain_is_flowed_once_per_matching(monkeypatch):
    starts = _counted_flows(monkeypatch)
    c = full_simplex_complex(5)
    m = fan_matching(5, 0)
    z = make_chain(2, {(1, 2, 3): 1, (1, 3, 4): -2})
    first = morse_flow(c, m, z)
    assert first.steps > 0
    assert morse_flow(c, m, z) == first
    # another complex the matching is certified on shares the flow
    assert morse_flow(full_simplex_complex(6), m, z) == first
    assert len(starts) == 1
    # an equal matching is another object, with flows of its own
    assert morse_flow(c, fan_matching(5, 0), z) == first
    assert len(starts) == 2


def test_a_returned_flow_is_a_copy(monkeypatch):
    from ripstone import morse

    c = full_simplex_complex(5)
    m = fan_matching(5, 0)
    z = make_chain(2, {(1, 2, 3): 1})
    first = morse_flow(c, m, z)
    expected = dict(first.chain.terms)
    first.chain.terms.clear()
    assert morse_flow(c, m, z).chain.terms == expected
    start = {0b11100: 1}
    fixed, steps = morse._stable_flow(m, start, c.face_total())
    kept = dict(fixed)
    fixed[0b11100] = 7
    fixed.pop(next(iter(kept)), None)
    assert morse._stable_flow(m, start, c.face_total()) == (kept, steps)


def test_the_trace_flows_each_start_chain_once(monkeypatch):
    from ripstone.patterns import diameter3_tetrahedra
    from ripstone.pipelines import trace_dodecahedron
    from ripstone.simplicial import mask_of, signed_facets

    starts = _counted_flows(monkeypatch)
    report = trace_dodecahedron(seed=1)
    assert all(r.passed for r in report.rows)
    assert len(starts) == len(set(starts))  # once per matching and start chain
    # the ten tetrahedron boundaries are among them, flowed once through the
    # seeded matching for both the critical complexes and the class rows
    metric = combinatorial_metric(build_solid("dodecahedron"))
    chains = [chain for _m, chain in starts]
    for t in diameter3_tetrahedra(metric):
        assert chains.count(frozenset(signed_facets(mask_of(t)))) == 1
    # the boundary of VR_2's critical triangle is flowed through VR_2's
    # element matching alone: the seeded matching pairs none of its facets,
    # so its column in the seeded matching's Morse complexes is its boundary
    assert chains.count(frozenset(signed_facets(mask_of((6, 7, 12))))) == 1


def test_the_trace_morse_complexes_flow_only_the_tetrahedron_boundaries(monkeypatch):
    # the seeded matching pairs no facet of a VR_2 face, so each of the 342
    # VR_2 cells, critical in both Morse complexes, hands over its mask; the
    # punctured complex flows nothing and the scale-3 one the ten tetrahedra
    from ripstone.morse import _find_matching
    from ripstone.simplicial import delete_open_cells, signed_facets, vertices_of

    c3, candidate, forced = _trace_search()
    m = _find_matching(c3, candidate, forced, 1, 1000)
    pruned = delete_open_cells(c3, [vertices_of(t) for t in forced])
    starts = _counted_flows(monkeypatch)
    assert critical_complex_homology(pruned, m).betti_stripped() == (1, 0, 1)
    assert starts == []
    assert critical_complex_homology(c3, m).betti_stripped() == (1, 0, 0, 9)
    assert sorted(chain for _m, chain in starts) == sorted(
        frozenset(signed_facets(t)) for t in forced
    )


def test_a_cycle_split_by_a_pair_of_another_dimension_is_certified_cyclic():
    # the triangle's 3-cycle (0) -> (0, 1), (1) -> (1, 2), (2) -> (0, 2), with
    # a pair of dimension 1 between its pairs, in a Matching built directly
    from ripstone.morse import Matching
    from ripstone.simplicial import mask_of

    c = from_faces([(0, 1), (1, 2), (0, 2), (3, 4, 5)])
    pairs = [((0,), (0, 1)), ((3, 4), (3, 4, 5)), ((1,), (1, 2)), ((2,), (0, 2))]
    m = Matching(tuple((mask_of(lo), mask_of(up)) for lo, up in pairs))
    report = check_matching(c, m)
    assert report.valid and not report.acyclic and not report.ok()
    assert report.certificate == ((0, 1), (1,), (1, 2), (2,), (0, 2), (0,))
    assert report.certificate == check_matching(c, matching_from_pairs(pairs)).certificate


def _pair_by_pair(c, m):
    """check_matching as a reference: each pair's rules checked on c in turn.

    Acyclicity is read off the whole Hasse diagram, every face to each of
    its facets except a matched facet, which points up to its pair: the
    matching is acyclic exactly when that digraph is.
    """
    from ripstone.morse import MatchingReport
    from ripstone.simplicial import signed_facets, vertices_of

    faces = {mask for level in c.faces for mask in level}
    violations, roles = [], {}
    for lo, up in m.pairs:
        if lo not in faces or up not in faces:
            problem = "uses a simplex outside the complex"
        elif up.bit_count() != lo.bit_count() + 1 or lo & ~up:
            problem = "is not a facet-cofacet pair"
        else:
            for cell in (lo, up):
                roles[cell] = roles.get(cell, 0) + 1
                if roles[cell] == 2:
                    violations.append(f"{vertices_of(cell)} occurs in more than one pair")
            continue
        violations.append(f"pair {vertices_of(lo)} -> {vertices_of(up)} {problem}")
    if violations:
        return MatchingReport(False, False, (), None, tuple(violations))
    upper = dict(m.pairs)
    succ = {mask: [f for f, _s in signed_facets(mask) if upper.get(f) != mask] for mask in faces}
    for lo, up in m.pairs:
        succ[lo].append(up)
    indeg = {mask: 0 for mask in faces}
    for outs in succ.values():
        for f in outs:
            indeg[f] += 1
    queue = [mask for mask in faces if not indeg[mask]]
    while queue:
        for f in succ[queue.pop()]:
            indeg[f] -= 1
            if not indeg[f]:
                queue.append(f)
    acyclic = not any(indeg.values())
    matched = {cell for pair in m.pairs for cell in pair}
    critical = tuple(vertices_of(mask) for level in c.faces for mask in level if mask not in matched)
    return MatchingReport(True, acyclic, critical, None, ())


# the planted faults of matchings_with_faults, none in a quarter of the draws
FAULTS = ((), (), ("outside",), ("non-facet",), ("repeated",), ("twice",), ("outside", "repeated"),
          ("non-facet", "twice"))


@st.composite
def matchings_with_faults(draw):
    """A complex on at most 6 vertices and a Matching of drawn pairs in drawn order.

    The pairs are facet-cofacet pairs of the complex, cycles allowed, plus
    any of the planted faults: a cell outside the complex, a non-facet pair,
    a cell repeated in another pair, a pair listed twice.
    """
    from ripstone.morse import Matching
    from ripstone.simplicial import vertices_of

    n = draw(st.integers(min_value=2, max_value=6))
    tops = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    c = from_faces([tuple(sorted(t)) for t in tops])
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    faces = [mask for level in c.faces for mask in level]
    used, pairs = set(), []
    triangles = c.faces[2] if c.dim >= 2 else ()
    if triangles and draw(st.booleans()):  # a rotating, cyclic matching on a triangle's edges
        a, b, d = (1 << v for v in vertices_of(rng.choice(triangles)))
        pairs += [(a, a | b), (b, b | d), (d, a | d)]
        used |= {a, b, d, a | b, b | d, a | d}
    for up in rng.sample(faces, len(faces)):
        lows = [up ^ 1 << v for v in range(n) if up >> v & 1 and up ^ 1 << v in faces]
        lo = rng.choice(lows) if lows else None
        if lo is not None and not {lo, up} & used and rng.random() < 0.6:
            pairs.append((lo, up))
            used |= {lo, up}
    faults = draw(st.sampled_from(FAULTS))
    if "outside" in faults:  # a cell outside the complex
        pairs.append((1 << n, 1 << n | 1))
    if "non-facet" in faults:
        lo = rng.choice(faces)
        pairs.append((lo, lo | 0b11 << n))
    if "repeated" in faults and pairs:  # a cell repeated in another pair
        lo, up = rng.choice(pairs)
        pairs.append((lo, up | 1 << n + 2))
    if "twice" in faults and pairs:  # a pair listed twice
        pairs.append(rng.choice(pairs))
    rng.shuffle(pairs)
    return c, Matching(tuple(pairs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matchings_with_faults())
def test_certification_agrees_with_the_pair_by_pair_check(drawn):
    c, m = drawn
    report, reference = check_matching(c, m), _pair_by_pair(c, m)
    assert report.violations == reference.violations
    assert (report.valid, report.acyclic, report.critical) == (
        reference.valid, reference.acyclic, reference.critical,
    )
    assert (report.certificate is None) == (not report.valid or report.acyclic)
    # a second complex gets its own verdict from the pairs' cached one
    bigger = from_faces([tuple(range(c.faces[0][-1].bit_length() + 3))])
    again, expected = check_matching(bigger, m), _pair_by_pair(bigger, m)
    assert (again.valid, again.acyclic, again.critical, again.violations) == (
        expected.valid, expected.acyclic, expected.critical, expected.violations,
    )
