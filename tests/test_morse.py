"""Discrete vector fields: certification, search, flow, fans and flips."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest


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
    with pytest.raises(StructuralError):
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
    with pytest.raises(StructuralError):
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

    def counted(c, m):
        calls.append(c.face_total())
        return certify(c, m)

    monkeypatch.setattr(morse, "check_matching", counted)
    report = trace_dodecahedron(seed=1)
    assert all(r.passed for r in report.rows)
    # once on the scale-3 complex inside find_matching, whose report the
    # pipeline row and the critical complex reuse, and once on the complex
    # with the ten tetrahedra deleted
    assert calls == [3272, 3262]


def test_trace_fails_a_flowed_chain_outside_scale_2(monkeypatch):
    # a flow that lands outside VR_2 fails its class row and the scale-2 row
    # instead of raising from cycle_class
    from ripstone import pipelines
    from ripstone.cli import main
    from ripstone.morse import FlowChain
    from ripstone.patterns import diameter3_tetrahedra
    from ripstone.simplicial import face_diameter

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
def test_trace_route_agrees_with_diameters_and_the_punctured_complex(monkeypatch, seed):
    # the trace's candidates are the diameter-3 faces, and its classes in
    # VR_2 are the classes in the punctured complex the flow runs in
    from ripstone import pipelines
    from ripstone.homology import cycle_class
    from ripstone.reports import fmt_value
    from ripstone.simplicial import face_diameter, mask_of

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
    classes = [r.computed for r in report.rows if r.subject.startswith("class of the flowed")]
    assert len(seen["flows"]) == 10
    assert classes == [fmt_value(cycle_class(pruned, z)) for pruned, z in seen["flows"]]


def test_trace_builds_homology_bases_at_scale_2_only(monkeypatch):
    # no diameter is computed, and cycles are classified in the 342-face
    # VR_2, never in the 3,262-face punctured complex
    import importlib

    from ripstone import pipelines, simplicial

    homology = importlib.import_module("ripstone.homology")  # the package's name is a function

    def refuse(*args):
        raise AssertionError("face_diameter called")

    sizes = []

    class RecordingBasis(homology.HomologyBasis):
        def __init__(self, c, k):
            sizes.append(c.face_total())
            super().__init__(c, k)

    monkeypatch.setattr(simplicial, "face_diameter", refuse)
    monkeypatch.setattr(pipelines, "face_diameter", refuse, raising=False)
    monkeypatch.setattr(homology, "HomologyBasis", RecordingBasis)
    assert pipelines.trace_dodecahedron(seed=1).passed
    assert sizes and max(sizes) <= 342


def test_critical_complex_flows_each_cell_once(monkeypatch):
    # seed 3's Morse complex meets a non-unit pivot in d_3; finishing the
    # unit-pivot pass around it must not flow any critical cell again
    from ripstone import morse
    from ripstone.patterns import diameter3_tetrahedra
    from ripstone.simplicial import face_diameter, mask_of

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

    def counted(chain, v_map, limit):
        cell = 0
        for facet in chain:  # the boundary of a cell; its facets span it
            cell |= facet
        flowed.append(cell)
        return flow(chain, v_map, limit)

    monkeypatch.setattr(morse, "_flow_to_fixpoint", counted)
    assert critical_complex_homology(c3, m).betti[:4] == (1, 0, 0, 9)
    assert flowed and set(flowed) <= critical
    assert len(flowed) == len(set(flowed))
