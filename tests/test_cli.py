"""Command line behavior: exit codes, formats, determinism, file plumbing."""

import dataclasses
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ripstone import cubeseries, pipelines, simplicial, symmetry
from ripstone.cli import _build_parser, main
from ripstone.patterns import diameter3_tetrahedra

CYCLIC_MATCHING = """\
0 -> 0 1
1 -> 1 2
2 -> 2 3
3 -> 0 3
"""

SQUARE_COMPLEX = """\
0 1
1 2
2 3
0 3
"""


# Usage, help and parse-error argvs whose stdout, stderr and exit code are
# pinned in golden/cli_usage.json.  Regenerate (only when a usage text is
# meant to change) with
#
#     PYTHONPATH=src python tests/test_cli.py
USAGE_TABLE = Path(__file__).parent / "golden" / "cli_usage.json"
GROUPS = ("solids", "vr", "verify", "dodeca", "morse", "cube", "symmetry")
USAGE_ARGVS = (
    [],
    ["-h"],
    ["--help"],
    *([group] for group in GROUPS),
    *([group, "-h"] for group in GROUPS),
    ["-h", "verify"],
    ["frobnicate"],
    ["--bogus", "verify", "main-theorem"],
    ["--format", "json", "verify", "main-theorem"],
    ["--", "solids", "list"],
    ["--", "frobnicate"],
    ["verify", "main-theorem", "-h"],
    ["solids", "distances", "teapot"],
    ["cube", "series", "--max-n", "x"],
    ["dodeca", "trace", "--seed", "x"],
    ["vr", "homology", "cube"],
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_solids_list():
    code, out, _ = run(["solids", "list"])
    assert code == 0
    assert "dodecahedron" in out and "icosahedron" in out


def test_solids_distances_json():
    code, out, _ = run(["solids", "distances", "octahedron", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1


def test_unknown_solid_is_a_usage_error():
    code, _, err = run(["solids", "distances", "teapot"])
    assert code == 2
    assert "error" in err.lower()


def test_unknown_command_is_a_usage_error():
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_vr_build_output_is_parseable():
    code, out, _ = run(["vr", "build", "octahedron", "--r", "1"])
    assert code == 0
    from ripstone.formats import parse_complex

    c = parse_complex(out)
    assert c.f_vector() == (6, 12, 8)


def test_vr_homology_octahedron():
    code, out, _ = run(["vr", "homology", "octahedron", "--r", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1


def test_verify_main_theorem_passes():
    code, out, _ = run(["verify", "main-theorem"])
    assert code == 0
    assert "result: PASS" in out


def _refuse_complete_graphs(monkeypatch, n):
    """Enumerate cliques as before, except on the complete graph K_n."""
    enumerate_cliques = simplicial._enumerate_cliques
    full = (1 << n) - 1

    def guarded(adj):
        if len(adj) == n and all(a == full ^ (1 << v) for v, a in enumerate(adj)):
            raise AssertionError(f"enumerated the faces of K_{n}")
        return enumerate_cliques(adj)

    monkeypatch.setattr(simplicial, "_enumerate_cliques", guarded)


def test_verify_main_theorem_enumerates_no_cone_face(monkeypatch):
    # dodecahedron r=5 is the full simplex on 20 vertices, 1,048,575 faces
    _refuse_complete_graphs(monkeypatch, 20)
    code, out, _ = run(["verify", "main-theorem"])
    assert code == 0
    assert "result: PASS" in out


def test_joins_are_never_enumerated(refuse_joins):
    # octahedron r=1, cube r=2, icosahedron r=2 and dodecahedron r=4 are
    # joins of zero-spheres; dodecahedron r=4 alone has 59,048 faces
    code, out, _ = run(["verify", "main-theorem"])
    assert code == 0
    assert "result: PASS" in out
    code, out, _ = run(["vr", "homology", "dodecahedron", "--r", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["betti"] == [1] + [0] * 8 + [1]


def test_vr_commands_on_the_cone_enumerate_nothing(refuse_joins):
    # the full simplex on 20 vertices is a join of 20 points: only the
    # one-vertex factors are enumerated
    code, out, _ = run(["vr", "homology", "dodecahedron", "--r", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["betti"] == [1] + [0] * 19
    code, out, _ = run(["vr", "build", "dodecahedron", "--r", "5"])
    assert code == 0
    assert out.splitlines()[1:] == [" ".join(str(v) for v in range(20))]


def test_dodeca_tetrahedra_lists_ten():
    code, out, _ = run(["dodeca", "tetrahedra"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 10


def test_dodeca_trace_json_is_deterministic():
    first = run(["dodeca", "trace", "--seed", "2", "--format", "json"])
    second = run(["dodeca", "trace", "--seed", "2", "--format", "json"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["schema"] == 1


def test_dodeca_trace_search_failure_fails_its_row(monkeypatch):
    # a work cap below one attempt: the search gives up, the report fails
    # its matching row and ends there, and the command exits 1
    from ripstone import morse

    monkeypatch.setattr(morse, "SEARCH_WORK", 1)
    code, out, _ = run(["dodeca", "trace", "--seed", "1", "--format", "json"])
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [r["passed"] for r in rows] == [True, False]
    assert rows[-1]["subject"] == "acyclic matching on diameter-3 faces"
    assert "search failed: no perfect matching" in rows[-1]["computed"]


def test_morse_check_rejects_cycle(tmp_path):
    cpath = tmp_path / "square.cx"
    mpath = tmp_path / "rotor.vm"
    cpath.write_text(SQUARE_COMPLEX)
    mpath.write_text(CYCLIC_MATCHING)
    code, out, _ = run(["morse", "check", "--complex", str(cpath), "--matching", str(mpath)])
    assert code == 1
    assert "result: FAIL" in out


def test_morse_find_and_flow_round_trip(tmp_path):
    cpath = tmp_path / "tet.cx"
    cpath.write_text("0 1 2 3\n")
    crit = tmp_path / "crit.sx"
    crit.write_text("0\n")
    code, out, _ = run(
        ["morse", "find", "--complex", str(cpath), "--critical", str(crit), "--seed", "4"]
    )
    assert code == 0
    pairs = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(pairs) == 7

    mpath = tmp_path / "collapse.vm"
    mpath.write_text(out)
    zpath = tmp_path / "z.chain"
    zpath.write_text("1: 0 1\n-1: 0 2\n1: 1 2\n")
    code, out, _ = run(
        ["morse", "flow", "--complex", str(cpath), "--matching", str(mpath), "--chain", str(zpath)]
    )
    assert code == 0
    assert "stabilized" in out


def test_morse_find_failure_exits_one(tmp_path):
    cpath = tmp_path / "octa.cx"
    run_build = run(["vr", "build", "octahedron", "--r", "1"])
    cpath.write_text(run_build[1])
    code, _, err = run(
        ["morse", "find", "--complex", str(cpath), "--max-attempts", "2", "--seed", "0"]
    )
    assert code == 1
    assert "search failed" in err


def test_morse_find_stops_at_the_work_cap(tmp_path, monkeypatch):
    from ripstone import morse

    # the octahedron sphere plus two pendant edges, so that every attempt
    # makes a random choice and none ends the search early
    cpath = tmp_path / "octa.cx"
    cpath.write_text(run(["vr", "build", "octahedron", "--r", "1"])[1] + "0 6\n1 7\n")
    monkeypatch.setattr(morse, "SEARCH_WORK", 30 * 40)  # 30 faces
    code, _, err = run(["morse", "find", "--complex", str(cpath), "--max-attempts", "1000000000"])
    assert code == 1
    assert "within 40 attempts (the work cap, 1200 attempts x cells)" in err


def test_morse_find_with_a_candidate_outside_the_complex_exits_two(tmp_path):
    cpath = tmp_path / "tet.cx"
    cpath.write_text("0 1 2 3\n")
    cand = tmp_path / "cand.sx"
    cand.write_text("0\n0 4\n")
    code, out, err = run(["morse", "find", "--complex", str(cpath), "--candidate", str(cand)])
    assert (code, out) == (2, "")
    assert err == "error: candidate (0, 4) is not a face of the complex\n"


def test_morse_flow_of_a_chain_outside_the_complex_exits_two(tmp_path):
    cpath = tmp_path / "tet.cx"
    cpath.write_text("0 1 2 3\n")
    mpath = tmp_path / "pair.vm"
    mpath.write_text("0 -> 0 1\n")
    zpath = tmp_path / "z.chain"
    zpath.write_text("1: 0 1\n1: 1 4\n")
    code, out, err = run(
        ["morse", "flow", "--complex", str(cpath), "--matching", str(mpath), "--chain", str(zpath)]
    )
    assert (code, out) == (2, "")
    assert err == "error: chain uses (1, 4), which is not a face of the complex\n"


def test_missing_file_exits_two(tmp_path):
    code, _, err = run(["morse", "check", "--complex", str(tmp_path / "nope.cx"),
                        "--matching", str(tmp_path / "nope.vm")])
    assert code == 2
    assert "error" in err


def test_malformed_file_exits_two(tmp_path):
    cpath = tmp_path / "bad.cx"
    cpath.write_text("0 zebra\n")
    code, _, err = run(["vr", "homology", "octahedron", "--r", "1"])
    assert code == 0
    code, _, err = run(["morse", "check", "--complex", str(cpath), "--matching", str(cpath)])
    assert code == 2
    assert "line 1" in err


def test_huge_face_in_a_complex_file_exits_two_fast(tmp_path):
    # a 24-vertex face has 2^24 - 1 > FACE_BUDGET faces; it is refused
    # before any of them is built
    cpath = tmp_path / "huge.cx"
    cpath.write_text(" ".join(str(v) for v in range(24)) + "\n")
    mpath = tmp_path / "empty.vm"
    mpath.write_text("")
    start = time.perf_counter()
    code, _, err = run(["morse", "check", "--complex", str(cpath), "--matching", str(mpath)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"{simplicial.FACE_BUDGET:,} faces" in err


def test_cube_series_and_verify():
    code, out, _ = run(["cube", "series", "--max-n", "8"])
    assert code == 0
    assert "2561" in out
    for bad in ("-1", "65"):  # the series index guard, outside 0..64
        code, out, err = run(["cube", "series", "--max-n", bad])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""
    code, out, _ = run(["cube", "verify", "--n", "3"])
    assert code == 0
    assert "result: PASS" in out
    code, _, _ = run(["cube", "verify", "--n", "9"])
    assert code == 2


def _rewired(name, drop=(), add=()):
    """An injection: build_solid gives the named solid with the edges in drop
    taken out and those in add put in."""
    real = pipelines.build_solid

    def build(solid):
        g = real(solid)
        if solid != name:
            return g
        adj = list(g.adjacency)
        for (a, b), present in [*((e, True) for e in drop), *((e, False) for e in add)]:
            assert g.adjacent(a, b) == present
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
        return dataclasses.replace(g, adjacency=tuple(adj))

    return lambda mp: mp.setattr(pipelines, "build_solid", build)


def _series_off_by_one(mp):
    series = cubeseries._main_series
    mp.setattr(cubeseries, "_main_series", lambda upto: [c + 1 for c in series(upto)])


# Injected faults: each runs one report command with one claim broken,
# names the rows that must fail, every other row passing, and counts the
# rows the report must print.
INJECTED_FAULTS = {
    "order-3 rotations predicted to fix no tetrahedron": (
        ["symmetry", "report"],
        lambda mp: mp.setitem(symmetry._NATURAL_FIXED_BY_ORDER, 3, 0),
        ["class 2: size 20, order 3, rotation: fixed count"],
        17,
    ),
    "the full group taken for its derived subgroup": (
        ["symmetry", "report"],
        lambda mp: mp.setattr(pipelines, "rotation_subgroup", lambda g: g),
        [
            "derived subgroup order",
            "derived subgroup is simple",
            "orbit sizes under the derived subgroup",
            "class 3: size 15, order 2, rotation: fixed count",
            "class 4: size 20, order 6, rotation: fixed count",
            "class 8: size 12, order 10, rotation: fixed count",
            "class 9: size 12, order 10, rotation: fixed count",
            "class 10: size 1, order 2, rotation: fixed count",
        ],
        17,
    ),
    "nine tetrahedra found": (
        # nine forced critical cells leave an odd number to pair, so the
        # search stops after one attempt and the report at its matching row
        ["dodeca", "trace"],
        lambda mp: mp.setattr(pipelines, "diameter3_tetrahedra", lambda m: diameter3_tetrahedra(m)[:9]),
        ["pairwise-distance-3 tetrahedra", "acyclic matching on diameter-3 faces"],
        2,
    ),
    "a dodecahedron rewired by a degree-preserving edge swap": (
        ["verify", "main-theorem"],
        _rewired("dodecahedron", drop=[(0, 11), (2, 9)], add=[(0, 9), (2, 11)]),
        [
            "dodecahedron r=2 betti",
            "dodecahedron r=3 betti",
            "dodecahedron r=4 betti",
            "dodecahedron r=4 equals the antipodal-pair-free complex",
            "dodecahedron r=2 maximal face census (dimension, count)",
        ],
        28,
    ),
    "a cube with the chord (0, 3)": (
        # 0 and 3 share a square, whose chord puts 0 within two hops of
        # every vertex: VR_2 is a cone, not the cross-polytope boundary
        ["verify", "main-theorem"],
        _rewired("cube", add=[(0, 3)]),
        [
            "cube r=1 betti",
            "cube r=2 betti",
            "cube r=1 equals the boundary complex",
            "cube r=2 equals the antipodal-pair-free complex",
        ],
        28,
    ),
    "one wrong Betti number expected": (
        ["verify", "main-theorem"],
        lambda mp: mp.setitem(pipelines.EXPECTED_BETTI, "cube", ((8,), (1, 5), (1, 0, 0, 2), (1,))),
        ["cube r=2 betti"],
        28,
    ),
    "the main series off by one, against one cube": (
        ["cube", "verify", "--n", "4"],
        _series_off_by_one,
        [
            "betti3 of the distance-2 complex of the 4-cube",
            "2 f(n,3) - skeleton betti (n,2)",
            "skeleton betti (n+1,3)",
        ],
        4,
    ),
    "the main series off by one, against the counts": (
        ["cube", "series", "--max-n", "8"],
        _series_off_by_one,
        [f"x^{n} coefficient, count formula and shifted skeleton" for n in range(9)],
        9,
    ),
}


@pytest.mark.parametrize("fault", INJECTED_FAULTS)
def test_an_injected_fault_fails_exactly_its_rows(fault, monkeypatch):
    argv, inject, failing, rows = INJECTED_FAULTS[fault]
    inject(monkeypatch)
    code, out, err = run([*argv, "--format", "json"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["passed"] is False
    assert [r["subject"] for r in report["rows"] if not r["passed"]] == failing
    assert len(report["rows"]) == rows  # every claim is stated, whatever an earlier row found


def test_symmetry_report_runs():
    code, out, _ = run(["symmetry", "report", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["title"]


def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0


def _usage_rows():
    rows = []
    for argv in USAGE_ARGVS:
        code, out, err = run(argv)
        rows.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    return rows


def test_usage_help_and_parse_errors_match_the_table(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert _usage_rows() == json.loads(USAGE_TABLE.read_text(encoding="utf-8"))



def _action_groups(parser):
    """The command groups of a parser that were given action subparsers."""
    (commands,) = (a for a in parser._actions if a.dest == "command")
    return [
        name
        for name, group in commands.choices.items()
        if any(a.dest == "action" for a in group._actions)
    ]


def test_only_the_named_group_gets_action_parsers():
    assert _action_groups(_build_parser(["verify", "main-theorem"])) == ["verify"]
    assert _action_groups(_build_parser(["--bogus", "morse", "find"])) == ["morse"]
    assert _action_groups(_build_parser(["-h"])) == []
    assert _action_groups(_build_parser(["frobnicate"])) == []


def test_verify_main_theorem_closes_no_listed_faces(monkeypatch):
    # every row is read off the 19 VR complexes the Betti rows build: none
    # goes through the from_faces closure, and no complex is given its levels
    from ripstone.pipelines import verify_main_theorem

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify main-theorem closed a list of faces")

    built, given = [], []
    vr = pipelines.vr_complex
    levels = simplicial.Complex._built.__func__
    monkeypatch.setattr(simplicial, "_closure", refuse)
    monkeypatch.setattr(pipelines, "vr_complex", lambda m, r: built.append(r) or vr(m, r))
    monkeypatch.setattr(
        simplicial.Complex, "_built", classmethod(lambda cls, *a: given.append(1) or levels(cls, *a))
    )
    report = verify_main_theorem()
    assert [r.subject for r in report.rows if not r.passed] == []
    assert len(report.rows) == 28
    assert len(built) == sum(map(len, pipelines.EXPECTED_BETTI.values())) == 19
    assert given == []



def test_verify_main_theorem_fails_only_the_row_whose_homology_has_torsion(monkeypatch):
    # Z/2 put into H_1 of cube r=1 (the cube's edge graph, f-vector (8, 12))
    # fails that Betti row alone, and the command exits 1
    from ripstone import pipelines
    from ripstone.homology import HomologyResult

    real = pipelines.homology

    def with_torsion(c):
        h = real(c)
        return HomologyResult(h.betti, ((), (2,))) if c.f_vector() == (8, 12) else h

    monkeypatch.setattr(pipelines, "homology", with_torsion)
    failed = [r for r in pipelines.verify_main_theorem().rows if not r.passed]
    assert [(r.subject, r.computed) for r in failed] == [("cube r=1 betti", "(1, 5) with torsion")]
    code, out, err = run(["verify", "main-theorem", "--format", "json"])
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert not doc["passed"]
    assert [r["computed"] for r in doc["rows"] if not r["passed"]] == ["(1, 5) with torsion"]

if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    USAGE_TABLE.write_text(json.dumps(_usage_rows(), indent=2) + "\n", encoding="utf-8")
