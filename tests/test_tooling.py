"""What the benchmark tooling relies on: names that still exist, tables that still agree."""

import ast
import importlib
import re
import shlex
from pathlib import Path
from types import ModuleType

import ripstone
from ripstone.pipelines import EXPECTED_BETTI

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _literal(path: Path, name: str):
    """A module-level literal assignment, read from the source without running it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {path}")


def test_public_names_and_traced_functions_resolve():
    # The tracer skips a function that is gone, so a per-layer metric would
    # vanish without an error; check every traced name here instead.
    missing = [name for name in ripstone.__all__ if not hasattr(ripstone, name)]
    for module, names in _literal(PERFBENCH / "tracing.py", "TRACED").items():
        mod = importlib.import_module(f"ripstone.{module}")
        missing += [f"{module}.{name}" for name in names if not callable(getattr(mod, name, None))]
    assert missing == []


def test_public_surface_is_pinned():
    # a name added to or dropped from the exports must change this list too
    assert sorted(ripstone.__all__) == [
        "Chain", "CharacterData", "Complex", "DistanceMatrix", "DistanceTable", "FlowChain",
        "FormatError", "HomologyResult", "IntMatrix", "Matching", "MatchingReport",
        "ParameterError", "PermGroup", "PolytopeGraph", "PreconditionError", "Report", "ReportRow",
        "RipstoneError", "SNFResult", "SOLIDS", "SearchFailure", "StructuralError",
        "VerificationError", "antipodal_free_complex", "automorphisms", "build_solid",
        "check_matching", "combinatorial_metric", "conjugacy_classes", "critical_complex_homology",
        "cube_graph", "cycle_class", "delete_open_cells", "diameter3_tetrahedra", "distance_table",
        "embeddings", "euler_characteristic", "face_count", "fan_matching",
        "fan_triangulation", "find_matching", "flip_matching_update", "from_faces",
        "full_simplex_complex", "homology", "make_chain", "matching_from_pairs",
        "maximal_simplices", "morse_flow", "parse_chain", "parse_complex", "parse_matching",
        "parse_simplex_list", "rotation_subgroup", "row", "serialize_chain", "serialize_complex",
        "serialize_matching", "simplex", "simplex_boundary",
        "skeleton_betti_top", "smith_normal_form", "solid_info", "symmetry_report",
        "tetrahedra_orbits", "trace_dodecahedron", "verify_cube_series", "verify_cube_vr2", "verify_main_theorem",
        "verify_remark", "vr_complex",
    ]


def test_public_names_are_the_imported_objects_not_submodules():
    # __all__ is derived from the package globals; homology is both a
    # submodule and a function, and the package exports the function
    modules = [name for name in ripstone.__all__ if isinstance(getattr(ripstone, name), ModuleType)]
    assert modules == []
    assert "homology" in ripstone.__all__
    assert ripstone.homology is importlib.import_module("ripstone.homology").homology


def test_benchmark_betti_table_is_the_program_table():
    # the benchmark pins the paper's Betti tables in its own copy; the two
    # must not drift apart
    assert _literal(PERFBENCH / "workloads.py", "PAPER_BETTI") == EXPECTED_BETTI


def test_complexes_keep_what_the_tracer_reads():
    # perfbench/tracing.py counts faces with face_total() and cones by
    # cone_vertex; Complex is a plain class, so check both on each kind
    from ripstone.simplicial import Complex, from_faces, full_simplex_complex

    kinds = [
        (Complex(vertex_count=2, faces=[[0b01, 0b10], [0b11]]), None, 3),
        (full_simplex_complex(3), 0, 7),
        (from_faces([(0, 1), (1, 2)]), None, 5),
    ]
    for c, cone, total in kinds:
        assert c.cone_vertex == cone
        assert c.face_total() == total


def test_each_shared_helper_is_defined_once():
    # one mask conversion, one facet rule, one polynomial product, one sparse
    # row update and one orbit walk: a second copy anywhere fails here
    shared = ("mask_of", "vertices_of", "signed_facets", "_poly_mul", "_add_into", "_orbits")
    src = Path(ripstone.__file__).resolve().parent
    defined = [
        node.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in shared
    ]
    assert sorted(defined) == sorted(shared)


def test_readme_commands_parse():
    # every ripstone line in the README's sh blocks names a command and
    # options the parser accepts; redirections and comments are not argv
    from ripstone.cli import _build_parser

    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("ripstone ")]
    assert len(lines) >= 14  # both sh blocks are read
    for line in lines:
        words = shlex.split(line, comments=True)
        argv = words[1 : words.index(">") if ">" in words else None]
        assert _build_parser(argv).parse_args(argv).command == argv[0], line
