"""What the benchmark tooling relies on: names that still exist, tables that still agree."""

import argparse
import ast
import importlib
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
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
        "FormatError", "HomologyResult", "Matching", "MatchingReport",
        "ParameterError", "PermGroup", "PolytopeGraph", "PreconditionError", "Report", "ReportRow",
        "RipstoneError", "SNFResult", "SOLIDS", "SearchFailure", "StructuralError",
        "antipodal_free_complex", "automorphisms", "build_solid",
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


def test_public_options_are_pinned():
    # an optional parameter added to or dropped from a public callable must
    # change this table too; a complex is given by its faces and nothing else
    options = {}
    for name in ripstone.__all__:
        obj = getattr(ripstone, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an exception class with the builtin constructor
            continue
        defaults = [p.name for p in params if p.default is not p.empty]
        if defaults:
            options[name] = defaults
    assert options == {
        "FormatError": ["line", "token"],
        "MatchingReport": ["levels"],
        "PolytopeGraph": ["coords"],
        "SearchFailure": ["surplus", "attempts"],
        "find_matching": ["forced_critical", "seed", "max_attempts"],
        "row": ["passed"],
        "trace_dodecahedron": ["seed", "max_attempts"],
    }
    assert list(inspect.signature(ripstone.Complex).parameters) == ["faces"]


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
    # cone_vertex on every complex passed to homology; Complex is a plain
    # class, so check both on each kind a workload hands it
    from ripstone.formats import parse_complex
    from ripstone.polytopes import build_solid, combinatorial_metric
    from ripstone.simplicial import delete_open_cells, from_faces, full_simplex_complex, vr_complex

    cross = vr_complex(combinatorial_metric(build_solid("octahedron")), 1)  # S^0 * S^0 * S^0
    (_keep, zero_sphere), *_rest = cross.join_factors
    listed_join = parse_complex("0 4\n0 5\n1 4\n1 5\n")  # the square {0, 1} * {4, 5}
    assert listed_join.join_factors
    kinds = [
        (cross, None, 26),
        (zero_sphere, None, 2),
        (full_simplex_complex(3), 0, 7),
        (from_faces([(0, 1), (1, 2)]), None, 5),
        (listed_join, None, 8),
        (delete_open_cells(full_simplex_complex(3), [(0, 1, 2)]), None, 6),
    ]
    for c, cone, total in kinds:
        assert c.cone_vertex == cone
        assert c.face_total() == total


def test_each_shared_helper_is_defined_once():
    # one mask conversion, one facet rule, one polynomial product, one sparse
    # row update, one chain boundary and one orbit walk: a second copy
    # anywhere fails here
    shared = (
        "mask_of", "vertices_of", "signed_facets", "_poly_mul", "_add_into", "_boundary", "_orbits"
    )
    src = Path(ripstone.__file__).resolve().parent
    defined = [
        node.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in shared
    ]
    assert sorted(defined) == sorted(shared)


def test_the_cli_keeps_no_parser_across_calls():
    # perfbench/run.py empties memo caches between passes so that each pass
    # does a fresh call's work; a parser kept at module level, or memoized
    # where a cache_clear would have to find it, would let a pass skip that
    from ripstone import cli

    assert [n for n, v in vars(cli).items() if isinstance(v, argparse.ArgumentParser)] == []
    assert not hasattr(cli._build_parser, "cache_clear")
    assert not hasattr(cli._build_parser, "cache_info")


def test_only_the_cli_touches_the_garbage_collector():
    # cli.main pauses the cyclic collector for one command and gives the
    # caller's setting back; a library call keeps its caller's setting
    src = Path(ripstone.__file__).resolve().parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "gc" in names:
                importers.append(f"ripstone.{path.stem}")
    assert importers == ["ripstone.cli"]


def test_module_entry_point_prints_what_main_prints():
    # the README's `python -m ripstone.cli` form, in a fresh interpreter
    from ripstone.cli import main

    argv = ["solids", "list", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "ripstone.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert done.returncode == code == 0
    assert done.stdout == out.getvalue()


def _readme_sh_lines() -> list[str]:
    """The lines of the README's sh blocks, in order."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    return [line for block in blocks for line in block.splitlines()]


def _redirected(line: str) -> tuple[list[str], str | None]:
    """A shell line's words before any `>`, and the file it redirects to."""
    words = shlex.split(line, comments=True)
    if ">" not in words:
        return words, None
    at = words.index(">")
    return words[:at], words[at + 1]


def test_readme_commands_parse():
    # every ripstone line in the README's sh blocks names a command and
    # options the parser accepts; redirections and comments are not argv
    from ripstone.cli import _build_parser

    lines = [line for line in _readme_sh_lines() if line.startswith("ripstone ")]
    assert len(lines) >= 14  # both sh blocks are read
    for line in lines:
        argv = _redirected(line)[0][1:]
        assert _build_parser(argv).parse_args(argv).command == argv[0], line


def test_readme_commands_run(tmp_path, monkeypatch):
    # the README's printf and ripstone lines, in order, in one directory:
    # each ripstone line exits 0, or 1 where its comment says it fails
    from ripstone.cli import main

    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _readme_sh_lines():
        words, target = _redirected(line)
        if words[:1] == ["printf"]:
            Path(target).write_text(words[-1].encode().decode("unicode_escape"), encoding="utf-8")
        elif words[:1] == ["ripstone"]:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(words[1:])
            if target is not None:
                Path(target).write_text(out.getvalue(), encoding="utf-8")
            assert code == (1 if "# fails" in line else 0), line
            ran += 1
    assert ran >= 14
