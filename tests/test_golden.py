"""Golden `--format json` outputs of the command line, compared byte for byte.

Each command's stdout is stored in tests/golden/<name>.json and its exit code
in tests/golden/exit_codes.json.  `solids distances` is left out: its floats
come from libm, and test_polytopes checks them against closed forms.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

from ripstone.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The README's matching-engine example; collapse.vm is written by `morse find`.
# rotor.vm is the rotating matching on the square, a directed cycle; clash.vm
# uses the vertex 0 in three pairs (reported once) and a pair outside tet.cx.
# cone.cx is a join, the cone with apex 2 over the square 0-3-1-4, and
# cone.vm collapses it onto its apex.
FILES = {
    "tet.cx": "0 1 2 3\n",
    "crit.sx": "0\n",
    "z.chain": "-1: 1 2\n1: 0 2\n-1: 0 1\n",
    "square.cx": "0 1\n1 2\n2 3\n0 3\n",
    "rotor.vm": "0 -> 0 1\n1 -> 1 2\n2 -> 2 3\n3 -> 0 3\n",
    "clash.vm": "2 3 -> 2 3 9\n0 -> 0 3\n0 -> 0 1\n1 -> 1 2\n0 -> 0 2\n",
    "cone.cx": "0 2 3\n1 2 3\n0 2 4\n1 2 4\n",
    "cone.vm": "0 -> 0 2\n1 -> 1 2\n3 -> 2 3\n4 -> 2 4\n"
    "0 3 -> 0 2 3\n1 3 -> 1 2 3\n0 4 -> 0 2 4\n1 4 -> 1 2 4\n",
}

COMMANDS = (
    ("solids_list", ["solids", "list"]),
    ("vr_build_octahedron_r1", ["vr", "build", "octahedron", "--r", "1"]),
    ("vr_build_dodecahedron_r3", ["vr", "build", "dodecahedron", "--r", "3"]),
    ("vr_homology_dodecahedron_r3", ["vr", "homology", "dodecahedron", "--r", "3"]),
    ("verify_main_theorem", ["verify", "main-theorem"]),
    ("dodeca_tetrahedra", ["dodeca", "tetrahedra"]),
    ("dodeca_trace_seed1", ["dodeca", "trace", "--seed", "1"]),
    # the two trace seeds the scale3 benchmark workload runs
    ("dodeca_trace_seed1456464704", ["dodeca", "trace", "--seed", "1456464704"]),
    ("dodeca_trace_seed1502171856", ["dodeca", "trace", "--seed", "1502171856"]),
    ("symmetry_report", ["symmetry", "report"]),
    ("cube_series_max8", ["cube", "series", "--max-n", "8"]),
    ("cube_verify_n4", ["cube", "verify", "--n", "4"]),
    ("morse_find", ["morse", "find", "--complex", "tet.cx", "--critical", "crit.sx"]),
    ("morse_check", ["morse", "check", "--complex", "tet.cx", "--matching", "collapse.vm"]),
    (
        "morse_check_cycle",
        ["morse", "check", "--complex", "square.cx", "--matching", "rotor.vm"],
    ),
    (
        "morse_check_violations",
        ["morse", "check", "--complex", "tet.cx", "--matching", "clash.vm"],
    ),
    ("morse_check_join", ["morse", "check", "--complex", "cone.cx", "--matching", "cone.vm"]),
    (
        "morse_flow",
        ["morse", "flow", "--complex", "tet.cx", "--matching", "collapse.vm", "--chain", "z.chain"],
    ),
)


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def run_commands(workdir: Path) -> dict[str, tuple[int, bytes]]:
    """Exit code and JSON stdout of every golden command, run in workdir."""
    paths = {name: str(workdir / name) for name in (*FILES, "collapse.vm")}
    for name, text in FILES.items():
        Path(paths[name]).write_text(text, encoding="utf-8")
    code, table = _run(["morse", "find", "--complex", paths["tet.cx"], "--critical", paths["crit.sx"]])
    assert code == 0
    Path(paths["collapse.vm"]).write_bytes(table)
    results = {}
    for name, argv in COMMANDS:
        results[name] = _run([paths.get(a, a) for a in argv] + ["--format", "json"])
    return results


def test_cli_json_matches_goldens(tmp_path, monkeypatch):
    monkeypatch.delenv("RIPSTONE_SEED", raising=False)
    results = run_commands(tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert {name: code for name, (code, _out) in results.items()} == codes
    for name, (_code, out) in results.items():
        assert out == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":
    import tempfile

    os.environ.pop("RIPSTONE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        results = run_commands(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for name, (_code, out) in results.items():
        (GOLDEN / f"{name}.json").write_bytes(out)
    codes = {name: code for name, (code, _out) in results.items()}
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
