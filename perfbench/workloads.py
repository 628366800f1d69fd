"""The three workloads: what one pass runs, and how its outputs are checked.

A pass calls ripstone through module attributes looked up at call time, so
an installed tracer sees every call.  Checks run after the pass's clock has
stopped; each output (one CLI call, or one complex file) is one check.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import inputs

# The paper's unreduced Betti tables, trailing zeros dropped, per solid and
# integer scale r = 0, 1, ...
PAPER_BETTI = {
    "tetrahedron": ((4,), (1,)),
    "cube": ((8,), (1, 5), (1, 0, 0, 1), (1,)),
    "octahedron": ((6,), (1, 0, 1), (1,)),
    "dodecahedron": (
        (20,),
        (1, 11),
        (1, 0, 1),
        (1, 0, 0, 9),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1,),
    ),
    "icosahedron": ((12,), (1, 0, 1), (1, 0, 0, 0, 0, 1), (1,)),
}

# Claims of the paper that scale3's reports must state, by report title and
# row subject, in the reports' rendering of values.
SCALE3_PINNED = {
    "dodecahedron scale-3 trace": {
        "pairwise-distance-3 tetrahedra": "10",
        "critical complex betti with tetrahedra removed": "(1, 0, 1)",
        "scale-3 betti via the critical complex": "(1, 0, 0, 9)",
        "H3 rank at scale 3": "9",
    },
    "dodecahedron symmetry of the ten tetrahedra": {
        "full automorphism group order": "120",
        "derived subgroup order": "60",
        "orbit sizes under the derived subgroup": "(5, 5)",
        "orbit sizes under the full group": "(10)",
        "H3 rank at scale 3": "9",
    },
    f"cube distance-2 cross-check, n={inputs.SCALE3_CUBE_N}": {
        "wedge of 3-spheres shape": "yes",
    },
}


def _tuple_text(t) -> str:
    return "(" + ", ".join(str(x) for x in t) + ")"


@dataclass(frozen=True)
class Check:
    ok: bool
    detail: str = ""


class CliWorkload:
    """main_theorem and scale3: in-process `ripstone.cli.main` calls, JSON out."""

    def __init__(self, name: str, seed: int) -> None:
        self.argvs = inputs.cli_argvs(name, seed)
        if name == "main_theorem":
            pinned = {
                "betti tables for all solids and scales": {
                    f"{solid} r={r} betti": _tuple_text(b)
                    for solid, table in PAPER_BETTI.items()
                    for r, b in enumerate(table)
                }
            }
        else:
            pinned = SCALE3_PINNED
        self.expected = {"exit": 0, "pinned": pinned}

    def run_pass(self) -> list:
        cli = sys.modules["ripstone.cli"]
        out = []
        for argv in self.argvs:
            so, se = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(so), redirect_stderr(se):
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed output, not a stopped benchmark
                rc = None
                se.write(traceback.format_exc())
            out.append((argv, rc, so.getvalue(), se.getvalue()))
        return out

    def check(self, outputs) -> list[Check]:
        return [self._check_one(*o) for o in outputs]

    def _check_one(self, argv, rc, stdout, stderr) -> Check:
        where = " ".join(argv)
        if rc != self.expected["exit"]:
            return Check(False, f"{where}: exit {rc}: {stderr.strip()[-300:]}")
        try:
            report = json.loads(stdout)
            title = report["title"]
            rows = {r["subject"]: r for r in report["rows"]}
            all_passed = report["passed"] is True and all(r["passed"] is True for r in report["rows"])
        except (ValueError, KeyError, TypeError) as e:
            return Check(False, f"{where}: unreadable report: {e!r}")
        if not rows or not all_passed:
            return Check(False, f"{where}: a report row did not pass")
        if title not in self.expected["pinned"]:
            return Check(False, f"{where}: unexpected report {title!r}")
        for subject, computed in self.expected["pinned"][title].items():
            got = rows.get(subject, {}).get("computed")
            if got != computed:
                return Check(False, f"{where}: {subject!r} is {got!r}, expected {computed!r}")
        return Check(True)


class FilesWorkload:
    """random_files: parse_complex -> homology -> serialize_complex per file."""

    def __init__(self, seed: int) -> None:
        self.files = inputs.complex_files(seed)
        self.expected = None  # set from the oracle by set_oracle

    def set_oracle(self, oracle: dict) -> None:
        if oracle["digest"] != inputs.digest(self.files):
            raise RuntimeError("the oracle saw different inputs than this process")
        self.expected = [
            {
                **exp,
                "lines": [" ".join(str(v) for v in s) for s in f.maximal],
            }
            for f, exp in zip(self.files, oracle["complexes"])
        ]

    def run_pass(self) -> list:
        formats = sys.modules["ripstone.formats"]
        hom = sys.modules["ripstone.homology"]
        out = []
        for f in self.files:
            try:
                c = formats.parse_complex(f.text)
                h = hom.homology(c)
                text = formats.serialize_complex(c)
                out.append((c.f_vector(), h.betti, h.torsion, text, None))
            except Exception:  # a crash is a failed output, not a stopped benchmark
                out.append((None, None, None, None, traceback.format_exc()))
        return out

    def check(self, outputs) -> list[Check]:
        return [
            self._check_one(f.name, exp, *o)
            for f, exp, o in zip(self.files, self.expected, outputs)
        ]

    @staticmethod
    def _check_one(name, exp, f_vector, betti, torsion, text, error) -> Check:
        if error is not None:
            return Check(False, f"{name}: {error.strip()[-300:]}")
        even = [sum(1 for d in t if d % 2 == 0) for t in torsion]
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        for what, got, want in (
            ("f-vector", list(f_vector), exp["f_vector"]),
            ("betti", list(betti), exp["betti"]),
            ("even torsion factors", even, exp["even_torsion"]),
            ("serialized maximal faces", lines, exp["lines"]),
        ):
            if got != want:
                return Check(False, f"{name}: {what} {str(got)[:200]} != {str(want)[:200]}")
        return Check(True)


def make(name: str, seed: int):
    if name == "random_files":
        return FilesWorkload(seed)
    return CliWorkload(name, seed)
