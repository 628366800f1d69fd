"""Command-line entry point.

Commands mirror the library layers: `solids` and `vr` expose construction,
`morse` drives the matching engine over text files, and `verify`, `dodeca`,
`cube`, and `symmetry` run the canned verification pipelines.  A call builds
only the parsers on its own command path, from the _COMMANDS table: the top
level, the group its first argument names and the action its second names
(see _build_parser).  Exit code 0 means every check passed, 1 means a
verification or search failure, and 2 means bad input: a usage, format, or
file problem, or a cell that is not a face of the given complex.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cubeseries import verify_cube_series, verify_cube_vr2
from .errors import (
    FormatError,
    ParameterError,
    PreconditionError,
    SearchFailure,
    StructuralError,
)
from .formats import (
    parse_chain,
    parse_complex,
    parse_matching,
    parse_simplex_list,
    serialize_chain,
    serialize_complex,
    serialize_matching,
)
from .homology import homology
from .morse import check_matching, find_matching, morse_flow
from .patterns import diameter3_tetrahedra
from .pipelines import symmetry_report, trace_dodecahedron, verify_main_theorem
from .polytopes import (
    SOLIDS,
    build_solid,
    combinatorial_metric,
    distance_table,
    solid_info,
)
from .reports import Report, row
from .simplicial import maximal_simplices, vertices_of, vr_complex


def _emit_report(rep: Report, fmt: str) -> int:
    print(rep.to_json() if fmt == "json" else rep.render_table())
    return 0 if rep.passed else 1


def _emit_payload(payload: dict, table: str, fmt: str) -> int:
    if fmt == "json":
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(table, end="" if table.endswith("\n") else "\n")
    return 0


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_solids_list(args) -> int:
    lines = ["name          vertices  degree  diameter"]
    entries = []
    for name in SOLIDS:
        info = solid_info(name)
        lines.append(f"{name:<12}  {info.v:>8}  {info.n:>6}  {info.k:>8}")
        entries.append(
            {"name": name, "vertices": info.v, "degree": info.n, "diameter": info.k}
        )
    return _emit_payload({"solids": entries}, "\n".join(lines), args.format)


def _cmd_solids_distances(args) -> int:
    table = distance_table(args.name)
    lines = [f"{args.name}: hop, euclidean chord, spherical angle (unit circumsphere)"]
    for hop, chord, angle in table.rows:
        lines.append(f"{hop}  {chord!r}  {angle!r}")
    payload = {
        "name": args.name,
        "rows": [
            {"hop": hop, "euclidean": chord, "spherical": angle}
            for hop, chord, angle in table.rows
        ],
    }
    return _emit_payload(payload, "\n".join(lines), args.format)


def _cmd_vr_build(args) -> int:
    c = vr_complex(combinatorial_metric(build_solid(args.name)), args.r)
    payload = {
        "name": args.name,
        "r": args.r,
        "f_vector": list(c.f_vector()),
        "maximal_faces": [list(s) for s in maximal_simplices(c)],
    }
    return _emit_payload(payload, serialize_complex(c), args.format)


def _cmd_vr_homology(args) -> int:
    c = vr_complex(combinatorial_metric(build_solid(args.name)), args.r)
    res = homology(c)
    table = (
        f"{args.name} r={args.r}\n"
        f"betti: {res.betti}\n"
        f"torsion: {res.torsion}"
    )
    payload = {
        "name": args.name,
        "r": args.r,
        "betti": list(res.betti),
        "torsion": [list(t) for t in res.torsion],
    }
    return _emit_payload(payload, table, args.format)


def _cmd_dodeca_tetrahedra(args) -> int:
    tets = diameter3_tetrahedra(combinatorial_metric(build_solid("dodecahedron")))
    table = "\n".join(" ".join(str(v) for v in t) for t in tets)
    return _emit_payload({"tetrahedra": [list(t) for t in tets]}, table, args.format)


def _cmd_dodeca_trace(args) -> int:
    rep = trace_dodecahedron(seed=args.seed, max_attempts=args.max_attempts)
    return _emit_report(rep, args.format)


def _cmd_morse_check(args) -> int:
    c = parse_complex(_read(args.complex_path))
    m = parse_matching(_read(args.matching_path))
    rep = check_matching(c, m)
    rows = [
        row("matching is valid", True, rep.valid),
        row("matching is acyclic", True, rep.acyclic),
    ]
    for v in rep.violations:
        rows.append(row("violation", "none", v, passed=False))
    if rep.certificate is not None:
        cycle = " -> ".join(str(cell) for cell in rep.certificate)
        rows.append(row("directed cycle", "none", cycle, passed=False))
    if rep.ok():
        rows.append(row("critical cell count", len(rep.critical), len(rep.critical)))
    return _emit_report(Report(title="matching certification", rows=tuple(rows)), args.format)


def _cmd_morse_find(args) -> int:
    c = parse_complex(_read(args.complex_path))
    if args.candidate_path is not None:
        candidate = parse_simplex_list(_read(args.candidate_path))
    else:
        candidate = [s for k in range(c.dim + 1) for s in c.simplices(k)]
    forced = (
        parse_simplex_list(_read(args.critical_path))
        if args.critical_path is not None
        else ()
    )
    m = find_matching(
        c, candidate, forced_critical=forced, seed=args.seed, max_attempts=args.max_attempts
    )
    payload = {
        "seed": args.seed,
        "pairs": [[list(vertices_of(lo)), list(vertices_of(up))] for lo, up in m.pairs],
    }
    return _emit_payload(payload, serialize_matching(m), args.format)


def _cmd_morse_flow(args) -> int:
    c = parse_complex(_read(args.complex_path))
    m = parse_matching(_read(args.matching_path))
    z = parse_chain(_read(args.chain_path))
    flowed = morse_flow(c, m, z)
    table = f"# flow stabilized after {flowed.steps} steps\n" + serialize_chain(
        flowed.chain
    )
    payload = {
        "dimension": flowed.chain.dimension,
        "steps": flowed.steps,
        "terms": [
            [flowed.chain.terms[s], list(s)] for s in sorted(flowed.chain.terms)
        ],
    }
    return _emit_payload(payload, table, args.format)


def _opt(*flags, **kwargs):
    """One add_argument call, kept as data."""
    return flags, kwargs


_SOLID = _opt("name", choices=SOLIDS)
_SCALE = _opt("--r", type=int, required=True, help="integer scale")
_SEEDED = (
    _opt("--seed", type=int, default=1, help="search seed (default: 1)"),
    _opt("--max-attempts", type=int, default=1000, help="seeded restarts before giving up"),
)
_COMPLEX = _opt("--complex", required=True, dest="complex_path")
_MATCHING = _opt("--matching", required=True, dest="matching_path")

# group -> (help, {action -> (help, handler, options after --format)})
_COMMANDS = {
    "solids": ("solid constructions and distances", {
        "list": ("list the five solids", _cmd_solids_list, ()),
        "distances": ("distance table per hop", _cmd_solids_distances, (_SOLID,)),
    }),
    "vr": ("Vietoris-Rips complexes at integer scales", {
        "build": ("emit the complex", _cmd_vr_build, (_SOLID, _SCALE)),
        "homology": ("betti/torsion", _cmd_vr_homology, (_SOLID, _SCALE)),
    }),
    "verify": ("canned verification pipelines", {
        "main-theorem": (
            "betti tables for all solids and scales",
            lambda args: _emit_report(verify_main_theorem(), args.format),
            (),
        ),
    }),
    "dodeca": ("the ten tetrahedra and the scale-3 trace", {
        "tetrahedra": ("list the ten tetrahedra", _cmd_dodeca_tetrahedra, ()),
        "trace": ("full scale-3 trace", _cmd_dodeca_trace, _SEEDED),
    }),
    "morse": ("matching engine over text files", {
        "check": ("validate and certify a matching", _cmd_morse_check, (_COMPLEX, _MATCHING)),
        "find": ("search for a matching", _cmd_morse_find, (
            *_SEEDED,
            _COMPLEX,
            _opt("--candidate", dest="candidate_path", help="cells allowed in pairs"),
            _opt("--critical", dest="critical_path", help="cells forced critical"),
        )),
        "flow": ("flow a chain to the critical complex", _cmd_morse_flow, (
            _COMPLEX, _MATCHING, _opt("--chain", required=True, dest="chain_path"),
        )),
    }),
    "cube": ("cube-graph series and cross-checks", {
        "series": (
            "main series identity table",
            lambda args: _emit_report(verify_cube_series(args.max_n), args.format),
            (_opt("--max-n", type=int, default=10),),
        ),
        "verify": (
            "direct homology cross-check",
            lambda args: _emit_report(verify_cube_vr2(args.n), args.format),
            (_opt("--n", type=int, required=True),),
        ),
    }),
    "symmetry": ("automorphisms and the character check", {
        "report": (
            "groups, orbits, fixed points",
            lambda args: _emit_report(symmetry_report(), args.format),
            (),
        ),
    }),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: only the parsers on its command path.

    When argv[0] names a command group, that group is the only one added,
    and when argv[1] names one of its actions, that action is the only one
    it gets.  Help, an unknown command, a leading option or "--" get every
    group and action.  Past a named group, the top level can raise one error
    of its own, "unrecognized arguments", and its usage would name that group
    alone; main has the whole tree raise that error instead.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    p = argparse.ArgumentParser(
        prog="ripstone",
        description="Vietoris-Rips complexes of platonic solids: build, verify, trace.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for group, (blurb, actions) in _COMMANDS.items():
        if command not in (None, group):
            continue
        steps = sub.add_parser(group, help=blurb).add_subparsers(dest="action", required=True)
        if command and len(argv) > 1 and argv[1] in actions:
            actions = {argv[1]: actions[argv[1]]}
        for action, (blurb, func, options) in actions.items():
            q = steps.add_parser(action, help=blurb)
            q.add_argument(
                "--format", choices=("table", "json"), default="table", help="output format"
            )
            for flags, kwargs in options:
                q.add_argument(*flags, **kwargs)
            q.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extras = _build_parser(argv).parse_known_args(argv)
        if extras:  # worded by the whole tree, whose usage names every group
            args = _build_parser([]).parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (FormatError, ParameterError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SearchFailure as e:
        print(f"search failed: {e}", file=sys.stderr)
        return 1
    except (PreconditionError, StructuralError) as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
