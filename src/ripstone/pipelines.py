"""End-to-end verification pipelines assembled into reports.

Three entry points: the full betti table over all five solids and every
integer scale, the dodecahedron tetrahedra trace (matching search, critical
complex, flowed boundary classes), and the symmetry/character report.
"""

from __future__ import annotations

from collections import Counter

from .errors import SearchFailure
from .homology import cycle_class, homology, make_chain, simplex_boundary
from .morse import _find_matching, check_matching, critical_complex_homology, morse_flow
from .patterns import diameter3_tetrahedra
from .polytopes import SOLIDS, build_solid, combinatorial_metric, solid_info
from .reports import Report, row
from .simplicial import delete_open_cells, mask_of, maximal_simplices, vr_complex
from .symmetry import (
    _is_simple,
    automorphisms,
    rotation_subgroup,
    tetrahedra_orbits,
    verify_remark,
)

# Unreduced betti of the scale-r complex for every solid, r from 0 through
# the contractible diameter case; trailing zeros dropped.  Only these Betti
# numbers (and the absence of torsion) are certified: they do not pin the
# homotopy types the paper states, which need a certificate of their own
# (the homotopy-certificate item of the ROADMAP).
EXPECTED_BETTI = {
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

# Solids whose scale-(diameter - 1) complex must equal the complex of all
# antipodal-pair-free vertex sets (the cross-polytope boundary pattern).
_ANTIPODAL_ROWS = (("cube", 2), ("octahedron", 1), ("icosahedron", 2), ("dodecahedron", 4))


def verify_main_theorem() -> Report:
    """Betti tables for every solid and scale, plus the structural identities.

    Every row is read off the complexes the Betti rows build.  VR_1 is the
    clique complex of the edge graph, so it is the boundary complex (the
    vertices, edges and, on triangle-faced solids, triangular facets) exactly
    when it has no face above the facets' dimension.  A join's factors are
    the components of the complement of its graph, so VR_r is the
    antipodal-pair-free complex exactly when each factor is one pair of
    vertices more than r apart.
    """
    rows = []
    cached = {}
    for name in SOLIDS:
        metric = combinatorial_metric(build_solid(name))
        for r, expected in enumerate(EXPECTED_BETTI[name]):
            c = vr_complex(metric, r)
            cached[(name, r)] = c
            res = homology(c)
            got = res.betti_stripped()
            if any(res.torsion):
                rows.append(row(f"{name} r={r} betti", expected, f"{got} with torsion"))
            else:
                rows.append(row(f"{name} r={r} betti", expected, got))
    for name in ("cube", "octahedron", "dodecahedron", "icosahedron"):
        dim = len(cached[(name, 1)].f_vector()) - 1  # a join's f-vector builds no face
        rows.append(
            row(
                f"{name} r=1 equals the boundary complex",
                True,
                dim == (2 if solid_info(name).m == 3 else 1),
            )
        )
    for name, r in _ANTIPODAL_ROWS:
        factors = cached[(name, r)].join_factors
        rows.append(
            row(
                f"{name} r={r} equals the antipodal-pair-free complex",
                True,
                bool(factors) and all(len(keep) == 2 for keep, _x in factors),
            )
        )
    census = Counter(len(s) - 1 for s in maximal_simplices(cached[("dodecahedron", 2)]))
    rows.append(
        row(
            "dodecahedron r=2 maximal face census (dimension, count)",
            ((3, 20), (4, 12)),
            tuple(sorted(census.items())),
        )
    )
    return Report(title="betti tables for all solids and scales", rows=tuple(rows))


def trace_dodecahedron(seed: int = 1, max_attempts: int = 1000) -> Report:
    """Matching search and chain-level retraction trace at scale 3.

    Finds a certified-acyclic matching on the diameter-3 faces whose
    critical cells are exactly the ten tetrahedra, checks the critical
    complex left after removing them, and flows each tetrahedron boundary
    down to scale 2.  A face of the scale-3 complex has diameter 3 exactly
    when it is not a face of VR_2, so every diameter question here is a
    mask lookup in VR_2's faces.

    Each flowed boundary is classified in VR_2, not in the punctured
    complex the flow runs in.  The certified matching pairs every face of
    the punctured complex outside VR_2, so the punctured complex collapses
    onto VR_2 and the inclusion is an isomorphism on H_2.  VR_2's element
    matching leaves one vertex and one triangle critical, so by Forman's
    theorem H_2(VR_2) = Z, and cycle_class reads a flowed boundary's class
    off that triangle.  A flowed chain that leaves VR_2 fails its row.
    """
    title = "dodecahedron scale-3 trace"
    g = build_solid("dodecahedron")
    metric = combinatorial_metric(g)
    tets = diameter3_tetrahedra(metric)
    rows = [row("pairwise-distance-3 tetrahedra", 10, len(tets))]

    c3 = vr_complex(metric, 3)
    c2 = vr_complex(metric, 2)
    scale2 = c2.face_set
    candidate = c3.face_set - scale2
    try:
        m = _find_matching(c3, candidate, map(mask_of, tets), seed, max_attempts)
    except SearchFailure as e:
        rows.append(
            row(
                "acyclic matching on diameter-3 faces",
                "all non-tetrahedron cells matched",
                f"search failed: {e}",
                passed=False,
            )
        )
        return Report(title=title, rows=tuple(rows))

    report = check_matching(c3, m)  # certified inside _find_matching
    rows.append(row("matching certified acyclic", True, report.ok()))
    critical_d3 = sorted(s for s in report.critical if mask_of(s) not in scale2)
    rows.append(
        row(
            "critical diameter-3 cells are exactly the tetrahedra",
            True,
            critical_d3 == tets,
        )
    )

    pruned = delete_open_cells(c3, tets)
    crit_res = critical_complex_homology(pruned, m)
    rows.append(
        row(
            "critical complex betti with tetrahedra removed",
            (1, 0, 1),
            crit_res.betti_stripped(),
        )
    )
    rows.append(
        row(
            "scale-3 betti via the critical complex",
            (1, 0, 0, 9),
            critical_complex_homology(c3, m).betti_stripped(),
        )
    )

    outside = []  # for each flowed boundary that leaves VR_2, a face it uses there
    for i, t in enumerate(tets, start=1):
        z = make_chain(2, dict(simplex_boundary(t)))
        flowed = morse_flow(pruned, m, z)
        subject = f"class of the flowed boundary of tetrahedron {i}"
        stray = next((s for s in flowed.chain.support() if mask_of(s) not in scale2), None)
        if stray is not None:
            outside.append(f"tetrahedron {i} uses {stray}")
            rows.append(row(subject, "(1) or (-1)", f"uses {stray}, not in VR_2", passed=False))
            continue
        cls = cycle_class(c2, flowed.chain)
        rows.append(row(subject, "(1) or (-1)", cls, passed=cls in ((1,), (-1,))))
    rows.append(row("flowed boundaries live at scale 2", True, "; ".join(outside) or True))
    rows.append(row("H3 rank at scale 3", 9, homology(c3).betti[3]))
    return Report(title=title, rows=tuple(rows))


def symmetry_report() -> Report:
    """Automorphism groups, tetrahedra orbits, and the classwise character.

    Every row is computed, whatever an earlier row found.
    """
    g = build_solid("dodecahedron")
    metric = combinatorial_metric(g)
    tets = diameter3_tetrahedra(metric)
    grp = automorphisms(g)
    rot = rotation_subgroup(grp)
    orbit_sizes = tuple(sorted(len(o) for o in tetrahedra_orbits(rot, tets)))
    full_sizes = tuple(sorted(len(o) for o in tetrahedra_orbits(grp, tets)))
    rows = [
        row("full automorphism group order", 120, grp.order),
        row("derived subgroup order", 60, rot.order),
        row("derived subgroup is simple", True, _is_simple(rot)),
        row("orbit sizes under the derived subgroup", (5, 5), orbit_sizes),
        row("orbit sizes under the full group", (10,), full_sizes),
        row("H3 rank at scale 3", 9, homology(vr_complex(metric, 3)).betti[3]),
    ]
    cd = verify_remark(grp, rot, tets)
    for i, (size, order, inh, fx, pred) in enumerate(
        zip(
            cd.class_sizes,
            cd.element_orders,
            cd.in_rotation,
            cd.fixed_counts,
            cd.predicted_counts,
        ),
        start=1,
    ):
        kind = "rotation" if inh else "reflective"
        rows.append(
            row(f"class {i}: size {size}, order {order}, {kind}: fixed count", pred, fx)
        )
    rows.append(row("class sizes sum to the group order", 120, sum(cd.class_sizes)))
    return Report(title="dodecahedron symmetry of the ten tetrahedra", rows=tuple(rows))
