"""Acceptance gate: one printed PASS/FAIL line per top-level criterion.

Run with `pytest tests/test_acceptance.py -s` (or plain pytest; the lines
print even under capture) to get the nine-line summary.
"""

import random
import time
from collections import Counter
from math import acos, pi, sqrt

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from ripstone.cubeseries import _main_series, verify_cube_vr2
from ripstone.homology import (
    boundary_chain,
    euler_characteristic,
    homology,
    make_chain,
    smith_normal_form,
)
from ripstone.morse import (
    check_matching,
    critical_complex_homology,
    fan_matching,
    fan_triangulation,
    flip_matching_update,
    matching_from_pairs,
    morse_flow,
)
from ripstone.patterns import diameter3_tetrahedra
from ripstone.pipelines import (
    EXPECTED_BETTI,
    symmetry_report,
    trace_dodecahedron,
    verify_main_theorem,
)
from ripstone.polytopes import (
    PHI,
    build_solid,
    combinatorial_metric,
    distance_table,
)
from ripstone.simplicial import from_faces, full_simplex_complex

EXAMPLES: Counter = Counter()

CLOSED_FORM_TABLE = {
    "tetrahedron": [(2 * sqrt(2 / 3), acos(-1 / 3))],
    "cube": [
        (2 * sqrt(1 / 3), acos(1 / 3)),
        (2 * sqrt(2 / 3), acos(-1 / 3)),
        (2.0, pi),
    ],
    "octahedron": [(sqrt(2), pi / 2), (2.0, pi)],
    "dodecahedron": [
        ((2 / PHI) * sqrt(1 / 3), acos((2 * PHI - 1) / 3)),
        (2 * sqrt(1 / 3), acos(1 / 3)),
        (2 * sqrt(2 / 3), acos(-1 / 3)),
        (2 * PHI * sqrt(1 / 3), acos((1 - 2 * PHI) / 3)),
        (2.0, pi),
    ],
    "icosahedron": [
        (2 * sqrt((3 - PHI) / 5), acos(1 / sqrt(5))),
        (2 * sqrt((2 + PHI) / 5), acos(-1 / sqrt(5))),
        (2.0, pi),
    ],
}


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def main_result():
    t0 = time.perf_counter()
    report = verify_main_theorem()
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trace_result():
    t0 = time.perf_counter()
    report = trace_dodecahedron(seed=1, max_attempts=1000)
    return report, time.perf_counter() - t0


def test_criterion_1_main_theorem(capsys, main_result):
    report, elapsed = main_result
    dodeca = EXPECTED_BETTI["dodecahedron"]
    ok = (
        report.passed
        and len(report.rows) >= 22
        and dodeca == ((20,), (1, 11), (1, 0, 1), (1, 0, 0, 9),
                       (1, 0, 0, 0, 0, 0, 0, 0, 0, 1), (1,))
        and elapsed < 60
    )
    announce(
        capsys, 1, ok,
        f"betti tables for every solid and scale ({len(report.rows)} rows, {elapsed:.1f}s)",
    )
    assert report.passed
    assert elapsed < 60


def test_criterion_2_ten_tetrahedra(capsys):
    t0 = time.perf_counter()
    tets = diameter3_tetrahedra(combinatorial_metric(build_solid("dodecahedron")))
    elapsed = time.perf_counter() - t0
    ok = len(tets) == 10 and elapsed < 1
    announce(capsys, 2, ok, f"10 scattered tetrahedra by brute force ({elapsed:.2f}s)")
    assert ok


def test_criterion_3_traced_matching(capsys, trace_result):
    report, elapsed = trace_result
    by_subject = {r.subject: r for r in report.rows}
    ok = (
        by_subject["matching certified acyclic"].passed
        and by_subject["critical diameter-3 cells are exactly the tetrahedra"].passed
        and by_subject["critical complex betti with tetrahedra removed"].passed
        and elapsed < 300
    )
    announce(
        capsys, 3, ok,
        f"acyclic matching with tetrahedral critical set, betti (1, 0, 1) ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_4_flowed_classes(capsys, trace_result):
    report, _ = trace_result
    class_rows = [r for r in report.rows if r.subject.startswith("class of the flowed")]
    ok = len(class_rows) == 10 and all(r.passed for r in class_rows)
    announce(capsys, 4, ok, "all ten flowed boundaries generate the cycle class")
    assert ok


def test_criterion_5_cube_series(capsys):
    t0 = time.perf_counter()
    reports = {n: verify_cube_vr2(n) for n in (2, 3, 4, 5)}
    series = _main_series(5)[2:]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports.values()) and series == [0, 1, 9, 49]
    announce(
        capsys, 5, ok,
        f"series matches direct cube homology up to n=5 ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_6_distance_tables(capsys):
    worst = 0.0
    for name, forms in CLOSED_FORM_TABLE.items():
        table = distance_table(name)
        rows = sorted(table.rows)
        assert len(rows) == len(forms)
        for (hop, chord, angle), (cf_chord, cf_angle) in zip(rows, forms):
            worst = max(
                worst,
                abs(chord - cf_chord),
                abs(angle - cf_angle),
                abs(angle - acos(1 - chord * chord / 2)),
            )
    ok = worst < 1e-9
    announce(capsys, 6, ok, f"chord/angle closed forms (worst error {worst:.1e})")
    assert ok


def test_criterion_7_morse_engine_goldens(capsys):
    c4 = full_simplex_complex(4)
    collapse = matching_from_pairs(
        [
            ((0, 2, 3), (0, 1, 2, 3)),
            ((2, 3), (1, 2, 3)),
            ((0, 2), (0, 1, 2)),
            ((1, 3), (0, 1, 3)),
            ((3,), (0, 3)),
            ((2,), (1, 2)),
        ]
    )
    rep = check_matching(c4, collapse)
    ok = rep.ok() and set(rep.critical) == {(0,), (1,), (0, 1)}

    square = from_faces([(0, 1), (1, 2), (2, 3), (0, 3)])
    rotor = matching_from_pairs(
        [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (2, 3)), ((3,), (0, 3))]
    )
    rrep = check_matching(square, rotor)
    ok = ok and not rrep.acyclic and rrep.certificate is not None
    ok = ok and len(rrep.certificate) == 8

    for ngon in range(4, 9):
        c = full_simplex_complex(ngon)
        tri = set(fan_triangulation(ngon, 0))
        m = fan_matching(ngon, 0)
        frep = check_matching(c, m)
        ok = ok and frep.ok() and set(frep.critical) == tri
        ok = ok and critical_complex_homology(c, m).betti_stripped() == (1,)
        quad = (0, 1, 2, 3) if ngon == 4 else (0, 2, 3, 4)
        diag = (0, 2) if ngon == 4 else (0, 3)
        a, b, c_, d = quad
        flipped = (tri - {diag, tuple(sorted((a, b, c_))), tuple(sorted((a, c_, d)))}) | {
            tuple(sorted((b, d))),
            tuple(sorted((b, c_, d))),
            tuple(sorted((a, b, d))),
        }
        m2 = flip_matching_update(m, quad, diag)
        frep2 = check_matching(c, m2)
        ok = ok and frep2.ok() and set(frep2.critical) == flipped
        ok = ok and critical_complex_homology(c, m2).betti_stripped() == (1,)

    announce(capsys, 7, ok, "collapse/cycle goldens and fan/flip matchings up to n=8")
    assert ok


def test_criterion_8_character_check(capsys):
    t0 = time.perf_counter()
    report = symmetry_report()
    elapsed = time.perf_counter() - t0
    by_subject = {r.subject: r for r in report.rows}
    class_rows = [r for r in report.rows if "fixed count" in r.subject]
    fixed_counts = sorted(int(r.computed) for r in class_rows)
    ok = (
        report.passed
        and by_subject["orbit sizes under the derived subgroup"].computed == "(5, 5)"
        and len(class_rows) == 10
        and fixed_counts == [0, 0, 0, 0, 0, 0, 0, 2, 4, 10]
        and by_subject["H3 rank at scale 3"].computed == "9"
        and elapsed < 60
    )
    announce(
        capsys, 8, ok,
        f"two orbits of five, classwise fixed counts, H3 rank 9 ({elapsed:.1f}s)",
    )
    assert ok


# --- criterion 9: randomized property suites ------------------------------

SUITE_SIZES = {
    "boundary_squares_to_zero": 220,
    "euler_poincare": 220,
    "snf_transforms": 220,
    "flow_idempotent_and_commutes": 160,
    "morse_inequalities": 160,
    "critical_homology_agrees": 160,
}


@st.composite
def small_complexes(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    faces = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=4,
                unique=True,
            ),
            min_size=1,
            max_size=9,
        )
    )
    return from_faces([tuple(sorted(f)) for f in faces], vertex_count=n)


@st.composite
def complexes_with_chains(draw):
    c = draw(small_complexes())
    k = draw(st.integers(min_value=0, max_value=c.dim))
    cells = c.simplices(k)
    picks = draw(
        st.lists(st.sampled_from(cells), min_size=1, max_size=min(5, len(cells))),
    )
    coeffs = draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    return c, make_chain(k, dict(zip(picks, coeffs)))


def all_faces(c):
    out = []
    for k in range(c.dim + 1):
        out.extend(c.simplices(k))
    return out


def cone_and_matching(base):
    # join a fresh apex 0 to a complex living on vertices >= 1
    shifted = [tuple(v + 1 for v in f) for f in all_faces(base)]
    cone = from_faces([(0,)] + shifted + [(0,) + f for f in shifted])
    m = matching_from_pairs([(f, (0,) + f) for f in shifted])
    return cone, m


def partial_collapse_matching(c, rng):
    # pair free cells (unique live cofacet) for a random number of rounds;
    # any prefix of a collapse is acyclic
    live = set(all_faces(c))
    cofacets = {
        s: [t for t in all_faces(c) if len(t) == len(s) + 1 and set(s) < set(t)]
        for s in live
    }
    pairs = []
    budget = rng.randrange(0, len(live))
    while len(pairs) * 2 < budget:
        free = [
            s for s in sorted(live)
            if sum(t in live for t in cofacets[s]) == 1
        ]
        if not free:
            break
        s = rng.choice(free)
        t = next(t for t in cofacets[s] if t in live)
        pairs.append((s, t))
        live.discard(s)
        live.discard(t)
    return matching_from_pairs(pairs)


@settings(max_examples=SUITE_SIZES["boundary_squares_to_zero"], deadline=None, derandomize=True)
@given(complexes_with_chains())
def test_property_boundary_squares_to_zero(pair):
    _c, z = pair
    EXAMPLES["boundary_squares_to_zero"] += 1
    assert boundary_chain(boundary_chain(z)).is_zero()


@settings(max_examples=SUITE_SIZES["euler_poincare"], deadline=None, derandomize=True)
@given(small_complexes())
def test_property_euler_poincare(c):
    EXAMPLES["euler_poincare"] += 1
    h = homology(c)
    assert euler_characteristic(c) == sum(
        (-1) ** k * b for k, b in enumerate(h.betti)
    )


@settings(max_examples=SUITE_SIZES["snf_transforms"], deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_property_snf_transforms(rows, cols, data):
    EXAMPLES["snf_transforms"] += 1
    dense = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    res = smith_normal_form(dense)
    u, v = Matrix(res.left_transform), Matrix(res.right_transform)
    prod = u * Matrix(dense) * v
    for i in range(rows):
        for j in range(cols):
            want = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
            assert prod[i, j] == want
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    nz = [d for d in res.diagonal if d]
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))


@settings(max_examples=SUITE_SIZES["flow_idempotent_and_commutes"], deadline=None, derandomize=True)
@given(complexes_with_chains())
def test_property_flow_idempotent_and_commutes(pair):
    EXAMPLES["flow_idempotent_and_commutes"] += 1
    base, z = pair
    cone, m = cone_and_matching(base)
    lifted = make_chain(z.dimension, {tuple(v + 1 for v in s): co for s, co in z.terms.items()})
    flowed = morse_flow(cone, m, lifted)
    again = morse_flow(cone, m, flowed.chain)
    assert again.steps == 0
    assert again.chain.terms == flowed.chain.terms
    if lifted.dimension >= 1:
        left = morse_flow(cone, m, boundary_chain(lifted)).chain
        right = boundary_chain(flowed.chain)
        assert left.terms == right.terms


@settings(max_examples=SUITE_SIZES["morse_inequalities"], deadline=None, derandomize=True)
@given(small_complexes(), st.integers(min_value=0, max_value=2**31))
def test_property_morse_inequalities(c, seed):
    EXAMPLES["morse_inequalities"] += 1
    m = partial_collapse_matching(c, random.Random(seed))
    rep = check_matching(c, m)
    assert rep.ok()
    counts = Counter(len(s) - 1 for s in rep.critical)
    h = homology(c)
    for k, b in enumerate(h.betti):
        assert counts.get(k, 0) >= b
    alternating = sum((-1) ** k * v for k, v in counts.items())
    assert alternating == euler_characteristic(c)


@settings(max_examples=SUITE_SIZES["critical_homology_agrees"], deadline=None, derandomize=True)
@given(small_complexes(), st.integers(min_value=0, max_value=2**31))
def test_property_critical_homology_agrees(c, seed):
    EXAMPLES["critical_homology_agrees"] += 1
    m = partial_collapse_matching(c, random.Random(seed))
    hc = critical_complex_homology(c, m)
    h = homology(c)
    assert hc.betti_stripped() == h.betti_stripped()

    def packed(t):
        out = list(t)
        while out and out[-1] == ():
            out.pop()
        return tuple(out)

    assert packed(hc.torsion) == packed(h.torsion)


def test_criterion_9_property_suites(capsys):
    total = sum(EXAMPLES.values())
    ok = total >= 1000 and all(
        EXAMPLES[name] >= size for name, size in SUITE_SIZES.items()
    )
    detail = ", ".join(f"{name} x{EXAMPLES[name]}" for name in SUITE_SIZES)
    announce(capsys, 9, ok, f"{total} randomized property checks ({detail})")
    assert ok
