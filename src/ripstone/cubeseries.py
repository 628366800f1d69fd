"""The cube family's main series, face counts and skeleton betti numbers.

The main series x^3/((1-2x)^4 (1-x)) generates the third betti numbers of
the distance-2 complexes of cube graphs.  Its coefficients come from the
linear recurrence its denominator gives, never from floats, and are checked
against the face counts of the n-cube, the reduced Euler characteristics of
its skeleta, and homology computed directly on small instances.
"""

from __future__ import annotations

from math import comb

from .errors import ParameterError
from .homology import homology
from .polytopes import combinatorial_metric, cube_graph
from .reports import Report, row
from .simplicial import _poly_mul, vr_complex

_MAX_COEFF_INDEX = 64


def face_count(n: int, k: int) -> int:
    """Number of k-dimensional cubical faces of the n-cube.

    Equals C(n, k) 2^(n-k): choose the k free coordinates, then fix each of
    the others to 0 or 1.  It satisfies f(n+1, k+1) = 2 f(n, k+1) + f(n, k):
    a (k+1)-face of the (n+1)-cube either sits in one of the two opposite
    n-cube copies or joins a k-face to its translate.
    """
    if n < 0 or k < 0:
        raise ParameterError("face_count needs n, k >= 0")
    return comb(n, k) << (n - k) if k <= n else 0


def skeleton_betti_top(n: int, k: int) -> int:
    """Top betti number of the k-skeleton of the n-cube.

    The skeleton is (k-1)-connected, so its single interesting betti number
    is the signed reduced Euler characteristic (-1)^k (chi - 1).
    """
    if not 0 <= k <= n:
        raise ParameterError("skeleton_betti_top needs 0 <= k <= n")
    chi = sum((-1) ** i * face_count(n, i) for i in range(k + 1))
    return (-1) ** k * (chi - 1)


def _main_series(upto: int) -> list[int]:
    """Coefficients 0..upto of the main series x^3/((1-2x)^4 (1-x)).

    It equals 2 alpha_3 - beta_2, where alpha_3 counts the 3-faces of the
    n-cube and beta_2 the top betti numbers of its 2-skeleton.  With the
    denominator's constant term 1, c_m = [m == 3] - sum_i denom_i c_{m-i}.
    """
    if not 0 <= upto <= _MAX_COEFF_INDEX:
        raise ParameterError(f"series index must lie in 0..{_MAX_COEFF_INDEX}")
    denom = [1, -1]
    for _ in range(4):
        denom = _poly_mul(denom, [1, -2])
    coeffs = []
    for m in range(upto + 1):
        acc = 1 if m == 3 else 0
        for i in range(1, min(m, len(denom) - 1) + 1):
            acc -= denom[i] * coeffs[m - i]
        coeffs.append(acc)
    return coeffs


def verify_cube_vr2(n: int) -> Report:
    """Compare direct homology of the distance-2 cube complex with the series.

    Four-way agreement: betti_3 computed from the chain complex, the main
    series coefficient, the count formula 2 f(n,3) - e(n,2), and the shifted
    skeleton value e(n+1,3); plus a wedge-of-3-spheres shape check.
    """
    if not 2 <= n <= 5:
        raise ParameterError("direct verification is sized for 2 <= n <= 5")
    main = _main_series(n)[n]
    c = vr_complex(combinatorial_metric(cube_graph(n)), 2)
    res = homology(c)
    betti = res.betti
    b3 = betti[3] if len(betti) > 3 else 0
    shape_ok = (
        betti[0] == 1
        and all(b == 0 for i, b in enumerate(betti) if i not in (0, 3))
        and all(not t for t in res.torsion)
    )
    rows = (
        row(f"betti3 of the distance-2 complex of the {n}-cube", main, b3),
        row("2 f(n,3) - skeleton betti (n,2)", main, 2 * face_count(n, 3) - skeleton_betti_top(n, 2)),
        row("skeleton betti (n+1,3)", main, skeleton_betti_top(n + 1, 3)),
        row("wedge of 3-spheres shape", True, shape_ok),
    )
    return Report(title=f"cube distance-2 cross-check, n={n}", rows=rows)


def verify_cube_series(max_n: int) -> Report:
    """Check the main series through x^max_n against the face and skeleton counts.

    Each row compares the coefficient of x^n with 2 f(n,3) - e(n,2) and
    with the shifted skeleton value e(n+1,3), both read as 0 for n < 2.
    """
    main = _main_series(max_n)
    rows = []
    for n in range(max_n + 1):
        if n >= 2:
            via_counts = 2 * face_count(n, 3) - skeleton_betti_top(n, 2)
            via_next = skeleton_betti_top(n + 1, 3)
        else:
            via_counts = via_next = 0
        rows.append(
            row(
                f"x^{n} coefficient, count formula and shifted skeleton",
                (main[n], main[n]),
                (via_counts, via_next),
            )
        )
    return Report(title=f"cube series identities through n={max_n}", rows=tuple(rows))
