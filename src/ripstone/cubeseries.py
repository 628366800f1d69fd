"""Exact integer series for cube-graph skeleta and their top betti numbers.

Counts k-dimensional cubical faces of the n-cube and the reduced Euler
characteristics of its skeleta, then cross-checks the closed-form rational
generating functions against homology computed directly on small instances.

All series arithmetic is exact: coefficients come from the linear
recurrence induced by the denominator polynomial, never from floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ParameterError
from .homology import homology
from .polytopes import combinatorial_metric, cube_graph
from .reports import Report, row
from .simplicial import _poly_mul, vr_complex

_SERIES_KINDS = ("alpha_k", "beta_k", "main")
_MAX_COEFF_INDEX = 64


@dataclass(frozen=True)
class IntSeries:
    """Initial segment of an integer power series; coefficients[n] is c_n."""

    coefficients: tuple


def face_count(n: int, k: int) -> int:
    """Number of k-dimensional cubical faces of the n-cube.

    Computed by the recurrence f(n+1, k+1) = 2 f(n, k+1) + f(n, k) with
    f(n, 0) = 2^n: a (k+1)-face of the (n+1)-cube either sits in one of the
    two opposite n-cube copies (2 f(n, k+1)) or joins a k-face to its
    translate (f(n, k)).  Equals C(n, k) 2^(n-k).
    """
    if n < 0 or k < 0:
        raise ParameterError("face_count needs n, k >= 0")
    if k > n:
        return 0
    current = [1]
    for _ in range(n):
        nxt = [2 * current[0]]
        for j in range(1, len(current) + 1):
            same = current[j] if j < len(current) else 0
            nxt.append(2 * same + current[j - 1])
        current = nxt
    return current[k]


def skeleton_betti_top(n: int, k: int) -> int:
    """Top betti number of the k-skeleton of the n-cube.

    The skeleton is (k-1)-connected, so its single interesting betti number
    is the signed reduced Euler characteristic (-1)^k (chi - 1).
    """
    if not 0 <= k <= n:
        raise ParameterError("skeleton_betti_top needs 0 <= k <= n")
    chi = sum((-1) ** i * face_count(n, i) for i in range(k + 1))
    return (-1) ** k * (chi - 1)


def _rational_series(numer, denom, upto):
    # denom[0] == 1 makes the recurrence c_m = numer_m - sum denom_i c_{m-i}
    if denom[0] != 1:
        raise ParameterError("denominator must have constant term 1")
    coeffs = []
    for m in range(upto + 1):
        acc = numer[m] if m < len(numer) else 0
        for i in range(1, min(m, len(denom) - 1) + 1):
            acc -= denom[i] * coeffs[m - i]
        coeffs.append(acc)
    return coeffs


def _numer_denom(which: str, k):
    if which not in _SERIES_KINDS:
        raise ParameterError(f"unknown series kind {which!r}")
    if which == "main":
        if k is not None:
            raise ParameterError("the main series takes no k")
        numer = [0, 0, 0, 1]
        denom = [1]
        for _ in range(4):
            denom = _poly_mul(denom, [1, -2])
        return numer, _poly_mul(denom, [1, -1])
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"series kind {which!r} needs k >= 0")
    denom = [1]
    for _ in range(k + 1):
        denom = _poly_mul(denom, [1, -2])
    if which == "alpha_k":
        return [0] * k + [1], denom
    return [0] * (k + 1) + [1], _poly_mul(denom, [1, -1])


def expand(which: str, k, upto: int) -> IntSeries:
    """Initial coefficients 0..upto of one of the closed-form series."""
    if not 0 <= upto <= _MAX_COEFF_INDEX:
        raise ParameterError(f"series index must lie in 0..{_MAX_COEFF_INDEX}")
    numer, denom = _numer_denom(which, k)
    return IntSeries(coefficients=tuple(_rational_series(numer, denom, upto)))


def series_coefficient(which: str, k, n: int) -> int:
    """Coefficient of x^n in alpha_k, beta_k, or the main series.

    alpha_k counts k-faces over all cube sizes, beta_k the corresponding
    skeleton betti numbers, and main = 2 alpha_3 - beta_2 generates the
    third betti numbers of the distance-2 complexes of cube graphs.
    """
    if not 0 <= n <= _MAX_COEFF_INDEX:
        raise ParameterError(f"series index must lie in 0..{_MAX_COEFF_INDEX}")
    return expand(which, k, n).coefficients[n]


def verify_cube_vr2(n: int) -> Report:
    """Compare direct homology of the distance-2 cube complex with the series.

    Four-way agreement: betti_3 computed from the chain complex, the main
    series coefficient, the count formula 2 f(n,3) - e(n,2), and the shifted
    skeleton value e(n+1,3); plus a wedge-of-3-spheres shape check.
    """
    if not 2 <= n <= 5:
        raise ParameterError("direct verification is sized for 2 <= n <= 5")
    main = series_coefficient("main", None, n)
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


def closed_form_face_count(n: int, k: int) -> int:
    """Binomial closed form, kept separate as a cross-check target."""
    if n < 0 or k < 0:
        raise ParameterError("closed_form_face_count needs n, k >= 0")
    if k > n:
        return 0
    return comb(n, k) * 2 ** (n - k)
