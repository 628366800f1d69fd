"""Integral simplicial homology by column reduction with clearing.

_boundary_ranks serves homology() and the Morse complex alike: it reduces
differentials from the top dimension down, skipping columns cleared by the
dimension above, and keeps only +-1 pivots.  Reduced columns with distinct
unit pivots span a direct summand, so each rank is exact and adds no torsion.
A column whose pivot is not a unit is set aside and, once the pass is done,
stripped of every unit-pivot row; only what is left of such columns, the
residual, goes to Smith normal form by textbook elimination (_reduce),
which also backs smith_normal_form, on the rows of a dense matrix, and
the join formula's invariant factors.  cycle_class reads classes off a
discrete Morse matching (see morse._element_matching) instead of a
reduction.  _add_into is the one sparse update, of the reduction, the
chain boundary and morse's flow, and _boundary the one chain boundary on
face masks, of boundary_chain and cycle_class's cycle test.

Every row and column is keyed by its face (or critical cell) mask, and
rows are ordered as numbers, which is colexicographic order, as in Ripser
(Bauer, "Ripser: efficient computation of Vietoris-Rips persistence
barcodes", J. Appl. Comput. Topol. 5 (2021)).  So a face's pivot is read
off its mask, and homology() hands the reduction a complex's faces as
masks: a column is built only if its apparent or emergent pair collides
(see _unit_pivot_columns).  Nothing here looks a face up by its place in
its level, so the result does not depend on the order a level is stored
in.  The Morse complex hands over a flowed column for a critical cell with
a matched facet, and the cell's mask, read as here, for any other.

A complex that is a join X1*...*Xm (a clique complex whose graph's
complement is disconnected, each Xi the clique complex on one of its
components, or a complex file that simplicial._listed_join splits into
listed factors) takes its homology from its factors' by the join formula
for integral homology (Milnor, "Construction of universal bundles II",
Ann. Math. 63 (1956)):

    H~_n(X*Y) = (+)_{i+j=n-1} H~_i(X) (x) H~_j(Y)  (+)  (+)_{i+j=n-2} Tor(H~_i(X), H~_j(Y))

Its check: the reduced Euler characteristic of the result must equal
(-1)^(m-1) times the product of the factors' reduced Euler characteristics,
counted from the factors' faces; the join itself is never built.  So are
computed the cross-polytope rows (joins of zero-spheres) and the cones,
joins with an acyclic one-vertex factor, such as the full simplex at each
solid's diameter, and the random_files joins of RP^2 with a flag complex.
A complex given by its faces that is not split is reduced whole.  A listed
complex (or listed factor) is reduced on its numbered closure, never on its
faces in file ids: simplicial._numbered numbers its vertices most-listed
first, so more of its columns stay apparent pairs.  The numbering changes
how many columns are built, never a rank or a torsion coefficient.

The boundary convention used everywhere: for a simplex written with ascending
vertices v1 < ... < vn,

    d[v1,...,vn] = sum_{i=1..n} (-1)^i [v1,...,vi-hat,...,vn]

so the face dropping the first vertex carries coefficient -1.  All arithmetic
is exact; Python integers widen on demand, so no overflow discipline is
needed beyond avoiding floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ParameterError, PreconditionError, StructuralError
from .simplicial import Complex, Simplex, mask_of, signed_facets, simplex, vertices_of


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class Chain:
    """A formal integer combination of same-dimension simplices."""

    dimension: int
    terms: dict

    def support(self) -> list[Simplex]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def make_chain(dimension: int, terms) -> Chain:
    """Validate coefficients and simplices, dropping zero terms."""
    if dimension < 0:
        raise ParameterError(f"chain dimension must be >= 0, got {dimension}")
    clean = {}
    for s, coeff in dict(terms).items():
        s = simplex(s)
        if len(s) != dimension + 1:
            raise ParameterError(f"simplex {s} does not have dimension {dimension}")
        if type(coeff) is not int:  # True is no coefficient
            raise ParameterError(f"coefficient of {s} must be an integer")
        if coeff:
            clean[s] = coeff
    return Chain(dimension=dimension, terms=clean)


def simplex_boundary(s: Simplex) -> list[tuple[Simplex, int]]:
    """Signed facets of a simplex under the package boundary convention."""
    return [(vertices_of(f), sign) for f, sign in signed_facets(mask_of(s))]


def boundary_chain(z: Chain) -> Chain:
    """The boundary of a chain (zero chain for dimension 0)."""
    bd = _boundary({mask_of(s): co for s, co in z.terms.items()})  # empty for dimension 0
    return Chain(max(z.dimension - 1, 0), {vertices_of(f): co for f, co in bd.items()})


def _boundary(terms: dict[int, int]) -> dict[int, int]:
    """The boundary of a chain given as {face mask: coefficient}, zero terms dropped."""
    out: dict[int, int] = {}
    for mask, co in terms.items():
        _add_into(out, dict(signed_facets(mask)), co)
    return out


# ---------------------------------------------------------------------------
# matrices


def _rows(columns) -> dict[int, dict[int, int]]:
    """Row-oriented copy of (column, its (row, entry) pairs), the input of _reduce."""
    rows: dict[int, dict[int, int]] = {}
    for j, col in columns:
        for i, v in col:
            rows.setdefault(i, {})[j] = v
    return rows


# ---------------------------------------------------------------------------
# Smith normal form by elimination


def _add_into(dst: dict, src: dict, k: int) -> None:
    """dst += k * src, dropping zeros (pop: k may be 0 on a key dst lacks)."""
    for key, val in src.items():
        new = dst.get(key, 0) + k * val
        if new:
            dst[key] = new
        else:
            dst.pop(key, None)


def _reduce(nrows: int, ncols: int, rows: dict, transforms: bool = False):
    """Smith normal form of an integer matrix by textbook elimination.

    rows maps a row to its nonzero {column: entry} and is consumed.  Each
    pivot starts as the entry of least absolute value in the shortest row
    (ties: lowest index), made positive.  Its column is cleared by row
    operations, then its row by column operations, which change the pivot
    row only, as the column is clear; a nonzero remainder, smaller than the
    pivot, becomes the pivot.  A pivot other than 1 is kept once it divides
    every entry left; until then a row with an entry it does not divide is
    added to the pivot row.  So the pivots come out as the invariant
    factors, in divisibility order.

    Returns (factors, U, V); U as {row: {column: entry}} and V as
    {column: {row: entry}} when transforms is set, else None, such that
    U * A * V holds the factors on its leading diagonal and zeros elsewhere.

    No index and no heap: the inputs are small.  The paper's complexes
    leave no residual, so main_theorem and scale3 never come here.  The
    random_files batches of seeds 1-20, each listed complex reduced in its
    most-listed-first numbering, make 120 residual calls, each the one Z/2
    column, of 3 nonzeros, of an RP^2 join factor, and 121
    _invariant_factors calls of at most 12 orders, about 0.005 s in all.
    The largest matrices are the tests' references for clearing, up to
    252 x 210.
    """
    u = {i: {i: 1} for i in range(nrows)} if transforms else None
    v = {j: {j: 1} for j in range(ncols)} if transforms else None
    factors, order_r, order_c = [], [], []
    while rows:
        r0 = min(rows, key=lambda r: (len(rows[r]), r))
        c0 = min(rows[r0], key=lambda c: (abs(rows[r0][c]), c))
        if rows[r0][c0] < 0:
            rows[r0] = {c: -x for c, x in rows[r0].items()}
            if transforms:
                u[r0] = {c: -x for c, x in u[r0].items()}
        while True:
            p = rows[r0][c0]  # positive; so is every remainder below
            hits = [r for r in rows if r != r0 and c0 in rows[r]]
            for r in hits:  # row r -= q * row r0
                q = rows[r][c0] // p
                _add_into(rows[r], rows[r0], -q)
                if transforms:
                    _add_into(u[r], u[r0], -q)
                if not rows[r]:
                    del rows[r]
            hits = [r for r in hits if c0 in rows.get(r, ())]
            if hits:  # a remainder, smaller than p
                r0 = hits[0]
                continue
            for c in [c for c in rows[r0] if c != c0]:  # column c -= q * column c0
                q, x = divmod(rows[r0].pop(c), p)
                if transforms:
                    _add_into(v[c], v[c0], -q)
                if x:
                    rows[r0][c] = x
            if len(rows[r0]) > 1:  # a remainder, smaller than p
                c0 = next(c for c in rows[r0] if c != c0)
                continue
            if p == 1:
                break
            r = next((r for r, row in rows.items() if any(x % p for x in row.values())), None)
            if r is None:
                break
            _add_into(rows[r0], rows[r], 1)  # row r0 += row r
            if transforms:
                _add_into(u[r0], u[r], 1)
        factors.append(p)
        order_r.append(r0)
        order_c.append(c0)
        del rows[r0]
    if transforms:  # the pivots onto the leading diagonal, the other rows and columns after
        order_r += sorted(set(u) - set(order_r))
        order_c += sorted(set(v) - set(order_c))
        u = {i: u[r] for i, r in enumerate(order_r)}
        v = {j: v[c] for j, c in enumerate(order_c)}
    return factors, u, v


# ---------------------------------------------------------------------------
# public Smith normal form


@dataclass
class SNFResult:
    """U * A * V = the diagonal embedding of `diagonal` (both transforms unimodular)."""

    diagonal: list[int]
    left_transform: list[list[int]]
    right_transform: list[list[int]]


def smith_normal_form(rows) -> SNFResult:
    """Smith normal form, with unimodular transforms, of the integer matrix with these rows.

    ParameterError if the rows differ in length.  _reduce does the
    elimination.  The diagonal holds the invariant factors in divisibility
    order, then zeros up to min(rows, cols).  Each pivot starts at the
    entry of least absolute value in the shortest row left and shrinks by
    Euclid's algorithm on its column, then its row; meant for moderate sizes.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    row_data: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ParameterError("ragged matrix")
        if any(row):
            row_data[i] = {j: int(v) for j, v in enumerate(row) if v}
    factors, u, v = _reduce(nrows, ncols, row_data, transforms=True)
    diagonal = factors + [0] * (min(nrows, ncols) - len(factors))
    left = [[0] * nrows for _ in range(nrows)]
    for i, row in u.items():
        for j, x in row.items():
            left[i][j] = x
    right = [[0] * ncols for _ in range(ncols)]
    for j, col in v.items():
        for i, x in col.items():
            right[i][j] = x
    return SNFResult(diagonal=diagonal, left_transform=left, right_transform=right)


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion coefficients per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def betti_stripped(self) -> tuple[int, ...]:
        out = list(self.betti)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)


def _homology_from_counts(counts, ranks) -> HomologyResult:
    """Betti/torsion from face counts and the ranks list of _boundary_ranks."""
    rank = [r for r, _tors in ranks] + [0]
    betti = tuple(n - rank[k] - rank[k + 1] for k, n in enumerate(counts))
    if any(b < 0 for b in betti):
        raise StructuralError("negative Betti number: input was not a valid chain complex")
    torsion = tuple(tuple(tors) for _r, tors in ranks[1:]) + ((),)
    return HomologyResult(betti=betti, torsion=torsion)


def _column(pivot) -> dict[int, int]:
    """The column a lazy pivot stands for, as {row mask: entry}.

    A face mask stands for its boundary.  A pair (sigma, tau) of faces that
    drop their smallest vertices to the same facet stands for
    d(sigma) - d(tau): that facet is -1 in both and cancels, and no other
    facet is shared, as each holds its own face's smallest vertex.
    """
    if type(pivot) is int:
        return dict(signed_facets(pivot))
    sigma, tau = pivot
    col = dict(signed_facets(sigma))
    for facet, sign in signed_facets(tau):
        col[facet] = col.get(facet, 0) - sign
    del col[sigma ^ (sigma & -sigma)]
    return col


def _unit_pivot_columns(columns) -> tuple[dict, list]:
    """Reduce boundary columns over Z, keeping only +-1 pivots.

    columns yields a face mask, whose column is its boundary, or a list of
    (row mask, entry) pairs.  Rows are ordered as numbers, which is colex
    order, and a column's pivot is its largest row.  Returns pivot row ->
    reduced column, and the residual: the (row, entry) pairs of each column
    whose pivot was not a unit, once every pivot row is eliminated from it,
    largest first, if any are left.  The pivot columns are triangular with
    a +-1 diagonal, so this is exact over Z, in whatever order the columns
    come.

    Face columns are kept lazily, as Ripser keeps them (Bauer, 2021).
    Of a face's facets, the one that drops its smallest vertex is the
    largest number, with coefficient -1.  If no pivot holds that row, the
    face's raw column is reduced (an apparent pair), and its mask is kept
    as the pivot.  If a raw face tau holds it, d(sigma) - d(tau) cancels
    that row, and its largest row is max(sigma, tau) less the row's smallest
    vertex, with coefficient +-1; if no pivot holds that one, the pair
    (sigma, tau) is kept as the pivot (an emergent pair).  A kept mask or
    pair stands for its column exactly, and the column is built only when
    a later column or a residual must subtract it.
    """
    pivots: dict[int, int | tuple[int, int] | dict[int, int]] = {}
    aside: list[dict[int, int]] = []
    for item in columns:
        if type(item) is int:
            low = item ^ (item & -item)
            other = pivots.get(low)
            if other is None:  # apparent pair
                pivots[low] = item
                continue
            if type(other) is int:
                pair = item, other
                low = max(pair) ^ (low & -low)
                if low not in pivots:  # emergent pair
                    pivots[low] = pair
                    continue
                col = _column(pair)
            else:
                col = dict(signed_facets(item))
        else:
            col = dict(item)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                break
            if type(other) is not dict:
                other = pivots[low] = _column(other)
            _add_into(col, other, -col[low] * other[low])  # other[low] is +-1
        if col:
            if col[low] in (1, -1):
                pivots[low] = col
            else:
                aside.append(col)
    residual = []
    for col in aside:
        while True:
            low = max((i for i in col if i in pivots), default=None)
            if low is None:
                break
            other = pivots[low]
            if type(other) is not dict:
                other = pivots[low] = _column(other)
            _add_into(col, other, -col[low] * other[low])  # other[low] is +-1
        if col:
            residual.append(list(col.items()))
    return pivots, residual


def _boundary_ranks(counts, columns) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Rank and torsion of every differential, by top-down reduction with clearing.

    counts[k] is the number of k-cells; columns(k, skip) yields d_k as
    _unit_pivot_columns reads it, leaving out the k-cells in skip unbuilt.
    Rows and cells are keyed by their masks.  Entry k of the first list is
    (rank d_k, invariant factors > 1 of d_k); entry 0 is (0, []).  The
    second names the dimensions, top first, that left a non-empty residual
    for Smith reduction.

    A k-cell that is the pivot of a reduced d_{k+1} column is skipped
    (cleared): that column is +-1 times the cell plus smaller cells and,
    as d_k d_{k+1} = 0 in any chain complex, a cycle, so the cell's column
    is a combination of smaller cells' columns, and by induction of those
    not cleared.  The unit-pivot columns span a direct summand of the
    (k-1)-chains, complementary to the chains on the other rows, where the
    residual lives; so SNF(d_k) is 1^|pivots| + SNF(residual): rank d_k is
    |pivots| + rank(residual), and its torsion is the residual's.  Each
    reduced column is a Z-combination of d_{k+1} columns, so the unit
    pivots of every dimension clear the dimension below, residual or not.
    """
    out: list[tuple[int, list[int]]] = [(0, [])] * len(counts)
    fallbacks: list[int] = []
    cleared: dict = {}
    for k in range(len(counts) - 1, 0, -1):
        cleared, residual = _unit_pivot_columns(columns(k, cleared))
        out[k] = (len(cleared), [])
        if residual:
            fallbacks.append(k)
            factors, _u, _v = _reduce(counts[k - 1], len(residual), _rows(enumerate(residual)))
            out[k] = (len(cleared) + len(factors), [d for d in factors if d > 1])
    return out, fallbacks


def homology(c: Complex) -> HomologyResult:
    """Integral homology of a complex: unreduced Betti numbers and torsion per dimension.

    A join is folded from its distinct factors' homology; any other complex
    goes through the boundary column reduction.
    """
    if c.join_factors:
        return _join_homology([x for _keep, x in c.join_factors])
    return _homology_by_reduction(c)


def _homology_by_reduction(c: Complex) -> HomologyResult:
    c = c.numbered or c  # a listed complex reduces its numbered closure
    counts = [len(level) for level in c.faces]  # builds the faces, once
    ranks, _fallbacks = _boundary_ranks(
        counts, lambda k, skip: [mask for mask in c.faces[k] if mask not in skip]
    )
    return _homology_from_counts(counts, ranks)


def _join_homology(factors: list[Complex]) -> HomologyResult:
    """Homology of the join of the factors, each reduced on its own.

    The factors' reduced homology is folded by _join_groups.  The check: the
    join's reduced Euler characteristic is (-1)^(m-1) times the product of
    the m factors' reduced Euler characteristics, each counted from that
    factor's own f-vector.  The join split of either kind hands identical
    factors, such as a cone's points, one object (see
    _CliqueComplex.join_factors and simplicial._listed_join), and each
    object is reduced once.
    """
    groups = None
    expected = -1
    seen: dict[int, list] = {}  # id of a factor -> reduced groups
    for x in factors:
        tilde = seen.get(id(x))
        if tilde is None:
            h = _homology_by_reduction(x)
            tilde = [(b - (k == 0), list(t)) for k, (b, t) in enumerate(zip(h.betti, h.torsion))]
            seen[id(x)] = tilde
        expected *= 1 - euler_characteristic(x)  # times -(reduced chi of x)
        groups = tilde if groups is None else _join_groups(groups, tilde)
    if sum((-1) ** n * r for n, (r, _t) in enumerate(groups)) != expected:
        raise StructuralError("join homology disagrees with its factors' Euler characteristics")
    return HomologyResult(
        betti=(1,) + tuple(r for r, _t in groups[1:]),  # a join of non-empty complexes is connected
        torsion=tuple(tuple(t) for _r, t in groups),
    )


def _join_groups(x: list, y: list) -> list[tuple[int, list[int]]]:
    """Reduced homology of X*Y from that of X and Y, each (rank, torsion) per degree.

    With A = Z^a + (+)Z/t and B = Z^b + (+)Z/s, A (x) B is Z^ab plus b copies
    of each Z/t, a copies of each Z/s and Z/gcd(t, s) for each pair, and
    Tor(A, B) is Z/gcd(t, s) for each pair; the (x) terms of degrees i + j
    land in degree i + j + 1, the Tor terms in i + j + 2.  A complex's top
    homology group is a group of cycles, so free: Tor never lands past the end.
    A pair with a zero group adds nothing, so an acyclic factor, such as a
    cone point, folds in without a product.
    """
    rank = [0] * (len(x) + len(y))
    orders: list[list[int]] = [[] for _ in rank]
    for i, (a, t) in enumerate(x):
        if not (a or t):
            continue
        for j, (b, s) in enumerate(y):
            if not (b or s):
                continue
            pairs = [gcd(p, q) for p in t for q in s]
            rank[i + j + 1] += a * b
            orders[i + j + 1] += t * b + s * a + pairs
            if pairs:
                orders[i + j + 2] += pairs
    return [(r, _invariant_factors(o) if o else []) for r, o in zip(rank, orders)]


def _invariant_factors(orders: list[int]) -> list[int]:
    """The invariant factors > 1 of the sum of cyclic groups of the given orders."""
    factors, _u, _v = _reduce(len(orders), len(orders), {i: {i: d} for i, d in enumerate(orders)})
    return [d for d in factors if d > 1]


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of face counts."""
    return sum((-1) ** k * n for k, n in enumerate(c.f_vector()))


# ---------------------------------------------------------------------------
# cycle classification


def _face_terms(c: Complex, z: Chain) -> dict[int, int]:
    """z's terms keyed by face mask; ParameterError for a simplex that is not a face of c."""
    out = {}
    for s, co in z.terms.items():
        mask = mask_of(s)
        if mask not in c.face_set:
            raise ParameterError(f"chain uses {s}, which is not a face of the complex")
        out[mask] = co
    return out


def cycle_class(c: Complex, z: Chain) -> tuple[int, ...]:
    """Coordinates of a cycle's class in H_k, read off c's element matching.

    They are z's coefficients on the critical k-cells, in storage order, of
    its stabilized flow through morse._element_matching(c).  That flow is a
    chain homotopy equivalence onto the Morse complex (Forman, "Morse theory
    for cell complexes", Adv. Math. 134 (1998)), so where the Morse d_k and
    d_(k+1) are zero, H_k is free on those cells and a boundary maps to
    zero; elsewhere ParameterError names the differential that is not.  A
    non-cycle raises PreconditionError; a chain using simplices outside the
    complex raises ParameterError.  Membership and the cycle condition are
    checked on face masks.
    """
    from .morse import _class_cells, _stable_flow

    k = z.dimension
    if not 0 <= k <= c.dim:
        raise ParameterError(f"chain dimension {k} outside 0..{c.dim}")
    start = _face_terms(c, z)
    if _boundary(start):
        # boundary must vanish inside the complex; since the complex is closed
        # downward this is the full cycle condition
        raise PreconditionError("chain is not a cycle")
    m, cells = _class_cells(c, k)
    fixed, _steps = _stable_flow(m, start, c.face_total(), cycle=True)
    return tuple(fixed.get(cell, 0) for cell in cells)
