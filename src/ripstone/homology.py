"""Integral simplicial homology by column reduction with clearing.

_boundary_ranks serves homology() and the Morse complex alike: it reduces
differentials from the top dimension down, skipping columns cleared by the
dimension above, and keeps only +-1 pivots.  Reduced columns with distinct
unit pivots span a direct summand, so each rank is exact and adds no torsion.
A column whose pivot is not a unit is set aside and, once the pass is done,
stripped of every unit-pivot row; only what is left of such columns, the
residual, goes to sparse Smith normal form, which also backs
smith_normal_form and cycle_class's homology bases.

homology() hands the reduction a complex's columns lazily, as Ripser does
(Bauer, "Ripser: efficient computation of Vietoris-Rips persistence
barcodes", J. Appl. Comput. Topol. 5 (2021)): each level is stored in
lexicographic order, so a face's pivot is known from its mask, and its
column is built only if that pivot collides (see _unit_pivot_columns).
The order is checked, not trusted: one pass over the (k-1)-faces confirms
it before d_k is reduced this way, and if it fails, d_k is built eagerly,
as the Morse complex's always is.  A face whose column is built without
one of its facets in the complex raises StructuralError.

A clique complex that is a join X1*...*Xm (the graph's complement is
disconnected, and each Xi is the clique complex on one of its components)
takes its homology from its factors' by the join formula for integral
homology (Milnor, "Construction of universal bundles II", Ann. Math. 63
(1956)):

    H~_n(X*Y) = (+)_{i+j=n-1} H~_i(X) (x) H~_j(Y)  (+)  (+)_{i+j=n-2} Tor(H~_i(X), H~_j(Y))

Its check: the reduced Euler characteristic of the result must equal
(-1)^(m-1) times the product of the factors' reduced Euler characteristics,
counted from the factors' faces; the join itself is never built.  So are
computed the cross-polytope rows (joins of zero-spheres) and the cones,
joins with an acyclic one-vertex factor, such as the full simplex at each
solid's diameter.  Complexes given by their faces (from_faces, complex
files) have no graph and are always reduced.

The boundary convention used everywhere: for a simplex written with ascending
vertices v1 < ... < vn,

    d[v1,...,vn] = sum_{i=1..n} (-1)^i [v1,...,vi-hat,...,vn]

so the face dropping the first vertex carries coefficient -1.  All arithmetic
is exact; Python integers widen on demand, so no overflow discipline is
needed beyond avoiding floats.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
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
        if not isinstance(coeff, int):
            raise ParameterError(f"coefficient of {s} must be an integer")
        if coeff:
            clean[s] = coeff
    return Chain(dimension=dimension, terms=clean)


def simplex_boundary(s: Simplex) -> list[tuple[Simplex, int]]:
    """Signed facets of a simplex under the package boundary convention."""
    return [(vertices_of(f), sign) for f, sign in signed_facets(mask_of(s))]


def boundary_chain(z: Chain) -> Chain:
    """The boundary of a chain (zero chain for dimension 0)."""
    if z.dimension == 0:
        return Chain(dimension=0, terms={})
    acc: dict[Simplex, int] = {}
    for s, coeff in z.terms.items():
        for face, sign in simplex_boundary(s):
            val = acc.get(face, 0) + sign * coeff
            if val:
                acc[face] = val
            else:
                acc.pop(face, None)
    return Chain(dimension=z.dimension - 1, terms=acc)


# ---------------------------------------------------------------------------
# matrices


@dataclass
class IntMatrix:
    """A sparse integer matrix; entries maps (row, col) to a nonzero value."""

    rows: int
    cols: int
    entries: dict

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    @classmethod
    def from_dense(cls, dense) -> "IntMatrix":
        entries = {}
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise ParameterError("ragged matrix")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = int(v)
        return cls(rows=rows, cols=cols, entries=entries)


def _boundary_columns(c: Complex, k: int, skip=()):
    """d_k column by column in storage order, as (column, its (row, sign) pairs).

    Columns whose index is in skip are left out without being built.
    """
    below = c.index(k - 1)
    for j, mask in enumerate(c.faces[k]):
        if j not in skip:
            yield j, _facet_rows(below, mask)


def _facet_rows(below: dict[int, int], mask: int) -> list[tuple[int, int]]:
    """A face's boundary column as (row, sign) pairs; below maps each facet mask to its row."""
    try:
        return [(below[f], sign) for f, sign in signed_facets(mask)]
    except KeyError as e:
        raise _missing_facet(mask, e) from None


def _missing_facet(mask: int, e: KeyError) -> StructuralError:
    return StructuralError(
        f"face {vertices_of(mask)} has no facet {vertices_of(e.args[0])} in the complex:"
        " the complex is not closed downward"
    )


class _Faces:
    """d_k of a complex whose (k-1)-faces are lex-ordered, as the masks of its k-faces.

    _unit_pivot_columns reads each column's pivot off its mask and builds
    the column only when it must.
    """

    __slots__ = ("below", "masks")

    def __init__(self, below: dict[int, int], masks: list[int]):
        self.below = below  # (k-1)-face mask -> row
        self.masks = masks  # the k-faces not cleared, in storage order


def _face_columns(c: Complex, k: int, skip=()):
    """d_k of a complex for _boundary_ranks: lazy _Faces if its rows are lex-ordered.

    If the (k-1)-faces are out of order, a face's largest row is not known
    from its mask, and d_k is built eagerly by _boundary_columns.
    """
    if not _lex_ordered(c.faces[k - 1]):
        return _boundary_columns(c, k, skip)
    return _Faces(c.index(k - 1), [m for j, m in enumerate(c.faces[k]) if j not in skip])


def _lex_ordered(level: list[int]) -> bool:
    """Whether each mask comes before the next in lexicographic order of their vertex tuples.

    Of two masks, the first is the one holding the lowest bit where they
    differ; equal masks are out of order.
    """
    return all(a & (x := a ^ b) & -x for a, b in zip(level, level[1:]))


def boundary_matrix(c: Complex, k: int) -> IntMatrix:
    """Matrix of d_k: rows are (k-1)-faces, columns are k-faces, in storage order."""
    if not 1 <= k <= c.dim:
        raise ParameterError(f"no boundary matrix in dimension {k} for a complex of dim {c.dim}")
    entries = {(i, j): sign for j, col in _boundary_columns(c, k) for i, sign in col}
    return IntMatrix(rows=len(c.faces[k - 1]), cols=len(c.faces[k]), entries=entries)


def _rows(columns) -> dict[int, dict[int, int]]:
    """Row-oriented copy of (column, its (row, entry) pairs), the input of _reduce."""
    rows: dict[int, dict[int, int]] = {}
    for j, col in columns:
        for i, v in col:
            rows.setdefault(i, {})[j] = v
    return rows


# ---------------------------------------------------------------------------
# sparse Smith reduction engine


@dataclass
class _Reduction:
    rank: int
    factors: list[int]
    u_rows: dict | None = None
    v_cols: dict | None = None
    vinv_rows: dict | None = None


def _add_into(dst: dict, src: dict, k: int) -> None:
    for key, val in src.items():
        new = dst.get(key, 0) + k * val
        if new:
            dst[key] = new
        else:
            dst.pop(key, None)


def _reduce(nrows: int, ncols: int, row_data: dict, need: frozenset = frozenset()) -> _Reduction:
    """Diagonalize an integer matrix by unimodular row and column operations.

    row_data is consumed.  need may contain "U", "V", "Vinv"; the
    requested transforms are returned with the final permutation and
    divisibility normalization applied, so that U * A * V embeds the
    invariant-factor diagonal at positions (0,0), (1,1), ...
    """
    track = bool(need)
    u_rows = {i: {i: 1} for i in range(nrows)} if "U" in need else None
    v_cols = {j: {j: 1} for j in range(ncols)} if "V" in need else None
    vinv_rows = {j: {j: 1} for j in range(ncols)} if "Vinv" in need else None

    col_rows: dict[int, set] = {}
    for r, row in row_data.items():
        for cidx in row:
            col_rows.setdefault(cidx, set()).add(r)

    heap = [(len(row), r) for r, row in row_data.items()]
    heapq.heapify(heap)
    push = heapq.heappush

    # Transform updates for elimination and the diagonal pass (after reindexing).
    def u_add(dst: int, src: int, k: int) -> None:
        if u_rows is not None:
            _add_into(u_rows[dst], u_rows[src], k)

    def v_add(dst: int, src: int, k: int) -> None:
        if v_cols is not None:
            _add_into(v_cols[dst], v_cols[src], k)
        if vinv_rows is not None:
            _add_into(vinv_rows[src], vinv_rows[dst], -k)

    def v_swap(i: int, j: int) -> None:
        if v_cols is not None:
            v_cols[i], v_cols[j] = v_cols[j], v_cols[i]
        if vinv_rows is not None:
            vinv_rows[i], vinv_rows[j] = vinv_rows[j], vinv_rows[i]

    def u_negate(i: int) -> None:
        if u_rows is not None:
            for key in u_rows[i]:
                u_rows[i][key] = -u_rows[i][key]

    def row_add(dst: int, src: int, k: int) -> None:
        dst_row = row_data.get(dst)
        if dst_row is None:
            dst_row = row_data[dst] = {}
        for cidx, val in row_data[src].items():
            new = dst_row.get(cidx, 0) + k * val
            if new:
                if cidx not in dst_row:
                    col_rows[cidx].add(dst)
                dst_row[cidx] = new
            else:
                del dst_row[cidx]
                col_rows[cidx].discard(dst)
        if dst_row:
            push(heap, (len(dst_row), dst))
        else:
            del row_data[dst]
        u_add(dst, src, k)

    def col_add(dst: int, src: int, k: int) -> None:
        for r in list(col_rows.get(src, ())):
            row = row_data[r]
            new = row.get(dst, 0) + k * row[src]
            if new:
                if dst not in row:
                    col_rows.setdefault(dst, set()).add(r)
                row[dst] = new
            else:
                del row[dst]
                col_rows[dst].discard(r)
            push(heap, (len(row), r))
        v_add(dst, src, k)

    def row_negate(i: int) -> None:
        row = row_data[i]
        for cidx in row:
            row[cidx] = -row[cidx]
        u_negate(i)

    pivots: list[tuple[int, int, int]] = []
    while row_data:
        nnz, r0 = heapq.heappop(heap)
        if r0 not in row_data or len(row_data[r0]) != nnz:
            continue
        row = row_data[r0]
        c0 = min(row, key=lambda cc: (abs(row[cc]) != 1, abs(row[cc]), len(col_rows[cc]), cc))
        while True:
            if row_data[r0][c0] < 0:
                row_negate(r0)
            v = row_data[r0][c0]
            moved = False
            for r in sorted(col_rows[c0] - {r0}):
                q = row_data[r][c0] // v
                if q:
                    row_add(r, r0, -q)
                if c0 in row_data.get(r, ()):  # remainder 0 < rem < v: better pivot
                    push(heap, (len(row_data[r0]), r0))
                    r0 = r
                    moved = True
                    break
            if moved:
                continue
            bad = None
            for cidx in sorted(row_data[r0]):
                if cidx == c0:
                    continue
                q = row_data[r0][cidx] // v
                if q:
                    col_add(cidx, c0, -q)
                if cidx in row_data[r0]:
                    bad = cidx
                    break
            if bad is not None:
                c0 = bad
                continue
            break
        v = row_data[r0][c0]
        pivots.append((r0, c0, v))
        del row_data[r0]
        del col_rows[c0]

    # Unit pivots first, so the divisibility pass below runs over the tail only.
    pivots.sort(key=lambda p: abs(p[2]) != 1)
    units = sum(1 for p in pivots if abs(p[2]) == 1)
    if track:
        # Move pivots onto the leading diagonal: transforms are reindexed on
        # their permuted axis, nothing else changes.
        row_perm = {}
        col_perm = {}
        for i, (r, cc, _v) in enumerate(pivots):
            row_perm[r] = i
            col_perm[cc] = i
        nxt = len(pivots)
        for r in range(nrows):
            if r not in row_perm:
                row_perm[r] = nxt
                nxt += 1
        nxt = len(pivots)
        for cc in range(ncols):
            if cc not in col_perm:
                col_perm[cc] = nxt
                nxt += 1
        if u_rows is not None:
            u_rows = {row_perm[r]: row for r, row in u_rows.items()}
        if v_cols is not None:
            v_cols = {col_perm[cc]: col for cc, col in v_cols.items()}
        if vinv_rows is not None:
            vinv_rows = {col_perm[cc]: row for cc, row in vinv_rows.items()}

    diag = [p[2] for p in pivots]
    for i in range(len(diag)):
        if diag[i] < 0:
            u_negate(i)
            diag[i] = -diag[i]

    changed = True
    while changed:
        changed = False
        for i in range(units, len(diag)):
            for j in range(i + 1, len(diag)):
                a, b = diag[i], diag[j]
                if b % a == 0:
                    continue
                changed = True
                # 2x2 dance on rows/cols i, j: diag(a, b) -> diag(gcd, lcm)
                u_add(i, j, 1)
                x, y = a, b  # row i of the 2x2 block
                u, w = 0, b  # row j
                while y:
                    q = x // y
                    if q:
                        v_add(i, j, -q)
                        x -= q * y
                        u -= q * w
                    v_swap(i, j)
                    x, y = y, x
                    u, w = w, u
                assert x == gcd(a, b) and u % x == 0
                if u:
                    u_add(j, i, -u // x)
                if w < 0:
                    u_negate(j)
                    w = -w
                diag[i], diag[j] = x, w

    return _Reduction(
        rank=len(diag), factors=diag, u_rows=u_rows, v_cols=v_cols, vinv_rows=vinv_rows
    )


# ---------------------------------------------------------------------------
# public Smith normal form


@dataclass
class SNFResult:
    """U * A * V = the diagonal embedding of `diagonal` (both transforms unimodular)."""

    diagonal: list[int]
    left_transform: list[list[int]]
    right_transform: list[list[int]]


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with explicit transforms; intended for moderate sizes."""
    row_data: dict[int, dict[int, int]] = {}
    for (i, j), v in a.entries.items():
        if not 0 <= i < a.rows or not 0 <= j < a.cols:
            raise ParameterError(f"entry {(i, j)} outside a {a.rows} x {a.cols} matrix")
        if v:
            row_data.setdefault(i, {})[j] = int(v)
    red = _reduce(a.rows, a.cols, row_data, need=frozenset({"U", "V"}))
    diagonal = red.factors + [0] * (min(a.rows, a.cols) - red.rank)
    left = [[0] * a.rows for _ in range(a.rows)]
    for i, row in red.u_rows.items():
        for j, v in row.items():
            left[i][j] = v
    right = [[0] * a.cols for _ in range(a.cols)]
    for j, col in red.v_cols.items():
        for i, v in col.items():
            right[i][j] = v
    return SNFResult(diagonal=diagonal, left_transform=left, right_transform=right)


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion coefficients per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool

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
    return HomologyResult(betti=betti, torsion=torsion, reduced=False)


def _unit_pivot_columns(columns) -> tuple[dict, list]:
    """Reduce boundary columns over Z, keeping only +-1 pivots.

    columns yields (index, entries) in order, or is a complex's _Faces;
    a column's pivot is its largest row.  Returns pivot row -> reduced
    column, and the residual: the (row, entry) pairs of each column whose
    pivot was not a unit, once every pivot row is eliminated from it,
    largest first, if any are left.  The pivot columns are triangular with
    a +-1 diagonal, so this is exact over Z.

    A face's column in _Faces is its raw boundary.  The (k-1)-faces are
    lex-ordered, and the facet that drops the face's smallest vertex comes
    after every other facet (the others keep that vertex, which is where
    they first differ from it), so that facet is the column's largest row,
    with coefficient -1.  If no earlier column holds that row, the raw
    column is already reduced with a unit pivot: its face mask is recorded
    as the pivot and stands for the column, exactly, until a later column
    or a residual must subtract it; then the column is built in its place.
    """
    pivots: dict[int, dict[int, int] | int] = {}  # a mask stands for its raw column
    aside: list[dict[int, int]] = []
    lazy = isinstance(columns, _Faces)
    if lazy:
        below = columns.below
        columns = columns.masks
    for item in columns:
        if lazy:
            try:
                low = below[item ^ (item & -item)]
            except KeyError as e:
                raise _missing_facet(item, e) from None
            if low not in pivots:
                pivots[low] = item
                continue
            col = dict(_facet_rows(below, item))
        else:
            col = dict(item[1])
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                break
            if type(other) is int:
                other = pivots[low] = dict(_facet_rows(below, other))
            _subtract(col, other, low)
        if col:
            if col[low] in (1, -1):
                pivots[low] = col
            else:
                aside.append(col)
    residual = []
    for col in aside:
        hits = [-i for i in col if i in pivots]  # max-heap of pivot rows in col
        heapq.heapify(hits)
        while hits:
            low = -heapq.heappop(hits)
            if low in col:  # a row can be pushed twice
                other = pivots[low]
                if type(other) is int:
                    other = pivots[low] = dict(_facet_rows(below, other))
                _subtract(col, other, low)
                for i in other:  # fill-in lies below low, in rows not yet popped
                    if i in col and i in pivots:
                        heapq.heappush(hits, -i)
        if col:
            residual.append(list(col.items()))
    return pivots, residual


def _subtract(col: dict[int, int], other: dict[int, int], low: int) -> None:
    """Clear col's entry in row low with other, whose entry there is +-1."""
    q = col[low] * other[low]  # other[low] is +-1, so q = col[low] / other[low]
    for i, v in other.items():
        new = col.get(i, 0) - q * v
        if new:
            col[i] = new
        else:
            del col[i]


def _boundary_ranks(counts, columns) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Rank and torsion of every differential, by top-down reduction with clearing.

    counts[k] is the number of k-cells; columns(k, skip) yields d_k as
    (column, its (row, coefficient) pairs), or returns it as a complex's
    _Faces, leaving out those in skip unbuilt.
    Entry k of the first list is (rank d_k, invariant factors > 1 of d_k);
    entry 0 is (0, []).  The second names the dimensions, top first, that
    left a non-empty residual for Smith reduction.

    A k-cell that is the pivot of a reduced d_{k+1} column is skipped
    (cleared): that column is +-1 times the cell plus earlier cells and,
    as d_k d_{k+1} = 0 in any chain complex, a cycle, so the cell's column
    is a combination of earlier columns of d_k.  The unit-pivot columns
    span a direct summand of the (k-1)-chains, complementary to the chains
    on the other rows, where the residual lives; so SNF(d_k) is
    1^|pivots| + SNF(residual): rank d_k is |pivots| + rank(residual), and
    its torsion is the residual's.  Each reduced column is a Z-combination
    of d_{k+1} columns, so the unit pivots of every dimension clear the
    dimension below, residual or not.
    """
    out: list[tuple[int, list[int]]] = [(0, [])] * len(counts)
    fallbacks: list[int] = []
    cleared: dict = {}
    for k in range(len(counts) - 1, 0, -1):
        cleared, residual = _unit_pivot_columns(columns(k, cleared))
        out[k] = (len(cleared), [])
        if residual:
            fallbacks.append(k)
            red = _reduce(counts[k - 1], len(residual), _rows(enumerate(residual)))
            out[k] = (len(cleared) + red.rank, [d for d in red.factors if d > 1])
    return out, fallbacks


def homology(c: Complex, reduced: bool = False) -> HomologyResult:
    """Integral homology of a complex; Betti numbers are unreduced by default."""
    if c.join_factors:
        result = _join_homology([x for _keep, x in c.join_factors])
    else:
        result = _homology_by_reduction(c)
    if reduced:
        betti = list(result.betti)
        betti[0] -= 1
        return HomologyResult(betti=tuple(betti), torsion=result.torsion, reduced=True)
    return result


def _homology_by_reduction(c: Complex) -> HomologyResult:
    counts = [len(level) for level in c.faces]  # builds the faces, once
    ranks, _fallbacks = _boundary_ranks(counts, partial(_face_columns, c))
    return _homology_from_counts(counts, ranks)


def _join_homology(factors: list[Complex]) -> HomologyResult:
    """Homology of the join of the factors, each reduced on its own.

    The factors' reduced homology is folded by _join_groups.  The check: the
    join's reduced Euler characteristic is (-1)^(m-1) times the product of
    the m factors' reduced Euler characteristics, counted from their faces.
    Identical factors, such as a cone's points, are reduced and counted once.
    """
    groups = None
    expected = -1
    seen: dict[tuple[int, ...], tuple[list, int]] = {}  # graph -> reduced groups, 1 - chi
    for x in factors:
        if x.graph not in seen:
            h = _homology_by_reduction(x)
            tilde = [(b - (k == 0), list(t)) for k, (b, t) in enumerate(zip(h.betti, h.torsion))]
            seen[x.graph] = tilde, 1 - euler_characteristic(x)
        tilde, chi = seen[x.graph]
        expected *= chi  # times -(reduced chi of x)
        groups = tilde if groups is None else _join_groups(groups, tilde)
    if sum((-1) ** n * r for n, (r, _t) in enumerate(groups)) != expected:
        raise StructuralError("join homology disagrees with its factors' Euler characteristics")
    return HomologyResult(
        betti=(1,) + tuple(r for r, _t in groups[1:]),  # a join of non-empty complexes is connected
        torsion=tuple(tuple(t) for _r, t in groups),
        reduced=False,
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
    red = _reduce(len(orders), len(orders), {i: {i: d} for i, d in enumerate(orders)})
    return [d for d in red.factors if d > 1]


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of face counts."""
    return sum((-1) ** k * n for k, n in enumerate(c.f_vector()))


# ---------------------------------------------------------------------------
# cycle classification


class HomologyBasis:
    """A fixed integral basis for the free part of H_k of one complex.

    Built once per (complex, dimension); classify() expresses any k-cycle in
    the basis.  Deterministic given the complex's face order.
    """

    def __init__(self, c: Complex, k: int):
        if not 0 <= k <= c.dim:
            raise ParameterError(f"dimension {k} outside 0..{c.dim}")
        self.complex = c
        self.k = k
        n = len(c.faces[k])
        if k >= 1:
            red_a = _reduce(
                len(c.faces[k - 1]), n, _rows(_boundary_columns(c, k)), need=frozenset({"Vinv"})
            )
            self.rank_a = red_a.rank
            vinv_rows = red_a.vinv_rows
        else:
            self.rank_a = 0
            vinv_rows = {j: {j: 1} for j in range(n)}
        self.kernel_dim = n - self.rank_a
        # column-oriented copy of Vinv for sparse vector transport
        self.vinv_by_col: dict[int, dict[int, int]] = {}
        for i, row in vinv_rows.items():
            for j, v in row.items():
                self.vinv_by_col.setdefault(j, {})[i] = v
        # image of d_{k+1} in kernel coordinates
        bhat: dict[int, dict[int, int]] = {}
        ncols_b = 0
        if k + 1 <= c.dim:
            ncols_b = len(c.faces[k + 1])
            for j, col in _boundary_columns(c, k + 1):
                acc: dict[int, int] = {}
                for i, sign in col:
                    self._accumulate(acc, i, sign)
                for pos, val in acc.items():
                    if pos < self.rank_a:
                        raise StructuralError("boundary column is not a cycle; bad complex")
                    bhat.setdefault(pos - self.rank_a, {})[j] = val
        red_b = _reduce(self.kernel_dim, ncols_b, bhat, need=frozenset({"U"}))
        self.rank_b = red_b.rank
        self.u_rows = red_b.u_rows

    def _accumulate(self, acc: dict[int, int], col: int, coeff: int) -> None:
        for i, v in self.vinv_by_col.get(col, {}).items():
            new = acc.get(i, 0) + coeff * v
            if new:
                acc[i] = new
            else:
                del acc[i]

    def classify(self, z: Chain) -> tuple[int, ...]:
        index = self.complex.index(self.k)
        acc: dict[int, int] = {}
        for s, coeff in z.terms.items():
            self._accumulate(acc, index[mask_of(s)], coeff)
        if any(pos < self.rank_a for pos in acc):
            raise PreconditionError("chain is not a cycle")
        coords = []
        for i in range(self.rank_b, self.kernel_dim):
            row = self.u_rows[i]
            coords.append(sum(v * acc.get(j + self.rank_a, 0) for j, v in row.items()))
        return tuple(coords)


def _basis(c: Complex, k: int) -> HomologyBasis:
    key = ("basis", k)
    if key not in c._cache:
        c._cache[key] = HomologyBasis(c, k)
    return c._cache[key]


def cycle_class(c: Complex, z: Chain) -> tuple[int, ...]:
    """Coordinates of a cycle's class in the fixed basis of the free part of H_k.

    The zero chain maps to the zero vector; a non-cycle raises
    PreconditionError; a chain using simplices outside the complex raises
    StructuralError.
    """
    k = z.dimension
    if not 0 <= k <= c.dim:
        raise ParameterError(f"chain dimension {k} outside 0..{c.dim}")
    for s in z.terms:
        if not c.has_face(s):
            raise StructuralError(f"chain uses {s}, which is not a face of the complex")
    bd = boundary_chain(z)
    if not bd.is_zero():
        # boundary must vanish inside the complex; since the complex is closed
        # downward this is the full cycle condition
        raise PreconditionError("chain is not a cycle")
    return _basis(c, k).classify(z)
