"""Discrete Morse matchings on simplicial complexes.

Covers certification (validity, acyclicity with explicit cycle certificates),
randomized constrained search by free-pair collapse, the algebraic flow that
traces chains through a collapse, the homology of the critical complex, and
the polygon fan/flip matchings.  The critical complex goes through
homology()'s clearing, unit-pivot and residual-Smith routine.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ParameterError, PreconditionError, SearchFailure, StructuralError
from .homology import Chain, HomologyResult, _boundary_ranks, _homology_from_counts, make_chain
from .simplicial import Complex, Simplex, mask_of, signed_facets, simplex, vertices_of


@dataclass(frozen=True)
class Matching:
    """A partial pairing of simplices with cofacets; pairs are (lower, upper)."""

    pairs: tuple

    def lower_to_upper(self) -> dict:
        return {lo: up for lo, up in self.pairs}

    def upper_to_lower(self) -> dict:
        return {up: lo for lo, up in self.pairs}

    def cells(self) -> set:
        out = set()
        for lo, up in self.pairs:
            out.add(lo)
            out.add(up)
        return out

    def __len__(self) -> int:
        return len(self.pairs)


def matching_from_pairs(pairs) -> Matching:
    """Canonicalize a pair collection; exact duplicates collapse to one pair."""
    seen = set()
    for lo, up in pairs:
        seen.add((simplex(lo), simplex(up)))
    ordered = sorted(seen, key=lambda p: (len(p[0]), p[0], p[1]))
    return Matching(pairs=tuple(ordered))


@dataclass(frozen=True)
class MatchingReport:
    """Verdict of check_matching.

    critical is empty when the matching is invalid; certificate is an
    alternating cell sequence (upper, lower, upper, ...) tracing a directed
    cycle, present exactly when valid but not acyclic.
    """

    valid: bool
    acyclic: bool
    critical: tuple
    certificate: tuple | None
    violations: tuple

    def ok(self) -> bool:
        return self.valid and self.acyclic


def check_matching(c: Complex, m: Matching) -> MatchingReport:
    """Validate the pairing rules, then certify acyclicity dimension by dimension.

    Rule violations are reported, not raised; a directed cycle yields a
    minimal-length certificate found by breadth-first search.
    """
    violations = []
    roles: dict[Simplex, int] = {}
    for lo, up in m.pairs:
        if not c.has_face(lo) or not c.has_face(up):
            violations.append(f"pair {lo} -> {up} uses a simplex outside the complex")
            continue
        if len(up) != len(lo) + 1 or not set(lo) < set(up):
            violations.append(f"pair {lo} -> {up} is not a facet-cofacet pair")
            continue
        for cell in (lo, up):
            roles[cell] = roles.get(cell, 0) + 1
            if roles[cell] == 2:
                violations.append(f"{cell} occurs in more than one pair")
    if violations:
        return MatchingReport(False, False, (), None, tuple(violations))

    matched_masks = {mask_of(s) for s in roles}

    certificate = None
    for dim in sorted({len(lo) - 1 for lo, _up in m.pairs}):
        nodes = [(mask_of(lo), mask_of(up)) for lo, up in m.pairs if len(lo) - 1 == dim]
        lower_index = {lo: i for i, (lo, _up) in enumerate(nodes)}
        succ: list[list[int]] = []
        for lo, up in nodes:
            out = []
            for fmask, _sign in signed_facets(up):
                j = lower_index.get(fmask)
                if j is not None and fmask != lo:
                    out.append(j)
            succ.append(sorted(out))
        cycle = _minimal_cycle(succ)
        if cycle is not None:
            cells = []
            k = len(cycle)
            for i in range(k):
                cells.append(vertices_of(nodes[cycle[i]][1]))
                cells.append(vertices_of(nodes[cycle[(i + 1) % k]][0]))
            certificate = tuple(cells)
            break

    critical = []
    for level in c.faces:
        for mask in level:
            if mask not in matched_masks:
                critical.append(vertices_of(mask))
    return MatchingReport(
        valid=True,
        acyclic=certificate is None,
        critical=tuple(critical),
        certificate=certificate,
        violations=(),
    )


def _minimal_cycle(succ: list[list[int]]) -> list[int] | None:
    """Shortest directed cycle in a successor-list digraph, or None if acyclic."""
    n = len(succ)
    indeg = [0] * n
    for outs in succ:
        for j in outs:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    alive = n
    while queue:
        i = queue.pop()
        alive -= 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if alive == 0:
        return None
    remaining = [i for i in range(n) if indeg[i] > 0]
    rem = set(remaining)
    best: list[int] | None = None
    for s in remaining:
        parent = {s: -1}
        frontier = [s]
        found = None
        depth = 1
        while frontier and found is None:
            if best is not None and depth >= len(best):
                break
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v not in rem:
                        continue
                    if v == s:
                        found = u
                        break
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
                if found is not None:
                    break
            frontier = nxt
            depth += 1
        if found is not None:
            path = [found]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            path.reverse()
            if best is None or len(path) < len(best):
                best = path
    return best


def find_matching(
    c: Complex,
    candidate,
    forced_critical=(),
    seed: int = 0,
    max_attempts: int = 1000,
) -> Matching:
    """Search for an acyclic matching covering candidate minus forced_critical.

    Randomized free-pair collapse: a cell is free when exactly one of its
    candidate cofacets is still unpaired; pairing free cells in random order
    cannot create directed cycles (the earliest-removed pair of a hypothetical
    cycle would have had two live cofacets).  Restarts with seed+attempt on a
    stall; raises SearchFailure carrying the best attempt's surplus.
    """
    if max_attempts < 1:
        raise ParameterError("max_attempts must be positive")
    cand_masks = set()
    for s in candidate:
        s = simplex(s)
        if not c.has_face(s):
            raise StructuralError(f"candidate {s} is not a face of the complex")
        cand_masks.add(mask_of(s))
    forced_masks = set()
    for s in forced_critical:
        s = simplex(s)
        if mask_of(s) not in cand_masks:
            raise ParameterError(f"forced critical cell {s} is not in the candidate set")
        forced_masks.add(mask_of(s))

    live0 = sorted(cand_masks - forced_masks, key=lambda m_: (m_.bit_count(), vertices_of(m_)))
    live0_set = set(live0)
    cofacets: dict[int, list[int]] = {}
    facets_in: dict[int, list[int]] = {}
    for mask in live0:
        for v in vertices_of(mask):
            sub = mask ^ (1 << v)
            if sub in live0_set:
                cofacets.setdefault(sub, []).append(mask)
                facets_in.setdefault(mask, []).append(sub)
    base_count = {m_: len(cofacets.get(m_, ())) for m_ in live0}

    best_surplus: list[Simplex] | None = None
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt)
        live = set(live0_set)
        count = dict(base_count)
        free = [m_ for m_ in live0 if count[m_] == 1]
        pairs: list[tuple[int, int]] = []
        while free:
            i = rng.randrange(len(free))
            mask = free[i]
            free[i] = free[-1]
            free.pop()
            if mask not in live or count[mask] != 1:
                continue
            tau = next(t for t in cofacets[mask] if t in live)
            pairs.append((mask, tau))
            live.discard(mask)
            live.discard(tau)
            for removed in (mask, tau):
                for sub in facets_in.get(removed, ()):
                    if sub in live:
                        count[sub] -= 1
                        if count[sub] == 1:
                            free.append(sub)
        if not live:
            m = matching_from_pairs(
                (vertices_of(lo), vertices_of(up)) for lo, up in pairs
            )
            report = matching_report(c, m)  # cached for later flows
            if not report.ok():  # collapse order should certify; treat as a bug
                raise StructuralError("collapse produced an uncertifiable matching")
            return m
        surplus = sorted(vertices_of(m_) for m_ in live)
        if best_surplus is None or len(surplus) < len(best_surplus):
            best_surplus = surplus
    raise SearchFailure(
        f"no perfect matching on {len(live0)} cells within {max_attempts} attempts",
        surplus=best_surplus or [],
        attempts=max_attempts,
    )


@dataclass(frozen=True)
class FlowChain:
    """A stabilized flow image together with the number of steps taken."""

    chain: Chain
    steps: int


def _pairing_operator(m: Matching) -> dict[int, tuple[int, int]]:
    """lower mask -> (upper mask, sign) with the sign fixed so dV(lower) cancels lower."""
    v_map = {}
    for lo, up in m.pairs:
        lo_m, up_m = mask_of(lo), mask_of(up)
        v_map[lo_m] = (up_m, -dict(signed_facets(up_m))[lo_m])
    return v_map


def _axpy(acc: dict, key: int, val: int) -> None:
    new = acc.get(key, 0) + val
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def _flow_once(cur: dict, v_map: dict) -> dict:
    out = dict(cur)
    for mask, co in cur.items():
        hit = v_map.get(mask)
        if hit is not None:  # d(V z)
            up, vsign = hit
            for fmask, fsign in signed_facets(up):
                _axpy(out, fmask, co * vsign * fsign)
        for fmask, fsign in signed_facets(mask):  # V(d z)
            hit = v_map.get(fmask)
            if hit is not None:
                _axpy(out, hit[0], co * fsign * hit[1])
    return out


def _flow_to_fixpoint(chain: dict, v_map: dict, limit: int) -> tuple[dict, int]:
    cur = chain
    steps = 0
    while True:
        nxt = _flow_once(cur, v_map)
        if nxt == cur:
            return cur, steps
        cur = nxt
        steps += 1
        if steps > limit:
            raise StructuralError("flow failed to stabilize; matching cannot be acyclic")


def _certify(c: Complex, m: Matching) -> tuple[MatchingReport, dict | None]:
    """check_matching(c, m) and, if it passes, the pairing operator of m.

    Both are computed once and cached in c._cache under the (frozen,
    hashable) matching, so finding a matching, reporting on it and flowing
    many chains through it certify it once.
    """
    key = ("matching", m)
    if key not in c._cache:
        report = check_matching(c, m)
        c._cache[key] = (report, _pairing_operator(m) if report.ok() else None)
    return c._cache[key]


def matching_report(c: Complex, m: Matching) -> MatchingReport:
    """check_matching(c, m), computed at most once per complex and matching."""
    return _certify(c, m)[0]


def _certified(c: Complex, m: Matching, purpose: str | None = None) -> tuple[MatchingReport, dict]:
    """The cached report and pairing operator of a valid acyclic matching.

    Raises PreconditionError otherwise; with a purpose, the error names it
    instead of the flow's own reasons.
    """
    report, v_map = _certify(c, m)
    if report.ok():
        return report, v_map
    if purpose is not None:
        raise PreconditionError(f"{purpose} requires a valid acyclic matching")
    if not report.valid:
        raise PreconditionError(f"invalid matching: {report.violations[0]}")
    raise PreconditionError("matching has a directed cycle; flow may diverge")


def morse_flow(c: Complex, m: Matching, z: Chain) -> FlowChain:
    """Iterate the flow map id + dV + Vd until the chain is fixed."""
    _report, v_map = _certified(c, m)
    for s in z.terms:
        if not c.has_face(s):
            raise StructuralError(f"chain uses {s}, which is not a face of the complex")
    start = {mask_of(s): co for s, co in z.terms.items()}
    fixed, steps = _flow_to_fixpoint(start, v_map, c.face_total())
    terms = {vertices_of(mask): co for mask, co in fixed.items()}
    return FlowChain(chain=make_chain(z.dimension, terms), steps=steps)


def _morse_complex(c: Complex, m: Matching) -> tuple[list[int], Callable]:
    """Cell counts and columns(k, skip) of the Morse complex, for _boundary_ranks.

    A critical cell's differential is the stabilized flow of its boundary on
    the critical cells; a skipped cell is never flowed.
    """
    report, v_map = _certified(c, m, "critical complex")
    top = max(len(s) for s in report.critical) - 1
    crit: list[list[int]] = [[] for _ in range(top + 1)]
    for s in report.critical:
        crit[len(s) - 1].append(mask_of(s))
    index = [{mask: i for i, mask in enumerate(level)} for level in crit]
    limit = c.face_total()

    def columns(k: int, skip=()):
        below = index[k - 1]
        for j, mask in enumerate(crit[k]):
            if j not in skip:
                fixed, _steps = _flow_to_fixpoint(dict(signed_facets(mask)), v_map, limit)
                yield j, [(below[f], co) for f, co in fixed.items() if f in below]

    return [len(level) for level in crit], columns


def critical_complex_homology(c: Complex, m: Matching) -> HomologyResult:
    """Homology of the Morse chain complex on the critical cells; agrees with homology(c)."""
    counts, columns = _morse_complex(c, m)
    return _homology_from_counts(counts, _boundary_ranks(counts, columns)[0])


def fan_triangulation(ngon: int, apex: int) -> list[Simplex]:
    """All faces of the fan triangulation of a convex n-gon at one apex."""
    if not 3 <= ngon <= 12:
        raise ParameterError(f"ngon must be in 3..12, got {ngon}")
    if not 0 <= apex < ngon:
        raise ParameterError(f"apex {apex} outside 0..{ngon - 1}")
    faces = [(i,) for i in range(ngon)]
    for i in range(ngon):
        faces.append(tuple(sorted((i, (i + 1) % ngon))))
    for j in range(ngon):
        if j != apex and (j + 1) % ngon != apex and (apex + 1) % ngon != j:
            faces.append(tuple(sorted((apex, j))))
    for i in range(ngon):
        j = (i + 1) % ngon
        if i != apex and j != apex:
            faces.append(tuple(sorted((apex, i, j))))
    return sorted(set(faces), key=lambda s: (len(s), s))


def fan_matching(ngon: int, apex: int) -> Matching:
    """Pair every face containing the apex but outside the fan triangulation
    with its apex-free facet; a perfect matching off the triangulation."""
    tri = set(fan_triangulation(ngon, apex))
    apex_bit = 1 << apex
    pairs = []
    for sub in range(1, 1 << ngon):
        if not sub & apex_bit:
            continue
        upper = vertices_of(sub)
        if upper in tri:
            continue
        pairs.append((vertices_of(sub ^ apex_bit), upper))
    return matching_from_pairs(pairs)


def flip_matching_update(m: Matching, quad, old_diagonal) -> Matching:
    """Replace the diagonal of one quadrilateral in the critical triangulation.

    quad = (a, b, c, d) in cyclic order with critical cells ac, abc, acd; the
    3-cell abcd must be paired with one of abd/bcd and the edge bd with the
    other.  The update repartners abcd and swaps the bd pair for an ac pair,
    following the correspondence bcd -> abc, abd -> acd.
    """
    if len(set(quad)) != 4:
        raise ParameterError(f"quad must have 4 distinct vertices, got {quad}")
    a, b, c_, d = quad
    diag = tuple(sorted(old_diagonal))
    if diag == tuple(sorted((b, d))):
        a, b, c_, d = b, c_, d, a
    if diag != tuple(sorted((a, c_))):
        raise ParameterError(f"{old_diagonal} is not a diagonal of {quad}")
    ac = simplex(sorted((a, c_)))
    bd = simplex(sorted((b, d)))
    abc = simplex(sorted((a, b, c_)))
    acd = simplex(sorted((a, c_, d)))
    abd = simplex(sorted((a, b, d)))
    bcd = simplex(sorted((b, c_, d)))
    abcd = simplex(sorted((a, b, c_, d)))
    correspondence = {bcd: abc, abd: acd}

    matched = m.cells()
    for cell in (ac, abc, acd):
        if cell in matched:
            raise StructuralError(f"{cell} must be critical before the flip")
    partner3 = m.upper_to_lower().get(abcd)
    if partner3 not in (abd, bcd):
        raise StructuralError(f"missing pair: {abcd} must be matched with {abd} or {bcd}")
    other = bcd if partner3 == abd else abd
    if m.lower_to_upper().get(bd) != other:
        raise StructuralError(f"missing pair: {bd} -> {other}")

    new_pairs = [p for p in m.pairs if p not in ((partner3, abcd), (bd, other))]
    new_pairs.append((correspondence[partner3], abcd))
    new_pairs.append((ac, correspondence[other]))
    return matching_from_pairs(new_pairs)
