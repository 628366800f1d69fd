"""Discrete Morse matchings on simplicial complexes.

Covers certification (validity, acyclicity with explicit cycle certificates),
randomized constrained search by free-pair collapse, the algebraic flow that
traces chains through a collapse, the homology of the critical complex, the
element matching that homology.cycle_class reads classes off, and the
polygon fan/flip matchings.  The critical complex goes through
homology()'s clearing, unit-pivot and residual-Smith routine.

Matchings hold face bitmasks, and every step here works on them; vertex
tuples appear only in matching_from_pairs, reports, messages and surpluses.
The search runs on integer positions of its live cells in the complex's
storage order, which Complex keeps in vertex tuple order.  Certification
splits in two.  The pairs' own rules (each pair a facet and a cofacet, no
cell in two pairs), the acyclicity digraph with its cycle certificate, the
pairing operator V and the matching's hash depend on the pairs alone and
are worked out once per Matching, however many complexes it is certified
on.  On a complex, one scan of its faces lists the critical ones and
counts the matched ones, which are all of the matching's cells exactly
when every cell is a face there; the critical cells are kept per complex
and matching, for the report, the Morse complex and the class cells.  Only
a matching that fails these tests is checked pair by pair, for its
violation messages.

The stabilized flow of a chain depends on the matching alone too (Forman,
"Morse theory for cell complexes", 1998), so a Matching keeps each flow
it has made, keyed by the start chain, and a chain is flowed once per
matching: the ten tetrahedron boundaries of the trace are flowed for the
scale-3 Morse complex and reused by morse_flow.  A critical cell none of
whose facets is matched has its boundary as its Morse boundary: that
boundary is a cycle of critical cells, which the flow leaves fixed.  Its
Morse column is handed over as its mask, which the reduction reads as the
cell's boundary and keeps lazily, as it keeps a face's column in
homology(); so no cell of the trace's VR_2 is flowed through the trace's
matching.  Each flow step applies dV + Vd to the last step's change
alone, and to a cycle's change, itself a cycle, dV alone.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError, PreconditionError, SearchFailure, StructuralError
from .homology import (
    Chain,
    HomologyResult,
    _boundary_ranks,
    _face_terms,
    _homology_from_counts,
)
from .simplicial import Complex, Simplex, mask_of, signed_facets, simplex, vertices_of

# find_matching stops after this many attempts x live cells, so that no
# max_attempts can run for hours.
SEARCH_WORK = 1 << 22


@dataclass(frozen=True)
class Matching:
    """A partial pairing of simplices with cofacets.

    pairs holds (lower, upper) as vertex bitmasks (bit v set for vertex v),
    without duplicates and ordered as their vertex tuples order, by
    (len(lower), lower, upper).  matching_from_pairs builds one from vertex
    tuples; formats and the command line print the tuples.

    What depends on the pairs alone, the hash that keys each complex's
    cache included, is worked out once per Matching, on first use.
    """

    pairs: tuple[tuple[int, int], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.pairs)

    @cached_property
    def _rules_hold(self) -> bool:
        """Whether every pair is a facet and a cofacet, and no cell is in two pairs."""
        return len(self._matched) == 2 * len(self.pairs) and all(
            up.bit_count() == lo.bit_count() + 1 and not lo & ~up for lo, up in self.pairs
        )

    @cached_property
    def _cycle(self) -> tuple | None:
        """_cycle_certificate of the pairs, built once per matching."""
        return _cycle_certificate(self.pairs)

    @cached_property
    def _operator(self) -> dict[int, tuple[int, int]]:
        """_pairing_operator of the matching, built once per matching."""
        return _pairing_operator(self)

    @cached_property
    def _matched(self) -> frozenset[int]:
        """Every cell of a pair, built once per matching."""
        return frozenset(cell for pair in self.pairs for cell in pair)

    @cached_property
    def _flows(self) -> dict[frozenset, tuple[dict, int]]:
        """Stabilized flows through the matching, keyed by their start chain's terms."""
        return {}


def _matching(mask_pairs) -> Matching:
    """The canonical Matching of (lower mask, upper mask) pairs."""

    def key(pair):
        return pair[0].bit_count(), vertices_of(pair[0]), vertices_of(pair[1])

    return Matching(tuple(sorted(set(mask_pairs), key=key)))


def matching_from_pairs(pairs) -> Matching:
    """The matching of (lower, upper) vertex tuples; exact duplicates collapse to one pair."""
    return _matching((mask_of(simplex(lo)), mask_of(simplex(up))) for lo, up in pairs)


@dataclass(frozen=True)
class MatchingReport:
    """Verdict of check_matching.

    Cells are vertex tuples.  critical is empty when the matching is invalid;
    certificate is an alternating cell sequence (upper, lower, upper, ...)
    tracing a directed cycle, present exactly when valid but not acyclic.
    """

    valid: bool
    acyclic: bool
    critical: tuple
    certificate: tuple | None
    violations: tuple

    def ok(self) -> bool:
        return self.valid and self.acyclic


def check_matching(c: Complex, m: Matching) -> MatchingReport:
    """Validate the pairing rules on c, then certify acyclicity dimension by dimension.

    Rule violations are reported, not raised; a directed cycle yields a
    minimal-length certificate found by breadth-first search.  Each pair
    being a facet and a cofacet, no cell in two pairs, and the digraph the
    certificate comes from depend on the pairs alone and are worked out
    once per Matching (Matching._rules_hold, Matching._cycle).  What
    depends on c is one scan of its faces (_critical): the matching's cells
    are all faces of c exactly when c has as many matched faces as the
    matching has cells.  A matching that fails either test breaks a rule
    that _violations names, so it is checked pair by pair for the messages.
    """
    crit = _critical(c, m)
    if not (m._rules_hold and c.face_total() - sum(map(len, crit)) == len(m._matched)):
        return MatchingReport(False, False, (), None, _violations(c, m))
    certificate = m._cycle
    return MatchingReport(
        valid=True,
        acyclic=certificate is None,
        critical=tuple(vertices_of(mask) for level in crit for mask in level),
        certificate=certificate,
        violations=(),
    )


def _violations(c: Complex, m: Matching) -> tuple[str, ...]:
    """The pairing rules m breaks on c, in pair order, each repeated cell named once."""
    violations = []
    roles: dict[int, int] = {}
    faces = c.face_set
    for lo, up in m.pairs:
        if not (lo in faces and up in faces):
            problem = "uses a simplex outside the complex"
        elif up.bit_count() != lo.bit_count() + 1 or lo & ~up:
            problem = "is not a facet-cofacet pair"
        else:
            for cell in (lo, up):
                roles[cell] = roles.get(cell, 0) + 1
                if roles[cell] == 2:
                    violations.append(f"{vertices_of(cell)} occurs in more than one pair")
            continue
        violations.append(f"pair {vertices_of(lo)} -> {vertices_of(up)} {problem}")
    return tuple(violations)


def _cycle_certificate(pairs) -> tuple | None:
    """The certificate of the first dimension whose pairs' digraph has a cycle, or None.

    Each dimension's pairs are the nodes of one digraph, with an edge from
    a pair to every other pair whose lower cell is a facet of its upper
    cell.  The pairs must be valid: facet-cofacet pairs, no cell twice.
    They are bucketed by dimension whatever their order, and each bucket
    keeps their order.
    """
    buckets: dict[int, list[tuple[int, int]]] = {}
    for pair in pairs:
        buckets.setdefault(pair[0].bit_count(), []).append(pair)
    for _size, nodes in sorted(buckets.items()):
        lower_index = {lo: i for i, (lo, _up) in enumerate(nodes)}
        succ = []
        for lo, up in nodes:
            outs = []
            rest = up
            while rest:
                low = rest & -rest
                rest ^= low
                facet = up ^ low
                if facet != lo and facet in lower_index:
                    outs.append(lower_index[facet])
            outs.sort()
            succ.append(outs)
        cycle = _minimal_cycle(succ)
        if cycle is not None:  # each node's upper cell, then the next node's lower cell
            steps = zip(cycle, cycle[1:] + cycle[:1])
            return tuple(vertices_of(cell) for i, j in steps for cell in (nodes[i][1], nodes[j][0]))
    return None


def _critical(c: Complex, m: Matching) -> tuple[tuple[int, ...], ...]:
    """The masks of c's unmatched faces per dimension, up to the top dimension holding one.

    Kept in c._cache once per matching, for check_matching, the Morse
    complex and the class cells.
    """
    key = ("critical", m)
    if key not in c._cache:
        matched = m._matched
        levels = [tuple(mask for mask in level if mask not in matched) for level in c.faces]
        while levels and not levels[-1]:
            levels.pop()
        c._cache[key] = tuple(levels)
    return c._cache[key]


def _minimal_cycle(succ: list[list[int]]) -> list[int] | None:
    """Shortest directed cycle in a successor-list digraph, or None if acyclic."""
    n = len(succ)
    indeg = [0] * n
    for outs in succ:
        for j in outs:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    while queue:
        i = queue.pop()
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    # what Kahn's pass leaves is closed under successors: a node it removed
    # had every predecessor removed first
    remaining = [i for i in range(n) if indeg[i] > 0]
    if not remaining:
        return None
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

    Validates the cells as simplices; the search itself, _find_matching,
    works on their masks and refuses a candidate that is not a face of c.
    Randomized free-pair collapse: a cell is free when exactly one of its
    candidate cofacets is still unpaired; pairing free cells in random order
    cannot create directed cycles (the earliest-removed pair of a
    hypothetical cycle would have had two live cofacets).  Restarts with seed+attempt on
    a stall, for at most max_attempts attempts and SEARCH_WORK attempts x
    live cells.  An attempt in which every pick had one free cell to choose
    from used nothing of its seed, so every seed would repeat it: the
    search stops after it.  Then raises SearchFailure carrying the best
    attempt's surplus and the attempts made.  The search works on the live
    cells' positions in vertex tuple order, and draws the same random
    numbers, so finds the same matching, surplus and attempt count for a
    seed, as one keyed by the cells themselves.
    """
    return _find_matching(
        c,
        (mask_of(simplex(s)) for s in candidate),
        (mask_of(simplex(s)) for s in forced_critical),
        seed,
        max_attempts,
    )


def _find_matching(c: Complex, cand_masks, forced_masks, seed: int, max_attempts: int) -> Matching:
    """find_matching on iterables of face masks of c, read in that order.

    The search runs on the live cells' positions in _live_order, c's
    storage order, which is vertex tuple order, so the found pairs sort as
    positions.  The found matching is certified, and so cached for later
    flows, before it is returned.
    """
    if max_attempts < 1:
        raise ParameterError("max_attempts must be positive")
    cand = set(cand_masks)
    forced = set()
    for mask in forced_masks:
        if mask not in cand:
            raise ParameterError(
                f"forced critical cell {vertices_of(mask)} is not in the candidate set"
            )
        forced.add(mask)

    live0 = [mask for mask in _live_order(c, cand) if mask not in forced]
    n = len(live0)
    pos = {mask: i for i, mask in enumerate(live0)}
    cofacets: list[list[int]] = [[] for _ in live0]  # in position order
    facets: list[list[int]] = [[] for _ in live0]  # dropping the smallest vertex first
    for i, mask in enumerate(live0):
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            j = pos.get(mask ^ low)
            if j is not None:
                cofacets[j].append(i)
                facets[i].append(j)
    base_count = [len(up) for up in cofacets]
    free0 = [i for i in range(n) if base_count[i] == 1]

    attempts = min(max_attempts, SEARCH_WORK // max(n, 1))
    best_live = bytearray(b"\x01") * n
    best_left = n
    tried = 0
    for attempt in range(attempts):
        tried += 1
        randrange = random.Random(seed + attempt).randrange
        live = bytearray(b"\x01") * n
        count = base_count[:]
        free = free0[:]
        pairs: list[tuple[int, int]] = []
        chose = False  # whether some pick had more than one free cell
        while free:
            chose = chose or len(free) > 1
            i = randrange(len(free))
            x = free[i]
            free[i] = free[-1]
            free.pop()
            if not live[x] or count[x] != 1:
                continue
            for t in cofacets[x]:
                if live[t]:
                    break
            pairs.append((x, t))
            live[x] = live[t] = 0
            for removed in (x, t):
                for sub in facets[removed]:
                    if live[sub]:
                        count[sub] -= 1
                        if count[sub] == 1:
                            free.append(sub)
        left = n - 2 * len(pairs)
        if not left:
            pairs.sort()
            m = Matching(tuple((live0[x], live0[t]) for x, t in pairs))
            report = matching_report(c, m)  # cached for later flows
            if not report.ok():  # collapse order should certify; treat as a bug
                raise StructuralError("collapse produced an uncertifiable matching")
            return m
        if left < best_left:
            best_live, best_left = live, left
        if not chose:  # every seed repeats this attempt
            break
    if tried < attempts:
        why = " (it made no random choice)"
    elif attempts < max_attempts:
        why = f" (the work cap, {SEARCH_WORK} attempts x cells)"
    else:
        why = ""
    raise SearchFailure(
        f"no perfect matching on {n} cells within {tried} attempts{why}",
        surplus=sorted(vertices_of(live0[i]) for i in range(n) if best_live[i]),
        attempts=tried,
    )


def _live_order(c: Complex, live: set[int]) -> list[int]:
    """The masks of live in vertex tuple order: by size, then lexicographically.

    That is c's storage order, level by level.  Raises ParameterError if
    a mask of live is not a face of c.
    """
    out = [mask for level in c.faces for mask in level if mask in live]
    if len(out) < len(live):
        stray = min(map(vertices_of, live.difference(out)))
        raise ParameterError(f"candidate {stray} is not a face of the complex")
    return out


@dataclass(frozen=True)
class FlowChain:
    """A stabilized flow image together with the number of steps taken."""

    chain: Chain
    steps: int


def _pairing_operator(m: Matching) -> dict[int, tuple[int, int]]:
    """lower mask -> (upper mask, sign) with the sign fixed so dV(lower) cancels lower.

    lower drops the i-th smallest vertex of upper (i = 0, 1, ...), with
    coefficient (-1)^(i+1) in d(upper); i counts upper's vertices below it.
    """
    return {lo: (up, -1 if (up & ((up ^ lo) - 1)).bit_count() & 1 else 1) for lo, up in m.pairs}


def _flow_to_fixpoint(
    chain: dict, v_map: dict, limit: int, cycle: bool = False
) -> tuple[dict, int]:
    """Iterate z -> z + (dV + Vd)z from chain until it is fixed; the fixpoint and the steps.

    The map is linear, so each step applies dV + Vd to the last step's
    change alone: the first change is (dV + Vd)z, each next one is
    D + (dV + Vd)D for the change D before it, and the chain is fixed once
    the change is zero.  Facets and signs come from a bit loop under
    signed_facets' rule, dropping the i-th smallest vertex with (-1)^(i+1).
    With cycle set, chain must be a cycle: the map is a chain map, so every
    change is a cycle too, V(dD) = 0, and the Vd half is skipped; the
    fixpoint and the steps are the same.
    """
    cur = dict(chain)
    change = chain
    steps = 0
    while True:
        nxt = dict(change) if steps else {}
        for mask, co in change.items():
            hit = v_map.get(mask)
            if hit is not None:  # d(V z)
                up, vsign = hit
                co_up = -co * vsign
                rest = up
                while rest:
                    low = rest & -rest
                    rest ^= low
                    nxt[up ^ low] = nxt.get(up ^ low, 0) + co_up
                    co_up = -co_up
            if cycle:
                continue
            sign = -co
            rest = mask
            while rest:  # V(d z); a vertex's one "facet", 0, is never paired
                low = rest & -rest
                rest ^= low
                hit = v_map.get(mask ^ low)
                if hit is not None:
                    nxt[hit[0]] = nxt.get(hit[0], 0) + sign * hit[1]
                sign = -sign
        change = {mask: co for mask, co in nxt.items() if co}
        if not change:
            return cur, steps
        for mask, co in change.items():
            co += cur.get(mask, 0)
            if co:
                cur[mask] = co
            else:
                del cur[mask]
        steps += 1
        if steps > limit:
            raise StructuralError("flow failed to stabilize; matching cannot be acyclic")


def _stable_flow(m: Matching, chain: dict, limit: int, cycle: bool = False) -> tuple[dict, int]:
    """_flow_to_fixpoint through m's pairing operator, computed once per matching and chain.

    The fixpoint depends on the matching and the chain alone, not on the
    complex, so it is kept on m (Matching._flows); each caller gets its own
    copy.  limit guards a matching that is not acyclic, and every flow kept
    has stabilized.  cycle, for a chain known to be a cycle, skips work
    without changing the result, so the kept flows serve either way.
    """
    key = frozenset(chain.items())
    if key not in m._flows:
        m._flows[key] = _flow_to_fixpoint(chain, m._operator, limit, cycle)
    fixed, steps = m._flows[key]
    return dict(fixed), steps


def matching_report(c: Complex, m: Matching) -> MatchingReport:
    """check_matching(c, m), computed at most once per complex and matching.

    The report is cached in c._cache under the (frozen, hashable) matching,
    whose hash is computed once, so finding a matching, reporting on it and
    flowing many chains through it check it on c once.  The pairing rules,
    the acyclicity digraph, the pairing operator and the flows depend on
    the pairs alone and are cached on m, so certifying m on a second
    complex (the trace's punctured one) builds none of them again.
    """
    key = ("matching", m)
    if key not in c._cache:
        c._cache[key] = check_matching(c, m)
    return c._cache[key]


def _certified(c: Complex, m: Matching, purpose: str | None = None) -> None:
    """Raise PreconditionError unless m is a valid acyclic matching on c.

    With a purpose, the error names it instead of the flow's own reasons.
    """
    report = matching_report(c, m)
    if report.ok():
        return
    if purpose is not None:
        raise PreconditionError(f"{purpose} requires a valid acyclic matching")
    if not report.valid:
        raise PreconditionError(f"invalid matching: {report.violations[0]}")
    raise PreconditionError("matching has a directed cycle; flow may diverge")


def morse_flow(c: Complex, m: Matching, z: Chain) -> FlowChain:
    """Iterate the flow map id + dV + Vd until the chain is fixed."""
    _certified(c, m)
    fixed, steps = _stable_flow(m, _face_terms(c, z), c.face_total())
    # the flow stays among c's faces of z's dimension: make_chain would check nothing new
    terms = {vertices_of(mask): co for mask, co in fixed.items() if co}
    return FlowChain(chain=Chain(z.dimension, terms), steps=steps)


def _morse_complex(c: Complex, m: Matching) -> tuple[list[int], Callable]:
    """Cell counts and columns(k, skip) of the Morse complex, for _boundary_ranks.

    A critical cell's differential is the stabilized flow of its boundary,
    a cycle, on the critical cells, as (cell mask, coefficient) pairs.  A
    cell none of whose facets is matched yields its mask instead: V is zero
    on its boundary, so the flow leaves that boundary as it is, and the
    reduction reads the mask as the boundary, lazily (Forman 1998; Ripser's
    apparent pairs).  A skipped cell is never flowed.
    """
    _certified(c, m, "critical complex")
    crit = _critical(c, m)
    matched = m._matched
    limit = c.face_total()

    def columns(k: int, skip=()):
        for mask in crit[k]:
            if mask in skip:
                continue
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if mask ^ low in matched:
                    break
            else:  # no facet matched: the column is the cell's boundary
                yield mask
                continue
            fixed, _steps = _stable_flow(m, dict(signed_facets(mask)), limit, cycle=True)
            yield [(f, co) for f, co in fixed.items() if f not in matched]

    return [len(level) for level in crit], columns


def critical_complex_homology(c: Complex, m: Matching) -> HomologyResult:
    """Homology of the Morse chain complex on the critical cells; agrees with homology(c)."""
    counts, columns = _morse_complex(c, m)
    return _homology_from_counts(counts, _boundary_ranks(counts, columns)[0])


def _element_matching(c: Complex) -> Matching:
    """The element matching of c on the vertex order 0, 1, 2, ..., certified and cached.

    For each vertex v in turn, every face t holding v is paired with t - v
    when neither is paired yet.  A sequence of element matchings is acyclic
    on any family of faces (Jonsson, Simplicial Complexes of Graphs, LNM
    1928 (2008)); the result is certified all the same.  The faces are
    bucketed by vertex bit once, with a bit loop, so each is visited once
    per vertex it holds.
    """
    if "element matching" not in c._cache:
        star: dict[int, list[int]] = {}  # vertex bit -> the faces of dimension >= 1 holding it
        for level in c.faces[1:]:
            for t in level:
                rest = t
                while rest:
                    low = rest & -rest
                    rest ^= low
                    star.setdefault(low, []).append(t)
        live = set(c.face_set)
        upper = {}  # lower cell -> its pair's upper cell
        for bit in sorted(star):
            for t in star[bit]:
                if t in live and t ^ bit in live:
                    live.remove(t)
                    live.remove(t ^ bit)
                    upper[t ^ bit] = t
        # read off in storage order, the lower cells are in Matching's pair order
        m = Matching(tuple((lo, upper[lo]) for level in c.faces for lo in level if lo in upper))
        _certified(c, m, "cycle_class")
        c._cache["element matching"] = m
    return c._cache["element matching"]


def _class_cells(c: Complex, k: int) -> tuple[Matching, tuple[int, ...]]:
    """c's element matching and its critical k-cells, if its Morse d_k and d_(k+1) are zero.

    Raises ParameterError naming a differential that is not zero.  Nothing
    is cached here: the matching, its critical cells and its flows already
    are, so a second call flows nothing again.
    """
    m = _element_matching(c)
    counts, columns = _morse_complex(c, m)
    for d in (k, k + 1):
        if 0 < d < len(counts) and any(columns(d)):
            raise ParameterError(
                f"cannot read cycle classes in dimension {k}:"
                f" the element matching's Morse d_{d} is not zero"
            )
    return m, _critical(c, m)[k] if k < len(counts) else ()


def _fan(ngon: int, apex: int) -> set[int]:
    """The face masks of the fan triangulation of a convex n-gon at one apex."""
    if not 3 <= ngon <= 12:
        raise ParameterError(f"ngon must be in 3..12, got {ngon}")
    if not 0 <= apex < ngon:
        raise ParameterError(f"apex {apex} outside 0..{ngon - 1}")
    apex_bit = 1 << apex
    faces = set()
    for i in range(ngon):  # every vertex and boundary edge, and its join with the apex
        edge = 1 << i | 1 << (i + 1) % ngon
        faces |= {1 << i, 1 << i | apex_bit, edge, edge | apex_bit}
    return faces


def fan_triangulation(ngon: int, apex: int) -> list[Simplex]:
    """All faces of the fan triangulation of a convex n-gon at one apex."""
    return sorted((vertices_of(mask) for mask in _fan(ngon, apex)), key=lambda s: (len(s), s))


def fan_matching(ngon: int, apex: int) -> Matching:
    """Pair every face containing the apex but outside the fan triangulation
    with its apex-free facet; a perfect matching off the triangulation."""
    tri = _fan(ngon, apex)
    apex_bit = 1 << apex
    return _matching(
        (sub ^ apex_bit, sub) for sub in range(1, 1 << ngon) if sub & apex_bit and sub not in tri
    )


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
    a, b, c_, d = (mask_of(simplex((v,))) for v in (a, b, c_, d))  # vertex bits, ids checked
    ac, bd = a | c_, b | d
    abc, acd, abd, bcd = ac | b, ac | d, bd | a, bd | c_
    abcd = ac | bd
    correspondence = {bcd: abc, abd: acd}
    upper_of = dict(m.pairs)
    lower_of = {up: lo for lo, up in m.pairs}

    for cell in (ac, abc, acd):
        if cell in upper_of or cell in lower_of:
            raise StructuralError(f"{vertices_of(cell)} must be critical before the flip")
    partner3 = lower_of.get(abcd)
    if partner3 not in (abd, bcd):
        raise StructuralError(
            f"missing pair: {vertices_of(abcd)} must be matched with "
            f"{vertices_of(abd)} or {vertices_of(bcd)}"
        )
    other = bcd if partner3 == abd else abd
    if upper_of.get(bd) != other:
        raise StructuralError(f"missing pair: {vertices_of(bd)} -> {vertices_of(other)}")

    new_pairs = [p for p in m.pairs if p not in ((partner3, abcd), (bd, other))]
    new_pairs.append((correspondence[partner3], abcd))
    new_pairs.append((ac, correspondence[other]))
    return _matching(new_pairs)
