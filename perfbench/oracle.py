"""Independent homology oracle for the random_files workload.

Closes the generated maximal faces downward and reduces every boundary
matrix over GF(2) and over GF(P) for a large prime P.  Over a field the
rank of d_k decides the Betti numbers, and rank_P(d_k) - rank_2(d_k) counts
the invariant factors of d_k that 2 divides, which are the even torsion
factors of H_{k-1}.  No ripstone code is used.

Run as a script it rebuilds the batch for a seed and prints the expected
values as JSON, so the oracle's memory never counts towards the peak RSS of
the benchmark process:

    python3 perfbench/oracle.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402

P = 2_147_483_647  # 2^31 - 1


def closure(maximal) -> list[list[int]]:
    """All faces as bitmasks, per dimension, each level in lexicographic order."""
    seen: set[int] = set()
    stack = []
    for s in maximal:
        m = 0
        for v in s:
            m |= 1 << v
        stack.append(m)
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        if m & (m - 1):
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                if m ^ low not in seen:
                    stack.append(m ^ low)
    top = max(m.bit_count() for m in seen)
    levels: list[list[int]] = [[] for _ in range(top)]
    for m in seen:
        levels[m.bit_count() - 1].append(m)
    for level in levels:
        level.sort(key=inputs.vertices)
    return levels


def _facets(mask: int) -> list[tuple[int, int]]:
    """(facet mask, sign) pairs; dropping the i-th smallest vertex has sign (-1)^i."""
    out = []
    rest = mask
    i = 0
    while rest:
        low = rest & -rest
        rest ^= low
        out.append((mask ^ low, 1 if i % 2 == 0 else -1))
        i += 1
    return out


def _ranks_mod2(levels) -> list[int]:
    """rank of d_k over GF(2) for k = 1..top, by column reduction with clearing."""
    top = len(levels) - 1
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for k in range(top, 0, -1):
        index = {m: i for i, m in enumerate(levels[k - 1])}
        pivots: dict[int, int] = {}  # low row -> reduced column bits
        next_cleared: set[int] = set()
        for j, mask in enumerate(levels[k]):
            if j in cleared:
                continue
            col = 0
            for f, _sign in _facets(mask):
                col |= 1 << index[f]
            while col:
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    next_cleared.add(low)
                    break
                col ^= other
        ranks[k] = len(pivots)
        cleared = next_cleared
    return ranks


def _ranks_modp(levels) -> list[int]:
    """rank of d_k over GF(P) for k = 1..top, by column reduction with clearing."""
    top = len(levels) - 1
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for k in range(top, 0, -1):
        index = {m: i for i, m in enumerate(levels[k - 1])}
        pivots: dict[int, dict[int, int]] = {}  # low row -> column scaled to 1 at low
        next_cleared: set[int] = set()
        for j, mask in enumerate(levels[k]):
            if j in cleared:
                continue
            col = {index[f]: sign % P for f, sign in _facets(mask)}
            while col:
                low = max(col)
                other = pivots.get(low)
                if other is None:
                    inv = pow(col[low], P - 2, P)
                    pivots[low] = {r: v * inv % P for r, v in col.items()}
                    next_cleared.add(low)
                    break
                factor = col[low]
                for r, v in other.items():
                    nv = (col.get(r, 0) - factor * v) % P
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
        ranks[k] = len(pivots)
        cleared = next_cleared
    return ranks


def expected(maximal) -> dict:
    """Betti numbers and per-dimension counts of even torsion factors."""
    levels = closure(maximal)
    counts = [len(level) for level in levels]
    rq = _ranks_modp(levels)
    r2 = _ranks_mod2(levels)
    top = len(levels) - 1
    betti = [counts[k] - rq[k] - rq[k + 1] for k in range(top + 1)]
    even_torsion = [rq[k + 1] - r2[k + 1] for k in range(top + 1)]
    return {"f_vector": counts, "betti": betti, "even_torsion": even_torsion}


def batch_expected(seed: int) -> dict:
    files = inputs.complex_files(seed)
    return {
        "digest": inputs.digest(files),
        "complexes": [
            {"name": f.name, **expected(f.maximal)}
            for f in files
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    json.dump(batch_expected(args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
