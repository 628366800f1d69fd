"""Seeded inputs for the three benchmark workloads.

Everything here is the benchmark's own code and imports nothing from
ripstone, so the oracle can rebuild the same inputs without the program
under test.  The same workload seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

WORKLOADS = ("main_theorem", "scale3", "random_files")

# Per random_files batch: flag complexes of G(n, p) exercise large irregular
# reductions, joins of RP^2 with small flag complexes carry Z/2 torsion.
# p is set from n so that the expected face count hits the target, and a
# draw outside the window is redrawn; narrow windows keep the work per
# batch close across seeds.
FLAG_COUNT = 6
FLAG_N = (30, 48)
FLAG_FACES = (11_500, 13_500)
JOIN_COUNT = 6
JOIN_N = (10, 16)
JOIN_FACES = (2_400, 3_100)
RP2_FACES = 31  # 6 vertices, 15 edges, 10 triangles

# Trace seeds per scale3 pass; each one is a full `dodeca trace`.
TRACE_SEEDS = 2
SCALE3_CUBE_N = 5

# The minimal 6-vertex triangulation of the real projective plane.
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


@dataclass(frozen=True)
class ComplexFile:
    """One generated complex: its file text and the maximal faces it lists."""

    name: str
    text: str
    maximal: tuple  # sorted tuples of ascending vertex ids


def cli_argvs(workload: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one pass of a CLI workload."""
    if workload == "main_theorem":
        return [["verify", "main-theorem", "--format", "json"]]
    if workload == "scale3":
        rng = random.Random(f"scale3:{seed}")
        argvs = [
            ["dodeca", "trace", "--seed", str(rng.randrange(1, 2**31)), "--format", "json"]
            for _ in range(TRACE_SEEDS)
        ]
        argvs.append(["symmetry", "report", "--format", "json"])
        argvs.append(["cube", "verify", "--n", str(SCALE3_CUBE_N), "--format", "json"])
        return argvs
    raise ValueError(f"{workload} is not a CLI workload")


def _edge_probability(n: int, faces: float) -> float:
    """p at which G(n, p) has `faces` cliques in expectation."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        p = (lo + hi) / 2
        expected = sum(math.comb(n, k) * p ** (k * (k - 1) // 2) for k in range(1, n + 1))
        lo, hi = (p, hi) if expected < faces else (lo, p)
    return lo


def _random_graph(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def clique_masks(adj: list[int], cap: int) -> list[int] | None:
    """All cliques as vertex bitmasks, or None once more than cap exist."""
    out: list[int] = []
    stack = [(1 << v, adj[v] & (-1 << (v + 1))) for v in range(len(adj))]
    while stack:
        mask, cand = stack.pop()
        out.append(mask)
        if len(out) > cap:
            return None
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            stack.append((mask | low, cand & adj[w]))
    return out


def vertices(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _maximal_cliques(adj: list[int], cliques: list[int]) -> list[tuple]:
    out = []
    for m in cliques:
        common = -1
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            common &= adj[low.bit_length() - 1]
        if not common & ~m:
            out.append(vertices(m))
    return out


def _text(title: str, maximal) -> str:
    lines = [f"# {title}"]
    lines.extend(" ".join(str(v) for v in s) for s in maximal)
    return "\n".join(lines) + "\n"


def _flag_complex(rng: random.Random, index: int) -> ComplexFile:
    lo, hi = FLAG_FACES
    while True:
        n = rng.randint(*FLAG_N)
        p = _edge_probability(n, (lo + hi) / 2)
        adj = _random_graph(rng, n, p)
        cliques = clique_masks(adj, hi)
        if cliques is not None and len(cliques) >= lo:
            break
    maximal = tuple(sorted(_maximal_cliques(adj, cliques)))
    title = f"flag complex of G({n}, {p:.3f}), {len(cliques)} faces"
    return ComplexFile(f"flag{index}", _text(title, maximal), maximal)


def _rp2_join(rng: random.Random, index: int) -> ComplexFile:
    # faces of a join: every union of a face (or nothing) from each side
    lo, hi = JOIN_FACES
    while True:
        n = rng.randint(*JOIN_N)
        p = _edge_probability(n, (lo + hi) / 2 / (RP2_FACES + 1) - 1)
        adj = _random_graph(rng, n, p)
        cliques = clique_masks(adj, hi)
        if cliques is None:
            continue
        total = (RP2_FACES + 1) * (len(cliques) + 1) - 1
        if lo <= total <= hi:
            break
    relabel = list(range(6 + n))
    rng.shuffle(relabel)
    k_maximal = _maximal_cliques(adj, cliques)
    maximal = tuple(
        sorted(
            tuple(sorted([relabel[v] for v in tri] + [relabel[6 + v] for v in face]))
            for tri in RP2_TRIANGLES
            for face in k_maximal
        )
    )
    title = f"RP2 join flag complex of G({n}, {p:.3f}), {total} faces"
    return ComplexFile(f"join{index}", _text(title, maximal), maximal)


def complex_files(seed: int) -> list[ComplexFile]:
    """The random_files batch: flag complexes and RP^2 joins, interleaved."""
    rng = random.Random(f"random_files:{seed}")
    flags = [_flag_complex(rng, i) for i in range(FLAG_COUNT)]
    joins = [_rp2_join(rng, i) for i in range(JOIN_COUNT)]
    out = []
    for i in range(max(FLAG_COUNT, JOIN_COUNT)):
        out.extend(flags[i : i + 1] + joins[i : i + 1])
    return out


def digest(files: list[ComplexFile]) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(f.text.encode())
    return h.hexdigest()
