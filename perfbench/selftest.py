"""Self-test of the benchmark's output checks.

For each workload, one pass runs with the true expected values and one with
a single expected value perturbed.  The first must pass every check; the
second must fail a check and raise fail_ratio above zero.  Run from the root
of a ripstone checkout; it takes about half a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _betti_row(w) -> None:
    rows = w.expected["pinned"]["betti tables for all solids and scales"]
    rows["dodecahedron r=3 betti"] = "(1, 0, 0, 8)"


def _h3_rank(w) -> None:
    w.expected["pinned"]["dodecahedron scale-3 trace"]["H3 rank at scale 3"] = "8"


def _torsion_count(w) -> None:
    join = next(e for e in w.expected if e["name"].startswith("join"))
    join["even_torsion"][3] += 1


PERTURB = {"main_theorem": _betti_row, "scale3": _h3_rank, "random_files": _torsion_count}


def main() -> int:
    root = os.getcwd()
    bad = []
    for workload, perturb in PERTURB.items():
        ratios = []
        for adjust in (None, perturb):
            rec = run.measure(workload, seed=1, seconds=1e-3, traced=False, root=root, adjust=adjust)
            ratios.append(rec["context"]["fail_ratio"])
            correct = rec["result"]["correct"]
            if correct != (adjust is None):
                bad.append(f"{workload}: correct={correct} with adjust={adjust}")
        print(f"{workload}: fail_ratio {ratios[0]:.3f} -> {ratios[1]:.3f} with {perturb.__name__}")
        if not ratios[0] == 0 < ratios[1]:
            bad.append(f"{workload}: fail_ratio did not rise from 0")
    for line in bad:
        print(f"SELF-TEST FAILED: {line}")
    print("self-test passed" if not bad else "self-test failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
