"""Run the benchmark once per seed and report each metric's median and spread.

The spread is the distance between the first and third quartile of the
per-run values, as a share of their median; it is the figure each
end-to-end metric's bound in BENCHMARK.json must exceed.  Run from the root
of a ripstone checkout:

    python3 perfbench/spread.py --workload scale3 --seeds 1-10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="a-b or a,b,c")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {shown}",
              file=sys.stderr, flush=True)

    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    print(json.dumps({
        "workload": args.workload,
        "seconds": float(args.seconds),
        "seeds": args.seeds,
        "all_correct": all(r["correct"] for r in runs),
        "metrics": summary,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
