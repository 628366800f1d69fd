"""One set-up sample: import ripstone and build one workload's inputs, then exit.

run.py times this script from process start to exit, so a sample includes
the interpreter start and the import that every CLI call pays.

    python3 perfbench/probe.py --workload random_files --seed 1
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import ripstone.cli  # noqa: E402,F401

import inputs  # noqa: E402
import workloads  # noqa: E402

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
ap.add_argument("--seed", type=int, required=True)
args = ap.parse_args()
workloads.make(args.workload, args.seed)
