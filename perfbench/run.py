"""Closed-loop benchmark of ripstone, one workload per run.

Run from the root of a ripstone checkout:

    python3 perfbench/run.py --workload main_theorem --seed 1 --seconds 30 --trace 0

Workloads (see inputs.py and workloads.py):
  main_theorem  `verify main-theorem`: the paper's headline claim, dominated
                by the SNF of dodecahedron r=4 and the r=5 cone build.
  scale3        `dodeca trace` for trace seeds derived from --seed, then
                `symmetry report` and `cube verify --n 5`: morse, symmetry
                and patterns work on complexes of at most ~1,000 faces.
  random_files  seeded random flag complexes and RP^2 joins in the complex
                file grammar, each through parse_complex -> homology ->
                serialize_complex; checked against an independent oracle.

One process runs the passes back to back with no extra threads: the next
pass starts only after the previous one has finished and been checked.
Between passes, process-wide memo caches are emptied, so each pass does the
work of a fresh CLI call.

With --trace 0 it reports the end-to-end metrics:
  setup_s       median of 9 samples of a fresh interpreter importing
                ripstone and building the workload's inputs (probe.py),
                spread over the run between passes
  pass_s        median wall seconds per pass whose outputs passed
  cpu_s         median process CPU seconds per such pass
  peak_rss_mib  peak resident memory of this process during the run
The three timings are in reference seconds (calibration.py): the machine
this was tuned on runs the same code up to 1.9x slower for tens of seconds
to minutes at a time, so each pass and each set-up sample is scaled by the
machine speed a fixed kernel measured during it.  The unscaled medians are
kept in the context line and the record.

With --trace 1 it alternates untraced and traced passes (tracing.py) and
reports per-layer self seconds (median over traced passes), exact work
counters, the tracing overhead (median traced minus median untraced pass)
and the share of a traced pass that spans cover.  Self seconds and the
overhead are in reference seconds too, each pass scaled by the kernel
probed just before and after it.

Set-up samples and the random_files oracle run in child interpreters, one
at a time and never during a pass, so they count towards neither the pass
times nor the peak RSS of this process.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`attempted` and `failed` count output checks; their ratio, fail_ratio, is
printed above it but is not a metric, since it is 0 whenever ripstone is
correct.
The run context (commit, Python, nproc, seed, sample counts), every sample
and every span are written to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workloads each should move.  `*_s` is self seconds per traced pass.
LAYER_METRICS = (
    ("polytopes.combinatorial_metric_s", "s", "lower", "pass_s on scale3"),
    ("patterns.diameter3_tetrahedra_s", "s", "lower", "pass_s on scale3"),
    ("simplicial.vr_complex_s", "s", "lower", "pass_s, peak_rss_mib on main_theorem; none on scale3"),
    ("simplicial.antipodal_free_complex_s", "s", "lower", "pass_s, peak_rss_mib on main_theorem; none on scale3"),
    ("simplicial.faces_built", "count", "lower", "pass_s, peak_rss_mib on main_theorem; none on scale3"),
    ("simplicial.maximal_simplices_s", "s", "lower", "pass_s on random_files (serialize_complex) and main_theorem; none on scale3"),
    ("simplicial.from_faces_s", "s", "lower", "pass_s on random_files only"),
    ("homology.homology_s", "s", "lower", "pass_s on main_theorem and random_files; small on scale3"),
    ("homology.faces_reduced", "count", "lower", "pass_s on main_theorem and random_files; small on scale3"),
    ("homology.cone_skips", "count", "higher", "pass_s on main_theorem and random_files; small on scale3"),
    ("homology.cycle_class_s", "s", "lower", "pass_s on main_theorem and random_files; small on scale3"),
    ("morse.find_matching_s", "s", "lower", "pass_s on scale3 only"),
    ("morse.check_matching_s", "s", "lower", "pass_s on scale3 only"),
    ("morse.check_matching_calls", "count", "lower", "pass_s on scale3 only"),
    ("morse.morse_flow_s", "s", "lower", "pass_s on scale3 only"),
    ("morse.flow_steps", "count", "lower", "pass_s on scale3 only"),
    ("morse.critical_complex_homology_s", "s", "lower", "pass_s on scale3 only"),
    ("symmetry.automorphisms_s", "s", "lower", "pass_s on scale3 only"),
    ("symmetry.rotation_subgroup_s", "s", "lower", "pass_s on scale3 only"),
    ("symmetry.tetrahedra_orbits_s", "s", "lower", "pass_s on scale3 only"),
    ("symmetry.verify_remark_s", "s", "lower", "pass_s on scale3 only"),
    ("cubeseries.verify_cube_vr2_s", "s", "lower", "pass_s on scale3"),
    ("formats.parse_complex_s", "s", "lower", "pass_s on random_files only"),
    ("formats.serialize_complex_s", "s", "lower", "pass_s on random_files only"),
    ("formats.bytes_parsed", "count", "lower", "pass_s on random_files only"),
    ("cli.main_s", "s", "lower", "a small share of pass_s on every workload"),
    ("trace.overhead_s", "s", "lower", "traced pass_s minus untraced pass_s"),
    ("trace.span_coverage", "ratio", "higher", "share of a traced pass inside spans"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "ripstone", "__init__.py")):
        raise SetupError(f"no src/ripstone under {root}; run from a ripstone checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        raise SetupError(f"cannot read BENCHMARK.json: {e}") from None
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    ours = {
        "end_to_end": list(END_TO_END),
        "per_layer": [(n, u) for n, u, _b, _m in LAYER_METRICS],
    }
    if declared != ours:
        raise SetupError("BENCHMARK.json metrics differ from the ones run.py reports")


def _import_ripstone(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ripstone.cli  # noqa: F401  (loads every layer module)

    import ripstone

    where = os.path.realpath(os.path.dirname(ripstone.__file__))
    if where != os.path.realpath(os.path.join(src, "ripstone")):
        raise SetupError(f"imported ripstone from {where}, not from this checkout")


def _child(args: list[str], root: str) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(args)} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def _setup_sample(workload: str, seed: int, root: str) -> tuple[float, float]:
    """Wall seconds of one fresh-interpreter set-up, raw and in reference seconds.

    The machine's speed is probed just before and just after the child.
    """
    before = calibration.probe()
    t0 = time.perf_counter()
    _child([os.path.join(HERE, "probe.py"), "--workload", workload, "--seed", str(seed)], root)
    raw = time.perf_counter() - t0
    return raw, raw * calibration.factor(before + calibration.probe())


def _clear_caches() -> None:
    """Empty process-wide memo caches, so every pass does a fresh CLI call's work."""
    for m in tracing.ripstone_modules():
        for obj in list(vars(m).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _context(root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ripstone")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0  # no samples only when every pass failed


def measure(workload: str, seed: int, seconds: float, traced: bool, root: str, adjust=None) -> dict:
    """One benchmark run.  adjust(w), if given, edits w.expected before the loop."""
    _check_checkout(root)
    # Set-up samples are spread over the run, between passes, so that they
    # meet the same mix of machine speed as the passes do.
    setup: list[tuple[float, float]] = []  # (raw, reference) seconds
    setup_due = [] if traced else [k * seconds / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    _import_ripstone(root)
    w = workloads.make(workload, seed)
    if workload == "random_files":
        w.set_oracle(json.loads(_child([os.path.join(HERE, "oracle.py"), "--seed", str(seed)], root)))
    if adjust is not None:
        adjust(w)

    tracer = tracing.Tracer() if traced else None
    sampler = None if traced else calibration.Sampler()
    passes = []  # dicts: traced, wall, cpu, ok, and for traced passes self/counts/spans
    failures = []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        while setup_due and time.perf_counter() - start >= setup_due[0]:
            setup_due.pop(0)
            setup.append(_setup_sample(workload, seed, root))
        on = traced and len(passes) % 2 == 1
        _clear_caches()
        gc.collect()
        if on:
            tracer.clear()
            tracer.install()
        if sampler is not None:
            sampler.start()
        else:
            before = calibration.probe()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs = w.run_pass()
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if sampler is not None:
                sampler.stop()
            if on:
                tracer.uninstall()
        checks = w.check(outputs)
        rec = {"traced": on, "wall": t1 - t0, "cpu": c1 - c0}
        if sampler is not None:
            rec["ref_wall"], rec["ref_cpu"] = sampler.scaled(t1 - t0, c1 - c0)
            rec["kernel_samples"] = len(sampler.walls)
        else:
            rec["factor"] = calibration.factor(before + calibration.probe())
        if on:
            rec["self"] = tracer.self_times()
            rec["counts"] = {k: tracer.counts.get(k, 0) for k in tracing.COUNTERS}
            rec["coverage"] = tracer.root_seconds() / (t1 - t0)
            rec["spans"] = [list(s) for s in tracer.spans]
            first = next((p for p in passes if p["traced"]), None)
            if first is not None:  # exact counters must repeat pass after pass
                checks.append(
                    workloads.Check(
                        first["counts"] == rec["counts"],
                        f"counters changed between passes: {first['counts']} -> {rec['counts']}",
                    )
                )
        rec["ok"] = all(c.ok for c in checks)
        attempted += len(checks)
        failed += sum(not c.ok for c in checks)
        failures.extend(c.detail for c in checks if not c.ok)
        passes.append(rec)
        done = time.perf_counter() >= deadline
        if done and (not traced or len(passes) >= 2):
            break
    for _due in setup_due:
        setup.append(_setup_sample(workload, seed, root))

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    good = [p for p in passes if p["ok"]] or passes  # failed passes are not fast passes
    plain = [p for p in good if not p["traced"]]
    timed = [p for p in good if p["traced"]]
    if traced:
        metrics = {}
        for name, unit, _b, _m in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = _median([p["wall"] * p["factor"] for p in timed]) - _median(
                    [p["wall"] * p["factor"] for p in plain]
                )
            elif name == "trace.span_coverage":
                value = _median([p["coverage"] for p in timed])
            elif name in tracing.COUNTERS:
                value = timed[0]["counts"][name] if timed else 0
            else:
                value = _median([p["self"].get(name[: -len("_s")], 0.0) * p["factor"] for p in timed])
            metrics[name] = {"value": value, "unit": unit}
        samples = {"traced_passes": len(timed), "untraced_passes": len(plain)}
    else:
        metrics = {
            "setup_s": {"value": _median([ref for _raw, ref in setup]), "unit": "s"},
            "pass_s": {"value": _median([p["ref_wall"] for p in good]), "unit": "s"},
            "cpu_s": {"value": _median([p["ref_cpu"] for p in good]), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        samples = {
            "setup_s": len(setup),
            "pass_s": len(good),
            "cpu_s": len(good),
            "peak_rss_mib": 1,
            "fail_ratio": attempted,
        }
    context = _context(root, workload, seed, seconds, traced)
    context["samples"] = samples
    if not traced:  # the unscaled figures, as this machine ran them
        context["raw_pass_s_median"] = _median([p["wall"] for p in good])
        context["raw_cpu_s_median"] = _median([p["cpu"] for p in good])
        context["raw_setup_s_median"] = _median([raw for raw, _ref in setup])
        context["speed_factor_median"] = _median([p["ref_wall"] / p["wall"] for p in good])
    context["fail_ratio"] = failed / attempted
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "context": context,
        "setup_samples": setup,
        "passes": passes,
        "failures": failures,
        "layer_map": {n: m for n, _u, _b, m in LAYER_METRICS},
    }


def _write_record(root: str, record: dict) -> str:
    ctx = record["context"]
    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{ctx['workload']}-seed{ctx['seed']}-trace{ctx['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop benchmark of ripstone.")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (SetupError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    path = _write_record(root, record)
    res, ctx = record["result"], record["context"]
    for detail in record["failures"][:20]:
        print(f"check failed: {detail}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {os.path.relpath(path, root)}")
    for name, m in res["metrics"].items():
        n = ctx["samples"].get(name)
        shown = str(m["value"]) if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"{name:<40} {shown} {m['unit']}" + (f"  (n={n})" if n else ""))
    print(f"{'fail_ratio':<40} {ctx['fail_ratio']:.6g} ratio  (n={res['attempted']})")
    print(json.dumps({"context": ctx}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
