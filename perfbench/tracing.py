"""Out-of-program tracing of ripstone's layer entry points.

While installed, a Tracer replaces each traced function by a wrapper in the
module that defines it and in every ripstone module that bound the same
object with `from .x import y`, so calls made inside the library are caught
as well as calls from the benchmark.  Each call records a span
[name, start, end, parent] in memory; a layer's self time is its spans'
durations minus the durations of their child spans.

Only layer entry points are traced (see TRACED).  Per-element helpers such
as `vertices_of`, `mask_of` or `symmetry.compose` run up to millions of
times per pass; a span on each would measure the tracer, not the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# module -> functions traced in it: those whose self time is a per-layer
# metric, and the pipelines between them and cli.main, so that cli.main's
# self time is the CLI's own work.  Untraced callees count in their
# caller's self time, e.g. patterns.embeddings in symmetry.automorphisms.
TRACED = {
    "polytopes": ("combinatorial_metric",),
    "simplicial": ("vr_complex", "antipodal_free_complex", "from_faces", "maximal_simplices"),
    "homology": ("homology", "cycle_class"),
    "morse": ("find_matching", "check_matching", "morse_flow", "critical_complex_homology"),
    "patterns": ("diameter3_tetrahedra",),
    "symmetry": ("automorphisms", "rotation_subgroup", "tetrahedra_orbits", "verify_remark"),
    "cubeseries": ("verify_cube_vr2",),
    "formats": ("parse_complex", "serialize_complex"),
    "pipelines": ("verify_main_theorem", "trace_dodecahedron", "symmetry_report"),
    "cli": ("main",),
}

# Constructors that enumerate the faces of the complex they return.
_FACE_CONSTRUCTORS = ("vr_complex", "antipodal_free_complex", "from_faces")


def _count(counts: Counter, name: str, args, kwargs, result) -> None:
    """Exact work counters, recorded at the boundary where the work happens."""
    first = args[0] if args else next(iter(kwargs.values()), None)
    if name in _FACE_CONSTRUCTORS:
        counts["simplicial.faces_built"] += result.face_total()
    elif name == "homology":
        if first.cone_vertex is None:
            counts["homology.faces_reduced"] += first.face_total()
        else:
            counts["homology.cone_skips"] += 1
    elif name == "check_matching":
        counts["morse.check_matching_calls"] += 1
    elif name == "morse_flow":
        counts["morse.flow_steps"] += result.steps
    elif name == "parse_complex":
        counts["formats.bytes_parsed"] += len(first.encode())


COUNTERS = (
    "simplicial.faces_built",
    "homology.faces_reduced",
    "homology.cone_skips",
    "morse.check_matching_calls",
    "morse.flow_steps",
    "formats.bytes_parsed",
)


def ripstone_modules() -> list:
    """Every loaded ripstone module, package first."""
    return [m for n, m in sorted(sys.modules.items()) if n == "ripstone" or n.startswith("ripstone.")]


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, module: str, name: str, fn):
        label = f"{module}.{name}"
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(counts, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = ripstone_modules()
        for module, names in TRACED.items():
            mod = importlib.import_module(f"ripstone.{module}")
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:  # a layer function the program no longer has
                    continue
                wrapper = self._wrap(module, name, orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)
