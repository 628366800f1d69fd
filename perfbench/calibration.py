"""Machine-speed calibration: a fixed kernel timed while the program runs.

The shared 2-vCPU hosts this benchmark was tuned on run the same code up to
1.9x slower for tens of seconds to minutes at a time, and process CPU time
slows with wall time, so neither clock alone separates a slower program
from a slower machine.  The kernel below is the benchmark's own pure-Python
code (dict, tuple, set, integer, sort and small-object work, like
ripstone's inner loops); it never changes with the program under test, so its time measures only the
machine.  A run reports each pass's time scaled by

    REFERENCE_KERNEL_S / (median kernel time sampled during that pass)

that is, in seconds of a machine on which the kernel takes
REFERENCE_KERNEL_S.  A program that gets faster still reads faster by the
same factor; a machine that gets slower no longer does.

Sampler takes the samples inside a pass from a SIGALRM handler, in the
benchmark's one thread: every INTERVAL_S of wall time the pass is paused
between two bytecodes, the kernel runs once with the garbage collector off
(so the size of the program's heap cannot slow it), and its wall and CPU
seconds are recorded and later subtracted from the pass.  probe() takes
samples back to back around set-up samples and around traced passes,
where a sample inside the pass would land in a layer's span.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Any fixed value would do: it only sets the unit.  1.6 ms is about the
# kernel's median time on the 2.1 GHz Intel Xeon vCPU (Python 3.11) the
# benchmark was tuned on, so reference seconds are of the order of that
# machine's wall seconds.
REFERENCE_KERNEL_S = 1.6e-3
INTERVAL_S = 0.05

_KEYS = tuple((i, i * 7 % 13, i ^ 0x55) for i in range(1500))
_SETS = tuple(frozenset(range(i % 7, i % 7 + 4)) for i in range(64))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _step(c: _Cell, m: int) -> tuple[int, int]:
    return (c.a ^ m) & 0xFFFF, c.b | (m & 7)


def _order(t: tuple) -> tuple:
    return (t[1], -t[0])


def kernel() -> int:
    """Tuple-keyed dict updates and a keyed sort, as in homology's sparse rows
    and simplicial's face lists, then small-object calls with set and bit
    operations, as in morse and symmetry."""
    d: dict = {}
    acc = 0
    for i, t in enumerate(_KEYS):
        d[t] = d.get(t, 0) + 1
        acc += (i * i) & 1023
    acc += len(sorted(d, key=_order))
    seen: set = set()
    for i in range(700):
        a, b = _step(_Cell(i, i >> 3), i * 2654435761)
        s = _SETS[i & 63]
        if a in seen or b in s:
            acc += 1
        seen.add(a & 255)
        acc += len(s & _SETS[(i + 5) & 63])
    return acc


def _timed() -> tuple[float, float]:
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        if enabled:
            gc.enable()
    return t1 - t0, c1 - c0


def factor(walls: list[float]) -> float:
    """Scale from this machine's seconds to reference seconds."""
    return REFERENCE_KERNEL_S / statistics.median(walls)


def probe(n: int = 25) -> list[float]:
    """Wall seconds of n back-to-back kernel runs."""
    return [_timed()[0] for _ in range(n)]


class Sampler:
    """Kernel samples taken every INTERVAL_S while started."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._old = None

    def _handler(self, _signum, _frame) -> None:
        wall, cpu = _timed()
        self.walls.append(wall)
        self.cpus.append(cpu)

    def start(self) -> None:
        self.walls.clear()
        self.cpus.clear()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, wall: float, cpu: float) -> tuple[float, float]:
        """A pass's wall and CPU seconds without the kernel's, in reference seconds.

        A pass too short to be sampled is scaled by a probe taken now.
        """
        walls = self.walls or probe()
        f = factor(walls)
        return (wall - sum(self.walls)) * f, (cpu - sum(self.cpus)) * f
