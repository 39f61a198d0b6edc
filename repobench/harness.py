"""Host normalisation and the statistics every workload reports.

Raw wall-clock time on a shared host drifts by up to 2x with process
history and with what the neighbours run, so no host-time metric is
reported raw.  Every timed piece (a unit, a set-up piece) is scaled by
``C_REF / c``, where ``c`` is the median time of a fixed calibration
kernel sampled around and *inside* the piece: before it and after it
(after a ``gc.collect()``), and at the workload's layer boundaries
while it runs, at most once per ``interval_s``.  In-piece samples are
subtracted from the piece's time.  Samples taken only between units did
not track the masked-DES units (their per-unit spread was worse than
raw time); samples spread over the unit do, because they see the same
contention the unit sees.

The kernel has two halves of similar length.  The first is core-bound:
an interpreted integer loop with numpy ufunc dispatch on small arrays
and wide-integer operations, the instruction mix of schedule replay and
packed power accumulation.  The second is latency-bound: dict lookups
in random order over a table of several MiB, which miss the caches the
way the workloads' object graphs do.  Neither half alone tracks the
masked-DES unit: under host contention the core-bound probes slowed
more than the unit (log-log slope 0.5-0.8) and the random-access probes
less (slope about 2); their combination brought the unit-to-unit
variation of normalised time to 4% where raw time varied 15%.  The
kernel allocates no containers, so it never triggers the cyclic
garbage collector.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Reference kernel time (seconds) that normalised times are scaled to.
#: Fixed once; a host-normalised time reads as "seconds on a host whose
#: kernel sample takes C_REF".
C_REF = 0.0035

#: Kernel samples taken at each calibration point between pieces.
SAMPLES_PER_POINT = 3

#: Least time between two kernel samples inside a running piece.
INTERVAL_S = 0.1

_CORE_ITERS = 600
_A = np.arange(64, dtype=np.uint64)
_B = _A[::-1].copy()
_C = np.empty(64, dtype=np.uint64)
_F = np.zeros(64, dtype=np.float32)
_WIDE = (1 << 4096) - 0x5DEECE66D
_WIDE2 = (1 << 4093) | 0xB
_rng = np.random.default_rng(2023)
_TABLE = {k: 3 * k for k in _rng.permutation(200_000).tolist()}
_PROBES = tuple(_rng.integers(0, 200_000, size=3000).tolist())


def kernel() -> int:
    """The calibration kernel (a few milliseconds)."""
    a, b, c, f = _A, _B, _C, _F
    f.fill(0.0)
    x = 0
    w = _WIDE2
    for i in range(_CORE_ITERS):
        x = (x * 31 + i) & 0xFFFFFFFF
        x ^= x >> 7
        np.bitwise_xor(a, b, out=c)
        np.bitwise_and(c, a, out=c)
        np.add(f, 1.0, out=f)
        if c[i & 63]:
            x += 1
        w = (w ^ _WIDE) & (_WIDE2 | (w >> 1))
    table = _TABLE
    for k in _PROBES:
        x += table[k]
    return x + (w & 1)


class Calibrator:
    """Takes kernel samples and normalises timed pieces against them.

    ``clock`` and ``kernel_fn`` are injectable so tests can pin the
    arithmetic with a fake clock.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        kernel_fn: Callable[[], object] = kernel,
        samples_per_point: int = SAMPLES_PER_POINT,
        interval_s: float = INTERVAL_S,
        c_ref: float = C_REF,
    ):
        self.clock = clock
        self.kernel_fn = kernel_fn
        self.samples_per_point = samples_per_point
        self.interval_s = interval_s
        self.c_ref = c_ref
        #: Every kernel sample of the run, in order (seconds).
        self.samples: List[float] = []
        self._last_point: Optional[List[float]] = None
        self._in_piece: Optional[List[float]] = None
        self._in_piece_cost = 0.0
        self._next_tick = 0.0

    def sample(self) -> float:
        """One kernel sample (seconds)."""
        t0 = self.clock()
        self.kernel_fn()
        s = self.clock() - t0
        self.samples.append(s)
        return s

    def point(self, collect: bool = True) -> List[float]:
        """A calibration point between pieces: a GC pass (``collect``),
        then ``samples_per_point`` samples."""
        if collect:
            gc.collect()
        return [self.sample() for _ in range(self.samples_per_point)]

    def tick(self) -> None:
        """Hook for layer boundaries: sample once per ``interval_s``
        while a piece runs; the sample's time is taken off the piece."""
        if self._in_piece is None:
            return
        t0 = self.clock()
        if t0 < self._next_tick:
            return
        self._in_piece.append(self.sample())
        t1 = self.clock()
        self._in_piece_cost += t1 - t0
        self._next_tick = t1 + self.interval_s

    def timed(self, label: str, fn: Callable, *args, collect: bool = True, **kwargs):
        """Run ``fn`` as a timed piece; returns ``(result, piece)``.

        The point after a piece doubles as the point before the next.
        ``collect=False`` skips the GC pass around short set-up pieces,
        where a full collection of a large heap would cost more than
        the piece.
        """
        before = self._last_point or self.point(collect)
        outer = (self._in_piece, self._in_piece_cost)
        self._in_piece, self._in_piece_cost = [], 0.0
        t0 = self.clock()
        self._next_tick = t0 + self.interval_s
        try:
            result = fn(*args, **kwargs)
            total = self.clock() - t0
        finally:
            inside, cost = self._in_piece, self._in_piece_cost
            self._in_piece, self._in_piece_cost = outer
        after = self.point(collect)
        self._last_point = after
        piece = Piece(label, total - cost, statistics.median(before + inside + after),
                      self.c_ref, len(inside))
        return result, piece

    def invalidate(self) -> None:
        """Forget the last point (untimed work ran since it)."""
        self._last_point = None

    @property
    def calib_s(self) -> float:
        """Median kernel sample of the whole run (diagnostic)."""
        return statistics.median(self.samples) if self.samples else 0.0


class Piece:
    """One timed piece: raw wall time and its host-normalised value."""

    __slots__ = ("label", "wall_s", "calib_s", "norm_s", "n_inside")

    def __init__(self, label: str, wall_s: float, calib_s: float, c_ref: float,
                 n_inside: int = 0):
        self.label = label
        self.wall_s = wall_s
        self.calib_s = calib_s
        self.norm_s = wall_s * c_ref / calib_s
        self.n_inside = n_inside


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024
