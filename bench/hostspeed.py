"""A fixed reference computation that tells how fast the host runs right now.

The benchmark's host is shared: a pure-Python loop or a numpy gather runs up
to 50% slower for a minute at a time, and its speed swings by a third from
one second to the next, whatever the benchmark does, so a wall time taken in
one minute cannot be compared with one taken in the next.
``reference_seconds`` times a small computation that never changes and does
not touch treelab: breadth-first search of radius-2 balls in a cubic graph
and dict and sort work in pure Python, like the graph code, and a numpy
gather and prefix sum, like the sweeps.  ``Sampler`` runs it from a timer
signal every few tens of milliseconds while the benchmark's operations run,
so a long call is compared with the host's speed during that call and not
only at its ends.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

_N = 50_000
_VALUES = np.arange(_N) % 97
_GATHER = (np.arange(_N) * 7919) % _N
# the Moebius ladder on 200 vertices: cubic, with 4-cycles
_M = 200
_ADJ = [[(v - 1) % _M, (v + 1) % _M, (v + _M // 2) % _M] for v in range(_M)]


def _python_part() -> int:
    counts: dict[int, int] = {}
    for i in range(500):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted((c, k, (k, c)) for k, c in counts.items())
    return len(ordered)


def _graph_part() -> int:
    """Radius-2 balls by breadth-first search, counting the tree-shaped ones."""
    trees = 0
    for root in range(0, _M, 2):
        dist = {root: 0}
        frontier = [root]
        edges = set()
        for depth in (1, 2):
            nxt = []
            for v in frontier:
                for w in _ADJ[v]:
                    edges.add((min(v, w), max(v, w)))
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        trees += len(edges) == len(dist) - 1
    return trees


def _numpy_part() -> int:
    picked = _VALUES[_GATHER]
    return int(np.cumsum(picked)[-1] + (picked > 40).sum())


def reference_seconds() -> float:
    """Wall time of one pass of the reference computation."""
    t0 = time.perf_counter()
    _python_part()
    _graph_part()
    _numpy_part()
    return time.perf_counter() - t0


class Sampler:
    """Times the reference every ``interval`` seconds from SIGALRM.

    The handler runs between Python bytecodes of whatever is running, so its
    own time lands inside the caller's timings; ``inside`` adds it up so the
    caller can take it out.  Samples are (perf_counter at start, seconds).
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.inside = 0.0

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, reference_seconds()))
        self.inside += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def reference_during(self, t0: float, t1: float) -> float:
        """Mean reference time over the samples taken between t0 and t1 and
        the nearest sample on each side."""
        starts = [s for s, _ in self.samples]
        lo = max(0, bisect.bisect_left(starts, t0) - 1)
        hi = min(len(starts), bisect.bisect_right(starts, t1) + 1)
        near = [d for _, d in self.samples[lo:hi]]
        return sum(near) / len(near)
