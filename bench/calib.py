"""Speed sampling: scale measured times to a fixed machine speed.

On a shared host the speed of fixed work is not fixed.  On the 2-vCPU VM the
benchmark was tuned on, a pure-Python loop switches between two speeds, one
about 1.9 times the other, every few tenths of a second to tens of seconds,
as another tenant's thread comes and goes on the same physical core.  A
workload repetition of several seconds spans many such switches, so its
wall time depends on how long the slow phases lasted more than on the code.

A ``SpeedSampler`` measures the speed while the work runs.  A wall-clock
timer interrupts the work every ``INTERVAL_S`` seconds and times ``probe()``,
a fixed task of well under a millisecond.  ``scaled_seconds`` then adds up
the work time between probes, each slice multiplied by ``PROBE_NOMINAL_S /
(probe time around it)``: the time the work would have taken at the speed
where the probe takes ``PROBE_NOMINAL_S``.  A slow phase slows probe and
work alike and the scaled time stays put; a slower program has more slices.
The probes' own time is left out of both the raw and the scaled time.

The probe is pure Python and imports nothing from ``cyclesat``, so no change
to the library can move it.  It mixes what the workloads spend their time on:
a recursive bitmask path search (the path kernel's shape), relabelling an
edge list under permutations and keeping the least sorted tuple (the
canonical labeling's shape), and short-lived sets and dicts.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

# Median ``probe()`` time on the fast phase of an Intel Xeon vCPU, CPython
# 3.11.  It sets only the scale of the scaled times.
PROBE_NOMINAL_S = 0.0005
INTERVAL_S = 0.025

_N = 9
# A fixed 4-regular 9-vertex graph: a cycle and its distance-3 chords.
_ADJ = [0] * _N
for _d in (1, 3):
    for _u in range(_N):
        _v = (_u + _d) % _N
        _ADJ[_u] |= 1 << _v
        _ADJ[_v] |= 1 << _u
_SMALL_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))


def _count_paths(cur: int, visited: int, remaining: int) -> int:
    if remaining == 0:
        return 1
    total = 0
    avail = _ADJ[cur] & ~visited
    while avail:
        low = avail & -avail
        avail ^= low
        total += _count_paths(low.bit_length() - 1, visited | low, remaining - 1)
    return total


def probe() -> int:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    paths = _count_paths(0, 1, 5)
    best = None
    for perm in itertools.permutations(range(5)):
        code = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in _SMALL_EDGES))
        if best is None or code < best:
            best = code
    seen: dict[int, set] = {}
    for i in range(150):
        seen.setdefault(i % 13, set()).add((i * 7919) % 101)
    return paths + len(best) + sum(len(s) for s in seen.values())


def probe_time(calls: int = 5) -> float:
    """Median seconds of ``calls`` back-to-back probes."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times ``probe()`` every ``INTERVAL_S`` seconds while a block runs.

    ``with SpeedSampler() as s: work()`` leaves in ``s.slices`` the work
    seconds between consecutive probes and in ``s.probes`` the probe times,
    one more than slices: a probe opens and closes the block.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.slices: list[float] = []
        self.probes: list[float] = []
        self._mark = 0.0
        self._previous = None

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        self.slices.append(start - self._mark)
        probe()
        self._mark = time.perf_counter()
        self.probes.append(self._mark - start)

    def __enter__(self) -> "SpeedSampler":
        start = time.perf_counter()
        probe()
        self._mark = time.perf_counter()
        self.probes.append(self._mark - start)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def raw_seconds(self) -> float:
        return sum(self.slices)

    def scaled_seconds(self) -> float:
        return scaled_seconds(self.slices, self.probes)


def scaled_seconds(slices: list[float], probes: list[float]) -> float:
    """Work time at the speed where a probe takes ``PROBE_NOMINAL_S``.

    Slice ``i`` lies between probes ``i`` and ``i + 1`` and is scaled by the
    mean of the two.
    """
    if len(probes) != len(slices) + 1:
        raise ValueError("need one probe more than slices")
    return sum(
        work * 2 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
        for i, work in enumerate(slices)
    )
