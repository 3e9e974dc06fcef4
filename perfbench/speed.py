"""Machine-speed sampling for timings taken on a shared host.

On a host shared with other tenants the same single-threaded pass can take
50% longer from one minute to the next, and CPU time rises with wall time,
so neither measures the program alone. While a probe runs, a SIGALRM timer
runs a fixed reference snippet twice every INTERVAL_S seconds and records
how long the second run took. The first run reloads the snippet's tables
into the cache, so the timed run does not depend on how much of the cache
pvgap evicted before the tick. The snippet mixes what pvgap spends its
time in: a Python loop, small numpy operations and a wavefront-like
gather/scatter over tables the size of an 18k-vertex mesh's.

A timed window is reported as its wall time, minus the time of the ticks
inside it, scaled by REFERENCE_S over the mean timed snippet near the
window: seconds at the speed at which the snippet takes REFERENCE_S. The
slowest TRIM of the samples is left out of the mean. A preemption that
lands in a snippet makes it take many times its usual time, and one such
sample would move the mean far more than the preemption slows pvgap.

A change to pvgap does not change the snippet, so the ratio of two scaled
times is the ratio of the program's speeds. The scaling removes most, not
all, of the host's drift. Three costs stay in the scaled time: pvgap
refilling the cache a tick evicted, preemption by other tenants, and
pvgap's own effect on the host's speed while it runs.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.08
REFERENCE_S = 1.0e-3  # timed snippet on the reference host, unloaded
TRIM = 0.2  # share of the slowest samples left out of the mean
MIN_SAMPLES = 40  # windows with fewer samples borrow their nearest ones
FIELD_SIZE = 20000  # vertices of the wavefront-like update
TRIANGLES = 36000  # rows of its per-corner tables, as for an 18k mesh


class SpeedProbe:
    """Samples the snippet's duration between start() and stop().

    Only one probe may run at a time: it owns SIGALRM and ITIMER_REAL.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._values = rng.standard_normal(4000)
        self._index = rng.integers(0, 1000, 4000)
        dist = rng.uniform(0.0, 10.0, FIELD_SIZE)
        dist[rng.random(FIELD_SIZE) < 0.3] = np.inf
        self._dist = dist
        self._corners = rng.integers(0, FIELD_SIZE, (TRIANGLES, 3))
        self._tables = [rng.uniform(0.1, 1.0, (TRIANGLES, 3))
                        for _ in range(8)]
        self._front = rng.integers(0, TRIANGLES, 1500)
        self._previous = None
        # (tick start, tick duration, timed snippet duration)
        self.samples: list[tuple[float, float, float]] = []

    def snippet(self) -> None:
        """Interpreter loop, small-array numpy, and one wavefront-like
        update reading multi-megabyte per-corner tables."""
        np = self._np
        total = 0
        for i in range(3000):
            total += i
        acc = np.zeros(1000)
        np.minimum.at(acc, self._index, self._values)
        np.sort(self._values)
        sel = np.unique(self._front)
        dist = self._dist
        for r in range(3):
            tri = self._corners[sel]
            la, lb, cos, sin2 = (tab[sel, r] for tab in self._tables[:4])
            da, db = dist[tri[:, (r + 1) % 3]], dist[tri[:, (r + 2) % 3]]
            both = np.isfinite(da) & np.isfinite(db)
            step = np.sqrt(la * lb * cos + sin2)[both]
            tmp = np.full(FIELD_SIZE, np.inf)
            np.minimum.at(tmp, tri[both, r], np.minimum(da, db)[both] + step)
            np.nonzero(tmp < dist)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.snippet()
        warm = time.perf_counter()
        self.snippet()
        end = time.perf_counter()
        self.samples.append((t, end - t, end - warm))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1] at the reference speed."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        busy = (t1 - t0) - sum(tick for _s, tick, _d in inside)
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = nearest[:MIN_SAMPLES]
        if not inside:
            raise ValueError("no speed samples recorded")
        timed = sorted(d for _s, _tick, d in inside)
        kept = timed[:max(1, round(len(timed) * (1.0 - TRIM)))]
        return busy * REFERENCE_S / statistics.fmean(kept)
