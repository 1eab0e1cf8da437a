"""Speed probe: converts wall-clock intervals to the machine's reference speed.

The benchmark runs on a few virtual CPUs of a shared host.  Load outside the
guest slows a virtual CPU by up to several times for seconds at a stretch,
without any steal time showing, so the process's CPU time inflates as much
as its wall time.  Each virtual CPU slows on its own.  So the benchmark pins
itself and the analysed process to one CPU, and a thread of the benchmark
runs a fixed piece of work (the probe) on that CPU every ``PERIOD_S`` while
the analysis runs.  The probe's duration, against ``REFERENCE_S``, gives the
CPU's speed at that moment; an interval of the analysis is converted to
reference seconds by removing the time the probes took and integrating the
probes' speed over the rest.  See README.md, "Noise".
"""

from __future__ import annotations

import os
import random
import threading
import time

import numpy as np

# Sleep between two probes.  A probe takes about 2.5 ms while an analysis runs
# (its data has left the caches by then), so the analysed process loses 5-8%
# of its CPU to the probes, the same on every commit.
PERIOD_S = 0.04
# Typical duration of a probe taken while an analysis runs, on the machine the
# benchmark was written on (Intel Xeon, Python 3.11, numpy 2.4), so that
# converted times read close to the wall clock of a typical stretch there.
# Only the scale of the reported times depends on it.
REFERENCE_S = 0.0025
# Fewer probes than this inside an interval: the nearest ones outside it count too.
MIN_PROBES = 5


class _ProbeWork:
    """A little of each kind of work molrdf does.

    A slow stretch does not slow every kind of work alike.  Measured against
    the slowdown of whole analyses, numpy calls on 3-vectors (as in
    unfolding) track ``chains`` and ``spike``, whose time goes to many small
    calls, but over-correct ``liquid``; interpreter loops, scattered look-ups
    and large-array reads track ``liquid`` but under-correct the other two.
    So about 60% of a probe's time (measured while analyses run) is
    3-vector numpy calls, and the rest is split between an interpreter loop,
    dict and list look-ups scattered over a few MB, text-to-float parsing as
    in the HISTORY reader, and random reads from an array larger than the
    last-level cache as in the pair kernel.
    """

    def __init__(self):
        rng = random.Random(0)
        self.values = [rng.random() for _ in range(40_000)]
        self.table = dict(enumerate(self.values))
        self.order = rng.sample(range(40_000), 360)
        self.vectors = [np.array([rng.random(), rng.random(), rng.random()]) * 30 for _ in range(197)]
        self.cell = np.diag([30.0, 31.0, 32.0])
        self.inverse = np.linalg.inv(self.cell)
        self.lines = [f"{rng.random() * 30:16.6f}{rng.random() * 30:16.6f}{rng.random() * 30:16.6f}"
                      for _ in range(100)]
        generator = np.random.default_rng(0)
        self.big = generator.random(4_000_000)  # 32 MB
        self.gather = generator.integers(0, len(self.big), 12_500)

    def __call__(self) -> None:
        total = 0
        for i in range(2000):
            total += i * i % 7
        acc = 0.0
        for j in self.order:
            acc += self.table[j] * self.values[j]
        for a, b in zip(self.vectors, self.vectors[1:]):
            f = (a - b) @ self.inverse
            (f - np.rint(f)) @ self.cell
        np.array([[float(x) for x in line.split()] for line in self.lines])
        self.big[self.gather].sum()


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """A thread that times the probe every ``PERIOD_S`` until stopped."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end), time.monotonic()
        self._work = _ProbeWork()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.monotonic()
            self._work()
            self.probes.append((start, time.monotonic()))

    def reference_seconds(self, t0: float, t1: float, within: tuple[float, float]) -> float:
        """Interval [t0, t1] of the analysed process, in seconds at reference speed.

        The probes inside the interval took CPU from the analysed process, so
        their time is taken out.  The rest is multiplied by the mean speed
        (``REFERENCE_S`` / probe duration) of the probes, which are evenly
        spread over the interval: that integrates the speed over time, so a
        short slow stretch weighs by its length.  When the interval holds
        fewer than ``MIN_PROBES`` probes, the speed comes from the
        ``MIN_PROBES`` probes nearest to it inside ``within``, the whole run
        of the analysed process: outside it the probe thread competes with
        this process's own work and reads slow.
        """
        pool = [(s, e) for s, e in self.probes if within[0] <= s and e <= within[1]]
        inside = [(s, e) for s, e in pool if t0 <= s and e <= t1]
        sample = inside
        if len(sample) < MIN_PROBES:
            middle = (t0 + t1) / 2
            sample = sorted(pool, key=lambda p: abs((p[0] + p[1]) / 2 - middle))[:MIN_PROBES]
        if not sample:
            raise RuntimeError("the speed probe did not run while the analysis ran")
        speed = sum(REFERENCE_S / (e - s) for s, e in sample) / len(sample)
        return (t1 - t0 - sum(e - s for s, e in inside)) * speed
