"""Machine-speed probe, used to put run times on a common scale.

The benchmark shares a 2-CPU virtual machine with other tenants, and the
speed of its CPUs moves by up to a factor of two over seconds to minutes:
the same fixed loop timed in 15-second windows spreads by 16 %
(interquartile range over median), and whole benchmark runs by 11 to 44 %.
Such runs cannot gate a regression of a few tens of percent.

A probe process, mostly on the other CPU, times a fixed piece of work (a
Python loop plus NumPy table lookups, about 0.4 ms) every 5 ms.  Its
duration over an interval tracks the benchmark's own slowdown (correlation
0.92 on 90 ms chunks), so a time measured over [t0, t1] is reported as

    (t1 - t0) * NOMINAL_PROBE_S / (median probe duration in [t0, t1])

with the window widened to at least 0.25 s: the time the same work takes
when the probe runs at its nominal speed.  The probe is the same on every
commit, so a program that gets slower still reads slower.

Run as a script, this file is the probe: it prints ``ready``, samples
until SIGTERM, then prints its samples as JSON and exits.
"""

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time

# Probe duration at the reference speed; a fixed constant, so scaled times
# compare across runs and commits.
NOMINAL_PROBE_S = 0.0004
PERIOD_S = 0.005
MIN_WINDOW_S = 0.25


def _probe_work(table, idx):
    x = 0
    for i in range(2500):
        x += i * i
    s = idx
    for _ in range(12):
        s = table[s, idx]
    return x + int(s[0])


def probe_main():
    import numpy as np
    rng = np.random.default_rng(0)
    table = rng.integers(0, 243, size=(243, 243)).astype(np.int32)
    idx = rng.integers(0, 243, size=2048)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(1))
    samples = []
    parent = os.getppid()
    _probe_work(table, idx)
    print("ready", flush=True)
    while not stop and os.getppid() == parent:
        t = time.perf_counter()
        _probe_work(table, idx)
        samples.append((t, time.perf_counter() - t))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    sys.stdout.flush()


class SpeedProbe:
    """Runs the probe process for the lifetime of a ``with`` block.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    probe's timestamps and the benchmark's share one time base.
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._finish()
            raise RuntimeError("speed probe failed to start")
        return self

    def __exit__(self, *exc):
        self._finish()
        return False

    def stop(self):
        """End sampling; returns the samples as a ``SpeedScale``."""
        samples = json.loads(self._finish())
        if not samples:
            raise RuntimeError("speed probe returned no samples")
        return SpeedScale(samples)

    def _finish(self):
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        return out or "[]"


class SpeedScale:
    """Probe samples ``(start, duration)`` and the scaling they imply."""

    def __init__(self, samples):
        self.samples = sorted(map(tuple, samples))
        self._starts = [t for t, _ in self.samples]

    def factor(self, t0, t1):
        """Nominal over observed probe speed around [t0, t1]."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self._starts, t0 - pad)
        hi = bisect.bisect_right(self._starts, t1 + pad)
        durations = [d for _, d in self.samples[lo:hi]] or \
            [d for _, d in self.samples]
        return NOMINAL_PROBE_S / statistics.median(durations)

    def scale(self, t0, t1):
        """Duration of [t0, t1] at nominal speed."""
        return (t1 - t0) * self.factor(t0, t1)


if __name__ == "__main__":
    probe_main()
