"""Times scaled to a reference CPU speed.

A shared host can slow a CPU 1.4-1.7x for anywhere from a second to many
minutes, and it slows the interpreter and compiled numerical code alike: the
ratio of a fixed Python loop to a fixed `linear_sum_assignment` call stays
within about 5% across such phases, while either one alone moves by 50%.
A `SpeedClock` therefore times a fixed loop (the probe) between ops, at most
every `SEGMENT_S` seconds, and scales each op's seconds by REF_PROBE_S over
the mean of the probe readings at the two ends of the segment the op ran in.
A scaled time is what the op would take on a CPU that runs the probe in
REF_PROBE_S seconds; it moves with the program, not with the host.

Scaling does not remove short bursts of work by other tenants, which can
stretch a millisecond-long op by half. Each op (a key: the same inputs, run
once per unit) therefore reads as the lower quartile of its scaled repeats.
"""

from __future__ import annotations

import statistics
import time

PROBE_LOOPS = 100_000
PROBE_REPEATS = 3
REF_PROBE_S = 0.005   # probe seconds of the reference CPU
SEGMENT_S = 0.25      # longest stretch of ops between two probe readings


def probe_seconds() -> float:
    """Median seconds of a fixed Python loop: the current speed of this CPU."""
    times = []
    for _ in range(PROBE_REPEATS):
        start, acc = time.perf_counter(), 0
        for i in range(PROBE_LOOPS):
            acc += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Records (kind, key, seconds, segment) for timed work; reports scaled seconds."""

    def __init__(self):
        self.readings = [probe_seconds()]
        self._last = time.perf_counter()
        self.times: list[tuple[str, int, float, int]] = []

    def tick(self) -> None:
        """Call before an op: takes a reading when the segment has run SEGMENT_S."""
        if time.perf_counter() - self._last >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        """Ends the current segment with a reading; call after the last timed op."""
        self.readings.append(probe_seconds())
        self._last = time.perf_counter()

    def add(self, kind: str, seconds: float, key: int = 0) -> None:
        self.times.append((kind, key, seconds, len(self.readings) - 1))

    def scale(self, segment: int) -> float:
        ends = self.readings[segment:segment + 2]
        return REF_PROBE_S / statistics.mean(ends)

    def scaled(self, kind: str) -> dict[int, list[float]]:
        """Scaled seconds of each repeat, by key."""
        out: dict[int, list[float]] = {}
        for k, key, s, seg in self.times:
            if k == kind:
                out.setdefault(key, []).append(s * self.scale(seg))
        return out

    def typical(self, kind: str) -> list[float]:
        """Per key, the lower quartile of its scaled repeats."""
        return [statistics.quantiles(v, n=4)[0] if len(v) > 1 else v[0]
                for v in self.scaled(kind).values()]

    def raw(self, kind: str) -> list[float]:
        return [s for k, _, s, _ in self.times if k == kind]

    def measure(self, kind: str, fn, *args) -> None:
        """Time fn(*args) as `kind`, in a segment of its own."""
        self.close()
        start = time.perf_counter()
        fn(*args)
        self.add(kind, time.perf_counter() - start)
        self.close()
