"""Percentiles, the tail rule, host-speed scaling and the per-layer roll-up of a trace."""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

from tracing import Span, self_times

#: Candidate tail percentiles. A coarse ladder keeps the chosen percentile
#: the same from run to run while the sample count moves a little.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def percentile(values, p) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    for p in reversed(TAIL_LADDER):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond the median")


def layer_times_ms(spans: list[Span], inclusive: frozenset = frozenset()) -> dict[str, float]:
    """Milliseconds per span name: self time, or the whole span for names in inclusive."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        ns = span.end_ns - span.start_ns if span.name in inclusive else own
        out[span.name] = out.get(span.name, 0.0) + ns / 1e6
    return out


#: Times are reported as on a host on which one host probe takes this long.
PROBE_REF_MS = 1.0


def host_probe_ms() -> float:
    """Mean time of three runs of a fixed Fraction sum, with the collector off.

    The sum does the same kind of work as the library (small-integer
    Fraction arithmetic) and does not depend on the code under test, so its
    time tracks how fast the host runs at that moment. The mean, not the
    best, of the three, because the host's speed changes within
    milliseconds and the mean follows its share of slow time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            total = Fraction(0)
            for i in range(1, 300):
                total += Fraction(1, i)
        return (time.perf_counter() - start) * 1000 / 3
    finally:
        if enabled:
            gc.enable()


class HostScale:
    """Factors that turn wall times into times at the reference host speed.

    A probe is taken when the scale is made and at every call to factor();
    an interval between two probes is scaled by PROBE_REF_MS over their mean.
    With probe None, no probe is taken and every factor is 1.
    """

    def __init__(self, probe=host_probe_ms):
        self._probe = probe
        self.probes = [probe()] if probe else []

    def factor(self) -> float:
        """Scale for the interval since the previous probe; takes a new one."""
        if self._probe is None:
            return 1.0
        self.probes.append(self._probe())
        return 2 * PROBE_REF_MS / (self.probes[-2] + self.probes[-1])
