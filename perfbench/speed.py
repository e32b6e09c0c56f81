"""Speed correction for wall times measured on a machine whose speed drifts.

On the 2-core VM this benchmark was written on, the same pure-Python work
took anywhere from 4.5 to 8.7 ms within a few minutes (host contention; the
VM reports no steal time and exposes no hardware counters).  Medians of
30-second runs drifted by as much, far beyond any useful regression bound.

So every timed op is bracketed by ``probe()``, a fixed ~9 ms piece of the
same kinds of work wgk does, run on the same CPU as the op.  An op's
corrected time is its wall time scaled by REF_PROBE_S over the mean of the
probes just before and just after it: the wall time the op would have taken
at the reference speed.  In a 150-second trial on that VM, the medians of
25-second windows of three ops (a default-bound and a wide-bound matcher
query, a degree-5 oracle slice) spread by 34-40 % raw and 2-5 % corrected.
Raw wall times are reported beside the corrected ones.
"""

import time
from fractions import Fraction

REF_PROBE_S = 0.009   # probe() when that VM was uncontended (Xeon, Python 3.11)


def probe():
    """Wall seconds of the fixed reference work.

    Three parts, because contention slows them differently: Fraction
    arithmetic (the series layer), building many small tuples and dicts (the
    matcher's model table) and combining big-integer dict rows (the oracle).
    Their sum tracked the slowdown of all three kinds of op best.
    """
    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    table = []
    for i in range(1500):
        w = tuple(sorted(((i * 7) % 17, (i * 3) % 11, i % 13, (i * 5) % 19, i % 7)))
        num = {}
        for v in w:
            num[v] = num.get(v, 0) + 1
            num[v + 3] = num.get(v + 3, 0) - 1
        table.append((w, num, Fraction(i, 7)))
    rows = {}
    for i in range(750):
        rows[i % 211] = {c: (i * c * 1000003) ** 2 for c in range(8)}
    return time.perf_counter() - t0


class Clock:
    """Times ops back to back; each probe is shared by its two neighbours."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def corrected(self, wall):
        """Record an op that just ended after ``wall`` seconds; return its corrected time."""
        after = probe()
        scale = REF_PROBE_S / ((self.last + after) / 2)
        self.last = after
        self.probes.append(after)
        return wall * scale
