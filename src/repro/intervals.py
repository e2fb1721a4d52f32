"""Point queries over a fixed set of half-open intervals.

Both the loss model's outage windows (:mod:`repro.netsim.loss`) and
the disruption schedules (:mod:`repro.disrupt.schedule`) are asked,
once per packet or probe, which of their ``[start, end)`` windows
cover an instant. :class:`IntervalIndex` answers that without scanning
every window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable


class IntervalIndex:
    """Half-open intervals ``[start, end)`` indexed for point queries.

    The intervals are kept sorted by start (stably: equal starts keep
    their input order) beside ``reach[i]``, the latest end among the
    first ``i + 1`` of them, so an early long interval still covers a
    later short one's tail. A query bisects for the intervals begun by
    ``t`` and walks back only while ``reach`` is still past ``t``:
    once it is not, no earlier interval can hold ``t``.

    Plain Python lists and ``bisect``: callers ask about one instant
    at a time, and a numpy call per query costs several times a
    ``bisect_right``. A NaN ``t`` lies in no interval, as it does
    under ``start <= t < end``.
    """

    __slots__ = ("_starts", "_ends", "_reach", "_order")

    def __init__(self, intervals: Iterable[tuple[float, float]]):
        pairs = list(intervals)
        self._order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
        self._starts = [pairs[i][0] for i in self._order]
        self._ends = [pairs[i][1] for i in self._order]
        # From -inf, so that a NaN end (an interval holding nothing)
        # never hides the intervals after it.
        self._reach = list(accumulate(self._ends, max,
                                      initial=-math.inf))[1:]

    def covers(self, t: float) -> bool:
        """Whether any interval holds ``t``."""
        begun = bisect_right(self._starts, t)
        return begun > 0 and t < self._reach[begun - 1]

    def active(self, t: float) -> list[int]:
        """Input positions of the intervals holding ``t``, ascending."""
        ends, reach, order = self._ends, self._reach, self._order
        j = bisect_right(self._starts, t) - 1
        hits = []
        while j >= 0 and t < reach[j]:
            if t < ends[j]:
                hits.append(order[j])
            j -= 1
        hits.sort()
        return hits
