"""Host-speed normalisation for the end-to-end timings.

The host this benchmark runs on shares its cores and caches with other
tenants, and its speed drifts by a factor of up to ~1.8 within seconds
(the same fresh-interpreter repetition measured 137k-257k simulated
instructions per second).  No number of repetitions averages that out of
a ten-second run.  So every unit the workers time is followed by a short
fixed calibration slice, pure Python with no simulator code in it, and
each unit's time is scaled by the calibration rate measured around it
(the mean of the slices just before and after it):

    normalised time = measured time * (local rate / NOMINAL_RATE) ** ALPHA

i.e. the time the unit would have taken on a host that runs the slice at
:data:`NOMINAL_RATE` loops per second.  A change to the simulator moves
the normalised figures exactly as it moves the raw ones; a change in the
host's speed moves the slice too and cancels.  The raw figures stay in
the result files.
"""

from __future__ import annotations

import statistics
import time

#: Loops per slice: about 0.7 ms on the reference host.
SLICE_LOOPS = 1000
#: Slice loops per second that normalised timings are expressed at.
NOMINAL_RATE = 2.0e6
#: How closely the simulator's speed follows the slice's: when the host
#: runs the slice r times faster, it runs the simulator about r ** ALPHA
#: times faster (the slice is more compute-bound).  Fitted per unit, in
#: log space, over 10-seed runs of all three workloads: 0.74-0.86.
ALPHA = 0.8


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self, amount):
        self.value = (self.value * 33 + amount) & 0xFFFFFFFF
        return self.value


def calibration_slice():
    """Run one slice; its rate in loops per second.

    Method calls, attribute and dict traffic on small ints and tuples:
    the operations the interpreter-bound simulator spends its time on.
    """
    start = time.perf_counter()
    cell, table = _Cell(), {}
    for index in range(SLICE_LOOPS):
        key = (index & 0xFF, index & 1)
        table[key] = cell.bump(table.get(key, index))
    return SLICE_LOOPS / (time.perf_counter() - start)


def rate(slices=7):
    """Median rate over a few back-to-back slices."""
    return statistics.median(calibration_slice() for _ in range(slices))


def scale(rate):
    """Factor turning a time measured at slice ``rate`` into nominal time."""
    return (rate / NOMINAL_RATE) ** ALPHA


def factors(rates):
    """Per unit, :func:`scale` of the mean rate of the slices around it.

    ``rates[j]`` is the slice run right after unit ``j``.
    """
    return [
        scale(statistics.fmean(rates[max(0, j - 1):j + 1]))
        for j in range(len(rates))
    ]
