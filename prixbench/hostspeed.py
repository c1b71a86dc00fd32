"""Host-speed probe: what makes timings comparable across runs.

The sandboxes this benchmark runs in share their CPU caches and memory
with other tenants.  Identical work slows down by 20-60 % for tens of
seconds at a time, memory-heavy Python far more than arithmetic, so raw
medians of ten runs spread by 15-30 % whatever is measured and however
long.  A fixed, stdlib-only kernel with the program's instruction mix
(dict and tuple churn, ``int.from_bytes``, a keyed sort) slows down by
nearly the same factor, and it never changes with the program.

The runner therefore runs the kernel between operations, and expresses a
round's timings in **reference milliseconds**: measured time divided by
(mean kernel time in that round / :data:`REFERENCE_S`).  The constant
only fixes the scale: on the builder's host the factor is about 0.75 in
a quiet hour and 1.05 in a noisy one.  Two commits measured this way
differ by what the program does, not by which minute they ran in;
README.md has the spreads measured both ways.  Per-layer (traced)
numbers are left as measured.
"""

from __future__ import annotations

from operator import itemgetter
from time import perf_counter

#: Mean kernel time between operations on the builder's host in a noisy
#: hour.  Only fixes the scale of a reference millisecond.
REFERENCE_S = 0.004

#: The runner probes once per this many operations of a round.
PROBE_EVERY = 3


def kernel():
    table = {}
    for number in range(5000):
        table[number] = (number, str(number), number.to_bytes(8, "big"))
    rows = sorted(table.values(), key=itemgetter(1))
    total = 0
    for _, text, raw in rows:
        total += int.from_bytes(raw, "big") + len(text)
    return total


class Probe:
    """Collects kernel timings; ``factor()`` is the host's slowness."""

    def __init__(self):
        self.samples = []

    def __call__(self):
        started = perf_counter()
        kernel()
        self.samples.append(perf_counter() - started)

    def factor(self):
        """Mean kernel time over the reference, and forget the samples."""
        samples, self.samples = self.samples, []
        return sum(samples) / len(samples) / REFERENCE_S
