"""I/O accounting shared by the pager and buffer pool.

A single :class:`IOStats` instance is threaded through a storage stack; the
benchmark harness snapshots it before and after each query to report page
reads the same way the paper does (cold buffer pool, direct I/O).

Concurrency: one stats object is shared by every component of a stack
(pager, pool, WAL, guard) and -- once ``prix serve``-style workloads
land -- by every thread querying that stack.  All counter mutation
therefore goes through :meth:`IOStats.add` (or its fixed-form twins for
the per-page counters, :meth:`IOStats.count_logical_read` and the
three a pool miss bumps), which holds the
object's own ``io-stats`` latch; lost updates on ``+=`` from two threads
would break the exact-conservation oracle the threaded stress harness checks
(``docs/CONCURRENCY.md``).  Cross-thread readers use :meth:`read` or
:meth:`snapshot` -- under ``PRIX_SANITIZE=1`` a bare counter attribute
access on a stats object shared between threads is flagged as a race.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.latch import Latch, guarded


def _stats_latch():
    return Latch("io-stats")


@guarded
@dataclass
class IOStats:
    """Counters for logical and physical page traffic.

    The ``wal_*`` counters account write-ahead-log traffic separately
    from page traffic by construction: WAL appends and fsyncs never
    touch ``physical_reads``/``physical_writes``, so the paper's
    "Disk IO (pages)" columns stay comparable whether or not an index
    runs with ``durable=True``.

    The ``guard_*`` counters do the same for the checksum guard
    (``docs/ROBUSTNESS.md``): verifications are CPU work over bytes a
    counted read already fetched, and repairs/quarantines only happen on
    actual corruption, so none of them perturb the paper's page columns.
    """

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    evictions: int = 0
    allocations: int = 0
    wal_appends: int = 0
    wal_fsyncs: int = 0
    wal_bytes: int = 0
    guard_verifications: int = 0
    guard_repairs: int = 0
    guard_quarantines: int = 0
    _latch: Latch = field(default_factory=_stats_latch, repr=False,
                          compare=False)

    #: Field -> guarding latch; the runtime sanitizer installs its
    #: guarded-access assertions from this mapping (reads and writes
    #: alike must hold ``_latch`` once the object is shared between
    #: threads).
    _GUARDED = {name: "_latch" for name in (
        "physical_reads", "physical_writes", "logical_reads", "evictions",
        "allocations", "wal_appends", "wal_fsyncs", "wal_bytes",
        "guard_verifications", "guard_repairs", "guard_quarantines")}

    def add(self, **deltas):
        """Atomically bump the named counters (``add(physical_reads=1)``).

        The only sanctioned mutation path outside :meth:`reset`: every
        call site in the storage layer routes its increments through
        here so concurrent stacks never lose updates.
        """
        with self._latch:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)

    def count_logical_read(self):
        """``add(logical_reads=1)`` for the pool's per-page-request path.

        The one counter bumped on every cache hit, so it gets a fixed
        form: no keyword dict, no name loop, same latch.  The three
        counters every pool miss bumps get the same form below.
        """
        with self._latch:
            self.logical_reads += 1

    def count_physical_read(self):
        """``add(physical_reads=1)``, in :meth:`count_logical_read`'s
        fixed form: the pager's per-read bump."""
        with self._latch:
            self.physical_reads += 1

    def count_eviction(self):
        """``add(evictions=1)``, in fixed form: the pool's per-victim
        bump."""
        with self._latch:
            self.evictions += 1

    def count_guard_verification(self):
        """``add(guard_verifications=1)``, in fixed form: the guard's
        per-verified-read bump."""
        with self._latch:
            self.guard_verifications += 1

    def read(self, name):
        """Latched read of one counter by name (``read("physical_reads")``).

        The sanctioned way for *cross-thread* readers -- the query
        pipeline's per-query I/O deltas, the budget meter -- to sample a
        counter: a bare attribute read on a shared stats object is
        exactly the race the guarded-field sanitizer flags.
        """
        with self._latch:
            return getattr(self, name)

    def snapshot(self):
        """Return an independent copy of the current counters."""
        with self._latch:
            return IOStats(self.physical_reads, self.physical_writes,
                           self.logical_reads, self.evictions,
                           self.allocations, self.wal_appends,
                           self.wal_fsyncs, self.wal_bytes,
                           self.guard_verifications, self.guard_repairs,
                           self.guard_quarantines)

    def delta(self, earlier):
        """Return the counter increments since ``earlier``."""
        with self._latch:
            return IOStats(
                self.physical_reads - earlier.physical_reads,
                self.physical_writes - earlier.physical_writes,
                self.logical_reads - earlier.logical_reads,
                self.evictions - earlier.evictions,
                self.allocations - earlier.allocations,
                self.wal_appends - earlier.wal_appends,
                self.wal_fsyncs - earlier.wal_fsyncs,
                self.wal_bytes - earlier.wal_bytes,
                self.guard_verifications - earlier.guard_verifications,
                self.guard_repairs - earlier.guard_repairs,
                self.guard_quarantines - earlier.guard_quarantines,
            )

    def parts(self):
        """The counter objects this one reads: itself (a shard set's
        aggregate lists one per shard).  What adds a delta measured
        elsewhere -- a ``prix serve`` engine process -- adds it here."""
        return (self,)

    def reset(self):
        """Zero every counter."""
        with self._latch:
            self.physical_reads = 0
            self.physical_writes = 0
            self.logical_reads = 0
            self.evictions = 0
            self.allocations = 0
            self.wal_appends = 0
            self.wal_fsyncs = 0
            self.wal_bytes = 0
            self.guard_verifications = 0
            self.guard_repairs = 0
            self.guard_quarantines = 0

    @property
    def hit_ratio(self):
        """Fraction of logical reads served from the pool.

        Returns ``None`` when there was no logical traffic at all (no
        reads means no meaningful ratio).  Direct pager traffic --
        physical reads issued without a logical read, e.g. a benchmark
        peeking at pages behind the pool -- would push the raw ratio
        below zero, so the result is clamped to ``[0.0, 1.0]``.
        """
        with self._latch:
            if self.logical_reads == 0:
                return None
            ratio = 1.0 - self.physical_reads / self.logical_reads
        return min(1.0, max(0.0, ratio))

