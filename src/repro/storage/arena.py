"""In-memory arena page substrate.

An :class:`ArenaPager` stores pages as plain process-memory byte strings
-- no file object, no seek emulation -- while exposing exactly the
:class:`~repro.storage.pager.Pager` surface (allocate/read/write/
repair_write/sync/close, the same typed errors, the same ``IOStats``
accounting and the same ``pager-io`` latch discipline).  The
:class:`~repro.storage.backend.InMemoryArenaBackend` runs the regular
buffer pool over it, so logical/physical read accounting -- the paper's
"Disk IO pages" columns -- is byte-identical to the file substrate by
construction: the LRU, pin, WAL and guard machinery above the substrate
is literally the same code.

Tests and benchmarks use it to exercise the full storage protocol
without touching a filesystem; it is also the reference substrate the
``prixarch`` conformance rule checks backends against.
"""

from __future__ import annotations

from repro.storage.errors import PageRangeError
from repro.storage.latch import Latch
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats


class ArenaPager:
    """Pager-compatible page store over in-process memory.

    Concurrency mirrors :class:`~repro.storage.pager.Pager`: the page
    table and allocation bound are guarded by a re-entrant ``pager-io``
    latch, and guard verification runs inside the latched read so
    read-repair sees the same bytes the read fetched.
    """

    #: Field -> guarding latch, for the runtime sanitizer's
    #: guarded-access assertions.
    _GUARDED = {"_pages": "_io_latch"}

    def __init__(self, page_size=DEFAULT_PAGE_SIZE, stats=None, guard=None):
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.guard = None
        self._io_latch = Latch("pager-io")
        self._pages = []  # page_id -> bytes
        if guard is not None:
            self.attach_guard(guard)

    def attach_guard(self, guard):
        """Attach a checksum guard; it adopts this pager's stats."""
        if guard.page_size != self.page_size:
            raise ValueError(
                f"guard page size {guard.page_size} does not match pager "
                f"page size {self.page_size}")
        guard.stats = self.stats
        self.guard = guard

    @property
    def num_pages(self):
        """Number of allocated pages."""
        with self._io_latch:
            return len(self._pages)

    def allocate(self):
        """Extend the arena by one zeroed page and return its id."""
        zero = b"\x00" * self.page_size
        with self._io_latch:
            page_id = len(self._pages)
            self._pages.append(zero)
            self.stats.add(allocations=1)
        if self.guard is not None:
            self.guard.stamp(page_id, zero)
        return page_id

    def _check_range(self, page_id):  # caller holds _io_latch
        """Reject out-of-range page ids with the pager's typed error."""
        if not isinstance(page_id, int) or isinstance(page_id, bool):
            raise PageRangeError(
                f"page id must be an int, got {type(page_id).__name__}")
        if not 0 <= page_id < len(self._pages):
            raise PageRangeError(
                f"page {page_id} is out of range [0, {len(self._pages)})")

    def read(self, page_id):
        """Copy one page out of the arena (counted as a physical read).

        The arena substitutes for the platter, so a read that reaches it
        is by definition a buffer-pool miss and counts exactly like a
        file read -- that is what keeps the reproduced I/O columns
        identical across substrates.  Raises :class:`PageRangeError`
        outside the allocated range; a guard, when attached, verifies
        (and may repair or quarantine) exactly as on the file pager.
        """
        with self._io_latch:
            self._check_range(page_id)
            if self.guard is not None:
                self.guard.check_quarantine(page_id)
            data = self._pages[page_id]
            self.stats.add(physical_reads=1)
            if self.guard is not None:
                data = self.guard.admit(page_id, data, self)
        return bytearray(data)

    def read_raw(self, page_id):
        """Read one page without verification or read accounting
        (guard-internal escape hatch, as on the file pager)."""
        with self._io_latch:
            self._check_range(page_id)
            return bytearray(self._pages[page_id])

    def write(self, page_id, data):
        """Store one page image (counted as a physical write)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page payload must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
        with self._io_latch:
            self._check_range(page_id)
            self._pages[page_id] = bytes(data)
            self.stats.add(physical_writes=1)
        if self.guard is not None:
            self.guard.stamp(page_id, bytes(data))

    def repair_write(self, page_id, data):
        """Reinstall a repaired page image (guard traffic, not page I/O)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page payload must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
        with self._io_latch:
            self._check_range(page_id)
            self._pages[page_id] = bytes(data)

    def sync(self):
        """Durability barrier: memory is as stable as this process gets."""
        if self.guard is not None:
            self.guard.sync()

    def close(self):
        """Release the arena (and the guard sidecar, if attached)."""
        with self._io_latch:
            self._pages = []
        if self.guard is not None:
            self.guard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
