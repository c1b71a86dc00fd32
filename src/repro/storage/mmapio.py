"""Read-only memory-mapped page substrate.

A :class:`MmapPager` maps a finished index file once and serves page
reads as slices of the mapping -- no per-read ``seek``/``read`` syscall
pair, no userspace copy beyond the one the buffer pool makes when it
admits the page.  It exposes the same surface as
:class:`~repro.storage.pager.Pager` so the regular buffer pool (and
therefore the paper's "Disk IO pages" accounting) runs over it
unchanged, but every mutating entry point raises
:class:`~repro.storage.errors.ReadOnlyBackendError`: the serving tier
maps one immutable artifact for many concurrent readers, and a write
reaching the mapping would be a layering bug, not a feature.

Corruption handling degrades gracefully rather than silently: with a
guard attached, a bad page has no WAL to repair from (read-only means
no log), so verification quarantines the page and raises the same typed
:class:`~repro.storage.errors.PageCorruptionError` the file pager
raises after repair fails.
"""

from __future__ import annotations

import mmap

from repro.storage.errors import PageRangeError, ReadOnlyBackendError
from repro.storage.latch import Latch
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats


class MmapPager:
    """Pager-compatible read-only view over a memory-mapped page file."""

    #: Field -> guarding latch, for the runtime sanitizer's
    #: guarded-access assertions.
    _GUARDED = {"_map": "_io_latch"}

    def __init__(self, path, page_size=DEFAULT_PAGE_SIZE, stats=None,
                 guard=None):
        self.path = path
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.guard = None
        self._io_latch = Latch("pager-io")
        # The file object stays open for the lifetime of the mapping;
        # mmapio.py is a sanctioned raw-I/O gateway like pager.py.
        self._file = open(path, "rb")
        size = self._file.seek(0, 2)
        if size % page_size:
            self._file.close()
            raise ValueError(
                f"file size {size} is not a multiple of page size "
                f"{page_size}")
        self._num_pages = size // page_size
        # mmap rejects zero-length maps; an empty file simply has no
        # pages, and every read is then out of range anyway.
        if size:
            self._map = mmap.mmap(
                self._file.fileno(), size, access=mmap.ACCESS_READ)
        else:
            self._map = None
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
        """Number of pages in the mapped file."""
        return self._num_pages

    def _check_range(self, page_id):
        """Reject out-of-range page ids with the pager's typed error."""
        if not isinstance(page_id, int) or isinstance(page_id, bool):
            raise PageRangeError(
                f"page id must be an int, got {type(page_id).__name__}")
        if not 0 <= page_id < self._num_pages:
            raise PageRangeError(
                f"page {page_id} is out of range [0, {self._num_pages})")

    def read(self, page_id):
        """Copy one page out of the mapping (counted as a physical read).

        The count keeps the reproduced I/O columns comparable across
        substrates; whether the kernel had the page resident is exactly
        the distinction the paper's buffer-pool model already abstracts.
        """
        self._check_range(page_id)
        with self._io_latch:
            if self.guard is not None:
                self.guard.check_quarantine(page_id)
            offset = page_id * self.page_size
            data = bytes(self._map[offset:offset + self.page_size])
            self.stats.add(physical_reads=1)
            if self.guard is not None:
                data = self.guard.admit(page_id, data, self)
        return bytearray(data)

    def read_raw(self, page_id):
        """Read one page without verification or read accounting."""
        self._check_range(page_id)
        with self._io_latch:
            offset = page_id * self.page_size
            return bytearray(self._map[offset:offset + self.page_size])

    def allocate(self):
        """Refuse: a mapped artifact cannot grow."""
        raise ReadOnlyBackendError(
            f"cannot allocate a page on read-only mmap pager for "
            f"{self.path!r}")

    def write(self, page_id, data):
        """Refuse: the mapping is immutable."""
        raise ReadOnlyBackendError(
            f"cannot write page {page_id} on read-only mmap pager for "
            f"{self.path!r}")

    def repair_write(self, page_id, data):
        """Refuse: no WAL, no repair source, no writable mapping.

        The guard treats a failing ``repair_write`` like a failed
        repair, so a corrupt page quarantines instead of silently
        serving bad bytes.
        """
        raise ReadOnlyBackendError(
            f"cannot repair page {page_id} on read-only mmap pager for "
            f"{self.path!r}")

    def sync(self):
        """No-op: nothing dirty can exist behind a read-only mapping."""

    def close(self):
        """Unmap the file and release the descriptor."""
        with self._io_latch:
            if self._map is not None:
                self._map.close()
                self._map = None
        self._file.close()
        if self.guard is not None:
            self.guard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
