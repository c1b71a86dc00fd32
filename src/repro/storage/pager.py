"""The page manager: the one page substrate of ``repro.storage``.

A :class:`Pager` owns a flat file-like object divided into fixed-size
pages and counts every physical read and write.  *Which* file-like
object it is handed is the only thing that distinguishes the storage
backend kinds: a real file (:meth:`Pager.open`), an ``io.BytesIO``
(:meth:`Pager.in_memory`, or :meth:`Pager.snapshot` of a saved file's
bytes) or a read-only ``mmap.mmap`` of a saved file
(:meth:`Pager.mapped`).  The range check, quarantine check, guard
admission, stats bump and latch below are therefore the same code on
every substrate.

Concurrency: page I/O on a real OS file is positional (``os.pread`` /
``os.pwrite`` on its descriptor), so it never moves the descriptor's
seek offset -- which a forked ``prix serve`` engine process shares with
its front end and with every other engine (``docs/SERVING.md``).  Any
other file object (an in-memory buffer, a map, a test's fault-injecting
wrapper) keeps seek-then-read/write.  Either way each page transfer,
with its range check and accounting, runs under the pager's
``pager-io`` latch (``_io_latch``): a seek-then-read pair must be
atomic, or two threads reading different pages interleave their seeks
and each gets the other's bytes.  The latch is re-entrant so guard
read-repair (``repair_write`` called from inside a latched ``read``)
nests cleanly.  See ``docs/CONCURRENCY.md`` for the latch order
(``pager-io`` may take ``io-stats``, nothing else).
"""

from __future__ import annotations

import io
import mmap
import os

from repro.storage.errors import PageRangeError, ReadOnlyBackendError
from repro.storage.latch import Latch, guarded
from repro.storage.stats import IOStats

#: Page size used throughout the reproduction; matches the paper's 8K pages.
DEFAULT_PAGE_SIZE = 8192


def fsync_file(fileobj):
    """Flush ``fileobj`` and force it to stable storage where supported.

    The single durability barrier used by the pager and the write-ahead
    log.  A file object may provide its own ``fsync()`` (the crash
    tests' ``FaultyFile``, ``tests/faults.py``, models the barrier
    there); otherwise ``os.fsync`` is attempted on the file
    descriptor and skipped for purely in-memory buffers.
    """
    fileobj.flush()
    own_fsync = getattr(fileobj, "fsync", None)
    if own_fsync is not None:
        own_fsync()
        return
    fileno = getattr(fileobj, "fileno", None)
    if fileno is not None:
        try:
            os.fsync(fileno())
        except (OSError, io.UnsupportedOperation):
            pass


def os_descriptor(fileobj):
    """The descriptor behind a file object opened on a real OS file, or
    None for anything else (in-memory buffers, maps, test wrappers).

    Only these exact types qualify: a wrapper that happens to expose a
    ``fileno`` must keep seeing every read and write it intercepts.
    """
    if isinstance(fileobj, (io.BufferedRandom, io.BufferedReader,
                            io.FileIO)):
        return fileobj.fileno()
    return None


def read_at(fileobj, fd, offset, size):
    """``size`` bytes at ``offset``: ``os.pread`` on descriptor ``fd``
    (from :func:`os_descriptor`), else seek-then-read on ``fileobj``."""
    if fd is not None:
        return os.pread(fd, size, offset)
    fileobj.seek(offset)
    return fileobj.read(size)


def write_at(fileobj, fd, offset, data):
    """Write ``data`` at ``offset``: ``os.pwrite`` on descriptor ``fd``
    (from :func:`os_descriptor`), else seek-then-write on ``fileobj``."""
    if fd is not None:
        view = memoryview(data)
        while view:
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written
        return
    fileobj.seek(offset)
    fileobj.write(data)


def unlink_files(paths):
    """Unlink each of ``paths`` that exists: how a refused open takes
    back the files it created (sanctioned here, the raw-I/O gateway)."""
    for path in paths:
        if os.path.exists(path):
            os.unlink(path)


@guarded
class Pager:
    """Allocates, reads and writes fixed-size pages of a single file.

    An optional :class:`~repro.storage.guard.PageGuard` may be attached
    (``guard=`` or :meth:`attach_guard`); the pager then stamps every
    page it writes and verifies -- repairing or quarantining on mismatch
    -- every page it reads.  Guard bookkeeping is side-channel traffic:
    it never changes ``physical_reads``/``physical_writes``.
    """

    #: Field -> guarding latch, for the runtime sanitizer's
    #: guarded-access assertions.
    _GUARDED = {"_num_pages": "_io_latch"}

    def __init__(self, fileobj, page_size=DEFAULT_PAGE_SIZE, stats=None,
                 guard=None):
        self._file = fileobj
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.guard = None
        #: True on a :meth:`mapped` pager: the single read-only
        #: condition, here and for the backend above.
        self.read_only = False
        self._io_latch = Latch("pager-io")
        self._fd = os_descriptor(fileobj)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size != 0:
            raise ValueError(
                f"file size {size} is not a multiple of page size {page_size}")
        self._num_pages = size // page_size
        if guard is not None:
            self.attach_guard(guard)

    @classmethod
    def _over(cls, fileobj, **kwargs):
        """Pager over a handle this module opened itself: the handle is
        closed, not leaked, when ``__init__`` rejects the file."""
        try:
            return cls(fileobj, **kwargs)
        except BaseException:
            fileobj.close()
            raise

    @classmethod
    def open(cls, path, page_size=DEFAULT_PAGE_SIZE, stats=None, guard=None):
        """Open (or create) a pager over the file at ``path``."""
        mode = "r+b" if os.path.exists(path) else "w+b"
        return cls._over(open(path, mode), page_size=page_size,
                         stats=stats, guard=guard)

    @classmethod
    def in_memory(cls, page_size=DEFAULT_PAGE_SIZE, stats=None, guard=None):
        """Create a pager over an in-memory buffer (tests, small corpora)."""
        return cls(io.BytesIO(), page_size=page_size, stats=stats,
                   guard=guard)

    @classmethod
    def snapshot(cls, path, page_size=DEFAULT_PAGE_SIZE, stats=None,
                 guard=None):
        """Pager over an in-memory copy of the saved file at ``path``.

        The bytes are read once, up front, so every later pool miss is
        served from process memory.  The copy is detached: it is never
        written back, and mutations on it die with the process.
        """
        with open(path, "rb") as source:
            image = source.read()
        return cls(io.BytesIO(image), page_size=page_size, stats=stats,
                   guard=guard)

    @classmethod
    def mapped(cls, path, page_size=DEFAULT_PAGE_SIZE, stats=None,
               guard=None):
        """Read-only pager over a memory map of the saved file at ``path``.

        ``allocate``/``write``/``repair_write`` raise
        :class:`~repro.storage.errors.ReadOnlyBackendError`.  A
        read-only mount has no WAL, so with a guard attached a corrupt
        page has no repair source and is quarantined with the usual
        typed :class:`~repro.storage.errors.PageCorruptionError`.
        """
        source = open(path, "rb")
        if os.fstat(source.fileno()).st_size:
            # The mapping holds its own duplicate of the descriptor.
            with source:
                fileobj = mmap.mmap(source.fileno(), 0,
                                    access=mmap.ACCESS_READ)
        else:
            # mmap rejects zero-length maps; an empty file simply has
            # no pages, and every read is then out of range anyway.
            fileobj = source
        pager = cls._over(fileobj, page_size=page_size, stats=stats,
                          guard=guard)
        pager.read_only = True
        return pager

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
            return self._num_pages

    def _check_writable(self):
        """The single read-only condition (:meth:`mapped` pagers)."""
        if self.read_only:
            raise ReadOnlyBackendError(
                "cannot allocate, write or repair a page on a read-only "
                "pager")

    def allocate(self):
        """Extend the file by one zeroed page and return its id."""
        self._check_writable()
        zero = b"\x00" * self.page_size
        with self._io_latch:
            page_id = self._num_pages
            write_at(self._file, self._fd, page_id * self.page_size, zero)
            self._num_pages += 1
            self.stats.add(allocations=1)
        if self.guard is not None:
            self.guard.stamp(page_id, zero)
        return page_id

    def _check_range(self, page_id):  # caller holds _io_latch
        """Reject out-of-range page ids with a typed error.

        Without this, a negative id would surface as a raw ``OSError``/
        ``ValueError`` from the seek, and a too-large id on a write
        would silently extend the file behind the allocator's back.
        Callers hold ``_io_latch`` (the bound is read under it).
        """
        if not isinstance(page_id, int) or isinstance(page_id, bool):
            raise PageRangeError(
                f"page id must be an int, got {type(page_id).__name__}")
        if not 0 <= page_id < self._num_pages:
            raise PageRangeError(
                f"page {page_id} is out of range [0, {self._num_pages})")

    def read(self, page_id):
        """Read one page from the backing file (counted as a physical read).

        With a guard attached the image is checksum-verified before it
        is handed out; a mismatching page is repaired from the newest
        committed WAL image where possible, and otherwise raises a typed
        :class:`~repro.storage.errors.PageCorruptionError` (quarantining
        the page).  Raises :class:`PageRangeError` when ``page_id`` is
        outside the allocated range.
        """
        with self._io_latch:
            self._check_range(page_id)
            if self.guard is not None:
                # Fail fast on a known-bad page, before spending (and
                # counting) a physical read on bytes already condemned.
                self.guard.check_quarantine(page_id)
            data = read_at(self._file, self._fd, page_id * self.page_size,
                           self.page_size)
            self.stats.count_physical_read()
            if self.guard is not None:
                # Verification (and possible read-repair through
                # ``repair_write``, which re-enters the latch) must see
                # the same bytes the read fetched.
                data = self.guard.admit(page_id, data, self)
        return bytearray(data)

    def read_raw(self, page_id):
        """Read one page without verification or read accounting.

        Guard-internal escape hatch (scrub adoption stamps current
        content; there is nothing yet to verify against).  Everything
        else must go through :meth:`read`.
        """
        with self._io_latch:
            self._check_range(page_id)
            return bytearray(read_at(self._file, self._fd,
                                     page_id * self.page_size,
                                     self.page_size))

    def write(self, page_id, data):
        """Write one page back to the file (counted as a physical write).

        Raises :class:`PageRangeError` when ``page_id`` is outside the
        allocated range.
        """
        self._check_writable()
        if len(data) != self.page_size:
            raise ValueError(
                f"page payload must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
        with self._io_latch:
            self._check_range(page_id)
            write_at(self._file, self._fd, page_id * self.page_size,
                     bytes(data))
            self.stats.add(physical_writes=1)
        if self.guard is not None:
            self.guard.stamp(page_id, bytes(data))

    def repair_write(self, page_id, data):
        """Reinstall a repaired page image (guard traffic, not page I/O).

        Used only by the guard's read-repair: the caller's logical read
        is the one being served, so the corrective rewrite is accounted
        in ``guard_repairs`` rather than ``physical_writes`` -- exactly
        as recovery's replay writes are not query I/O.
        """
        self._check_writable()
        if len(data) != self.page_size:
            raise ValueError(
                f"page payload must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
        with self._io_latch:
            self._check_range(page_id)
            write_at(self._file, self._fd, page_id * self.page_size,
                     bytes(data))

    def sync(self):
        """Flush the underlying file to stable storage where supported."""
        with self._io_latch:
            fsync_file(self._file)
        if self.guard is not None:
            self.guard.sync()

    def close(self):
        """Close the backing file (and the guard sidecar, if attached)."""
        self._file.close()
        if self.guard is not None:
            self.guard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
