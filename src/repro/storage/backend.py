"""The pluggable storage kernel: ``StorageBackend`` and its backends.

This module is the **storage-api** layer -- the only door through which
the logical index layers (``repro.trie``, ``repro.prix``,
``repro.query``) may reach the page substrate.  The ``prixarch``
layering rule (``.prixarch.toml``) enforces that statically: an import
of ``repro.storage.pager`` or ``repro.storage.wal`` from the logical
layers is a lint finding with the witness import chain attached.

The contract is :class:`StorageBackend`: a buffer-pool-shaped object
that serves page images, tracks dirty state, honours pins, and owns the
durability (WAL) and integrity (guard) machinery behind ``flush`` /
``commit`` / ``checkpoint`` / ``close``.  Three implementations ship:

- :class:`FilePagerBackend` -- the production stack (``Pager`` + LRU
  buffer pool + optional WAL and checksum guard) over a real file or an
  in-memory buffer;
- :class:`InMemoryArenaBackend` -- the same pool over an
  :class:`~repro.storage.arena.ArenaPager` (process memory, no file
  objects at all): tests and benchmarks;
- :class:`MmapBackend` -- a read-only pool over an
  :class:`~repro.storage.mmapio.MmapPager` for serving a finished
  index; every mutation raises
  :class:`~repro.storage.errors.ReadOnlyBackendError`.

All three run the *same* ``BufferPool`` code above the substrate, so
the paper's "Disk IO pages" accounting is byte-identical across
backends by construction; the backend-parametrized storage suites and
the chaos matrix hold every implementation to the protocol.
"""

from __future__ import annotations

from typing import Protocol

from repro.storage.arena import ArenaPager
from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.errors import ReadOnlyBackendError
from repro.storage.guard import PageGuard
from repro.storage.mmapio import MmapPager
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager
from repro.storage.wal import SYNC_COMMIT, WriteAheadLog

__all__ = [
    "DEFAULT_PAGE_SIZE", "DEFAULT_POOL_PAGES", "SYNC_COMMIT",
    "StorageBackend", "FilePagerBackend", "InMemoryArenaBackend",
    "MmapBackend", "create_backend", "open_backend", "recover_backend",
    "recover_files", "backend_from_files",
]


class StorageBackend(Protocol):
    """Structural contract between the logical index and the page store.

    Typed failure vocabulary: :class:`PageRangeError` for
    out-of-range ids, :class:`PageSizeError` for short images,
    :class:`PinProtocolError` / :class:`BufferPoolExhaustedError` for
    pin misuse, :class:`WalProtocolError` for durability-ordering
    violations, :class:`PageCorruptionError` for guard failures, and
    :class:`ReadOnlyBackendError` from read-only backends' mutators.
    """

    #: Backend family name ("file", "arena", "mmap") for diagnostics.
    kind: str

    @property
    def page_size(self):
        """Size in bytes of every page image this backend serves."""
        ...

    @property
    def num_pages(self):
        """Number of pages currently allocated in the substrate."""
        ...

    @property
    def stats(self):
        """The shared :class:`~repro.storage.stats.IOStats` counters."""
        ...

    @property
    def guard(self):
        """The attached checksum guard, or None (unverified reads)."""
        ...

    @property
    def wal(self):
        """The attached write-ahead log, or None (non-durable)."""
        ...

    def get(self, page_id):
        """Return the page image (logical read; physical on a miss).

        Reads carry ``wal-io`` in their effect bound because admitting
        a page can evict a dirty frame, and a no-steal write-back must
        first prove the frame's log record durable.
        """
        ...

    def get_decoded(self, page_id, decoder):
        """Return ``decoder(page_id, frame)`` memoized per residency."""
        ...

    def put(self, page_id, data):
        """Replace the image of ``page_id`` and mark it dirty."""
        ...

    def new_page(self):
        """Allocate a fresh zeroed page; return ``(page_id, frame)``."""
        ...

    def mark_dirty(self, page_id):
        """Flag an in-place mutation of a resident page image."""
        ...

    def pin(self, page_id):
        """Pin the frame against eviction; return the live image."""
        ...

    def unpin(self, page_id):
        """Release one of the calling thread's pins on ``page_id``."""
        ...

    def pinned(self, page_id):
        """Context manager pairing :meth:`pin` with :meth:`unpin`."""
        ...

    def attach_wal(self, wal):
        """Route every later mutation through ``wal`` before the data
        file (no-steal, WAL-before-data)."""
        ...

    def commit(self):
        """Seal the current mutation batch in the log; return its LSN
        (None without a WAL)."""
        ...

    def checkpoint(self):
        """Flush everything, sync the data file, truncate the log."""
        ...

    def flush(self):
        """Write every dirty page back without evicting anything."""
        ...

    def flush_and_clear(self):
        """Write back all dirty pages and empty the pool (cold cache)."""
        ...

    def sync(self):
        """Force the substrate (and guard sidecar) to stable storage."""
        ...

    def close(self):
        """Flush, make the stack durable, and release every handle."""
        ...


class FilePagerBackend(BufferPool):
    """The production backend: LRU buffer pool over a file ``Pager``.

    Subclasses :class:`BufferPool` rather than wrapping it so the hot
    path (``get`` on a resident page) stays one virtual call -- the
    paper's query loop lives on that path.  What the subclass adds is
    the *ownership* story the pool alone never had: :meth:`close` tears
    down the whole stack (flush, data-file fsync, WAL close, pager
    close) in WAL-before-data order, and :meth:`sync` exposes the
    substrate's durability barrier.
    """

    kind = "file"

    @property
    def num_pages(self):
        """Number of pages allocated in the backing substrate."""
        return self._pager.num_pages

    def sync(self):
        """Fsync the data file (and guard sidecar) where supported."""
        self._pager.sync()

    def close(self):
        """Flush and close the full stack (pool, WAL, pager, guard).

        ``flush`` commits and orders the log ahead of the data pages;
        the data file is then fsynced so closing is a durability point,
        and only then is the log handle released.
        """
        self.flush()
        wal = self._wal
        if wal is not None:
            self._pager.sync()
            wal.close()
        self._pager.close()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
             guard=None):
        """Backend over the page file at ``path`` (created if absent)."""
        pager = Pager.open(path, page_size=page_size, guard=guard)
        return cls(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)

    @classmethod
    def in_memory(cls, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
                  guard=None):
        """Backend over an in-memory file object (``io.BytesIO``)."""
        pager = Pager.in_memory(page_size=page_size, guard=guard)
        return cls(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)

    @classmethod
    def from_file(cls, fileobj, page_size=DEFAULT_PAGE_SIZE,
                  pool_pages=None, guard=None):
        """Backend over an already-open file object (fault injection)."""
        pager = Pager(fileobj, page_size=page_size, guard=guard)
        return cls(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)


class InMemoryArenaBackend(FilePagerBackend):
    """Backend over process memory: the same pool, no file objects.

    Exists for tests and benchmarks that want the full storage protocol
    -- pins, eviction, guard verification, typed errors -- without a
    filesystem.  Because only the substrate differs, every ``IOStats``
    counter behaves exactly as on :class:`FilePagerBackend`.
    """

    kind = "arena"

    def __init__(self, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
                 guard=None):
        pager = ArenaPager(page_size=page_size, guard=guard)
        super().__init__(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)

    @classmethod
    def preload(cls, path, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
                guard=None):
        """Arena backend warm-loaded from the saved index at ``path``.

        Every page of the file is copied into process memory once, up
        front, and the I/O counters are then reset -- so the snapshot
        serves queries with **zero** physical page reads afterwards (the
        serving tier's hot-index mode; ``docs/SERVING.md``).  The copy
        is a *snapshot*: it is never written back, so mutations on it
        die with the process -- which is why :func:`open_backend`
        refuses to attach a write-ahead log to one.

        ``guard`` (an opened :class:`PageGuard` sidecar) is attached
        *after* the raw copy, so later reads verify the arena images
        against the on-disk stamps exactly as the file backend would.
        """
        backend = cls(page_size=page_size, pool_pages=pool_pages)
        source = Pager.open(path, page_size=page_size)
        try:
            arena = backend._pager
            for page_id in range(source.num_pages):
                arena.allocate()
                arena.write(page_id, source.read_raw(page_id))
        finally:
            source.close()
        if guard is not None:
            backend._pager.attach_guard(guard)
        backend.stats.reset()
        return backend


class MmapBackend(FilePagerBackend):
    """Read-only serving backend over a memory-mapped index file.

    Mutating entry points raise
    :class:`~repro.storage.errors.ReadOnlyBackendError` at the backend
    boundary -- before any pool state changes -- so a logical-layer bug
    that tries to write through a serving index fails at its call site
    with nothing to roll back.
    """

    kind = "mmap"

    def __init__(self, path, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
                 guard=None):
        pager = MmapPager(path, page_size=page_size, guard=guard)
        super().__init__(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)

    def put(self, page_id, data):
        raise ReadOnlyBackendError(
            f"cannot put page {page_id} on a read-only mmap backend")

    def new_page(self):
        raise ReadOnlyBackendError(
            "cannot allocate a page on a read-only mmap backend")

    def mark_dirty(self, page_id):
        raise ReadOnlyBackendError(
            f"cannot dirty page {page_id} on a read-only mmap backend")

    def attach_wal(self, wal):
        raise ReadOnlyBackendError(
            "cannot attach a write-ahead log to a read-only mmap backend")


# ----------------------------------------------------------------------
# Wiring: the index-level factories
# ----------------------------------------------------------------------

def _open_guard(options):
    """Open the checksum sidecar named by an ``IndexOptions``."""
    if options.file_factory is not None:
        return PageGuard(options.file_factory("guard"), options.page_size)
    if options.path is None:
        return PageGuard.in_memory(options.page_size)
    guard_path = options.guard_path
    if guard_path is None:
        guard_path = options.path + ".sum"
    return PageGuard.open(guard_path, options.page_size)


def _open_wal(options, stats):
    """Open the write-ahead log named by an ``IndexOptions``."""
    if options.file_factory is not None:
        return WriteAheadLog(options.file_factory("wal"),
                             options.page_size, stats=stats,
                             sync_policy=options.wal_sync)
    wal_path = options.wal_path
    if wal_path is None:
        if options.path is None:
            raise ValueError(
                "durable=True needs a path (or a file_factory) for "
                "the write-ahead log")
        wal_path = options.path + ".wal"
    return WriteAheadLog.open(wal_path, options.page_size, stats=stats,
                              sync_policy=options.wal_sync)


def create_backend(options):
    """Build-time wiring: guard + substrate + pool + WAL per
    ``IndexOptions``.

    ``options.backend`` selects the substrate family: ``"file"`` (the
    default -- real file, ``file_factory`` object, or in-memory buffer
    when ``path`` is None) or ``"arena"`` (pure process memory).  The
    read-only ``"mmap"`` backend cannot host a build and is rejected
    with the typed error.
    """
    guard = _open_guard(options) if options.guard else None
    kind = getattr(options, "backend", "file")
    if kind == "arena":
        backend = InMemoryArenaBackend(page_size=options.page_size,
                                       pool_pages=options.pool_pages,
                                       guard=guard)
    elif kind == "file":
        if options.file_factory is not None:
            pager = Pager(options.file_factory("data"),
                          page_size=options.page_size, guard=guard)
        elif options.path is None:
            pager = Pager.in_memory(page_size=options.page_size,
                                    guard=guard)
        else:
            pager = Pager.open(options.path, page_size=options.page_size,
                               guard=guard)
        backend = FilePagerBackend(pager, capacity=options.pool_pages)
    elif kind == "mmap":
        raise ReadOnlyBackendError(
            "cannot build an index onto the read-only mmap backend; "
            "build with backend='file' and serve the saved file")
    else:
        raise ValueError(f"unknown storage backend {kind!r} "
                         "(expected 'file', 'arena' or 'mmap')")
    if options.durable:
        backend.attach_wal(_open_wal(options, backend.stats))
    return backend


def recover_backend(path, wal_path, guard_path=None):
    """Replay the committed WAL tail into the data file at ``path``.

    The pre-open recovery pass: run *before* the superblock is read so
    an index torn by a crash opens in its last committed state.
    """
    from repro.storage.recovery import recover_path
    recover_path(path, wal_path, guard_path=guard_path)


def open_backend(path, page_size, pool_pages=None, kind="file",
                 durable=False, wal_path=None, wal_sync=SYNC_COMMIT,
                 guard=False, guard_path=None, chaos=None):
    """Reattach wiring for a saved index whose page size is known.

    ``kind="file"`` reopens the writable production stack (optionally
    durable); ``kind="mmap"`` maps the file read-only for serving --
    asking for a WAL there is a :class:`ReadOnlyBackendError` because a
    read-only backend has nothing to log.  ``kind="arena"`` copies the
    whole file into process memory once (a warm snapshot: pool misses
    are served from RAM, :meth:`InMemoryArenaBackend.preload`);
    attaching a WAL there is equally refused because changes to a
    snapshot can never reach the index file.

    ``chaos`` (a :class:`~repro.storage.faults.ChaosConfig`) wraps the
    opened backend in a :class:`~repro.storage.faults.ChaosBackend`
    injecting seeded read faults -- the serving tier's chaos mode.
    With ``chaos=None`` (the default) no wrapper exists at all, so the
    "Disk IO pages" accounting is exactly the unwrapped backend's.
    """
    if guard_path is None:
        guard_path = path + ".sum"
    page_guard = PageGuard.open(guard_path, page_size) if guard else None
    if kind == "mmap":
        if durable:
            raise ReadOnlyBackendError(
                "the mmap backend is read-only; it cannot attach a "
                "write-ahead log")
        backend = MmapBackend(path, page_size=page_size,
                              pool_pages=pool_pages, guard=page_guard)
        return _wrap_chaos(backend, chaos)
    if kind == "arena":
        if durable:
            raise ReadOnlyBackendError(
                "the arena backend opens a detached in-memory snapshot; "
                "it cannot attach a write-ahead log")
        backend = InMemoryArenaBackend.preload(path, page_size=page_size,
                                               pool_pages=pool_pages,
                                               guard=page_guard)
        return _wrap_chaos(backend, chaos)
    if kind != "file":
        raise ValueError(f"unknown storage backend {kind!r} for open "
                         "(expected 'file', 'arena' or 'mmap')")
    backend = FilePagerBackend.open(path, page_size=page_size,
                                    pool_pages=pool_pages,
                                    guard=page_guard)
    if durable:
        if wal_path is None:
            wal_path = path + ".wal"
        backend.attach_wal(WriteAheadLog.open(
            wal_path, page_size, stats=backend.stats,
            sync_policy=wal_sync))
    return _wrap_chaos(backend, chaos)


def _wrap_chaos(backend, chaos):
    """Wrap ``backend`` in a :class:`ChaosBackend` when a config is
    given; imported lazily so the fault injector stays optional."""
    if chaos is None:
        return backend
    from repro.storage.faults import ChaosBackend
    return ChaosBackend(backend, chaos)


def recover_files(data_file, wal_file, guard_file=None,
                  wal_sync=SYNC_COMMIT):
    """Crash recovery over already-open file objects.

    Parses the log header for the page size, replays the committed tail
    into ``data_file``, and returns ``(wal, guard)`` ready to reattach.
    Returns ``(None, None)`` when the log header never became durable
    (a crash before the first frame): the caller should start a fresh
    log generation via :func:`backend_from_files`.
    """
    from repro.storage.recovery import recover
    from repro.storage.wal import _HEADER
    wal_file.seek(0)
    header = WriteAheadLog._parse_header(wal_file.read(_HEADER.size))
    if header is None:
        return None, None
    wal = WriteAheadLog(wal_file, header[1], sync_policy=wal_sync)
    guard = (PageGuard(guard_file, header[1])
             if guard_file is not None else None)
    recover(data_file, wal, guard=guard)
    return wal, guard


def backend_from_files(data_file, page_size, pool_pages=None, wal=None,
                       wal_file=None, guard=None, guard_file=None,
                       wal_sync=SYNC_COMMIT):
    """Backend over open file objects (the crash/corruption harnesses).

    ``wal``/``guard`` are the live objects :func:`recover_files`
    returned; when recovery yielded no log (header never durable) but a
    ``wal_file`` is present, a fresh log generation is started so the
    reopened index can keep logging.
    """
    if guard_file is not None and guard is None:
        guard = PageGuard(guard_file, page_size)
    pager = Pager(data_file, page_size=page_size, guard=guard)
    backend = FilePagerBackend(pager, capacity=pool_pages
                               or DEFAULT_POOL_PAGES)
    if wal is None and wal_file is not None:
        wal = WriteAheadLog(wal_file, page_size, sync_policy=wal_sync)
    if wal is not None:
        wal.stats = backend.stats
        backend.attach_wal(wal)
    return backend
