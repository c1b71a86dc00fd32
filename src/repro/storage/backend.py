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
``commit`` / ``checkpoint`` / ``close``.  One stack implements it --
the LRU ``BufferPool`` over the one :class:`~repro.storage.pager.Pager`
-- as :class:`FilePagerBackend` and its read-only subclass
:class:`MmapBackend`.  The backend *kind* chosen at open time
(:func:`open_backend`) is only which file-like object the pager holds:

- ``"file"`` -- the real file (or, at build time, a ``file_factory``
  object or an in-memory buffer): the writable production stack,
  optionally with a WAL and a checksum guard;
- ``"arena"`` -- an ``io.BytesIO`` snapshot of the saved file's bytes:
  pool misses are served from process memory, mutations die with the
  process, a WAL is refused;
- ``"mmap"`` -- a read-only ``mmap.mmap`` of the saved file, for
  serving: every mutation raises
  :class:`~repro.storage.errors.ReadOnlyBackendError`.

Every kind therefore runs the *same* read and write path, so the
paper's "Disk IO pages" accounting is identical across kinds by
construction, and the runtime sanitizer, the backend-parametrized
storage suites and the chaos matrix cover all of them at once.
"""

from __future__ import annotations

from typing import Protocol

from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.errors import ReadOnlyBackendError
from repro.storage.guard import PageGuard, scrub as sweep_pages
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager
from repro.storage.wal import SYNC_COMMIT, WriteAheadLog

__all__ = [
    "DEFAULT_PAGE_SIZE", "DEFAULT_POOL_PAGES", "SYNC_COMMIT",
    "StorageBackend", "FilePagerBackend", "MmapBackend",
    "create_backend", "open_backend", "sidecar_paths",
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
    """The production backend: LRU buffer pool over a ``Pager``.

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

    def scrub(self, report, stamp_missing=False):
        """Sweep every page of the substrate into ``report``
        (:func:`repro.storage.guard.scrub`: verify, read-repair from the
        attached log's committed images, record what stays corrupt);
        with ``stamp_missing``, pages that predate the guard are then
        adopted -- stamped from their current content."""
        sweep_pages(self._pager, report)
        if stamp_missing:
            adopted = self.guard.stamp_all(self._pager)
            report.pages_unstamped -= adopted
            report.pages_ok += adopted

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


class MmapBackend(FilePagerBackend):
    """Read-only serving backend over a memory-mapped index file.

    Mutating entry points raise
    :class:`~repro.storage.errors.ReadOnlyBackendError` at the backend
    boundary -- before any pool state changes -- so a logical-layer bug
    that tries to write through a serving index fails at its call site
    with nothing to roll back.
    """

    kind = "mmap"

    @classmethod
    def open(cls, path, page_size=DEFAULT_PAGE_SIZE, pool_pages=None,
             guard=None):
        """Read-only backend over a mapping of the saved file at ``path``."""
        pager = Pager.mapped(path, page_size=page_size, guard=guard)
        return cls(pager, capacity=pool_pages or DEFAULT_POOL_PAGES)

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

def sidecar_paths(path, wal_path=None, guard_path=None):
    """``(wal_path, guard_path)`` of the index file at ``path``.

    The one place the sidecar naming lives: the write-ahead log is
    ``path + ".wal"`` and the checksum sidecar ``path + ".sum"`` unless
    a deployment names its own.  With ``path`` None (an in-memory
    build) an unnamed sidecar stays None.
    """
    if path is not None:
        wal_path = wal_path or path + ".wal"
        guard_path = guard_path or path + ".sum"
    return wal_path, guard_path


def _open_guard(options):
    """Open the checksum sidecar named by an ``IndexOptions``."""
    if options.file_factory is not None:
        return PageGuard(options.file_factory("guard"), options.page_size)
    _, guard_path = sidecar_paths(options.path,
                                  guard_path=options.guard_path)
    if guard_path is None:
        return PageGuard.in_memory(options.page_size)
    return PageGuard.open(guard_path, options.page_size)


def _open_wal(options, stats):
    """Open the write-ahead log named by an ``IndexOptions``."""
    if options.file_factory is not None:
        return WriteAheadLog(options.file_factory("wal"),
                             options.page_size, stats=stats,
                             sync_policy=options.wal_sync)
    wal_path, _ = sidecar_paths(options.path, options.wal_path)
    if wal_path is None:
        raise ValueError(
            "durable=True needs a path (or a file_factory) for "
            "the write-ahead log")
    return WriteAheadLog.open(wal_path, options.page_size, stats=stats,
                              sync_policy=options.wal_sync)


def create_backend(options):
    """Build-time wiring: guard + pager + pool + WAL per ``IndexOptions``.

    A build always runs on the writable stack; what the pager is handed
    follows the options: a ``file_factory`` object, an in-memory buffer
    when ``path`` is None, else the real file at ``path``.
    """
    guard = _open_guard(options) if options.guard else None
    if options.file_factory is not None:
        pager = Pager(options.file_factory("data"),
                      page_size=options.page_size, guard=guard)
    elif options.path is None:
        pager = Pager.in_memory(page_size=options.page_size, guard=guard)
    else:
        pager = Pager.open(options.path, page_size=options.page_size,
                           guard=guard)
    backend = FilePagerBackend(pager, capacity=options.pool_pages)
    if options.durable:
        backend.attach_wal(_open_wal(options, backend.stats))
    return backend


#: Open-time kind -> (backend class, the ``Pager`` constructor deciding
#: how the saved file's bytes are held).
_KINDS = {
    "file": (FilePagerBackend, Pager.open),
    "arena": (FilePagerBackend, Pager.snapshot),
    "mmap": (MmapBackend, Pager.mapped),
}

#: Kinds that refuse a write-ahead log, and why.
_NO_WAL = {
    "arena": "the arena backend opens a detached in-memory snapshot; "
             "it cannot attach a write-ahead log",
    "mmap": "the mmap backend is read-only; it cannot attach a "
            "write-ahead log",
}


def open_backend(path, page_size, pool_pages=None, kind="file",
                 durable=False, wal_path=None, wal_sync=SYNC_COMMIT,
                 guard=False, guard_path=None, chaos=None):
    """Reattach wiring for a saved index whose page size is known.

    ``kind="file"`` reopens the writable production stack (optionally
    durable); ``kind="mmap"`` maps the file read-only for serving --
    asking for a WAL there is a :class:`ReadOnlyBackendError` because a
    read-only backend has nothing to log.  ``kind="arena"`` reads the
    whole file into process memory once (a detached snapshot: pool
    misses are served from RAM, :meth:`Pager.snapshot`); attaching a
    WAL there is equally refused because changes to a snapshot can
    never reach the index file.

    ``chaos`` (a :class:`~repro.storage.faults.ChaosConfig`) wraps the
    opened backend in a :class:`~repro.storage.faults.ChaosBackend`
    injecting seeded read faults -- the serving tier's chaos mode.
    With ``chaos=None`` (the default) no wrapper exists at all, so the
    "Disk IO pages" accounting is exactly the unwrapped backend's.
    """
    # Validate before anything is opened: a refused call must leave no
    # handle and no freshly created sidecar behind.
    if kind not in _KINDS:
        raise ValueError(f"unknown storage backend {kind!r} for open "
                         "(expected 'file', 'arena' or 'mmap')")
    if durable and kind in _NO_WAL:
        raise ReadOnlyBackendError(_NO_WAL[kind])
    backend_class, open_pager = _KINDS[kind]
    wal_path, guard_path = sidecar_paths(path, wal_path, guard_path)
    pager = open_pager(path, page_size=page_size)
    try:
        if guard:
            # The sidecar is opened (and created if absent) only once
            # the pager has accepted the file.
            pager.attach_guard(PageGuard.open(guard_path, page_size))
        backend = backend_class(pager,
                                capacity=pool_pages or DEFAULT_POOL_PAGES)
        backend.kind = kind
        if durable:
            backend.attach_wal(WriteAheadLog.open(
                wal_path, page_size, stats=backend.stats,
                sync_policy=wal_sync))
    except BaseException:
        pager.close()   # with its sidecar: nothing outlives a failure
        raise
    return _wrap_chaos(backend, chaos)


def _wrap_chaos(backend, chaos):
    """Wrap ``backend`` in a :class:`ChaosBackend` when a config is
    given; imported lazily so the fault injector stays optional."""
    if chaos is None:
        return backend
    from repro.storage.faults import ChaosBackend
    return ChaosBackend(backend, chaos)
