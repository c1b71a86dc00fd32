"""The storage backend: one class and the one function that wires it.

This module is the **storage-api** door through which the logical index
layers (``repro.trie``, ``repro.prix``, ``repro.query``) reach the page
substrate; the ``layering`` lint rule (layer map:
``repro.analysis.arch.manifest.LAYERS``) makes an import of
``repro.storage.pager`` or ``repro.storage.wal`` from those layers a
finding with the witness import chain attached.

:class:`FilePagerBackend` is the LRU ``BufferPool`` over the one
:class:`~repro.storage.pager.Pager`, owning the WAL, the guard and the
file handles behind it; :func:`open_backend` is the only wiring of
them, for a build and for a reopen alike.  The backend *kind* is only
which file-like object the pager holds:

- ``"file"`` -- the real file at ``path`` (created if absent; a
  ``file_factory`` object or, without a path, an in-memory buffer at
  build time): the writable production stack, optionally with a WAL and
  a checksum guard;
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

import io
import os
from contextlib import ExitStack

from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.errors import ReadOnlyBackendError
from repro.storage.guard import PageGuard, scrub as sweep_pages
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager, unlink_files
from repro.storage.wal import SYNC_COMMIT, WriteAheadLog

__all__ = ["DEFAULT_PAGE_SIZE", "DEFAULT_POOL_PAGES", "SYNC_COMMIT",
           "FilePagerBackend", "open_backend", "sidecar_paths"]


class FilePagerBackend(BufferPool):
    """The backend: LRU buffer pool over a ``Pager``, owning the stack.

    Subclasses :class:`BufferPool` rather than wrapping it so the hot
    path (``get`` on a resident page) stays one virtual call -- the
    paper's query loop lives on that path.  What the subclass adds is
    the *ownership* story the pool alone never had: :meth:`close` tears
    down the whole stack in WAL-before-data order, :meth:`sync` exposes
    the substrate's durability barrier, and on a read-only mount the
    four mutators raise
    :class:`~repro.storage.errors.ReadOnlyBackendError` at the backend
    boundary -- before any pool state changes -- so a logical-layer bug
    that writes through a serving index fails at its call site with
    nothing to roll back.
    """

    def __init__(self, pager, capacity=DEFAULT_POOL_PAGES, kind="file"):
        super().__init__(pager, capacity)
        #: Backend family name ("file", "arena", "mmap") for diagnostics.
        self.kind = kind
        #: Paths :func:`open_backend` created for this stack: what
        #: :meth:`discard` takes back.
        self.created = []

    @property
    def num_pages(self):
        """Number of pages allocated in the backing substrate."""
        return self._pager.num_pages

    def _check_writable(self, what, *page_id):
        """The one refusal; ``Pager.read_only`` owns the condition."""
        if self._pager.read_only:
            raise ReadOnlyBackendError(f"cannot {what % page_id} on a "
                                       f"read-only {self.kind} backend")

    def put(self, page_id, data):
        self._check_writable("put page %s", page_id)
        super().put(page_id, data)

    def new_page(self):
        self._check_writable("allocate a page")
        return super().new_page()

    def mark_dirty(self, page_id):
        self._check_writable("dirty page %s", page_id)
        super().mark_dirty(page_id)

    def attach_wal(self, wal):
        self._check_writable("attach a write-ahead log")
        super().attach_wal(wal)

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

        Begins with :meth:`BufferPool.close` -- the flush, which commits
        and orders the log ahead of the data pages.  The data file is
        then fsynced so closing is a durability point, and only then is
        the log handle released.
        """
        super().close()
        wal = self._wal
        if wal is not None:
            self._pager.sync()
            wal.close()
        self._pager.close()

    def discard(self):
        """Close every handle without writing anything back, then unlink
        the files :func:`open_backend` created for this stack -- never
        one that was there before it.  How a build that fails after the
        wiring takes back what it made, so the retry is not refused as a
        build over an existing file."""
        if self._wal is not None:
            self._wal.close()
        self._pager.close()
        unlink_files(self.created)


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


#: Kind -> the ``Pager`` constructor deciding how the bytes are held.
_KINDS = {"file": Pager.open, "arena": Pager.snapshot,
          "mmap": Pager.mapped}

#: Kinds that refuse a write-ahead log, and why.
_NO_WAL = {
    "arena": "the arena backend opens a detached in-memory snapshot; "
             "it cannot attach a write-ahead log",
    "mmap": "the mmap backend is read-only; it cannot attach a "
            "write-ahead log",
}


def open_backend(path, page_size, pool_pages=None, kind="file",
                 durable=False, wal_path=None, wal_sync=SYNC_COMMIT,
                 guard=False, guard_path=None, file_factory=None):
    """Wire guard + pager + pool + WAL over the index file at ``path``.

    The kinds are the module docstring's.  ``kind="file"`` creates the
    file when a build names a new path; ``path=None`` builds over
    in-memory buffers, and ``file_factory`` (the ``IndexOptions``
    testing hook: role -> file object for ``"data"`` / ``"guard"`` /
    ``"wal"``) over whatever it hands out.  Asking for a WAL on
    ``"mmap"`` (nothing to log) or ``"arena"`` (changes to a snapshot
    never reach the index file) is a :class:`ReadOnlyBackendError`.

    A refused call leaves nothing behind: the arguments are validated
    before anything is opened, and a later failure closes every handle
    and unlinks the files this call created (never an older one).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown storage backend {kind!r} for open "
                         "(expected 'file', 'arena' or 'mmap')")
    if durable and kind in _NO_WAL:
        raise ReadOnlyBackendError(_NO_WAL[kind])
    wal_path, guard_path = sidecar_paths(path, wal_path, guard_path)
    if durable and wal_path is None and file_factory is None:
        raise ValueError("durable=True needs a path (or a file_factory) "
                         "for the write-ahead log")

    created = []    # paths this call brought into being

    def over(role, from_path, from_file, where, **kwargs):
        """The ``role`` layer over the file object the caller names."""
        if file_factory is not None:
            return from_file(file_factory(role), page_size, **kwargs)
        if where is None:
            return from_file(io.BytesIO(), page_size, **kwargs)
        if not os.path.exists(where):
            created.append(where)
        return from_path(where, page_size, **kwargs)

    with ExitStack() as refused:
        refused.callback(unlink_files, created)   # last, handles closed
        pager = over("data", _KINDS[kind], Pager, path)
        refused.callback(pager.close)    # with its guard, once attached
        if guard:
            pager.attach_guard(
                over("guard", PageGuard.open, PageGuard, guard_path))
        backend = FilePagerBackend(
            pager, capacity=pool_pages or DEFAULT_POOL_PAGES, kind=kind)
        backend.created = created       # the log, if any, joins it below
        if durable:
            backend.attach_wal(over(
                "wal", WriteAheadLog.open, WriteAheadLog, wal_path,
                stats=backend.stats, sync_policy=wal_sync))
        refused.pop_all()
    return backend
