"""Redo-only crash recovery: replay the committed WAL tail into the data
file.

Recovery is what turns the write-ahead log's promises into an index you
can open.  The pass is a single forward scan (ARIES's redo phase; there
is no undo phase because the buffer pool never steals uncommitted pages
-- see :mod:`repro.storage.wal`):

1. Scan the log, validating every frame.  Page images accumulate in a
   pending batch; each ``COMMIT`` record promotes the batch.  The first
   invalid frame ends the scan -- a torn tail is the normal signature of
   a crash and everything after it is discarded, uncommitted batch
   included.
2. Truncate the data file down to a whole number of pages (a torn page
   append is cut off; any page that matters has a committed image).
3. Write every committed image at its page offset, extending the file
   with zero pages where the log references pages past the end.
4. fsync the data file.

The pass is **idempotent**: it never writes to the log, and re-applying
the same committed images produces the same data file, so a crash during
recovery is cured by running recovery again.  Callers that want to start
a fresh log generation afterwards (so the replayed tail is not replayed
a third time on the next open) should follow with a checkpoint, which is
what ``prix recover`` does.
"""

from __future__ import annotations

import os

from repro.storage.backend import sidecar_paths
from repro.storage.pager import fsync_file
from repro.storage.wal import REC_CHECKPOINT, REC_COMMIT, REC_PAGE


class RecoveryResult:
    """What one recovery pass found and did."""

    __slots__ = ("records_scanned", "commits_applied", "pages_applied",
                 "last_commit_lsn", "truncated_bytes", "pages_discarded")

    def __init__(self):
        self.records_scanned = 0
        self.commits_applied = 0
        self.pages_applied = 0
        self.last_commit_lsn = None
        self.truncated_bytes = 0
        self.pages_discarded = 0

    @property
    def clean(self):
        """True when the log held nothing to redo (already consistent)."""
        return self.pages_applied == 0 and self.truncated_bytes == 0

    def __repr__(self):
        return (f"<RecoveryResult records={self.records_scanned} "
                f"commits={self.commits_applied} "
                f"pages={self.pages_applied} "
                f"discarded={self.pages_discarded} "
                f"truncated={self.truncated_bytes}B>")


def scan_committed(wal):
    """Collect the committed page images from a log.

    Returns ``(images, result)`` where ``images`` maps ``page_id`` to the
    page's last committed image, in first-committed order.  ``result``
    carries scan statistics; images dirtied after the final durable
    commit are counted in ``pages_discarded``.
    """
    result = RecoveryResult()
    committed = {}
    pending = {}
    for record in wal.replay():
        result.records_scanned += 1
        if record.rtype == REC_PAGE:
            page_id, image = record.page_image()
            pending[page_id] = image
        elif record.rtype == REC_COMMIT:
            committed.update(pending)
            pending.clear()
            result.commits_applied += 1
            result.last_commit_lsn = record.lsn
        elif record.rtype == REC_CHECKPOINT:
            # The data file was consistent when this was written; images
            # before it (none, on a truncated log) are already in place.
            continue
    result.pages_discarded = len(pending)
    return committed, result


def recover(data_file, wal, page_size=None, guard=None):
    """Replay the committed tail of ``wal`` into ``data_file``.

    ``data_file`` is a writable binary file object positioned anywhere;
    ``wal`` is an attached :class:`~repro.storage.wal.WriteAheadLog`.
    ``page_size`` defaults to the log's.  When the index carries a
    checksum sidecar, pass its :class:`~repro.storage.guard.PageGuard`
    as ``guard`` so every replayed image is restamped -- recovery writes
    around the pager, and a stale stamp would condemn a perfectly
    recovered page on its first read after the log is checkpointed away.
    Returns a :class:`RecoveryResult`.
    """
    if page_size is None:
        page_size = wal.page_size
    committed, result = scan_committed(wal)

    # Cut off a torn page append at the end of the data file.
    data_file.seek(0, os.SEEK_END)
    size = data_file.tell()
    torn = size % page_size
    if torn:
        data_file.seek(size - torn)
        data_file.truncate()
        size -= torn
        result.truncated_bytes = torn

    num_pages = size // page_size
    for page_id, image in committed.items():
        if page_id >= num_pages:
            # Zero-fill the gap so the file stays page-aligned even if
            # the log references pages out of order.
            data_file.seek(num_pages * page_size)
            data_file.write(b"\x00" * ((page_id - num_pages) * page_size))
            num_pages = page_id + 1
        data_file.seek(page_id * page_size)
        data_file.write(image)
        if guard is not None:
            guard.stamp(page_id, image)
        result.pages_applied += 1
    if result.pages_applied or result.truncated_bytes:
        fsync_file(data_file)
    return result


def recover_path(data_path, wal_path=None, page_size=None, guard_path=None):
    """Path-based wrapper around :func:`recover` (the ``prix recover``
    entry point, and the pass ``PrixIndex.open`` runs first).

    Missing files are fine: no log means nothing to redo, and a missing
    data file is created empty so committed images can be replayed into
    it.  When a checksum sidecar exists, replayed images are restamped
    into it.  ``wal_path`` / ``guard_path`` default to the file's own
    sidecars (:func:`~repro.storage.backend.sidecar_paths`).  Returns a
    :class:`RecoveryResult` (``clean`` when there was no log).
    """
    from repro.storage.wal import _HEADER, WriteAheadLog

    wal_path, guard_path = sidecar_paths(data_path, wal_path, guard_path)
    if not os.path.exists(wal_path):
        return RecoveryResult()
    # Sanctioned raw open, mirroring the superblock sniff in
    # prix/index.py: recovery runs before any Pager can exist (the data
    # file may be torn to a non-page-multiple length the Pager rejects),
    # and every byte written here is a committed page image that normal
    # operation already counted when it was first dirtied.
    mode = "r+b" if os.path.exists(data_path) else "w+b"
    with open(data_path, mode) as data_file:  # prixlint: disable=no-raw-io
        if page_size is None:
            with open(wal_path, "rb") as peek:  # prixlint: disable=no-raw-io
                header = WriteAheadLog._parse_header(
                    peek.read(_HEADER.size))
            if header is None:
                # Unreadable header: a crash caught checkpoint truncation
                # mid-write.  The data file was fsynced before truncation
                # began, so there is nothing to redo.
                return RecoveryResult()
            _, page_size = header
        guard = None
        try:
            if os.path.exists(guard_path):
                from repro.storage.guard import PageGuard
                guard = PageGuard.open(guard_path, page_size)
            with WriteAheadLog.open(wal_path, page_size) as wal:
                return recover(data_file, wal, page_size=page_size,
                               guard=guard)
        finally:
            if guard is not None:
                guard.close()
