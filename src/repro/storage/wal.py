"""ARIES-lite write-ahead log for the PRIX storage engine.

The paper's update story (Section 5.2.1) mutates the virtual-trie
B+-trees in place; this module supplies the durability layer that makes
those mutations survive a crash.  The design is deliberately small:

- **Redo-only, physical records.**  Every log record that matters for
  recovery is a full page image.  There is no undo pass because the
  buffer pool runs a *no-steal* policy when a WAL is attached: a page
  dirtied by an uncommitted batch never reaches the data file, so
  recovery only ever re-applies committed images
  (:mod:`repro.storage.recovery`).
- **Framed records.**  Each record is ``crc32 | length | lsn | type |
  payload``.  The LSN is the record's byte position in the logical log
  (monotonic across checkpoint truncations via a base offset stored in
  the header), so a frame landing at the wrong offset -- the signature
  of a torn or misdirected write -- fails validation even when its CRC
  is internally consistent.
- **Commit batches.**  Page images accumulate per batch; a ``COMMIT``
  record seals them.  Recovery discards images after the last durable
  commit, which is what makes a crash mid-``insert_sequence`` atomic.
- **Fuzzy checkpoints with truncation.**  After the buffer pool has
  flushed and the data file is fsynced, the entire log is superseded:
  :meth:`WriteAheadLog.checkpoint` truncates it and starts a fresh
  generation whose header carries the old end-LSN as its base, keeping
  LSNs monotonic.  Appends may resume immediately; nothing blocks on
  the checkpoint being "clean" beyond the data-file fsync.

WAL traffic is accounted in its own ``IOStats`` counters
(``wal_appends``/``wal_fsyncs``/``wal_bytes``), never in
``physical_reads``/``physical_writes``, so the paper's "Disk IO
(pages)" tables are unaffected by durability (see ``DESIGN.md``).

This module is, next to ``pager.py``, the second sanctioned raw-I/O
gateway in ``repro.storage``: log bytes do not flow through the pager
because they are not page traffic.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.storage.codec import encode_varints, split_varints
from repro.storage.errors import WalCorruptionError, WalError
from repro.storage.pager import fsync_file, os_descriptor, read_at
from repro.storage.stats import IOStats

#: Record types.
REC_PAGE = 1        # payload: varint(page_id) + raw page image
REC_COMMIT = 2      # payload: varints(batch_seq, page_count)
REC_CHECKPOINT = 3  # payload: varints(num_pages)

#: Log header: magic, version, base LSN, page size.
_HEADER = struct.Struct("<8sIQI")
_MAGIC = b"PRIXWAL1"
_VERSION = 1

#: Record frame: crc32, payload length, lsn, type.
_FRAME = struct.Struct("<IIQB")

#: Upper bound on a sane payload (one page image plus slack); a length
#: beyond this in a frame header means garbage, not a record.
_MAX_PAYLOAD_SLACK = 64

#: fsync policies.
SYNC_COMMIT = "commit"   # fsync on every commit record (default)
SYNC_ALWAYS = "always"   # fsync after every append
SYNC_NEVER = "never"     # only explicit sync()/checkpoint() fsync


class WalRecord:
    """One decoded log record."""

    __slots__ = ("lsn", "rtype", "payload")

    def __init__(self, lsn, rtype, payload):
        self.lsn = lsn
        self.rtype = rtype
        self.payload = payload

    def page_image(self):
        """Decode a ``REC_PAGE`` payload into ``(page_id, image)``."""
        if self.rtype != REC_PAGE:
            raise WalError(f"record at LSN {self.lsn} is not a page image")
        (page_id,), start = split_varints(self.payload, 1)
        return page_id, self.payload[start:]

    def __repr__(self):
        return (f"<WalRecord lsn={self.lsn} type={self.rtype} "
                f"{len(self.payload)}B>")


def _crc(length, lsn, rtype, payload):
    head = struct.pack("<IQB", length, lsn, rtype)
    return zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF


class WriteAheadLog:
    """Append-only framed log over a single file object.

    Like :class:`~repro.storage.pager.Pager`, the log is file-object
    first (the crash tests hand it a ``FaultyFile``) with an
    :meth:`open` classmethod for paths.  All appends go to the end of
    the file; :attr:`flushed_lsn` tracks the durability watermark the
    buffer pool's WAL-before-data rule checks against.
    """

    def __init__(self, fileobj, page_size, stats=None,
                 sync_policy=SYNC_COMMIT):
        if sync_policy not in (SYNC_COMMIT, SYNC_ALWAYS, SYNC_NEVER):
            raise ValueError(f"unknown sync policy {sync_policy!r}")
        self._file = fileobj
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.sync_policy = sync_policy
        self._commit_seq = 0
        self._base_lsn = 0
        self._end = _HEADER.size        # file offset of the next append
        self._flushed_lsn = 0
        self._attach()

    @classmethod
    def open(cls, path, page_size, stats=None, sync_policy=SYNC_COMMIT):
        """Open (or create) a log file at ``path``.

        Sanctioned raw open: the WAL is the durability gateway and its
        bytes are deliberately not page traffic (they are counted in
        ``wal_bytes``, not ``physical_writes``).
        """
        mode = "r+b" if os.path.exists(path) else "w+b"
        handle = open(path, mode)  # wal.py is a sanctioned raw-I/O gateway
        try:
            return cls(handle, page_size, stats=stats,
                       sync_policy=sync_policy)
        except BaseException:
            handle.close()      # a refused log keeps no handle
            raise

    # ------------------------------------------------------------------
    # Header management
    # ------------------------------------------------------------------

    def _attach(self):
        """Adopt an existing log file or initialize a fresh one."""
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size == 0:
            self._write_header()
            return
        self._file.seek(0)
        raw = self._file.read(_HEADER.size)
        header = self._parse_header(raw)
        if header is None:
            raise WalCorruptionError(
                "existing log file does not start with a valid PRIX WAL "
                "header; refusing to append to it")
        self._base_lsn, stored_page_size = header
        if stored_page_size != self.page_size:
            raise WalError(
                f"log was written with page size {stored_page_size}, "
                f"not {self.page_size}")
        # Find the end of the valid record run so new appends land
        # after it; a torn tail from an earlier crash is overwritten.
        tail = self._base_lsn
        for record in self.replay():
            tail = record.lsn + _FRAME.size + len(record.payload)
        self._end = _HEADER.size + (tail - self._base_lsn)
        self._file.seek(self._end)
        self._file.truncate()
        self._flushed_lsn = tail

    @staticmethod
    def _parse_header(raw):
        """``(base_lsn, page_size)`` from header bytes, or None."""
        if len(raw) < _HEADER.size:
            return None
        magic, version, base_lsn, page_size = _HEADER.unpack(
            raw[:_HEADER.size])
        if magic != _MAGIC or version != _VERSION or page_size <= 0:
            return None
        return base_lsn, page_size

    def _write_header(self):
        self._file.seek(0)
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, self._base_lsn,
                                      self.page_size))
        self._end = _HEADER.size
        self._flushed_lsn = self._base_lsn

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def next_lsn(self):
        """The LSN the next appended record will receive."""
        return self._base_lsn + (self._end - _HEADER.size)

    @property
    def flushed_lsn(self):
        """Durability watermark: every record with ``lsn`` strictly below
        this has been fsynced.  The buffer pool refuses to write a dirty
        page to the data file until the page's image record is below
        this mark (WAL-before-data)."""
        return self._flushed_lsn

    def append(self, rtype, payload):
        """Append one framed record; returns its LSN (not yet durable)."""
        lsn = self.next_lsn
        frame = _FRAME.pack(_crc(len(payload), lsn, rtype, payload),
                            len(payload), lsn, rtype)
        self._file.seek(self._end)
        self._file.write(frame)
        self._file.write(payload)
        self._end += _FRAME.size + len(payload)
        self.stats.add(wal_appends=1,
                       wal_bytes=_FRAME.size + len(payload))
        if self.sync_policy == SYNC_ALWAYS:
            self.sync()
        return lsn

    def log_page(self, page_id, image):
        """Append a page-image redo record; returns its LSN."""
        if len(image) != self.page_size:
            raise WalError(
                f"page image must be {self.page_size} bytes, "
                f"got {len(image)}")
        return self.append(REC_PAGE,
                           encode_varints([page_id]) + bytes(image))

    def commit(self, page_count=0):
        """Seal the current batch with a COMMIT record.

        Under the default ``commit`` policy the log is fsynced before
        returning, so the batch is durable when this method completes.
        Returns the commit record's LSN.
        """
        self._commit_seq += 1
        lsn = self.append(REC_COMMIT,
                          encode_varints([self._commit_seq, page_count]))
        if self.sync_policy in (SYNC_COMMIT, SYNC_ALWAYS):
            self.sync()
        return lsn

    def sync(self):
        """fsync the log; advances :attr:`flushed_lsn` to the end."""
        fsync_file(self._file)
        self.stats.add(wal_fsyncs=1)
        self._flushed_lsn = self.next_lsn

    def require_durable(self, lsn):
        """Ensure every record below ``lsn`` (inclusive) is on disk.

        The WAL-before-data hook: the buffer pool calls this with a dirty
        page's image LSN immediately before writing the page to the data
        file, forcing a log fsync when the record is still volatile.
        """
        if lsn >= self._flushed_lsn:
            self.sync()

    # ------------------------------------------------------------------
    # Reading and truncation
    # ------------------------------------------------------------------

    def replay(self):
        """Yield every valid record in order, stopping at the torn tail.

        A frame whose CRC, length, or LSN does not validate ends the
        iteration: everything after it is the residue of a crash (or of
        a checkpoint racing a crash) and must not be re-applied.
        """
        fd = os_descriptor(self._file)
        if fd is not None:
            # Frames are read positionally, past the file object's write
            # buffer, so appends still held there go to the OS first.
            self._file.flush()
            size = os.fstat(fd).st_size
        else:
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
        if size < _HEADER.size:
            return
        header = self._parse_header(read_at(self._file, fd, 0,
                                            _HEADER.size))
        if header is None:
            return
        base_lsn, page_size = header
        offset = _HEADER.size
        max_payload = page_size + _MAX_PAYLOAD_SLACK
        while offset + _FRAME.size <= size:
            crc, length, lsn, rtype = _FRAME.unpack(
                read_at(self._file, fd, offset, _FRAME.size))
            if (length > max_payload
                    or lsn != base_lsn + (offset - _HEADER.size)
                    or offset + _FRAME.size + length > size):
                return
            payload = read_at(self._file, fd, offset + _FRAME.size, length)
            if len(payload) < length:
                return
            if _crc(length, lsn, rtype, payload) != crc:
                return
            yield WalRecord(lsn, rtype, payload)
            offset += _FRAME.size + length

    def checkpoint(self, num_pages):
        """Start a fresh log generation after a completed checkpoint.

        The caller must have flushed the buffer pool and fsynced the
        data file first: truncation forgets every logged image, so the
        data file is the only copy afterwards.  The new generation's
        base LSN continues from the old end so LSNs stay monotonic, and
        a CHECKPOINT record (carrying the data file's page count) is
        written and fsynced so recovery can distinguish "fresh log" from
        "header torn off by a crash".
        """
        new_base = self.next_lsn
        self._file.seek(0)
        self._file.truncate()
        self._base_lsn = new_base
        self._write_header()
        self.append(REC_CHECKPOINT, encode_varints([num_pages]))
        self.sync()

    @property
    def size_bytes(self):
        """Current log file length in bytes."""
        return self._end

    def close(self):
        """Close the log file (without an implicit fsync)."""
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
