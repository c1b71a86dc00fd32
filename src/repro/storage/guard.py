"""Page-checksum corruption guard: detection, read-repair, quarantine,
scrub.

PR 3 made writes durable; this module makes reads *trustworthy*.  A
:class:`PageGuard` keeps one checksum per page -- crc32 over the payload
salted with the page id (:func:`repro.storage.codec.page_checksum`), so
both bit rot and misdirected-but-intact writes fail verification -- in a
small sidecar file next to the data file.  The pager stamps the sidecar
on every page write and verifies on every page read:

- **verify**: a read whose image matches its stamp is handed out and
  counted in ``IOStats.guard_verifications``.
- **read-repair**: on mismatch, the guard asks its repair source (the
  newest *committed* page image in the write-ahead log, wired up by
  :meth:`~repro.storage.buffer_pool.BufferPool.attach_wal`) for a clean
  copy, rewrites the page in place, restamps it, and returns the
  repaired image (``guard_repairs``).  Redo-only recovery already
  guarantees every committed image is in the log until a checkpoint, so
  this is the same trust base recovery itself stands on.
- **quarantine**: with no covering image the guard raises a typed
  :class:`~repro.storage.errors.PageCorruptionError` and remembers the
  page id; later reads of that page fail fast instead of re-verifying a
  known-bad image (``guard_quarantines``).  A full page rewrite through
  the pager heals the quarantine: the writer's image is the new truth.

Like the write-ahead log, the guard's sidecar traffic is deliberately
*not* page traffic: stamps and verifications never touch
``physical_reads``/``physical_writes``, so the paper's "Disk IO (pages)"
columns are identical with the guard on or off (``docs/ROBUSTNESS.md``).
This module is, next to ``pager.py`` and ``wal.py``, the third
sanctioned raw-I/O gateway in ``repro.storage``.
"""

from __future__ import annotations

import json
import os
import struct

from repro.storage.codec import page_checksum
from repro.storage.errors import PageCorruptionError, StorageError
from repro.storage.stats import IOStats

#: Sidecar header: magic, version, page size of the guarded file.
_HEADER = struct.Struct("<8sII")
_MAGIC = b"PRIXSUM1"
_VERSION = 1

#: Per-page slot: stamped flag, crc32.
_SLOT = struct.Struct("<BI")
_STAMPED = 1


class PageGuard:
    """Per-page checksum registry over a sidecar file object.

    File-object first, like the pager and the log, so tests and the
    fault injector can hand it an in-memory buffer; :meth:`open` wraps a
    path.  The guard is bound to exactly one :class:`Pager` (which sets
    ``stats`` and becomes the repair-write target).
    """

    def __init__(self, fileobj, page_size, stats=None):
        self._file = fileobj
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self._stamps = {}        # page_id -> crc32 of the last stamped image
        self._quarantined = set()
        self._trusted = set()    # ids whose current pool-visible image the
        #                          guard has stamped, verified, or been
        #                          handed by an author (sanitizer evidence)
        self._repair_source = None
        self._load()

    @classmethod
    def open(cls, path, page_size, stats=None):
        """Open (or create) the checksum sidecar at ``path``.

        Sanctioned raw open: sidecar bytes are guard traffic, counted in
        ``guard_*`` fields, never in the page columns.
        """
        mode = "r+b" if os.path.exists(path) else "w+b"
        handle = open(path, mode)  # guard.py is a sanctioned raw-I/O gateway
        try:
            return cls(handle, page_size, stats=stats)
        except BaseException:
            handle.close()      # a refused sidecar keeps no handle
            raise

    # ------------------------------------------------------------------
    # Sidecar persistence
    # ------------------------------------------------------------------

    def _load(self):
        """Adopt an existing sidecar or initialize a fresh one."""
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size == 0:
            self._write_header()
            return
        self._file.seek(0)
        raw = self._file.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise StorageError("checksum sidecar header is truncated")
        magic, version, stored_page_size = _HEADER.unpack(raw)
        if magic != _MAGIC or version != _VERSION:
            raise StorageError(
                "file is not a PRIX checksum sidecar; refusing to "
                "overwrite it")
        if stored_page_size != self.page_size:
            raise StorageError(
                f"checksum sidecar was written for page size "
                f"{stored_page_size}, not {self.page_size}")
        body = self._file.read()
        for page_id in range(len(body) // _SLOT.size):
            flag, crc = _SLOT.unpack_from(body, page_id * _SLOT.size)
            if flag == _STAMPED:
                self._stamps[page_id] = crc

    def _write_header(self):
        self._file.seek(0)
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, self.page_size))

    def _write_slot(self, page_id, flag, crc):
        offset = _HEADER.size + page_id * _SLOT.size
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        if end < offset:
            # Extend with zeroed (unstamped) slots up to the target.
            self._file.seek(end)
            self._file.write(b"\x00" * (offset - end))
        self._file.seek(offset)
        self._file.write(_SLOT.pack(flag, crc))

    # ------------------------------------------------------------------
    # Stamping and verification
    # ------------------------------------------------------------------

    @property
    def stamped_pages(self):
        """Page ids carrying a checksum stamp."""
        return frozenset(self._stamps)

    @property
    def quarantined_pages(self):
        """Page ids currently quarantined as unrepairable."""
        return frozenset(self._quarantined)

    def is_stamped(self, page_id):
        """Whether ``page_id`` carries a checksum stamp."""
        return page_id in self._stamps

    def is_trusted(self, page_id):
        """Whether the page's current image went through the guard.

        True after a stamp (write path), a successful verification or
        repair (read path), or an explicit :meth:`trust` (an author
        handing the pool a fresh full image).  The runtime sanitizer
        asserts this on every buffer-pool ``get`` when a guard is
        attached: a frame that is *not* trusted reached the matcher
        around the checksum machinery.
        """
        return page_id in self._trusted

    def trust(self, page_id):
        """Mark the page's current in-pool image as author-fresh.

        Called by :meth:`BufferPool.put <repro.storage.buffer_pool.
        BufferPool.put>`: a caller replacing the whole image *is* the
        authority on its content, and the stamp follows at write-back.
        """
        self._trusted.add(page_id)

    def stamp(self, page_id, payload):
        """Record the checksum of ``payload`` as page ``page_id``'s truth.

        A stamp heals a quarantine: the writer's full image supersedes
        whatever corrupt bytes the file held.
        """
        crc = page_checksum(page_id, bytes(payload))
        self._stamps[page_id] = crc
        self._quarantined.discard(page_id)
        self._trusted.add(page_id)
        self._write_slot(page_id, _STAMPED, crc)
        return crc

    def attach_repair_source(self, source):
        """Register ``source(page_id) -> image | None`` for read-repair.

        The buffer pool wires this to the write-ahead log's newest
        committed image when a WAL is attached to a guarded pager.
        """
        self._repair_source = source

    def check_quarantine(self, page_id):
        """Fail fast on a quarantined page (before any physical read)."""
        if page_id in self._quarantined:
            raise PageCorruptionError(page_id, quarantined=True)

    def admit(self, page_id, payload, pager):
        """Verify a freshly read page image; repair or raise on mismatch.

        Returns the image to hand to the caller: the original bytes when
        verification passes (or the page predates the guard and has no
        stamp), or the repaired image after a successful read-repair.
        Raises :class:`PageCorruptionError` and quarantines the page
        when no committed WAL image covers it.
        """
        stamp = self._stamps.get(page_id)
        if stamp is None:
            # Pre-guard page: nothing to verify against.  It becomes
            # covered at its next write-back (or via a scrub --stamp).
            self._trusted.add(page_id)
            return payload
        self.stats.count_guard_verification()
        actual = page_checksum(page_id, bytes(payload))
        if actual == stamp:
            self._trusted.add(page_id)
            return payload
        repaired = self._attempt_repair(page_id, pager)
        if repaired is not None:
            return repaired
        self._quarantined.add(page_id)
        self._trusted.discard(page_id)
        self.stats.add(guard_quarantines=1)
        raise PageCorruptionError(
            page_id,
            f"page {page_id} failed checksum verification (stored "
            f"{stamp:#010x}, computed {actual:#010x}) and no committed "
            "WAL image covers it; page quarantined")

    def _attempt_repair(self, page_id, pager):
        """Pull the newest committed image for ``page_id`` and reinstall
        it, or return None when the repair source has no covering image."""
        if self._repair_source is None:
            return None
        image = self._repair_source(page_id)
        if image is None or len(image) != self.page_size:
            return None
        image = bytes(image)
        pager.repair_write(page_id, image)
        self.stamp(page_id, image)
        self.stats.add(guard_repairs=1)
        return bytearray(image)

    def stamp_all(self, pager):
        """Stamp every currently unstamped page from the file's content.

        Adoption path for an index built before the guard existed: the
        current bytes are declared the truth (there is nothing better to
        compare against), and every later read is verified against them.
        Returns the number of pages stamped.
        """
        stamped = 0
        for page_id in range(pager.num_pages):
            if page_id not in self._stamps:
                self.stamp(page_id, pager.read_raw(page_id))
                stamped += 1
        return stamped

    def sync(self):
        """Flush the sidecar to stable storage where supported."""
        from repro.storage.pager import fsync_file
        fsync_file(self._file)

    def close(self):
        """Close the sidecar file."""
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def wal_repair_source(wal):
    """``page_id -> newest committed image`` lookup over a live WAL.

    The committed-image map is rebuilt whenever the log has grown since
    the last lookup, so images committed after the guard was attached
    are repairable too.  Repair is a corruption-only path; the rescan
    cost never shows up in healthy operation.
    """
    cache = {"lsn": None, "images": {}}

    def lookup(page_id):
        if cache["lsn"] != wal.next_lsn:
            from repro.storage.recovery import scan_committed
            cache["images"], _ = scan_committed(wal)
            cache["lsn"] = wal.next_lsn
        return cache["images"].get(page_id)

    return lookup


class ScrubReport:
    """Health summary of one scrub pass over a page file."""

    __slots__ = ("target", "pages_total", "pages_ok", "pages_unstamped",
                 "pages_repaired", "pages_corrupt", "catalog_ok",
                 "catalog_error")

    def __init__(self, target="index"):
        self.target = target
        self.pages_total = 0
        self.pages_ok = 0
        self.pages_unstamped = 0
        self.pages_repaired = 0
        self.pages_corrupt = []    # quarantined page ids
        self.catalog_ok = None     # None: not checked
        self.catalog_error = None

    @property
    def healthy(self):
        """True when no page stayed corrupt and the catalog (if checked)
        parsed."""
        return not self.pages_corrupt and self.catalog_ok is not False

    def as_dict(self):
        """JSON-ready summary."""
        return {
            "target": self.target,
            "pages_total": self.pages_total,
            "pages_ok": self.pages_ok,
            "pages_unstamped": self.pages_unstamped,
            "pages_repaired": self.pages_repaired,
            "pages_corrupt": list(self.pages_corrupt),
            "catalog_ok": self.catalog_ok,
            "catalog_error": self.catalog_error,
            "healthy": self.healthy,
        }

    def to_json(self, indent=None):
        """Canonical JSON serialization of :meth:`as_dict`.

        The *single* serializer for scrub health: both ``prix scrub
        --json`` and the serving subsystem's ``/healthz`` endpoint emit
        exactly this string (``docs/SERVING.md``), so the two surfaces
        cannot drift apart.  Keys are sorted for byte-stable output.
        """
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def render(self):
        """Human-readable per-file health summary (``prix scrub``)."""
        lines = [f"scrub {self.target}: "
                 f"{self.pages_total} page(s) swept"]
        lines.append(f"  verified ok : {self.pages_ok}")
        lines.append(f"  unstamped   : {self.pages_unstamped}")
        lines.append(f"  repaired    : {self.pages_repaired}")
        corrupt = (", ".join(str(p) for p in self.pages_corrupt)
                   if self.pages_corrupt else "none")
        lines.append(f"  corrupt     : {len(self.pages_corrupt)} "
                     f"({corrupt})")
        if self.catalog_ok is not None:
            state = "ok" if self.catalog_ok else \
                f"UNREADABLE ({self.catalog_error})"
            lines.append(f"  catalog     : {state}")
        lines.append(f"  health      : "
                     f"{'OK' if self.healthy else 'CORRUPT'}")
        return "\n".join(lines)


def scrub(pager, report=None):
    """Sweep every page of a guarded pager, verifying (and where possible
    repairing) each; returns a :class:`ScrubReport`.

    Quarantined and unrepairable pages are recorded, not raised: the
    scrub's job is a complete health picture, and its caller decides
    whether a corrupt page is fatal.  Works on an unguarded pager too,
    reporting every page as unstamped.
    """
    if report is None:
        report = ScrubReport()
    guard = pager.guard
    report.pages_total = pager.num_pages
    for page_id in range(pager.num_pages):
        if guard is None or not guard.is_stamped(page_id):
            report.pages_unstamped += 1
            continue
        repairs_before = guard.stats.guard_repairs
        try:
            pager.read(page_id)
        except PageCorruptionError:
            report.pages_corrupt.append(page_id)
            continue
        if guard.stats.guard_repairs > repairs_before:
            report.pages_repaired += 1
        else:
            report.pages_ok += 1
    return report


def sidecar_page_size(guard_path):
    """Page size recorded in an existing sidecar, or the engine default:
    what a file with no readable superblock is still swept under."""
    from repro.storage.pager import DEFAULT_PAGE_SIZE
    if os.path.exists(guard_path):
        with open(guard_path, "rb") as handle:
            raw = handle.read(_HEADER.size)
        if len(raw) == _HEADER.size:
            magic, version, page_size = _HEADER.unpack(raw)
            if magic == _MAGIC and version == _VERSION and page_size > 0:
                return page_size
    return DEFAULT_PAGE_SIZE


class TreeScrubReport:
    """Aggregate health of every index file found under one directory.

    One row per index swept (each a full :class:`ScrubReport`), plus
    rolled-up totals whose keys mirror the single-file report --
    ``pages_corrupt`` entries are ``"<relative file>:<page id>"`` so a
    corrupt page stays attributable to its shard.  ``catalog_ok`` is
    the conjunction over all indexes (and, for shard directories, the
    manifest check the shard layer folds in).
    """

    __slots__ = ("target", "reports", "manifest_ok", "manifest_error")

    def __init__(self, target, reports=(), manifest_ok=None,
                 manifest_error=None):
        self.target = target
        self.reports = list(reports)   # [(relative_path, ScrubReport)]
        self.manifest_ok = manifest_ok     # None: no manifest expected
        self.manifest_error = manifest_error

    @property
    def healthy(self):
        return (self.manifest_ok is not False
                and all(report.healthy for _, report in self.reports))

    def as_dict(self):
        """JSON-ready summary; same vocabulary as :class:`ScrubReport`."""
        indexes = {rel: report.as_dict() for rel, report in self.reports}
        catalog_ok = all(report.catalog_ok is not False
                         for _, report in self.reports)
        if self.manifest_ok is not None:
            catalog_ok = catalog_ok and self.manifest_ok
        return {
            "target": self.target,
            "indexes": indexes,
            "index_count": len(self.reports),
            "pages_total": sum(r.pages_total for _, r in self.reports),
            "pages_ok": sum(r.pages_ok for _, r in self.reports),
            "pages_unstamped": sum(r.pages_unstamped
                                   for _, r in self.reports),
            "pages_repaired": sum(r.pages_repaired
                                  for _, r in self.reports),
            "pages_corrupt": [f"{rel}:{page_id}"
                              for rel, report in self.reports
                              for page_id in report.pages_corrupt],
            "catalog_ok": catalog_ok,
            "catalog_error": self.manifest_error,
            "healthy": self.healthy,
        }

    def to_json(self, indent=None):
        """Canonical JSON twin of :meth:`ScrubReport.to_json`."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def render(self):
        """Human-readable multi-index summary (``prix scrub DIR``)."""
        lines = [f"scrub {self.target}: "
                 f"{len(self.reports)} index file(s)"]
        if self.manifest_ok is not None:
            state = ("ok" if self.manifest_ok
                     else f"CORRUPT ({self.manifest_error})")
            lines.append(f"  shard manifest: {state}")
        for rel, report in self.reports:
            state = "OK" if report.healthy else "CORRUPT"
            lines.append(f"  {rel}: {state} "
                         f"({report.pages_total} page(s), "
                         f"{len(report.pages_corrupt)} corrupt)")
        lines.append(f"  health      : "
                     f"{'OK' if self.healthy else 'CORRUPT'}")
        return "\n".join(lines)
