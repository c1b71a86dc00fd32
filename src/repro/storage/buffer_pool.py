"""LRU buffer pool over a :class:`~repro.storage.pager.Pager`.

The paper fixes the buffer pool at 2000 pages of 8 KiB and enables direct
I/O so that only genuine buffer misses hit the disk.  This class mirrors
that: a page request that hits the pool is a logical read; a miss goes to
the pager and is counted as a physical read.  Benchmarks call
:meth:`flush_and_clear` between queries to measure cold-cache behaviour.

Concurrency (``docs/CONCURRENCY.md``): all frame-map state -- the frame
table, dirty set, decoded cache and WAL bookkeeping -- is
guarded by the pool's ``buffer-pool`` latch (``_latch``), with two
load-bearing refinements:

- **no blocking I/O under the latch**: every pager read/write and every
  WAL append happens *outside* the latched sections, so one thread's
  disk wait never serializes the others' cache hits (the runtime
  sanitizer rejects a ``pager-io`` acquire under ``buffer-pool``);
- **single-flight misses**: concurrent misses on the same page elect one
  loader via ``_loading`` and the rest wait on its *flight*, a raw
  ``_thread`` lock the loader holds until the frame is admitted.  So a
  page is read from disk exactly once however many threads want it,
  which is what keeps ``physical_reads`` exactly conserved under the
  threaded stress harness.  Dirty evictions park a held lock in the
  same table so a re-read of an in-flight victim waits for the
  write-back to land.

A clean miss takes the latch twice: once to look the page up, count the
logical read and register the flight; once to evict the LRU victim,
admit the frame with its decoded object and unregister the flight.

Eviction only drops a frame from the map and a reload builds a new
``bytearray``, so a frame a reader already holds never changes under
it.  A writer mutates a frame and calls :meth:`mark_dirty` with no pool
call in between; no query runs beside a write on the same index
(``docs/CONCURRENCY.md``, rule 4).
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import OrderedDict

from repro.storage.errors import PageSizeError, WalProtocolError
from repro.storage.latch import Latch, guarded

#: Pool capacity used by the experiments; matches the paper's 2000 pages.
DEFAULT_POOL_PAGES = 2000


@guarded
class BufferPool:
    """Caches page images and tracks dirty state with LRU eviction."""

    #: Field -> guarding latch; the runtime sanitizer installs
    #: guarded-access assertions (reads and writes) from this mapping.
    _GUARDED = {
        "_frames": "_latch",
        "_dirty": "_latch",
        "_decoded": "_latch",
        "_loading": "_latch",
        "_page_lsn": "_latch",
        "_wal_uncommitted": "_latch",
    }

    def __init__(self, pager, capacity=DEFAULT_POOL_PAGES):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self._pager = pager
        self._capacity = capacity
        self._latch = Latch("buffer-pool")
        self._frames = OrderedDict()  # page_id -> bytearray
        self._dirty = set()
        self._decoded = {}  # page_id -> decoded object
        self._loading = {}  # page_id -> held lock (in-flight I/O)
        self._wal = None
        self._page_lsn = {}  # page_id -> LSN of last logged image
        self._wal_uncommitted = set()  # dirtied since last commit
        self.stats = pager.stats

    @property
    def capacity(self):
        """Maximum resident frames."""
        return self._capacity

    @property
    def page_size(self):
        """Size in bytes of every page image this pool serves.

        Part of the backend surface: callers above the storage-api
        layer must not reach through ``_pager`` for it.
        """
        return self._pager.page_size

    @property
    def guard(self):
        """The substrate's checksum guard, or None (unverified reads)."""
        return self._pager.guard

    # ------------------------------------------------------------------
    # Write-ahead logging
    # ------------------------------------------------------------------

    @property
    def wal(self):
        """The attached write-ahead log, or None (non-durable pool)."""
        return self._wal

    def attach_wal(self, wal):
        """Make every mutation flow through ``wal`` before the data file.

        From this point on the pool enforces two rules:

        - **no steal**: a page dirtied since the last :meth:`commit` is
          never written to the data file -- eviction skips it, and a
          pool full of such pages commits the batch early rather than
          steal one (redo-only recovery cannot undo a stolen write);
        - **WAL before data**: a committed dirty page reaches the data
          file only after the log record holding its image is fsynced
          (:meth:`_write_back` forces the log flush when needed).
        """
        if self._wal is not None:
            raise WalProtocolError("a WAL is already attached")
        with self._latch:
            if self._dirty:
                raise WalProtocolError(
                    "cannot attach a WAL to a pool with unlogged dirty "
                    f"pages {sorted(self._dirty)}; flush first")
            self._wal = wal
        guard = self._pager.guard
        if guard is not None:
            # The log's committed images become the guard's read-repair
            # source: the same trust base recovery replays from.
            from repro.storage.guard import wal_repair_source
            guard.attach_repair_source(wal_repair_source(wal))

    def commit(self):
        """Seal the current batch: log every uncommitted page image,
        append a COMMIT record and (policy permitting) fsync the log.

        Returns the commit LSN, or None when no WAL is attached.  Pages
        stay dirty in the pool -- the data-file write is deferred to
        eviction, :meth:`flush` or a checkpoint -- but they become
        evictable because recovery can now redo them.
        """
        if self._wal is None:
            return None
        with self._latch:
            # Uncommitted pages are exempt from eviction, so the frames
            # are necessarily still resident.
            images = [(page_id, self._frames[page_id])
                      for page_id in sorted(self._wal_uncommitted)]
        logged = 0
        lsns = {}
        for page_id, image in images:
            lsns[page_id] = self._wal.log_page(page_id, image)
            logged += 1
        with self._latch:
            self._page_lsn.update(lsns)
            self._wal_uncommitted.difference_update(lsns)
        return self._wal.commit(page_count=logged)

    def checkpoint(self):
        """Fuzzy checkpoint: make the data file self-sufficient, then
        truncate the log.

        Commits and flushes every dirty page, fsyncs the data file, and
        starts a fresh log generation.  After it returns, recovery has
        nothing to redo -- until the next mutation starts a new batch,
        which may happen immediately (nothing here blocks appends).
        """
        if self._wal is None:
            raise WalProtocolError("checkpoint needs an attached WAL")
        self.flush()
        self._pager.sync()
        self._wal.checkpoint(self._pager.num_pages)
        with self._latch:
            self._page_lsn.clear()

    def _note_dirty(self, page_id):  # caller holds _latch
        """WAL bookkeeping for a freshly dirtied page."""
        if self._wal is not None:
            self._wal_uncommitted.add(page_id)

    def _write_back(self, page_id, frame, lsn, uncommitted):
        """Write one dirty frame to the data file, WAL permitting.

        ``lsn`` and ``uncommitted`` are captured under the latch by the
        caller; the write itself runs latch-free (blocking I/O).
        """
        if self._wal is not None:
            if uncommitted:
                raise WalProtocolError(
                    f"page {page_id} is dirty but uncommitted; writing "
                    "it to the data file would steal an uncommitted "
                    "change that redo-only recovery cannot undo")
            self._wal.require_durable(lsn)
        self._pager.write(page_id, frame)

    @property
    def cached_pages(self):
        """Currently resident frames."""
        with self._latch:
            return len(self._frames)

    def get(self, page_id):
        """Return the page image, loading it through the pager on a miss."""
        with self._latch:
            self.stats.count_logical_read()
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                return frame
            flight, loader = self._claim(page_id)
        return self._load(page_id, flight, loader)[0]

    def _claim(self, page_id):  # caller holds _latch
        """``(flight, True)`` after registering the caller as the loader
        of the absent ``page_id``: ``flight`` is a fresh lock, held until
        the frame is admitted.  ``(flight, False)`` when a load or
        write-back of the page is already in flight: wait behind it."""
        flight = self._loading.get(page_id)
        if flight is not None:
            return flight, False
        flight = allocate_lock()
        flight.acquire()
        self._loading[page_id] = flight
        return flight, True

    def _load(self, page_id, flight, loader, decoder=None):
        """Miss path, entered with what the caller's latched lookup got
        from :meth:`_claim`; returns ``(frame, decoded)``.

        Exactly one thread, the loader, performs the physical read (and
        the decode, when ``decoder`` is given); every other thread that
        misses the page concurrently waits on the loader's flight and
        then finds the frame resident.  A waiter also parks behind an
        in-flight dirty-eviction write-back of the same page, so a
        reload cannot observe the pre-write-back file image.
        """
        while not loader:
            flight.acquire()    # returns once the flight is released
            flight.release()
            with self._latch:
                frame = self._frames.get(page_id)
                if frame is None:
                    flight, loader = self._claim(page_id)
                else:
                    self._frames.move_to_end(page_id)
                    decoded = self._decoded.get(page_id)
            if frame is not None:
                if decoder is not None and decoded is None:
                    decoded = self._publish(page_id, frame, decoder)
                return frame, decoded
        try:
            frame = self._pager.read(page_id)
        except BaseException:
            with self._latch:
                del self._loading[page_id]
            flight.release()
            raise
        decoded = None
        try:
            if decoder is not None:
                decoded = decoder(page_id, frame)
        finally:
            # A decoder that raises still leaves the frame resident.
            self._admit(page_id, frame, decoded, flight)
        return frame, decoded

    def _publish(self, page_id, frame, decoder):
        """Decode a resident frame and memoize the result -- only onto
        that frame: not if it left the pool meanwhile."""
        decoded = decoder(page_id, frame)
        with self._latch:
            if self._frames.get(page_id) is frame:
                self._decoded[page_id] = decoded
        return decoded

    def new_page(self):
        """Allocate a fresh page and return ``(page_id, frame)``."""
        page_id = self._pager.allocate()
        frame = bytearray(self._pager.page_size)
        self._admit(page_id, frame)
        with self._latch:
            self._dirty.add(page_id)
            self._note_dirty(page_id)
        return page_id, frame

    def get_decoded(self, page_id, decoder):
        """Return ``decoder(page_id, frame)`` memoized per frame residency.

        The decoded object lives exactly as long as the page is resident
        and clean: writes and evictions drop it.  This mirrors real
        engines keeping deserialized nodes attached to buffer frames --
        the page is counted exactly as :meth:`get` counts it, and on a
        miss the decoded object is published with the frame it was
        decoded from, in the section that admits it.

        A resident hit -- what every B+-tree level of every index probe
        and every stored-document load is, once warm -- costs one
        latched section: the LRU touch, with
        the logical-read bump nested at its bottom (``buffer-pool ->
        io-stats``, the sanctioned order).
        """
        with self._latch:
            cached = self._decoded.get(page_id)
            if cached is not None and page_id in self._frames:
                self._frames.move_to_end(page_id)
                self.stats.count_logical_read()
                return cached
            self.stats.count_logical_read()
            frame = self._frames.get(page_id)
            if frame is None:
                flight, loader = self._claim(page_id)
            else:
                self._frames.move_to_end(page_id)
        if frame is None:
            return self._load(page_id, flight, loader, decoder)[1]
        return self._publish(page_id, frame, decoder)

    def put(self, page_id, data):
        """Replace the cached image of ``page_id`` and mark it dirty.

        ``data`` must be a full page image: ``frame[:] = data`` with a
        short payload would silently shrink the frame, and the truncated
        image is what an eviction later writes back.
        """
        if len(data) != self._pager.page_size:
            raise PageSizeError(
                f"page image must be exactly {self._pager.page_size} "
                f"bytes, got {len(data)}")
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
        if frame is None:
            frame = bytearray(self._pager.page_size)
            self._admit(page_id, frame)
        with self._latch:
            frame[:] = data
            self._dirty.add(page_id)
            self._note_dirty(page_id)
            self._decoded.pop(page_id, None)
        if self._pager.guard is not None:
            # The caller authored this full image, so it is the page's
            # new truth; the checksum stamp follows at write-back.
            self._pager.guard.trust(page_id)

    def mark_dirty(self, page_id):
        """Flag an in-place mutation of the cached page image."""
        with self._latch:
            if page_id not in self._frames:
                raise KeyError(f"page {page_id} is not resident")
            self._dirty.add(page_id)
            self._note_dirty(page_id)
            self._decoded.pop(page_id, None)

    def _admit(self, page_id, frame, decoded=None, flight=None):
        """Insert ``frame`` (and ``decoded``, its decoded object),
        evicting -- and writing back -- as needed.

        With a clean victim this is one latched section: the victim
        leaves, the frame arrives and ``flight``, the caller's
        :meth:`_claim` on ``page_id``, is unregistered, then released
        (on every path).  When no page is uncommitted (always, without
        a WAL) the victim is the LRU head; otherwise the least recently
        used committed page (no steal).  A dirty victim's write-back runs
        outside the latch, with a held lock parked in ``_loading`` so a
        concurrent reload of the victim waits for the write to land.
        """
        try:
            while True:
                gate = None
                with self._latch:
                    frames = self._frames
                    uncommitted = self._wal_uncommitted
                    while len(frames) >= self._capacity:
                        if uncommitted:
                            victim_id = next(
                                (candidate for candidate in frames
                                 if candidate not in uncommitted), None)
                            if victim_id is None:
                                break
                        else:
                            victim_id = next(iter(frames))
                        victim = frames.pop(victim_id)
                        self._decoded.pop(victim_id, None)
                        if victim_id in self._dirty:
                            self._dirty.discard(victim_id)
                            lsn = self._page_lsn.get(victim_id, 0)
                            gate = allocate_lock()
                            gate.acquire()
                            self._loading[victim_id] = gate
                            break
                        self.stats.count_eviction()
                    else:
                        frames[page_id] = frame
                        if decoded is not None:
                            self._decoded[page_id] = decoded
                        if flight is not None:
                            del self._loading[page_id]
                        return
                if gate is None:
                    # Every resident frame is uncommitted under a WAL.
                    # Memory pressure forces a batch boundary: under
                    # no-steal an uncommitted page cannot leave the
                    # pool, so a batch whose working set outgrows the
                    # pool is committed early.  Safe for builds (the
                    # superblock is only written in the final batch, so
                    # a crash between forced commits recovers to a file
                    # open() rejects as incomplete); callers that need
                    # a batch to be all-or-nothing must size the pool
                    # to hold it.
                    self.commit()
                    continue
                try:
                    self._write_back(victim_id, victim, lsn,
                                     uncommitted=False)
                finally:
                    with self._latch:
                        del self._loading[victim_id]
                    gate.release()
                self.stats.count_eviction()
        except BaseException:
            if flight is not None:
                with self._latch:
                    del self._loading[page_id]
            raise
        finally:
            if flight is not None:
                flight.release()

    def flush(self):
        """Write every dirty page back without evicting anything.

        With a WAL attached this is a durability point: the current
        batch commits first (so every dirty image is logged), the log is
        fsynced where needed, and only then do pages reach the data
        file -- WAL-before-data, enforced per page in
        :meth:`_write_back`.
        """
        if self._wal is not None:
            with self._latch:
                need_commit = bool(self._wal_uncommitted)
            if need_commit:
                self.commit()
        with self._latch:
            todo = sorted(self._dirty)
        for page_id in todo:
            with self._latch:
                frame = self._frames.get(page_id)
                still_dirty = page_id in self._dirty
                lsn = self._page_lsn.get(page_id, 0)
                uncommitted = page_id in self._wal_uncommitted
            if frame is None or not still_dirty:
                continue
            self._write_back(page_id, frame, lsn, uncommitted)
            with self._latch:
                self._dirty.discard(page_id)

    def flush_and_clear(self):
        """Write back all dirty pages and empty the pool (cold cache)."""
        self.flush()
        with self._latch:
            self._frames.clear()
            self._decoded.clear()

    def close(self):
        """Flush all dirty pages."""
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
