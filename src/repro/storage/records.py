"""Append-only record store for variable-length blobs.

PRIX keeps each document's NPS, LPS and leaf-node list in the database
(Sections 3.2 and 4.3); ViST keeps document sequences similarly.  Records
are packed densely: small records share pages (a refinement pass over k
small documents costs ~k * record_size / page_size page reads, not k
pages), and records larger than a page span consecutively allocated
pages.

A record id is ``(page_id, offset, length)`` -- enough to locate the
record without any directory I/O.

Packing means an append may land in a page that already holds committed
records (a chained catalog record beside the one it continues, a new
document beside old ones).  The rule that keeps them safe: a shared page
is only ever rewritten as a whole logged image.  The append dirties the
pooled frame, the batch's commit logs the full page, and the data file
sees it only after that log record is durable -- so a crash leaves the
page as one committed batch or the next wrote it, never a mixture
(``tests/test_storage_recovery.py::TestChainedSaveSharesItsParentsPage``).
"""

from __future__ import annotations

from repro.storage.errors import StorageError


class RecordStore:
    """Blob storage over a buffer pool with page-granular I/O accounting."""

    def __init__(self, pool):
        self._pool = pool
        self._page_size = pool.page_size
        self._current_page = None
        self._current_offset = 0

    def append(self, blob):
        """Store ``blob``; return its record id ``(page, offset, length)``.

        Small records pack into the current page; a record that does not
        fit in the remaining space starts on a fresh page and, if larger
        than one page, spans consecutively allocated pages.
        """
        if not isinstance(blob, (bytes, bytearray)):
            raise TypeError("blobs must be bytes")
        fits_in_current = (
            self._current_page is not None
            and self._current_offset + len(blob) <= self._page_size)
        if not fits_in_current:
            pages_needed = max(1, -(-len(blob) // self._page_size))
            first_page = None
            previous = None
            for _ in range(pages_needed):
                page_id, _ = self._pool.new_page()
                if first_page is None:
                    first_page = page_id
                elif page_id != previous + 1:
                    raise StorageError(
                        "record pages must be allocated consecutively")
                previous = page_id
            self._current_page = first_page
            self._current_offset = 0

        first_page = self._current_page
        first_offset = self._current_offset
        pos = 0
        page_id = first_page
        offset = first_offset
        while pos < len(blob):
            # No pool call between the slice write and mark_dirty, so
            # nothing on this thread can evict the frame in between.
            frame = self._pool.get(page_id)
            take = min(self._page_size - offset, len(blob) - pos)
            frame[offset:offset + take] = blob[pos:pos + take]
            self._pool.mark_dirty(page_id)
            pos += take
            offset += take
            if offset >= self._page_size and pos < len(blob):
                page_id += 1
                offset = 0
        self._current_page = page_id
        self._current_offset = offset
        return (first_page, first_offset, len(blob))

    def read(self, rid):
        """Return the blob stored under record id ``rid``."""
        page_id, offset, length = rid
        if not length:
            return b""
        take = min(self._page_size - offset, length)
        chunks = [bytes(self._pool.get(page_id)[offset:offset + take])]
        self._continuation(page_id, length - take, chunks)
        return b"".join(chunks)

    def read_decoded(self, rid, decode):
        """Return ``decode(blob)``, decoded once per residency of the
        record's first page.

        That page goes through the pool's decoded-frame memo
        (:meth:`BufferPool.get_decoded`), its entry being ``(frame,
        {offset: decoded})``: a hit is one latched pool section plus a
        dict lookup, a miss slices the blob out of the frame the entry
        holds.  Every page is requested exactly as :meth:`read` requests
        it, hit or miss, so page counters cannot tell the two apart.
        The entry dies with the frame (eviction, ``mark_dirty`` by a
        later append, ``put``, ``flush_and_clear``) and records are
        append-only, so nothing is ever invalidated by hand.  The object
        is shared by every caller and thread: treat it as read-only.
        Nothing is memoised when ``decode`` raises (or returns None).
        """
        page_id, offset, length = rid
        if not length:
            return decode(b"")
        frame, memo = self._pool.get_decoded(page_id, _page_memo)
        decoded = memo.get(offset)
        take = min(self._page_size - offset, length)
        chunks = (None if decoded is not None
                  else [bytes(frame[offset:offset + take])])
        self._continuation(page_id, length - take, chunks)
        if chunks is not None:
            decoded = decode(b"".join(chunks))
            # Latch-free by design: racing decoders publish equal
            # objects, a memo orphaned by an eviction is garbage.
            memo[offset] = decoded
        return decoded

    def _continuation(self, page_id, remaining, chunks):
        """Touch the pages after a record's first; append their share
        of the blob to ``chunks`` unless it is None."""
        while remaining > 0:
            page_id += 1
            take = min(self._page_size, remaining)
            frame = self._pool.get(page_id)
            if chunks is not None:
                chunks.append(bytes(frame[:take]))
            remaining -= take

    def pages_for(self, rid):
        """Number of pages the record touches."""
        _, offset, length = rid
        if length == 0:
            return 1
        first = self._page_size - offset
        if length <= first:
            return 1
        return 1 + -(-(length - first) // self._page_size)


def _page_memo(page_id, frame):
    """Decoder for a record page: the frame plus its (empty) memo."""
    return frame, {}
