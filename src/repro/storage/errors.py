"""Errors raised by the storage substrate."""


class StorageError(Exception):
    """Base class for storage-layer failures."""


class PageOverflowError(StorageError):
    """A record or node entry is too large for a single page."""


class PageNotFoundError(StorageError):
    """A page id is outside the allocated range of the file."""


class PageRangeError(PageNotFoundError, IndexError):
    """A read or write referenced a page id outside ``[0, num_pages)``.

    Subclasses :class:`PageNotFoundError` so existing handlers keep
    working, and :class:`IndexError` because an out-of-range page id is
    exactly an out-of-range index into the page file.  Raised instead of
    letting the pager silently extend the file (a write past the end
    would allocate pages behind the allocator's back) or surfacing a raw
    ``OSError``/``ValueError`` from a negative seek far from the buggy
    caller.
    """


class WalError(StorageError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """A WAL frame failed validation somewhere other than the tail.

    A torn *tail* is the expected signature of a crash and is handled by
    recovery (the tail is discarded); a bad frame with valid frames
    after it means the log was damaged at rest and replaying past it
    could resurrect inconsistent pages.
    """


class WalProtocolError(WalError):
    """The WAL-before-data discipline was violated.

    Raised when a dirty page would reach the data file before the log
    record covering it is durable, or when an uncommitted dirty page
    would be stolen (written back mid-transaction) -- the redo-only
    recovery pass cannot undo stolen writes, so the no-steal rule is
    load-bearing, not stylistic.
    """


class PageSizeError(StorageError, ValueError):
    """A page image does not match the configured page size.

    Raised instead of silently resizing a buffer frame: a short ``put``
    would shrink the in-pool image and the eventual write-back would then
    corrupt the file (or fail far from the buggy caller).
    """


class KeyNotFoundError(StorageError, KeyError):
    """A delete or exact lookup referenced a key that is absent."""


class ReadOnlyBackendError(StorageError):
    """A mutation reached a read-only storage backend.

    The mmap serving backend maps the index file for concurrent readers
    and cannot accept writes, allocations, or a write-ahead log; raising
    a typed error at the first mutating call keeps the failure at the
    call site instead of surfacing later as a torn flush.
    """


class TransientStorageError(StorageError):
    """A read failed for a reason that is expected to heal on retry.

    Raised by the test suite's chaos layer (``tests/chaos_backend.py``)
    to model the environmental failures a networked or degraded disk
    exhibits -- a dropped request, a device briefly offline, an I/O
    retry-storm -- without tearing any durable state.  The serving tier
    maps it to a typed 500 so a retrying client (``repro.serve.client``)
    can tell "try again" apart from "the bytes are bad"
    (:class:`CorruptionError`) and "you asked wrong" (``ValueError``).
    """


class CorruptionError(StorageError):
    """Base class for at-rest corruption detected by the checksum guard.

    Distinct from :class:`WalProtocolError`-style programming errors:
    corruption is an *environmental* failure (bit rot, torn hardware,
    a misdirected write) that the engine must surface as a typed,
    catchable condition -- never as a silently wrong query answer.
    """


class PageCorruptionError(CorruptionError):
    """A page image failed checksum verification and could not be
    repaired from the write-ahead log.

    Carries the page id so operators can correlate with ``prix scrub``
    output.  Once raised for a page, the guard quarantines that id:
    further reads fail fast with this error instead of re-verifying (and
    potentially handing out) a known-bad image.
    """

    def __init__(self, page_id, message=None, quarantined=False):
        self.page_id = page_id
        self.quarantined = quarantined
        if message is None:
            message = (f"page {page_id} is quarantined" if quarantined
                       else f"page {page_id} failed checksum verification")
        super().__init__(message)


class RecordCorruptionError(CorruptionError):
    """A stored document record read fine and does not decode to a
    well-formed document -- what an *unguarded* index shows of damage
    the checksum guard would have caught at the page.  Carries the
    document id and the record id ``(page, offset, length)``.
    """

    def __init__(self, doc_id, rid):
        self.doc_id = doc_id
        self.rid = tuple(rid)
        super().__init__(
            f"document {doc_id}: record (page {rid[0]}, offset {rid[1]}, "
            f"length {rid[2]}) is not a well-formed document record")


class SuperblockError(CorruptionError, ValueError):
    """The index superblock or catalog is missing or unreadable.

    Subclasses :class:`ValueError` so pre-guard callers that caught the
    old untyped superblock failure keep working, while new callers (the
    CLI's exit-code mapping, ``prix scrub``) can treat it as corruption.
    """
