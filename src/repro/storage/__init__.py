"""Disk storage substrate: pages, buffer pool, B+-tree, record store,
write-ahead log.

The paper runs every index (PRIX's Trie-Symbol/Docid indexes, ViST's
D-Ancestorship index, the XB-trees) on GiST B+-trees over 8 KiB pages with a
2000-page buffer pool and direct I/O.  This package reproduces that stack in
pure Python with explicit physical-read accounting so the "Disk IO (pages)"
columns of Tables 4-9 can be regenerated.

Durability is layered on top (``docs/DURABILITY.md``): an ARIES-lite
redo-only :class:`WriteAheadLog` and crash
:mod:`~repro.storage.recovery`.  WAL traffic is counted in its own
``IOStats`` fields, so the paper tables are unaffected.  The
deterministic fault injectors the crash and corruption matrices run
under live with those tests (``tests/faults.py``).

The public door into the stack is :mod:`repro.storage.backend`
(``docs/ARCHITECTURE.md``): one backend class,
:class:`FilePagerBackend` -- the buffer pool over the one
:class:`Pager`, owning the WAL and guard behind it -- and one wiring
function, :func:`open_backend`, which builds and reopens alike.  Its
kinds (``"file"``, ``"arena"``, ``"mmap"``) differ only in the
file-like object the pager is handed: the real file, an in-memory
snapshot of it, or a read-only memory map.  The logical index layers
import storage only through that seam; the layer map in
``tests/test_source_invariants.py`` enforces the boundary statically.

Corruption safety sits beside it (``docs/ROBUSTNESS.md``): a
:class:`PageGuard` checksums every page on write-back and verifies on
read, repairing from the WAL's committed images or quarantining with a
typed :class:`PageCorruptionError`; :func:`scrub` sweeps every page of
a pager (the index-level scrub, catalog verdict included, is composed
above storage: ``repro.prix.index.scrub_path``).  Guard traffic, like
WAL traffic, never touches the page counters.
"""

from repro.storage.backend import (FilePagerBackend, open_backend,
                                   sidecar_paths)
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.codec import (decode_key, encode_int, encode_key,
                                 encode_str, page_checksum, split_varints)
from repro.storage.errors import (CorruptionError, PageCorruptionError,
                                  PageOverflowError, PageRangeError,
                                  PageSizeError, ReadOnlyBackendError,
                                  RecordCorruptionError, StorageError,
                                  SuperblockError, TransientStorageError,
                                  WalCorruptionError, WalError,
                                  WalProtocolError)
from repro.storage.guard import (PageGuard, ScrubReport, TreeScrubReport,
                                 scrub, sidecar_page_size,
                                 wal_repair_source)
from repro.storage.latch import Latch, guarded
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager
from repro.storage.records import RecordStore
from repro.storage.recovery import (RecoveryResult, recover, recover_path,
                                    scan_committed)
from repro.storage.stats import IOStats
from repro.storage.wal import (SYNC_ALWAYS, SYNC_COMMIT, SYNC_NEVER,
                               WriteAheadLog)

__all__ = [
    "BPlusTree",
    "BufferPool",
    "CorruptionError",
    "DEFAULT_PAGE_SIZE",
    "FilePagerBackend",
    "IOStats",
    "Latch",
    "PageCorruptionError",
    "PageGuard",
    "PageOverflowError",
    "PageRangeError",
    "PageSizeError",
    "Pager",
    "ReadOnlyBackendError",
    "RecordCorruptionError",
    "RecordStore",
    "RecoveryResult",
    "SYNC_ALWAYS",
    "SYNC_COMMIT",
    "SYNC_NEVER",
    "ScrubReport",
    "StorageError",
    "SuperblockError",
    "TransientStorageError",
    "TreeScrubReport",
    "WalCorruptionError",
    "WalError",
    "WalProtocolError",
    "WriteAheadLog",
    "decode_key",
    "encode_int",
    "encode_key",
    "encode_str",
    "guarded",
    "open_backend",
    "page_checksum",
    "recover",
    "recover_path",
    "scan_committed",
    "scrub",
    "sidecar_page_size",
    "sidecar_paths",
    "split_varints",
    "wal_repair_source",
]
