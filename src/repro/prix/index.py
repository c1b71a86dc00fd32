"""The PRIX index: build, store and query (Sections 3 and 5).

A :class:`PrixIndex` owns one paged storage file containing, per variant
(RPIndex over Regular-Prufer sequences, EPIndex over Extended-Prufer
sequences, Section 5.6):

- the Trie-Symbol index (B+-tree over ``(label, LeftPos)``),
- the Docid index (B+-tree over the LeftPos of each LPS terminal),
- a record store holding each document's NPS, LPS and leaf list,
- the MaxGap table (Section 5.4).

The query entry point transforms a twig, picks a variant (EPIndex for
queries with values, RPIndex otherwise -- the optimizer of Section 5.6),
and runs the filter/refine pipeline.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import time
from dataclasses import asdict, dataclass, field

from repro.prix.filtering import MAX_DOC_ID, DocidIndex, TrieSymbolIndex
from repro.prix.incremental import (RebuildRequiredError, insert_sequence,
                                    leaves_slack)
from repro.prix.matcher import (QueryStats, prepare, run_query,
                                variant_choice)
from repro.prix.refinement import DocView
from repro.prufer.reconstruct import reconstruct_document
from repro.prufer.maxgap import MaxGapTable, position_gaps
from repro.prufer.sequence import extended_sequence, regular_sequence
from repro.query.xpath import parse_xpath
from repro.storage import ScrubReport, recover_path, sidecar_page_size
from repro.storage.backend import (DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES,
                                   SYNC_COMMIT, open_backend, sidecar_paths)
from repro.storage.bptree import BPlusTree
from repro.storage.codec import decode_varints, encode_varints
from repro.storage.errors import (RecordCorruptionError, StorageError,
                                  SuperblockError)
from repro.storage.records import RecordStore
from repro.trie.labeling import BulkDFSLabeler, DynamicLabeler

VARIANT_REGULAR = "rp"
VARIANT_EXTENDED = "ep"


@dataclass
class IndexOptions:
    """Construction-time knobs, defaulted to the paper's setup."""

    variants: tuple = (VARIANT_REGULAR, VARIANT_EXTENDED)
    page_size: int = DEFAULT_PAGE_SIZE
    pool_pages: int = DEFAULT_POOL_PAGES
    labeler: str = "bulk"          # "bulk" or "dynamic" (Section 5.2.1)
    path: str | None = None        # None -> pager over an in-memory buffer
    durable: bool = False          # write-ahead log + crash recovery
    wal_path: str | None = None    # default: f"{path}.wal"
    wal_sync: str = SYNC_COMMIT    # fsync policy: commit/always/never
    guard: bool = False            # per-page checksums + read-repair
    guard_path: str | None = None  # default: f"{path}.sum"
    file_factory: object = None    # testing hook: kind -> file object


@dataclass
class TrieStats:
    """Build-time statistics about one variant's virtual trie."""

    node_count: int = 0
    path_count: int = 0
    sequence_count: int = 0
    max_path_sharing: int = 0
    total_sequence_length: int = 0
    # Set only in files saved while a dynamic build could fall back to
    # gap-free labels; kept so those files read back with their slack.
    underflows: int = 0
    rebuilds: int = 0


class LabelDict:
    """Bidirectional label <-> integer id mapping for compact storage."""

    def __init__(self):
        self._by_label = {}
        self._by_id = []

    def id_of(self, label):
        """Integer id for ``label``, assigning one if new."""
        label_id = self._by_label.get(label)
        if label_id is None:
            label_id = len(self._by_id)
            self._by_label[label] = label_id
            self._by_id.append(label)
        return label_id

    def __len__(self):
        return len(self._by_id)


@dataclass
class _VariantIndex:
    """Built structures for one sequence variant."""

    name: str
    extended: bool
    symbol_index: TrieSymbolIndex = None
    docid_index: DocidIndex = None
    root_range: tuple = (0, 0)
    maxgap: MaxGapTable = field(default_factory=MaxGapTable)
    catalog: dict = field(default_factory=dict)    # doc_id -> record id
    trie_stats: TrieStats = field(default_factory=TrieStats)
    label_counts: dict = field(default_factory=dict)  # trie nodes per label
    pending: dict = None           # this variant's part of PrixIndex._pending


#: Superblock layout: magic, meta-record page/offset/length, page size.
_SUPERBLOCK = struct.Struct("<8sIIQI")
_SUPER_MAGIC = b"PRIXIDX1"

#: The Section 5.2.1 labeling parameter the catalog records beside the
#: variants (the page size is in the superblock).  A file saved before
#: it was recorded reads back with the ``IndexOptions`` default; the
#: ``alpha`` and ``max_range`` keys of older files are not read.
_LAYOUT_KEYS = ("labeler",)


class PrixIndex:
    """Disk-backed PRIX index over a collection of documents.

    Build with :meth:`build`; a file-backed index (``IndexOptions(path=
    ...)``) can be persisted with :meth:`save` and reattached later with
    :meth:`open` without rebuilding.
    """

    def __init__(self, pool, records, label_dict, variants, doc_ids,
                 layout):
        self._pool = pool
        self._records = records
        self._labels = label_dict
        self._variants = variants
        self._doc_ids = dict.fromkeys(doc_ids)    # in insertion order
        self._layout = layout      # {key: value} over _LAYOUT_KEYS
        # The catalog chain on file (see save): its newest record, and
        # the records and bytes from there back to the parentless root.
        self._head = None
        self._catalog_records = 0
        self._catalog_bytes = 0
        self._root_bytes = 0
        self._clear_pending()

    def _clear_pending(self):
        """Start noting afresh what the mutators touch: the body of the
        next chained catalog record, which :meth:`save` completes."""
        self._pending = {"doc_ids": {}, "removed": [], "labels": [],
                         "variants": {}}
        for name, variant in self._variants.items():
            variant.pending = self._pending["variants"][name] = {
                "catalog": {}, "maxgap": {}, "label_counts": {}}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, documents, options=None):
        """Build an index over ``documents`` (numbered ``Document``\\ s)."""
        options = options or IndexOptions()
        # Validate before any pager/pool exists: raising after the file
        # is created would leak the handle (and a half-written file).
        documents = list(documents)
        doc_ids = [doc.doc_id for doc in documents]
        for doc_id in doc_ids:
            _check_doc_id(doc_id)
        if len(set(doc_ids)) != len(doc_ids):
            raise ValueError("document ids must be unique")
        if (options.file_factory is None and options.path is not None
                and os.path.exists(options.path)
                and os.path.getsize(options.path) > 0):
            raise FileExistsError(
                f"{options.path}: refusing to build over an existing "
                "non-empty file (remove it, or build to a new path)")

        pool = open_backend(
            options.path, options.page_size, pool_pages=options.pool_pages,
            durable=options.durable, wal_path=options.wal_path,
            wal_sync=options.wal_sync, guard=options.guard,
            guard_path=options.guard_path,
            file_factory=options.file_factory)
        try:
            superblock_id, _ = pool.new_page()   # reserved: page 0
            assert superblock_id == 0
            records = RecordStore(pool)
            label_dict = LabelDict()

            variants = {}
            for name in options.variants:
                variants[name] = cls._build_variant(
                    name, documents, options, pool, records, label_dict)
            index = cls(pool, records, label_dict, variants, doc_ids,
                        {key: getattr(options, key) for key in _LAYOUT_KEYS})
            if options.durable:
                # A durable build is one committed batch: persist the
                # catalog and seal everything behind a COMMIT record so
                # a crash from here on recovers the complete index, and
                # a crash before this line recovers an empty one --
                # never a torn middle.
                index.save()
        except BaseException:
            # Nothing half-built is worth keeping: drop the handles and
            # the files this build created, so a retry at the same path
            # is not refused as a build over an existing file.
            pool.discard()
            raise
        return index

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def insert_document(self, document):
        """Insert one new document without rebuilding (Section 5.2.1).

        The document's sequences are threaded through the virtual trie;
        ranges for new trie nodes are carved from their parents'
        unallocated scope by the dynamic labeling scheme.  Indexes built
        with the default bulk labeler have *gap-free* ranges and raise
        :class:`RebuildRequiredError` at the first new trie node, as does
        a file saved by a dynamic build that fell back to them
        (``summary()``'s ``insertion_slack``); build with
        ``IndexOptions(labeler="dynamic")`` to leave insertion slack.

        On :class:`RebuildRequiredError` the document's record is already
        cataloged, so :meth:`rebuilt` includes it; until then queries may
        miss the new document (its trie path is incomplete).

        On a ``durable`` index the insert becomes crash-safe at the next
        :meth:`save`, which seals the trie pages *and* the catalog that
        locates them in one committed batch -- a crash before that point
        recovers the pre-insert state, never a document the trie knows
        but the catalog does not.
        """
        doc_id = document.doc_id
        _check_doc_id(doc_id)
        if self._indexed(doc_id):
            raise ValueError(f"document id {doc_id} exists")
        known_labels = len(self._labels)
        underflow = None
        for variant in self._variants.values():
            seq = (extended_sequence(document) if variant.extended
                   else regular_sequence(document))
            gaps = position_gaps(seq)
            blob = _encode_document(seq, self._labels)
            variant.catalog[doc_id] = variant.pending["catalog"][doc_id] = \
                self._records.append(blob)
            variant.pending["maxgap"].update(
                _merge_maxgap(variant.maxgap, seq.lps, gaps))
            stats = variant.trie_stats
            stats.sequence_count += 1
            stats.total_sequence_length += len(seq.lps)
            try:
                stats.node_count += insert_sequence(
                    variant, seq, gaps, doc_id,
                    leaves_slack(self._layout["labeler"], stats))
            except RebuildRequiredError as error:
                underflow = error
        self._doc_ids[doc_id] = self._pending["doc_ids"][doc_id] = None
        self._pending["labels"] += self._labels._by_id[known_labels:]
        if underflow is not None:
            raise underflow

    def delete_document(self, doc_id):
        """Remove a document from the index.

        The document's Docid-index entries are deleted, so queries stop
        reporting it immediately.  Trie nodes its sequences created are
        left in place (they are harmless: with no terminals below, the
        filter's final Docid range query returns nothing), as are its
        stored records; :meth:`rebuilt` compacts both away.  The MaxGap
        table keeps its old bounds -- MaxGap is an upper bound, so stale
        entries can only make pruning weaker, never incorrect.

        All or nothing: every variant's Docid entry is found before any
        variant is touched, so the ``KeyError`` of a document whose
        insert underflowed (it has no Docid entry) leaves the index as
        it was.
        """
        if not self._indexed(doc_id):
            raise KeyError(f"document {doc_id} is not indexed")
        doomed = []
        for variant in self._variants.values():
            view = self._view_loader(variant)(doc_id)
            lps = [view.labels[view.nps[i]]
                   for i in range(1, view.n_nodes)]
            doomed.append((variant, len(lps),
                           self._docid_entry(variant, lps, doc_id)))
        unsaved = None
        for variant, length, (key, value) in doomed:
            variant.docid_index.tree.delete(key, value)
            del variant.catalog[doc_id]
            unsaved = variant.pending["catalog"].pop(doc_id, None)
            variant.trie_stats.sequence_count -= 1
            variant.trie_stats.total_sequence_length -= length
        del self._doc_ids[doc_id]
        if unsaved:
            # Inserted since the last save: no record on file names it,
            # so the insert is forgotten rather than a removal recorded.
            del self._pending["doc_ids"][doc_id]
        else:
            self._pending["removed"].append(doc_id)

    def _indexed(self, doc_id):
        """Whether a variant catalogs ``doc_id`` (they all do, or none)."""
        return any(doc_id in variant.catalog
                   for variant in self._variants.values())

    def _docid_entry(self, variant, lps, doc_id):
        """The ``(key, value)`` Docid entry of ``doc_id`` in ``variant``.

        Walks the document's stored LPS down the virtual trie, but only
        until the current node's Docid range fits one Docid leaf (checked
        before each label, the root's too); that leaf, or the terminal's
        whole range, is then scanned for ``doc_id``.  Every lookup
        resumes from a finger of this walk.  Raises ``KeyError`` when
        there is no entry: the document's insert underflowed.
        """
        docids = variant.docid_index
        fingers = {}
        near = None
        left, right = variant.root_range
        for level, label in enumerate(lps):
            fits, near = docids.fits_one_leaf(left, right, near)
            if fits:
                break
            child = variant.symbol_index.child(label, left, right, level,
                                               fingers)
            if child is None:
                raise _no_docid_entry(variant, doc_id)
            left, right, _ = child
        entry = docids.entry_of(doc_id, left, right, near)
        if entry is None:
            raise _no_docid_entry(variant, doc_id)
        return entry

    def export_documents(self):
        """Reconstruct every indexed document from its stored sequences.

        Uses the Regular-Prufer records when available (the extended
        records would reproduce the dummy children); this is what
        :meth:`rebuilt` feeds back into :meth:`build`.
        """
        name = (VARIANT_REGULAR if VARIANT_REGULAR in self._variants
                else next(iter(self._variants)))
        variant = self._variants[name]
        loader = self._view_loader(variant)
        documents = []
        for doc_id in self._doc_ids:
            view = loader(doc_id)
            lps = [view.labels[view.nps[i]]
                   for i in range(1, view.n_nodes)]
            internal = set(view.nps[1:view.n_nodes])
            leaves = [(view.labels[i], i)
                      for i in range(1, view.n_nodes + 1)
                      if i not in internal]
            document = reconstruct_document(lps, view.nps[1:view.n_nodes],
                                            leaves, doc_id=doc_id)
            if variant.extended:
                document = _strip_dummies(document)
            documents.append(document)
        return documents

    def layout_options(self, **overrides):
        """The :class:`IndexOptions` that lay a new index out like this
        one: its variants, page and pool size, and the labeling
        parameters its catalog records -- the same for an index just
        built and for one reopened from its file.  ``overrides`` set
        the deployment fields (``path``, ``durable``, ``guard``, ...).
        """
        return IndexOptions(variants=tuple(self._variants),
                            page_size=self._pool.page_size,
                            pool_pages=self._pool.capacity,
                            **self._layout, **overrides)

    def rebuilt(self, options=None):
        """Build a fresh, compact index holding the same documents.

        The recovery path after :class:`RebuildRequiredError`: documents
        are reconstructed from their stored sequences (no access to the
        original XML needed) and indexed from scratch, by default under
        :meth:`layout_options` in memory.  Returns the new index; the
        old one remains readable.
        """
        return PrixIndex.build(self.export_documents(),
                               options or self.layout_options())

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def commit(self):
        """Seal the current mutation batch in the write-ahead log.

        No-op (returning None) on a non-durable index; otherwise returns
        the commit record's LSN.  Under the default ``commit`` fsync
        policy the batch is durable when this returns.

        Note that a recovered index is reconstructed from the metadata
        written by :meth:`save`, so committing a mutation *without* a
        save makes page changes durable that the recovered catalog
        cannot see.  The durable mutation protocol is
        ``insert_document()``/``delete_document()`` followed by
        :meth:`save` (which commits everything in one batch) -- exactly
        what the ``prix insert``/``prix delete`` commands do.
        """
        return self._pool.commit()

    def checkpoint(self):
        """Flush everything, fsync the data file, truncate the log.

        After a checkpoint the data file alone is a complete, consistent
        index and recovery has nothing to replay.  Requires
        ``durable=True``.
        """
        self._pool.checkpoint()

    @property
    def durable(self):
        """Whether this index runs with a write-ahead log attached."""
        return self._pool.wal is not None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self):
        """Persist what changed and flush everything to the backing file.

        The page payloads (B+-trees, records) already live in the pager
        file; this appends one catalog record and moves the superblock
        to it, then syncs.  The first save writes the whole catalog
        (label dictionary, per-variant catalogs, MaxGap tables, trie
        statistics).  Every later one writes only what the mutators
        noted since -- appended and removed document ids, new labels,
        per variant the catalog / MaxGap / label-count entries that were
        set, and the trie statistics -- under a ``parent`` key naming
        the record it continues, so its cost follows the mutations, not
        the collection (Section 5.2.1).  Nothing noted, no record.  Once
        such a chain would outweigh its root it is folded: the whole
        catalog is written again, parentless, and :meth:`open` never
        reads more than twice what one whole catalog takes.
        """
        pending = self._pending
        blob = None
        whole = self._head is None
        if not whole and any((
                pending["doc_ids"], pending["removed"], pending["labels"],
                *(entries for touched in pending["variants"].values()
                  for entries in touched.values()))):
            for variant in self._variants.values():
                variant.pending["trie_stats"] = asdict(variant.trie_stats)
            blob = json.dumps({"parent": self._head, **pending,
                               "doc_ids": list(pending["doc_ids"])}
                              ).encode("utf-8")
            whole = (self._catalog_bytes - self._root_bytes + len(blob)
                     > self._root_bytes)
        if whole:
            blob = self._whole_catalog()
            self._catalog_records = self._catalog_bytes = 0
            self._root_bytes = len(blob)
        if blob is not None:
            self._head = self._records.append(blob)
            self._catalog_records += 1
            self._catalog_bytes += len(blob)
            self._clear_pending()
            frame = bytearray(self._pool.page_size)
            _SUPERBLOCK.pack_into(frame, 0, _SUPER_MAGIC, *self._head,
                                  self._pool.page_size)
            self._pool.put(0, frame)
        self._pool.flush()
        self._pool.sync()

    def _whole_catalog(self):
        """The parentless catalog record: everything :meth:`_fold` needs
        to describe this index to an empty one."""
        meta = {
            "version": 1,
            "doc_ids": list(self._doc_ids),
            "labels": self._labels._by_id,
            "variants": {},
            **self._layout,
        }
        for name, variant in self._variants.items():
            meta["variants"][name] = {
                "extended": variant.extended,
                "symbol_meta": variant.symbol_index.tree.meta_page_id,
                "docid_meta": variant.docid_index.tree.meta_page_id,
                "root_range": list(variant.root_range),
                "maxgap": variant.maxgap.as_dict(),
                "label_counts": variant.label_counts,
                "catalog": variant.catalog,
                "trie_stats": asdict(variant.trie_stats),
            }
        return json.dumps(meta).encode("utf-8")

    @classmethod
    def open(cls, path, pool_pages=None, durable=None, wal_path=None,
             wal_sync=SYNC_COMMIT, guard=None, guard_path=None,
             backend="file"):
        """Reattach to an index previously built with a ``path`` and
        :meth:`save`\\ d.

        When a write-ahead log is present (``{path}.wal`` by default, or
        ``wal_path``), the committed log tail is replayed into the data
        file *before* the superblock is read, so an index torn by a
        crash opens in its last committed state.  ``durable=None``
        auto-detects from the log file's existence; ``durable=True``
        keeps logging on the reopened index, ``durable=False`` skips
        both recovery and logging.

        ``guard`` follows the same convention for the checksum sidecar
        (``{path}.sum`` by default, or ``guard_path``): ``None``
        auto-detects an existing sidecar, ``True`` opens (creating if
        needed) one, ``False`` reads unverified.

        ``backend`` selects the substrate: ``"file"`` (writable, the
        default), ``"mmap"`` (read-only serving), or ``"arena"`` (a
        warm in-memory snapshot of the whole file: no disk I/O after
        open, mutations die with the process).  Recovery still
        runs for a torn mmap/arena open -- it is a pre-open pass over
        the path -- but the log is not reattached; every mutation on an
        mmap-served index raises
        :class:`~repro.storage.errors.ReadOnlyBackendError`.
        """
        wal_path, guard_path = sidecar_paths(path, wal_path, guard_path)
        if durable is None:
            durable = os.path.exists(wal_path)
        if guard is None:
            guard = os.path.exists(guard_path)
        if durable:
            # Before the superblock is read: an index torn by a crash
            # opens in its last committed state.
            recover_path(path, wal_path, guard_path=guard_path)
        page, offset, length, stored_page_size = cls._read_superblock(path)
        pool = open_backend(path, stored_page_size, pool_pages=pool_pages,
                            kind=backend,
                            durable=durable and backend == "file",
                            wal_path=wal_path, wal_sync=wal_sync,
                            guard=guard, guard_path=guard_path)
        try:
            return cls._attach(pool, page, offset, length)
        except BaseException:
            pool.close()    # nothing else holds the just-opened backend
            raise

    @classmethod
    def _read_superblock(cls, path):
        """:meth:`_parse_superblock` of the first bytes of ``path``,
        checked against the file they claim to describe.

        Sanctioned raw read, the only one of an index file outside
        storage: the superblock must be sniffed before a backend exists
        (it stores the page size the backend needs).  It is a 28-byte
        header, not page traffic -- the catalog record it locates is
        read through the pool -- so no counted page access is bypassed.

        No checksum can vouch for these bytes yet (the guard needs the
        page size too), so a page size the file is not a whole number
        of, or a catalog record lying past its end, is refused here as
        :class:`~repro.storage.errors.SuperblockError` rather than left
        to surface as whatever the pager or the pool makes of it.
        """
        with open(path, "rb") as handle:  # prixlint: disable=no-raw-io
            header = handle.read(_SUPERBLOCK.size)
            size = os.fstat(handle.fileno()).st_size
        page, offset, length, page_size = cls._parse_superblock(header, path)
        if (page_size <= 0 or size % page_size
                or page * page_size + offset + length > size):
            raise SuperblockError(
                f"{path}: superblock does not describe this file (page "
                f"size {page_size}, catalog record at page {page}, offset "
                f"{offset}, length {length}; file is {size} bytes)")
        return page, offset, length, page_size

    @staticmethod
    def _parse_superblock(header, origin):
        """Validate superblock bytes; return (page, offset, length,
        page_size).

        Raises :class:`~repro.storage.errors.SuperblockError` (a
        ``ValueError`` subclass, so pre-existing handlers keep working)
        when the bytes are not a PRIX superblock.
        """
        if len(header) < _SUPERBLOCK.size:
            raise SuperblockError(f"{origin} does not contain a PRIX index")
        magic, page, offset, length, stored_page_size = \
            _SUPERBLOCK.unpack(header)
        if magic != _SUPER_MAGIC:
            raise SuperblockError(f"{origin} does not contain a PRIX index")
        return page, offset, length, stored_page_size

    @classmethod
    def _attach(cls, pool, page, offset, length):
        """Rebuild the in-memory index from a located catalog record:
        walk its ``parent`` links back to the parentless root, then fold
        the records forward into an empty index.

        An unguarded file hands damaged metadata bytes back without
        complaint; whatever they then fail to parse as is reported as
        :class:`~repro.storage.errors.SuperblockError` -- corruption,
        as ``prix scrub`` calls the same file -- not as a bare
        ``JSONDecodeError``/``KeyError``.  So is a ``parent`` that does
        not lie strictly before its child in the append-only record
        store, which is also what makes the walk end.
        """
        records = RecordStore(pool)
        index = cls(pool, records, LabelDict(), {}, [],
                    {key: getattr(IndexOptions, key) for key in _LAYOUT_KEYS})
        rid = index._head = (page, offset, length)
        chain = []
        try:
            while rid is not None:
                record = json.loads(records.read(rid))
                chain.append(record)
                index._catalog_bytes += rid[2]
                index._root_bytes = rid[2]      # the last one read stays
                parent = record.get("parent")
                if parent is not None:
                    at, start, size = parent
                    if not (at > 0 and 0 <= start < pool.page_size
                            and size > 0
                            and at * pool.page_size + start + size
                            <= rid[0] * pool.page_size + rid[1]):
                        raise ValueError(
                            f"parent {parent} does not lie before its "
                            f"child {list(rid)}")
                    parent = (at, start, size)
                rid = parent
            index._catalog_records = len(chain)
            for record in reversed(chain):
                index._fold(record)
        except StorageError:
            raise       # already typed (guard verdicts, transient reads)
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise SuperblockError(
                f"catalog unreadable: the metadata record at (page {page}, "
                f"offset {offset}, length {length}) does not describe a "
                f"PRIX index ({type(error).__name__}: {error})") from error
        index._clear_pending()
        return index

    def _fold(self, record):
        """Fold the next catalog record of a chain into this index
        (trusting its types no further than it must to stay typed).

        The one reader of a record: a parentless one, folded into the
        empty index, sets everything; a chained one removes, appends
        and sets what its :meth:`save` had pending.
        """
        for doc_id in record.get("removed", ()):
            del self._doc_ids[doc_id]
            for variant in self._variants.values():
                del variant.catalog[doc_id]
        self._doc_ids.update(dict.fromkeys(record["doc_ids"]))
        for label in record["labels"]:
            self._labels.id_of(label)
        self._layout.update((key, record[key]) for key in _LAYOUT_KEYS
                            if key in record)
        # A file written while the catalog also located a per-node
        # allocation B+-tree carries its "alloc_meta" key: not read, as
        # the Trie-Symbol index holds the same scope state.
        for name, data in record["variants"].items():
            if name not in self._variants:
                variant = _VariantIndex(name=name, extended=data["extended"])
                variant.symbol_index = TrieSymbolIndex(
                    BPlusTree.attach(self._pool, data["symbol_meta"]))
                variant.docid_index = DocidIndex(
                    BPlusTree.attach(self._pool, data["docid_meta"]))
                variant.root_range = tuple(data["root_range"])
                self._variants[name] = variant
            variant = self._variants[name]
            for label, span in data["maxgap"].items():
                variant.maxgap.merge_span(label, span)
            variant.label_counts.update(data["label_counts"])
            for doc_id, (page, offset, length) in data["catalog"].items():
                variant.catalog[int(doc_id)] = (page, offset, length)
            variant.trie_stats = TrieStats(**data["trie_stats"])

    def close(self):
        """Flush and close the backing storage stack (pool, log, file).

        Delegates to :meth:`FilePagerBackend.close
        <repro.storage.backend.FilePagerBackend.close>`, which commits
        and orders the log ahead of the data pages, fsyncs the data
        file (closing is a durability point), and releases every
        handle.
        """
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @classmethod
    def _build_variant(cls, name, documents, options, pool, records,
                       label_dict):
        extended = name == VARIANT_EXTENDED
        variant = _VariantIndex(name=name, extended=extended)
        sequence_of = extended_sequence if extended else regular_sequence
        sequences = []
        sequence_gaps = []

        for document in documents:
            seq = sequence_of(document)
            gaps = position_gaps(seq)
            sequences.append(seq.lps)
            sequence_gaps.append(gaps)
            _merge_maxgap(variant.maxgap, seq.lps, gaps)
            blob = _encode_document(seq, label_dict)
            variant.catalog[document.doc_id] = records.append(blob)

        labeler = (DynamicLabeler() if options.labeler == "dynamic"
                   else BulkDFSLabeler())
        trie = labeler.label(sequences, [doc.doc_id for doc in documents],
                             TrieSymbolIndex, DocidIndex, sequence_gaps)
        variant.root_range = trie.root_range
        variant.label_counts.update(trie.label_counts)
        variant.symbol_index = TrieSymbolIndex(
            BPlusTree.bulk_load(pool, trie.symbol_entries))
        variant.docid_index = DocidIndex(
            BPlusTree.bulk_load(pool, trie.docid_entries))

        stats = variant.trie_stats
        stats.node_count = trie.node_count
        stats.path_count = trie.path_count
        stats.sequence_count = len(sequences)
        stats.max_path_sharing = trie.max_path_sharing
        stats.total_sequence_length = sum(map(len, sequences))
        return variant

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def doc_count(self):
        """Number of indexed documents."""
        return len(self._doc_ids)

    @property
    def io_stats(self):
        """The storage stack's I/O counters (shared by all variants)."""
        return self._pool.stats

    def variants(self):
        """Names of the built variants ('rp', 'ep')."""
        return tuple(self._variants)

    def trie_stats(self, variant):
        """Build-time trie statistics for a variant."""
        return self._variants[variant].trie_stats

    def maxgap_table(self, variant):
        """The MaxGap table of a variant."""
        return self._variants[variant].maxgap

    def summary(self):
        """JSON-ready description (``prix stats --json``, the serving
        tier's per-mount rows)."""
        variants = {}
        for name, variant in self._variants.items():
            stats = variant.trie_stats
            variants[name] = {"sequences": stats.sequence_count,
                              "total_symbols": stats.total_sequence_length,
                              "trie_nodes": stats.node_count,
                              "paths": stats.path_count,
                              "max_path_sharing": stats.max_path_sharing,
                              "insertion_slack": leaves_slack(
                                  self._layout["labeler"], stats)}
        return {"documents": self.doc_count, "variants": variants,
                "catalog_records": self._catalog_records,
                "catalog_bytes": self._catalog_bytes}

    def next_doc_id(self):
        """The smallest doc id above every indexed document."""
        return max(self._doc_ids, default=0) + 1

    def explain(self, pattern, variant=None):
        """The plan text of :func:`repro.prix.explain.explain`."""
        from repro.prix.explain import explain
        return explain(self, pattern, variant=variant)

    def flush_cache(self):
        """Write back and drop every cached page (cold-cache measurement)."""
        self._pool.flush_and_clear()

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------

    def choose_variant(self, pattern):
        """The planner's variant for a twig pattern or prepared query
        (:func:`~repro.prix.matcher.variant_choice`)."""
        return variant_choice(prepare(pattern), self._variants)[0]

    def query(self, pattern, *, ordered=False, variant=None,
              use_maxgap=True, strategy="auto", maxgap_granularity="label",
              budget=None):
        """Find all occurrences of a twig; return a
        :class:`~repro.prix.matcher.QueryResult` (a list of
        ``TwigMatch``).

        Args:
            pattern: a :class:`~repro.query.twig.TwigPattern`, an XPath
                string, or a :class:`~repro.prix.matcher.PreparedQuery`
                (plans built by an earlier query on it are reused).
            ordered: require the twig's branch order in matches
                (default False: unordered semantics, Section 5.7).
            variant: force ``"rp"`` or ``"ep"``; default lets the
                optimizer decide.
            use_maxgap: apply Theorem 4 pruning (default on).
            strategy: ``"trie"`` / ``"auto"`` -- see
                :func:`repro.prix.matcher.run_query`.
            maxgap_granularity: ``"label"`` (one MaxGap bound per
                label, the paper's table) or ``"node"`` (Section 5.4's
                finer per-trie-node gaps, stored in every index).
            budget: a :class:`~repro.prix.budget.QueryBudget` (or an
                already-started ``BudgetMeter``).  If refinement runs
                out of budget the result comes back with
                ``approximate=True`` -- a guaranteed superset of the
                exact answer's documents, never a silent wrong answer;
                running out during filtering raises
                :class:`~repro.prix.budget.BudgetExceededError`.
        """
        matches, _ = self.query_with_stats(
            pattern, ordered=ordered, variant=variant,
            use_maxgap=use_maxgap, strategy=strategy,
            maxgap_granularity=maxgap_granularity, budget=budget)
        return matches

    def query_with_stats(self, pattern, *, ordered=False, variant=None,
                         use_maxgap=True, strategy="auto",
                         maxgap_granularity="label", cold=False,
                         budget=None):
        """Like :meth:`query` but also return a ``QueryStats``.

        ``cold=True`` flushes the buffer pool first, so ``physical_reads``
        reports cold-cache page I/O the way the paper measures it.
        """
        from repro.prix.budget import QueryBudget
        if isinstance(pattern, str):
            pattern = parse_xpath(pattern)
        query = prepare(pattern)
        if cold:
            self.flush_cache()
        meter = budget
        if isinstance(budget, QueryBudget):
            meter = (None if budget.unlimited
                     else budget.meter(io_stats=self._pool.stats))
        stats = QueryStats()
        reads_before = self._pool.stats.read("physical_reads")
        started = time.perf_counter()
        matches, stats = run_query(
            query, self._variants, variant,
            lambda variant_index: self._view_loader(variant_index, stats),
            ordered=ordered, use_maxgap=use_maxgap, strategy=strategy,
            maxgap_granularity=maxgap_granularity, stats=stats,
            budget=meter)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.physical_reads = (self._pool.stats.read("physical_reads")
                                - reads_before)
        return matches, stats

    def _view_loader(self, variant_index, stats=None):
        """The ``doc_id -> DocView`` callable of one variant.  A view is
        decoded once per residency of its record's first page
        (:meth:`RecordStore.read_decoded`) and then shared, read-only;
        ``stats`` (a ``QueryStats``) counts the loads that decoded."""
        catalog = variant_index.catalog
        read_decoded = self._records.read_decoded

        def load(doc_id):
            rid = catalog[doc_id]

            def decode(blob):
                if stats is not None:
                    stats.documents_decoded += 1
                return _decode_document(doc_id, rid, blob, self._labels,
                                        variant_index.extended)
            return read_decoded(rid, decode)
        return load


def scrub_path(path, wal_path=None, guard_path=None, stamp_missing=False):
    """Health of the index file at ``path``: every page swept through
    the checksum guard, then the catalog attached exactly as
    :meth:`PrixIndex.open` attaches it.  Returns a
    :class:`~repro.storage.guard.ScrubReport`; nothing is raised for
    damage, so the caller gets the whole picture (``prix scrub``, the
    serving tier's ``/healthz``).

    The log at ``wal_path`` is *not* replayed: its committed images only
    serve as the read-repair source, as in live operation.  Without a
    checksum sidecar every page reports unstamped, and none is created
    unless ``stamp_missing`` asks to adopt the pages from their current
    content after the sweep.

    ``catalog_ok`` is :meth:`PrixIndex._attach`'s verdict on the swept
    bytes, so a healthy report means ``open`` succeeds on them.  A file
    without a superblock is still swept, under the page size its sidecar
    records.
    """
    wal_path, guard_path = sidecar_paths(path, wal_path, guard_path)
    report = ScrubReport(target=path)
    try:
        page, offset, length, page_size = PrixIndex._read_superblock(path)
    except SuperblockError as error:
        report.catalog_ok, report.catalog_error = False, str(error)
        page_size = sidecar_page_size(guard_path)
    guard = stamp_missing or os.path.exists(guard_path)
    with open_backend(path, page_size, pool_pages=8,
                      durable=os.path.exists(wal_path), wal_path=wal_path,
                      guard=guard, guard_path=guard_path) as pool:
        pool.scrub(report, stamp_missing=stamp_missing)
        if report.catalog_ok is None:
            try:
                PrixIndex._attach(pool, page, offset, length)
                report.catalog_ok = True
            except StorageError as error:
                report.catalog_ok, report.catalog_error = False, str(error)
    return report


def _no_docid_entry(variant, doc_id):
    return KeyError(f"document {doc_id} has no {variant.name} Docid entry: "
                    "its stored sequence is missing from the trie (index "
                    "needs a rebuild?)")


def _check_doc_id(doc_id):
    """Refuse a document id the Docid index cannot hold, before the
    index is touched."""
    if (isinstance(doc_id, bool) or not isinstance(doc_id, int)
            or not 0 <= doc_id <= MAX_DOC_ID):
        raise ValueError(f"document id {doc_id!r} is not an integer in "
                         f"0..{MAX_DOC_ID}")


def _strip_dummies(document):
    """Remove Extended-Prufer dummy leaves and renumber."""
    from repro.xmlkit.tree import Document
    for node in document.nodes_in_postorder():
        node.children = [child for child in node.children
                         if not child.is_dummy]
    return Document(document.root, doc_id=document.doc_id)


def _merge_maxgap(table, labels, gaps):
    """Merge one sequence's child spans into the MaxGap table; return
    the ``{label: span}`` entries it widened.

    ``gaps`` is :func:`~repro.prufer.maxgap.position_gaps` of the
    sequence whose LPS is ``labels``: the children of node ``p`` are
    exactly the positions where ``p`` occurs in the NPS (Lemma 1), so
    each position carries its parent's label and first-to-last child
    span, and spans are computable without revisiting the tree.  A
    parent's later positions repeat a span already merged, so entries
    widen in the order of their parents' first positions.
    """
    widened = {}
    for label, span in zip(labels, gaps):
        if span > table.get(label):
            table.merge_span(label, span)
            widened[label] = span
    return widened


def _encode_document(seq, label_dict):
    """Serialize (NPS, LPS label ids, leaf list) into one varint blob."""
    numbers = [seq.n_nodes]
    numbers.extend(seq.nps)
    numbers.extend(label_dict.id_of(label) for label in seq.lps)
    numbers.append(len(seq.leaves))
    for label, postorder in seq.leaves:
        numbers.append(label_dict.id_of(label))
        numbers.append(postorder)
    return encode_varints(numbers)


def _decode_document(doc_id, rid, blob, label_dict, extended):
    """Rebuild a :class:`DocView` from a stored document blob.

    A malformed blob (an unguarded index damaged at rest) raises
    :class:`~repro.storage.errors.RecordCorruptionError`, never a bare
    ``IndexError`` and never a view refinement could index past or loop
    in: the counts must add up to the blob's length, label ids must be
    known, leaf postorders lie in ``1..n_nodes`` and every parent
    numbers above its child (postorder; parent-chain walks terminate).
    """
    try:
        numbers = decode_varints(blob)
        n_nodes = numbers[0]
        leaf_at = 2 * n_nodes - 1
        leaves = numbers[leaf_at + 1:]
        well_formed = n_nodes > 0 and len(leaves) == 2 * numbers[leaf_at]
        if well_formed:
            label_of = label_dict._by_id
            parents = numbers[1:n_nodes]
            labels = [None] * (n_nodes + 1)
            for parent, label_id in zip(parents, numbers[n_nodes:leaf_at]):
                labels[parent] = label_of[label_id]
            for label_id, postorder in zip(leaves[0::2], leaves[1::2]):
                labels[postorder] = label_of[label_id]
            # A parent or leaf numbered 0 lands in the unused slot 0.
            well_formed = labels[0] is None and not any(
                map(operator.le, parents, range(1, n_nodes)))
    except (IndexError, ValueError):    # numbers out of range / truncated
        well_formed = False
    if not well_formed:
        raise RecordCorruptionError(doc_id, rid)
    return DocView(doc_id, [0] + parents + [0], labels, extended)
