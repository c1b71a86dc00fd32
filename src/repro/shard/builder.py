"""Partitioned, parallel index construction (docs/SHARDING.md).

:func:`build_shards` splits a corpus into contiguous doc-id ranges,
builds one complete single-file PRIX index per range -- WAL, checksum
guard, and labeler discipline unchanged from the monolithic path -- and
publishes the set with a checksummed :class:`ShardCatalog` manifest.

Parallelism is process-level (``workers > 1``): building a shard is
CPU-bound Prufer-sequence and B+-tree work with no shared state, so
each shard ships to a worker process as *serialized XML text* (the
xmlkit round trip, cheaper and shallower than pickling a deep node
tree), is re-parsed, indexed, and saved there.  A build is
deterministic -- a shard's bytes are a pure function of its documents
and options -- so the output is identical no matter how many workers
ran or in what order they finished.

A shard file is written exactly once: :func:`build_jobs`, the one job
runner behind :func:`build_shards` and
:func:`~repro.shard.rebalance.rebalance`, builds it into a path no
published manifest lists, and :func:`sweep_unlisted` removes whatever a
newly published manifest no longer names.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

from repro.prix.index import IndexOptions, PrixIndex
from repro.shard.catalog import (MANIFEST_NAME, ShardCatalog, ShardEntry,
                                 ShardError, is_shard_directory,
                                 shard_file_name)
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize


@dataclass(frozen=True)
class ShardBuildStats:
    """What one shard's build cost and produced."""

    name: str
    doc_count: int
    low: int
    high: int
    build_seconds: float
    trie_nodes: int
    index_bytes: int


@dataclass(frozen=True)
class ShardBuildReport:
    """The whole build: per-shard stats plus wall-clock totals."""

    directory: str
    shards: tuple       # tuple[ShardBuildStats]
    workers: int
    elapsed_seconds: float

    @property
    def doc_count(self):
        return sum(stats.doc_count for stats in self.shards)


def partition_documents(documents, shards):
    """Split ``documents`` into ``shards`` contiguous doc-id ranges.

    Documents are sorted by doc id and cut into near-equal chunks
    (sizes differ by at most one, larger chunks first), so the split is
    a pure function of the doc-id set -- the same corpus partitions
    identically on every machine and at every worker count.
    """
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}")
    docs = sorted(documents, key=lambda doc: doc.doc_id)
    ids = [doc.doc_id for doc in docs]
    if len(set(ids)) != len(ids):
        raise ShardError("document ids must be unique across shards")
    if shards > len(docs):
        raise ShardError(f"cannot cut {len(docs)} document(s) into "
                         f"{shards} non-empty shards")
    base, spill = divmod(len(docs), shards)
    chunks = []
    start = 0
    for ordinal in range(shards):
        size = base + (1 if ordinal < spill else 0)
        chunks.append(docs[start:start + size])
        start += size
    return chunks


def _shard_options(options, path):
    """The per-shard :class:`IndexOptions`: the template with the path
    (and path-derived sidecars) rebound to this shard's file."""
    return dataclasses.replace(options, path=path, wal_path=None,
                               guard_path=None)


def _options_payload(options):
    """A picklable dict form of :class:`IndexOptions` for the worker.

    ``file_factory`` is a testing hook holding arbitrary callables; a
    multiprocessing build cannot ship it and never needs to.
    """
    if options.file_factory is not None:
        raise ShardError("file_factory cannot cross a process boundary; "
                         "build with workers=1")
    payload = dataclasses.asdict(options)
    payload.pop("file_factory")
    return payload


def _build_one(documents, path, options):
    """Build, save, and close one shard; return its stats row."""
    started = time.perf_counter()
    index = PrixIndex.build(documents, _shard_options(options, path))
    try:
        index.save()
        trie_nodes = sum(index.trie_stats(variant).node_count
                         for variant in index.variants())
        doc_ids = [doc.doc_id for doc in documents]
    finally:
        index.close()
    return ShardBuildStats(
        name="", doc_count=len(documents), low=min(doc_ids),
        high=max(doc_ids), build_seconds=time.perf_counter() - started,
        trie_nodes=trie_nodes, index_bytes=os.path.getsize(path))


def _build_shard_worker(job):
    """Top-level worker entry point (must be picklable by name).

    ``job`` is ``(path, options_payload, docs_payload)`` where
    ``docs_payload`` is ``[(doc_id, xml_text), ...]`` -- the xmlkit
    round trip is the wire format, so the worker re-parses exactly the
    bytes the parent serialized.
    """
    path, options_payload, docs_payload = job
    options = IndexOptions(**options_payload)
    documents = [parse_document(text, doc_id)
                 for doc_id, text in docs_payload]
    return _build_one(documents, path, options)


def sweep_unlisted(directory, listed):
    """Unlink every ``shard-*.idx`` (and ``.wal`` / ``.sum`` sidecar) in
    ``directory`` whose index file name is not in ``listed``.

    The one place shard files are removed: run against the manifest
    just published it drops the generation that manifest replaced, and
    run against the live manifest before a build it drops whatever an
    interrupted run left behind.
    """
    for name in os.listdir(directory):
        stem, idx, _ = name.partition(".idx")
        if stem.startswith("shard-") and idx and stem + idx not in listed:
            os.unlink(os.path.join(directory, name))


def build_jobs(jobs, options, workers=1):
    """Build every ``(path, documents)`` job of one shard directory;
    return the :class:`ShardBuildStats` rows in job order.

    The only way a shard file gets written.  A target is always a path
    the directory's live manifest does not list (anything else is a
    :class:`ShardError`): leftovers of an interrupted run are swept
    first, so :meth:`PrixIndex.build` starts from a fresh file, and a
    reader of the published generation never sees a byte change.
    ``workers > 1`` ships the jobs to a process pool.
    """
    if not jobs:
        return []
    directory = os.path.dirname(jobs[0][0])
    listed = set()
    if is_shard_directory(directory):
        listed = {entry.file
                  for entry in ShardCatalog.load(directory).entries}
    for path, _ in jobs:
        if os.path.basename(path) in listed:
            raise ShardError(f"{path}: the published manifest lists this "
                             "file; shard files are never rewritten")
    sweep_unlisted(directory, listed)
    if workers <= 1 or len(jobs) == 1:
        return [_build_one(documents, path, options)
                for path, documents in jobs]
    payload = _options_payload(options)
    work = [(path, payload,
             [(doc.doc_id, serialize(doc)) for doc in documents])
            for path, documents in jobs]
    # Import here: the parent pays the multiprocessing import only
    # when it actually forks, and workers never re-import it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            max_workers=min(workers, len(work))) as executor:
        return list(executor.map(_build_shard_worker, work))


def build_shards(documents, directory, *, shards=1, workers=1,
                 options=None, overwrite=False):
    """Build a sharded index over ``documents`` in ``directory``.

    Args:
        documents: numbered :class:`~repro.xmlkit.tree.Document`\\ s.
        directory: target shard directory (created if missing).
        shards: how many doc-id-range partitions to cut.
        workers: build processes; 1 builds inline in this process.
        options: :class:`IndexOptions` template; ``path`` is ignored
            (each shard gets its own file inside ``directory``).
        overwrite: allow re-publishing over an existing manifest; the
            old manifest is withdrawn first, so the directory is not an
            index until the new one is published.

    Returns a :class:`ShardBuildReport`.  The partition, each shard's
    contents, and the manifest are all independent of ``workers``.
    """
    options = options or IndexOptions()
    chunks = partition_documents(documents, shards)
    os.makedirs(directory, exist_ok=True)
    if is_shard_directory(directory):
        if not overwrite:
            raise ShardError(f"{directory}: shard manifest already "
                             "exists (pass overwrite to rebuild)")
        os.unlink(os.path.join(directory, MANIFEST_NAME))

    files = [shard_file_name(ordinal) for ordinal in range(len(chunks))]
    started = time.perf_counter()
    rows = build_jobs([(os.path.join(directory, file), chunk)
                       for file, chunk in zip(files, chunks)],
                      options, workers)
    elapsed = time.perf_counter() - started

    rows = [dataclasses.replace(row, name=f"shard-{ordinal:04d}")
            for ordinal, row in enumerate(rows)]
    entries = tuple(ShardEntry(name=row.name, file=file, low=row.low,
                               high=row.high, doc_count=row.doc_count)
                    for row, file in zip(rows, files))
    catalog = ShardCatalog(directory=directory, entries=entries,
                           generation=1, page_size=options.page_size)
    catalog.save()
    return ShardBuildReport(directory=directory, shards=tuple(rows),
                            workers=workers, elapsed_seconds=elapsed)
