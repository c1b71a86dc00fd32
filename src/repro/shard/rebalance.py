"""Shard rebalance and compaction (docs/SHARDING.md, rebalance protocol).

Incremental churn skews a shard set two ways: routing sends new
documents to edge shards until their ranges bloat, and deletes leave
dead trie nodes and stored records behind (the monolithic
:meth:`PrixIndex.delete_document` contract).  :func:`rebalance` re-cuts
the corpus into near-equal doc-id ranges and :func:`compact` rebuilds
every shard from its live documents; both are offline operations on a
shard *directory* and publish their result as a new manifest
**generation**.  Maintenance is by replacement: a shard whose doc-id
set is unchanged keeps its file, every other shard is bulk-built into
the next generation's file name (:func:`~repro.shard.builder.build_jobs`),
and no byte of a published file is ever rewritten -- replaced files are
unlinked only after the new manifest is live, and the serving tier
picks the new generation up as an ordinary hot reload
(docs/SERVING.md).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

from repro.prix.index import PrixIndex
from repro.shard.builder import (build_jobs, partition_documents,
                                 sweep_unlisted)
from repro.shard.catalog import (ShardCatalog, ShardEntry, ShardError,
                                 shard_file_name)
from repro.storage import sidecar_paths


@dataclass(frozen=True)
class RebalanceReport:
    """What a rebalance/compaction did to each shard."""

    directory: str
    generation: int
    shards: int
    doc_count: int
    reused: int         # shards kept byte-identical
    rebuilt: int        # shards bulk-built into a new file
    moved_documents: int    # documents in the rebuilt shards
    elapsed_seconds: float

    def as_dict(self):
        return dataclasses.asdict(self)


def rebalance(directory, *, shards=None, workers=1, options=None,
              force_rebuild=False):
    """Re-cut ``directory``'s corpus into near-equal doc-id ranges.

    Args:
        directory: an existing shard directory (``prixshard.json``).
        shards: target shard count (default: keep the current count).
        workers: build processes for rebuilt shards (1 = inline).
        options: :class:`IndexOptions` template for rebuilt shards;
            by default the first shard's own layout
            (:meth:`PrixIndex.layout_options`: variants, page size,
            labeler and its parameters), durable / guarded as that
            shard's sidecar files say it is.
        force_rebuild: rebuild every shard even when its document set
            is unchanged (this is :func:`compact`).

    Returns a :class:`RebalanceReport`.  Publishes a bumped-generation
    manifest and unlinks replaced shard files afterwards; a run that
    dies before the publish leaves the current generation untouched.
    """
    started = time.perf_counter()
    catalog = ShardCatalog.load(directory)
    if not catalog.entries:
        raise ShardError(f"{directory}: manifest lists no shards")
    generation = catalog.generation + 1

    corpus = []
    unchanged = {}      # doc ids of a current shard -> its file
    for entry in catalog.entries:
        path = catalog.path_for(entry)
        with PrixIndex.open(path) as index:
            if options is None:
                wal, sum_ = sidecar_paths(path)
                options = index.layout_options(
                    durable=os.path.exists(wal),
                    guard=os.path.exists(sum_))
            docs = index.export_documents()
        corpus.extend(docs)
        if not force_rebuild:
            unchanged[tuple(sorted(doc.doc_id for doc in docs))] = entry.file

    entries = []
    jobs = []
    chunks = partition_documents(
        corpus, shards if shards is not None else len(catalog.entries))
    for ordinal, chunk in enumerate(chunks):
        doc_ids = tuple(doc.doc_id for doc in chunk)
        file = unchanged.get(doc_ids)
        if file is None:
            file = shard_file_name(ordinal, generation)
            jobs.append((os.path.join(directory, file), chunk))
        entries.append(ShardEntry(
            name=f"shard-{ordinal:04d}", file=file, low=doc_ids[0],
            high=doc_ids[-1], doc_count=len(doc_ids)))
    build_jobs(jobs, options, workers)

    new_catalog = catalog.next_generation(entries)
    new_catalog.save()
    sweep_unlisted(directory, {entry.file for entry in entries})
    return RebalanceReport(
        directory=directory, generation=generation,
        shards=len(entries), doc_count=new_catalog.doc_count,
        reused=len(entries) - len(jobs), rebuilt=len(jobs),
        moved_documents=sum(len(chunk) for _, chunk in jobs),
        elapsed_seconds=time.perf_counter() - started)


def compact(directory, *, workers=1, options=None):
    """Rebuild every shard from its live documents.

    The shard-set analogue of :meth:`PrixIndex.rebuilt`: dead trie
    nodes and deleted documents' records are dropped, ranges are re-cut
    evenly, and the result is published as a new manifest generation.
    """
    return rebalance(directory, workers=workers, options=options,
                     force_rebuild=True)
