"""Shard rebalance and compaction (docs/SHARDING.md, rebalance protocol).

Incremental churn skews a shard set two ways: routing sends new
documents to edge shards until their ranges bloat, and deletes leave
dead trie nodes and stored records behind (the monolithic
:meth:`PrixIndex.delete_document` contract).  :func:`rebalance` re-cuts
the corpus into near-equal doc-id ranges and :func:`compact` rebuilds
every shard from its live documents; both are offline operations on a
shard *directory* and publish their result as a new manifest
**generation** -- shard files are never edited under a reader's feet,
replaced files are unlinked only after the new manifest is live, and
the serving tier picks the new generation up as an ordinary hot reload
(docs/SERVING.md).

Rebalance rides the incremental-update machinery where it can: when
the target cut moves only a few documents across a shard boundary, the
affected shards take ordinary Section 5.2.1 incremental deletes and
inserts instead of a rebuild; a shard whose labeler cannot absorb the
moves (:class:`~repro.prix.incremental.RebuildRequiredError`) falls
back to a fresh bulk build of just that shard.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import PrixIndex
from repro.shard.builder import _build_one, partition_documents, shard_seed
from repro.shard.catalog import (ShardCatalog, ShardEntry, ShardError,
                                 shard_file_name)
from repro.storage import sidecar_paths

#: Largest symmetric difference a shard absorbs incrementally; moving
#: more documents than this is cheaper as a bulk rebuild.
INCREMENTAL_MOVE_LIMIT = 8

#: Default seed for rebuilt shards' RNG streams (matches the builder).
DEFAULT_REBALANCE_SEED = 20040301


@dataclass(frozen=True)
class RebalanceReport:
    """What a rebalance/compaction did to each shard."""

    directory: str
    generation: int
    shards: int
    doc_count: int
    reused: int         # shards kept byte-identical
    incremental: int    # shards adjusted via insert/delete
    rebuilt: int        # shards bulk-rebuilt into a new file
    moved_documents: int
    elapsed_seconds: float

    def as_dict(self):
        return dataclasses.asdict(self)


def _try_incremental(index, current_docs, target_docs):
    """Absorb a small doc-set change via incremental insert/delete.

    Returns the number of moved documents on success, None when the
    change is too large or the shard demands a rebuild.
    """
    current = {doc.doc_id: doc for doc in current_docs}
    target = {doc.doc_id: doc for doc in target_docs}
    removed = sorted(set(current) - set(target))
    added = sorted(set(target) - set(current))
    moves = len(removed) + len(added)
    if moves == 0 or moves > INCREMENTAL_MOVE_LIMIT:
        return None
    try:
        for doc_id in removed:
            index.delete_document(doc_id)
        for doc_id in added:
            index.insert_document(target[doc_id])
    except RebuildRequiredError:
        return None
    index.save()
    return moves


def rebalance(directory, *, shards=None, workers=1, options=None,
              seed=DEFAULT_REBALANCE_SEED, force_rebuild=False):
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
        seed: root of rebuilt shards' RNG streams.
        force_rebuild: rebuild every shard even when its document set
            is unchanged (this is :func:`compact`).

    Returns a :class:`RebalanceReport`.  Publishes a bumped-generation
    manifest and unlinks replaced shard files afterwards.
    """
    started = time.perf_counter()
    catalog = ShardCatalog.load(directory)
    if not catalog.entries:
        raise ShardError(f"{directory}: manifest lists no shards")
    target_count = shards if shards is not None else len(catalog.entries)
    generation = catalog.generation + 1

    opened = {}
    try:
        for entry in catalog.entries:
            opened[entry.name] = PrixIndex.open(catalog.path_for(entry))
        if options is None:
            first = catalog.entries[0]
            wal, sum_ = sidecar_paths(catalog.path_for(first))
            options = opened[first.name].layout_options(
                durable=os.path.exists(wal), guard=os.path.exists(sum_))

        current_docs = {entry.name: list(opened[entry.name]
                                         .export_documents())
                        for entry in catalog.entries}
        corpus = [doc for entry in catalog.entries
                  for doc in current_docs[entry.name]]
        chunks = partition_documents(corpus, target_count)
        same_count = target_count == len(catalog.entries)

        entries = []
        reused = incremental = rebuilt = moved = 0
        rebuild_jobs = []   # (ordinal, chunk)
        for ordinal, chunk in enumerate(chunks):
            old_entry = (catalog.entries[ordinal] if same_count else None)
            chunk_ids = [doc.doc_id for doc in chunk]
            if old_entry is not None:
                old_docs = current_docs[old_entry.name]
                old_ids = [doc.doc_id for doc in old_docs]
                index = opened[old_entry.name]
                if chunk_ids == old_ids and not force_rebuild:
                    reused += 1
                    entries.append(ShardEntry(
                        name=f"shard-{ordinal:04d}", file=old_entry.file,
                        low=min(chunk_ids), high=max(chunk_ids),
                        doc_count=len(chunk_ids)))
                    continue
                if not force_rebuild:
                    moves = _try_incremental(index, old_docs, chunk)
                    if moves is not None:
                        incremental += 1
                        moved += moves
                        entries.append(ShardEntry(
                            name=f"shard-{ordinal:04d}",
                            file=old_entry.file,
                            low=min(chunk_ids), high=max(chunk_ids),
                            doc_count=len(chunk_ids)))
                        continue
            rebuild_jobs.append((ordinal, chunk))
            entries.append(ShardEntry(
                name=f"shard-{ordinal:04d}",
                file=shard_file_name(ordinal, generation),
                low=min(chunk_ids), high=max(chunk_ids),
                doc_count=len(chunk_ids)))
    finally:
        for index in opened.values():
            index.close()

    rebuilt = len(rebuild_jobs)
    moved += sum(len(chunk) for _, chunk in rebuild_jobs)
    _run_rebuilds(directory, rebuild_jobs, entries, options, seed,
                  generation, workers)

    new_catalog = catalog.next_generation(entries)
    new_catalog.save()
    _unlink_replaced(catalog, new_catalog)
    return RebalanceReport(
        directory=directory, generation=generation,
        shards=len(entries), doc_count=new_catalog.doc_count,
        reused=reused, incremental=incremental, rebuilt=rebuilt,
        moved_documents=moved,
        elapsed_seconds=time.perf_counter() - started)


def compact(directory, *, workers=1, options=None,
            seed=DEFAULT_REBALANCE_SEED):
    """Rebuild every shard from its live documents.

    The shard-set analogue of :meth:`PrixIndex.rebuilt`: dead trie
    nodes and deleted documents' records are dropped, ranges are re-cut
    evenly, and the result is published as a new manifest generation.
    """
    return rebalance(directory, workers=workers, options=options,
                     seed=seed, force_rebuild=True)


def _run_rebuilds(directory, jobs, entries, options, seed, generation,
                  workers):
    """Bulk-build the shards ``rebalance`` could not adjust in place."""
    if not jobs:
        return
    by_ordinal = {int(entry.name.split("-")[1]): entry
                  for entry in entries}
    if workers <= 1 or len(jobs) == 1:
        for ordinal, chunk in jobs:
            path = os.path.join(directory, by_ordinal[ordinal].file)
            _build_one(chunk, path, options, shard_seed(seed, ordinal))
        return
    from concurrent.futures import ProcessPoolExecutor

    from repro.shard.builder import (_build_shard_worker,
                                     _options_payload)
    from repro.xmlkit.serializer import serialize
    payload = _options_payload(options)
    work = [(os.path.join(directory, by_ordinal[ordinal].file),
             payload,
             [(doc.doc_id, serialize(doc)) for doc in chunk],
             shard_seed(seed, ordinal))
            for ordinal, chunk in jobs]
    with ProcessPoolExecutor(
            max_workers=min(workers, len(work))) as executor:
        list(executor.map(_build_shard_worker, work))


def _unlink_replaced(old_catalog, new_catalog):
    """Remove shard files (and sidecars) the new generation dropped."""
    kept = {entry.file for entry in new_catalog.entries}
    for entry in old_catalog.entries:
        if entry.file in kept:
            continue
        path = old_catalog.path_for(entry)
        for stale in (path, *sidecar_paths(path)):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
