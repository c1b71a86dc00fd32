"""Partitioned, parallel index construction (docs/SHARDING.md).

:func:`build_shards` splits a corpus into contiguous doc-id ranges,
builds one complete single-file PRIX index per range -- WAL, checksum
guard, and labeler discipline unchanged from the monolithic path -- and
publishes the set with a checksummed :class:`ShardCatalog` manifest.

Parallelism is process-level (``workers > 1``): building a shard is
CPU-bound Prufer-sequence and B+-tree work with no shared state, so
each shard ships to a worker process as *serialized XML text* (the
xmlkit round trip, cheaper and shallower than pickling a deep node
tree), is re-parsed, indexed, and saved there.  Every worker gets its
own deterministically derived seed and constructs a private seeded
``random.Random`` stream, so any stochastic choice made inside a
worker is a pure function of ``(corpus seed, shard ordinal)`` --
byte-identical output no matter how many workers ran or in what order
they finished.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass

from repro.prix.index import IndexOptions, PrixIndex
from repro.shard.catalog import (MANIFEST_NAME, ShardCatalog,
                                 ShardCatalogError, ShardEntry, ShardError,
                                 shard_file_name)
from repro.storage import sidecar_paths
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize

#: Default seed for the per-worker RNG streams (date of the paper's
#: conference, like the corpus generators).
DEFAULT_BUILD_SEED = 20040301


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
    salt: int   # first draw of the shard's seeded RNG stream


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


def shard_seed(seed, ordinal):
    """Deterministic per-shard RNG seed: mix the ordinal into the
    corpus seed with a large odd multiplier so neighbouring shards get
    well-separated streams."""
    return (seed * 1_000_003 + ordinal) & 0xFFFFFFFF


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


def _build_one(documents, path, options, seed):
    """Build, save, and close one shard; return its stats row."""
    rng = random.Random(seed)
    salt = rng.getrandbits(32)
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
        trie_nodes=trie_nodes, index_bytes=os.path.getsize(path),
        salt=salt)


def _build_shard_worker(job):
    """Top-level worker entry point (must be picklable by name).

    ``job`` is ``(path, options_payload, docs_payload, seed)`` where
    ``docs_payload`` is ``[(doc_id, xml_text), ...]`` -- the xmlkit
    round trip is the wire format, so the worker re-parses exactly the
    bytes the parent serialized.
    """
    path, options_payload, docs_payload, seed = job
    options = IndexOptions(**options_payload)
    documents = [parse_document(text, doc_id)
                 for doc_id, text in docs_payload]
    return _build_one(documents, path, options, seed)


def _clear_existing(directory):
    """Remove a previous generation before an ``overwrite`` rebuild.

    Shard files must not survive into the new build (``PrixIndex.build``
    requires a fresh file), so drop everything the old manifest lists --
    or, if the manifest is unreadable, anything matching the shard
    naming scheme -- plus WAL/checksum sidecars and the manifest itself.
    """
    try:
        old = ShardCatalog.load(directory)
        files = [entry.file for entry in old.entries]
    except ShardCatalogError:
        files = [name for name in os.listdir(directory)
                 if name.startswith("shard-") and ".idx" in name]
    for file in files:
        path = os.path.join(directory, file)
        for stale in (path, *sidecar_paths(path)):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
    os.unlink(os.path.join(directory, MANIFEST_NAME))


def build_shards(documents, directory, *, shards=1, workers=1,
                 options=None, seed=DEFAULT_BUILD_SEED, overwrite=False):
    """Build a sharded index over ``documents`` in ``directory``.

    Args:
        documents: numbered :class:`~repro.xmlkit.tree.Document`\\ s.
        directory: target shard directory (created if missing).
        shards: how many doc-id-range partitions to cut.
        workers: build processes; 1 builds inline in this process.
        options: :class:`IndexOptions` template; ``path`` is ignored
            (each shard gets its own file inside ``directory``).
        seed: root of the per-shard RNG streams.
        overwrite: allow re-publishing over an existing manifest.

    Returns a :class:`ShardBuildReport`.  The partition, each shard's
    contents, and the manifest are all independent of ``workers``.
    """
    options = options or IndexOptions()
    chunks = partition_documents(documents, shards)
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, "prixshard.json")
    if os.path.exists(manifest):
        if not overwrite:
            raise ShardError(f"{directory}: shard manifest already "
                             "exists (pass overwrite to rebuild)")
        _clear_existing(directory)

    names = [f"shard-{ordinal:04d}" for ordinal in range(len(chunks))]
    files = [shard_file_name(ordinal) for ordinal in range(len(chunks))]
    paths = [os.path.join(directory, file) for file in files]
    seeds = [shard_seed(seed, ordinal) for ordinal in range(len(chunks))]

    started = time.perf_counter()
    if workers <= 1 or len(chunks) == 1:
        rows = [_build_one(chunk, path, options, one_seed)
                for chunk, path, one_seed in zip(chunks, paths, seeds)]
    else:
        payload = _options_payload(options)
        jobs = [(path,
                 payload,
                 [(doc.doc_id, serialize(doc)) for doc in chunk],
                 one_seed)
                for chunk, path, one_seed in zip(chunks, paths, seeds)]
        # Import here: the parent pays the multiprocessing import only
        # when it actually forks, and workers never re-import it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs))) as executor:
            rows = list(executor.map(_build_shard_worker, jobs))
    elapsed = time.perf_counter() - started

    rows = [dataclasses.replace(row, name=name)
            for name, row in zip(names, rows)]
    entries = tuple(ShardEntry(name=row.name, file=file, low=row.low,
                               high=row.high, doc_count=row.doc_count)
                    for row, file in zip(rows, files))
    catalog = ShardCatalog(directory=directory, entries=entries,
                           generation=1, page_size=options.page_size)
    catalog.save()
    return ShardBuildReport(directory=directory, shards=tuple(rows),
                            workers=workers, elapsed_seconds=elapsed)
