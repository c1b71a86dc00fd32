"""Partitioned PRIX: per-shard indexes behind one query surface.

The shard subsystem (docs/SHARDING.md) cuts a corpus into contiguous
doc-id ranges, builds one complete single-file PRIX index per range,
and makes the set a first-class index:

- :class:`ShardCatalog` -- the checksummed ``prixshard.json`` manifest
  (ranges, files, generations) published atomically;
- :func:`build_shards` -- the parallel builder (one process per
  worker, WAL/guard unchanged, bytes independent of worker count);
- :class:`ShardedIndex` -- scatter-gather querying with exact
  :meth:`QueryBudget.split` budget slicing, headroom redistribution,
  and a merge that preserves the no-false-alarm guarantee
  (``approximate=True`` iff any shard degraded);
- :func:`rebalance` / :func:`compact` -- generation-bumping
  maintenance by replacement (reuse an unchanged shard, rebuild the
  rest into fresh files, swap the manifest);
- :func:`scrub_shards` -- manifest-aware directory health for ``prix
  scrub`` and the serving tier's ``/healthz``;
- :func:`open_index` / :func:`scrub_index` -- open or scrub whatever
  lives at a path, index file or shard directory, so no front end has
  to tell the two apart.

Layering (``LAYERS`` in ``tests/test_source_invariants.py``): the
``shard`` layer sits beside the serving tier -- atop foundation,
logical, and storage-api -- and the serving tier may import it
(``IndexRegistry`` mounts shard directories).
"""

from repro.shard.builder import (ShardBuildReport, ShardBuildStats,
                                 build_shards, partition_documents)
from repro.shard.catalog import (MANIFEST_NAME, ShardCatalog,
                                 ShardCatalogError, ShardEntry,
                                 ShardError, is_shard_directory)
from repro.shard.health import scrub_index, scrub_shards
from repro.shard.rebalance import RebalanceReport, compact, rebalance
from repro.shard.sharded import ShardedIndex, open_index

__all__ = [
    "MANIFEST_NAME",
    "RebalanceReport",
    "ShardBuildReport",
    "ShardBuildStats",
    "ShardCatalog",
    "ShardCatalogError",
    "ShardEntry",
    "ShardError",
    "ShardedIndex",
    "build_shards",
    "compact",
    "is_shard_directory",
    "open_index",
    "partition_documents",
    "rebalance",
    "scrub_index",
    "scrub_shards",
]
