"""Serving-tier integration for shard directories (docs/SHARDING.md).

The registry mounts a shard directory exactly like a single index file
(``tests/test_serve_registry.py`` runs its lease/reload/health cases
over both kinds); here is what only a shard set has: the shard count in
``/indexes``, the per-shard ``/metrics`` breakdown, the tree-scrub
verdict, and a hot reload that picks up a new catalog generation
written by ``prix rebalance``.
"""

import pytest

from repro.datasets import dblp
from repro.serve.registry import IndexRegistry
from repro.shard import build_shards, rebalance

PATTERN = "//inproceedings//author"


@pytest.fixture(scope="module")
def corpus():
    return dblp(n_records=40, seed=5).documents


@pytest.fixture
def shard_dir(corpus, tmp_path):
    target = str(tmp_path / "shards")
    build_shards(corpus, target, shards=2)
    return target


@pytest.fixture
def registry(shard_dir):
    registry = IndexRegistry()
    registry.mount("default", shard_dir, backend="mmap")
    yield registry
    registry.close_all()


def test_describe_reports_shard_count(registry):
    row = registry.describe()["default"]
    assert row["shards"] == 2
    assert row["generation"] == 1


def test_health_parses_cached_tree_scrub(registry):
    row = registry.health()["default"]
    assert row["healthy"] is True
    assert row["scrub"]["catalog_ok"] is True
    assert row["scrub"]["index_count"] == 2


def test_stats_break_down_per_shard(registry):
    with registry.lease("default") as mount:
        mount.index.query(PATTERN)
    row = registry.stats()["default"]
    assert len(row["shards"]) == 2
    assert row["scatter"]["queries"] == 1
    assert row["physical_reads"] == sum(shard["physical_reads"]
                                        for shard in row["shards"])


def test_reload_swaps_in_rebalanced_generation(registry, shard_dir,
                                               corpus):
    before = None
    with registry.lease("default") as mount:
        before = [(m.doc_id, m.images) for m in mount.index.query(PATTERN)]
    report = rebalance(shard_dir, shards=4, workers=1)
    assert report.generation == 2
    assert registry.reload("default") == 2
    row = registry.describe()["default"]
    assert row["generation"] == 2
    assert row["shards"] == 4
    with registry.lease("default") as mount:
        assert mount.index.catalog.generation == 2
        after = [(m.doc_id, m.images) for m in mount.index.query(PATTERN)]
    assert after == before

