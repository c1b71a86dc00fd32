"""Unit tests for the parallel shard builder (docs/SHARDING.md).

The builder's contract is determinism: the partition is a pure function
of the doc-id set and the bytes on disk are independent of the worker
count -- a ``--workers 4`` build is ``filecmp``-identical to a serial
one.  And a shard file is written once, into a path no published
manifest lists; whatever a manifest does not list is swept.
"""

import filecmp
import os

import pytest

from repro.datasets import dblp
from repro.prix.index import IndexOptions
from repro.shard import (ShardCatalog, ShardError, build_shards,
                         partition_documents)


@pytest.fixture(scope="module")
def corpus():
    return dblp(n_records=24, seed=11).documents


class TestPartition:
    def test_covers_all_docs_disjointly(self, corpus):
        chunks = partition_documents(corpus, 4)
        ids = [doc.doc_id for chunk in chunks for doc in chunk]
        assert sorted(ids) == sorted(doc.doc_id for doc in corpus)
        assert len(set(ids)) == len(ids)

    def test_chunks_are_contiguous_and_near_equal(self, corpus):
        chunks = partition_documents(corpus, 5)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        # Contiguous by doc id: every chunk's max is below the next
        # chunk's min.
        for left, right in zip(chunks, chunks[1:]):
            assert max(d.doc_id for d in left) < min(d.doc_id
                                                     for d in right)

    def test_partition_is_input_order_independent(self, corpus):
        forward = partition_documents(corpus, 3)
        backward = partition_documents(list(reversed(corpus)), 3)
        key = lambda chunks: [[d.doc_id for d in c] for c in chunks]
        assert key(forward) == key(backward)

    def test_rejects_bad_shapes(self, corpus):
        with pytest.raises(ShardError):
            partition_documents(corpus, 0)
        with pytest.raises(ShardError):
            partition_documents(corpus, len(corpus) + 1)
        with pytest.raises(ShardError):
            partition_documents(corpus + [corpus[0]], 2)  # dup id


class TestBuild:
    def test_build_writes_manifest_and_shards(self, corpus, tmp_path):
        target = str(tmp_path / "shards")
        report = build_shards(corpus, target, shards=3)
        assert report.doc_count == len(corpus)
        assert len(report.shards) == 3
        catalog = ShardCatalog.load(target)
        assert catalog.generation == 1
        assert [entry.doc_count for entry in catalog.entries] == \
            [stats.doc_count for stats in report.shards]
        for entry in catalog.entries:
            assert os.path.exists(catalog.path_for(entry))

    def test_existing_manifest_needs_overwrite(self, corpus, tmp_path):
        target = str(tmp_path / "shards")
        build_shards(corpus, target, shards=2)
        with pytest.raises(ShardError):
            build_shards(corpus, target, shards=2)
        build_shards(corpus, target, shards=2, overwrite=True)

    def test_overwrite_leaves_exactly_the_listed_files(self, corpus,
                                                       tmp_path):
        """Orphans of a crashed rebalance (a ``.g2`` file and its
        sidecars) and of a wider previous build do not survive."""
        target = str(tmp_path / "shards")
        build_shards(corpus, target, shards=3)
        for orphan in ("shard-0001.g2.idx", "shard-0001.g2.idx.wal",
                       "shard-0001.g2.idx.sum"):
            with open(os.path.join(target, orphan), "wb") as handle:
                handle.write(b"half-written")
        build_shards(corpus, target, shards=2, overwrite=True)
        catalog = ShardCatalog.load(target)
        assert sorted(os.listdir(target)) == sorted(
            ["prixshard.json"] + [entry.file for entry in catalog.entries])

    def test_published_file_is_never_a_build_target(self, corpus,
                                                    tmp_path):
        from repro.shard.builder import build_jobs
        target = str(tmp_path / "shards")
        build_shards(corpus, target, shards=2)
        catalog = ShardCatalog.load(target)
        path = catalog.path_for(catalog.entries[0])
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(ShardError, match="never rewritten"):
            build_jobs([(path, corpus[:3])], IndexOptions())
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_parallel_build_is_byte_identical(self, corpus, tmp_path):
        serial = str(tmp_path / "serial")
        parallel = str(tmp_path / "parallel")
        build_shards(corpus, serial, shards=4, workers=1)
        build_shards(corpus, parallel, shards=4, workers=4)
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(parallel))
        for name in names:
            assert filecmp.cmp(os.path.join(serial, name),
                               os.path.join(parallel, name),
                               shallow=False), f"{name} differs"

    def test_file_factory_cannot_cross_processes(self, corpus, tmp_path):
        options = IndexOptions(file_factory=open)
        with pytest.raises(ShardError):
            build_shards(corpus, str(tmp_path / "s"), shards=2,
                         workers=2, options=options)
