"""Storage backend seam tests: substrate parity, dispatch, read-only mmap.

The PR 7 acceptance bar: the paper's "Disk IO pages" accounting and the
query results must be byte-identical whether the pager holds a real
file or an in-memory buffer, and the mmap serving backend must answer
identically while refusing every mutation with the typed
:class:`ReadOnlyBackendError`.  Since PR 19 every kind is the one
:class:`Pager` over a different file-like object; the conformance and
leak tests at the bottom pin that.
"""

import gc
import os
import warnings
from contextlib import contextmanager

import pytest

from repro.datasets import dblp
from repro.prix.index import IndexOptions, PrixIndex
from repro.storage.backend import FilePagerBackend, open_backend
from repro.storage.errors import (PageOverflowError, ReadOnlyBackendError,
                                  StorageError, WalCorruptionError, WalError)
from repro.storage.guard import PageGuard
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog
from repro.xmlkit.tree import Document, element

QUERIES = ['//inproceedings[./author="Jim Gray"][./year="1990"]',
           "//www[./editor]/url",
           "//inproceedings/author",
           "//article[./volume]/year"]

#: Small pool so the workload actually evicts and re-reads pages.
TIGHT_POOL = 16

#: Every IOStats counter, compared wholesale across substrates.
COUNTERS = ("physical_reads", "physical_writes", "logical_reads",
            "evictions", "allocations", "wal_appends", "wal_fsyncs",
            "wal_bytes", "guard_verifications", "guard_repairs",
            "guard_quarantines")


def _build(path):
    """Index over a real file at ``path``, or an in-memory buffer (None)."""
    corpus = dblp(120)
    options = IndexOptions(path=path, pool_pages=TIGHT_POOL)
    return PrixIndex.build(corpus.documents, options)


def _counters(index):
    stats = index.io_stats
    return {name: stats.read(name) for name in COUNTERS}


def _run_queries(index):
    """(result sets, per-query physical read deltas) for the workload."""
    results, reads = [], []
    for xpath in QUERIES:
        matches, stats = index.query_with_stats(xpath, cold=True)
        results.append({(m.doc_id, m.canonical) for m in matches})
        reads.append(stats.physical_reads)
    return results, reads


@contextmanager
def no_leaked_handles():
    """Fail when the block leaves an open file behind (what
    ``-W error::ResourceWarning`` reports at collection)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(warning.message) for warning in caught
             if issubclass(warning.category, ResourceWarning)]
    assert not leaks, leaks


class TestSubstrateParity:
    def test_disk_io_and_results_identical_file_vs_arena(self, tmp_path):
        """The acceptance bar: byte-identical accounting across substrates."""
        file_index = _build(str(tmp_path / "prix.idx"))
        arena_index = _build(None)
        try:
            file_results, file_reads = _run_queries(file_index)
            arena_results, arena_reads = _run_queries(arena_index)
            assert file_results == arena_results
            assert file_reads == arena_reads
            assert _counters(file_index) == _counters(arena_index)
        finally:
            file_index.close()
            arena_index.close()

    def test_build_stats_identical(self, tmp_path):
        file_index = _build(str(tmp_path / "prix.idx"))
        arena_index = _build(None)
        try:
            file_stats = _counters(file_index)
            arena_stats = _counters(arena_index)
            assert file_stats == arena_stats
            assert file_stats["allocations"] > 0
        finally:
            file_index.close()
            arena_index.close()


class TestBackendDispatch:
    def test_open_backend_mmap_kind(self, tmp_path):
        path = str(tmp_path / "pages.db")
        backend = open_backend(path, 64)
        pid, _ = backend.new_page()
        backend.put(pid, b"\x42" * 64)
        backend.close()
        served = open_backend(path, 64, kind="mmap")
        try:
            assert type(served) is FilePagerBackend
            assert served.kind == "mmap"
            assert bytes(served.get(pid)) == b"\x42" * 64
        finally:
            served.close()


class TestMmapReadOnly:
    @pytest.fixture()
    def served(self, tmp_path):
        path = str(tmp_path / "pages.db")
        writer = open_backend(path, 64)
        for fill in (b"\x01", b"\x02", b"\x03"):
            pid, _ = writer.new_page()
            writer.put(pid, fill * 64)
        writer.close()
        backend = open_backend(path, 64, pool_pages=2, kind="mmap")
        yield backend
        backend.close()

    def test_reads_serve_mapped_bytes(self, served):
        assert bytes(served.get(0)) == b"\x01" * 64
        assert bytes(served.get(2)) == b"\x03" * 64
        assert served.num_pages == 3

    def test_reads_are_counted(self, served):
        served.flush_and_clear()
        served.get(0)
        served.get(0)
        assert served.stats.physical_reads == 1
        assert served.stats.logical_reads == 2

    def test_every_mutator_raises_typed_error(self, served):
        with pytest.raises(ReadOnlyBackendError):
            served.put(0, b"\x00" * 64)
        with pytest.raises(ReadOnlyBackendError):
            served.new_page()
        with pytest.raises(ReadOnlyBackendError):
            served.mark_dirty(0)
        with pytest.raises(ReadOnlyBackendError):
            served.attach_wal(object())

    def test_rejected_mutation_leaves_page_intact(self, served):
        with pytest.raises(ReadOnlyBackendError):
            served.put(1, b"\xff" * 64)
        assert bytes(served.get(1)) == b"\x02" * 64

    def test_pager_rejects_misaligned_file(self, tmp_path):
        path = tmp_path / "ragged.db"
        path.write_bytes(b"\x00" * 100)
        with no_leaked_handles():
            with pytest.raises(ValueError):
                Pager.mapped(str(path), page_size=64)

    @pytest.mark.parametrize("constructor", [Pager.open, Pager.snapshot],
                             ids=["file", "snapshot"])
    def test_writable_pager_rejects_misaligned_file(self, tmp_path,
                                                    constructor):
        path = tmp_path / "ragged.db"
        path.write_bytes(b"\x00" * 100)
        with no_leaked_handles():
            with pytest.raises(ValueError):
                constructor(str(path), page_size=64)

    def test_empty_file_has_no_pages(self, tmp_path):
        path = tmp_path / "empty.db"
        path.write_bytes(b"")
        with no_leaked_handles():
            pager = Pager.mapped(str(path), page_size=64)
            assert pager.num_pages == 0
            with pytest.raises(ReadOnlyBackendError):
                pager.allocate()
            pager.close()


class TestMmapServing:
    def test_mmap_index_answers_identically(self, tmp_path):
        corpus = dblp(120)
        path = str(tmp_path / "prix.idx")
        built = PrixIndex.build(corpus.documents, IndexOptions(path=path))
        want = {}
        for xpath in QUERIES:
            want[xpath] = {(m.doc_id, m.canonical)
                           for m in built.query(xpath)}
        built.save()
        built.close()
        served = PrixIndex.open(path, backend="mmap")
        try:
            assert served._pool.kind == "mmap"
            for xpath, expected in want.items():
                got = {(m.doc_id, m.canonical)
                       for m in served.query(xpath)}
                assert got == expected, xpath
        finally:
            served.close()

    def test_mmap_index_refuses_inserts(self, tmp_path, fig2_doc):
        corpus = dblp(40)
        path = str(tmp_path / "prix.idx")
        built = PrixIndex.build(corpus.documents, IndexOptions(path=path))
        built.save()
        built.close()
        served = PrixIndex.open(path, backend="mmap")
        fresh = Document(fig2_doc.root, doc_id=10_000)
        try:
            with pytest.raises(ReadOnlyBackendError):
                served.insert_document(fresh)
        finally:
            served.close()

    def test_mmap_refused_delete_changes_no_answer(self, tmp_path):
        # The B+-tree leaf the pool memoises is shared by every reader:
        # a delete the backend refuses must not have shortened it first.
        path = str(tmp_path / "prix.idx")
        with PrixIndex.build(dblp(120).documents,
                             IndexOptions(path=path)) as built:
            built.save()
        served = PrixIndex.open(path, backend="mmap")
        try:
            xpath = "//inproceedings/author"
            want = {(m.doc_id, m.canonical) for m in served.query(xpath)}
            count = served.doc_count
            assert 1 in {doc_id for doc_id, _ in want}
            with pytest.raises(ReadOnlyBackendError):
                served.delete_document(1)
            assert {(m.doc_id, m.canonical)
                    for m in served.query(xpath)} == want
            assert served.doc_count == count
        finally:
            served.close()


class TestArenaServing:
    def test_open_backend_arena_kind_is_a_detached_snapshot(self, tmp_path):
        path = tmp_path / "pages.db"
        writer = open_backend(str(path), 64)
        pid, _ = writer.new_page()
        writer.put(pid, b"\x42" * 64)
        writer.close()
        served = open_backend(str(path), 64, kind="arena")
        try:
            assert type(served) is FilePagerBackend
            assert served.kind == "arena"
            # The snapshot is detached: the source file can vanish and
            # every page still answers from process memory.
            path.unlink()
            assert bytes(served.get(pid)) == b"\x42" * 64
        finally:
            served.close()

    def test_open_backend_arena_refuses_durable(self, tmp_path):
        path = str(tmp_path / "pages.db")
        open_backend(path, 64).close()
        with pytest.raises(ReadOnlyBackendError) as caught:
            open_backend(path, 64, kind="arena", durable=True)
        assert "cannot attach a write-ahead log" in str(caught.value)

    def test_open_backend_rejects_unknown_kind(self, tmp_path):
        path = str(tmp_path / "pages.db")
        open_backend(path, 64).close()
        with pytest.raises(ValueError,
                           match="expected 'file', 'arena' or 'mmap'"):
            open_backend(path, 64, kind="carrier-pigeon")

    def test_arena_index_answers_identically(self, tmp_path):
        corpus = dblp(120)
        path = str(tmp_path / "prix.idx")
        built = PrixIndex.build(corpus.documents, IndexOptions(path=path))
        want = {}
        for xpath in QUERIES:
            want[xpath] = {(m.doc_id, m.canonical)
                           for m in built.query(xpath)}
        built.save()
        built.close()
        served = PrixIndex.open(path, backend="arena")
        try:
            assert isinstance(served._pool, FilePagerBackend)
            assert served._pool.kind == "arena"
            for xpath, expected in want.items():
                got = {(m.doc_id, m.canonical)
                       for m in served.query(xpath)}
                assert got == expected, xpath
        finally:
            served.close()


class TestOpenBackendKinds:
    """Every open-time kind is the one ``Pager`` over a different
    file-like object, and a refused open leaves nothing behind."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = str(tmp_path / "pages.db")
        writer = open_backend(path, 64)
        pid, _ = writer.new_page()
        writer.put(pid, b"\x42" * 64)
        writer.close()
        return path

    @pytest.mark.parametrize("kind", ["file", "arena", "mmap"])
    def test_kind_is_a_plain_pager(self, saved, kind):
        backend = open_backend(saved, 64, kind=kind, guard=True)
        try:
            assert backend.kind == kind
            assert type(backend._pager) is Pager
            assert bytes(backend.get(0)) == b"\x42" * 64
            assert backend.stats.physical_reads == 1
            assert backend.stats.allocations == 0
        finally:
            backend.close()

    def test_mmap_pager_refuses_every_write_path(self, saved):
        backend = open_backend(saved, 64, kind="mmap")
        try:
            pager = backend._pager
            with pytest.raises(ReadOnlyBackendError):
                pager.allocate()
            with pytest.raises(ReadOnlyBackendError):
                pager.write(0, b"\x00" * 64)
            with pytest.raises(ReadOnlyBackendError):
                pager.repair_write(0, b"\x00" * 64)
            assert bytes(pager.read_raw(0)) == b"\x42" * 64
        finally:
            backend.close()

    @pytest.mark.parametrize("kwargs, error", [
        (dict(kind="carrier-pigeon"), ValueError),
        (dict(kind="arena", durable=True), ReadOnlyBackendError),
        (dict(kind="mmap", durable=True), ReadOnlyBackendError),
    ], ids=["unknown-kind", "arena-durable", "mmap-durable"])
    def test_refused_open_leaves_no_sidecar_and_no_handle(
            self, saved, tmp_path, kwargs, error):
        before = sorted(os.listdir(tmp_path))
        with no_leaked_handles():
            with pytest.raises(error):
                open_backend(saved, 64, guard=True, **kwargs)
        assert sorted(os.listdir(tmp_path)) == before

    def test_refused_log_leaves_no_handle(self, saved):
        """A scrub attaches whatever log lies beside the file; one that
        is not a PRIX log must not cost the data file's handles."""
        with open(saved + ".wal", "wb") as handle:
            handle.write(b"not a write-ahead log")
        with no_leaked_handles():
            with pytest.raises(WalCorruptionError):
                open_backend(saved, 64, durable=True, guard=True)

    @pytest.mark.parametrize("kind", ["file", "arena", "mmap"])
    def test_misaligned_file_leaves_no_sidecar_and_no_handle(
            self, tmp_path, kind):
        path = tmp_path / "ragged.db"
        path.write_bytes(b"\x00" * 100)
        with no_leaked_handles():
            with pytest.raises(ValueError):
                open_backend(str(path), 64, kind=kind, guard=True)
        assert os.listdir(tmp_path) == ["ragged.db"]

    def test_refused_build_unlinks_exactly_what_it_created(self, tmp_path):
        """A stale log for another page size refuses the build; the
        zero-length index file and the freshly stamped sidecar it used
        to leave behind would poison the path for the next build."""
        path = str(tmp_path / "new.idx")
        WriteAheadLog.open(path + ".wal", 1024).close()
        documents = dblp(12).documents

        def options(page_size):
            return IndexOptions(path=path, durable=True, guard=True,
                                page_size=page_size)

        with no_leaked_handles():
            with pytest.raises(WalError, match="page size 1024, not 256"):
                PrixIndex.build(documents, options(256))
        assert os.listdir(tmp_path) == ["new.idx.wal"]   # ours, untouched
        with PrixIndex.build(documents, options(1024)) as index:
            assert index.doc_count == 12

    def test_build_failing_after_the_wiring_unlinks_what_it_created(
            self, tmp_path):
        """The build gets past ``open_backend`` and then fails: a 400-byte
        label outgrows a 256-byte page.  Its handles are closed and its
        three files unlinked, so the same path builds on the retry."""
        path = str(tmp_path / "long.idx")
        options = IndexOptions(path=path, durable=True, guard=True,
                               page_size=256)
        with no_leaked_handles():
            with pytest.raises(PageOverflowError):
                PrixIndex.build(
                    [Document(element("a", element("t" * 400)), doc_id=1)],
                    options)
        assert os.listdir(tmp_path) == []
        with PrixIndex.build(dblp(12).documents, options) as index:
            assert index.doc_count == 12

    def test_refused_open_keeps_files_that_were_there(self, tmp_path):
        """The other half: a sidecar for another page size refuses the
        open, and neither it nor the (empty) data file is removed."""
        path = tmp_path / "pages.db"
        path.write_bytes(b"")
        PageGuard.open(str(path) + ".sum", 1024).close()
        with no_leaked_handles():
            with pytest.raises(StorageError, match="page size 1024"):
                open_backend(str(path), 64, guard=True, durable=True)
        assert sorted(os.listdir(tmp_path)) == ["pages.db", "pages.db.sum"]
