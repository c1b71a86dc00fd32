"""Pager unit tests."""

import pytest

from repro.storage.errors import PageNotFoundError, PageRangeError
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager


class TestAllocation:
    def test_starts_empty(self):
        with Pager.in_memory() as pager:
            assert pager.num_pages == 0

    def test_allocate_returns_sequential_ids(self):
        with Pager.in_memory() as pager:
            assert [pager.allocate() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_allocation_counted(self):
        with Pager.in_memory() as pager:
            pager.allocate()
            assert pager.stats.allocations == 1


class TestReadWrite:
    def test_write_then_read(self):
        with Pager.in_memory(page_size=128) as pager:
            pid = pager.allocate()
            payload = bytes(range(128))
            pager.write(pid, payload)
            assert bytes(pager.read(pid)) == payload

    def test_new_page_is_zeroed(self):
        with Pager.in_memory(page_size=64) as pager:
            pid = pager.allocate()
            assert bytes(pager.read(pid)) == b"\x00" * 64

    def test_read_counts_physical_io(self):
        with Pager.in_memory() as pager:
            pid = pager.allocate()
            pager.read(pid)
            pager.read(pid)
            assert pager.stats.physical_reads == 2

    def test_write_counts_physical_io(self):
        with Pager.in_memory(page_size=32) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\x01" * 32)
            assert pager.stats.physical_writes == 1

    def test_read_unallocated_raises(self):
        with Pager.in_memory() as pager:
            with pytest.raises(PageNotFoundError):
                pager.read(0)

    def test_write_wrong_size_raises(self):
        with Pager.in_memory(page_size=64) as pager:
            pid = pager.allocate()
            with pytest.raises(ValueError):
                pager.write(pid, b"short")

    def test_default_page_size_matches_paper(self):
        assert DEFAULT_PAGE_SIZE == 8192


class TestFileBacked:
    def test_open_create_write_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        with Pager.open(path, page_size=64) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\x07" * 64)
            pager.sync()
        with Pager.open(path, page_size=64) as pager:
            assert pager.num_pages == 1
            assert bytes(pager.read(pid)) == b"\x07" * 64

    def test_reopen_with_wrong_page_size_raises(self, tmp_path):
        path = str(tmp_path / "store.db")
        with Pager.open(path, page_size=64) as pager:
            pager.allocate()
            pager.sync()
        with pytest.raises(ValueError):
            Pager.open(path, page_size=48)


class TestPageRange:
    """Out-of-range page ids raise the typed PageRangeError -- which is
    both a PageNotFoundError (storage taxonomy) and an IndexError
    (sequence idiom), so either catch-site keeps working."""

    def test_read_past_end_raises_page_range_error(self):
        with Pager.in_memory(page_size=64) as pager:
            pager.allocate()
            with pytest.raises(PageRangeError):
                pager.read(1)

    def test_write_past_end_raises_page_range_error(self):
        with Pager.in_memory(page_size=64) as pager:
            pager.allocate()
            with pytest.raises(PageRangeError):
                pager.write(5, b"\x00" * 64)

    def test_negative_page_id_raises(self):
        with Pager.in_memory(page_size=64) as pager:
            pager.allocate()
            with pytest.raises(PageRangeError):
                pager.read(-1)

    def test_range_error_is_page_not_found(self):
        with Pager.in_memory(page_size=64) as pager:
            with pytest.raises(PageNotFoundError):
                pager.read(0)

    def test_range_error_is_index_error(self):
        with Pager.in_memory(page_size=64) as pager:
            with pytest.raises(IndexError):
                pager.read(0)

    def test_error_names_the_bounds(self):
        with Pager.in_memory(page_size=64) as pager:
            pager.allocate()
            with pytest.raises(PageRangeError, match=r"\[0, 1\)"):
                pager.write(9, b"\x00" * 64)

    def test_non_int_page_id_rejected(self):
        with Pager.in_memory(page_size=64) as pager:
            pager.allocate()
            with pytest.raises(PageRangeError):
                pager.read(True)

    def test_in_range_unaffected(self):
        with Pager.in_memory(page_size=64) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\x01" * 64)
            assert bytes(pager.read(pid)) == b"\x01" * 64


class TestBackendSubstrates:
    """Pager-level edges driven through the storage backend seam.

    The ``make_backend`` fixture parametrizes every test here over a
    pager holding a real file and one holding an in-memory buffer; the
    assertions use exact counter values, so the two substrates must
    move IOStats identically, not merely similarly.
    """

    def test_new_page_ids_sequential(self, make_backend):
        backend = make_backend(page_size=64)
        assert [backend.new_page()[0] for _ in range(4)] == [0, 1, 2, 3]

    def test_new_page_zeroed(self, make_backend):
        backend = make_backend(page_size=64)
        _, frame = backend.new_page()
        assert bytes(frame) == b"\x00" * 64

    def test_put_get_roundtrip_through_cold_cache(self, make_backend):
        backend = make_backend(page_size=64)
        pid, _ = backend.new_page()
        payload = bytes(range(64))
        backend.put(pid, payload)
        backend.flush_and_clear()
        assert bytes(backend.get(pid)) == payload

    def test_get_out_of_range_raises_typed_error(self, make_backend):
        backend = make_backend(page_size=64)
        backend.new_page()
        with pytest.raises(PageRangeError):
            backend.get(7)

    def test_non_int_page_id_rejected(self, make_backend):
        backend = make_backend(page_size=64)
        backend.new_page()
        with pytest.raises(PageRangeError):
            backend.get(True)

    def test_negative_page_id_rejected(self, make_backend):
        backend = make_backend(page_size=64)
        backend.new_page()
        with pytest.raises(PageRangeError):
            backend.get(-1)

    def test_range_error_is_page_not_found(self, make_backend):
        backend = make_backend(page_size=64)
        with pytest.raises(PageNotFoundError):
            backend.get(0)

    def test_allocations_counted(self, make_backend):
        backend = make_backend(page_size=64)
        backend.new_page()
        backend.new_page()
        assert backend.stats.allocations == 2

    def test_physical_reads_counted_after_cold_clear(self, make_backend):
        backend = make_backend(page_size=64)
        pid, _ = backend.new_page()
        backend.flush_and_clear()
        backend.get(pid)
        backend.get(pid)
        assert backend.stats.physical_reads == 1
        assert backend.stats.logical_reads == 2

    def test_num_pages_tracks_allocation(self, make_backend):
        backend = make_backend(page_size=64)
        assert backend.num_pages == 0
        backend.new_page()
        backend.flush()
        assert backend.num_pages == 1

    def test_page_size_exposed(self, make_backend):
        backend = make_backend(page_size=128)
        assert backend.page_size == 128
