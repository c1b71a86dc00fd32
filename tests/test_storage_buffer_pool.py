"""Buffer pool tests: caching, eviction, dirty write-back, accounting."""

import pytest

from repro.storage.buffer_pool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.errors import PageSizeError
from repro.storage.pager import Pager


def make_pool(capacity=4, page_size=64):
    pager = Pager.in_memory(page_size=page_size)
    return BufferPool(pager, capacity=capacity), pager


class TestCaching:
    def test_hit_avoids_physical_read(self):
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        pool.get(pid)
        pool.get(pid)
        assert pager.stats.physical_reads == 1
        assert pager.stats.logical_reads == 2

    def test_capacity_validated(self):
        pager = Pager.in_memory()
        with pytest.raises(ValueError):
            BufferPool(pager, capacity=0)

    def test_default_capacity_matches_paper(self):
        assert DEFAULT_POOL_PAGES == 2000


class TestEviction:
    def test_lru_eviction_order(self):
        pool, pager = make_pool(capacity=2)
        pids = [pool.new_page()[0] for _ in range(2)]
        pool.flush_and_clear()
        pool.get(pids[0])
        pool.get(pids[1])
        pool.get(pids[0])           # 0 is now most recent
        extra = pager.allocate()
        pool.get(extra)             # evicts pids[1]
        reads = pager.stats.physical_reads
        pool.get(pids[0])           # still cached
        assert pager.stats.physical_reads == reads
        pool.get(pids[1])           # was evicted
        assert pager.stats.physical_reads == reads + 1

    def test_dirty_page_written_on_eviction(self):
        pool, pager = make_pool(capacity=1, page_size=32)
        pid, frame = pool.new_page()
        frame[:4] = b"\xaa\xbb\xcc\xdd"
        pool.mark_dirty(pid)
        other = pager.allocate()
        pool.get(other)  # forces eviction of pid
        assert bytes(pager.read(pid))[:4] == b"\xaa\xbb\xcc\xdd"

    def test_evictions_counted(self):
        pool, pager = make_pool(capacity=1)
        pool.new_page()
        pool.new_page()
        assert pager.stats.evictions == 1


class TestDirtyTracking:
    def test_flush_writes_dirty_pages(self):
        pool, pager = make_pool(page_size=32)
        pid, frame = pool.new_page()
        frame[0] = 9
        pool.mark_dirty(pid)
        pool.flush()
        assert pager.read(pid)[0] == 9

    def test_put_replaces_contents(self):
        pool, pager = make_pool(page_size=8)
        pid, _ = pool.new_page()
        pool.put(pid, b"\x05" * 8)
        pool.flush()
        assert bytes(pager.read(pid)) == b"\x05" * 8

    def test_mark_dirty_requires_residency(self):
        pool, pager = make_pool(capacity=1)
        pid, _ = pool.new_page()
        pool.new_page()  # evicts pid
        with pytest.raises(KeyError):
            pool.mark_dirty(pid)

    def test_mark_dirty_after_cold_clear_raises(self):
        pool, _ = make_pool()
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        with pytest.raises(KeyError):
            pool.mark_dirty(pid)


class TestPutSizeValidation:
    """A short ``put`` must never shrink the frame that gets flushed."""

    def test_short_put_rejected(self):
        pool, _ = make_pool(page_size=8)
        pid, _ = pool.new_page()
        with pytest.raises(PageSizeError):
            pool.put(pid, b"\x05" * 3)

    def test_oversized_put_rejected(self):
        pool, _ = make_pool(page_size=8)
        pid, _ = pool.new_page()
        with pytest.raises(PageSizeError):
            pool.put(pid, b"\x05" * 9)

    def test_rejected_put_leaves_frame_intact(self):
        pool, pager = make_pool(page_size=8)
        pid, _ = pool.new_page()
        pool.put(pid, b"\xaa" * 8)
        with pytest.raises(PageSizeError):
            pool.put(pid, b"\xbb" * 2)
        pool.flush()
        assert bytes(pager.read(pid)) == b"\xaa" * 8

    def test_short_put_on_non_resident_page_rejected(self):
        pool, pager = make_pool(page_size=8)
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        with pytest.raises(PageSizeError):
            pool.put(pid, b"")


class TestDecodedCache:
    def test_decoder_called_once_while_resident(self):
        pool, _ = make_pool()
        pid, _ = pool.new_page()
        calls = []

        def decoder(page_id, frame):
            calls.append(page_id)
            return object()

        first = pool.get_decoded(pid, decoder)
        second = pool.get_decoded(pid, decoder)
        assert first is second
        assert calls == [pid]

    def test_decoded_dropped_on_put(self):
        pool, _ = make_pool(page_size=8)
        pid, _ = pool.new_page()
        pool.get_decoded(pid, lambda p, f: ("v", bytes(f)))
        pool.put(pid, b"\x01" * 8)
        value = pool.get_decoded(pid, lambda p, f: ("v2", bytes(f)))
        assert value == ("v2", b"\x01" * 8)

    def test_decoded_dropped_on_eviction(self):
        pool, pager = make_pool(capacity=1)
        pid, _ = pool.new_page()
        pool.get_decoded(pid, lambda p, f: "first")
        pool.new_page()  # evicts pid
        assert pool.get_decoded(pid, lambda p, f: "second") == "second"

    def test_cold_clear_forces_physical_reread(self):
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.get_decoded(pid, lambda p, f: "x")
        pool.flush_and_clear()
        before = pager.stats.physical_reads
        pool.get_decoded(pid, lambda p, f: "x")
        assert pager.stats.physical_reads == before + 1

    def test_dirty_eviction_writes_back_and_drops_decoded(self):
        # Evicting a *dirty* page must both persist the mutation and
        # invalidate the memoized decoded object, or a later get_decoded
        # would resurrect the pre-eviction view of the page.
        pool, pager = make_pool(capacity=1, page_size=8)
        pid, frame = pool.new_page()
        frame[:] = b"\x07" * 8
        pool.mark_dirty(pid)
        pool.get_decoded(pid, lambda p, f: ("old", bytes(f)))
        pool.new_page()  # evicts the dirty page
        assert bytes(pager.read(pid)) == b"\x07" * 8
        value = pool.get_decoded(pid, lambda p, f: ("new", bytes(f)))
        assert value == ("new", b"\x07" * 8)


class TestColdCache:
    def test_flush_and_clear_next_get_is_physical(self):
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.get(pid)  # resident, logical only
        before = pager.stats.physical_reads
        pool.flush_and_clear()
        assert pool.cached_pages == 0
        pool.get(pid)
        assert pager.stats.physical_reads == before + 1


class TestStatsDelta:
    def test_snapshot_delta(self):
        pool, pager = make_pool()
        snap = pager.stats.snapshot()
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        pool.get(pid)
        delta = pager.stats.delta(snap)
        assert delta.physical_reads == 1
        assert delta.allocations == 1

    def test_hit_ratio(self):
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        pager.stats.reset()
        pool.get(pid)
        pool.get(pid)
        assert pager.stats.hit_ratio == 0.5


class TestHitRatio:
    def test_no_traffic_returns_none(self):
        pool, pager = make_pool()
        assert pager.stats.hit_ratio is None

    def test_direct_pager_traffic_clamps_to_zero(self):
        # Reads issued straight through the pager (no logical read) used
        # to drive the ratio negative.
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        pager.stats.reset()
        pool.get(pid)          # 1 logical, 1 physical
        pager.read(pid)        # direct: physical only
        pager.read(pid)
        assert pager.stats.hit_ratio == 0.0

    def test_all_hits_is_one(self):
        pool, pager = make_pool()
        pid, _ = pool.new_page()
        pool.flush()
        pager.stats.reset()
        pool.get(pid)  # still resident: logical hit, no physical read
        assert pager.stats.hit_ratio == 1.0

    def test_never_exceeds_one(self):
        from repro.storage.stats import IOStats
        stats = IOStats(logical_reads=4, physical_reads=0)
        assert stats.hit_ratio == 1.0


class TestBackendParity:
    """Buffer-pool edge behaviour through the storage backend seam.

    Parametrized over the file and in-memory substrates by ``make_backend``;
    exact counter assertions force identical IOStats movement on both.
    """

    def test_lru_eviction_order(self, make_backend):
        backend = make_backend(page_size=64, pool_pages=2)
        pids = [backend.new_page()[0] for _ in range(2)]
        third, _ = backend.new_page()      # evicts pids[0] (LRU)
        backend.get(pids[1])               # still resident
        backend.get(third)                 # still resident
        reads = backend.stats.physical_reads
        backend.get(pids[0])               # was evicted: physical
        assert backend.stats.physical_reads == reads + 1

    def test_dirty_page_survives_eviction(self, make_backend):
        backend = make_backend(page_size=32, pool_pages=1)
        pid, frame = backend.new_page()
        frame[:4] = b"\xaa\xbb\xcc\xdd"
        backend.mark_dirty(pid)
        backend.new_page()                 # forces write-back of pid
        assert bytes(backend.get(pid))[:4] == b"\xaa\xbb\xcc\xdd"

    def test_evictions_counted(self, make_backend):
        backend = make_backend(page_size=64, pool_pages=1)
        backend.new_page()
        backend.new_page()
        assert backend.stats.evictions == 1

    def test_mark_dirty_requires_residency(self, make_backend):
        backend = make_backend(page_size=64, pool_pages=1)
        pid, _ = backend.new_page()
        backend.flush_and_clear()
        with pytest.raises(KeyError):
            backend.mark_dirty(pid)

    def test_short_put_rejected_and_frame_intact(self, make_backend):
        backend = make_backend(page_size=64)
        pid, _ = backend.new_page()
        backend.put(pid, b"\x05" * 64)
        with pytest.raises(PageSizeError):
            backend.put(pid, b"short")
        assert bytes(backend.get(pid)) == b"\x05" * 64

    def test_flush_and_clear_forces_physical_reread(self, make_backend):
        backend = make_backend(page_size=64)
        pid, _ = backend.new_page()
        backend.flush_and_clear()
        before = backend.stats.physical_reads
        backend.get(pid)
        assert backend.stats.physical_reads == before + 1
