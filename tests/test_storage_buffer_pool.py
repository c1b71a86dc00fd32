"""Buffer pool tests: caching, eviction, dirty write-back, accounting."""

import errno
import io
import threading
import time

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


class FullDisk(io.BytesIO):
    """A data file whose writes fail with ``ENOSPC`` while ``full``."""

    full = False

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


class TestFlushWriteError:
    def test_a_failed_write_back_propagates_and_keeps_the_page_dirty(self):
        disk = FullDisk()
        pager = Pager(disk, page_size=16)
        pool = BufferPool(pager, capacity=4)
        pid, _ = pool.new_page()
        pool.flush()
        pool.put(pid, b"\x05" * 16)
        disk.full = True
        with pytest.raises(OSError) as caught:
            pool.flush()
        assert caught.value.errno == errno.ENOSPC
        assert bytes(pager.read(pid)) == b"\x00" * 16
        disk.full = False
        writes = pager.stats.physical_writes
        pool.flush()        # the page is still dirty: this writes it
        assert pager.stats.physical_writes == writes + 1
        assert bytes(pager.read(pid)) == b"\x05" * 16


class HookedPager(Pager):
    """An in-memory pager that runs a test's hook before each read and
    write, and logs each read as it starts and each write as it lands."""

    def __init__(self, page_size=64):
        super().__init__(io.BytesIO(), page_size=page_size)
        self.before_read = self.before_write = None
        self.log = []

    def read(self, page_id):
        if self.before_read is not None:
            self.before_read(page_id)
        self.log.append(("read", page_id))
        return super().read(page_id)

    def write(self, page_id, data):
        if self.before_write is not None:
            self.before_write(page_id)
        super().write(page_id, data)
        self.log.append(("wrote", page_id))


def wait_for(condition, seconds=10.0):
    """Poll ``condition`` until it holds; fail the test after
    ``seconds`` rather than hang it."""
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestInFlightPages:
    """Single-flight misses and the dirty write-back gate, driven
    deterministically: the pager blocks until the other threads are
    where the test wants them."""

    def test_four_concurrent_misses_read_the_page_once(self):
        pager = HookedPager()
        pool = BufferPool(pager, capacity=4)
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        before = pool.stats.snapshot()
        base = before.logical_reads

        def logical_reads():
            return pool.stats.read("logical_reads") - base

        # The one read blocks until all four threads have asked.
        pager.before_read = lambda page_id: wait_for(
            lambda: logical_reads() == 4)
        frames = [None] * 4

        def miss(slot):
            frames[slot] = pool.get(pid)

        threads = [threading.Thread(target=miss, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        delta = pool.stats.delta(before)
        assert (delta.physical_reads, delta.logical_reads) == (1, 4)
        assert frames[0] is not None
        assert all(frame is frames[0] for frame in frames)

    def test_a_reload_waits_for_the_write_back_of_its_eviction(self):
        pager = HookedPager()
        pool = BufferPool(pager, capacity=1)
        victim, frame = pool.new_page()
        frame[:4] = b"\xaa\xbb\xcc\xdd"
        pool.mark_dirty(victim)
        other = pager.allocate()
        writing, landed = threading.Event(), threading.Event()

        def hold_write(page_id):
            writing.set()
            assert landed.wait(30)

        pager.before_write = hold_write
        evictor = threading.Thread(target=pool.get, args=(other,))
        evictor.start()             # evicts the victim: its write blocks
        assert writing.wait(30)
        reads = pool.stats.read("logical_reads")
        reloaded = []
        reloader = threading.Thread(
            target=lambda: reloaded.append(pool.get(victim)))
        reloader.start()
        wait_for(lambda: pool.stats.read("logical_reads") == reads + 1)
        reloader.join(0.1)
        assert reloader.is_alive()  # parked behind the write-back
        landed.set()
        evictor.join(30)
        reloader.join(30)
        assert not evictor.is_alive() and not reloader.is_alive()
        assert bytes(reloaded[0])[:4] == b"\xaa\xbb\xcc\xdd"
        assert pager.log.index(("wrote", victim)) < \
            pager.log.index(("read", victim))


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
