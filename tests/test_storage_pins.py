"""BufferPool pin/unpin protocol tests.

This file deliberately drives the pool through unbalanced pin states
(pin without unpin, unpin at zero, close while pinned) to test that the
runtime rejects them.
"""

import threading

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.errors import (BufferPoolExhaustedError,
                                  PinProtocolError)
from repro.storage.pager import Pager


@pytest.fixture
def pool():
    with Pager.in_memory(page_size=32) as pager:
        yield BufferPool(pager, capacity=3)


def fill(pool, n):
    """Allocate ``n`` zeroed pages; returns their ids."""
    return [pool.new_page()[0] for _ in range(n)]


class TestPinBasics:
    def test_pin_returns_live_frame(self, pool):
        (pid,) = fill(pool, 1)
        frame = pool.pin(pid)
        assert frame is pool.get(pid)
        pool.unpin(pid)

    def test_pin_counts_nest(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        pool.pin(pid)
        assert pool.pin_count(pid) == 2
        pool.unpin(pid)
        assert pool.pin_count(pid) == 1
        pool.unpin(pid)
        assert pool.pin_count(pid) == 0
        assert pool.pinned_pages == frozenset()

    def test_pin_is_a_logical_read(self, pool):
        (pid,) = fill(pool, 1)
        before = pool.stats.logical_reads
        pool.pin(pid)
        assert pool.stats.logical_reads == before + 1
        pool.unpin(pid)

    def test_unpin_at_zero_raises_typed_error(self, pool):
        (pid,) = fill(pool, 1)
        with pytest.raises(PinProtocolError):
            pool.unpin(pid)

    def test_unpin_below_zero_after_balance_raises(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        pool.unpin(pid)
        with pytest.raises(PinProtocolError):
            pool.unpin(pid)


class TestPinsAndEviction:
    def test_pinned_page_survives_eviction_pressure(self, pool):
        pids = fill(pool, 3)  # capacity 3: pool now full
        pool.pin(pids[0])
        fill(pool, 3)  # evicts the unpinned frames only
        assert pids[0] in pool.pinned_pages
        # The pinned frame is still resident: getting it is not a miss.
        before = pool.stats.physical_reads
        pool.get(pids[0])
        assert pool.stats.physical_reads == before
        pool.unpin(pids[0])

    def test_all_frames_pinned_raises_exhausted(self, pool):
        pids = fill(pool, 3)
        for pid in pids:
            pool.pin(pid)
        with pytest.raises(BufferPoolExhaustedError):
            pool.new_page()
        for pid in pids:
            pool.unpin(pid)

    def test_flush_and_clear_with_pins_refused(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        with pytest.raises(PinProtocolError):
            pool.flush_and_clear()
        pool.unpin(pid)
        pool.flush_and_clear()  # fine once released


class TestThreadOwnedPins:
    """Pins belong to the thread that took them; the error messages
    name threads so concurrent pin bugs are attributable."""

    def run_in_thread(self, name, target):
        box = []

        def wrapped():
            try:
                box.append(("ok", target()))
            except Exception as error:  # noqa: BLE001 - relayed to caller
                box.append(("err", error))

        thread = threading.Thread(target=wrapped, name=name)
        thread.start()
        thread.join()
        return box[0]

    def test_pin_owners_names_threads(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        self.run_in_thread("reader-7", lambda: pool.pin(pid))
        owners = pool.pin_owners(pid)
        assert owners[threading.current_thread().name] == 1
        assert owners["reader-7"] == 1
        assert pool.pin_count(pid) == 2
        pool.unpin(pid)
        status, result = self.run_in_thread(
            "reader-7", lambda: pool.unpin(pid))
        assert status == "ok"

    def test_cross_thread_unpin_raises_with_owner_names(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        status, error = self.run_in_thread(
            "impostor", lambda: pool.unpin(pid))
        assert status == "err"
        assert isinstance(error, PinProtocolError)
        message = str(error)
        assert "impostor" in message  # who unpinned wrongly
        assert threading.current_thread().name in message  # who holds it
        pool.unpin(pid)

    def test_exhausted_message_names_capacity_and_owners(self, pool):
        pids = fill(pool, 3)
        for pid in pids:
            pool.pin(pid)
        with pytest.raises(BufferPoolExhaustedError) as excinfo:
            pool.new_page()
        message = str(excinfo.value)
        assert "all 3 frames are pinned" in message
        assert "3 pin(s) on 3 page(s)" in message
        assert threading.current_thread().name in message
        for pid in pids:
            pool.unpin(pid)

    def test_flush_and_clear_refusal_names_owners(self, pool):
        (pid,) = fill(pool, 1)
        pool.pin(pid)
        with pytest.raises(PinProtocolError) as excinfo:
            pool.flush_and_clear()
        assert threading.current_thread().name in str(excinfo.value)
        pool.unpin(pid)


class TestPinnedContextManager:
    def test_releases_on_normal_exit(self, pool):
        (pid,) = fill(pool, 1)
        with pool.pinned(pid) as frame:
            assert pool.pin_count(pid) == 1
            assert frame is pool.get(pid)
        assert pool.pin_count(pid) == 0

    def test_releases_on_exception(self, pool):
        (pid,) = fill(pool, 1)
        with pytest.raises(RuntimeError):
            with pool.pinned(pid):
                raise RuntimeError("boom")
        assert pool.pin_count(pid) == 0

    def test_mutation_under_pin_reaches_disk(self, pool):
        pids = fill(pool, 3)
        with pool.pinned(pids[0]) as frame:
            frame[0] = 0x5A
            pool.mark_dirty(pids[0])
        fill(pool, 3)  # force eviction and write-back
        assert pool.get(pids[0])[0] == 0x5A
