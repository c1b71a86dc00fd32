"""Record store tests: packing, spanning, I/O cost."""

import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.records import RecordStore


@contextmanager
def open_store(page_size=128):
    with BufferPool(Pager.in_memory(page_size=page_size)) as pool:
        yield RecordStore(pool), pool


class TestBasics:
    def test_roundtrip(self):
        with open_store() as (store, _):
            rid = store.append(b"hello world")
            assert store.read(rid) == b"hello world"

    def test_empty_blob(self):
        with open_store() as (store, _):
            rid = store.append(b"")
            assert store.read(rid) == b""

    def test_non_bytes_rejected(self):
        with open_store() as (store, _):
            with pytest.raises(TypeError):
                store.append("text")

    def test_many_records_roundtrip(self):
        with open_store() as (store, _):
            blobs = [bytes([i]) * (i % 40) for i in range(100)]
            rids = [store.append(blob) for blob in blobs]
            for rid, blob in zip(rids, blobs):
                assert store.read(rid) == blob


class TestPacking:
    def test_small_records_share_pages(self):
        with open_store(page_size=128) as (store, pool):
            rids = [store.append(b"x" * 10) for _ in range(10)]
            pages = {rid[0] for rid in rids}
            assert len(pages) == 1  # 10 x 10 bytes pack into one 128B page

    def test_packed_reads_cost_one_page(self):
        with open_store(page_size=128) as (store, pool):
            rids = [store.append(b"y" * 10) for _ in range(8)]
            pool.flush_and_clear()
            before = pool.stats.physical_reads
            for rid in rids:
                store.read(rid)
            assert pool.stats.physical_reads - before == 1

    def test_pages_for_small(self):
        with open_store(page_size=128) as (store, _):
            rid = store.append(b"z" * 10)
            assert store.pages_for(rid) == 1


class TestSpanning:
    def test_large_record_spans_pages(self):
        with open_store(page_size=128) as (store, _):
            blob = bytes(range(256)) + b"tail" * 30
            rid = store.append(blob)
            assert store.read(rid) == blob
            assert store.pages_for(rid) == -(-len(blob) // 128)

    def test_mixed_sizes(self):
        with open_store(page_size=128) as (store, _):
            small = store.append(b"s" * 5)
            big = store.append(b"B" * 1000)
            small2 = store.append(b"t" * 5)
            assert store.read(small) == b"s" * 5
            assert store.read(big) == b"B" * 1000
            assert store.read(small2) == b"t" * 5

    def test_exact_page_size_record(self):
        with open_store(page_size=128) as (store, _):
            rid = store.append(b"e" * 128)
            assert store.read(rid) == b"e" * 128
            assert store.pages_for(rid) == 1


class TestConcurrentClear:
    def test_reads_beside_flush_and_clear_never_fail(self):
        """A cold-cache clear on one thread beside spanning-record reads
        on another: neither call raises, and every read returns the
        stored bytes (eviction never changes a frame a reader holds)."""
        with open_store(page_size=128) as (store, pool):
            blobs = [bytes((i + k) % 256 for k in range(300 + i))
                     for i in range(8)]
            rids = [store.append(blob) for blob in blobs]
            assert all(store.pages_for(rid) > 1 for rid in rids)
            pool.flush()
            stop = threading.Event()
            errors = []
            done = {"reads": 0, "clears": 0}

            def reader():
                try:
                    while not stop.is_set():
                        for rid, blob in zip(rids, blobs):
                            assert store.read(rid) == blob
                            done["reads"] += 1
                except Exception as error:
                    errors.append(error)

            def clearer():
                try:
                    while not stop.is_set():
                        pool.flush_and_clear()
                        done["clears"] += 1
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=reader),
                       threading.Thread(target=clearer)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join()
            assert errors == []
            assert done["reads"] > 0 and done["clears"] > 0


class Decoder:
    """``decode`` callable that counts its calls; every call returns a
    fresh object, so identity tells a memo hit from a re-decode."""

    def __init__(self):
        self.calls = 0

    def __call__(self, blob):
        self.calls += 1
        return [bytes(blob)]


class TestReadDecoded:
    def test_hit_returns_the_identical_object(self):
        with open_store() as (store, pool):
            first = store.append(b"alpha")
            second = store.append(b"beta")     # same page, other offset
            assert first[0] == second[0]
            decode = Decoder()
            view = store.read_decoded(first, decode)
            assert view == [b"alpha"]
            assert store.read_decoded(first, decode) is view
            assert store.read_decoded(second, decode) == [b"beta"]
            assert store.read_decoded(first, decode) is view
            assert decode.calls == 2

    def test_one_logical_read_per_load_hit_or_miss(self):
        with open_store() as (store, pool):
            rid = store.append(b"alpha")
            decode = Decoder()
            for _ in range(3):      # miss, hit, hit
                before = pool.stats.logical_reads
                store.read_decoded(rid, decode)
                assert pool.stats.logical_reads - before == 1
            before = pool.stats.logical_reads
            store.read(rid)
            assert pool.stats.logical_reads - before == 1

    def test_eviction_forces_a_redecode(self):
        with BufferPool(Pager.in_memory(page_size=128),
                        capacity=2) as pool:
            store = RecordStore(pool)
            rid = store.append(b"alpha")
            decode = Decoder()
            view = store.read_decoded(rid, decode)
            for _ in range(2):      # push the record's page out
                pool.new_page()
            before = pool.stats.physical_reads
            again = store.read_decoded(rid, decode)
            assert pool.stats.physical_reads - before == 1
            assert again == view and again is not view
            assert decode.calls == 2

    def test_a_later_append_to_the_page_forces_a_redecode(self):
        with open_store() as (store, pool):
            rid = store.append(b"alpha")
            decode = Decoder()
            view = store.read_decoded(rid, decode)
            assert store.append(b"beta")[0] == rid[0]   # mark_dirty
            again = store.read_decoded(rid, decode)
            assert again == view and again is not view

    def test_put_forces_a_redecode(self):
        with open_store() as (store, pool):
            rid = store.append(b"alpha")
            decode = Decoder()
            store.read_decoded(rid, decode)
            image = bytearray(pool.get(rid[0]))
            image[rid[1]:rid[1] + 5] = b"omega"
            pool.put(rid[0], image)
            assert store.read_decoded(rid, decode) == [b"omega"]

    def test_flush_and_clear_forces_a_redecode(self):
        with open_store() as (store, pool):
            rid = store.append(b"alpha")
            decode = Decoder()
            view = store.read_decoded(rid, decode)
            pool.flush_and_clear()
            again = store.read_decoded(rid, decode)
            assert again == view and again is not view
            assert decode.calls == 2

    def test_spanning_record_touches_every_page_on_a_hit(self):
        from repro.analysis.sanitizer import sanitized
        with sanitized(), open_store(page_size=128) as (store, pool):
            store.append(b"pad" * 10)
            blob = bytes(range(256)) + b"tail" * 30
            rid = store.append(blob)
            pages = store.pages_for(rid)
            assert pages == 3
            decode = Decoder()
            deltas = []
            for _ in range(3):      # miss, hit, hit
                before = pool.stats.logical_reads
                view = store.read_decoded(rid, decode)
                deltas.append(pool.stats.logical_reads - before)
                assert view == [blob]
            assert deltas == [pages] * 3
            assert decode.calls == 1
            before = pool.stats.logical_reads
            assert store.read(rid) == blob
            assert pool.stats.logical_reads - before == pages

    def test_spanning_hit_reloads_an_evicted_continuation_page(self):
        with BufferPool(Pager.in_memory(page_size=128),
                        capacity=4) as pool:
            store = RecordStore(pool)
            rid = store.append(b"x" * 300)          # pages p, p+1, p+2
            decode = Decoder()
            view = store.read_decoded(rid, decode)
            pool.get(rid[0])                        # first page is MRU
            for _ in range(3):                      # evicts p+1 and p+2
                pool.new_page()
            before = pool.stats.physical_reads
            assert store.read_decoded(rid, decode) is view
            assert pool.stats.physical_reads - before == 2

    def test_failed_decode_is_not_memoised(self):
        with open_store() as (store, pool):
            bad = store.append(b"bad")
            good = store.append(b"good")
            attempts = []

            def decode(blob):
                attempts.append(bytes(blob))
                if blob == b"bad":
                    raise ValueError("malformed")
                return [bytes(blob)]

            for _ in range(2):
                with pytest.raises(ValueError):
                    store.read_decoded(bad, decode)
            assert attempts == [b"bad", b"bad"]
            # ... and the healthy neighbour on the same page still loads.
            view = store.read_decoded(good, decode)
            assert view == [b"good"]
            assert store.read_decoded(good, decode) is view

    def test_empty_record_touches_no_page(self):
        with open_store() as (store, pool):
            store.append(b"abc")
            empty = store.append(b"")
            after = store.append(b"def")
            assert empty[1] == after[1]     # same offset, zero length
            decode = Decoder()
            assert store.read_decoded(after, decode) == [b"def"]
            before = pool.stats.logical_reads
            assert store.read_decoded(empty, decode) == [b""]
            assert store.read(empty) == b""
            assert pool.stats.logical_reads == before


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=400), max_size=30))
def test_record_store_roundtrip_property(blobs):
    with open_store(page_size=128) as (store, _):
        rids = [store.append(blob) for blob in blobs]
        for rid, blob in zip(rids, blobs):
            assert store.read(rid) == blob
        for _ in range(2):          # decoded reads: miss, then hit
            for rid, blob in zip(rids, blobs):
                assert store.read_decoded(rid, bytes) == blob
