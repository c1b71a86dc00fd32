"""Runtime sanitizer tests: enable/disable, every check, env activation.

These tests intentionally commit the protocol violations the sanitizer
exists to catch (snapshots while dirty, racy and latch-holding reads).
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.analysis import sanitizer
from repro.prix.index import IndexOptions, PrixIndex
from repro.storage.backend import open_backend
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.records import RecordStore


@pytest.fixture(autouse=True)
def _start_disabled():
    # Under PRIX_SANITIZE=1 the sanitizer is already on at import; these
    # tests exercise the transitions themselves, so normalize to "off"
    # and restore the ambient state afterwards.
    was_active = sanitizer.active()
    if was_active:
        sanitizer.disable()
    yield
    if sanitizer.active() is not was_active:
        if was_active:
            sanitizer.enable()
        else:
            sanitizer.disable()


@pytest.fixture
def sanitized():
    sanitizer.enable()
    try:
        yield
    finally:
        sanitizer.disable()


def make_pool(capacity=4):
    pager = Pager.in_memory(page_size=32)
    return BufferPool(pager, capacity=capacity)


class TestLifecycle:
    def test_enable_disable_restores_methods(self):
        original_get = BufferPool.get
        original_snapshot = type(make_pool().stats).snapshot
        sanitizer.enable()
        try:
            assert sanitizer.active()
            assert BufferPool.get is not original_get
        finally:
            sanitizer.disable()
        assert not sanitizer.active()
        assert BufferPool.get is original_get
        assert type(make_pool().stats).snapshot is original_snapshot

    def test_enable_is_idempotent(self):
        sanitizer.enable()
        saved_get = BufferPool.get
        sanitizer.enable()
        try:
            assert BufferPool.get is saved_get
        finally:
            sanitizer.disable()

    def test_sanitized_context_manager(self):
        assert not sanitizer.active()
        with sanitizer.sanitized():
            assert sanitizer.active()
        assert not sanitizer.active()

    def test_sanitized_nested_keeps_outer_active(self):
        with sanitizer.sanitized():
            with sanitizer.sanitized():
                pass
            assert sanitizer.active()
        assert not sanitizer.active()


class TestFlushBeforeStats:
    def test_snapshot_while_dirty_raises(self, sanitized):
        pool = make_pool()
        pool.new_page()
        with pytest.raises(sanitizer.SanitizeError):
            pool.stats.snapshot()

    def test_snapshot_after_flush_passes(self, sanitized):
        pool = make_pool()
        pool.new_page()
        pool.flush()
        snap = pool.stats.snapshot()
        assert snap.allocations == 1

    def test_unrelated_stats_object_unaffected(self, sanitized):
        from repro.storage.stats import IOStats
        pool = make_pool()
        pool.new_page()  # dirty, but on its own stats object
        other = IOStats(physical_reads=3)
        assert other.snapshot().physical_reads == 3

    def test_sanitize_error_is_assertion_error(self):
        assert issubclass(sanitizer.SanitizeError, AssertionError)


class TestWalOrdering:
    """The sanitizer's third check: no page image may reach the pager
    ahead of the write-ahead log (and never while uncommitted)."""

    def make_durable_pool(self):
        import io

        from repro.storage.wal import SYNC_NEVER, WriteAheadLog
        pool = make_pool()
        wal = WriteAheadLog(io.BytesIO(), 32, sync_policy=SYNC_NEVER)
        pool.attach_wal(wal)
        return pool

    def test_uncommitted_steal_raises(self, sanitized):
        pool = self.make_durable_pool()
        pid, frame = pool.new_page()
        with pytest.raises(sanitizer.SanitizeError):
            pool._pager.write(pid, bytes(frame))

    def test_unsynced_commit_raises(self, sanitized):
        pool = self.make_durable_pool()
        pid, frame = pool.new_page()
        pool.commit()  # logged, but SYNC_NEVER: nothing durable yet
        with pytest.raises(sanitizer.SanitizeError):
            pool._pager.write(pid, bytes(frame))

    def test_synced_commit_passes(self, sanitized):
        pool = self.make_durable_pool()
        pid, frame = pool.new_page()
        pool.commit()
        pool.wal.sync()
        pool._pager.write(pid, bytes(frame))
        pool.close()

    def test_non_durable_pool_unaffected(self, sanitized):
        pool = make_pool()
        pid, frame = pool.new_page()
        pool._pager.write(pid, bytes(frame))
        pool.close()


class TestEnvActivation:
    def _run(self, env_value):
        env = dict(os.environ)
        env.pop("PRIX_SANITIZE", None)
        if env_value is not None:
            env["PRIX_SANITIZE"] = env_value
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        code = ("import repro\n"
                "from repro.analysis import sanitizer\n"
                "print(sanitizer.active())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_prix_sanitize_1_enables_on_import(self):
        assert self._run("1") == "True"

    def test_prix_sanitize_0_and_unset_stay_off(self):
        assert self._run("0") == "False"
        assert self._run(None) == "False"


class TestGuardedFieldDescriptors:
    """Guarded-field descriptors: silent while thread-confined,
    loud the moment a second thread touches the object unlatched."""

    def test_thread_confined_unlatched_access_passes(self, sanitized):
        pool = make_pool()
        pid, _ = pool.new_page()
        assert pid in pool._frames  # one thread: Eraser refinement

    def run_in_thread(self, target):
        errors = []

        def wrapped():
            try:
                target()
            except sanitizer.SanitizeError as error:
                errors.append(error)

        thread = threading.Thread(target=wrapped, name="second-toucher")
        thread.start()
        thread.join()
        return errors

    def test_shared_unlatched_access_trips_in_second_thread(self,
                                                            sanitized):
        pool = make_pool()
        pid, _ = pool.new_page()
        errors = self.run_in_thread(lambda: pool._frames.get(pid))
        assert len(errors) == 1
        assert "BufferPool._frames" in str(errors[0])
        assert "second-toucher" in str(errors[0])

    def test_shared_latched_access_passes(self, sanitized):
        pool = make_pool()
        pid, _ = pool.new_page()

        def latched_read():
            with pool._latch:
                pool._frames.get(pid)

        assert self.run_in_thread(latched_read) == []

    def test_public_api_is_race_free_across_threads(self, sanitized):
        # The real protocol: a second thread going through get() takes
        # the latch internally, so nothing trips.
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.flush()
        assert self.run_in_thread(lambda: pool.get(pid)) == []

    def test_descriptors_removed_on_disable(self):
        with sanitizer.sanitized():
            assert "_frames" in BufferPool.__dict__  # descriptor installed
        assert "_frames" not in BufferPool.__dict__

    @pytest.fixture
    def saved_index(self, tmp_path, tiny_dblp):
        path = str(tmp_path / "prix.idx")
        options = IndexOptions(path=path, guard=True, page_size=1024)
        with PrixIndex.build(tiny_dblp.documents, options) as index:
            index.save()
        return path, options.page_size

    @pytest.mark.parametrize("kind", ["file", "arena", "mmap"])
    def test_every_backend_kind_is_race_free_across_threads(
            self, sanitized, saved_index, kind):
        # Every kind is the one guarded Pager, so the whole read path
        # of every substrate runs under the descriptors.
        path, page_size = saved_index
        backend = open_backend(path, page_size, kind=kind, pool_pages=4,
                               guard=True)
        try:
            pages = range(backend.num_pages)
            for page_id in pages:
                backend.get(page_id)

            def sweep():
                for page_id in pages:
                    backend.get(page_id)
                assert backend.num_pages == len(pages)

            assert self.run_in_thread(sweep) == []
        finally:
            backend.close()

    def test_unlatched_pager_read_on_mmap_kind_trips(self, sanitized,
                                                     saved_index):
        # The planted defect: before PR 19 the mmap substrate was its
        # own, unguarded class and this read could not be caught.
        path, page_size = saved_index
        backend = open_backend(path, page_size, kind="mmap")
        try:
            backend.get(0)
            pager = backend._pager
            errors = self.run_in_thread(lambda: pager._num_pages)
            assert len(errors) == 1
            assert "Pager._num_pages" in str(errors[0])
        finally:
            backend.close()


class TestThreadLocalState:
    """Satellite: sanitizer state is per-thread where it must be (held
    stacks) and process-wide where it must be (pool registry, order
    graph)."""

    def test_held_stacks_are_thread_local(self, sanitized):
        from repro.storage.latch import Latch
        with Latch("tl-test"):
            other = []
            thread = threading.Thread(
                target=lambda: other.append(
                    list(sanitizer._state.tls.held)))
            thread.start()
            thread.join()
            assert other == [[]]  # fresh stack in the new thread
            assert "tl-test" in sanitizer._state.tls.held
        assert "tl-test" not in sanitizer._state.tls.held

    def test_order_graph_is_process_wide(self, sanitized):
        from repro.storage.latch import Latch
        a, b = Latch("tl-a"), Latch("tl-b")

        def nest_ab():
            with a:
                with b:
                    pass

        thread = threading.Thread(target=nest_ab)
        thread.start()
        thread.join()
        # The main thread now observes the edge the worker created.
        with sanitizer._state.meta:
            assert "tl-b" in sanitizer._state.order.get("tl-a", set())


class TestRuntimeLockOrder:
    """Latch order: the cycle is raised on the acquire that
    would close it, before blocking -- no two threads needed."""

    def test_opposite_nesting_raises_before_deadlock(self, sanitized):
        from eviltwin_pool import EvilPool
        pool = EvilPool()
        pool.take_frames_then_order()
        with pytest.raises(sanitizer.SanitizeError) as excinfo:
            pool.take_order_then_frames()
        assert "cycle" in str(excinfo.value)
        assert "evil-frames" in str(excinfo.value)

    def test_consistent_order_is_silent(self, sanitized):
        from eviltwin_pool import EvilPool
        pool = EvilPool()
        assert pool.take_frames_then_order() == 0
        assert pool.take_frames_then_order() == 0

    def test_reentrant_acquire_is_silent(self, sanitized):
        from repro.storage.latch import Latch
        latch = Latch("re-entrant")
        with latch:
            with latch:
                pass

    def test_storage_layer_order_is_acyclic(self, sanitized):
        # Drive the real pool through its paces; the hooks observe
        # buffer-pool -> io-stats and pager-io -> io-stats, never a
        # cycle.
        pool = make_pool(capacity=2)
        pids = [pool.new_page()[0] for _ in range(4)]
        pool.flush()
        for pid in pids:
            pool.get(pid)
            pool.get_decoded(pid, lambda page_id, frame: bytes(frame))
            pool.get_decoded(pid, None)  # resident: the hit path
        pool.close()
        with sanitizer._state.meta:
            order = {name: set(after)
                     for name, after in sanitizer._state.order.items()}
        assert "io-stats" in order["buffer-pool"]
        assert order.get("io-stats", set()) == set()

    def test_decoded_hit_is_one_latched_hooked_section(self, sanitized):
        # The hit path enters its latches through the inlined
        # ``with latch:`` form; the sanitizer must see every one.
        from repro.storage import latch as latch_module
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.flush()
        decoded = pool.get_decoded(pid, lambda page_id, frame: object())
        on_acquire, on_release = latch_module._hooks
        seen = []

        def acquire(latch):
            seen.append(("acquire", latch.name))
            on_acquire(latch)

        def release(latch):
            seen.append(("release", latch.name))
            on_release(latch)

        latch_module.install_hooks(acquire, release)
        before = pool.stats.logical_reads
        assert pool.get_decoded(pid, None) is decoded
        latch_module.install_hooks(on_acquire, on_release)
        assert seen == [("acquire", "buffer-pool"), ("acquire", "io-stats"),
                        ("release", "io-stats"), ("release", "buffer-pool")]
        assert pool.stats.logical_reads == before + 1
        assert sanitizer._state.tls.held == []
        pool.close()


    def test_clean_miss_is_two_pool_sections(self, sanitized):
        # One section looks up, counts and registers the load; one
        # evicts the clean victim, admits the frame and its decoded
        # object and unregisters the load.
        from repro.storage import latch as latch_module
        pool = make_pool(capacity=1)
        first, second = pool.new_page()[0], pool.new_page()[0]
        pool.flush_and_clear()
        pool.get_decoded(first, lambda page_id, frame: object())
        on_acquire, on_release = latch_module._hooks
        seen = []

        def acquire(latch):
            seen.append(latch.name)
            on_acquire(latch)

        evictions = pool.stats.evictions
        latch_module.install_hooks(acquire, on_release)
        try:
            pool.get_decoded(second, lambda page_id, frame: object())
        finally:
            latch_module.install_hooks(on_acquire, on_release)
        assert seen.count("buffer-pool") == 2
        assert pool.stats.evictions == evictions + 1
        pool.close()


class TestNoPagerIoUnderPoolLatch:
    def test_pager_read_under_the_pool_latch_raises(self, sanitized):
        from eviltwin_pool import EvilBufferPool
        pool = EvilBufferPool(Pager.in_memory(page_size=32), capacity=4)
        pid, _ = pool.new_page()
        pool.flush_and_clear()
        with pytest.raises(sanitizer.SanitizeError) as excinfo:
            pool.load_under_latch(pid)
        assert "buffer-pool latch" in str(excinfo.value)
        assert sanitizer._state.tls.held == []  # the with still released

    def test_miss_evict_flush_cycle_is_silent(self, sanitized):
        pool = make_pool(capacity=2)
        pids = [pool.new_page()[0] for _ in range(4)]  # dirty evictions
        pool.flush_and_clear()
        for pid in pids:
            pool.get(pid)  # misses, then clean evictions
            pool.mark_dirty(pid)
        pool.close()


class TestEvilBufferPoolRuntime:
    @pytest.mark.parametrize("read, field", [
        (lambda pool, pid: pool.get(pid), "_frames"),
        (lambda pool, pid: pool.get_decoded(
            pid, lambda page_id, frame: bytes(frame)), "_decoded"),
        # A document load is a get_decoded on the record's first page:
        # the record store inherits the pool's protocol, racy or not.
        (lambda pool, pid: RecordStore(pool).read_decoded(
            (pid, 0, 8), bytes), "_decoded"),
    ], ids=["get", "get_decoded", "read_decoded"])
    def test_latch_bypassing_hit_trips_when_shared(self, sanitized, read,
                                                   field):
        from eviltwin_pool import EvilBufferPool
        pool = EvilBufferPool(Pager.in_memory(page_size=32), capacity=4)
        pid, _ = pool.new_page()
        pool.flush()
        read(pool, pid)  # still thread-confined: silent
        errors = []

        def racy_read():
            try:
                read(pool, pid)  # resident by now: the hit path
            except sanitizer.SanitizeError as error:
                errors.append(error)

        thread = threading.Thread(target=racy_read, name="evil-reader")
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert f"BufferPool.{field}" in str(errors[0])


class TestGuardTrust:
    def make_guarded_pool(self):
        import io
        from repro.storage.guard import PageGuard
        guard = PageGuard(io.BytesIO(), 32)
        pager = Pager.in_memory(page_size=32, guard=guard)
        return BufferPool(pager, capacity=4), guard

    def test_verified_image_passes(self, sanitized):
        pool, guard = self.make_guarded_pool()
        pid = pool._pager.allocate()
        pool.put(pid, b"\x11" * 32)
        pool.flush()
        assert bytes(pool.get(pid)) == b"\x11" * 32
        pool.close()

    def test_untrusted_cached_image_trips(self, sanitized):
        # A cache hit bypasses guard.admit(); if trust was revoked in
        # the meantime (e.g. a quarantine through another handle), the
        # sanitizer must refuse to hand the stale frame out.
        pool, guard = self.make_guarded_pool()
        pid = pool._pager.allocate()
        pool.put(pid, b"\x11" * 32)
        pool.flush()
        pool.get(pid)
        guard._trusted.discard(pid)
        with pytest.raises(sanitizer.SanitizeError):
            pool.get(pid)

    def test_unguarded_pool_unaffected(self, sanitized):
        pool = make_pool()
        pid, frame = pool.new_page()
        pool.get(pid)
        pool.close()
