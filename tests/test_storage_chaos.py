"""Unit tests for the live chaos layer (``tests/chaos_backend.py``).

Covers the :class:`ChaosSchedule`'s determinism contract (same seed ==
same fault positions, replayable from the ``describe()`` recipe), each
fault kind's semantics through :class:`ChaosBackend` -- transient read
errors, injected latency, the fail-then-heal window, and corrupt-reads
that exercise the guard's WAL read-repair and quarantine-heal paths --
plus the arming switch, the test-side injection into what
``PrixIndex.open`` opens (:class:`helpers.ChaosOpens`), and the runtime
conformance check that stands in for the hand-written forwarders
:class:`ChaosBackend` no longer has.
"""

import io

import pytest

from chaos_backend import (CHAOS_KINDS, KIND_CORRUPT_READ,
                           KIND_FAIL_WINDOW, KIND_READ_ERROR,
                           KIND_READ_LATENCY, ChaosBackend, ChaosConfig,
                           ChaosSchedule)
from helpers import ChaosOpens

from repro.prix.index import IndexOptions, PrixIndex
from repro.storage import TransientStorageError, open_backend
from repro.storage.backend import FilePagerBackend
from repro.storage.buffer_pool import BufferPool
from repro.storage.errors import PageCorruptionError, ReadOnlyBackendError
from repro.storage.guard import PageGuard
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog
from repro.xmlkit.parser import parse_document

PAGE_SIZE = 64


def fill(value, page_size=PAGE_SIZE):
    return bytes([value]) * page_size


def make_pool(*, guard=False, wal=False):
    page_guard = PageGuard(io.BytesIO(), PAGE_SIZE) if guard else None
    pager = Pager.in_memory(PAGE_SIZE, guard=page_guard)
    pool = BufferPool(pager, capacity=8)
    if wal:
        pool.attach_wal(WriteAheadLog(io.BytesIO(), PAGE_SIZE))
    return pool


class TestChaosSchedule:
    def test_same_seed_same_decisions(self):
        config = ChaosConfig(seed=7, read_error_period=3,
                             latency_period=5, corrupt_period=11)
        first = [ChaosSchedule(config).decide(i) for i in range(200)]
        second = [ChaosSchedule(config).decide(i) for i in range(200)]
        assert first == second
        assert any(kind is not None for kind in first)

    def test_different_seeds_diverge(self):
        base = dict(read_error_period=3, latency_period=5,
                    corrupt_period=11)
        a = [ChaosSchedule(ChaosConfig(seed=1, **base)).decide(i)
             for i in range(200)]
        b = [ChaosSchedule(ChaosConfig(seed=2, **base)).decide(i)
             for i in range(200)]
        assert a != b

    def test_fail_first_window_outranks_everything(self):
        schedule = ChaosSchedule(ChaosConfig(seed=0, fail_first=4,
                                             read_error_period=1))
        assert [schedule.decide(i) for i in range(4)] == \
            [KIND_FAIL_WINDOW] * 4
        assert schedule.decide(4) == KIND_READ_ERROR

    def test_period_one_fires_every_op(self):
        schedule = ChaosSchedule(ChaosConfig(seed=3, corrupt_period=1))
        assert all(schedule.decide(i) == KIND_CORRUPT_READ
                   for i in range(20))

    def test_none_periods_never_fire(self):
        schedule = ChaosSchedule(ChaosConfig(seed=3))
        assert all(schedule.decide(i) is None for i in range(100))

    def test_corrupt_bit_is_deterministic_and_in_range(self):
        schedule = ChaosSchedule(ChaosConfig(seed=9, corrupt_period=1))
        bits = [schedule.corrupt_bit(i, PAGE_SIZE) for i in range(50)]
        assert bits == [ChaosSchedule(ChaosConfig(seed=9, corrupt_period=1))
                        .corrupt_bit(i, PAGE_SIZE) for i in range(50)]
        assert all(0 <= bit < PAGE_SIZE * 8 for bit in bits)

    def test_describe_is_a_replay_recipe(self):
        config = ChaosConfig(seed=5, read_error_period=2)
        schedule = ChaosSchedule(config)
        schedule.next_op()
        schedule.record(KIND_READ_ERROR)
        recipe = schedule.describe()
        assert recipe["config"] == config.as_dict()
        assert recipe["ops_seen"] == 1
        assert recipe["injected"][KIND_READ_ERROR] == 1
        assert set(recipe["injected"]) == set(CHAOS_KINDS)


class TestChaosBackendFaults:
    def test_read_error_is_typed_and_transient(self):
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x11))
        chaos = ChaosBackend(pool, ChaosConfig(seed=1, fail_first=2))
        with pytest.raises(TransientStorageError):
            chaos.get(pid)
        with pytest.raises(TransientStorageError):
            chaos.get(pid)
        # Healed: the fail-first window is over, the bytes were intact.
        assert bytes(chaos.get(pid)) == fill(0x11)

    def test_disarmed_backend_is_transparent(self):
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x22))
        chaos = ChaosBackend(pool, ChaosConfig(seed=1, fail_first=10),
                             armed=False)
        assert bytes(chaos.get(pid)) == fill(0x22)
        # Disarmed reads claim no ops: arming later still fails reads.
        chaos.set_armed(True)
        with pytest.raises(TransientStorageError):
            chaos.get(pid)

    def test_latency_injection_proceeds_with_correct_bytes(self):
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x33))
        chaos = ChaosBackend(pool, ChaosConfig(seed=1, latency_period=1,
                                               latency_ms=0.01))
        assert bytes(chaos.get(pid)) == fill(0x33)
        assert chaos.chaos_describe()["injected"][KIND_READ_LATENCY] == 1

    def test_writes_and_lifecycle_are_never_faulted(self):
        pool = make_pool()
        chaos = ChaosBackend(pool, ChaosConfig(seed=1, fail_first=10 ** 6))
        pid, _ = chaos.new_page()
        chaos.put(pid, fill(0x44))
        chaos.mark_dirty(pid)
        chaos.commit()
        chaos.flush()
        assert chaos.page_size == PAGE_SIZE
        assert chaos.stats is pool.stats

    def test_injection_counts_are_not_page_traffic(self):
        pool = make_pool()
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x55))
        pool.flush()
        pool.flush_and_clear()
        chaos = ChaosBackend(pool, ChaosConfig(seed=1, fail_first=3))
        before = pool.stats.read("physical_reads")
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                chaos.get(pid)
        # Three rejected reads never reached the pager.
        assert pool.stats.read("physical_reads") == before


class TestCorruptRead:
    def test_repaired_from_committed_wal_image(self):
        """The PR 4 read-repair path, driven by injection: a corrupt
        read over a committed WAL image is healed transparently and the
        caller sees the true bytes."""
        pool = make_pool(guard=True, wal=True)
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x66))
        pool.commit()
        pool.flush()
        pool.flush_and_clear()
        chaos = ChaosBackend(pool, ChaosConfig(seed=2, corrupt_period=1))
        assert bytes(chaos.get(pid)) == fill(0x66)
        assert pool.stats.guard_repairs == 1
        assert chaos.chaos_describe()["injected"][KIND_CORRUPT_READ] == 1

    def test_unrepairable_corruption_is_typed_then_heals(self):
        """Without a covering WAL image the injected corruption is a
        typed PageCorruptionError -- and because the durable bytes were
        never actually wrong, the synthetic quarantine is healed so the
        retry succeeds (chaos must not wedge the mount forever)."""
        pool = make_pool(guard=True, wal=False)
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x77))
        pool.flush()
        pool.flush_and_clear()
        chaos = ChaosBackend(pool, ChaosConfig(seed=2, corrupt_period=2))
        outcomes = []
        for _ in range(6):
            try:
                outcomes.append(bytes(chaos.get(pid)))
            except PageCorruptionError:
                outcomes.append("corrupt")
        assert "corrupt" in outcomes
        assert fill(0x77) in outcomes
        # Every successful read returned exactly the true image.
        assert set(outcomes) <= {"corrupt", fill(0x77)}

    def test_unguarded_page_downgrades_to_transient(self):
        pool = make_pool(guard=False)
        pid, _ = pool.new_page()
        pool.put(pid, fill(0x88))
        pool.flush()
        pool.flush_and_clear()
        chaos = ChaosBackend(pool, ChaosConfig(seed=2, corrupt_period=1))
        with pytest.raises(TransientStorageError) as caught:
            chaos.get(pid)
        assert "downgraded" in str(caught.value)


class TestPlumbing:
    """Chaos reaches an index only from the test side: ``ChaosOpens``
    wraps what ``PrixIndex.open`` opens."""

    @staticmethod
    def saved_index(tmp_path):
        path = str(tmp_path / "chaos.idx")
        with PrixIndex.build([parse_document("<a><b>x</b></a>", 1)],
                             IndexOptions(path=path)) as index:
            index.save()
        return path

    def test_open_backend_wraps_when_configured(self, tmp_path):
        """Inside ``ChaosOpens`` the backend ``PrixIndex.open`` opens is
        a recorded, disarmed wrapper until armed; outside it, the plain
        backend."""
        path = self.saved_index(tmp_path)
        with ChaosOpens(ChaosConfig(seed=4, fail_first=1)) as chaos:
            index = PrixIndex.open(path)
        try:
            wrapped = index._pool
            assert isinstance(wrapped, ChaosBackend)
            assert chaos.backends == [wrapped]
            assert wrapped.kind == "chaos"
            assert bytes(wrapped.get(0)) == bytes(wrapped._inner.get(0))
            chaos.arm()
            with pytest.raises(TransientStorageError):
                wrapped.get(0)
            assert sorted(index.query("//a/b").doc_ids) == [1]
        finally:
            index.close()
        with PrixIndex.open(path) as plain:
            assert plain._pool.kind == "file"

    def test_prix_index_open_disarms_during_attach(self, tmp_path):
        """Catalog/attach reads must not consume (or trip) the fault
        schedule: with fail_first large enough to kill any attach read,
        the open still succeeds and, once armed, the *first query* draws
        the fault."""
        path = self.saved_index(tmp_path)
        with ChaosOpens(ChaosConfig(seed=6, fail_first=2)) as chaos:
            index = PrixIndex.open(path)
        chaos.arm()
        try:
            with pytest.raises(TransientStorageError):
                index.query("//a/b")
            # The schedule heals; the same query then succeeds exactly.
            for _ in range(4):
                try:
                    result = index.query("//a/b")
                    break
                except TransientStorageError:
                    continue
            assert sorted(result.doc_ids) == [1]
        finally:
            index.close()


#: Every public member of the one backend class, found by
#: introspection so a member added there is checked here unasked (plus
#: the two public attributes its constructors set).
PROTOCOL_MEMBERS = sorted({"kind", "stats"}.union(
    name for name in dir(FilePagerBackend) if not name.startswith("_")))


class TestProtocolConformance:
    """``ChaosBackend`` delegates by ``__getattr__``: nothing static
    says it still answers the whole protocol, so this does."""

    @pytest.fixture()
    def saved(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        writer = open_backend(path, PAGE_SIZE)
        pid, _ = writer.new_page()
        writer.put(pid, fill(0x5A))
        writer.close()
        return path

    @pytest.mark.parametrize("chaos", [None, ChaosConfig(seed=1)],
                             ids=["plain", "chaos"])
    @pytest.mark.parametrize("kind", ["file", "arena", "mmap"])
    def test_every_member_resolves_on_every_kind(self, saved, kind, chaos):
        assert PROTOCOL_MEMBERS == [
            "attach_wal", "cached_pages", "capacity", "checkpoint", "close",
            "commit", "discard", "flush", "flush_and_clear", "get",
            "get_decoded", "guard", "kind", "mark_dirty", "new_page",
            "num_pages", "page_size", "put", "scrub", "stats", "sync",
            "wal"]
        opener = ChaosOpens(chaos).open_backend if chaos else open_backend
        backend = opener(saved, PAGE_SIZE, kind=kind)
        try:
            for name in PROTOCOL_MEMBERS:
                getattr(backend, name)     # AttributeError == drifted
            assert type(backend._pager) is Pager
            assert backend.kind == ("chaos" if chaos else kind)
            assert bytes(backend.get(0)) == fill(0x5A)
        finally:
            backend.close()

    def test_read_only_refusals_pass_through_the_wrapper(self, saved):
        wrapped = ChaosOpens(ChaosConfig(seed=1)).open_backend(
            saved, PAGE_SIZE, kind="mmap")
        try:
            wrapped.get(0)
            before = (wrapped.cached_pages, wrapped.stats.snapshot())
            with pytest.raises(ReadOnlyBackendError):
                wrapped.mark_dirty(0)
            with pytest.raises(ReadOnlyBackendError):
                wrapped.put(0, fill(0))
            with pytest.raises(ReadOnlyBackendError):
                wrapped.new_page()
            with pytest.raises(ReadOnlyBackendError):
                wrapped.attach_wal(object())
            # Refused at the boundary: no pool state moved.
            assert (wrapped.cached_pages,
                    wrapped.stats.snapshot()) == before
            assert bytes(wrapped.get(0)) == fill(0x5A)
        finally:
            wrapped.close()

    def test_unknown_member_is_an_attribute_error(self):
        wrapped = ChaosBackend(make_pool(), ChaosConfig(seed=1))
        with pytest.raises(AttributeError):
            wrapped.no_such_member
