"""Unit tests for the checksum guard (``repro.storage.guard``).

Covers the guard's whole contract: stamping and verification, the
page-id salt (misdirected writes), WAL read-repair, quarantine
semantics, sidecar persistence across reopen, scrub reporting, and the
accounting promise that guard traffic never inflates the paper's
physical-read counters.
"""

import io
import os

import pytest

from repro.prix.index import scrub_path
from repro.storage.buffer_pool import BufferPool
from repro.storage.codec import page_checksum
from repro.storage.errors import PageCorruptionError
from repro.storage.guard import PageGuard, scrub
from repro.storage.pager import Pager
from repro.storage.recovery import recover_path
from repro.storage.stats import IOStats
from repro.storage.wal import WriteAheadLog

PAGE_SIZE = 64


def guarded_pager(page_size=PAGE_SIZE):
    guard = PageGuard(io.BytesIO(), page_size)
    return Pager.in_memory(page_size, guard=guard), guard


def fill(value, page_size=PAGE_SIZE):
    return bytes([value]) * page_size


class TestChecksum:
    def test_salted_with_page_id(self):
        payload = fill(0xAB)
        assert page_checksum(1, payload) != page_checksum(2, payload)

    def test_payload_sensitivity(self):
        assert (page_checksum(1, fill(0xAB))
                != page_checksum(1, fill(0xAC)))


class TestStampAndVerify:
    def test_write_stamps_and_read_verifies(self):
        pager, guard = guarded_pager()
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        assert guard.is_stamped(pid)
        assert bytes(pager.read(pid)) == fill(0x11)
        assert pager.stats.guard_verifications == 1
        assert pager.stats.guard_quarantines == 0

    def test_allocate_stamps_zero_page(self):
        pager, guard = guarded_pager()
        pid = pager.allocate()
        assert guard.is_stamped(pid)
        assert bytes(pager.read(pid)) == bytes(PAGE_SIZE)

    def test_unstamped_page_passes_through(self):
        # Adoption path: a pre-guard file has no stamps; reads succeed
        # (and are trusted) until stamp_all() or a write covers them.
        pager = Pager.in_memory(PAGE_SIZE)
        pid = pager.allocate()
        pager.write(pid, fill(0x22))
        guard = PageGuard(io.BytesIO(), PAGE_SIZE)
        pager.attach_guard(guard)
        assert not guard.is_stamped(pid)
        assert bytes(pager.read(pid)) == fill(0x22)

    def test_stamp_all_adopts_existing_pages(self):
        pager = Pager.in_memory(PAGE_SIZE)
        pids = [pager.allocate() for _ in range(3)]
        for i, pid in enumerate(pids):
            pager.write(pid, fill(0x30 + i))
        guard = PageGuard(io.BytesIO(), PAGE_SIZE)
        pager.attach_guard(guard)
        guard.stamp_all(pager)
        assert guard.stamped_pages == set(pids)

    def test_mismatched_page_size_rejected(self):
        guard = PageGuard(io.BytesIO(), 128)
        with pytest.raises(ValueError):
            Pager.in_memory(PAGE_SIZE, guard=guard)


class TestCorruptionAndQuarantine:
    def corrupt(self, pager, pid, data):
        """Damage the backing file under the pager's feet."""
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(data)

    def test_bit_flip_raises_typed_error(self):
        pager, guard = guarded_pager()
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        bad = bytearray(fill(0x11))
        bad[7] ^= 0x01
        self.corrupt(pager, pid, bytes(bad))
        with pytest.raises(PageCorruptionError) as excinfo:
            pager.read(pid)
        assert excinfo.value.page_id == pid
        assert pager.stats.guard_quarantines == 1

    def test_quarantine_fails_fast_without_rereading(self):
        pager, guard = guarded_pager()
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        self.corrupt(pager, pid, fill(0x99))
        with pytest.raises(PageCorruptionError):
            pager.read(pid)
        reads_after_first = pager.stats.physical_reads
        with pytest.raises(PageCorruptionError) as excinfo:
            pager.read(pid)
        assert excinfo.value.quarantined
        assert pager.stats.physical_reads == reads_after_first

    def test_misdirected_write_detected_by_salt(self):
        # Two pages with identical *future* content: copy page A's image
        # over page B.  A payload-only checksum would pass; the page-id
        # salt must not.
        pager, guard = guarded_pager()
        a, b = pager.allocate(), pager.allocate()
        pager.write(a, fill(0x55))
        pager.write(b, fill(0x66))
        pager._file.seek(a * PAGE_SIZE)
        image_a = pager._file.read(PAGE_SIZE)
        self.corrupt(pager, b, image_a)
        with pytest.raises(PageCorruptionError):
            pager.read(b)

    def test_rewrite_heals_quarantine(self):
        pager, guard = guarded_pager()
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        self.corrupt(pager, pid, fill(0x99))
        with pytest.raises(PageCorruptionError):
            pager.read(pid)
        pager.write(pid, fill(0x44))
        assert pid not in guard.quarantined_pages
        assert bytes(pager.read(pid)) == fill(0x44)


class TestWalReadRepair:
    def make_guarded_wal_pool(self):
        pager, guard = guarded_pager()
        wal = WriteAheadLog(io.BytesIO(), PAGE_SIZE)
        pool = BufferPool(pager, capacity=8)
        pool.attach_wal(wal)
        return pager, guard, pool, wal

    def test_flipped_bit_repaired_from_committed_image(self):
        """Satellite oracle: bit flip + covering WAL image ==
        transparent repair to exactly the committed bytes."""
        pager, guard, pool, wal = self.make_guarded_wal_pool()
        pid = pager.allocate()
        pool.put(pid, fill(0x11))
        pool.commit()
        pool.flush()
        pool.flush_and_clear()
        bad = bytearray(fill(0x11))
        bad[3] ^= 0x80
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(bytes(bad))
        assert bytes(pager.read(pid)) == fill(0x11)
        assert pager.stats.guard_repairs == 1
        assert pager.stats.guard_quarantines == 0

    def test_repair_uses_newest_committed_image(self):
        pager, guard, pool, wal = self.make_guarded_wal_pool()
        pid = pager.allocate()
        for value in (0x11, 0x22, 0x33):
            pool.put(pid, fill(value))
            pool.commit()
        pool.flush()
        pool.flush_and_clear()
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(fill(0x99))
        assert bytes(pager.read(pid)) == fill(0x33)

    def test_repair_persists_to_data_file(self):
        pager, guard, pool, wal = self.make_guarded_wal_pool()
        pid = pager.allocate()
        pool.put(pid, fill(0x11))
        pool.commit()
        pool.flush()
        pool.flush_and_clear()
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(fill(0x99))
        pager.read(pid)
        pager._file.seek(pid * PAGE_SIZE)
        assert pager._file.read(PAGE_SIZE) == fill(0x11)

    def test_uncommitted_image_is_not_a_repair_source(self):
        """Satellite oracle: no *committed* WAL image covering the page
        == typed PageCorruptionError, never a silent answer."""
        pager, guard, pool, wal = self.make_guarded_wal_pool()
        pid = pager.allocate()
        pool.put(pid, fill(0x11))
        pool.commit()
        pool.flush()
        # A newer, uncommitted image must not repair (redo-only rules).
        pool.put(pid, fill(0x22))
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(fill(0x99))
        repaired = pager.read(pid)
        assert bytes(repaired) == fill(0x11)

    def test_no_covering_image_raises(self):
        pager, guard, pool, wal = self.make_guarded_wal_pool()
        a = pager.allocate()
        b = pager.allocate()
        pool.put(a, fill(0x11))
        pool.commit()
        pool.flush()
        pool.flush_and_clear()
        # Corrupt b, whose only WAL trace is the allocate-time zero
        # stamp (never logged): no committed image covers it.
        pager._file.seek(b * PAGE_SIZE)
        pager._file.write(fill(0x99))
        with pytest.raises(PageCorruptionError) as excinfo:
            pager.read(b)
        assert not excinfo.value.quarantined
        assert b in guard.quarantined_pages


class TestSidecarPersistence:
    def test_stamps_survive_reopen(self, tmp_path):
        data = str(tmp_path / "d.pg")
        sums = str(tmp_path / "d.pg.sum")
        with PageGuard.open(sums, PAGE_SIZE) as guard:
            pager = Pager.open(data, PAGE_SIZE, guard=guard)
            pid = pager.allocate()
            pager.write(pid, fill(0x11))
            pager.close()
        with PageGuard.open(sums, PAGE_SIZE) as guard:
            assert guard.is_stamped(0)
            pager = Pager.open(data, PAGE_SIZE, guard=guard)
            assert bytes(pager.read(0)) == fill(0x11)
            pager.close()

    def test_corruption_detected_across_reopen(self, tmp_path):
        data = str(tmp_path / "d.pg")
        sums = str(tmp_path / "d.pg.sum")
        with PageGuard.open(sums, PAGE_SIZE) as guard:
            pager = Pager.open(data, PAGE_SIZE, guard=guard)
            pager.allocate()
            pager.write(0, fill(0x11))
            pager.close()
        with open(data, "r+b") as handle:
            handle.seek(5)
            handle.write(b"\xff")
        with PageGuard.open(sums, PAGE_SIZE) as guard:
            pager = Pager.open(data, PAGE_SIZE, guard=guard)
            with pytest.raises(PageCorruptionError):
                pager.read(0)
            pager.close()

    def test_recover_path_restamps_replayed_pages(self, tmp_path):
        data = str(tmp_path / "d.pg")
        wal_path = str(tmp_path / "d.pg.wal")
        sums = str(tmp_path / "d.pg.sum")
        guard = PageGuard.open(sums, PAGE_SIZE)
        pager = Pager.open(data, PAGE_SIZE, guard=guard)
        wal = WriteAheadLog.open(wal_path, PAGE_SIZE)
        pool = BufferPool(pager, capacity=8)
        pool.attach_wal(wal)
        pid = pager.allocate()
        pool.put(pid, fill(0x11))
        pool.commit()
        wal.close()
        pool.close()  # flushes; but corrupt the file afterwards
        with open(data, "r+b") as handle:
            handle.seek(pid * PAGE_SIZE)
            handle.write(fill(0x99))
        result = recover_path(data, wal_path, guard_path=sums)
        assert result.pages_applied >= 1
        with PageGuard.open(sums, PAGE_SIZE) as guard:
            pager = Pager.open(data, PAGE_SIZE, guard=guard)
            assert bytes(pager.read(pid)) == fill(0x11)
            pager.close()


class TestScrub:
    def test_scrub_clean_pager(self):
        pager, guard = guarded_pager()
        for value in (0x11, 0x22, 0x33):
            pid = pager.allocate()
            pager.write(pid, fill(value))
        report = scrub(pager)
        assert report.healthy
        assert report.pages_total == 3
        assert report.pages_ok == 3
        assert report.pages_corrupt == []

    def test_scrub_reports_corrupt_page(self):
        pager, guard = guarded_pager()
        pids = [pager.allocate() for _ in range(3)]
        for pid in pids:
            pager.write(pid, fill(0x40 + pid))
        pager._file.seek(pids[1] * PAGE_SIZE)
        pager._file.write(fill(0x99))
        report = scrub(pager)
        assert not report.healthy
        assert report.pages_corrupt == [pids[1]]
        assert "CORRUPT" in report.render()

    def test_scrub_counts_unstamped(self):
        pager = Pager.in_memory(PAGE_SIZE)
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        pager.attach_guard(PageGuard(io.BytesIO(), PAGE_SIZE))
        report = scrub(pager)
        assert report.pages_unstamped == 1
        assert report.healthy

    def test_scrub_path_stamp_missing_adopts(self, tmp_path):
        data = str(tmp_path / "d.pg")
        pager = Pager.open(data, PAGE_SIZE)
        pid = pager.allocate()
        pager.write(pid, fill(0x11))
        pager.close()
        # A raw page file has no superblock to sniff the page size from;
        # an empty sidecar records it (the adoption flow for pre-guard
        # files that are not PRIX indexes).
        PageGuard.open(data + ".sum", PAGE_SIZE).close()
        report = scrub_path(data, stamp_missing=True)
        assert report.pages_unstamped == 0  # adopted, folded into ok
        report = scrub_path(data)
        assert report.pages_unstamped == 0
        assert report.pages_ok == 1
        assert os.path.exists(data + ".sum")

    def test_report_as_dict_round_trips(self):
        pager, guard = guarded_pager()
        pager.write(pager.allocate(), fill(0x11))
        report = scrub(pager)
        as_dict = report.as_dict()
        assert as_dict["pages_total"] == 1
        assert as_dict["healthy"] is True

    def test_report_to_json_is_the_canonical_as_dict(self):
        """Regression for the single-serializer contract: both
        `prix scrub --json` and the serve tier's /healthz emit exactly
        this string, so its shape is pinned here."""
        import json
        pager, guard = guarded_pager()
        pager.write(pager.allocate(), fill(0x11))
        report = scrub(pager)
        text = report.to_json()
        assert json.loads(text) == json.loads(
            json.dumps(report.as_dict()))
        # Canonical: sorted keys, deterministic across calls.
        assert text == report.to_json()
        assert list(json.loads(text)) == sorted(json.loads(text))
        # indent= feeds the CLI's pretty mode without changing content.
        assert json.loads(report.to_json(indent=2)) == json.loads(text)


class TestAccountingInvariance:
    def test_guard_never_touches_physical_counters(self):
        """The paper's "Disk IO pages" columns must not move when the
        guard is on: verification, repair bookkeeping and sidecar
        traffic live in the guard_* counters only."""
        def workload(pager):
            pids = [pager.allocate() for _ in range(4)]
            for i, pid in enumerate(pids):
                pager.write(pid, fill(0x10 + i))
            for pid in pids:
                pager.read(pid)

        plain = Pager.in_memory(PAGE_SIZE, stats=IOStats())
        workload(plain)
        guarded, _ = guarded_pager()
        workload(guarded)
        assert (guarded.stats.physical_reads
                == plain.stats.physical_reads)
        assert (guarded.stats.physical_writes
                == plain.stats.physical_writes)
        assert guarded.stats.guard_verifications == 4

    def test_repair_write_is_uncounted(self):
        pager, guard = guarded_pager()
        wal = WriteAheadLog(io.BytesIO(), PAGE_SIZE)
        pool = BufferPool(pager, capacity=8)
        pool.attach_wal(wal)
        pid = pager.allocate()
        pool.put(pid, fill(0x11))
        pool.commit()
        pool.flush()
        pool.flush_and_clear()
        writes_before = pager.stats.physical_writes
        pager._file.seek(pid * PAGE_SIZE)
        pager._file.write(fill(0x99))
        pager.read(pid)
        assert pager.stats.guard_repairs == 1
        assert pager.stats.physical_writes == writes_before
