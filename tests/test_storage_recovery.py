"""Recovery tests: committed tails replay, uncommitted tails vanish.

Each test builds a log by hand, "crashes" by discarding the live
objects, and checks what :func:`recover` makes of the bytes left behind
-- including running recovery twice, because a crash *during* recovery
is cured by running it again (idempotence).
"""

import io
from pathlib import Path

import pytest

from helpers import catalog_state
from repro.prix.index import IndexOptions, PrixIndex
from repro.storage.recovery import recover, recover_path, scan_committed
from repro.storage.wal import SYNC_NEVER, WriteAheadLog
from repro.xmlkit.parser import parse_document

PAGE = 64


def image(fill):
    return bytes([fill]) * PAGE


def fresh_log(records):
    """A log file holding ``records``: 'p' logs pages, 'c' commits."""
    buf = io.BytesIO()
    wal = WriteAheadLog(buf, PAGE, sync_policy=SYNC_NEVER)
    for op, args in records:
        if op == "p":
            wal.log_page(args[0], image(args[1]))
        elif op == "c":
            wal.commit()
    return wal


class TestScan:
    def test_commit_promotes_pending(self):
        wal = fresh_log([("p", (0, 1)), ("p", (1, 2)), ("c", ())])
        committed, result = scan_committed(wal)
        assert set(committed) == {0, 1}
        assert result.commits_applied == 1
        assert result.pages_discarded == 0

    def test_uncommitted_tail_discarded(self):
        wal = fresh_log([("p", (0, 1)), ("c", ()), ("p", (1, 2))])
        committed, result = scan_committed(wal)
        assert set(committed) == {0}
        assert result.pages_discarded == 1

    def test_later_commit_wins_per_page(self):
        wal = fresh_log([("p", (0, 1)), ("c", ()),
                         ("p", (0, 9)), ("c", ())])
        committed, _ = scan_committed(wal)
        assert committed[0] == image(9)

    def test_empty_log_is_clean(self):
        wal = fresh_log([])
        committed, result = scan_committed(wal)
        assert committed == {}
        assert result.clean


class TestRecover:
    def test_replays_into_empty_file(self):
        wal = fresh_log([("p", (0, 5)), ("p", (1, 6)), ("c", ())])
        data = io.BytesIO()
        result = recover(data, wal)
        assert result.pages_applied == 2
        assert data.getvalue() == image(5) + image(6)

    def test_gap_pages_zero_filled(self):
        wal = fresh_log([("p", (2, 7)), ("c", ())])
        data = io.BytesIO()
        recover(data, wal)
        assert data.getvalue() == image(0) + image(0) + image(7)

    def test_torn_data_tail_truncated(self):
        wal = fresh_log([("p", (0, 3)), ("c", ())])
        data = io.BytesIO(image(1) + b"torn-half-page")
        result = recover(data, wal)
        assert result.truncated_bytes == len(b"torn-half-page")
        assert data.getvalue() == image(3)

    def test_uncommitted_images_never_reach_data(self):
        wal = fresh_log([("p", (0, 3)), ("c", ()), ("p", (0, 9))])
        data = io.BytesIO()
        recover(data, wal)
        assert data.getvalue() == image(3)

    def test_recovery_is_idempotent(self):
        wal = fresh_log([("p", (0, 4)), ("p", (1, 5)), ("c", ())])
        data = io.BytesIO()
        recover(data, wal)
        once = data.getvalue()
        recover(data, wal)  # crash-during-recovery -> run it again
        assert data.getvalue() == once

    def test_clean_log_touches_nothing(self):
        wal = fresh_log([])
        payload = image(8) + image(9)
        data = io.BytesIO(payload)
        result = recover(data, wal)
        assert result.clean
        assert data.getvalue() == payload


class TestRecoverPath:
    def test_missing_wal_is_clean(self, tmp_path):
        result = recover_path(str(tmp_path / "idx"),
                              str(tmp_path / "idx.wal"))
        assert result.clean

    def test_replays_from_files(self, tmp_path):
        wal_path = str(tmp_path / "idx.wal")
        data_path = str(tmp_path / "idx")
        with WriteAheadLog.open(wal_path, PAGE) as wal:
            wal.log_page(0, image(2))
            wal.commit(page_count=1)
        result = recover_path(data_path, wal_path)
        assert result.pages_applied == 1
        with open(data_path, "rb") as handle:
            assert handle.read() == image(2)

    def test_garbage_header_means_nothing_to_redo(self, tmp_path):
        # A crash during checkpoint truncation can leave a header torn;
        # the data file was fsynced before truncation, so recovery must
        # leave it alone.
        wal_path = tmp_path / "idx.wal"
        wal_path.write_bytes(b"\xde\xad")
        data_path = tmp_path / "idx"
        data_path.write_bytes(image(1))
        result = recover_path(str(data_path), str(wal_path))
        assert result.clean
        assert data_path.read_bytes() == image(1)


class TestChainedSaveSharesItsParentsPage:
    """Within a session ``RecordStore.append`` packs a small chained
    catalog record into the page its parent record ends on, so the
    second ``save()`` rewrites a page that holds a committed record.
    That is safe because the page only ever changes as a whole logged
    image: whatever a crash leaves of the second save -- a cut log, a
    torn page -- recovery restores one save's page or the other's."""

    PAGE = 1024

    @pytest.fixture()
    def two_saves(self, tmp_path):
        """One durable session: build (the first save), delete + save.
        Returns the file images and the catalog after each save, and
        the page the two catalog records share."""
        path = str(tmp_path / "live.idx")
        documents = [parse_document(f"<a><b>{i}</b><c/></a>", i)
                     for i in range(1, 9)]
        after = []
        with PrixIndex.build(documents, IndexOptions(
                path=path, durable=True, labeler="dynamic",
                page_size=self.PAGE)) as index:
            for step in range(2):
                if step:
                    index.delete_document(3)
                    index.save()
                page, offset, length, _ = PrixIndex._read_superblock(path)
                after.append({"state": catalog_state(index),
                              "data": Path(path).read_bytes(),
                              "wal": Path(path + ".wal").read_bytes(),
                              "first": page,
                              "last": page + (offset + length - 1)
                                      // self.PAGE})
        first, second = after
        assert second["first"] == first["last"]     # the shared page
        assert second["wal"].startswith(first["wal"])
        assert first["state"] != second["state"]
        return first, second, second["first"]

    def recovered(self, tmp_path, data, wal):
        path = tmp_path / "crashed.idx"
        path.write_bytes(data)
        (tmp_path / "crashed.idx.wal").write_bytes(wal)
        with PrixIndex.open(str(path)) as index:
            return catalog_state(index), index.query("//a/c").doc_ids

    def torn(self, first, second, shared):
        """The first save's file with the shared page half rewritten."""
        at = shared * self.PAGE
        half = at + self.PAGE // 2
        data = first["data"][:at] + second["data"][at:half] \
            + first["data"][half:]
        assert data not in (first["data"], second["data"][:len(data)])
        return data

    @pytest.mark.parametrize("lost", [1, 20, None],
                             ids=["commit-torn", "commit-lost", "batch-cut"])
    def test_log_cut_inside_the_second_save(self, two_saves, tmp_path, lost):
        first, second, _ = two_saves
        batch = len(second["wal"]) - len(first["wal"])
        cut = len(second["wal"]) - (lost or batch // 2)
        state, found = self.recovered(tmp_path, first["data"],
                                      second["wal"][:cut])
        assert state == first["state"]
        assert 3 in found

    def test_shared_page_torn_and_the_second_save_not_committed(
            self, two_saves, tmp_path):
        first, second, shared = two_saves
        state, found = self.recovered(
            tmp_path, self.torn(first, second, shared),
            second["wal"][:len(second["wal"]) - 1])
        assert state == first["state"]
        assert 3 in found

    def test_shared_page_torn_after_the_second_save_committed(
            self, two_saves, tmp_path):
        first, second, shared = two_saves
        state, found = self.recovered(
            tmp_path, self.torn(first, second, shared), second["wal"])
        assert state == second["state"]
        assert 3 not in found
