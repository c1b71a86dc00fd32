"""A malformed document record fails typed, and is never memoised.

An *unguarded* index has no page checksums, so at-rest damage inside a
stored document record is read back without complaint and only shows
when the record is decoded.  That must surface as corruption -- a
:class:`~repro.storage.errors.RecordCorruptionError` naming the document
and the record, exit code 3 from ``prix query``, ``corruption`` from
``POST /query`` -- not as a bare ``IndexError``/``ValueError`` filed
under ``internal``; and the failed decode must leave nothing behind on
the page's decoded-frame memo.
"""

import os

import pytest

from repro import cli
from repro.datasets.dblp import dblp
from repro.exitcodes import EXIT_CORRUPTION, classify
from repro.prix.index import (_SUPERBLOCK, IndexOptions, LabelDict,
                              PrixIndex, _decode_document,
                              _encode_document)
from repro.prufer.sequence import regular_sequence
from repro.shard import scrub_index
from repro.storage import (CorruptionError, RecordCorruptionError,
                           SuperblockError)
from repro.storage.codec import decode_varints, encode_varints
from test_serve_oracle import http_post, live_server

XPATH = "//inproceedings/author"


def damage_count(blob):
    """The node count now claims 127 nodes (parent: ``IndexError``)."""
    return b"\x7f" + blob[1:]


def damage_tail(blob):
    """The last varint never ends (parent: ``ValueError``)."""
    return blob[:-1] + bytes([blob[-1] | 0x80])


@pytest.fixture(params=[damage_count, damage_tail],
                ids=["node-count", "truncated-varint"])
def damaged(request, tmp_path):
    """``(path, victim doc id, healthy doc id on the same page)`` of an
    unguarded rp-only index with one record damaged on disk."""
    path = str(tmp_path / "damaged.prix")
    with PrixIndex.build(dblp(n_records=40, seed=11),
                         IndexOptions(path=path,
                                      variants=("rp",))) as index:
        matched = index.query(XPATH).doc_ids
        catalog = index._variants["rp"].catalog
        victim = matched[0]
        page, offset, length = catalog[victim]
        neighbour = next(doc for doc in matched[1:]
                         if catalog[doc][0] == page)
        page_size = index._pool.page_size
        assert offset + length <= page_size    # a single-page record
        index.save()
    with open(path, "r+b") as handle:
        handle.seek(page * page_size + offset)
        blob = handle.read(length)
        handle.seek(page * page_size + offset)
        handle.write(request.param(blob))
    return path, victim, neighbour


def test_query_raises_the_typed_error_and_memoises_nothing(damaged):
    path, victim, neighbour = damaged
    with PrixIndex.open(path, guard=False) as index:
        variant = index._variants["rp"]
        for _ in range(2):      # the second load must decode again
            with pytest.raises(RecordCorruptionError) as caught:
                index.query(XPATH)
            error = caught.value
            assert isinstance(error, CorruptionError)
            assert classify(error) == "corruption"
            assert error.doc_id == victim
            assert error.rid == variant.catalog[victim]
            assert f"document {victim}" in str(error)
            assert f"page {error.rid[0]}" in str(error)
        # A healthy record on the very same page still loads, from the
        # page memo the failed decodes shared with it.
        load = index._view_loader(variant)
        view = load(neighbour)
        assert view.doc_id == neighbour
        assert load(neighbour) is view
        with pytest.raises(RecordCorruptionError):
            load(victim)


def test_cli_exits_with_the_corruption_code(damaged, capsys):
    path, victim, _ = damaged
    assert cli.main(["query", path, XPATH]) == EXIT_CORRUPTION
    assert (f"error [RecordCorruptionError]: document {victim}"
            in capsys.readouterr().err)


def test_served_query_answers_corruption(damaged):
    path, victim, _ = damaged
    with live_server(path, backend="file") as (_, base):
        status, body = http_post(base, "/query", {"xpath": XPATH})
    assert status == 500
    assert body["error"]["code"] == "corruption"
    assert body["error"]["exit_code"] == EXIT_CORRUPTION
    assert body["error"]["error_type"] == "RecordCorruptionError"
    assert f"document {victim}" in body["error"]["message"]


class TestDecodeValidation:
    """Damage that decodes *without* an exception at the parent commit
    (a view with a label in the unused slot 0, a parent chain that
    loops) is refused as well."""

    @pytest.fixture()
    def record(self, fig2_doc):
        labels = LabelDict()
        numbers = decode_varints(
            _encode_document(regular_sequence(fig2_doc), labels))
        return numbers, labels

    def decode(self, numbers, labels):
        return _decode_document(7, (3, 0, len(numbers)),
                                encode_varints(numbers), labels, False)

    def test_the_untouched_record_decodes(self, record, fig2_doc):
        numbers, labels = record
        view = self.decode(numbers, labels)
        seq = regular_sequence(fig2_doc)
        assert view.n_nodes == seq.n_nodes
        assert view.nps[1:view.n_nodes] == list(seq.nps)
        assert view.nps[0] == view.nps[view.n_nodes] == 0
        assert [view.labels[view.nps[i]]
                for i in range(1, view.n_nodes)] == list(seq.lps)
        for label, postorder in seq.leaves:
            assert view.labels[postorder] == label

    @pytest.mark.parametrize("mutate", [
        lambda numbers, n: numbers.append(0),           # trailing number
        lambda numbers, n: numbers.pop(),               # one short
        lambda numbers, n: numbers.__setitem__(0, 0),   # no nodes
        lambda numbers, n: numbers.__setitem__(1, 0),   # parent 0
        lambda numbers, n: numbers.__setitem__(1, 1),   # parent == child
        lambda numbers, n: numbers.__setitem__(n - 1, n + 1),  # parent > n
        lambda numbers, n: numbers.__setitem__(n, 10 ** 6),    # label id
        lambda numbers, n: numbers.__setitem__(2 * n - 1, 0),  # no leaves
        lambda numbers, n: numbers.__setitem__(-1, 0),  # leaf postorder 0
        lambda numbers, n: numbers.__setitem__(-1, n + 1),     # leaf > n
        lambda numbers, n: numbers.__setitem__(-2, 10 ** 6),   # leaf label
        lambda numbers, n: numbers.clear(),             # empty blob
    ], ids=["trailing", "short", "zero-nodes", "parent-zero",
            "parent-not-above-child", "parent-out-of-range",
            "unknown-label", "leaf-count", "leaf-zero",
            "leaf-out-of-range", "unknown-leaf-label", "empty"])
    def test_malformed_numbers_are_refused(self, record, mutate):
        numbers, labels = record
        mutate(numbers, numbers[0])
        with pytest.raises(RecordCorruptionError, match="document 7"):
            self.decode(numbers, labels)


# -- a damaged *metadata* record: the catalog itself does not parse ------

def clobbered(length):
    """Not text at all (parent: bare ``UnicodeDecodeError``)."""
    return b"\xff" * length


def truncated_json(length):
    """Text, not JSON (parent: bare ``JSONDecodeError``)."""
    return b'{"labels": ['.ljust(length)


def missing_keys(length):
    """JSON of the wrong shape (parent: bare ``KeyError``)."""
    return b'{"labels": []}'.ljust(length)


def not_an_object(length):
    """JSON of the wrong type (parent: bare ``TypeError``)."""
    return b"[1, 2]".ljust(length)


def wrong_shape(length):
    """The keys scrub's own parser asked for, and nothing ``open`` needs
    (parent: ``prix scrub`` exits 0 on a file ``prix query`` refuses)."""
    return b'{"variants": {"rp": {}}, "doc_ids": [1]}'.ljust(length)


def saved_index(tmp_path):
    path = str(tmp_path / "catalog.prix")
    with PrixIndex.build(dblp(n_records=40, seed=11),
                         IndexOptions(path=path,
                                      variants=("rp",))) as index:
        index.save()
    return path


def damage_catalog(path, damage):
    """Overwrite the metadata record on disk; the superblock and every
    other page stay intact."""
    with open(path, "r+b") as handle:
        page, offset, length, page_size = PrixIndex._parse_superblock(
            handle.read(_SUPERBLOCK.size), path)
        handle.seek(page * page_size + offset)
        handle.write(damage(length))


@pytest.fixture(params=[clobbered, truncated_json, missing_keys,
                        not_an_object, wrong_shape],
                ids=lambda damage: damage.__name__)
def damaged_catalog(request, tmp_path):
    path = saved_index(tmp_path)
    damage_catalog(path, request.param)
    return path


def open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("backend", ["file", "mmap", "arena"])
def test_open_raises_superblock_error_and_closes_the_backend(
        damaged_catalog, backend):
    before = open_fds()
    with pytest.raises(SuperblockError, match="catalog unreadable") as caught:
        PrixIndex.open(damaged_catalog, guard=False, backend=backend)
    # Counted while the traceback still pins open()'s frame: the
    # backend was closed explicitly, not by a later refcount drop.
    assert open_fds() == before
    assert isinstance(caught.value, CorruptionError)
    assert classify(caught.value) == "corruption"


def test_cli_and_scrub_agree_a_damaged_catalog_is_corruption(
        damaged_catalog, capsys):
    assert cli.main(["query", damaged_catalog, XPATH]) == EXIT_CORRUPTION
    assert ("error [SuperblockError]: catalog unreadable"
            in capsys.readouterr().err)
    assert cli.main(["scrub", damaged_catalog]) == EXIT_CORRUPTION
    assert "UNREADABLE" in capsys.readouterr().out
    assert scrub_index(damaged_catalog).healthy is False


def test_served_reload_of_a_damaged_catalog_answers_corruption(tmp_path):
    """A mounted index cannot have an unreadable catalog, so the wire
    path that reaches ``PrixIndex.open`` is the hot reload."""
    path = saved_index(tmp_path)
    with live_server(path, backend="file") as (_, base):
        damage_catalog(path, clobbered)
        status, body = http_post(base, "/reload", {})
        assert status == 500
        assert body["error"]["code"] == "corruption"
        assert body["error"]["exit_code"] == EXIT_CORRUPTION
        assert body["error"]["error_type"] == "SuperblockError"
        # The generation that was serving keeps serving.
        status, body = http_post(base, "/query", {"xpath": XPATH})
        assert status == 200 and body["doc_ids"]


# -- a damaged *superblock*: magic intact, a field does not fit the file --

@pytest.mark.parametrize("at, mask", [
    (24, 0x01), (25, 0x20), (26, 0x01), (8, 0x40), (19, 0x01)],
    ids=["page-size-odd", "page-size-zero", "page-size-huge",
         "record-page", "record-length"])
def test_a_superblock_that_does_not_fit_its_file_is_corruption(
        tmp_path, capsys, at, mask):
    """One flipped bit in the page size (parent: bare ``ValueError`` /
    ``ZeroDivisionError`` from the pager), the record's page or its
    length (parent: ``PageRangeError``) -- no checksum covers these
    bytes before the page size is known, so the reader checks them
    against the file's length."""
    path = saved_index(tmp_path)
    with open(path, "r+b") as handle:
        handle.seek(at)
        byte = handle.read(1)[0]
        handle.seek(at)
        handle.write(bytes([byte ^ mask]))
    before = open_fds()
    with pytest.raises(SuperblockError, match="does not describe"):
        PrixIndex.open(path)
    assert open_fds() == before
    assert cli.main(["scrub", path]) == EXIT_CORRUPTION
    assert "UNREADABLE" in capsys.readouterr().out
