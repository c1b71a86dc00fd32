"""Index persistence tests: save to a file, reopen, query identically."""

import json

import pytest

from repro.baselines.naive import naive_matches
from repro.datasets import dblp
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document

QUERIES = ['//inproceedings[./author="Jim Gray"][./year="1990"]',
           "//www[./editor]/url",
           "//inproceedings/author",
           '//title[text()="Semantic Analysis Patterns"]']


@pytest.fixture()
def saved_index_path(tmp_path):
    corpus = dblp(120)
    path = str(tmp_path / "prix.idx")
    index = PrixIndex.build(corpus.documents, IndexOptions(path=path))
    expected = {}
    for xpath in QUERIES:
        expected[xpath] = {(m.doc_id, m.canonical)
                           for m in index.query(xpath)}
    index.save()
    index.close()
    return path, expected


class TestSaveAndOpen:
    def test_reopened_index_answers_identically(self, saved_index_path):
        path, expected = saved_index_path
        reopened = PrixIndex.open(path)
        for xpath, want in expected.items():
            got = {(m.doc_id, m.canonical)
                   for m in reopened.query(xpath)}
            assert got == want, xpath
        reopened.close()

    def test_reopened_matches_oracle(self, saved_index_path, tmp_path):
        path, _ = saved_index_path
        reopened = PrixIndex.open(path)
        corpus = dblp(120)  # deterministic: same corpus
        pattern = parse_xpath("//article[./volume]/year")
        got = {(m.doc_id, m.canonical) for m in reopened.query(pattern)}
        want = {(d.doc_id, emb) for d in corpus.documents
                for emb in naive_matches(d, pattern)}
        assert got == want
        reopened.close()

    def test_metadata_survives(self, saved_index_path):
        path, _ = saved_index_path
        reopened = PrixIndex.open(path)
        assert reopened.doc_count == 120
        assert set(reopened.variants()) == {"rp", "ep"}
        stats = reopened.trie_stats("rp")
        assert stats.sequence_count == 120
        assert stats.node_count > 0
        assert reopened.maxgap_table("rp").get("inproceedings") > 0
        reopened.close()

    def test_strategies_work_after_reopen(self, saved_index_path):
        path, expected = saved_index_path
        reopened = PrixIndex.open(path)
        xpath = QUERIES[0]
        for strategy in ("trie", "document"):
            got = {(m.doc_id, m.canonical)
                   for m in reopened.query(xpath, strategy=strategy)}
            assert got == expected[xpath], strategy
        reopened.close()

    def test_cold_io_accounting_after_reopen(self, saved_index_path):
        path, _ = saved_index_path
        reopened = PrixIndex.open(path)
        _, stats = reopened.query_with_stats(QUERIES[0], cold=True)
        assert stats.physical_reads > 0
        reopened.close()

    def test_non_default_page_size_roundtrip(self, tmp_path):
        corpus = dblp(40)
        path = str(tmp_path / "small_pages.idx")
        index = PrixIndex.build(corpus.documents,
                                IndexOptions(path=path, page_size=1024))
        want = {(m.doc_id, m.canonical)
                for m in index.query("//www[./editor]/url")}
        index.save()
        index.close()
        reopened = PrixIndex.open(path)
        got = {(m.doc_id, m.canonical)
               for m in reopened.query("//www[./editor]/url")}
        assert got == want
        reopened.close()


class TestOpenValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            PrixIndex.open(str(tmp_path / "nope.idx"))

    def test_not_an_index(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError):
            PrixIndex.open(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"ab")
        with pytest.raises(ValueError):
            PrixIndex.open(str(path))

    def test_save_twice_keeps_working(self, tmp_path):
        corpus = dblp(30)
        path = str(tmp_path / "twice.idx")
        index = PrixIndex.build(corpus.documents, IndexOptions(path=path))
        index.save()
        index.save()
        index.close()
        reopened = PrixIndex.open(path)
        assert reopened.doc_count == 30
        reopened.close()


class TestDurablePersistence:
    def test_durable_roundtrip_with_auto_detect(self, tmp_path):
        corpus = dblp(40)
        path = str(tmp_path / "durable.idx")
        with PrixIndex.build(corpus.documents,
                             IndexOptions(path=path,
                                          durable=True)) as index:
            want = {(m.doc_id, m.canonical)
                    for m in index.query(QUERIES[2])}
        # The sidecar .wal makes open() pick durable mode on its own.
        with PrixIndex.open(path) as reopened:
            assert reopened._pool.wal is not None
            got = {(m.doc_id, m.canonical)
                   for m in reopened.query(QUERIES[2])}
        assert got == want

    def test_checkpoint_truncates_and_preserves(self, tmp_path):
        corpus = dblp(40)
        path = str(tmp_path / "ckpt.idx")
        with PrixIndex.build(corpus.documents,
                             IndexOptions(path=path,
                                          durable=True)) as index:
            want = {(m.doc_id, m.canonical)
                    for m in index.query(QUERIES[2])}
            before = index._pool.wal.size_bytes
            index.checkpoint()
            after = index._pool.wal.size_bytes
        assert after < before
        with PrixIndex.open(path, durable=True) as reopened:
            got = {(m.doc_id, m.canonical)
                   for m in reopened.query(QUERIES[2])}
        assert got == want

    def test_durable_insert_then_save_survives_reopen(self, tmp_path):
        from repro.xmlkit.parser import parse_document
        path = str(tmp_path / "grow.idx")
        base = [parse_document("<bib><article><author>codd</author>"
                               "</article></bib>", 1),
                parse_document("<bib><book><author>date</author>"
                               "</book></bib>", 2)]
        extra = parse_document("<bib><article><author>gray</author>"
                               "</article></bib>", 3)
        with PrixIndex.build(base,
                             IndexOptions(path=path, durable=True,
                                          labeler="dynamic")) as index:
            index.insert_document(extra)
            index.save()
        with PrixIndex.open(path) as reopened:
            assert reopened.doc_count == 3
            got = {m.doc_id for m in reopened.query("//article/author")}
            assert got == {1, 3}


def strip_layout_keys(path):
    """Rewrite the catalog record in place without the labeling keys --
    the file as the commit before they were recorded saved it."""
    page, offset, length, page_size = PrixIndex._read_superblock(path)
    with open(path, "r+b") as handle:
        handle.seek(page * page_size + offset)
        meta = json.loads(handle.read(length))
        for key in ("labeler", "alpha", "max_range"):
            del meta[key]
        handle.seek(page * page_size + offset)
        handle.write(json.dumps(meta).encode("utf-8").ljust(length))


class TestCatalogRemembersTheLayout:
    """Build options are read from the file, not guessed: what
    ``rebuilt()`` lays out after a reopen is what ``build`` laid out."""

    DOCS = ["<a><b><c/></b></a>", "<a><b/></a>", "<a><b>x</b></a>"]
    NOVEL = "<x><y><z/></y></x>"

    def documents(self):
        return [parse_document(text, doc_id)
                for doc_id, text in enumerate(self.DOCS, start=1)]

    def assert_keeps_slack(self, index):
        assert index._pool.page_size == 1024
        for variant in index.variants():
            assert index._variants[variant].root_range[1] == 2 ** 63
        index.insert_document(parse_document(self.NOVEL, 99))
        assert index.query("//x/y/z").doc_ids == [99]

    def test_dynamic_index_survives_save_open_rebuilt(self, tmp_path):
        path = str(tmp_path / "dynamic.idx")
        options = IndexOptions(labeler="dynamic", page_size=1024, path=path)
        with PrixIndex.build(self.documents(), options) as built:
            built.save()
        with PrixIndex.build(self.documents(),
                             IndexOptions(labeler="dynamic",
                                          page_size=1024)) as fresh:
            self.assert_keeps_slack(fresh)
        with PrixIndex.open(path) as reopened:
            with reopened.rebuilt() as rebuilt:
                self.assert_keeps_slack(rebuilt)

    def test_file_saved_before_the_keys_existed_opens_unchanged(
            self, saved_index_path):
        path, expected = saved_index_path
        strip_layout_keys(path)
        with PrixIndex.open(path) as reopened:
            for xpath, want in expected.items():
                got = {(m.doc_id, m.canonical)
                       for m in reopened.query(xpath)}
                assert got == want, xpath
            assert reopened.layout_options() == IndexOptions()
