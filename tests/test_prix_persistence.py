"""Index persistence tests: save to a file, reopen, query identically."""

import json
import os
import shutil

import pytest

from helpers import catalog_state, head_record
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
        for strategy in ("trie", "auto"):
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
    """Rewrite the catalog record in place without the labeling key --
    the file as the commit before it was recorded saved it."""
    page, offset, length, page_size = PrixIndex._read_superblock(path)
    with open(path, "r+b") as handle:
        handle.seek(page * page_size + offset)
        meta = json.loads(handle.read(length))
        del meta["labeler"]
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
        for variant in index.variants():    # strided, not gap-free
            assert index._variants[variant].root_range[1] > 2 ** 62
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


TINY = ["<a><b><c/></b></a>", "<a><b/><c/></a>", "<a><b>x</b></a>",
        "<a><c><b/></c></a>", "<b><a/><c>y</c></b>"]

#: What a parentless catalog record holds, and each of its variants.
WHOLE_KEYS = {"version", "doc_ids", "labels", "variants", "labeler"}
VARIANT_KEYS = {"extended", "symbol_meta", "docid_meta", "root_range",
                "maxgap", "label_counts", "catalog", "trie_stats"}


def tiny_documents(count):
    return [parse_document(TINY[i % len(TINY)], i + 1) for i in range(count)]


def dynamic_options(path, **overrides):
    return IndexOptions(labeler="dynamic", page_size=1024, path=str(path),
                        **overrides)


class TestCatalogChain:
    """``save()`` appends what changed, chained to the record before it
    by ``parent``; only the first record of a chain is whole."""

    def test_first_save_writes_the_whole_catalog(self, tmp_path):
        path = tmp_path / "first.idx"
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path)) as index:
            assert index.summary()["catalog_records"] == 0
            index.save()
            summary = index.summary()
        record = head_record(str(path))
        assert set(record) == WHOLE_KEYS
        for variant in record["variants"].values():
            assert set(variant) == VARIANT_KEYS
        assert summary["catalog_records"] == 1
        assert summary["catalog_bytes"] == len(json.dumps(record))

    def test_save_after_a_durable_build_appends_nothing(self, tmp_path):
        path = tmp_path / "durable.idx"
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path, durable=True)) as index:
            built = os.path.getsize(path)
            index.save()
            assert os.path.getsize(path) == built
            assert index.summary()["catalog_records"] == 1
        assert "parent" not in head_record(str(path))

    def test_a_mutation_is_saved_as_a_chained_record(self, tmp_path):
        path = tmp_path / "chained.idx"
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path)) as index:
            index.save()
            root = index.summary()["catalog_bytes"]
            index.insert_document(
                parse_document("<n><a/><a/><a/><m/></n>", 77))
            index.delete_document(2)
            index.save()
            state = catalog_state(index)
            summary = index.summary()
        record = head_record(str(path))
        assert set(record) == {"parent", "doc_ids", "removed", "labels",
                               "variants"}
        assert record["doc_ids"] == [77] and record["removed"] == [2]
        assert sorted(record["labels"]) == ["m", "n"]
        for variant in record["variants"].values():
            assert set(variant) == {"catalog", "maxgap", "label_counts",
                                    "trie_stats"}
            assert list(variant["catalog"]) == ["77"]
            assert set(variant["maxgap"]) == {"n"}
        assert summary["catalog_records"] == 2
        assert summary["catalog_bytes"] == root + len(json.dumps(record))
        with PrixIndex.open(str(path)) as reopened:
            assert catalog_state(reopened) == state
            assert reopened.summary() == summary

    def test_a_document_inserted_and_deleted_between_saves_leaves_no_row(
            self, tmp_path):
        path = tmp_path / "cancelled.idx"
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path)) as index:
            index.save()
            index.delete_document(3)
            index.insert_document(parse_document(TINY[2], 3))
            index.insert_document(parse_document("<q><a/></q>", 9))
            index.delete_document(9)
            index.save()
            state = catalog_state(index)
        record = head_record(str(path))
        assert record["doc_ids"] == [3] and record["removed"] == [3]
        with PrixIndex.open(str(path)) as reopened:
            assert catalog_state(reopened) == state

    def test_a_chain_heavier_than_its_root_folds(self, tmp_path):
        path = tmp_path / "fold.idx"
        documents = tiny_documents(60)
        lengths = []
        with PrixIndex.build(documents, dynamic_options(path)) as index:
            index.save()
            root = index.summary()["catalog_bytes"]
            for document in documents[:50]:
                index.delete_document(document.doc_id)
                index.save()
                summary = index.summary()
                lengths.append(summary["catalog_records"])
                if lengths[-1] == 1:
                    break
                assert summary["catalog_bytes"] <= 2 * root
        assert lengths[-1] == 1, "the chain never folded"
        assert lengths[:-1] == list(range(2, len(lengths) + 1))
        assert len(lengths) > 3
        assert "parent" not in head_record(str(path))
        survivors = documents[len(lengths):]
        with PrixIndex.open(str(path)) as reopened, \
                PrixIndex.build(survivors, dynamic_options(
                    tmp_path / "fresh.idx")) as fresh:
            assert reopened.summary()["catalog_records"] == 1
            for xpath in ("//a/b", "//a//c", "//b[./a]", '//a[./b="x"]'):
                assert ([(m.doc_id, m.canonical)
                         for m in reopened.query(xpath)]
                        == [(m.doc_id, m.canonical)
                            for m in fresh.query(xpath)]), xpath

    def test_rebuilt_rebalance_and_compact_write_whole_catalogs(
            self, tmp_path):
        from repro.shard import ShardedIndex, build_shards, compact, rebalance
        path = tmp_path / "old.idx"
        with PrixIndex.build(tiny_documents(12),
                             dynamic_options(path)) as index:
            index.save()
            index.delete_document(4)
            index.save()
            assert "parent" in head_record(str(path))
            with index.rebuilt(index.layout_options(
                    path=str(tmp_path / "new.idx"))) as rebuilt:
                rebuilt.save()
        assert "parent" not in head_record(str(tmp_path / "new.idx"))

        directory = str(tmp_path / "shards")
        build_shards(tiny_documents(12), directory, shards=2,
                     options=IndexOptions(labeler="dynamic", page_size=1024))
        with ShardedIndex.open(directory) as sharded:
            sharded.delete_document(1)
            sharded.delete_document(12)

        def heads():
            return [head_record(os.path.join(directory, name))
                    for name in sorted(os.listdir(directory))
                    if name.endswith(".idx")]

        assert all("parent" in record for record in heads())
        rebalance(directory, shards=3)
        assert len(heads()) == 3
        assert not any("parent" in record for record in heads())
        with ShardedIndex.open(directory) as sharded:
            sharded.delete_document(6)
        assert any("parent" in record for record in heads())
        compact(directory)
        assert not any("parent" in record for record in heads())


#: Inserted into ``tiny_documents(5)`` under ``dynamic_options`` as
#: documents 98 and 99.  In both variants the first leaves the trie at a
#: leaf and the second at a node with children, whose next free id is
#: its last child's RightPos.
CARVING_XML = ("<a><b><c/></b><e/></a>", "<d><b><q/></b></d>")

#: The ``(label, LeftPos, RightPos)`` of each trie node those inserts
#: carve, per variant, out of the strided labels of a dynamic build.
CARVED = {"rp": {("a", 3586866903221301701, 3650918097921682088),
                 ("d", 6148914691236517200, 6212965885936897587)},
          "ep": {("a", 8198552921648689602, 8202556121317463376),
                 ("b", 8967167258053254251, 8971170457722028025),
                 ("d", 8967167258053254252, 8967667658011850973),
                 ("e", 8198552921648689601, 8230578518998879794),
                 ("q", 8967167258053254250, 8999192855403444443)}}

#: The same inserts into ``OLD_FILE``, whose labels the alpha-prefix
#: scheme assigned -- as carved while the scope state was still stored
#: in a per-node allocation B+-tree.
OLD_CARVED = {"rp": {("a", 1064235235021704904, 1141835720908704219),
                     ("d", 2305843009213693953, 2461043980987692584)},
              "ep": {("a", 3773197651440590107, 3776472996624132285),
                     ("b", 4611686018427387904, 4683743612465315839),
                     ("d", 4611686018427387905, 4620693217682128896),
                     ("e", 3773197651440590106, 3799400412908927537),
                     ("q", 4611686018427387903, 5188146770730811391)}}

#: A dynamic-labelled index over ``tiny_documents(5)``, saved by a build
#: whose catalog still located that tree (``alloc_meta``) and recorded
#: the alpha-prefix scheme's ``alpha`` and ``max_range``.
OLD_FILE = os.path.join(os.path.dirname(__file__), "golden",
                        "tiny_dynamic_with_alloc_tree.idx")

TINY_QUERIES = ("//a/b", "//a/b/c", "//a/c", "//a//b", '//a[./b="x"]',
                '//b[./c="y"]/a')


def trie_nodes(index):
    """``{variant: {(label, LeftPos, RightPos)}}`` over every trie node."""
    return {name: {(label, left, right)
                   for label in variant.label_counts
                   for left, right, _ in
                   variant.symbol_index.range_query_full(label, 0, 2 ** 63)}
            for name, variant in index._variants.items()}


def carve(index):
    """Insert ``CARVING_XML``; the trie nodes that added.  The index
    then answers for the new documents."""
    before = trie_nodes(index)
    for doc_id, xml in enumerate(CARVING_XML, start=98):
        index.insert_document(parse_document(xml, doc_id))
    after = trie_nodes(index)
    assert index.query("//a/e").doc_ids == [98]
    assert index.query("//d/b/q").doc_ids == [99]
    return {name: after[name] - before[name] for name in after}


class TestCarving:
    """A node's next free id is derived from the Trie-Symbol index, so a
    carve is the same on a fresh build, a reopened one, and a file that
    also stored it."""

    def test_carve_is_the_same_before_and_after_save_and_open(
            self, tmp_path):
        path = str(tmp_path / "carve.idx")
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(tmp_path / "fresh.idx")) \
                as fresh:
            assert carve(fresh) == CARVED
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path)) as index:
            index.save()
        with PrixIndex.open(path) as reopened:
            assert carve(reopened) == CARVED

    def test_a_file_that_stored_the_allocation_tree_opens_and_carves(
            self, tmp_path):
        path = str(tmp_path / "old.idx")
        shutil.copy(OLD_FILE, path)
        assert all("alloc_meta" in variant for variant
                   in head_record(path)["variants"].values())
        with PrixIndex.build(tiny_documents(5), IndexOptions(
                labeler="dynamic", page_size=1024)) as fresh, \
                PrixIndex.open(path) as old:
            for xpath in TINY_QUERIES:
                want = {(m.doc_id, m.canonical) for m in fresh.query(xpath)}
                assert want, xpath
                assert {(m.doc_id, m.canonical)
                        for m in old.query(xpath)} == want, xpath
            assert old.layout_options() == fresh.layout_options()
            assert all(row["insertion_slack"] for row
                       in old.summary()["variants"].values())
            assert carve(old) == OLD_CARVED

    def test_a_file_whose_dynamic_build_fell_back_still_refuses(
            self, tmp_path):
        """A dynamic build used to fall back to gap-free labels when its
        scopes ran out, and counted that in ``trie_stats.rebuilds``.  A
        file saved so still reports no slack and refuses a novel
        insert rather than carving from a gap it does not have."""
        from repro.prix.incremental import RebuildRequiredError
        path = str(tmp_path / "fell-back.idx")
        with PrixIndex.build(tiny_documents(5),
                             dynamic_options(path)) as index:
            index.save()
        page, offset, length, page_size = PrixIndex._read_superblock(path)
        with open(path, "r+b") as handle:
            handle.seek(page * page_size + offset)
            meta = json.loads(handle.read(length))
            meta["variants"]["ep"]["trie_stats"]["rebuilds"] = 1
            handle.seek(page * page_size + offset)
            handle.write(json.dumps(meta).encode("utf-8").ljust(length))
        with PrixIndex.open(path) as reopened:
            assert {name: row["insertion_slack"] for name, row
                    in reopened.summary()["variants"].items()} == \
                {"rp": True, "ep": False}
            with pytest.raises(RebuildRequiredError, match="gap-free"):
                reopened.insert_document(parse_document(CARVING_XML[1], 99))


class TestDeleteIsAllOrNothing:
    def test_delete_of_an_underflowed_insert_touches_no_variant(self):
        """Bulk labels leave no slack.  The new document's Regular-Prufer
        sequence already has its trie path (same shape as document 1,
        another leaf tag) but its Extended-Prufer one does not, so the
        insert underflows in ``ep`` only -- and the delete then fails in
        ``ep``, having removed nothing from ``rp``."""
        from repro.prix.incremental import RebuildRequiredError
        index = PrixIndex.build(tiny_documents(5), IndexOptions())
        with pytest.raises(RebuildRequiredError):
            index.insert_document(parse_document("<a><b><z/></b></a>", 50))
        assert index.query("//a/b/z", variant="rp").doc_ids == [50]
        before = catalog_state(index)
        with pytest.raises(KeyError, match="missing from the trie"):
            index.delete_document(50)
        assert catalog_state(index) == before
        assert index.query("//a/b/z", variant="rp").doc_ids == [50]
        with index.rebuilt() as rebuilt:
            assert rebuilt.query("//a/b/z").doc_ids == [50]


def plant_head(path, record, length=512):
    """Append ``record`` (space-padded to ``length`` bytes, so it can
    name itself) as a new last page of the unguarded file at ``path``
    and point the superblock at it; returns its record id."""
    from repro.prix.index import _SUPER_MAGIC, _SUPERBLOCK
    page_size = PrixIndex._read_superblock(path)[3]
    with open(path, "r+b") as handle:
        page = handle.seek(0, os.SEEK_END) // page_size
        handle.write(json.dumps(record).encode("utf-8").ljust(length)
                     .ljust(page_size, b"\x00"))
        handle.seek(0)
        handle.write(_SUPERBLOCK.pack(_SUPER_MAGIC, page, 0, length,
                                      page_size))
    return [page, 0, length]


class TestHostileChains:
    """A chained record is outside input like the superblock is: on an
    unguarded file nothing vouches for it before ``open`` follows it."""

    XPATH = "//a/b"

    @pytest.fixture()
    def chained(self, tmp_path):
        """``(path, head record id, head record)`` of an unguarded index
        whose head is a chained record."""
        path = str(tmp_path / "chain.idx")
        with PrixIndex.build(tiny_documents(8),
                             dynamic_options(path)) as index:
            index.save()
            index.insert_document(parse_document("<a><b/><n/></a>", 30))
            index.delete_document(2)
            index.save()
        page, offset, length, _ = PrixIndex._read_superblock(path)
        return path, [page, offset, length], head_record(path)

    @staticmethod
    def delta(parent, **fields):
        return {"parent": parent, "doc_ids": [], "removed": [],
                "labels": [], "variants": {}, **fields}

    def assert_refused(self, path, capsys):
        from repro import cli
        from repro.exitcodes import EXIT_CORRUPTION
        from repro.storage import SuperblockError
        with pytest.raises(SuperblockError, match="catalog unreadable"):
            PrixIndex.open(path)
        assert cli.main(["query", path, self.XPATH]) == EXIT_CORRUPTION
        assert "error [SuperblockError]" in capsys.readouterr().err
        assert cli.main(["scrub", path, "--json"]) == EXIT_CORRUPTION
        assert json.loads(capsys.readouterr().out)["catalog_ok"] is False

    def test_a_planted_record_that_continues_the_chain_opens(self, chained):
        """The harness itself: what the cases below refuse is the
        hostile field, not the planting."""
        path, head, _ = chained
        plant_head(path, self.delta(head))
        with PrixIndex.open(path) as index:
            assert index.summary()["catalog_records"] == 3
            found = index.query(self.XPATH).doc_ids
            assert 30 in found and 2 not in found

    @pytest.mark.parametrize("where", ["itself", "forward", "past-the-end",
                                       "not-json", "the-superblock",
                                       "not-a-triple"])
    def test_a_parent_that_is_no_earlier_record(self, chained, capsys,
                                                where):
        path, head, _ = chained
        page = os.path.getsize(path) // 1024    # where the plant lands
        parent = {"itself": [page, 0, 512],
                  "forward": [page, 600, 40],
                  "past-the-end": [page + 100, 0, 40],
                  "not-json": [1, 0, 40],
                  "the-superblock": [0, 0, 28],
                  "not-a-triple": [head[0], head[1]]}[where]
        assert plant_head(path, self.delta(parent)) == [page, 0, 512]
        self.assert_refused(path, capsys)

    def test_a_removed_id_the_chain_never_added(self, chained, capsys):
        path, head, _ = chained
        plant_head(path, self.delta(head, removed=[12345]))
        self.assert_refused(path, capsys)

    def test_a_catalog_row_that_is_not_a_record_id(self, chained, capsys):
        path, head, record = chained
        variants = record["variants"]
        variants["rp"]["catalog"]["30"] = [1, 2]
        plant_head(path, self.delta(head, variants=variants), length=1000)
        self.assert_refused(path, capsys)
