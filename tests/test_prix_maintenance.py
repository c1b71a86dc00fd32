"""Deletion, record splitting and EXPLAIN tests."""

import pytest

from repro.prix.explain import explain
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document, split_documents


def docs_from(texts):
    return [parse_document(text, doc_id=i + 1)
            for i, text in enumerate(texts)]


class TestDeleteDocument:
    def test_deleted_document_vanishes_from_results(self):
        with PrixIndex.build(docs_from(
                ["<a><b/></a>", "<a><b/></a>", "<a><c/></a>"])) as index:
            index.delete_document(2)
            docs = {m.doc_id for m in index.query("//a/b")}
            assert docs == {1}
            assert index.doc_count == 2

    def test_delete_then_rebuild_compacts(self):
        with PrixIndex.build(docs_from(
                ["<a><b/></a>", "<x><y/></x>"])) as index:
            index.delete_document(2)
            fresh = index.rebuilt()
        with fresh:
            assert fresh.doc_count == 1
            assert fresh.query("//x/y") == []
            assert len(fresh.query("//a/b")) == 1

    def test_delete_unknown_raises(self):
        with PrixIndex.build(docs_from(["<a><b/></a>"])) as index:
            with pytest.raises(KeyError):
                index.delete_document(9)

    def test_shared_trie_path_other_docs_unaffected(self):
        with PrixIndex.build(docs_from(["<a><b/></a>"] * 5)) as index:
            index.delete_document(3)
            assert {m.doc_id for m in index.query("//a/b")} == {1, 2, 4, 5}

    def test_delete_then_insert_same_id(self):
        options = IndexOptions(labeler="dynamic")
        index = PrixIndex.build(docs_from(["<a><b/></a>"]), options)
        index.delete_document(1)
        index.insert_document(parse_document("<a><c/></a>", 1))
        assert index.query("//a/b") == []
        assert len(index.query("//a/c")) == 1

    def test_maxgap_remains_sound_after_delete(self):
        with PrixIndex.build(docs_from(
                ["<a><b/><b/><b/></a>", "<a><b/></a>"])) as index:
            index.delete_document(1)  # the wide-gap document
            with_pruning = {m.canonical
                            for m in index.query("//a/b", use_maxgap=True)}
            without = {m.canonical
                       for m in index.query("//a/b", use_maxgap=False)}
        assert with_pruning == without


    def test_delete_a_one_element_document(self, tmp_path):
        """A one-element document's Regular-Prufer sequence is empty, so
        its Docid entry sits at the trie root, which a build writes as
        an insert does: the document can be deleted, and stays deleted
        after ``save()`` and reopening."""
        path = str(tmp_path / "one.idx")
        index = PrixIndex.build(docs_from(["<a/>", "<a><b/></a>"]),
                                IndexOptions(path=path))
        with index:
            before = index.query("//a/b")
            index.delete_document(1)
            assert index.doc_count == 1
            assert index.query("//a/b") == before
            index.save()
        with PrixIndex.open(path) as reopened:
            assert reopened.doc_count == 1
            assert reopened.summary()["variants"]["rp"]["sequences"] == 1
            assert reopened.query("//a/b") == before
            assert [match.doc_id for match in before] == [2]


class TestSplitDocuments:
    CORPUS = ("<dblp>text-noise"
              "<article><title>A</title></article>"
              "<inproceedings><title>B</title></inproceedings>"
              "<www><url>u</url></www>"
              "</dblp>")

    def test_splits_all_element_children(self):
        documents = split_documents(self.CORPUS)
        assert [d.root.tag for d in documents] == [
            "article", "inproceedings", "www"]
        assert [d.doc_id for d in documents] == [1, 2, 3]

    def test_record_tag_filter(self):
        documents = split_documents(self.CORPUS,
                                    record_tags={"article", "www"})
        assert [d.root.tag for d in documents] == ["article", "www"]

    def test_start_id(self):
        documents = split_documents(self.CORPUS, start_id=10)
        assert [d.doc_id for d in documents] == [10, 11, 12]

    def test_records_are_detached(self):
        documents = split_documents(self.CORPUS)
        for document in documents:
            assert document.root.parent is None
            assert document.root.postorder == document.size

    def test_split_then_index(self):
        documents = split_documents(self.CORPUS)
        index = PrixIndex.build(documents)
        assert len(index.query('//article[./title="A"]')) == 1


class TestExplain:
    @pytest.fixture()
    def index(self):
        with PrixIndex.build(docs_from(
                ["<a><b>x</b><c/></a>", "<a><b>y</b></a>"])) as index:
            yield index

    def test_value_query_explanation(self, index):
        text = explain(index, '//a[./b="x"]')
        assert "variant: ep" in text
        assert "value predicates" in text
        assert 'LPS(Q)' in text and '"x"' in text

    def test_value_free_explanation(self, index):
        text = explain(index, "//a[./b]/c")
        assert "first-label trie-node frequencies" in text
        assert "arrangements: 2" in text
        assert "maxgap pairs" in text

    def test_strategy_reported(self, index):
        text = explain(index, "//a/c")
        assert "strategy:" in text

    def test_accepts_pattern_object(self, index):
        text = explain(index, parse_xpath("//a//b"))
        assert "//" in text

    def test_an_rp_only_index_reports_its_only_variant(self):
        """A valued twig runs on RP when no EPIndex was built."""
        with PrixIndex.build(docs_from(["<a><b>x</b><c/></a>"]),
                             IndexOptions(variants=("rp",))) as index:
            text = explain(index, '//a[./b="x"]')
        assert "variant: rp  (the only variant built)\n" in text
        assert "value predicates" not in text

    @pytest.mark.parametrize("xpath", ["//a[./b]/c", '//a[./b="x"]'])
    @pytest.mark.parametrize("variant", ["rp", "ep"])
    def test_a_forced_variant_is_reported_as_forced(self, index, xpath,
                                                    variant):
        text = explain(index, xpath, variant=variant)
        assert f"variant: {variant}  (forced)\n" in text
        assert "value predicates" not in text
        assert "first-label" not in text
