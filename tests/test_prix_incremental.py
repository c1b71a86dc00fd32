"""Incremental insertion tests (dynamic labeling, Section 5.2.1)."""

import random

import pytest

from helpers import catalog_state, make_random_tree
from repro.baselines.naive import naive_matches
from repro.bench.workloads import queries_for
from repro.datasets import dblp, swissprot, treebank
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.prufer.sequence import regular_sequence
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tree import Document

DYNAMIC = IndexOptions(labeler="dynamic")


def docs_from(texts, start=1):
    return [parse_document(text, doc_id=start + i)
            for i, text in enumerate(texts)]


def answers(index, xpath):
    return {(m.doc_id, m.canonical) for m in index.query(xpath)}


class TestInsertBasics:
    def test_inserted_document_found(self):
        index = PrixIndex.build(
            docs_from(["<a><b><c/></b></a>"]), DYNAMIC)
        index.insert_document(parse_document("<a><b><c/><c/></b></a>", 2))
        found = answers(index, "//a/b/c")
        assert {doc for doc, _ in found} == {1, 2}

    def test_insert_creates_new_trie_paths(self):
        index = PrixIndex.build(docs_from(["<a><b/></a>"]), DYNAMIC)
        before = index.trie_stats("rp").node_count
        index.insert_document(parse_document("<x><y><z/></y></x>", 2))
        assert index.trie_stats("rp").node_count > before
        assert len(index.query("//x/y/z")) == 1

    def test_insert_shared_path_adds_no_nodes(self):
        index = PrixIndex.build(docs_from(["<a><b/></a>"]), DYNAMIC)
        before = index.trie_stats("rp").node_count
        index.insert_document(parse_document("<a><b/></a>", 2))
        assert index.trie_stats("rp").node_count == before
        assert len(index.query("//a/b")) == 2

    def test_duplicate_id_rejected(self):
        with PrixIndex.build(docs_from(["<a><b/></a>"]), DYNAMIC) as index:
            with pytest.raises(ValueError):
                index.insert_document(parse_document("<c><d/></c>", 1))

    @pytest.mark.parametrize("doc_id", [2 ** 32, -1, False, "7"])
    def test_doc_id_outside_the_docid_range_refused(self, doc_id,
                                                     tmp_path):
        """Refused before any variant catalogs the record: the catalog,
        the count, ``summary()`` and the saved bytes stay as they were,
        and the next valid insert still goes through."""
        path = tmp_path / "ids.idx"
        index = PrixIndex.build(docs_from(["<a><b/></a>"]), IndexOptions(
            labeler="dynamic", path=str(path), durable=True, guard=True))
        with index:
            index.save()
            saved = path.read_bytes()
            state, summary = catalog_state(index), index.summary()
            with pytest.raises(ValueError, match="document id"):
                index.insert_document(parse_document("<c><d/></c>",
                                                     doc_id=doc_id))
            assert catalog_state(index) == state
            assert index.doc_count == 1
            assert index.summary() == summary
            index.save()
            assert path.read_bytes() == saved
            index.insert_document(parse_document("<c><d/></c>", 2))
            assert index.doc_count == 2

    def test_doc_count_grows(self):
        with PrixIndex.build(docs_from(["<a><b/></a>"]), DYNAMIC) as index:
            index.insert_document(parse_document("<a><c/></a>", 2))
            assert index.doc_count == 2

    def test_value_queries_after_insert(self):
        index = PrixIndex.build(
            docs_from(["<a><b>x</b></a>"]), DYNAMIC)
        index.insert_document(parse_document("<a><b>y</b></a>", 2))
        assert {doc for doc, _ in answers(index, '//a[./b="y"]')} == {2}
        assert {doc for doc, _ in answers(index, '//a[./b="x"]')} == {1}


class TestIncrementalEqualsBatch:
    def test_differential_against_rebuild(self):
        rng = random.Random(7)
        all_docs = [Document(make_random_tree(rng, max_nodes=12),
                             doc_id=i + 1) for i in range(20)]
        rng2 = random.Random(8)
        from helpers import make_random_twig
        with PrixIndex.build(all_docs[:10], DYNAMIC) as incremental, \
                PrixIndex.build(all_docs, DYNAMIC) as batch:
            for document in all_docs[10:]:
                incremental.insert_document(document)
            for _ in range(15):
                pattern = make_random_twig(rng2)
                for variant in ("rp", "ep"):
                    got = {(m.doc_id, m.canonical) for m in
                           incremental.query(pattern, variant=variant)}
                    want = {(m.doc_id, m.canonical) for m in
                            batch.query(pattern, variant=variant)}
                    assert got == want
                    oracle = {(d.doc_id, emb) for d in all_docs
                              for emb in naive_matches(d, pattern)}
                    assert got == oracle

    def test_maxgap_still_lossless_after_inserts(self):
        rng = random.Random(9)
        docs = [Document(make_random_tree(rng, max_nodes=10),
                         doc_id=i + 1) for i in range(6)]
        pattern = parse_xpath("//a//b")
        with PrixIndex.build(docs[:3], DYNAMIC) as index:
            for document in docs[3:]:
                index.insert_document(document)
            with_pruning = {(m.doc_id, m.canonical)
                            for m in index.query(pattern, use_maxgap=True)}
            without = {(m.doc_id, m.canonical)
                       for m in index.query(pattern, use_maxgap=False)}
        assert with_pruning == without


class TestUnderflowAndRebuild:
    def test_bulk_labeled_index_rejects_new_paths(self):
        # bulk labels: gap-free ranges leave no room for a new path
        with PrixIndex.build(docs_from(["<a><b/></a>"])) as index:
            with pytest.raises(RebuildRequiredError):
                index.insert_document(parse_document("<x><y/></x>", 2))

    def test_rebuild_recovers_all_documents(self):
        with PrixIndex.build(docs_from(["<a><b/></a>"])) as index:
            with pytest.raises(RebuildRequiredError):
                index.insert_document(parse_document("<x><y/></x>", 2))
            fresh = index.rebuilt()
        with fresh:
            assert fresh.doc_count == 2
            assert len(fresh.query("//x/y")) == 1
            assert len(fresh.query("//a/b")) == 1

    def test_export_documents_roundtrip(self):
        texts = ["<a k=\"1\"><b>hi</b><c/></a>", "<d><e><f/></e></d>"]
        from repro.xmlkit.tree import same_tree
        originals = docs_from(texts)
        with PrixIndex.build(docs_from(texts), DYNAMIC) as index:
            exported = index.export_documents()
        for original, restored in zip(originals, exported):
            assert same_tree(original.root, restored.root)

    def test_rebuilt_index_queries_match(self):
        rng = random.Random(10)
        docs = [Document(make_random_tree(rng, max_nodes=10),
                         doc_id=i + 1) for i in range(8)]
        index = PrixIndex.build(docs, DYNAMIC)
        fresh = index.rebuilt()
        for xpath in ("//a/b", "//a//c", "//b[./a]"):
            assert answers(index, xpath) == answers(fresh, xpath)


#: Documents the test-scale corpora do not hold: the same generators
#: under other seeds.
HELD_OUT = {"dblp": lambda: dblp(n_records=120, seed=3),
            "swissprot": lambda: swissprot(n_entries=20, seed=7),
            "treebank": lambda: treebank(n_sentences=10, seed=7)}


def novel_shapes(corpus, candidates, count):
    """The first ``count`` of ``candidates`` whose Regular-Prufer
    sequence leaves the trie ``corpus`` builds: each inserts at least
    one new trie node in both variants."""
    seen = {lps[:end] for lps in (regular_sequence(document).lps
                                  for document in corpus.documents)
            for end in range(len(lps) + 1)}
    novel = []
    for document in candidates:
        lps = regular_sequence(document).lps
        if lps not in seen:
            seen.update(lps[:end] for end in range(len(lps) + 1))
            novel.append(document)
    return novel[:count]


def root_path(document):
    """The XPath of the element chain from the root to its first leaf."""
    node, tags = document.root, [document.root.tag]
    while node.children and not node.children[0].is_value:
        node = node.children[0]
        tags.append(node.tag)
    return "/" + "/".join(tags)


class TestNovelInsertsLand:
    """A dynamic build of each test-scale corpus takes documents whose
    shapes its trie has not seen, and then answers as a rebuild does."""

    @pytest.mark.parametrize("name", sorted(HELD_OUT))
    def test_every_novel_insert_lands(self, request, name):
        corpus = request.getfixturevalue(f"tiny_{name}")
        novel = novel_shapes(corpus, HELD_OUT[name]().documents, 3)
        assert len(novel) == 3
        with PrixIndex.build(corpus.documents, IndexOptions(
                labeler="dynamic", page_size=1024)) as index:
            nodes = {variant: index.trie_stats(variant).node_count
                     for variant in index.variants()}
            doc_id = index.next_doc_id()
            for offset, document in enumerate(novel):
                index.insert_document(parse_document(
                    serialize(document), doc_id + offset))
            for variant, before in nodes.items():
                assert index.trie_stats(variant).node_count > before
            xpaths = ({spec.xpath for spec in queries_for(name)}
                      | {root_path(document) for document in novel})
            with index.rebuilt() as rebuilt:
                for xpath in sorted(xpaths):
                    assert answers(index, xpath) == \
                        answers(rebuilt, xpath), xpath
            for offset, document in enumerate(novel):
                assert doc_id + offset in \
                    index.query(root_path(document)).doc_ids


class TestPersistenceOfInserts:
    def test_inserts_survive_save_and_open(self, tmp_path):
        path = str(tmp_path / "grow.idx")
        options = IndexOptions(labeler="dynamic", path=path)
        index = PrixIndex.build(docs_from(["<a><b/></a>"]), options)
        index.insert_document(parse_document("<a><b/><b/></a>", 2))
        index.save()
        index.close()
        reopened = PrixIndex.open(path)
        assert reopened.doc_count == 2
        assert len(reopened.query("//a/b")) == 3
        reopened.insert_document(parse_document("<a><b/></a>", 3))
        assert len(reopened.query("//a/b")) == 4
        reopened.close()
