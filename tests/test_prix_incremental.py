"""Incremental insertion tests (dynamic labeling, Section 5.2.1)."""

import contextlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import catalog_state, make_random_tree
from repro.baselines.naive import naive_matches
from repro.bench.workloads import queries_for
from repro.datasets import dblp, swissprot, treebank
from repro.prix.filtering import DocidIndex, TrieSymbolIndex
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.prufer.sequence import extended_sequence, regular_sequence
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


@contextlib.contextmanager
def counted_lookups():
    """The arguments of every Trie-Symbol child lookup made inside."""
    calls = []
    child = TrieSymbolIndex.child

    def counting(self, *args):
        calls.append(args[:4])
        return child(self, *args)

    with mock.patch.object(TrieSymbolIndex, "child", counting):
        yield calls


def trie_items(index, variant):
    return list(index._variants[variant].symbol_index.tree.items())


class TestKnownPathWalk:
    """Inserts and deletes walk a stored document's trie path with
    fingered child lookups; a delete stops once its Docid entry lies in
    one leaf."""

    def test_delete_from_a_terminal_range_over_several_leaves(
            self, tiny_dblp):
        text = serialize(tiny_dblp.documents[0])
        copies = [parse_document(text, doc_id) for doc_id in range(1, 301)]
        with PrixIndex.build(copies, IndexOptions(
                labeler="dynamic", page_size=1024)) as index:
            for variant in index.variants():
                tree = index._variants[variant].docid_index.tree
                assert len({key for key, _ in tree.items()}) == 1
                assert len(list(tree.leaf_slices())) > 3
            gone = (150, 300, 1, 61)
            with counted_lookups() as lookups:
                for doc_id in gone:
                    index.delete_document(doc_id)
            # No node on the way holds fewer than 297 entries: every
            # walk reaches the terminal and scans its whole range.
            assert len(lookups) == len(gone) * sum(
                len(sequence_of(tiny_dblp.documents[0]).lps)
                for sequence_of in (regular_sequence, extended_sequence))
            kept = [doc_id for doc_id in range(1, 301) if doc_id not in gone]
            assert [document.doc_id for document
                    in index.export_documents()] == kept
            for variant in index.variants():
                tree = index._variants[variant].docid_index.tree
                tree.check_invariants()
                assert len(tree) == len(kept)
            xpath = root_path(tiny_dblp.documents[0])
            assert sorted(index.query(xpath).doc_ids) == kept
            with index.rebuilt() as rebuilt:
                assert answers(index, xpath) == answers(rebuilt, xpath)
            with pytest.raises(KeyError):
                index.delete_document(150)

    def test_a_delete_walk_stops_once_its_range_fits_one_leaf(
            self, tiny_swissprot, tiny_dblp):
        """Every Docid entry of a one-leaf Docid tree is found at the
        root; in a tree of several leaves some walk stops before its
        terminal and some has to look further than the root."""
        with PrixIndex.build(tiny_swissprot.documents) as index:
            assert len(list(index._variants["rp"].docid_index.tree
                            .leaf_slices())) == 1
            with counted_lookups() as lookups:
                for document in tiny_swissprot.documents[::4]:
                    index.delete_document(document.doc_id)
            assert lookups == []
        with PrixIndex.build(tiny_dblp.documents,
                             IndexOptions(page_size=1024)) as index:
            walked = []
            for document in tiny_dblp.documents[::3]:
                with counted_lookups() as lookups:
                    index.delete_document(document.doc_id)
                walked.append((len(lookups), sum(
                    len(sequence_of(document).lps) for sequence_of
                    in (regular_sequence, extended_sequence))))
            assert any(made < labels for made, labels in walked)
            assert any(made > 0 for made, _ in walked)
            assert all(made <= labels for made, labels in walked)

    def test_delete_of_an_underflowed_insert_keeps_every_answer(
            self, tiny_dblp):
        """Bulk labels: the record's Regular-Prufer path exists, its
        Extended-Prufer one (a new value) does not, so the insert lands
        in ``rp`` alone and the delete must refuse in ``ep`` having
        touched neither."""
        text = serialize(tiny_dblp.documents[3])
        novel = re.sub(r">([^<]+)<", ">a value no record holds<", text,
                       count=1)
        xpaths = sorted({spec.xpath for spec in queries_for("dblp")}
                        | {root_path(tiny_dblp.documents[3])})
        with PrixIndex.build(tiny_dblp.documents,
                             IndexOptions(page_size=1024)) as index:
            doc_id = index.next_doc_id()
            with pytest.raises(RebuildRequiredError):
                index.insert_document(parse_document(novel, doc_id))
            before = catalog_state(index)
            found = {xpath: answers(index, xpath) for xpath in xpaths}
            assert doc_id in index.query(root_path(
                tiny_dblp.documents[3]), variant="rp").doc_ids
            with pytest.raises(KeyError, match="no ep Docid entry"):
                index.delete_document(doc_id)
            assert catalog_state(index) == before
            assert {xpath: answers(index, xpath)
                    for xpath in xpaths} == found

    def test_gap_widened_mid_walk(self):
        """The inserted document shares the stored one's sequence
        ``a a a a`` but widens the second node's MaxGap from 0 to 3; the
        lookups after that write must not resume from a leaf read
        before it."""
        stored = "<a><a/><a><a/></a><b/></a>"
        wider = "<a><a/><a/><a><b/></a></a>"
        assert regular_sequence(parse_document(stored)).lps == \
            regular_sequence(parse_document(wider)).lps
        padding = [f"<a><b{i}><c/></b{i}><a><c/></a></a>"
                   for i in range(40)]
        with PrixIndex.build(docs_from([stored] + padding), IndexOptions(
                labeler="dynamic", page_size=512)) as index:
            before = trie_items(index, "rp")
            index.insert_document(parse_document(wider, 100))
            assert trie_items(index, "rp") != before
            with index.rebuilt() as rebuilt:
                assert trie_items(index, "rp") == trie_items(rebuilt, "rp")
                for xpath in ("//a/a", "//a//b", "//a[./a]/b", "//a/a/b"):
                    assert answers(index, xpath) == \
                        answers(rebuilt, xpath), xpath
            index.delete_document(100)
            assert 100 not in index.query("//a/a/b").doc_ids


def full_walk_terminal(variant, lps):
    """The LeftPos of ``lps``'s terminal, by a walk that scans every
    same-label entry under each node, or None if the path is missing."""
    left, right = variant.root_range
    for level, label in enumerate(lps):
        for child_left, child_right, child_level, _ in \
                variant.symbol_index.range_query_gaps(label, left, right):
            if child_level == level + 1:
                left, right = child_left, child_right
                break
        else:
            return None
    return left


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       page_size=st.sampled_from([512, 1024]))
def test_early_stopping_delete_finds_the_full_walks_terminal(seed,
                                                             page_size):
    """On a random dynamic build grown by inserts, the Docid entry the
    early-stopping walk finds for every document is the one keyed by
    the terminal LeftPos a full walk finds; shapes repeat, so terminal
    ranges hold many documents and span leaves."""
    rng = random.Random(seed)
    shapes = [make_random_tree(rng, max_nodes=10, tags="abc")
              for _ in range(6)]
    documents = [Document(rng.choice(shapes), doc_id=i + 1)
                 for i in range(90)]
    with PrixIndex.build(documents[:60], IndexOptions(
            labeler="dynamic", page_size=page_size)) as index:
        for document in documents[60:]:
            index.insert_document(document)
        for name, sequence_of in (("rp", regular_sequence),
                                  ("ep", extended_sequence)):
            variant = index._variants[name]
            for document in documents:
                lps = sequence_of(document).lps
                terminal = full_walk_terminal(variant, lps)
                assert index._docid_entry(variant, lps, document.doc_id) \
                    == DocidIndex.make_entry(terminal, document.doc_id)
