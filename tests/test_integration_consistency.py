"""Cross-system integration tests over realistic corpora.

These exercise the full stack: generators -> serialization -> reparse ->
index build -> all four engines, checking pairwise consistency and the
paper's qualitative claims at test scale.
"""

import pytest

from repro.baselines.naive import naive_matches
from repro.baselines.region import StreamSet, build_stream_entries
from repro.baselines.twigstack import twig_stack
from repro.baselines.twigstackxb import XBForest, twig_stack_xb
from repro.baselines.vist import VistIndex
from repro.datasets import dblp, treebank
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize

EXTRA_QUERIES = {
    "dblp": ["//inproceedings/author", "//article[./volume]/year",
             '//inproceedings[./booktitle="VLDB"]/title',
             "//www//url", "/inproceedings/title"],
    "treebank": ["//S/NP", "//NP//NN", "//VP[./NP]", "//S//S",
                 "//PP/NP/NN"],
}


@pytest.fixture(scope="module")
def reparsed_dblp():
    """The corpus serialized to XML text and re-parsed: the full pipeline
    a downstream user would run."""
    corpus = dblp(80)
    return [parse_document(serialize(doc), doc.doc_id)
            for doc in corpus.documents]


class TestSerializeReparseIndex:
    def test_reparsed_corpus_queries_identically(self, reparsed_dblp):
        original = dblp(80).documents
        with PrixIndex.build(original) as index_original, \
                PrixIndex.build(reparsed_dblp) as index_reparsed:
            for xpath in EXTRA_QUERIES["dblp"]:
                first = {(m.doc_id, m.canonical)
                         for m in index_original.query(xpath)}
                second = {(m.doc_id, m.canonical)
                          for m in index_reparsed.query(xpath)}
                assert first == second, xpath


@pytest.mark.parametrize("corpus_name", ["dblp", "treebank"])
def test_four_way_consistency(corpus_name):
    corpus = (dblp(60) if corpus_name == "dblp" else treebank(50))
    docs = corpus.documents
    stream_pool = BufferPool(Pager.in_memory())
    streams = StreamSet.build(docs, stream_pool)
    xb_pool = BufferPool(Pager.in_memory())
    forest = XBForest.build(build_stream_entries(docs), xb_pool)
    vist_pool = BufferPool(Pager.in_memory())
    vist = VistIndex.build(docs, vist_pool)

    with PrixIndex.build(docs) as prix:
        for xpath in EXTRA_QUERIES[corpus_name]:
            pattern = parse_xpath(xpath)
            oracle = {(d.doc_id, emb) for d in docs
                      for emb in naive_matches(d, pattern)}
            xpath_oracle = {(d.doc_id, emb) for d in docs
                            for emb in naive_matches(d, pattern,
                                                     semantics="xpath")}
            got_prix = {(m.doc_id, m.canonical)
                        for m in prix.query(pattern)}
            assert got_prix == oracle, xpath
            got_ts, _ = twig_stack(pattern, streams)
            got_xb, _ = twig_stack_xb(pattern, forest)
            assert got_ts == xpath_oracle, xpath
            assert got_xb == xpath_oracle, xpath
            vist_docs, _ = vist.query(pattern)
            assert vist_docs >= {doc_id for doc_id, _ in oracle}, xpath


class TestQualitativeClaims:
    """The paper's headline behaviours, asserted at test scale."""

    def test_prix_has_no_false_alarms_where_vist_does(self, fig1_docs):
        doc1, doc2 = fig1_docs
        from repro.datasets import figure1_query
        query = figure1_query()
        with PrixIndex.build([doc1, doc2]) as prix:
            prix_docs = {m.doc_id for m in prix.query(query)}
        vist_pool = BufferPool(Pager.in_memory())
        vist = VistIndex.build([doc1, doc2], vist_pool)
        vist_docs, _ = vist.query(query)
        assert prix_docs == {1}
        assert vist_docs == {1, 2}

    def test_index_size_linear_in_nodes(self):
        """PRIX's worst-case bound: total trie nodes never exceed total
        sequence length (= total tree nodes)."""
        corpus = dblp(100)
        total_nodes = sum(doc.size for doc in corpus.documents)
        with PrixIndex.build(corpus.documents) as index:
            for variant in index.variants():
                stats = index.trie_stats(variant)
                assert stats.node_count <= 2 * total_nodes

    def test_trie_sharing_on_similar_documents(self):
        """Section 6.4.2: similar DBLP structure shares trie paths."""
        corpus = dblp(300)
        with PrixIndex.build(corpus.documents) as index:
            stats = index.trie_stats("rp")
        assert stats.max_path_sharing > 10
        assert stats.node_count < stats.total_sequence_length / 4

    def test_bottom_up_beats_vist_on_recursion(self):
        """Q7-style wildcard query over recursive tags: PRIX issues far
        fewer range queries than ViST (Section 6.4.1)."""
        corpus = treebank(80)
        pattern = parse_xpath("//S//NP/SYM")
        with PrixIndex.build(corpus.documents) as prix:
            _, prix_stats = prix.query_with_stats(pattern, variant="rp")
        vist_pool = BufferPool(Pager.in_memory())
        vist = VistIndex.build(corpus.documents, vist_pool)
        _, vist_stats = vist.query(pattern)
        assert prix_stats.filter.range_queries < vist_stats.range_queries

    def test_ep_index_prunes_value_queries(self):
        """Section 5.6: EPIndex explores fewer trie paths than RPIndex
        for highly selective value queries."""
        corpus = dblp(200)
        pattern = parse_xpath('//title[text()="Semantic Analysis Patterns"]')
        with PrixIndex.build(corpus.documents) as index:
            _, ep_stats = index.query_with_stats(pattern, variant="ep")
            _, rp_stats = index.query_with_stats(pattern, variant="rp")
        assert ep_stats.filter.nodes_visited <= rp_stats.filter.nodes_visited
