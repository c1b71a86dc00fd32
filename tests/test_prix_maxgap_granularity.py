"""Finer-grained (per-trie-node) MaxGap tests -- Section 5.4's closing
remark: "Finer-grained MaxGap values can be stored in every occurrence
of a symbol in the virtual trie"."""

import random

import pytest

from helpers import make_random_tree, make_random_twig
from repro.baselines.naive import naive_matches
from repro.prix.index import IndexOptions, PrixIndex
from repro.prufer.maxgap import position_gaps
from repro.prufer.sequence import regular_sequence
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import Document


class TestPositionGaps:
    def test_figure2_gaps(self, fig2_doc):
        seq = regular_sequence(fig2_doc)
        gaps = position_gaps(seq)
        # Children of node 15 span positions 1..14 -> every occurrence
        # of parent 15 carries gap 13; children of 13 span 10..12.
        for position, parent in enumerate(seq.nps):
            if parent == 15:
                assert gaps[position] == 13
            if parent == 13:
                assert gaps[position] == 2

    def test_single_child_gap_zero(self):
        doc = parse_document("<a><b><c/></b></a>", 1)
        assert position_gaps(regular_sequence(doc)) == [0, 0]


class TestGranularityCorrectness:
    def test_answers_identical_across_granularities(self):
        rng = random.Random(42)
        docs = [Document(make_random_tree(rng, max_nodes=18),
                         doc_id=i + 1) for i in range(5)]
        with PrixIndex.build(docs) as index:
            for _ in range(10):
                pattern = make_random_twig(rng)
                label = {(m.doc_id, m.canonical)
                         for m in index.query(pattern, strategy="trie",
                                              maxgap_granularity="label")}
                node = {(m.doc_id, m.canonical)
                        for m in index.query(pattern, strategy="trie",
                                             maxgap_granularity="node")}
                oracle = {(d.doc_id, emb) for d in docs
                          for emb in naive_matches(d, pattern)}
                assert label == node == oracle

    def test_node_granularity_prunes_at_least_as_hard(self):
        # One narrow document and one wide one sharing labels: the
        # per-node bound on the narrow path is tighter than the global.
        narrow = parse_document("<r><a><b/><c/></a></r>", 1)
        wide_inner = "".join(f"<x{i}/>" for i in range(10))
        wide = parse_document(f"<r><a><b/>{wide_inner}<c/></a></r>", 2)
        index = PrixIndex.build([narrow, wide])
        pattern = parse_xpath("//a[./b][./c]")
        _, label_stats = index.query_with_stats(
            pattern, strategy="trie", maxgap_granularity="label")
        _, node_stats = index.query_with_stats(
            pattern, strategy="trie", maxgap_granularity="node")
        assert {(m.doc_id, m.canonical) for m in index.query(pattern)}
        assert node_stats.filter.pruned_by_maxgap >= \
            label_stats.filter.pruned_by_maxgap


class TestIncrementalGapWidening:
    def test_insert_widens_node_gap(self):
        options = IndexOptions(labeler="dynamic")
        # The new document shares the trie prefix but has a much wider
        # sibling span; pruning with per-node gaps must still find it.
        wide_inner = "".join(f"<f{i}><g/></f{i}>" for i in range(6))
        pattern = parse_xpath("//a[./b][./c]")
        with PrixIndex.build(
                [parse_document("<r><a><b/><c/></a></r>", 1)],
                options) as index:
            index.insert_document(parse_document(
                f"<r><a><b/>{wide_inner}<c/></a></r>", 2))
            matches = index.query(pattern, strategy="trie",
                                  maxgap_granularity="node")
        assert {m.doc_id for m in matches} == {1, 2}

    def test_incremental_matches_batch_with_node_granularity(self):
        rng = random.Random(11)
        docs = [Document(make_random_tree(rng, max_nodes=12),
                         doc_id=i + 1) for i in range(10)]
        options = IndexOptions(labeler="dynamic")
        with PrixIndex.build(docs[:5], options) as incremental, \
                PrixIndex.build(docs, options) as batch:
            for document in docs[5:]:
                incremental.insert_document(document)
            for _ in range(8):
                pattern = make_random_twig(rng)
                got = {(m.doc_id, m.canonical)
                       for m in incremental.query(
                           pattern, strategy="trie",
                           maxgap_granularity="node")}
                want = {(m.doc_id, m.canonical)
                        for m in batch.query(pattern, strategy="trie",
                                             maxgap_granularity="node")}
                assert got == want
