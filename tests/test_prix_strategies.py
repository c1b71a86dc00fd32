"""Matching-strategy tests: trie traversal vs document-at-a-time.

The document-at-a-time fallback (an optimizer extension documented in
DESIGN.md) collects the documents containing the query's rarest LPS
label via the Docid index and enumerates subsequences inside each; it
must be answer-identical to Algorithm 1's trie traversal under every
combination of variant, ordering and MaxGap setting.
"""

import random

import pytest

from helpers import make_random_tree, make_random_twig
from repro.baselines.naive import naive_matches
from repro.bench.workloads import queries_for
from repro.datasets import get_corpus
from repro.prix.index import PrixIndex
from repro.prix.matcher import (_document_lps, _label_positions,
                                _subsequences_in_document)
from repro.prix.plan import build_plan
from repro.prix.filtering import FilterStats
from repro.query.twig import collapse
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import Document


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(314)
    return [Document(make_random_tree(rng, max_nodes=20), doc_id=i + 1)
            for i in range(6)]


@pytest.fixture(scope="module")
def index(corpus):
    with PrixIndex.build(corpus) as index:
        yield index


class TestStrategyEquivalence:
    @pytest.mark.parametrize("variant", ["rp", "ep"])
    def test_forced_strategies_agree(self, index, variant):
        rng = random.Random(99)
        for _ in range(12):
            pattern = make_random_twig(rng)
            trie = {(m.doc_id, m.canonical)
                    for m in index.query(pattern, variant=variant,
                                         strategy="trie")}
            document = {(m.doc_id, m.canonical)
                        for m in index.query(pattern, variant=variant,
                                             strategy="document")}
            assert trie == document

    def test_auto_matches_oracle(self, corpus, index):
        rng = random.Random(100)
        for _ in range(12):
            pattern = make_random_twig(rng)
            got = {(m.doc_id, m.canonical)
                   for m in index.query(pattern, strategy="auto")}
            want = {(d.doc_id, emb) for d in corpus
                    for emb in naive_matches(d, pattern)}
            assert got == want

    def test_ordered_mode_consistent(self, index):
        pattern = parse_xpath("//a[./b]/c")
        trie = {(m.doc_id, m.canonical)
                for m in index.query(pattern, ordered=True,
                                     strategy="trie")}
        document = {(m.doc_id, m.canonical)
                    for m in index.query(pattern, ordered=True,
                                         strategy="document")}
        assert trie == document


class TestStrategySelection:
    def test_rare_needle_triggers_document_strategy(self):
        docs = [parse_document(
            f"<entry><common/><field>v{i}</field></entry>", i + 1)
            for i in range(50)]
        docs.append(parse_document(
            "<entry><needle><x/></needle><common/></entry>", 51))
        index = PrixIndex.build(docs)
        _, stats = index.query_with_stats("//entry/needle/x",
                                          variant="rp")
        assert stats.strategy == "document"
        assert stats.candidate_documents == 1

    def test_common_labels_use_trie(self):
        docs = [parse_document("<a><b><c/></b></a>", i + 1)
                for i in range(400)]
        index = PrixIndex.build(docs)
        _, stats = index.query_with_stats("//a/b", variant="rp",
                                          strategy="auto")
        # Every document contains the labels: fallback must not engage.
        assert stats.strategy == "trie"

    def test_stats_report_strategy(self, index):
        _, stats = index.query_with_stats("//a/b", strategy="trie")
        assert stats.strategy == "trie"
        _, stats = index.query_with_stats("//a/b", strategy="document")
        assert stats.strategy == "document"

    @pytest.mark.parametrize("corpus_name", ["dblp", "swissprot",
                                             "treebank"])
    def test_explain_reports_the_strategy_the_engine_takes(self,
                                                           corpus_name):
        """``explain`` asks the matcher's own ``auto`` test, node *and*
        document limit: Q1/rp and Q3/rp on ``small`` dblp have a rarest
        label under the node limit that pins down too many documents."""
        with PrixIndex.build(
                get_corpus(corpus_name, "small").documents) as index:
            for spec in queries_for(corpus_name):
                for variant in ("rp", "ep"):
                    line = next(
                        line for line in index.explain(
                            spec.xpath, variant=variant).splitlines()
                        if line.startswith("strategy:"))
                    said = ("document" if "document-at-a-time" in line
                            else "trie")
                    for ordered in (False, True):
                        _, stats = index.query_with_stats(
                            spec.xpath, variant=variant, ordered=ordered)
                        assert said == stats.strategy, (spec.qid, variant,
                                                        ordered)


class TestDocumentEnumerator:
    def test_positions_match_labels(self, fig2_doc):
        with PrixIndex.build([fig2_doc]) as index:
            view = index._view_loader(index._variants["rp"])(1)
        lps_seq = _document_lps(view)
        assert lps_seq == list("ACBCCBACAEEEDA")

        from repro.datasets import figure2_query
        plan = build_plan(collapse(figure2_query()), extended=False)
        stats = FilterStats()
        positions_of = _label_positions(lps_seq, frozenset(plan.qlps))
        assert sorted(positions_of) == sorted(set(plan.qlps))
        found = list(_subsequences_in_document(positions_of, plan, None,
                                               stats))
        assert (3, 7, 11, 13, 14) in found
        for positions in found:
            assert all(lps_seq[p - 1] == label
                       for p, label in zip(positions, plan.qlps))

    def test_absent_label_short_circuits(self, fig2_doc):
        with PrixIndex.build([fig2_doc]) as index:
            view = index._view_loader(index._variants["rp"])(1)
        lps_seq = _document_lps(view)
        plan = build_plan(collapse(parse_xpath("//ZZZ/A")), extended=False)
        stats = FilterStats()
        positions_of = _label_positions(lps_seq, frozenset(plan.qlps))
        assert list(_subsequences_in_document(positions_of, plan, None,
                                              stats)) == []
        assert stats.nodes_visited == 0
