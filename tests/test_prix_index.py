"""End-to-end PRIX index tests: build, variants, optimizer, querying."""

import pytest

from repro.baselines.naive import naive_match_count, naive_matches
from repro.datasets import figure2_query
from repro.prix.index import (IndexOptions, PrixIndex, VARIANT_EXTENDED,
                              VARIANT_REGULAR)
from repro.query.xpath import parse_xpath
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize


@pytest.fixture(scope="module")
def small_corpus():
    docs = [
        parse_document("<a><b><c/><d/></b><b><c/></b></a>", 1),
        parse_document("<a><b><d/></b><e>x</e></a>", 2),
        parse_document("<r><a><b><c/><d/></b></a></r>", 3),
    ]
    return docs


class TestBuild:
    def test_both_variants_by_default(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            assert set(index.variants()) == {"rp", "ep"}

    def test_single_variant(self, small_corpus):
        options = IndexOptions(variants=(VARIANT_REGULAR,))
        with PrixIndex.build(small_corpus, options) as index:
            assert index.variants() == ("rp",)
            with pytest.raises(KeyError):
                index.query(parse_xpath("//a/b"), variant="ep")

    def test_duplicate_doc_ids_rejected(self, small_corpus):
        docs = [small_corpus[0], small_corpus[0]]
        with pytest.raises(ValueError):
            PrixIndex.build(docs)

    @pytest.mark.parametrize("doc_id", [-1, 2 ** 32, True, "7", 1.0])
    def test_doc_id_outside_the_docid_range_refused(self, doc_id, tmp_path):
        """Docid values hold an unsigned 32-bit id: anything else is
        refused before the index file exists."""
        document = parse_document("<a><b/></a>", doc_id=doc_id)
        with pytest.raises(ValueError, match="document id"):
            PrixIndex.build([document], IndexOptions(
                path=str(tmp_path / "ids.idx")))
        assert list(tmp_path.iterdir()) == []

    def test_doc_count(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            assert index.doc_count == 3

    def test_trie_stats(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            stats = index.trie_stats("rp")
            assert stats.sequence_count == 3
            assert stats.node_count > 0
            assert stats.total_sequence_length == sum(
                doc.size - 1 for doc in small_corpus)

    def test_file_backed_build(self, small_corpus, tmp_path):
        options = IndexOptions(path=str(tmp_path / "prix.db"))
        with PrixIndex.build(small_corpus, options) as index:
            matches = index.query(parse_xpath("//a/b/c"))
            assert len(matches) == 3

    def test_dynamic_labeler_build(self, small_corpus):
        options = IndexOptions(labeler="dynamic")
        with PrixIndex.build(small_corpus, options) as index:
            matches = index.query(parse_xpath("//a/b/c"))
            assert len(matches) == 3


class TestOptimizer:
    def test_values_choose_extended(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            assert index.choose_variant(parse_xpath('//e[text()="x"]')) \
                == VARIANT_EXTENDED

    def test_no_values_choose_by_selectivity(self, small_corpus):
        """Value-free queries pick the variant whose first filter label
        is rarest (RP on ties); both variants are answer-equivalent."""
        with PrixIndex.build(small_corpus) as index:
            choice = index.choose_variant(parse_xpath("//a/b"))
            assert choice in (VARIANT_REGULAR, VARIANT_EXTENDED)
            rp = {(m.doc_id, m.canonical)
                  for m in index.query("//a/b", variant="rp")}
            auto = {(m.doc_id, m.canonical) for m in index.query("//a/b")}
            assert auto == rp

    def test_rp_preferred_on_frequency_tie(self):
        # One document where both variants' first labels are unique.
        docs = [parse_document("<top><mid><leafy/></mid></top>", 1)]
        with PrixIndex.build(docs) as index:
            assert index.choose_variant(
                parse_xpath("//top/mid/leafy")) == VARIANT_REGULAR

    def test_fallback_when_ep_missing(self, small_corpus):
        options = IndexOptions(variants=(VARIANT_REGULAR,))
        with PrixIndex.build(small_corpus, options) as index:
            assert index.choose_variant(parse_xpath('//e[text()="x"]')) \
                == VARIANT_REGULAR


class TestQueries:
    def test_accepts_xpath_string(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            matches, stats = index.query_with_stats("//a/b/c")
            assert len(matches) == 3
            assert stats.matches == 3

    def test_variants_agree(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            for xpath in ("//a/b", "//a/b/c", "//a//d", '//e[text()="x"]',
                          "//a[./b]/e", "/r//b"):
                rp = {(m.doc_id, m.canonical)
                      for m in index.query(xpath, variant="rp")}
                ep = {(m.doc_id, m.canonical)
                      for m in index.query(xpath, variant="ep")}
                assert rp == ep, xpath

    def test_matches_oracle(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            for xpath in ("//a/b", "//b[./c][./d]", "//a//c", "/a/b",
                          '//e[text()="x"]'):
                pattern = parse_xpath(xpath)
                got = {(m.doc_id, m.canonical)
                       for m in index.query(pattern)}
                want = {(d.doc_id, emb) for d in small_corpus
                        for emb in naive_matches(d, pattern)}
                assert got == want, xpath

    def test_ordered_vs_unordered(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            # b[./d][./c] in that branch order: doc 1 has b with (c, d) --
            # ordered query d-before-c finds nothing there.
            pattern = parse_xpath("//b[./d][./c]")
            unordered = index.query(pattern, ordered=False)
            ordered = index.query(pattern, ordered=True)
            assert len(unordered) > len(ordered)
            assert len(ordered) == 0

    def test_match_images_api(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            (match,) = [m for m in index.query("//a/e") if m.doc_id == 2]
            assert match.root_image > 0
            assert match.image_of(1) > 0
            with pytest.raises(KeyError):
                match.image_of(99)

    def test_query_stats_fields(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            _, stats = index.query_with_stats("//a/b", cold=True)
            assert stats.variant == "rp"
            assert stats.arrangements == 1
            assert stats.physical_reads > 0
            assert stats.elapsed_seconds > 0

    @pytest.mark.parametrize("variant", [VARIANT_REGULAR, VARIANT_EXTENDED])
    def test_value_spelled_like_the_dummy_tag_is_a_value(self, variant):
        """A value whose text is ``#dummy`` is data, not an Extended-
        Prufer dummy: neither variant drops it, ignores its leaf check,
        or strips it on the way through ``rebuilt()``."""
        texts = ["<a><b>#dummy</b></a>", "<a><b>x</b></a>"]
        documents = [parse_document(text, doc_id)
                     for doc_id, text in enumerate(texts, start=1)]
        options = IndexOptions(variants=(variant,))
        with PrixIndex.build(documents, options) as index:
            query = '//a[./b="#dummy"]'
            assert index.query(query).doc_ids == [1]
            assert [serialize(document) for document
                    in index.export_documents()] == texts
            with index.rebuilt() as rebuilt:
                assert rebuilt.query(query).doc_ids == [1]

    def test_paper_query_on_figure2(self, fig2_doc):
        # Figure 2's Q has 4 embeddings in T: the B node has two C
        # children, and the E node has two F children (2 x 2).  Example 6
        # walks through one of them.
        with PrixIndex.build([fig2_doc]) as index:
            matches = index.query(figure2_query())
            assert len(matches) == 4
            assert naive_match_count([fig2_doc], figure2_query()) == 4
            assert {m.canonical for m in matches} == naive_matches(
                fig2_doc, figure2_query())


class TestColdVsWarm:
    def test_cold_costs_more(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            _, cold = index.query_with_stats("//a/b/c", cold=True)
            _, warm = index.query_with_stats("//a/b/c", cold=False)
            assert warm.physical_reads <= cold.physical_reads

    def test_flush_cache(self, small_corpus):
        with PrixIndex.build(small_corpus) as index:
            index.query("//a/b")
            index.flush_cache()
            _, stats = index.query_with_stats("//a/b")
            assert stats.physical_reads > 0
