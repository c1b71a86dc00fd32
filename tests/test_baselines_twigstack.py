"""TwigStack tests."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_tree, make_random_twig
from repro.baselines.naive import naive_matches
from repro.baselines.region import StreamSet
from repro.baselines.twigstack import build_query_tree, twig_stack
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import Document


def stream_set(docs):
    pool = BufferPool(Pager.in_memory())
    return StreamSet.build(docs, pool), pool


def xpath_truth(docs, pattern):
    return {(d.doc_id, emb) for d in docs
            for emb in naive_matches(d, pattern, semantics="xpath")}


class TestQueryTree:
    def test_structure(self):
        root = build_query_tree(parse_xpath("//a[./b]//c"))
        assert root.tag == "a"
        assert [c.tag for c in root.children] == ["b", "c"]
        assert root.is_root and root.children[0].is_leaf

    def test_value_nodes_get_prefixed_tags(self):
        root = build_query_tree(parse_xpath('//a[./b="x"]'))
        value_node = root.children[0].children[0]
        assert value_node.tag == "\x1fx"

    def test_star_maps_to_union_stream(self):
        root = build_query_tree(parse_xpath("//a/*"))
        assert root.children[0].tag == "*"

    def test_star_query_matches_elements_only(self):
        docs = [parse_document("<a><b/>text</a>", 1)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//a/*"), streams)
        # One occurrence: the star is an existence test over elements.
        assert len(matches) == 1

    def test_star_in_middle(self):
        docs = [parse_document("<a><x><b/></x><b/></a>", 1)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//a/*/b"), streams)
        assert len(matches) == 1


class TestTwigStack:
    def test_simple_path(self):
        docs = [parse_document("<a><b><c/></b></a>", 1)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//a/b/c"), streams)
        assert len(matches) == 1

    def test_descendant_vs_child(self):
        docs = [parse_document("<a><x><b/></x><b/></a>", 1)]
        streams, _ = stream_set(docs)
        child_matches, _ = twig_stack(parse_xpath("//a/b"), streams)
        desc_matches, _ = twig_stack(parse_xpath("//a//b"), streams)
        assert len(child_matches) == 1
        assert len(desc_matches) == 2

    def test_branching_twig(self):
        docs = [parse_document("<a><b/><c/></a>", 1),
                parse_document("<a><b/></a>", 2)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//a[./b]/c"), streams)
        assert {doc for doc, _ in matches} == {1}

    def test_suboptimal_path_solutions_on_parent_child(self):
        """Section 2's sub-optimality: partial matches of one twig path
        that cannot combine with the other path are produced and then
        discarded by the merge post-processing step."""
        docs = [parse_document("<root><p><q/></p><p><r/></p></root>", 1)]
        streams, _ = stream_set(docs)
        matches, stats = twig_stack(parse_xpath("//p[./q]/r"), streams)
        assert matches == set()
        assert stats.path_solutions > 0   # wasted partial work
        assert stats.merged_solutions == 0

    def test_grandchild_not_matched_by_child_edge(self):
        docs = [parse_document("<p><x><q/></x><y><r/></y></p>", 1)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//p[./q]/r"), streams)
        assert matches == set()
        desc, _ = twig_stack(parse_xpath("//p[.//q]//r"), streams)
        assert len(desc) == 1

    def test_multi_document(self):
        docs = [parse_document(f"<a><b><c/></b></a>", i + 1)
                for i in range(5)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//a/b/c"), streams)
        assert {doc for doc, _ in matches} == {1, 2, 3, 4, 5}

    def test_exhausted_branch_does_not_kill_others(self):
        """Regression: one branch's stream ending early must not abort
        path solutions of the remaining branches."""
        text = ("<r><needle/><x><a/></x><x><a/></x>"
                "<late><b/></late></r>")
        docs = [parse_document(text, 1)]
        streams, _ = stream_set(docs)
        matches, _ = twig_stack(parse_xpath("//r[./needle]//b"), streams)
        assert len(matches) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_twigstack_matches_xpath_oracle(seed):
    rng = random.Random(seed)
    docs = [Document(make_random_tree(rng, max_nodes=15), doc_id=i + 1)
            for i in range(3)]
    pattern = make_random_twig(rng, star_p=0.0, absolute_p=0.0)
    streams, _ = stream_set(docs)
    got, _ = twig_stack(pattern, streams)
    assert got == xpath_truth(docs, pattern)
