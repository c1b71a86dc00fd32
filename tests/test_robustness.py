"""Robustness fuzzing: hostile inputs fail cleanly, never crash oddly.

The tokenizer, parser and XPath parser must reject malformed input with
their documented exception types -- never hang, never raise an
unexpected error class -- and the index build must handle degenerate
document shapes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prix.index import PrixIndex
from repro.query.xpath import XPathSyntaxError, parse_xpath
from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tokenizer import tokenize
from repro.xmlkit.tree import Document, XMLNode, element


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_tokenizer_never_crashes_unexpectedly(text):
    try:
        list(tokenize(text))
    except XMLSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="<>/abc&;\"'= \n![]-?", max_size=80))
def test_tokenizer_markup_soup(text):
    try:
        list(tokenize(text))
    except XMLSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=100))
def test_parser_never_crashes_unexpectedly(text):
    try:
        parse_document(text)
    except XMLSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="/[]*=.\"'aZb_1 @()", max_size=60))
def test_xpath_parser_never_crashes_unexpectedly(query):
    try:
        parse_xpath(query)
    except (XPathSyntaxError, ValueError):
        pass


class TestDegenerateDocuments:
    def test_single_node_corpus(self):
        # A one-node document can never contain a (>=2 node) twig.
        with PrixIndex.build([Document(element("only"), doc_id=1)]) as index:
            assert index.query("//only/x") == []

    def test_very_deep_document(self):
        root = element("d")
        node = root
        for _ in range(3000):
            node = node.append(element("d"))
        with PrixIndex.build([Document(root, doc_id=1)]) as index:
            assert len(index.query("//d/d/d")) == 2999

    def test_very_wide_document(self):
        root = element("w")
        for _ in range(5000):
            root.append(element("c"))
        with PrixIndex.build([Document(root, doc_id=1)]) as index:
            assert len(index.query("//w/c")) == 5000

    def test_unicode_tags_and_values(self):
        text = "<répertoire><naïve>早安 — ¡hola!</naïve></répertoire>"
        document = parse_document(text, 1)
        with PrixIndex.build([document]) as index:
            assert len(index.query('//naïve[text()="早安 — ¡hola!"]')) == 1

    def test_identical_documents(self):
        docs = [parse_document("<a><b/></a>", doc_id=i + 1)
                for i in range(50)]
        with PrixIndex.build(docs) as index:
            assert len(index.query("//a/b")) == 50
            assert index.trie_stats("rp").max_path_sharing == 50

    def test_long_text_values(self):
        blob = "x" * 20000
        document = parse_document(f"<a><b>{blob}</b></a>", 1)
        with PrixIndex.build([document]) as index:
            assert len(index.query(f'//a[./b="{blob}"]')) == 1


class TestQueryEdgeCases:
    @pytest.fixture(scope="class")
    def index(self):
        with PrixIndex.build([parse_document("<a><b>x</b></a>", 1)]) as index:
            yield index

    def test_label_absent_from_corpus(self, index):
        assert index.query("//zzz/yyy") == []

    def test_value_absent(self, index):
        assert index.query('//a[./b="nope"]') == []

    def test_query_deeper_than_document(self, index):
        assert index.query("//a/b/c/d/e/f") == []

    def test_root_anchored_mismatch(self, index):
        assert index.query("/b/a") == []

    def test_results_are_deterministic(self, index):
        first = [m.canonical for m in index.query("//a/b")]
        second = [m.canonical for m in index.query("//a/b")]
        assert first == second
