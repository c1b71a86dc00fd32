"""Serializer tests, including parse/serialize round trips."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_tree
from repro.xmlkit.parser import parse_document, parse_fragment
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tree import Document, element, same_tree, value


class TestSerialization:
    def test_empty_element(self):
        assert serialize(element("a")) == "<a/>"

    def test_nested(self):
        root = element("a")
        root.append(element("b"))
        assert serialize(root) == "<a><b/></a>"

    def test_text(self):
        root = element("a")
        root.append(value("hi"))
        assert serialize(root) == "<a>hi</a>"

    def test_text_escaping(self):
        root = element("a")
        root.append(value("x<y&z>"))
        assert serialize(root) == "<a>x&lt;y&amp;z&gt;</a>"

    def test_attribute_subelement_rendered_as_attribute(self):
        root = parse_fragment('<a key="v"><b/></a>')
        assert serialize(root) == '<a key="v"><b/></a>'

    def test_attribute_value_escaping(self):
        root = parse_fragment('<a k="x&amp;y"/>')
        assert serialize(root) == '<a k="x&amp;y"/>'

    def test_accepts_document_wrapper(self):
        doc = Document(element("a"))
        assert serialize(doc) == "<a/>"


class TestRoundTrip:
    def test_simple_roundtrip(self):
        text = '<a k="1"><b>x</b><c/></a>'
        assert serialize(parse_fragment(text)) == text

    def test_random_tree_roundtrips(self):
        # value_p=0: adjacent text siblings legitimately merge on reparse,
        # which is standard XML behaviour, not a serializer defect.
        rng = random.Random(11)
        for _ in range(25):
            root = make_random_tree(rng, value_p=0.0)
            reparsed = parse_fragment(serialize(root))
            assert same_tree(root, reparsed)


#: Value characters: letters plus every character the serializer must
#: escape, or protect from XML 1.0 whitespace and line-end normalization.
ALPHABET = "xy \t\n\r>&<\"'"


def _random_text(rng):
    text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 6)))
    return text if text.strip() else "x" + text  # blank text leaves no node


def _decorate(rng, root):
    """Give elements attributes (first) and one text child (last)."""
    for node in list(root.iter_subtree()):
        for name in rng.sample("kl", rng.randint(0, 2)):
            attr = element("@" + name)
            if rng.random() < 0.8:
                attr.append(value(_random_text(rng)))
            attr.parent = node
            node.children.insert(0, attr)
        if rng.random() < 0.5:
            node.append(value(_random_text(rng)))
    return root


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_roundtrip_property(seed):
    rng = random.Random(seed)
    doc = Document(_decorate(rng, make_random_tree(rng, value_p=0.0)))
    text = serialize(doc)
    reparsed = parse_document(text)
    assert same_tree(doc.root, reparsed.root)
    assert serialize(reparsed) == text
