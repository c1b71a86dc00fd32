"""Parser unit tests: XML text to tree, attribute folding, well-formedness."""

import pytest

from helpers import REFUSED_XML
from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.parser import parse_document, parse_fragment


class TestBasicParsing:
    def test_single_element(self):
        root = parse_fragment("<a/>")
        assert root.tag == "a"
        assert root.is_leaf

    def test_nested_structure(self):
        root = parse_fragment("<a><b><c/></b><d/></a>")
        assert [c.tag for c in root.children] == ["b", "d"]
        assert root.children[0].children[0].tag == "c"

    def test_text_becomes_value_node(self):
        root = parse_fragment("<a>hi</a>")
        child = root.children[0]
        assert child.is_value and child.tag == "hi"

    def test_mixed_content_order_preserved(self):
        root = parse_fragment("<a>x<b/>y</a>")
        assert [(c.tag, c.is_value) for c in root.children] == [
            ("x", True), ("b", False), ("y", True)]

    def test_parent_pointers(self):
        root = parse_fragment("<a><b/></a>")
        assert root.children[0].parent is root

    def test_document_assigns_ids_and_numbers(self):
        doc = parse_document("<a><b/></a>", doc_id=7)
        assert doc.doc_id == 7
        assert doc.root.postorder == doc.size == 2


class TestAttributeFolding:
    def test_attribute_becomes_subelement(self):
        root = parse_fragment('<a key="v"/>')
        attr = root.children[0]
        assert attr.tag == "@key"
        assert attr.children[0].is_value
        assert attr.children[0].tag == "v"

    def test_attribute_order_before_content(self):
        root = parse_fragment('<a k="v"><b/></a>')
        assert [c.tag for c in root.children] == ["@key".replace("key", "k"),
                                                  "b"]

    def test_empty_attribute_has_no_value_child(self):
        root = parse_fragment('<a k=""/>')
        assert root.children[0].is_leaf

    def test_markup_characters_inside_a_value(self):
        root = parse_fragment('<a b="x>y" c=\'"/>\'/>')
        assert [(c.tag, c.children[0].tag) for c in root.children] == [
            ("@b", "x>y"), ("@c", '"/>')]

    def test_attribute_values_are_normalized(self):
        # XML 1.0 section 3.3.3: a literal tab or line end in a value is
        # a space; a character reference to one survives.
        root = parse_fragment('<a b="x\ty\r\nz" c="x&#9;y&#10;z"/>')
        assert [c.children[0].tag for c in root.children] == [
            "x y z", "x\ty\nz"]


class TestCharacterData:
    @pytest.mark.parametrize("text,values", [
        ("<a>x<!--c-->y<?p q?>z</a>", ["x", "y", "z"]),
        ("<a>x&amp;y&#65;</a>", ["x&yA"]),
        ("<a>x<![CDATA[ ]]>y</a>", ["x", " ", "y"]),
        ("<a><![CDATA[]]></a>", []),
        ("<a> <b/>\t<![CDATA[c]]>\n</a>", ["c"]),
        ("<a>p\r\nq\rr&#13;</a>", ["p\nq\nr\r"]),
        ('<!DOCTYPE a [<!ENTITY e "v&#38;amp;w">]><a>&e;</a>', ["v&w"]),
    ], ids=["markup-splits-text", "references-join-text", "cdata-node",
            "empty-cdata", "whitespace-dropped", "line-ends",
            "internal-entity"])
    def test_value_nodes(self, text, values):
        root = parse_fragment(text)
        assert [c.tag for c in root.children if c.is_value] == values


class TestWellFormedness:
    def test_mismatched_tags_raise(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a><b></a></b>")

    def test_unclosed_element_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a><b>")

    def test_stray_end_tag_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("</a>")

    def test_multiple_roots_raise(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a/><b/>")

    def test_text_outside_root_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("x<a/>")

    def test_empty_document_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("")

    @pytest.mark.parametrize("text", list(REFUSED_XML.values()),
                             ids=list(REFUSED_XML))
    def test_refused_text_raises_with_an_offset(self, text):
        with pytest.raises(XMLSyntaxError) as info:
            parse_fragment(text)
        assert type(info.value) is XMLSyntaxError
        assert info.value.offset >= 0


class TestRealisticDocuments:
    def test_dblp_like_record(self):
        text = ('<inproceedings key="x/1"><author>A</author>'
                "<title>T</title><year>1990</year></inproceedings>")
        doc = parse_document(text)
        assert doc.root.tag == "inproceedings"
        assert doc.element_count() == 5  # root + @key + 3 fields
        assert doc.value_count() == 4

    def test_deep_nesting(self):
        text = "<a>" * 200 + "</a>" * 200
        doc = parse_document(text)
        assert doc.max_depth() == 200
