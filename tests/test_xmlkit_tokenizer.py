"""Lexical cases of XML text, seen through ``parse_fragment``.

Entities and character references, both attribute quote styles, the
markup that leaves no node (comments, processing instructions, the
declaration, DOCTYPE), CDATA, whitespace-only text and the lexical
errors.  The parser runs on expat; the module keeps its name so these
cases keep their test ids.
"""

import pytest

from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.parser import parse_fragment


def kinds(text):
    """``(tag, is_value)`` of every node, in document order."""
    return [(node.tag, node.is_value)
            for node in parse_fragment(text).iter_subtree()]


def attributes(text):
    """``(name, value)`` of the root's attribute subelements."""
    return [(child.tag[1:], child.children[0].tag if child.children else "")
            for child in parse_fragment(text).children
            if child.tag.startswith("@")]


class TestBasicTokens:
    def test_simple_element(self):
        assert kinds("<a></a>") == [("a", False)]

    def test_self_closing(self):
        assert kinds("<a/>") == [("a", False)]

    def test_text_content(self):
        assert kinds("<a>hello</a>") == [("a", False), ("hello", True)]

    def test_nested_elements(self):
        assert kinds("<a><b/></a>") == [("a", False), ("b", False)]

    def test_whitespace_only_text_dropped(self):
        assert kinds("<a>\n  <b/>\n</a>") == [("a", False), ("b", False)]

    def test_names_with_punctuation(self):
        assert parse_fragment("<ns:tag-1.x/>").tag == "ns:tag-1.x"

    def test_end_tag_with_whitespace(self):
        assert kinds("<a></a >") == [("a", False)]


class TestAttributes:
    def test_single_attribute(self):
        assert attributes('<a key="v"/>') == [("key", "v")]

    def test_multiple_attributes(self):
        assert attributes('<a x="1" y="2"/>') == [("x", "1"), ("y", "2")]

    def test_single_quotes(self):
        assert attributes("<a x='1'/>") == [("x", "1")]

    def test_attribute_with_spaces_around_eq(self):
        assert attributes('<a x = "1"/>') == [("x", "1")]

    def test_attribute_entity_decoding(self):
        assert attributes('<a x="a&amp;b"/>') == [("x", "a&b")]

    def test_empty_attribute_value(self):
        assert attributes('<a x=""/>') == [("x", "")]

    def test_missing_eq_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment('<a x"1"/>')

    def test_unquoted_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a x=1/>")

    def test_unterminated_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment('<a x="1>')


class TestEntities:
    @pytest.mark.parametrize("entity,expected", [
        ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
        ("&quot;", '"'), ("&apos;", "'"),
    ])
    def test_predefined_entities(self, entity, expected):
        assert kinds(f"<a>{entity}</a>")[1] == (expected, True)

    def test_decimal_reference(self):
        assert kinds("<a>&#65;</a>")[1] == ("A", True)

    def test_hex_reference(self):
        assert kinds("<a>&#x41;</a>")[1] == ("A", True)

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a>&nope;</a>")


class TestMarkupSkipping:
    def test_comment_skipped(self):
        assert kinds("<a><!-- hi --></a>") == [("a", False)]

    def test_comment_with_markup_inside(self):
        assert kinds("<a><!-- <b> --></a>") == [("a", False)]

    def test_xml_declaration_skipped(self):
        assert kinds('<?xml version="1.0"?><a/>') == [("a", False)]

    def test_processing_instruction_skipped(self):
        assert kinds("<?php echo ?><a/>") == [("a", False)]

    def test_doctype_skipped(self):
        assert kinds("<!DOCTYPE dblp SYSTEM 'dblp.dtd'><a/>") == [
            ("a", False)]

    def test_doctype_with_internal_subset(self):
        text = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>"
        assert kinds(text) == [("a", False)]

    def test_cdata_becomes_text(self):
        assert kinds("<a><![CDATA[<raw&>]]></a>")[1] == ("<raw&>", True)

    def test_unterminated_comment_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a><!-- oops")

    def test_unterminated_cdata_raises(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a><![CDATA[oops")


class TestErrors:
    def test_unterminated_start_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a")

    def test_malformed_start_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<1a/>")

    def test_malformed_end_tag(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a></1>")

    def test_offset_reported(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_fragment("<a><!-- x")
        assert info.value.offset == 3
