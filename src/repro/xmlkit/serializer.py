"""Serialize document trees back to XML text.

Attribute subelements produced by the parser (tags starting with ``@`` whose
only child is a value node) are emitted as real XML attributes, so
``parse_document(serialize(doc))`` round-trips structurally.
"""

from __future__ import annotations

from io import StringIO

from repro.xmlkit.parser import ATTRIBUTE_PREFIX

# A parser normalizes a literal \r (line ends) and, in attribute values,
# \t and \n too (XML 1.0 sections 2.11 and 3.3.3); character references
# survive both, so the round trip keeps them.
_ESCAPES_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ESCAPES_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                 "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def _escape(text, table):
    for char, replacement in table.items():
        if char in text:
            text = text.replace(char, replacement)
    return text


def _is_attribute_node(node):
    return (not node.is_value
            and node.tag.startswith(ATTRIBUTE_PREFIX)
            and all(child.is_value for child in node.children)
            and len(node.children) <= 1)


def _write_node(node, out):
    if node.is_value:
        out.write(_escape(node.tag, _ESCAPES_TEXT))
        return
    attributes = []
    content = []
    for child in node.children:
        if _is_attribute_node(child):
            attributes.append(child)
        else:
            content.append(child)
    out.write(f"<{node.tag}")
    for attr in attributes:
        name = attr.tag[len(ATTRIBUTE_PREFIX):]
        attr_value = attr.children[0].tag if attr.children else ""
        out.write(f' {name}="{_escape(attr_value, _ESCAPES_ATTR)}"')
    if not content:
        out.write("/>")
        return
    out.write(">")
    for child in content:
        _write_node(child, out)
    out.write(f"</{node.tag}>")


def serialize(document_or_node):
    """Return the XML text of a :class:`Document` or :class:`XMLNode`."""
    node = getattr(document_or_node, "root", document_or_node)
    out = StringIO()
    _write_node(node, out)
    return out.getvalue()
