"""XML substrate: parser, tree model and serializer.

The parser runs on the standard library's expat, so any well-formed XML
1.0 text is accepted and anything else refused; the tree model and its
numberings are the reproduction's own.
"""

from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.parser import (parse_document, parse_fragment,
                                 split_documents)
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tree import Document, XMLNode

__all__ = [
    "Document",
    "XMLNode",
    "XMLSyntaxError",
    "parse_document",
    "parse_fragment",
    "serialize",
    "split_documents",
]
