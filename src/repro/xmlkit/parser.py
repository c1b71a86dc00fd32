"""XML parser: XML text -> ordered labeled tree, on the standard library's
expat (:mod:`xml.parsers.expat`).

Following Section 2 of the paper, attributes are folded into the tree as
subelements: an attribute ``k="v"`` of element ``e`` becomes a child element
node ``@k`` of ``e`` with a single value-node child ``v``.  The ``@`` prefix
keeps attribute names from colliding with element tags (it is not a valid
XML name start character) while letting the rest of the system treat both
uniformly, exactly as the paper does.

The character data between two pieces of markup becomes one value node
unless it is all whitespace; a non-empty CDATA section is a value node of
its own.  Comments, processing instructions, the XML declaration and
DOCTYPE leave no node.  Anything expat refuses -- and any reference to an
external entity, which is refused rather than skipped -- raises
:class:`~repro.xmlkit.errors.XMLSyntaxError`.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.tree import Document, XMLNode

#: Prefix applied to attribute names when folding them into the tree.
ATTRIBUTE_PREFIX = "@"


def parse_fragment(text):
    """Parse an XML string and return the root :class:`XMLNode`."""
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.specified_attributes = True   # DTD defaults add no node
    parser.buffer_text = True
    stack = [XMLNode("#document")]       # a holder for the root
    pending = []                         # character data since the last markup

    def flush(*_ignored):
        if pending:
            data = "".join(pending)
            pending.clear()
            if data.strip() or in_cdata:
                stack[-1].append(XMLNode(data, is_value=True))

    def start(name, attrs):
        flush()
        node = XMLNode(name)
        for i in range(0, len(attrs), 2):
            attr = node.append(XMLNode(ATTRIBUTE_PREFIX + attrs[i]))
            if attrs[i + 1]:
                attr.append(XMLNode(attrs[i + 1], is_value=True))
        stack[-1].append(node)
        stack.append(node)

    def end(_name):
        flush()
        stack.pop()

    def cdata(opening):
        nonlocal in_cdata
        flush()
        in_cdata = opening

    def refuse(name, _is_parameter_entity):
        # Declared, if anywhere, in an external DTD, which is not read.
        raise XMLSyntaxError(f"undeclared entity {name!r}",
                             max(parser.CurrentByteIndex, 0))

    in_cdata = False
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.StartCdataSectionHandler = lambda: cdata(True)
    parser.EndCdataSectionHandler = lambda: cdata(False)
    parser.CommentHandler = flush
    parser.ProcessingInstructionHandler = flush
    parser.SkippedEntityHandler = refuse
    parser.ExternalEntityRefHandler = lambda *_ignored: 0   # 0: expat fails
    try:
        parser.Parse(text, True)
    except expat.ExpatError as error:
        raise XMLSyntaxError(str(error),
                             max(parser.ErrorByteIndex, 0)) from None
    except UnicodeEncodeError as error:   # a lone surrogate
        raise XMLSyntaxError(
            "character not encodable in UTF-8",
            len(text[:error.start].encode("utf-8"))) from None
    root = stack[0].children[0]
    root.parent = None
    return root


def parse_document(text, doc_id=0):
    """Parse an XML string into a numbered :class:`Document`."""
    return Document(parse_fragment(text), doc_id=doc_id)


def split_documents(text, record_tags=None, start_id=1):
    """Parse a corpus file into one :class:`Document` per record.

    Large bibliographic/biological corpora wrap millions of records in a
    single root element; the paper indexes each record as its own
    document (e.g. 328,858 sequences from one DBLP file).  This splits
    the root's element children into separate documents.

    Args:
        text: the corpus XML.
        record_tags: optional collection of tags to accept as records;
            other children are skipped.  Default: every element child.
        start_id: document id of the first record.

    Returns a list of numbered :class:`Document` objects.
    """
    root = parse_fragment(text)
    documents = []
    doc_id = start_id
    for child in root.children:
        if child.is_value:
            continue
        if child.tag.startswith(ATTRIBUTE_PREFIX):
            continue  # root attributes are not records
        if record_tags is not None and child.tag not in record_tags:
            continue
        child.parent = None
        documents.append(Document(child, doc_id=doc_id))
        doc_id += 1
    return documents
