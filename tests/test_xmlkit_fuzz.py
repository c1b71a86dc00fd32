"""Fuzz-style robustness tests for the XML parser.

The contract: whatever bytes arrive, ``parse_fragment`` /
``parse_document`` / ``split_documents`` either succeed or raise the
*typed* :class:`~repro.xmlkit.errors.XMLSyntaxError` (a ``ValueError``).
They never escape with an uncaught ``IndexError``/``AttributeError``/
``RecursionError``-style exception and never hang -- malformed input is
an expected environmental condition for an index that ingests
user-supplied documents, not a programming error.

Inputs come from two directions: a corpus of hand-written adversarial
fragments (lexical errors, shapes like interleaved close tags that
exercise the parser's stack discipline, and the refused cases of
``helpers.REFUSED_XML``), and seeded random mutations of well-formed
documents (``helpers.mutate_text``).  A failing case prints its seed,
which reproduces the exact input.
"""

import random

import pytest

from helpers import REFUSED_XML, make_random_document, mutate_text
from repro.xmlkit.errors import XMLSyntaxError
from repro.xmlkit.parser import parse_document, parse_fragment, \
    split_documents
from repro.xmlkit.serializer import serialize

#: Hand-picked adversarial inputs; each is malformed in a distinct way.
ADVERSARIAL = [
    "",                                   # empty document
    "   \n\t  ",                          # whitespace only
    "<",                                  # lone angle bracket
    "<a",                                 # unterminated start tag
    "<a>",                                # unclosed element
    "</a>",                               # close without open
    "<a></b>",                            # mismatched close
    "<a><b></a></b>",                     # interleaved close tags
    "<a><b></a>",                         # close skips an open element
    "<a/><b/>",                           # multiple roots
    "text<a/>",                           # data before the root
    "<a/>trailing",                       # data after the root
    "<a>&unknown;</a>",                   # undefined entity
    "<a>&amp</a>",                        # entity missing semicolon
    "<a>&#x;</a>",                        # empty character reference
    "<a>&</a>",                           # bare ampersand
    "<a attr></a>",                       # attribute without value
    "<a attr=>",                          # attribute without quoted value
    "<a attr='x></a>",                    # unterminated attribute value
    "<a 1bad='x'></a>",                   # malformed attribute name
    "<!-- unterminated",                  # unterminated comment
    "<![CDATA[ unterminated",             # unterminated CDATA
    "<!DOCTYPE unterminated",             # unterminated DOCTYPE
    "<? unterminated",                    # unterminated PI
    "<a>\x00</a>",                        # NUL byte in character data
    "<a\x00/>",                           # NUL byte in a tag
    "<a><![CDATA[]]></a><a/>",            # CDATA then second root
    "< a/>",                              # space before the tag name
    "<//>",                               # empty end tag
    "<a></ a>",                           # space inside the end tag
    "<a" + "a" * 5000,                    # long unterminated tag
    "<a>" * 2000,                         # deep unclosed nesting
]
ADVERSARIAL += [text for text in REFUSED_XML.values()
                if text not in ADVERSARIAL]


def assert_typed_or_ok(callable_, text):
    """Run one entry point; any failure must be XMLSyntaxError."""
    try:
        callable_(text)
    except XMLSyntaxError:
        pass
    # Anything else propagates and fails the test with its real type.


@pytest.mark.parametrize("text", ADVERSARIAL,
                         ids=lambda t: repr(t[:24]))
def test_adversarial_inputs_raise_typed_errors(text):
    for entry in (parse_fragment,
                  lambda t: parse_document(t, 1),
                  lambda t: split_documents(t)):
        assert_typed_or_ok(entry, text)


@pytest.mark.parametrize("text", ["<a>", "<a></b>", "<a>&bad;</a>",
                                  "<!-- x"])
def test_malformed_inputs_actually_raise(text):
    """The sentinel cases must *fail*, not be silently accepted."""
    with pytest.raises(XMLSyntaxError):
        parse_document(text, 1)


def test_error_is_a_value_error_with_offset():
    with pytest.raises(ValueError) as excinfo:
        parse_document("<a><b></a></b>", 1)
    assert isinstance(excinfo.value, XMLSyntaxError)
    with pytest.raises(XMLSyntaxError) as excinfo:
        parse_fragment("<a>&nope;</a>")
    assert excinfo.value.offset is not None


@pytest.mark.parametrize("seed", range(200))
def test_mutated_documents_never_escape_typed_errors(seed):
    rng = random.Random(seed)
    document = make_random_document(seed)
    text = serialize(document)
    mutated = mutate_text(rng, text, mutations=rng.randint(1, 4))
    try:
        parsed = parse_document(mutated, 1)
    except XMLSyntaxError:
        return
    # Survivors must be genuinely parseable: round-trip them.
    assert parse_document(serialize(parsed), 1) is not None


@pytest.mark.parametrize("seed", range(50))
def test_mutated_corpus_files_never_escape_typed_errors(seed):
    """split_documents walks records; damage must not desync it."""
    rng = random.Random(seed)
    parts = "".join(serialize(make_random_document(seed * 7 + i)).strip()
                    for i in range(3))
    text = f"<corpus>{parts}</corpus>"
    mutated = mutate_text(rng, text, mutations=rng.randint(1, 3))
    try:
        docs = split_documents(mutated)
    except XMLSyntaxError:
        return
    assert isinstance(docs, list)
