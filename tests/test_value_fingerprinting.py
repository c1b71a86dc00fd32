"""Oversized-value fingerprinting tests.

Values longer than VALUE_LABEL_LIMIT are replaced in label space by a
prefix + SHA-256 fingerprint so they never overflow an index page; both
the data side and every query side must tokenize identically.
"""

from repro.baselines.region import StreamSet
from repro.baselines.twigstack import twig_stack
from repro.prix.index import PrixIndex
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import (VALUE_LABEL_LIMIT, value, sequence_label,
                               value_label)

LONG_A = "alpha " * 2000
LONG_B = "alpha " * 1999 + "omega!"


class TestTokenization:
    def test_short_values_unchanged(self):
        assert value_label("short") == "\x1fshort"

    def test_limit_boundary(self):
        at_limit = "x" * VALUE_LABEL_LIMIT
        assert value_label(at_limit) == "\x1f" + at_limit
        over = "x" * (VALUE_LABEL_LIMIT + 1)
        assert len(value_label(over)) < len(over)

    def test_fingerprints_distinguish(self):
        assert value_label(LONG_A) != value_label(LONG_B)

    def test_fingerprint_deterministic(self):
        assert value_label(LONG_A) == value_label(LONG_A)

    def test_sequence_label_uses_tokenizer(self):
        assert sequence_label(value(LONG_A)) == value_label(LONG_A)

    def test_fingerprint_idempotent(self):
        # Re-tokenizing a fingerprint token (as a rebuild would) must not
        # change it, or rebuilt indexes would stop matching old queries.
        token = value_label(LONG_A)[1:]
        assert value_label(token) == "\x1f" + token


class TestEndToEnd:
    def test_prix_matches_long_values(self):
        docs = [parse_document(f"<a><b>{LONG_A}</b></a>", 1),
                parse_document(f"<a><b>{LONG_B}</b></a>", 2)]
        with PrixIndex.build(docs) as index:
            matches = index.query(parse_xpath(f'//a[./b="{LONG_A}"]'))
        assert {m.doc_id for m in matches} == {1}

    def test_both_variants_agree(self):
        docs = [parse_document(f"<a><b>{LONG_A}</b></a>", 1)]
        pattern = parse_xpath(f'//a[./b="{LONG_A}"]')
        with PrixIndex.build(docs) as index:
            assert len(index.query(pattern, variant="rp")) == 1
            assert len(index.query(pattern, variant="ep")) == 1

    def test_twigstack_matches_long_values(self):
        docs = [parse_document(f"<a><b>{LONG_A}</b></a>", 1),
                parse_document(f"<a><b>{LONG_B}</b></a>", 2)]
        pool = BufferPool(Pager.in_memory())
        streams = StreamSet.build(docs, pool)
        matches, _ = twig_stack(parse_xpath(f'//a[./b="{LONG_A}"]'),
                                streams)
        assert {doc for doc, _ in matches} == {1}

    def test_rebuild_preserves_long_value_queries(self):
        docs = [parse_document(f"<a><b>{LONG_A}</b></a>", 1)]
        with PrixIndex.build(docs) as index, index.rebuilt() as fresh:
            assert len(fresh.query(
                parse_xpath(f'//a[./b="{LONG_A}"]'))) == 1
