"""Unit tests for PRIX engine internals with thin coverage elsewhere:
the Trie-Symbol / Docid index wrappers, the next free id a carve derives
from the Trie-Symbol index, and the DocView's extended-to-original
numbering."""

import struct

import pytest

from repro.datasets import dblp
from repro.prix.filtering import DocidIndex, TrieSymbolIndex
from repro.prix.incremental import next_free_id
from repro.prix.index import IndexOptions, PrixIndex
from repro.prix.refinement import DocView
from repro.prufer.sequence import extended_sequence, regular_sequence
from repro.storage.bptree import BPlusTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.trie.labeling import BulkDFSLabeler, DynamicLabeler
from repro.xmlkit.parser import parse_document


def make_pool():
    return BufferPool(Pager.in_memory(page_size=512))


class TestTrieSymbolIndex:
    @pytest.fixture()
    def index(self):
        pool = make_pool()
        entries = sorted([
            TrieSymbolIndex.make_entry("a", 10, 20, 1, 3),
            TrieSymbolIndex.make_entry("a", 12, 15, 2, 0),
            TrieSymbolIndex.make_entry("a", 30, 40, 1, 7),
            TrieSymbolIndex.make_entry("b", 11, 14, 2, 1),
        ], key=lambda pair: pair[0])
        return TrieSymbolIndex(BPlusTree.bulk_load(pool, entries))

    def test_range_query_scopes(self, index):
        inside = list(index.range_query_full("a", 10, 20))
        assert [(left, right) for left, right, _ in inside] == [(12, 15)]

    def test_open_interval_excludes_bounds(self, index):
        hits = list(index.range_query_full("a", 9, 30))
        lefts = [left for left, _, _ in hits]
        assert lefts == [10, 12]  # 30 itself excluded

    def test_gaps_returned(self, index):
        hits = {left: gap for left, _, _, gap
                in index.range_query_gaps("a", 0, 100)}
        assert hits == {10: 3, 12: 0, 30: 7}

    def test_label_prefix_is_a_probe_handle(self, index):
        handle = TrieSymbolIndex.label_prefix("a")
        assert list(index.range_query_gaps(handle, 9, 30)) == \
            list(index.range_query_gaps("a", 9, 30)) == \
            [(10, 20, 1, 3), (12, 15, 2, 0)]

    def test_label_isolation(self, index):
        assert list(index.range_query_full("b", 10, 20)) == [(11, 14, 2)]
        assert list(index.range_query_full("zzz", 0, 100)) == []


class TestDocidIndex:
    def test_closed_interval(self):
        pool = make_pool()
        entries = sorted([DocidIndex.make_entry(left, doc)
                          for left, doc in [(5, 1), (7, 2), (9, 3)]],
                         key=lambda pair: pair[0])
        index = DocidIndex(BPlusTree.bulk_load(pool, entries))
        assert sorted(index.documents_in(5, 9)) == [1, 2, 3]
        assert index.documents_in(6, 8) == [2]
        assert index.documents_in(10, 99) == []

    def test_duplicate_terminals(self):
        pool = make_pool()
        entries = [DocidIndex.make_entry(5, 1), DocidIndex.make_entry(5, 2)]
        index = DocidIndex(BPlusTree.bulk_load(pool, entries))
        assert sorted(index.documents_in(5, 5)) == [1, 2]


def labeled_nodes(labeled):
    """``(left, right, level, children's RightPos)`` of every node of a
    labeled trie, the root's first, read off its Trie-Symbol entries; a
    node's parent is the nearest earlier node one level up."""
    nodes = [(int.from_bytes(key[-8:], "big"),
              *struct.unpack("<QII", value)[:2], [])
             for key, value in labeled.symbol_entries]
    nodes.sort(key=lambda node: node[0])
    root = (*labeled.root_range, 0, [])
    stack = [root]
    for node in nodes:
        while stack[-1][2] >= node[2]:
            stack.pop()
        stack[-1][3].append(node[1])
        stack.append(node)
    return [root, *nodes]


class TestNextFreeId:
    def test_derived_next_free_id_is_the_seed_rule(self):
        """Every node's next free id, derived from the Trie-Symbol index,
        is what the allocation B+-tree was seeded with: the last child's
        RightPos, or ``left + 1`` for a leaf.  The dynamic build keeps
        its slack on both variants."""
        documents = dblp(n_records=12).documents
        seen = set()
        for options in (IndexOptions(), IndexOptions(labeler="dynamic")):
            with PrixIndex.build(documents, options) as index:
                for name in index.variants():
                    variant = index._variants[name]
                    sequence = (extended_sequence if variant.extended
                                else regular_sequence)
                    labeler = (DynamicLabeler() if options.labeler ==
                               "dynamic" else BulkDFSLabeler())
                    labeled = labeler.label(
                        [sequence(document).lps for document in documents],
                        [document.doc_id for document in documents],
                        TrieSymbolIndex, DocidIndex)
                    assert labeled.root_range == variant.root_range
                    seen.add((options.labeler, index.summary()
                              ["variants"][name]["insertion_slack"]))
                    for left, right, level, rights in labeled_nodes(labeled):
                        seed = max(rights, default=left + 1)
                        assert next_free_id(variant, left, right,
                                            level) == seed
        assert seen == {("bulk", False), ("dynamic", True)}


class TestDocViewNumbering:
    def test_extended_to_original_mapping(self):
        document = parse_document("<a><b>x</b><c/></a>", 1)
        seq = extended_sequence(document)
        nps = [0] * (seq.n_nodes + 1)
        labels = [None] * (seq.n_nodes + 1)
        for child, parent in enumerate(seq.nps, start=1):
            nps[child] = parent
            labels[parent] = seq.lps[child - 1]
        for label, number in seq.leaves:
            labels[number] = label
        view = DocView(1, nps, labels, extended=True)
        originals = [view.original_number(i)
                     for i in range(1, seq.n_nodes + 1)]
        # Dummies map to 0; original nodes map to 1..n in order.
        non_zero = [n for n in originals if n]
        assert non_zero == list(range(1, document.size + 1))
        assert originals.count(0) == len(seq.leaves)

    def test_regular_view_identity(self):
        view = DocView(1, [0, 2, 0], ["?", "x", "a"], extended=False)
        assert view.original_number(2) == 2
