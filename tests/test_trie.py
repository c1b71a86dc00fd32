"""Virtual trie and labeling tests (Section 5.2)."""

import random

from repro.prix.index import _trie_entries
from repro.trie.labeling import MAX_RANGE, BulkDFSLabeler, DynamicLabeler
from repro.trie.trie import SequenceTrie


def build_trie(sequences):
    trie = SequenceTrie()
    for doc_id, labels in enumerate(sequences, start=1):
        trie.insert(labels, doc_id)
    return trie


def path_statistics(trie):
    """``(path count, max path sharing)`` as an index build reads them
    off the labeled trie, in its one pass over the nodes."""
    BulkDFSLabeler().label(trie)
    _, _, paths, sharing = _trie_entries(trie, {})
    return paths, sharing


class TestTrieConstruction:
    def test_shared_prefix_shares_nodes(self):
        trie = build_trie([("a", "b", "c"), ("a", "b", "d")])
        assert trie.node_count == 4  # a, b, c, d

    def test_identical_sequences_share_terminal(self):
        trie = build_trie([("a", "b"), ("a", "b"), ("a", "b")])
        assert trie.node_count == 2
        assert path_statistics(trie) == (1, 3)

    def test_sequence_count(self):
        trie = build_trie([("a",), ("b",), ("a",)])
        assert trie.sequence_count == 3

    def test_path_count(self):
        trie = build_trie([("a", "b"), ("a", "c"), ("d",)])
        assert path_statistics(trie) == (3, 1)

    def test_levels_are_positions(self):
        trie = build_trie([("x", "y", "z")])
        node = trie.root
        for expected_level, label in enumerate(("x", "y", "z"), start=1):
            node = node.children[label]
            assert node.level == expected_level

    def test_terminal_doc_ids(self):
        trie = SequenceTrie()
        end = trie.insert(("a", "b"), 42)
        assert end.doc_ids == [42]

    def test_empty_sequence_terminates_at_root(self):
        trie = SequenceTrie()
        trie.insert((), 1)
        assert trie.root.doc_ids == [1]


def check_containment(trie):
    """Child ranges nest inside the parent's; siblings are disjoint.

    Only LeftPos values ever serve as query keys, so a child may share
    its parent's right boundary (an insert hands its last carve the
    tail of the scope); left boundaries must be strictly inside.
    """
    stack = [trie.root]
    while stack:
        node = stack.pop()
        children = sorted(node.children.values(), key=lambda c: c.left)
        for child in children:
            assert node.left < child.left
            assert child.right <= node.right
            assert child.left < child.right
            stack.append(child)
        for first, second in zip(children, children[1:]):
            assert first.right <= second.left


class TestBulkDFSLabeler:
    def test_containment_property(self):
        rng = random.Random(1)
        sequences = [tuple(rng.choice("abc") for _ in range(rng.randint(1, 8)))
                     for _ in range(50)]
        trie = build_trie(sequences)
        BulkDFSLabeler().label(trie)
        check_containment(trie)

    def test_descendant_range_query_semantics(self):
        trie = build_trie([("a", "b", "c"), ("a", "d")])
        BulkDFSLabeler().label(trie)
        a_node = trie.root.children["a"]
        descendants = [n for n in trie.iter_nodes()
                       if a_node.left < n.left < a_node.right
                       and n is not a_node]
        labels = sorted(n.label for n in descendants)
        assert labels == ["b", "c", "d"]

    def test_gap_free(self):
        trie = build_trie([("a", "b"), ("c",)])
        left, right = BulkDFSLabeler().label(trie)
        # 2 ids per node (including the root) with no gaps.
        assert right - left + 1 == 2 * (trie.node_count + 1)


class TestDynamicLabeler:
    def test_containment_property(self):
        rng = random.Random(2)
        sequences = [tuple(rng.choice("ab") for _ in range(rng.randint(1, 6)))
                     for _ in range(30)]
        trie = build_trie(sequences)
        DynamicLabeler().label(trie)
        check_containment(trie)

    def test_huge_range_never_underflows(self):
        """The 8-byte range labels every node, and each keeps one stride
        of unallocated scope past its last child for later inserts."""
        rng = random.Random(3)
        sequences = [tuple(rng.choice("abcd")
                           for _ in range(rng.randint(1, 20)))
                     for _ in range(100)]
        trie = build_trie(sequences)
        stride = MAX_RANGE // (2 * trie.node_count + 2)
        left, right = DynamicLabeler().label(trie)
        assert (left, right) == (stride, (2 * trie.node_count + 2) * stride)
        assert right <= MAX_RANGE
        check_containment(trie)
        for node in (trie.root, *trie.iter_nodes()):
            next_free = max((child.right
                             for child in node.children.values()),
                            default=node.left)
            assert node.right - next_free == stride

    def test_stride_keeps_the_bulk_order(self):
        """Dynamic labels are the bulk labels times the stride, so keys
        sort, and B+-trees fill, exactly as a bulk build's."""
        sequences = [("a", "b", "c"), ("a", "d"), ("e",), ("a", "b")]
        bulk, dynamic = build_trie(sequences), build_trie(sequences)
        BulkDFSLabeler().label(bulk)
        DynamicLabeler().label(dynamic)
        stride = MAX_RANGE // (2 * dynamic.node_count + 2)
        assert [(n.left * stride, n.right * stride)
                for n in bulk.iter_nodes()] == \
            [(n.left, n.right) for n in dynamic.iter_nodes()]
