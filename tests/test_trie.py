"""Virtual trie and labeling tests (Section 5.2).

The labelers number the trie of a sequence set without building it; the
tests read its nodes back off the entries the labeler emits, in a
layout that keeps every node's fields as plain tuples.
"""

import random
from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trie.labeling import MAX_RANGE, BulkDFSLabeler, DynamicLabeler

Node = namedtuple("Node", "label left right level gap")


class Nodes:
    """Trie-Symbol layout: ``((label, left), (right, level, gap))``."""

    @staticmethod
    def label_prefix(label):
        return label

    @staticmethod
    def make_entry(label, left, right, level, node_gap):
        return (label, left), (right, level, node_gap)


class Terminals:
    """Docid layout: ``(left, doc_id)``."""

    @staticmethod
    def make_entry(left, doc_id):
        return left, doc_id


def label(sequences, labeler=None, gaps=None):
    """The labeled trie of ``sequences``, document ids 1, 2, ..."""
    return (labeler or BulkDFSLabeler()).label(
        list(sequences), list(range(1, len(sequences) + 1)), Nodes,
        Terminals, gaps)


def nodes(trie):
    """Every node but the root, in LeftPos (depth-first) order."""
    return sorted((Node(key[0], key[1], *value)
                   for key, value in trie.symbol_entries),
                  key=lambda node: node.left)


def children_of(trie):
    """``{left: children}`` of every node, the root's included, each
    child found as the nearest earlier node one level up (so by the
    depth-first order and levels, not by the ranges)."""
    root = Node(None, *trie.root_range, 0, 0)
    children = {root.left: []}
    stack = [root]
    for node in nodes(trie):
        while stack[-1].level >= node.level:
            stack.pop()
        children[stack[-1].left].append(node)
        children[node.left] = []
        stack.append(node)
    return root, children


class TestTrieConstruction:
    def test_shared_prefix_shares_nodes(self):
        trie = label([("a", "b", "c"), ("a", "b", "d")])
        assert trie.node_count == 4  # a, b, c, d
        assert [node.label for node in nodes(trie)] == ["a", "b", "c", "d"]

    def test_identical_sequences_share_terminal(self):
        trie = label([("a", "b"), ("a", "b"), ("a", "b")])
        assert trie.node_count == 2
        assert (trie.path_count, trie.max_path_sharing) == (1, 3)

    def test_sequence_count(self):
        trie = label([("a",), ("b",), ("a",)])
        assert len(trie.docid_entries) == 3

    def test_path_count(self):
        trie = label([("a", "b"), ("a", "c"), ("d",)])
        assert (trie.path_count, trie.max_path_sharing) == (3, 1)

    def test_levels_are_positions(self):
        trie = label([("x", "y", "z")])
        assert [(node.label, node.level) for node in nodes(trie)] == \
            [("x", 1), ("y", 2), ("z", 3)]

    def test_terminal_doc_ids(self):
        trie = label([("a", "c"), ("a", "b")])
        by_label = {node.label: node.left for node in nodes(trie)}
        # Sorted by LeftPos: ("a", "b") is first in trie order.
        assert trie.docid_entries == [(by_label["b"], 2),
                                      (by_label["c"], 1)]

    def test_empty_sequence_terminates_at_root(self):
        trie = label([()])
        assert trie.docid_entries == [(trie.root_range[0], 1)]
        assert (trie.node_count, trie.path_count) == (0, 1)

    def test_node_gap_is_the_widest_through_the_node(self):
        trie = label([("a", "b"), ("a", "c"), ("a", "b")],
                     gaps=[[1, 0], [4, 2], [0, 3]])
        assert [(node.label, node.gap) for node in nodes(trie)] == \
            [("a", 4), ("b", 3), ("c", 2)]

    def test_label_counts_follow_the_lowest_left_pos(self):
        trie = label([("b", "a"), ("a", "b", "b"), ("c",)])
        assert list(trie.label_counts.items()) == \
            [("a", 2), ("b", 3), ("c", 1)]


def check_containment(trie):
    """Child ranges nest inside the parent's; siblings are disjoint.

    Only LeftPos values ever serve as query keys, so a child may share
    its parent's right boundary (an insert hands its last carve the
    tail of the scope); left boundaries must be strictly inside.
    """
    _, children = children_of(trie)
    lefts = {trie.root_range[0]: trie.root_range[1]}
    lefts.update((node.left, node.right) for node in nodes(trie))
    for left, kids in children.items():
        right = lefts[left]
        for child in kids:
            assert left < child.left
            assert child.right <= right
            assert child.left < child.right
        for first, second in zip(kids, kids[1:]):
            assert first.right <= second.left
            assert first.label < second.label


def random_sequences(seed, alphabet, count, longest):
    rng = random.Random(seed)
    return [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, longest)))
            for _ in range(count)]


class TestBulkDFSLabeler:
    def test_containment_property(self):
        check_containment(label(random_sequences(1, "abc", 50, 8)))

    def test_descendant_range_query_semantics(self):
        trie = label([("a", "b", "c"), ("a", "d")])
        a_node = next(node for node in nodes(trie) if node.label == "a")
        descendants = [node.label for node in nodes(trie)
                       if a_node.left < node.left < a_node.right]
        assert sorted(descendants) == ["b", "c", "d"]

    def test_gap_free(self):
        trie = label([("a", "b"), ("c",)])
        left, right = trie.root_range
        # 2 ids per node (including the root) with no gaps.
        assert right - left + 1 == 2 * (trie.node_count + 1)


class TestDynamicLabeler:
    def test_containment_property(self):
        check_containment(label(random_sequences(2, "ab", 30, 6),
                                DynamicLabeler()))

    def test_huge_range_never_underflows(self):
        """The 8-byte range labels every node, and each keeps one stride
        of unallocated scope past its last child for later inserts."""
        trie = label(random_sequences(3, "abcd", 100, 20), DynamicLabeler())
        stride = MAX_RANGE // (2 * trie.node_count + 2)
        assert trie.root_range == (stride,
                                   (2 * trie.node_count + 2) * stride)
        assert trie.root_range[1] <= MAX_RANGE
        check_containment(trie)
        root, children = children_of(trie)
        for node in (root, *nodes(trie)):
            next_free = max((child.right for child in children[node.left]),
                            default=node.left)
            assert node.right - next_free == stride

    def test_stride_keeps_the_bulk_order(self):
        """Dynamic labels are the bulk labels times the stride, so keys
        sort, and B+-trees fill, exactly as a bulk build's."""
        sequences = [("a", "b", "c"), ("a", "d"), ("e",), ("a", "b")]
        bulk, dynamic = label(sequences), label(sequences, DynamicLabeler())
        stride = MAX_RANGE // (2 * dynamic.node_count + 2)
        assert [(node.left * stride, node.right * stride)
                for node in nodes(bulk)] == \
            [(node.left, node.right) for node in nodes(dynamic)]
        assert [(left * stride, doc) for left, doc in bulk.docid_entries] \
            == dynamic.docid_entries


def naive_labels(sequences, gaps, stride_of):
    """The reference: a dict trie, numbered by a DFS over children in
    label order, as the build did before it streamed."""
    root = {"children": {}, "docs": [], "gap": 0}
    node_count = 0
    for doc_id, (seq, seq_gaps) in enumerate(zip(sequences, gaps), start=1):
        node = root
        for label_, gap in zip(seq, seq_gaps):
            child = node["children"].get(label_)
            if child is None:
                child = node["children"][label_] = {
                    "children": {}, "docs": [], "gap": 0}
                node_count += 1
            node = child
            node["gap"] = max(node["gap"], gap)
        node["docs"].append(doc_id)
    stride = stride_of(node_count)
    counter = 0
    symbols, docids, counts = [], [], {}
    leaves = sharing = 0

    def visit(node, label_, level):
        nonlocal counter, leaves, sharing
        counter += stride
        left = counter
        if label_ is not None:
            counts[label_] = counts.get(label_, 0) + 1
        docids.extend((left, doc_id) for doc_id in node["docs"])
        sharing = max(sharing, len(node["docs"]))
        leaves += not node["children"]
        for child_label in sorted(node["children"]):
            visit(node["children"][child_label], child_label, level + 1)
        counter += stride
        if label_ is not None:
            symbols.append(((label_, left), (counter, level, node["gap"])))
        return left, counter

    root_range = visit(root, None, 0)
    return (root_range, sorted(symbols), docids, list(counts.items()),
            node_count, leaves, sharing)


def streamed_labels(labeler, sequences, gaps):
    trie = label(sequences, labeler, gaps)
    return (trie.root_range, trie.symbol_entries, trie.docid_entries,
            list(trie.label_counts.items()), trie.node_count,
            trie.path_count, trie.max_path_sharing)


def sequence_sets():
    """Sequence sets over one- to three-label alphabets of strings or
    ViST-style ``(symbol, prefix)`` tuples, with empty sequences,
    duplicates and prefixes of one another; each position carries a
    gap."""
    alphabets = st.sampled_from([
        ["a"], ["a", "b"], ["a", "b", "c"],
        [("a", ""), ("b", "a\x1e"), ("a", "a\x1e")]])
    return alphabets.flatmap(lambda alphabet: st.lists(st.lists(
        st.tuples(st.sampled_from(alphabet), st.integers(0, 5)),
        max_size=6), max_size=12))


@settings(max_examples=150, deadline=None)
@given(sequence_sets())
def test_streaming_labeler_matches_a_naive_trie(case):
    sequences = [tuple(label_ for label_, _ in seq) for seq in case]
    gaps = [[gap for _, gap in seq] for seq in case]
    assert streamed_labels(BulkDFSLabeler(), sequences, gaps) == \
        naive_labels(sequences, gaps, lambda node_count: 1)
    assert streamed_labels(DynamicLabeler(), sequences, gaps) == \
        naive_labels(sequences, gaps,
                     lambda node_count: MAX_RANGE // (2 * node_count + 2))
    # Without gaps (ViST) every node's gap is 0.
    assert streamed_labels(BulkDFSLabeler(), sequences, None) == \
        naive_labels(sequences, [[0] * len(seq) for seq in sequences],
                     lambda node_count: 1)
