"""Virtual trie and labeling tests (Section 5.2)."""

import random

import pytest

from repro.prix.index import _trie_entries
from repro.trie.labeling import (BulkDFSLabeler, DynamicLabeler,
                                 ScopeUnderflowError, _Scope)
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
    its parent's right boundary (the dynamic labeler hands the last
    carve the tail of the scope); left boundaries must be strictly
    inside.
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
        DynamicLabeler(max_range=2 ** 63, alpha=3).label(trie)
        check_containment(trie)

    def test_huge_range_never_underflows(self):
        rng = random.Random(3)
        sequences = [tuple(rng.choice("abcd")
                           for _ in range(rng.randint(1, 20)))
                     for _ in range(100)]
        trie = build_trie(sequences)
        labeler = DynamicLabeler(max_range=2 ** 63, alpha=4)
        labeler.label(trie)
        assert labeler.underflows == 0
        check_containment(trie)

    def test_small_range_underflows_and_recovers(self):
        rng = random.Random(4)
        sequences = [tuple(rng.choice("abcd")
                           for _ in range(rng.randint(8, 25)))
                     for _ in range(200)]
        trie = build_trie(sequences)
        labeler = DynamicLabeler(max_range=2 ** 16, alpha=0)
        labeler.label(trie)
        assert labeler.underflows >= 1
        assert labeler.rebuilds >= 1
        check_containment(trie)  # fallback still labels correctly

    def test_alpha_preallocation_reduces_underflows(self):
        """Ablation A3's core claim at unit scale: pre-allocating ranges
        for the frequent prefixes avoids underflows a pure dynamic
        scheme hits."""
        rng = random.Random(5)
        base = [tuple(rng.choice("ab") for _ in range(12))
                for _ in range(6)]
        sequences = [base[i % len(base)] for i in range(300)]
        trie = build_trie(sequences)

        tight = 2 ** 24
        no_prefix = DynamicLabeler(max_range=tight, alpha=0,
                                   fanout_guess=64)
        no_prefix.label(build_trie(sequences))
        with_prefix = DynamicLabeler(max_range=tight, alpha=6,
                                     fanout_guess=64)
        with_prefix.label(trie)
        assert with_prefix.underflows <= no_prefix.underflows

    def test_tiny_range_rejected(self):
        with pytest.raises(ValueError):
            DynamicLabeler(max_range=4)

    def test_scope_carve_underflow(self):
        scope = _Scope(1, 10)
        scope.carve(4)
        with pytest.raises(ScopeUnderflowError):
            scope.carve(100)
