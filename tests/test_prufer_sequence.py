"""Prufer sequence construction tests, anchored to the paper's examples."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_random_tree
from repro.prufer.sequence import extended_sequence, regular_sequence
from repro.xmlkit.tree import (DUMMY_TAG, Document, element,
                               extend_with_dummies, sequence_label, value)


class TestPaperExample1:
    """Example 1: the tree of Figure 2(a)."""

    def test_lps_matches_paper(self, fig2_doc):
        seq = regular_sequence(fig2_doc)
        assert " ".join(seq.lps) == "A C B C C B A C A E E E D A"

    def test_nps_matches_paper(self, fig2_doc):
        seq = regular_sequence(fig2_doc)
        assert list(seq.nps) == [15, 3, 7, 6, 6, 7, 15, 9, 15,
                                 13, 13, 13, 14, 15]

    def test_length_is_n_minus_one(self, fig2_doc):
        seq = regular_sequence(fig2_doc)
        assert len(seq) == fig2_doc.size - 1 == 14

    def test_leaf_list_contains_paper_leaves(self, fig2_doc):
        seq = regular_sequence(fig2_doc)
        leaves = set(seq.leaves)
        # Example 6 lists these leaves explicitly.
        for pair in [("D", 2), ("D", 4), ("E", 5), ("G", 10),
                     ("F", 11), ("F", 12)]:
            assert pair in leaves


class TestQueryExample2:
    """Example 2: the query twig of Figure 2(b)."""

    def test_query_sequences(self):
        root = element("A")
        b = element("B")
        b.append(element("C"))
        d = element("D")
        e = element("E")
        e.append(element("F"))
        d.append(e)
        root.append(b)
        root.append(d)
        seq = regular_sequence(Document(root))
        assert " ".join(seq.lps) == "B A E D A"
        assert list(seq.nps) == [2, 6, 4, 5, 6]

    def test_subsequence_of_data_lps(self, fig2_doc):
        """Theorem 1 on the paper's own pair: LPS(Q) <= LPS(T)."""
        data = regular_sequence(fig2_doc).lps
        query = ("B", "A", "E", "D", "A")
        position = 0
        for label in data:
            if position < len(query) and label == query[position]:
                position += 1
        assert position == len(query)


class TestLemma1:
    """The node deleted i-th is the node numbered i."""

    def test_nps_entry_is_parent_number(self):
        rng = random.Random(17)
        for _ in range(25):
            doc = Document(make_random_tree(rng))
            seq = regular_sequence(doc)
            for number, parent_number in enumerate(seq.nps, start=1):
                node = doc.node_by_postorder(number)
                assert node.parent.postorder == parent_number

    def test_parent_of_accessor(self):
        rng = random.Random(18)
        doc = Document(make_random_tree(rng))
        seq = regular_sequence(doc)
        for node in doc.nodes_in_postorder():
            if node.parent is None:
                assert seq.parent_of(node.postorder) == 0
            else:
                assert seq.parent_of(node.postorder) == \
                    node.parent.postorder


class TestRegularSequenceShape:
    def test_leaf_labels_absent_from_lps(self):
        root = element("a")
        root.append(element("uniqueleaf"))
        seq = regular_sequence(Document(root))
        assert "uniqueleaf" not in seq.lps

    def test_single_node_document(self):
        doc = Document(element("only"))
        seq = regular_sequence(doc)
        assert len(seq) == 0
        assert seq.leaves == (("only", 1),)

    def test_value_labels_marked(self):
        root = element("a")
        root.append(value("txt"))
        b = element("b")
        root.append(b)
        seq = regular_sequence(Document(root))
        assert seq.leaves[0][0] == sequence_label(value("txt"))


class TestExtendedSequence:
    def test_all_original_labels_present(self):
        rng = random.Random(19)
        for _ in range(15):
            doc = Document(make_random_tree(rng))
            seq = extended_sequence(doc)
            labels = set(seq.lps)
            for node in doc.nodes_in_postorder():
                assert sequence_label(node) in labels

    def test_dummy_never_a_label(self):
        rng = random.Random(20)
        doc = Document(make_random_tree(rng))
        seq = extended_sequence(doc)
        assert DUMMY_TAG not in seq.lps

    def test_length_grows_by_leaf_count(self):
        rng = random.Random(21)
        for _ in range(15):
            doc = Document(make_random_tree(rng))
            regular = regular_sequence(doc)
            extended = extended_sequence(doc)
            n_leaves = len(regular.leaves)
            assert len(extended) == len(regular) + n_leaves

    def test_extended_flag(self):
        doc = Document(element("a"))
        assert extended_sequence(doc).extended
        assert not regular_sequence(doc).extended


def reference_extended(doc):
    """The Extended-Prufer sequence the long way: copy the tree, hang a
    dummy under every leaf, renumber, sequence the copy."""
    return regular_sequence(Document(extend_with_dummies(doc.root),
                                     doc_id=doc.doc_id))


def assert_extended_matches_reference(doc):
    derived = extended_sequence(doc)
    reference = reference_extended(doc)
    assert derived.lps == reference.lps
    assert derived.nps == reference.nps
    assert derived.n_nodes == reference.n_nodes
    assert derived.leaves == reference.leaves
    assert derived.extended and not reference.extended


def shaped_tree(rng, shape):
    """A tree of one of the shapes the derivation must survive."""
    if shape == "random":
        return make_random_tree(rng, max_nodes=30, value_p=0.3)
    if shape == "single":
        return element(rng.choice("ab"))
    if shape == "chain":
        root = node = element("a")
        for depth in range(rng.randint(1, 200)):
            node = node.append(element("abc"[depth % 3]))
        if rng.random() < 0.5:
            node.append(value("v"))
        return root
    if shape == "fan":
        return element("r", *(value(f"v{i}") if rng.random() < 0.3
                              else make_random_tree(rng, max_nodes=2)
                              for i in range(rng.randint(1, 80))))
    # A leaf already tagged as a dummy gets none, as in the reference.
    return element("a", value(DUMMY_TAG), element("b", element(DUMMY_TAG)))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(("random", "single", "chain", "fan", "dummy")))
def test_extended_sequence_equals_tree_copy_reference(seed, shape):
    """Deriving the EP sequence from the document's own numbering gives
    the sequence of the copied, dummy-extended tree, field by field."""
    rng = random.Random(seed)
    doc = Document(shaped_tree(rng, shape), doc_id=seed)
    assert_extended_matches_reference(doc)
    # And the regular sequence read off the tree is still Lemma 1's.
    seq = regular_sequence(doc)
    nodes = doc.nodes_in_postorder()
    assert seq.nps == tuple(node.parent.postorder for node in nodes[:-1])
    assert seq.lps == tuple(sequence_label(node.parent)
                            for node in nodes[:-1])
    assert seq.leaves == tuple((sequence_label(node), node.postorder)
                               for node in nodes if node.is_leaf)


def test_extended_sequence_equals_reference_on_generators(
        tiny_dblp, tiny_swissprot, tiny_treebank):
    for corpus in (tiny_dblp, tiny_swissprot, tiny_treebank):
        for doc in corpus.documents:
            assert_extended_matches_reference(doc)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_theorem1_subgraph_subsequence(seed):
    """Theorem 1: a connected subtree's LPS is a subsequence of the
    tree's LPS (with matching labels)."""
    rng = random.Random(seed)
    doc = Document(make_random_tree(rng, max_nodes=20))

    # Pick a random connected subtree Q of the data tree.
    nodes = doc.nodes_in_postorder()
    subtree_root = rng.choice(nodes)
    chosen = {id(subtree_root)}
    frontier = [subtree_root]
    while frontier and len(chosen) < 8:
        node = frontier.pop(rng.randrange(len(frontier)))
        for child in node.children:
            if rng.random() < 0.6:
                chosen.add(id(child))
                frontier.append(child)

    def build_q(node):
        clone = element(node.tag) if not node.is_value else value(node.tag)
        for child in node.children:
            if id(child) in chosen:
                child_clone = build_q(child)
                child_clone.parent = clone
                clone.children.append(child_clone)
        return clone

    q_doc = Document(build_q(subtree_root))
    query_lps = regular_sequence(q_doc).lps
    data_lps = regular_sequence(doc).lps
    position = 0
    for label in data_lps:
        if position < len(query_lps) and label == query_lps[position]:
            position += 1
    assert position == len(query_lps), (
        "false dismissal: subtree LPS is not a subsequence")
