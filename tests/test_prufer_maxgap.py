"""MaxGap metric tests (Section 5.4)."""

import random

from helpers import make_random_tree
from repro.prufer.maxgap import MaxGapTable, compute_maxgap, position_gaps
from repro.prufer.sequence import regular_sequence
from repro.prix.index import _merge_maxgap
from repro.xmlkit.tree import Document, element


def paper_figure5_trees():
    """Trees P and Q of Figure 5 (reconstructed to match the text).

    In P the children of the A-root span postorder 8..14 (gap 6); in Q
    they span 1..3 (gap 2); MaxGap(A, {P, Q}) = 6.  In P the children of
    the C-node span 10..13 (gap 3).
    """
    # Tree P: root A whose first/last children have postorder 8 and 14,
    # and a C node whose children span 10..13.
    p_root = element("A")
    left = element("B")          # subtree of 7 nodes -> child B is #8
    node = left
    for _ in range(7):
        node = node.append(element("X"))
    p_root.append(left)          # B subtree: postorders 1..8
    c_node = element("C")        # children at 9+1=10 .. 13
    for _ in range(4):
        c_node.append(element("Y"))
    p_root.append(element("Z"))  # postorder 9
    p_root.append(c_node)        # Y's at 10..13, C at 14? -- adjust below
    p_doc = Document(p_root)

    q_root = element("A")
    q_root.append(element("B"))
    q_root.append(element("C"))
    q_root.append(element("D"))
    q_doc = Document(q_root)
    return p_doc, q_doc


class TestMaxGapComputation:
    def test_single_children_give_zero(self):
        root = element("a")
        b = root.append(element("b"))
        b.append(element("c"))
        table = compute_maxgap([Document(root)])
        assert table.get("a") == 0
        assert table.get("b") == 0

    def test_sibling_span(self):
        root = element("a")
        b = element("b")
        b.append(element("x"))
        b.append(element("y"))
        root.append(b)
        root.append(element("z"))
        doc = Document(root)
        # b's children are postorder 1 and 2 -> span 1.
        # a's children are postorder 3 (b) and 4 (z) -> span 1.
        table = compute_maxgap([doc])
        assert table.get("b") == 1
        assert table.get("a") == 1

    def test_max_over_collection(self):
        doc_p, doc_q = paper_figure5_trees()
        table = compute_maxgap([doc_p, doc_q])
        a_span_p = (doc_p.root.children[-1].postorder
                    - doc_p.root.children[0].postorder)
        a_span_q = (doc_q.root.children[-1].postorder
                    - doc_q.root.children[0].postorder)
        assert table.get("A") == max(a_span_p, a_span_q)

    def test_unknown_label_defaults_to_zero(self):
        assert MaxGapTable().get("nope") == 0

    def test_merge_span_keeps_maximum(self):
        table = MaxGapTable()
        table.merge_span("x", 3)
        table.merge_span("x", 1)
        assert table.get("x") == 3


class TestSequenceDerivedMaxGap:
    def test_matches_tree_derived(self):
        """_merge_maxgap (from NPS alone) agrees with compute_maxgap
        (from the tree) -- Lemma 1 makes them equivalent."""
        rng = random.Random(55)
        for _ in range(30):
            doc = Document(make_random_tree(rng, max_nodes=30))
            from_tree = compute_maxgap([doc])
            from_seq = MaxGapTable()
            seq = regular_sequence(doc)
            _merge_maxgap(from_seq, seq.lps, position_gaps(seq))
            assert from_tree.as_dict() == from_seq.as_dict()
