"""Refinement phase tests, anchored to the paper's Examples 3-7."""

import pytest

from repro.prix.plan import build_plan
from repro.prix.refinement import DocView, refine
from repro.prufer.sequence import regular_sequence
from repro.query.twig import collapse
from repro.query.xpath import parse_xpath
from repro.xmlkit.tree import Document, element


def view_of(document, extended=False):
    seq = regular_sequence(document)
    nps = [0] + list(seq.nps) + [0]
    nps = [0] * (document.size + 1)
    labels = [None] * (document.size + 1)
    for child, parent in enumerate(seq.nps, start=1):
        nps[child] = parent
        labels[parent] = seq.lps[child - 1]
    for label, number in seq.leaves:
        labels[number] = label
    return DocView(document.doc_id, nps, labels, extended)


def plan_for(xpath, extended=False):
    return build_plan(collapse(parse_xpath(xpath)), extended=extended)


class TestDocView:
    def test_parents_and_labels(self, fig2_doc):
        view = view_of(fig2_doc)
        assert view.parent(7) == 15
        assert view.label(15) == "A"
        assert view.label(13) == "E"
        assert view.label(2) == "D"  # from the leaf list

    def test_children(self, fig2_doc):
        view = view_of(fig2_doc)
        # Tuples: a view is shared between queries and threads.
        assert view.children_of(13) == (10, 11, 12)
        assert view.children_of(15) == (1, 7, 9, 14)
        assert view.children_of(1) == ()

    def test_subtree_iteration(self, fig2_doc):
        view = view_of(fig2_doc)
        found = dict(view.iter_subtree_with_depth(14))
        assert found == {14: 0, 13: 1, 10: 2, 11: 2, 12: 2}

    def test_subtree_depth_bound(self, fig2_doc):
        view = view_of(fig2_doc)
        found = dict(view.iter_subtree_with_depth(14, max_depth=1))
        assert found == {14: 0, 13: 1}

    def test_is_element(self, fig2_doc):
        view = view_of(fig2_doc)
        assert view.is_element(15)


class TestPaperExample3:
    """Connectedness: S_A is rejected, S_B passes (Theorem 2)."""

    def test_disconnected_subsequence_rejected(self, fig2_doc):
        # S_A = C B C E D at positions (2, 3, 8, 10, 13):
        # its postorder number sequence is 3 7 9 13 14 and the nodes form
        # a disconnected graph (Figure 2(c)).
        view = view_of(fig2_doc)
        plan = plan_for("//x/a/b/c/d/e")  # any 6-node plain path
        # Craft a plan-like check by reusing refine() directly is not
        # possible with a mismatched plan; instead verify via the
        # documented counterexample positions using a path query whose
        # LPS is C B C E D -- i.e. data labels along the subsequence.
        # Here we check the *connectedness property itself*: position 3
        # (postorder 7) is a last occurrence, but NPS[7]=15 is not the
        # next event node.
        positions = (2, 3, 8, 10, 13)
        images = [view.nps[p] for p in positions]
        assert images == [3, 7, 9, 13, 14]
        # last occurrence of 7 at index 1, next position is 8 != 7's
        # requirement (the deletion of node 7 itself).
        assert positions[2] != images[1]

    def test_connected_subsequence_passes(self, fig2_doc):
        # S_B positions (2,3,7,8,9,10,13,14): numbers 3 7 15 9 15 13 14 15
        view = view_of(fig2_doc)
        positions = (2, 3, 7, 8, 9, 10, 13, 14)
        images = [view.nps[p] for p in positions]
        assert images == [3, 7, 15, 9, 15, 13, 14, 15]


class TestPaperExample6EndToEnd:
    """The full refinement of the paper's Q on T."""

    def test_figure2_query_accepted(self, fig2_doc):
        from repro.datasets import figure2_query
        view = view_of(fig2_doc)
        plan = build_plan(collapse(figure2_query()), extended=False)
        assert plan.qlps == ("B", "A", "E", "D", "A")
        # Example 6: LPS(Q) matches at positions (3, 7, 11, 13, 14).
        embeddings = refine(plan, view, (3, 7, 11, 13, 14))
        assert len(embeddings) == 1
        embedding = embeddings[0]
        # Leaves: C -> node 3, F -> node 11; internals B->7, E->13,
        # D->14, root A->15.
        assert embedding[1] == 3    # query node 1 (C leaf)
        assert embedding[3] == 11   # query node 3 (F leaf)
        assert embedding[2] == 7
        assert embedding[6] == 15

    def test_wrong_positions_rejected(self, fig2_doc):
        from repro.datasets import figure2_query
        view = view_of(fig2_doc)
        plan = build_plan(collapse(figure2_query()), extended=False)
        # Positions whose labels match but structure does not.
        assert refine(plan, view, (3, 7, 10, 13, 14)) == []


class TestGapConsistency:
    def test_example4_sequences_gap_consistent(self, fig2_doc):
        """Example 4's S1/S2 pair satisfies Definition 3."""
        n_s1 = [7, 15, 13, 13, 15]
        n_s2 = [2, 7, 6, 6, 7]
        for i in range(4):
            data_gap = n_s1[i] - n_s1[i + 1]
            query_gap = n_s2[i] - n_s2[i + 1]
            assert (data_gap == 0) == (query_gap == 0)
            assert data_gap * query_gap >= 0
            assert abs(query_gap) <= abs(data_gap)


class TestWildcardRefinement:
    """Example 7: //..C..A with a wildcard chain."""

    def test_chain_walk_accepts(self, fig2_doc):
        view = view_of(fig2_doc)
        # Query C//A anchored anywhere: C's chain to A spans 2 edges for
        # data node 3 (3 -> 7 -> 15).
        plan = build_plan(collapse(parse_xpath("//A//C/D")),
                          extended=False)
        # positions: D's deletion event under C=3 is position 2,
        # C closes at its own deletion (position 3? node 3 at position 3
        # would be the C itself) -- use the engine-level test instead:
        from repro.prix.index import PrixIndex
        index = PrixIndex.build([fig2_doc])
        matches = index.query(parse_xpath("//A//C/D"), variant="rp")
        images = {m.canonical for m in matches}
        # C/D pairs under an A ancestor: (3,2), (6,4) under roots 15;
        # also under the inner A (15 is root; node 9 C has child F only).
        assert len(matches) >= 2

    def test_star_exact_depth(self, fig2_doc):
        from repro.baselines.naive import naive_matches
        from repro.prix.index import PrixIndex
        index = PrixIndex.build([fig2_doc])
        # A/*/*/D: D at depth exactly 3 below A -- the B/C/D chains land
        # on leaves (D,2) and (D,4); no D sits at depth 2, so //A/*/D is
        # empty.  Both agree with the oracle.
        empty = index.query(parse_xpath("//A/*/D"), variant="rp")
        assert empty == []
        assert not naive_matches(fig2_doc, parse_xpath("//A/*/D"))
        matches = index.query(parse_xpath("//A/*/*/D"), variant="rp")
        got = {m.canonical for m in matches}
        want = naive_matches(fig2_doc, parse_xpath("//A/*/*/D"))
        assert got == want
        leaf_images = sorted(m.images[1][1] for m in matches)
        assert leaf_images == [2, 4]

    def test_double_slash_leaf(self, fig2_doc):
        from repro.prix.index import PrixIndex
        index = PrixIndex.build([fig2_doc])
        matches = index.query(parse_xpath("//B//D"), variant="rp")
        leaf_images = sorted(m.images[1][1] for m in matches)
        assert leaf_images == [2, 4]
