"""Construction of Labeled and Numbered Prufer sequences.

The paper's variant (Section 3.1) deletes nodes until a single node is
left, producing a sequence of length n-1 for a tree with n nodes.  With
postorder numbering, Lemma 1 makes construction trivial: the node deleted
i-th is the node numbered i, so the i-th sequence entry is simply the label
(LPS) or postorder number (NPS) of the *parent* of node i.

Two variants are produced:

- :func:`regular_sequence` -- the sequence of the tree as-is; leaf labels do
  not appear (the basis of RPIndex),
- :func:`extended_sequence` -- the sequence of the tree extended with a
  dummy child under every leaf (Section 5.6), so every original node's
  label appears (the basis of EPIndex).

Both read the document's own postorder numbering; neither copies the
tree.  The extended tree need not be built either: a dummy is its
leaf's first and only child, so in postorder it comes just before that
leaf, and every original node moves up by the number of dummies at or
before it -- the leaves numbered up to it.  By Lemma 1 the extended
sequence is therefore the regular one with, just ahead of each leaf's
own entry, one entry for the leaf's dummy: the leaf's label and
(extended) number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlkit.tree import DUMMY_TAG, sequence_label


@dataclass(frozen=True)
class PruferSequence:
    """The Prufer transform of one document (or query twig) tree.

    Attributes:
        lps: Labeled Prufer sequence -- parent labels, deletion order.
        nps: Numbered Prufer sequence -- parent postorder numbers.
        n_nodes: node count of the (possibly extended) tree.
        leaves: ``(label, postorder)`` of each leaf of the sequenced tree,
            stored for the leaf-refinement phase.
        extended: True when this is an Extended-Prufer sequence.
    """

    lps: tuple
    nps: tuple
    n_nodes: int
    leaves: tuple
    extended: bool

    def __len__(self):
        return len(self.lps)

    def parent_of(self, postorder_number):
        """Postorder number of the parent of ``postorder_number``.

        Exploits Lemma 1: the NPS entry at index ``i`` (1-based) is the
        parent of the node numbered ``i``.  The root has no parent and
        returns 0.
        """
        if postorder_number == self.n_nodes:
            return 0
        return self.nps[postorder_number - 1]


def regular_sequence(document):
    """Return the Regular-Prufer sequence of a numbered document."""
    nodes = document.nodes_in_postorder()
    labels = [sequence_label(node) for node in nodes]
    nps = tuple(node.parent.postorder for node in nodes[:-1])
    return PruferSequence(
        lps=tuple(labels[parent - 1] for parent in nps), nps=nps,
        n_nodes=len(nodes),
        leaves=tuple((labels[number - 1], number)
                     for number, node in enumerate(nodes, start=1)
                     if not node.children),
        extended=False)


def extended_sequence(document):
    """Return the Extended-Prufer sequence (dummy child under each leaf).

    Derived from the document's own numbering (see the module
    docstring): ``numbers[i]`` is the extended postorder number of the
    node numbered ``i``.  A leaf that already is a dummy gets no dummy,
    as in :func:`~repro.xmlkit.tree.extend_with_dummies`.
    """
    nodes = document.nodes_in_postorder()
    labels = [sequence_label(node) for node in nodes]
    numbers = [0]
    dummies = 0
    for number, node in enumerate(nodes, start=1):
        if not node.children and not node.is_dummy:
            dummies += 1
        numbers.append(number + dummies)
    lps = []
    nps = []
    leaves = []
    for number, node in enumerate(nodes, start=1):
        if not node.children:
            extended_number = numbers[number]
            if node.is_dummy:
                leaves.append((labels[number - 1], extended_number))
            else:   # its dummy, numbered just before it
                lps.append(labels[number - 1])
                nps.append(extended_number)
                leaves.append((DUMMY_TAG, extended_number - 1))
        parent = node.parent
        if parent is not None:
            lps.append(labels[parent.postorder - 1])
            nps.append(numbers[parent.postorder])
    return PruferSequence(lps=tuple(lps), nps=tuple(nps),
                          n_nodes=numbers[-1], leaves=tuple(leaves),
                          extended=True)
