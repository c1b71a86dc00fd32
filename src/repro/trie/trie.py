"""In-memory trie over Labeled Prufer sequences.

Only the LPS's themselves are inserted (never their suffixes); Section 5.2
notes this suffices because subsequence matching is done with range queries
over the Trie-Symbol indexes.  Sharing of root-to-leaf paths across
documents with similar structure is exactly the effect the paper credits
for PRIX's small search space on DBLP (Section 6.4.2).
"""

from __future__ import annotations


class TrieNode:
    """One trie node: the target of an edge labeled ``label``."""

    __slots__ = ("label", "children", "doc_ids", "level", "left", "right",
                 "node_gap")

    def __init__(self, label, level):
        self.label = label
        self.children = {}
        #: Documents whose LPS ends exactly at this node.
        self.doc_ids = []
        #: Depth in the trie == position in the LPS (1-based).
        self.level = level
        self.left = 0
        self.right = 0
        #: Finer-grained MaxGap (Section 5.4): the largest first-to-last
        #: child span of this occurrence's parent node, over the
        #: documents passing through this trie node.
        self.node_gap = 0

    def __repr__(self):
        return (f"<TrieNode {self.label!r} level={self.level} "
                f"range=({self.left},{self.right})>")


class SequenceTrie:
    """A trie of label sequences with per-node document terminals."""

    def __init__(self):
        self.root = TrieNode(label=None, level=0)
        self.sequence_count = 0
        self.node_count = 0

    def insert(self, labels, doc_id, gaps=None):
        """Insert one LPS; record ``doc_id`` at its terminal node.

        ``gaps``, when given, carries the document's per-position parent
        spans; each is merged into the corresponding node's finer-grained
        MaxGap (Section 5.4).
        """
        node = self.root
        for position, label in enumerate(labels):
            child = node.children.get(label)
            if child is None:
                child = TrieNode(label, node.level + 1)
                node.children[label] = child
                self.node_count += 1
            node = child
            if gaps is not None and gaps[position] > node.node_gap:
                node.node_gap = gaps[position]
        node.doc_ids.append(doc_id)
        self.sequence_count += 1
        return node

    def iter_nodes(self):
        """Yield every node except the root, in DFS (label-sorted) order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                yield node
            for label in sorted(node.children, reverse=True):
                stack.append(node.children[label])
