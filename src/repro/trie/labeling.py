"""Containment labeling of the virtual trie (Section 5.2.1).

Every trie node receives a range ``(left, right)`` such that a node's range
strictly contains the ranges of all its descendants; range queries on
``left`` then enumerate descendants, which is what Algorithm 1's
subsequence matching needs.

Both labelers number the finished trie with one depth-first walk that
steps a counter on entering and on leaving each node; they differ only in
the step:

- :class:`BulkDFSLabeler` steps by 1: exact, gap-free labels.  It is what
  the PRIX index uses when built from a static corpus.
- :class:`DynamicLabeler` steps by ``MAX_RANGE // (2 * node_count + 2)``,
  so the labels fill the paper's 8-byte range and every two consecutive
  labels leave the same gap.  A node's unallocated scope -- from its last
  child's RightPos (or its own LeftPos) up to its RightPos -- is one
  stride wide, and :mod:`repro.prix.incremental` carves the ranges of
  later inserted children out of it (Section 5.2.1).  The stride keeps
  the key order of the gap-free labels, so both labelers' B+-trees have
  the same shape.
"""

from __future__ import annotations

#: The root scope of dynamic labels: the paper's 8-byte ranges.
MAX_RANGE = 2 ** 63


def _label_dfs(trie, stride):
    """Assign (left, right) to every node, stepping by ``stride``;
    return the root's range."""
    counter = 0

    # Iterative DFS with explicit enter/exit so deep tries are safe.
    stack = [(trie.root, False)]
    while stack:
        node, exiting = stack.pop()
        counter += stride
        if exiting:
            node.right = counter
            continue
        node.left = counter
        stack.append((node, True))
        for label in sorted(node.children, reverse=True):
            stack.append((node.children[label], False))
    return trie.root.left, trie.root.right


class BulkDFSLabeler:
    """Gap-free exact labels: one DFS over a finished trie."""

    def label(self, trie):
        """Assign (left, right) to every node; return the root's range."""
        return _label_dfs(trie, 1)


class DynamicLabeler:
    """Labels with insertion slack: the bulk DFS, strided to fill
    ``MAX_RANGE``."""

    def label(self, trie):
        """Assign (left, right) to every node; return the root's range."""
        return _label_dfs(trie, MAX_RANGE // (2 * trie.node_count + 2))
