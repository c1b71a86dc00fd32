"""Containment labeling of the virtual trie (Section 5.2.1).

Every trie node receives a range ``(left, right)`` such that a node's range
strictly contains the ranges of all its descendants; range queries on
``left`` then enumerate descendants, which is what Algorithm 1's
subsequence matching needs.

Two labelers are provided:

- :class:`BulkDFSLabeler` assigns exact, gap-free labels with one DFS over
  the complete trie.  It is what the PRIX index uses when built from a
  static corpus.
- :class:`DynamicLabeler` reproduces the paper's dynamic scheme: ranges
  are handed out as sequences arrive, with the range of each node carved
  out of its parent's unallocated scope.  Long sequences and large
  alphabets can exhaust a scope (*scope underflow*); the paper mitigates
  this by pre-allocating ranges for an in-memory trie of the sequences'
  length-``alpha`` prefixes, sized by the frequency and length of the
  sequences that share each prefix.  Underflows are counted and surface as
  :class:`ScopeUnderflowError` so the ablation benchmark can measure the
  effect of ``alpha`` directly.
"""

from __future__ import annotations


class ScopeUnderflowError(RuntimeError):
    """A dynamic-label allocation ran out of scope (Section 5.2.1)."""


class BulkDFSLabeler:
    """Gap-free exact labels: one DFS over a finished trie."""

    def label(self, trie):
        """Assign (left, right) to every node; return the root's range."""
        counter = 0

        # Iterative DFS with explicit enter/exit so deep tries are safe.
        stack = [(trie.root, False)]
        while stack:
            node, exiting = stack.pop()
            counter += 1
            if exiting:
                node.right = counter
                continue
            node.left = counter
            stack.append((node, True))
            for label in sorted(node.children, reverse=True):
                stack.append((node.children[label], False))
        return trie.root.left, trie.root.right


class _Scope:
    """Allocation state for one trie node under the dynamic scheme."""

    __slots__ = ("left", "right", "next_free")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.next_free = left + 1

    def carve(self, size):
        """Allocate a child scope of ``size`` ids; may underflow."""
        if self.next_free + size > self.right:
            raise ScopeUnderflowError(
                f"need {size} ids but only "
                f"{self.right - self.next_free} remain")
        child = _Scope(self.next_free, self.next_free + size)
        self.next_free += size
        return child


class DynamicLabeler:
    """Paper-faithful dynamic labeling with alpha-prefix pre-allocation.

    Args:
        max_range: the root scope ``(1, max_range)``; the paper uses 8-byte
            ranges, i.e. ``2**63``.
        alpha: length of the LPS prefixes whose trie nodes get ranges
            pre-allocated by frequency/length (``0`` disables
            pre-allocation and makes underflows most likely).
        fanout_guess: how many children a non-pre-allocated node is assumed
            to eventually have; each new child receives
            ``remaining_scope / fanout_guess`` ids.
    """

    def __init__(self, max_range=2 ** 63, alpha=4, fanout_guess=8,
                 min_share=16):
        if max_range < 16:
            raise ValueError("max_range too small to label anything")
        self.max_range = max_range
        self.alpha = alpha
        self.fanout_guess = fanout_guess
        #: Smallest range carved for any child; leaves insertion slack so
        #: the trie can grow in place (incremental inserts, Section 5.2.1).
        self.min_share = max(min_share, 2)
        self.underflows = 0
        self.rebuilds = 0
        #: Nodes labeled before the first underflow (coverage metric for
        #: the alpha ablation: pre-allocation pushes the failure deeper).
        self.labeled_before_underflow = 0

    def label(self, trie):
        """Label the finished :class:`SequenceTrie` ``trie``; on
        unrecoverable underflow fall back to bulk DFS.

        Returns the root's range.
        """
        weights = self._prefix_weights(trie)
        try:
            return self._assign(trie, weights)
        except ScopeUnderflowError:
            self.underflows += 1
            self.rebuilds += 1
            return BulkDFSLabeler().label(trie)

    def _prefix_weights(self, trie):
        """Weight of each node: total residual sequence length through it.

        Mirrors the paper: a pre-allocated prefix node's range is sized by
        the *frequency* and *length* of the sequences sharing that prefix.
        """
        weights = {}
        # Post-order accumulation without recursion (LPS's can be long).
        order = []
        stack = [trie.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children.values())
        for node in reversed(order):
            weight = 1 + len(node.doc_ids)
            for child in node.children.values():
                weight += weights[id(child)]
            weights[id(node)] = weight
        return weights

    def _assign(self, trie, weights):
        root_scope = _Scope(1, self.max_range)
        trie.root.left = root_scope.left
        trie.root.right = root_scope.right
        self.labeled_before_underflow = 0

        stack = [(trie.root, root_scope)]
        while stack:
            node, scope = stack.pop()
            children = [node.children[label]
                        for label in sorted(node.children)]
            if not children:
                continue
            in_prefix = node.level < self.alpha
            if in_prefix:
                # Pre-allocation: split *half* the scope proportionally to
                # the weight of each child subtree; the other half stays
                # unallocated for children that appear later.
                available = (scope.right - scope.next_free) // 2
                total_weight = sum(weights[id(c)] for c in children)
                for child in children:
                    share = max(
                        self.min_share,
                        2 * weights[id(child)],
                        available * weights[id(child)] // max(total_weight, 1),
                    )
                    child_scope = scope.carve(share)
                    child.left = child_scope.left
                    child.right = child_scope.right
                    self.labeled_before_underflow += 1
                    stack.append((child, child_scope))
            else:
                # Dynamic allocation: every child gets an equal slice of
                # the scope that remains when it first appears.
                for child in children:
                    remaining = scope.right - scope.next_free
                    share = max(remaining // self.fanout_guess,
                                self.min_share)
                    child_scope = scope.carve(share)
                    child.left = child_scope.left
                    child.right = child_scope.right
                    self.labeled_before_underflow += 1
                    stack.append((child, child_scope))
        return trie.root.left, trie.root.right
