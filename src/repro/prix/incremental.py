"""Incremental document insertion (the dynamic labeling scheme at work).

Section 5.2.1's dynamic labeling exists so the virtual trie can grow
without relabeling: each trie node's range keeps unallocated *scope* from
which ranges for newly appearing children are carved.  This module walks
a new document's LPS down the disk-resident trie (via the Trie-Symbol
index), descending through existing nodes and carving ranges for new
ones; allocation state (each node's next free position) lives in a
dedicated B+-tree so inserts survive restarts.

When a carve no longer fits -- the *scope underflow* of Section 5.2.1 --
:class:`RebuildRequiredError` is raised; :meth:`PrixIndex.rebuilt`
reconstructs the documents from their stored sequences and builds a
fresh, compact index.
"""

from __future__ import annotations

import struct

from repro.prix.filtering import DocidIndex, TrieSymbolIndex
from repro.storage.codec import encode_int, encode_key

_ALLOC_VALUE = struct.Struct("<Q")

#: Share of the remaining scope granted to each newly carved child.
DEFAULT_INSERT_FANOUT = 8


class RebuildRequiredError(RuntimeError):
    """An insert ran out of scope; the index must be rebuilt."""


class AllocationTree:
    """Per-trie-node allocation state: node LeftPos -> next free id."""

    def __init__(self, bptree):
        self._tree = bptree

    @property
    def tree(self):
        """The underlying B+-tree."""
        return self._tree

    def get(self, left):
        """Next free id for the node at ``left``, or None."""
        value = self._tree.get(encode_int(left))
        if value is None:
            return None
        return _ALLOC_VALUE.unpack(value)[0]

    def set(self, left, next_free):
        """Record the node's next free id."""
        key = encode_int(left)
        value = self._tree.get(key)
        if value is not None:
            self._tree.delete(key)
        self._tree.insert(key, _ALLOC_VALUE.pack(next_free))

    @staticmethod
    def seed_entries(trie):
        """Initial (key, value) pairs for a freshly labeled trie.

        A node's next free id sits just past its last child's range (or
        at ``left + 1`` for leaves).
        """
        entries = []
        stack = [trie.root]
        while stack:
            node = stack.pop()
            children = list(node.children.values())
            next_free = max((child.right for child in children),
                            default=node.left + 1)
            entries.append((encode_int(node.left),
                            _ALLOC_VALUE.pack(next_free)))
            stack.extend(children)
        entries.sort(key=lambda pair: pair[0])
        return entries


def find_child(symbol_index, label, parent_left, parent_right,
               parent_level):
    """Locate the parent's child edge labeled ``label``, if present."""
    for left, right, level, gap in symbol_index.range_query_gaps(
            label, parent_left, parent_right):
        if level == parent_level + 1:
            return left, right, gap
    return None


def insert_sequence(variant, alloc, seq, doc_id):
    """Insert one document's LPS into a variant's virtual trie.

    Returns the number of new trie nodes created.  Raises
    :class:`RebuildRequiredError` on scope underflow (the caller decides
    whether to rebuild).  Existing nodes' finer-grained MaxGaps are
    widened when the new document's parent spans exceed them.
    """
    from repro.prufer.maxgap import position_gaps

    symbol_index = variant.symbol_index
    cur_left, cur_right = variant.root_range
    cur_level = 0
    new_nodes = 0
    gaps = position_gaps(seq)

    for position, label in enumerate(seq.lps):
        doc_gap = gaps[position]
        child = find_child(symbol_index, label, cur_left, cur_right,
                           cur_level)
        if child is not None:
            child_left, child_right, stored_gap = child
            if doc_gap > stored_gap:
                old_key, _ = TrieSymbolIndex.make_entry(
                    label, child_left, child_right, cur_level + 1)
                symbol_index.tree.delete(old_key)
                new_key, new_value = TrieSymbolIndex.make_entry(
                    label, child_left, child_right, cur_level + 1,
                    doc_gap)
                symbol_index.tree.insert(new_key, new_value)
            cur_left, cur_right = child_left, child_right
        else:
            next_free = alloc.get(cur_left)
            if next_free is None:
                next_free = cur_left + 1
            remaining = cur_right - next_free
            # The new child must hold the whole remaining chain of this
            # sequence (each deeper node consumes at least 2 ids), so
            # size the carve by the known tail length rather than only a
            # geometric share -- a pure remaining/fanout split shrinks
            # too fast for long (e.g. Extended-Prufer) sequences.
            tail = len(seq.lps) - position
            needed = 4 * tail + 8
            share = max(remaining // DEFAULT_INSERT_FANOUT, needed)
            if share > remaining:
                share = remaining
            if share < needed or next_free + share > cur_right:
                raise RebuildRequiredError(
                    f"scope underflow inserting doc {doc_id}: node at "
                    f"{cur_left} has {remaining} ids left, needs "
                    f"{needed}")
            child_left = next_free
            child_right = next_free + share
            alloc.set(cur_left, child_right)
            alloc.set(child_left, child_left + 1)
            key, value = TrieSymbolIndex.make_entry(
                label, child_left, child_right, cur_level + 1, doc_gap)
            symbol_index.tree.insert(key, value)
            variant.label_counts[label] = \
                variant.pending["label_counts"][label] = \
                variant.label_counts.get(label, 0) + 1
            new_nodes += 1
            cur_left, cur_right = child_left, child_right
        cur_level += 1

    doc_key, doc_value = DocidIndex.make_entry(cur_left, doc_id)
    variant.docid_index.tree.insert(doc_key, doc_value)
    return new_nodes
