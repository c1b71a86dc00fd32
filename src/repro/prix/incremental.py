"""Incremental document insertion (the dynamic labeling scheme at work).

Section 5.2.1's dynamic labeling exists so the virtual trie can grow
without relabeling: each trie node's range keeps unallocated *scope* from
which ranges for newly appearing children are carved.  This module walks
a new document's LPS down the disk-resident trie (via the Trie-Symbol
index), descending through existing nodes and carving ranges for new
ones.  A node's unallocated scope starts at its last child's RightPos,
which the Trie-Symbol index already stores, so :func:`next_free_id`
derives it where a carve needs it and no allocation state is kept.

Labels that leave no slack (:func:`leaves_slack`: the bulk labeler's,
or those of a file saved while a dynamic build could still fall back to
them) refuse at the first new node.  When a carve no longer fits -- the
*scope underflow* of Section 5.2.1 -- :class:`RebuildRequiredError` is
raised; :meth:`PrixIndex.rebuilt` reconstructs the documents from their
stored sequences and builds a fresh, compact index.
"""

from __future__ import annotations

from repro.prix.filtering import DocidIndex, TrieSymbolIndex

#: Share of the remaining scope granted to each newly carved child.
DEFAULT_INSERT_FANOUT = 8


class RebuildRequiredError(RuntimeError):
    """An insert ran out of scope; the index must be rebuilt."""


def leaves_slack(labeler, trie_stats):
    """Whether a variant's labels leave insertion slack: the dynamic
    labeler assigned them, and (in files saved before it always kept
    its slack) did not fall back to gap-free bulk labels
    (``trie_stats.rebuilds``)."""
    return labeler == "dynamic" and not trie_stats.rebuilds


def next_free_id(variant, left, right, level):
    """The first id of the node ``(left, right)``'s unallocated scope:
    its last child's RightPos, or ``left + 1`` for a leaf.

    The children are the level+1 entries inside the range; one range
    query per label finds them all.
    """
    next_free = left + 1
    for label in variant.label_counts:
        for _, child_right, child_level, _ in \
                variant.symbol_index.range_query_gaps(label, left, right):
            if child_level == level + 1 and child_right > next_free:
                next_free = child_right
    return next_free


def insert_sequence(variant, seq, gaps, doc_id, slack):
    """Insert one document's LPS into a variant's virtual trie.

    ``gaps`` is the sequence's
    :func:`~repro.prufer.maxgap.position_gaps`.

    Returns the number of new trie nodes created.  Raises
    :class:`RebuildRequiredError` on scope underflow (the caller decides
    whether to rebuild), at the first new node if ``slack``
    (:func:`leaves_slack`) is false.  Existing nodes' finer-grained
    MaxGaps are widened when the new document's parent spans exceed
    them.

    The walk's child lookups resume from fingers
    (:meth:`TrieSymbolIndex.child`), dropped after a gap widening
    writes to the Trie-Symbol tree.  Below the first new node there is
    nothing to look up, so a carve ends the lookups.
    """
    symbol_index = variant.symbol_index
    cur_left, cur_right = variant.root_range
    cur_level = 0
    new_nodes = 0
    fingers = {}

    for position, label in enumerate(seq.lps):
        doc_gap = gaps[position]
        child = None if new_nodes else symbol_index.child(
            label, cur_left, cur_right, cur_level, fingers)
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
                fingers.clear()
            cur_left, cur_right = child_left, child_right
        else:
            if not slack:
                raise RebuildRequiredError(
                    f"scope underflow inserting doc {doc_id}: the "
                    f"{variant.name} labels are gap-free")
            if new_nodes:
                next_free = cur_left + 1    # carved by this insert
            else:
                next_free = next_free_id(variant, cur_left, cur_right,
                                         cur_level)
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
