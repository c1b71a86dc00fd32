"""Containment labeling of the virtual trie (Section 5.2.1).

Every trie node receives a range ``(left, right)`` such that a node's range
strictly contains the ranges of all its descendants; range queries on
``left`` then enumerate descendants, which is what Algorithm 1's
subsequence matching needs.

The trie is never built.  Its depth-first order, children in label order,
is the lexicographic order of the sequences: a prefix sorts before its
extensions and siblings sort by label.  So one stable sort of the
sequences and one streaming pass number it, stepping a counter on
entering and on leaving each node, and emit its index entries as they
go.  The two labelers differ only in the step:

- :class:`BulkDFSLabeler` steps by 1: exact, gap-free labels.  It is what
  the PRIX index uses when built from a static corpus.
- :class:`DynamicLabeler` steps by ``MAX_RANGE // (2 * node_count + 2)``,
  so the labels fill the paper's 8-byte range and every two consecutive
  labels leave the same gap.  A node's unallocated scope -- strictly
  between its last child's RightPos (or its own LeftPos) and its
  RightPos -- is one stride wide, and :mod:`repro.prix.incremental` carves the ranges of
  later inserted children out of it (Section 5.2.1).  The stride keeps
  the key order of the gap-free labels, so both labelers' B+-trees have
  the same shape.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

from repro.storage.codec import encode_int

#: The root scope of dynamic labels: the paper's 8-byte ranges.
MAX_RANGE = 2 ** 63


@dataclass
class LabeledTrie:
    """What one labeling pass reads off the virtual trie."""

    root_range: tuple
    symbol_entries: list    # sorted by key
    docid_entries: list     # sorted by key
    #: label -> its trie nodes (= Trie-Symbol entries, the filter's
    #: worst-case fan-out for it), in order of each label's lowest LeftPos
    label_counts: dict
    node_count: int
    path_count: int         # root-to-leaf paths
    max_path_sharing: int   # most documents ending at one node


def _sort(sequences):
    """Sequence indices in trie order, each sequence's common prefix
    length with the one before it, and the trie's node count."""
    order = sorted(range(len(sequences)), key=sequences.__getitem__)
    lcps = []
    node_count = 0
    prev = ()
    for i in order:
        seq = sequences[i]
        lcp = 0
        for a, b in zip(prev, seq):
            if a != b:
                break
            lcp += 1
        lcps.append(lcp)
        node_count += len(seq) - lcp
        prev = seq
    return order, lcps, node_count


def _label(sequences, doc_ids, symbols, docids, gaps, stride_of):
    """Number the trie in one pass over its sorted sequences, stepping
    by ``stride_of(node_count)``.

    A node is entered when a sequence first reaches it and left when
    the next one's common prefix is shorter than its depth; it keeps the
    largest gap of the sequences through it, its finer-grained MaxGap
    (Section 5.4).  Docid entries come out in key order, equal keys in
    document order; empty sequences (one-element documents under
    Regular-Prufer) end at the root, as in
    :func:`~repro.prix.incremental.insert_sequence`.
    """
    order, lcps, node_count = _sort(sequences)
    stride = stride_of(node_count)
    make_symbol = symbols.make_entry
    make_docid = docids.make_entry
    symbol_entries = []
    docid_entries = []
    counts = {}
    prefixes = {}
    lefts = [stride]        # open nodes' LeftPos, the root's first
    node_gaps = []          # open nodes' MaxGap, below the root
    counter = stride
    prev = ()
    paths = sharing = run = 0

    def close(depth):
        nonlocal counter
        for level in range(len(node_gaps), depth, -1):
            counter += stride
            left = lefts.pop()
            try:
                symbol_entries.append(make_symbol(
                    prefixes[prev[level - 1]], left, counter, level,
                    node_gaps.pop()))
            except struct.error:
                encode_int(left)    # out of key range: the ValueError
                raise

    for i, lcp in zip(order, lcps):
        seq = sequences[i]
        if lcp < len(prev):
            paths += 1          # prev ended at a leaf
            close(lcp)
        run = run + 1 if lcp == len(prev) == len(seq) else 1
        sharing = max(sharing, run)
        if gaps is None:
            node_gaps += [0] * (len(seq) - lcp)
        else:
            seq_gaps = gaps[i]
            node_gaps[:] = map(max, node_gaps, seq_gaps)
            node_gaps += seq_gaps[lcp:]
        for label in seq[lcp:]:
            counter += stride
            lefts.append(counter)
            if label in counts:
                counts[label] += 1
            else:
                counts[label] = 1
                prefixes[label] = symbols.label_prefix(label)
        docid_entries.append(make_docid(lefts[-1], doc_ids[i]))
        prev = seq
    close(0)
    symbol_entries.sort(key=operator.itemgetter(0))
    return LabeledTrie(
        root_range=(stride, counter + stride), symbol_entries=symbol_entries,
        docid_entries=docid_entries, label_counts=counts,
        node_count=node_count, path_count=paths + 1,
        max_path_sharing=sharing)


class BulkDFSLabeler:
    """Gap-free exact labels."""

    def label(self, sequences, doc_ids, symbols, docids, gaps=None):
        """Label the trie of ``sequences`` (``doc_ids[i]`` ends at
        ``sequences[i]``); return its :class:`LabeledTrie`.

        ``symbols`` makes the node entries: ``symbols.label_prefix(label)``
        once per label, then ``symbols.make_entry(prefix, left, right,
        level, node_gap)`` per node; ``docids.make_entry(left, doc_id)``
        makes the terminal entries.  ``gaps[i]``, when given, are
        ``sequences[i]``'s per-position parent spans.
        """
        return _label(sequences, doc_ids, symbols, docids, gaps,
                      lambda node_count: 1)


class DynamicLabeler:
    """Labels with insertion slack: the bulk numbering, strided to fill
    ``MAX_RANGE``."""

    def label(self, sequences, doc_ids, symbols, docids, gaps=None):
        """As :meth:`BulkDFSLabeler.label`, every label times the stride."""
        return _label(sequences, doc_ids, symbols, docids, gaps,
                      lambda node_count: MAX_RANGE // (2 * node_count + 2))
