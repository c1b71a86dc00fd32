"""Filtering by subsequence matching (Section 5.3, Algorithm 1).

Subsequence occurrences of LPS(Q) are found by recursive range queries
over the Trie-Symbol index: matching the i-th query label inside the trie
range of the (i-1)-th match enumerates exactly the descendants carrying
that label.  When a full match is found, the Docid index yields every
document whose LPS terminates inside the final node's range.

The optional MaxGap pruning (Section 5.4, Theorem 4) discards descendants
whose level gap exceeds the upper bound for the adjacent query labels'
relationship; :mod:`repro.prix.plan` pre-classifies which pairs may be
pruned safely.

Section 5.7 runs this once per branch arrangement.  The matcher walks
one plan: the twig's own, or for an unordered twig of several
arrangements one root-to-leaf path's
(:func:`repro.prix.matcher.filter_path`).  Within the walk every
(level, trie node) state is solved once (:func:`find_subsequences`);
the paper's per-walk work is still what :class:`FilterStats` reports.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.prix.plan import REL_ANCESTOR, REL_CHILD, REL_SIBLING
from repro.storage.bptree import NO_PAGE
from repro.storage.codec import (encode_int, encode_key, int_key_prefix,
                                 pack_key_int)

_POS_VALUE = struct.Struct("<QII")  # (RightPos, Level, node MaxGap)
_DOC_VALUE = struct.Struct("<I")    # document id

#: The largest document id a Docid-index value holds.
MAX_DOC_ID = 2 ** 32 - 1

#: Cap for the per-node MaxGap stored in index entries.
_GAP_CAP = 2 ** 32 - 1


@dataclass
class FilterStats:
    """Work counters for one filtering pass (drives the experiment plots).

    Two families.  ``range_queries``, ``nodes_visited``, ``candidates``
    and ``pruned_by_maxgap`` are *logical*: what Algorithm 1 run from the
    root does, as the paper counts it -- a sub-walk
    replayed from the state table counts in full every time.
    ``probes_issued`` is the Trie-Symbol B+-tree descents actually made,
    one per distinct state, and what ``max_range_queries`` is charged.

    A query's counters are not per arrangement for an unordered twig of
    several: the trie walk then filters one root-to-leaf path, and the
    in-document check of every arrangement inside that path's documents
    adds its ``nodes_visited``, ``candidates`` and ``pruned_by_maxgap``
    (as the document-at-a-time fallback's check does).
    """

    range_queries: int = 0
    nodes_visited: int = 0
    candidates: int = 0
    pruned_by_maxgap: int = 0
    probes_issued: int = 0

    def merge(self, other):
        """Accumulate another pass's counters into this one."""
        self.range_queries += other.range_queries
        self.nodes_visited += other.nodes_visited
        self.candidates += other.candidates
        self.pruned_by_maxgap += other.pruned_by_maxgap
        self.probes_issued += other.probes_issued


class TrieSymbolIndex:
    """The Trie-Symbol index: one composite-key B+-tree.

    The paper builds one B+-tree per element tag; storing all tags in one
    tree keyed by ``(label, LeftPos)`` is I/O-equivalent (each range query
    touches the same leaf pages) without burning a page per distinct label,
    which matters once Extended-Prufer sequences put every distinct value
    string into the key space.

    Key layout (:func:`~repro.storage.codec.encode_key`)::

        STR_MARK  label (UTF-8, 0x00 escaped)  00 00  INT_MARK  LeftPos u64be

    Everything up to and including ``INT_MARK`` is fixed per label
    (:meth:`label_prefix`), so a probe's two bounds are that prefix plus
    one 8-byte pack each, and ``LeftPos`` is a key's last 8 bytes.
    """

    def __init__(self, bptree):
        self._tree = bptree

    @property
    def tree(self):
        return self._tree

    @staticmethod
    def label_prefix(label):
        """The key bytes shared by every entry of ``label``.

        A probe handle: pass it to :meth:`range_query_gaps` in place of
        the label to encode the label once for many probes.
        """
        return int_key_prefix(label)

    def range_query_full(self, label, lo, hi):
        """Yield ``(left, right, level)`` strictly inside ``(lo, hi)``."""
        for left, right, level, _ in self.range_query_gaps(label, lo, hi):
            yield left, right, level

    def range_query_gaps(self, label, lo, hi, finger=None):
        """Yield ``(left, right, level, node_maxgap)`` inside ``(lo, hi)``.

        ``label`` is the label or its :meth:`label_prefix`.
        ``node_maxgap`` is the finer-grained MaxGap of Section 5.4's
        closing remark: the largest first-to-last child span of this
        occurrence's parent node, over the documents whose sequences pass
        through this trie node only.

        ``finger`` is None or a query's one-item list holding the leaf
        its previous probe of this tree landed on (or None): the probe
        seeks from it (:meth:`~repro.storage.bptree.BPlusTree.seek`) and
        leaves its own landing leaf there -- never a leaf further along
        the chain, whose parent this query may not have read.
        """
        prefix = label if isinstance(label, bytes) else int_key_prefix(label)
        left_at = len(prefix)
        unpack = _POS_VALUE.unpack
        for node, start, stop in self._tree.leaf_slices(
                prefix + pack_key_int(lo + 1), prefix + pack_key_int(hi),
                near=None if finger is None else finger[0]):
            if finger is not None:
                finger[0] = node    # the first slice is the landing leaf
                finger = None
            keys = node.keys
            values = node.values
            for idx in range(start, stop):
                right, level, gap = unpack(values[idx])
                yield (int.from_bytes(keys[idx][left_at:], "big"), right,
                       level, gap)

    def child(self, label, left, right, level, fingers):
        """The child of the trie node ``(left, right)`` at ``level`` whose
        edge is labeled ``label``: its ``(left, right, node_maxgap)``, or
        None.

        ``fingers`` belongs to one walk down a known path and lives as
        long as the walk: per label, its :meth:`label_prefix` and the
        leaf that label's last lookup ended on, from which the next one
        resumes (:meth:`~repro.storage.bptree.BPlusTree.seek`) instead of
        descending from the root.  A walk that writes to this tree must
        empty it.
        """
        prefix, near = fingers.get(label) or (int_key_prefix(label), None)
        found = None
        # The loop leaves ``near`` at the last leaf it read.
        for near, start, stop in self._tree.leaf_slices(
                prefix + pack_key_int(left + 1), prefix + pack_key_int(right),
                near=near):
            for idx in range(start, stop):
                child_right, child_level, gap = _POS_VALUE.unpack(
                    near.values[idx])
                if child_level == level + 1:
                    found = (int.from_bytes(near.keys[idx][len(prefix):],
                                            "big"), child_right, gap)
                    break
            if found:
                break
        fingers[label] = prefix, near
        return found

    @staticmethod
    def make_entry(label, left, right, level, node_maxgap=0):
        """Build the ``(key, value)`` pair for one trie node occurrence.

        ``label`` is the label or its :meth:`label_prefix`; a build
        encodes each label once.  The label's ``left`` is range-checked
        (``ValueError``), the prefix's only by its 8-byte pack.
        """
        key = (label + pack_key_int(left) if isinstance(label, bytes)
               else encode_key(label, left))
        return key, _POS_VALUE.pack(right, level, min(node_maxgap, _GAP_CAP))


class DocidIndex:
    """Docid index: LeftPos of each LPS terminal node -> document ids."""

    def __init__(self, bptree):
        self._tree = bptree

    @property
    def tree(self):
        return self._tree

    def documents_in(self, lo, hi, finger=None):
        """Document ids whose LPS terminates in the closed range [lo, hi];
        ``finger`` as in :meth:`TrieSymbolIndex.range_query_gaps`."""
        unpack = _DOC_VALUE.unpack
        docs = []
        for node, start, stop in self._tree.leaf_slices(
                encode_int(lo), encode_int(hi), True,
                None if finger is None else finger[0]):
            if finger is not None:
                finger[0] = node    # the first slice is the landing leaf
                finger = None
            docs += [unpack(value)[0] for value in node.values[start:stop]]
        return docs

    def fits_one_leaf(self, lo, hi, near=None):
        """``(fits, leaf)``: whether the closed range [lo, hi] ends in
        the leaf it starts in, and that leaf -- a finger for the next
        call and for :meth:`entry_of`
        (:meth:`~repro.storage.bptree.BPlusTree.seek`)."""
        leaf, start = self._tree.seek(encode_int(lo), near)
        keys = leaf.keys
        return (leaf.next_leaf == NO_PAGE
                or (start < len(keys) and bisect_right(
                    keys, encode_int(hi), start) < len(keys)),
                leaf)

    def entry_of(self, doc_id, lo, hi, near=None):
        """The ``(key, value)`` entry of ``doc_id`` among those in the
        closed range [lo, hi], or None; the scan starts from the finger
        ``near`` when that leaf holds ``lo``."""
        value = _DOC_VALUE.pack(doc_id)
        for leaf, start, stop in self._tree.leaf_slices(
                encode_int(lo), encode_int(hi), True, near):
            try:
                idx = leaf.values.index(value, start, stop)
            except ValueError:
                continue
            return leaf.keys[idx], value
        return None

    @staticmethod
    def make_entry(left, doc_id):
        return encode_int(left), _DOC_VALUE.pack(doc_id)


#: Theorem 4 as one comparison: a pair of the given relationship can be
#: a match only if ``gap <= max_gap + slack`` (REL_UNPRUNABLE: always).
_MAXGAP_SLACK = {REL_SIBLING: 0, REL_CHILD: 1, REL_ANCESTOR: -1}


def _maxgap_admits(kind, gap, max_gap):
    """Apply Theorem 4: return False when the pair cannot be a match."""
    slack = _MAXGAP_SLACK.get(kind)
    return slack is None or gap <= max_gap + slack


def find_subsequences(plan, symbol_index, docid_index, root_range,
                      maxgap_table=None, stats=None, granularity="label",
                      budget=None):
    """Run Algorithm 1 for one plan: ``(results, stats)``.

    ``results`` holds one ``(doc_ids, positions)`` pair per trie path
    spelling a subsequence occurrence of the plan's LPS(Q) that at least
    one document's LPS terminates under: the ids of those documents and
    the matched trie levels (= LPS positions), in depth-first order.

    What the walk does below a matched trie node depends only on that
    node (its range, level and MaxGap bound) and on the labels and
    relationships still to match, never on how the node was reached, so
    each *state* -- (level, ``LeftPos`` of the node matched above it) --
    is probed and solved once and replayed wherever it recurs (DESIGN.md,
    "Cost of one filter pass").

    ``stats`` is the :class:`FilterStats` passed in (or a fresh one),
    also brought up to date when the pass is cut short by the budget:
    the four logical counters then read what the plain walk would have
    counted on reaching the same point.

    Args:
        plan: the :class:`~repro.prix.plan.QueryPlan` to filter.
        symbol_index: the :class:`TrieSymbolIndex`.
        docid_index: the :class:`DocidIndex`.
        root_range: the virtual-trie root's ``(left, right)`` range.
        maxgap_table: a :class:`~repro.prufer.maxgap.MaxGapTable`; pass
            None to disable the Theorem 4 pruning (ablation A1).
        granularity: ``"label"`` bounds gaps by the label's collection-
            wide MaxGap; ``"node"`` uses the matched trie node's own
            stored MaxGap (Section 5.4's finer-grained variant), which
            bounds over the documents passing through that node only and
            therefore prunes at least as hard.
        stats: optional :class:`FilterStats` to accumulate work counters.
        budget: optional :class:`~repro.prix.budget.BudgetMeter`; every
            issued range query and every trie node read is a
            cancellation point.  Exhaustion here raises (it cannot
            degrade: an incomplete filter pass may have dismissed true
            matches).
    """
    if stats is None:
        stats = FilterStats()
    per_node = granularity == "node"
    pruning = maxgap_table is not None
    probe = symbol_index.range_query_gaps
    documents_in = docid_index.documents_in
    metered = budget is not None
    root_left, root_right = root_range
    qlps = plan.qlps
    last = len(qlps) - 1
    # Per-level invariants.  Level i probes label qlps[i] inside the node
    # matched at level i - 1, whose bound (its own stored MaxGap or the
    # label's collection-wide one) limits the level gap per Theorem 4.
    handles = [symbol_index.label_prefix(label) for label in qlps]
    slacks = (None,) + tuple(
        _MAXGAP_SLACK.get(kind) if pruning else None
        for kind in plan.rel_kinds)
    label_bounds = [maxgap_table.get(label) if pruning else 0
                    for label in qlps[:last]]
    # belows[i]: LeftPos of a node matched at level i -> (range queries,
    # nodes, candidates, pruned, hits) of the walk below it, the solved
    # states of level i + 1 (None at the last level).  ``hits`` is a
    # tuple of ``(level, hits one level down)`` per row that led to a
    # candidate, of ``(level, doc ids)`` at the last level.
    belows = [{} for _ in qlps[1:]] + [None]
    # limits[i]: the highest level Theorem 4 admits at level i under the
    # node matched at i - 1 (None: no bound applies).
    limits = [None] * (last + 1)
    rows = [None] * (last + 1)  # rows[i]: probe, part consumed
    # found[i]: the hits of the state open at level i, so far.
    found = [[] for _ in qlps]
    # fingers[i]: the leaf level i's last probe landed on.  A level's
    # label is fixed and the walk probes it in increasing LeftPos, as it
    # does the Docid index at the last level.
    fingers = [[None] for _ in qlps]
    docid_finger = [None]
    # opened[i]: the counts when level i's probe was issued, and the
    # level and LeftPos of the node it was issued inside.
    opened = [None] * (last + 1)
    # Logical counts so far: a replayed state adds its stored counts, so
    # at any moment these are what the plain walk has counted.
    nv = cand = pruned = 0
    rq = issued = 1
    i = 0
    try:
        if metered:
            budget.charge_range_query()
        rows[0] = probe(handles[0], root_left, root_right, fingers[0])
        while True:
            limit = limits[i]
            below = belows[i]
            hits = found[i]
            for left, right, level, node_gap in rows[i]:
                nv += 1
                if metered:
                    budget.checkpoint()
                if limit is not None and level > limit:
                    pruned += 1
                    continue
                if below is None:
                    docs = documents_in(left, right, docid_finger)
                    if docs:
                        cand += 1
                        hits.append((level, tuple(docs)))
                    continue
                state = below.get(left)
                if state is not None:
                    rq += state[0]
                    nv += state[1]
                    pruned += state[3]
                    if state[2]:
                        cand += state[2]
                        hits.append((level, state[4]))
                    continue
                i += 1
                opened[i] = (rq, nv, cand, pruned, level, left)
                slack = slacks[i]
                if slack is not None:
                    limits[i] = level + slack + (
                        node_gap if per_node else label_bounds[i - 1])
                rq += 1
                issued += 1
                if metered:
                    budget.charge_range_query()
                rows[i] = probe(handles[i], left, right, fingers[i])
                break
            else:
                if i == 0:
                    break
                was_rq, was_nv, was_cand, was_pruned, level, left = \
                    opened[i]
                state = (rq - was_rq, nv - was_nv, cand - was_cand,
                         pruned - was_pruned, tuple(hits))
                belows[i - 1][left] = state
                if hits:
                    found[i - 1].append((level, state[4]))
                    hits.clear()
                i -= 1
    finally:
        stats.range_queries += rq
        stats.nodes_visited += nv
        stats.candidates += cand
        stats.pruned_by_maxgap += pruned
        stats.probes_issued += issued
    return _expand(found[0], last), stats


def _expand(hits, last):
    """Unfold the walk's root-level hits into its candidate list."""
    results = []
    positions = [0] * (last + 1)
    pending = [None] * (last + 1)
    pending[0] = iter(hits)
    i = 0
    while i >= 0:
        for level, below in pending[i]:
            positions[i] = level
            if i == last:
                results.append((below, tuple(positions)))
            else:
                i += 1
                pending[i] = iter(below)
                break
        else:
            i -= 1
    return results
