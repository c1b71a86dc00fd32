"""ViST (Wang, Park, Fan, Yu -- SIGMOD 2003).

ViST transforms each document into its *structure-encoded sequence*: the
preorder list of ``(symbol, prefix)`` pairs, where ``prefix`` is the full
root-to-parent tag path of the node.  Sequences are inserted into a
virtual trie; a D-Ancestorship B+-tree keyed by ``(symbol, prefix,
LeftPos)`` locates occurrences, and twig queries are answered by scoped
subsequence matching, exactly as in PRIX's Algorithm 1 but over the
two-dimensional alphabet.

This baseline faithfully reproduces the behaviours the PRIX paper
criticizes:

- **quadratic growth**: total prefix text is O(n^2) for skinny documents
  (demonstrated by ``benchmarks/bench_ablation_space.py``),
- **top-down matching**: the first query symbol is matched against the
  whole trie, so frequent root tags fan out immediately,
- **wildcard explosion**: a ``//`` step matches *every distinct
  (symbol, prefix) key of that symbol* (cf. the paper's Q7/Q8 analysis,
  46,355 keys for Q8), found here by scanning the symbol's key range,
- **false alarms**: matching stops at subsequence level -- no
  connectedness/structure refinement -- so sibling branches may match
  disconnected instances (Figure 1(b)).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.query.twig import arrangements
from repro.storage.bptree import BPlusTree
from repro.storage.codec import (encode_int, encode_key, int_key_prefix,
                                 pack_key_int)
from repro.trie.labeling import BulkDFSLabeler
from repro.xmlkit.tree import sequence_label

_POS_VALUE = struct.Struct("<Q")   # RightPos
_DOC_VALUE = struct.Struct("<I")   # document id

#: Separator in prefix paths; 0x1E cannot occur in tags or values.
_SEP = "\x1e"


@dataclass
class VistStats:
    """Work counters for one ViST query."""

    range_queries: int = 0
    keys_scanned: int = 0
    matching_keys: int = 0
    nodes_visited: int = 0
    candidate_docs: int = 0


def structure_encoded_sequence(document):
    """The (symbol, prefix) sequence of a document, in preorder."""
    sequence = []
    stack = [(document.root, "")]
    while stack:
        node, prefix = stack.pop()
        symbol = sequence_label(node)
        sequence.append((symbol, prefix))
        child_prefix = prefix + symbol + _SEP
        for child in reversed(node.children):
            stack.append((child, child_prefix))
    return sequence


def total_sequence_text(document):
    """Total characters of the structure-encoded sequence (space metric)."""
    return sum(len(symbol) + len(prefix)
               for symbol, prefix in structure_encoded_sequence(document))


#: ViST's D-Ancestorship (``(symbol, prefix, LeftPos) -> RightPos``) and
#: Docid (``LeftPos -> document id``) layouts, for the trie labeler.
_D_ANCESTORSHIP = SimpleNamespace(
    label_prefix=lambda label: int_key_prefix(*label),
    make_entry=lambda prefix, left, right, level, node_gap: (
        prefix + pack_key_int(left), _POS_VALUE.pack(right)))
_DOCID_TREE = SimpleNamespace(make_entry=lambda left, doc_id: (
    encode_int(left), _DOC_VALUE.pack(doc_id)))


class VistIndex:
    """Disk-backed ViST index over a collection of documents."""

    def __init__(self, pool, d_ancestorship, docid_tree, root_range,
                 doc_count):
        self._pool = pool
        self._d_ancestorship = d_ancestorship
        self._docid_tree = docid_tree
        self._root_range = root_range
        self.doc_count = doc_count

    @classmethod
    def build(cls, documents, pool):
        """Build the ViST index over ``documents``."""
        trie = BulkDFSLabeler().label(
            [tuple(structure_encoded_sequence(document))
             for document in documents],
            [document.doc_id for document in documents], _D_ANCESTORSHIP,
            _DOCID_TREE)
        d_ancestorship = BPlusTree.bulk_load(pool, trie.symbol_entries)
        docid_tree = BPlusTree.bulk_load(pool, trie.docid_entries)
        return cls(pool, d_ancestorship, docid_tree, trie.root_range,
                   len(documents))

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def query(self, pattern, stats=None, ordered=False):
        """Return candidate document ids (with possible false alarms).

        Like PRIX, ViST's sequence matching is order-sensitive, so
        unordered (XPath) semantics unions the branch arrangements of the
        twig (the default); ``ordered=True`` matches the twig's own
        branch order only.
        """
        if stats is None:
            stats = VistStats()
        docs = set()
        seen_steps = set()
        for arranged in arrangements(pattern):
            steps = _query_sequence(arranged)
            step_key = tuple(steps)
            if step_key in seen_steps:
                continue
            seen_steps.add(step_key)
            self._run_steps(steps, docs, stats)
            if ordered:
                break
        stats.candidate_docs = len(docs)
        return docs, stats

    def _run_steps(self, steps, docs, stats):
        key_sets = [self._matching_keys(symbol, prefix_regex, exact, stats)
                    for symbol, prefix_regex, exact in steps]

        def recurse(i, lo, hi):
            for symbol, prefix in key_sets[i]:
                stats.range_queries += 1
                lo_key = encode_key(symbol, prefix, lo + 1)
                hi_key = encode_key(symbol, prefix, hi)
                for key, value in self._d_ancestorship.range_scan(lo_key,
                                                                  hi_key):
                    stats.nodes_visited += 1
                    left = int.from_bytes(key[-8:], "big")
                    (right,) = _POS_VALUE.unpack(value)
                    if i + 1 == len(key_sets):
                        for _, doc_value in self._docid_tree.range_scan(
                                encode_int(left), encode_int(right),
                                inclusive_hi=True):
                            docs.add(_DOC_VALUE.unpack(doc_value)[0])
                    else:
                        recurse(i + 1, left, right)

        recurse(0, self._root_range[0], self._root_range[1])

    def _matching_keys(self, symbol, prefix_regex, exact, stats):
        """The distinct (symbol, prefix) keys matching one query step.

        Exact steps need no scan; wildcard steps scan the symbol's whole
        key range, the behaviour the PRIX paper measures on Q7/Q8.
        """
        if exact is not None:
            return [(symbol, exact)]
        lo = encode_key(symbol)
        hi = encode_key(symbol + "\x00")
        keys = []
        seen = set()
        pattern = re.compile(prefix_regex)
        for key, _ in self._d_ancestorship.range_scan(lo, hi):
            stats.keys_scanned += 1
            prefix = _decode_prefix(key)
            if prefix in seen:
                continue
            seen.add(prefix)
            if pattern.fullmatch(prefix):
                keys.append((symbol, prefix))
        stats.matching_keys += len(keys)
        return keys


def _decode_prefix(key):
    """Extract the prefix component from a (symbol, prefix, left) key."""
    from repro.storage.codec import decode_key
    return decode_key(key)[1]


def _query_sequence(collapsed):
    """Transform a collapsed twig into its (symbol, prefix-pattern) steps.

    Returns a list of ``(symbol, prefix_regex, exact_prefix_or_None)``
    in preorder.  ``exact_prefix`` is set when the root-to-node path uses
    child axes only, in which case no key scan is needed.
    """
    if any(node.tag == "*" and not node.is_value
           for node in collapsed.document.root.iter_subtree()):
        raise NotImplementedError(
            "the ViST baseline does not support '*' steps")

    steps = []
    root = collapsed.document.root

    def walk(node, regex_parts, exact_parts, is_exact):
        spec = collapsed.spec_of(node)
        if node.parent is None:
            node_exact = collapsed.absolute
            # A non-absolute root may occur at any depth: wildcard prefix.
            lead = "" if collapsed.absolute else rf"(?:[^{_SEP}]+{_SEP})*"
            my_regex = regex_parts + [lead]
            my_exact = list(exact_parts)
        else:
            gap = (rf"(?:[^{_SEP}]+{_SEP})*"
                   if spec.max_steps is None or spec.max_steps > 1 else "")
            my_regex = regex_parts + [gap]
            my_exact = list(exact_parts)
            node_exact = is_exact and gap == ""
        prefix_regex = "".join(my_regex)
        exact_prefix = "".join(my_exact) if node_exact else None
        symbol = sequence_label(node)
        steps.append((symbol, prefix_regex, exact_prefix))
        child_regex = my_regex + [re.escape(symbol) + _SEP]
        child_exact = my_exact + [symbol + _SEP]
        for child in node.children:
            walk(child, child_regex, child_exact, node_exact)

    walk(root, [], [], True)
    return steps
