"""The virtual trie of Labeled Prufer sequences (Section 5.2).

The trie is "virtual": at query time only its B+-tree projection exists
(the Trie-Symbol and Docid indexes built by :mod:`repro.prix.index`).  This
package provides the in-memory construction used at build time and the two
containment-labeling schemes:

- :class:`~repro.trie.labeling.BulkDFSLabeler` -- exact, gap-free labels
  assigned by a DFS over the finished trie (used for static corpora),
- :class:`~repro.trie.labeling.DynamicLabeler` -- the same DFS with its
  counter strided to fill the 8-byte range, so every node keeps one
  stride of unallocated scope for children inserted later (Section
  5.2.1).
"""

from repro.trie.labeling import BulkDFSLabeler, DynamicLabeler
from repro.trie.trie import SequenceTrie, TrieNode

__all__ = [
    "BulkDFSLabeler",
    "DynamicLabeler",
    "SequenceTrie",
    "TrieNode",
]
