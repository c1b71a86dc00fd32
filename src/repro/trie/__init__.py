"""The virtual trie of Labeled Prufer sequences (Section 5.2).

The trie is "virtual": it is never built.  Only its B+-tree projection
exists (the Trie-Symbol and Docid indexes of :mod:`repro.prix.index`),
and a build numbers it from the sorted LPS's -- never their suffixes --
in one streaming pass.  Path sharing across structurally similar
documents is what the paper credits for PRIX's small search space on
DBLP (Section 6.4.2).  The two containment-labeling schemes:

- :class:`~repro.trie.labeling.BulkDFSLabeler` -- exact, gap-free labels
  (used for static corpora),
- :class:`~repro.trie.labeling.DynamicLabeler` -- the same numbering
  with its counter strided to fill the 8-byte range, so every node keeps
  one stride of unallocated scope for children inserted later (Section
  5.2.1).
"""

from repro.trie.labeling import BulkDFSLabeler, DynamicLabeler, LabeledTrie

__all__ = [
    "BulkDFSLabeler",
    "DynamicLabeler",
    "LabeledTrie",
]
