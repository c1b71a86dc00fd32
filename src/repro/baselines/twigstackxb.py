"""TwigStackXB: TwigStack driven by XB-tree pointers (Bruno et al. §5).

The join is :func:`~repro.baselines.twigstack.twig_join`, the loop
TwigStack runs; only the cursor differs.  Every query node reads its
input through an :class:`~repro.baselines.xbtree.XBPointer` whose
position may be an *internal* XB-tree entry summarizing a whole region
of the element list.  The join only drills down to concrete elements
when the region may contribute to a solution; otherwise it advances at
the coarse level and the region's leaf pages are never read.

The skip rule (applied when the parent's stack is empty): a region whose
maximum end precedes the parent stream's next start can contain no element
that any future parent contains, so the whole region is skipped -- exactly
the condition under which plain TwigStack would have advanced over each of
its elements one page read at a time.
"""

from __future__ import annotations

from repro.baselines.twigstack import twig_join
from repro.baselines.xbtree import XBTree


class XBForest:
    """One XB-tree per tag over a corpus's element streams."""

    def __init__(self, pool, trees):
        self._pool = pool
        self._trees = trees
        self._empty = XBTree.build(pool, [])

    @classmethod
    def build(cls, entries_by_tag, pool):
        """Build one XB-tree per tag from the entry lists."""
        trees = {tag: XBTree.build(pool, entries)
                 for tag, entries in entries_by_tag.items()}
        return cls(pool, trees)

    def tree(self, tag):
        """The XB-tree for ``tag`` (empty tree if unseen)."""
        return self._trees.get(tag, self._empty)


def twig_stack_xb(pattern, xb_forest, stats=None):
    """Run TwigStackXB; return ``(matches, stats)`` like ``twig_stack``."""
    return twig_join(pattern, lambda tag: xb_forest.tree(tag).pointer(),
                     stats)
