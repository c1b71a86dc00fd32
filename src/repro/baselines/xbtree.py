"""XB-trees (Bruno et al., SIGMOD 2002, Section 5).

An XB-tree is a B-tree-like hierarchy over one tag's region-sorted element
list.  Each internal entry summarizes a child page with the pair
``(L, R)`` = (smallest start, largest end) of the elements below it, so a
twig join can reason about -- and skip -- whole subtrees of the input
list without reading their leaf pages.

A :class:`XBPointer` walks the tree the way TwigStackXB drives it:

- ``advance()`` moves to the next entry of the current node, ascending to
  the parent when the node is exhausted (this is where skipping happens:
  once ascended, the sibling leaf pages are never read),
- ``drill_down()`` descends into the child page of the current internal
  entry when the algorithm needs finer resolution.
"""

from __future__ import annotations

import struct

from repro.baselines.region import Element

_LEAF_ENTRY = struct.Struct("<QQIII")   # start, end, level, doc, postorder
_INNER_ENTRY = struct.Struct("<QQI")    # L, R, child page id
_HEADER = struct.Struct("<BH")          # is_leaf, count


class XBTree:
    """Disk-resident XB-tree over one element stream."""

    def __init__(self, pool, root_page, height, count):
        self._pool = pool
        self.root_page = root_page
        self.height = height
        self.count = count

    @classmethod
    def build(cls, pool, elements):
        """Bulk-build from elements sorted by ``start``."""
        page_size = pool.page_size
        leaf_cap = (page_size - _HEADER.size) // _LEAF_ENTRY.size
        inner_cap = (page_size - _HEADER.size) // _INNER_ENTRY.size

        level = []  # (L, R, page_id)
        for offset in range(0, max(len(elements), 1), leaf_cap):
            chunk = elements[offset:offset + leaf_cap]
            page_id, frame = pool.new_page()
            _HEADER.pack_into(frame, 0, 1, len(chunk))
            pos = _HEADER.size
            for element in chunk:
                _LEAF_ENTRY.pack_into(frame, pos, element.start, element.end,
                                      element.level, element.doc_id,
                                      element.postorder)
                pos += _LEAF_ENTRY.size
            pool.mark_dirty(page_id)
            if chunk:
                level.append((chunk[0].start,
                              max(e.end for e in chunk), page_id))
            else:
                level.append((0, 0, page_id))

        height = 1
        while len(level) > 1:
            next_level = []
            for offset in range(0, len(level), inner_cap):
                chunk = level[offset:offset + inner_cap]
                page_id, frame = pool.new_page()
                _HEADER.pack_into(frame, 0, 0, len(chunk))
                pos = _HEADER.size
                for left, right, child in chunk:
                    _INNER_ENTRY.pack_into(frame, pos, left, right, child)
                    pos += _INNER_ENTRY.size
                pool.mark_dirty(page_id)
                next_level.append((chunk[0][0],
                                   max(r for _, r, _ in chunk), page_id))
            level = next_level
            height += 1
        return cls(pool, level[0][2], height, len(elements))

    def _read(self, page_id):
        def decode(_pid, frame):
            is_leaf, count = _HEADER.unpack_from(frame, 0)
            pos = _HEADER.size
            entries = []
            if is_leaf:
                for _ in range(count):
                    entries.append(Element(*_LEAF_ENTRY.unpack_from(frame,
                                                                    pos)))
                    pos += _LEAF_ENTRY.size
            else:
                for _ in range(count):
                    entries.append(_INNER_ENTRY.unpack_from(frame, pos))
                    pos += _INNER_ENTRY.size
            return bool(is_leaf), entries
        return self._pool.get_decoded(page_id, decode)

    def pointer(self):
        """A fresh pointer positioned at the tree's first entry."""
        return XBPointer(self)


class XBPointer:
    """A TwigStackXB cursor into an XB-tree.

    The page under the cursor is read when the cursor moves onto it
    (:meth:`advance`, :meth:`drill_down`), not again on every look at
    its entry.
    """

    def __init__(self, tree):
        self._tree = tree
        #: Stack of (page_id, index) from the root to the current node.
        self._path = [(tree.root_page, 0)]
        if tree.count == 0:
            self._path = []
        #: ``(is_leaf, entries)`` of the page atop ``_path``, once read.
        self._page = None

    @property
    def eof(self):
        """True when the pointer has run off the tree."""
        return not self._path

    def _current(self):
        if self._page is None:
            self._page = self._tree._read(self._path[-1][0])
        is_leaf, entries = self._page
        return is_leaf, entries, self._path[-1][1]

    @property
    def at_leaf(self):
        """True when the pointer addresses a concrete element."""
        if self.eof:
            return True
        is_leaf, _, _ = self._current()
        return is_leaf

    def head(self):
        """The concrete element under the pointer (leaf positions only)."""
        if self.eof:
            return None
        is_leaf, entries, index = self._current()
        if not is_leaf:
            raise ValueError("pointer is at an internal entry; drill down")
        return entries[index]

    @property
    def left(self):
        """L of the current entry (exact min start of the region below)."""
        if self.eof:
            return float("inf")
        is_leaf, entries, index = self._current()
        entry = entries[index]
        return entry.start if is_leaf else entry[0]

    @property
    def right(self):
        """R of the current entry (exact max end of the region below)."""
        if self.eof:
            return float("inf")
        is_leaf, entries, index = self._current()
        entry = entries[index]
        return entry.end if is_leaf else entry[1]

    def advance(self):
        """Move to the next entry, ascending when the node is exhausted."""
        while self._path:
            page_id, index = self._path[-1]
            self._page = self._tree._read(page_id)
            if index + 1 < len(self._page[1]):
                self._path[-1] = (page_id, index + 1)
                return
            self._path.pop()
        self._page = None

    def drill_down(self):
        """Descend into the child page of the current internal entry."""
        is_leaf, entries, index = self._current()
        if is_leaf:
            raise ValueError("cannot drill down from a leaf entry")
        child_page = entries[index][2]
        self._path.append((child_page, 0))
        self._page = None
