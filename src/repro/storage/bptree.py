"""Disk-based B+-tree over the buffer pool.

This is the reproduction's stand-in for the GiST B+-trees the paper uses
for every index (Trie-Symbol, Docid, D-Ancestorship, XB-tree).  Keys and
values are byte strings; composite keys are produced by
:mod:`repro.storage.codec` so bytewise order matches tuple order.

Properties:

- duplicate keys are supported (the Docid index maps one trie position to
  many documents),
- all access goes through the buffer pool, so physical page reads are
  accounted exactly like the paper's direct-I/O setup,
- deletion is *lazy* (no rebalancing): entries are removed in place and
  empty leaves remain chained.  Search and scan correctness are unaffected,
  which is all the reproduced experiments require,
- :meth:`bulk_load` builds a packed tree bottom-up from sorted pairs; index
  construction uses it instead of one-at-a-time inserts.

Page layout::

    byte 0      : 1 for leaf, 0 for internal
    bytes 1-2   : entry count (uint16)
    bytes 3-6   : leaf -> next-leaf page id; internal -> leftmost child id
    bytes 7-    : leaf     entries: klen u16, key, vlen u16, value
                  internal entries: klen u16, key, child page id u32
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate

from repro.storage.errors import KeyNotFoundError, PageOverflowError

_HEADER = struct.Struct("<BHI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: The next-leaf link of the last leaf.
NO_PAGE = 0xFFFFFFFF

#: Meta page layout: magic, root page id, height, entry count.
_META = struct.Struct("<8sIIQ")
_MAGIC = b"PRIXBPT1"

#: How full :meth:`BPlusTree.bulk_load` packs a page, leaving slack for
#: later inserts.
BULK_FILL_FACTOR = 0.9


class _Node:
    """In-memory image of one B+-tree page."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children",
                 "next_leaf")

    def __init__(self, page_id, is_leaf):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys = []
        self.values = []    # leaf payloads
        self.children = []  # internal child page ids (len(keys) + 1)
        self.next_leaf = NO_PAGE


def _parse_node(page_id, frame):
    is_leaf, count, link = _HEADER.unpack_from(frame, 0)
    node = _Node(page_id, bool(is_leaf))
    pos = _HEADER.size
    if node.is_leaf:
        node.next_leaf = link
        for _ in range(count):
            (klen,) = _U16.unpack_from(frame, pos)
            pos += 2
            key = bytes(frame[pos:pos + klen])
            pos += klen
            (vlen,) = _U16.unpack_from(frame, pos)
            pos += 2
            val = bytes(frame[pos:pos + vlen])
            pos += vlen
            node.keys.append(key)
            node.values.append(val)
    else:
        node.children.append(link)
        for _ in range(count):
            (klen,) = _U16.unpack_from(frame, pos)
            pos += 2
            key = bytes(frame[pos:pos + klen])
            pos += klen
            (child,) = _U32.unpack_from(frame, pos)
            pos += 4
            node.keys.append(key)
            node.children.append(child)
    return node


def _overflow(count, size, page_size):
    return PageOverflowError(f"node with {count} entries needs {size} "
                             f"bytes but the page holds {page_size}")


def _page_image(is_leaf, link, chunks, size, page_size):
    """The page image of a node whose entries are already encoded:
    ``chunks`` is a free slot for the header, then each entry's pieces
    in page layout (four per leaf entry, three per internal one), and
    ``size`` the bytes they take with the header."""
    count = (len(chunks) - 1) // (4 if is_leaf else 3)
    if size > page_size:
        raise _overflow(count, size, page_size)
    chunks[0] = _HEADER.pack(is_leaf, count, link)
    chunks.append(bytes(page_size - size))
    return b"".join(chunks)


class BPlusTree:
    """A B+-tree whose nodes live in buffer-pool pages.

    Create with :meth:`create` (allocates a meta page and an empty root) or
    reattach to an existing tree with :meth:`attach`.
    """

    def __init__(self, pool, meta_page_id):
        self._pool = pool
        self._page_size = pool.page_size
        self._meta_page_id = meta_page_id
        frame = pool.get(meta_page_id)
        magic, root, height, count = _META.unpack_from(frame, 0)
        if magic != _MAGIC:
            raise ValueError("page is not a B+-tree meta page")
        self._root_id = root
        self._height = height
        self._count = count

    @classmethod
    def create(cls, pool):
        """Allocate and initialize a fresh, empty tree; return it."""
        meta_id, _ = pool.new_page()
        root_id, _ = pool.new_page()
        pool.put(root_id, _page_image(1, NO_PAGE, [None], _HEADER.size,
                                      pool.page_size))
        cls._write_meta(pool, meta_id, root_id, 1, 0)
        return cls(pool, meta_id)

    @classmethod
    def attach(cls, pool, meta_page_id):
        """Reattach to a tree previously created in this pool's file."""
        return cls(pool, meta_page_id)

    @staticmethod
    def _write_meta(pool, meta_id, root_id, height, count):
        frame = bytearray(pool.page_size)
        _META.pack_into(frame, 0, _MAGIC, root_id, height, count)
        pool.put(meta_id, frame)

    def _sync_meta(self):
        self._write_meta(self._pool, self._meta_page_id,
                         self._root_id, self._height, self._count)

    @property
    def meta_page_id(self):
        """Page id of this tree's metadata page."""
        return self._meta_page_id

    def __len__(self):
        return self._count

    @property
    def height(self):
        """Number of levels from root to leaves."""
        return self._height

    def _load(self, page_id):
        return self._pool.get_decoded(page_id, _parse_node)

    def _save(self, node):
        """Write ``node``'s page image, encoded like :meth:`bulk_load`'s."""
        chunks = [None]
        size = _HEADER.size
        pack_u16 = _U16.pack
        if node.is_leaf:
            link = node.next_leaf
            for key, val in zip(node.keys, node.values):
                chunks += (pack_u16(len(key)), key, pack_u16(len(val)), val)
                size += 4 + len(key) + len(val)
        else:
            link = node.children[0]
            for key, child in zip(node.keys, node.children[1:]):
                chunks += (pack_u16(len(key)), key, _U32.pack(child))
                size += 6 + len(key)
        self._pool.put(node.page_id, _page_image(
            int(node.is_leaf), link, chunks, size, self._page_size))

    # ------------------------------------------------------------------
    # Lookup and scans
    # ------------------------------------------------------------------

    def search(self, key):
        """Return the value of the first entry with ``key``.

        Raises :class:`KeyNotFoundError` when absent.
        """
        for _, val in self.range_scan(key, key, inclusive_hi=True):
            return val
        raise KeyNotFoundError(repr(key))

    def get(self, key, default=None):
        """Return the first value for ``key`` or ``default``."""
        for _, val in self.range_scan(key, key, inclusive_hi=True):
            return val
        return default

    def contains(self, key):
        """Return True when at least one entry has exactly ``key``."""
        for _ in self.range_scan(key, key, inclusive_hi=True):
            return True
        return False

    def seek(self, lo=None, near=None):
        """``(leaf, index)``: the leaf holding the first entry with key
        ``>= lo`` and that entry's index (``len(leaf.keys)`` when it lies
        further on).  ``lo=None`` seeks the first leaf.

        ``near`` is a *finger*: a leaf this tree handed out (here or in
        :meth:`leaf_slices`) since its last write.  When ``lo`` lies
        strictly inside its keys the answer is in it: the leaf is
        requested again -- one logical read, an LRU touch, and a
        physical read if the pool has evicted it since -- and the
        root-to-leaf descent above it is skipped.  A leaf from before a
        write may hold entries that have moved; passing one is the
        caller's error.
        """
        load = self._pool.get_decoded
        if near is not None and lo is not None:
            keys = near.keys
            if keys and keys[0] < lo <= keys[-1]:
                near = load(near.page_id, _parse_node)
                return near, bisect_left(near.keys, lo)
        node = load(self._root_id, _parse_node)
        while not node.is_leaf:
            idx = 0 if lo is None else bisect_left(node.keys, lo)
            node = load(node.children[idx], _parse_node)
        return node, 0 if lo is None else bisect_left(node.keys, lo)

    def leaf_slices(self, lo=None, hi=None, inclusive_hi=False, near=None):
        """Yield ``(leaf, start, stop)`` for the entries ``lo <= key < hi``.

        The one leaf walk of this module: a :meth:`seek` (from the
        finger ``near``, if it holds ``lo``), then per leaf one
        ``bisect`` for the far end.  ``leaf.keys[start:
        stop]`` and ``leaf.values[start:stop]`` are the matching entries;
        bounds are as in :meth:`range_scan`.  The first triple is always
        the leaf the seek landed on, even when it contributes no entry
        (``start == stop``): a finger for a later seek, whose ancestors
        that seek has read.  Later leaves contributing none are skipped.
        A leaf's successor is loaded only when the consumer asks for
        more, so a walk abandoned early touches no further page.
        """
        node, start = self.seek(lo, near)
        cut = bisect_right if inclusive_hi else bisect_left
        load = self._pool.get_decoded
        keys = node.keys
        stop = len(keys) if hi is None else cut(keys, hi, start)
        yield node, start, stop
        while stop == len(keys) and node.next_leaf != NO_PAGE:
            node = load(node.next_leaf, _parse_node)
            keys = node.keys
            stop = len(keys) if hi is None else cut(keys, hi)
            if stop:
                yield node, 0, stop

    def range_scan(self, lo=None, hi=None, inclusive_hi=False):
        """Yield ``(key, value)`` pairs with ``lo <= key < hi``.

        ``inclusive_hi=True`` makes the upper bound closed; ``None`` bounds
        are open-ended.  Duplicates of a key are all yielded.
        """
        for node, start, stop in self.leaf_slices(lo, hi, inclusive_hi):
            yield from zip(node.keys[start:stop], node.values[start:stop])

    def items(self):
        """Yield every ``(key, value)`` pair in key order."""
        return self.range_scan()

    def count_range(self, lo=None, hi=None, inclusive_hi=False):
        """Return the number of entries in the given key range."""
        return sum(1 for _ in self.range_scan(lo, hi, inclusive_hi))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key, value):
        """Insert a ``(key, value)`` entry; duplicates are allowed.

        All or nothing: what every node on the root-to-leaf path becomes
        -- including which of them split, and where -- is worked out
        before any page is allocated or written, so a
        :class:`PageOverflowError` leaves the tree, the pool and the
        pool's memoised nodes exactly as they were.
        """
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("keys must be bytes (use repro.storage.codec)")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        needed = _HEADER.size + max(4 + len(key) + len(value),
                                    6 + len(key))  # leaf entry, separator
        if needed > self._page_size:
            raise PageOverflowError(
                f"an entry with a {len(key)}-byte key and a {len(value)}-"
                f"byte value needs {needed} bytes but the page holds "
                f"{self._page_size}")
        key = bytes(key)
        path = []       # (node, child index taken) from the root down
        node = self._load(self._root_id)
        while True:
            idx = bisect_right(node.keys, key)
            path.append((node, idx))
            if node.is_leaf:
                break
            node = self._load(node.children[idx])

        # Plan bottom-up.  ``payload`` is a leaf's values or an internal
        # node's children; a split child's right sibling enters its
        # parent as None until the apply step allocates its page.
        plan = []
        sep, item = key, bytes(value)
        for node, idx in reversed(path):
            keys = node.keys[:idx] + [sep] + node.keys[idx:]
            if node.is_leaf:
                payload = node.values[:idx] + [item] + node.values[idx:]
            else:
                payload = (node.children[:idx + 1] + [item]
                           + node.children[idx + 1:])
            cut = self._cut(node.is_leaf, keys, payload)
            plan.append((node, idx, keys, payload, cut))
            if cut is None:
                break
            sep, item = keys[cut], None

        # Apply bottom-up: a split allocates its right sibling, then
        # writes the left half and the right -- the page order existing
        # index files were laid out in.
        right_id = None
        for node, idx, keys, payload, cut in plan:
            if not node.is_leaf:
                payload[idx + 1] = right_id
            left = _Node(node.page_id, node.is_leaf)
            if cut is None:
                left.keys, left.next_leaf = keys, node.next_leaf
                if node.is_leaf:
                    left.values = payload
                else:
                    left.children = payload
                self._save(left)
                break
            right_id = self._pool.new_page()[0]
            right = _Node(right_id, node.is_leaf)
            if node.is_leaf:
                left.keys, left.values = keys[:cut], payload[:cut]
                right.keys, right.values = keys[cut:], payload[cut:]
                left.next_leaf, right.next_leaf = right_id, node.next_leaf
            else:
                # The cut key moves up; it does not remain in either child.
                left.keys, left.children = keys[:cut], payload[:cut + 1]
                right.keys, right.children = (keys[cut + 1:],
                                              payload[cut + 1:])
            self._save(left)
            self._save(right)
        else:
            new_root = _Node(self._pool.new_page()[0], is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root_id, right_id]
            self._save(new_root)
            self._root_id = new_root.page_id
            self._height += 1
        self._count += 1
        self._sync_meta()

    def _cut(self, is_leaf, keys, payload):
        """Where a node holding ``keys`` splits, or None if it fits a page.

        The cut is the index of the key that starts the right half of a
        leaf, or moves up out of an internal node.  Halving by entry
        count wins whenever both halves fit -- every layout that fitted
        before uneven entries were handled is unchanged -- and otherwise
        the byte-balanced cut among those that fit.  Raises
        :class:`PageOverflowError` when no two-way split fits.
        """
        if is_leaf:
            sizes = [4 + len(k) + len(v) for k, v in zip(keys, payload)]
        else:
            sizes = [6 + len(k) for k in keys]
        room = self._page_size - _HEADER.size
        if sum(sizes) <= room:
            return None
        before = list(accumulate(sizes, initial=0))
        moved = 0 if is_leaf else 1   # an internal cut key leaves both

        def larger_half(cut):
            return max(before[cut], before[-1] - before[cut + moved])

        cuts = range(1, len(keys)) if is_leaf else range(len(keys))
        fitting = [cut for cut in cuts if larger_half(cut) <= room]
        if not fitting:
            raise PageOverflowError(
                f"no two-way split of a {'leaf' if is_leaf else 'internal'}"
                f" node with entries of {sizes} bytes fits a "
                f"{self._page_size}-byte page")
        if len(keys) // 2 in fitting:
            return len(keys) // 2
        return min(fitting, key=larger_half)

    def delete(self, key, value=None):
        """Remove the first entry matching ``key`` (and ``value`` if given).

        Deletion is lazy: no rebalancing is performed.  Raises
        :class:`KeyNotFoundError` if no matching entry exists.  The
        shortened leaf is a new node, as in :meth:`insert`: the one the
        pool memoises is shared by every reader, so a write the backend
        refuses leaves what they see unchanged.
        """
        for node, start, stop in self.leaf_slices(key, key,
                                                  inclusive_hi=True):
            for idx in range(start, stop):
                if value is None or node.values[idx] == value:
                    leaf = _Node(node.page_id, is_leaf=True)
                    leaf.keys = node.keys[:idx] + node.keys[idx + 1:]
                    leaf.values = node.values[:idx] + node.values[idx + 1:]
                    leaf.next_leaf = node.next_leaf
                    self._save(leaf)
                    self._count -= 1
                    self._sync_meta()
                    return
        raise KeyNotFoundError(repr(key))

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, pool, pairs):
        """Build a packed tree from ``pairs`` sorted by key; return it.

        Each page is packed to :data:`BULK_FILL_FACTOR`.  Each page image
        is its header, its entries' bytes and zero padding, joined once
        (:func:`_page_image`); no node is decoded into the pool's memo.
        """
        page_size = pool.page_size
        budget = int(page_size * BULK_FILL_FACTOR)
        meta_id, _ = pool.new_page()
        pack_u16 = _U16.pack

        # Build the leaf level.
        leaves = []   # (first_key, page_id)
        page_id = pool.new_page()[0]
        chunks = [None]     # the header's slot, then the entries' bytes
        size = _HEADER.size
        count = 0
        prev_key = None
        for key, value in pairs:
            key = bytes(key)
            value = bytes(value)
            if prev_key is not None and key < prev_key:
                raise ValueError("bulk_load input must be sorted by key")
            prev_key = key
            entry = 4 + len(key) + len(value)
            if size + entry > budget and len(chunks) > 1:
                next_id = pool.new_page()[0]
                pool.put(page_id, _page_image(1, next_id, chunks, size,
                                              page_size))
                leaves.append((first_key, page_id))
                page_id = next_id
                chunks = [None]
                size = _HEADER.size
            if len(chunks) == 1:
                if _HEADER.size + entry > page_size:
                    raise _overflow(1, _HEADER.size + entry, page_size)
                first_key = key
            chunks += (pack_u16(len(key)), key, pack_u16(len(value)), value)
            size += entry
            count += 1
        if len(chunks) > 1:
            leaves.append((first_key, page_id))
        elif not leaves:
            leaves.append((b"", page_id))
        pool.put(page_id, _page_image(1, NO_PAGE, chunks, size, page_size))

        # Build internal levels bottom-up.
        level = leaves
        height = 1
        while len(level) > 1:
            next_level = []
            page_id = pool.new_page()[0]
            first_key, leftmost = level[0]
            chunks = [None]
            size = _HEADER.size
            for sep_key, child_id in level[1:]:
                entry = 6 + len(sep_key)
                if size + entry > budget and len(chunks) > 1:
                    pool.put(page_id, _page_image(0, leftmost, chunks, size,
                                                  page_size))
                    next_level.append((first_key, page_id))
                    page_id = pool.new_page()[0]
                    first_key, leftmost = sep_key, child_id
                    chunks = [None]
                    size = _HEADER.size
                    continue
                chunks += (pack_u16(len(sep_key)), sep_key,
                           _U32.pack(child_id))
                size += entry
            pool.put(page_id, _page_image(0, leftmost, chunks, size,
                                          page_size))
            next_level.append((first_key, page_id))
            level = next_level
            height += 1

        root_id = level[0][1]
        cls._write_meta(pool, meta_id, root_id, height, count)
        return cls(pool, meta_id)

    # ------------------------------------------------------------------
    # Invariant checking (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self):
        """Verify ordering, separator bounds, and leaf-chain consistency.

        Raises AssertionError with a description of the first violation.
        """
        leaf_first_ids = []

        def walk(page_id, lo, hi, depth):
            node = self._load(page_id)
            for i in range(1, len(node.keys)):
                assert node.keys[i - 1] <= node.keys[i], (
                    f"page {page_id}: keys out of order at {i}")
            for key in node.keys:
                assert lo is None or key >= lo, (
                    f"page {page_id}: key below lower bound")
                # Duplicates may equal the separator on either side (a
                # split can cut inside a run of equal keys), so the upper
                # bound is inclusive.
                assert hi is None or key <= hi, (
                    f"page {page_id}: key above upper bound")
            if node.is_leaf:
                leaf_first_ids.append((depth, page_id))
                return depth
            assert len(node.children) == len(node.keys) + 1, (
                f"page {page_id}: child/key arity mismatch")
            depths = set()
            bounds = [lo] + node.keys + [hi]
            for child, (clo, chi) in zip(node.children,
                                         zip(bounds[:-1], bounds[1:])):
                depths.add(walk(child, clo, chi, depth + 1))
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop()

        walk(self._root_id, None, None, 1)
        depths = {d for d, _ in leaf_first_ids}
        assert len(depths) <= 1, "leaf depth not uniform"

        # The leaf chain must enumerate exactly the leaves found by the walk.
        chained = []
        node = self._load(self._root_id)
        while not node.is_leaf:
            node = self._load(node.children[0])
        while True:
            chained.append(node.page_id)
            if node.next_leaf == NO_PAGE:
                break
            node = self._load(node.next_leaf)
        walk_leaves = [pid for _, pid in leaf_first_ids]
        assert chained == walk_leaves, "leaf chain disagrees with tree walk"

        total = sum(1 for _ in self.items())
        assert total == self._count, (
            f"entry count {self._count} != scanned {total}")
