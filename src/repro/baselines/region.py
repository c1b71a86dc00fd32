"""Region-encoded element streams for the TwigStack family.

Every node of every document becomes a stream entry
``(start, end, level, doc_id, postorder)``.  Starts and ends are
*globalized* -- each document's region numbers are offset by a running
base -- so containment never holds across documents and the stack joins
can run over the whole corpus as one stream per tag, exactly like the
paper's sorted input lists.

Streams are stored in pages through the buffer pool, so the baselines'
"Disk IO (pages)" is measured on the same footing as PRIX's.  A
:class:`StreamCursor` is TwigStack's input to the one twig join,
:func:`~repro.baselines.twigstack.twig_join`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.xmlkit.tree import sequence_label

_ENTRY = struct.Struct("<QQIII")  # start, end, level, doc_id, postorder
_COUNT = struct.Struct("<I")


@dataclass(frozen=True)
class Element:
    """One stream entry (a node instance in region encoding)."""

    start: int
    end: int
    level: int
    doc_id: int
    postorder: int

    def contains(self, other):
        """Strict region containment (ancestor test)."""
        return self.start < other.start and other.end < self.end

    def is_parent_of(self, other):
        """Containment at exactly one level below."""
        return self.contains(other) and other.level == self.level + 1


#: Stream key carrying every element (not value) node, for '*' steps.
ALL_ELEMENTS = "*"


def build_stream_entries(documents):
    """Compute the per-tag, globally sorted element streams.

    Returns ``{sequence_label: [Element, ...]}`` with each list sorted by
    ``start`` (document order).  The special key :data:`ALL_ELEMENTS`
    holds every element node, which is what a ``*`` query step scans.
    """
    streams = {ALL_ELEMENTS: []}
    base = 0
    for document in documents:
        max_end = 0
        for node in document.nodes_in_postorder():
            entry = Element(start=base + node.start, end=base + node.end,
                            level=node.level, doc_id=document.doc_id,
                            postorder=node.postorder)
            streams.setdefault(sequence_label(node), []).append(entry)
            if not node.is_value:
                streams[ALL_ELEMENTS].append(entry)
            if node.end > max_end:
                max_end = node.end
        base += max_end + 1
    for entries in streams.values():
        entries.sort(key=lambda e: e.start)
    return streams


class DiskStream:
    """One tag's element list laid out in pages, read through the pool."""

    def __init__(self, pool, page_ids, count):
        self._pool = pool
        self._page_ids = page_ids
        self.count = count
        self._per_page = (pool.page_size - _COUNT.size) // _ENTRY.size

    @classmethod
    def write(cls, pool, entries):
        """Write ``entries`` into fresh pages; return the stream."""
        page_size = pool.page_size
        per_page = (page_size - _COUNT.size) // _ENTRY.size
        page_ids = []
        for offset in range(0, len(entries), per_page):
            chunk = entries[offset:offset + per_page]
            page_id, frame = pool.new_page()
            _COUNT.pack_into(frame, 0, len(chunk))
            pos = _COUNT.size
            for element in chunk:
                _ENTRY.pack_into(frame, pos, element.start, element.end,
                                 element.level, element.doc_id,
                                 element.postorder)
                pos += _ENTRY.size
            pool.mark_dirty(page_id)
            page_ids.append(page_id)
        if not page_ids:
            page_id, frame = pool.new_page()
            _COUNT.pack_into(frame, 0, 0)
            pool.mark_dirty(page_id)
            page_ids.append(page_id)
        return cls(pool, page_ids, len(entries))

    def _read_page(self, index):
        def decode(_page_id, frame):
            (count,) = _COUNT.unpack_from(frame, 0)
            pos = _COUNT.size
            elements = []
            for _ in range(count):
                values = _ENTRY.unpack_from(frame, pos)
                elements.append(Element(*values))
                pos += _ENTRY.size
            return elements
        return self._pool.get_decoded(self._page_ids[index], decode)

    def cursor(self):
        """A fresh sequential cursor over this stream."""
        return StreamCursor(self)

    def __len__(self):
        return self.count


class StreamCursor:
    """Sequential reader over a :class:`DiskStream` with a lookahead head.

    The cursor of TwigStack in :func:`~repro.baselines.twigstack.twig_join`:
    it always stands on an element (never on an XB-tree region), and its
    ``left``/``right`` are the head's start and end.
    """

    #: Always on a concrete element: the join never drills down.
    at_leaf = True

    def __init__(self, stream):
        self._stream = stream
        self._page_index = 0
        self._entry_index = 0
        self._page = stream._read_page(0) if stream._page_ids else []

    @property
    def eof(self):
        """True when no elements remain."""
        return self.head() is None

    @property
    def left(self):
        """The head's start, or infinity at end of stream."""
        head = self.head()
        return head.start if head is not None else float("inf")

    @property
    def right(self):
        """The head's end, or infinity at end of stream."""
        head = self.head()
        return head.end if head is not None else float("inf")

    def head(self):
        """The current element, or None at end of stream."""
        while self._entry_index >= len(self._page):
            if self._page_index >= len(self._stream._page_ids) - 1:
                return None
            self._page_index += 1
            self._page = self._stream._read_page(self._page_index)
            self._entry_index = 0
        return self._page[self._entry_index]

    def advance(self):
        """Move past the current element."""
        if self.head() is not None:
            self._entry_index += 1


class StreamSet:
    """All tag streams of a corpus, written to one storage stack."""

    def __init__(self, pool, streams):
        self._pool = pool
        self._streams = streams
        self._empty = DiskStream.write(pool, [])

    @classmethod
    def build(cls, documents, pool):
        """Write every tag stream of ``documents`` into ``pool``."""
        entries_by_tag = build_stream_entries(documents)
        streams = {tag: DiskStream.write(pool, entries)
                   for tag, entries in entries_by_tag.items()}
        return cls(pool, streams)

    def stream(self, tag):
        """The stream for ``tag`` (an empty stream for unseen tags)."""
        return self._streams.get(tag, self._empty)

    def tags(self):
        """Document tags with streams (excludes the '*' union stream)."""
        return sorted(tag for tag in self._streams
                      if tag != ALL_ELEMENTS)
