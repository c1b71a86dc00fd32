"""Intentionally racy storage classes: the runtime sanitizer's oracle.

Every method here commits exactly one of the concurrency sins the
sanitizer exists to catch, so ``tests/test_analysis_sanitizer.py`` can
assert each seeded violation raises: :class:`EvilPool` nests two
latches in both orders, :class:`EvilBufferPool` skips the pool latch on
its hit paths (driven from two threads) and reads the pager under it.

This module is deliberately *not* collected by pytest (``python_files``
matches ``test_*``/``bench_*``).
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.latch import Latch


class EvilPool:
    """Two latches, taken in both orders."""

    def __init__(self):
        self._latch = Latch("evil-frames")
        self._order_latch = Latch("evil-order")
        self._frames = {}

    def take_frames_then_order(self):
        with self._latch:
            with self._order_latch:
                return len(self._frames)

    def take_order_then_frames(self):
        # Seeded violation: the opposite nesting of
        # take_frames_then_order closes a cycle in the acquisition-order
        # graph.
        with self._order_latch:
            with self._latch:
                return len(self._frames)


class EvilBufferPool(BufferPool):
    """A :class:`BufferPool` that breaks the latch protocol.

    Its hit paths skip the latch -- what the sanitizer's guarded-field
    descriptors catch once two threads share the pool -- and
    :meth:`load_under_latch` does its disk read inside it.
    """

    def get(self, page_id):
        frame = self._frames.get(page_id)  # unlatched: the data race
        if frame is not None:
            self.stats.count_logical_read()
            return frame
        return super().get(page_id)

    def get_decoded(self, page_id, decoder):
        cached = self._decoded.get(page_id)  # unlatched: the same race
        if cached is not None:
            self.stats.count_logical_read()
            return cached
        return super().get_decoded(page_id, decoder)

    def load_under_latch(self, page_id):
        # Seeded violation: a disk read while holding the frame-map
        # latch.
        with self._latch:
            frame = self._pager.read(page_id)
            self._frames[page_id] = frame
            return frame
