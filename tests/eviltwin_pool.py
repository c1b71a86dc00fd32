"""Intentionally racy storage classes: the prixrace acceptance oracle.

Every method here commits exactly one of the concurrency sins the
prixrace tooling exists to catch, so the test suite can assert that each
seeded violation is flagged -- by the static rules
(``tests/test_analysis_locks.py`` lints this file and demands one
finding per sin) and, where the static scope ends, by the runtime
sanitizer (``tests/test_analysis_sanitizer.py`` drives
:class:`EvilBufferPool` from two threads).

This module is deliberately *not* collected by pytest (``python_files``
matches ``test_*``/``bench_*``) and its four static findings are
grandfathered in ``.prixlint-baseline.json`` -- they must exist, that is
the point -- so the full-tree lint stays green while any *new*
violation anywhere still fails the build.
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.latch import Latch


class EvilPool:
    """A hand-rolled frame cache that gets every latch rule wrong."""

    def __init__(self, pager):
        self._latch = Latch("evil-frames")  # prixrace: no-blocking-io
        self._order_latch = Latch("evil-order")
        self._frames = {}  # prixrace: guarded-by=_latch
        self._pager = pager

    def racy_read(self, page_id):
        # Seeded violation: guarded-field-access (no latch on any path).
        return self._frames.get(page_id)

    def blocking_under_latch(self, page_id):
        # Seeded violation: no-blocking-io-under-latch (a disk read
        # while holding the frame-map latch).
        with self._latch:
            frame = self._pager.read(page_id)
            self._frames[page_id] = frame
            return frame

    def take_frames_then_order(self):
        with self._latch:
            with self._order_latch:
                return len(self._frames)

    def take_order_then_frames(self):
        # Seeded violation: lock-order (the opposite nesting of
        # take_frames_then_order closes a cycle in the module's
        # acquisition-order graph).
        with self._order_latch:
            with self._latch:
                return len(self._frames)

    def leaky_scan(self, wanted):
        # Seeded violation: release-on-all-paths (the miss path and
        # every exception path return with the latch still held).
        self._latch.acquire()
        if wanted in self._frames:
            self._latch.release()
            return True
        return False


class EvilBufferPool(BufferPool):
    """A :class:`BufferPool` whose hit paths skip the latch protocol.

    The static ``guarded-field-access`` rule is scoped to the class that
    *declares* the guarded fields, so this subclass is exactly the
    escape it cannot see -- and exactly what the runtime sanitizer's
    guarded-field descriptors catch once two threads share the pool.
    """

    def get(self, page_id):
        self.stats.add(logical_reads=1)
        frame = self._frames.get(page_id)  # unlatched: the data race
        if frame is not None:
            return frame
        return self._load(page_id)

    def get_decoded(self, page_id, decoder):
        cached = self._decoded.get(page_id)  # unlatched: the same race
        if cached is not None:
            self.stats.count_logical_read()
            return cached
        return super().get_decoded(page_id, decoder)
