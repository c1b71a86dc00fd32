"""Runtime sanitizer: the storage protocols, asserted while the code runs.

Flush, durability-ordering and latch discipline are properties of
whole executions -- a handle stored on ``self`` outlives the function
that took it, a data race needs two threads -- so they are checked
where they happen: with the sanitizer enabled, the storage layer itself
asserts each protocol at the moment it could be broken
(``docs/ANALYSIS.md`` has the protocol -> checker table).  It sees only
the paths a run executes; the CI suites that run under it are what
give it coverage.

Checks added while enabled:

- **flush before stats**: ``IOStats.snapshot()`` while a pool on that
  stats object still holds dirty pages raises :class:`SanitizeError`.
  A snapshot taken then would report physical I/O that has not happened
  yet, corrupting the paper's "Disk IO (pages)" columns.
- **WAL write ordering**: ``Pager.write()`` on a pager whose pool has a
  write-ahead log attached asserts the durability protocol on *every*
  data-page write, however it was reached: the page must not be dirty
  and uncommitted (no-steal -- redo-only recovery cannot undo it), and
  its logged image record must already be fsynced
  (``wal.flushed_lsn``, the WAL-before-data invariant).  This catches
  code that writes through the pager directly, bypassing the pool's
  ``_write_back``.
- **guard trust**: when a checksum guard is attached to the pager,
  ``BufferPool.get()`` asserts the image it hands out is *trusted* --
  stamped, checksum-verified, or WAL-repaired by the
  :class:`~repro.storage.guard.PageGuard` (see ``docs/ROBUSTNESS.md``).
- **guarded-field accesses**: every field a class's ``_GUARDED`` map
  declares (every class decorated with
  :func:`repro.storage.latch.guarded`: BufferPool, Pager, IOStats,
  the serving and sharding tiers' latched classes, the tests'
  ChaosBackend) is shadowed by a data descriptor.
  Once an object has been touched by two or more distinct threads --
  the Eraser refinement, so thread-confined use stays silent -- any
  read or write without the declared latch held raises
  :class:`SanitizeError` at the racy access itself, not at the eventual
  corrupted result.
- **latch acquisition order**: hooks installed via
  :func:`repro.storage.latch.install_hooks` maintain a per-thread
  held-latch stack and a process-wide order graph over latch *role
  names*.  An acquire that would close a cycle in that graph
  raises **before** blocking on the lock, turning a
  some-interleavings-deadlock into a deterministic error with the cycle
  in the message.
- **no pager I/O under the pool latch**: the same hooks reject taking
  the ``pager-io`` role while the thread holds ``buffer-pool`` -- a disk
  wait inside the frame-map latch would serialize every other thread's
  cache hits.

State lives in one :class:`_State` object: per-thread data (the
held-latch stacks) in a ``threading.local``, the process-wide aggregates
(live pools, the order graph, the per-object accessor sets) under a
single meta-lock -- a plain ``threading.Lock``, deliberately not a
:class:`~repro.storage.latch.Latch`, so the sanitizer's own bookkeeping
never re-enters its own hooks.  The sanitizer reads the fields it
inspects via :func:`_peek` (straight from ``obj.__dict__``) so its own
checks never trip the guarded-field descriptors.

Enable programmatically::

    from repro.analysis import sanitizer
    sanitizer.enable()          # idempotent
    ...
    sanitizer.disable()         # restores the original methods

or for a block::

    with sanitizer.sanitized():
        run_benchmark()

or for a whole process: set ``PRIX_SANITIZE=1`` in the environment
before importing :mod:`repro` (the package auto-enables on import; see
``repro/__init__.py``).  The intended use is a CI pytest shard running
the whole suite with the sanitizer on, plus the threaded stress job
(``tests/test_threaded_stress.py``).
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager

from repro.storage import latch as latch_module
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.storage.stats import IOStats


class SanitizeError(AssertionError):
    """A runtime protocol violation detected by the sanitizer.

    Subclasses ``AssertionError``: these are programming errors in the
    code under test, not recoverable I/O conditions, and test harnesses
    already treat assertion failures as hard failures.
    """


#: Original (unwrapped) methods; non-empty exactly while enabled.
_saved = {}

#: Original class attributes displaced by guarded-field descriptors,
#: keyed ``(cls, field)``; the sentinel marks "no class attribute".
_MISSING = object()
_saved_attrs = {}


class _ThreadLocal(threading.local):
    """Per-thread sanitizer state (fresh per thread, on first use)."""

    def __init__(self):
        self.held = []  # latch role names, in acquisition order


class _State:
    """Process-wide sanitizer state, rebuilt on every :func:`enable`."""

    def __init__(self):
        #: Guards every aggregate below.  A plain lock, not a Latch:
        #: the sanitizer must never re-enter its own latch hooks.
        self.meta = threading.Lock()
        #: Live pools, so a stats object can find the pools it serves.
        self.pools = weakref.WeakSet()
        #: Latch-order edges over role names: name -> set of names
        #: acquired while holding it.
        self.order = {}
        #: id(obj) -> set of (thread name, thread ident) that touched a
        #: guarded field of obj.  id-keyed because IOStats (a dataclass
        #: with eq=True) is unhashable; a weakref.finalize per object
        #: retires the entry when the object is collected.
        self.accessors = {}
        self.tls = _ThreadLocal()


#: The live state while enabled, else None.
_state = None


def _peek(obj, field):
    """Read an instance attribute without waking its descriptor."""
    return obj.__dict__.get(field)


def active():
    """Whether the sanitizer is currently enabled."""
    return bool(_saved)


# ----------------------------------------------------------------------
# Guarded-field descriptors
# ----------------------------------------------------------------------

def _note_access(state, obj):
    """Record that the current thread touched ``obj``; return the set
    of distinct threads that ever did."""
    key = id(obj)
    me = (threading.current_thread().name, threading.get_ident())
    with state.meta:
        entry = state.accessors.get(key)
        if entry is None:
            entry = set()
            state.accessors[key] = entry
            weakref.finalize(obj, state.accessors.pop, key, None)
        entry.add(me)
        return len(entry)


class _GuardedField:
    """Data descriptor asserting the declared latch on shared objects.

    Values still live in ``obj.__dict__`` (``__set__`` writes there,
    ``__get__`` reads there); as a *data* descriptor this class wins the
    attribute lookup anyway, so every access funnels through the check.
    """

    __slots__ = ("owner", "name", "latch_attr", "original")

    def __init__(self, owner, name, latch_attr, original):
        self.owner = owner
        self.name = name
        self.latch_attr = latch_attr
        self.original = original

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self if self.original is _MISSING else self.original
        try:
            value = obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None
        self._check(obj, "read")
        return value

    def __set__(self, obj, value):
        self._check(obj, "write")
        obj.__dict__[self.name] = value

    def _check(self, obj, what):
        state = _state
        if state is None:
            return
        latch = _peek(obj, self.latch_attr)
        if latch is None:  # mid-__init__: not shared yet
            return
        if _note_access(state, obj) < 2:
            return  # Eraser refinement: thread-confined so far
        if latch.owned():
            return
        raise SanitizeError(
            f"sanitizer: {what} of {self.owner}.{self.name} by thread "
            f"{threading.current_thread().name!r} without holding "
            f"{latch!r} (declared guarded-by={self.latch_attr}) on an "
            "object already shared between threads; this is a data "
            "race -- take the latch")


def _install_class_descriptors(cls):
    for field, latch_attr in cls._GUARDED.items():
        if (cls, field) in _saved_attrs:
            continue
        original = cls.__dict__.get(field, _MISSING)
        _saved_attrs[(cls, field)] = original
        setattr(cls, field,
                _GuardedField(cls.__name__, field, latch_attr, original))


def _remove_descriptors():
    for (cls, field), original in _saved_attrs.items():
        if original is _MISSING:
            delattr(cls, field)
        else:
            setattr(cls, field, original)
    _saved_attrs.clear()


# ----------------------------------------------------------------------
# Latch hooks: acquisition order, no pager I/O under the pool latch
# ----------------------------------------------------------------------

def _order_path(graph, start, target):
    """A path ``start -> ... -> target`` in the order graph, or None."""
    stack = [(start, [start])]
    visited = {start}
    while stack:
        node, path = stack.pop()
        for succ in sorted(graph.get(node, ())):
            if succ == target:
                return path + [target]
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, path + [succ]))
    return None


def _on_acquire(latch):
    state = _state
    if state is None:
        return
    held = state.tls.held
    name = latch.name
    if name == "pager-io" and "buffer-pool" in held:
        raise SanitizeError(
            "sanitizer: pager I/O under the buffer-pool latch (thread "
            f"{threading.current_thread().name!r}); a disk wait there "
            "stalls every other thread's cache hits -- call the pager "
            "outside the latched section (docs/CONCURRENCY.md)")
    if name not in held:  # re-entrant re-acquire adds no ordering fact
        for prior in dict.fromkeys(held):  # distinct, in order
            with state.meta:
                state.order.setdefault(prior, set()).add(name)
                back = _order_path(state.order, name, prior)
            if back is not None:
                cycle = " -> ".join([prior] + back)
                raise SanitizeError(
                    "sanitizer: latch acquisition order cycle "
                    f"{cycle}: thread {threading.current_thread().name!r} "
                    f"is taking {name!r} while holding {prior!r}, but "
                    "the opposite order has also been observed; two "
                    "such threads deadlock -- follow the global order "
                    "in docs/CONCURRENCY.md")
    held.append(name)


def _on_release(latch):
    state = _state
    if state is None:
        return
    held = state.tls.held
    for index in range(len(held) - 1, -1, -1):
        if held[index] == latch.name:
            del held[index]
            return


# ----------------------------------------------------------------------
# Enable / disable
# ----------------------------------------------------------------------

def enable():
    """Install the runtime checks (idempotent)."""
    global _state
    if _saved:
        return
    _state = _State()
    _saved["pool_init"] = BufferPool.__init__
    _saved["pool_get"] = BufferPool.get
    _saved["stats_snapshot"] = IOStats.snapshot
    _saved["pager_write"] = Pager.write

    original_init = _saved["pool_init"]
    original_get = _saved["pool_get"]
    original_snapshot = _saved["stats_snapshot"]
    original_write = _saved["pager_write"]
    state = _state

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        with state.meta:
            state.pools.add(self)

    def get(self, page_id):
        frame = original_get(self, page_id)
        guard = self._pager.guard
        if guard is not None and not guard.is_trusted(page_id):
            raise SanitizeError(
                f"sanitizer: BufferPool.get({page_id}) is handing out a "
                "page image the checksum guard never verified; every "
                "image the matcher consumes must be stamped, verified, "
                "or WAL-repaired -- some path smuggled bytes around the "
                "guard.admit() gateway")
        return frame

    def snapshot(self):
        with state.meta:
            pools = list(state.pools)
        for pool in pools:
            if pool.stats is self and _peek(pool, "_dirty"):
                raise SanitizeError(
                    "sanitizer: IOStats.snapshot() while a BufferPool "
                    f"on these stats holds {len(_peek(pool, '_dirty'))} "
                    "dirty page(s); flush() first so the snapshot "
                    "matches what is on disk")
        return original_snapshot(self)

    def write(self, page_id, data):
        with state.meta:
            pools = list(state.pools)
        for pool in pools:
            if pool._pager is not self or pool._wal is None:
                continue
            if page_id in _peek(pool, "_wal_uncommitted"):
                raise SanitizeError(
                    f"sanitizer: Pager.write({page_id}) while the page "
                    "is dirty and uncommitted; the no-steal policy "
                    "forbids putting uncommitted changes in the data "
                    "file (redo-only recovery cannot undo them) -- "
                    "commit() the batch first")
            lsn = _peek(pool, "_page_lsn").get(page_id)
            if lsn is not None and lsn >= pool._wal.flushed_lsn:
                raise SanitizeError(
                    f"sanitizer: Pager.write({page_id}) before the "
                    f"page's image record (LSN {lsn}) is durable in the "
                    f"log (flushed_lsn {pool._wal.flushed_lsn}); "
                    "WAL-before-data requires the log fsync to happen "
                    "first -- go through the pool, or sync the log")
        return original_write(self, page_id, data)

    BufferPool.__init__ = init
    BufferPool.get = get
    IOStats.snapshot = snapshot
    Pager.write = write
    # Every class registered so far, and each later one as its module
    # is imported (the serving tier usually loads after ``repro``).
    for cls in latch_module.watch_guarded(_install_class_descriptors):
        _install_class_descriptors(cls)
    latch_module.install_hooks(_on_acquire, _on_release)


def disable():
    """Remove the runtime checks and restore the original methods."""
    global _state
    if not _saved:
        return
    latch_module.clear_hooks()
    latch_module.watch_guarded(None)
    _remove_descriptors()
    BufferPool.__init__ = _saved.pop("pool_init")
    BufferPool.get = _saved.pop("pool_get")
    IOStats.snapshot = _saved.pop("stats_snapshot")
    Pager.write = _saved.pop("pager_write")
    _saved.clear()
    _state = None


@contextmanager
def sanitized():
    """Enable the sanitizer for a block, restoring the prior state after.

    Nested use is safe: if the sanitizer was already active, leaving the
    block keeps it active.
    """
    was_active = active()
    enable()
    try:
        yield
    finally:
        if not was_active:
            disable()
