"""Named re-entrant latches for the storage layer.

A :class:`Latch` is a :class:`threading.RLock` (the C ``_thread.RLock``)
with the two things the concurrency tooling needs and a raw lock cannot
provide:

- a **role name** (``"buffer-pool"``, ``"pager-io"``, ``"io-stats"``),
  which is the unit the lock-order discipline is defined over -- two
  pools each have their own latch object, but both play the
  ``"buffer-pool"`` role and must sit at the same position in the
  acquisition order (``docs/CONCURRENCY.md``);
- **observability**: the runtime sanitizer installs process-wide hooks
  (:func:`install_hooks`) that see every acquire and release, which is
  how ``PRIX_SANITIZE=1`` maintains per-thread held-latch stacks and the
  dynamic acquisition-order graph.  A C type's methods cannot be
  monkeypatched, so the hooks swap ``Latch``'s own ``__enter__`` and
  ``__exit__`` in, and :func:`clear_hooks` takes them out again.

A class whose fields a latch protects says so where the latch lives: it
declares a ``_GUARDED`` field -> latch-attribute map and is decorated
with :func:`guarded`, the one registration point the sanitizer reads
(:func:`watch_guarded`) -- so a layer above storage never has to import
the analysis package to be checked by it.

Without the sanitizer ``with latch:`` runs the lock's C ``__enter__``
and ``__exit__``: no Python frame, the cost of a bare ``RLock``.  Every
page hit takes two latches, so the storage layer can use them
unconditionally.  A latch is taken only by ``with latch:`` -- there is
no bare acquire or release -- so it is released on every path by
construction.
"""

from __future__ import annotations

from _thread import RLock

#: ``(on_acquire, on_release)`` installed by the runtime sanitizer, or
#: ``None``.  Read once per operation so a concurrent ``clear_hooks``
#: cannot tear the pair.
_hooks = None


def install_hooks(on_acquire, on_release):
    """Install process-wide latch observers (sanitizer use only).

    ``on_acquire(latch)`` runs *before* the lock is taken -- so an
    ordering violation can be raised without first deadlocking -- and
    ``on_release(latch)`` runs just before the lock is dropped, while
    the calling thread still owns it.
    """
    global _hooks
    _hooks = (on_acquire, on_release)
    Latch.__enter__ = _hooked_enter
    Latch.__exit__ = _hooked_exit


def clear_hooks():
    """Remove the latch observers: ``with latch:`` is the bare lock's
    again."""
    global _hooks
    _hooks = None
    Latch.__enter__ = RLock.__enter__
    Latch.__exit__ = RLock.__exit__


#: Every class registered by :func:`guarded`, in definition order.
_guarded_classes = []

#: Called with each class registered while the sanitizer is enabled.
_guarded_observer = None


def guarded(cls):
    """Class decorator: opt ``cls._GUARDED`` into the runtime
    sanitizer's guarded-field enforcement (``docs/CONCURRENCY.md``)."""
    _guarded_classes.append(cls)
    if _guarded_observer is not None:
        _guarded_observer(cls)
    return cls


def watch_guarded(observer):
    """Return the classes registered so far and have ``observer`` (or
    nothing, with None) called with each one registered from now on
    (sanitizer use only)."""
    global _guarded_observer
    _guarded_observer = observer
    return tuple(_guarded_classes)


class Latch(RLock):
    """A named, re-entrant mutual-exclusion latch, held by ``with``."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def owned(self):
        """Whether the calling thread currently holds this latch."""
        return self._is_owned()

    def __repr__(self):
        return f"<Latch {self.name!r}>"


def _hooked_enter(latch):
    hooks = _hooks
    if hooks is not None:
        hooks[0](latch)
    return latch.acquire()      # what the C ``__enter__`` returns


def _hooked_exit(latch, *exc):
    hooks = _hooks
    if hooks is not None:
        hooks[1](latch)
    latch.release()
    return False
