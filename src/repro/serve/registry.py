"""Named index mounts: shared handles, leases, hot reload, health.

The :class:`IndexRegistry` owns every :class:`~repro.prix.index.PrixIndex`
a server answers queries from.  Handlers never hold a raw index
reference across a request; they take a *lease* (:meth:`IndexRegistry.lease`)
for the duration of one query, which pins the mounted generation --
a hot :meth:`reload` can swap in a new generation at any moment, and
the old one is only closed once its last lease is released.

The reload protocol (``docs/SERVING.md``):

1. the new generation is opened and scrubbed *outside* the registry
   latch (opening is slow; the latch is for pointer swaps only);
2. the mount table entry is swapped under ``serve-registry`` -- new
   queries lease the new generation from this instant;
3. the old generation is marked retired; when its lease count reaches
   zero its ``drained`` event fires and the reloader closes it.  A
   generation with live leases is *never* closed, so an in-flight query
   keeps byte-stable pages under its feet for its whole lifetime.

The engine processes (:mod:`repro.serve.engines`) hold handles of
their own on each generation: those they inherited when forked, and
those they opened from a mount's path for a later one.  Closing a
retired generation logs it (:meth:`IndexRegistry.closed_since`), and
each engine closes its handle when next told.

Health is cached per generation: mounting (or reloading) runs a full
:func:`repro.shard.scrub_index` sweep and stores the report's
canonical :meth:`~repro.storage.guard.ScrubReport.to_json` string --
``GET /healthz`` serves that cached verdict instead of rescanning the
file on every probe.  The verdict is fixed for the generation's life: a
page found bad later fails the queries that read it, and the guard
counts its quarantine in :meth:`IndexRegistry.stats`.

Concurrency: the mount table and each mount's lease count live behind
the registry's single ``serve-registry`` latch.  The latch ordering is
``serve-registry`` strictly before any storage latch (a leased query
acquires buffer-pool/io-stats latches while the lease exists, never
the other way around) and ``serve-registry`` is never held while
opening or closing an index.
"""

from __future__ import annotations

import json
import threading

from repro.serve.protocol import ProtocolError
from repro.shard import open_index, scrub_index
from repro.storage import Latch, guarded

#: How long a reload waits for the old generation's leases to drain
#: before giving up (queries are budgeted, so seconds suffice).
DEFAULT_DRAIN_TIMEOUT = 30.0


class ServeError(RuntimeError):
    """An operational serving failure (mount conflict, drain timeout).

    Distinct from :class:`~repro.serve.protocol.ProtocolError`: these are
    operator-facing conditions (bad configuration, a reload that cannot
    complete), not per-request rejections.
    """


@guarded
class _Mount:
    """One mounted index generation.

    ``index``, ``path``, ``generation``, ``opened`` -- every keyword
    :meth:`IndexRegistry.mount` was given, which a reload reopens with
    -- and ``health_json``, the scrub verdict cached when the generation
    was opened, are immutable after construction; the mutable
    lease/retire state is guarded by the owning registry's
    ``serve-registry`` latch (shared via ``_latch``).  No ``__slots__``:
    the sanitizer's guarded-field descriptors store through
    ``__dict__``.
    """

    #: Machine-readable guarded-field map (runtime sanitizer); the latch
    #: is the *registry's* -- every mount of a registry shares it.
    _GUARDED = {"leases": "_latch", "retired": "_latch"}

    def __init__(self, name, path, opened, generation, index,
                 health_json, registry_latch):
        self.name = name
        self.path = path
        self.opened = opened
        self.generation = generation
        self.index = index
        self.health_json = health_json
        self._latch = registry_latch
        with registry_latch:
            self.leases = 0
            self.retired = False
        self.drained = threading.Event()


@guarded
class IndexRegistry:
    """The server's mount table: name -> live index generation."""

    def __init__(self, drain_timeout=DEFAULT_DRAIN_TIMEOUT):
        self._latch = Latch("serve-registry")
        self._mounts = {}
        self._leaked = []
        self._closed = []       # (name, generation), in closing order
        self.drain_timeout = drain_timeout

    #: Field -> guarding latch, enforced by the runtime sanitizer.
    _GUARDED = {"_mounts": "_latch", "_leaked": "_latch",
                "_closed": "_latch"}

    def _open_generation(self, name, path, generation, opened):
        """Scrub ``path``, open it read-shared, build the mount record.

        The scrub runs *before* the open so the cached health verdict
        describes exactly the bytes this generation serves.  It creates
        no checksum sidecar: the open attaches a guard only where the
        index already has one.  ``opened`` holds the ``backend`` and
        ``pool_pages`` keywords of :meth:`mount`.

        ``path`` is whatever :func:`repro.shard.open_index` accepts.  A
        *shard directory* (``docs/SHARDING.md``) mounts like a file:
        the scrub sweeps every shard plus the manifest, every shard's
        backend uses ``opened``, and a reload re-reads the manifest --
        so a rebalance's new generation swaps in as one atomic hot
        reload.
        """
        report = scrub_index(path)
        index = open_index(path, **opened)
        return _Mount(name, path, opened, generation, index,
                      report.to_json(), self._latch)

    def mount(self, name, path, *, backend="mmap", pool_pages=None):
        """Open ``path`` and serve it as ``name``.

        ``backend`` is any :func:`repro.storage.open_backend` kind --
        ``"mmap"`` (the serving default), ``"file"`` or ``"arena"``.
        Mounting an already-mounted name is a :class:`ServeError`; use
        :meth:`reload` to replace a generation.
        """
        with self._latch:
            if name in self._mounts:
                raise ServeError(f"index {name!r} is already mounted; "
                                 "use reload to replace it")
        mount = self._open_generation(
            name, path, 1,
            {"backend": backend, "pool_pages": pool_pages})
        with self._latch:
            racer = name in self._mounts  # lost a mount race
            if not racer:
                self._mounts[name] = mount
        if racer:
            mount.index.close()
            raise ServeError(f"index {name!r} is already mounted; "
                             "use reload to replace it")
        return mount.generation

    def reload(self, name, timeout=None):
        """Hot-swap ``name`` to a fresh generation of its index file.

        Re-opens the mount's path (picking up a rebuilt index) exactly
        as :meth:`mount` was asked to open it, swaps it in atomically,
        then waits for the old generation's leases to
        drain before closing it.  Returns the new generation number.
        Unknown names raise ``KeyError`` (a typed ``not-found`` on the
        wire); a drain that exceeds ``timeout`` raises
        :class:`ServeError` -- the new generation stays live either way,
        and the stuck old generation is recorded in the :meth:`leaked`
        ledger (visible under ``/metrics``) until its last lease finally
        releases it, at which point :meth:`_release` closes it.
        """
        with self._latch:
            if name not in self._mounts:
                raise KeyError(f"no index mounted as {name!r}")
            old = self._mounts[name]
        fresh = self._open_generation(name, old.path, old.generation + 1,
                                      old.opened)
        with self._latch:
            self._mounts[name] = fresh
            old.retired = True
            idle = old.leases == 0
        if idle:
            old.drained.set()
        if timeout is None:
            timeout = self.drain_timeout
        if not old.drained.wait(timeout):
            with self._latch:
                # Re-check under the latch: the last lease may have
                # drained between the wait timing out and this instant,
                # in which case the old generation is safe to close now
                # rather than leak.
                stuck = old.leases > 0
                if stuck:
                    self._leaked.append(old)
            if not stuck:
                self._retire(old)
                return fresh.generation
            raise ServeError(
                f"reload of {name!r}: generation {old.generation} still "
                f"has leases after {timeout:.1f}s; it stays open and "
                "leaks until its queries finish")
        self._retire(old)
        return fresh.generation

    def _retire(self, mount):
        """Close a drained generation and log it for the engine
        processes, which close their own handles on it when told
        (:meth:`closed_since`)."""
        mount.index.close()
        with self._latch:
            self._closed.append((mount.name, mount.generation))

    def closed_since(self, count):
        """``(name, generation)`` of every generation retired after the
        first ``count`` (what an engine told ``count`` has yet to close)."""
        with self._latch:
            return self._closed[count:]

    def handles(self):
        """``(name, generation) -> index`` for every open generation:
        what a forked engine process inherits."""
        with self._latch:
            mounts = [*self._mounts.values(), *self._leaked]
        return {(mount.name, mount.generation): mount.index
                for mount in mounts}

    def lease(self, name):
        """Pin the current generation of ``name`` for one query.

        Returns a context manager yielding the :class:`_Mount`; the
        mounted index cannot be closed by a concurrent reload until the
        ``with`` block exits.  Unknown names raise a typed
        ``not-found`` :class:`~repro.serve.protocol.ProtocolError`.
        """
        with self._latch:
            mount = self._mounts.get(name)
            if mount is None:
                raise ProtocolError(
                    "not-found",
                    f"no index mounted as {name!r}; mounted: "
                    f"{', '.join(sorted(self._mounts)) or '(none)'}")
            mount.leases += 1
        return _Lease(self, mount)

    def _release(self, mount):
        """Return one lease; the last release of a leaked generation
        also closes it (the reload that retired it already gave up
        waiting, so nobody else will).
        """
        with self._latch:
            mount.leases -= 1
            fire = mount.retired and mount.leases == 0
            reap = fire and mount in self._leaked
            if reap:
                self._leaked.remove(mount)
        if fire:
            mount.drained.set()
        if reap:
            self._retire(mount)

    def leaked(self):
        """JSON-ready ledger of generations stuck past their reload's
        drain timeout (merged into ``GET /metrics``)."""
        with self._latch:
            return [{"name": mount.name,
                     "generation": mount.generation,
                     "leases": mount.leases}
                    for mount in self._leaked]

    def describe(self):
        """JSON-ready mount table (the ``GET /indexes`` body)."""
        with self._latch:
            mounts = sorted(self._mounts.items())
            out = {name: {"path": mount.path,
                          "backend": mount.opened["backend"],
                          "generation": mount.generation,
                          "leases": mount.leases}
                   for name, mount in mounts}
        for name, mount in mounts:
            # Summaries read storage counters: outside the latch.
            summary = mount.index.summary()
            if "shard_count" in summary:
                out[name]["shards"] = summary["shard_count"]
        return out

    def health(self):
        """Cached per-mount scrub verdicts (the ``GET /healthz`` body).

        Each mount's ``scrub`` entry is the parsed form of the exact
        :meth:`~repro.storage.guard.ScrubReport.to_json` string cached
        when its generation was opened -- the same serializer ``prix
        scrub --json`` prints, so the two surfaces cannot drift.
        """
        with self._latch:
            rows = [(name, mount.generation, mount.health_json)
                    for name, mount in sorted(self._mounts.items())]
        out = {}
        for name, generation, health_json in rows:
            scrub = json.loads(health_json)
            out[name] = {
                "generation": generation,
                "healthy": (scrub["catalog_ok"]
                            and not scrub["pages_corrupt"]),
                "scrub": scrub,
            }
        return out

    def stats(self):
        """Per-mount IOStats snapshots (merged into ``GET /metrics``)."""
        with self._latch:
            mounts = dict(self._mounts)
        out = {}
        for name, mount in sorted(mounts.items()):
            snap = mount.index.io_stats.snapshot()
            row = {
                "physical_reads": snap.physical_reads,
                "logical_reads": snap.logical_reads,
                "evictions": snap.evictions,
                "guard_verifications": snap.guard_verifications,
                "guard_repairs": snap.guard_repairs,
                "guard_quarantines": snap.guard_quarantines,
            }
            # A shard set's summary breaks the totals down per shard so
            # the metrics endpoint shows scatter skew, not just sums.
            summary = mount.index.summary()
            row.update((key, summary[key]) for key in ("shards", "scatter")
                       if key in summary)
            out[name] = row
        return out

    def close_all(self):
        """Close every mount (shutdown path; callers drain first)."""
        with self._latch:
            mounts = list(self._mounts.values()) + list(self._leaked)
            self._mounts = {}
            self._leaked = []
        for mount in mounts:
            mount.index.close()


class _Lease(object):
    """Context manager pinning one mount for one query."""

    __slots__ = ("_registry", "mount")

    def __init__(self, registry, mount):
        self._registry = registry
        self.mount = mount

    def __enter__(self):
        return self.mount

    def __exit__(self, *exc):
        self._registry._release(self.mount)
        return False
