"""Deterministic crash and fault injection for the storage engine.

The recovery guarantees in :mod:`repro.storage.recovery` are only as
good as the crash model they were tested under.  This module supplies
that model:

- :class:`FaultyFile` is a self-contained in-memory file that separates
  the bytes the *process* wrote (``volatile``, the OS page cache) from
  the bytes that survive a crash (``durable``, the platter).  ``write``
  lands in volatile; ``fsync`` copies volatile to durable; a simulated
  crash throws the volatile state away.  Reads see volatile, exactly as
  a live process does.
- :class:`FaultSchedule` decides, from a seed and a global operation
  counter shared by every file in the run, *where* the crash lands and
  *how*: a clean crash before the write, a torn write that persists only
  a seeded-random prefix, a crash just after, or a crash at an fsync.
  The same seed also silently drops a deterministic subset of fsyncs
  (the barrier succeeds from the caller's view but moves nothing to the
  platter), modelling disks that lie -- recovery must then fall back to
  an older committed prefix rather than corrupt the index.
- :class:`CrashPoint` is the exception a simulated crash raises through
  the engine; the crash-matrix harness catches it, discards every
  volatile byte, and reopens from the durable images alone.

Determinism is the point: a failing ``(seed, crash_at)`` pair is a
complete reproduction recipe, which is what the CI crash-matrix job
uploads on failure.

Two honesty boundaries are deliberate (see ``docs/DURABILITY.md``):
the *log's* fsync is never dropped (a lying barrier under the WAL
falsifies the durability watermark itself, which no redo-only design
survives), and log truncation at a checkpoint trusts the data-file
fsync that precedes it -- so dropped-fsync injection targets data-file
traffic during builds and inserts, exactly what the matrix crashes.

Beyond crashes, the module also supplies the *live* fault model for the
serving tier (``docs/ROBUSTNESS.md``, "Chaos & resilience"):
:class:`ChaosBackend` wraps a :class:`~repro.storage.backend.
FilePagerBackend` and injects seeded, schedule-driven read faults --
transient errors, latency, checksum-corrupting reads that exercise the
guard's read-repair/quarantine machinery, and fail-then-heal windows --
while delegating every mutation untouched.  Like :class:`FaultSchedule`,
a :class:`ChaosConfig` is a complete reproduction recipe.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import asdict, dataclass

from repro.storage.errors import (PageCorruptionError,
                                  TransientStorageError)
from repro.storage.latch import Latch, guarded


class CrashPoint(Exception):
    """A simulated crash: the process loses every non-fsynced byte."""

    def __init__(self, op_index, kind, name):
        super().__init__(
            f"injected crash at IO op {op_index} ({kind} on {name})")
        self.op_index = op_index
        self.kind = kind
        self.name = name


#: Crash kinds a schedule can inject at a write.
KIND_BEFORE_WRITE = "crash-before-write"
KIND_TORN_WRITE = "torn-write"
KIND_AFTER_WRITE = "crash-after-write"
KIND_AT_FSYNC = "crash-at-fsync"
KIND_DROPPED_FSYNC = "dropped-fsync"


def _mix(seed, op_index, salt):
    """Deterministic 64-bit hash of (seed, op, salt); no global RNG."""
    digest = hashlib.sha256(
        f"{seed}:{op_index}:{salt}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultSchedule:
    """Seeded decisions over a shared, monotonically counted op stream.

    Every durable-relevant operation (each ``write``, each ``fsync``) on
    every :class:`FaultyFile` sharing this schedule consumes one index
    from the counter.  ``crash_at`` selects the op that crashes (None
    records the run without crashing, which is how the harness measures
    how many injection points an operation has); the seed chooses the
    crash flavour and which fsyncs are silently dropped.
    """

    #: One in this many fsyncs is silently dropped (seed-selected).
    DROP_FSYNC_PERIOD = 5

    def __init__(self, seed, crash_at=None, drop_fsyncs=True):
        self.seed = seed
        self.crash_at = crash_at
        self.drop_fsyncs = drop_fsyncs
        self.ops = 0
        self.crashed = None   # the CrashPoint raised, once raised

    def next_op(self):
        """Claim the next operation index."""
        index = self.ops
        self.ops += 1
        return index

    def write_fault(self, op_index):
        """Crash kind for write op ``op_index``, or None to proceed."""
        if op_index != self.crash_at:
            return None
        choice = _mix(self.seed, op_index, "write-kind") % 3
        return (KIND_BEFORE_WRITE, KIND_TORN_WRITE,
                KIND_AFTER_WRITE)[choice]

    def torn_length(self, op_index, total):
        """How many bytes of a torn write reach the volatile image."""
        if total <= 1:
            return 0
        return _mix(self.seed, op_index, "torn-len") % total

    def fsync_fault(self, op_index, droppable=True):
        """Fault for fsync op ``op_index``: crash, drop, or None.

        ``droppable`` is False for the log file: a lying fsync under the
        WAL pulls the durability watermark itself out from under the
        engine, which no redo-only design survives (the same barrier
        PostgreSQL must trust).  Data-file fsyncs *are* droppable --
        every committed image stays in the log until a checkpoint, so
        recovery redoes whatever the data fsync silently lost.
        """
        if op_index == self.crash_at:
            return KIND_AT_FSYNC
        if (droppable and self.drop_fsyncs
                and _mix(self.seed, op_index, "drop") %
                self.DROP_FSYNC_PERIOD == 0):
            return KIND_DROPPED_FSYNC
        return None

    def crash(self, op_index, kind, name):
        """Raise (and remember) the injected crash."""
        self.crashed = CrashPoint(op_index, kind, name)
        raise self.crashed

    def describe(self):
        """JSON-ready reproduction recipe for this schedule."""
        return {"seed": self.seed, "crash_at": self.crash_at,
                "drop_fsyncs": self.drop_fsyncs, "ops_seen": self.ops}


#: At-rest corruption kinds the injector can apply to a durable image.
KIND_BIT_FLIP = "bit-flip"
KIND_ZERO_PAGE = "zero-page"
KIND_MISDIRECTED_WRITE = "misdirected-write"

CORRUPTION_KINDS = (KIND_BIT_FLIP, KIND_ZERO_PAGE, KIND_MISDIRECTED_WRITE)


def corruption_plan(seed, point, num_pages, page_size):
    """Seeded decision of *what* corruption lands *where*.

    ``point`` plays the role ``crash_at`` plays for crashes: sweeping it
    enumerates distinct corruptions under one seed.  Returns a dict
    describing the corruption (a JSON-ready reproduction recipe, like
    :meth:`FaultSchedule.describe`), or None when the file has no pages.
    """
    if num_pages <= 0:
        return None
    kind = CORRUPTION_KINDS[_mix(seed, point, "corrupt-kind")
                            % len(CORRUPTION_KINDS)]
    page_id = _mix(seed, point, "corrupt-page") % num_pages
    plan = {"seed": seed, "point": point, "kind": kind, "page": page_id}
    if kind == KIND_BIT_FLIP:
        plan["byte"] = _mix(seed, point, "corrupt-byte") % page_size
        plan["bit"] = _mix(seed, point, "corrupt-bit") % 8
    elif kind == KIND_MISDIRECTED_WRITE:
        if num_pages == 1:
            # Nowhere to misdirect from; degrade to zeroing the page.
            plan["kind"] = KIND_ZERO_PAGE
        else:
            source = _mix(seed, point, "corrupt-source") % num_pages
            if source == page_id:
                source = (source + 1) % num_pages
            plan["source"] = source
    return plan


def inject_corruption(data, page_size, seed, point):
    """Deterministically corrupt one page of an at-rest page image.

    Models the failures the checksum guard exists to catch: a flipped
    bit (media rot), a zeroed page (a lost write over a trimmed block),
    or a misdirected write (another page's intact image landing at the
    wrong offset -- the case a payload-only checksum would miss, see
    :func:`repro.storage.codec.page_checksum`).  Returns
    ``(corrupted_bytes, plan)`` where ``plan`` is the recipe from
    :func:`corruption_plan` (None, with the data unchanged, for an empty
    file).
    """
    plan = corruption_plan(seed, point, len(data) // page_size, page_size)
    if plan is None:
        return bytes(data), None
    data = bytearray(data)
    start = plan["page"] * page_size
    if plan["kind"] == KIND_BIT_FLIP:
        data[start + plan["byte"]] ^= 1 << plan["bit"]
    elif plan["kind"] == KIND_ZERO_PAGE:
        data[start:start + page_size] = b"\x00" * page_size
    else:
        source = plan["source"] * page_size
        data[start:start + page_size] = data[source:source + page_size]
    return bytes(data), plan


class FaultyFile:
    """In-memory file with a volatile/durable split and fault hooks.

    Implements the file-object surface the :class:`Pager` and
    :class:`WriteAheadLog` use (``read``/``write``/``seek``/``tell``/
    ``flush``/``truncate``/``close``) plus ``fsync``, which
    :func:`repro.storage.pager.fsync_file` prefers over ``os.fsync``
    when present.  After a crash, :meth:`durable_bytes` is what a fresh
    process would find on disk.
    """

    def __init__(self, schedule, name="file", droppable_fsync=True):
        self._schedule = schedule
        self.name = name
        self.droppable_fsync = droppable_fsync
        self._volatile = bytearray()
        self._durable = b""
        self._pos = 0
        self._closed = False

    # -- file protocol -------------------------------------------------

    def seek(self, offset, whence=0):
        if whence == 0:
            self._pos = offset
        elif whence == 1:
            self._pos += offset
        elif whence == 2:
            self._pos = len(self._volatile) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if self._pos < 0:
            raise ValueError("negative seek position")
        return self._pos

    def tell(self):
        return self._pos

    def read(self, size=-1):
        end = (len(self._volatile) if size is None or size < 0
               else min(self._pos + size, len(self._volatile)))
        data = bytes(self._volatile[self._pos:end])
        self._pos = end
        return data

    def write(self, data):
        data = bytes(data)
        op = self._schedule.next_op()
        kind = self._schedule.write_fault(op)
        if kind == KIND_BEFORE_WRITE:
            self._schedule.crash(op, kind, self.name)
        if kind == KIND_TORN_WRITE:
            keep = self._schedule.torn_length(op, len(data))
            self._apply(data[:keep])
            self._schedule.crash(op, kind, self.name)
        self._apply(data)
        if kind == KIND_AFTER_WRITE:
            self._schedule.crash(op, kind, self.name)
        return len(data)

    def _apply(self, data):
        end = self._pos + len(data)
        if end > len(self._volatile):
            self._volatile.extend(
                b"\x00" * (end - len(self._volatile)))
        self._volatile[self._pos:end] = data
        self._pos = end

    def truncate(self, size=None):
        if size is None:
            size = self._pos
        del self._volatile[size:]
        return size

    def flush(self):
        """A libc-level flush: no durability implied (the OS still has
        the bytes), so no op is consumed and no fault can land here."""

    def fsync(self):
        """The durability barrier (called via ``fsync_file``)."""
        op = self._schedule.next_op()
        kind = self._schedule.fsync_fault(op, self.droppable_fsync)
        if kind == KIND_AT_FSYNC:
            self._schedule.crash(op, kind, self.name)
        if kind == KIND_DROPPED_FSYNC:
            return
        self._durable = bytes(self._volatile)

    def close(self):
        self._closed = True

    @property
    def closed(self):
        return self._closed

    # -- harness side --------------------------------------------------

    @classmethod
    def from_bytes(cls, schedule, data, name="file", droppable_fsync=True):
        """A file whose volatile *and* durable state start as ``data``.

        Models reopening a file that survived an earlier crash: the
        bytes are already on the platter, so seeding them consumes no
        operations from the schedule.
        """
        faulty = cls(schedule, name=name, droppable_fsync=droppable_fsync)
        faulty._volatile = bytearray(data)
        faulty._durable = bytes(data)
        return faulty

    def durable_bytes(self):
        """The bytes a post-crash reopen would find."""
        return self._durable

    def reopen_durable(self):
        """A plain ``BytesIO`` over the durable image (post-crash view)."""
        return io.BytesIO(self._durable)


# ----------------------------------------------------------------------
# Live chaos injection at the backend seam
# ----------------------------------------------------------------------

#: Fault kinds a chaos schedule can inject at a read.
KIND_READ_ERROR = "read-error"
KIND_READ_LATENCY = "read-latency"
KIND_CORRUPT_READ = "corrupt-read"
KIND_FAIL_WINDOW = "fail-window"

CHAOS_KINDS = (KIND_READ_ERROR, KIND_READ_LATENCY, KIND_CORRUPT_READ,
               KIND_FAIL_WINDOW)


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded live-fault mix (a complete reproduction recipe).

    Each ``*_period`` is a mean: read op ``i`` injects that fault when
    ``hash(seed, i) % period == 0`` (None disables the fault entirely),
    so two runs with the same config fault the same positions of the
    per-backend op stream.  ``fail_first`` models fail-then-heal: the
    first N read ops after arming all raise
    :class:`~repro.storage.errors.TransientStorageError`, after which
    the backend is healthy again (modulo the periodic faults).
    """

    seed: int
    read_error_period: int | None = None
    latency_period: int | None = None
    latency_ms: float = 1.0
    corrupt_period: int | None = None
    fail_first: int = 0

    def as_dict(self):
        """JSON-ready form (the replay recipe CI artifacts embed)."""
        return asdict(self)


class ChaosSchedule:
    """Seeded fault decisions over a monotone read-op counter.

    The live twin of :class:`FaultSchedule`: every injectable read on
    the owning :class:`ChaosBackend` claims one index from ``ops`` and
    :meth:`decide` maps it to a fault kind (or None) purely from
    ``(config.seed, op_index)``.  The schedule itself holds no lock --
    the backend claims indexes under its own latch, the same external-
    synchronization discipline :class:`FaultSchedule` relies on.
    """

    def __init__(self, config):
        self.config = config
        self.ops = 0
        self.injected = {kind: 0 for kind in CHAOS_KINDS}

    def next_op(self):
        """Claim the next read-operation index."""
        index = self.ops
        self.ops += 1
        return index

    def decide(self, op_index):
        """Fault kind for read op ``op_index``, or None to proceed.

        Corruption outranks the transient error, which outranks latency,
        so a single op never stacks faults and the counts stay
        attributable to one kind each.
        """
        config = self.config
        if op_index < config.fail_first:
            return KIND_FAIL_WINDOW
        if (config.corrupt_period and _mix(
                config.seed, op_index,
                "chaos-corrupt") % config.corrupt_period == 0):
            return KIND_CORRUPT_READ
        if (config.read_error_period and _mix(
                config.seed, op_index,
                "chaos-error") % config.read_error_period == 0):
            return KIND_READ_ERROR
        if (config.latency_period and _mix(
                config.seed, op_index,
                "chaos-latency") % config.latency_period == 0):
            return KIND_READ_LATENCY
        return None

    def corrupt_bit(self, op_index, page_size):
        """Which bit of the page image a corrupt-read flips."""
        return _mix(self.config.seed, op_index,
                    "chaos-bit") % (page_size * 8)

    def record(self, kind):
        """Count one injected fault of ``kind``."""
        self.injected[kind] += 1

    def describe(self):
        """JSON-ready reproduction recipe plus injection counts."""
        return {"config": self.config.as_dict(), "ops_seen": self.ops,
                "injected": dict(self.injected)}


@guarded
class ChaosBackend:
    """A backend wrapper that injects seeded read faults.

    Wraps any backend and perturbs only the *read* path (``get`` and
    ``get_decoded``); every mutation, lifecycle and
    accounting member reaches the wrapped backend untouched through
    ``__getattr__``, so with no faults due the wrapped backend behaves
    identically -- and with chaos disabled
    entirely (no wrapper) the "Disk IO pages" accounting is byte-for-
    byte the unwrapped backend's.

    Fault semantics (all decided by the :class:`ChaosSchedule`):

    - ``read-error`` / the ``fail-first`` window raise
      :class:`~repro.storage.errors.TransientStorageError` -- the
      caller's retry is expected to succeed.
    - ``read-latency`` sleeps ``config.latency_ms`` and proceeds.
    - ``corrupt-read`` feeds a bit-flipped copy of the true page image
      through the attached guard's :meth:`~repro.storage.guard.
      PageGuard.admit` -- the PR 4 read-repair path.  With a committed
      WAL image the guard repairs and the read succeeds; without one
      the guard quarantines and raises
      :class:`~repro.storage.errors.PageCorruptionError`, and because
      the quarantine is synthetic (the durable bytes are intact) the
      backend immediately heals it with a stamp of the true image so
      later reads recover.  On an unguarded or unstamped page the fault
      downgrades to a transient error.

    Concurrency: the op counter, armed flag and corrupt-read injection
    are serialized under the backend's own ``chaos-backend`` latch
    (corrupt-reads write the guard sidecar, which is not internally
    latched); transient raises and latency sleeps happen outside it.
    The latch orders strictly before the storage latches the inner
    backend takes (``chaos-backend`` -> ``buffer-pool``/``io-stats``),
    and nothing below storage ever calls back into the wrapper.
    """

    kind = "chaos"

    def __init__(self, inner, config, armed=True):
        self._inner = inner
        self._config = config
        self._schedule = ChaosSchedule(config)
        self._latch = Latch("chaos-backend")
        self._armed = bool(armed)

    #: Field -> guarding latch; the runtime sanitizer installs
    #: guarded-access assertions from this mapping once the object is
    #: shared between threads.
    _GUARDED = {"_armed": "_latch"}

    # -- chaos controls ------------------------------------------------

    def set_armed(self, armed):
        """Enable or disable injection.  A test harness wraps a backend
        disarmed and arms it once the index is attached, so faults
        target live query traffic, not the catalog."""
        with self._latch:
            self._armed = bool(armed)

    def chaos_describe(self):
        """JSON-ready replay recipe plus live injection counts."""
        with self._latch:
            recipe = self._schedule.describe()
            recipe["armed"] = self._armed
        return recipe

    def _chaos_read(self, page_id, op_name):
        """Claim one read op and inject whatever fault it drew."""
        with self._latch:
            if not self._armed:
                return
            op = self._schedule.next_op()
            fault = self._schedule.decide(op)
            if fault is None:
                return
            self._schedule.record(fault)
            if fault == KIND_CORRUPT_READ:
                # Still latched: corrupt-reads stamp the guard sidecar,
                # whose file handle is not internally latched.
                self._corrupt_read(op, page_id, op_name)
                return
        if fault == KIND_READ_LATENCY:
            time.sleep(self._config.latency_ms / 1000.0)
            return
        raise TransientStorageError(
            f"injected {fault} at read op {op} ({op_name} of page "
            f"{page_id}, seed {self._config.seed})")

    def _corrupt_read(self, op_index, page_id, op_name):
        """Feed a bit-flipped image through the guard's admit path."""
        inner = self._inner
        page_guard = inner.guard
        true_image = bytes(inner.get(page_id))
        if page_guard is None or not page_guard.is_stamped(page_id):
            raise TransientStorageError(
                f"injected corrupt-read at read op {op_index} "
                f"({op_name} of page {page_id}) downgraded to a "
                "transient error: the page carries no checksum stamp")
        corrupted = bytearray(true_image)
        bit = self._schedule.corrupt_bit(op_index, len(corrupted))
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            # Reach-through to the inner pager is deliberate: admit()
            # needs the repair-write target, and the wrapper must never
            # count its injections as page traffic.
            page_guard.admit(page_id, bytes(corrupted), inner._pager)
        except PageCorruptionError:
            # No committed WAL image covered the page, so the guard
            # quarantined it.  The quarantine is synthetic -- the
            # durable bytes are intact -- so heal it before re-raising
            # and later reads see a healthy page again.
            page_guard.stamp(page_id, true_image)
            raise
        # admit() succeeded: the guard repaired the image from the WAL
        # (read-repair); the durable bytes were never wrong.

    # -- reads (injection points) --------------------------------------

    def get(self, page_id):
        """Read a page image, possibly through an injected fault."""
        self._chaos_read(page_id, "get")
        return self._inner.get(page_id)

    def get_decoded(self, page_id, decoder):
        """Decoded read, possibly through an injected fault."""
        self._chaos_read(page_id, "get_decoded")
        return self._inner.get_decoded(page_id, decoder)

    # -- everything else -----------------------------------------------

    # ``with`` looks these up on the type, past ``__getattr__``.
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        """Delegate every member not defined above to the wrapped
        backend, so the wrapper tracks the protocol without a
        hand-written forwarder per member (refusals such as a read-only
        backend's ``put`` surface unchanged)."""
        if name == "_inner":  # a half-built copy: fail, do not recurse
            raise AttributeError(name)
        return getattr(self._inner, name)
