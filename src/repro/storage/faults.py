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

The *live* read-fault model of the serving tier lives beside the tests
that drive it (``tests/chaos_backend.py``; ``docs/ROBUSTNESS.md``,
"Chaos & resilience").
"""

from __future__ import annotations

import hashlib
import io


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
