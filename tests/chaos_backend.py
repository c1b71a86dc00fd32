"""Live read-fault injection at the storage backend seam, for tests.

:class:`ChaosBackend` wraps a :class:`~repro.storage.backend.
FilePagerBackend` and injects seeded, schedule-driven read faults --
transient errors, latency, checksum-corrupting reads that exercise the
guard's read-repair/quarantine machinery, and fail-then-heal windows --
while delegating every mutation untouched (``docs/ROBUSTNESS.md``,
"Chaos & resilience").  Like the crash half's
:class:`~repro.storage.faults.FaultSchedule`, a :class:`ChaosConfig` is
a complete reproduction recipe.  Only tests construct these, through
:class:`helpers.ChaosOpens`; no product signature takes a chaos
argument.
"""

import time
from dataclasses import asdict, dataclass

from repro.storage.errors import PageCorruptionError, TransientStorageError
from repro.storage.faults import _mix
from repro.storage.latch import Latch, guarded

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
      PageGuard.admit` -- the guard's read-repair path.  With a committed
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
