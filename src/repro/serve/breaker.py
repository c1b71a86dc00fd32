"""Per-mount circuit breaking for the serving tier.

A mount whose reads keep failing -- corrupt pages, a sick disk, an
injected chaos storm -- should stop burning admission slots and buffer
pool work on requests that are going to fail anyway.  The
:class:`CircuitBreaker` tracks consecutive *infrastructure* failures
(protocol codes ``corruption`` and ``internal``; admission rejections
and caller mistakes never count) per mount name and walks the classic
three-state machine (``docs/ROBUSTNESS.md``, "Chaos & resilience"):

- **closed** -- normal operation.  ``threshold`` consecutive tripping
  errors open the circuit.
- **open** -- every request is rejected up front with a typed
  ``circuit-open`` (HTTP 503) whose ``Retry-After`` is the remaining
  cooldown.  After ``cooldown_seconds`` the next request becomes the
  half-open probe.
- **half-open** -- exactly one probe runs; concurrent requests keep
  getting ``circuit-open``.  A successful probe *re-scrubs the mount*
  (:meth:`~repro.serve.registry.IndexRegistry.rescrub`) before closing
  -- a circuit that opened on corruption must not close on one lucky
  read -- and reopens if the scrub finds damage.  A failed probe
  reopens for another cooldown.

Concurrency: all breaker state lives behind the object's own
``serve-circuit`` latch -- a leaf like ``serve-metrics``, held for
state transitions only, never across a probe, a scrub, or any storage
call.  The ``on_event`` callback (wired to
:meth:`ServerMetrics.record_event`) and the ``rescrub`` callable are
always invoked *outside* the latch so ``serve-circuit`` never nests
with another serve latch.  ``clock`` is injectable so cooldown
behaviour is deterministic under test.
"""

from __future__ import annotations

import math
import time

from repro.serve.protocol import ProtocolError, error_for_exception
from repro.storage import Latch, guarded

#: Consecutive tripping errors that open a closed circuit.
DEFAULT_FAILURE_THRESHOLD = 5

#: Seconds an open circuit rejects before admitting a half-open probe.
DEFAULT_COOLDOWN_SECONDS = 2.0

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Protocol error codes that count toward opening the circuit: mount
#: infrastructure failures, not caller mistakes or admission pushback.
TRIPPING_CODES = frozenset({"corruption", "internal"})


@guarded
class _Circuit:
    """Mutable per-mount breaker state; guarded by the owning
    :class:`CircuitBreaker`'s ``serve-circuit`` latch (shared, so one
    latch orders every transition against every other).  No
    ``__slots__``: the ``PRIX_SANITIZE=1`` guarded-field descriptors
    store through the instance ``__dict__``."""

    #: Field -> guarding latch, enforced by the runtime sanitizer.
    _GUARDED = {"state": "_latch", "failures": "_latch",
                "opened_until": "_latch", "probing": "_latch",
                "opened_total": "_latch"}

    def __init__(self, latch):
        self._latch = latch
        self.state = STATE_CLOSED
        self.failures = 0
        self.opened_until = 0.0
        self.probing = False
        self.opened_total = 0

    def as_dict(self):  # caller holds _latch
        return {"state": self.state,
                "consecutive_failures": self.failures,
                "opened_total": self.opened_total}


@guarded
class CircuitBreaker:
    """Track per-mount failure streaks; gate requests when a mount is
    sick."""

    def __init__(self, threshold=DEFAULT_FAILURE_THRESHOLD,
                 cooldown_seconds=DEFAULT_COOLDOWN_SECONDS,
                 clock=time.monotonic, on_event=None):
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._on_event = on_event
        self._latch = Latch("serve-circuit")
        self._circuits = {}

    #: Field -> guarding latch; the runtime sanitizer installs
    #: guarded-access assertions from this mapping once the object is
    #: shared between threads.
    _GUARDED = {"_circuits": "_latch"}

    def _emit(self, events):
        """Fire ``on_event`` for each transition, outside the latch."""
        if self._on_event is not None:
            for event in events:
                self._on_event(event)

    def _circuit(self, name):
        """The (created-on-first-use) circuit for mount ``name``."""
        with self._latch:
            circuit = self._circuits.get(name)
        if circuit is None:
            fresh = _Circuit(self._latch)
            with self._latch:
                circuit = self._circuits.setdefault(name, fresh)
        return circuit

    def allow(self, name):
        """Gate one request against mount ``name``'s circuit.

        Returns True when this request is the half-open probe (the
        caller must report its outcome via :meth:`record` with
        ``probe=True``), False for a normal closed-circuit request.
        Raises a typed ``circuit-open`` :class:`ProtocolError` -- with
        the remaining cooldown as ``Retry-After`` -- while the circuit
        is open or another probe is in flight.
        """
        circuit = self._circuit(name)
        now = self._clock()
        events = []
        try:
            with self._latch:
                if circuit.state == STATE_CLOSED:
                    return False
                if circuit.state == STATE_OPEN:
                    if now < circuit.opened_until:
                        remaining = circuit.opened_until - now
                        raise ProtocolError(
                            "circuit-open",
                            f"index {name!r}: circuit opened after "
                            f"{circuit.failures} consecutive failures; "
                            f"half-open probe in {remaining:.2f}s",
                            retry_after=max(1, math.ceil(remaining)))
                    circuit.state = STATE_HALF_OPEN
                    circuit.probing = True
                    events.append("circuit-half-open")
                    return True
                # Half-open: one probe at a time.
                if circuit.probing:
                    raise ProtocolError(
                        "circuit-open",
                        f"index {name!r}: a half-open probe is already "
                        "in flight; retry shortly",
                        retry_after=1)
                circuit.probing = True
                events.append("circuit-half-open")
                return True
        finally:
            self._emit(events)

    def record(self, name, *, probe, error=None, rescrub=None):
        """Report one finished request against mount ``name``.

        ``error`` is the exception the request died with (None for
        success); its protocol code decides whether it *trips* the
        breaker (``corruption``/``internal``), counts as success, or is
        neutral (admission pushback, bad requests -- the probe slot is
        returned but the streak is untouched).  ``probe`` must be the
        value :meth:`allow` returned for this request.  ``rescrub`` is
        the health check a successful probe must pass before the
        circuit closes -- a callable returning True for healthy, run
        outside the latch (it sweeps the whole mount).

        The declared effects cover ``rescrub``'s scrub sweep, which the
        static inference cannot see through the callable.
        """
        code = None if error is None else error_for_exception(error).code
        now = self._clock()
        events = []
        run_rescrub = False
        with self._latch:
            circuit = self._circuits.get(name)
            if circuit is None:
                return
            if error is None:
                if probe:
                    run_rescrub = True
                elif circuit.state == STATE_CLOSED:
                    circuit.failures = 0
            elif code in TRIPPING_CODES:
                circuit.failures += 1
                if probe or (circuit.state == STATE_CLOSED
                             and circuit.failures >= self.threshold):
                    circuit.state = STATE_OPEN
                    circuit.probing = False
                    circuit.opened_until = now + self.cooldown_seconds
                    circuit.opened_total += 1
                    events.append("circuit-open")
            elif probe:
                # Neutral outcome (e.g. budget-exhausted): the probe
                # proved nothing either way; hand the slot back.
                circuit.probing = False
        self._emit(events)
        if not run_rescrub:
            return
        healthy = True
        if rescrub is not None:
            try:
                healthy = bool(rescrub())
            except Exception:  # noqa: BLE001 - a failing scrub is a verdict
                healthy = False
        events = []
        with self._latch:
            circuit.probing = False
            if healthy:
                circuit.state = STATE_CLOSED
                circuit.failures = 0
                events.append("circuit-close")
            else:
                circuit.state = STATE_OPEN
                circuit.opened_until = self._clock() + self.cooldown_seconds
                circuit.opened_total += 1
                events.append("circuit-reopen")
        self._emit(events)

    def snapshot(self):
        """JSON-ready per-mount circuit state (the ``/metrics`` view)."""
        with self._latch:
            return {name: circuit.as_dict()
                    for name, circuit in sorted(self._circuits.items())}
