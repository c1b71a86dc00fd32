"""Admission control: capacity caps and per-request query budgets.

Every served query passes through one :class:`AdmissionController`
before it touches an index.  Admission enforces two server-wide limits
(:class:`ServerLimits`):

- **capacity** -- at most ``max_inflight`` queries run concurrently;
  request N+1 gets a typed ``over-capacity`` rejection (HTTP 503)
  instead of queueing unboundedly behind the GIL;
- **work** -- each admitted request is handed a *fresh*
  :class:`~repro.prix.budget.QueryBudget` forked from the server-wide
  configuration (:meth:`QueryBudget.fork`), so one expensive query can
  exhaust its own quota but never a neighbour's.  Filter-phase
  exhaustion surfaces as a typed ``budget-exhausted`` rejection;
  refinement-phase exhaustion degrades to the sound
  ``approximate=True`` superset (``docs/ROBUSTNESS.md``) and is served
  as a success.

Admission also owns the **drain** protocol used by graceful shutdown:
:meth:`AdmissionController.begin_drain` flips the controller into
draining mode (new queries get a typed ``draining`` rejection) and
:meth:`wait_drained` blocks until the in-flight count reaches zero.

Concurrency: the counter and flag live behind the controller's own
``serve-admission`` latch -- a leaf in the latch order, held only for
the increment/decrement, never across query execution.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.prix.budget import QueryBudget
from repro.serve.protocol import DEFAULT_RETRY_AFTER_SECONDS, ProtocolError
from repro.storage import Latch, guarded

#: Default concurrent-query cap; sized for a thread-per-request stdlib
#: server, where useful parallelism tops out near the core count.
DEFAULT_MAX_INFLIGHT = 32


@dataclass(frozen=True)
class ServerLimits:
    """Server-wide admission configuration (immutable once serving).

    ``budget`` is the per-request work quota *template*: every admitted
    request gets its own fork, never a shared meter.
    """

    max_inflight: int = DEFAULT_MAX_INFLIGHT
    budget: QueryBudget = field(default_factory=QueryBudget)


@guarded
class AdmissionController:
    """Gate queries behind capacity, drain state and budget quotas."""

    def __init__(self, limits=None):
        self.limits = limits or ServerLimits()
        self._latch = Latch("serve-admission")
        self._idle = threading.Event()
        self._idle.set()
        self._inflight = 0
        self._draining = False

    #: Field -> guarding latch; the runtime sanitizer installs
    #: guarded-access assertions from this mapping once the object is
    #: shared between threads.
    _GUARDED = {"_inflight": "_latch", "_draining": "_latch"}

    def inflight(self):
        """Latched read of the number of admitted, unfinished queries."""
        with self._latch:
            return self._inflight

    def draining(self):
        """Latched read of the drain flag."""
        with self._latch:
            return self._draining

    @contextmanager
    def admit(self, deadline_ms=None):
        """Admit one query for the duration of a ``with`` block.

        Yields the request's private
        :class:`~repro.prix.budget.QueryBudget` (a fork of the
        server-wide template; ``deadline_ms`` -- the request's
        ``X-Prix-Deadline-Ms`` header -- tightens the fork's wall-clock
        cap but can never loosen the template's).  Raises a typed
        :class:`~repro.serve.protocol.ProtocolError` -- ``draining`` or
        ``over-capacity``, both carrying a ``Retry-After`` hint -- when
        the request must be rejected; the counter is only incremented on
        successful admission, so a rejection never leaks capacity.
        """
        with self._latch:
            if self._draining:
                raise ProtocolError(
                    "draining",
                    "server is draining; no new queries are admitted",
                    retry_after=DEFAULT_RETRY_AFTER_SECONDS)
            if self._inflight >= self.limits.max_inflight:
                raise ProtocolError(
                    "over-capacity",
                    f"server is at capacity "
                    f"({self.limits.max_inflight} queries in flight); "
                    "retry later",
                    retry_after=DEFAULT_RETRY_AFTER_SECONDS)
            self._inflight += 1
            self._idle.clear()
        try:
            yield self.limits.budget.fork(
                deadline_seconds=(deadline_ms / 1000.0
                                  if deadline_ms is not None else None))
        finally:
            with self._latch:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def begin_drain(self):
        """Stop admitting new queries (idempotent)."""
        with self._latch:
            self._draining = True

    def wait_drained(self, timeout=None):
        """Block until every admitted query has finished.

        Call after :meth:`begin_drain`; returns True once in-flight hits
        zero, False on timeout.  Waits on an Event rather than spinning
        on the latch so draining threads do not contend with finishing
        queries.
        """
        return self._idle.wait(timeout)
