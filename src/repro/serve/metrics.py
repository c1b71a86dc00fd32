"""Server-side observability: per-endpoint request counters.

:class:`ServerMetrics` is the serving tier's answer sheet for
``GET /metrics``: per-endpoint request totals, typed-error counts by
protocol code, degraded (``approximate=True``) answers, admission
rejections, and latency accumulators.

Concurrency: one metrics object is shared by every handler thread of a
:class:`~repro.serve.server.PrixServeServer`, so every counter lives
behind the object's own ``serve-metrics`` latch, mirroring the
:class:`~repro.storage.stats.IOStats` discipline.  ``serve-metrics`` is
a leaf in the latch order -- handlers take it last, for a few dict
increments, and never call back into the registry or storage while
holding it (``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import time

from repro.storage import Latch, guarded


class EndpointMetrics:
    """Counters for one endpoint (``/query``, ``/healthz``, ...).

    Mutated only by :class:`ServerMetrics` while it holds the parent's
    ``serve-metrics`` latch; never shared on its own.
    """

    __slots__ = ("requests", "errors", "degraded", "rejected",
                 "latency_seconds_total", "latency_seconds_max")

    def __init__(self):
        self.requests = 0
        self.errors = {}            # protocol error code -> count
        self.degraded = 0
        self.rejected = 0
        self.latency_seconds_total = 0.0
        self.latency_seconds_max = 0.0

    def as_dict(self):
        return {
            "requests": self.requests,
            "errors": dict(sorted(self.errors.items())),
            "degraded": self.degraded,
            "rejected": self.rejected,
            "latency_seconds_total": round(self.latency_seconds_total, 6),
            "latency_seconds_max": round(self.latency_seconds_max, 6),
        }


@guarded
class ServerMetrics:
    """Process-wide serving counters behind one ``serve-metrics`` latch.

    Handlers wrap their work in :meth:`observe`; the ``/metrics``
    endpoint serializes :meth:`snapshot`.
    """

    def __init__(self):
        self._latch = Latch("serve-metrics")
        self._endpoints = {}
        self._started = time.time()

    #: Field -> guarding latch; the runtime sanitizer installs
    #: guarded-access assertions from this mapping once the object is
    #: shared between threads.
    _GUARDED = {"_endpoints": "_latch"}

    def _endpoint(self, name):  # caller holds _latch
        if name not in self._endpoints:
            self._endpoints[name] = EndpointMetrics()
        return self._endpoints[name]

    def observe(self, endpoint, seconds, *,
                error_code=None, degraded=False, rejected=False):
        """Record one finished request against ``endpoint``.

        ``error_code`` is the typed protocol error code for a failed
        request (None for success); ``degraded`` marks an HTTP 200 that
        carried ``approximate=True``; ``rejected`` marks an admission
        rejection (over-capacity / draining), which is also counted
        under ``error_code``.
        """
        with self._latch:
            stats = self._endpoint(endpoint)
            stats.requests += 1
            stats.latency_seconds_total += seconds
            if seconds > stats.latency_seconds_max:
                stats.latency_seconds_max = seconds
            if error_code is not None:
                stats.errors[error_code] = (
                    stats.errors.get(error_code, 0) + 1)
            if degraded:
                stats.degraded += 1
            if rejected:
                stats.rejected += 1

    def snapshot(self):
        """JSON-ready copy of every counter (the ``/metrics`` body).

        Storage counters are *not* sampled here -- the server merges
        each mount's :class:`~repro.storage.stats.IOStats` snapshot in,
        so the latch order stays ``serve-registry`` before ``io-stats``
        and ``serve-metrics`` stays a leaf.
        """
        with self._latch:
            return {
                "uptime_seconds": round(time.time() - self._started, 3),
                "endpoints": {name: stats.as_dict()
                              for name, stats in
                              sorted(self._endpoints.items())},
            }
