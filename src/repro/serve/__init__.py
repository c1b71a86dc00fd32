"""``prix serve``: the concurrent query-serving tier (``docs/SERVING.md``).

A long-lived process answering twig queries over shared **read-only**
PRIX indexes -- the step that turns the paper's filter-then-refine
matching into something that can sit behind real traffic (ROADMAP
item 2).  The subsystem is the repo's *serving* layer: it sits atop the
logical index layers (the layer map is ``LAYERS`` in
``tests/test_source_invariants.py``) and reaches storage only through
the ``storage-api`` facade; its shared state is latched, with
``_GUARDED`` maps the runtime sanitizer enforces.

Modules:

- :mod:`repro.serve.protocol` -- the HTTP/JSON request protocol: typed
  error responses mirroring the CLI exit-code vocabulary, canonical
  result serialization (including the ``approximate=True`` degradation
  contract with its structured
  :class:`~repro.prix.budget.DegradationReason`).
- :mod:`repro.serve.admission` -- admission control: a draining flag,
  an in-flight cap, and per-request
  :class:`~repro.prix.budget.QueryBudget` quotas forked from one
  server-wide configuration.
- :mod:`repro.serve.registry` -- named index mounts over
  ``open_index(path, backend="mmap")`` (or ``"file"``/``"arena"``), with
  leases, hot reload-on-generation (atomic swap under the registry
  latch, old generation drained before close) and a cached
  ``scrub``-backed health report per generation.
- :mod:`repro.serve.metrics` -- per-endpoint request/latency/
  degradation counters behind the ``serve-metrics`` latch.
- :mod:`repro.serve.client` -- the retrying stdlib client: exponential
  backoff with seeded full jitter, ``Retry-After`` honoured as a
  floor, idempotent-only retries, and a typed :class:`ClientError`
  hierarchy mirroring :mod:`repro.exitcodes`.
- :mod:`repro.serve.engines` -- the engine processes, one per CPU,
  forked when the server starts serving: each runs the queries handed
  to it over a pipe on the index handles it inherited, and returns the
  serialized body (or the typed error) with the query's page-counter
  delta.
- :mod:`repro.serve.server` -- the ``ThreadingHTTPServer`` front end,
  endpoint dispatch, per-request socket timeouts (slow-loris defense),
  ``X-Prix-Deadline-Ms`` deadline propagation, and graceful drain on
  SIGTERM.
- ``python -m repro.serve`` / ``prix serve`` -- the process entry
  points.

A failing request gets its typed error and changes no other request's
outcome: the tier keeps no per-mount failure state.  The chaos matrix
(``tests/test_chaos_matrix.py``) drives this whole stack over a
fault-injecting storage backend (``tests/chaos_backend.py``, wrapped
in from the test side) and holds it to the robustness oracle: every
response is byte-identical-correct, a typed error, or a sound
``approximate=True`` superset -- and the retrying client's view
converges to the fault-free answers.
"""

from repro.serve.admission import AdmissionController, ServerLimits
from repro.serve.client import (ClientCorruptionError, ClientError,
                                ClientTimeoutError, ClientUsageError,
                                PrixServeClient, ServerUnavailableError)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ProtocolError, QueryRequest
from repro.serve.registry import IndexRegistry, ServeError

__all__ = [
    "AdmissionController",
    "ClientCorruptionError",
    "ClientError",
    "ClientTimeoutError",
    "ClientUsageError",
    "IndexRegistry",
    "PrixServeClient",
    "ProtocolError",
    "QueryRequest",
    "ServeError",
    "ServerLimits",
    "ServerMetrics",
    "ServerUnavailableError",
]
