"""The ``prix serve`` front end: a threaded HTTP server over shared indexes.

One :class:`PrixServeServer` -- a stdlib
:class:`~http.server.ThreadingHTTPServer` (thread per connection, no
dependencies) -- whose handler threads admit, lease and answer twig
queries over index generations shared through the
:class:`~repro.serve.registry.IndexRegistry`.  The queries themselves
run in engine processes (:mod:`repro.serve.engines`): when the server
starts serving it forks one per CPU, each inheriting every mounted
handle, and a handler thread hands each admitted query to an idle one
and serves the body it returns.  ``--pool-pages`` is therefore per
mount *per engine*.  The read path is why this works without a write
lock anywhere: every mount is a read-only backend (``mmap`` by
default), so concurrent queries only contend on the storage latches
the stress oracle already exercises (``docs/CONCURRENCY.md``), and an
engine's pool is its own (``docs/SERVING.md``, "Process model").

Endpoints (all JSON; see :mod:`repro.serve.protocol` for the schemas):

- ``POST /query``   -- run one twig query against a named mount.
- ``POST /reload``  -- hot-swap a mount to a fresh generation.
- ``GET /healthz``  -- cached per-generation scrub verdicts.
- ``GET /metrics``  -- request/latency/degradation counters plus the
  per-mount storage ``IOStats``.
- ``GET /indexes``  -- the mount table.

Shutdown: SIGTERM (or SIGINT) triggers :meth:`PrixServeServer.drain` --
stop admitting, wait for in-flight queries, stop accepting, reap the
engines, close every mount.  The accept loop runs in a worker thread so
the main thread can sit in ``signal``-interruptible waits; a status
line that cannot be printed (its reader went away) never skips the
drain.

Hardening (``docs/ROBUSTNESS.md``, "Chaos & resilience"):

- every connection gets a per-request **socket read timeout**
  (``--request-timeout``), so a slow-loris client that trickles header
  bytes gets a typed ``request-timeout`` (HTTP 408) and its thread
  back, instead of parking a handler forever;
- an ``X-Prix-Deadline-Ms`` request header **tightens** the query's
  budget deadline (:meth:`QueryBudget.fork`) -- a client's deadline
  propagates into the engine's cooperative cancellation checkpoints;
- a request's size is bounded before it costs anything: the body by
  its ``Content-Length`` (:data:`MAX_BODY_BYTES`), the twig by
  :data:`repro.query.twig.MAX_TWIG_NODES` at parse time;
- a failing request gets its typed error and leaves nothing behind, so
  it changes no other request's outcome;
- retryable rejections carry an HTTP ``Retry-After`` header the
  retrying client (:mod:`repro.serve.client`) uses as a backoff floor.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.prix.budget import QueryBudget, add_budget_flags, number_flag
from repro.serve import protocol
from repro.serve.admission import (AdmissionController,
                                   DEFAULT_MAX_INFLIGHT, ServerLimits)
from repro.serve.engines import Answer, EnginePool
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (DEADLINE_HEADER, ProtocolError,
                                  error_for_exception, parse_query_request)
from repro.serve.registry import DEFAULT_DRAIN_TIMEOUT, IndexRegistry

#: Request bodies larger than this are rejected outright (a twig query
#: is a few hundred bytes; nothing legitimate approaches this).
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle mid-request (request line, headers
#: or body) before the server answers 408 and reclaims the thread.
DEFAULT_REQUEST_TIMEOUT = 30.0


class PrixServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wiring registry, admission and metrics.

    ``daemon_threads`` so a drained shutdown never hangs on a stuck
    connection: admission already guarantees no *query* is in flight
    when the process exits.
    """

    daemon_threads = True

    def __init__(self, address, registry, admission, metrics, *,
                 request_timeout=DEFAULT_REQUEST_TIMEOUT):
        self.registry = registry
        self.admission = admission
        self.metrics = metrics
        self.request_timeout = request_timeout
        self.engines = EnginePool()
        super().__init__(address, PrixRequestHandler)

    def start_engines(self):
        """Fork the engine processes, once (:mod:`repro.serve.engines`).

        Call after every mount is attached and before any other thread
        of this process takes a latch; :meth:`serve_forever` calls it
        first thing.  Each engine closes its copy of the listening
        socket at once.
        """
        self.engines.start(self.registry, self.socket)

    def serve_forever(self, poll_interval=0.5):
        self.start_engines()
        super().serve_forever(poll_interval)

    def drain(self, timeout=DEFAULT_DRAIN_TIMEOUT):
        """Graceful shutdown: reject, drain, stop accepting, close.

        Returns True when every in-flight query finished inside
        ``timeout`` (the clean-drain signal the CI smoke job asserts);
        the engines are reaped and the mounts closed either way, since
        the process is exiting.
        """
        self.admission.begin_drain()
        clean = self.admission.wait_drained(timeout)
        self.shutdown()
        self.server_close()
        self.engines.close()
        self.registry.close_all()
        return clean


class PrixRequestHandler(BaseHTTPRequestHandler):
    """Endpoint dispatch; every response goes through :meth:`_respond`.

    The handler owns no state: registry, admission and metrics all hang
    off ``self.server``.  Effects stay behind those objects -- this
    module performs no raw I/O of its own (sockets are not pages).
    """

    protocol_version = "HTTP/1.1"
    server_version = "prix-serve"

    #: Socket read timeout; :meth:`setup` overrides it per-connection
    #: from the server's configuration and ``StreamRequestHandler``
    #: applies it via ``connection.settimeout`` -- the slow-loris
    #: defense (``docs/ROBUSTNESS.md``).
    timeout = DEFAULT_REQUEST_TIMEOUT

    # ------------------------------------------------------------- plumbing

    def setup(self):
        self.timeout = self.server.request_timeout
        self._timed_out = False
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Quiet the per-request stderr chatter; /metrics observes."""

    def log_error(self, format, *args):  # noqa: A002 - stdlib signature
        """Detect the stdlib's request-line timeout.

        ``BaseHTTPRequestHandler.handle_one_request`` swallows the
        ``TimeoutError`` from a request line that never arrives and
        reports it only through this hook; flagging it here lets
        :meth:`handle_one_request` still answer with a typed 408
        instead of silently dropping the connection.
        """
        if str(format).startswith("Request timed out"):
            self._timed_out = True

    def handle_one_request(self):
        super().handle_one_request()
        if getattr(self, "_timed_out", False):
            self._timed_out = False
            self._respond_timeout()

    def _respond_timeout(self):
        """Answer a request-line timeout with a typed 408 and hang up."""
        # The timeout fired before request parsing: the attributes the
        # stdlib response machinery logs from may not exist yet.
        for attr, default in (("requestline", ""), ("command", ""),
                              ("request_version", "HTTP/1.1")):
            if not getattr(self, attr, None):
                setattr(self, attr, default)
        typed = ProtocolError(
            "request-timeout",
            f"no complete request within {self.timeout:.1f}s",
            retry_after=protocol.DEFAULT_RETRY_AFTER_SECONDS)
        self.server.metrics.observe("(request-line)", float(self.timeout),
                                    error_code=typed.code)
        self.close_connection = True
        try:
            self._respond(typed.http_status, typed.body(),
                          retry_after=typed.retry_after)
        except OSError:
            pass  # the client may already be gone; the thread is free

    def _respond(self, status, payload, retry_after=None):
        body = (payload.body if isinstance(payload, Answer)
                else protocol.dumps(payload))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        """The request body, once its ``Content-Length`` is known to be a
        byte count from 0 to :data:`MAX_BODY_BYTES`.

        Anything else is a typed ``bad-request`` before a byte of the
        body is read (a negative length would otherwise read until the
        socket times out).  The unread body leaves the connection's
        framing unknown, so the server answers and hangs up.
        """
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ProtocolError(
                "bad-request",
                f"header Content-Length must be a byte count from 0 to "
                f"{MAX_BODY_BYTES}, got {raw!r}")
        return self.rfile.read(length)

    def _run(self, endpoint, work):
        """Execute one endpoint, map failures, record metrics.

        ``work`` returns ``(status, payload)``; any exception it raises
        is converted to its typed protocol error and served as JSON --
        a handler thread must never die with a traceback on the socket.

        Metrics are recorded *before* the response bytes go out: a
        client that has read its answer is guaranteed to see that
        request in a subsequent ``/metrics`` scrape, even though the
        scrape runs on a different handler thread.
        """
        started = time.perf_counter()
        error_code = None
        degraded = False
        rejected = False
        retry_after = None
        try:
            status, payload = work()
            degraded = isinstance(payload, Answer) and payload.approximate
        except Exception as error:  # noqa: BLE001 - boundary by design
            typed = error_for_exception(error)
            error_code = typed.code
            retry_after = typed.retry_after
            rejected = typed.code in ("over-capacity", "draining")
            status, payload = typed.http_status, typed.body()
            if typed.code == "request-timeout":
                # A body read timed out mid-request: the connection's
                # framing is unrecoverable, so answer and hang up.
                self.close_connection = True
        self.server.metrics.observe(
            endpoint, time.perf_counter() - started,
            error_code=error_code, degraded=degraded, rejected=rejected)
        self._respond(status, payload, retry_after=retry_after)

    # ------------------------------------------------------------ endpoints

    def do_GET(self):
        if self.path == "/healthz":
            self._run("/healthz", self._healthz)
        elif self.path == "/metrics":
            self._run("/metrics", self._metrics)
        elif self.path == "/indexes":
            self._run("/indexes", self._indexes)
        elif self.path in ("/query", "/reload"):
            self._run(self.path, self._wrong_method)
        else:
            self._run(self.path, self._unknown_path)

    def do_POST(self):
        if self.path == "/query":
            self._run("/query", self._query)
        elif self.path == "/reload":
            self._run("/reload", self._reload)
        elif self.path in ("/healthz", "/metrics", "/indexes"):
            self._run(self.path, self._wrong_method)
        else:
            self._run(self.path, self._unknown_path)

    def _unknown_path(self):
        raise ProtocolError(
            "not-found",
            f"no endpoint {self.path!r}; available: /query /reload "
            "/healthz /metrics /indexes")

    def _wrong_method(self):
        raise ProtocolError(
            "method-not-allowed",
            f"{self.command} is not allowed on {self.path}")

    def _deadline_ms(self):
        """Parse the optional ``X-Prix-Deadline-Ms`` request header."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ProtocolError(
                "bad-request",
                f"header {DEADLINE_HEADER} must be a number of "
                f"milliseconds, got {raw!r}")
        if not (math.isfinite(value) and value > 0):
            # NaN compares false with everything: it would never fire.
            raise ProtocolError(
                "bad-request",
                f"header {DEADLINE_HEADER} must be a finite number > 0, "
                f"got {raw!r}")
        return value

    def _query(self):
        """``POST /query``: admit, lease, hand to an engine.

        The admission fork gives this request its own budget meter,
        tightened by the request's ``X-Prix-Deadline-Ms`` header when
        present; the lease pins the mount's generation for exactly the
        query's lifetime, so a concurrent ``/reload`` can never close
        the pages under a running matcher.  An idle engine process runs
        the query and returns the serialized body
        (:meth:`EnginePool.query`).  A failure is this request's alone:
        its typed error is the answer, and nothing about it is
        remembered for the next request.
        """
        request = parse_query_request(self._read_body())
        deadline_ms = self._deadline_ms()
        server = self.server
        with server.admission.admit(deadline_ms=deadline_ms) as budget:
            with server.registry.lease(request.index) as mount:
                return 200, server.engines.query(mount, request, budget,
                                                 server.registry)

    def _reload(self):
        raw = self._read_body()
        name = protocol.DEFAULT_INDEX
        if raw:
            import json
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                raise ProtocolError(
                    "bad-request",
                    f"request body is not valid JSON: {error}")
            if not isinstance(payload, dict):
                raise ProtocolError("bad-request",
                                    "request body must be a JSON object")
            name = payload.get("index", name)
            if not isinstance(name, str):
                raise ProtocolError("bad-request",
                                    "field 'index' must be str")
        generation = self.server.registry.reload(name)
        return 200, {"ok": True, "index": name, "generation": generation}

    def _healthz(self):
        health = self.server.registry.health()
        healthy = bool(health) and all(entry["healthy"]
                                       for entry in health.values())
        status = 200 if healthy else 503
        return status, {"ok": healthy, "healthy": healthy,
                        "draining": self.server.admission.draining(),
                        "indexes": health}

    def _metrics(self):
        body = self.server.metrics.snapshot()
        body["ok"] = True
        body["storage"] = self.server.registry.stats()
        body["leaked_generations"] = self.server.registry.leaked()
        body["engines"] = self.server.engines.describe()
        body["admission"] = {
            "inflight": self.server.admission.inflight(),
            "max_inflight": self.server.admission.limits.max_inflight,
            "draining": self.server.admission.draining(),
        }
        return 200, body

    def _indexes(self):
        return 200, {"ok": True, "indexes": self.server.registry.describe()}


# ---------------------------------------------------------------- assembly

def build_server(mounts, *, host="127.0.0.1", port=0, backend="mmap",
                 pool_pages=None, limits=None,
                 drain_timeout=DEFAULT_DRAIN_TIMEOUT,
                 request_timeout=DEFAULT_REQUEST_TIMEOUT):
    """Mount every ``(name, path)`` and return a bound, unstarted server.

    ``port=0`` binds an ephemeral port (tests and the CI smoke job read
    it back from ``server.server_address``).
    """
    registry = IndexRegistry(drain_timeout=drain_timeout)
    for name, path in mounts:
        registry.mount(name, path, backend=backend, pool_pages=pool_pages)
    return PrixServeServer((host, port), registry,
                           AdmissionController(limits or ServerLimits()),
                           ServerMetrics(), request_timeout=request_timeout)


def serve_until_signaled(server, *, signals=(signal.SIGTERM, signal.SIGINT),
                         out=None):
    """Run the accept loop until a signal arrives, then drain.

    The engines are forked here, on the main thread, before the accept
    thread exists.  Returns 0 on a clean drain (every in-flight query
    finished), 1 otherwise -- the process exit code.
    """
    out = out if out is not None else sys.stdout
    stop = threading.Event()

    def _handle(signum, frame):
        stop.set()

    server.start_engines()
    previous = {number: signal.signal(number, _handle)
                for number in signals}
    accept = threading.Thread(target=server.serve_forever,
                              name="prix-serve-accept")
    accept.start()
    host, port = server.server_address[:2]
    _status(out, f"prix serve: listening on http://{host}:{port}")
    try:
        stop.wait()
    finally:
        for number, handler in previous.items():
            signal.signal(number, handler)
        _status(out, "prix serve: draining")
        clean = server.drain()
        accept.join()
        _status(out, "prix serve: drained cleanly" if clean
                else "prix serve: drain timed out")
    return 0 if clean else 1


def _status(out, line):
    """Print one ``prix serve`` status line; it never costs a drain.

    A reader of ``out`` that went away (a closed pipe) drops the line,
    and ``out``'s descriptor, when it has one, is pointed at the null
    device: later lines, and the interpreter's final flush of the
    dropped bytes, cannot fail either.
    """
    try:
        print(line, file=out, flush=True)
    except OSError:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        except (OSError, ValueError):
            pass


def add_serve_arguments(parser):
    """Attach the ``prix serve`` flags to an argparse parser."""
    parser.add_argument("index", help="index file to mount as 'default'")
    parser.add_argument("--mount", action="append", default=[],
                        metavar="NAME=PATH",
                        help="mount an additional index under NAME "
                             "(repeatable)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=number_flag(int, 0, 65535),
                        default=8399,
                        help="listen port (0 binds an ephemeral port)")
    parser.add_argument("--backend", choices=["file", "mmap", "arena"],
                        default="mmap",
                        help="storage backend for every mount "
                             "(default: mmap, read-only shared pages)")
    parser.add_argument("--pool-pages", type=number_flag(int, 1),
                        help="buffer-pool frames per mount, in each "
                             "engine process")
    parser.add_argument("--max-inflight", type=number_flag(int, 1),
                        default=DEFAULT_MAX_INFLIGHT,
                        help="concurrent-query cap; excess requests get "
                             "a typed over-capacity rejection")
    add_budget_flags(parser)
    parser.add_argument("--drain-timeout", type=number_flag(float, 0),
                        default=DEFAULT_DRAIN_TIMEOUT,
                        help="seconds to wait for in-flight queries on "
                             "shutdown and reload")
    parser.add_argument("--request-timeout",
                        type=number_flag(float, 0, low_open=True),
                        default=DEFAULT_REQUEST_TIMEOUT, metavar="S",
                        help="socket read timeout per request; a stalled "
                             "client gets a typed 408 (slow-loris "
                             "defense)")
    return parser


def run(args):
    """``prix serve`` / ``python -m repro.serve`` entry point."""
    mounts = [(protocol.DEFAULT_INDEX, args.index)]
    for spec in args.mount:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --mount expects NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 2
        mounts.append((name, path))
    limits = ServerLimits(max_inflight=args.max_inflight,
                          budget=QueryBudget.from_flags(args))
    server = build_server(
        mounts, host=args.host, port=args.port, backend=args.backend,
        pool_pages=args.pool_pages, limits=limits,
        drain_timeout=args.drain_timeout,
        request_timeout=args.request_timeout)
    return serve_until_signaled(server)
