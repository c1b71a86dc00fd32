"""A retrying stdlib client for ``prix serve``.

:class:`PrixServeClient` is the reference consumer of the serving
protocol and the convergence arm of the chaos matrix: given a server
whose storage layer is throwing deterministic faults
(``tests/chaos_backend.py``), a client that follows
the retry discipline below must eventually read answers byte-identical
to a fault-free run -- or surface a *typed* failure, never a silent
wrong answer.

The discipline (``docs/ROBUSTNESS.md``, "Chaos & resilience"):

- **Retry only idempotent requests.**  ``POST /query`` is a pure read
  (replaying it cannot change server state), so it retries like the
  GET endpoints; ``POST /reload`` mutates the mount table and is never
  retried -- a reload whose response was lost may have succeeded.
- **Retry only retryable outcomes**: transport failures (connection
  refused/reset, socket timeouts) and the protocol's retryable
  statuses -- 408 (request timeout), 429 (budget), 500
  (corruption/internal: under chaos these are transient and the read
  path self-repairs), 503 (over-capacity / draining).
  Typed 4xx caller mistakes (400/404/405/403) fail fast.
- **Exponential backoff with seeded full jitter**: attempt ``k`` sleeps
  ``uniform(0, min(max, base * 2**k))`` from a ``random.Random(seed)``
  private to the client -- deterministic under test, uncorrelated
  across clients in a thundering herd.
- **Honour ``Retry-After``**: a server-provided horizon (body field or
  HTTP header) is a *floor* under the jittered delay, never ignored.

Failures raise a typed :class:`ClientError` hierarchy mirroring
:mod:`repro.exitcodes` -- ``prix client`` exits with
``error.exit_code``, so scripts branch on the same taxonomy the CLI
and server already share.

Stdlib only (``urllib``); the opener and the sleep are injectable so
unit tests run without sockets or wall-clock.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from repro.exitcodes import (EXIT_CORRUPTION, EXIT_ERROR, EXIT_TIMEOUT,
                             EXIT_USAGE)
from repro.serve.protocol import DEADLINE_HEADER, DEFAULT_INDEX

#: Retries after the first attempt (so ``retries=5`` means at most six
#: requests on the wire).
DEFAULT_RETRIES = 5

#: First backoff ceiling; doubles per failed attempt.
DEFAULT_BACKOFF_BASE_SECONDS = 0.05

#: Backoff ceiling cap.
DEFAULT_BACKOFF_MAX_SECONDS = 2.0

#: Per-request socket timeout.
DEFAULT_TIMEOUT_SECONDS = 30.0

#: HTTP statuses worth retrying (see module docstring).
RETRYABLE_STATUSES = frozenset({408, 429, 500, 503})


class ClientError(Exception):
    """Base client failure; ``exit_code`` mirrors :mod:`repro.exitcodes`.

    ``status`` is the HTTP status (None for transport failures),
    ``error`` the parsed protocol error object (empty for non-protocol
    failures), ``payload`` the full parsed response body when one was
    readable, and ``retry_after`` the server's backoff floor in seconds
    (None when the server offered none).
    """

    exit_code = EXIT_ERROR

    def __init__(self, message, *, status=None, error=None, payload=None):
        super().__init__(message)
        self.status = status
        self.error = error or {}
        self.payload = payload
        self.retry_after = None


class ClientUsageError(ClientError):
    """The request itself was wrong (400/404/405); retrying is useless."""

    exit_code = EXIT_USAGE


class ClientCorruptionError(ClientError):
    """The server reported data corruption it could not repair."""

    exit_code = EXIT_CORRUPTION


class ClientTimeoutError(ClientError):
    """The request (or its propagated deadline) ran out of time."""

    exit_code = EXIT_TIMEOUT


class ServerUnavailableError(ClientError):
    """The server shed the request (over-capacity, draining) -- nothing
    wrong with the request itself."""

    exit_code = EXIT_ERROR


#: Protocol error codes that mean "the server is shedding load".
_UNAVAILABLE_CODES = frozenset({"over-capacity", "draining"})

#: exit_code -> exception class for everything else.
_ERROR_CLASSES = {
    EXIT_USAGE: ClientUsageError,
    EXIT_CORRUPTION: ClientCorruptionError,
    EXIT_TIMEOUT: ClientTimeoutError,
}


def _error_class(error):
    """Pick the typed exception for one parsed protocol error object."""
    if error.get("code") in _UNAVAILABLE_CODES:
        return ServerUnavailableError
    return _ERROR_CLASSES.get(error.get("exit_code"), ClientError)


def _default_opener(request, timeout):
    """The production opener: plain :func:`urllib.request.urlopen`."""
    return urllib.request.urlopen(request, timeout=timeout)  # noqa: S310


class PrixServeClient:
    """Typed, retrying access to one ``prix serve`` endpoint set."""

    def __init__(self, base_url, *, retries=DEFAULT_RETRIES,
                 timeout=DEFAULT_TIMEOUT_SECONDS, seed=0,
                 backoff_base=DEFAULT_BACKOFF_BASE_SECONDS,
                 backoff_max=DEFAULT_BACKOFF_MAX_SECONDS,
                 sleep=time.sleep, opener=None):
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._sleep = sleep
        # Seeded by contract: jitter must be replayable under test and
        # uncorrelated across clients.
        self._rng = random.Random(seed)
        self._opener = opener if opener is not None else _default_opener

    # ------------------------------------------------------------ endpoints

    def query(self, xpath, *, index=DEFAULT_INDEX, ordered=False,
              variant=None, use_maxgap=True, limit=None, deadline_ms=None):
        """``POST /query`` (idempotent: retried).

        ``deadline_ms`` rides the ``X-Prix-Deadline-Ms`` header and
        tightens the server-side budget fork.  Returns the parsed
        response body (exact or ``approximate=True`` degraded).
        """
        body = {"xpath": xpath, "index": index}
        if ordered:
            body["ordered"] = True
        if variant is not None:
            body["variant"] = variant
        if not use_maxgap:
            body["use_maxgap"] = False
        if limit is not None:
            body["limit"] = limit
        headers = {}
        if deadline_ms is not None:
            headers[DEADLINE_HEADER] = repr(float(deadline_ms))
        return self._request("POST", "/query", body=body, headers=headers,
                             idempotent=True)

    def healthz(self):
        """``GET /healthz``; an unhealthy 503 returns its body rather
        than raising (the verdict *is* the answer)."""
        try:
            return self._request("GET", "/healthz", idempotent=True)
        except ClientError as error:
            if (error.status == 503 and error.payload is not None
                    and "healthy" in error.payload):
                return error.payload
            raise

    def metrics(self):
        """``GET /metrics`` (idempotent: retried)."""
        return self._request("GET", "/metrics", idempotent=True)

    def indexes(self):
        """``GET /indexes`` (idempotent: retried)."""
        return self._request("GET", "/indexes", idempotent=True)

    def reload(self, index=DEFAULT_INDEX):
        """``POST /reload`` -- **never retried**: a reload whose
        response was lost may have committed, and replaying it would
        swap generations twice."""
        return self._request("POST", "/reload", body={"index": index},
                             idempotent=False)

    # ------------------------------------------------------------ mechanics

    def _delay(self, failures, error):
        """Backoff before retry number ``failures + 1``: seeded full
        jitter, floored by the server's ``Retry-After`` when present."""
        ceiling = min(self.backoff_max,
                      self.backoff_base * (2 ** failures))
        delay = self._rng.uniform(0.0, ceiling)
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def _request(self, method, path, body=None, headers=None,
                 idempotent=True):
        attempts = self.retries + 1 if idempotent else 1
        last_error = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(self._delay(attempt - 1, last_error))
            try:
                return self._attempt(method, path, body, headers)
            except ClientError as error:
                last_error = error
                if error.status is not None and (
                        error.status not in RETRYABLE_STATUSES):
                    raise
        raise last_error

    def _attempt(self, method, path, body, headers):
        url = self.base_url + path
        data = None
        request_headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        if headers:
            request_headers.update(headers)
        request = urllib.request.Request(  # noqa: S310 - http by design
            url, data=data, headers=request_headers, method=method)
        try:
            with self._opener(request, self.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as error:
            raise self._typed_error(url, error) from error
        except (urllib.error.URLError, TimeoutError, OSError) as error:
            # Transport failure: no response at all (status=None), so
            # always retryable for idempotent requests.
            raise ClientError(
                f"transport failure talking to {url}: {error}") from error
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            bad = ClientError(f"undecodable response from {url}: {error}",
                              status=200)
            raise bad from error

    @staticmethod
    def _typed_error(url, http_error):
        """Convert an :class:`urllib.error.HTTPError` into the typed
        hierarchy, preserving the protocol error object and the
        server's ``Retry-After`` (body field first, header fallback)."""
        status = http_error.code
        payload = None
        error = {}
        try:
            payload = json.loads(http_error.read().decode("utf-8"))
            if isinstance(payload, dict):
                error = payload.get("error") or {}
        except (ValueError, UnicodeDecodeError, OSError):
            payload = None
        code = error.get("code", f"http-{status}")
        message = error.get("message", f"HTTP {status} from {url}")
        typed = _error_class(error)(f"{code}: {message}", status=status,
                                    error=error, payload=payload)
        retry_after = error.get("retry_after")
        if retry_after is None and http_error.headers is not None:
            header = http_error.headers.get("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
        typed.retry_after = retry_after
        return typed
