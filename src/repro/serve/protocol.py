"""The serving protocol: HTTP/JSON requests, typed error responses.

Everything that crosses the wire is defined here, and only here: the
request schema (:class:`QueryRequest`), the canonical result payloads,
and the **typed error vocabulary**.  Each error code carries both the
HTTP status the server answers with and the ``exit_code`` the
equivalent CLI invocation would return (looked up in
:mod:`repro.exitcodes`, whose classifier both surfaces call, so they
cannot drift) -- a script talking to ``prix serve`` can branch on
exactly the same vocabulary it already uses for ``prix query``.

The degradation contract travels the wire unchanged
(``docs/ROBUSTNESS.md``): a refinement-phase budget exhaustion comes
back as HTTP 200 with ``"approximate": true`` and the filter phase's
candidate documents -- a guaranteed superset of the exact answer, never
a silent wrong one -- plus the structured
:class:`~repro.prix.budget.DegradationReason`; a *filter*-phase
exhaustion is a hard typed rejection (``budget-exhausted``, HTTP 429)
because no sound superset exists.

Serialization is canonical -- ``sort_keys``, compact separators -- so
the protocol golden tests can assert responses byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.exitcodes import EXIT_CODES, classify, describe

#: The default mount name queries target when the request names none.
DEFAULT_INDEX = "default"

#: Error code -> HTTP status, the wire's own column beside
#: :data:`repro.exitcodes.EXIT_CODES`.
HTTP_STATUS = {
    "bad-request": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "read-only": 403,
    "request-timeout": 408,
    "budget-exhausted": 429,
    "over-capacity": 503,
    "draining": 503,
    "corruption": 500,
    "internal": 500,
}

#: Error code -> (HTTP status, CLI exit code).  The closed vocabulary of
#: typed rejections; every error body the server emits names one of
#: these codes, and the golden tests cover each.
ERROR_KINDS = {code: (HTTP_STATUS[code], exit_code)
               for code, exit_code in EXIT_CODES.items()}

#: Default ``Retry-After`` hint (seconds) on retryable rejections.
DEFAULT_RETRY_AFTER_SECONDS = 1

#: Library failures worth retrying unchanged carry the default hint.
_RETRYABLE = frozenset({"budget-exhausted", "request-timeout"})

#: Request header carrying the client's deadline in milliseconds; the
#: server propagates it into the query's budget fork
#: (:meth:`repro.prix.budget.QueryBudget.fork`), where it can tighten
#: -- never loosen -- the server-wide wall-clock cap.
DEADLINE_HEADER = "X-Prix-Deadline-Ms"


def dumps(payload):
    """Canonical JSON bytes: sorted keys, compact separators.

    One serializer for every response body, so two servers (or a server
    and a golden test) given the same payload emit identical bytes.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class ProtocolError(Exception):
    """A typed request rejection carrying its wire representation.

    Raised anywhere in the serving path (parsing, admission, registry
    lookup); the handler catches it and answers with :attr:`http_status`
    and :meth:`body` (:attr:`exit_code` is what the CLI would exit with
    for the same failure).  ``detail`` is an optional JSON-ready object
    (e.g. a serialized ``DegradationReason``).  ``retry_after`` (whole
    seconds) marks the rejection as retryable: it rides in the body and
    the handler emits it as an HTTP ``Retry-After`` header, which the
    retrying client (:mod:`repro.serve.client`) honours as a backoff
    floor.
    """

    def __init__(self, code, message, detail=None, error_type=None,
                 retry_after=None):
        if code not in ERROR_KINDS:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.http_status, self.exit_code = ERROR_KINDS[code]
        self.message = message
        self.detail = detail
        self.error_type = error_type or type(self).__name__
        self.retry_after = retry_after

    def __reduce__(self):
        """Pickle by fields: an engine process sends its typed error to
        the front end whole (``repro.serve.engines``)."""
        return (type(self), (self.code, self.message, self.detail,
                             self.error_type, self.retry_after))

    def body(self):
        """The JSON-ready error response payload."""
        error = {
            "code": self.code,
            "exit_code": self.exit_code,
            "error_type": self.error_type,
            "message": self.message,
        }
        if self.detail is not None:
            error["detail"] = self.detail
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"ok": False, "error": error}


def error_for_exception(error):
    """Map a library exception to its typed :class:`ProtocolError`.

    :func:`repro.exitcodes.classify` picks the code, so a failure
    lands on the same ``exit_code`` as under ``prix``; this adds the
    budget's structured ``detail`` and the ``Retry-After`` hint.
    """
    if isinstance(error, ProtocolError):
        return error
    code = classify(error)
    return ProtocolError(
        code, describe(error), error_type=type(error).__name__,
        detail=(error.reason.as_dict() if code == "budget-exhausted"
                else None),
        retry_after=(DEFAULT_RETRY_AFTER_SECONDS if code in _RETRYABLE
                     else None))


@dataclass(frozen=True)
class QueryRequest:
    """One parsed, validated ``POST /query`` body."""

    xpath: str
    index: str = DEFAULT_INDEX
    ordered: bool = False
    variant: str | None = None
    use_maxgap: bool = True
    limit: int | None = None


#: Request fields -> (expected type, default).  ``None`` default means
#: the field is required.
_QUERY_FIELDS = {
    "xpath": (str, None),
    "index": (str, DEFAULT_INDEX),
    "ordered": (bool, False),
    "variant": (str, None),
    "use_maxgap": (bool, True),
    "limit": (int, None),
}


def parse_query_request(raw):
    """Parse request body bytes into a :class:`QueryRequest`.

    Every malformation -- undecodable JSON, a non-object body, a
    missing ``xpath``, a wrong-typed or unknown field -- is a
    ``bad-request`` :class:`ProtocolError` naming the offender, so
    clients debug against messages, not stack traces.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError("bad-request",
                            f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad-request",
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(_QUERY_FIELDS))
    if unknown:
        raise ProtocolError(
            "bad-request",
            f"unknown request field(s): {', '.join(unknown)}; expected "
            f"{', '.join(sorted(_QUERY_FIELDS))}")
    values = {}
    for field, (expected, default) in _QUERY_FIELDS.items():
        value = payload.get(field, default)
        if value is None:
            if field == "xpath":
                raise ProtocolError("bad-request",
                                    "request is missing 'xpath'")
            continue
        # bool is an int subclass: reject True where an int is expected.
        if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)):
            raise ProtocolError(
                "bad-request",
                f"field {field!r} must be {expected.__name__}, got "
                f"{type(value).__name__}")
        values[field] = value
    if values.get("variant") not in (None, "rp", "ep"):
        raise ProtocolError(
            "bad-request",
            f"field 'variant' must be 'rp' or 'ep', got "
            f"{values['variant']!r}")
    if values.get("limit") is not None and values["limit"] < 0:
        raise ProtocolError("bad-request", "field 'limit' must be >= 0")
    return QueryRequest(**values)


def match_payload(match):
    """JSON-ready form of one :class:`~repro.prix.matcher.TwigMatch`."""
    return {"doc": match.doc_id,
            "images": [[index, number] for index, number in match.images]}


def stats_payload(stats):
    """JSON-ready subset of a ``QueryStats`` (the ``--explain`` view)."""
    return {
        "variant": stats.variant,
        "strategy": stats.strategy,
        "arrangements": stats.arrangements,
        "range_queries": stats.filter.range_queries,
        "probes_issued": stats.filter.probes_issued,
        "candidates_refined": stats.candidates_refined,
        "candidates_accepted": stats.candidates_accepted,
        "documents_loaded": stats.documents_loaded,
        "documents_decoded": stats.documents_decoded,
        "physical_reads": stats.physical_reads,
        "elapsed_ms": round(stats.elapsed_seconds * 1000.0, 3),
    }


def result_payload(request, matches, stats, generation):
    """The ``POST /query`` success body (exact or degraded).

    An exact answer lists every match (truncated to ``request.limit``
    with the overflow counted, like the CLI).  A degraded answer
    (refinement-phase budget exhaustion) lists the candidate documents
    and the structured degradation reason instead -- the result
    contract of ``docs/ROBUSTNESS.md`` on the wire.
    """
    approximate = bool(matches.approximate)
    body = {
        "ok": True,
        "index": {"name": request.index, "generation": generation},
        "approximate": approximate,
        "stats": stats_payload(stats),
    }
    if approximate:
        reason = matches.degradation_reason
        body["degradation"] = reason.as_dict() if reason else None
        body["candidate_docs"] = matches.doc_ids
        body["candidate_count"] = len(matches.doc_ids)
        return body
    shown = list(matches)
    truncated = 0
    if request.limit is not None and len(shown) > request.limit:
        truncated = len(shown) - request.limit
        shown = shown[:request.limit]
    body["matches"] = [match_payload(match) for match in shown]
    body["match_count"] = len(matches)
    body["doc_ids"] = matches.doc_ids
    body["truncated"] = truncated
    return body
