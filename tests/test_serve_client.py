"""Unit tests for the retrying client (``repro.serve.client``).

The opener and the sleep are injected, so these run with no sockets and
no wall-clock: they pin the retry discipline (idempotent-only, typed
retryable statuses, exhaustion), the seeded-jitter backoff with the
``Retry-After`` floor, and the typed error mapping onto the
:mod:`repro.exitcodes` vocabulary.
"""

import email.message
import io
import json
import urllib.error

import pytest

from repro.exitcodes import (EXIT_CORRUPTION, EXIT_ERROR, EXIT_TIMEOUT,
                             EXIT_USAGE)
from repro.serve.client import (RETRYABLE_STATUSES, ClientCorruptionError,
                                ClientError, ClientTimeoutError,
                                ClientUsageError, PrixServeClient,
                                ServerUnavailableError)
from repro.serve.protocol import DEADLINE_HEADER

URL = "http://127.0.0.1:9"


def http_error(status, body, headers=None):
    """A scripted :class:`urllib.error.HTTPError` with a JSON body."""
    message = email.message.Message()
    for name, value in (headers or {}).items():
        message[name] = value
    raw = json.dumps(body).encode("utf-8")
    return urllib.error.HTTPError(URL + "/query", status, "scripted",
                                  message, io.BytesIO(raw))


def protocol_error(code, exit_code, message="boom", retry_after=None,
                   status=500, headers=None):
    error = {"code": code, "exit_code": exit_code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return http_error(status, {"ok": False, "error": error}, headers)


class _Response:
    def __init__(self, raw):
        self._raw = raw

    def read(self):
        return self._raw

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class FakeOpener:
    """Pops one scripted outcome per attempt: an exception to raise, or
    a dict/bytes to serve as the 200 body."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, request, timeout):
        self.requests.append((request, timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, dict):
            outcome = json.dumps(outcome).encode("utf-8")
        return _Response(outcome)


def make_client(*outcomes, **kwargs):
    opener = FakeOpener(*outcomes)
    sleeps = []
    kwargs.setdefault("retries", 3)
    client = PrixServeClient(URL, opener=opener, sleep=sleeps.append,
                             **kwargs)
    return client, opener, sleeps


class TestRequestShape:
    def test_query_posts_canonical_body(self):
        client, opener, _ = make_client({"ok": True, "doc_ids": [1]})
        result = client.query("//a/b", index="dblp", ordered=True,
                              variant="ep", use_maxgap=False, limit=3)
        assert result == {"ok": True, "doc_ids": [1]}
        (request, timeout), = opener.requests
        assert request.get_method() == "POST"
        assert request.full_url == URL + "/query"
        assert timeout == client.timeout
        assert json.loads(request.data.decode("utf-8")) == {
            "xpath": "//a/b", "index": "dblp", "ordered": True,
            "variant": "ep", "use_maxgap": False, "limit": 3}
        assert request.get_header("Content-type") == "application/json"

    def test_query_defaults_send_a_minimal_body(self):
        client, opener, _ = make_client({"ok": True})
        client.query("//a")
        (request, _), = opener.requests
        assert json.loads(request.data.decode("utf-8")) == {
            "xpath": "//a", "index": "default"}
        assert request.get_header(DEADLINE_HEADER.capitalize()) is None

    def test_deadline_rides_the_header(self):
        client, opener, _ = make_client({"ok": True})
        client.query("//a", deadline_ms=250)
        (request, _), = opener.requests
        assert request.get_header("X-prix-deadline-ms") == "250.0"

    def test_get_endpoints(self):
        client, opener, _ = make_client({"a": 1}, {"b": 2}, {"c": 3})
        assert client.metrics() == {"a": 1}
        assert client.indexes() == {"b": 2}
        assert client.healthz() == {"c": 3}
        methods = [r.get_method() for r, _ in opener.requests]
        urls = [r.full_url for r, _ in opener.requests]
        assert methods == ["GET", "GET", "GET"]
        assert urls == [URL + "/metrics", URL + "/indexes",
                        URL + "/healthz"]


class TestTypedErrors:
    @pytest.mark.parametrize("code,exit_code,status,cls", [
        ("bad-request", EXIT_USAGE, 400, ClientUsageError),
        ("not-found", EXIT_USAGE, 404, ClientUsageError),
        ("corruption", EXIT_CORRUPTION, 500, ClientCorruptionError),
        ("request-timeout", EXIT_TIMEOUT, 408, ClientTimeoutError),
        ("over-capacity", EXIT_ERROR, 503, ServerUnavailableError),
        ("draining", EXIT_ERROR, 503, ServerUnavailableError),
        ("internal", EXIT_ERROR, 500, ClientError),
    ])
    def test_protocol_errors_map_to_the_typed_hierarchy(
            self, code, exit_code, status, cls):
        client, _, _ = make_client(
            protocol_error(code, exit_code, status=status), retries=0)
        with pytest.raises(cls) as caught:
            client.query("//a")
        assert type(caught.value) is cls
        assert caught.value.exit_code == exit_code
        assert caught.value.status == status
        assert caught.value.error["code"] == code
        assert code in str(caught.value)

    def test_retry_after_prefers_body_over_header(self):
        client, _, _ = make_client(
            protocol_error("over-capacity", EXIT_ERROR, retry_after=7,
                           status=503, headers={"Retry-After": "99"}),
            retries=0)
        with pytest.raises(ServerUnavailableError) as caught:
            client.query("//a")
        assert caught.value.retry_after == 7

    def test_retry_after_header_is_the_fallback(self):
        client, _, _ = make_client(
            http_error(503, {"ok": False}, {"Retry-After": "4"}),
            retries=0)
        with pytest.raises(ClientError) as caught:
            client.query("//a")
        assert caught.value.retry_after == 4.0

    def test_unparseable_error_body_still_carries_the_status(self):
        message = email.message.Message()
        broken = urllib.error.HTTPError(URL, 500, "x", message,
                                        io.BytesIO(b"<html>"))
        client, _, _ = make_client(broken, retries=0)
        with pytest.raises(ClientError) as caught:
            client.query("//a")
        assert caught.value.status == 500
        assert caught.value.payload is None

    def test_undecodable_success_body_is_typed(self):
        client, _, _ = make_client(b"\xff\xfe not json")
        with pytest.raises(ClientError) as caught:
            client.query("//a")
        assert caught.value.status == 200
        assert caught.value.exit_code == EXIT_ERROR

    def test_unhealthy_healthz_returns_its_body(self):
        body = {"ok": False, "healthy": False,
                "error": {"code": "corruption", "exit_code": 3,
                          "message": "sick"}}
        client, _, _ = make_client(http_error(503, body), retries=0)
        assert client.healthz() == body


class TestRetryDiscipline:
    def test_retryable_statuses_are_the_contract(self):
        assert RETRYABLE_STATUSES == {408, 429, 500, 503}

    def test_transient_errors_retry_until_success(self):
        client, opener, sleeps = make_client(
            urllib.error.URLError("connection refused"),
            protocol_error("internal", EXIT_ERROR, status=500),
            protocol_error("budget-exhausted", EXIT_ERROR, status=429),
            {"ok": True, "doc_ids": [2]})
        assert client.query("//a") == {"ok": True, "doc_ids": [2]}
        assert len(opener.requests) == 4
        assert len(sleeps) == 3

    def test_caller_mistakes_fail_fast(self):
        client, opener, sleeps = make_client(
            protocol_error("bad-request", EXIT_USAGE, status=400))
        with pytest.raises(ClientUsageError):
            client.query("//a")
        assert len(opener.requests) == 1
        assert sleeps == []

    def test_exhaustion_raises_the_last_typed_error(self):
        outcomes = [protocol_error("over-capacity", EXIT_ERROR, status=503,
                                   retry_after=1) for _ in range(3)]
        client, opener, sleeps = make_client(*outcomes, retries=2)
        with pytest.raises(ServerUnavailableError) as caught:
            client.query("//a")
        assert len(opener.requests) == 3
        assert caught.value.retry_after == 1
        # Retry-After floors every backoff sleep.
        assert all(delay >= 1.0 for delay in sleeps)

    def test_a_negative_retry_count_is_refused(self):
        # It would allow no attempt at all, and then raise no error.
        with pytest.raises(ValueError, match="retries must be >= 0"):
            make_client(retries=-1)

    def test_reload_is_never_retried(self):
        client, opener, sleeps = make_client(
            urllib.error.URLError("connection reset"), retries=5)
        with pytest.raises(ClientError):
            client.reload("dblp")
        assert len(opener.requests) == 1
        assert sleeps == []
        (request, _), = opener.requests
        assert request.full_url == URL + "/reload"
        assert json.loads(request.data.decode("utf-8")) == {"index": "dblp"}

    def test_timeout_on_the_wire_is_a_transport_retry(self):
        client, opener, _ = make_client(TimeoutError("socket"), {"ok": True})
        assert client.query("//a") == {"ok": True}
        assert len(opener.requests) == 2


class TestBackoff:
    def outcomes(self, count):
        return [urllib.error.URLError("down") for _ in range(count)]

    def test_jitter_is_seeded_and_replayable(self):
        first, _, sleeps_a = make_client(*self.outcomes(4), retries=3,
                                         seed=42)
        second, _, sleeps_b = make_client(*self.outcomes(4), retries=3,
                                          seed=42)
        for client in (first, second):
            with pytest.raises(ClientError):
                client.query("//a")
        assert sleeps_a == sleeps_b
        assert len(sleeps_a) == 3

    def test_different_seeds_decorrelate(self):
        client_a, _, sleeps_a = make_client(*self.outcomes(4), retries=3,
                                            seed=1)
        client_b, _, sleeps_b = make_client(*self.outcomes(4), retries=3,
                                            seed=2)
        for client in (client_a, client_b):
            with pytest.raises(ClientError):
                client.query("//a")
        assert sleeps_a != sleeps_b

    def test_backoff_ceiling_doubles_then_caps(self):
        client, _, _ = make_client(backoff_base=0.1, backoff_max=0.4)
        for failures, ceiling in [(0, 0.1), (1, 0.2), (2, 0.4), (5, 0.4)]:
            delays = [client._delay(failures, None) for _ in range(50)]
            assert all(0.0 <= delay <= ceiling for delay in delays)

    def test_retry_after_floors_the_jitter(self):
        client, _, _ = make_client(backoff_base=0.01, backoff_max=0.02)
        error = ClientError("shed", status=503)
        error.retry_after = 5
        assert client._delay(0, error) == 5.0
