"""Golden tests for the serving protocol: every typed error, byte-exact.

The protocol's promise is that a script can branch on the same failure
vocabulary over HTTP that it branches on via exit codes from the CLI --
so these tests pin the exact (HTTP status, exit_code) pair of every
error kind, the canonical serialization bytes, and the exception ->
kind mapping for every library failure, asserted on both surfaces: the
wire's typed error and the exit code ``repro.cli.main`` returns.
"""

import json

import pytest

from repro import cli
from repro.exitcodes import (EXIT_CODES, EXIT_CORRUPTION, EXIT_ERROR,
                             EXIT_TIMEOUT, EXIT_USAGE, classify)
from repro.prix.budget import (BudgetExceededError, DegradationReason,
                               PHASE_FILTER)
from repro.prix.filtering import FilterStats
from repro.prix.incremental import RebuildRequiredError
from repro.query.twig import UnsupportedTwigError
from repro.query.xpath import XPathSyntaxError
from repro.serve import protocol
from repro.serve.protocol import (ERROR_KINDS, ProtocolError, QueryRequest,
                                  error_for_exception, parse_query_request,
                                  result_payload)
from repro.shard import ShardCatalogError, ShardError
from repro.storage.errors import (PageCorruptionError, ReadOnlyBackendError,
                                  RecordCorruptionError,
                                  TransientStorageError, WalCorruptionError)


# ---------------------------------------------------------------- vocabulary

#: The full contract, spelled out: code -> (HTTP status, CLI exit code).
EXPECTED_KINDS = {
    "bad-request": (400, EXIT_USAGE),
    "not-found": (404, EXIT_USAGE),
    "method-not-allowed": (405, EXIT_USAGE),
    "read-only": (403, EXIT_ERROR),
    "request-timeout": (408, EXIT_TIMEOUT),
    "budget-exhausted": (429, EXIT_ERROR),
    "over-capacity": (503, EXIT_ERROR),
    "draining": (503, EXIT_ERROR),
    "corruption": (500, EXIT_CORRUPTION),
    "internal": (500, EXIT_ERROR),
}


def test_error_vocabulary_is_exactly_the_contract():
    assert ERROR_KINDS == EXPECTED_KINDS
    assert EXIT_CODES == {code: exit_code for code, (_, exit_code)
                          in EXPECTED_KINDS.items()}


@pytest.mark.parametrize("code", sorted(EXPECTED_KINDS))
def test_every_error_kind_serializes_with_status_and_exit_code(code):
    status, exit_code = EXPECTED_KINDS[code]
    error = ProtocolError(code, "boom")
    assert error.http_status == status
    assert error.exit_code == exit_code
    body = error.body()
    assert body["ok"] is False
    assert body["error"]["code"] == code
    assert body["error"]["exit_code"] == exit_code
    assert body["error"]["message"] == "boom"
    assert "detail" not in body["error"]


def test_unknown_error_code_is_rejected():
    with pytest.raises(ValueError):
        ProtocolError("no-such-kind", "x")


def test_dumps_is_canonical_bytes():
    # Golden: sorted keys, compact separators, utf-8 bytes.
    assert protocol.dumps({"b": 1, "a": [True, None]}) == \
        b'{"a":[true,null],"b":1}'


def test_error_body_golden_bytes():
    error = ProtocolError("draining", "server is draining")
    assert protocol.dumps(error.body()) == (
        b'{"error":{"code":"draining","error_type":"ProtocolError",'
        b'"exit_code":1,"message":"server is draining"},"ok":false}')


def test_retryable_error_body_golden_bytes():
    # Golden: retry_after rides in the body so a client that cannot see
    # HTTP headers (or a log reader) still gets the backoff floor.
    error = ProtocolError("over-capacity", "server is at capacity",
                          retry_after=2)
    assert protocol.dumps(error.body()) == (
        b'{"error":{"code":"over-capacity","error_type":"ProtocolError",'
        b'"exit_code":1,"message":"server is at capacity",'
        b'"retry_after":2},"ok":false}')


def test_retry_after_defaults_to_absent():
    assert "retry_after" not in ProtocolError("draining", "x").body()["error"]
    assert ProtocolError("draining", "x").retry_after is None


# ------------------------------------------------------- exception mapping

def test_budget_exceeded_maps_to_429_with_degradation_detail():
    reason = DegradationReason(phase=PHASE_FILTER, limit="range_queries",
                               spent=11, budget=10)
    typed = error_for_exception(BudgetExceededError(reason))
    assert typed.code == "budget-exhausted"
    assert typed.http_status == 429
    assert typed.exit_code == EXIT_ERROR
    assert typed.error_type == "BudgetExceededError"
    assert typed.detail == {"phase": "filter", "limit": "range_queries",
                            "spent": 11, "budget": 10}
    # Budget exhaustion is retryable: the rejection carries the default
    # Retry-After hint (satellite of the chaos/resilience contract).
    assert typed.retry_after == protocol.DEFAULT_RETRY_AFTER_SECONDS


def test_timeout_maps_to_408_with_retry_after():
    # TimeoutError subclasses OSError; the dedicated arm must win over
    # the generic internal mapping so a stalled read is retryable.
    typed = error_for_exception(TimeoutError("timed out"))
    assert typed.code == "request-timeout"
    assert typed.http_status == 408
    assert typed.exit_code == EXIT_TIMEOUT
    assert typed.retry_after == protocol.DEFAULT_RETRY_AFTER_SECONDS
    # An empty TimeoutError (the usual socket case) still gets a message.
    assert error_for_exception(TimeoutError()).message == "timed out"


@pytest.mark.parametrize("error,code,exit_code", [
    (PageCorruptionError("page 3 checksum"), "corruption", EXIT_CORRUPTION),
    (WalCorruptionError("torn record"), "corruption", EXIT_CORRUPTION),
    (ShardCatalogError("manifest checksum"), "corruption", EXIT_CORRUPTION),
    (ReadOnlyBackendError("mmap is read-only"), "read-only", EXIT_ERROR),
    (FileNotFoundError("no such index"), "not-found", EXIT_USAGE),
    (KeyError("variant 'ep' was not built"), "not-found", EXIT_USAGE),
    # A malformed query is the caller's to fix: 400, never retried.
    # Any other ValueError stays internal.
    (XPathSyntaxError("unsupported predicate"), "bad-request", EXIT_USAGE),
    (ValueError("bad value"), "internal", EXIT_ERROR),
    (OSError("socket"), "internal", EXIT_ERROR),
    (TimeoutError("read timed out"), "request-timeout", EXIT_TIMEOUT),
    (BudgetExceededError(DegradationReason(
        phase=PHASE_FILTER, limit="range_queries", spent=11, budget=10)),
     "budget-exhausted", EXIT_ERROR),
    (RebuildRequiredError("scope underflow"), "internal", EXIT_ERROR),
    (ShardError("manifest lists no shards"), "internal", EXIT_ERROR),
    # A chaos-injected transient read fault is an internal server error
    # on the wire -- retryable by status, but never silently absorbed.
    (TransientStorageError("injected read-error"), "internal", EXIT_ERROR),
    (RuntimeError("surprise"), "internal", EXIT_ERROR),
    # A stored document that reads fine and does not decode (last, so
    # the generated ids of the rows above stay what they were).
    (RecordCorruptionError(7, (3, 0, 9)), "corruption", EXIT_CORRUPTION),
    # A well-formed twig the engine refuses (one step; too many branch
    # arrangements) is a caller mistake like a malformed one.
    (UnsupportedTwigError("a twig must have at least two sequenced nodes"),
     "bad-request", EXIT_USAGE),
])
def test_library_exceptions_map_to_one_kind_on_both_surfaces(
        error, code, exit_code, monkeypatch, capsys):
    assert classify(error) == code
    # The wire: a typed error body naming the kind and its exit code.
    typed = error_for_exception(error)
    assert typed.code == code
    assert typed.exit_code == exit_code
    assert typed.error_type == type(error).__name__

    # The CLI: a command dying with the same exception exits with that
    # code behind a one-line typed message, never a traceback.
    def dies(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_stats", dies)
    assert cli.main(["stats", "any.idx"]) == exit_code
    err = capsys.readouterr().err
    assert err.startswith("error [") and err.count("\n") == 1
    assert typed.message in err and "Traceback" not in err


def test_protocol_error_passes_through_unchanged():
    original = ProtocolError("over-capacity", "full")
    assert error_for_exception(original) is original


# ------------------------------------------------------------ request parse

def test_parse_minimal_request_fills_defaults():
    request = parse_query_request(b'{"xpath": "//a/b"}')
    assert request == QueryRequest(xpath="//a/b")
    assert request.index == "default"
    assert request.ordered is False
    assert request.use_maxgap is True
    assert request.variant is None
    assert request.limit is None


def test_parse_full_request():
    request = parse_query_request(json.dumps({
        "xpath": "//a", "index": "dblp", "ordered": True,
        "variant": "ep", "use_maxgap": False, "limit": 3,
    }).encode())
    assert request == QueryRequest(xpath="//a", index="dblp", ordered=True,
                                   variant="ep", use_maxgap=False, limit=3)


@pytest.mark.parametrize("raw,fragment", [
    (b"not json", "not valid JSON"),
    (b"[1,2]", "must be a JSON object"),
    (b"{}", "missing 'xpath'"),
    (b'{"xpath": 7}', "'xpath' must be str"),
    (b'{"xpath": "//a", "bogus": 1}', "unknown request field"),
    (b'{"xpath": "//a", "ordered": "yes"}', "'ordered' must be bool"),
    (b'{"xpath": "//a", "limit": true}', "'limit' must be int"),
    (b'{"xpath": "//a", "limit": -1}', "'limit' must be >= 0"),
    (b'{"xpath": "//a", "variant": "zz"}', "must be 'rp' or 'ep'"),
])
def test_malformed_requests_are_typed_bad_requests(raw, fragment):
    with pytest.raises(ProtocolError) as caught:
        parse_query_request(raw)
    assert caught.value.code == "bad-request"
    assert caught.value.exit_code == EXIT_USAGE
    assert fragment in caught.value.message


# ------------------------------------------------------------ result bodies

class _FakeStats:
    variant = "rp"
    strategy = "trie"
    arrangements = 2
    filter = FilterStats(range_queries=40, probes_issued=12)
    candidates_refined = 5
    candidates_accepted = 3
    documents_loaded = 4
    documents_decoded = 1
    physical_reads = 7
    elapsed_seconds = 0.004


class _FakeMatch:
    def __init__(self, doc_id, images):
        self.doc_id = doc_id
        self.images = images


class _FakeResult(list):
    def __init__(self, matches, approximate=False, degradation_reason=None):
        super().__init__(matches)
        self.approximate = approximate
        self.degradation_reason = degradation_reason

    @property
    def doc_ids(self):
        return sorted({match.doc_id for match in self})


def test_exact_result_payload_lists_matches():
    matches = _FakeResult([_FakeMatch(1, ((0, 5), (1, 2))),
                           _FakeMatch(4, ((0, 9), (1, 7)))])
    body = result_payload(QueryRequest(xpath="//a"), matches, _FakeStats(),
                          generation=3)
    assert body["ok"] is True
    assert body["approximate"] is False
    assert body["index"] == {"name": "default", "generation": 3}
    assert body["match_count"] == 2
    assert body["doc_ids"] == [1, 4]
    assert body["truncated"] == 0
    assert body["matches"] == [{"doc": 1, "images": [[0, 5], [1, 2]]},
                               {"doc": 4, "images": [[0, 9], [1, 7]]}]
    assert body["stats"]["physical_reads"] == 7
    assert body["stats"]["range_queries"] == 40
    assert body["stats"]["probes_issued"] == 12
    assert body["stats"]["documents_loaded"] == 4
    assert body["stats"]["documents_decoded"] == 1
    assert body["stats"]["elapsed_ms"] == 4.0


def test_result_payload_honours_limit_and_counts_overflow():
    matches = _FakeResult([_FakeMatch(i, ()) for i in range(1, 6)])
    body = result_payload(QueryRequest(xpath="//a", limit=2), matches,
                          _FakeStats(), generation=1)
    assert len(body["matches"]) == 2
    assert body["truncated"] == 3
    assert body["match_count"] == 5  # total, not the truncated view


def test_degraded_result_payload_carries_superset_and_reason():
    reason = DegradationReason(phase="refinement", limit="candidates",
                               spent=3, budget=2)
    matches = _FakeResult([_FakeMatch(2, ()), _FakeMatch(6, ())],
                          approximate=True, degradation_reason=reason)
    body = result_payload(QueryRequest(xpath="//a"), matches, _FakeStats(),
                          generation=1)
    assert body["approximate"] is True
    assert body["candidate_docs"] == [2, 6]
    assert body["candidate_count"] == 2
    assert body["degradation"] == reason.as_dict()
    assert "matches" not in body  # no verified embeddings to show
