"""Live-server oracle: concurrent HTTP clients vs. direct index calls.

The serving tier must add *nothing* to the query semantics: N client
threads hammering a live ``prix serve`` process get byte-identical
answers to direct single-threaded :class:`PrixIndex` calls, and the
server's storage counters obey the same exact conservation law the
threaded stress harness pins (``tests/test_threaded_stress.py``):

- every response's matches equal the reference, byte-for-byte (compared
  through the canonical protocol serialization);
- the server-side ``physical_reads`` delta over the client phase lies
  between the reference pass and ``engines x`` it: each engine process
  (``repro.serve.engines``) has its own pool, warmed by the queries it
  happens to run.  Single-flight loading within one pool -- T threads
  missing on the same page read it once -- is pinned by
  ``tests/test_threaded_stress.py``;
- ``logical_reads`` equals ``T x`` the reference (all the work
  happened, none was lost);
- zero evictions (the pool is sized above the working set).

Also covered live: budget admission (filter-phase over-quota -> typed
429; refinement-phase -> sound ``approximate=True`` superset), the
cached-scrub ``/healthz`` regression against ``ScrubReport.to_json``,
``/metrics`` accounting, graceful drain, and that a failing request
fails alone -- an unrepairable page, a flood of malformed queries or of
malformed ``Content-Length`` headers each get their typed error while
every other query keeps its exact answer -- generated
``Content-Length`` and ``X-Prix-Deadline-Ms`` values get an answer or a
typed refusal, never an ``internal`` error or a hang, request lines the
stdlib refuses get typed errors too, and ``drain_timeout`` bounds a
shutdown.

Runs unchanged under ``PRIX_SANITIZE=1`` (the CI serve-smoke sanitized
shard does exactly that).  Environment knobs:

- ``PRIX_SERVE_THREADS``: comma-separated client thread counts
  (default 2,8).
"""

import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import queries_for
from repro.datasets.dblp import dblp
from repro.prix.budget import QueryBudget
from repro.prix.index import IndexOptions, PrixIndex, scrub_path
from repro.query.twig import MAX_ARRANGEMENTS, MAX_TWIG_NODES
from repro.serve import protocol
from repro.serve.admission import ServerLimits
from repro.serve.server import MAX_BODY_BYTES, build_server
from repro.storage.pager import Pager

THREAD_COUNTS = [int(t) for t in
                 os.environ.get("PRIX_SERVE_THREADS", "2,8").split(",")]
QUERIES = [(spec.qid, spec.xpath) for spec in queries_for("dblp")]

#: Far above the working set of an 80-record corpus (zero evictions).
POOL_PAGES = 512

#: Failing requests a test sends in a row before it checks that the
#: mount still answers a well-formed query.
FLOOD = 7


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve-oracle") / "oracle.prix")
    index = PrixIndex.build(dblp(n_records=80, seed=11),
                            IndexOptions(path=path,
                                         pool_pages=POOL_PAGES))
    index.save()
    index.close()
    return path


@contextmanager
def live_server(path, backend="mmap", limits=None):
    server = build_server([("default", path)], port=0, backend=backend,
                          pool_pages=POOL_PAGES, limits=limits)
    server.start_engines()  # fork here, before the accept thread exists
    accept = threading.Thread(target=server.serve_forever,
                              name="serve-oracle-accept")
    accept.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.drain(timeout=30.0)
        accept.join(30.0)


def http_post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def canonical_answer(body):
    """The semantic part of a /query response, canonically serialized."""
    return protocol.dumps({"approximate": body["approximate"],
                           "doc_ids": body["doc_ids"],
                           "match_count": body["match_count"],
                           "matches": body["matches"]})


def reference_answers(path, backend):
    """Single-threaded direct-index ground truth, as wire payloads."""
    answers = {}
    with PrixIndex.open(path, pool_pages=POOL_PAGES,
                        backend=backend) as index:
        base = index.io_stats.snapshot()
        for qid, xpath in QUERIES:
            request = protocol.QueryRequest(xpath=xpath)
            matches, stats = index.query_with_stats(xpath)
            answers[qid] = canonical_answer(
                protocol.result_payload(request, matches, stats, 1))
        totals = index.io_stats.delta(base)
    return answers, {"physical_reads": totals.physical_reads,
                     "logical_reads": totals.logical_reads,
                     "evictions": totals.evictions}


def storage_counters(base_url):
    status, body = http_get(base_url, "/metrics")
    assert status == 200
    return body["storage"]["default"]


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("backend", ["mmap", "file"])
def test_concurrent_clients_match_direct_index_exactly(index_path, backend,
                                                       threads):
    with live_server(index_path, backend=backend) as (server, base_url):
        reference, ref_io = reference_answers(index_path, backend)
        assert ref_io["physical_reads"] > 0  # the oracle is non-trivial

        before = storage_counters(base_url)
        barrier = threading.Barrier(threads)
        outcomes = [None] * threads

        def client(slot):
            try:
                barrier.wait()
                answers = {}
                for qid, xpath in QUERIES:
                    status, body = http_post(base_url, "/query",
                                             {"xpath": xpath})
                    assert status == 200, body
                    answers[qid] = canonical_answer(body)
                outcomes[slot] = ("ok", answers)
            except Exception as error:  # noqa: BLE001 - relayed below
                outcomes[slot] = ("err", repr(error))

        pool = [threading.Thread(target=client, args=(slot,),
                                 name=f"serve-client-{slot}")
                for slot in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        after = storage_counters(base_url)
        engines = http_get(base_url, "/metrics")[1]["engines"]["count"]

    assert [o for o in outcomes if o[0] == "err"] == []
    divergent = {slot: outcome[1] for slot, outcome in enumerate(outcomes)
                 if outcome[1] != reference}
    assert divergent == {}, "served results diverge from direct index"

    served_io = {key: after[key] - before[key]
                 for key in ("physical_reads", "logical_reads",
                             "evictions")}
    assert (ref_io["physical_reads"] <= served_io.pop("physical_reads")
            <= engines * ref_io["physical_reads"])
    assert served_io == {
        "logical_reads": threads * ref_io["logical_reads"],
        "evictions": 0,
    }


def test_filter_phase_over_quota_is_a_typed_429(index_path):
    limits = ServerLimits(budget=QueryBudget(max_range_queries=1))
    with live_server(index_path, limits=limits) as (server, base_url):
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
    assert status == 429
    error = body["error"]
    assert error["code"] == "budget-exhausted"
    assert error["exit_code"] == 1
    assert error["error_type"] == "BudgetExceededError"
    assert error["detail"]["phase"] == "filter"
    assert error["detail"]["limit"] == "range_queries"


def test_refinement_over_quota_degrades_to_sound_superset(index_path):
    limits = ServerLimits(budget=QueryBudget(max_candidates=1))
    with live_server(index_path, limits=limits) as (server, base_url):
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
        exact_docs = None
        with PrixIndex.open(index_path, backend="mmap") as index:
            exact_docs = index.query("//article/author").doc_ids
    assert status == 200
    assert body["approximate"] is True
    assert body["degradation"]["phase"] == "refinement"
    assert body["degradation"]["limit"] == "candidates"
    # Theorems 1-2: the degraded answer is a superset of the exact one.
    assert set(body["candidate_docs"]) >= set(exact_docs)


def test_over_capacity_and_draining_rejections_are_typed(index_path):
    limits = ServerLimits(max_inflight=0)
    with live_server(index_path, limits=limits) as (server, base_url):
        status, body = http_post(base_url, "/query", {"xpath": "//a"})
        assert (status, body["error"]["code"]) == (503, "over-capacity")
        server.admission.begin_drain()
        status, body = http_post(base_url, "/query", {"xpath": "//a"})
        assert (status, body["error"]["code"]) == (503, "draining")


def test_healthz_serves_the_exact_scrub_to_json(index_path):
    with live_server(index_path) as (server, base_url):
        status, body = http_get(base_url, "/healthz")
        # Recomputed now, the report must equal the mount-time cache:
        # both sides are ScrubReport.to_json of the same bytes.
        expected = json.loads(scrub_path(index_path).to_json())
    assert status == 200
    assert body["healthy"] is True
    entry = body["indexes"]["default"]
    assert entry["scrub"] == expected
    assert entry["generation"] == 1


def test_metrics_account_requests_errors_and_degradations(index_path):
    limits = ServerLimits(budget=QueryBudget(max_candidates=1))
    with live_server(index_path, limits=limits) as (server, base_url):
        http_post(base_url, "/query", {"xpath": "//article/author"})  # degrades
        http_post(base_url, "/query", {"bad": "request"})
        http_get(base_url, "/nowhere")
        status, body = http_get(base_url, "/metrics")
    assert status == 200
    query = body["endpoints"]["/query"]
    assert query["requests"] == 2
    assert query["degraded"] == 1
    assert query["errors"] == {"bad-request": 1}
    assert body["endpoints"]["/nowhere"]["errors"] == {"not-found": 1}
    assert body["admission"]["inflight"] == 0


def test_malformed_xpath_neither_trips_the_circuit_nor_retries(index_path):
    """A query that does not parse is the caller's mistake (400
    ``bad-request``): however many arrive, the mount keeps answering,
    and the retrying client spends one HTTP attempt on each."""
    from repro.serve.client import ClientUsageError, PrixServeClient
    attempts = []

    def counting_opener(request, timeout):
        attempts.append(request.full_url)
        return urllib.request.urlopen(request, timeout=timeout)

    with live_server(index_path) as (server, base_url):
        client = PrixServeClient(base_url, opener=counting_opener,
                                 sleep=lambda seconds: None)
        for _ in range(FLOOD):
            with pytest.raises(ClientUsageError) as caught:
                client.query("//article[[")
            assert caught.value.status == 400
            assert caught.value.error["code"] == "bad-request"
            assert caught.value.error["error_type"] == "XPathSyntaxError"
        assert len(attempts) == FLOOD
        assert client.query("//article/author")["ok"] is True


def test_refused_twigs_are_bad_requests_and_never_trip_the_circuit(
        index_path):
    """A one-step query, or one whose branches can be ordered more ways
    than ``MAX_ARRANGEMENTS``, parses but cannot run: the caller's
    mistake (400), not a server fault (500 ``internal``), and the mount
    keeps answering however many arrive."""
    eight_way = "//article" + "".join(f"[./f{i}]" for i in range(8))
    with live_server(index_path) as (server, base_url):
        for _ in range(FLOOD):
            for xpath, fragment in (
                    ("//author", "at least two sequenced nodes"),
                    (eight_way, f"at most {MAX_ARRANGEMENTS}")):
                status, body = http_post(base_url, "/query",
                                         {"xpath": xpath})
                assert status == 400
                assert body["error"]["code"] == "bad-request"
                assert body["error"]["error_type"] == "UnsupportedTwigError"
                assert fragment in body["error"]["message"]
        status, body = http_post(base_url, "/query",
                                 {"xpath": eight_way, "ordered": True})
        assert (status, body["match_count"]) == (200, 0)


def test_reload_and_drain_leave_no_loose_ends(index_path):
    with live_server(index_path) as (server, base_url):
        status, body = http_post(base_url, "/reload", {})
        assert (status, body["generation"]) == (200, 2)
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
        assert status == 200
        assert body["index"]["generation"] == 2
    # The context manager drained: every mount is closed and the socket
    # is gone.
    assert server.registry.describe() == {}
    with pytest.raises(urllib.error.URLError):
        http_get(base_url, "/healthz")


# ------------------------------------------------ one failure at a time

def cold_pages(path, xpath):
    """Ids of the pages a query of ``xpath`` reads from disk on an index
    just opened from ``path`` (so none that the open itself read)."""
    seen = set()
    real_read = Pager.read

    def recording_read(pager, page_id):
        seen.add(page_id)
        return real_read(pager, page_id)

    with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
        with mock.patch.object(Pager, "read", recording_read):
            index.query(xpath)
    return seen


def flip_first_byte(path, page_id):
    """Corrupt page ``page_id`` of the index file at ``path`` in place."""
    page_size = PrixIndex._read_superblock(path)[3]
    with open(path, "r+b") as handle:
        handle.seek(page_id * page_size)
        first = handle.read(1)[0]
        handle.seek(page_id * page_size)
        handle.write(bytes([first ^ 0xFF]))


def test_unrepairable_page_fails_only_the_queries_that_read_it(tmp_path):
    """A page that fails its checksum with no log image to repair it
    from: each query that reads it gets a typed ``corruption``, however
    often it is asked, and every other query keeps its exact answer.
    Each engine process quarantines the page in its own guard, so the
    mount counts one quarantine per engine that met it."""
    path = str(tmp_path / "one-bad-page.prix")
    with PrixIndex.build(dblp(n_records=30, seed=11),
                         IndexOptions(path=path, pool_pages=POOL_PAGES,
                                      guard=True)) as index:
        index.save()
    reference, _ = reference_answers(path, "file")
    reads = {qid: cold_pages(path, xpath) for qid, xpath in QUERIES}
    (bad_qid, bad_xpath), (clean_qid, _) = QUERIES[0], QUERIES[1]
    bad_page = min(reads[bad_qid] - reads[clean_qid])
    flip_first_byte(path, bad_page)

    with live_server(path) as (server, base_url):
        for _ in range(FLOOD):
            status, body = http_post(base_url, "/query",
                                     {"xpath": bad_xpath})
            assert (status, body["error"]["code"]) == (500, "corruption")
        for qid, xpath in QUERIES:
            status, body = http_post(base_url, "/query", {"xpath": xpath})
            if bad_page in reads[qid]:
                assert (status, body["error"]["code"]) == \
                    (500, "corruption"), qid
            else:
                assert status == 200, (qid, body)
                assert canonical_answer(body) == reference[qid]
        quarantined = storage_counters(base_url)["guard_quarantines"]
        engines = http_get(base_url, "/metrics")[1]["engines"]["count"]
    assert 1 <= quarantined <= engines


def test_deep_twig_flood_leaves_the_next_query_answering(index_path):
    """A twig nested far past ``MAX_TWIG_NODES`` is a typed 400 before
    the parser recurses into it, however often it is sent, and the next
    well-formed query answers as usual."""
    deep = "//article" + "[./author" * 1000 + "]" * 1000
    with live_server(index_path) as (server, base_url):
        for _ in range(FLOOD):
            status, body = http_post(base_url, "/query", {"xpath": deep})
            assert (status, body["error"]["code"]) == (400, "bad-request")
            assert body["error"]["error_type"] == "XPathSyntaxError"
            assert str(MAX_TWIG_NODES) in body["error"]["message"]
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
    assert status == 200 and body["match_count"] > 0


def test_malformed_content_length_is_a_bad_request(index_path):
    """A ``Content-Length`` that is not a byte count from 0 to
    ``MAX_BODY_BYTES`` is refused before the body is read -- a negative
    one does not park the handler until the socket times out -- and the
    mount keeps answering."""
    with live_server(index_path) as (server, base_url):
        for value in ("abc", "1.5", "-1", str(MAX_BODY_BYTES + 1),
                      "+29", "2_9", "0x1d"):
            status, body = post_with_headers(server, value, None)
            assert (status, body["error"]["code"]) == \
                (400, "bad-request"), value
            assert "Content-Length" in body["error"]["message"]
        # Whitespace around the digits is HTTP's optional whitespace.
        status, body = post_with_headers(server, " 29 ", None)
        assert status == 200 and body["match_count"] > 0
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
    assert status == 200 and body["match_count"] > 0


#: Header values: text, ints and floats (NaN and the infinities among
#: them), negatives, and values far past any bound.
HEADER_VALUES = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
            max_size=12),
    st.integers(-(10 ** 30), 10 ** 30).map(str),
    st.integers(-1, MAX_BODY_BYTES + 1).map(str),
    st.floats().map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e309", "-0", "1_0",
                     "0x10", " 7 ", "+3", "1e-320", "9" * 5000]))

#: What a well-formed query body is padded or cut to.
FUZZ_BODY = json.dumps({"xpath": "//article/author"}).encode("utf-8")


def post_with_headers(server, content_length, deadline):
    """``POST /query`` with the given ``Content-Length`` and, unless
    None, ``X-Prix-Deadline-Ms``.  When the length is a byte count the
    server accepts -- ASCII digits, optionally wrapped in spaces or tabs
    -- exactly that many body bytes follow (the query, padded with
    spaces or cut short); otherwise none."""
    digits = content_length.strip(" \t")
    try:
        length = int(digits) if digits.isascii() and digits.isdigit() else -1
    except ValueError:      # more digits than int() converts
        length = -1
    body = (FUZZ_BODY.ljust(length)[:length]
            if 0 <= length <= MAX_BODY_BYTES else b"")
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Length", content_length)
        if deadline is not None:
            connection.putheader(protocol.DEADLINE_HEADER, deadline)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_fuzzed_length_and_deadline_headers_never_fail_internally(
        index_path):
    """Each request gets its answer or a typed 400 -- or, for a valid
    deadline too short to meet, the typed 429 of an exhausted budget --
    within the client's timeout: never an ``internal`` 500, never a
    hang."""
    with live_server(index_path) as (server, base_url):
        @settings(max_examples=80, deadline=None)
        @given(content_length=HEADER_VALUES,
               deadline=st.none() | HEADER_VALUES)
        def check(content_length, deadline):
            status, body = post_with_headers(server, content_length,
                                             deadline)
            if status != 200:
                assert (status, body["error"]["code"]) in (
                    (400, "bad-request"), (429, "budget-exhausted")), body

        check()
        status, body = http_post(base_url, "/query",
                                 {"xpath": "//article/author"})
    assert status == 200 and body["match_count"] > 0


#: Request lines the stdlib refuses before dispatch, each with the
#: typed error code it must get.  A line longer than the stdlib's
#: 65 536-byte limit is refused whole (its 414); one of 40 000 bytes is
#: read and routed, so it gets the typed 404 of an unknown path.
REFUSED_REQUEST_LINES = [
    (b"PUT /query HTTP/1.1", "method-not-allowed"),
    (b"GET /healthz HTTP/9.9", "bad-request"),
    (b"GET", "bad-request"),
    (b"GET /" + b"a" * 40_000 + b" HTTP/1.1", "not-found"),
    (b"GET /" + b"a" * 65_540 + b" HTTP/1.1", "bad-request"),
]


def send_request_line(server, request_line):
    """Send ``request_line`` and an empty header block on a fresh
    connection; the answer's status and parsed JSON body."""
    with socket.create_connection(server.server_address[:2],
                                  timeout=10) as connection:
        connection.sendall(request_line + b"\r\n\r\n")
        response = http.client.HTTPResponse(connection)
        response.begin()
        return response.status, json.loads(response.read())


def test_refused_request_lines_get_typed_errors(index_path):
    """Each refused request line gets a JSON error whose code is in
    ``ERROR_KINDS``, not the stdlib's HTML page, and is counted."""
    with live_server(index_path) as (server, base_url):
        for request_line, code in REFUSED_REQUEST_LINES:
            status, body = send_request_line(server, request_line)
            assert body["error"]["code"] == code, request_line[:40]
            assert status == protocol.ERROR_KINDS[code][0]
        status, body = http_get(base_url, "/metrics")
    assert body["endpoints"]["(request-line)"]["errors"] == {
        "method-not-allowed": 1, "bad-request": 3}


def test_drain_timeout_bounds_shutdown(index_path):
    """A server built with ``drain_timeout=0.5`` gives up on a query
    that never finishes after that long, not after the default."""
    server = build_server([("default", index_path)], port=0,
                          drain_timeout=0.5)
    server.start_engines()
    accept = threading.Thread(target=server.serve_forever,
                              name="serve-oracle-accept")
    accept.start()
    stuck = server.admission.admit()
    stuck.__enter__()               # admitted, and never finishes
    started = time.monotonic()
    try:
        assert server.drain() is False
        assert time.monotonic() - started < 2.0
    finally:
        stuck.__exit__(None, None, None)
        accept.join(30.0)
