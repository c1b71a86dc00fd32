"""The chaos matrix: a live server over fault-injecting storage.

``prix serve`` runs over a :class:`~chaos_backend.ChaosBackend`
whose deterministic schedule throws transient read errors, injected
latency, fail-then-heal windows, and checksum-corrupting reads at the
query path, across seeds x fault mixes x client thread counts.  The
**robustness oracle** (docs/ROBUSTNESS.md) holds for every raw
response:

- a ``200`` exact answer is *byte-identical* to the fault-free direct
  index answer (canonical protocol serialization);
- a ``200 approximate=True`` answer is a sound superset of the exact
  doc ids (Theorems 1-2);
- everything else is a *typed* protocol error -- a known code with its
  contracted HTTP status -- never a silent wrong answer, a hang, or a
  crash.

And the convergence arm: a :class:`~repro.serve.client.PrixServeClient`
following the retry discipline ends up with answers byte-identical to
the fault-free run, for every seed and mix.

Also live here: the slow-loris socket timeout (typed 408) and the
``X-Prix-Deadline-Ms`` deadline propagation (typed 429 whose detail
blames the deadline).

The faults are injected from the test side (:class:`helpers.ChaosOpens`
wraps what the mount opens, then arms it): no product signature takes
a chaos argument.  Runs unchanged under ``PRIX_SANITIZE=1``.
Environment knobs:

- ``PRIX_CHAOS_SEEDS``: comma-separated schedule seeds (default three).
- ``PRIX_CHAOS_THREADS``: comma-separated client thread counts.
- ``PRIX_CHAOS_ARTIFACT``: path for the JSON evidence bundle a failing
  cell writes (the CI job uploads it).
"""

import json
import os
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager, nullcontext

import pytest

from chaos_backend import ChaosConfig
from helpers import ChaosOpens

from repro.bench.workloads import queries_for
from repro.cli import make_parser
from repro.datasets.dblp import dblp
from repro.prix.budget import QueryBudget
from repro.prix.index import IndexOptions, PrixIndex
from repro.serve import protocol
from repro.serve.admission import ServerLimits
from repro.serve.client import PrixServeClient
from repro.serve.protocol import DEADLINE_HEADER, ERROR_KINDS
from repro.serve.server import build_server

SEEDS = [int(seed) for seed in
         os.environ.get("PRIX_CHAOS_SEEDS", "101,202,303").split(",")]
THREAD_COUNTS = [int(t) for t in
                 os.environ.get("PRIX_CHAOS_THREADS", "2,8").split(",")]
ARTIFACT = os.environ.get("PRIX_CHAOS_ARTIFACT")
QUERIES = [(spec.qid, spec.xpath) for spec in queries_for("dblp")]

POOL_PAGES = 256

#: Fault mixes, sized against the measured per-query read counts
#: (4-14 logical reads each): high enough that most cells see faults,
#: low enough that a retrying client converges with margin.
MIXES = {
    "transient-storm": dict(read_error_period=30, latency_period=11,
                            latency_ms=0.2, fail_first=6),
    "corrupting": dict(read_error_period=40, corrupt_period=40,
                       latency_period=17, latency_ms=0.1),
}


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("chaos-matrix") / "chaos.prix")
    index = PrixIndex.build(dblp(n_records=30, seed=13),
                            IndexOptions(path=path, pool_pages=POOL_PAGES))
    index.save()
    index.close()
    return path


@pytest.fixture(scope="module")
def reference(index_path):
    """Fault-free direct-index ground truth, as canonical wire bytes."""
    answers = {}
    with PrixIndex.open(index_path, pool_pages=POOL_PAGES,
                        backend="file") as index:
        for qid, xpath in QUERIES:
            request = protocol.QueryRequest(xpath=xpath)
            matches, stats = index.query_with_stats(xpath)
            answers[qid] = {
                "canonical": canonical_answer(
                    protocol.result_payload(request, matches, stats, 1)),
                "doc_ids": list(matches.doc_ids),
            }
    return answers


@contextmanager
def live_server(path, *, chaos=None, request_timeout=30.0, limits=None):
    """A live server over ``path``.  With ``chaos`` (a ChaosConfig) every
    backend the mount opens reads through a ChaosBackend, armed once the
    mount is attached."""
    opens = ChaosOpens(chaos) if chaos is not None else None
    with opens or nullcontext():
        server = build_server([("default", path)], port=0, backend="file",
                              pool_pages=POOL_PAGES, limits=limits,
                              request_timeout=request_timeout)
    if opens is not None:
        opens.arm()
    server.start_engines()  # fork here, before the accept thread exists
    accept = threading.Thread(target=server.serve_forever,
                              name="chaos-matrix-accept")
    accept.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.drain(timeout=30.0)
        accept.join(30.0)


def http_post(base, path, payload, headers=None):
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        method="POST", headers=all_headers)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def canonical_answer(body):
    """The semantic part of a /query response, canonically serialized."""
    return protocol.dumps({"approximate": body["approximate"],
                           "doc_ids": body["doc_ids"],
                           "match_count": body["match_count"],
                           "matches": body["matches"]})


def check_oracle(qid, status, body, reference):
    """One response against the robustness oracle; returns a violation
    description or None."""
    expected = reference[qid]
    if status == 200 and body.get("ok") and not body["approximate"]:
        if canonical_answer(body) != expected["canonical"]:
            return {"kind": "silent-wrong-answer", "qid": qid,
                    "got": json.loads(canonical_answer(body).decode())}
        return None
    if status == 200 and body.get("ok") and body["approximate"]:
        if not set(body["candidate_docs"]) >= set(expected["doc_ids"]):
            return {"kind": "unsound-superset", "qid": qid,
                    "candidates": body["candidate_docs"]}
        return None
    error = body.get("error") or {}
    code = error.get("code")
    if code not in ERROR_KINDS or status != ERROR_KINDS[code][0]:
        return {"kind": "untyped-failure", "qid": qid, "status": status,
                "body": body}
    return None


def dump_evidence(cell, violations, chaos_recipe):
    evidence = {"cell": cell, "violations": violations,
                "chaos": chaos_recipe}
    if ARTIFACT:
        with open(ARTIFACT, "w", encoding="utf-8") as handle:
            json.dump(evidence, handle, indent=2, sort_keys=True)
    return json.dumps(evidence, indent=2, sort_keys=True, default=str)


# ------------------------------------------------------------- the matrix

@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_matrix_oracle_and_convergence(index_path, reference, seed,
                                             mix):
    chaos = ChaosConfig(seed=seed, **MIXES[mix])
    with live_server(index_path, chaos=chaos) as (server, base_url):
        violations = []

        # Raw phase: concurrent unretried clients; every response must
        # satisfy the oracle -- correct bytes, sound superset, or typed.
        for threads in THREAD_COUNTS:
            barrier = threading.Barrier(threads)
            outcomes = [None] * threads

            def client(slot):
                try:
                    barrier.wait()
                    seen = []
                    for qid, xpath in QUERIES:
                        status, body, _ = http_post(base_url, "/query",
                                                    {"xpath": xpath})
                        seen.append((qid, status, body))
                    outcomes[slot] = ("ok", seen)
                except Exception as error:  # noqa: BLE001 - relayed below
                    outcomes[slot] = ("crash", repr(error))

            pool = [threading.Thread(target=client, args=(slot,),
                                     name=f"chaos-client-{slot}")
                    for slot in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()

            for slot, (verdict, seen) in enumerate(outcomes):
                if verdict != "ok":
                    violations.append({"kind": "client-crash",
                                       "slot": slot, "error": seen})
                    continue
                for qid, status, body in seen:
                    violation = check_oracle(qid, status, body, reference)
                    if violation is not None:
                        violation["threads"] = threads
                        violations.append(violation)

        # Convergence phase: the retrying client must end up with the
        # fault-free answers, byte-identical, for every query.
        retrier = PrixServeClient(base_url, retries=20, seed=seed,
                                  backoff_base=0.01, backoff_max=0.05)
        for qid, xpath in QUERIES:
            body = retrier.query(xpath)
            if canonical_answer(body) != reference[qid]["canonical"]:
                violations.append({"kind": "non-convergence", "qid": qid,
                                   "approximate": body["approximate"]})

        with server.registry.lease("default") as mount:
            recipe = mount.index._pool.chaos_describe()
        # The matrix is vacuous if the schedule never fired.  The counts
        # are the faults the engine processes injected: the front end's
        # own copy of the backend serves no query.
        assert sum(recipe["injected"].values()) > 0, recipe

    if violations:
        pytest.fail("chaos oracle violated:\n"
                    + dump_evidence({"seed": seed, "mix": mix,
                                     "threads": THREAD_COUNTS},
                                    violations, recipe))


# ------------------------------------------------- slow-loris and deadline

def test_slow_loris_request_gets_a_typed_408(index_path):
    with live_server(index_path, request_timeout=0.3) as (server, base_url):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            # A drip-feed attacker: part of a request line, then silence.
            sock.sendall(b"POST /query HT")
            sock.settimeout(10)
            raw = b""
            while True:
                try:
                    chunk = sock.recv(4096)
                except TimeoutError:
                    break
                if not chunk:
                    break
                raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408"), raw
    assert b"Retry-After:" in head
    error = json.loads(body)["error"]
    assert error["code"] == "request-timeout"
    assert error["exit_code"] == 4


def test_deadline_header_tightens_the_budget_fork(index_path):
    with live_server(index_path) as (server, base_url):
        status, body, headers = http_post(
            base_url, "/query", {"xpath": QUERIES[0][1]},
            headers={DEADLINE_HEADER: "0.001"})
        assert status == 429, body
        error = body["error"]
        assert error["code"] == "budget-exhausted"
        assert error["detail"]["limit"] == "deadline"
        assert error["retry_after"] == 1
        assert headers.get("Retry-After") == "1"
        # A generous deadline changes nothing.
        status, body, _ = http_post(
            base_url, "/query", {"xpath": QUERIES[0][1]},
            headers={DEADLINE_HEADER: "60000"})
        assert status == 200 and body["approximate"] is False

        for bad in ("nope", "-5", "0", "nan", "inf", "-inf"):
            status, body, _ = http_post(
                base_url, "/query", {"xpath": "//a"},
                headers={DEADLINE_HEADER: bad})
            assert status == 400
            assert body["error"]["code"] == "bad-request"
            assert DEADLINE_HEADER in body["error"]["message"]


def test_a_finite_budget_ms_still_yields_to_a_tighter_header(index_path):
    """The ``--budget-ms`` template is a ceiling, not a floor: a server
    started with one still fires a client's tighter deadline."""
    args = make_parser().parse_args(
        ["serve", index_path, "--budget-ms", "60000"])
    limits = ServerLimits(budget=QueryBudget.from_flags(args))
    assert limits.budget.deadline_seconds == 60.0
    with live_server(index_path, limits=limits) as (server, base_url):
        status, body, _ = http_post(
            base_url, "/query", {"xpath": QUERIES[0][1]},
            headers={DEADLINE_HEADER: "0.001"})
        assert status == 429, body
        assert body["error"]["detail"]["limit"] == "deadline"
        status, body, _ = http_post(
            base_url, "/query", {"xpath": QUERIES[0][1]})
        assert status == 200 and body["approximate"] is False


def test_a_wildcard_root_is_a_bad_request(index_path):
    """``//*`` parses but has no named root: the caller's mistake (400
    ``bad-request``), not a server fault (500 ``internal``)."""
    with live_server(index_path) as (server, base_url):
        status, body, _ = http_post(base_url, "/query", {"xpath": "//*"})
        assert status == 400, body
        assert body["error"]["code"] == "bad-request"
        assert body["error"]["error_type"] == "UnsupportedTwigError"
