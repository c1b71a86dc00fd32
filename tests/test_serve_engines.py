"""The engine tier of ``prix serve`` (``repro.serve.engines``).

A serving process forks one engine process per CPU and runs every query
there.  These tests hold the process model to its contract:

- ``/metrics`` reports the engines and the queries each served, and
  concurrent clients spread over more than one of them;
- an engine killed during a query fails that query alone, with a typed
  ``internal`` error and no hang, and the next queries answer exactly
  -- on the engines left, and in the front end once none is;
- a hot reload's generation is opened by the engines from the mount's
  path: they answer from the new file, not from what they inherited;
- a shard directory's page reads come back one delta per shard, and
  its scatter and per-shard query counts come back too;
- a front end killed outright leaves no engine behind, and one whose
  stdout reader went away still drains on SIGTERM.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest

from test_serve_oracle import (QUERIES, canonical_answer, http_get,
                               http_post, live_server, reference_answers)

from repro.datasets.dblp import dblp
from repro.prix.index import IndexOptions, PrixIndex
from repro.serve.engines import engine_count
from repro.shard import ShardedIndex, build_shards

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: An xpath the planted engine fault below recognises.
KILL_ME = "//article[./title]/author"


def build(path, records, seed=11):
    with PrixIndex.build(dblp(n_records=records, seed=seed),
                         IndexOptions(path=str(path))) as index:
        index.save()
    return str(path)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    return build(tmp_path_factory.mktemp("engines") / "engines.prix", 40)


def engines_row(base_url):
    status, body = http_get(base_url, "/metrics")
    assert status == 200
    return body["engines"]


def test_metrics_count_engines_and_clients_spread_over_them(index_path):
    reference, _ = reference_answers(index_path, "mmap")
    with live_server(index_path) as (server, base_url):
        row = engines_row(base_url)
        assert row["count"] == len(row["processes"]) == engine_count()
        assert [process["served"] for process in row["processes"]] == \
            [0] * row["count"]
        wrong = []

        def client():
            for number in range(20):
                qid, xpath = QUERIES[number % len(QUERIES)]
                status, body = http_post(base_url, "/query",
                                         {"xpath": xpath})
                if status != 200 or canonical_answer(body) != reference[qid]:
                    wrong.append((qid, status))

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        row = engines_row(base_url)
    assert wrong == []
    served = [process["served"] for process in row["processes"]]
    assert sum(served) == 40
    assert sum(1 for count in served if count) >= min(2, row["count"])


def test_an_engine_killed_during_a_query_fails_that_query_alone(index_path):
    reference, _ = reference_answers(index_path, "mmap")
    real = PrixIndex.query_with_stats

    def dies_on_cue(index, pattern, **options):
        if pattern == KILL_ME:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(index, pattern, **options)

    # Patched before the server forks: its engines inherit the fault.
    with mock.patch.object(PrixIndex, "query_with_stats", dies_on_cue):
        with live_server(index_path) as (server, base_url):
            before = engines_row(base_url)["count"]
            started = time.monotonic()
            status, body = http_post(base_url, "/query",
                                     {"xpath": KILL_ME})
            assert time.monotonic() - started < 10
            assert (status, body["error"]["code"]) == (500, "internal")
            assert engines_row(base_url)["count"] == before - 1
            for qid, xpath in QUERIES:
                status, body = http_post(base_url, "/query",
                                         {"xpath": xpath})
                assert status == 200, body
                assert canonical_answer(body) == reference[qid]
            # Engines that die while idle cost no query anything.
            for row in engines_row(base_url)["processes"]:
                os.kill(row["pid"], signal.SIGKILL)
                # Dead, and left for the server to reap.
                os.waitid(os.P_PID, row["pid"], os.WEXITED | os.WNOWAIT)
            for qid, xpath in QUERIES:
                status, body = http_post(base_url, "/query",
                                         {"xpath": xpath})
                assert status == 200, body
                assert canonical_answer(body) == reference[qid]
            assert engines_row(base_url)["count"] == 0


def test_engines_answer_a_reloaded_generation_from_its_file(tmp_path):
    path = build(tmp_path / "reload.prix", 20, seed=3)
    with live_server(path) as (server, base_url):
        for _, xpath in QUERIES:        # every engine holds generation 1
            assert http_post(base_url, "/query", {"xpath": xpath})[0] == 200
        # A rebuilt file swapped in by rename, as a deployment would:
        # the generation still serving keeps its own inode.
        os.replace(build(tmp_path / "rebuilt.prix", 60, seed=4), path)
        fresh, _ = reference_answers(path, "mmap")
        status, body = http_post(base_url, "/reload", {})
        assert (status, body["generation"]) == (200, 2)
        for _ in range(engine_count()):
            for qid, xpath in QUERIES:
                status, body = http_post(base_url, "/query",
                                         {"xpath": xpath})
                assert status == 200, body
                assert body["index"]["generation"] == 2
                assert canonical_answer(body) == fresh[qid]


def test_a_shard_directory_reports_each_shards_reads(index_path, tmp_path):
    reference, _ = reference_answers(index_path, "mmap")
    shards = str(tmp_path / "shards")
    build_shards(dblp(n_records=40, seed=11).documents, shards, shards=2)
    with live_server(shards) as (server, base_url):
        for qid, xpath in QUERIES:
            status, body = http_post(base_url, "/query", {"xpath": xpath})
            assert status == 200, body
            assert canonical_answer(body) == reference[qid]
        row = http_get(base_url, "/metrics")[1]["storage"]["default"]
    assert [shard["logical_reads"] > 0 for shard in row["shards"]] == \
        [True, True]
    for counter in ("logical_reads", "physical_reads"):
        assert row[counter] == sum(shard[counter] for shard in row["shards"])


def test_a_shard_directorys_query_counters_come_back_from_the_engines(
        tmp_path):
    shards = str(tmp_path / "shards")
    build_shards(dblp(n_records=40, seed=11).documents, shards, shards=2)
    xpaths = [xpath for _, xpath in QUERIES[:3]]
    with ShardedIndex.open(shards) as local:
        for xpath in xpaths:
            local.query(xpath)
        expected = local.summary()
    with live_server(shards) as (server, base_url):
        for xpath in xpaths:
            status, body = http_post(base_url, "/query", {"xpath": xpath})
            assert status == 200, body
        row = http_get(base_url, "/metrics")[1]["storage"]["default"]
    assert row["scatter"] == expected["scatter"]
    assert row["scatter"]["queries"] == 3
    assert [shard["queries"] for shard in row["shards"]] == \
        [shard["queries"] for shard in expected["shards"]]


# -------------------------------------------------- the serving process

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads process states from /proc")


def running(pid):
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def spawn(index_path):
    """``python -m repro.serve`` on an ephemeral port; returns the
    process and its URL (read from the listening line)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", index_path, "--port", "0"],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    assert "listening on http://" in line, line
    return process, line.split("listening on ")[1].strip()


def wait_gone(pids, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        left = [pid for pid in pids if running(pid)]
        if not left:
            return []
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


@needs_proc
def test_a_killed_front_end_leaves_no_engine(index_path):
    process, base_url = spawn(index_path)
    try:
        status, _ = http_post(base_url, "/query", {"xpath": QUERIES[0][1]})
        assert status == 200
        pids = [row["pid"] for row in engines_row(base_url)["processes"]]
        assert pids and all(running(pid) for pid in pids)
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
    assert wait_gone(pids, 5.0) == []


@needs_proc
def test_sigterm_drains_after_the_stdout_reader_went_away(index_path):
    process, base_url = spawn(index_path)
    pids = [row["pid"] for row in engines_row(base_url)["processes"]]
    process.stdout.close()
    process.send_signal(signal.SIGTERM)
    try:
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert wait_gone(pids, 5.0) == []
